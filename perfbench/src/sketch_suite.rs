//! `sketch_suite`: single-thread sketches of Table I stand-ins with
//! Alg 3 (-1,1), Alg 3 ±1 and Alg 4, in complete rounds.
//!
//! Every round sketches every matrix with every kernel once, so each
//! (matrix, kernel) pair contributes the same number of calls and the
//! percentiles of the per-call rate are stable from run to run.

use crate::inputs::{self, mix, SuiteMatrix};
use crate::probes;
use crate::report::{Metrics, Tally};
use crate::stats::Samples;
use crate::trace;
use crate::{Ctx, Run};
use densekit::Matrix;
use rngkit::{FastRng, Rademacher, UnitUniform};
use sketchcore::{flops, sketch_alg3, sketch_alg3_signs, sketch_alg4, SketchConfig};
use sparsekit::BlockedCsr;
use std::hint::black_box;
use std::time::Instant;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kernel {
    Alg3,
    Alg3Signs,
    Alg4,
}

pub const KERNELS: [Kernel; 3] = [Kernel::Alg3, Kernel::Alg3Signs, Kernel::Alg4];

/// Blocking of the paper's Frontera runs (b_d = 3000, b_n = 500), clamped
/// to the problem.
pub fn config(d: usize, n: usize, seed: u64) -> SketchConfig {
    SketchConfig::new(d, 3000.min(d), 500.min(n.max(1)), seed)
}

pub fn uniform(seed: u64) -> rngkit::DistSampler<UnitUniform<f64>, FastRng> {
    UnitUniform::<f64>::sampler(FastRng::new(seed))
}

pub fn signs(seed: u64) -> rngkit::DistSampler<Rademacher<i8>, FastRng> {
    Rademacher::<i8>::sampler(FastRng::new(seed))
}

/// One sketch call through the named kernel.
pub fn sketch(
    k: Kernel,
    m: &SuiteMatrix,
    blocked: &BlockedCsr<f64>,
    cfg: &SketchConfig,
) -> Matrix<f64> {
    match k {
        Kernel::Alg3 => {
            let _s = trace::span("sketchcore.sketch_alg3");
            sketch_alg3(&m.a, cfg, &uniform(cfg.seed))
        }
        Kernel::Alg3Signs => {
            let _s = trace::span("sketchcore.sketch_alg3_signs");
            sketch_alg3_signs(&m.a, cfg, &signs(cfg.seed))
        }
        Kernel::Alg4 => {
            let _s = trace::span("sketchcore.sketch_alg4");
            sketch_alg4(blocked, cfg, &uniform(cfg.seed))
        }
    }
}

/// Relative Frobenius distance `‖x − y‖ / ‖y‖`.
pub fn rel_diff(x: &Matrix<f64>, y: &Matrix<f64>) -> f64 {
    let num: f64 = x
        .as_slice()
        .iter()
        .zip(y.as_slice())
        .map(|(a, b)| (a - b) * (a - b))
        .sum::<f64>()
        .sqrt();
    num / y.fro_norm().max(f64::MIN_POSITIVE)
}

/// Tolerance for kernel-vs-baseline agreement: both compute the same sums
/// in different orders, so they agree to a few ulps per accumulated term.
pub const BASELINE_TOL: f64 = 1e-12;

/// Once per matrix: every kernel agrees with `baselines::mkl_style` on a
/// materialized `S` (at a reduced sketch size `d = 64`, so `S` stays small).
fn check_against_baseline(
    m: &SuiteMatrix,
    blocked: &BlockedCsr<f64>,
    seed: u64,
    tally: &mut Tally,
) {
    let d = 64;
    let cfg = SketchConfig::new(d, d, blocked.block_width(), seed);
    let s_uni = baselines::materialize_s(&uniform(seed), d, m.a.nrows(), cfg.b_d);
    let want = baselines::mkl_style(&m.a, &s_uni);
    drop(s_uni);
    let s_sgn = baselines::materialize_s(
        &Rademacher::<f64>::sampler(FastRng::new(seed)),
        d,
        m.a.nrows(),
        cfg.b_d,
    );
    let want_sgn = baselines::mkl_style(&m.a, &s_sgn);
    drop(s_sgn);
    for k in KERNELS {
        let got = sketch(k, m, blocked, &cfg);
        let reference = if k == Kernel::Alg3Signs {
            &want_sgn
        } else {
            &want
        };
        let e = rel_diff(&got, reference);
        tally.record(if e <= BASELINE_TOL {
            Ok(())
        } else {
            Err(format!("{} {k:?} vs mkl_style: rel diff {e:.3e}", m.name))
        });
    }
}

pub fn run(ctx: &Ctx) -> Run {
    let mats = inputs::sketch_suite(ctx.seed, ctx.size);
    let cfgs: Vec<SketchConfig> = mats
        .iter()
        .map(|m| config(m.d, m.a.ncols(), ctx.seed))
        .collect();

    // Set-up: the program's own preparation of each input (validation and
    // the blocked-CSR build Alg 4 needs). It runs a few times at the start
    // and again before every round, so its median samples the whole run.
    let mut setup = Samples::new();
    let (mut build_ms, mut validate_ms) = (Samples::new(), Samples::new());
    let mut prepare = || {
        let mut blocked = Vec::with_capacity(mats.len());
        let t0 = Instant::now();
        let (mut tv, mut tb) = (0.0, 0.0);
        for (m, cfg) in mats.iter().zip(&cfgs) {
            let t = Instant::now();
            let ok = {
                let _s = trace::span("sparsekit.validate");
                m.a.validate().is_ok()
            };
            tv += t.elapsed().as_secs_f64();
            assert!(ok, "generated input {} failed validation", m.name);
            let t = Instant::now();
            let b = {
                let _s = trace::span("sparsekit.blocked_csr_from_csc");
                BlockedCsr::from_csc(&m.a, cfg.b_n)
            };
            tb += t.elapsed().as_secs_f64();
            blocked.push(b);
        }
        setup.push(t0.elapsed().as_secs_f64());
        validate_ms.push(tv * 1e3);
        build_ms.push(tb * 1e3);
        blocked
    };
    let mut blocked = prepare();
    for _ in 1..ctx.setup_reps() {
        blocked = prepare();
    }

    let mut tally = Tally::default();
    for (m, b) in mats.iter().zip(&blocked) {
        check_against_baseline(m, b, mix(ctx.seed, 0xC4EC), &mut tally);
    }

    // Measured rounds. In a traced run, rounds alternate traced/untraced
    // so the tracing overhead is measured on the same work.
    let mut rate = Samples::new();
    let mut per_kernel: Vec<Samples> = vec![Samples::new(); KERNELS.len()];
    let (mut traced_s, mut untraced_s) = (0.0, 0.0);
    let (mut cpu_s, mut ops) = (0.0, 0usize);
    let start = Instant::now();
    let mut round = 0u64;
    let mut peak_rss_mb = 0.0;
    while round < 2 || start.elapsed().as_secs_f64() < ctx.seconds {
        if round > 0 {
            blocked = prepare();
        }
        let traced = ctx.trace && round.is_multiple_of(2);
        trace::set_enabled(traced);
        let t_round = Instant::now();
        let cpu0 = crate::host::proc_cpu_s("self");
        {
            let _r = trace::span("bench.round");
            for (mi, (m, b)) in mats.iter().zip(&blocked).enumerate() {
                let cfg = SketchConfig {
                    seed: mix(ctx.seed, round * 16 + mi as u64),
                    ..cfgs[mi]
                };
                let mut fro = [0.0; 3];
                for (ki, &k) in KERNELS.iter().enumerate() {
                    let t = Instant::now();
                    let out = black_box(sketch(k, m, b, &cfg));
                    let secs = t.elapsed().as_secs_f64();
                    let gf = flops(cfg.d, m.a.nnz()) as f64 / secs / 1e9;
                    rate.push(gf);
                    per_kernel[ki].push(gf);
                    fro[ki] = out.fro_norm();
                    tally.record(if fro[ki].is_finite() && fro[ki] > 0.0 {
                        Ok(())
                    } else {
                        Err(format!("{} {k:?}: non-finite or empty sketch", m.name))
                    });
                }
                // Alg 3 and Alg 4 draw the same S: their sketches agree.
                let e = (fro[0] - fro[2]).abs() / fro[0];
                tally.record(if e <= BASELINE_TOL {
                    Ok(())
                } else {
                    Err(format!("{}: Alg 3 vs Alg 4 ‖Â‖ differ by {e:.3e}", m.name))
                });
            }
        }
        cpu_s += crate::host::proc_cpu_s("self") - cpu0;
        ops += mats.len() * KERNELS.len();
        if traced {
            traced_s += t_round.elapsed().as_secs_f64();
        } else {
            untraced_s += t_round.elapsed().as_secs_f64();
        }
        // Peak memory after a fixed amount of work, so it does not grow
        // with how many rounds fit in the run.
        if round == 1 {
            peak_rss_mb = crate::host::peak_rss_mb("self");
        }
        round += 1;
    }
    trace::set_enabled(ctx.trace);

    let mut metrics = Metrics::default();
    metrics.set("setup_s", setup.pct(0.5), setup.len());
    metrics.set("cpu_ms_per_op", cpu_s * 1e3 / ops.max(1) as f64, ops);
    metrics.set("sketch_gflops.p50", rate.pct(0.5), rate.len());
    metrics.set("sketch_gflops.p10", rate.pct(0.1), rate.len());
    ctx.check_tail("sketch_gflops.p10", 0.1, rate.len());

    let working_set = mats
        .iter()
        .map(|m| (m.a.memory_bytes() + 8 * m.d * m.a.ncols()) as u64)
        .max()
        .unwrap_or(0);

    if ctx.trace {
        let k = &mats[0];
        metrics.set(
            "sketchcore.alg3_gflops",
            per_kernel[0].pct(0.5),
            per_kernel[0].len(),
        );
        metrics.set(
            "sketchcore.alg3_signs_gflops",
            per_kernel[1].pct(0.5),
            per_kernel[1].len(),
        );
        metrics.set(
            "sketchcore.alg4_gflops",
            per_kernel[2].pct(0.5),
            per_kernel[2].len(),
        );
        metrics.set(
            "sparsekit.blocked_csr_build_ms",
            build_ms.pct(0.5),
            build_ms.len(),
        );
        metrics.set(
            "sparsekit.validate_ms",
            validate_ms.pct(0.5),
            validate_ms.len(),
        );
        metrics.set(
            "trace.overhead",
            traced_s / untraced_s.max(1e-12),
            round as usize,
        );
        probes::rng_layers(&mut metrics, cfgs[0].b_d);
        probes::kernel_layers(&mut metrics, &k.a, &cfgs[0], &blocked[0], &mut tally);
        probes::fill_missing(&mut metrics, ctx, &mut tally);
    }

    Run {
        metrics,
        tally,
        working_set,
        child_cpu_s: 0.0,
        peak_rss_mb,
    }
}
