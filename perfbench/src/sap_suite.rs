//! `sap_suite`: `lstsq::try_solve_sap` on a fixed mix of Table VIII
//! stand-ins, each solved again and again with fresh right-hand sides, in
//! complete rounds (one solve of every problem per round).

use crate::inputs::{self, mix};
use crate::probes::{self, check_solution, par_equal};
use crate::report::{Metrics, Tally};
use crate::sketch_suite::uniform;
use crate::stats::Samples;
use crate::trace;
use crate::{Ctx, Run};
use sketchcore::{sketch_alg3, sketch_alg3_par_cols, SketchConfig};
use std::time::Instant;

pub fn run(ctx: &Ctx) -> Run {
    let probs = inputs::sap_suite(ctx.seed, ctx.size);
    let mut tally = Tally::default();

    // Set-up: validating each system matrix, as the checked solver path
    // does before any work. It runs a few times at the start and again
    // before every round, so its median samples the whole run.
    let mut setup = Samples::new();
    let mut prepare = || {
        let t = Instant::now();
        for p in &probs {
            let ok = {
                let _s = trace::span("sparsekit.validate");
                p.a.validate().is_ok()
            };
            assert!(ok, "generated input {} failed validation", p.name);
        }
        setup.push(t.elapsed().as_secs_f64());
    };
    for _ in 0..ctx.setup_reps() {
        prepare();
    }

    // Untimed: SAP's parallel column-panel sketch is bitwise equal to the
    // serial one on every problem.
    for p in &probs {
        let n = p.a.ncols();
        let cfg = SketchConfig::new(2 * n, 3000.min(2 * n), 500.min(n), mix(ctx.seed, 0x9A));
        let serial = sketch_alg3(&p.a, &cfg, &uniform(cfg.seed));
        let par = parkit::with_threads(2, || sketch_alg3_par_cols(&p.a, &cfg, &uniform(cfg.seed)));
        tally.record(par_equal(&serial, &par).map_err(|e| format!("{}: {e}", p.name)));
    }

    let mut solve_s = Samples::new();
    let mut reports = Vec::new();
    let (mut traced_s, mut untraced_s) = (0.0, 0.0);
    let mut cpu_s = 0.0;
    let start = Instant::now();
    let mut round = 0u64;
    let mut peak_rss_mb = 0.0;
    while round < 2 || start.elapsed().as_secs_f64() < ctx.seconds {
        prepare();
        let traced = ctx.trace && round.is_multiple_of(2);
        trace::set_enabled(traced);
        let mut round_s = 0.0;
        let _r = trace::span("bench.round");
        for (pi, p) in probs.iter().enumerate() {
            let i = round * probs.len() as u64 + pi as u64;
            let b = {
                let _s = trace::span("datagen.make_rhs");
                inputs::rhs(&p.a, ctx.seed, i)
            };
            let opts = lstsq::SapOptions {
                seed: mix(ctx.seed, 0x5AB0_0000 + i),
                ..Default::default()
            };
            let cpu0 = crate::host::proc_cpu_s("self");
            let t = Instant::now();
            let res = {
                let _s = trace::span("lstsq.try_solve_sap");
                lstsq::try_solve_sap(&p.a, &b, &opts)
            };
            let secs = t.elapsed().as_secs_f64();
            cpu_s += crate::host::proc_cpu_s("self") - cpu0;
            round_s += secs;
            match res {
                Ok(r) => {
                    let ok = {
                        let _s = trace::span("lstsq.backward_error");
                        check_solution(&p.a, &r.x, &b)
                    };
                    tally.record(ok.map_err(|e| format!("{}: {e}", p.name)));
                    solve_s.push(secs);
                    if ctx.trace {
                        reports.push(r);
                    }
                }
                Err(e) => tally.record(Err(format!("{}: {e}", p.name))),
            }
        }
        drop(_r);
        if traced {
            traced_s += round_s;
        } else {
            untraced_s += round_s;
        }
        // Peak memory after a fixed amount of work: the library's default
        // telemetry keeps per-iteration solver events, so memory grows
        // with how many solves fit in the run.
        if round == 1 {
            peak_rss_mb = crate::host::peak_rss_mb("self");
        }
        round += 1;
    }
    trace::set_enabled(ctx.trace);

    let mut metrics = Metrics::default();
    metrics.set("setup_s", setup.pct(0.5), setup.len());
    let solves = round as usize * probs.len();
    metrics.set("cpu_ms_per_op", cpu_s * 1e3 / solves.max(1) as f64, solves);
    metrics.set("sap_solve_s.p50", solve_s.pct(0.5), solve_s.len());
    metrics.set("sap_solve_s.p90", solve_s.pct(0.9), solve_s.len());
    ctx.check_tail("sap_solve_s.p90", 0.9, solve_s.len());

    let working_set = probs
        .iter()
        .map(|p| {
            let n = p.a.ncols();
            (p.a.memory_bytes() + 8 * (2 * n * n + n * n) + 8 * 4 * p.a.nrows()) as u64
        })
        .max()
        .unwrap_or(0);

    if ctx.trace {
        metrics.set(
            "trace.overhead",
            traced_s / untraced_s.max(1e-12),
            round as usize,
        );
        probes::sap_layers(&mut metrics, &reports);
        // Kernel and factor layers on the largest problem, at SAP's shape.
        let big = probs
            .iter()
            .max_by_key(|p| p.a.nnz())
            .expect("sap_suite has problems");
        let n = big.a.ncols();
        let cfg = SketchConfig::new(2 * n, 3000.min(2 * n), 500.min(n), ctx.seed);
        let blocked = sparsekit::BlockedCsr::from_csc(&big.a, cfg.b_n);
        probes::dense_layers(&mut metrics, &big.a, ctx.seed);
        probes::rng_layers(&mut metrics, cfg.b_d);
        probes::kernel_layers(&mut metrics, &big.a, &cfg, &blocked, &mut tally);
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
