//! Per-layer measurements for traced runs.
//!
//! A traced run reports every per-layer metric. The workload's own traced
//! calls supply the layers it exercises; the probes here measure each
//! remaining layer directly through its public functions, on inputs
//! derived from the same seed.

use crate::inputs::{self, mix};
use crate::report::{Metrics, Tally, PER_LAYER};
use crate::sketch_suite::{signs, uniform};
use crate::stats::Samples;
use crate::{svc, Ctx};
use densekit::{householder_qr_r, Matrix, ThinSvd};
use rngkit::BlockSampler;
use sketchcore::{flops, sketch_alg3, sketch_alg3_multi, sketch_alg3_par_cols, try_sketch_alg3};
use sketchcore::{CostModel, SketchConfig};
use sparsekit::{BlockedCsr, CscMatrix};
use std::hint::black_box;
use std::time::Instant;

/// Array length of `bench::measure_copy_bandwidth_gbs` (2^24 f64 per array).
const STREAM_ARRAY_BYTES: f64 = (8u64 << 24) as f64;

fn time_s<R>(f: impl FnOnce() -> R) -> f64 {
    let t = Instant::now();
    black_box(f());
    t.elapsed().as_secs_f64()
}

/// Median seconds of `reps` calls, alternating `a` and `b` so both see the
/// same host conditions: `(median a, median b)`.
fn paired<RA, RB>(reps: usize, mut a: impl FnMut() -> RA, mut b: impl FnMut() -> RB) -> (f64, f64) {
    let (mut sa, mut sb) = (Samples::new(), Samples::new());
    for i in 0..reps {
        if i % 2 == 0 {
            sa.push(time_s(&mut a));
            sb.push(time_s(&mut b));
        } else {
            sb.push(time_s(&mut b));
            sa.push(time_s(&mut a));
        }
    }
    (sa.pct(0.5), sb.pct(0.5))
}

/// Sampler fill rate at the kernel's block size, in Gsamples/s.
pub fn rng_layers(m: &mut Metrics, block: usize) {
    let block = block.max(1);
    let total = 4_000_000usize;
    let reps = total.div_ceil(block);
    let mut u = uniform(0x5EED);
    let mut buf = vec![0.0f64; block];
    let t = time_s(|| {
        for j in 0..reps {
            u.set_state(0, j);
            u.fill(&mut buf);
            black_box(&buf);
        }
    });
    m.set(
        "rngkit.uniform_gsamples_s",
        (reps * block) as f64 / t / 1e9,
        reps,
    );
    let mut s = signs(0x5EED);
    let mut sbuf = vec![0i8; block];
    let t = time_s(|| {
        for j in 0..reps {
            s.set_state(0, j);
            s.fill(&mut sbuf);
            black_box(&sbuf);
        }
    });
    m.set(
        "rngkit.sign_gsamples_s",
        (reps * block) as f64 / t / 1e9,
        reps,
    );
}

/// Kernel-layer figures on one matrix: exact work counts, the §III-A model
/// and roofline comparison, the checked-driver overhead, the materialized
/// baseline ratio and the two-thread column-panel speed-up.
pub fn kernel_layers(
    m: &mut Metrics,
    a: &CscMatrix<f64>,
    cfg: &SketchConfig,
    blocked: &BlockedCsr<f64>,
    tally: &mut Tally,
) {
    let sampler = uniform(cfg.seed);
    if m.get("sketchcore.alg3_gflops").is_none() {
        let fl = flops(cfg.d, a.nnz()) as f64;
        let (t3, t4) = paired(
            3,
            || sketch_alg3(a, cfg, &sampler),
            || sketchcore::sketch_alg4(blocked, cfg, &sampler),
        );
        let ts = time_s(|| sketchcore::sketch_alg3_signs(a, cfg, &signs(cfg.seed)));
        m.set("sketchcore.alg3_gflops", fl / t3 / 1e9, 3);
        m.set("sketchcore.alg4_gflops", fl / t4 / 1e9, 3);
        m.set("sketchcore.alg3_signs_gflops", fl / ts / 1e9, 1);
    }
    if m.get("sparsekit.validate_ms").is_none() {
        let (tv, tb) = paired(
            5,
            || a.validate().is_ok(),
            || BlockedCsr::from_csc(a, cfg.b_n),
        );
        m.set("sparsekit.validate_ms", tv * 1e3, 5);
        m.set("sparsekit.blocked_csr_build_ms", tb * 1e3, 5);
    }

    // Exact counts from the kernel's own telemetry, for one call.
    obskit::set_enabled(true);
    let before = obskit::snapshot();
    let t_alg3 = time_s(|| sketch_alg3(a, cfg, &sampler));
    let delta = obskit::snapshot().counters_since(&before);
    let ctr = |c: obskit::Ctr| delta[c as usize] as f64;
    let fl = ctr(obskit::Ctr::Flops);
    let bytes = ctr(obskit::Ctr::BytesA) + ctr(obskit::Ctr::BytesOut);
    m.set("sketchcore.samples", ctr(obskit::Ctr::Samples), 1);
    m.set("sketchcore.flops", fl, 1);
    m.set("sketchcore.bytes_a", ctr(obskit::Ctr::BytesA), 1);
    m.set("sketchcore.bytes_out", ctr(obskit::Ctr::BytesOut), 1);

    // Machine probes of the same run: copy bandwidth (bench::figures'
    // STREAM probe), FMA peak proxy, and the sampler's fill rate.
    let bw_gbs = bench::measure_copy_bandwidth_gbs();
    let peak_gflops = bench::measure_peak_gflops();
    m.set("sketchcore.stream_gbs", bw_gbs, 1);
    m.set(
        "sketchcore.stream_array_mb",
        STREAM_ARRAY_BYTES / 1048576.0,
        1,
    );
    let rng_gs = m.get("rngkit.uniform_gsamples_s").unwrap_or(1.0);
    let words_per_s = bw_gbs * 1e9 / 8.0;
    let h = (words_per_s / (rng_gs * 1e9)).max(1e-6);
    let l2_words = (crate::host::caches().l2.max(1 << 20) / 8) as f64;
    let model = CostModel::new(l2_words, h, (peak_gflops * 1e9 / words_per_s).max(1e-6));
    let rho = a.density().clamp(f64::MIN_POSITIVE, 1.0);
    let ci = model.ci_at(rho, cfg.b_n.min(a.ncols()).max(1) as f64);
    let predicted_s = fl / ci / words_per_s;
    m.set("sketchcore.model_ratio", t_alg3 / predicted_s, 1);
    let roof = (peak_gflops * 1e9).min(fl / bytes.max(1.0) * bw_gbs * 1e9);
    m.set("sketchcore.roofline_frac", fl / t_alg3 / roof, 1);

    // Checked driver vs plain driver on the same input.
    let (t_try, t_plain) = paired(
        4,
        || try_sketch_alg3(a, cfg, &sampler),
        || sketch_alg3(a, cfg, &sampler),
    );
    m.set("sketchcore.checked_overhead", t_try / t_plain, 4);

    // The paper's headline: Alg 3 against the MKL-style product with a
    // pre-generated S (generation excluded, as in the paper).
    let s = baselines::materialize_s(&sampler, cfg.d, a.nrows(), cfg.b_d);
    let (t_mkl, t3) = paired(
        2,
        || baselines::mkl_style(a, &s),
        || sketch_alg3(a, cfg, &sampler),
    );
    drop(s);
    m.set("sketchcore.vs_materialized", t_mkl / t3, 2);

    // Two-thread column panels: speed-up, and bitwise equality with the
    // serial sketch.
    let serial = sketch_alg3(a, cfg, &sampler);
    let par = parkit::with_threads(2, || sketch_alg3_par_cols(a, cfg, &sampler));
    tally.record(par_equal(&serial, &par));
    drop((serial, par));
    let (ts, tp) = paired(
        2,
        || sketch_alg3(a, cfg, &sampler),
        || parkit::with_threads(2, || sketch_alg3_par_cols(a, cfg, &sampler)),
    );
    m.set("parkit.par_cols_speedup", ts / tp, 2);
}

/// Bitwise comparison of the parallel and serial sketches.
pub fn par_equal(serial: &Matrix<f64>, par: &Matrix<f64>) -> Result<(), String> {
    let same = serial.as_slice().len() == par.as_slice().len()
        && serial
            .as_slice()
            .iter()
            .zip(par.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits());
    if same {
        Ok(())
    } else {
        Err("sketch_alg3_par_cols differs bitwise from sketch_alg3".into())
    }
}

/// `sketch_alg3_multi` over k seeds ÷ k `sketch_alg3` calls, at the
/// service's request shape.
pub fn multi_layers(m: &mut Metrics, seed: u64, tally: &mut Tally) {
    let a = inputs::svc_hot(seed);
    let cfg = SketchConfig::new(inputs::SVC_D, inputs::SVC_BD, inputs::SVC_BN, seed);
    let k = 8;
    let samplers: Vec<_> = (0..k).map(|i| uniform(mix(seed, 0xB0 + i))).collect();
    let multi = sketch_alg3_multi(&a, &cfg, &samplers);
    let bitwise = multi.iter().zip(&samplers).all(|(x, s)| {
        let y = sketch_alg3(&a, &cfg, s);
        par_equal(&y, x).is_ok()
    });
    tally.record(if bitwise {
        Ok(())
    } else {
        Err("sketch_alg3_multi differs from sequential sketch_alg3".into())
    });
    let reps = 41;
    let (tm, tq) = paired(
        reps,
        || sketch_alg3_multi(&a, &cfg, &samplers),
        || {
            for s in &samplers {
                black_box(sketch_alg3(&a, &cfg, s));
            }
        },
    );
    m.set("sketchcore.multi_vs_seq", tm / tq, reps);
}

/// QR and SVD of a `2n×n` sketch of `a` (SAP's factor step).
pub fn dense_layers(m: &mut Metrics, a: &CscMatrix<f64>, seed: u64) {
    let n = a.ncols();
    let cfg = SketchConfig::new(2 * n, 3000.min(2 * n), 500.min(n), seed);
    let ahat = sketch_alg3(a, &cfg, &uniform(seed));
    let reps = 5;
    let (tq, ts) = paired(reps, || householder_qr_r(&ahat), || ThinSvd::factor(&ahat));
    m.set("densekit.qr_ms", tq * 1e3, reps);
    m.set("densekit.svd_ms", ts * 1e3, reps);
}

/// SAP phase figures from a set of solve reports.
pub fn sap_layers(m: &mut Metrics, reports: &[lstsq::SapReport]) {
    let mut sk = Samples::new();
    let mut fa = Samples::new();
    let mut so = Samples::new();
    let mut it = Samples::new();
    let mut it_us = Samples::new();
    let (mut retries, mut fallback) = (0u64, 0u64);
    for r in reports {
        sk.push(r.sketch_s * 1e3);
        fa.push(r.factor_s * 1e3);
        so.push(r.solve_s * 1e3);
        it.push(r.iters as f64);
        it_us.push(r.solve_s * 1e6 / r.iters.max(1) as f64);
        retries += r.retries as u64;
        fallback += r.fallback_svd as u64;
    }
    let n = reports.len();
    m.set("lstsq.sap.sketch_ms", sk.pct(0.5), n);
    m.set("lstsq.sap.factor_ms", fa.pct(0.5), n);
    m.set("lstsq.sap.solve_ms", so.pct(0.5), n);
    m.set("lstsq.lsqr_iters", it.pct(0.5), n);
    m.set("lstsq.lsqr_iter_us", it_us.pct(0.5), n);
    m.set("lstsq.sap.retries", retries as f64, n);
    m.set("lstsq.sap.fallback_svd", fallback as f64, n);
    m.set(
        "lstsq.sap.attempts_per_solve",
        (n as u64 + retries) as f64 / n.max(1) as f64,
        n,
    );
}

/// Backward-error bound every SAP solution must meet. Table X's SAP column
/// reaches 1e-14–1e-15; this is the repository's own test threshold.
pub const BACKWARD_TOL: f64 = 1e-10;

pub fn check_solution(a: &CscMatrix<f64>, x: &[f64], b: &[f64]) -> Result<(), String> {
    if x.len() != a.ncols() {
        return Err(format!(
            "solution has {} entries, want {}",
            x.len(),
            a.ncols()
        ));
    }
    let e = lstsq::backward_error(a, x, b);
    if e.is_finite() && e <= BACKWARD_TOL {
        Ok(())
    } else {
        Err(format!("backward error {e:.3e} above {BACKWARD_TOL:.0e}"))
    }
}

/// A few SAP solves of a small probe problem, for workloads that do not
/// solve least squares themselves.
fn sap_probe(m: &mut Metrics, seed: u64, tally: &mut Tally) {
    let p = inputs::lsq("rail4284", 64, mix(seed, 0xD0));
    dense_layers(m, &p.a, seed);
    let mut reports = Vec::new();
    for i in 0..9 {
        let b = inputs::rhs(&p.a, seed, 1000 + i);
        let opts = lstsq::SapOptions {
            seed: mix(seed, 0xD1 + i),
            ..Default::default()
        };
        match lstsq::try_solve_sap(&p.a, &b, &opts) {
            Ok(r) => {
                tally.record(check_solution(&p.a, &r.x, &b));
                reports.push(r);
            }
            Err(e) => tally.record(Err(format!("probe SAP solve failed: {e}"))),
        }
    }
    sap_layers(m, &reports);
}

/// Measure every per-layer metric the workload did not supply.
pub fn fill_missing(m: &mut Metrics, ctx: &Ctx, tally: &mut Tally) {
    // Self times are filled in from the spans at the end of the run.
    let missing = |m: &Metrics, prefix: &str| {
        PER_LAYER
            .iter()
            .any(|(n, _)| n.starts_with(prefix) && !n.ends_with(".self_s") && m.get(n).is_none())
    };
    if missing(m, "rngkit.") {
        rng_layers(m, 3000);
    }
    if m.get("sketchcore.multi_vs_seq").is_none() {
        multi_layers(m, ctx.seed, tally);
    }
    if missing(m, "lstsq.") || missing(m, "densekit.") {
        sap_probe(m, ctx.seed, tally);
    }
    if missing(m, "sketchd.") {
        svc::probe(m, ctx, tally);
    }
    if m.get("gen.late_ms.p99").is_none() {
        // Library workloads have no arrival schedule to fall behind.
        m.set("gen.late_ms.p99", 0.0, 0);
    }
}
