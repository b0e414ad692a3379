//! LSRN — Meng, Saunders & Mahoney's randomized least-squares solver
//! (SIAM J. Sci. Comput. 2014), the paper's reference [20] and the direct
//! ancestor of the SAP pipeline it evaluates.
//!
//! LSRN prescribes a **Gaussian** sketch `Â = S·A` with oversampling
//! `d = γ·n` (γ ≈ 2), an SVD of the sketch, preconditioning with `V·Σ⁻¹`,
//! and an iterative solver — for which its strong-conditioning guarantee
//! (singular values of `A·N` concentrate in `[1/(1+ε), 1/(1−ε)]` with
//! `ε = √(n/d)`, *independent of A's spectrum*) holds unconditionally
//! because Gaussian matrices are rotationally invariant.
//!
//! Relative to [`crate::solve_sap`] with [`crate::SapFlavor::Svd`], the only
//! differences are the Gaussian entries (slower to generate — Figure 4's
//! point) and the theory being exact rather than asymptotic. Having both
//! makes the distribution choice measurable end-to-end: run the
//! `ablate_iterative` / `table9` benches with either.

use crate::lsqr::{lsqr, LsqrOptions, LsqrResult};
use crate::op::{CscOp, LinOp};
use crate::precond::{Preconditioner, SvdPrecond};
use densekit::ThinSvd;
use rngkit::{FastRng, Gaussian, UnitUniform};
use sketchcore::{Alg3, Schedule, SketchConfig};
use sparsekit::CscMatrix;

/// Which distribution fills the LSRN sketch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LsrnSketch {
    /// iid N(0,1) entries — the method as published (guarantees exact).
    Gaussian,
    /// iid uniform(-1,1) — the paper's cheap substitute (guarantees
    /// asymptotic; generation ~10x faster, Figure 4).
    Uniform,
}

/// LSRN report.
#[derive(Clone, Debug)]
pub struct LsrnReport {
    /// Solution.
    pub x: Vec<f64>,
    /// LSQR iterations under the LSRN preconditioner.
    pub iters: usize,
    /// Retained numerical rank of the sketch.
    pub rank: usize,
    /// Seconds for the sketch phase.
    pub sketch_s: f64,
    /// Seconds for the SVD phase.
    pub svd_s: f64,
    /// Total seconds.
    pub total_s: f64,
    /// LSQR diagnostics.
    pub lsqr_result: LsqrResult,
}

/// Solve `min ‖Ax − b‖₂` with LSRN (overdetermined case).
pub fn solve_lsrn(
    a: &CscMatrix<f64>,
    b: &[f64],
    gamma: usize,
    sketch: LsrnSketch,
    seed: u64,
    opts: &LsqrOptions,
) -> LsrnReport {
    let t_start = std::time::Instant::now();
    let n = a.ncols();
    assert!(a.nrows() >= n, "LSRN overdetermined path expects m ≥ n");
    assert!(
        gamma >= 2,
        "LSRN wants γ ≥ 2 for its conditioning guarantee"
    );
    let d = gamma * n;
    let cfg = SketchConfig::new(d, 3000.min(d), 500.min(n), seed);

    let t0 = std::time::Instant::now();
    let mut ahat = match sketch {
        LsrnSketch::Gaussian => {
            let sampler = Gaussian::<f64>::sampler(FastRng::new(seed));
            sketchcore::sketch(Alg3(a), Schedule::ParCols, &cfg, &sampler)
        }
        LsrnSketch::Uniform => {
            let sampler = UnitUniform::<f64>::sampler(FastRng::new(seed));
            let mut out = sketchcore::sketch(Alg3(a), Schedule::ParCols, &cfg, &sampler);
            // Match Gaussian second moments: Var(unif(-1,1)) = 1/3.
            out.scale(3f64.sqrt());
            out
        }
    };
    // LSRN normalizes by 1/√d so σ(S/√d · Q) ≈ 1.
    ahat.scale(1.0 / (d as f64).sqrt());
    let sketch_s = t0.elapsed().as_secs_f64();

    let t1 = std::time::Instant::now();
    let svd = ThinSvd::factor(&ahat);
    let precond = SvdPrecond::from_svd(&svd, 1e-12);
    let rank = precond.rank();
    let svd_s = t1.elapsed().as_secs_f64();
    drop(ahat);

    let mut aop = CscOp::new(a);
    let mut pop = LsrnOp {
        a: &mut aop,
        m: &precond,
        scratch: vec![0.0; n],
    };
    let result = lsqr(&mut pop, b, opts);
    let mut x = vec![0.0; n];
    precond.apply(&result.x, &mut x);

    LsrnReport {
        x,
        iters: result.iters,
        rank,
        sketch_s,
        svd_s,
        total_s: t_start.elapsed().as_secs_f64(),
        lsqr_result: result,
    }
}

struct LsrnOp<'a> {
    a: &'a mut CscOp<'a>,
    m: &'a SvdPrecond,
    scratch: Vec<f64>,
}

impl LinOp for LsrnOp<'_> {
    fn nrows(&self) -> usize {
        self.a.nrows()
    }
    fn ncols(&self) -> usize {
        self.m.input_dim()
    }
    fn apply(&mut self, x: &[f64], y: &mut [f64]) {
        self.m.apply(x, &mut self.scratch);
        self.a.apply(&self.scratch, y);
    }
    fn apply_t(&mut self, x: &[f64], y: &mut [f64]) {
        self.a.apply_t(x, &mut self.scratch);
        self.m.apply_t(&self.scratch, y);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::backward_error;
    use datagen::lsq::{tall_conditioned, CondSpec};
    use datagen::make_rhs;

    #[test]
    fn lsrn_gaussian_solves_ill_conditioned_problem() {
        let a = tall_conditioned(800, 40, 0.05, CondSpec::scaled(8.0, 1.0), 3);
        let (b, _) = make_rhs(&a, 5);
        let rep = solve_lsrn(&a, &b, 2, LsrnSketch::Gaussian, 7, &LsqrOptions::default());
        assert!(backward_error(&a, &rep.x, &b) < 1e-10);
        assert!(rep.iters < 300, "LSRN iters {}", rep.iters);
        assert_eq!(rep.rank, 40);
    }

    #[test]
    fn uniform_sketch_matches_gaussian_iteration_count() {
        // The cheap distribution preserves LSRN's conditioning behaviour —
        // the asymptotic claim the paper leans on.
        let a = tall_conditioned(1_000, 48, 0.04, CondSpec::chain(2.0), 9);
        let (b, _) = make_rhs(&a, 2);
        let g = solve_lsrn(&a, &b, 2, LsrnSketch::Gaussian, 7, &LsqrOptions::default());
        let u = solve_lsrn(&a, &b, 2, LsrnSketch::Uniform, 7, &LsqrOptions::default());
        let ratio = g.iters.max(u.iters) as f64 / g.iters.min(u.iters).max(1) as f64;
        assert!(ratio < 1.5, "iters diverge: {} vs {}", g.iters, u.iters);
        assert!(backward_error(&a, &u.x, &b) < 1e-10);
        // Solutions agree.
        let scale: f64 = g.x.iter().map(|v| v * v).sum::<f64>().sqrt();
        let diff: f64 =
            g.x.iter()
                .zip(u.x.iter())
                .map(|(p, q)| (p - q) * (p - q))
                .sum::<f64>()
                .sqrt();
        assert!(diff < 1e-7 * scale, "solutions differ by {diff}");
    }

    #[test]
    fn rank_deficiency_survives_lsrn() {
        let a = tall_conditioned(600, 32, 0.06, CondSpec::deficient(14.0, 1.0), 5);
        let (b, _) = make_rhs(&a, 1);
        let rep = solve_lsrn(&a, &b, 2, LsrnSketch::Gaussian, 3, &LsqrOptions::default());
        assert!(rep.rank < 32, "rank {} should drop", rep.rank);
        assert!(rep.x.iter().all(|v| v.is_finite()));
        assert!(backward_error(&a, &rep.x, &b) < 1e-8);
    }

    #[test]
    #[should_panic(expected = "γ ≥ 2")]
    fn gamma_one_rejected() {
        let a = tall_conditioned(100, 10, 0.1, CondSpec::WELL, 1);
        let _ = solve_lsrn(
            &a,
            &[0.0; 100],
            1,
            LsrnSketch::Gaussian,
            1,
            &LsqrOptions::default(),
        );
    }
}
