//! Minimum-norm solutions of underdetermined systems — the paper's
//! footnote 2 ("underdetermined problems can be handled with minor
//! modifications relative to the overdetermined problems we consider").
//!
//! For wide `A ∈ R^{m×n}` (`m < n`) and consistent `A·x = b`, the
//! minimum-norm solution is found by sketching the *transpose*: compute
//! `Â = S·Aᵀ` (a `2m×m` dense matrix), factor `Â = QR`, and run LSQR on the
//! **left**-preconditioned system `(R⁻ᵀ·A)·x = R⁻ᵀ·b`. Left preconditioning
//! keeps the solution set unchanged on consistent systems, the sketch bounds
//! `cond(R⁻ᵀ·A)` by `(√γ+1)/(√γ−1)`, and LSQR's iterates stay in
//! `range(Aᵀ)`, so the limit is the minimum-norm solution.

use crate::lsqr::{lsqr, LsqrOptions, LsqrResult};
use crate::op::LinOp;
use densekit::{householder_qr_r, solve_upper, solve_upper_t, Matrix};
use rngkit::{FastRng, UnitUniform};
use sketchcore::{sketch, Alg3, Schedule, SketchConfig};
use sparsekit::CscMatrix;

/// Report of a minimum-norm solve.
#[derive(Clone, Debug)]
pub struct MinNormReport {
    /// The minimum-norm solution.
    pub x: Vec<f64>,
    /// LSQR iterations.
    pub iters: usize,
    /// Seconds in the sketch + factor phase.
    pub precond_s: f64,
    /// Total seconds.
    pub total_s: f64,
    /// Raw LSQR diagnostics.
    pub lsqr_result: LsqrResult,
}

/// Left-preconditioned operator `R⁻ᵀ·A` for wide `A`.
struct LeftPrecondOp<'a> {
    a: &'a CscMatrix<f64>,
    r: &'a Matrix<f64>,
    scratch: Vec<f64>,
}

impl LinOp for LeftPrecondOp<'_> {
    fn nrows(&self) -> usize {
        self.a.nrows()
    }
    fn ncols(&self) -> usize {
        self.a.ncols()
    }
    fn apply(&mut self, x: &[f64], y: &mut [f64]) {
        self.a.spmv(x, y);
        solve_upper_t(self.r, y);
    }
    fn apply_t(&mut self, x: &[f64], y: &mut [f64]) {
        self.scratch.copy_from_slice(x);
        solve_upper(self.r, &mut self.scratch);
        self.a.spmv_t(&self.scratch, y);
    }
}

/// Solve `min ‖x‖₂ s.t. A·x = b` for wide `A` (m < n) by sketching `Aᵀ`.
///
/// `gamma` is the oversampling of the transpose sketch (`d = γ·m`); the
/// system must be consistent (wide full-row-rank systems always are).
pub fn solve_min_norm_sap(
    a: &CscMatrix<f64>,
    b: &[f64],
    gamma: usize,
    b_d: usize,
    b_n: usize,
    seed: u64,
    opts: &LsqrOptions,
) -> MinNormReport {
    let t_start = std::time::Instant::now();
    let (m, n) = (a.nrows(), a.ncols());
    assert!(m < n, "min-norm path expects a wide system (m < n)");
    assert_eq!(b.len(), m, "rhs length mismatch");
    assert!(gamma >= 1);

    // Sketch the transpose: Â = S·Aᵀ is (γ·m)×m.
    let t0 = std::time::Instant::now();
    let at = a.transpose();
    let d = gamma * m;
    let cfg = SketchConfig::new(d, b_d, b_n, seed);
    let sampler = UnitUniform::<f64>::sampler(FastRng::new(seed));
    let mut ahat = sketch(Alg3(&at), Schedule::ParCols, &cfg, &sampler);
    ahat.scale(1.0 / ((d as f64) / 3.0).sqrt());
    let r = householder_qr_r(&ahat);
    drop(ahat);
    let precond_s = t0.elapsed().as_secs_f64();

    // LSQR on (R⁻ᵀ A, R⁻ᵀ b).
    let mut rhs = b.to_vec();
    solve_upper_t(&r, &mut rhs);
    let mut op = LeftPrecondOp {
        a,
        r: &r,
        scratch: vec![0.0; m],
    };
    let result = lsqr(&mut op, &rhs, opts);

    MinNormReport {
        x: result.x.clone(),
        iters: result.iters,
        precond_s,
        total_s: t_start.elapsed().as_secs_f64(),
        lsqr_result: result,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use densekit::HouseholderQr;

    fn wide_random(m: usize, n: usize, density: f64, seed: u64) -> CscMatrix<f64> {
        // Transposed tall generator guarantees full row rank of the wide A.
        datagen_free_tall(n, m, density, seed).transpose()
    }

    /// Local tall generator (datagen would create a dev-dependency cycle).
    fn datagen_free_tall(m: usize, n: usize, density: f64, seed: u64) -> CscMatrix<f64> {
        let mut state = seed | 1;
        let mut nextf = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut coo = sparsekit::CooMatrix::new(m, n);
        for j in 0..n {
            coo.push(j, j, 2.0 + nextf()).unwrap(); // full rank
            for i in 0..m {
                if nextf() < density {
                    coo.push(i, j, nextf() * 2.0 - 1.0).unwrap();
                }
            }
        }
        coo.to_csc().unwrap()
    }

    /// Dense reference: min-norm x = Q·(R⁻ᵀ·b) from Aᵀ = QR.
    fn dense_min_norm(a: &CscMatrix<f64>, b: &[f64]) -> Vec<f64> {
        let (m, n) = (a.nrows(), a.ncols());
        let at_dense = Matrix::from_fn(n, m, |i, j| a.get(j, i));
        let qr = HouseholderQr::factor(&at_dense);
        let r = qr.r();
        let mut w = b.to_vec();
        solve_upper_t(&r, &mut w);
        // x = Q·[w; 0].
        let mut x = vec![0.0; n];
        x[..m].copy_from_slice(&w);
        qr.apply_q(&mut x);
        x
    }

    #[test]
    fn matches_dense_min_norm_reference() {
        let a = wide_random(30, 300, 0.05, 3);
        let x_any: Vec<f64> = (0..300).map(|i| ((i % 11) as f64) / 5.0 - 1.0).collect();
        let mut b = vec![0.0; 30];
        a.spmv(&x_any, &mut b);

        let rep = solve_min_norm_sap(&a, &b, 2, 64, 16, 7, &LsqrOptions::default());
        let x_ref = dense_min_norm(&a, &b);
        let scale: f64 = x_ref.iter().map(|v| v * v).sum::<f64>().sqrt();
        let diff: f64 = rep
            .x
            .iter()
            .zip(x_ref.iter())
            .map(|(p, q)| (p - q) * (p - q))
            .sum::<f64>()
            .sqrt();
        assert!(diff < 1e-8 * scale, "min-norm mismatch {diff}");

        // Feasibility and minimality.
        let mut ax = vec![0.0; 30];
        a.spmv(&rep.x, &mut ax);
        let resid: f64 = ax
            .iter()
            .zip(b.iter())
            .map(|(p, q)| (p - q) * (p - q))
            .sum::<f64>()
            .sqrt();
        let bnorm: f64 = b.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!(resid < 1e-9 * bnorm, "infeasible: {resid}");
        let norm_got: f64 = rep.x.iter().map(|v| v * v).sum::<f64>().sqrt();
        let norm_any: f64 = x_any.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!(norm_got <= norm_any * (1.0 + 1e-9), "not minimal");
    }

    #[test]
    fn iteration_count_is_distortion_bounded() {
        // γ = 2 ⇒ preconditioned cond ≤ ~5.8 ⇒ iterations ~ tens regardless
        // of the underlying conditioning.
        let a = wide_random(60, 800, 0.03, 9);
        let x_any: Vec<f64> = (0..800).map(|i| (i as f64).sin()).collect();
        let mut b = vec![0.0; 60];
        a.spmv(&x_any, &mut b);
        let rep = solve_min_norm_sap(&a, &b, 2, 128, 32, 5, &LsqrOptions::default());
        assert!(rep.iters < 200, "too many iterations: {}", rep.iters);
    }

    #[test]
    #[should_panic(expected = "wide system")]
    fn tall_input_rejected() {
        let a = datagen_free_tall(50, 10, 0.1, 1);
        let b = vec![0.0; 50];
        let _ = solve_min_norm_sap(&a, &b, 2, 16, 8, 1, &LsqrOptions::default());
    }
}
