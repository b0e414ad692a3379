//! Algorithm 3 — compute kernel variant `kji` with on-the-fly RNG.
//!
//! For each column `k` of the current vertical block of `A` and each stored
//! nonzero `A[j, k]`, the kernel re-seeks the sampler to checkpoint `(i, j)`
//! (row offset of the `Â` block, column `j` of `S`), regenerates the `d₁`
//! entries of that column segment of `S` into a scratch vector `v`, and adds
//! `A[j,k]·v` into the column of `Â` — a purely strided (axpy) update on all
//! three operands, which is why this variant wins on architectures that
//! punish random access (paper §II-B1).
//!
//! Cost signature (paper §III-B): always draws `d·nnz(A)` samples — fast-RNG
//! dependent, sparsity-pattern oblivious (Table VI).

use crate::alg1::{sketch, Kernel, OuterBlock, Schedule, Window, Work};
use crate::config::SketchConfig;
use densekit::Matrix;
use rngkit::{BlockSampler, ScaledInt};
use sparsekit::{CscMatrix, Scalar};

/// Algorithm 3 over a CSC operand, with entries of `S` in the operand's
/// scalar type.
#[derive(Clone, Copy, Debug)]
pub struct Alg3<'a, T>(pub &'a CscMatrix<T>);

/// Algorithm 3 over a CSC operand with iid ±1 entries of `S` generated as
/// `i8` signs — the paper's cheapest distribution (Table II's "(±1)"
/// column).
#[derive(Clone, Copy, Debug)]
pub struct Alg3Signs<'a, T>(pub &'a CscMatrix<T>);

impl<T: Scalar, S: BlockSampler<T>> Kernel<T, S> for Alg3<'_, T> {
    type Sample = T;
    const PATHS: [&'static str; 3] = [
        "sketch/alg3/block",
        "sketch/alg3_par_cols/block",
        "sketch/alg3_par_rows/block",
    ];

    fn shape(&self, cfg: &SketchConfig) -> (SketchConfig, usize) {
        (*cfg, self.0.ncols())
    }

    #[inline]
    fn block<W: Window<T>>(&self, b: OuterBlock, s: &mut S, _v: &mut [T], out: &mut W) -> Work {
        // Algorithm 3 consumes each regenerated column of S exactly once, so
        // generation and the d₁-long axpy are fused: samples go straight from
        // the generator's registers into Â, never through a scratch vector.
        let mut nnz = 0;
        for k in b.j..b.j + b.n1 {
            let (rows, vals) = self.0.col(k);
            nnz += rows.len();
            let out = out.seg(k, b.i, b.d1);
            for (&j, &ajk) in rows.iter().zip(vals.iter()) {
                s.set_state(b.i, j);
                s.fill_axpy(ajk, out);
            }
        }
        (nnz, None)
    }
}

impl<T: Scalar, S: BlockSampler<i8>> Kernel<T, S> for Alg3Signs<'_, T> {
    type Sample = i8;
    const PATHS: [&'static str; 3] = [
        "sketch/alg3_signs/block",
        "sketch/alg3_signs_par_cols/block",
        "sketch/alg3_signs_par_rows/block",
    ];

    fn shape(&self, cfg: &SketchConfig) -> (SketchConfig, usize) {
        (*cfg, self.0.ncols())
    }

    #[inline]
    fn block<W: Window<T>>(&self, b: OuterBlock, s: &mut S, v: &mut [i8], out: &mut W) -> Work {
        let mut nnz = 0;
        for k in b.j..b.j + b.n1 {
            let (rows, vals) = self.0.col(k);
            nnz += rows.len();
            let out = out.seg(k, b.i, b.d1);
            for (&j, &ajk) in rows.iter().zip(vals.iter()) {
                s.set_state(b.i, j);
                s.fill(v);
                // ±1 entries: the multiply becomes a sign-select add, and the
                // regenerated data is 8× smaller than f64 (paper §III-C).
                for (o, &x) in out.iter_mut().zip(v.iter()) {
                    *o += if x >= 0 { ajk } else { -ajk };
                }
            }
        }
        (nnz, None)
    }
}

/// Compute `Â = S·A` with Algorithm 3 (sequential).
///
/// `sampler` defines `S`: it is cloned so the caller's generator state is
/// untouched, and every `(i, j)` checkpoint is a pure function of the
/// sampler's seed, making the result independent of iteration order over
/// blocks with the same `(b_d, b_n)`.
pub fn sketch_alg3<T, S>(a: &CscMatrix<T>, cfg: &SketchConfig, sampler: &S) -> Matrix<T>
where
    T: Scalar,
    S: BlockSampler<T> + Clone,
{
    sketch(Alg3(a), Schedule::Serial, cfg, sampler)
}

/// Compute `Â = S·A` where `S` has iid ±1 entries generated as `i8` signs —
/// the paper's cheapest distribution (Table II's "(±1)" column).
pub fn sketch_alg3_signs<T, S>(a: &CscMatrix<T>, cfg: &SketchConfig, sampler: &S) -> Matrix<T>
where
    T: Scalar,
    S: BlockSampler<i8> + Clone,
{
    sketch(Alg3Signs(a), Schedule::Serial, cfg, sampler)
}

/// Algorithm 3 parallelized over column panels of `Â` (the `j` loop).
pub fn sketch_alg3_par_cols<T, S>(a: &CscMatrix<T>, cfg: &SketchConfig, sampler: &S) -> Matrix<T>
where
    T: Scalar,
    S: BlockSampler<T> + Clone + Send + Sync,
{
    sketch(Alg3(a), Schedule::ParCols, cfg, sampler)
}

/// Compute `k` sketches `Âᵣ = Sᵣ·A`, one per sampler — each bitwise
/// identical to `sketch_alg3(a, cfg, &samplers[r])`, because it is that
/// call. A loop, not a fused single traversal of `A`: the fused kernel
/// measured no faster (EXPERIMENTS.md, "Serving experiments").
pub fn sketch_alg3_multi<T, S>(
    a: &CscMatrix<T>,
    cfg: &SketchConfig,
    samplers: &[S],
) -> Vec<Matrix<T>>
where
    T: Scalar,
    S: BlockSampler<T> + Clone,
{
    samplers.iter().map(|s| sketch_alg3(a, cfg, s)).collect()
}

/// Compute `Â = S·A` with the "(-1,1) scaling trick" of paper §III-C: the
/// kernel runs on raw random integers (no per-entry normalization) and the
/// single scale factor is applied to `Â` afterwards — mathematically
/// `(S·f⁻¹)·A` followed by multiplication with `f`.
pub fn sketch_alg3_scaled<T, R>(a: &CscMatrix<T>, cfg: &SketchConfig, rng: &R) -> Matrix<T>
where
    T: Scalar + rngkit::dist::Element,
    R: rngkit::BlockRng + Clone + Send + Sync,
    ScaledInt: rngkit::dist::Distribution<T>,
{
    let sampler = rngkit::DistSampler::new(ScaledInt::new(), rng.clone());
    let mut ahat = sketch_alg3(a, cfg, &sampler);
    ahat.scale(T::from_f64(ScaledInt::SCALE));
    ahat
}

#[cfg(test)]
mod tests {
    use super::*;
    use rngkit::{CheckpointRng, Rademacher, UnitUniform, Xoshiro256PlusPlus};

    type Rng = CheckpointRng<Xoshiro256PlusPlus>;

    fn random_csc(m: usize, n: usize, nnz: usize, seed: u64) -> CscMatrix<f64> {
        let mut state = seed | 1;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 11
        };
        let mut coo = sparsekit::CooMatrix::new(m, n);
        for _ in 0..nnz {
            let r = (next() % m as u64) as usize;
            let c = (next() % n as u64) as usize;
            let v = (next() % 2000) as f64 / 1000.0 - 1.0;
            coo.push(r, c, v + 0.001).unwrap();
        }
        coo.to_csc().unwrap()
    }

    /// Materialize S explicitly (same sampler, same checkpoints) and verify
    /// the kernel against a dense reference multiply.
    fn reference_sketch<S: BlockSampler<f64> + Clone>(
        a: &CscMatrix<f64>,
        cfg: &SketchConfig,
        sampler: &S,
    ) -> Matrix<f64> {
        let m = a.nrows();
        let mut s_mat = Matrix::zeros(cfg.d, m);
        let mut sampler = dyn_clone(sampler);
        let mut v = vec![0.0; cfg.b_d.min(cfg.d)];
        // Materialize S block-row by block-row using the identical
        // checkpoints the kernel uses.
        let mut i = 0;
        while i < cfg.d {
            let d1 = cfg.b_d.min(cfg.d - i);
            for j in 0..m {
                sampler.set_state(i, j);
                sampler.fill(&mut v[..d1]);
                for (di, &val) in v[..d1].iter().enumerate() {
                    s_mat[(i + di, j)] = val;
                }
            }
            i += cfg.b_d;
        }
        // Dense × sparse reference.
        let mut out = Matrix::zeros(cfg.d, a.ncols());
        for k in 0..a.ncols() {
            let (rows, vals) = a.col(k);
            for (&j, &ajk) in rows.iter().zip(vals.iter()) {
                for di in 0..cfg.d {
                    out[(di, k)] += s_mat[(di, j)] * ajk;
                }
            }
        }
        out
    }

    fn dyn_clone<T: Clone>(x: &T) -> T {
        x.clone()
    }

    #[test]
    fn matches_materialized_reference() {
        let a = random_csc(40, 25, 150, 3);
        for (b_d, b_n) in [(7, 4), (64, 25), (1, 1), (100, 100)] {
            let cfg = SketchConfig::new(30, b_d, b_n, 99);
            let sampler = UnitUniform::<f64>::sampler(Rng::new(cfg.seed));
            let got = sketch_alg3(&a, &cfg, &sampler);
            let want = reference_sketch(&a, &cfg, &sampler);
            assert!(
                got.diff_norm(&want) < 1e-12 * want.fro_norm().max(1.0),
                "mismatch for blocking ({b_d},{b_n})"
            );
        }
    }

    #[test]
    fn deterministic_given_seed_and_blocking() {
        let a = random_csc(30, 20, 90, 5);
        let cfg = SketchConfig::new(25, 8, 6, 42);
        let sampler = UnitUniform::<f64>::sampler(Rng::new(cfg.seed));
        let x = sketch_alg3(&a, &cfg, &sampler);
        let y = sketch_alg3(&a, &cfg, &sampler);
        assert_eq!(x, y);
    }

    #[test]
    fn different_blocking_different_sketch_with_xoshiro() {
        // Checkpointed xoshiro: the sketch depends on b_d (paper §IV-B2).
        let a = random_csc(30, 20, 90, 5);
        let c1 = SketchConfig::new(25, 8, 6, 42);
        let c2 = SketchConfig::new(25, 5, 6, 42);
        let sampler = UnitUniform::<f64>::sampler(Rng::new(42));
        let x = sketch_alg3(&a, &c1, &sampler);
        let y = sketch_alg3(&a, &c2, &sampler);
        assert!(x.diff_norm(&y) > 1e-8);
    }

    #[test]
    fn empty_matrix_gives_zero_sketch() {
        let a = CscMatrix::<f64>::zeros(10, 5);
        let cfg = SketchConfig::new(8, 4, 2, 1);
        let sampler = UnitUniform::<f64>::sampler(Rng::new(1));
        let got = sketch_alg3(&a, &cfg, &sampler);
        assert!(got.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn single_entry_matrix() {
        // A = e_2 e_1ᵀ (entry at row 2, col 1): Â column 1 must equal the
        // corresponding regenerated column of S.
        let mut coo = sparsekit::CooMatrix::new(5, 3);
        coo.push(2, 1, 2.0).unwrap();
        let a = coo.to_csc().unwrap();
        let cfg = SketchConfig::new(6, 6, 3, 7);
        let sampler = UnitUniform::<f64>::sampler(Rng::new(7));
        let got = sketch_alg3(&a, &cfg, &sampler);
        let mut s_col = vec![0.0; 6];
        let mut s = sampler;
        s.set_state(0, 2);
        s.fill(&mut s_col);
        for i in 0..6 {
            assert!((got[(i, 1)] - 2.0 * s_col[i]).abs() < 1e-15);
            assert_eq!(got[(i, 0)], 0.0);
            assert_eq!(got[(i, 2)], 0.0);
        }
    }

    #[test]
    fn signs_variant_matches_float_rademacher() {
        let a = random_csc(25, 15, 70, 9);
        let cfg = SketchConfig::new(20, 6, 4, 11);
        let f = sketch_alg3(&a, &cfg, &Rademacher::<f64>::sampler(Rng::new(cfg.seed)));
        let s = sketch_alg3_signs(&a, &cfg, &Rademacher::<i8>::sampler(Rng::new(cfg.seed)));
        assert!(f.diff_norm(&s) < 1e-12 * f.fro_norm().max(1.0));
    }

    #[test]
    fn scaled_trick_matches_unit_uniform_distributionally() {
        // The scaling trick yields *the same values* as UnitUniform up to the
        // sign/mantissa convention; here we verify moments and range, plus
        // exact linearity: scaled output = raw-int output × SCALE.
        let a = random_csc(30, 12, 80, 13);
        let cfg = SketchConfig::new(24, 8, 5, 17);
        let rng = Rng::new(cfg.seed);
        let scaled = sketch_alg3_scaled(&a, &cfg, &rng);
        let raw = sketch_alg3(&a, &cfg, &rngkit::DistSampler::new(ScaledInt::new(), rng));
        for (s, r) in scaled.as_slice().iter().zip(raw.as_slice().iter()) {
            assert!((s - r * ScaledInt::SCALE).abs() < 1e-12 * r.abs().max(1.0));
        }
    }

    #[test]
    fn sketch_preserves_column_scaling() {
        // S(2A) = 2(SA): linearity sanity on the kernel.
        let a = random_csc(20, 10, 50, 21);
        let mut a2 = a.clone();
        a2.scale_values(2.0);
        let cfg = SketchConfig::new(15, 5, 3, 31);
        let sampler = UnitUniform::<f64>::sampler(Rng::new(cfg.seed));
        let s1 = sketch_alg3(&a, &cfg, &sampler);
        let s2 = sketch_alg3(&a2, &cfg, &sampler);
        let mut s1x2 = s1.clone();
        s1x2.scale(2.0);
        assert!(s2.diff_norm(&s1x2) < 1e-12 * s2.fro_norm());
    }
}
