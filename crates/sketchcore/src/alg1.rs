//! Algorithm 1 — the one sketch driver, shared by every kernel and schedule.
//!
//! `(⌈d/b_d⌉, 1, ⌈n/b_n⌉)`-blocking of `Â = S·A`: the outermost loop walks
//! vertical blocks of `A` (encouraging the sparse data and the active panel
//! of `Â` to stay cached), the inner loop walks row blocks of `S`/`Â`, and
//! the `m` dimension is not blocked. Each `(i, j)` iterate hands a
//! `d₁×n₁` block of `Â` to a compute kernel (Algorithm 3 or 4).
//!
//! A sketch is a plan: a [`Kernel`] (the compute body for one block) times
//! a [`Schedule`] (which worker owns which output window), run by
//! [`sketch`]. Every worker runs the same block loop over the blocks of its
//! window, in Algorithm 1's order. Checkpoint `(i, j)` regenerates the same
//! entries of `S` whichever worker asks, so every schedule and thread count
//! is bit-identical to [`Schedule::Serial`]. Disabled telemetry costs one
//! relaxed atomic load per block.

use crate::config::SketchConfig;
use crate::obs;
use densekit::Matrix;
use sparsekit::Scalar;

/// One block of the outer iteration space.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OuterBlock {
    /// Row offset into `Â`/`S` (the `i` of Algorithm 1).
    pub i: usize,
    /// Rows in this block (`d₁ = d_stop − i + 1`).
    pub d1: usize,
    /// Column offset into `Â`/`A` (the `j` of Algorithm 1).
    pub j: usize,
    /// Columns in this block (`n₁ = n_stop − j + 1`).
    pub n1: usize,
}

/// Enumerate Algorithm 1's blocks in its loop order (columns outermost).
pub fn blocks(cfg: &SketchConfig, n: usize) -> Vec<OuterBlock> {
    let mut out = Vec::with_capacity(cfg.n_blocks(n) * cfg.d_blocks());
    let mut j = 0;
    while j < n {
        let n1 = cfg.b_n.min(n - j);
        let mut i = 0;
        while i < cfg.d {
            let d1 = cfg.b_d.min(cfg.d - i);
            out.push(OuterBlock { i, d1, j, n1 });
            i += cfg.b_d;
        }
        j += cfg.b_n;
    }
    out
}

/// Write access to the part of `Â` one worker owns.
pub trait Window<T> {
    /// Rows `i..i+d1` of column `k` of `Â`.
    fn seg(&mut self, k: usize, i: usize, d1: usize) -> &mut [T];
}

/// A compute kernel bound to its sparse operand (paper Algorithms 3 and 4),
/// drawing the entries of `S` from an `S` sampler.
pub trait Kernel<T, S>: Sync {
    /// Entry type of `S`: `T`, or `i8` for ±1 signs.
    type Sample: Copy + Default;
    /// Block path for each [`Schedule`], in its order: the driver span's
    /// path plus `/block`.
    const PATHS: [&'static str; 3];
    /// The blocking this operand runs with, and its column count `n`.
    fn shape(&self, cfg: &SketchConfig) -> (SketchConfig, usize);
    /// Add `S[i..i+d₁, :] · A[:, j..j+n₁]` into `out` (`v` is `d₁` scratch)
    /// and return the block's [`Work`].
    fn block<W: Window<T>>(
        &self,
        b: OuterBlock,
        s: &mut S,
        v: &mut [Self::Sample],
        out: &mut W,
    ) -> Work;
}

/// What a kernel did for one block, as [`obs::block_done`] counts it: the
/// nonzeros of `A` it streamed, and `Some` count of nonempty rows when it
/// regenerated `S` once per row (Algorithm 4), `None` when once per
/// nonzero (Algorithm 3).
pub type Work = (usize, Option<usize>);

/// Who owns which output window. The paper (§II-C) parallelizes either of
/// Algorithm 1's outer loops.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Schedule {
    /// One worker owns all of `Â`.
    Serial,
    /// A worker per `b_n`-column panel of `Â` (the `j` loop): disjoint
    /// `&mut` chunks of the column-major buffer.
    ParCols,
    /// A worker per `b_d`-row stripe of `Â` (the `i` loop), through a
    /// raw-pointer stripe window.
    ParRows,
}

/// Compute `Â = S·A` with `kernel` under `schedule`. `sampler` defines `S`;
/// each worker clones it, so the caller's generator state is untouched.
pub fn sketch<T, K, S>(kernel: K, schedule: Schedule, cfg: &SketchConfig, sampler: &S) -> Matrix<T>
where
    T: Scalar,
    K: Kernel<T, S>,
    S: Clone + Sync,
{
    let path = K::PATHS[schedule as usize];
    let _sp = obskit::span(path.strip_suffix("/block").unwrap_or(path));
    let (cfg, n) = kernel.shape(cfg);
    let (d, b_n, db) = (cfg.d, cfg.b_n, cfg.d_blocks());
    let all = blocks(&cfg, n);
    let worker = Worker(&kernel, path, &cfg, sampler);
    let mut ahat = Matrix::zeros(d, n);
    match schedule {
        Schedule::Serial => {
            let data = ahat.as_mut_slice();
            worker.run(all.iter(), &mut Panel { data, d, j0: 0 });
        }
        // Column panel `p` holds exactly the `db` blocks with `j = p·b_n`.
        Schedule::ParCols => parkit::for_each_chunk_mut(ahat.as_mut_slice(), d * b_n, |p, data| {
            let j0 = p * b_n;
            worker.run(all[p * db..][..db].iter(), &mut Panel { data, d, j0 });
        }),
        // Row stripe `t` holds every `db`-th block, starting at block `t`.
        Schedule::ParRows => {
            let base = ahat.as_mut_slice().as_mut_ptr();
            let stripes = (0..d).step_by(cfg.b_d).map(|i| {
                let d1 = cfg.b_d.min(d - i);
                Stripe { base, d, n, i, d1 }
            });
            parkit::for_each(stripes.collect(), |mut out: Stripe<T>| {
                let own = all.iter().skip(out.i / cfg.b_d).step_by(db);
                worker.run(own, &mut out)
            });
        }
    }
    ahat
}

/// What every worker of one sketch shares: the kernel, its block path, the
/// blocking and the sampler each worker clones.
struct Worker<'a, K, S>(&'a K, &'static str, &'a SketchConfig, &'a S);

impl<K, S> Worker<'_, K, S> {
    /// The block loop: run the kernel over the blocks a worker owns, in
    /// Algorithm 1's order, with one sampler clone and one scratch vector,
    /// recording each block's telemetry.
    fn run<'b, T, W>(&self, own: impl Iterator<Item = &'b OuterBlock>, out: &mut W)
    where
        K: Kernel<T, S>,
        S: Clone,
        W: Window<T>,
    {
        let Worker(kernel, path, cfg, sampler) = *self;
        let mut sampler = sampler.clone();
        let mut v = vec![K::Sample::default(); cfg.b_d.min(cfg.d)];
        for &b in own {
            let t0 = obs::block_timer();
            let work = kernel.block(b, &mut sampler, &mut v[..b.d1], out);
            if let Some(t0) = t0 {
                let dur_ns = t0.elapsed().as_nanos() as u64;
                obs::block_done::<K::Sample>(path, b, work, dur_ns);
            }
        }
    }
}

/// Columns `j0..` of a column-major `d`-row matrix as one `&mut` slice:
/// all of `Â` under [`Schedule::Serial`], one panel under
/// [`Schedule::ParCols`].
struct Panel<'a, T> {
    data: &'a mut [T],
    d: usize,
    j0: usize,
}

impl<T> Window<T> for Panel<'_, T> {
    #[inline(always)]
    fn seg(&mut self, k: usize, i: usize, d1: usize) -> &mut [T] {
        let at = (k - self.j0) * self.d + i;
        &mut self.data[at..at + d1]
    }
}

/// Write access to rows `i..i+d1` of every column of a column-major
/// `d×n` matrix.
///
/// # Safety argument
/// [`Schedule::ParRows`] creates one `Stripe` per `b_d`-row stripe. Stripe
/// `t` touches only elements `col·d + i .. col·d + i + d1` with `i = t·b_d`,
/// `d1 ≤ b_d`, so element sets of distinct stripes are disjoint for every
/// column. No two workers ever alias the same element, and the parent
/// borrow outlives the scope — the standard tiled-output pattern.
struct Stripe<T> {
    base: *mut T,
    d: usize,
    n: usize,
    i: usize,
    d1: usize,
}

// SAFETY: a `Stripe` is moved to exactly one worker; `base` points into a
// matrix the spawning scope borrows mutably for the workers' lifetime, and
// the elements it reaches (see above) are reached through no other stripe.
// `d`, `n`, `i` and `d1` are plain integers. `T: Send` because the worker
// writes `T` values owned by another thread's matrix.
unsafe impl<T: Send> Send for Stripe<T> {}

impl<T> Window<T> for Stripe<T> {
    #[inline(always)]
    fn seg(&mut self, k: usize, i: usize, d1: usize) -> &mut [T] {
        debug_assert_eq!((i, d1), (self.i, self.d1));
        // A kernel is outside code: bound the column it asks for.
        assert!(k < self.n, "column {k} outside a {}-column sketch", self.n);
        // SAFETY: see the type-level disjointness argument; with `k < n`
        // and the stripe's own `i + d1 ≤ d`, `k·d + i + d1 ≤ d·n` stays
        // within the allocation the driver built the stripes from.
        unsafe { std::slice::from_raw_parts_mut(self.base.add(k * self.d + self.i), self.d1) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocks_tile_exactly() {
        let cfg = SketchConfig::new(10, 4, 3, 0);
        let bs = blocks(&cfg, 7);
        // 3 column blocks (3,3,1) × 3 row blocks (4,4,2).
        assert_eq!(bs.len(), 9);
        let total: usize = bs.iter().map(|b| b.d1 * b.n1).sum();
        assert_eq!(total, 10 * 7);
        // Column loop outermost: first three blocks share j = 0.
        assert!(bs[..3].iter().all(|b| b.j == 0));
        assert_eq!(bs[0].i, 0);
        assert_eq!(bs[1].i, 4);
        assert_eq!(bs[2].i, 8);
        assert_eq!(bs[2].d1, 2);
        // Ragged last column block.
        assert_eq!(bs[8].j, 6);
        assert_eq!(bs[8].n1, 1);
    }

    #[test]
    fn blocks_disjoint() {
        let cfg = SketchConfig::new(9, 2, 2, 0);
        let bs = blocks(&cfg, 5);
        let mut covered = [false; 9 * 5];
        for b in bs {
            for di in 0..b.d1 {
                for dj in 0..b.n1 {
                    let cell = (b.i + di) * 5 + (b.j + dj);
                    assert!(!covered[cell], "cell covered twice");
                    covered[cell] = true;
                }
            }
        }
        assert!(covered.iter().all(|&c| c));
    }

    #[test]
    fn single_block_when_sizes_exceed_dims() {
        let cfg = SketchConfig::new(5, 100, 100, 0);
        let bs = blocks(&cfg, 3);
        assert_eq!(bs.len(), 1);
        assert_eq!(
            bs[0],
            OuterBlock {
                i: 0,
                d1: 5,
                j: 0,
                n1: 3
            }
        );
    }

    #[test]
    fn empty_matrix_no_blocks() {
        let cfg = SketchConfig::new(5, 2, 2, 0);
        assert!(blocks(&cfg, 0).is_empty());
    }
}
