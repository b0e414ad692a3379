//! Timing instrumentation: the sample-time vs total-time split of paper
//! Tables III and V.
//!
//! The instrumented drivers time every `fill` call with `Instant`, exactly
//! as the paper's Julia implementation wrapped its RNG calls — and inherit
//! the same caveat: "the total times are slightly higher than those reported
//! [without instrumentation] since the timer creates additional overhead".
//!
//! An instrumented run is the serial plan with a timing sampler, so the
//! kernels are the plain ones and the output is bitwise equal to the plain
//! driver's. The totals land in an [`obskit::LocalSpans`] accumulator and
//! [`SketchTiming`] is a *view* over those spans; with the telemetry gate
//! on they are also published to the obskit registry.

use crate::alg1::{sketch, Kernel, Schedule};
use crate::alg3::Alg3;
use crate::alg4::Alg4;
use crate::config::SketchConfig;
use densekit::Matrix;
use obskit::{Ctr, LocalSpans};
use rngkit::{BlockSampler, SampleCost};
use sparsekit::{BlockedCsr, CscMatrix, Scalar};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

/// Span path for the whole instrumented Algorithm 3 run.
pub const SPAN_ALG3: &str = "sketch/alg3_instrumented";
/// Span path for Algorithm 3's sample (RNG) time.
pub const SPAN_ALG3_SAMPLE: &str = "sketch/alg3_instrumented/sample";
/// Span path for the whole instrumented Algorithm 4 run.
pub const SPAN_ALG4: &str = "sketch/alg4_instrumented";
/// Span path for Algorithm 4's sample (RNG) time.
pub const SPAN_ALG4_SAMPLE: &str = "sketch/alg4_instrumented/sample";

/// Timing breakdown of one sketch computation.
#[derive(Clone, Copy, Debug, Default)]
pub struct SketchTiming {
    /// Wall-clock total, seconds.
    pub total_s: f64,
    /// Time spent inside the sampler's `fill` (random generation), seconds.
    pub sample_s: f64,
    /// Number of samples drawn.
    pub samples: u64,
    /// Number of `set_state` checkpoint seeks performed.
    pub seeks: u64,
}

impl SketchTiming {
    /// Compute time excluding generation.
    pub fn compute_s(&self) -> f64 {
        (self.total_s - self.sample_s).max(0.0)
    }

    /// View a [`LocalSpans`] accumulator as a timing breakdown: `total` and
    /// `sample` name the span paths holding the wall-clock and RNG time.
    pub fn from_spans(spans: &LocalSpans, total: &str, sample: &str) -> Self {
        Self {
            total_s: spans.secs(total),
            sample_s: spans.secs(sample),
            samples: spans.counter(Ctr::Samples),
            seeks: spans.counter(Ctr::Seeks),
        }
    }
}

/// Sampler time and counts, shared by every clone of a [`TimedSampler`].
#[derive(Default)]
struct Tally {
    ns: AtomicU64,
    samples: AtomicU64,
    seeks: AtomicU64,
}

/// A sampler that times each `set_state` + `fill` pair (every kernel seeks
/// right before it fills), as the paper's Julia implementation wrapped its
/// RNG calls.
#[derive(Clone)]
struct TimedSampler<S, T> {
    inner: S,
    tally: Arc<Tally>,
    t0: Instant,
    buf: Vec<T>,
}

impl<T: Scalar, S: BlockSampler<T>> BlockSampler<T> for TimedSampler<S, T> {
    fn set_state(&mut self, block_row: usize, col: usize) {
        self.tally.seeks.fetch_add(1, Relaxed);
        self.t0 = Instant::now();
        self.inner.set_state(block_row, col);
    }

    fn fill(&mut self, out: &mut [T]) {
        self.inner.fill(out);
        let ns = self.t0.elapsed().as_nanos() as u64;
        self.tally.ns.fetch_add(ns, Relaxed);
        self.tally.samples.fetch_add(out.len() as u64, Relaxed);
    }

    fn fill_axpy(&mut self, coeff: T, out: &mut [T]) {
        let mut v = std::mem::take(&mut self.buf);
        v.resize(out.len(), T::ZERO);
        self.fill(&mut v);
        for (o, &s) in out.iter_mut().zip(v.iter()) {
            *o = coeff.mul_add(s, *o);
        }
        self.buf = v;
    }

    fn cost(&self) -> SampleCost {
        self.inner.cost()
    }
}

/// Run `kernel` serially with a timed sampler; `[total, sample]` name the
/// span paths the timing is recorded under.
fn instrumented<T, K, S>(
    kernel: K,
    cfg: &SketchConfig,
    sampler: &S,
    [total, sample]: [&'static str; 2],
) -> (Matrix<T>, SketchTiming)
where
    T: Scalar,
    K: Kernel<T, TimedSampler<S, T>>,
    S: BlockSampler<T> + Clone,
{
    let t0 = Instant::now();
    let tally = Arc::new(Tally::default());
    let timed = TimedSampler {
        inner: sampler.clone(),
        tally: Arc::clone(&tally),
        t0,
        buf: Vec::new(),
    };
    let ahat = sketch(kernel, Schedule::Serial, cfg, &timed);
    let mut spans = LocalSpans::new();
    spans.add_ns(total, t0.elapsed().as_nanos() as u64);
    spans.add_ns(sample, tally.ns.load(Relaxed));
    spans.publish();
    // Counted after publishing: the plan's per-block telemetry has already
    // put these counts into the registry.
    spans.count(Ctr::Samples, tally.samples.load(Relaxed));
    spans.count(Ctr::Seeks, tally.seeks.load(Relaxed));
    (ahat, SketchTiming::from_spans(&spans, total, sample))
}

/// Algorithm 3 with per-fill timing. Returns the sketch and the breakdown.
pub fn sketch_alg3_instrumented<T, S>(
    a: &CscMatrix<T>,
    cfg: &SketchConfig,
    sampler: &S,
) -> (Matrix<T>, SketchTiming)
where
    T: Scalar,
    S: BlockSampler<T> + Clone,
{
    instrumented(Alg3(a), cfg, sampler, [SPAN_ALG3, SPAN_ALG3_SAMPLE])
}

/// Algorithm 4 with per-fill timing.
pub fn sketch_alg4_instrumented<T, S>(
    a: &BlockedCsr<T>,
    cfg: &SketchConfig,
    sampler: &S,
) -> (Matrix<T>, SketchTiming)
where
    T: Scalar,
    S: BlockSampler<T> + Clone,
{
    instrumented(Alg4(a), cfg, sampler, [SPAN_ALG4, SPAN_ALG4_SAMPLE])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alg3::sketch_alg3;
    use crate::alg4::sketch_alg4;
    use rngkit::{CheckpointRng, UnitUniform, Xoshiro256PlusPlus};

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
            coo.push(
                (next() % m as u64) as usize,
                (next() % n as u64) as usize,
                (next() % 1000) as f64 / 500.0 - 0.9995,
            )
            .unwrap();
        }
        coo.to_csc().unwrap()
    }

    #[test]
    fn instrumented_alg3_matches_plain() {
        let a = random_csc(40, 25, 150, 1);
        let cfg = SketchConfig::new(20, 7, 6, 3);
        let sampler = UnitUniform::<f64>::sampler(Rng::new(cfg.seed));
        let plain = sketch_alg3(&a, &cfg, &sampler);
        let (inst, t) = sketch_alg3_instrumented(&a, &cfg, &sampler);
        assert_eq!(plain, inst);
        assert!(t.total_s >= 0.0 && t.sample_s >= 0.0);
        assert!(t.sample_s <= t.total_s + 1e-9);
        // Alg 3 draws exactly d per nonzero (sum over blocks of d1 = d).
        assert_eq!(t.samples, crate::config::alg3_samples(cfg.d, a.nnz()));
        assert_eq!(t.seeks, a.nnz() as u64 * cfg.d_blocks() as u64);
    }

    #[test]
    fn instrumented_alg4_matches_plain_and_draws_fewer() {
        let a = random_csc(60, 30, 400, 2);
        let cfg = SketchConfig::new(24, 8, 10, 5);
        let blocked = BlockedCsr::from_csc(&a, cfg.b_n);
        let sampler = UnitUniform::<f64>::sampler(Rng::new(cfg.seed));
        let plain = sketch_alg4(&blocked, &cfg, &sampler);
        let (inst, t4) = sketch_alg4_instrumented(&blocked, &cfg, &sampler);
        assert_eq!(plain, inst);
        assert_eq!(
            t4.samples,
            crate::alg4::alg4_samples_actual(&blocked, cfg.d)
        );
        // With 400 nnz in 30 cols (avg row occupancy > 1 per block), Alg 4
        // must draw strictly fewer samples than Alg 3.
        let (_i3, t3) = sketch_alg3_instrumented(&a, &cfg, &sampler);
        assert!(
            t4.samples < t3.samples,
            "alg4 drew {} vs alg3 {}",
            t4.samples,
            t3.samples
        );
    }

    #[test]
    fn compute_time_nonnegative() {
        let t = SketchTiming {
            total_s: 1.0,
            sample_s: 1.5, // timer jitter can nominally exceed total
            samples: 0,
            seeks: 0,
        };
        assert_eq!(t.compute_s(), 0.0);
    }

    #[test]
    fn timing_is_a_view_over_local_spans() {
        let mut spans = LocalSpans::new();
        spans.add_ns(SPAN_ALG3, 3_000_000_000);
        spans.add_ns(SPAN_ALG3_SAMPLE, 1_000_000_000);
        spans.count(Ctr::Samples, 42);
        spans.count(Ctr::Seeks, 6);
        let t = SketchTiming::from_spans(&spans, SPAN_ALG3, SPAN_ALG3_SAMPLE);
        assert!((t.total_s - 3.0).abs() < 1e-12);
        assert!((t.sample_s - 1.0).abs() < 1e-12);
        assert!((t.compute_s() - 2.0).abs() < 1e-12);
        assert_eq!((t.samples, t.seeks), (42, 6));
    }
}
