#![warn(missing_docs)]
//! # sketchcore — sketching SpMM with blocking and on-the-fly RNG
//!
//! This crate implements the primary contribution of Liang, Murray, Buluç &
//! Demmel (IPPS 2024): computing `Â = S·A` where `A ∈ R^{m×n}` is a tall
//! sparse matrix (CSC) and `S ∈ R^{d×m}` is an *implicit* iid random matrix
//! whose entries are regenerated on demand instead of being stored. Trading
//! memory traffic for recomputation raises the kernel's computational
//! intensity past the GEMM lower bound — by a factor of `√M` in the model of
//! paper §III-A (see [`model`]).
//!
//! Layout of the crate follows the paper:
//!
//! * [`config`] — blocking parameters `(b_d, b_n)`, sketch size `d = γ·n`,
//!   flop accounting.
//! * [`alg1`] — the one sketch driver (paper Algorithm 1):
//!   `(⌈d/b_d⌉, 1, ⌈n/b_n⌉)`-blocking with the column loop outermost. A
//!   sketch is a plan, a [`Kernel`] × a [`Schedule`], run by [`sketch`]:
//!   the schedule (`Serial`, `ParCols` over column panels, `ParRows` over
//!   row stripes — paper §II-C) only decides which worker owns which output
//!   window, and every worker runs the same block loop.
//! * [`alg3`] — compute kernel variant `kji` with RNG (paper Algorithm 3):
//!   consumes plain CSC, strided access to all three operands, regenerates a
//!   column of `S` per nonzero of `A`. Pattern-oblivious. Kernels [`Alg3`]
//!   (fused generate-and-axpy) and [`Alg3Signs`] (±1 signs).
//! * [`alg4`] — compute kernel variant `jki` with RNG (paper Algorithm 4):
//!   consumes [`sparsekit::BlockedCsr`], regenerates a column of `S` once per
//!   *row* of each vertical block, reusing it across that row's nonzeros —
//!   fewer samples, less regular access. Kernels [`Alg4`] and [`Alg4Signs`].
//! * [`robust`] — the one checked entry point, [`try_sketch`]: validation,
//!   memory budget, fault injection, panic containment, output scan.
//! * [`variants`] — all six `i/j/k` loop orderings of the toy kernel from
//!   paper §II-B, kept as executable documentation of the design-space
//!   argument (why `ikj`, `kij`, `ijk` and `jik` are ruled out).
//! * [`instrument`] — sample-time vs total-time split (paper Tables III/V):
//!   the serial plan with a timing sampler, viewed through obskit spans.
//! * [`model`] — the roofline/computational-intensity model of §III-A, with
//!   the block-size optimizer of eq. (4) and the closed forms (5)–(7).
//! * [`obs`] — telemetry glue: block-granularity counters the block loop records
//!   and the measured-vs-model traffic comparison ([`obs::TrafficReport`]).
//!
//! ## Quick example
//!
//! ```
//! use sketchcore::{SketchConfig, sketch_alg3};
//! use rngkit::{CheckpointRng, UnitUniform, Xoshiro256PlusPlus};
//! use sparsekit::CscMatrix;
//!
//! let a = CscMatrix::<f64>::identity(100);      // toy sparse input
//! let cfg = SketchConfig::new(300, 64, 32, 7);  // d=300, b_d=64, b_n=32, seed
//! let sampler = UnitUniform::<f64>::sampler(CheckpointRng::<Xoshiro256PlusPlus>::new(cfg.seed));
//! let sketch = sketch_alg3(&a, &cfg, &sampler);
//! assert_eq!((sketch.nrows(), sketch.ncols()), (300, 100));
//! ```

pub mod alg1;
pub mod alg3;
pub mod alg4;
pub mod config;
pub mod error;
pub mod instrument;
pub mod model;
pub mod obs;
pub mod pattern_model;
pub mod robust;
pub mod variants;

pub use alg1::{sketch, Kernel, Schedule};
pub use alg3::{
    sketch_alg3, sketch_alg3_multi, sketch_alg3_par_cols, sketch_alg3_signs, Alg3, Alg3Signs,
};
pub use alg4::{sketch_alg4, Alg4, Alg4Signs};
pub use config::{flops, SketchConfig};
pub use error::SketchError;
pub use instrument::{sketch_alg3_instrumented, sketch_alg4_instrumented, SketchTiming};
pub use model::{CostModel, ModelPrediction};
pub use obs::TrafficReport;
pub use pattern_model::{predict_kernels, profile_pattern, tune_b_n, KernelCosts, PatternProfile};
pub use robust::{plan_blocks, try_sketch, try_sketch_alg3, BudgetPlan, FaultSampler};
