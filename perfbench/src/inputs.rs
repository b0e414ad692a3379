//! Workload inputs, generated only from the benchmark's `--seed`.
//!
//! The shapes follow the repository's stand-in recipes (`datagen::suite`
//! for Table I, `datagen::lsq` for Table VIII); only the generator seeds are
//! replaced by seeds derived from the workload seed, so two runs with the
//! same seed see the same matrices and right-hand sides.

use datagen::lsq::{paper_spec, TABLE8};
use datagen::suite::{boundary_like, mesh_like, TABLE1};
use sparsekit::CscMatrix;

/// Input size: `Full` is what the benchmark measures; `Tiny` is the smoke
/// size the benchmark's own tests run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

/// SplitMix64 step: derive independent sub-seeds from the workload seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One Table I stand-in with its sketch size `d = 3n`.
pub struct SuiteMatrix {
    pub name: &'static str,
    pub a: CscMatrix<f64>,
    pub d: usize,
}

/// The sketch_suite matrices: `(name, scale)`. Scales are chosen so that
/// every `Â = S·A` (`d = 3n` doubles per column) is larger than 4 MiB, the
/// L2 of both cores together (2 MiB each): 6.9 MB, 7.3 MB and 4.8 MB.
pub const SKETCH_SUITE: &[(&str, usize)] =
    &[("shar_te2-b2", 32), ("ch7-9-b3", 32), ("mesh_deform", 21)];

pub fn sketch_suite(seed: u64, size: Size) -> Vec<SuiteMatrix> {
    SKETCH_SUITE
        .iter()
        .enumerate()
        .map(|(k, &(name, scale))| {
            let scale = if size == Size::Tiny { scale * 8 } else { scale };
            let paper = TABLE1
                .iter()
                .find(|r| r.name == name)
                .expect("sketch_suite names are Table I rows");
            let m = (paper.m / scale).max(16);
            let n = (paper.n / scale).max(8);
            let s = mix(seed, 0x5_0000 + k as u64);
            // Same recipes as `datagen::spmm_suite`.
            let a = if name == "mesh_deform" {
                mesh_like::<f64>(m, n, 3, 4, (n / 20).max(8), s)
            } else {
                let per_row = (paper.nnz + paper.m / 2) / paper.m;
                boundary_like::<f64>(m, n, per_row.max(1), s)
            };
            SuiteMatrix { name, a, d: 3 * n }
        })
        .collect()
}

/// One Table VIII least-squares stand-in.
pub struct LsqInput {
    pub name: &'static str,
    pub a: CscMatrix<f64>,
}

/// The sap_suite mix: ill-scaled `spal_004` (SAP-QR), rank-deficient
/// `landmark` (QR→SVD fallback) and the benign `rail4284`.
pub const SAP_SUITE: &[(&str, usize)] = &[("spal_004", 64), ("landmark", 16), ("rail4284", 32)];

pub fn lsq(name: &'static str, scale: usize, seed: u64) -> LsqInput {
    let paper = TABLE8
        .iter()
        .find(|r| r.name == name)
        .expect("sap_suite names are Table VIII rows");
    // Same recipe as `datagen::lsq_suite`.
    let (tm, tn) = if paper.rows >= paper.cols {
        (paper.rows, paper.cols)
    } else {
        (paper.cols, paper.rows)
    };
    let m = (tm / scale).max(64);
    let n = (tn / scale).max(16).min(m);
    let density = paper.nnz as f64 / (paper.rows as f64 * paper.cols as f64);
    let a = datagen::tall_conditioned(m, n, density, paper_spec(name), seed);
    LsqInput { name, a }
}

/// Random instances of each sap_suite problem: solve times depend on the
/// drawn matrix, so each recipe is drawn several times and the percentiles
/// pool over instances rather than hang on one draw.
const SAP_INSTANCES: usize = 5;

pub fn sap_suite(seed: u64, size: Size) -> Vec<LsqInput> {
    let (scale_mul, instances) = match size {
        Size::Full => (1, SAP_INSTANCES),
        Size::Tiny => (4, 1),
    };
    let mut out = Vec::new();
    for (k, &(name, scale)) in SAP_SUITE.iter().enumerate() {
        for i in 0..instances {
            let s = mix(seed, 0x6_0000 + (k * SAP_INSTANCES + i) as u64);
            out.push(lsq(name, scale * scale_mul, s));
        }
    }
    out
}

/// Right-hand side number `i` for a problem: `b = A·x₀ + g` (paper §V-C).
pub fn rhs(a: &CscMatrix<f64>, seed: u64, i: u64) -> Vec<f64> {
    datagen::make_rhs(a, mix(seed, 0x7_0000 + i)).0
}

/// Service shapes: the resident matrix every `Sketch` request reads
/// (2000×48, ≈480 nonzeros, `d = 16`: ≈15 kflop per request).
pub const SVC_M: usize = 2000;
pub const SVC_N: usize = 48;
pub const SVC_DENSITY: f64 = 0.005;
pub const SVC_D: usize = 16;
pub const SVC_BD: usize = 16;
pub const SVC_BN: usize = 48;

pub fn svc_hot(seed: u64) -> CscMatrix<f64> {
    datagen::uniform_random::<f64>(SVC_M, SVC_N, SVC_DENSITY, mix(seed, 0x8_0000))
}

/// Cold matrix `k`, uploaded under a cycling name to force evictions.
pub fn svc_cold(seed: u64, k: u64) -> CscMatrix<f64> {
    datagen::uniform_random::<f64>(SVC_M, SVC_N, SVC_DENSITY, mix(seed, 0x9_0000 + k))
}

/// The matrix `SolveSap` requests solve against: a small rail-like
/// problem (chain-conditioned, well within one worker's budget).
pub fn svc_sap(seed: u64) -> CscMatrix<f64> {
    lsq("rail4284", 128, mix(seed, 0xA_0000)).a
}
