//! Every way of computing a sketch gives the serial plan's bits.
//!
//! One table: kernel × schedule × worker count × shape × generator, each
//! row bitwise equal to the serial plan on the same input. The shapes are
//! ragged (`d`, `n` not multiples of `b_d`, `b_n`) or degenerate, so edge
//! blocks, single blocks and one-column panels are all exercised. A second
//! table covers the public entry points: the column-panel wrapper, the
//! checked entry under each schedule, the per-seed batch and the
//! instrumented drivers.

use densekit::Matrix;
use rngkit::{CheckpointRng, FastRng, Rademacher, UnitUniform, Xoshiro256PlusPlus};
use sketchcore::{
    sketch, sketch_alg3, sketch_alg3_instrumented, sketch_alg3_multi, sketch_alg3_par_cols,
    sketch_alg4, sketch_alg4_instrumented, try_sketch, Alg3, Alg3Signs, Alg4, Alg4Signs, Schedule,
    SketchConfig,
};
use sparsekit::{BlockedCsr, CooMatrix, CscMatrix};

type Xoshiro = CheckpointRng<Xoshiro256PlusPlus>;

/// `(m, n, nnz, d, b_d, b_n, seed)`.
const SHAPES: [(usize, usize, usize, usize, usize, usize, u64); 7] = [
    (60, 40, 300, 33, 9, 7, 5),
    (35, 23, 150, 29, 10, 9, 3),
    (50, 30, 250, 21, 8, 6, 7),
    (40, 30, 200, 24, 6, 5, 9),
    (20, 7, 40, 5, 100, 100, 11),
    (15, 9, 30, 4, 1, 1, 13),
    (10, 0, 0, 6, 4, 3, 17),
];

const SCHEDULES: [Schedule; 3] = [Schedule::Serial, Schedule::ParCols, Schedule::ParRows];

const THREADS: [usize; 3] = [1, 2, 4];

fn random_csc(m: usize, n: usize, nnz: usize, seed: u64) -> CscMatrix<f64> {
    let mut state = seed | 1;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 11
    };
    let mut coo = CooMatrix::new(m, n);
    for _ in 0..nnz {
        let r = (next() % m as u64) as usize;
        let c = (next() % n as u64) as usize;
        coo.push(r, c, (next() % 1000) as f64 / 500.0 - 1.0 + 0.0005)
            .expect("in bounds");
    }
    coo.to_csc().expect("valid coordinates")
}

fn bitwise_eq(x: &Matrix<f64>, y: &Matrix<f64>) -> bool {
    (x.nrows(), x.ncols()) == (y.nrows(), y.ncols())
        && x.as_slice()
            .iter()
            .zip(y.as_slice())
            .all(|(p, q)| p.to_bits() == q.to_bits())
}

/// One sketch of `a` with `kernel` under `schedule`, from generator `rng`.
fn run(
    kernel: &str,
    rng: &str,
    schedule: Schedule,
    a: &CscMatrix<f64>,
    blocked: &BlockedCsr<f64>,
    cfg: &SketchConfig,
) -> Matrix<f64> {
    let seed = cfg.seed;
    match (kernel, rng) {
        ("alg3", "xoshiro") => sketch(Alg3(a), schedule, cfg, &uniform_x(seed)),
        ("alg3", _) => sketch(Alg3(a), schedule, cfg, &uniform_f(seed)),
        ("alg3_signs", "xoshiro") => sketch(Alg3Signs(a), schedule, cfg, &signs_x(seed)),
        ("alg3_signs", _) => sketch(Alg3Signs(a), schedule, cfg, &signs_f(seed)),
        ("alg4", "xoshiro") => sketch(Alg4(blocked), schedule, cfg, &uniform_x(seed)),
        ("alg4", _) => sketch(Alg4(blocked), schedule, cfg, &uniform_f(seed)),
        ("alg4_signs", "xoshiro") => sketch(Alg4Signs(blocked), schedule, cfg, &signs_x(seed)),
        ("alg4_signs", _) => sketch(Alg4Signs(blocked), schedule, cfg, &signs_f(seed)),
        _ => unreachable!("unknown kernel {kernel}"),
    }
}

fn uniform_x(seed: u64) -> impl rngkit::BlockSampler<f64> + Clone {
    UnitUniform::<f64>::sampler(Xoshiro::new(seed))
}

fn uniform_f(seed: u64) -> impl rngkit::BlockSampler<f64> + Clone {
    UnitUniform::<f64>::sampler(FastRng::new(seed))
}

fn signs_x(seed: u64) -> impl rngkit::BlockSampler<i8> + Clone {
    Rademacher::<i8>::sampler(Xoshiro::new(seed))
}

fn signs_f(seed: u64) -> impl rngkit::BlockSampler<i8> + Clone {
    Rademacher::<i8>::sampler(FastRng::new(seed))
}

#[test]
fn every_kernel_schedule_and_thread_count_matches_serial() {
    let mut rows = 0;
    for &(m, n, nnz, d, b_d, b_n, seed) in &SHAPES {
        let a = random_csc(m, n, nnz, seed);
        let cfg = SketchConfig::new(d, b_d, b_n, seed);
        let blocked = BlockedCsr::from_csc(&a, cfg.b_n);
        for kernel in ["alg3", "alg3_signs", "alg4", "alg4_signs"] {
            for rng in ["xoshiro", "fast"] {
                let serial = run(kernel, rng, Schedule::Serial, &a, &blocked, &cfg);
                assert!(serial.fro_norm() > 0.0 || n == 0, "{kernel}: empty sketch");
                for schedule in SCHEDULES {
                    for t in THREADS {
                        let got = parkit::with_threads(t, || {
                            run(kernel, rng, schedule, &a, &blocked, &cfg)
                        });
                        assert!(
                            bitwise_eq(&serial, &got),
                            "{kernel}/{rng} {schedule:?} at {t} threads differs from serial \
                             (shape {m}x{n}, d={d}, b_d={b_d}, b_n={b_n})"
                        );
                        rows += 1;
                    }
                }
            }
        }
    }
    assert_eq!(rows, SHAPES.len() * 4 * 2 * SCHEDULES.len() * THREADS.len());
}

#[test]
fn every_entry_point_matches_serial() {
    faultkit::clear();
    for &(m, n, nnz, d, b_d, b_n, seed) in &SHAPES {
        let a = random_csc(m, n, nnz, seed);
        let cfg = SketchConfig::new(d, b_d, b_n, seed);
        let blocked = BlockedCsr::from_csc(&a, cfg.b_n);
        let sampler = uniform_f(seed);
        let serial = sketch_alg3(&a, &cfg, &sampler);
        let serial4 = sketch_alg4(&blocked, &cfg, &sampler);
        let mut rows: Vec<(String, Matrix<f64>, &Matrix<f64>)> = vec![
            (
                "sketch_alg3_instrumented".into(),
                sketch_alg3_instrumented(&a, &cfg, &sampler).0,
                &serial,
            ),
            (
                "sketch_alg4_instrumented".into(),
                sketch_alg4_instrumented(&blocked, &cfg, &sampler).0,
                &serial4,
            ),
        ];
        for t in THREADS {
            let par = parkit::with_threads(t, || sketch_alg3_par_cols(&a, &cfg, &sampler));
            rows.push((format!("sketch_alg3_par_cols@{t}"), par, &serial));
            for schedule in SCHEDULES {
                let checked = parkit::with_threads(t, || {
                    try_sketch(&a, schedule, &cfg, &sampler, true).expect("benign input")
                });
                rows.push((format!("try_sketch {schedule:?}@{t}"), checked, &serial));
            }
        }
        // A batch is one serial sketch per seed, in order.
        let samplers: Vec<_> = (0..3).map(|r| uniform_f(seed + 100 * r)).collect();
        let batch = sketch_alg3_multi(&a, &cfg, &samplers);
        assert_eq!(batch.len(), samplers.len());
        for (r, (got, s)) in batch.iter().zip(&samplers).enumerate() {
            let want = sketch_alg3(&a, &cfg, s);
            assert!(bitwise_eq(got, &want), "batch member {r} differs");
        }
        assert!(sketch_alg3_multi(&a, &cfg, &samplers[..0]).is_empty());
        for (name, got, want) in &rows {
            assert!(
                bitwise_eq(got, want),
                "{name} differs from serial (shape {m}x{n}, d={d}, b_d={b_d}, b_n={b_n})"
            );
        }
    }
}
