//! Criterion bench for Table VII: thread scaling of the parallel drivers
//! under the two blocking setups. (On a single-core host the sweep degrades
//! to overhead measurement; on multicore it reproduces the paper's scaling.)
//!
//! Run: `cargo bench -p bench --bench table7_scaling`

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use parkit::with_threads;
use rngkit::{FastRng, UnitUniform};
use sketchcore::{sketch, Alg3, Alg4, Schedule, SketchConfig};
use sparsekit::BlockedCsr;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let suite = datagen::spmm_suite(64);
    let nm = suite.iter().find(|p| p.name == "shar_te2-b2").unwrap();
    let a = &nm.matrix;
    let d = nm.d;
    // setup1: squarer blocks; setup2: highly rectangular (scales better).
    let setup1 = SketchConfig::new(d, 150.min(d), 300.min(a.ncols()), 7);
    let setup2 = SketchConfig::new(d, 470.min(d), 78.min(a.ncols()), 7);
    let sampler = UnitUniform::<f64>::sampler(FastRng::new(7));

    let max_t = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut threads = vec![1usize];
    while *threads.last().unwrap() * 2 <= max_t {
        let next = threads.last().unwrap() * 2;
        threads.push(next);
    }

    let mut g = c.benchmark_group("table7");
    g.sample_size(10);
    for &t in &threads {
        for (label, cfg) in [("setup1", &setup1), ("setup2", &setup2)] {
            g.bench_with_input(BenchmarkId::new(format!("alg3_{label}"), t), &t, |b, &t| {
                b.iter(|| {
                    with_threads(t, || {
                        black_box(sketch(Alg3(a), Schedule::ParRows, cfg, &sampler))
                    })
                })
            });
            let blocked = BlockedCsr::from_csc(a, cfg.b_n);
            g.bench_with_input(BenchmarkId::new(format!("alg4_{label}"), t), &t, |b, &t| {
                b.iter(|| {
                    with_threads(t, || {
                        black_box(sketch(Alg4(&blocked), Schedule::ParRows, cfg, &sampler))
                    })
                })
            });
        }
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
