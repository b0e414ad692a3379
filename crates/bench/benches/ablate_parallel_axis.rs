//! Ablation: which outer loop to parallelize (§II-C) — column panels
//! (`par_cols`) vs row stripes (`par_rows`), for both kernels.
//!
//! Run: `cargo bench -p bench --bench ablate_parallel_axis`

use criterion::{criterion_group, criterion_main, Criterion};
use rngkit::{FastRng, UnitUniform};
use sketchcore::{sketch, Alg3, Alg4, Schedule, SketchConfig};
use sparsekit::BlockedCsr;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let a = datagen::uniform_random::<f64>(6_000, 600, 4e-3, 1);
    let cfg = SketchConfig::new(1_800, 450, 100, 7);
    let sampler = UnitUniform::<f64>::sampler(FastRng::new(7));
    let blocked = BlockedCsr::from_csc(&a, cfg.b_n);

    let mut g = c.benchmark_group("parallel_axis");
    g.sample_size(12);
    for (name, schedule) in [
        ("par_cols", Schedule::ParCols),
        ("par_rows", Schedule::ParRows),
    ] {
        g.bench_function(format!("alg3_{name}"), |b| {
            b.iter(|| black_box(sketch(Alg3(&a), schedule, &cfg, &sampler)))
        });
        g.bench_function(format!("alg4_{name}"), |b| {
            b.iter(|| black_box(sketch(Alg4(&blocked), schedule, &cfg, &sampler)))
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
