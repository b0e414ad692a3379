//! Developer profiling tool: per-sample sketch cost across blockings and
//! matrix patterns. Numbers on this host carry up to ~3x hypervisor-steal
//! noise; compare within one run only.
//!
//! `--obs-json PATH` (or `SKETCH_OBS_JSON`) exports the run's telemetry as
//! JSONL, exactly like `repro`. `--trace-out PATH` / `--trace-folded PATH`
//! arm the flight recorder and write a Perfetto timeline / flamegraph (plus
//! the slowest-blocks anomaly table), also exactly like `repro`.

fn usage() -> ! {
    eprintln!("usage: sketchprof [--obs-json PATH] [--trace-out PATH] [--trace-folded PATH]");
    std::process::exit(2);
}

fn main() {
    use rngkit::{FastRng, UnitUniform};
    use sketchcore::{sketch, sketch_alg3, Alg3, Schedule, SketchConfig};
    let mut args = std::env::args().skip(1);
    let mut obs_json_cli: Option<String> = None;
    let mut trace = bench::tracecli::TraceOpts::default();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--obs-json" => match args.next() {
                Some(path) => obs_json_cli = Some(path),
                None => usage(),
            },
            "--trace-out" => match args.next() {
                Some(path) => trace.out = Some(path),
                None => usage(),
            },
            "--trace-folded" => match args.next() {
                Some(path) => trace.folded = Some(path),
                None => usage(),
            },
            _ => usage(),
        }
    }
    trace.arm();
    let suite = datagen::lsq_suite(8);
    let p = &suite[1]; // spal_004
    let a = &p.a;
    let n = a.ncols();
    let d = 2 * n;
    println!("spal stand-in: {}x{} nnz {}", a.nrows(), n, a.nnz());
    // Same dims, plain uniform pattern (no conditioning machinery).
    let u = datagen::uniform_random::<f64>(a.nrows(), n, a.density(), 3);
    for (label, mat) in [("spal-standin", a), ("uniform-same-dims", &u)] {
        let cfg = SketchConfig::new(d, 3000, 500, 7);
        let s = UnitUniform::<f64>::sampler(FastRng::new(7));
        let t = std::time::Instant::now();
        let x = sketch_alg3(mat, &cfg, &s);
        let dt = t.elapsed().as_secs_f64();
        std::hint::black_box(&x);
        let samples = d as f64 * mat.nnz() as f64;
        println!("{label:20}: {dt:.3}s ({:.2} ns/sample)", dt / samples * 1e9);
    }
    // The paper's Frontera blocking; add pairs here to sweep alternatives.
    let blockings = [(3000usize, 500usize)];
    for (b_d, b_n) in blockings {
        let cfg = SketchConfig::new(d, b_d, b_n, 7);
        let s = UnitUniform::<f64>::sampler(FastRng::new(7));
        let t = std::time::Instant::now();
        let x = sketch_alg3(a, &cfg, &s);
        let dt = t.elapsed().as_secs_f64();
        std::hint::black_box(&x);
        let t2 = std::time::Instant::now();
        let y = sketch(Alg3(a), Schedule::ParCols, &cfg, &s);
        let dt2 = t2.elapsed().as_secs_f64();
        std::hint::black_box(&y);
        let samples = d as f64 * a.nnz() as f64;
        println!(
            "b_d={b_d:5} b_n={b_n:4}: seq {dt:.3}s ({:.2} ns/sample)  par_cols {dt2:.3}s",
            dt / samples * 1e9
        );
    }
    if let Err(e) = trace.finish() {
        eprintln!("failed to write trace outputs: {e}");
        std::process::exit(1);
    }
    let sink = obskit::resolve_json_sink(obs_json_cli);
    if let Err(e) = obskit::emit_run_telemetry(sink.as_deref()) {
        eprintln!(
            "failed to write telemetry to {}: {e}",
            sink.as_deref().unwrap_or("?")
        );
        std::process::exit(1);
    }
}
