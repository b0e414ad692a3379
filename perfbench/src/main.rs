//! perfbench — end-to-end and per-layer benchmark of the sketching stack.
//!
//! ```text
//! perfbench --workload <sketch_suite|sap_suite|svc_mixed> --seed <n>
//!           --seconds <s> --trace <0|1> [--size full|tiny]
//! perfbench serve [--registry-budget BYTES]     # the svc_mixed server
//! ```
//!
//! Prints a run manifest, a table of every metric with its unit and sample
//! count, and as its last line one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. `--trace 0` reports the end-to-end metrics;
//! `--trace 1` records spans around every call into the stack and reports
//! the per-layer metrics. Spans are written to `.bench_out/` at exit.

mod host;
mod inputs;
mod probes;
mod report;
mod sap_suite;
mod sketch_suite;
mod stats;
mod svc;
mod trace;

use inputs::Size;
use report::{Metrics, Tally};
use std::path::PathBuf;

/// What one invocation was asked to do.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
}

impl Ctx {
    /// How many times set-up is repeated; its median is `setup_s`.
    pub fn setup_reps(&self) -> usize {
        match self.size {
            Size::Full => 11,
            Size::Tiny => 3,
        }
    }

    /// Warn when a named tail percentile has fewer than ten samples
    /// beyond it (the figure is still printed, with its sample count).
    pub fn check_tail(&self, name: &str, q: f64, n: usize) {
        if !stats::supported(q, n) && self.size == Size::Full {
            eprintln!(
                "perfbench: {name} rests on {n} samples, fewer than {} beyond p{}; \
                 highest supported percentile is {:?}",
                stats::TAIL_MIN,
                q * 100.0,
                stats::highest_supported(n)
            );
        }
    }
}

/// What a workload hands back.
pub struct Run {
    pub metrics: Metrics,
    pub tally: Tally,
    /// Bytes the hot loop touches, for comparison with L2/L3.
    pub working_set: u64,
    /// CPU seconds of a child process under test.
    pub child_cpu_s: f64,
    /// Peak resident memory of the process under test.
    pub peak_rss_mb: f64,
}

impl Run {
    fn failed(metrics: Metrics, tally: Tally) -> Run {
        Run {
            metrics,
            tally,
            working_set: 0,
            child_cpu_s: 0.0,
            peak_rss_mb: 0.0,
        }
    }
}

fn usage(why: &str) -> ! {
    eprintln!("perfbench: {why}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed N --seconds S --trace 0|1 [--size full|tiny]",
        report::WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args(args: &[String]) -> Ctx {
    let mut ctx = Ctx {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        size: Size::Full,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let val = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => ctx.workload = val.clone(),
            "--seed" => ctx.seed = val.parse().unwrap_or_else(|_| usage("bad --seed")),
            "--seconds" => {
                ctx.seconds = val.parse().unwrap_or_else(|_| usage("bad --seconds"));
                if ctx.seconds.is_nan() || ctx.seconds <= 0.0 {
                    usage("--seconds must be positive");
                }
            }
            "--trace" => {
                ctx.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            "--size" => {
                ctx.size = match val.as_str() {
                    "full" => Size::Full,
                    "tiny" => Size::Tiny,
                    _ => usage("--size takes full or tiny"),
                }
            }
            other => usage(&format!("unknown flag {other}")),
        }
    }
    if !report::WORKLOADS.contains(&ctx.workload.as_str()) {
        usage(&format!("unknown workload {:?}", ctx.workload));
    }
    ctx
}

fn manifest(ctx: &Ctx, root: &std::path::Path, run: &Run, steal: f64, cpu_per_wall: f64) -> String {
    let c = host::caches();
    let list = |v: Vec<&str>| {
        v.iter()
            .map(|s| format!("\"{s}\""))
            .collect::<Vec<_>>()
            .join(",")
    };
    let esc = |s: &str| s.replace('\\', "\\\\").replace('"', "\\\"");
    format!(
        "{{\"manifest\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"git_sha\": \"{}\", \"source_fingerprint\": \"{}\", \"cpu_model\": \"{}\", \"nproc\": {}, \
         \"l2_bytes\": {}, \"l3_bytes\": {}, \"isa_detected\": [{}], \"isa_compiled\": [{}], \
         \"rustflags_build\": \"{}\", \"rustflags_env\": \"{}\", \"working_set_bytes\": {}, \
         \"working_set_vs_l2\": {:.3}, \"working_set_vs_l3\": {:.3}, \"steal_ratio\": {:.5}, \
         \"cpu_per_wall\": {:.4}, \"fail_ratio\": {}}}}}",
        ctx.workload,
        ctx.seed,
        ctx.seconds,
        ctx.trace,
        esc(&host::git_sha(root)),
        host::source_fingerprint(root),
        esc(&host::cpu_model()),
        host::nproc(),
        c.l2,
        c.l3,
        list(host::isa_detected()),
        list(host::isa_compiled()),
        esc(option_env!("RUSTFLAGS").unwrap_or("")),
        esc(&std::env::var("RUSTFLAGS").unwrap_or_default()),
        run.working_set,
        run.working_set as f64 / c.l2.max(1) as f64,
        run.working_set as f64 / c.l3.max(1) as f64,
        steal,
        cpu_per_wall,
        run.tally.fail_ratio(),
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("serve") {
        std::process::exit(svc::serve(&args[1..]));
    }
    let ctx = parse_args(&args);
    // The sources sit beside this package; the benchmark runs from the root
    // of the checkout.
    let root = PathBuf::from(".");
    let acct = host::Accounting::start();
    trace::set_enabled(ctx.trace);

    let mut run = match ctx.workload.as_str() {
        "sketch_suite" => sketch_suite::run(&ctx),
        "sap_suite" => sap_suite::run(&ctx),
        _ => svc::run(&ctx),
    };
    let (steal, cpu_per_wall) = acct.finish(run.child_cpu_s);

    let m = &mut run.metrics;
    m.set("peak_rss_mb", run.peak_rss_mb, 1);
    m.set(
        "ok_ratio",
        1.0 - run.tally.fail_ratio(),
        run.tally.attempted as usize,
    );
    if ctx.trace {
        let c = host::caches();
        m.set("host.steal_ratio", steal, 1);
        m.set("host.cpu_per_wall", cpu_per_wall, 1);
        m.set("host.l2_mb", c.l2 as f64 / 1048576.0, 1);
        m.set("host.l3_mb", c.l3 as f64 / 1048576.0, 1);
        m.set(
            "fail_ratio",
            run.tally.fail_ratio(),
            run.tally.attempted as usize,
        );
        let spans = trace::take_all();
        let self_ns = trace::self_ns_by_layer(&spans);
        for (name, _) in report::PER_LAYER
            .iter()
            .filter(|(n, _)| n.ends_with(".self_s"))
        {
            let layer = trace::layer(name);
            m.set(
                name,
                self_ns.get(layer).copied().unwrap_or(0) as f64 / 1e9,
                spans
                    .iter()
                    .filter(|s| trace::layer(s.name) == layer)
                    .count(),
            );
        }
        let path = root
            .join(".bench_out")
            .join(format!("trace-{}-{}.json", ctx.workload, ctx.seed));
        match trace::write_chrome(&path, &spans) {
            Ok(()) => println!("spans: {} written to {}", spans.len(), path.display()),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
        }
    }

    println!("{}", manifest(&ctx, &root, &run, steal, cpu_per_wall));
    for r in run.tally.reasons() {
        println!("  failure: {r}");
    }
    let (names, table): (Vec<&'static str>, Vec<&'static str>) = if ctx.trace {
        let all: Vec<_> = report::PER_LAYER.iter().map(|m| m.0).collect();
        (all.clone(), all)
    } else {
        (report::untraced_names(), report::table_names(&ctx.workload))
    };
    println!(
        "{} ({}):",
        ctx.workload,
        if ctx.trace { "traced" } else { "untraced" }
    );
    run.metrics.print_table(&table);
    match run.metrics.result_line(&names, &run.tally) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
