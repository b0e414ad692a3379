//! Fault-injection tests for the hardened sketch drivers.
//!
//! One test function on purpose: the faultkit plan and the
//! `SKETCH_MEM_BUDGET` environment variable are process-global, and this
//! integration binary gives them a process of their own, away from the
//! crate's concurrent unit tests.

use rngkit::{FastRng, UnitUniform};
use sketchcore::robust::{plan_blocks, try_sketch_alg3};
use sketchcore::{try_sketch, Schedule, SketchConfig, SketchError};
use sparsekit::{CooMatrix, CscMatrix};

fn small_input() -> CscMatrix<f64> {
    let mut coo = CooMatrix::new(40, 12);
    let mut s = 5u64;
    for j in 0..12 {
        for _ in 0..4 {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            let i = (s >> 33) as usize % 40;
            let _ = coo.push(i, j, ((s >> 11) % 1000) as f64 / 500.0 - 1.0);
        }
    }
    coo.to_csc().expect("in-bounds by construction")
}

#[test]
fn injected_faults_surface_as_typed_errors() {
    let a = small_input();
    let cfg = SketchConfig::new(24, 8, 4, 3);
    let sampler = UnitUniform::<f64>::sampler(FastRng::new(cfg.seed));

    // NaN injected into the sample stream: caught by the output scan.
    faultkit::set_plan_str("sketch/nan_stream=once", 0).expect("valid plan");
    let r = try_sketch_alg3(&a, &cfg, &sampler);
    assert!(
        matches!(r, Err(SketchError::NonFiniteSketch { .. })),
        "got {r:?}"
    );

    // The same fault plan is deterministic: `once` already fired, so a
    // second run under the same plan is clean.
    let r2 = try_sketch_alg3(&a, &cfg, &sampler).expect("once-trigger already spent");
    faultkit::clear();
    let clean = try_sketch_alg3(&a, &cfg, &sampler).expect("disarmed");
    assert_eq!(r2, clean);

    // Worker panic inside parkit: payload propagated, typed, no abort.
    faultkit::set_plan_str("parkit/worker=once", 0).expect("valid plan");
    let r = parkit::with_threads(2, || {
        try_sketch(&a, Schedule::ParCols, &cfg, &sampler, true)
    });
    faultkit::clear();
    match r {
        Err(SketchError::WorkerPanic(msg)) => {
            assert!(msg.contains("parkit/worker"), "payload lost: {msg}")
        }
        other => panic!("expected WorkerPanic, got {other:?}"),
    }

    // Tight budget via env: output fits, working set must shrink.
    let cfg_b = SketchConfig::new(64, 32, 16, 1);
    let out_bytes = 64 * 100 * 8u64;
    std::env::set_var("SKETCH_MEM_BUDGET", (out_bytes + 2048).to_string());
    let plan = plan_blocks::<f64>(&cfg_b, 100);
    std::env::remove_var("SKETCH_MEM_BUDGET");
    let plan = plan.expect("degradation should fit");
    assert!(plan.degraded > 0, "expected block degradation");
    assert!(plan.cfg.b_d * plan.cfg.b_n < 32 * 16);
    assert!(plan.need_bytes <= plan.budget_bytes);

    // Budget below the irreducible output: typed failure, not an OOM.
    std::env::set_var("SKETCH_MEM_BUDGET", (out_bytes - 1).to_string());
    let r = plan_blocks::<f64>(&cfg_b, 100);
    std::env::remove_var("SKETCH_MEM_BUDGET");
    assert!(matches!(r, Err(SketchError::BudgetExceeded { .. })));

    // Simulated allocation failure (sketch/alloc): the degradation path
    // runs and the sketch still completes, bitwise equal to the clean one.
    faultkit::set_plan_str("sketch/alloc=once", 0).expect("valid plan");
    let degraded = try_sketch_alg3(&a, &cfg, &sampler).expect("degrades, not fails");
    assert_eq!(faultkit::fired_count("sketch/alloc"), 1);
    faultkit::clear();
    assert_eq!(degraded, clean);
}
