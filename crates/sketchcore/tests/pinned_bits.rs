//! Pinned output bits for every compute kernel.
//!
//! The equivalence tests compare sketch paths against each other, so a
//! change that moves every path's bits together passes them. This test pins
//! `(‖Â‖_F bits, xor of every entry's bits)` for one fixed seeded input per
//! kernel, so any change to what a kernel computes — sample stream, loop
//! order, fusion, accumulation order — fails here until the pin is updated
//! on purpose.

use rngkit::{FastRng, Rademacher, UnitUniform};
use sketchcore::{sketch_alg3, sketch_alg3_signs, sketch_alg4, SketchConfig};
use sparsekit::{BlockedCsr, CooMatrix, CscMatrix};

/// A fixed `300×70` input with ~2000 nonzeros from a 64-bit LCG.
fn input() -> CscMatrix<f64> {
    let (m, n) = (300, 70);
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 11
    };
    let mut coo = CooMatrix::new(m, n);
    for _ in 0..2000 {
        let r = (next() % m as u64) as usize;
        let c = (next() % n as u64) as usize;
        let v = (next() % 2000) as f64 / 1000.0 - 1.0 + 0.0005;
        coo.push(r, c, v).expect("in bounds");
    }
    coo.to_csc().expect("valid coordinates")
}

/// Ragged blocking: neither `d` nor `n` is a multiple of its block size.
fn cfg() -> SketchConfig {
    SketchConfig::new(90, 32, 16, 0xB175)
}

fn fingerprint(m: &densekit::Matrix<f64>) -> (u64, u64) {
    let xor = m.as_slice().iter().fold(0u64, |acc, v| acc ^ v.to_bits());
    (m.fro_norm().to_bits(), xor)
}

#[test]
fn alg3_uniform_bits_are_pinned() {
    let cfg = cfg();
    let got = sketch_alg3(
        &input(),
        &cfg,
        &UnitUniform::<f64>::sampler(FastRng::new(cfg.seed)),
    );
    assert_eq!(
        fingerprint(&got),
        (4639200081132571651, 9261693844843712034)
    );
}

#[test]
fn alg3_signs_bits_are_pinned() {
    let cfg = cfg();
    let got = sketch_alg3_signs(
        &input(),
        &cfg,
        &Rademacher::<i8>::sampler(FastRng::new(cfg.seed)),
    );
    assert_eq!(fingerprint(&got), (4642780695280086898, 238836270017621917));
}

#[test]
fn alg4_uniform_bits_are_pinned() {
    let cfg = cfg();
    let blocked = BlockedCsr::from_csc(&input(), cfg.b_n);
    let got = sketch_alg4(
        &blocked,
        &cfg,
        &UnitUniform::<f64>::sampler(FastRng::new(cfg.seed)),
    );
    assert_eq!(
        fingerprint(&got),
        (4639200081132571651, 9261693844843712034)
    );
}
