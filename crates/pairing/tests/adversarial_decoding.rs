//! Adversarial compressed-encoding tests.
//!
//! Every malformed, non-canonical, or wrong-subgroup encoding must be
//! rejected by the checked decoders: these tests, `mccls-core`'s
//! `adversarial_wire` and `warm_snapshot` tests and the known-answer
//! digests are what fail when a decoder drops a subgroup check
//! (DESIGN.md §8.2). The unchecked decoders are used here as the
//! adversary's tool for constructing on-curve points outside the
//! prime-order subgroup.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use mccls_pairing::{G1Affine, G2Affine};

/// Compressed G1 encoding for a small x coordinate (flags already set).
fn g1_bytes_for_x(x: u64) -> [u8; 48] {
    let mut b = [0u8; 48];
    b[40..48].copy_from_slice(&x.to_be_bytes());
    b[0] |= 0b1000_0000;
    b
}

/// Compressed G2 encoding (`x.c1 || x.c0`) for small coefficients.
fn g2_bytes_for_x(c1: u64, c0: u64) -> [u8; 96] {
    let mut b = [0u8; 96];
    b[40..48].copy_from_slice(&c1.to_be_bytes());
    b[88..96].copy_from_slice(&c0.to_be_bytes());
    b[0] |= 0b1000_0000;
    b
}

/// First small-x curve point outside the G1 prime-order subgroup.
fn wrong_subgroup_g1() -> ([u8; 48], G1Affine) {
    for x in 1..10_000u64 {
        let bytes = g1_bytes_for_x(x);
        if let Some(p) = G1Affine::from_compressed_unchecked(&bytes) {
            if !p.is_torsion_free() {
                return (bytes, p);
            }
        }
    }
    panic!("no wrong-subgroup G1 point found in scan range");
}

/// First small-x curve point outside the G2 prime-order subgroup.
fn wrong_subgroup_g2() -> ([u8; 96], G2Affine) {
    for x in 1..10_000u64 {
        let bytes = g2_bytes_for_x(0, x);
        if let Some(p) = G2Affine::from_compressed_unchecked(&bytes) {
            if !p.is_torsion_free() {
                return (bytes, p);
            }
        }
    }
    panic!("no wrong-subgroup G2 point found in scan range");
}

#[test]
fn g1_round_trips_generator_and_identity() {
    let g = G1Affine::generator();
    assert_eq!(G1Affine::from_compressed(&g.to_compressed()), Some(g));
    let id = G1Affine::identity();
    assert_eq!(G1Affine::from_compressed(&id.to_compressed()), Some(id));
}

#[test]
fn g1_rejects_cleared_compressed_flag() {
    let mut bytes = G1Affine::generator().to_compressed();
    bytes[0] &= 0b0111_1111;
    assert_eq!(G1Affine::from_compressed(&bytes), None);
    assert_eq!(G1Affine::from_compressed_unchecked(&bytes), None);
}

#[test]
fn g1_rejects_bad_infinity_flag_combos() {
    // Infinity flag with a nonzero x payload.
    let mut bytes = G1Affine::generator().to_compressed();
    bytes[0] |= 0b0100_0000;
    assert_eq!(G1Affine::from_compressed(&bytes), None);
    assert_eq!(G1Affine::from_compressed_unchecked(&bytes), None);

    // Infinity flag with the sign bit set.
    let mut bytes = G1Affine::identity().to_compressed();
    bytes[0] |= 0b0010_0000;
    assert_eq!(G1Affine::from_compressed(&bytes), None);
    assert_eq!(G1Affine::from_compressed_unchecked(&bytes), None);
}

#[test]
fn g1_rejects_non_canonical_x() {
    // All payload bits set: x = 2^381 - ... which exceeds the modulus.
    let mut bytes = [0xFFu8; 48];
    bytes[0] = 0b1001_1111;
    assert_eq!(G1Affine::from_compressed(&bytes), None);
    assert_eq!(G1Affine::from_compressed_unchecked(&bytes), None);
}

#[test]
fn g1_rejects_x_without_square_y() {
    // Some small x has no y with y^2 = x^3 + b; both decoders agree.
    let mut saw_rejection = false;
    for x in 1..100u64 {
        let bytes = g1_bytes_for_x(x);
        if G1Affine::from_compressed_unchecked(&bytes).is_none() {
            assert_eq!(G1Affine::from_compressed(&bytes), None);
            saw_rejection = true;
        }
    }
    assert!(
        saw_rejection,
        "every small x had a square y^2 — implausible"
    );
}

#[test]
fn g1_rejects_wrong_subgroup_point() {
    let (bytes, p) = wrong_subgroup_g1();
    assert!(p.is_on_curve());
    assert!(!p.is_torsion_free());
    assert_eq!(G1Affine::from_compressed(&bytes), None);
}

#[test]
fn g2_round_trips_generator_and_identity() {
    let g = G2Affine::generator();
    assert_eq!(G2Affine::from_compressed(&g.to_compressed()), Some(g));
    let id = G2Affine::identity();
    assert_eq!(G2Affine::from_compressed(&id.to_compressed()), Some(id));
}

#[test]
fn g2_rejects_cleared_compressed_flag() {
    let mut bytes = G2Affine::generator().to_compressed();
    bytes[0] &= 0b0111_1111;
    assert_eq!(G2Affine::from_compressed(&bytes), None);
    assert_eq!(G2Affine::from_compressed_unchecked(&bytes), None);
}

#[test]
fn g2_rejects_bad_infinity_flag_combos() {
    let mut bytes = G2Affine::generator().to_compressed();
    bytes[0] |= 0b0100_0000;
    assert_eq!(G2Affine::from_compressed(&bytes), None);
    assert_eq!(G2Affine::from_compressed_unchecked(&bytes), None);

    let mut bytes = G2Affine::identity().to_compressed();
    bytes[0] |= 0b0010_0000;
    assert_eq!(G2Affine::from_compressed(&bytes), None);
    assert_eq!(G2Affine::from_compressed_unchecked(&bytes), None);
}

#[test]
fn g2_rejects_non_canonical_x() {
    let mut bytes = [0xFFu8; 96];
    bytes[0] = 0b1001_1111;
    assert_eq!(G2Affine::from_compressed(&bytes), None);
    assert_eq!(G2Affine::from_compressed_unchecked(&bytes), None);
}

#[test]
fn g2_rejects_wrong_subgroup_point() {
    let (bytes, p) = wrong_subgroup_g2();
    assert!(p.is_on_curve());
    assert!(!p.is_torsion_free());
    assert_eq!(G2Affine::from_compressed(&bytes), None);
}
