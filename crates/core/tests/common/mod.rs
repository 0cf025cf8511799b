//! Wrong-subgroup points for the adversarial tests (`adversarial_wire`,
//! `warm_snapshot`), from a low-byte sweep: the first small `x` whose
//! curve point lies outside the prime-order subgroup.

use mccls_pairing::{G1Affine, G2Affine};

/// Compressed encoding of a G1 curve point outside the subgroup.
pub fn wrong_subgroup_g1_bytes() -> [u8; 48] {
    for x in 1..10_000u64 {
        let mut b = [0u8; 48];
        b[40..48].copy_from_slice(&x.to_be_bytes());
        b[0] |= 0b1000_0000;
        if let Some(p) = G1Affine::from_compressed_unchecked(&b) {
            if !p.is_torsion_free() {
                return b;
            }
        }
    }
    panic!("no wrong-subgroup G1 point found in scan range");
}

/// Compressed encoding of a G2 curve point outside the subgroup.
pub fn wrong_subgroup_g2_bytes() -> [u8; 96] {
    for x in 1..10_000u64 {
        let mut b = [0u8; 96];
        b[88..96].copy_from_slice(&x.to_be_bytes());
        b[0] |= 0b1000_0000;
        if let Some(p) = G2Affine::from_compressed_unchecked(&b) {
            if !p.is_torsion_free() {
                return b;
            }
        }
    }
    panic!("no wrong-subgroup G2 point found in scan range");
}
