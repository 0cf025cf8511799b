//! Adversarial wire-format tests for `Signature::from_bytes`.
//!
//! The AODV simulation feeds untrusted packet bytes straight into this
//! decoder, so it must reject truncation, trailing garbage, unknown
//! tags, non-canonical coordinates, and — the certificateless
//! key-replacement classic — group components outside the prime-order
//! subgroup, for every scheme's signature shape.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![allow(clippy::single_range_in_vec_init)] // the range IS the element here

use mccls_core::{Ap, CertificatelessScheme, McCls, Signature, Yhg, Zwxf};
use mccls_pairing::{G1Affine, G2Affine};
use mccls_rng::SeedableRng;

/// One valid signature per scheme, from a deterministic setup.
fn signatures() -> Vec<(&'static str, Signature)> {
    let schemes: Vec<Box<dyn CertificatelessScheme>> = vec![
        Box::new(McCls::new()),
        Box::new(Ap::new()),
        Box::new(Zwxf::new()),
        Box::new(Yhg::new()),
    ];
    let mut out = Vec::new();
    for scheme in &schemes {
        let mut rng = mccls_rng::rngs::StdRng::seed_from_u64(7);
        let (params, kgc) = scheme.setup(&mut rng);
        let partial = kgc.extract_partial_private_key(b"alice");
        let keys = scheme.generate_key_pair(&params, &mut rng);
        let sig = scheme.sign(&params, b"alice", &partial, &keys, b"msg", &mut rng);
        out.push((scheme.name(), sig));
    }
    out
}

/// Compressed encoding of a G1 curve point outside the subgroup.
fn wrong_subgroup_g1_bytes() -> [u8; 48] {
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
fn wrong_subgroup_g2_bytes() -> [u8; 96] {
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

/// Byte ranges of the G1 (48-byte) and G2 (96-byte) components inside
/// each scheme's wire encoding (tag byte at offset 0).
fn point_ranges(sig: &Signature) -> (Vec<std::ops::Range<usize>>, Vec<std::ops::Range<usize>>) {
    match sig {
        Signature::McCls { .. } => (vec![33..81], vec![81..177]),
        Signature::Ap { .. } => (vec![1..49], vec![]),
        Signature::Zwxf { .. } => (vec![97..145], vec![1..97]),
        Signature::Yhg { .. } => (vec![1..49, 49..97], vec![]),
    }
}

#[test]
fn wire_round_trip_for_all_schemes() {
    for (name, sig) in signatures() {
        let bytes = sig.to_bytes();
        assert_eq!(bytes.len(), sig.encoded_len(), "{name}");
        assert_eq!(Signature::from_bytes(&bytes), Some(sig), "{name}");
    }
}

#[test]
fn truncated_and_padded_encodings_are_rejected() {
    for (name, sig) in signatures() {
        let bytes = sig.to_bytes();
        assert_eq!(
            Signature::from_bytes(&bytes[..bytes.len() - 1]),
            None,
            "{name}"
        );
        assert_eq!(Signature::from_bytes(&[]), None);
        let mut padded = bytes.clone();
        padded.push(0);
        assert_eq!(Signature::from_bytes(&padded), None, "{name}");
    }
}

#[test]
fn unknown_tags_are_rejected() {
    for (name, sig) in signatures() {
        let mut bytes = sig.to_bytes();
        bytes[0] = 0;
        assert_eq!(Signature::from_bytes(&bytes), None, "{name}");
        bytes[0] = 99;
        assert_eq!(Signature::from_bytes(&bytes), None, "{name}");
    }
}

#[test]
fn wrong_subgroup_components_are_rejected() {
    let bad_g1 = wrong_subgroup_g1_bytes();
    let bad_g2 = wrong_subgroup_g2_bytes();
    // `U0`, the order-3 point of the all-zero `x` encoding. An honest
    // McCLS `S + U0` still verifies (the pairing of an order-3 point is
    // trivial), so only the decoder's subgroup check keeps it out.
    let mut zero_x = [0u8; 48];
    zero_x[0] = 0b1000_0000;
    let u0 = G1Affine::from_compressed_unchecked(&zero_x)
        .unwrap()
        .to_projective();
    for (name, sig) in signatures() {
        let bytes = sig.to_bytes();
        if let Signature::McCls { s, .. } = &sig {
            let malleated = s.add(&u0).to_affine().to_compressed();
            assert!(G1Affine::from_compressed_unchecked(&malleated).is_some());
            let mut corrupt = bytes.clone();
            corrupt[33..81].copy_from_slice(&malleated);
            assert_eq!(Signature::from_bytes(&corrupt), None, "{name} S + U0");
        }
        let (g1_ranges, g2_ranges) = point_ranges(&sig);
        for r in g1_ranges {
            let mut corrupt = bytes.clone();
            corrupt[r.clone()].copy_from_slice(&bad_g1);
            assert_eq!(Signature::from_bytes(&corrupt), None, "{name} G1 at {r:?}");
        }
        for r in g2_ranges {
            let mut corrupt = bytes.clone();
            corrupt[r.clone()].copy_from_slice(&bad_g2);
            assert_eq!(Signature::from_bytes(&corrupt), None, "{name} G2 at {r:?}");
        }
    }
}

#[test]
fn non_canonical_coordinates_are_rejected() {
    for (name, sig) in signatures() {
        let bytes = sig.to_bytes();
        let (g1_ranges, g2_ranges) = point_ranges(&sig);
        for r in g1_ranges.into_iter().chain(g2_ranges) {
            let mut corrupt = bytes.clone();
            for b in &mut corrupt[r.clone()] {
                *b = 0xFF;
            }
            corrupt[r.start] = 0b1001_1111;
            assert_eq!(Signature::from_bytes(&corrupt), None, "{name} at {r:?}");
        }
    }
}

#[test]
fn cleared_compressed_flag_is_rejected() {
    for (name, sig) in signatures() {
        let bytes = sig.to_bytes();
        let (g1_ranges, g2_ranges) = point_ranges(&sig);
        for r in g1_ranges.into_iter().chain(g2_ranges) {
            let mut corrupt = bytes.clone();
            corrupt[r.start] &= 0b0111_1111;
            assert_eq!(Signature::from_bytes(&corrupt), None, "{name} at {r:?}");
        }
    }
}
