//! Seeded equivalence tests for the constant-time helpers.
//!
//! The ct paths (`ct::select_limbs`, `ct::eq_limbs`, `invert_ct`,
//! `mul_scalar_ct` and the generator tables' comb) exist so
//! secret-dependent data never picks a branch; they must still compute
//! *exactly* what their variable-time counterparts compute. Each test
//! sweeps the structured edge inputs (zero, one, p-1, top-bit-set
//! limbs) and then a deterministic seeded sample, asserting bit-for-bit
//! agreement on the raw limb representation — not just semantic
//! equality — so a representation drift (e.g. a non-canonical
//! Montgomery residue) also fails.

use mccls_pairing::ct::{self, Choice};
use mccls_pairing::{g1_generator_table, g2_generator_table, Fp, Fr, G1Projective, G2Projective};
use mccls_rng::rngs::StdRng;
use mccls_rng::SeedableRng;

/// Edge-case limb patterns shared by all sweeps: zero, one, the
/// all-ones word, a lone top bit, and alternating bit stripes.
const EDGE_WORDS: [u64; 5] = [0, 1, u64::MAX, 1 << 63, 0xaaaa_aaaa_aaaa_aaaa];

fn edge_limb_arrays() -> Vec<[u64; 4]> {
    let mut out = vec![
        [0, 0, 0, 0],
        [1, 0, 0, 0],
        [u64::MAX; 4],
        // Top bit of the whole 256-bit value set, rest clear.
        [0, 0, 0, 1 << 63],
        // Top bit of every limb set.
        [1 << 63; 4],
        Fr::MODULUS,
        fr_modulus_minus_one(),
    ];
    for w in EDGE_WORDS {
        out.push([w, w ^ u64::MAX, w.rotate_left(17), w]);
    }
    out
}

fn fr_modulus_minus_one() -> [u64; 4] {
    // The low limb of r is odd, so subtracting one never borrows.
    let mut m = Fr::MODULUS;
    m[0] -= 1;
    m
}

/// Edge scalars for the group-law sweeps: 0, 1, p-1, and values whose
/// raw limbs exercise the top-bit window of the ct ladder and the
/// radix-16 carries of the comb (nibbles above 8).
fn edge_scalars() -> Vec<Fr> {
    edge_limb_arrays().into_iter().map(Fr::from_raw).collect()
}

#[test]
fn eq_limbs_matches_slice_equality_on_edges_and_seeded_pairs() {
    let edges = edge_limb_arrays();
    for a in &edges {
        for b in &edges {
            assert_eq!(
                ct::eq_limbs(a, b).leak(),
                a == b,
                "eq_limbs disagrees with == on {a:?} vs {b:?}"
            );
        }
    }
    let mut rng = StdRng::seed_from_u64(0x5eed_0001);
    for _ in 0..256 {
        let a: [u64; 4] = core::array::from_fn(|_| rng.next_u64());
        // Equal pair, and a pair differing in exactly one bit of one limb.
        assert!(ct::eq_limbs(&a, &a).leak());
        let mut b = a;
        let limb = (rng.next_u64() % 4) as usize;
        b[limb] ^= 1 << (rng.next_u64() % 64);
        assert!(!ct::eq_limbs(&a, &b).leak());
    }
}

#[test]
fn select_limbs_matches_branching_select() {
    let edges = edge_limb_arrays();
    let mut rng = StdRng::seed_from_u64(0x5eed_0002);
    for a in &edges {
        for b in &edges {
            for bit in [0u64, 1u64] {
                let choice = Choice::from_lsb(bit);
                let expected = if bit == 1 { *b } else { *a };
                assert_eq!(ct::select_limbs(a, b, choice), expected);
            }
        }
    }
    for _ in 0..256 {
        let a: [u64; 4] = core::array::from_fn(|_| rng.next_u64());
        let b: [u64; 4] = core::array::from_fn(|_| rng.next_u64());
        let bit = rng.next_u64() & 1;
        let expected = if bit == 1 { b } else { a };
        assert_eq!(ct::select_limbs(&a, &b, Choice::from_lsb(bit)), expected);
    }
}

#[test]
fn fr_invert_ct_agrees_with_vartime_invert() {
    let mut rng = StdRng::seed_from_u64(0x5eed_0003);
    let mut cases = edge_scalars();
    for _ in 0..64 {
        cases.push(Fr::random(&mut rng));
    }
    for x in cases {
        match x.invert() {
            Some(inv) => {
                assert_eq!(
                    x.invert_ct().to_raw(),
                    inv.to_raw(),
                    "Fr invert_ct diverges from invert on {:?}",
                    x.to_raw()
                );
                assert_eq!((x * inv).to_raw(), Fr::one().to_raw());
            }
            None => {
                // invert maps zero to None; invert_ct maps zero to zero.
                assert_eq!(x.to_raw(), Fr::zero().to_raw());
                assert_eq!(x.invert_ct().to_raw(), Fr::zero().to_raw());
            }
        }
    }
}

#[test]
fn fp_invert_ct_agrees_with_vartime_invert() {
    let mut rng = StdRng::seed_from_u64(0x5eed_0004);
    let mut cases = vec![Fp::zero(), Fp::one(), Fp::zero() - Fp::one()];
    for _ in 0..32 {
        cases.push(Fp::random(&mut rng));
    }
    for x in cases {
        match x.invert() {
            Some(inv) => assert_eq!(
                x.invert_ct().to_raw(),
                inv.to_raw(),
                "Fp invert_ct diverges from invert on {:?}",
                x.to_raw()
            ),
            None => assert_eq!(x.invert_ct().to_raw(), Fp::zero().to_raw()),
        }
    }
}

#[test]
fn g1_mul_scalar_ct_agrees_with_wnaf_on_edges_and_seeded_scalars() {
    let mut rng = StdRng::seed_from_u64(0x5eed_0005);
    let mut scalars = edge_scalars();
    for _ in 0..16 {
        scalars.push(Fr::random(&mut rng));
    }
    let bases = [
        G1Projective::identity(),
        G1Projective::generator(),
        G1Projective::generator().mul_scalar(&Fr::random(&mut rng)),
    ];
    for base in &bases {
        for k in &scalars {
            assert_eq!(
                base.mul_scalar_ct(k).to_affine(),
                base.mul_scalar(k).to_affine(),
                "G1 ladders disagree on scalar {:?}",
                k.to_raw()
            );
        }
    }
    for k in &scalars {
        assert_eq!(
            g1_generator_table().mul(k).to_affine(),
            G1Projective::generator().mul_scalar(k).to_affine(),
            "G1 comb disagrees on scalar {:?}",
            k.to_raw()
        );
    }
}

#[test]
fn g2_mul_scalar_ct_agrees_with_wnaf_on_edges_and_seeded_scalars() {
    let mut rng = StdRng::seed_from_u64(0x5eed_0006);
    let mut scalars = edge_scalars();
    for _ in 0..8 {
        scalars.push(Fr::random(&mut rng));
    }
    let bases = [
        G2Projective::identity(),
        G2Projective::generator(),
        G2Projective::generator().mul_scalar(&Fr::random(&mut rng)),
    ];
    for base in &bases {
        for k in &scalars {
            assert_eq!(
                base.mul_scalar_ct(k).to_affine(),
                base.mul_scalar(k).to_affine(),
                "G2 ladders disagree on scalar {:?}",
                k.to_raw()
            );
        }
    }
    for k in &scalars {
        assert_eq!(
            g2_generator_table().mul(k).to_affine(),
            G2Projective::generator().mul_scalar(k).to_affine(),
            "G2 comb disagrees on scalar {:?}",
            k.to_raw()
        );
    }
}
