//! Tower identities on structured edge values.
//!
//! The unit tests in `fp2.rs`, `fp6.rs` and `fp12.rs` check the same
//! identities on random inputs only. This suite sweeps edge
//! representatives (zero, one, `p-1`, saturated and striped limb
//! patterns, and their `Fp2`/`Fp6`/`Fp12` combinations), where a carry
//! or a conditional subtraction is most likely to go wrong:
//!
//! * squaring equals self-multiplication (`Fp2`, `Fp12`);
//! * multiplication commutes (`Fp2`, `Fp6`, `Fp12`);
//! * the sparse `Fp6::mul_by_0bc` equals the dense product by
//!   `(0, b, c)`;
//! * the Miller-loop `Fp12::mul_by_line` equals the dense product by
//!   the line element.
//!
//! Equality is on the canonical Montgomery representation, so a value
//! left above `p` fails `Eq` just as an arithmetic bug does.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use mccls_pairing::{Fp, Fp12, Fp2, Fp6};
use mccls_rng::rngs::StdRng;
use mccls_rng::SeedableRng;

/// Edge limb words: zero, one, all-ones, a lone top bit, bit stripes.
const EDGE_WORDS: [u64; 5] = [0, 1, u64::MAX, 1 << 63, 0xaaaa_aaaa_aaaa_aaaa];

/// Edge `Fp` representatives: 0, 1, `p-1`, and reduced saturated /
/// striped patterns. `from_raw` canonicalizes, so every value is a
/// legal field element.
fn edge_fps() -> Vec<Fp> {
    let mut p_minus_1 = Fp::MODULUS;
    // The low limb of p is odd, so subtracting one never borrows.
    p_minus_1[0] -= 1;
    let mut out = vec![Fp::zero(), Fp::one(), Fp::from_raw(p_minus_1)];
    for w in EDGE_WORDS {
        out.push(Fp::from_raw([
            w,
            w ^ u64::MAX,
            w.rotate_left(17),
            w,
            w.rotate_right(29),
            w ^ 0x5555_5555_5555_5555,
        ]));
    }
    out
}

/// Edge `Fp2` values: the cross product of the extreme `Fp` edges plus
/// one striped pair, small enough to sweep pairwise.
fn edge_fp2s() -> Vec<Fp2> {
    let fps = edge_fps();
    let mut out = Vec::new();
    for a in &fps[..3] {
        for b in &fps[..3] {
            out.push(Fp2::new(*a, *b));
        }
    }
    out.push(Fp2::new(fps[3], fps[4]));
    out.push(Fp2::new(fps[5], fps[6]));
    out
}

fn edge_fp6s() -> Vec<Fp6> {
    let f2 = edge_fp2s();
    let mut out = vec![
        Fp6::zero(),
        Fp6::one(),
        Fp6::new(f2[2], f2[6], f2[8]),
        Fp6::new(f2[8], f2[8], f2[8]),
        Fp6::new(f2[9], f2[10], f2[4]),
    ];
    let mut rng = StdRng::seed_from_u64(0x1a2b_0006);
    for _ in 0..4 {
        out.push(Fp6::random(&mut rng));
    }
    out
}

fn edge_fp12s() -> Vec<Fp12> {
    let f6 = edge_fp6s();
    let mut out = vec![
        Fp12::zero(),
        Fp12::one(),
        Fp12::new(f6[2], f6[3]),
        Fp12::new(f6[3], f6[2]),
    ];
    let mut rng = StdRng::seed_from_u64(0x1a2b_000c);
    for _ in 0..4 {
        out.push(Fp12::random(&mut rng));
    }
    out
}

#[test]
fn fp2_mul_commutes_and_square_is_self_mul_on_edges() {
    let values = edge_fp2s();
    for a in &values {
        for b in &values {
            assert_eq!(
                a.mul(b),
                b.mul(a),
                "Fp2 mul does not commute on {a:?}, {b:?}"
            );
        }
        assert_eq!(a.square(), a.mul(a), "Fp2 square drifted on {a:?}");
    }
}

#[test]
fn fp6_mul_commutes_and_sparse_mul_matches_dense_on_edges() {
    let values = edge_fp6s();
    let sparse = edge_fp2s();
    for a in &values {
        for b in &values {
            assert_eq!(
                a.mul(b),
                b.mul(a),
                "Fp6 mul does not commute on {a:?}, {b:?}"
            );
        }
        for b in &sparse {
            for c in &sparse {
                assert_eq!(
                    a.mul_by_0bc(b, c),
                    a.mul(&Fp6::new(Fp2::zero(), *b, *c)),
                    "mul_by_0bc drifted on {a:?} with b={b:?}, c={c:?}"
                );
            }
        }
    }
}

#[test]
fn fp12_mul_commutes_square_is_self_mul_and_line_mul_matches_dense_on_edges() {
    let values = edge_fp12s();
    let lines = edge_fp2s();
    for a in &values {
        for b in &values {
            assert_eq!(
                a.mul(b),
                b.mul(a),
                "Fp12 mul does not commute on {a:?}, {b:?}"
            );
        }
        assert_eq!(a.square(), a.mul(a), "Fp12 square drifted on {a:?}");
        for triple in lines.chunks(3) {
            let la = &triple[0];
            let lb = triple.get(1).unwrap_or(la);
            let lc = triple.get(2).unwrap_or(la);
            let dense = Fp12::new(
                Fp6::new(*la, Fp2::zero(), Fp2::zero()),
                Fp6::new(Fp2::zero(), *lb, *lc),
            );
            assert_eq!(
                a.mul_by_line(la, lb, lc),
                a.mul(&dense),
                "mul_by_line drifted on {a:?} with line ({la:?}, {lb:?}, {lc:?})"
            );
        }
    }
}
