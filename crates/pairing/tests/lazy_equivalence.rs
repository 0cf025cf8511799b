//! Bit-for-bit equivalence of the lazy-reduction tower against the
//! reduction-eager reference implementations.
//!
//! The lazy chains (`mul_unreduced` → `montgomery_reduce`, the Fp2/Fp6
//! Karatsuba paths, the sparse line multiplication) are certified for
//! headroom by the xtask `range` lint; *this* suite pins the other half
//! of the contract: every lazy path must compute exactly what its eager
//! twin computes, on structured edge representatives (zero, one, `p-1`,
//! saturated and striped limb patterns) and on a deterministic seeded
//! sweep. Equality is on the canonical Montgomery representation, which
//! both paths end in — a representation drift (a value left above `p`)
//! fails `Eq` just as an arithmetic bug does.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use mccls_pairing::{Fp, Fp12, Fp2, Fp6};
use mccls_rng::rngs::StdRng;
use mccls_rng::SeedableRng;

/// Edge limb words: zero, one, all-ones, a lone top bit, bit stripes.
const EDGE_WORDS: [u64; 5] = [0, 1, u64::MAX, 1 << 63, 0xaaaa_aaaa_aaaa_aaaa];

/// Edge `Fp` representatives: 0, 1, `p-1`, and reduced saturated /
/// striped patterns. `from_raw` canonicalizes, so every value is a
/// legal `<p` input to the lazy entry points.
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

/// Magnitude classes an unreduced narrow operand can carry into a
/// product: canonical, doubled, quadrupled, and 7, the largest class
/// below the `8p` narrow cap (`7p · 7p = 49p²` stays under the `64p²`
/// wide cap).
const NARROW_CLASSES: [u64; 4] = [1, 2, 4, 7];

/// Grows `base` to magnitude class `class` (`< class·p`, unreduced) by
/// repeated unreduced self-addition.
fn saturate(base: &Fp, class: u64) -> Fp {
    let mut acc = *base;
    for _ in 1..class {
        acc = acc.add_unreduced(base);
    }
    acc
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
fn fp_lazy_primitives_match_eager_ops_on_edges_and_seeded_pairs() {
    let edges = edge_fps();
    let mut pairs: Vec<(Fp, Fp)> = Vec::new();
    for a in &edges {
        for b in &edges {
            pairs.push((*a, *b));
        }
    }
    let mut rng = StdRng::seed_from_u64(0x1a2b_0001);
    for _ in 0..128 {
        pairs.push((Fp::random(&mut rng), Fp::random(&mut rng)));
    }
    for (a, b) in pairs {
        assert_eq!(
            a.add_unreduced(&b).reduce(),
            a.add(&b),
            "add_unreduced+reduce drifted from add on {a:?} + {b:?}"
        );
        assert_eq!(
            a.sub_unreduced(&b).reduce(),
            a.sub(&b),
            "sub_unreduced+reduce drifted from sub on {a:?} - {b:?}"
        );
        assert_eq!(
            a.mul_unreduced(&b).montgomery_reduce(),
            a.mul(&b),
            "mul_unreduced+montgomery_reduce drifted from mul on {a:?} * {b:?}"
        );
        // A deferred three-term accumulation: ab + ab + ab, reduced
        // once, against the eager per-step reference.
        let wide = a.mul_unreduced(&b);
        let lazy = wide.wide_add(&wide).wide_add(&wide).montgomery_reduce();
        let eager = a.mul(&b).add(&a.mul(&b)).add(&a.mul(&b));
        assert_eq!(lazy, eager, "deferred accumulation drifted on {a:?}, {b:?}");
        // Unreduced operands through the single-product path: `j·a`
        // and `k·b` left unreduced must still multiply to the eager
        // `(j·a)·(k·b)`.
        for j in NARROW_CLASSES {
            for k in NARROW_CLASSES {
                let lazy = saturate(&a, j)
                    .mul_unreduced(&saturate(&b, k))
                    .montgomery_reduce();
                let eager = a.mul(&Fp::from_u64(j)).mul(&b.mul(&Fp::from_u64(k)));
                assert_eq!(lazy, eager, "class {j}x{k} product drifted on {a:?}, {b:?}");
            }
        }
    }
}

#[test]
fn fp2_lazy_mul_and_square_match_the_eager_twins() {
    let edges = edge_fp2s();
    let mut rng = StdRng::seed_from_u64(0x1a2b_0002);
    let mut values = edges.clone();
    for _ in 0..64 {
        values.push(Fp2::random(&mut rng));
    }
    for a in &values {
        for b in &values {
            assert_eq!(a.mul(b), a.mul_eager(b), "Fp2 mul drifted on {a:?} * {b:?}");
        }
        assert_eq!(a.square(), a.square_eager(), "Fp2 square drifted on {a:?}");
        assert_eq!(
            a.square(),
            a.mul(a),
            "square must equal self-multiplication on {a:?}"
        );
    }
}

#[test]
fn fp6_lazy_mul_square_and_sparse_mul_match_the_eager_twins() {
    let values = edge_fp6s();
    let sparse = edge_fp2s();
    for a in &values {
        for b in &values {
            assert_eq!(
                a.mul(b),
                a.mul_eager6(b),
                "Fp6 mul drifted on {a:?} * {b:?}"
            );
        }
        assert_eq!(a.square(), a.square_eager6(), "Fp6 square drifted on {a:?}");
        // The sparse 0bc path against a full multiplication by the same
        // (0, b, c) element, through the *eager* reference.
        for pair in sparse.chunks(2) {
            let (b, c) = (&pair[0], pair.get(1).unwrap_or(&pair[0]));
            let full = Fp6::new(Fp2::zero(), *b, *c);
            assert_eq!(
                a.mul_by_0bc(b, c),
                a.mul_eager6(&full),
                "sparse mul_by_0bc drifted on {a:?} with b={b:?}, c={c:?}"
            );
        }
    }
}

#[test]
fn fp12_lazy_mul_square_and_line_mul_match_the_eager_twins() {
    let values = edge_fp12s();
    let lines = edge_fp2s();
    for a in &values {
        for b in &values {
            assert_eq!(
                a.mul(b),
                a.mul_eager12(b),
                "Fp12 mul drifted on {a:?} * {b:?}"
            );
        }
        assert_eq!(
            a.square(),
            a.square_eager12(),
            "Fp12 square drifted on {a:?}"
        );
        // The Miller-loop line path against the dense eager product of
        // the same sparse element a' + (b'·v + c'·v²)·w.
        for triple in lines.chunks(3) {
            let la = &triple[0];
            let lb = triple.get(1).unwrap_or(la);
            let lc = triple.get(2).unwrap_or(la);
            let full = Fp12::new(
                Fp6::new(*la, Fp2::zero(), Fp2::zero()),
                Fp6::new(Fp2::zero(), *lb, *lc),
            );
            assert_eq!(
                a.mul_by_line(la, lb, lc),
                a.mul_eager12(&full),
                "mul_by_line drifted on {a:?} with line ({la:?}, {lb:?}, {lc:?})"
            );
        }
    }
}

#[test]
fn seeded_lazy_chains_agree_with_eager_composition() {
    // Longer mixed chains: products feeding additions feeding products,
    // computed lazily (operator path) and eagerly, must stay identical
    // — the composition is where a headroom bug would first surface.
    let mut rng = StdRng::seed_from_u64(0x1a2b_0003);
    for _ in 0..32 {
        let a = Fp12::random(&mut rng);
        let b = Fp12::random(&mut rng);
        let c = Fp12::random(&mut rng);
        let lazy = a.mul(&b).add(&c.square()).mul(&a.add(&b));
        let eager = a
            .mul_eager12(&b)
            .add(&c.square_eager12())
            .mul_eager12(&a.add(&b));
        assert_eq!(lazy, eager, "mixed chain drifted");
    }
}
