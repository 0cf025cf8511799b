//! The BLS12-381 base field `Fp`,
//! `p = 0x1a0111ea...aaab` (381 bits, `p ≡ 3 (mod 4)`).

use crate::arith::{add_limbs, add_one_shift_right2, geq, sub_limbs, sub_one_shift_right1};
use crate::field::{montgomery_field, Field};

montgomery_field!(
    /// An element of the BLS12-381 base field.
    ///
    /// Internally kept in Montgomery form, always reduced modulo `p`.
    ///
    /// # Examples
    ///
    /// ```
    /// use mccls_pairing::Fp;
    ///
    /// let a = Fp::from_u64(3);
    /// let b = Fp::from_u64(4);
    /// assert_eq!(a + b, Fp::from_u64(7));
    /// assert_eq!(a * a.invert().unwrap(), Fp::one());
    /// ```
    Fp,
    6,
    [
        0xb9fe_ffff_ffff_aaab,
        0x1eab_fffe_b153_ffff,
        0x6730_d2a0_f6b0_f624,
        0x6477_4b84_f385_12bf,
        0x4b1b_a7b6_434b_acd7,
        0x1a01_11ea_397f_e69a,
    ]
);

/// `(p + 1) / 4`, the square-root exponent (valid because `p ≡ 3 mod 4`).
const SQRT_EXP: [u64; 6] = add_one_shift_right2(&Fp::MODULUS);

/// `2p`, the offset that keeps [`Fp::sub_unreduced`] non-negative for
/// subtrahends below `2p` (it fits six limbs because the modulus leaves
/// three headroom bits).
const TWO_P: [u64; 6] = add_limbs(&Fp::MODULUS, &Fp::MODULUS);

/// `4p`, the first step of the fixed canonical descent in
/// [`canonicalize_below_8p`] (three headroom bits keep it in six limbs).
const FOUR_P: [u64; 6] = add_limbs(&TWO_P, &TWO_P);

/// `p²` as a 12-limb little-endian integer: the wide-accumulator offset
/// unit. Adding `k·p²` never changes a value mod `p`, so [`FpWide`]
/// subtractions stay non-negative by adding enough of it up front.
const P_SQUARED: [u64; 12] = mul_wide(&Fp::MODULUS, &Fp::MODULUS);

/// `k·p²` for every class `k` up to the wide cap, precomputed so the
/// hot offset passes in [`FpWide::wide_sub_offset`] cost plain limb
/// additions instead of a multiply-accumulate sweep per call.
///
/// `64·p² < 2^768` (three headroom bits squared), so every entry fits
/// twelve limbs without carry-out.
const P2_MULTIPLES: [[u64; 12]; 65] = p2_multiples();

/// Builds the [`P2_MULTIPLES`] table by repeated wide addition.
const fn p2_multiples() -> [[u64; 12]; 65] {
    let mut t = [[0u64; 12]; 65];
    let mut k = 1;
    while k < 65 {
        let mut carry = 0u64;
        let mut i = 0;
        while i < 12 {
            // lint:allow(panic) k < 65 and i < 12 by the loop bounds
            let (v, c) = crate::arith::adc(t[k - 1][i], P_SQUARED[i], carry);
            t[k][i] = v; // lint:allow(panic) k < 65 and i < 12
            carry = c;
            i += 1;
        }
        k += 1;
    }
    t
}

/// 6×6 schoolbook product of little-endian limb values.
const fn mul_wide(a: &[u64; 6], b: &[u64; 6]) -> [u64; 12] {
    let mut t = [0u64; 12];
    let mut i = 0;
    while i < 6 {
        let mut carry = 0u64;
        let mut j = 0;
        while j < 6 {
            // lint:allow(panic) i + j <= 10 < 12 by the loop bounds
            let (v, c) = crate::arith::mac(t[i + j], a[i], b[j], carry);
            t[i + j] = v; // lint:allow(panic) i + j <= 10 < 12
            carry = c;
            j += 1;
        }
        t[i + 6] = carry; // lint:allow(panic) i + 6 <= 11 < 12
        i += 1;
    }
    t
}

/// `(p - 1) / 2`, the threshold for the lexicographic sign convention.
const HALF_P: [u64; 6] = sub_one_shift_right1(&Fp::MODULUS);

impl Fp {
    /// Computes a square root, if one exists.
    ///
    /// Returns the root `r` with unspecified sign; callers that care use
    /// [`Fp::is_lexicographically_largest`] to normalize.
    pub fn sqrt(&self) -> Option<Self> {
        debug_assert!(self.is_canonical());
        let candidate = Field::pow(self, &SQRT_EXP);
        if candidate.square() == *self {
            Some(candidate)
        } else {
            None
        }
    }

    /// True when the canonical representative is greater than `(p-1)/2`.
    ///
    /// This is the standard tie-break used to encode the sign of a curve
    /// point's `y` coordinate in one bit.
    pub fn is_lexicographically_largest(&self) -> bool {
        debug_assert!(self.is_canonical());
        let raw = self.to_raw();
        // raw > (p-1)/2  <=>  raw >= (p-1)/2 + 1
        geq(&raw, &HALF_P) && raw != HALF_P
    }
}

// Deferred-reduction entry points. These four methods and the `FpWide`
// accumulator below deliberately break the "always reduced" invariant
// inside a lazy chain; the xtask `range` lint certifies every chain
// (magnitude classes stay under `2^HEADROOM_BITS` narrow and
// `2^(2·HEADROOM_BITS)` wide) and requires each chain to end in
// `reduce`/`montgomery_reduce` before a value escapes.
impl Fp {
    /// Unreduced limb addition: no conditional subtraction, so the
    /// result's magnitude class is the sum of the operands' classes.
    ///
    /// Call sites are certified by the range lint: the combined class
    /// must stay below `2^HEADROOM_BITS` (Fp: 8), which makes the
    /// carry-out below statically impossible.
    #[inline]
    pub fn add_unreduced(&self, other: &Self) -> Self {
        let mut out = [0u64; 6];
        let mut carry = 0u64;
        for ((o, a), b) in out.iter_mut().zip(&self.0).zip(&other.0) {
            let (v, c) = crate::arith::adc(*a, *b, carry);
            *o = v;
            carry = c;
        }
        debug_assert!(carry == 0, "add_unreduced operands exceeded limb headroom");
        Self(out)
    }

    /// Unreduced subtraction via the `+2p` headroom trick:
    /// `self + 2p - other`, non-negative whenever `other < 2p`.
    ///
    /// The range lint requires the subtrahend's class to be at most 2
    /// and assigns the result `self`'s class plus two.
    #[inline]
    pub fn sub_unreduced(&self, other: &Self) -> Self {
        let mut out = [0u64; 6];
        let mut carry = 0u64;
        for i in 0..6 {
            let (v, c) = crate::arith::adc(self.0[i], TWO_P[i], carry);
            out[i] = v;
            carry = c;
        }
        debug_assert!(carry == 0, "sub_unreduced offset exceeded limb headroom");
        let mut borrow = 0u64;
        for (o, b) in out.iter_mut().zip(&other.0) {
            let (v, bb) = crate::arith::sbb(*o, *b, borrow);
            *o = v;
            borrow = bb;
        }
        debug_assert!(borrow == 0, "sub_unreduced subtrahend above 2p");
        Self(out)
    }

    /// Full 768-bit product of the Montgomery representatives, with the
    /// Montgomery pass deferred to [`FpWide::montgomery_reduce`].
    ///
    /// The wide result's class is the product of the operands' classes
    /// (in units of `p²`).
    #[inline]
    pub fn mul_unreduced(&self, other: &Self) -> FpWide {
        FpWide(mul_wide(&self.0, &other.0))
    }

    /// Canonicalizes a narrow unreduced value (class `<Np`) back below
    /// `p`, re-establishing the representation invariant.
    ///
    /// Sound up to the narrow cap (`8·p`), which the range lint
    /// enforces at every call site.
    #[inline]
    pub fn reduce(&self) -> Self {
        Self(canonicalize_below_8p(self.0))
    }
}

/// Folds a value below `8·p` into the canonical range `[0, p)` with a
/// fixed descent through `4p`, `2p`, `p`.
///
/// Three conditional subtractions cover the narrow cap and the
/// `montgomery_reduce` output bound alike; the branch pattern depends
/// only on the lint-certified public magnitude class, never on the
/// residue (ct-ok by the same public-headroom argument as `from_raw`).
#[inline]
fn canonicalize_below_8p(mut v: [u64; 6]) -> [u64; 6] {
    for step in [&FOUR_P, &TWO_P, &Fp::MODULUS] {
        // ct-ok: leaks only which side of a public magnitude-class
        // boundary the value falls on, not the residue itself
        if geq(&v, step) {
            v = sub_limbs(&v, step);
        }
    }
    v
}

/// A double-width (768-bit) unreduced accumulator over [`Fp`] — the
/// "wide" magnitude class of the range lint's lattice, measured in
/// units of `p²`.
///
/// Produced by [`Fp::mul_unreduced`], accumulated with the `wide_*`
/// methods, and folded back to a canonical [`Fp`] by one
/// [`FpWide::montgomery_reduce`] pass — that single reduction is what
/// the lazy tower chains in `fp2.rs`/`fp6.rs` amortize over many
/// products.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct FpWide([u64; 12]);

impl FpWide {
    /// Wide addition; magnitude classes add.
    #[inline]
    pub fn wide_add(&self, other: &Self) -> Self {
        let mut out = [0u64; 12];
        let mut carry = 0u64;
        for ((o, a), b) in out.iter_mut().zip(&self.0).zip(&other.0) {
            let (v, c) = crate::arith::adc(*a, *b, carry);
            *o = v;
            carry = c;
        }
        debug_assert!(carry == 0, "wide_add operands exceeded limb headroom");
        Self(out)
    }

    /// Offset-free wide subtraction. The call site must guarantee
    /// `other <= self` as integers (the Karatsuba identities do); the
    /// range lint checks the weaker class condition
    /// `class(other) <= class(self)` and the debug assertion catches
    /// the rest under test.
    #[inline]
    pub fn wide_sub(&self, other: &Self) -> Self {
        let mut out = [0u64; 12];
        let mut borrow = 0u64;
        for ((o, a), b) in out.iter_mut().zip(&self.0).zip(&other.0) {
            let (v, bb) = crate::arith::sbb(*a, *b, borrow);
            *o = v;
            borrow = bb;
        }
        debug_assert!(borrow == 0, "wide_sub went negative");
        Self(out)
    }

    /// `self + k·p² - other`: wide subtraction kept non-negative by an
    /// explicit multiple of `p²` (which vanishes mod `p`). Sound
    /// whenever `k` is at least `other`'s magnitude class — enforced by
    /// the range lint, which assigns the result `self`'s class plus
    /// `k`.
    #[inline]
    pub fn wide_sub_offset(&self, other: &Self, k: u64) -> Self {
        // lint:allow(panic) the range lint caps every offset class at
        // the wide cap (64), so `k` always indexes the table
        let offset = &P2_MULTIPLES[k as usize];
        let mut out = [0u64; 12];
        let mut carry = 0u64;
        for ((o, a), p2) in out.iter_mut().zip(&self.0).zip(offset) {
            let (v, c) = crate::arith::adc(*a, *p2, carry);
            *o = v;
            carry = c;
        }
        debug_assert!(carry == 0, "wide_sub_offset exceeded limb headroom");
        let mut borrow = 0u64;
        for (o, b) in out.iter_mut().zip(&other.0) {
            let (v, bb) = crate::arith::sbb(*o, *b, borrow);
            *o = v;
            borrow = bb;
        }
        debug_assert!(borrow == 0, "wide_sub_offset subtrahend above k·p²");
        Self(out)
    }

    /// Montgomery reduction of the full accumulator: six REDC rounds
    /// followed by canonical normalization, returning `T·R⁻¹ mod p` as
    /// a reduced [`Fp`].
    ///
    /// Accepts any accumulated class up to the wide cap (Fp: `64·p²`,
    /// so that `64·p² + p·2^384 < 2^768` and the rounds never carry out
    /// of the top limb), which is exactly what the range lint certifies
    /// at every call site, and lands on the same limbs the eager
    /// `mont_mul` chain would — `lazy_equivalence.rs` pins that
    /// bit-for-bit.
    #[inline]
    pub fn montgomery_reduce(&self) -> Fp {
        let mut t = self.0;
        // Deferred top carry: round `i` folds its carry-out into
        // `t[i + 6]` exactly once, and the carry out of that add
        // belongs at position `i + 7` — exactly where round `i + 1`
        // folds. Tracking it in `carry2` avoids rippling through the
        // whole tail every round; position `i` is final when round `i`
        // reads it because only rounds `i - 5 ..= i - 1` touch it.
        let mut carry2 = 0u64;
        for i in 0..6 {
            let m = t[i].wrapping_mul(Fp::INV);
            let (_, mut carry) = crate::arith::mac(t[i], m, Fp::MODULUS[0], 0);
            for j in 1..6 {
                // lint:allow(panic) i + j <= 10 < 12 by the loop bounds
                let (v, c) = crate::arith::mac(t[i + j], m, Fp::MODULUS[j], carry);
                t[i + j] = v; // lint:allow(panic) i + j <= 10 < 12
                carry = c;
            }
            // lint:allow(panic) i + 6 <= 11 < 12 by the loop bound
            let (v, c) = crate::arith::adc(t[i + 6], carry2, carry);
            t[i + 6] = v; // lint:allow(panic) i + 6 <= 11 < 12
            carry2 = c;
        }
        let mut out = [0u64; 6];
        // lint:allow(panic) limbs 6..12 of the 12-limb scratch
        out.copy_from_slice(&t[6..12]);
        // At the certified cap the reduced value is below
        // `64·p²/2^384 + p < 7.5·p < 2^384`, so the top-limb carry is
        // structurally zero and six limbs hold the whole result.
        debug_assert!(carry2 == 0, "montgomery_reduce input exceeded the wide cap");
        Fp(canonicalize_below_8p(out))
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // tests may panic freely
mod tests {
    use super::*;
    use mccls_rng::SeedableRng;

    /// Runs `body` on `n` random field elements drawn from a fixed seed.
    fn for_random_fp(n: usize, seed: u64, mut body: impl FnMut(Fp, Fp, Fp)) {
        let mut rng = mccls_rng::rngs::StdRng::seed_from_u64(seed);
        for _ in 0..n {
            body(
                Fp::random(&mut rng),
                Fp::random(&mut rng),
                Fp::random(&mut rng),
            );
        }
    }

    #[test]
    fn constants_are_consistent() {
        // one * one == one pins R/R2/INV consistency.
        assert_eq!(Fp::one().mul(&Fp::one()), Fp::one());
        assert_eq!(Fp::one().to_raw()[0], 1);
        assert!(Fp::one().to_raw()[1..].iter().all(|&l| l == 0));
    }

    #[test]
    fn modulus_round_trips_to_zero() {
        assert_eq!(Fp::from_raw(Fp::MODULUS), Fp::zero());
    }

    #[test]
    fn small_arithmetic() {
        let a = Fp::from_u64(u64::MAX);
        let b = Fp::from_u64(2);
        assert_eq!(a.mul(&b).to_raw()[0], u64::MAX - 1);
        assert_eq!(a.mul(&b).to_raw()[1], 1);
    }

    #[test]
    fn p_minus_one_squares_to_one() {
        let m1 = Fp::zero().sub(&Fp::one());
        assert_eq!(m1.square(), Fp::one());
        assert_eq!(m1.mul(&m1), Fp::one());
        assert_eq!(m1.neg(), Fp::one());
    }

    #[test]
    fn sqrt_of_four() {
        let four = Fp::from_u64(4);
        let r = four.sqrt().expect("4 is a QR");
        assert_eq!(r.square(), four);
        assert!(r == Fp::from_u64(2) || r == Fp::from_u64(2).neg());
    }

    #[test]
    fn non_residue_has_no_sqrt() {
        // -1 is a non-residue since p ≡ 3 (mod 4).
        assert!(Fp::one().neg().sqrt().is_none());
    }

    #[test]
    fn bytes_round_trip() {
        let mut rng = mccls_rng::rngs::StdRng::seed_from_u64(1);
        for _ in 0..20 {
            let a = Fp::random(&mut rng);
            let bytes = a.to_be_bytes();
            assert_eq!(Fp::from_be_bytes(&bytes), Some(a));
        }
    }

    #[test]
    fn from_be_bytes_rejects_modulus() {
        let mut bytes = [0u8; 48];
        for (i, limb) in Fp::MODULUS.iter().rev().enumerate() {
            bytes[i * 8..i * 8 + 8].copy_from_slice(&limb.to_be_bytes());
        }
        assert_eq!(Fp::from_be_bytes(&bytes), None);
    }

    #[test]
    fn lexicographic_sign_is_antisymmetric() {
        let mut rng = mccls_rng::rngs::StdRng::seed_from_u64(2);
        for _ in 0..20 {
            let a = Fp::random(&mut rng);
            if a.is_zero() {
                continue;
            }
            assert_ne!(
                a.is_lexicographically_largest(),
                a.neg().is_lexicographically_largest()
            );
        }
    }

    #[test]
    fn field_axioms_hold_on_random_elements() {
        for_random_fp(64, 0xF0, |a, b, c| {
            assert_eq!(a.add(&b), b.add(&a));
            assert_eq!(a.mul(&b), b.mul(&a));
            assert_eq!(a.mul(&b).mul(&c), a.mul(&b.mul(&c)));
            assert_eq!(a.mul(&b.add(&c)), a.mul(&b).add(&a.mul(&c)));
            assert_eq!(a.sub(&b), a.add(&b.neg()));
            assert_eq!(a.square(), a.mul(&a));
        });
    }

    #[test]
    fn inverse_is_inverse() {
        for_random_fp(64, 0xF1, |a, _, _| {
            if a.is_zero() {
                return;
            }
            assert_eq!(a.mul(&a.invert().unwrap()), Fp::one());
        });
    }

    #[test]
    fn binary_gcd_matches_fermat() {
        for_random_fp(64, 0xF2, |a, _, _| {
            assert_eq!(a.invert(), a.invert_fermat());
        });
    }

    #[test]
    fn sqrt_round_trips() {
        for_random_fp(64, 0xF3, |a, _, _| {
            let sq = a.square();
            let r = sq.sqrt().expect("squares are QRs");
            assert!(r == a || r == a.neg());
        });
    }

    #[test]
    fn byte_codec_round_trips() {
        for_random_fp(64, 0xF4, |a, _, _| {
            assert_eq!(Fp::from_be_bytes(&a.to_be_bytes()), Some(a));
        });
    }

    #[test]
    fn ct_helpers_agree_with_plain_ops() {
        for_random_fp(32, 0xF5, |a, b, _| {
            assert_eq!(a.ct_eq(&b).leak(), a == b);
            assert!(a.ct_eq(&a).leak());
            assert_eq!(Fp::ct_select(&a, &b, crate::ct::Choice::FALSE), a);
            assert_eq!(Fp::ct_select(&a, &b, crate::ct::Choice::TRUE), b);
            assert!(a.is_canonical());
        });
        assert!(Fp::zero().ct_is_zero().leak());
        assert!(!Fp::one().ct_is_zero().leak());
    }

    #[test]
    fn lazy_primitives_match_eager_ops() {
        for_random_fp(64, 0xF7, |a, b, c| {
            // (a·b + a·c) with one deferred reduction == eager chain.
            let lazy = a
                .mul_unreduced(&b)
                .wide_add(&a.mul_unreduced(&c))
                .montgomery_reduce();
            assert_eq!(lazy, a.mul(&b).add(&a.mul(&c)));
            assert!(lazy.is_canonical());
            // a·b - a·c via the offset form.
            let diff = a
                .mul_unreduced(&b)
                .wide_sub_offset(&a.mul_unreduced(&c), 1)
                .montgomery_reduce();
            assert_eq!(diff, a.mul(&b).sub(&a.mul(&c)));
            // Narrow chain: (a + b) - c with one final reduce.
            let narrow = a.add_unreduced(&b).sub_unreduced(&c).reduce();
            assert_eq!(narrow, a.add(&b).sub(&c));
        });
    }

    #[test]
    fn single_product_reduction_matches_mont_mul() {
        for_random_fp(64, 0xF8, |a, b, _| {
            assert_eq!(a.mul_unreduced(&b).montgomery_reduce(), a.mul(&b));
        });
    }

    #[test]
    fn wide_reduce_handles_max_magnitude_accumulators() {
        // Sum 64 products of (p-1)·(p-1) — the wide cap 64·p² — and
        // check the single reduction still canonicalizes correctly.
        let m1 = Fp::zero().sub(&Fp::one());
        let prod = m1.mul_unreduced(&m1);
        let mut acc = prod;
        for _ in 1..64 {
            acc = acc.wide_add(&prod);
        }
        let expect = m1.mul(&m1).mul(&Fp::from_u64(64));
        assert_eq!(acc.montgomery_reduce(), expect);
    }

    #[test]
    fn headroom_constants_match_the_moduli() {
        assert_eq!(Fp::HEADROOM_BITS, 3);
        assert_eq!(crate::Fr::HEADROOM_BITS, 1);
    }

    #[test]
    fn invert_ct_matches_invert_and_maps_zero_to_zero() {
        for_random_fp(16, 0xF6, |a, _, _| {
            if a.is_zero() {
                return;
            }
            assert_eq!(Some(a.invert_ct()), a.invert());
        });
        assert_eq!(Fp::zero().invert_ct(), Fp::zero());
    }
}
