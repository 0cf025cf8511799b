//! The optimal ate pairing `e : G1 × G2 → GT` and the target-group type
//! [`Gt`].
//!
//! # Construction notes
//!
//! * **Miller loop** — [`pairing`] and [`pairing_product`] prepare their
//!   G2 arguments and run the one [`multi_miller_loop`], so prepared and
//!   unprepared pairings share a code path. Its inversion-free lines are
//!   built from Jacobian coordinates in `prepared.rs`.
//! * **Final exponentiation** — the easy part is the usual
//!   `(p⁶-1)(p²+1)`. The hard part `(p⁴-p²+1)/r` is an exact chain
//!   derived from the BLS parameter `u = -|u|` (Hayashida–Hayasaka–Teruya
//!   2020): `(p⁴-p²+1)/r = ((u-1)²/3)·(u+p)·(u²+p²-1) + 1`, with
//!   `(u-1)²/3 = c·(|u|+1)` and `c = (|u|+1)/3`. That is four cyclotomic
//!   exponentiations by `|u|` and one by `c`, plus Frobenius maps and
//!   conjugations. A test checks the identity in exact integer
//!   arithmetic, and the output is the base-`p` exponentiation's bit for
//!   bit, not a power of it.

use crate::fp12::Fp12;
use crate::fr::Fr;
use crate::g1::G1Affine;
use crate::g2::G2Affine;
use crate::prepared::{multi_miller_loop, G2Prepared};

/// `|u|` for the BLS parameter `u = -0xd201000000010000`.
pub(crate) const BLS_X: u64 = 0xd201_0000_0001_0000;

/// `c = (|u|+1)/3`, so that `(u-1)²/3 = c·(|u|+1)` for `u = -|u|` (the
/// division is exact; a test checks it).
const CHAIN_C: u64 = (BLS_X + 1) / 3;

/// An element of the target group `GT ⊂ Fp12*` of order `r`.
///
/// Obtained from [`pairing`] or [`pairing_product`]; supports the group
/// operations the schemes need (multiplication, inversion, scalar
/// exponentiation). The one value outside the group is zero, which
/// [`final_exponentiation`] returns for a zero Miller value.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct Gt(Fp12);

impl Gt {
    /// The group identity.
    pub fn identity() -> Self {
        Gt(Fp12::one())
    }

    /// True for the identity.
    pub fn is_identity(&self) -> bool {
        self.0 == Fp12::one()
    }

    /// Group operation.
    pub fn mul(&self, other: &Self) -> Self {
        Gt(self.0.mul(&other.0))
    }

    /// Group inverse (cheap unitary conjugation).
    pub fn inverse(&self) -> Self {
        Gt(self.0.conjugate())
    }

    /// Exponentiation by a scalar (square-and-multiply with cyclotomic
    /// squarings — GT elements always lie in the cyclotomic subgroup).
    pub fn pow(&self, k: &Fr) -> Self {
        Gt(cyclotomic_pow(&self.0, &k.to_raw()))
    }

    /// The raw `Fp12` representative (for serialization or hashing).
    pub fn as_fp12(&self) -> &Fp12 {
        &self.0
    }

    /// Canonical 576-byte encoding for hashing pairing outputs into
    /// challenges.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.0.to_be_bytes()
    }
}

impl core::ops::Mul for Gt {
    type Output = Gt;
    fn mul(self, rhs: Gt) -> Gt {
        Gt::mul(&self, &rhs)
    }
}

/// `f^e` for `f` in the cyclotomic subgroup and `e` given as
/// little-endian limbs: square-and-multiply from the top set bit, with
/// the cheap cyclotomic squaring.
fn cyclotomic_pow(f: &Fp12, e: &[u64]) -> Fp12 {
    let mut res = Fp12::one();
    let mut started = false;
    for &limb in e.iter().rev() {
        for i in (0..64).rev() {
            if started {
                res = res.cyclotomic_square();
            }
            if (limb >> i) & 1 == 1 {
                if started {
                    res = res.mul(f);
                } else {
                    res = *f;
                    started = true;
                }
            }
        }
    }
    res
}

/// The full final exponentiation `f ↦ f^((p¹²-1)/r)`.
///
/// A zero `f` has no inverse and maps to zero, which is neither the
/// identity nor any pairing value, so a product check fed a degenerate
/// Miller value (only off-curve input produces one) never balances.
pub fn final_exponentiation(f: &Fp12) -> Gt {
    // Easy part: f^((p^6 - 1)(p^2 + 1)).
    let Some(inv) = f.invert() else {
        return Gt(Fp12::zero());
    };
    let f = f.conjugate().mul(&inv);
    let f = f.frobenius_map().frobenius_map().mul(&f);

    // Hard part: f^(c·(|u|+1)·(u+p)·(u²+p²-1) + 1). f is cyclotomic now,
    // so conjugation inverts and a negative power of u is the conjugate
    // of the |u| power.
    let a = cyclotomic_pow(&f, &[CHAIN_C]);
    let a = cyclotomic_pow(&a, &[BLS_X]).mul(&a); // f^((u-1)²/3)
    let a = cyclotomic_pow(&a, &[BLS_X])
        .conjugate()
        .mul(&a.frobenius_map()); // ·(u+p)
    let a_u2 = cyclotomic_pow(&cyclotomic_pow(&a, &[BLS_X]), &[BLS_X]);
    let a = a_u2
        .mul(&a.frobenius_map().frobenius_map())
        .mul(&a.conjugate()); // ·(u²+p²-1)
    Gt(a.mul(&f))
}

/// Computes the optimal ate pairing `e(P, Q)`.
///
/// Returns the identity when either input is the identity.
///
/// # Examples
///
/// ```
/// use mccls_pairing::{pairing, G1Affine, G2Affine};
///
/// let e = pairing(&G1Affine::generator(), &G2Affine::generator());
/// assert!(!e.is_identity());
/// ```
pub fn pairing(p: &G1Affine, q: &G2Affine) -> Gt {
    multi_miller_loop(&[(p, &G2Prepared::from_affine(q))]).final_exponentiation()
}

/// Computes `∏ e(P_i, Q_i)` with one shared final exponentiation.
///
/// This is how verifiers check pairing equations like
/// `e(A, B) = e(C, D)` efficiently: evaluate
/// `pairing_product(&[(A, B), (-C, D)])` and compare with the identity.
pub fn pairing_product(pairs: &[(G1Affine, G2Affine)]) -> Gt {
    let prepared: Vec<G2Prepared> = pairs
        .iter()
        .map(|(_, q)| G2Prepared::from_affine(q))
        .collect();
    let refs: Vec<(&G1Affine, &G2Prepared)> = pairs
        .iter()
        .zip(&prepared)
        .map(|((p, _), q)| (p, q))
        .collect();
    multi_miller_loop(&refs).final_exponentiation()
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // tests may panic freely
mod tests {
    use super::*;
    use crate::arith::BigUint;
    use crate::curve::ProjectivePoint;
    use crate::field::Field;
    use crate::fp::Fp;
    use crate::fp2::Fp2;
    use crate::g1::G1Projective;
    use crate::g2::G2Projective;
    use mccls_rng::SeedableRng;
    use std::sync::OnceLock;

    // Reference implementations the production code replaced: the affine
    // Miller loop (one Fp2 inversion per line) and the base-p
    // multi-exponentiation of the hard part. The differential tests
    // below pin the production pairing to them bit for bit.

    /// Affine G2 working point used inside the reference Miller loop.
    #[derive(Copy, Clone)]
    struct G2Point {
        x: Fp2,
        y: Fp2,
    }

    /// Evaluates the (ξ-scaled) line through `(x1, y1)` with slope
    /// `lambda` at `P = (xp, yp)` and multiplies it into `f`.
    fn line_eval(f: &Fp12, x1: &Fp2, y1: &Fp2, lambda: &Fp2, xp: &Fp, yp: &Fp) -> Fp12 {
        // a = ξ·y_P, b = λ·x₁ - y₁, c = -λ·x_P
        let a = Fp2::new(*yp, *yp); // (1 + u) * yp
        let b = lambda.mul(x1).sub(y1);
        let c = lambda.mul_by_fp(&xp.neg());
        f.mul_by_line(&a, &b, &c)
    }

    /// The affine Miller loop `f_{u,Q}(P)`, conjugated for `u < 0`.
    fn miller_loop(p: &G1Affine, q: &G2Affine) -> Fp12 {
        let mut f = Fp12::one();
        let mut t = G2Point { x: q.x, y: q.y };
        for i in (0..63).rev() {
            f = f.square();
            // Doubling step: λ = 3x² / 2y.
            let lambda =
                t.x.square()
                    .mul(&Fp2::new(Fp::from_u64(3), Fp::zero()))
                    .mul(&t.y.double().invert().expect("2y != 0"));
            f = line_eval(&f, &t.x, &t.y, &lambda, &p.x, &p.y);
            let x3 = lambda.square().sub(&t.x.double());
            let y3 = lambda.mul(&t.x.sub(&x3)).sub(&t.y);
            t = G2Point { x: x3, y: y3 };
            if (BLS_X >> i) & 1 == 1 {
                // Addition step: λ = (y_Q - y_T) / (x_Q - x_T).
                let lambda = q.y.sub(&t.y).mul(&q.x.sub(&t.x).invert().expect("T != ±Q"));
                f = line_eval(&f, &t.x, &t.y, &lambda, &p.x, &p.y);
                let x3 = lambda.square().sub(&t.x).sub(&q.x);
                let y3 = lambda.mul(&t.x.sub(&x3)).sub(&t.y);
                t = G2Point { x: x3, y: y3 };
            }
        }
        f.conjugate()
    }

    /// The hard exponent `(p⁴ - p² + 1)/r`, computed in exact arithmetic.
    fn hard_exponent() -> BigUint {
        let p = BigUint::from_limbs(&Fp::MODULUS);
        let r = BigUint::from_limbs(&Fr::MODULUS);
        let p2 = p.mul(&p);
        let (h, rem) = p2.mul(&p2).sub(&p2).add_small(1).div_rem(&r);
        assert!(rem.is_zero(), "r must divide p^4 - p^2 + 1");
        h
    }

    /// Base-p digits of the hard exponent, least significant first.
    fn hard_exponent_digits() -> &'static [Vec<u64>; 4] {
        static DIGITS: OnceLock<[Vec<u64>; 4]> = OnceLock::new();
        DIGITS.get_or_init(|| {
            let p = BigUint::from_limbs(&Fp::MODULUS);
            let mut digits = Vec::with_capacity(4);
            let mut cur = hard_exponent();
            for _ in 0..4 {
                let (q, d) = cur.div_rem(&p);
                digits.push(d.limbs().to_vec());
                cur = q;
            }
            assert!(cur.is_zero(), "hard exponent must have 4 base-p digits");
            digits.try_into().expect("exactly 4 digits")
        })
    }

    /// The final exponentiation with the hard part as a 4-digit base-p
    /// multi-exponentiation over Frobenius powers of `f`.
    fn final_exponentiation_reference(f: &Fp12) -> Gt {
        let Some(inv) = f.invert() else {
            return Gt(Fp12::zero());
        };
        let f = f.conjugate().mul(&inv);
        let f = f.frobenius_map().frobenius_map().mul(&f);
        let digits = hard_exponent_digits();
        let f1 = f.frobenius_map();
        let f2 = f1.frobenius_map();
        let f3 = f2.frobenius_map();
        let bases = [f, f1, f2, f3];
        // Lookup table of all 15 non-empty base subsets.
        let mut table = [Fp12::one(); 16];
        for mask in 1usize..16 {
            let lsb = mask.trailing_zeros() as usize;
            table[mask] = table[mask & (mask - 1)].mul(&bases[lsb]);
        }
        let max_bits = digits
            .iter()
            .map(|d| BigUint::from_limbs(d).bit_len())
            .max()
            .unwrap();
        let mut acc = Fp12::one();
        for i in (0..max_bits).rev() {
            acc = acc.cyclotomic_square();
            let mut mask = 0usize;
            for (j, d) in digits.iter().enumerate() {
                if BigUint::from_limbs(d).bit(i) {
                    mask |= 1 << j;
                }
            }
            acc = acc.mul(&table[mask]);
        }
        Gt(acc)
    }

    /// The pairing as the affine loop plus the base-p final
    /// exponentiation computed it.
    fn pairing_reference(p: &G1Affine, q: &G2Affine) -> Gt {
        if p.is_identity() || q.is_identity() {
            return Gt::identity();
        }
        final_exponentiation_reference(&miller_loop(p, q))
    }

    /// `a + b` (BigUint has no general addition; tests only need it).
    fn big_add(a: &BigUint, b: &BigUint) -> BigUint {
        let len = a.limbs().len().max(b.limbs().len());
        let mut out = Vec::with_capacity(len + 1);
        let mut carry = false;
        for i in 0..len {
            let x = a.limbs().get(i).copied().unwrap_or(0);
            let y = b.limbs().get(i).copied().unwrap_or(0);
            let (v, c1) = x.overflowing_add(y);
            let (v, c2) = v.overflowing_add(carry as u64);
            out.push(v);
            carry = c1 || c2;
        }
        out.push(carry as u64);
        BigUint::from_limbs(&out)
    }

    fn gen_pairing() -> Gt {
        pairing(&G1Affine::generator(), &G2Affine::generator())
    }

    #[test]
    fn pairing_is_non_degenerate() {
        let e = gen_pairing();
        assert!(!e.is_identity());
        // e has order r: e^r == 1, pinned via pow by r-1 times e.
        let r_minus_1 = Fr::zero().sub(&Fr::one());
        assert_eq!(e.pow(&r_minus_1).mul(&e), Gt::identity());
    }

    #[test]
    fn pairing_is_bilinear_left() {
        let mut rng = mccls_rng::rngs::StdRng::seed_from_u64(30);
        let a = Fr::random(&mut rng);
        let pa = (G1Projective::generator() * a).to_affine();
        let q = G2Affine::generator();
        assert_eq!(pairing(&pa, &q), gen_pairing().pow(&a));
    }

    #[test]
    fn pairing_is_bilinear_right() {
        let mut rng = mccls_rng::rngs::StdRng::seed_from_u64(31);
        let b = Fr::random(&mut rng);
        let qb = (G2Projective::generator() * b).to_affine();
        let p = G1Affine::generator();
        assert_eq!(pairing(&p, &qb), gen_pairing().pow(&b));
    }

    #[test]
    fn pairing_is_bilinear_both() {
        let mut rng = mccls_rng::rngs::StdRng::seed_from_u64(32);
        let a = Fr::random(&mut rng);
        let b = Fr::random(&mut rng);
        let pa = (G1Projective::generator() * a).to_affine();
        let qb = (G2Projective::generator() * b).to_affine();
        assert_eq!(pairing(&pa, &qb), gen_pairing().pow(&a.mul(&b)));
    }

    #[test]
    fn pairing_additivity_in_g1() {
        let mut rng = mccls_rng::rngs::StdRng::seed_from_u64(33);
        let a = Fr::random(&mut rng);
        let b = Fr::random(&mut rng);
        let g = G1Projective::generator();
        let sum = (g * a + g * b).to_affine();
        let q = G2Affine::generator();
        assert_eq!(
            pairing(&sum, &q),
            pairing(&(g * a).to_affine(), &q).mul(&pairing(&(g * b).to_affine(), &q))
        );
    }

    #[test]
    fn pairing_with_identity_is_identity() {
        assert!(pairing(&G1Affine::identity(), &G2Affine::generator()).is_identity());
        assert!(pairing(&G1Affine::generator(), &G2Affine::identity()).is_identity());
    }

    #[test]
    fn pairing_of_negated_point_is_inverse() {
        let e = gen_pairing();
        let neg = pairing(&G1Affine::generator().neg(), &G2Affine::generator());
        assert_eq!(e.mul(&neg), Gt::identity());
        assert_eq!(neg, e.inverse());
    }

    #[test]
    fn pairing_product_checks_dh_tuples() {
        // e(aG, bH) * e(-abG, H) == 1.
        let mut rng = mccls_rng::rngs::StdRng::seed_from_u64(34);
        let a = Fr::random(&mut rng);
        let b = Fr::random(&mut rng);
        let g = G1Projective::generator();
        let h = G2Projective::generator();
        let result = pairing_product(&[
            ((g * a).to_affine(), (h * b).to_affine()),
            ((g * a.mul(&b)).neg().to_affine(), h.to_affine()),
        ]);
        assert!(result.is_identity());
    }

    #[test]
    fn hard_exponent_digits_recompose_to_h() {
        // Horner-recompose the cached base-p digits and compare against
        // (p^4 - p^2 + 1)/r.
        let p = BigUint::from_limbs(&Fp::MODULUS);
        let mut total = BigUint::zero();
        for d in hard_exponent_digits().iter().rev() {
            total = big_add(&total.mul(&p), &BigUint::from_limbs(d));
        }
        assert_eq!(
            total,
            hard_exponent(),
            "digit decomposition must recompose to h"
        );
    }

    #[test]
    fn x_chain_exponent_identity_holds() {
        // With u = -|u|: (u-1)² = (|u|+1)², u+p = p-|u| and u² = |u|².
        let x = BigUint::from_limbs(&[BLS_X]);
        let x1 = x.add_small(1);
        let (c, rem) = x1.div_rem(&BigUint::from_limbs(&[3]));
        assert!(rem.is_zero(), "3 must divide |u|+1");
        assert_eq!(c, BigUint::from_limbs(&[CHAIN_C]));
        let p = BigUint::from_limbs(&Fp::MODULUS);
        let u2_p2_1 = big_add(&x.mul(&x), &p.mul(&p)).sub(&BigUint::from_limbs(&[1]));
        let chain = c.mul(&x1).mul(&p.sub(&x)).mul(&u2_p2_1).add_small(1);
        assert_eq!(chain, hard_exponent());
    }

    #[test]
    fn final_exponentiation_matches_base_p_reference() {
        let mut rng = mccls_rng::rngs::StdRng::seed_from_u64(39);
        // Arbitrary field elements, not only cyclotomic ones.
        for _ in 0..16 {
            let f = Fp12::random(&mut rng);
            assert_eq!(final_exponentiation(&f), final_exponentiation_reference(&f));
        }
        // Miller-loop outputs of the reference loop and the production one.
        for _ in 0..4 {
            let p = (G1Projective::generator() * Fr::random(&mut rng)).to_affine();
            let q = (G2Projective::generator() * Fr::random(&mut rng)).to_affine();
            let prepared = G2Prepared::from_affine(&q);
            for f in [
                miller_loop(&p, &q),
                *multi_miller_loop(&[(&p, &prepared)]).as_fp12(),
            ] {
                assert_eq!(final_exponentiation(&f), final_exponentiation_reference(&f));
            }
        }
    }

    #[test]
    fn pairing_matches_reference_affine_loop() {
        let mut rng = mccls_rng::rngs::StdRng::seed_from_u64(40);
        let mut pairs = Vec::new();
        for _ in 0..4 {
            let p = (G1Projective::generator() * Fr::random(&mut rng)).to_affine();
            let q = (G2Projective::generator() * Fr::random(&mut rng)).to_affine();
            assert_eq!(pairing(&p, &q), pairing_reference(&p, &q));
            pairs.push((p, q));
        }
        let product = pairs.iter().fold(Gt::identity(), |acc, (p, q)| {
            acc.mul(&pairing_reference(p, q))
        });
        assert_eq!(pairing_product(&pairs), product);

        // On-curve G2 points outside the r-subgroup: the low-byte sweep
        // of the prepared decoder tests, decoded without the checks.
        let p = (G1Projective::generator() * Fr::random(&mut rng)).to_affine();
        let mut outside = 0;
        for low in 0u8..=255 {
            let mut candidate = [0u8; 96];
            candidate[0] = 0b1000_0000;
            candidate[95] = low;
            if let Some(q) = G2Affine::from_compressed_unchecked(&candidate) {
                assert!(!q.is_torsion_free(), "x={low}");
                assert_eq!(pairing(&p, &q), pairing_reference(&p, &q), "x={low}");
                outside += 1;
            }
        }
        assert!(outside > 0, "sweep found at least one curve point");
    }

    #[test]
    fn zero_miller_value_fails_closed() {
        let zero = final_exponentiation(&Fp12::zero());
        assert!(!zero.is_identity());
        assert_ne!(zero, gen_pairing());
        // Zero absorbs every factor, so no product containing it balances.
        assert!(!zero.mul(&gen_pairing().inverse()).is_identity());
    }

    #[test]
    fn final_exponentiation_output_has_order_r() {
        // For random f, final_exponentiation(f)^r must be the identity.
        let mut rng = mccls_rng::rngs::StdRng::seed_from_u64(35);
        let f = Fp12::random(&mut rng);
        let e = final_exponentiation(&f);
        let r_minus_1 = Fr::zero().sub(&Fr::one());
        assert_eq!(e.pow(&r_minus_1).mul(&e), Gt::identity());
    }

    #[test]
    fn gt_pow_matches_generic_field_pow() {
        let mut rng = mccls_rng::rngs::StdRng::seed_from_u64(37);
        let e = gen_pairing();
        for _ in 0..3 {
            let k = Fr::random(&mut rng);
            assert_eq!(e.pow(&k), Gt(Field::pow(e.as_fp12(), &k.to_raw())));
        }
        assert_eq!(e.pow(&Fr::zero()), Gt::identity());
        assert_eq!(e.pow(&Fr::one()), e);
    }

    #[test]
    fn gt_pow_respects_scalar_arithmetic() {
        let mut rng = mccls_rng::rngs::StdRng::seed_from_u64(36);
        let e = gen_pairing();
        let a = Fr::random(&mut rng);
        let b = Fr::random(&mut rng);
        assert_eq!(e.pow(&a).pow(&b), e.pow(&a.mul(&b)));
        assert_eq!(e.pow(&a).mul(&e.pow(&b)), e.pow(&a.add(&b)));
    }

    #[test]
    fn gt_byte_encoding_is_canonical_and_injective() {
        let e = gen_pairing();
        assert_eq!(e.to_bytes().len(), 576);
        assert_eq!(e.to_bytes(), e.to_bytes());
        let mut rng = mccls_rng::rngs::StdRng::seed_from_u64(38);
        let other = e.pow(&Fr::random(&mut rng));
        assert_ne!(e.to_bytes(), other.to_bytes());
        assert_eq!(Gt::identity().to_bytes()[..48], Fp::one().to_be_bytes());
    }

    #[test]
    fn identity_projective_inputs() {
        let id1 = ProjectivePoint::<crate::g1::G1Params>::identity().to_affine();
        assert!(pairing(&id1, &G2Affine::generator()).is_identity());
    }
}
