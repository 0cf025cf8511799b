//! The BLS12-381 base field `Fp`,
//! `p = 0x1a0111ea...aaab` (381 bits, `p ≡ 3 (mod 4)`).

use crate::arith::{add_one_shift_right2, geq, sub_one_shift_right1};
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
    fn headroom_constants_match_the_moduli() {
        assert_eq!(Fp::HEADROOM_BITS, 3);
        assert_eq!(crate::Fr::HEADROOM_BITS, 1);
    }

    #[test]
    fn invert_ct_matches_invert_and_maps_zero_to_zero() {
        for_random_fp(64, 0xF6, |a, _, _| {
            if a.is_zero() {
                return;
            }
            assert_eq!(Some(a.invert_ct()), a.invert());
        });
        assert_eq!(Fp::zero().invert_ct(), Fp::zero());
    }
}
