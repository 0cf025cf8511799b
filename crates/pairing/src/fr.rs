//! The BLS12-381 scalar field `Fr` (the prime order of G1, G2, and GT).
//!
//! This is the paper's `Z_p*`: master keys, user secret values, and the
//! per-signature nonces all live here.

use crate::field::montgomery_field;
#[cfg(test)]
use crate::field::Field;

montgomery_field!(
    /// An element of the BLS12-381 scalar field
    /// (`r = 0x73eda753...00000001`, 255 bits).
    ///
    /// # Examples
    ///
    /// ```
    /// use mccls_pairing::Fr;
    ///
    /// let s = Fr::from_u64(42);
    /// assert_eq!(s * s.invert().unwrap(), Fr::one());
    /// ```
    Fr,
    4,
    [
        0xffff_ffff_0000_0001,
        0x53bd_a402_fffe_5bfe,
        0x3339_d808_09a1_d805,
        0x73ed_a753_299d_7d48,
    ]
);

impl Fr {
    /// Samples a uniformly random *nonzero* scalar.
    ///
    /// The schemes in the paper repeatedly draw secrets from `Z_p^*`; zero
    /// would make keys or signatures degenerate, so it is excluded here.
    pub fn random_nonzero(rng: &mut (impl mccls_rng::RngCore + ?Sized)) -> Self {
        loop {
            let v = Self::random(rng);
            debug_assert!(v.is_canonical());
            // ct-ok: rejection sampling only reveals whether a fresh
            // candidate was zero (probability ~2^-255), nothing about
            // the value that is eventually returned.
            if !v.is_zero() {
                return v;
            }
        }
    }

    /// Derives a scalar from a message via the XMD expander, the paper's
    /// `H2`-style random oracle onto `Z_p`.
    pub fn hash_from_bytes(msg: &[u8], dst: &[u8]) -> Self {
        let wide = mccls_hash::expand_message(msg, dst, 64);
        let out = Self::from_be_bytes_mod(&wide);
        debug_assert!(out.is_canonical());
        out
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // tests may panic freely
mod tests {
    use super::*;
    use mccls_rng::SeedableRng;

    /// Runs `body` on `n` random scalars drawn from a fixed seed.
    fn for_random_fr(n: usize, seed: u64, mut body: impl FnMut(Fr, Fr, Fr)) {
        let mut rng = mccls_rng::rngs::StdRng::seed_from_u64(seed);
        for _ in 0..n {
            body(
                Fr::random(&mut rng),
                Fr::random(&mut rng),
                Fr::random(&mut rng),
            );
        }
    }

    #[test]
    fn one_times_one() {
        assert_eq!(Fr::one().mul(&Fr::one()), Fr::one());
    }

    #[test]
    fn modulus_wraps_to_zero() {
        assert_eq!(Fr::from_raw(Fr::MODULUS), Fr::zero());
        // r - 1 + 1 == 0
        let r_minus_1 = Fr::zero().sub(&Fr::one());
        assert_eq!(r_minus_1.add(&Fr::one()), Fr::zero());
    }

    #[test]
    fn fermat_inverse_of_two() {
        let two = Fr::from_u64(2);
        let half = two.invert().unwrap();
        assert_eq!(half.add(&half), Fr::one());
    }

    #[test]
    fn random_nonzero_never_zero() {
        let mut rng = mccls_rng::rngs::StdRng::seed_from_u64(3);
        for _ in 0..50 {
            assert!(!Fr::random_nonzero(&mut rng).is_zero());
        }
    }

    #[test]
    fn hash_from_bytes_is_deterministic_and_separated() {
        let a = Fr::hash_from_bytes(b"m", b"D1");
        assert_eq!(a, Fr::hash_from_bytes(b"m", b"D1"));
        assert_ne!(a, Fr::hash_from_bytes(b"m", b"D2"));
        assert_ne!(a, Fr::hash_from_bytes(b"n", b"D1"));
    }

    #[test]
    fn field_axioms() {
        for_random_fr(64, 0xB0, |a, b, c| {
            assert_eq!(a.add(&b), b.add(&a));
            assert_eq!(a.mul(&b), b.mul(&a));
            assert_eq!(a.mul(&b).mul(&c), a.mul(&b.mul(&c)));
            assert_eq!(a.mul(&b.add(&c)), a.mul(&b).add(&a.mul(&c)));
            assert_eq!(a.sub(&a), Fr::zero());
        });
    }

    #[test]
    fn inverse() {
        for_random_fr(64, 0xB1, |a, _, _| {
            if a.is_zero() {
                return;
            }
            assert_eq!(a.mul(&a.invert().unwrap()), Fr::one());
        });
    }

    #[test]
    fn pow_addition_law() {
        let mut rng = mccls_rng::rngs::StdRng::seed_from_u64(0xB3);
        for _ in 0..64 {
            // a^x * a^y == a^(x+y) with x+y < 2^65 represented in 2 limbs.
            let a = Fr::random_nonzero(&mut rng);
            let (x, y) = (rng.next_u64(), rng.next_u64());
            let lhs = Field::pow(&a, &[x]).mul(&Field::pow(&a, &[y]));
            let (sum, carry) = x.overflowing_add(y);
            let rhs = Field::pow(&a, &[sum, carry as u64]);
            assert_eq!(lhs, rhs);
        }
    }

    #[test]
    fn bytes_round_trip() {
        for_random_fr(64, 0xB4, |a, _, _| {
            assert_eq!(Fr::from_be_bytes(&a.to_be_bytes()), Some(a));
        });
    }

    #[test]
    fn ct_helpers_agree_with_plain_ops() {
        for_random_fr(32, 0xB5, |a, b, _| {
            assert_eq!(a.ct_eq(&b).leak(), a == b);
            assert_eq!(Fr::ct_select(&a, &b, crate::ct::Choice::FALSE), a);
            assert_eq!(Fr::ct_select(&a, &b, crate::ct::Choice::TRUE), b);
            assert!(a.is_canonical());
        });
        assert!(Fr::zero().ct_is_zero().leak());
    }

    #[test]
    fn invert_ct_matches_invert_and_maps_zero_to_zero() {
        for_random_fr(64, 0xB6, |a, _, _| {
            if a.is_zero() {
                return;
            }
            assert_eq!(Some(a.invert_ct()), a.invert());
        });
        assert_eq!(Fr::zero().invert_ct(), Fr::zero());
    }
}
