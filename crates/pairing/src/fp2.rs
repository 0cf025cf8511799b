//! The quadratic extension `Fp2 = Fp[u] / (u² + 1)`.

use crate::field::{field_operators, Field};
use crate::fp::{Fp, FpWide};

/// An element `c0 + c1·u` of `Fp2`, with `u² = -1`.
///
/// # Examples
///
/// ```
/// use mccls_pairing::{Fp, Fp2};
///
/// let u = Fp2::new(Fp::zero(), Fp::one());
/// assert_eq!(u * u, -Fp2::one());
/// ```
#[derive(Copy, Clone, PartialEq, Eq, Hash, Default)]
pub struct Fp2 {
    /// Real part.
    pub c0: Fp,
    /// Coefficient of `u`.
    pub c1: Fp,
}

impl Fp2 {
    /// Builds an element from its two coefficients.
    pub const fn new(c0: Fp, c1: Fp) -> Self {
        Self { c0, c1 }
    }

    /// The zero element.
    pub const fn zero() -> Self {
        Self {
            c0: Fp::zero(),
            c1: Fp::zero(),
        }
    }

    /// The one element.
    pub fn one() -> Self {
        Self {
            c0: Fp::one(),
            c1: Fp::zero(),
        }
    }

    /// Embeds an `Fp` element.
    pub fn from_fp(c0: Fp) -> Self {
        Self { c0, c1: Fp::zero() }
    }

    /// True for the additive identity.
    pub fn is_zero(&self) -> bool {
        // ct-ok: short-circuit zero predicate; a secret-dependent
        // branch on its result is reported at the caller
        self.c0.is_zero() && self.c1.is_zero()
    }

    /// Component-wise addition.
    pub fn add(&self, other: &Self) -> Self {
        Self {
            c0: self.c0.add(&other.c0),
            c1: self.c1.add(&other.c1),
        }
    }

    /// Component-wise subtraction.
    pub fn sub(&self, other: &Self) -> Self {
        Self {
            c0: self.c0.sub(&other.c0),
            c1: self.c1.sub(&other.c1),
        }
    }

    /// Doubling.
    pub fn double(&self) -> Self {
        Self {
            c0: self.c0.double(),
            c1: self.c1.double(),
        }
    }

    /// Additive inverse.
    pub fn neg(&self) -> Self {
        Self {
            c0: self.c0.neg(),
            c1: self.c1.neg(),
        }
    }

    /// Karatsuba multiplication over `u² = -1`, with the Montgomery
    /// reductions deferred to one pass per coefficient
    /// (DESIGN.md §11). Bit-for-bit agreement with the eager reference
    /// [`Fp2::mul_eager`] is pinned by `lazy_equivalence.rs`.
    // range: <p
    pub fn mul(&self, other: &Self) -> Self {
        self.mul_unreduced2(other).montgomery_reduce2()
    }

    /// Complex squaring `(c0+c1)(c0-c1) + 2c0c1·u` with deferred
    /// reductions; `c0 - c1` uses the `+2p` headroom offset.
    // range: <p
    pub fn square(&self) -> Self {
        let a = self.c0.add_unreduced(&self.c1);
        let b = self.c0.sub_unreduced(&self.c1);
        let d = self.c0.add_unreduced(&self.c0);
        let w0 = a.mul_unreduced(&b);
        let w1 = d.mul_unreduced(&self.c1);
        Self {
            c0: w0.montgomery_reduce(),
            c1: w1.montgomery_reduce(),
        }
    }

    /// Reduction-eager Karatsuba multiplication: the reference
    /// implementation [`Fp2::mul`] must agree with bit-for-bit.
    pub fn mul_eager(&self, other: &Self) -> Self {
        let v0 = self.c0.mul(&other.c0);
        let v1 = self.c1.mul(&other.c1);
        let s = self.c0.add(&self.c1).mul(&other.c0.add(&other.c1));
        Self {
            c0: v0.sub(&v1),
            c1: s.sub(&v0).sub(&v1),
        }
    }

    /// Reduction-eager complex squaring: the reference implementation
    /// [`Fp2::square`] must agree with bit-for-bit.
    pub fn square_eager(&self) -> Self {
        let a = self.c0.add(&self.c1);
        let b = self.c0.sub(&self.c1);
        let c = self.c0.double();
        Self {
            c0: a.mul(&b),
            c1: c.mul(&self.c1),
        }
    }

    /// Componentwise unreduced addition (no conditional subtraction).
    // range: <p -> <2p
    pub fn add_unreduced2(&self, other: &Self) -> Self {
        Self {
            c0: self.c0.add_unreduced(&other.c0),
            c1: self.c1.add_unreduced(&other.c1),
        }
    }

    /// Componentwise unreduced subtraction via the `+2p` offset.
    // range: <p -> <3p
    pub fn sub_unreduced2(&self, other: &Self) -> Self {
        Self {
            c0: self.c0.sub_unreduced(&other.c0),
            c1: self.c1.sub_unreduced(&other.c1),
        }
    }

    /// Karatsuba product with every reduction deferred: three wide
    /// `Fp` products assembled over `u² = -1`, where the real part
    /// borrows a fixed `4p²` offset to absorb the `-v1` term (inputs
    /// below `2p` keep `v1 < 4p²`).
    ///
    /// At call sites the range lint assigns the result the exact
    /// symbolic class `max(Na·Nb + 4, 4·Na·Nb)` for input classes
    /// `Na`, `Nb` — canonical inputs yield `<5p²`, the declared
    /// worst case `<16p²`.
    // range: <2p -> <16pp
    pub fn mul_unreduced2(&self, other: &Self) -> Fp2Wide {
        let v0 = self.c0.mul_unreduced(&other.c0);
        let v1 = self.c1.mul_unreduced(&other.c1);
        let sa = self.c0.add_unreduced(&self.c1);
        let sb = other.c0.add_unreduced(&other.c1);
        let s = sa.mul_unreduced(&sb);
        Fp2Wide {
            c0: v0.wide_sub_offset(&v1, 4),
            c1: s.wide_sub(&v0).wide_sub(&v1),
        }
    }

    /// Multiplies by a base-field scalar.
    pub fn mul_by_fp(&self, k: &Fp) -> Self {
        Self {
            c0: self.c0.mul(k),
            c1: self.c1.mul(k),
        }
    }

    /// Multiplies by the sextic non-residue `ξ = 1 + u`
    /// (`(c0 - c1) + (c0 + c1)u`).
    pub fn mul_by_nonresidue(&self) -> Self {
        Self {
            c0: self.c0.sub(&self.c1),
            c1: self.c0.add(&self.c1),
        }
    }

    /// Complex conjugation `c0 - c1·u`, the Frobenius endomorphism on
    /// `Fp2` (because `p ≡ 3 mod 4`).
    pub fn conjugate(&self) -> Self {
        Self {
            c0: self.c0,
            c1: self.c1.neg(),
        }
    }

    /// Multiplicative inverse via the norm: `(c0 - c1 u) / (c0² + c1²)`.
    pub fn invert(&self) -> Option<Self> {
        let norm = self.c0.square().add(&self.c1.square());
        norm.invert().map(|n| Self {
            c0: self.c0.mul(&n),
            c1: self.c1.neg().mul(&n),
        })
    }

    /// Uniformly random element.
    pub fn random(rng: &mut (impl mccls_rng::RngCore + ?Sized)) -> Self {
        Self {
            c0: Fp::random(rng),
            c1: Fp::random(rng),
        }
    }

    /// Canonical encoding: `c1 || c0`, 96 bytes.
    pub fn to_be_bytes(&self) -> [u8; 96] {
        let mut out = [0u8; 96];
        let (c1_half, c0_half) = out.split_at_mut(48);
        c1_half.copy_from_slice(&self.c1.to_be_bytes());
        c0_half.copy_from_slice(&self.c0.to_be_bytes());
        out
    }

    /// Parses the canonical encoding; `None` if either coefficient is
    /// out of range.
    pub fn from_be_bytes(bytes: &[u8; 96]) -> Option<Self> {
        let (c1_half, c0_half) = bytes.split_at(48);
        let mut c1b = [0u8; 48];
        c1b.copy_from_slice(c1_half);
        let mut c0b = [0u8; 48];
        c0b.copy_from_slice(c0_half);
        let out = Self {
            c0: Fp::from_be_bytes(&c0b)?,
            c1: Fp::from_be_bytes(&c1b)?,
        };
        debug_assert!(out.c0.is_canonical() && out.c1.is_canonical());
        Some(out)
    }

    /// Lexicographic tie-break, extending [`Fp::is_lexicographically_largest`]
    /// to `Fp2` (compare `c1` first, fall back to `c0`).
    pub fn is_lexicographically_largest(&self) -> bool {
        if self.c1.is_zero() {
            self.c0.is_lexicographically_largest()
        } else {
            self.c1.is_lexicographically_largest()
        }
    }
}

/// A double-width unreduced element of `Fp2`: componentwise
/// [`FpWide`] accumulators sharing one magnitude class.
///
/// Produced by [`Fp2::mul_unreduced2`]; the `fp6.rs` Karatsuba chains
/// accumulate several of these (offset arithmetic keeps every
/// component non-negative) before a single
/// [`Fp2Wide::montgomery_reduce2`] folds each coefficient back to a
/// canonical [`Fp`] — two Montgomery passes where the eager chain
/// pays two per product.
#[derive(Copy, Clone, Debug)]
pub struct Fp2Wide {
    /// Real-part accumulator.
    pub c0: FpWide,
    /// `u`-coefficient accumulator.
    pub c1: FpWide,
}

impl Fp2Wide {
    /// Componentwise wide addition; classes add.
    #[inline]
    pub fn wide_add2(&self, other: &Self) -> Self {
        Self {
            c0: self.c0.wide_add(&other.c0),
            c1: self.c1.wide_add(&other.c1),
        }
    }

    /// Componentwise `self + k·p² - other`; sound when `k` is at least
    /// `other`'s class (lint-enforced), emitting class `N + k`.
    #[inline]
    pub fn wide_sub2(&self, other: &Self, k: u64) -> Self {
        Self {
            c0: self.c0.wide_sub_offset(&other.c0, k),
            c1: self.c1.wide_sub_offset(&other.c1, k),
        }
    }

    /// Multiplies by the sextic non-residue `ξ = 1 + u` without
    /// reducing: `(c0 + k·p² - c1, c0 + c1)`. `k` must be at least
    /// `self`'s class (lint-enforced); the result's class is `N + k`.
    #[inline]
    pub fn wide_nonresidue2(&self, k: u64) -> Self {
        Self {
            c0: self.c0.wide_sub_offset(&self.c1, k),
            c1: self.c0.wide_add(&self.c1),
        }
    }

    /// Folds both accumulators back to a canonical [`Fp2`] with one
    /// Montgomery pass per coefficient.
    #[inline]
    pub fn montgomery_reduce2(&self) -> Fp2 {
        Fp2 {
            c0: self.c0.montgomery_reduce(),
            c1: self.c1.montgomery_reduce(),
        }
    }
}

impl Field for Fp2 {
    fn zero() -> Self {
        Self::zero()
    }
    fn one() -> Self {
        Self::one()
    }
    fn is_zero(&self) -> bool {
        self.is_zero()
    }
    fn add(&self, other: &Self) -> Self {
        self.add(other)
    }
    fn sub(&self, other: &Self) -> Self {
        self.sub(other)
    }
    fn mul(&self, other: &Self) -> Self {
        self.mul(other)
    }
    fn square(&self) -> Self {
        self.square()
    }
    fn double(&self) -> Self {
        self.double()
    }
    fn neg(&self) -> Self {
        self.neg()
    }
    fn invert(&self) -> Option<Self> {
        self.invert()
    }
    fn random(rng: &mut (impl mccls_rng::RngCore + ?Sized)) -> Self {
        Self::random(rng)
    }
    fn ct_select(a: &Self, b: &Self, choice: crate::ct::Choice) -> Self {
        Self {
            c0: Fp::ct_select(&a.c0, &b.c0, choice),
            c1: Fp::ct_select(&a.c1, &b.c1, choice),
        }
    }
    fn ct_eq(&self, other: &Self) -> crate::ct::Choice {
        self.c0.ct_eq(&other.c0).and(self.c1.ct_eq(&other.c1))
    }
}

impl core::fmt::Debug for Fp2 {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "({:?} + {:?}*u)", self.c0, self.c1)
    }
}

field_operators!(Fp2);

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // tests may panic freely
mod tests {
    use super::*;

    /// Runs `body` on `n` random elements drawn from a fixed seed.
    fn for_random_fp2(n: usize, seed: u64, mut body: impl FnMut(Fp2, Fp2, Fp2)) {
        let mut rng = <mccls_rng::rngs::StdRng as mccls_rng::SeedableRng>::seed_from_u64(seed);
        for _ in 0..n {
            body(
                Fp2::random(&mut rng),
                Fp2::random(&mut rng),
                Fp2::random(&mut rng),
            );
        }
    }

    #[test]
    fn u_squared_is_minus_one() {
        let u = Fp2::new(Fp::zero(), Fp::one());
        assert_eq!(u.square(), Fp2::one().neg());
    }

    #[test]
    fn nonresidue_matches_explicit_mul() {
        let xi = Fp2::new(Fp::one(), Fp::one());
        let mut rng = <mccls_rng::rngs::StdRng as mccls_rng::SeedableRng>::seed_from_u64(9);
        for _ in 0..10 {
            let a = Fp2::random(&mut rng);
            assert_eq!(a.mul_by_nonresidue(), a.mul(&xi));
        }
    }

    #[test]
    fn conjugate_fixes_base_field() {
        let a = Fp2::from_fp(Fp::from_u64(7));
        assert_eq!(a.conjugate(), a);
    }

    #[test]
    fn conjugation_is_frobenius() {
        // conj(a) == a^p must hold for the Frobenius endomorphism.
        let mut rng = <mccls_rng::rngs::StdRng as mccls_rng::SeedableRng>::seed_from_u64(10);
        let a = Fp2::random(&mut rng);
        assert_eq!(a.conjugate(), Field::pow(&a, &Fp::MODULUS));
    }

    #[test]
    fn ring_axioms() {
        for_random_fp2(32, 0xC0, |a, b, c| {
            assert_eq!(a.mul(&b), b.mul(&a));
            assert_eq!(a.mul(&b).mul(&c), a.mul(&b.mul(&c)));
            assert_eq!(a.mul(&b.add(&c)), a.mul(&b).add(&a.mul(&c)));
            assert_eq!(a.square(), a.mul(&a));
        });
    }

    #[test]
    fn inverse() {
        for_random_fp2(32, 0xC1, |a, _, _| {
            if a.is_zero() {
                return;
            }
            assert_eq!(a.mul(&a.invert().unwrap()), Fp2::one());
        });
    }

    #[test]
    fn bytes_round_trip() {
        for_random_fp2(32, 0xC2, |a, _, _| {
            assert_eq!(Fp2::from_be_bytes(&a.to_be_bytes()), Some(a));
        });
    }

    #[test]
    fn lazy_matches_eager_bit_for_bit() {
        for_random_fp2(64, 0xC3, |a, b, _| {
            assert_eq!(a.mul(&b), a.mul_eager(&b));
            assert_eq!(a.square(), a.square_eager());
            assert_eq!(a.square(), a.mul(&a));
        });
    }

    #[test]
    fn unreduced_helpers_accumulate_correctly() {
        for_random_fp2(32, 0xC4, |a, b, c| {
            // a·b + a·c with one reduction pair == eager distribution.
            let lazy = a
                .mul_unreduced2(&b)
                .wide_add2(&a.mul_unreduced2(&c))
                .montgomery_reduce2();
            assert_eq!(lazy, a.mul(&b).add(&a.mul(&c)));
            // (a·b - a·c)·ξ, offsets sized for canonical inputs.
            let lazy_xi = a
                .mul_unreduced2(&b)
                .wide_sub2(&a.mul_unreduced2(&c), 5)
                .wide_nonresidue2(10)
                .montgomery_reduce2();
            assert_eq!(lazy_xi, a.mul(&b).sub(&a.mul(&c)).mul_by_nonresidue());
        });
    }
}
