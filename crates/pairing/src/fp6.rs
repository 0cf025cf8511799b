//! The cubic extension `Fp6 = Fp2[v] / (v³ - ξ)` with `ξ = 1 + u`.

use crate::field::{field_operators, Field};
use crate::fp2::Fp2;

/// An element `c0 + c1·v + c2·v²` of `Fp6`, with `v³ = ξ = 1 + u`.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Default)]
pub struct Fp6 {
    /// Constant coefficient.
    pub c0: Fp2,
    /// Coefficient of `v`.
    pub c1: Fp2,
    /// Coefficient of `v²`.
    pub c2: Fp2,
}

impl Fp6 {
    /// Builds an element from its three coefficients.
    pub const fn new(c0: Fp2, c1: Fp2, c2: Fp2) -> Self {
        Self { c0, c1, c2 }
    }

    /// The zero element.
    pub const fn zero() -> Self {
        Self {
            c0: Fp2::zero(),
            c1: Fp2::zero(),
            c2: Fp2::zero(),
        }
    }

    /// The one element.
    pub fn one() -> Self {
        Self {
            c0: Fp2::one(),
            c1: Fp2::zero(),
            c2: Fp2::zero(),
        }
    }

    /// Embeds an `Fp2` element.
    pub fn from_fp2(c0: Fp2) -> Self {
        Self {
            c0,
            c1: Fp2::zero(),
            c2: Fp2::zero(),
        }
    }

    /// True for the additive identity.
    pub fn is_zero(&self) -> bool {
        // ct-ok: short-circuit zero predicate; a secret-dependent
        // branch on its result is reported at the caller
        self.c0.is_zero() && self.c1.is_zero() && self.c2.is_zero()
    }

    /// Component-wise addition.
    pub fn add(&self, other: &Self) -> Self {
        Self {
            c0: self.c0.add(&other.c0),
            c1: self.c1.add(&other.c1),
            c2: self.c2.add(&other.c2),
        }
    }

    /// Component-wise subtraction.
    pub fn sub(&self, other: &Self) -> Self {
        Self {
            c0: self.c0.sub(&other.c0),
            c1: self.c1.sub(&other.c1),
            c2: self.c2.sub(&other.c2),
        }
    }

    /// Doubling.
    pub fn double(&self) -> Self {
        Self {
            c0: self.c0.double(),
            c1: self.c1.double(),
            c2: self.c2.double(),
        }
    }

    /// Additive inverse.
    pub fn neg(&self) -> Self {
        Self {
            c0: self.c0.neg(),
            c1: self.c1.neg(),
            c2: self.c2.neg(),
        }
    }

    /// Karatsuba multiplication with `v³ = ξ` folds: six `Fp2`
    /// products.
    pub fn mul(&self, other: &Self) -> Self {
        let a = self;
        let b = other;
        let v0 = a.c0.mul(&b.c0);
        let v1 = a.c1.mul(&b.c1);
        let v2 = a.c2.mul(&b.c2);
        // c0 = v0 + ξ((a1+a2)(b1+b2) - v1 - v2)
        let c0 =
            a.c1.add(&a.c2)
                .mul(&b.c1.add(&b.c2))
                .sub(&v1)
                .sub(&v2)
                .mul_by_nonresidue()
                .add(&v0);
        // c1 = (a0+a1)(b0+b1) - v0 - v1 + ξ v2
        let c1 =
            a.c0.add(&a.c1)
                .mul(&b.c0.add(&b.c1))
                .sub(&v0)
                .sub(&v1)
                .add(&v2.mul_by_nonresidue());
        // c2 = (a0+a2)(b0+b2) - v0 - v2 + v1
        let c2 =
            a.c0.add(&a.c2)
                .mul(&b.c0.add(&b.c2))
                .sub(&v0)
                .sub(&v2)
                .add(&v1);
        Self { c0, c1, c2 }
    }

    /// Squaring, as the symmetric product.
    pub fn square(&self) -> Self {
        self.mul(self)
    }

    /// Sparse multiplication by `b·v + c·v²` (constant coefficient
    /// zero), the Miller-loop line shape.
    pub fn mul_by_0bc(&self, b: &Fp2, c: &Fp2) -> Self {
        Self {
            c0: self.c1.mul(c).add(&self.c2.mul(b)).mul_by_nonresidue(),
            c1: self.c0.mul(b).add(&self.c2.mul(c).mul_by_nonresidue()),
            c2: self.c0.mul(c).add(&self.c1.mul(b)),
        }
    }

    /// Multiplies by `v`, i.e. `(ξ·c2, c0, c1)`.
    pub fn mul_by_v(&self) -> Self {
        Self {
            c0: self.c2.mul_by_nonresidue(),
            c1: self.c0,
            c2: self.c1,
        }
    }

    /// Multiplies by an `Fp2` scalar.
    pub fn mul_by_fp2(&self, k: &Fp2) -> Self {
        Self {
            c0: self.c0.mul(k),
            c1: self.c1.mul(k),
            c2: self.c2.mul(k),
        }
    }

    /// Multiplicative inverse (standard cubic-extension formula).
    pub fn invert(&self) -> Option<Self> {
        let t0 = self
            .c0
            .square()
            .sub(&self.c1.mul(&self.c2).mul_by_nonresidue());
        let t1 = self
            .c2
            .square()
            .mul_by_nonresidue()
            .sub(&self.c0.mul(&self.c1));
        let t2 = self.c1.square().sub(&self.c0.mul(&self.c2));
        let denom = self
            .c0
            .mul(&t0)
            .add(&self.c2.mul(&t1).mul_by_nonresidue())
            .add(&self.c1.mul(&t2).mul_by_nonresidue());
        denom.invert().map(|d| Self {
            c0: t0.mul(&d),
            c1: t1.mul(&d),
            c2: t2.mul(&d),
        })
    }

    /// Uniformly random element.
    pub fn random(rng: &mut (impl mccls_rng::RngCore + ?Sized)) -> Self {
        Self {
            c0: Fp2::random(rng),
            c1: Fp2::random(rng),
            c2: Fp2::random(rng),
        }
    }
}

impl Field for Fp6 {
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
            c0: Field::ct_select(&a.c0, &b.c0, choice),
            c1: Field::ct_select(&a.c1, &b.c1, choice),
            c2: Field::ct_select(&a.c2, &b.c2, choice),
        }
    }
    fn ct_eq(&self, other: &Self) -> crate::ct::Choice {
        Field::ct_eq(&self.c0, &other.c0)
            .and(Field::ct_eq(&self.c1, &other.c1))
            .and(Field::ct_eq(&self.c2, &other.c2))
    }
}

impl core::fmt::Debug for Fp6 {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "({:?} + {:?}*v + {:?}*v^2)", self.c0, self.c1, self.c2)
    }
}

field_operators!(Fp6);

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // tests may panic freely
mod tests {
    use super::*;
    use crate::fp::Fp;
    use mccls_rng::SeedableRng;

    /// Runs `body` on `n` random elements drawn from a fixed seed.
    fn for_random_fp6(n: usize, seed: u64, mut body: impl FnMut(Fp6, Fp6, Fp6)) {
        let mut rng = mccls_rng::rngs::StdRng::seed_from_u64(seed);
        for _ in 0..n {
            body(
                Fp6::random(&mut rng),
                Fp6::random(&mut rng),
                Fp6::random(&mut rng),
            );
        }
    }

    #[test]
    fn v_cubed_is_xi() {
        let v = Fp6::new(Fp2::zero(), Fp2::one(), Fp2::zero());
        let xi = Fp6::from_fp2(Fp2::new(Fp::one(), Fp::one()));
        assert_eq!(v.mul(&v).mul(&v), xi);
    }

    #[test]
    fn mul_by_v_matches_explicit() {
        let mut rng = mccls_rng::rngs::StdRng::seed_from_u64(11);
        let v = Fp6::new(Fp2::zero(), Fp2::one(), Fp2::zero());
        for _ in 0..10 {
            let a = Fp6::random(&mut rng);
            assert_eq!(a.mul_by_v(), a.mul(&v));
        }
    }

    #[test]
    fn ring_axioms() {
        for_random_fp6(24, 0xD0, |a, b, c| {
            assert_eq!(a.mul(&b), b.mul(&a));
            assert_eq!(a.mul(&b).mul(&c), a.mul(&b.mul(&c)));
            assert_eq!(a.mul(&b.add(&c)), a.mul(&b).add(&a.mul(&c)));
            assert_eq!(a.square(), a.mul(&a));
        });
    }

    #[test]
    fn inverse() {
        for_random_fp6(24, 0xD1, |a, _, _| {
            if a.is_zero() {
                return;
            }
            assert_eq!(a.mul(&a.invert().unwrap()), Fp6::one());
        });
    }

    #[test]
    fn sparse_0bc_matches_dense_mul() {
        let mut rng = mccls_rng::rngs::StdRng::seed_from_u64(0xD3);
        for _ in 0..24 {
            let a = Fp6::random(&mut rng);
            let b = Fp2::random(&mut rng);
            let c = Fp2::random(&mut rng);
            let dense = a.mul(&Fp6::new(Fp2::zero(), b, c));
            assert_eq!(a.mul_by_0bc(&b, &c), dense);
        }
    }
}
