//! Generic short-Weierstrass curve arithmetic (`y² = x³ + b`, `a = 0`)
//! shared by G1 (over `Fp`) and G2 (over `Fp2`).
//!
//! Points are held in Jacobian coordinates `(X, Y, Z)` with the affine
//! point `(X/Z², Y/Z³)`; the identity is any point with `Z = 0`.
//!
//! The constant-time multiplications ([`ProjectivePoint::mul_scalar_ct`]
//! and the fixed-base comb, `FixedBaseTable::mul`) run on a second,
//! crate-private form: homogeneous coordinates with the complete
//! Renes–Costello–Batina 2016 formulas, whose field-operation sequence
//! is the same for every input, identity and doubling included.

use crate::ct::{self, Choice};
use crate::field::Field;
use crate::fr::Fr;

/// Static parameters of a concrete curve: its base field, the constant
/// `b`, and a generator of the prime-order subgroup.
pub trait Curve: Copy + Clone + core::fmt::Debug + PartialEq + Eq + Send + Sync + 'static {
    /// Field the coordinates live in.
    type Base: Field;

    /// The curve constant `b` in `y² = x³ + b`.
    fn b() -> Self::Base;

    /// `3b·x`, the one constant product the complete formulas take,
    /// computed by additions.
    fn mul_by_3b(x: &Self::Base) -> Self::Base;

    /// Affine coordinates of the canonical subgroup generator.
    fn generator_affine() -> (Self::Base, Self::Base);
}

/// An affine point, either `(x, y)` on the curve or the identity.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct AffinePoint<C: Curve> {
    /// x-coordinate (unspecified when `infinity` is set).
    pub x: C::Base,
    /// y-coordinate (unspecified when `infinity` is set).
    pub y: C::Base,
    /// Identity flag.
    pub infinity: bool,
}

/// A point in Jacobian projective coordinates.
#[derive(Copy, Clone, Debug)]
pub struct ProjectivePoint<C: Curve> {
    /// Jacobian X.
    pub x: C::Base,
    /// Jacobian Y.
    pub y: C::Base,
    /// Jacobian Z (zero for the identity).
    pub z: C::Base,
}

impl<C: Curve> AffinePoint<C> {
    /// The identity element.
    pub fn identity() -> Self {
        Self {
            x: C::Base::zero(),
            y: C::Base::one(),
            infinity: true,
        }
    }

    /// The subgroup generator.
    pub fn generator() -> Self {
        let (x, y) = C::generator_affine();
        Self {
            x,
            y,
            infinity: false,
        }
    }

    /// True for the identity.
    pub fn is_identity(&self) -> bool {
        self.infinity
    }

    /// Checks `y² = x³ + b` (vacuously true for the identity).
    pub fn is_on_curve(&self) -> bool {
        if self.infinity {
            return true;
        }
        let lhs = self.y.square();
        let rhs = self.x.square().mul(&self.x).add(&C::b());
        lhs == rhs
    }

    /// Negation (mirror in the x-axis).
    pub fn neg(&self) -> Self {
        Self {
            x: self.x,
            y: self.y.neg(),
            infinity: self.infinity,
        }
    }

    /// Lifts to Jacobian coordinates.
    pub fn to_projective(&self) -> ProjectivePoint<C> {
        if self.infinity {
            ProjectivePoint::identity()
        } else {
            ProjectivePoint {
                x: self.x,
                y: self.y,
                z: C::Base::one(),
            }
        }
    }

    /// True when multiplying by the subgroup order gives the identity.
    pub fn is_torsion_free(&self) -> bool {
        self.to_projective().is_torsion_free()
    }
}

impl<C: Curve> ProjectivePoint<C> {
    /// The identity element (`Z = 0`).
    pub fn identity() -> Self {
        Self {
            x: C::Base::one(),
            y: C::Base::one(),
            z: C::Base::zero(),
        }
    }

    /// The subgroup generator.
    pub fn generator() -> Self {
        AffinePoint::<C>::generator().to_projective()
    }

    /// Overwrites the coordinates with zeros, for wiping key material
    /// on drop. `black_box` keeps the dead-store eliminator from
    /// removing a write the optimizer can prove is never read again.
    pub fn zeroize(&mut self) {
        self.x = C::Base::zero();
        self.y = C::Base::zero();
        self.z = C::Base::zero();
        core::hint::black_box(&mut *self);
    }

    /// True for the identity.
    pub fn is_identity(&self) -> bool {
        self.z.is_zero()
    }

    /// Point doubling (`dbl-2009-l`, valid for `a = 0`).
    pub fn double(&self) -> Self {
        // ct-ok: identity short-circuit of the incomplete Jacobian
        // formulas; McCLS's secret multiplications run the complete
        // homogeneous ones, and the gate reaches this only by name, from
        // `.double()` on secret field elements (DESIGN.md §8)
        if self.is_identity() {
            return *self;
        }
        let a = self.x.square();
        let b = self.y.square();
        let c = b.square();
        let d = self.x.add(&b).square().sub(&a).sub(&c).double();
        let e = a.double().add(&a);
        let f = e.square();
        let x3 = f.sub(&d.double());
        let y3 = e.mul(&d.sub(&x3)).sub(&c.double().double().double());
        let z3 = self.y.mul(&self.z).double();
        Self {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// General Jacobian addition (`add-2007-bl` with complete edge-case
    /// handling).
    pub fn add(&self, other: &Self) -> Self {
        // ct-ok: identity short-circuit of the incomplete Jacobian
        // formulas; McCLS's secret multiplications run the complete
        // homogeneous ones, and the gate reaches this by name, from
        // `.add(..)` on secret field elements, and from the baselines'
        // variable-time signing (DESIGN.md §8)
        if self.is_identity() {
            return *other;
        }
        // ct-ok: same incomplete-addition identity handling as above
        if other.is_identity() {
            return *self;
        }
        let z1z1 = self.z.square();
        let z2z2 = other.z.square();
        let u1 = self.x.mul(&z2z2);
        let u2 = other.x.mul(&z1z1);
        let s1 = self.y.mul(&other.z).mul(&z2z2);
        let s2 = other.y.mul(&self.z).mul(&z1z1);
        let h = u2.sub(&u1);
        let rr = s2.sub(&s1).double();
        // ct-ok: doubling/inverse coincidence branch of the incomplete
        // formulas, reached as the identity branches above are
        if h.is_zero() {
            // ct-ok: same coincidence handling as the enclosing branch
            if rr.is_zero() {
                return self.double();
            }
            return Self::identity();
        }
        let i = h.double().square();
        let j = h.mul(&i);
        let v = u1.mul(&i);
        let x3 = rr.square().sub(&j).sub(&v.double());
        let y3 = rr.mul(&v.sub(&x3)).sub(&s1.mul(&j).double());
        let z3 = self.z.add(&other.z).square().sub(&z1z1).sub(&z2z2).mul(&h);
        Self {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// Mixed addition with an affine addend.
    pub fn add_affine(&self, other: &AffinePoint<C>) -> Self {
        self.add(&other.to_projective())
    }

    /// Subtraction.
    pub fn sub(&self, other: &Self) -> Self {
        self.add(&other.neg())
    }

    /// Negation.
    pub fn neg(&self) -> Self {
        Self {
            x: self.x,
            y: self.y.neg(),
            z: self.z,
        }
    }

    /// Scalar multiplication by a field scalar (width-4 signed NAF:
    /// ~255 doublings plus ~51 additions from a 4-entry odd-multiple
    /// table — about 35% fewer additions than plain double-and-add,
    /// which remains available as [`Self::mul_bits`] and is used as the
    /// property-test reference).
    pub fn mul_scalar(&self, k: &Fr) -> Self {
        let digits = wnaf4(&k.to_raw());
        if digits.is_empty() || self.is_identity() {
            return Self::identity();
        }
        // Odd multiples P, 3P, 5P, 7P.
        let twice = self.double();
        let mut table = [*self; 4];
        for i in 1..4 {
            table[i] = table[i - 1].add(&twice);
        }
        let mut acc = Self::identity();
        for &d in digits.iter().rev() {
            acc = acc.double();
            match d.cmp(&0) {
                core::cmp::Ordering::Greater => {
                    // wNAF digits are odd with |d| < 8, so |d| / 2 < 4.
                    acc = acc.add(&table[d as usize / 2]);
                }
                core::cmp::Ordering::Less => {
                    acc = acc.add(&table[(-d) as usize / 2].neg());
                }
                core::cmp::Ordering::Equal => {}
            }
        }
        acc
    }

    /// Scalar multiplication with a uniform schedule, for secret scalars
    /// on a base without a table (user secret values, partial private
    /// keys).
    ///
    /// A fixed 4-bit window: the multiples `0..=15·B` are built once,
    /// and each of the 64 windows runs four complete doublings, a masked
    /// scan of all sixteen multiples and one complete addition
    /// (Renes–Costello–Batina 2016, Algorithms 9 and 7) in homogeneous
    /// coordinates. The complete formulas have no identity or doubling
    /// case, so neither the schedule, the memory reads nor the field
    /// operations depend on the scalar. Fixed-base secrets go through
    /// the comb (`FixedBaseTable::mul`); [`Self::mul_scalar`] (wNAF,
    /// variable schedule) is for public scalars.
    pub fn mul_scalar_ct(&self, k: &Fr) -> Self {
        let base = Homogeneous::from_jacobian(self);
        let mut multiples = [Homogeneous::identity(); 16];
        let mut last = Homogeneous::identity();
        for multiple in multiples.iter_mut().skip(1) {
            last = last.add(&base);
            *multiple = last;
        }
        let mut acc = Homogeneous::identity();
        for &limb in k.to_raw().iter().rev() {
            for shift in (0..64).step_by(4).rev() {
                acc = acc.double().double().double().double();
                let window = (limb >> shift) & 0xF;
                let mut addend = Homogeneous::identity();
                for (j, multiple) in (0u64..).zip(multiples.iter()) {
                    let hit = ct::is_zero_word(j ^ window);
                    addend = Homogeneous::select(&addend, multiple, hit);
                }
                acc = acc.add(&addend);
            }
        }
        acc.to_jacobian()
    }

    /// Scalar multiplication by a little-endian limb slice (used for the
    /// cofactor and the subgroup check).
    pub fn mul_bits(&self, limbs: &[u64]) -> Self {
        let mut acc = Self::identity();
        let mut started = false;
        for &limb in limbs.iter().rev() {
            for i in (0..64).rev() {
                if started {
                    acc = acc.double();
                }
                if (limb >> i) & 1 == 1 {
                    if started {
                        acc = acc.add(self);
                    } else {
                        acc = *self;
                        started = true;
                    }
                }
            }
        }
        if started {
            acc
        } else {
            Self::identity()
        }
    }

    /// Converts to affine coordinates (one field inversion).
    pub fn to_affine(&self) -> AffinePoint<C> {
        // ct-ok: conversion feeds serialization and pairing input
        // preparation of points that are published or verifier-side
        match self.z.invert() {
            None => AffinePoint::identity(),
            Some(zinv) => {
                let zinv2 = zinv.square();
                let zinv3 = zinv2.mul(&zinv);
                AffinePoint {
                    x: self.x.mul(&zinv2),
                    y: self.y.mul(&zinv3),
                    infinity: false,
                }
            }
        }
    }

    /// Normalizes a batch of points with a single inversion
    /// ([`Field::batch_invert`], Montgomery's trick).
    pub fn batch_to_affine(points: &[Self]) -> Vec<AffinePoint<C>> {
        let mut zinvs: Vec<C::Base> = points.iter().map(|p| p.z).collect();
        C::Base::batch_invert(&mut zinvs);
        points
            .iter()
            .zip(&zinvs)
            .map(|(p, zinv)| {
                if p.z.is_zero() {
                    return AffinePoint::identity();
                }
                let zinv2 = zinv.square();
                let zinv3 = zinv2.mul(zinv);
                AffinePoint {
                    x: p.x.mul(&zinv2),
                    y: p.y.mul(&zinv3),
                    infinity: false,
                }
            })
            .collect()
    }

    /// True when multiplying by the subgroup order gives the identity.
    pub fn is_torsion_free(&self) -> bool {
        self.mul_bits(&Fr::MODULUS).is_identity()
    }
}

/// A point in homogeneous projective coordinates `(X : Y : Z)`, the
/// affine point `(X/Z, Y/Z)`; the identity is `(0 : 1 : 0)`.
///
/// The form of the constant-time multiplications: the
/// Renes–Costello–Batina 2016 formulas below (ePrint 2015/1060,
/// Algorithms 7–9 for `a = 0`) are complete, one straight-line
/// sequence of field operations for every pair of inputs.
#[derive(Copy, Clone, Debug)]
pub(crate) struct Homogeneous<C: Curve> {
    x: C::Base,
    y: C::Base,
    z: C::Base,
}

impl<C: Curve> Homogeneous<C> {
    /// The identity `(0 : 1 : 0)`.
    pub(crate) fn identity() -> Self {
        Self {
            x: C::Base::zero(),
            y: C::Base::one(),
            z: C::Base::zero(),
        }
    }

    /// `(X, Y, Z)` Jacobian is `(X·Z : Y : Z³)`; a Jacobian identity
    /// (any `Z = 0`) becomes `(0 : 1 : 0)` by a masked select.
    pub(crate) fn from_jacobian(p: &ProjectivePoint<C>) -> Self {
        let at_infinity = p.z.ct_is_zero();
        Self {
            x: p.x.mul(&p.z),
            y: C::Base::ct_select(&p.y, &C::Base::one(), at_infinity),
            z: p.z.square().mul(&p.z),
        }
    }

    /// `(X : Y : Z)` is `(X·Z, Y·Z², Z)` Jacobian; the identity becomes
    /// `(1, 1, 0)` by a masked select.
    pub(crate) fn to_jacobian(self) -> ProjectivePoint<C> {
        let at_infinity = self.z.ct_is_zero();
        let one = C::Base::one();
        ProjectivePoint {
            x: C::Base::ct_select(&self.x.mul(&self.z), &one, at_infinity),
            y: C::Base::ct_select(&self.y.mul(&self.z.square()), &one, at_infinity),
            z: self.z,
        }
    }

    /// Constant-time two-way select: `b` when `choice` is true, else `a`.
    pub(crate) fn select(a: &Self, b: &Self, choice: Choice) -> Self {
        Self {
            x: C::Base::ct_select(&a.x, &b.x, choice),
            y: C::Base::ct_select(&a.y, &b.y, choice),
            z: C::Base::ct_select(&a.z, &b.z, choice),
        }
    }

    /// Complete addition (Algorithm 7): 12 multiplications, two `3b`
    /// products.
    pub(crate) fn add(&self, other: &Self) -> Self {
        let t0 = self.x.mul(&other.x);
        let t1 = self.y.mul(&other.y);
        let t2 = self.z.mul(&other.z);
        let t3 = self.x.add(&self.y).mul(&other.x.add(&other.y));
        let t3 = t3.sub(&t0.add(&t1));
        let t4 = self.y.add(&self.z).mul(&other.y.add(&other.z));
        let t4 = t4.sub(&t1.add(&t2));
        let y3 = self.x.add(&self.z).mul(&other.x.add(&other.z));
        let y3 = y3.sub(&t0.add(&t2));
        Self::finish(t0, t1, C::mul_by_3b(&t2), t3, t4, y3)
    }

    /// Complete mixed addition of an affine `(x, y)` (Algorithm 8): 11
    /// multiplications, two `3b` products. The affine form cannot hold
    /// the identity, so an identity addend is the caller's to select
    /// around.
    pub(crate) fn add_affine(&self, x: &C::Base, y: &C::Base) -> Self {
        let t0 = self.x.mul(x);
        let t1 = self.y.mul(y);
        let t3 = x.add(y).mul(&self.x.add(&self.y));
        let t3 = t3.sub(&t0.add(&t1));
        let t4 = y.mul(&self.z).add(&self.y);
        let y3 = x.mul(&self.z).add(&self.x);
        Self::finish(t0, t1, C::mul_by_3b(&self.z), t3, t4, y3)
    }

    /// The shared tail of Algorithms 7 and 8 (their steps from
    /// `X3 = t0 + t0` on), with `b3z = 3b·Z1·Z2`.
    fn finish(
        t0: C::Base,
        t1: C::Base,
        b3z: C::Base,
        t3: C::Base,
        t4: C::Base,
        y3: C::Base,
    ) -> Self {
        let t0 = t0.double().add(&t0);
        let z3 = t1.add(&b3z);
        let t1 = t1.sub(&b3z);
        let y3 = C::mul_by_3b(&y3);
        let x3 = t3.mul(&t1).sub(&t4.mul(&y3));
        let y3 = t1.mul(&z3).add(&y3.mul(&t0));
        let z3 = z3.mul(&t4).add(&t0.mul(&t3));
        Self {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// Complete doubling (Algorithm 9): six multiplications, two
    /// squarings, one `3b` product.
    pub(crate) fn double(&self) -> Self {
        let t0 = self.y.square();
        let z3 = t0.double().double().double();
        let t1 = self.y.mul(&self.z);
        let t2 = C::mul_by_3b(&self.z.square());
        let x3 = t2.mul(&z3);
        let y3 = t0.add(&t2);
        let z3 = t1.mul(&z3);
        let t2 = t2.double().add(&t2);
        let t0 = t0.sub(&t2);
        let y3 = x3.add(&t0.mul(&y3));
        let x3 = t0.mul(&self.x.mul(&self.y)).double();
        Self {
            x: x3,
            y: y3,
            z: z3,
        }
    }
}

/// `12·x` by additions, the shared factor of both curves' `3b`.
pub(crate) fn times_twelve<F: Field>(x: &F) -> F {
    let four = x.double().double();
    four.double().add(&four)
}

/// Width-4 signed non-adjacent form of a little-endian scalar.
/// Digits are odd values in `[-7, 7]` or zero, least significant first.
fn wnaf4(limbs: &[u64]) -> Vec<i8> {
    let mut k = limbs.to_vec();
    let mut digits = Vec::with_capacity(64 * limbs.len() + 1);
    let is_zero = |k: &[u64]| k.iter().all(|&l| l == 0);
    while !is_zero(&k) {
        if k[0] & 1 == 1 {
            let mut d = (k[0] & 0xF) as i8;
            if d >= 8 {
                d -= 16;
                // k += |d|
                let mut carry = (-d) as u64;
                for limb in k.iter_mut() {
                    let (v, c) = limb.overflowing_add(carry);
                    *limb = v;
                    carry = c as u64;
                    if carry == 0 {
                        break;
                    }
                }
                if carry != 0 {
                    k.push(carry);
                }
            } else {
                // k -= d (no borrow past the top: k is odd and >= d)
                let mut borrow = d as u64;
                for limb in k.iter_mut() {
                    let (v, b) = limb.overflowing_sub(borrow);
                    *limb = v;
                    borrow = b as u64;
                    if borrow == 0 {
                        break;
                    }
                }
            }
            digits.push(d);
        } else {
            digits.push(0);
        }
        // k >>= 1
        for i in 0..k.len() {
            let hi = if i + 1 < k.len() { k[i + 1] } else { 0 };
            k[i] = (k[i] >> 1) | (hi << 63);
        }
    }
    digits
}

impl<C: Curve> PartialEq for ProjectivePoint<C> {
    fn eq(&self, other: &Self) -> bool {
        // (X1/Z1², Y1/Z1³) == (X2/Z2², Y2/Z2³) without inversions.
        let self_id = self.is_identity();
        let other_id = other.is_identity();
        if self_id || other_id {
            return self_id == other_id;
        }
        let z1z1 = self.z.square();
        let z2z2 = other.z.square();
        self.x.mul(&z2z2) == other.x.mul(&z1z1)
            && self.y.mul(&z2z2.mul(&other.z)) == other.y.mul(&z1z1.mul(&self.z))
    }
}

impl<C: Curve> Eq for ProjectivePoint<C> {}

impl<C: Curve> From<AffinePoint<C>> for ProjectivePoint<C> {
    fn from(p: AffinePoint<C>) -> Self {
        p.to_projective()
    }
}

impl<C: Curve> core::ops::Add for ProjectivePoint<C> {
    type Output = Self;
    fn add(self, rhs: Self) -> Self {
        ProjectivePoint::add(&self, &rhs)
    }
}

impl<C: Curve> core::ops::Sub for ProjectivePoint<C> {
    type Output = Self;
    fn sub(self, rhs: Self) -> Self {
        ProjectivePoint::sub(&self, &rhs)
    }
}

impl<C: Curve> core::ops::Neg for ProjectivePoint<C> {
    type Output = Self;
    fn neg(self) -> Self {
        ProjectivePoint::neg(&self)
    }
}

impl<C: Curve> core::ops::Mul<Fr> for ProjectivePoint<C> {
    type Output = Self;
    fn mul(self, rhs: Fr) -> Self {
        // ct-ok: the `*` operator is the documented variable-time
        // convenience; secret scalars go through the ct ladder or comb
        self.mul_scalar(&rhs)
    }
}

impl<C: Curve> core::ops::Mul<&Fr> for ProjectivePoint<C> {
    type Output = Self;
    fn mul(self, rhs: &Fr) -> Self {
        // ct-ok: the `*` operator is the documented variable-time
        // convenience; secret scalars go through the ct ladder or comb
        self.mul_scalar(rhs)
    }
}

impl<C: Curve> core::ops::AddAssign for ProjectivePoint<C> {
    fn add_assign(&mut self, rhs: Self) {
        *self = ProjectivePoint::add(self, &rhs);
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // tests may panic freely
mod tests {
    use super::*;
    use crate::g1::G1Params;
    use crate::g2::G2Params;
    use mccls_rng::SeedableRng;

    /// Every sum and double of the edge points (identity, `G`, `-G`,
    /// `2G` and a random multiple) through the complete formulas equals
    /// the Jacobian formulas' result, and `mul_by_3b` is `3b·x`.
    fn complete_formulas_agree_with_jacobian<C: Curve>(seed: u64) {
        let mut rng = mccls_rng::rngs::StdRng::seed_from_u64(seed);
        let g = ProjectivePoint::<C>::generator();
        let points = [
            ProjectivePoint::identity(),
            g,
            g.neg(),
            g.double(),
            g.mul_scalar(&Fr::random(&mut rng)),
        ];
        for a in &points {
            let ha = Homogeneous::from_jacobian(a);
            assert_eq!(ha.double().to_jacobian(), a.double());
            assert_eq!(ha.to_jacobian(), *a);
            for b in &points {
                let sum = ha.add(&Homogeneous::from_jacobian(b)).to_jacobian();
                assert_eq!(sum, a.add(b));
                let affine = b.to_affine();
                if !affine.infinity {
                    assert_eq!(ha.add_affine(&affine.x, &affine.y).to_jacobian(), a.add(b));
                }
            }
        }
        let x = C::Base::random(&mut rng);
        let three_b = C::b().double().add(&C::b());
        assert_eq!(C::mul_by_3b(&x), x.mul(&three_b));
    }

    #[test]
    fn complete_formulas_agree_with_jacobian_on_edge_points() {
        complete_formulas_agree_with_jacobian::<G1Params>(0xC0);
        complete_formulas_agree_with_jacobian::<G2Params>(0xC1);
    }
}
