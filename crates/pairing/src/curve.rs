//! Generic short-Weierstrass curve arithmetic (`y² = x³ + b`, `a = 0`)
//! shared by G1 (over `Fp`) and G2 (over `Fp2`).
//!
//! Points are held in Jacobian coordinates `(X, Y, Z)` with the affine
//! point `(X/Z², Y/Z³)`; the identity is any point with `Z = 0`.

use crate::field::Field;
use crate::fr::Fr;

/// Static parameters of a concrete curve: its base field, the constant
/// `b`, and a generator of the prime-order subgroup.
pub trait Curve: Copy + Clone + core::fmt::Debug + PartialEq + Eq + Send + Sync + 'static {
    /// Field the coordinates live in.
    type Base: Field;

    /// The curve constant `b` in `y² = x³ + b`.
    fn b() -> Self::Base;

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

    /// Builds a point from coordinates after checking the curve equation.
    pub fn from_xy(x: C::Base, y: C::Base) -> Option<Self> {
        let p = Self {
            x,
            y,
            infinity: false,
        };
        p.is_on_curve().then_some(p)
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
        core::hint::black_box(&mut self.z);
    }

    /// True for the identity.
    pub fn is_identity(&self) -> bool {
        self.z.is_zero()
    }

    /// Point doubling (`dbl-2009-l`, valid for `a = 0`).
    pub fn double(&self) -> Self {
        // ct-ok: identity short-circuit of the incomplete Jacobian
        // formulas; on the ct ladder it leaks at most the scalar's
        // top-bit position, which is near-constant for uniform nonzero
        // scalars (DESIGN.md §8)
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
        // formulas; on the ct ladder it leaks at most the scalar's
        // top-bit position (DESIGN.md §8)
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
        // formulas; reachable with uniform operands with probability
        // ~2^-255 (DESIGN.md §8)
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
            // lint:allow(panic) i - 1 < 4 for i in 1..4
            table[i] = table[i - 1].add(&twice);
        }
        let mut acc = Self::identity();
        for &d in digits.iter().rev() {
            acc = acc.double();
            match d.cmp(&0) {
                core::cmp::Ordering::Greater => {
                    // lint:allow(panic) wNAF digits are odd with |d| < 8
                    acc = acc.add(&table[d as usize / 2]);
                }
                core::cmp::Ordering::Less => {
                    // lint:allow(panic) wNAF digits are odd with |d| < 8
                    acc = acc.add(&table[(-d) as usize / 2].neg());
                }
                core::cmp::Ordering::Equal => {}
            }
        }
        acc
    }

    /// Constant-time two-way select: `b` when `choice` is true, else
    /// `a`, applied coordinate-wise.
    pub fn ct_select(a: &Self, b: &Self, choice: crate::ct::Choice) -> Self {
        Self {
            x: C::Base::ct_select(&a.x, &b.x, choice),
            y: C::Base::ct_select(&a.y, &b.y, choice),
            z: C::Base::ct_select(&a.z, &b.z, choice),
        }
    }

    /// Scalar multiplication with a uniform double-and-add-always
    /// schedule, for secret scalars (signing nonces, user secret values,
    /// partial private keys).
    ///
    /// Every one of the 256 iterations performs exactly one doubling and
    /// one addition; the scalar bit only chooses — via
    /// [`Self::ct_select`] — which result to keep, so the *schedule* of
    /// group operations never depends on the scalar. Residual caveat:
    /// the Jacobian addition formulas themselves are not complete (they
    /// shortcut on identity and doubling inputs), so the identity fast
    /// path still fires during the scalar's leading zero window. This
    /// narrows the leak to roughly the scalar's bit length rather than
    /// its bit pattern; [`Self::mul_scalar`] (wNAF, variable schedule)
    /// remains the right choice for public scalars.
    pub fn mul_scalar_ct(&self, k: &Fr) -> Self {
        let limbs = k.to_raw();
        let mut acc = Self::identity();
        for &limb in limbs.iter().rev() {
            for i in (0..64).rev() {
                acc = acc.double();
                let sum = acc.add(self);
                let bit = crate::ct::Choice::from_lsb(limb >> i);
                acc = Self::ct_select(&acc, &sum, bit);
            }
        }
        acc
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
            // lint:allow(panic) guarded by i + 1 < k.len()
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
        // convenience; secret scalars go through mul_g1_ct/mul_g2_ct
        self.mul_scalar(&rhs)
    }
}

impl<C: Curve> core::ops::Mul<&Fr> for ProjectivePoint<C> {
    type Output = Self;
    fn mul(self, rhs: &Fr) -> Self {
        // ct-ok: the `*` operator is the documented variable-time
        // convenience; secret scalars go through mul_g1_ct/mul_g2_ct
        self.mul_scalar(rhs)
    }
}

impl<C: Curve> core::ops::AddAssign for ProjectivePoint<C> {
    fn add_assign(&mut self, rhs: Self) {
        *self = ProjectivePoint::add(self, &rhs);
    }
}
