//! The [`Field`] abstraction and the [`montgomery_field!`] macro that
//! generates Montgomery-form prime fields from nothing but their modulus.
//!
//! All derived constants (`-p^{-1} mod 2^64`, `R^2 mod p`, the Fermat and
//! square-root exponents) are computed at compile time by `const fn`s in
//! [`crate::arith`], so the only trusted input per field is the modulus
//! itself.

/// Operations common to every field in the tower (`Fp`, `Fp2`, `Fp6`,
/// `Fp12`) and the scalar field `Fr`.
///
/// The methods mirror what generic curve and pairing code needs; concrete
/// types additionally implement the `std::ops` operators for ergonomics.
pub trait Field: Copy + Clone + core::fmt::Debug + PartialEq + Eq + Send + Sync + 'static {
    /// Additive identity.
    fn zero() -> Self;
    /// Multiplicative identity.
    fn one() -> Self;
    /// Returns true for the additive identity.
    fn is_zero(&self) -> bool;
    /// Field addition.
    fn add(&self, other: &Self) -> Self;
    /// Field subtraction.
    fn sub(&self, other: &Self) -> Self;
    /// Field multiplication.
    fn mul(&self, other: &Self) -> Self;
    /// Squaring (may be faster than `mul(self, self)`).
    fn square(&self) -> Self;
    /// Doubling.
    fn double(&self) -> Self;
    /// Additive inverse.
    fn neg(&self) -> Self;
    /// Multiplicative inverse; `None` for zero.
    fn invert(&self) -> Option<Self>;
    /// Uniformly random element.
    fn random(rng: &mut (impl mccls_rng::RngCore + ?Sized)) -> Self;
    /// Constant-time two-way select: `b` when `choice` is true, else `a`.
    ///
    /// Both inputs are read unconditionally; tower fields select
    /// component-wise so no coefficient's access pattern depends on the
    /// choice.
    fn ct_select(a: &Self, b: &Self, choice: crate::ct::Choice) -> Self;
    /// Constant-time equality over the internal representation.
    fn ct_eq(&self, other: &Self) -> crate::ct::Choice;

    /// Constant-time zero test.
    fn ct_is_zero(&self) -> crate::ct::Choice {
        self.ct_eq(&Self::zero())
    }

    /// Inverts every nonzero element of `slice` in place with a single
    /// field inversion (Montgomery's trick); zeros are left unchanged.
    ///
    /// Three multiplications per element replace one inversion each, so
    /// mass normalization (`batch_to_affine`, fixed-base table
    /// construction) pays for exactly one `invert` no matter how long
    /// the slice is — the `tables.*` budgets of `opcount-budgets.toml`
    /// count it at runtime.
    fn batch_invert(slice: &mut [Self]) {
        // Prefix products of the nonzero entries.
        let mut prefix = Vec::with_capacity(slice.len());
        let mut acc = Self::one();
        for v in slice.iter() {
            prefix.push(acc);
            if !v.is_zero() {
                acc = acc.mul(v);
            }
        }
        let mut inv = match acc.invert() {
            // `acc` is a product of nonzero factors (or one), so this
            // arm is unreachable; returning leaves the slice untouched.
            None => return,
            Some(i) => i,
        };
        // Reverse sweep: peel one factor per step, exactly as
        // `batch_to_affine` did before this helper was hoisted out.
        for (i, v) in slice.iter_mut().enumerate().rev() {
            if v.is_zero() {
                continue;
            }
            let vi = inv.mul(&prefix[i]);
            inv = inv.mul(v);
            *v = vi;
        }
    }

    /// Exponentiation by a little-endian limb slice.
    fn pow(&self, exp: &[u64]) -> Self {
        let mut res = Self::one();
        let mut started = false;
        for &limb in exp.iter().rev() {
            for i in (0..64).rev() {
                if started {
                    res = res.square();
                }
                if (limb >> i) & 1 == 1 {
                    if started {
                        res = res.mul(self);
                    } else {
                        res = *self;
                        started = true;
                    }
                }
            }
        }
        res
    }
}

/// Generates a Montgomery-form prime field type.
///
/// `$name` is the type, `$n` the limb count (little-endian `u64`), and
/// `$modulus` the prime. Values are kept reduced (`< p`) in Montgomery form
/// at all times, so derived `PartialEq`/`Hash` agree with field equality.
macro_rules! montgomery_field {
    ($(#[$attr:meta])* $name:ident, $n:expr, $modulus:expr) => {
        $(#[$attr])*
        #[derive(Copy, Clone, PartialEq, Eq, Hash, Default)]
        pub struct $name([u64; $n]);

        impl $name {
            /// The field modulus, little-endian.
            pub const MODULUS: [u64; $n] = $modulus;
            /// `-p^{-1} mod 2^64` for Montgomery reduction.
            const INV: u64 = $crate::arith::mont_inv64(Self::MODULUS[0]);
            /// `R^2 mod p`, the to-Montgomery conversion factor.
            const R2: [u64; $n] = $crate::arith::compute_r2::<$n>(&Self::MODULUS);
            /// `p - 2`, the Fermat inversion exponent.
            pub const MODULUS_MINUS_2: [u64; $n] =
                $crate::arith::sub_small::<$n>(&Self::MODULUS, 2);
            /// Canonical byte length of an encoded element.
            pub const BYTES: usize = 8 * $n;
            /// Number of 64-bit limbs.
            pub const LIMBS: usize = $n;
            /// Headroom bits: `64·n` minus the modulus bit length.
            ///
            /// [`Self::add`] drops its defensive carry check whenever
            /// at least two bits are free.
            pub const HEADROOM_BITS: usize =
                64 * $n - $crate::arith::limb_bit_len::<$n>(&Self::MODULUS);
            /// Whether two headroom bits exist, making carry-out of a
            /// single limb addition impossible even for operands below
            /// `2p`.
            const CARRY_FREE_ADD: bool = Self::HEADROOM_BITS >= 2;

            /// The zero element.
            #[inline]
            pub const fn zero() -> Self {
                Self([0u64; $n])
            }

            /// Overwrites the limbs with zeros, for wiping key
            /// material on drop. `black_box` keeps the dead-store
            /// eliminator from removing a write the optimizer can
            /// prove is never read again.
            pub fn zeroize(&mut self) {
                self.0 = [0u64; $n];
                core::hint::black_box(&mut self.0);
            }

            /// The one element (Montgomery form of 1).
            #[inline]
            pub fn one() -> Self {
                Self::from_raw({
                    let mut one = [0u64; $n];
                    one[0] = 1;
                    one
                })
            }

            /// Builds a field element from canonical (non-Montgomery)
            /// little-endian limbs. The value is reduced if necessary.
            pub fn from_raw(raw: [u64; $n]) -> Self {
                let mut v = raw;
                // ct-ok: canonical reduction of sampler output or
                // decoded constants; the iteration count depends only
                // on the public headroom, not the residue
                while $crate::arith::geq(&v, &Self::MODULUS) {
                    v = $crate::arith::sub_limbs(&v, &Self::MODULUS);
                }
                Self(Self::mont_mul(&v, &Self::R2))
            }

            /// Converts a small integer.
            pub fn from_u64(v: u64) -> Self {
                let mut raw = [0u64; $n];
                raw[0] = v;
                Self::from_raw(raw)
            }

            /// Returns the canonical little-endian limb representation.
            pub fn to_raw(&self) -> [u64; $n] {
                let mut one = [0u64; $n];
                one[0] = 1;
                Self::mont_mul(&self.0, &one)
            }

            /// Canonical big-endian byte encoding.
            pub fn to_be_bytes(&self) -> [u8; 8 * $n] {
                let raw = self.to_raw();
                let mut out = [0u8; 8 * $n];
                for (chunk, limb) in out.chunks_exact_mut(8).zip(raw.iter().rev()) {
                    chunk.copy_from_slice(&limb.to_be_bytes());
                }
                out
            }

            /// Parses a canonical big-endian encoding.
            ///
            /// Returns `None` when the value is not fully reduced
            /// (`>= p`), making the encoding injective.
            pub fn from_be_bytes(bytes: &[u8; 8 * $n]) -> Option<Self> {
                let mut raw = [0u64; $n];
                // Big-endian input: the last 8 bytes are limb 0.
                for (limb, chunk) in raw.iter_mut().zip(bytes.rchunks_exact(8)) {
                    let mut b = [0u8; 8];
                    b.copy_from_slice(chunk);
                    *limb = u64::from_be_bytes(b);
                }
                if $crate::arith::geq(&raw, &Self::MODULUS)
                    && raw != Self::MODULUS
                {
                    return None;
                }
                if raw == Self::MODULUS {
                    return None;
                }
                Some(Self::from_raw(raw))
            }

            /// Interprets arbitrarily many big-endian bytes as an integer
            /// and reduces it modulo `p` (Horner's rule). Suitable for
            /// hash-to-field.
            pub fn from_be_bytes_mod(bytes: &[u8]) -> Self {
                let base = Self::from_u64(256);
                let mut acc = Self::zero();
                for &b in bytes {
                    acc = acc.mul(&base).add(&Self::from_u64(b as u64));
                }
                acc
            }

            /// True for the additive identity.
            #[inline]
            pub fn is_zero(&self) -> bool {
                self.0 == [0u64; $n]
            }

            /// Field addition.
            #[inline]
            pub fn add(&self, other: &Self) -> Self {
                let mut out = [0u64; $n];
                let mut carry = 0u64;
                for i in 0..$n {
                    let (v, c) = $crate::arith::adc(self.0[i], other.0[i], carry);
                    out[i] = v;
                    carry = c;
                }
                // With two or more headroom bits the sum of two
                // operands below `2p` cannot carry out of the top limb,
                // so the check is compile-time dead and folds away
                // (Fp: 3 bits). A single headroom bit only covers
                // canonical operands, so a thin modulus (Fr: 1 bit)
                // keeps the defensive carry test.
                // ct-ok: backs the documented conditional-subtraction
                // normalization, like `arith::geq` (DESIGN.md §8)
                if (!Self::CARRY_FREE_ADD && carry != 0)
                    || $crate::arith::geq(&out, &Self::MODULUS) // ct-ok: same normalization
                {
                    out = $crate::arith::sub_limbs(&out, &Self::MODULUS);
                }
                Self(out)
            }

            /// Field subtraction.
            #[inline]
            pub fn sub(&self, other: &Self) -> Self {
                let mut out = [0u64; $n];
                let mut borrow = 0u64;
                for i in 0..$n {
                    let (v, b) = $crate::arith::sbb(self.0[i], other.0[i], borrow);
                    out[i] = v;
                    borrow = b;
                }
                // ct-ok: backs the documented conditional-subtraction
                // normalization, like `arith::geq` (DESIGN.md §8)
                if borrow != 0 {
                    let mut carry = 0u64;
                    for i in 0..$n {
                        let (v, c) =
                            $crate::arith::adc(out[i], Self::MODULUS[i], carry);
                        out[i] = v;
                        carry = c;
                    }
                }
                Self(out)
            }

            /// Doubling.
            #[inline]
            pub fn double(&self) -> Self {
                self.add(self)
            }

            /// Additive inverse.
            #[inline]
            pub fn neg(&self) -> Self {
                // ct-ok: leaks only operand-is-zero; secret scalars are
                // nonzero by construction (random_nonzero)
                if self.is_zero() {
                    *self
                } else {
                    Self($crate::arith::sub_limbs(&Self::MODULUS, &self.0))
                }
            }

            /// Field multiplication (Montgomery CIOS).
            #[inline]
            pub fn mul(&self, other: &Self) -> Self {
                Self(Self::mont_mul(&self.0, &other.0))
            }

            /// Squaring.
            #[inline]
            pub fn square(&self) -> Self {
                self.mul(self)
            }

            /// Multiplicative inverse; `None` for zero.
            ///
            /// Uses the binary extended Euclidean algorithm on the
            /// Montgomery representative: `(aR)^{-1} = a^{-1}R^{-1}`,
            /// restored to Montgomery form by two multiplications by
            /// `R²`. Agreement with [`Self::invert_ct`] (`a^{p-2}`) is
            /// covered by property tests.
            pub fn invert(&self) -> Option<Self> {
                let raw_inv =
                    $crate::arith::mod_inverse(&self.0, &Self::MODULUS)?;
                let t = Self::mont_mul(&raw_inv, &Self::R2);
                Some(Self(Self::mont_mul(&t, &Self::R2)))
            }

            /// Uniformly random element (rejection-free wide reduction).
            pub fn random(rng: &mut (impl mccls_rng::RngCore + ?Sized)) -> Self {
                let mut wide = [0u8; 16 * $n];
                rng.fill_bytes(&mut wide);
                Self::from_be_bytes_mod(&wide)
            }

            /// Constant-time two-way select: `b` when `choice` is true,
            /// else `a`. Reads both inputs unconditionally.
            #[inline]
            pub fn ct_select(a: &Self, b: &Self, choice: $crate::ct::Choice) -> Self {
                Self($crate::ct::select_limbs(&a.0, &b.0, choice))
            }

            /// Constant-time equality on the Montgomery representatives.
            ///
            /// Representatives are kept canonical (`< p`), so this agrees
            /// with field equality.
            #[inline]
            pub fn ct_eq(&self, other: &Self) -> $crate::ct::Choice {
                $crate::ct::eq_limbs(&self.0, &other.0)
            }

            /// Constant-time zero test.
            #[inline]
            pub fn ct_is_zero(&self) -> $crate::ct::Choice {
                self.ct_eq(&Self::zero())
            }

            /// True when the internal representative is fully reduced
            /// (`< p`). Every constructor maintains this; the accessor
            /// exists so callers can `debug_assert!` it at trust
            /// boundaries (decoding, hashing, sampling).
            #[inline]
            pub fn is_canonical(&self) -> bool {
                !$crate::arith::geq(&self.0, &Self::MODULUS)
            }

            /// Branch-free multiplicative inverse via Fermat's little
            /// theorem (`a^{p-2}`), mapping zero to zero.
            ///
            /// The exponent is a public compile-time constant, so the
            /// square-and-multiply schedule is fixed and independent of
            /// the (possibly secret) base — unlike [`Self::invert`],
            /// whose binary-GCD iteration count leaks the operand.
            pub fn invert_ct(&self) -> Self {
                <Self as $crate::field::Field>::pow(self, &Self::MODULUS_MINUS_2)
            }

            #[inline]
            fn mont_mul(a: &[u64; $n], b: &[u64; $n]) -> [u64; $n] {
                // The scratch buffer has $n + 2 limbs, so every index in
                // 0..=$n + 1 below is in bounds by construction.
                let mut t = [0u64; $n + 2];
                for i in 0..$n {
                    let mut carry = 0u64;
                    for j in 0..$n {
                        let (v, c) = $crate::arith::mac(t[j], a[i], b[j], carry);
                        t[j] = v;
                        carry = c;
                    }
                    let (v, c) = $crate::arith::adc(t[$n], carry, 0);
                    t[$n] = v;
                    t[$n + 1] = c;

                    let m = t[0].wrapping_mul(Self::INV);
                    let (_, mut carry) =
                        $crate::arith::mac(t[0], m, Self::MODULUS[0], 0);
                    for j in 1..$n {
                        let (v, c) =
                            $crate::arith::mac(t[j], m, Self::MODULUS[j], carry);
                        t[j - 1] = v;
                        carry = c;
                    }
                    let (v, c) = $crate::arith::adc(t[$n], carry, 0);
                    t[$n - 1] = v;
                    // t[$n + 1] and c are carry bits (each 0 or 1), so
                    // their sum fits a limb without wrap.
                    t[$n] = t[$n + 1] + c;
                    t[$n + 1] = 0;
                }
                let mut out = [0u64; $n];
                out.copy_from_slice(&t[..$n]);
                // ct-ok: backs the documented conditional-subtraction
                // normalization, like `arith::geq` (DESIGN.md §8)
                if t[$n] != 0 || $crate::arith::geq(&out, &Self::MODULUS) {
                    out = $crate::arith::sub_limbs(&out, &Self::MODULUS);
                }
                out
            }
        }

        impl $crate::field::Field for $name {
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
            fn ct_select(a: &Self, b: &Self, choice: $crate::ct::Choice) -> Self {
                Self::ct_select(a, b, choice)
            }
            fn ct_eq(&self, other: &Self) -> $crate::ct::Choice {
                Self::ct_eq(self, other)
            }
        }

        impl core::fmt::Debug for $name {
            fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
                write!(f, "0x")?;
                for limb in self.to_raw().iter().rev() {
                    write!(f, "{limb:016x}")?;
                }
                Ok(())
            }
        }

        impl core::fmt::Display for $name {
            fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
                core::fmt::Debug::fmt(self, f)
            }
        }

        $crate::field::field_operators!($name);
    };
}

/// Implements the `std::ops` operators in terms of the inherent methods.
macro_rules! field_operators {
    ($name:ident) => {
        impl core::ops::Add for $name {
            type Output = $name;
            #[inline]
            fn add(self, rhs: $name) -> $name {
                $name::add(&self, &rhs)
            }
        }
        impl core::ops::Sub for $name {
            type Output = $name;
            #[inline]
            fn sub(self, rhs: $name) -> $name {
                $name::sub(&self, &rhs)
            }
        }
        impl core::ops::Mul for $name {
            type Output = $name;
            #[inline]
            fn mul(self, rhs: $name) -> $name {
                $name::mul(&self, &rhs)
            }
        }
        impl core::ops::Neg for $name {
            type Output = $name;
            #[inline]
            fn neg(self) -> $name {
                $name::neg(&self)
            }
        }
        impl core::ops::AddAssign for $name {
            #[inline]
            fn add_assign(&mut self, rhs: $name) {
                *self = $name::add(self, &rhs);
            }
        }
        impl core::ops::SubAssign for $name {
            #[inline]
            fn sub_assign(&mut self, rhs: $name) {
                *self = $name::sub(self, &rhs);
            }
        }
        impl core::ops::MulAssign for $name {
            #[inline]
            fn mul_assign(&mut self, rhs: $name) {
                *self = $name::mul(self, &rhs);
            }
        }
        impl<'a> core::ops::Add<&'a $name> for $name {
            type Output = $name;
            #[inline]
            fn add(self, rhs: &'a $name) -> $name {
                $name::add(&self, rhs)
            }
        }
        impl<'a> core::ops::Sub<&'a $name> for $name {
            type Output = $name;
            #[inline]
            fn sub(self, rhs: &'a $name) -> $name {
                $name::sub(&self, rhs)
            }
        }
        impl<'a> core::ops::Mul<&'a $name> for $name {
            type Output = $name;
            #[inline]
            fn mul(self, rhs: &'a $name) -> $name {
                $name::mul(&self, rhs)
            }
        }
    };
}

pub(crate) use field_operators;
pub(crate) use montgomery_field;
