//! Limb-level arithmetic helpers shared by all field implementations, plus a
//! minimal variable-length big-unsigned-integer used once at startup to
//! derive pairing exponents.
//!
//! Everything here is `const fn` where possible so the Montgomery constants
//! (`R^2 mod p`, `-p^{-1} mod 2^64`) are *computed* at compile time from the
//! modulus alone, instead of being transcribed from external sources.

/// `a + b + carry`, returning the low word and the new carry (0 or 1).
#[inline(always)]
pub const fn adc(a: u64, b: u64, carry: u64) -> (u64, u64) {
    let t = (a as u128) + (b as u128) + (carry as u128);
    (t as u64, (t >> 64) as u64)
}

/// `a - b - borrow`, returning the low word and the new borrow (0 or 1).
#[inline(always)]
pub const fn sbb(a: u64, b: u64, borrow: u64) -> (u64, u64) {
    let t = (a as u128).wrapping_sub((b as u128) + (borrow as u128));
    (t as u64, ((t >> 64) as u64) & 1)
}

/// `a + b * c + carry`, returning the low word and the high word.
#[inline(always)]
pub const fn mac(a: u64, b: u64, c: u64, carry: u64) -> (u64, u64) {
    let t = (a as u128) + (b as u128) * (c as u128) + (carry as u128);
    (t as u64, (t >> 64) as u64)
}

/// Computes `-m^{-1} mod 2^64` for odd `m` by Newton iteration.
pub const fn mont_inv64(m: u64) -> u64 {
    // Five Newton steps double precision each time: 2^4 -> 2^64 bits.
    let mut inv = 1u64;
    let mut i = 0;
    while i < 63 {
        inv = inv.wrapping_mul(2u64.wrapping_sub(m.wrapping_mul(inv)));
        i += 1;
    }
    inv.wrapping_neg()
}

/// Returns true when `a >= b` (both little-endian, same length).
pub const fn geq<const N: usize>(a: &[u64; N], b: &[u64; N]) -> bool {
    let mut i = N;
    while i > 0 {
        i -= 1;
        // ct-ok: backs the documented conditional-subtraction
        // normalization; the compared value is uniform sampler output
        // or headroom-bounded (DESIGN.md §8)
        if a[i] > b[i] {
            return true;
        }
        // ct-ok: same conditional-subtraction normalization as above
        if a[i] < b[i] {
            return false;
        }
    }
    true
}

/// Bit length of a little-endian limb value (0 for zero).
///
/// Drives the compile-time headroom computation: a modulus of bit
/// length `B` stored in `N` limbs leaves `64·N - B` headroom bits, and
/// the conditional carry check in `montgomery_field!::add` is derived
/// from that number.
pub const fn limb_bit_len<const N: usize>(a: &[u64; N]) -> usize {
    let mut i = N;
    while i > 0 {
        i -= 1;
        if a[i] != 0 {
            // leading_zeros of a nonzero limb is at most 63, so the
            // subtraction cannot underflow and the sum is at most 64·N
            return i * 64 + (64 - a[i].leading_zeros() as usize);
        }
    }
    0
}

/// `a - b` assuming `a >= b` (wrapping otherwise).
pub const fn sub_limbs<const N: usize>(a: &[u64; N], b: &[u64; N]) -> [u64; N] {
    let mut out = [0u64; N];
    let mut borrow = 0u64;
    let mut i = 0;
    while i < N {
        let (v, br) = sbb(a[i], b[i], borrow);
        out[i] = v;
        borrow = br;
        i += 1;
    }
    out
}

/// Doubles `a` modulo `m` (both little-endian). Requires `a < m < 2^(64N-1)`.
const fn double_mod<const N: usize>(a: &[u64; N], m: &[u64; N]) -> [u64; N] {
    let mut out = [0u64; N];
    let mut carry = 0u64;
    let mut i = 0;
    while i < N {
        let (v, c) = adc(a[i], a[i], carry);
        out[i] = v;
        carry = c;
        i += 1;
    }
    // carry is always 0 because m (and hence a) has a clear top bit.
    if geq(&out, m) {
        out = sub_limbs(&out, m);
    }
    out
}

/// Computes `R^2 mod m` where `R = 2^(64N)`, by 128N modular doublings of 1.
pub const fn compute_r2<const N: usize>(m: &[u64; N]) -> [u64; N] {
    let mut acc = [0u64; N];
    acc[0] = 1;
    let mut i = 0;
    while i < 128 * N {
        acc = double_mod(&acc, m);
        i += 1;
    }
    acc
}

/// `m - k` for a small `k` (no borrow past the top limb permitted).
pub const fn sub_small<const N: usize>(m: &[u64; N], k: u64) -> [u64; N] {
    let mut out = *m;
    let (v, mut borrow) = sbb(out[0], k, 0);
    out[0] = v;
    let mut i = 1;
    while borrow != 0 && i < N {
        let (v, br) = sbb(out[i], 0, borrow);
        out[i] = v;
        borrow = br;
        i += 1;
    }
    out
}

/// `(m + 1) >> 2`, used for the `p ≡ 3 (mod 4)` square-root exponent.
pub const fn add_one_shift_right2<const N: usize>(m: &[u64; N]) -> [u64; N] {
    let mut t = *m;
    let (v, mut carry) = adc(t[0], 1, 0);
    t[0] = v;
    let mut i = 1;
    while carry != 0 && i < N {
        let (v, c) = adc(t[i], 0, carry);
        t[i] = v;
        carry = c;
        i += 1;
    }
    // Shift right by 2. The modulus tops out below 2^(64N-1) so no bits
    // are lost from `carry` here.
    let mut out = [0u64; N];
    let mut j = 0;
    while j < N {
        let hi = if j + 1 < N { t[j + 1] } else { 0 };
        // Shift fold: only hi's low 2 bits belong in this limb; the bits
        // shifted out are consumed at index j + 1.
        out[j] = (t[j] >> 2) | (hi << 62);
        j += 1;
    }
    out
}

/// `(m - 1) >> 1`, the "lexicographically largest" threshold.
pub const fn sub_one_shift_right1<const N: usize>(m: &[u64; N]) -> [u64; N] {
    let t = sub_small(m, 1);
    let mut out = [0u64; N];
    let mut j = 0;
    while j < N {
        let hi = if j + 1 < N { t[j + 1] } else { 0 };
        // Shift fold: only hi's low bit belongs in this limb; the bits
        // shifted out are consumed at index j + 1.
        out[j] = (t[j] >> 1) | (hi << 63);
        j += 1;
    }
    out
}

/// True when the value is even.
#[inline]
fn is_even<const N: usize>(a: &[u64; N]) -> bool {
    a[0] & 1 == 0
}

/// True when the value is zero.
#[inline]
fn is_zero_limbs<const N: usize>(a: &[u64; N]) -> bool {
    a.iter().all(|&l| l == 0)
}

/// Logical shift right by one bit.
#[inline]
fn shr1<const N: usize>(a: &mut [u64; N]) {
    for i in 0..N {
        let hi = if i + 1 < N { a[i + 1] } else { 0 };
        // Shift fold: only hi's low bit belongs in this limb; the bits
        // shifted out are consumed at index i + 1.
        a[i] = (a[i] >> 1) | (hi << 63);
    }
}

/// Halves `u` modulo the odd modulus `p`: `u/2` when even, `(u+p)/2`
/// otherwise (the carry bit of `u+p` is shifted back in).
#[inline]
fn half_mod<const N: usize>(u: &mut [u64; N], p: &[u64; N]) {
    if is_even(u) {
        shr1(u);
    } else {
        let mut carry = 0u64;
        for i in 0..N {
            let (v, c) = adc(u[i], p[i], carry);
            u[i] = v;
            carry = c;
        }
        shr1(u);
        // carry is the adc carry-out (0 or 1), so the shift into the
        // vacated top bit loses nothing.
        u[N - 1] |= carry << 63;
    }
}

/// `u - v mod p` (adds `p` back on borrow).
#[inline]
fn sub_mod<const N: usize>(u: &[u64; N], v: &[u64; N], p: &[u64; N]) -> [u64; N] {
    let mut out = [0u64; N];
    let mut borrow = 0u64;
    for i in 0..N {
        let (w, b) = sbb(u[i], v[i], borrow);
        out[i] = w;
        borrow = b;
    }
    if borrow != 0 {
        let mut carry = 0u64;
        for i in 0..N {
            let (w, c) = adc(out[i], p[i], carry);
            out[i] = w;
            carry = c;
        }
    }
    out
}

/// Computes `x^{-1} mod p` for odd `p` by the binary extended Euclidean
/// algorithm — roughly 7× faster than the Fermat exponentiation it
/// replaces on 381-bit fields (checked for agreement by property tests).
///
/// Returns `None` when `gcd(x, p) != 1` (in particular for `x = 0`).
pub fn mod_inverse<const N: usize>(x: &[u64; N], p: &[u64; N]) -> Option<[u64; N]> {
    if is_zero_limbs(x) {
        return None;
    }
    let mut a = *x;
    let mut b = *p;
    let mut u = [0u64; N];
    u[0] = 1;
    let mut v = [0u64; N];
    // Invariants: a ≡ u·x (mod p), b ≡ v·x (mod p).
    while !is_zero_limbs(&a) {
        if is_even(&a) {
            shr1(&mut a);
            half_mod(&mut u, p);
        } else if is_even(&b) {
            shr1(&mut b);
            half_mod(&mut v, p);
        } else if geq(&a, &b) {
            a = sub_limbs(&a, &b);
            shr1(&mut a);
            u = sub_mod(&u, &v, p);
            half_mod(&mut u, p);
        } else {
            b = sub_limbs(&b, &a);
            shr1(&mut b);
            v = sub_mod(&v, &u, p);
            half_mod(&mut v, p);
        }
    }
    // b now holds gcd(x, p).
    let mut one = [0u64; N];
    one[0] = 1;
    (b == one).then_some(v)
}

/// Decodes a hex string (no `0x` prefix) into exactly `N` big-endian bytes,
/// left-padding with zeros.
///
/// # Panics
///
/// Panics on non-hex characters or input longer than `2N` digits; this is
/// used only for compile-time-known constants.
#[allow(clippy::panic)] // parses compile-time constants only
pub fn hex_to_be_bytes<const N: usize>(s: &str) -> [u8; N] {
    assert!(s.len() <= 2 * N, "hex literal too long");
    let mut out = [0u8; N];
    let digits: Vec<u8> = s
        .bytes()
        .map(|c| match c {
            b'0'..=b'9' => c - b'0',
            b'a'..=b'f' => c - b'a' + 10,
            b'A'..=b'F' => c - b'A' + 10,
            _ => panic!("invalid hex digit {c:#x}"),
        })
        .collect();
    // Fill from the least-significant end; `nibble` counts from the
    // right of the string.
    for (nibble, d) in digits.iter().rev().enumerate() {
        let byte = N - 1 - nibble / 2;
        if nibble % 2 == 0 {
            out[byte] |= d;
        } else {
            out[byte] |= d << 4;
        }
    }
    out
}

/// Minimal heap-allocated unsigned big integer (little-endian `u64` limbs).
///
/// Only what the pairing's one-time exponent derivation needs: multiply,
/// subtract, add-small, divide. Not performance sensitive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BigUint {
    limbs: Vec<u64>,
}

impl BigUint {
    /// Builds from little-endian limbs, trimming high zeros.
    pub fn from_limbs(limbs: &[u64]) -> Self {
        let mut v = limbs.to_vec();
        // ct-ok: BigUint is the variable-length scratch integer for
        // constants and encodings, never live key material; the
        // name-based call graph cannot see the type split (DESIGN.md §8)
        while v.len() > 1 && v.last() == Some(&0) {
            v.pop();
        }
        Self { limbs: v }
    }

    /// The value zero.
    pub fn zero() -> Self {
        Self { limbs: vec![0] }
    }

    /// Returns true when the value is zero.
    pub fn is_zero(&self) -> bool {
        self.limbs.iter().all(|&l| l == 0)
    }

    /// Little-endian limbs (trimmed).
    pub fn limbs(&self) -> &[u64] {
        &self.limbs
    }

    /// Bit length of the value (0 for zero).
    pub fn bit_len(&self) -> usize {
        for (i, &l) in self.limbs.iter().enumerate().rev() {
            if l != 0 {
                return i * 64 + (64 - l.leading_zeros() as usize);
            }
        }
        0
    }

    /// Reads bit `i` (little-endian numbering).
    pub fn bit(&self, i: usize) -> bool {
        let limb = i / 64;
        limb < self.limbs.len() && (self.limbs[limb] >> (i % 64)) & 1 == 1
    }

    /// Schoolbook multiplication.
    pub fn mul(&self, other: &Self) -> Self {
        let mut out = vec![0u64; self.limbs.len() + other.limbs.len()];
        for (i, &a) in self.limbs.iter().enumerate() {
            let mut carry = 0u64;
            for (j, &b) in other.limbs.iter().enumerate() {
                let (v, c) = mac(out[i + j], a, b, carry);
                out[i + j] = v;
                carry = c;
            }
            // ct-ok: BigUint scratch; limb counts are public encoding
            // widths, never key material
            out[i + other.limbs.len()] = carry;
        }
        Self::from_limbs(&out)
    }

    /// `self - other`.
    ///
    /// # Panics
    ///
    /// Panics if `other > self`.
    pub fn sub(&self, other: &Self) -> Self {
        let mut out = self.limbs.clone();
        let mut borrow = 0u64;
        for (i, limb) in out.iter_mut().enumerate() {
            let b = other.limbs.get(i).copied().unwrap_or(0);
            let (v, br) = sbb(*limb, b, borrow);
            *limb = v;
            borrow = br;
        }
        assert_eq!(borrow, 0, "BigUint::sub underflow");
        Self::from_limbs(&out)
    }

    /// `self + k` for a small addend.
    pub fn add_small(&self, k: u64) -> Self {
        let mut out = self.limbs.clone();
        let (v, mut carry) = adc(out[0], k, 0);
        out[0] = v;
        let mut i = 1;
        while carry != 0 {
            if i == out.len() {
                out.push(0);
            }
            let (v, c) = adc(out[i], 0, carry);
            out[i] = v;
            carry = c;
            i += 1;
        }
        Self::from_limbs(&out)
    }

    /// Binary long division, returning `(quotient, remainder)`.
    ///
    /// # Panics
    ///
    /// Panics if `divisor` is zero.
    pub fn div_rem(&self, divisor: &Self) -> (Self, Self) {
        assert!(!divisor.is_zero(), "BigUint division by zero");
        let bits = self.bit_len();
        let mut quotient = vec![0u64; self.limbs.len()];
        let mut rem = Self::zero();
        for i in (0..bits).rev() {
            // rem = rem * 2 + bit_i(self)
            rem = rem.shl1();
            if self.bit(i) {
                rem = rem.add_small(1);
            }
            if rem.geq(divisor) {
                rem = rem.sub(divisor);
                quotient[i / 64] |= 1 << (i % 64);
            }
        }
        (Self::from_limbs(&quotient), rem)
    }

    fn shl1(&self) -> Self {
        let mut out = Vec::with_capacity(self.limbs.len() + 1);
        let mut carry = 0u64;
        for &l in &self.limbs {
            out.push((l << 1) | carry);
            carry = l >> 63;
        }
        if carry != 0 {
            out.push(carry);
        }
        Self::from_limbs(&out)
    }

    fn geq(&self, other: &Self) -> bool {
        let n = self.limbs.len().max(other.limbs.len());
        for i in (0..n).rev() {
            let a = self.limbs.get(i).copied().unwrap_or(0);
            let b = other.limbs.get(i).copied().unwrap_or(0);
            // ct-ok: BigUint scratch compares public encodings and
            // constants, never live key material
            if a > b {
                return true;
            }
            // ct-ok: same public BigUint scratch compare as above
            if a < b {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // tests may panic freely
mod tests {
    use super::*;
    use mccls_rng::{Rng, SeedableRng};

    #[test]
    fn mont_inv64_is_negated_inverse() {
        for m in [1u64, 3, 0xffff_ffff_ffff_ffff, 0xb9fe_ffff_ffff_aaab] {
            let inv = mont_inv64(m);
            assert_eq!(m.wrapping_mul(inv), u64::MAX, "m = {m:#x}");
            // m * (-inv) == 1 mod 2^64
            assert_eq!(m.wrapping_mul(inv.wrapping_neg()), 1);
        }
    }

    #[test]
    fn compute_r2_small_modulus() {
        // m = 2^63 - 25 (odd, top bit clear as double_mod requires).
        // R = 2^64 = 2m + 50, so R mod m = 50 and R^2 mod m = 2500.
        let m = [(1u64 << 63) - 25];
        let r2 = compute_r2::<1>(&m);
        assert_eq!(r2[0], 50 * 50);
    }

    #[test]
    fn biguint_mul_div_roundtrip() {
        let a = BigUint::from_limbs(&[0xdeadbeef, 0x12345678, 0x1]);
        let b = BigUint::from_limbs(&[0xffffffffffffffff, 0x7]);
        let prod = a.mul(&b);
        let (q, r) = prod.div_rem(&b);
        assert_eq!(q, a);
        assert!(r.is_zero());
        let prod_plus = prod.add_small(5);
        let (q2, r2) = prod_plus.div_rem(&b);
        assert_eq!(q2, a);
        assert_eq!(r2, BigUint::from_limbs(&[5]));
    }

    #[test]
    fn biguint_bits() {
        let a = BigUint::from_limbs(&[0b1010, 1]);
        assert_eq!(a.bit_len(), 65);
        assert!(a.bit(1));
        assert!(!a.bit(0));
        assert!(a.bit(64));
        assert!(!a.bit(65));
    }

    #[test]
    fn shift_helpers() {
        // m = 11: (m+1)/4 = 3, (m-1)/2 = 5.
        let m = [11u64, 0];
        assert_eq!(add_one_shift_right2(&m), [3u64, 0]);
        assert_eq!(sub_one_shift_right1(&m), [5u64, 0]);
        assert_eq!(sub_small(&m, 2), [9u64, 0]);
    }

    #[test]
    fn sub_small_borrows_across_limbs() {
        let m = [0u64, 1];
        assert_eq!(sub_small(&m, 1), [u64::MAX, 0]);
    }

    #[test]
    fn mod_inverse_small_cases() {
        // mod 7: 3^{-1} = 5, 1^{-1} = 1; 0 has none.
        let p = [7u64];
        assert_eq!(mod_inverse(&[3u64], &p), Some([5u64]));
        assert_eq!(mod_inverse(&[1u64], &p), Some([1u64]));
        assert_eq!(mod_inverse(&[0u64], &p), None);
        // Non-coprime input mod 9: gcd(3, 9) = 3.
        assert_eq!(mod_inverse(&[3u64], &[9u64]), None);
    }

    #[test]
    fn hex_decoder_handles_odd_lengths_and_padding() {
        assert_eq!(hex_to_be_bytes::<2>("ff"), [0x00, 0xff]);
        assert_eq!(hex_to_be_bytes::<2>("1ff"), [0x01, 0xff]);
        assert_eq!(hex_to_be_bytes::<2>(""), [0x00, 0x00]);
        assert_eq!(hex_to_be_bytes::<1>("AB"), [0xab]);
    }

    #[test]
    #[should_panic(expected = "invalid hex digit")]
    fn hex_decoder_rejects_garbage() {
        hex_to_be_bytes::<4>("zz");
    }

    #[test]
    fn mod_inverse_round_trips_mod_small_prime() {
        let mut rng = mccls_rng::rngs::StdRng::seed_from_u64(0xA217);
        // p = 2^64 - 59 is prime.
        let p = [u64::MAX - 58];
        for _ in 0..64 {
            let x = rng.gen_range(1u64..0xffff_ffff_ffff_ffc4);
            if x % p[0] == 0 {
                continue;
            }
            let inv = mod_inverse(&[x % p[0]], &p).expect("coprime to a prime");
            // x * inv ≡ 1 (mod p), checked with u128 arithmetic.
            let prod = (x % p[0]) as u128 * inv[0] as u128 % p[0] as u128;
            assert_eq!(prod, 1u128);
        }
    }

    #[test]
    fn biguint_div_rem_invariant() {
        let mut rng = mccls_rng::rngs::StdRng::seed_from_u64(0xA218);
        for _ in 0..64 {
            let a: Vec<u64> = (0..rng.gen_range(1usize..6))
                .map(|_| rng.next_u64())
                .collect();
            let b: Vec<u64> = (0..rng.gen_range(1usize..4))
                .map(|_| rng.next_u64())
                .collect();
            let a = BigUint::from_limbs(&a);
            let b = BigUint::from_limbs(&b);
            if b.is_zero() {
                continue;
            }
            let (q, r) = a.div_rem(&b);
            // a == q*b + r and r < b.
            let recomposed = q.mul(&b);
            let mut limbs = recomposed.limbs().to_vec();
            let rl = r.limbs();
            while limbs.len() < rl.len() {
                limbs.push(0);
            }
            let mut carry = 0u64;
            for (i, l) in limbs.iter_mut().enumerate() {
                let add = rl.get(i).copied().unwrap_or(0);
                let (v, c1) = l.overflowing_add(add);
                let (v, c2) = v.overflowing_add(carry);
                *l = v;
                carry = (c1 as u64) + (c2 as u64);
            }
            if carry > 0 {
                limbs.push(carry);
            }
            assert_eq!(BigUint::from_limbs(&limbs), a);
        }
    }
}
