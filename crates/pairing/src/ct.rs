//! Constant-time selection and comparison primitives.
//!
//! The McCLS pitch is a pairing-free signing path cheap enough for
//! mobile CPS nodes — which is only deployable if that path does not
//! leak its secrets through branches or memory access patterns. This
//! module provides the building blocks the signing paths use instead of
//! `if`/`match` on secret material:
//!
//! * [`Choice`] — a branchless boolean carried as a full-width mask;
//! * [`eq_limbs`] / [`select_limbs`] — word-level comparison and
//!   two-way selection without data-dependent control flow;
//! * `Fp::ct_select` / `Fr::ct_eq` / … — per-field wrappers generated
//!   by the `montgomery_field!` macro on top of these helpers;
//! * [`crate::G1Projective::mul_scalar_ct`] — a fixed 4-bit window
//!   for secret scalars on any base, with masked scans of its sixteen
//!   multiples;
//! * [`crate::FixedBaseTable::mul`] — a comb for any scalar on a tabled
//!   base (the generators), with masked table scans.
//!
//! Both multiplications run on complete addition formulas
//! (Renes–Costello–Batina 2016), so no identity or doubling case
//! branches on the scalar. The field arithmetic beneath them still
//! normalizes with a conditional subtraction.
//!
//! The custom static-analysis gate (`cargo run -p mccls-xtask -- check`)
//! flags secret-conditioned branches in the scheme crates; the fix for a
//! true positive is to route the computation through this module.
//!
//! ## Scope and honesty
//!
//! Rust/LLVM make no hard guarantee that a `wrapping_sub`-derived mask
//! survives optimization as branch-free code on every target; like the
//! `subtle` crate, we rely on opaque data flow (no `bool` round-trips)
//! making branch re-introduction very unlikely. This is a reproduction
//! codebase: the goal is a disciplined, analyzable secret-handling
//! surface, not a formally verified one.

/// A branchless boolean: all-ones for true, all-zeros for false.
///
/// Constructed from data-dependent words via [`Choice::from_lsb`] or the
/// field `ct_eq` helpers; consumed by the `select` functions. Conversion
/// back to `bool` ([`Choice::leak`]) is deliberately named to make
/// secret-dependent branching visible in review.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Choice(u64);

impl Choice {
    /// The true choice (all-ones mask).
    pub const TRUE: Self = Self(u64::MAX);
    /// The false choice (all-zeros mask).
    pub const FALSE: Self = Self(0);

    /// Builds a choice from the least-significant bit of `w`.
    #[inline]
    pub fn from_lsb(w: u64) -> Self {
        // 0 or 1 -> 0 or 2^64-1 without branching.
        Self((w & 1).wrapping_neg())
    }

    /// The underlying full-width mask.
    #[inline]
    pub fn mask(self) -> u64 {
        self.0
    }

    /// Logical AND.
    #[inline]
    #[must_use]
    pub fn and(self, other: Self) -> Self {
        Self(self.0 & other.0)
    }

    /// Logical OR.
    #[inline]
    #[must_use]
    pub fn or(self, other: Self) -> Self {
        Self(self.0 | other.0)
    }

    /// Collapses the choice into a `bool`, *leaking* it to control flow.
    ///
    /// Only call this where the value is public (e.g. verification
    /// results); the name exists so code review and grep can find every
    /// such collapse.
    #[inline]
    pub fn leak(self) -> bool {
        self.0 != 0
    }
}

impl core::ops::Not for Choice {
    type Output = Self;

    /// Logical NOT, branch-free.
    #[inline]
    fn not(self) -> Self {
        Self(!self.0)
    }
}

/// Word-level equality without data-dependent branches: all-ones when
/// `a == b`.
#[inline]
pub fn eq_limbs<const N: usize>(a: &[u64; N], b: &[u64; N]) -> Choice {
    let mut acc = 0u64;
    for (x, y) in a.iter().zip(b.iter()) {
        acc |= x ^ y;
    }
    is_zero_word(acc)
}

/// All-ones when `w == 0`, all-zeros otherwise, branch-free.
#[inline]
pub fn is_zero_word(w: u64) -> Choice {
    // For w != 0, (w | -w) has its top bit set; arithmetic shift right
    // by 63 then yields all-ones, which we invert.
    let top = (w | w.wrapping_neg()) >> 63;
    Choice(top.wrapping_sub(1))
}

/// Selects `b` when `choice` is true, else `a`, touching both inputs
/// regardless of the choice.
#[inline]
pub fn select_limbs<const N: usize>(a: &[u64; N], b: &[u64; N], choice: Choice) -> [u64; N] {
    let mask = choice.mask();
    let mut out = [0u64; N];
    for i in 0..N {
        out[i] = (a[i] & !mask) | (b[i] & mask);
    }
    out
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // tests may panic freely
mod tests {
    use super::*;

    #[test]
    fn choice_from_lsb() {
        assert_eq!(Choice::from_lsb(0), Choice::FALSE);
        assert_eq!(Choice::from_lsb(1), Choice::TRUE);
        assert_eq!(Choice::from_lsb(2), Choice::FALSE);
        assert_eq!(Choice::from_lsb(u64::MAX), Choice::TRUE);
    }

    #[test]
    fn boolean_algebra() {
        assert_eq!(!Choice::TRUE, Choice::FALSE);
        assert_eq!(Choice::TRUE.and(Choice::FALSE), Choice::FALSE);
        assert_eq!(Choice::TRUE.or(Choice::FALSE), Choice::TRUE);
        assert!(Choice::TRUE.leak());
        assert!(!Choice::FALSE.leak());
    }

    #[test]
    fn is_zero_word_edges() {
        assert_eq!(is_zero_word(0), Choice::TRUE);
        assert_eq!(is_zero_word(1), Choice::FALSE);
        assert_eq!(is_zero_word(u64::MAX), Choice::FALSE);
        assert_eq!(is_zero_word(1 << 63), Choice::FALSE);
    }

    #[test]
    fn eq_and_select_agree_with_plain_ops() {
        let a = [1u64, 2, 3, 4];
        let b = [1u64, 2, 3, 5];
        assert_eq!(eq_limbs(&a, &a), Choice::TRUE);
        assert_eq!(eq_limbs(&a, &b), Choice::FALSE);
        assert_eq!(select_limbs(&a, &b, Choice::FALSE), a);
        assert_eq!(select_limbs(&a, &b, Choice::TRUE), b);
    }
}
