//! Seeded violations for the limb-overflow lint.
//!
//! Not compiled — scanned by `overflow::scan` in the gate tests. The
//! bare `+`/`*`/`<<` sites on limb values must fire; the `_ct` twin
//! (carries through the approved intrinsics), the `usize` index
//! arithmetic, and the justified suppression must stay silent; the bare
//! `overflow-ok:` marker must itself be reported.

/// Bare add on two limbs: silently wraps on full-width operands.
fn acc_fold(a: u64, b: u64) -> u64 {
    a + b
}

/// Propagation through a binding: `hi` inherits limb-ness from `t`.
fn carry_chain(t: &[u64; 4]) -> u64 {
    let hi = t[3];
    hi << 1
}

/// Bare multiply reached through widening casts.
fn widening(a: u32, b: u32) -> u128 {
    (a as u128) * (b as u128)
}

/// Clean twin: the same fold with the carry made explicit. Must not be
/// flagged.
fn acc_fold_ct(a: u64, b: u64) -> u64 {
    let (v, c) = adc(a, b, 0);
    v.wrapping_add(c)
}

/// Clean: `usize` index arithmetic never involves a limb operand.
fn index_walk(limbs: &[u64]) -> usize {
    let n = limbs.len();
    n + 1
}

/// Justified suppression: a reviewed shift fold. Must not be flagged.
fn shift_fold(hi: u64) -> u64 {
    // overflow-ok: the shifted-out bits are consumed by the next limb
    hi << 63
}

/// Bare suppression: gives no reason, so the site is still reported.
fn sloppy_fold(hi: u64) -> u64 {
    // overflow-ok:
    hi << 63
}

/// An initializer that starts on the next line: `hi` still inherits
/// `t`'s limb-ness.
fn carry_chain_wrapped(t: &[u64; 4]) -> u64 {
    let hi =
        t[3];
    hi << 1
}

/// Clean twin: the same binding, shifted by the wrapping helper. Must
/// not be flagged.
fn carry_chain_wrapped_ct(t: &[u64; 4]) -> u64 {
    let hi =
        t[3];
    hi.wrapping_shl(1)
}
