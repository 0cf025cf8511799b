//! The limb-overflow lint.
//!
//! The Montgomery arithmetic in `crates/pairing` lives or dies on carry
//! discipline: every multi-precision add, subtract, multiply, and shift
//! must route through an intrinsic that makes the carry explicit
//! (`adc`/`sbb`/`mac`, or the std `wrapping_*`/`overflowing_*`/
//! `carrying_*` family). A bare `+` on two `u64` limbs compiles fine,
//! passes every small-number test, and silently truncates on the first
//! full-width operand — release builds wrap without a panic, so not
//! even the panic lint can see it.
//!
//! This pass flags bare `+`/`-`/`*`/`<<` (and their compound-assign
//! forms) where an operand is a **limb value**:
//!
//! * a parameter whose type mentions `u64`/`u128` (including limb
//!   arrays like `&[u64; N]`);
//! * every name a `let` binds (tuple patterns included, so the
//!   destructured carry words of an intrinsic call count) when its type
//!   annotation or right-hand side carries a `u64`/`u128` literal
//!   suffix or cast, or mentions a known limb name, to a fixed point
//!   (so `let hi = t[j + 1];` inherits `t`'s limb-ness, wherever the
//!   initializer's lines break);
//! * every name a `for` pattern binds when the header's iterable is
//!   limb-valued by the same rule.
//!
//! Both come from the parser's records ([`crate::parser::Let`] and the
//! `for` headers of its loop regions), not from a rescan of the body.
//!
//! Deliberate limits: `usize` index arithmetic (`i + 1`, `n - 1`) never
//! fires because neither operand resolves to a limb; a binding whose
//! initializer narrows the value away (`as i8`, `as usize`, …) drops
//! limb-ness; and the bodies of the approved intrinsics themselves
//! ([`INTRINSIC_FNS`]) are exempt — their internal `u128` widening *is*
//! the vetted implementation everything else must call.
//!
//! A reviewed site is suppressed with `// overflow-ok: <reason>`; a
//! bare marker is itself a finding, like every other suppression in
//! this gate.

use std::collections::HashSet;

use crate::lexer::{contains_word, is_ident_char, match_back, match_forward};
use crate::parser::{pattern_names, FnItem, ParsedFile, RegionKind};
use crate::{unless_suppressed, Finding};

/// The suppression marker for this lint.
pub const ALLOW_MARKER: &str = "overflow-ok:";

/// Functions whose bodies *are* the approved carry intrinsics: their
/// internal widening arithmetic is the reviewed implementation, so the
/// lint does not police them against themselves.
pub const INTRINSIC_FNS: &[&str] = &["adc", "sbb", "mac"];

/// Cast targets that narrow a value out of limb range: a binding whose
/// initializer ends in one of these casts (and never mentions
/// `u64`/`u128`) is not a limb, whatever it was derived from.
const NARROWING_CASTS: &[&str] = &[
    "as i8", "as u8", "as i16", "as u16", "as i32", "as u32", "as usize", "as isize", "as bool",
    "as f32", "as f64",
];

/// Scans one parsed file's non-test functions.
pub fn scan(file: &ParsedFile) -> Vec<Finding> {
    let raw = file.lines();

    let mut findings = Vec::new();
    for item in &file.fns {
        if item.is_test || INTRINSIC_FNS.contains(&item.name.as_str()) {
            continue;
        }
        // Even with no tracked names, operands can be limb-valued
        // inline (`(a as u128) * (b as u128)`), so always scan.
        let limbs = limb_bindings(item);
        for (off, line) in item.body.lines().enumerate() {
            let lineno = item.body_line + off;
            for message in line_sites(line, &limbs) {
                findings.extend(unless_suppressed(
                    &raw,
                    &file.path,
                    lineno,
                    "overflow",
                    ALLOW_MARKER,
                    message,
                ));
            }
        }
    }
    findings.sort();
    findings.dedup();
    findings
}

/// True when an initializer/iterand expression produces a limb value
/// under the current limb set.
fn is_limb_expr(text: &str, limbs: &HashSet<String>) -> bool {
    if text.contains("u64") || text.contains("u128") {
        return true;
    }
    // A narrowing cast launders the value out of limb range, and
    // length/count queries are `usize` whatever their receiver holds.
    if NARROWING_CASTS.iter().any(|c| text.contains(c))
        || text.contains(".len(")
        || text.contains(".count(")
    {
        return false;
    }
    limbs.iter().any(|l| contains_word(text, l))
}

/// Collects the limb-valued names of one function body: typed
/// parameters, then a fixed point over the names of `let`s whose type
/// annotation or right-hand side is limb-valued and of `for` patterns
/// whose iterable is.
fn limb_bindings(item: &FnItem) -> HashSet<String> {
    let mut limbs: HashSet<String> = item
        .params
        .iter()
        .filter(|p| {
            !p.name.is_empty() && (contains_word(&p.ty, "u64") || contains_word(&p.ty, "u128"))
        })
        .map(|p| p.name.clone())
        .collect();
    let lets = item
        .lets
        .iter()
        .map(|l| (l.names.clone(), vec![l.ty.as_str(), l.rhs.as_str()]));
    let for_headers = item
        .regions
        .iter()
        .filter(|r| r.kind == RegionKind::For)
        .filter_map(|r| r.source.split_once(" in "))
        .map(|(pattern, iter)| (pattern_names(pattern), vec![iter]));
    let sources: Vec<(Vec<String>, Vec<&str>)> = lets.chain(for_headers).collect();

    loop {
        let mut changed = false;
        for (names, texts) in &sources {
            if texts.iter().any(|t| is_limb_expr(t, &limbs)) {
                for n in names.iter().filter(|n| *n != "_") {
                    changed |= limbs.insert(n.clone());
                }
            }
        }
        if !changed {
            return limbs;
        }
    }
}

/// Bare-arithmetic findings on a single scrubbed line.
fn line_sites(line: &str, limbs: &HashSet<String>) -> Vec<String> {
    let chars: Vec<char> = line.chars().collect();
    let mut out = Vec::new();
    let mut i = 0;
    while i < chars.len() {
        let (op, op_len) = match chars[i] {
            '+' => ("+", 1),
            '*' => ("*", 1),
            '-' if chars.get(i + 1) != Some(&'>') => ("-", 1),
            '<' if chars.get(i + 1) == Some(&'<') => ("<<", 2),
            _ => {
                i += 1;
                continue;
            }
        };
        // Binary only: the operator must follow a value expression.
        // Unary minus, dereferencing `*`, and generics fall out here.
        let prev = chars[..i]
            .iter()
            .rev()
            .copied()
            .find(|c| !c.is_whitespace());
        if !prev.is_some_and(|p| is_ident_char(p) || p == ')' || p == ']') {
            i += op_len;
            continue;
        }
        let left = left_operand(&chars, i);
        // Compound assigns (`+=`, `<<=`) share the operand rules.
        let mut rhs_start = i + op_len;
        if chars.get(rhs_start) == Some(&'=') {
            rhs_start += 1;
        }
        let right = right_operand(&chars, rhs_start);
        let hot = [&left, &right]
            .into_iter()
            .find(|o| operand_is_limb(o, limbs));
        if let Some(operand) = hot {
            out.push(format!(
                "bare `{op}` on limb value `{}` (use wrapping_/overflowing_/carrying_ \
                 or the adc/sbb/mac helpers)",
                operand.trim()
            ));
        }
        i += op_len;
    }
    out
}

/// True when an operand expression is limb-valued: it carries a
/// `u64`/`u128` suffix or cast, or mentions a known limb name. Length
/// and count queries are `usize` whatever their receiver holds.
fn operand_is_limb(text: &str, limbs: &HashSet<String>) -> bool {
    if text.is_empty() || text.contains(".len(") || text.contains(".count(") {
        return false;
    }
    text.contains("u64") || text.contains("u128") || limbs.iter().any(|l| contains_word(text, l))
}

/// The operand ending just before the operator at `op`: walks back over
/// identifier chains, field accesses, and balanced `(..)`/`[..]` groups.
fn left_operand(chars: &[char], op: usize) -> String {
    let mut j = op; // exclusive end
    while j > 0 && chars[j - 1].is_whitespace() {
        j -= 1;
    }
    let end = j;
    while let Some(p) = j.checked_sub(1) {
        let c = chars[p];
        if is_ident_char(c) || c == '.' || c == '$' {
            j = p;
            continue;
        }
        if c == ')' || c == ']' {
            let Some(k) = match_back(chars, p) else {
                return chars[..end].iter().collect();
            };
            j = k;
            continue;
        }
        break;
    }
    chars[j..end].iter().collect()
}

/// The operand starting just after the operator: the mirror walk.
fn right_operand(chars: &[char], mut j: usize) -> String {
    while j < chars.len() && chars[j].is_whitespace() {
        j += 1;
    }
    if chars.get(j) == Some(&'&') {
        j += 1;
    }
    let start = j;
    while j < chars.len() {
        let c = chars[j];
        if is_ident_char(c) || c == '.' || c == '$' {
            j += 1;
            continue;
        }
        if c == '(' || c == '[' {
            let close = if c == '(' { ')' } else { ']' };
            j = match_forward(chars, j, c, close).map_or(chars.len(), |k| k + 1);
            continue;
        }
        break;
    }
    chars[start..j].iter().collect()
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // tests may panic freely
mod tests {
    use super::*;
    use crate::parser::parse_file;

    #[test]
    fn bare_add_on_limb_params_fires() {
        let src = "fn sum(a: u64, b: u64) -> u64 { a + b }\n";
        let findings = scan(&parse_file("x.rs", src));
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("bare `+`"));
    }

    #[test]
    fn wrapping_and_intrinsic_calls_are_clean() {
        let src = "fn sum(a: u64, b: u64) -> u64 {\n    let (v, c) = adc(a, b, 0);\n    \
                   v.wrapping_add(c)\n}\n";
        assert!(scan(&parse_file("x.rs", src)).is_empty());
    }

    #[test]
    fn limbness_propagates_through_bindings() {
        let src = "fn f(t: &[u64; 4]) -> u64 {\n    let hi = t[1];\n    hi << 62\n}\n";
        let findings = scan(&parse_file("x.rs", src));
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("bare `<<`"));
    }

    #[test]
    fn index_arithmetic_is_not_flagged() {
        let src = "fn f(t: &[u64; 4]) -> u64 {\n    let mut acc = 0usize;\n    \
                   let n = acc + 1;\n    t[n - 1].wrapping_add(0)\n}\n";
        assert!(scan(&parse_file("x.rs", src)).is_empty());
    }

    #[test]
    fn literal_shift_without_limb_operand_is_clean() {
        let src = "fn f(q: &mut [u64; 4], i: usize) {\n    q[i / 64] |= 1 << (i % 64);\n}\n";
        assert!(scan(&parse_file("x.rs", src)).is_empty());
    }

    #[test]
    fn intrinsic_bodies_are_exempt() {
        let src = "fn adc(a: u64, b: u64, carry: u64) -> (u64, u64) {\n    \
                   let t = (a as u128) + (b as u128) + (carry as u128);\n    \
                   (t as u64, (t >> 64) as u64)\n}\n";
        assert!(scan(&parse_file("x.rs", src)).is_empty());
    }

    #[test]
    fn narrowing_cast_drops_limbness() {
        let src = "fn f(limb: u64) -> i8 {\n    let nibble = (limb & 0xF) as i8;\n    \
                   nibble + 1\n}\n";
        assert!(scan(&parse_file("x.rs", src)).is_empty());
    }

    #[test]
    fn widening_cast_in_operand_is_a_limb() {
        let src = "fn f(a: u32, b: u32) -> u128 { (a as u128) * (b as u128) }\n";
        let findings = scan(&parse_file("x.rs", src));
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("bare `*`"));
    }

    #[test]
    fn justified_suppression_silences_and_bare_does_not() {
        let ok = "fn f(a: u64, b: u64) -> u64 {\n    // overflow-ok: caller guarantees a >= b\n    a - b\n}\n";
        assert!(scan(&parse_file("x.rs", ok)).is_empty());
        let bare = "fn f(a: u64, b: u64) -> u64 {\n    // overflow-ok:\n    a - b\n}\n";
        let findings = scan(&parse_file("x.rs", bare));
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("gives no reason"));
    }

    #[test]
    fn len_calls_and_arrows_are_not_operands() {
        let src = "fn f(limbs: &[u64]) -> usize {\n    let n = limbs.len() + 1;\n    n\n}\n\
                   fn g(x: u64) -> u64 { x.wrapping_add(1) }\n";
        assert!(scan(&parse_file("x.rs", src)).is_empty());
    }

    #[test]
    fn for_pattern_over_limbs_is_tracked() {
        let src = "fn f(ls: &[u64; 4]) -> u64 {\n    let mut acc = 0u64;\n    \
                   for l in ls {\n        acc = l + acc;\n    }\n    acc\n}\n";
        let findings = scan(&parse_file("x.rs", src));
        assert_eq!(findings.len(), 1, "{findings:?}");
    }

    #[test]
    fn test_functions_are_skipped() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t(a: u64, b: u64) -> u64 { a + b }\n}\n";
        assert!(scan(&parse_file("x.rs", src)).is_empty());
    }
}
