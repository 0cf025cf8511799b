//! The panic-freedom lint.
//!
//! A signing node dropped into a mesh cannot afford to abort: a panic in
//! the crypto path is a remote denial-of-service at best. This lint
//! keeps the non-test code of the cryptographic crates free of:
//!
//! * `.unwrap()` / `.expect(..)` calls;
//! * `panic!`, `unreachable!`, `todo!`, `unimplemented!` macros;
//! * slice/range indexing (`x[a..b]`) and computed indices
//!   (`x[i + 1]`, `x[f(i)]`) — the panicking subset of `Index`. A plain
//!   single-token index (`x[i]`, `x[0]`) is tolerated: the dominant
//!   idiom here is fixed-bound limb loops where the bound is the array
//!   length by construction, and flagging every one of those would bury
//!   the signal. The full-range re-borrow `x[..]` cannot panic and is
//!   tolerated too.
//!
//! A justified site is suppressed with a trailing or immediately
//! preceding comment `// lint:allow(panic) <reason>`; the reason is
//! mandatory, and a bare marker is itself reported.

use crate::lexer::{self, is_ident_char, prev_non_ws};
use crate::parser::ParsedFile;
use crate::{unless_suppressed, Finding};

/// The suppression marker for this lint.
pub const ALLOW_MARKER: &str = "lint:allow(panic)";

const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];
const PANIC_METHODS: &[&str] = &["unwrap", "expect"];

/// Scans one parsed file outside its test spans.
pub fn scan(file: &ParsedFile) -> Vec<Finding> {
    let chars: Vec<char> = file.scrubbed.chars().collect();
    let mut sites = Vec::new();
    collect_calls(&chars, &file.scrubbed, &mut sites);
    collect_indexing(&chars, &file.scrubbed, &mut sites);
    let raw_lines = file.lines();
    let mut findings = Vec::new();
    for (line, message) in sites {
        if lexer::in_spans(line, &file.test_spans) {
            continue;
        }
        findings.extend(unless_suppressed(
            &raw_lines,
            &file.path,
            line,
            "panic",
            ALLOW_MARKER,
            message,
        ));
    }
    findings
}

/// Finds panic-family macros and `unwrap`/`expect` calls.
fn collect_calls(chars: &[char], scrubbed: &str, out: &mut Vec<(usize, String)>) {
    let mut i = 0;
    while i < chars.len() {
        if !is_ident_char(chars[i]) || (i > 0 && is_ident_char(chars[i - 1])) {
            i += 1;
            continue;
        }
        let start = i;
        while i < chars.len() && is_ident_char(chars[i]) {
            i += 1;
        }
        let word: String = chars[start..i].iter().collect();
        let next = next_non_ws(chars, i);
        if PANIC_MACROS.contains(&word.as_str()) && next == Some('!') {
            out.push((
                lexer::line_of(scrubbed, start),
                format!("`{word}!` in non-test code"),
            ));
        } else if PANIC_METHODS.contains(&word.as_str())
            && next == Some('(')
            && prev_non_ws(chars, start).map(|j| chars[j]) == Some('.')
        {
            out.push((
                lexer::line_of(scrubbed, start),
                format!("`.{word}()` in non-test code"),
            ));
        }
    }
}

/// Finds indexing expressions whose index can panic non-trivially.
fn collect_indexing(chars: &[char], scrubbed: &str, out: &mut Vec<(usize, String)>) {
    for (i, &c) in chars.iter().enumerate() {
        if c != '[' {
            continue;
        }
        // Indexing only when the bracket follows a value expression;
        // `#[attr]`, `&[T]`, `: [T; N]`, `= [...]` are not. A keyword
        // before the bracket (`for [u64; N]`, `let [a, b] = ..`) means
        // a type or pattern position, not indexing.
        let Some(prev) = prev_non_ws(chars, i).map(|j| chars[j]) else {
            continue;
        };
        if !(is_ident_char(prev) || prev == ')' || prev == ']') {
            continue;
        }
        if prev_word(chars, i).is_some_and(|w| KEYWORDS_BEFORE_BRACKET.contains(&w.as_str())) {
            continue;
        }
        let Some(close) = matching_bracket(chars, i) else {
            continue;
        };
        let content: String = chars[i + 1..close].iter().collect();
        // A top-level `,` or `;` inside the brackets means an array
        // literal/type/repeat expression — index expressions have
        // neither.
        if has_top_level_separator(&content) {
            continue;
        }
        let line = lexer::line_of(scrubbed, i);
        // `x[..]` re-borrows the whole slice and cannot panic.
        if content.trim() == ".." {
            continue;
        }
        if content.contains("..") {
            out.push((
                line,
                format!("range indexing `[{}]` can panic", content.trim()),
            ));
        } else if !is_simple_index(content.trim()) {
            out.push((
                line,
                format!("computed index `[{}]` can panic", content.trim()),
            ));
        }
    }
}

/// Keywords that put the following bracket group in type or pattern
/// position (`impl X for [u64; N]`, `let [a, b] = ..`).
const KEYWORDS_BEFORE_BRACKET: &[&str] = &[
    "let", "for", "in", "if", "else", "match", "return", "mut", "ref", "as", "dyn", "impl",
];

/// A single identifier, integer literal, or macro metavariable
/// (`$limbs`): the tolerated index forms.
fn is_simple_index(s: &str) -> bool {
    let body = s.strip_prefix('$').unwrap_or(s);
    !body.is_empty() && body.chars().all(is_ident_char)
}

/// True when `content` has a `,` or `;` outside any nested grouping:
/// the signature of an array literal, array type, or repeat expression.
fn has_top_level_separator(content: &str) -> bool {
    let mut depth = 0i32;
    for c in content.chars() {
        match c {
            '(' | '[' | '{' => depth += 1,
            ')' | ']' | '}' => depth -= 1,
            ',' | ';' if depth == 0 => return true,
            _ => {}
        }
    }
    false
}

/// The identifier word ending just before position `i`, if any.
fn prev_word(chars: &[char], i: usize) -> Option<String> {
    let mut end = i;
    while end > 0 && chars[end - 1].is_whitespace() {
        end -= 1;
    }
    let mut start = end;
    while start > 0 && is_ident_char(chars[start - 1]) {
        start -= 1;
    }
    (start < end).then(|| chars[start..end].iter().collect())
}

fn matching_bracket(chars: &[char], open: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (j, &c) in chars.iter().enumerate().skip(open) {
        match c {
            '[' => depth += 1,
            ']' => {
                depth -= 1;
                if depth == 0 {
                    return Some(j);
                }
            }
            _ => {}
        }
    }
    None
}

fn next_non_ws(chars: &[char], from: usize) -> Option<char> {
    chars[from..].iter().copied().find(|c| !c.is_whitespace())
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // tests may panic freely
mod tests {
    use super::*;
    use crate::parser::parse_file;

    const FIXTURE: &str = include_str!("../fixtures/panic_cases.rs");

    fn lines_of(findings: &[Finding]) -> Vec<usize> {
        findings.iter().map(|f| f.line).collect()
    }

    #[test]
    fn fixture_violations_are_found() {
        let findings = scan(&parse_file("fixtures/panic_cases.rs", FIXTURE));
        // One finding per seeded violation; see the fixture's comments.
        let msgs: Vec<&str> = findings.iter().map(|f| f.message.as_str()).collect();
        assert!(msgs.iter().any(|m| m.contains("`.unwrap()`")), "{msgs:?}");
        assert!(msgs.iter().any(|m| m.contains("`.expect()`")), "{msgs:?}");
        assert!(msgs.iter().any(|m| m.contains("`panic!`")), "{msgs:?}");
        assert!(
            msgs.iter().any(|m| m.contains("`unreachable!`")),
            "{msgs:?}"
        );
        assert!(
            msgs.iter().any(|m| m.contains("range indexing")),
            "{msgs:?}"
        );
        assert!(
            msgs.iter().any(|m| m.contains("computed index")),
            "{msgs:?}"
        );
        assert!(
            msgs.iter().any(|m| m.contains("gives no reason")),
            "bare allow marker must be reported: {msgs:?}"
        );
    }

    #[test]
    fn fixture_non_violations_are_not_flagged() {
        let findings = scan(&parse_file("fixtures/panic_cases.rs", FIXTURE));
        for f in &findings {
            let line = FIXTURE.lines().nth(f.line - 1).unwrap_or("");
            assert!(
                !line.contains("CLEAN"),
                "line {} marked CLEAN was flagged: {}",
                f.line,
                f.message
            );
        }
    }

    #[test]
    fn justified_allow_suppresses() {
        let src = "fn f(v: &[u8]) -> u8 {\n    // lint:allow(panic) length checked by caller contract\n    v[compute()]\n}\n";
        assert!(scan(&parse_file("x.rs", src)).is_empty());
    }

    #[test]
    fn bare_allow_does_not_suppress() {
        let src = "fn f(v: &[u8]) -> u8 {\n    // lint:allow(panic)\n    v[compute()]\n}\n";
        let findings = scan(&parse_file("x.rs", src));
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("gives no reason"));
    }

    #[test]
    fn test_code_is_exempt() {
        let src =
            "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { x.unwrap(); panic!(); }\n}\n";
        assert!(scan(&parse_file("x.rs", src)).is_empty());
    }

    #[test]
    fn doc_comments_and_strings_do_not_trip() {
        let src =
            "/// Call `.unwrap()` and panic! freely in docs.\nfn f() { let s = \"panic!\"; }\n";
        assert!(scan(&parse_file("x.rs", src)).is_empty());
    }

    #[test]
    fn unwrap_or_is_not_unwrap() {
        let src = "fn f() { x.unwrap_or(1); x.unwrap_or_default(); }\n";
        assert!(scan(&parse_file("x.rs", src)).is_empty());
    }

    #[test]
    fn array_types_literals_and_patterns_are_not_indexing() {
        // `for [u64; N]` (trait impl), repeat types after identifiers,
        // array literals, and destructuring patterns must not fire.
        let src = "impl Foo for [u64; N] {}\n\
                   fn f() -> [Vec<u64>; 4] { g() }\n\
                   fn g(a: &Fp2) { let xs = h()[0..0]; }\n\
                   fn h() { let [mut a, mut b] = state; }\n\
                   fn i() { let roots = [a.c0.add(&x).mul(&y), a.c0.sub(&x).mul(&y)]; }\n\
                   fn j(c6: &Fp6) { for c in [&c6.c0, &c6.c1, &c6.c2] {} }\n";
        let findings = scan(&parse_file("x.rs", src));
        // Only the genuine range indexing on line 3 remains.
        assert_eq!(lines_of(&findings), vec![3], "{findings:?}");
    }

    #[test]
    fn full_range_reborrow_is_tolerated() {
        let src = "fn f(v: &[u8]) { g(&v[..]); h(&v[1..]); }\n";
        let findings = scan(&parse_file("x.rs", src));
        // Only `[1..]` can actually panic.
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("[1..]"));
    }

    #[test]
    fn index_with_nested_call_commas_still_fires() {
        // A comma nested inside parens is part of the index expression.
        let src = "fn f() { let y = v[idx(a, b)]; }\n";
        assert_eq!(scan(&parse_file("x.rs", src)).len(), 1);
    }

    #[test]
    fn single_token_index_is_tolerated() {
        let src = "fn f() { let y = a[i]; let z = b[0]; let w = t[j]; }\n";
        assert!(scan(&parse_file("x.rs", src)).is_empty());
        assert!(lines_of(&scan(&parse_file("x.rs", "fn f() { a[i + 1]; }\n"))) == vec![1]);
    }
}
