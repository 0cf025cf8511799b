//! The constant-time discipline lint: intraprocedural backend.
//!
//! McCLS's selling point is a cheap signing path on exposed mobile
//! nodes, which makes timing leaks part of the threat model. This
//! module provides the per-function-body taint engine used two ways:
//!
//! * [`scan`] — the function-scoped lint from PR 1: each body is
//!   analysed in isolation, seeded only by taint *sources* born inside
//!   it (key-material field reads, RNG draws). Parameters carry no
//!   taint here.
//! * [`analyze_body`] — the reusable engine behind the interprocedural
//!   pass in [`crate::taint`], which additionally seeds declared-secret
//!   parameters and calls known to return secrets, and reports whether
//!   the body's return value is secret-carrying.
//!
//! The engine's rules:
//!
//! 1. **Seed**: an initializer that touches key material or an RNG draw
//!    ([`TAINT_SOURCES`]) marks its binding as secret-carrying, as does
//!    any name in the caller-provided seed set.
//! 2. **Propagate**: `let` bindings *and* plain/compound assignments
//!    whose right-hand side mentions a tainted name (or calls a
//!    secret-returning function) become tainted, to a fixed point.
//!    Tuple/struct patterns are skipped — a deliberate
//!    under-approximation documented in DESIGN.md §8.
//! 3. **Declassify**: a binding annotated `// taint-public: <reason>`
//!    never becomes tainted — the reviewed escape hatch for values that
//!    are secret-derived but published by the protocol (signature
//!    components). A bare marker is itself a finding.
//! 4. **Flag**: data-dependent control flow (`if`/`while`/`match`,
//!    `&&`, `||`), secret-dependent indexing, division/modulus,
//!    fallible `?` early returns, and variable-time `invert()` on
//!    tainted names.
//!
//! A reviewed site is suppressed with `// ct-ok: <reason>`; the reason
//! must contain at least one alphanumeric character, and a bare or
//! decorative marker is itself reported.

use std::collections::HashSet;

use crate::lexer::{self, contains_word, is_ident_char, match_back, skip_ws, starts_word_at};
use crate::parser::ParsedFile;
use crate::{suppression_near, unless_suppressed, Finding, Suppression};

/// The suppression marker for this lint.
pub const ALLOW_MARKER: &str = "ct-ok:";

/// The declassification marker: a reviewed statement that a
/// secret-derived binding is public by protocol (e.g. a published
/// signature component).
pub const DECLASS_MARKER: &str = "taint-public:";

/// Initializer fragments that mark a binding as secret-carrying.
pub const TAINT_SOURCES: &[&str] = &[
    ".secret",
    ".master",
    "master_secret",
    "random_nonzero(",
    "::random(",
    ".invert_ct(",
    ".next_u64(",
    ".next_u32(",
];

/// Fields that are public **by declaration** even on a secret-carrying
/// base: `keys.public` is the published public key even though `keys`
/// (a `UserKeyPair`) also holds the secret value. A mention of a
/// tainted name does not count when every occurrence immediately reads
/// one of these fields — the textual stand-in for field sensitivity.
pub const PUBLIC_FIELDS: &[&str] = &["public"];

/// True when `text` mentions `name` other than through a declared
/// public field: `keys.secret` and bare `keys` count, `keys.public`
/// does not.
pub fn mentions_secret(text: &str, name: &str) -> bool {
    let chars: Vec<char> = text.chars().collect();
    let pat: Vec<char> = name.chars().collect();
    if pat.is_empty() || chars.len() < pat.len() {
        return false;
    }
    'occurrence: for i in 0..=chars.len() - pat.len() {
        if chars[i..i + pat.len()] != pat[..]
            || (i > 0 && is_ident_char(chars[i - 1]))
            || chars.get(i + pat.len()).is_some_and(|&c| is_ident_char(c))
        {
            continue;
        }
        let after: String = chars[i + pat.len()..].iter().collect();
        for field in PUBLIC_FIELDS {
            let access = format!(".{field}");
            if after.starts_with(&access)
                && !after[access.len()..]
                    .chars()
                    .next()
                    .is_some_and(is_ident_char)
            {
                continue 'occurrence;
            }
        }
        return true;
    }
    false
}

/// Result of analysing one function body.
#[derive(Debug, Default)]
pub struct BodyAnalysis {
    /// Names carrying taint after the fixed point (seeds included).
    pub tainted: Vec<String>,
    /// Violations as `(1-based file line, message)`, unfiltered by
    /// suppressions — the caller applies its suppression policy.
    pub violations: Vec<(usize, String)>,
    /// Bare `taint-public:` markers (missing a reason) as file lines.
    pub bare_declass: Vec<usize>,
    /// True when the body's return value mentions a tainted name.
    pub returns_secret: bool,
}

/// Analyses one scrubbed function body.
///
/// * `body` — scrubbed text from `{` through the matching `}`;
/// * `body_line` — 1-based file line of the opening brace;
/// * `raw_lines` — the file's raw lines (for `taint-public:` markers);
/// * `seeds` — names tainted on entry (interprocedural parameter taint);
/// * `secret_calls` — callee names whose return value is secret.
pub fn analyze_body(
    body: &str,
    body_line: usize,
    raw_lines: &[&str],
    seeds: &[String],
    secret_calls: &HashSet<String>,
) -> BodyAnalysis {
    let bindings = bindings_of(body);
    let declassified = declassified_by(&bindings, body_line, raw_lines, DECLASS_MARKER);
    // Taint enters through textual sources, the seeds and
    // secret-returning calls, and flows through bindings that mention it.
    let tainted = binding_fixpoint(
        &bindings,
        seeds,
        |name| declassified.names.contains(name),
        |tainted, init| {
            TAINT_SOURCES.iter().any(|s| init.contains(s))
                || tainted.iter().any(|t| mentions_secret(init, t))
                || secret_calls.iter().any(|c| contains_call(init, c))
        },
    );

    let mut violations = Vec::new();
    if !tainted.is_empty() {
        for (off, line) in body.lines().enumerate() {
            let lineno = body_line + off;
            for message in line_violations(line, &tainted) {
                violations.push((lineno, message));
            }
        }
    }
    BodyAnalysis {
        returns_secret: returns_secret(body, &tainted),
        tainted,
        violations,
        bare_declass: declassified.bare_lines,
    }
}

/// Scans one parsed file with the function-scoped policy of PR 1.
///
/// Each `fn` body is analysed in isolation — a `b` tainted in one
/// function does not condemn every other `b` in the file — and
/// parameters are not taint sources. Test functions are skipped
/// outright (tests branch on random draws constantly, by design).
pub fn scan(file: &ParsedFile) -> Vec<Finding> {
    let raw_lines = file.lines();
    let no_secret_calls = HashSet::new();

    let mut findings = Vec::new();
    for f in file.fns.iter().filter(|f| !f.is_test) {
        let analysis = analyze_body(&f.body, f.body_line, &raw_lines, &[], &no_secret_calls);
        findings.extend(filter_violations(
            &file.path,
            &raw_lines,
            &file.test_spans,
            &analysis,
        ));
    }
    findings
}

/// Applies test-span and suppression filtering to raw violations,
/// producing final findings (including bare-marker reports).
pub fn filter_violations(
    file: &str,
    raw_lines: &[&str],
    spans: &[(usize, usize)],
    analysis: &BodyAnalysis,
) -> Vec<Finding> {
    let mut findings = Vec::new();
    for &(lineno, ref message) in &analysis.violations {
        if lexer::in_spans(lineno, spans) {
            continue;
        }
        findings.extend(unless_suppressed(
            raw_lines,
            file,
            lineno,
            "ct",
            ALLOW_MARKER,
            message.clone(),
        ));
    }
    for &lineno in &analysis.bare_declass {
        if lexer::in_spans(lineno, spans) {
            continue;
        }
        findings.push(Finding {
            file: file.to_owned(),
            line: lineno,
            lint: "ct",
            message: "taint-public marker present but gives no reason".to_owned(),
        });
    }
    findings
}

/// Violation messages for a single scrubbed line.
fn line_violations(line: &str, tainted: &[String]) -> Vec<String> {
    let mut out = Vec::new();
    let branchy = contains_word(line, "if")
        || contains_word(line, "while")
        || contains_word(line, "match")
        || line.contains("&&")
        || line.contains("||");
    if branchy {
        if let Some(name) = tainted.iter().find(|name| mentions_secret(line, name)) {
            out.push(format!("branch conditioned on secret-carrying `{name}`"));
        } else if line.contains(".secret") || line.contains(".master") {
            out.push("branch conditioned on a key-material field access".to_owned());
        }
    }
    for name in tainted {
        if line.contains(&format!("{name}.invert()")) {
            out.push(format!(
                "variable-time `invert()` on secret-carrying `{name}` (use `invert_ct()`)"
            ));
        }
    }
    // Secret-dependent indexing: a bracket group whose content mentions
    // a tainted name (memory access pattern leaks the secret).
    for content in index_contents(line) {
        if let Some(name) = tainted.iter().find(|name| mentions_secret(&content, name)) {
            out.push(format!(
                "secret-dependent index `[{}]` on `{name}`",
                content.trim()
            ));
        }
    }
    // Division/modulus is variable-time on many cores; flag it when a
    // tainted name shares the expression.
    if has_div_operator(line) {
        if let Some(name) = tainted.iter().find(|name| mentions_secret(line, name)) {
            out.push(format!(
                "possible variable-time division/modulus involving secret-carrying `{name}`"
            ));
        }
    }
    // A `?` on a secret-derived fallible value is a data-dependent early
    // return: the caller observes where the function gave up.
    if line.contains('?') {
        if let Some(name) = tainted.iter().find(|name| mentions_secret(line, name)) {
            out.push(format!(
                "fallible `?` early return on secret-carrying `{name}`"
            ));
        }
    }
    out
}

/// Contents of `[...]` groups on a line that follow a value expression
/// (indexing), skipping array literals/types (top-level `,`/`;`).
fn index_contents(line: &str) -> Vec<String> {
    let chars: Vec<char> = line.chars().collect();
    let mut out = Vec::new();
    for (i, &c) in chars.iter().enumerate() {
        if c != '[' {
            continue;
        }
        let prev = chars[..i]
            .iter()
            .rev()
            .copied()
            .find(|c| !c.is_whitespace());
        if !prev.is_some_and(|p| is_ident_char(p) || p == ')' || p == ']') {
            continue;
        }
        let mut depth = 0i32;
        let mut close = None;
        for (j, &cj) in chars.iter().enumerate().skip(i) {
            match cj {
                '[' => depth += 1,
                ']' => {
                    depth -= 1;
                    if depth == 0 {
                        close = Some(j);
                        break;
                    }
                }
                _ => {}
            }
        }
        let Some(close) = close else { continue };
        let content: String = chars[i + 1..close].iter().collect();
        let top_level_sep = {
            let mut d = 0i32;
            let mut found = false;
            for cc in content.chars() {
                match cc {
                    '(' | '[' | '{' => d += 1,
                    ')' | ']' | '}' => d -= 1,
                    ',' | ';' if d == 0 => {
                        found = true;
                        break;
                    }
                    _ => {}
                }
            }
            found
        };
        if !top_level_sep {
            out.push(content);
        }
    }
    out
}

/// True when the line contains `/` or `%` as a binary operator (after
/// scrubbing, `/` can only be division — comments are gone).
fn has_div_operator(line: &str) -> bool {
    let chars: Vec<char> = line.chars().collect();
    for (i, &c) in chars.iter().enumerate() {
        if c == '/' || c == '%' {
            // `/=` and `%=` still divide; `//` cannot survive scrub.
            let prev = chars[..i]
                .iter()
                .rev()
                .copied()
                .find(|c| !c.is_whitespace());
            if prev.is_some_and(|p| is_ident_char(p) || p == ')' || p == ']') {
                return true;
            }
        }
    }
    false
}

/// A binding: `(name, right-hand side, 0-based line offset in body)`.
pub(crate) type Binding = (String, String, usize);

/// `let` bindings and plain/compound assignments, textually extracted.
/// Pattern bindings (`let Some(x)`, `let (a, b)`) are skipped: the lint
/// only tracks plain named bindings, which is what the scheme code uses
/// for secrets. Shared with the validation-state pass in
/// [`crate::validate`], which tracks decoded group values through the
/// same binding shapes.
pub(crate) fn bindings_of(scrubbed: &str) -> Vec<Binding> {
    let chars: Vec<char> = scrubbed.chars().collect();
    let mut out = Vec::new();
    let mut line = 0usize;
    let mut i = 0;
    while i < chars.len() {
        if chars[i] == '\n' {
            line += 1;
            i += 1;
            continue;
        }
        if starts_word_at(&chars, i, "let") {
            i += 3;
            i = skip_ws(&chars, i);
            if starts_word_at(&chars, i, "mut") {
                i += 3;
                i = skip_ws(&chars, i);
            }
            let start = i;
            while i < chars.len() && is_ident_char(chars[i]) {
                i += 1;
            }
            let name: String = chars[start..i].iter().collect();
            let lowercase_start = name
                .chars()
                .next()
                .is_some_and(|c| c.is_lowercase() || c == '_');
            let decl_line = line;
            // Initializer: everything up to the statement's semicolon.
            let init_start = i;
            while i < chars.len() && chars[i] != ';' {
                if chars[i] == '\n' {
                    line += 1;
                }
                i += 1;
            }
            if !name.is_empty() && name != "_" && lowercase_start {
                let init: String = chars[init_start..i].iter().collect();
                if init.trim_start().starts_with([':', '=']) {
                    out.push((name, init, decl_line));
                }
            }
            continue;
        }
        if chars[i] == '=' && is_plain_or_compound_assign(&chars, i) {
            if let Some(name) = assigned_base_name(&chars, i) {
                let decl_line = line;
                let rhs_start = i + 1;
                let mut j = rhs_start;
                let mut rhs_line = line;
                while j < chars.len() && chars[j] != ';' {
                    if chars[j] == '\n' {
                        rhs_line += 1;
                    }
                    j += 1;
                }
                let rhs: String = chars[rhs_start..j].iter().collect();
                out.push((name, rhs, decl_line));
                line = rhs_line;
                i = j;
                continue;
            }
        }
        i += 1;
    }
    out
}

/// True when the `=` at `i` is a plain assignment or the tail of a
/// compound one (`+=`, `^=`, …) — not `==`, `<=`, `=>`, `..=`, etc.
fn is_plain_or_compound_assign(chars: &[char], i: usize) -> bool {
    if chars.get(i + 1) == Some(&'=') || chars.get(i + 1) == Some(&'>') {
        return false;
    }
    !matches!(
        i.checked_sub(1).and_then(|p| chars.get(p)),
        Some(&p) if "=!<>.".contains(p)
    )
}

/// The base identifier of the place being assigned at the `=` at `i`:
/// `t` for `t[j] = v`, `out` for `out.x += v`, `self` for
/// `self.0 = v`. `None` when the place is not a simple chain.
fn assigned_base_name(chars: &[char], i: usize) -> Option<String> {
    let mut j = i; // exclusive end of the place
                   // Skip one compound-operator char (`+=`, `|=`, …).
    if let Some(p) = j.checked_sub(1) {
        if "+-*/%&|^".contains(chars[p]) {
            j = p;
        }
    }
    // Skip trailing whitespace.
    while j > 0 && chars[j - 1].is_whitespace() {
        j -= 1;
    }
    let end = j;
    // Walk back over the place chain: idents, `.`, balanced `[..]`.
    while let Some(p) = j.checked_sub(1) {
        let c = chars[p];
        if is_ident_char(c) || c == '.' {
            j = p;
            continue;
        }
        if c == ']' {
            j = match_back(chars, p)?;
            continue;
        }
        break;
    }
    if j >= end {
        return None;
    }
    // The place must start at a statement-ish boundary, not mid-expression.
    let before = chars[..j]
        .iter()
        .rev()
        .copied()
        .find(|c| !c.is_whitespace());
    if before.is_some_and(|b| !"{};".contains(b)) {
        return None;
    }
    let place: String = chars[j..end].iter().collect();
    let base: String = place.chars().take_while(|c| is_ident_char(*c)).collect();
    let ok_start = base
        .chars()
        .next()
        .is_some_and(|c| c.is_lowercase() || c == '_');
    (ok_start && !base.is_empty() && base != "_").then_some(base)
}

/// Bindings a justified declaration marker (`taint-public:`,
/// `validated:`) exempts, plus the lines of bare markers (which are
/// themselves findings).
pub(crate) struct Declassified {
    /// Names the marker exempts.
    pub(crate) names: HashSet<String>,
    /// Lines of markers without a reason, sorted.
    pub(crate) bare_lines: Vec<usize>,
}

/// Reads `marker` at each binding of a body starting on `body_line`.
pub(crate) fn declassified_by(
    bindings: &[Binding],
    body_line: usize,
    raw_lines: &[&str],
    marker: &str,
) -> Declassified {
    let mut names = HashSet::new();
    let mut bare_lines = Vec::new();
    for (name, _, off) in bindings {
        let file_line = body_line + off;
        match suppression_near(raw_lines, file_line, marker) {
            Suppression::Justified => {
                names.insert(name.clone());
            }
            Suppression::MissingReason => bare_lines.push(file_line),
            Suppression::None => {}
        }
    }
    bare_lines.sort_unstable();
    bare_lines.dedup();
    Declassified { names, bare_lines }
}

/// Grows the unblocked `seeds` through a body's bindings until stable:
/// a binding joins when its right-hand side `carries` the fact, given
/// the names so far, and `blocked` does not exempt it.
pub(crate) fn binding_fixpoint<'a>(
    bindings: &[Binding],
    seeds: impl IntoIterator<Item = &'a String>,
    blocked: impl Fn(&str) -> bool,
    carries: impl Fn(&[String], &str) -> bool,
) -> Vec<String> {
    let mut names: Vec<String> = seeds.into_iter().filter(|s| !blocked(s)).cloned().collect();
    loop {
        let mut changed = false;
        for (name, rhs, _) in bindings {
            if !names.contains(name) && !blocked(name) && carries(&names, rhs) {
                names.push(name.clone());
                changed = true;
            }
        }
        if !changed {
            return names;
        }
    }
}

/// True when `text` contains a call to `name` (the word followed by
/// an opening paren, ignoring whitespace).
pub(crate) fn contains_call(text: &str, name: &str) -> bool {
    let chars: Vec<char> = text.chars().collect();
    let pat: Vec<char> = name.chars().collect();
    if pat.is_empty() || chars.len() < pat.len() {
        return false;
    }
    for i in 0..=chars.len() - pat.len() {
        if chars[i..i + pat.len()] == pat[..]
            && (i == 0 || !is_ident_char(chars[i - 1]))
            && chars[i + pat.len()..]
                .iter()
                .find(|c| !c.is_whitespace())
                .is_some_and(|&c| c == '(')
        {
            return true;
        }
    }
    false
}

/// True when the body's return value mentions a tainted name: either an
/// explicit `return <expr>` or the tail expression before the final `}`.
fn returns_secret(body: &str, tainted: &[String]) -> bool {
    if tainted.is_empty() {
        return false;
    }
    for line in body.lines() {
        let t = line.trim_start();
        if t.starts_with("return ") && tainted.iter().any(|n| mentions_secret(t, n)) {
            return true;
        }
    }
    // Tail expression: the text after the last `;`, `{`, or inner `}`,
    // with the body's final `}` stripped.
    let trimmed = body.trim_end();
    let without_close = trimmed.strip_suffix('}').unwrap_or(trimmed);
    let tail_start = without_close.rfind([';', '{', '}']).map_or(0, |p| p + 1);
    let tail = &without_close[tail_start..];
    tainted.iter().any(|n| mentions_secret(tail, n))
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // tests may panic freely
mod tests {
    use super::*;
    use crate::parser::parse_file;

    const FIXTURE: &str = include_str!("../fixtures/ct_cases.rs");

    #[test]
    fn fixture_violations_are_found() {
        let findings = scan(&parse_file("fixtures/ct_cases.rs", FIXTURE));
        let msgs: Vec<&str> = findings.iter().map(|f| f.message.as_str()).collect();
        assert!(
            msgs.iter().any(|m| m.contains("secret-carrying `x`")),
            "direct branch on rng draw: {msgs:?}"
        );
        assert!(
            msgs.iter().any(|m| m.contains("secret-carrying `derived`")),
            "propagated taint: {msgs:?}"
        );
        assert!(
            msgs.iter().any(|m| m.contains("variable-time `invert()`")),
            "invert on secret: {msgs:?}"
        );
        assert!(
            msgs.iter().any(|m| m.contains("gives no reason")),
            "bare ct-ok must be reported: {msgs:?}"
        );
    }

    #[test]
    fn fixture_clean_lines_stay_clean() {
        for f in scan(&parse_file("fixtures/ct_cases.rs", FIXTURE)) {
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
    fn justified_ct_ok_suppresses() {
        let src = "fn f(rng: &mut R) {\n    let x = Fr::random(rng);\n    // ct-ok: rejection sampling leaks only candidate-was-zero\n    if x.is_zero() { retry(); }\n}\n";
        assert!(scan(&parse_file("x.rs", src)).is_empty());
    }

    #[test]
    fn taint_propagates_through_lets() {
        let src = "fn f(k: &Keys) {\n    let a = k.secret.invert_ct();\n    let b = mul(&a);\n    if b.is_identity() { bail(); }\n}\n";
        let findings = scan(&parse_file("x.rs", src));
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("`b`"));
    }

    #[test]
    fn taint_propagates_through_assignments() {
        let src = "fn f(k: &Keys) {\n    let mut acc = Acc::zero();\n    acc = acc.mix(&k.secret.invert_ct());\n    if acc.is_zero() { bail(); }\n}\n";
        let findings = scan(&parse_file("x.rs", src));
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("`acc`"));
    }

    #[test]
    fn parameters_are_not_sources() {
        let src = "fn f(secret_ish: u64) {\n    if secret_ish > 0 { g(); }\n}\n";
        assert!(scan(&parse_file("x.rs", src)).is_empty());
    }

    #[test]
    fn taint_is_function_scoped() {
        // `y` is secret in `f` but a perfectly public coordinate in `g`;
        // only the branch inside `f` may fire.
        let src = "fn f(rng: &mut R) {\n    let y = Fr::random(rng);\n    if y.is_zero() { retry(); }\n}\n\nfn g(p: &Point) {\n    let y = p.y;\n    if y.is_zero() { infinity(); }\n}\n";
        let findings = scan(&parse_file("x.rs", src));
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].line, 3);
    }

    #[test]
    fn test_modules_are_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t(k: &Keys) {\n        let x = k.secret;\n        if x.is_zero() { panic!(); }\n    }\n}\n";
        assert!(scan(&parse_file("x.rs", src)).is_empty());
    }

    #[test]
    fn seeded_params_taint_the_body() {
        let raw: Vec<&str> = vec![];
        let a = analyze_body(
            "{\n    if k.is_zero() { bail(); }\n}",
            1,
            &raw,
            &["k".to_owned()],
            &HashSet::new(),
        );
        assert_eq!(a.violations.len(), 1);
        assert!(a.violations[0].1.contains("`k`"));
    }

    #[test]
    fn secret_returning_calls_taint_bindings() {
        let raw: Vec<&str> = vec![];
        let mut secret_calls = HashSet::new();
        secret_calls.insert("derive_key".to_owned());
        let a = analyze_body(
            "{\n    let k = derive_key(seed);\n    if k.is_zero() { bail(); }\n}",
            1,
            &raw,
            &[],
            &secret_calls,
        );
        assert_eq!(a.violations.len(), 1, "{:?}", a.violations);
        assert!(!a.returns_secret);
    }

    #[test]
    fn returns_secret_via_tail_and_return() {
        let raw: Vec<&str> = vec![];
        let seeds = ["k".to_owned()];
        let tail = analyze_body("{\n    k.double()\n}", 1, &raw, &seeds, &HashSet::new());
        assert!(tail.returns_secret);
        let explicit = analyze_body(
            "{\n    return k.double();\n}",
            1,
            &raw,
            &seeds,
            &HashSet::new(),
        );
        assert!(explicit.returns_secret);
        let neither = analyze_body("{\n    g(&k);\n}", 1, &raw, &seeds, &HashSet::new());
        assert!(!neither.returns_secret);
    }

    #[test]
    fn declassified_bindings_drop_taint() {
        let src = "fn f(rng: &mut R) -> G2 {\n    let n = Fr::random(rng);\n    // taint-public: R is a published signature component\n    let r = ladder(&n);\n    if r.is_identity() { retry(); }\n    r\n}\n";
        // `ladder` is not a secret-returning call here, but `r` would be
        // tainted through `n`… unless declassified.
        let findings = scan(&parse_file("x.rs", src));
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn bare_declass_marker_is_reported() {
        let src = "fn f(rng: &mut R) -> G2 {\n    let n = Fr::random(rng);\n    // taint-public:\n    let r = ladder(&n);\n    r\n}\n";
        let findings = scan(&parse_file("x.rs", src));
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("gives no reason"));
    }

    #[test]
    fn secret_index_division_and_try_are_flagged() {
        let src = "fn f(k: &Keys) {\n    let d = k.secret;\n    let e = table[d];\n    let q = n / d;\n    let w = d.checked()?;\n}\n";
        let msgs: Vec<String> = scan(&parse_file("x.rs", src))
            .into_iter()
            .map(|f| f.message)
            .collect();
        assert!(
            msgs.iter().any(|m| m.contains("secret-dependent index")),
            "{msgs:?}"
        );
        assert!(
            msgs.iter().any(|m| m.contains("division/modulus")),
            "{msgs:?}"
        );
        assert!(
            msgs.iter().any(|m| m.contains("`?` early return")),
            "{msgs:?}"
        );
    }

    #[test]
    fn plain_loop_indexing_is_not_flagged() {
        let src = "fn f(k: &Keys) {\n    let d = k.secret;\n    let mut out = [0u64; 4];\n    for i in 0..4 { out[i] = base[i]; }\n    g(&d);\n}\n";
        assert!(scan(&parse_file("x.rs", src)).is_empty());
    }
}
