//! The `ct` lint's per-body engine.
//!
//! McCLS's selling point is a cheap signing path on exposed mobile
//! nodes, which makes timing leaks part of the threat model. This
//! module analyses one function body ([`analyze_body`]); the lint's one
//! runner, the call-graph pass in [`crate::taint`], seeds it with the
//! body's declared-secret and interprocedurally tainted parameters and
//! the calls known to return secrets, and reads back the violations
//! and whether the body's return value is secret-carrying.
//!
//! The engine's rules:
//!
//! 1. **Seed**: an initializer that touches key material or an RNG draw
//!    ([`TAINT_SOURCES`]) marks its binding as secret-carrying, as does
//!    any name in the caller-provided seed set.
//! 2. **Propagate**: every name a `let` pattern binds and every
//!    plain/compound assignment, as the parser records them
//!    ([`FnItem::bindings`]), becomes tainted when its right-hand side
//!    mentions a tainted name (or calls a secret-returning function),
//!    to a fixed point. `for` patterns are not read: the loops this
//!    lint covers run over public indices.
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

use crate::lexer::{contains_word, is_ident_char};
use crate::parser::FnItem;
use crate::{suppression_near, Suppression};

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

/// Analyses one function body.
///
/// * `item` — the parsed function: its body text and its bindings;
/// * `raw_lines` — the file's raw lines (for `taint-public:` markers);
/// * `seeds` — names tainted on entry (interprocedural parameter taint);
/// * `secret_calls` — callee names whose return value is secret.
pub fn analyze_body(
    item: &FnItem,
    raw_lines: &[&str],
    seeds: &[String],
    secret_calls: &HashSet<String>,
) -> BodyAnalysis {
    let bindings = item.bindings();
    let declassified = declassified_by(&bindings, raw_lines);
    // Taint enters through textual sources, the seeds and
    // secret-returning calls, and flows through bindings that mention it.
    let tainted = binding_fixpoint(
        &bindings,
        seeds,
        |name| declassified.names.contains(name),
        |tainted, init| expr_is_tainted(init, tainted, secret_calls),
    );

    let mut violations = Vec::new();
    if !tainted.is_empty() {
        for (off, line) in item.body.lines().enumerate() {
            let lineno = item.body_line + off;
            for message in line_violations(line, &tainted) {
                violations.push((lineno, message));
            }
        }
    }
    BodyAnalysis {
        returns_secret: returns_secret(&item.body, &tainted),
        tainted,
        violations,
        bare_declass: declassified.bare_lines,
    }
}

/// True when an expression carries secrets: it contains a textual taint
/// source, mentions a tainted name, or calls a secret-returning fn.
pub(crate) fn expr_is_tainted(
    expr: &str,
    tainted: &[String],
    secret_calls: &HashSet<String>,
) -> bool {
    TAINT_SOURCES.iter().any(|s| expr.contains(s))
        || tainted.iter().any(|t| mentions_secret(expr, t))
        || secret_calls.iter().any(|c| contains_call(expr, c))
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

/// Bindings a justified `taint-public:` marker exempts, plus the lines
/// of bare markers (which are themselves findings).
struct Declassified {
    /// Names the marker exempts.
    names: HashSet<String>,
    /// Lines of markers without a reason, sorted.
    bare_lines: Vec<usize>,
}

/// Reads [`DECLASS_MARKER`] at each binding of a body
/// ([`FnItem::bindings`]).
fn declassified_by(bindings: &[(&str, &str, usize)], raw_lines: &[&str]) -> Declassified {
    let mut names = HashSet::new();
    let mut bare_lines = Vec::new();
    for &(name, _, line) in bindings {
        match suppression_near(raw_lines, line, DECLASS_MARKER) {
            Suppression::Justified => {
                names.insert(name.to_owned());
            }
            Suppression::MissingReason => bare_lines.push(line),
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
fn binding_fixpoint<'a>(
    bindings: &[(&str, &str, usize)],
    seeds: impl IntoIterator<Item = &'a String>,
    blocked: impl Fn(&str) -> bool,
    carries: impl Fn(&[String], &str) -> bool,
) -> Vec<String> {
    let mut names: Vec<String> = seeds.into_iter().filter(|s| !blocked(s)).cloned().collect();
    loop {
        let mut changed = false;
        for &(name, rhs, _) in bindings {
            if !names.iter().any(|n| n == name) && !blocked(name) && carries(&names, rhs) {
                names.push(name.to_owned());
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
fn contains_call(text: &str, name: &str) -> bool {
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
    use crate::callgraph::CallGraph;
    use crate::parser::{parse_file, parse_files};
    use crate::Finding;

    const FIXTURE: &str = include_str!("../fixtures/ct_cases.rs");

    /// The `ct` lint over one file, as `check` runs it.
    fn scan(path: &str, src: &str) -> Vec<Finding> {
        let files = parse_files(&[(path.to_owned(), src.to_owned())]);
        crate::taint::analyze(&files, &CallGraph::build(&files))
    }

    #[test]
    fn fixture_violations_are_found() {
        let findings = scan("fixtures/ct_cases.rs", FIXTURE);
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
        for f in scan("fixtures/ct_cases.rs", FIXTURE) {
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
        assert!(scan("x.rs", src).is_empty());
    }

    #[test]
    fn taint_propagates_through_lets() {
        let src = "fn f(k: &Keys) {\n    let a = k.secret.invert_ct();\n    let b = mul(&a);\n    if b.is_identity() { bail(); }\n}\n";
        let findings = scan("x.rs", src);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("`b`"));
    }

    #[test]
    fn taint_propagates_through_assignments() {
        let src = "fn f(k: &Keys) {\n    let mut acc = Acc::zero();\n    acc = acc.mix(&k.secret.invert_ct());\n    if acc.is_zero() { bail(); }\n}\n";
        let findings = scan("x.rs", src);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("`acc`"));
    }

    #[test]
    fn parameters_are_not_sources() {
        // Only a declared-secret parameter type seeds taint
        // (`taint::SECRET_PARAM_TYPES`).
        let src = "fn f(secret_ish: u64) {\n    if secret_ish > 0 { g(); }\n}\n";
        assert!(scan("x.rs", src).is_empty());
    }

    #[test]
    fn taint_is_function_scoped() {
        // `y` is secret in `f` but a perfectly public coordinate in `g`;
        // only the branch inside `f` may fire.
        let src = "fn f(rng: &mut R) {\n    let y = Fr::random(rng);\n    if y.is_zero() { retry(); }\n}\n\nfn g(p: &Point) {\n    let y = p.y;\n    if y.is_zero() { infinity(); }\n}\n";
        let findings = scan("x.rs", src);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].line, 3);
    }

    #[test]
    fn test_modules_are_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t(k: &Keys) {\n        let x = k.secret;\n        if x.is_zero() { panic!(); }\n    }\n}\n";
        assert!(scan("x.rs", src).is_empty());
    }

    /// `analyze_body` over `fn f() <body>`, with no raw lines.
    fn analyze(body: &str, seeds: &[String], secret_calls: &HashSet<String>) -> BodyAnalysis {
        let file = parse_file("x.rs", &format!("fn f() {body}"));
        analyze_body(&file.fns[0], &[], seeds, secret_calls)
    }

    #[test]
    fn seeded_params_taint_the_body() {
        let a = analyze(
            "{\n    if k.is_zero() { bail(); }\n}",
            &["k".to_owned()],
            &HashSet::new(),
        );
        assert_eq!(a.violations.len(), 1);
        assert!(a.violations[0].1.contains("`k`"));
    }

    #[test]
    fn secret_returning_calls_taint_bindings() {
        let mut secret_calls = HashSet::new();
        secret_calls.insert("derive_key".to_owned());
        let a = analyze(
            "{\n    let k = derive_key(seed);\n    if k.is_zero() { bail(); }\n}",
            &[],
            &secret_calls,
        );
        assert_eq!(a.violations.len(), 1, "{:?}", a.violations);
        assert!(!a.returns_secret);
    }

    #[test]
    fn returns_secret_via_tail_and_return() {
        let seeds = ["k".to_owned()];
        let none = HashSet::new();
        assert!(analyze("{\n    k.double()\n}", &seeds, &none).returns_secret);
        assert!(analyze("{\n    return k.double();\n}", &seeds, &none).returns_secret);
        assert!(!analyze("{\n    g(&k);\n}", &seeds, &none).returns_secret);
    }

    #[test]
    fn declassified_bindings_drop_taint() {
        let src = "fn f(rng: &mut R) -> G2 {\n    let n = Fr::random(rng);\n    // taint-public: R is a published signature component\n    let r = ladder(&n);\n    if r.is_identity() { retry(); }\n    r\n}\n";
        // `ladder` is not a secret-returning call here, but `r` would be
        // tainted through `n`… unless declassified.
        let findings = scan("x.rs", src);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn bare_declass_marker_is_reported() {
        // Taint born in the body, then taint entering through a secret
        // parameter: the marker's finding names no entry either way.
        for src in [
            "fn f(rng: &mut R) -> G2 {\n    let n = Fr::random(rng);\n    // taint-public:\n    let r = ladder(&n);\n    r\n}\n",
            "fn f(n: &MasterSecret) -> G2 {\n    let m = n.s;\n    // taint-public:\n    let r = ladder(&m);\n    r\n}\n",
        ] {
            let findings = scan("x.rs", src);
            assert_eq!(findings.len(), 1, "{findings:?}");
            assert_eq!(
                findings[0].to_string(),
                "x.rs:4: [ct] taint-public marker present but gives no reason"
            );
        }
    }

    #[test]
    fn secret_index_division_and_try_are_flagged() {
        let src = "fn f(k: &Keys) {\n    let d = k.secret;\n    let e = table[d];\n    let q = n / d;\n    let w = d.checked()?;\n}\n";
        let msgs: Vec<String> = scan("x.rs", src).into_iter().map(|f| f.message).collect();
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
        assert!(scan("x.rs", src).is_empty());
    }
}
