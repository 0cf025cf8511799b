//! `mccls-xtask` — the workspace's static-analysis gate.
//!
//! `cargo run -p mccls-xtask -- check` runs four lints over the tree
//! and exits non-zero if any finding survives its suppression filter:
//!
//! * **ct** — no branching, indexing or variable-time call on secret
//!   data in the cryptographic crates (`mccls-hash`, `mccls-pairing`,
//!   `mccls-core`). Taint is seeded from key-material field reads, RNG
//!   draws and secret-typed parameters, and tracked through bindings
//!   ([`ct_lint`]) and across call edges and return values over the
//!   crypto call graph ([`taint`]), so a master secret branched on two
//!   calls below `sign()` is caught like one branched on in `sign()`.
//!   Suppress with `// ct-ok: <reason>`; a published protocol value is
//!   declassified at its binding with `// taint-public: <reason>`.
//! * **opcount** and **complexity** — two lattices over one
//!   certification engine ([`certify`]): one budget grammar, one marker
//!   rule, one bottom-up propagation over call-graph SCCs, and one
//!   equality check in which overruns, slack, unbounded paths, dead,
//!   ambiguous or unmarked budget entries, and stale markers all fail
//!   the gate. **opcount** ([`opcount`]) certifies the Table 1 budgets
//!   of `opcount-budgets.toml`: a worst-case count of pairings, Miller
//!   loops, final exponentiations, scalar multiplications, `Gt`
//!   exponentiations, and hash-to-curve calls per budgeted entry point.
//!   **complexity** ([`complexity`]) certifies the simulation hot path
//!   against `complexity-budgets.toml`: every function in
//!   `crates/sim`/`crates/aodv` gets a big-O class (products of
//!   `nodes`, `neighbors`, and `log` factors) from its loop nests, and
//!   certifying the per-event dispatch root at `neighbors` proves no
//!   node-quadratic path is reachable from it. Suppress a reviewed loop
//!   or call with `// complexity-ok: <reason>`.
//! * **concurrency** — the lock-discipline pass ([`concurrency`]):
//!   lock-acquisition order inferred from guard creation sites must be
//!   acyclic (static deadlock detection across registry shards), no
//!   guard may be live across a call whose certified cost includes a
//!   pairing, Miller loop, final exponentiation, or scalar
//!   multiplication (guards bracket map access only), and guards
//!   returned from a function or stored in a struct are reported.
//!   Suppress a reviewed site with `// lock-ok: <reason>`. The
//!   Send/Sync boundary is left to rustc: the workspace lint table
//!   forbids `unsafe` (no `unsafe impl Sync`, no `static mut` access),
//!   `registry_is_send_and_sync` stops compiling on a non-`Sync` field,
//!   and the deny-by-default `let_underscore_lock` rejects `let _ =
//!   m.lock()`.
//!
//! What rustc, clippy, cargo and the tests check, the gate does not. In
//! the root `[workspace.lints.rust]` table, `unsafe_code = "forbid"`
//! rejects `unsafe` in every target of every workspace crate; the
//! clippy table's `unwrap_used`, `expect_used`, `panic`, `todo`,
//! `unimplemented` and `unreachable` keys flag every panic macro and
//! every `unwrap`/`expect` in non-test code; and `tests/manifests.rs`
//! checks that every manifest opts into those tables and that neither
//! lockfile names a registry or git package. Key material is not
//! `Clone` and prints redacted (a compile-time assertion and a test in
//! `mccls_core::params`), and every decoder's subgroup checks are pinned
//! by the adversarial tests of `mccls-core` and `mccls-pairing`
//! (DESIGN.md §8.2 has the catch table).
//!
//! Every source lint reads one model, [`parser::ParsedFile`]: each file
//! is scrubbed and parsed once into its `struct` items and `fn` items
//! (with their calls, loop regions and `let` statements).
//! [`check_workspace`] parses every crate a lint reads once
//! ([`SOURCE_SCOPE`]), builds the crypto crates' call graph and
//! certified operation costs once for `ct`, `opcount` and
//! `concurrency`, and runs each row of the one lint table,
//! [`report::LINTS`], which also drives the SARIF rules.
//!
//! Suppression reasons are mandatory everywhere: a marker whose reason
//! has no alphanumeric content is itself a finding.
//!
//! The crate is std-only on purpose: the gate must never be the reason
//! the offline build breaks.

pub mod callgraph;
pub mod certify;
pub mod complexity;
pub mod concurrency;
pub mod ct_lint;
pub mod lexer;
pub mod opcount;
pub mod parser;
pub mod report;
pub mod taint;

use std::fmt;
use std::path::{Path, PathBuf};

use callgraph::CallGraph;
use parser::ParsedFile;

/// One lint result, pointing at a file and 1-based line.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Path relative to the workspace root.
    pub file: String,
    /// 1-based line number (0 for whole-file findings).
    pub line: usize,
    /// Short lint name, one of the ids in [`report::LINTS`].
    pub lint: &'static str,
    /// Human-readable description of the violation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.lint, self.message
        )
    }
}

/// Outcome of looking for a suppression comment near a finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Suppression {
    /// No marker present: the finding stands.
    None,
    /// Marker present with a written justification: finding suppressed.
    Justified,
    /// Marker present but no reason given: the finding stands, upgraded
    /// with a note — unexplained suppressions are themselves violations.
    MissingReason,
}

/// Looks for `marker` as a trailing comment on line `line` (1-based) or
/// anywhere in the contiguous run of comment-only lines directly above.
///
/// The text after the marker is the justification; it must contain at
/// least one alphanumeric character for the suppression to count —
/// whitespace-only or purely decorative "reasons" (`---`, `*/`) are
/// treated as missing.
pub fn suppression_near(lines: &[&str], line: usize, marker: &str) -> Suppression {
    fn marker_on(lines: &[&str], l: usize, marker: &str) -> Suppression {
        let Some(text) = lines.get(l.wrapping_sub(1)) else {
            return Suppression::None;
        };
        match text.find(marker) {
            None => Suppression::None,
            Some(pos) => {
                let reason = &text[pos + marker.len()..];
                if reason.chars().any(char::is_alphanumeric) {
                    Suppression::Justified
                } else {
                    Suppression::MissingReason
                }
            }
        }
    }

    let mut best = marker_on(lines, line, marker);
    let mut above = line.wrapping_sub(1);
    while best == Suppression::None && above >= 1 {
        let Some(text) = lines.get(above - 1) else {
            break;
        };
        if !text.trim_start().starts_with("//") {
            break;
        }
        best = marker_on(lines, above, marker);
        above -= 1;
    }
    best
}

/// The finding a violation at `line` of `file` becomes under `marker`:
/// `None` when a justified marker covers it, the message marked
/// `(<marker> present but gives no reason)` when a bare one does.
pub(crate) fn unless_suppressed(
    lines: &[&str],
    file: &str,
    line: usize,
    lint: &'static str,
    marker: &str,
    message: String,
) -> Option<Finding> {
    let message = match suppression_near(lines, line, marker) {
        Suppression::Justified => return None,
        Suppression::MissingReason => format!(
            "{message} ({} present but gives no reason)",
            marker.trim_end_matches(':')
        ),
        Suppression::None => message,
    };
    Some(Finding {
        file: file.to_owned(),
        line,
        lint,
        message,
    })
}

/// Recursively collects `.rs` files under `dir`, sorted for determinism.
pub fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&d) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    out
}

/// Path shown in findings: relative to the workspace root when possible.
pub fn display_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

/// The cryptographic crates: they make the one call graph that `ct`,
/// `opcount` and `concurrency` share.
pub const CRYPTO_SCOPE: &[&str] = &["crates/hash", "crates/pairing", "crates/core"];

/// Crates covered by the asymptotic-complexity certification: the
/// AODV protocol logic and the discrete-event simulation that drives it.
pub const COMPLEXITY_SCOPE: &[&str] = &["crates/aodv", "crates/sim"];

/// Every crate a source lint reads, ordered so that each lint's scope is
/// one contiguous run of the parse: the crypto crates ([`CRYPTO_SCOPE`]),
/// then `aodv` and `sim`, which make [`COMPLEXITY_SCOPE`].
pub const SOURCE_SCOPE: &[&str] = &[
    "crates/hash",
    "crates/pairing",
    "crates/core",
    "crates/aodv",
    "crates/sim",
];

/// Reads and parses every `.rs` file under the `src` of each scope
/// crate, labelled with workspace-relative paths.
pub fn parse_scope(root: &Path, scope: &[&str]) -> Vec<ParsedFile> {
    let mut files = Vec::new();
    for rel in scope {
        for file in rust_files(&root.join(rel).join("src")) {
            if let Ok(src) = std::fs::read_to_string(&file) {
                files.push(parser::parse_file(&display_path(root, &file), &src));
            }
        }
    }
    files
}

/// Whether a workspace-relative path lies in one of the scope crates.
fn in_scope(path: &str, scope: &[&str]) -> bool {
    scope.iter().any(|rel| {
        path.strip_prefix(rel)
            .is_some_and(|rest| rest.starts_with('/'))
    })
}

/// The files of `parsed` that lie in `scope`, which must be one
/// contiguous run of the parse (every scope is one of
/// [`SOURCE_SCOPE`]).
fn scope_run<'a>(parsed: &'a [ParsedFile], scope: &[&str]) -> &'a [ParsedFile] {
    let start = parsed
        .iter()
        .position(|f| in_scope(&f.path, scope))
        .unwrap_or(parsed.len());
    let len = parsed
        .iter()
        .skip(start)
        .take_while(|f| in_scope(&f.path, scope))
        .count();
    parsed.get(start..start + len).unwrap_or(&[])
}

/// What the runners of [`report::LINTS`] read: the workspace root, one
/// parse of [`SOURCE_SCOPE`], and the crypto crates' call graph and
/// certified operation costs.
pub struct Workspace<'a> {
    root: &'a Path,
    parsed: &'a [ParsedFile],
    crypto: &'a [ParsedFile],
    graph: &'a CallGraph,
    costs: &'a [opcount::Cost],
}

impl Workspace<'_> {
    /// The parsed files of `scope`.
    fn files(&self, scope: &[&str]) -> &[ParsedFile] {
        scope_run(self.parsed, scope)
    }
}

/// Runs every lint of [`report::LINTS`] over the workspace rooted at
/// `root`.
pub fn check_workspace(root: &Path) -> Vec<Finding> {
    let parsed = parse_scope(root, SOURCE_SCOPE);
    let crypto = scope_run(&parsed, CRYPTO_SCOPE);
    let graph = CallGraph::build(crypto);
    let costs = opcount::compute_costs(crypto, &graph);
    let workspace = Workspace {
        root,
        parsed: &parsed,
        crypto,
        graph: &graph,
        costs: &costs,
    };
    let mut findings: Vec<Finding> = report::LINTS
        .iter()
        .flat_map(|lint| (lint.run)(&workspace))
        .collect();
    findings.sort();
    findings
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // tests may panic freely
mod tests {
    use super::*;

    #[test]
    fn suppression_trailing_and_above() {
        let lines = vec![
            "// ct-ok: public data only",
            "if x.is_zero() {",
            "let y = 1; // ct-ok: also fine",
            "// just a comment",
            "// ct-ok:",
            "if secret.is_zero() {",
        ];
        assert_eq!(
            suppression_near(&lines, 2, "ct-ok:"),
            Suppression::Justified
        );
        assert_eq!(
            suppression_near(&lines, 3, "ct-ok:"),
            Suppression::Justified
        );
        assert_eq!(
            suppression_near(&lines, 6, "ct-ok:"),
            Suppression::MissingReason
        );
        assert_eq!(suppression_near(&lines, 4, "lock-ok:"), Suppression::None);
    }

    #[test]
    fn suppression_stops_at_code_lines() {
        let lines = vec!["// ct-ok: reason", "let a = 1;", "if secret > 0 {"];
        assert_eq!(suppression_near(&lines, 3, "ct-ok:"), Suppression::None);
    }

    #[test]
    fn every_scope_is_a_contiguous_run_of_the_source_scope() {
        // Each lint reads its scope as one slice of the `SOURCE_SCOPE`
        // parse; a crate outside that run would go unscanned.
        let parsed: Vec<ParsedFile> = SOURCE_SCOPE
            .iter()
            .map(|c| parser::parse_file(&format!("{c}/src/lib.rs"), ""))
            .collect();
        for scope in [CRYPTO_SCOPE, COMPLEXITY_SCOPE] {
            assert_eq!(scope_run(&parsed, scope).len(), scope.len(), "{scope:?}");
        }
        assert!(in_scope("crates/core/src/mccls.rs", CRYPTO_SCOPE));
        assert!(!in_scope("crates/aodv/src/lib.rs", CRYPTO_SCOPE));
        assert!(!in_scope("crates/core2/src/lib.rs", CRYPTO_SCOPE));
    }

    #[test]
    fn finding_display_format() {
        let f = Finding {
            file: "crates/core/src/mccls.rs".into(),
            line: 12,
            lint: "ct",
            message: "branch conditioned on secret-carrying `x`".into(),
        };
        assert_eq!(
            f.to_string(),
            "crates/core/src/mccls.rs:12: [ct] branch conditioned on secret-carrying `x`"
        );
    }
}
