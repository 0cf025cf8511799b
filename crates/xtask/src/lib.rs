//! `mccls-xtask` — the workspace's static-analysis gate.
//!
//! `cargo run -p mccls-xtask -- check` runs twelve lints over the tree
//! and exits non-zero if any finding survives its suppression filter
//! (and, when a committed `xtask-baseline.json` exists, the
//! baseline diff — see [`baseline`]):
//!
//! * **panic** — no `unwrap`/`expect`/`panic!`-family macros or risky
//!   slice indexing in non-test code of the cryptographic crates
//!   (`mccls-hash`, `mccls-pairing`, `mccls-core`). Suppress a justified
//!   site with `// lint:allow(panic) <reason>`.
//! * **ct** — no branching on secret-carrying identifiers in
//!   `mccls-core`/`mccls-pairing`, using a light function-scoped taint
//!   pass seeded from the key-material field names and RNG draws.
//!   Suppress with `// ct-ok: <reason>`.
//! * **taint** — the interprocedural extension of **ct**: secrets are
//!   tracked across call edges and return values over the workspace
//!   call graph ([`taint`]), so a master secret branched on two calls
//!   below `sign()` is still caught. Same suppression marker; a
//!   published protocol value is declassified at its binding with
//!   `// taint-public: <reason>`.
//! * **reach** — panic-reachability from the public scheme API
//!   ([`reach`]): any `panic!`-family site reachable from
//!   `sign`/`verify`/key-extraction entry points is reported with its
//!   call chain.
//! * **validate** — the untrusted-input validation-state pass
//!   ([`validate`]): a value decoded from raw bytes (an unchecked
//!   `from_compressed_unchecked`-style decoder, an AODV message parser)
//!   must pass a curve/subgroup sanitizer before reaching a pairing or
//!   group-arithmetic sink. Declassify a reviewed construction with
//!   `// validated: <reason>`.
//! * **overflow** — the limb-overflow lint ([`overflow`]): no bare
//!   `+`/`-`/`*`/`<<` on `u64`/`u128` limb values in the pairing
//!   arithmetic; route carries through `wrapping_*`/`overflowing_*`/
//!   `carrying_*` or the `adc`/`sbb`/`mac` helpers. Suppress with
//!   `// overflow-ok: <reason>`.
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
//!   multiplication (guards bracket map access only), hand-written
//!   `unsafe impl Send/Sync`, `static mut`, and interior-mutability
//!   cells reachable from the registry state are rejected, and guards
//!   bound to `_`, returned, or stored in structs are guard-extension
//!   hazards. Suppress a reviewed site with `// lock-ok: <reason>`.
//! * **secret** — the secret-lifecycle lint ([`secret_lint`]): no
//!   derived `Debug`/`Clone`/`Copy`/serialization on `MasterSecret`,
//!   `PartialPrivateKey`, or any struct holding them, and the seed
//!   types must zeroize in `Drop`. Suppress a deliberate exception
//!   with `// secret-ok: <reason>`.
//! * **hygiene** — every crate keeps `#![forbid(unsafe_code)]` at its
//!   root and opts into the shared `[workspace.lints]` table.
//! * **deps** — every `Cargo.toml` dependency resolves in-repo (path or
//!   workspace), keeping the build offline-safe by construction.
//!
//! Every source lint reads one model, [`parser::ParsedFile`]: each file
//! is scrubbed and parsed once into its test spans, `struct` items and
//! `fn` items (with their calls, loop regions and `let` statements), and
//! [`check_workspace`] parses the crypto crates once for the per-file
//! lints (`panic`, `ct`, `overflow`) and the call-graph lints alike.
//!
//! Suppression reasons are mandatory everywhere: a marker whose reason
//! has no alphanumeric content is itself a finding.
//!
//! The crate is std-only on purpose: the gate must never be the reason
//! the offline build breaks.

#![forbid(unsafe_code)]

pub mod baseline;
pub mod callgraph;
pub mod certify;
pub mod complexity;
pub mod concurrency;
pub mod ct_lint;
pub mod deps_lint;
pub mod hygiene_lint;
pub mod lexer;
pub mod opcount;
pub mod overflow;
pub mod panic_lint;
pub mod parser;
pub mod reach;
pub mod report;
pub mod secret_lint;
pub mod taint;
pub mod validate;

use std::fmt;
use std::path::{Path, PathBuf};

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

/// Crates whose non-test code must be panic-free.
pub const PANIC_SCOPE: &[&str] = &["crates/hash", "crates/pairing", "crates/core"];

/// Crates subject to the constant-time discipline lint.
pub const CT_SCOPE: &[&str] = &["crates/core", "crates/pairing"];

/// Crates covered by the interprocedural call graph (taint and
/// reachability passes).
pub const GRAPH_SCOPE: &[&str] = &["crates/hash", "crates/pairing", "crates/core"];

/// Crates subject to the limb-overflow lint: the multi-precision
/// arithmetic lives in the pairing crate.
pub const OVERFLOW_SCOPE: &[&str] = &["crates/pairing"];

/// Crates covered by the validation-state pass. Wider than
/// [`GRAPH_SCOPE`]: the AODV simulation is where untrusted network
/// bytes enter, so its parsers must be visible as potential sources
/// even though it is not held to the panic/ct discipline.
pub const VALIDATE_SCOPE: &[&str] = &[
    "crates/hash",
    "crates/pairing",
    "crates/core",
    "crates/aodv",
];

/// Crates covered by the asymptotic-complexity certification: the
/// discrete-event simulation and the AODV protocol logic it drives.
pub const COMPLEXITY_SCOPE: &[&str] = &["crates/sim", "crates/aodv"];

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

/// Runs all twelve lints over the workspace rooted at `root`. The
/// per-file lints read the [`GRAPH_SCOPE`] parse, which covers their
/// scopes.
pub fn check_workspace(root: &Path) -> Vec<Finding> {
    let parsed = parse_scope(root, GRAPH_SCOPE);
    let mut findings = Vec::new();
    for (scope, scan) in [
        (
            PANIC_SCOPE,
            panic_lint::scan as fn(&ParsedFile) -> Vec<Finding>,
        ),
        (CT_SCOPE, ct_lint::scan),
        (OVERFLOW_SCOPE, overflow::scan),
    ] {
        for file in parsed.iter().filter(|f| in_scope(&f.path, scope)) {
            findings.extend(scan(file));
        }
    }
    findings.extend(taint::analyze(&parsed));
    findings.extend(reach::analyze(&parsed));
    findings.extend(certify::check_committed::<opcount::Counts<'_>>(
        root,
        |budgets| opcount::analyze(&parsed, budgets),
    ));
    findings.extend(concurrency::analyze(&parsed));
    findings.extend(secret_lint::analyze(&parsed));
    let sim_parsed = parse_scope(root, COMPLEXITY_SCOPE);
    findings.extend(certify::check_committed::<complexity::Classes<'_>>(
        root,
        |budgets| complexity::analyze(&sim_parsed, budgets),
    ));
    findings.extend(validate::analyze(&parse_scope(root, VALIDATE_SCOPE)));
    findings.extend(hygiene_lint::scan(root));
    findings.extend(deps_lint::scan(root));

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
        assert_eq!(
            suppression_near(&lines, 4, "lint:allow(panic)"),
            Suppression::None
        );
    }

    #[test]
    fn suppression_stops_at_code_lines() {
        let lines = vec!["// ct-ok: reason", "let a = 1;", "if secret > 0 {"];
        assert_eq!(suppression_near(&lines, 3, "ct-ok:"), Suppression::None);
    }

    #[test]
    fn per_file_lint_scopes_lie_inside_the_graph_scope() {
        // `check_workspace` runs `panic`, `ct` and `overflow` over the
        // `GRAPH_SCOPE` parse; a crate outside it would go unscanned.
        for scope in [PANIC_SCOPE, CT_SCOPE, OVERFLOW_SCOPE] {
            assert!(scope.iter().all(|c| GRAPH_SCOPE.contains(c)), "{scope:?}");
        }
        assert!(in_scope("crates/core/src/mccls.rs", CT_SCOPE));
        assert!(!in_scope("crates/hash/src/lib.rs", CT_SCOPE));
        assert!(!in_scope("crates/core2/src/lib.rs", CT_SCOPE));
    }

    #[test]
    fn finding_display_format() {
        let f = Finding {
            file: "crates/core/src/mccls.rs".into(),
            line: 12,
            lint: "panic",
            message: "`unwrap()` in non-test code".into(),
        };
        assert_eq!(
            f.to_string(),
            "crates/core/src/mccls.rs:12: [panic] `unwrap()` in non-test code"
        );
    }
}
