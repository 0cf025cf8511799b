//! The zero-false-positive contract: the shipped tree passes the gate.
//!
//! If this test fails, either a real violation was introduced (fix it or
//! suppress it with a written justification) or a lint got stricter and
//! now misfires on idiomatic code (fix the lint). Both are release
//! blockers, which is exactly why this runs in `cargo test`.

// Tests may panic freely; that is how they fail.
#![allow(clippy::expect_used)]

use std::collections::HashSet;
use std::path::PathBuf;

use mccls_xtask::callgraph::CallGraph;
use mccls_xtask::parser::{parse_files, ParsedFile};
use mccls_xtask::{taint, Finding};

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root exists")
}

fn fixture(name: &str) -> String {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures");
    std::fs::read_to_string(dir.join(name)).expect("fixture exists")
}

// The `ct` lint over the fixture's call graph, as `check_workspace`
// runs it.
fn ct_findings(files: &[ParsedFile]) -> Vec<Finding> {
    taint::analyze(files, &CallGraph::build(files))
}

/// Every fixture run, one per analyzer call, titled `<lint> <fixture>`.
fn fixture_runs() -> Vec<(&'static str, Vec<Finding>)> {
    use mccls_xtask::{complexity, parser};
    let parsed = |name: &str| parser::parse_files(&[(name.to_owned(), fixture(name))]);
    let complexity_budgets = complexity::parse_budgets(&fixture("complexity_budgets.toml"))
        .expect("complexity fixture budgets parse");
    vec![
        ("ct ct_cases.rs", ct_findings(&parsed("ct_cases.rs"))),
        ("ct taint_cases.rs", ct_findings(&parsed("taint_cases.rs"))),
        (
            "ct suppression_cases.rs",
            ct_findings(&parsed("suppression_cases.rs")),
        ),
        (
            "complexity complexity_cases.rs",
            complexity::analyze(&parsed("complexity_cases.rs"), &complexity_budgets),
        ),
        (
            "ct prepared_cases.rs",
            ct_findings(&parsed("prepared_cases.rs")),
        ),
    ]
}

#[test]
fn fixture_findings_match_the_committed_lists() {
    // The fixture tests below match message fragments; this one pins
    // every finding of every fixture run, so an extra finding, a moved
    // line or a reworded message fails here even when each fragment
    // still matches. One sorted section per analyzer call, rendered
    // with `Finding`'s `Display`.
    let mut actual = String::new();
    for (title, mut findings) in fixture_runs() {
        findings.sort();
        actual.push_str(&format!("== {title}\n"));
        for f in findings {
            actual.push_str(&format!("{f}\n"));
        }
    }
    let expected = fixture("expected_findings.txt");
    assert!(
        actual == expected,
        "fixture findings drifted from fixtures/expected_findings.txt; the full list is:\n{actual}"
    );
}

#[test]
fn every_fixture_finding_names_a_row_of_the_lint_table() {
    // `check_workspace` runs a lint only through its `report::LINTS`
    // row; a finding whose id has no row would reach SARIF under a rule
    // the driver never advertised.
    let ids: Vec<&str> = mccls_xtask::report::LINTS.iter().map(|l| l.id).collect();
    for (title, findings) in fixture_runs() {
        for f in findings {
            assert!(
                ids.contains(&f.lint),
                "`{title}` emitted `{f}` with no lint row"
            );
        }
    }
}

#[test]
fn shipped_tree_is_clean() {
    let findings = mccls_xtask::check_workspace(&workspace_root());
    assert!(
        findings.is_empty(),
        "xtask check found {} violation(s) in the shipped tree:\n{}",
        findings.len(),
        findings
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn fixtures_do_fail_the_gate() {
    // The fixtures exist to prove the lints can fire; if they ever scan
    // clean, the gate has silently gone blind.
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures");
    let ct_src = std::fs::read_to_string(dir.join("ct_cases.rs")).expect("ct fixture exists");
    assert!(!ct_findings(&parse_files(&[("ct_cases.rs".to_owned(), ct_src)])).is_empty());
}

#[test]
fn taint_fixture_trips_only_the_interprocedural_pass() {
    // The dirty chain (extract_share -> fold_exponent -> reduce_window)
    // is locally clean in every function; only the call-graph fixpoint
    // can connect the master secret to the branch two hops away. The
    // `_ct` twins are branch-free and must stay silent, and so must the
    // associated `Window::pad_ct`, which a bare `pad_ct(..)` call does
    // not resolve to.
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures");
    let src = std::fs::read_to_string(dir.join("taint_cases.rs")).expect("taint fixture exists");
    let files = parse_files(&[("taint_cases.rs".to_owned(), src)]);
    // Sanity: no body violates on its own, with no parameter seeded and
    // no call known to return a secret, so anything the lint reports
    // came across a call edge.
    let raw: Vec<&str> = files[0].raw_lines.iter().map(String::as_str).collect();
    for f in &files[0].fns {
        let local = mccls_xtask::ct_lint::analyze_body(f, &raw, &[], &HashSet::new());
        let clean = local.violations.is_empty();
        assert!(clean, "`{}` is not locally clean", f.name);
    }
    let findings = ct_findings(&files);
    assert!(
        findings.iter().any(|f| f
            .message
            .contains("branch conditioned on secret-carrying `window`")),
        "expected the two-hop branch leak to fire, got: {findings:?}"
    );
    assert!(
        findings.iter().all(|f| !f.message.contains("_ct")),
        "the constant-time twins must not be flagged: {findings:?}"
    );
}

#[test]
fn bare_suppression_reasons_do_not_suppress() {
    // A marker with an empty or whitespace-only reason is itself a
    // finding; only a written justification silences the lints.
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures");
    let src = std::fs::read_to_string(dir.join("suppression_cases.rs"))
        .expect("suppression fixture exists");
    let ct = ct_findings(&parse_files(&[("suppression_cases.rs".to_owned(), src)]));
    assert!(
        ct.iter().any(|f| f.message.contains("gives no reason")),
        "bare ct-ok must still be reported: {ct:?}"
    );
    // The justified twin's site is suppressed: every surviving finding
    // points at the bare-marker function (lines 1-17).
    for f in &ct {
        assert!(
            f.line <= 17,
            "justified suppression failed to silence line {}: {f:?}",
            f.line
        );
    }
}

#[test]
fn complexity_fixture_trips_only_the_interprocedural_analysis() {
    // `flood_rreq` is locally loop-free: the quadratic scan lives one
    // call down, so an overrun finding proves classes composed across
    // call edges. The recursion must saturate to unbounded, the drifted
    // contract and bare suppression must fire, the ghost entry must be
    // dead, and the exactly-budgeted / justified twins must stay silent.
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures");
    let src = std::fs::read_to_string(dir.join("complexity_cases.rs"))
        .expect("complexity fixture exists");
    let budgets_text = std::fs::read_to_string(dir.join("complexity_budgets.toml"))
        .expect("complexity fixture budgets exist");
    let budgets =
        mccls_xtask::complexity::parse_budgets(&budgets_text).expect("fixture toml parses");
    let files = mccls_xtask::parser::parse_files(&[("complexity_cases.rs".to_owned(), src)]);

    // Sanity: the overrun entry point has no loop of its own, so the
    // `nodes^2` it is charged is genuinely interprocedural.
    let entry = files[0]
        .fns
        .iter()
        .find(|f| f.name == "flood_rreq")
        .expect("fixture entry point parses");
    assert!(
        !entry.body.contains("for "),
        "fixture entry must be locally loop-free or the test proves nothing"
    );

    let findings = mccls_xtask::complexity::analyze(&files, &budgets);
    for frag in [
        "`flood_rreq` computes to nodes^2, exceeding its budget `fixture.flood`",
        "`retry_send` has no static complexity bound",
        "stale contract: `drifted_walk`",
        "gives no reason",
        "dead budget entry `fixture.ghost`",
    ] {
        assert!(
            findings.iter().any(|f| f.message.contains(frag)),
            "expected a finding containing {frag:?}, got: {findings:?}"
        );
    }
    for quiet in ["relay_frame", "checksum"] {
        assert!(
            findings.iter().all(|f| !f.message.contains(quiet)),
            "clean twin `{quiet}` was flagged: {findings:?}"
        );
    }
}

#[test]
fn removing_the_grid_suppression_fails_the_complexity_gate() {
    // `Network::neighbors_of` keeps a linear-scan ablation branch that
    // is legal only under its reviewed suppression. Strip that one
    // comment and re-run the committed budgets: the gate must report
    // the node-bound path, proving that deleting the spatial grid (or
    // routing queries through the linear scan) cannot land silently.
    let root = workspace_root();
    let mut stripped = false;
    let mut sources = Vec::new();
    for rel in mccls_xtask::COMPLEXITY_SCOPE {
        for file in mccls_xtask::rust_files(&root.join(rel).join("src")) {
            let mut src = std::fs::read_to_string(&file).expect("source file reads");
            let path = mccls_xtask::display_path(&root, &file);
            if path.ends_with("network/core.rs") {
                let before = src.lines().count();
                src = src
                    .lines()
                    .filter(|l| !l.contains("complexity-ok: bench-only ablation path"))
                    .collect::<Vec<_>>()
                    .join("\n");
                assert_eq!(
                    src.lines().count() + 1,
                    before,
                    "the ablation suppression moved; update this test"
                );
                stripped = true;
            }
            sources.push((path, src));
        }
    }
    assert!(
        stripped,
        "network/core.rs not found in the complexity scope"
    );
    let budgets_text = std::fs::read_to_string(root.join(mccls_xtask::complexity::BUDGET_FILE))
        .expect("committed complexity budgets exist");
    let budgets =
        mccls_xtask::complexity::parse_budgets(&budgets_text).expect("committed budgets parse");
    let files = mccls_xtask::parser::parse_files(&sources);
    let findings = mccls_xtask::complexity::analyze(&files, &budgets);
    assert!(
        findings
            .iter()
            .any(|f| f.message.contains("`Network::neighbors_of`")
                && f.message.contains("exceeding its budget")),
        "expected the unsuppressed linear scan to overrun `neighbors_of`, got: {findings:?}"
    );
}

#[test]
fn prepared_pairing_fixture_fails_the_ct_gate() {
    // Violations shaped like the prepared-pairing engine (secret digit
    // recoding, the batch blinder) must keep tripping the lint: the
    // engine's hot loops are exactly where a secret-dependent branch
    // would sneak in.
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures");
    let src =
        std::fs::read_to_string(dir.join("prepared_cases.rs")).expect("prepared fixture exists");
    let secret_flow = ct_findings(&parse_files(&[("prepared_cases.rs".to_owned(), src)]));
    assert!(
        !secret_flow.is_empty(),
        "expected the secret-digit/blinder branches to fire"
    );
}
