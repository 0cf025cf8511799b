//! The zero-false-positive contract: the shipped tree passes the gate.
//!
//! If this test fails, either a real violation was introduced (fix it or
//! suppress it with a written justification) or a lint got stricter and
//! now misfires on idiomatic code (fix the lint). Both are release
//! blockers, which is exactly why this runs in `cargo test`.

// Tests may panic freely; that is how they fail.
#![allow(clippy::expect_used)]

use std::path::PathBuf;

use mccls_xtask::parser::parse_file;

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

#[test]
fn fixture_findings_match_the_committed_lists() {
    // The fixture tests below match message fragments; this one pins
    // every finding of every fixture run, so an extra finding, a moved
    // line or a reworded message fails here even when each fragment
    // still matches. One sorted section per analyzer call, rendered
    // with `Finding`'s `Display`.
    use mccls_xtask::{
        complexity, concurrency, ct_lint, opcount, overflow, panic_lint, parser, reach,
        secret_lint, taint, validate, Finding,
    };
    let parsed = |name: &str| parser::parse_files(&[(name.to_owned(), fixture(name))]);
    let scan = |name: &str, lint: fn(&parser::ParsedFile) -> Vec<Finding>| {
        lint(&parse_file(name, &fixture(name)))
    };
    let opcount_budgets = opcount::parse_budgets(&fixture("opcount_budgets.toml"))
        .expect("opcount fixture budgets parse");
    let complexity_budgets = complexity::parse_budgets(&fixture("complexity_budgets.toml"))
        .expect("complexity fixture budgets parse");
    let runs: Vec<(&str, Vec<Finding>)> = vec![
        (
            "panic panic_cases.rs",
            scan("panic_cases.rs", panic_lint::scan),
        ),
        ("ct ct_cases.rs", scan("ct_cases.rs", ct_lint::scan)),
        ("ct taint_cases.rs", scan("taint_cases.rs", ct_lint::scan)),
        (
            "taint taint_cases.rs",
            taint::analyze(&parsed("taint_cases.rs")),
        ),
        (
            "reach reach_cases.rs",
            reach::analyze(&parsed("reach_cases.rs")),
        ),
        (
            "ct suppression_cases.rs",
            scan("suppression_cases.rs", ct_lint::scan),
        ),
        (
            "panic suppression_cases.rs",
            scan("suppression_cases.rs", panic_lint::scan),
        ),
        (
            "validate validate_cases.rs",
            validate::analyze(&parsed("validate_cases.rs")),
        ),
        (
            "overflow overflow_cases.rs",
            scan("overflow_cases.rs", overflow::scan),
        ),
        (
            "opcount opcount_cases.rs",
            opcount::analyze(&parsed("opcount_cases.rs"), &opcount_budgets),
        ),
        (
            "secret secret_cases.rs",
            secret_lint::analyze(&parsed("secret_cases.rs")),
        ),
        (
            "complexity complexity_cases.rs",
            complexity::analyze(&parsed("complexity_cases.rs"), &complexity_budgets),
        ),
        (
            "panic prepared_cases.rs",
            scan("prepared_cases.rs", panic_lint::scan),
        ),
        (
            "ct prepared_cases.rs",
            scan("prepared_cases.rs", ct_lint::scan),
        ),
        (
            "concurrency concurrency_cases.rs",
            concurrency::analyze_with_roots(&parsed("concurrency_cases.rs"), &["FixtureRegistry"]),
        ),
    ];
    let mut actual = String::new();
    for (title, mut findings) in runs {
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
    let panic_src =
        std::fs::read_to_string(dir.join("panic_cases.rs")).expect("panic fixture exists");
    let ct_src = std::fs::read_to_string(dir.join("ct_cases.rs")).expect("ct fixture exists");
    assert!(!mccls_xtask::panic_lint::scan(&parse_file("panic_cases.rs", &panic_src)).is_empty());
    assert!(!mccls_xtask::ct_lint::scan(&parse_file("ct_cases.rs", &ct_src)).is_empty());
}

#[test]
fn taint_fixture_trips_only_the_interprocedural_pass() {
    // The dirty chain (extract_share -> fold_exponent -> reduce_window)
    // is locally clean in every function; only the call-graph fixpoint
    // can connect the master secret to the branch two hops away. The
    // `_ct` twins are branch-free and must stay silent.
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures");
    let src = std::fs::read_to_string(dir.join("taint_cases.rs")).expect("taint fixture exists");
    // Sanity: the function-scoped scan sees nothing, so anything the
    // taint pass reports is genuinely interprocedural.
    assert!(
        mccls_xtask::ct_lint::scan(&parse_file("taint_cases.rs", &src)).is_empty(),
        "fixture must be locally clean or the test proves nothing"
    );
    let files = mccls_xtask::parser::parse_files(&[("taint_cases.rs".to_owned(), src)]);
    let findings = mccls_xtask::taint::analyze(&files);
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
fn reach_fixture_trips_only_the_interprocedural_pass() {
    // `verify` is locally panic-free; the unwrap lives two calls down,
    // so a finding proves the BFS crossed call boundaries. The orphan
    // helper (unreachable) and the justified suppression must stay
    // silent.
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures");
    let src = std::fs::read_to_string(dir.join("reach_cases.rs")).expect("reach fixture exists");
    let files = mccls_xtask::parser::parse_files(&[("reach_cases.rs".to_owned(), src)]);
    let findings = mccls_xtask::reach::analyze(&files);
    assert!(
        findings.iter().any(|f| f
            .message
            .contains("verify -> decode_point -> normalize_limbs")),
        "expected the two-hop panic chain to fire, got: {findings:?}"
    );
    assert!(
        findings
            .iter()
            .all(|f| !f.message.contains("orphan_helper") && !f.message.contains("check_equation")),
        "unreachable/suppressed panics must not be flagged: {findings:?}"
    );
}

#[test]
fn bare_suppression_reasons_do_not_suppress() {
    // A marker with an empty or whitespace-only reason is itself a
    // finding; only a written justification silences the lints.
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures");
    let src = std::fs::read_to_string(dir.join("suppression_cases.rs"))
        .expect("suppression fixture exists");
    let ct = mccls_xtask::ct_lint::scan(&parse_file("suppression_cases.rs", &src));
    assert!(
        ct.iter().any(|f| f.message.contains("gives no reason")),
        "bare ct-ok must still be reported: {ct:?}"
    );
    let panics = mccls_xtask::panic_lint::scan(&parse_file("suppression_cases.rs", &src));
    assert!(
        !panics.is_empty(),
        "bare lint:allow(panic) must still be reported"
    );
    // The justified twin's sites are suppressed: every surviving
    // finding points at the bare-marker functions (lines 1-21).
    for f in ct.iter().chain(panics.iter()) {
        assert!(
            f.line <= 21,
            "justified suppression failed to silence line {}: {f:?}",
            f.line
        );
    }
}

#[test]
fn validate_fixture_trips_only_the_typestate_pass() {
    // The dirty chain (admit_peer -> session_pairing) is locally clean
    // in every function: the unchecked decode and the pairing sink live
    // two hops apart, so a finding proves the validation-state fixpoint
    // crossed call boundaries. The sanitized and declassified twins must
    // stay silent, and the bare marker must itself be reported.
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures");
    let src =
        std::fs::read_to_string(dir.join("validate_cases.rs")).expect("validate fixture exists");
    let files = mccls_xtask::parser::parse_files(&[("validate_cases.rs".to_owned(), src)]);
    let findings = mccls_xtask::validate::analyze(&files);
    assert!(
        findings
            .iter()
            .any(|f| f.message.contains("admit_peer -> session_pairing")),
        "expected the two-hop unvalidated-point chain to fire, got: {findings:?}"
    );
    assert!(
        findings
            .iter()
            .all(|f| !f.message.contains("admit_peer_checked")
                && !f.message.contains("admit_trusted")),
        "sanitized/declassified twins must not be flagged: {findings:?}"
    );
    assert!(
        findings
            .iter()
            .any(|f| f.message.contains("gives no reason")),
        "bare `validated:` marker must still be reported: {findings:?}"
    );
}

#[test]
fn overflow_fixture_fires_and_twins_stay_silent() {
    // The bare `+`/`*`/`<<` sites on limb values must fire; the carry
    // intrinsics, `usize` index arithmetic, and the justified
    // suppression must stay silent; the bare marker is itself a finding.
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures");
    let src =
        std::fs::read_to_string(dir.join("overflow_cases.rs")).expect("overflow fixture exists");
    let findings = mccls_xtask::overflow::scan(&parse_file("overflow_cases.rs", &src));
    for op in ["`+`", "`*`", "`<<`"] {
        assert!(
            findings.iter().any(|f| f.message.contains(op)),
            "expected a bare {op} finding, got: {findings:?}"
        );
    }
    assert!(
        findings
            .iter()
            .any(|f| f.message.contains("gives no reason")),
        "bare `overflow-ok:` marker must still be reported: {findings:?}"
    );
    // The clean twins occupy known line ranges: `acc_fold_ct` (27-30),
    // `index_walk` (33-36), and the justified `shift_fold` (39-42).
    for f in &findings {
        assert!(
            !(27..=42).contains(&f.line),
            "a clean twin was flagged at line {}: {f:?}",
            f.line
        );
    }
}

#[test]
fn opcount_fixture_trips_only_the_interprocedural_analysis() {
    // `session_verify` is locally pairing-free: both pairings live one
    // call down in `peer_term`/`message_term`, so an overrun finding
    // proves cost vectors propagated across call edges. The `while`
    // loop in `drain_queue` must read as unbounded, the ghost budget
    // entry as dead, and the exactly-budgeted `cached_verify` twin
    // must stay silent.
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures");
    let src =
        std::fs::read_to_string(dir.join("opcount_cases.rs")).expect("opcount fixture exists");
    let budgets_text = std::fs::read_to_string(dir.join("opcount_budgets.toml"))
        .expect("opcount fixture budgets exist");
    let budgets = mccls_xtask::opcount::parse_budgets(&budgets_text).expect("fixture toml parses");
    let files = mccls_xtask::parser::parse_files(&[("opcount_cases.rs".to_owned(), src)]);

    // Sanity: the overrun entry point performs no counted operation
    // itself, so anything the analysis charges it is interprocedural.
    let entry = files[0]
        .fns
        .iter()
        .find(|f| f.name == "session_verify")
        .expect("fixture entry point parses");
    assert!(
        entry.calls.iter().all(|c| !c.callee.contains("pair")),
        "fixture entry must be locally pairing-free or the test proves nothing"
    );

    let findings = mccls_xtask::opcount::analyze(&files, &budgets);
    assert!(
        findings.iter().any(|f| f
            .message
            .contains("`session_verify` computes to 2 pairings")
            && f.message
                .contains("exceeding budget `fixture.session_verify`")),
        "expected the interprocedural overrun to fire, got: {findings:?}"
    );
    assert!(
        findings
            .iter()
            .any(|f| f.message.contains("`drain_queue`")
                && f.message.contains("statically unbounded")),
        "expected the while-loop pairing to read as unbounded, got: {findings:?}"
    );
    assert!(
        findings
            .iter()
            .any(|f| f.message.contains("dead budget entry `fixture.ghost`")),
        "expected the ghost entry to be reported dead, got: {findings:?}"
    );
    assert!(
        findings
            .iter()
            .all(|f| !f.message.contains("cached_verify")),
        "the exactly-budgeted twin must stay silent: {findings:?}"
    );
}

#[test]
fn secret_fixture_fires_and_twins_stay_silent() {
    // Derived Debug/Clone on the master secret, the transitive
    // secret-field container, the missing zeroizing Drop, and the bare
    // marker must all fire; the zeroizing seed twin and the justified
    // suppression must stay silent.
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures");
    let src = std::fs::read_to_string(dir.join("secret_cases.rs")).expect("secret fixture exists");
    let files = mccls_xtask::parser::parse_files(&[("secret_cases.rs".to_owned(), src)]);
    let findings = mccls_xtask::secret_lint::analyze(&files);
    for frag in [
        "`MasterSecret` is key material but derives `Debug`",
        "`MasterSecret` is key material but derives `Clone`",
        "no zeroizing `Drop` impl",
        "`KeyVault` holds a secret-typed field but derives `Clone`",
        "no justification",
    ] {
        assert!(
            findings.iter().any(|f| f.message.contains(frag)),
            "expected a finding containing {frag:?}, got: {findings:?}"
        );
    }
    assert!(
        findings
            .iter()
            .all(|f| !f.message.contains("PartialPrivateKey")
                && !f.message.contains("RotationSnapshot")),
        "clean/suppressed twins must not be flagged: {findings:?}"
    );
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
fn committed_baseline_matches_the_tree() {
    // CI diffs `xtask check` against the committed baseline; a baseline
    // that drifts from the tree would let new findings ride in under
    // stale entries. Keep them in lockstep.
    let root = workspace_root();
    let findings = mccls_xtask::check_workspace(&root);
    let text = std::fs::read_to_string(root.join("xtask-baseline.json"))
        .expect("xtask-baseline.json is committed at the workspace root");
    let accepted = mccls_xtask::baseline::parse_ids(&text);
    let diff = mccls_xtask::baseline::diff(&findings, &accepted);
    assert!(
        diff.new.is_empty() && diff.stale.is_empty(),
        "baseline out of sync (run `cargo run -p mccls-xtask -- check --update-baseline`): \
         new={:?} stale={:?}",
        diff.new,
        diff.stale
    );
}

#[test]
fn prepared_pairing_fixture_fails_both_gates() {
    // Violations shaped like the prepared-pairing engine (cached line
    // coefficients, fixed-base table lookups, secret digit recoding)
    // must keep tripping both lints: the engine's hot loops are exactly
    // where a computed index or a secret-dependent branch would sneak in.
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures");
    let src =
        std::fs::read_to_string(dir.join("prepared_cases.rs")).expect("prepared fixture exists");
    let panic_findings = mccls_xtask::panic_lint::scan(&parse_file("prepared_cases.rs", &src));
    assert!(
        panic_findings.len() >= 3,
        "expected the computed-index/unwrap/expect seeds to fire, got: {panic_findings:?}"
    );
    let ct_findings = mccls_xtask::ct_lint::scan(&parse_file("prepared_cases.rs", &src));
    assert!(
        !ct_findings.is_empty(),
        "expected the secret-digit/blinder branches to fire"
    );
}

#[test]
fn concurrency_fixture_fires_all_four_analyses_and_twins_stay_silent() {
    // One fixture registry seeds every class of concurrency hazard the
    // lint certifies against: lock-order cycles (same-class nesting on
    // a shard array plus an interprocedural opposite-order pair), a
    // pairing paid under a write guard, Send/Sync boundary breaks, and
    // guard-extension hazards. Each dirty case has a clean or justified
    // twin that must not be flagged.
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures");
    let src = std::fs::read_to_string(dir.join("concurrency_cases.rs"))
        .expect("concurrency fixture exists");
    let files = mccls_xtask::parser::parse_files(&[("concurrency_cases.rs".to_owned(), src)]);
    let findings = mccls_xtask::concurrency::analyze_with_roots(&files, &["FixtureRegistry"]);

    let expect = |fragment: &str| {
        assert!(
            findings.iter().any(|f| f.message.contains(fragment)),
            "expected a finding containing `{fragment}`, got: {findings:?}"
        );
    };
    // (a) deadlock detection: the same-class shard nesting and the
    // journal/banks opposite-order pair both close cycles.
    expect("lock-order cycle");
    expect("shards[]");
    // (b) hold-across-expensive-op: the pairing under the `pairs` guard.
    expect("held across");
    // (c) Send/Sync boundary audit.
    expect("unsafe impl Sync");
    expect("static mut");
    expect("interior-mutability");
    // (d) guard-extension hazards.
    expect("bound to `_`");
    expect("returns a");
    expect("stores a");
    // A bare `// lock-ok:` is itself a violation and does not waive
    // the gate_a/gate_b cycle it decorates.
    expect("gives no reason");

    // Twins: the precompute-first path, the named guard, the justified
    // epoch ordering, the atomic counter, and the unreachable RefCell
    // scratch pad are all clean.
    for quiet in [
        "admit_fast",
        "drain_freelist",
        "epoch_a",
        "epoch_b",
        "AtomicU64",
        "ScratchPad",
    ] {
        assert!(
            findings.iter().all(|f| !f.message.contains(quiet)),
            "clean twin `{quiet}` was flagged: {findings:?}"
        );
    }
    assert_eq!(
        findings.len(),
        11,
        "exact finding set drifted: {findings:?}"
    );
}
