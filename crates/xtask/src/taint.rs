//! The interprocedural secret-taint pass.
//!
//! The function-scoped lint ([`crate::ct_lint::scan`]) cannot see a
//! master secret handed two calls down into a helper that branches on
//! it. This pass can: over the workspace call graph, it seeds taint
//! at the declared secret sources, propagates it across call edges and
//! return values to a fixed point, and reports every secret-reaching
//! function that still contains data-dependent control flow.
//!
//! **Sources** (the declarative list the issue asks for):
//!
//! * parameters whose type mentions a name in [`SECRET_PARAM_TYPES`]
//!   (`MasterSecret`, `PartialPrivateKey`) — key material by type;
//! * the textual initializer sources of
//!   [`crate::ct_lint::TAINT_SOURCES`] — key-material field reads
//!   (`.secret`, `.master`) and scalar-nonce draws (`random_nonzero`,
//!   `::random`), covering "scalar nonces" without tainting every `Fr`;
//! * return values of functions whose body was found to return a
//!   tainted value (name-based, over-approximate).
//!
//! **Propagation**: a call argument that mentions a tainted name taints
//! the corresponding callee parameter; a tainted method receiver taints
//! the callee's `self`. Within a body, taint flows through `let`
//! bindings and assignments ([`crate::ct_lint::analyze_body`]).
//!
//! **Reporting**: only findings that would *not* fire under the
//! function-scoped scan are emitted (lint name `taint`), so a local
//! violation is never double-reported. Suppression uses the same
//! `// ct-ok: <reason>` marker; `// taint-public: <reason>` on a
//! binding declassifies a published protocol value.

use std::collections::{BTreeSet, HashSet};

use crate::callgraph::{name_fixpoint, param_fixpoint, CallGraph, ParamFacts};
use crate::ct_lint::{self, contains_call, TAINT_SOURCES};
use crate::lexer::contains_word;
use crate::parser::ParsedFile;
use crate::Finding;

/// Parameter types that are secret by declaration.
pub const SECRET_PARAM_TYPES: &[&str] = &["MasterSecret", "PartialPrivateKey"];

/// Functions that are variable-time **by contract**: scalar ladders and
/// pairing frontends whose running time legitimately depends on their
/// operands. A secret-carrying argument reaching one of these is
/// reported **at the call site** (where the intent lives — e.g. a
/// baseline scheme accepting the paper's variable-time accounting gets
/// one reviewed `// ct-ok:` per call), and taint is *not* propagated
/// into the sink's body, so the ladder internals don't demand dozens of
/// per-line suppressions for a decision made at the boundary.
pub const VARTIME_SINKS: &[&str] = &[
    "mul_scalar",
    "mul_g1",
    "mul_g2",
    "invert",
    "pair",
    "pair_prepared",
    "pairing",
    "pairing_product",
    "pairing_product_prepared",
    "miller_loop",
    "multi_miller_loop",
    "final_exp",
    "final_exponentiation",
];

/// Runs the interprocedural taint pass over already-parsed files and
/// their call graph.
pub fn analyze(files: &[ParsedFile], graph: &CallGraph) -> Vec<Finding> {
    let secret_fns = secret_return_fns(files, graph);
    let seeds = (0..graph.nodes.len())
        .map(|ni| declared_seeds(files, graph, ni))
        .collect();
    let facts = param_fixpoint(
        files,
        graph,
        seeds,
        VARTIME_SINKS,
        |ni, params| {
            let item = graph.item(files, ni);
            let seeds: Vec<String> = params.iter().cloned().collect();
            let raw = graph.file(files, ni).lines();
            ct_lint::analyze_body(item, &raw, &seeds, &secret_fns).tainted
        },
        |tainted, expr| expr_is_tainted(expr, tainted, &secret_fns),
    );
    report(files, graph, &facts, &secret_fns)
}

/// Declared-secret parameter names of a node (the type-based seeds).
fn declared_seeds(files: &[ParsedFile], graph: &CallGraph, ni: usize) -> BTreeSet<String> {
    graph
        .item(files, ni)
        .params
        .iter()
        .filter(|p| {
            !p.name.is_empty() && SECRET_PARAM_TYPES.iter().any(|t| contains_word(&p.ty, t))
        })
        .map(|p| p.name.clone())
        .collect()
}

/// Computes the set of secret-*returning* function names: functions
/// whose return value is secret under their **intrinsic** sources only
/// (textual sources in the body, declared-secret-type parameters, and
/// calls to other secret-returning functions) — to a fixed point.
///
/// Interprocedurally-propagated parameter taint is deliberately *not*
/// fed into this computation: a combinator like `Fq::mul` returns a
/// secret exactly when its call site hands it one, and the call-site
/// mention rule already covers that. Folding caller taint in here would
/// mark `mul` secret *by name* for the whole workspace — the pollution
/// that drowns the signal.
fn secret_return_fns(files: &[ParsedFile], graph: &CallGraph) -> HashSet<String> {
    name_fixpoint(files, graph, |ni, secret_fns| {
        let item = graph.item(files, ni);
        let raw = graph.file(files, ni).lines();
        let seeds: Vec<String> = declared_seeds(files, graph, ni).into_iter().collect();
        ct_lint::analyze_body(item, &raw, &seeds, secret_fns).returns_secret
    })
}

/// True when an expression carries secrets: it mentions a tainted name,
/// contains a textual taint source, or calls a secret-returning fn.
fn expr_is_tainted(expr: &str, tainted: &[String], secret_fns: &HashSet<String>) -> bool {
    tainted.iter().any(|t| ct_lint::mentions_secret(expr, t))
        || TAINT_SOURCES.iter().any(|s| expr.contains(s))
        || secret_fns.iter().any(|f| contains_call(expr, f))
}

/// Emits the findings the function-scoped scan could not see: for each
/// node, violations present under the converged facts but absent under
/// empty facts are reported as lint `taint`, annotated with the
/// interprocedural entry points (tainted parameters).
fn report(
    files: &[ParsedFile],
    graph: &CallGraph,
    facts: &ParamFacts,
    secret_fns: &HashSet<String>,
) -> Vec<Finding> {
    let empty_calls = HashSet::new();
    let mut findings = Vec::new();
    for ni in 0..graph.nodes.len() {
        let item = graph.item(files, ni);
        let file = graph.file(files, ni);
        let raw = file.lines();
        let seeds: Vec<String> = facts.params[ni].iter().cloned().collect();

        let mut full = ct_lint::analyze_body(item, &raw, &seeds, secret_fns);
        let local = ct_lint::analyze_body(item, &raw, &[], &empty_calls);
        let local_set: HashSet<&(usize, String)> = local.violations.iter().collect();
        full.violations.retain(|v| !local_set.contains(v));
        // Bare-declass markers are the function-scoped scan's to report.
        full.bare_declass.clear();
        // Vartime-sink rule: a secret-carrying argument or receiver
        // handed to a variable-time-by-contract function.
        for edge in &graph.edges[ni] {
            let call = &item.calls[edge.call];
            let callee = graph.item(files, edge.callee);
            if !VARTIME_SINKS.contains(&callee.name.as_str()) {
                continue;
            }
            let hot = call
                .args
                .iter()
                .chain(call.receiver.as_ref())
                .any(|a| expr_is_tainted(a, &full.tainted, secret_fns));
            if hot {
                full.violations.push((
                    call.line,
                    format!(
                        "secret-carrying operand passed to variable-time `{}`",
                        callee.name
                    ),
                ));
            }
        }
        full.violations.sort();
        full.violations.dedup();

        let entry = if seeds.is_empty() {
            String::new()
        } else {
            format!(" [secret enters `{}` via {}]", item.name, seeds.join(", "))
        };
        for f in ct_lint::filter_violations(&file.path, &raw, &[], &full) {
            findings.push(Finding {
                lint: "taint",
                message: format!("{}{entry}", f.message),
                ..f
            });
        }
    }
    findings.sort();
    findings.dedup();
    findings
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // tests may panic freely
mod tests {
    use super::*;
    use crate::parser::parse_files;

    fn run(sources: &[(&str, &str)]) -> Vec<Finding> {
        let owned: Vec<(String, String)> = sources
            .iter()
            .map(|(p, s)| ((*p).to_owned(), (*s).to_owned()))
            .collect();
        let files = parse_files(&owned);
        analyze(&files, &CallGraph::build(&files))
    }

    #[test]
    fn secret_param_type_seeds_taint() {
        let findings = run(&[(
            "a.rs",
            "fn extract(master: &MasterSecret) {\n    if master.is_zero() { bail(); }\n}\n",
        )]);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("`master`"));
        assert!(findings[0].message.contains("via master"));
    }

    #[test]
    fn taint_crosses_one_call_edge() {
        let findings = run(&[(
            "a.rs",
            "fn sign(keys: &Keys) {\n    let x = keys.secret;\n    helper(&x);\n}\n\
             fn helper(v: &Fr) {\n    if v.is_zero() { bail(); }\n}\n",
        )]);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("`v`"));
        assert!(findings[0].message.contains("enters `helper` via v"));
    }

    #[test]
    fn taint_crosses_two_hops_and_method_receivers() {
        let findings = run(&[(
            "a.rs",
            "fn sign(keys: &Keys) {\n    let x = keys.secret;\n    mid(&x);\n}\n\
             fn mid(a: &Fr) {\n    a.leak();\n}\n\
             impl Fr {\n    fn leak(&self) {\n        if self.is_zero() { bail(); }\n    }\n}\n",
        )]);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("`self`"));
        assert!(findings[0].message.contains("enters `leak` via self"));
    }

    #[test]
    fn secret_returning_fn_taints_caller_bindings() {
        let findings = run(&[(
            "a.rs",
            "fn derive(keys: &Keys) -> Fr {\n    let d = keys.secret.invert_ct();\n    d\n}\n\
             fn top() {\n    let k = derive(&keys());\n    if k.is_zero() { bail(); }\n}\n",
        )]);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("`k`"), "{findings:?}");
    }

    #[test]
    fn local_violations_are_not_double_reported() {
        // This branch fires under the function-scoped scan already; the
        // taint pass must stay silent about it.
        let findings = run(&[(
            "a.rs",
            "fn f(keys: &Keys) {\n    let x = keys.secret;\n    if x.is_zero() { bail(); }\n}\n",
        )]);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn ct_ok_suppresses_interprocedural_findings() {
        let findings = run(&[(
            "a.rs",
            "fn sign(keys: &Keys) {\n    helper(&keys.secret);\n}\n\
             fn helper(v: &Fr) {\n    // ct-ok: rejection sampling leaks only candidate-was-zero\n    if v.is_zero() { bail(); }\n}\n",
        )]);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn declassified_binding_stops_propagation() {
        let findings = run(&[(
            "a.rs",
            "fn sign(keys: &Keys) {\n    let n = keys.secret.invert_ct();\n    // taint-public: R is a published signature component\n    let r = ladder(&n);\n    publish(&r);\n}\n\
             fn publish(r: &G2) {\n    if r.is_identity() { skip(); }\n}\n",
        )]);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn vartime_sink_is_flagged_at_the_call_site_only() {
        let findings = run(&[(
            "a.rs",
            "fn sign(keys: &Keys) {\n    let u = mul_g1(&base(), &keys.secret);\n    publish(&u);\n}\n\
             fn mul_g1(p: &G1, k: &Fr) -> G1 {\n    if k.is_zero() { identity() } else { ladder(p, k) }\n}\n",
        )]);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].line, 2, "call site, not ladder internals");
        assert!(findings[0].message.contains("variable-time `mul_g1`"));
    }

    #[test]
    fn suppressed_sink_call_is_quiet() {
        let findings = run(&[(
            "a.rs",
            "fn sign(keys: &Keys) {\n    // ct-ok: AP baseline is variable-time per the paper's accounting\n    let u = mul_g1(&base(), &keys.secret);\n    publish(&u);\n}\n\
             fn mul_g1(p: &G1, k: &Fr) -> G1 {\n    if k.is_zero() { identity() } else { ladder(p, k) }\n}\n",
        )]);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn untainted_workspaces_produce_nothing() {
        let findings = run(&[(
            "a.rs",
            "fn add(a: u64, b: u64) -> u64 {\n    if a > b { a } else { b }\n}\n",
        )]);
        assert!(findings.is_empty(), "{findings:?}");
    }
}
