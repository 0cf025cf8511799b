//! The panic-reachability pass.
//!
//! The function-scoped panic lint flags every risky site; this pass
//! answers the sharper question a CPS deployment cares about: *can the
//! public API actually reach one?* It walks the workspace call graph
//! from the scheme entry points ([`API_ROOTS`]) and fails on any
//! reachable `panic!`-family macro, `unwrap`/`expect`, or risky
//! indexing that is not suppressed with a reasoned
//! `// lint:allow(panic)` — reporting the call chain that reaches it,
//! which the per-site lint cannot do.
//!
//! Reachability inherits the call graph's over-approximations
//! (DESIGN.md §8): a method call reaches every same-named method, so a
//! reported chain is a *candidate* path. That bias is deliberate — a
//! spurious chain costs one review; a missed one hides an abort on a
//! mesh node.

use std::collections::VecDeque;

use crate::callgraph::{chain_text, CallGraph};
use crate::parser::ParsedFile;
use crate::{panic_lint, suppression_near, Finding, Suppression};

/// Public API surface: the entry points of the four schemes plus the
/// KGC and verifier frontends. Names that don't exist in a given tree
/// simply match nothing.
pub const API_ROOTS: &[&str] = &[
    "setup",
    "extract_partial_private_key",
    "generate_key_pair",
    "sign",
    "verify",
    "verify_prepared",
    "batch_verify",
    "is_valid",
];

/// Runs the reachability pass over already-parsed files.
pub fn analyze(files: &[ParsedFile]) -> Vec<Finding> {
    let graph = CallGraph::build(files);

    // BFS from every root, remembering one parent per node so each
    // finding can show a concrete (shortest) chain from the API.
    let mut parent: Vec<Option<usize>> = vec![None; graph.nodes.len()];
    let mut visited = vec![false; graph.nodes.len()];
    let mut queue = VecDeque::new();
    for root in API_ROOTS {
        for &ni in graph.named(root) {
            if !visited[ni] {
                visited[ni] = true;
                queue.push_back(ni);
            }
        }
    }
    while let Some(ni) = queue.pop_front() {
        for edge in &graph.edges[ni] {
            if !visited[edge.callee] {
                visited[edge.callee] = true;
                parent[edge.callee] = Some(ni);
                queue.push_back(edge.callee);
            }
        }
    }

    let mut findings = Vec::new();
    for (ni, &seen) in visited.iter().enumerate() {
        if !seen {
            continue;
        }
        let item = graph.item(files, ni);
        let file = graph.file(files, ni);
        let raw = file.lines();
        for (body_line, message) in panic_lint::panic_sites(&item.body) {
            let line = item.body_line + body_line - 1;
            match suppression_near(&raw, line, panic_lint::ALLOW_MARKER) {
                Suppression::Justified => continue,
                Suppression::MissingReason | Suppression::None => {}
            }
            findings.push(Finding {
                file: file.path.clone(),
                line,
                lint: "reach",
                message: format!(
                    "{message} reachable from the public API via {}",
                    chain_text(files, &graph, &parent, ni)
                ),
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
        analyze(&parse_files(&owned))
    }

    #[test]
    fn panic_reachable_interprocedurally_is_reported_with_chain() {
        let findings = run(&[(
            "a.rs",
            "fn verify(sig: &Sig) -> bool {\n    decode(sig)\n}\n\
             fn decode(sig: &Sig) -> bool {\n    inner(sig)\n}\n\
             fn inner(sig: &Sig) -> bool {\n    sig.bytes.first().unwrap() == &0\n}\n",
        )]);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0]
            .message
            .contains("via verify -> decode -> inner"));
        assert_eq!(findings[0].line, 8);
    }

    #[test]
    fn unreachable_panic_is_not_reported() {
        let findings = run(&[(
            "a.rs",
            "fn verify(sig: &Sig) -> bool {\n    true\n}\n\
             fn orphan() {\n    panic!(\"never called from the API\");\n}\n",
        )]);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn suppressed_site_does_not_fire() {
        let findings = run(&[(
            "a.rs",
            "fn verify(v: &[u8]) -> u8 {\n    pick(v)\n}\n\
             fn pick(v: &[u8]) -> u8 {\n    // lint:allow(panic) length checked by caller contract\n    v[compute()]\n}\n",
        )]);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn bare_suppression_still_fires() {
        let findings = run(&[(
            "a.rs",
            "fn verify(v: &[u8]) -> u8 {\n    pick(v)\n}\n\
             fn pick(v: &[u8]) -> u8 {\n    // lint:allow(panic)\n    v[compute()]\n}\n",
        )]);
        assert_eq!(findings.len(), 1, "{findings:?}");
    }

    #[test]
    fn panic_directly_in_root_is_reported() {
        let findings = run(&[("a.rs", "fn sign(m: &[u8]) -> Sig {\n    todo!()\n}\n")]);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("via sign"));
    }
}
