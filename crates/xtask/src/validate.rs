//! The untrusted-input validation-state pass.
//!
//! The classic break of certificateless schemes is Al-Riyami–Paterson
//! key replacement: an adversary ships a malformed or wrong-subgroup
//! "public key" and the verifier happily pairs with it. The paper's
//! security argument assumes every group element entering a pairing is
//! a valid point of the prime-order subgroup, so this pass proves the
//! code keeps that promise: no value decoded from untrusted bytes may
//! reach a pairing or group-arithmetic sink without passing a
//! curve/subgroup check.
//!
//! The model is a typestate-style fixpoint over the workspace call
//! graph:
//!
//! * **Sources** — *unchecked decoders*: functions that take raw bytes
//!   (a parameter whose type mentions `u8`) and return a group value
//!   ([`GROUP_TYPE_WORDS`]) without calling a sanitizer. Classification
//!   propagates: a group-returning function that calls an unchecked
//!   decoder and never sanitizes is itself an unchecked decoder. The
//!   checked `Option`-returning `from_compressed` path calls
//!   `is_torsion_free`/`is_on_curve` internally, so it — and everything
//!   built on it, like `Signature::from_bytes` — classifies as checked.
//! * **Sanitizers** — a call to [`SANITIZERS`] on a binding clears it;
//!   a reviewed `// validated: <reason>` marker declassifies a binding
//!   (or, placed on a decoder's declaration, the whole decoder — the
//!   escape hatch for constructions that are valid *by construction*,
//!   like cofactor-cleared hash-to-curve outputs). A bare marker is
//!   itself a finding.
//! * **Sinks** — pairing frontends, `multi_miller_loop`, and the
//!   mixed-addition/scalar-multiplication entry points
//!   ([`VALIDATE_SINKS`]). An unvalidated value in a sink argument or
//!   receiver is reported **at the call site** with the concrete call
//!   chain that carried it there.
//!
//! Known over-approximations (DESIGN.md §8.2): decoder classification
//! and sink matching are name-based like the rest of the call graph;
//! sanitizer clearing is flow-insensitive within a body (a check
//! anywhere in the function clears the binding, even on a branch); and
//! a checked wrapper's *result* is trusted as a unit — internal flows
//! of decoder bodies are not re-derived.

use std::collections::{BTreeSet, HashSet};

use crate::callgraph::{chain_text, name_fixpoint, param_fixpoint, CallGraph, ParamFacts};
use crate::ct_lint::{self, contains_call};
use crate::lexer::contains_word;
use crate::parser::{FnItem, ParsedFile};
use crate::{suppression_near, Finding, Suppression};

/// The declassification marker: a reviewed statement that a decoded
/// value is valid without a runtime check.
pub const VALIDATED_MARKER: &str = "validated:";

/// Type names that identify a group-element-carrying return value.
pub const GROUP_TYPE_WORDS: &[&str] = &[
    "G1Affine",
    "G2Affine",
    "G1Projective",
    "G2Projective",
    "AffinePoint",
    "ProjectivePoint",
    "Signature",
    "Gt",
    "G2Prepared",
];

/// Checked-constructor calls that establish curve/subgroup membership.
pub const SANITIZERS: &[&str] = &["is_on_curve", "is_torsion_free"];

/// Pairing frontends and group-arithmetic entry points that must never
/// see an unvalidated element. Matching is name-based so sinks fire
/// even when the callee resolves outside the parsed scope.
pub const VALIDATE_SINKS: &[&str] = &[
    "pair",
    "pair_prepared",
    "pairing",
    "pairing_product",
    "pairing_product_prepared",
    "miller_loop",
    "multi_miller_loop",
    "mul_scalar",
    "mul_g1",
    "mul_g2",
    "add_mixed",
    "add_affine",
];

/// Runs the validation-state pass over already-parsed files.
pub fn analyze(files: &[ParsedFile]) -> Vec<Finding> {
    let graph = CallGraph::build(files);
    let (unchecked, mut findings) = classify_decoders(files, &graph);
    // Unvalidated values cross call edges to a fixed point, with one
    // provenance parent per node for chain rendering.
    let state = param_fixpoint(
        files,
        &graph,
        vec![BTreeSet::new(); graph.nodes.len()],
        VALIDATE_SINKS,
        |ni, params| {
            let raw = graph.file(files, ni).lines();
            body_facts(graph.item(files, ni), &raw, params, &unchecked).names
        },
        |names, expr| expr_unvalidated(expr, names, &unchecked),
    );
    findings.extend(report(files, &graph, &unchecked, &state));
    findings.sort();
    findings.dedup();
    findings
}

/// True when the function's return type carries a group element
/// (directly, or via `Self` on a group-typed impl block).
fn returns_group(item: &FnItem) -> bool {
    GROUP_TYPE_WORDS.iter().any(|w| contains_word(&item.ret, w))
        || (contains_word(&item.ret, "Self")
            && item
                .owner
                .as_deref()
                .is_some_and(|o| GROUP_TYPE_WORDS.iter().any(|w| contains_word(o, w))))
}

/// True when the function accepts raw bytes (the untrusted boundary).
fn takes_bytes(item: &FnItem) -> bool {
    item.params.iter().any(|p| contains_word(&p.ty, "u8"))
}

/// True when the body calls a checked constructor.
fn calls_sanitizer(item: &FnItem) -> bool {
    item.calls
        .iter()
        .any(|c| SANITIZERS.contains(&c.callee.as_str()))
}

/// Declaration-level marker lookup: a marker counts above the `fn`
/// keyword or above the body's opening `{` (they differ on multi-line
/// signatures). `Justified` anywhere wins; otherwise a bare marker
/// anywhere is reported.
fn decl_suppression(item: &FnItem, raw: &[&str]) -> Suppression {
    let at_decl = suppression_near(raw, item.decl_line, VALIDATED_MARKER);
    let at_body = suppression_near(raw, item.body_line, VALIDATED_MARKER);
    if at_decl == Suppression::Justified || at_body == Suppression::Justified {
        Suppression::Justified
    } else if at_decl == Suppression::MissingReason || at_body == Suppression::MissingReason {
        Suppression::MissingReason
    } else {
        Suppression::None
    }
}

/// Classifies every group-returning function as checked or unchecked,
/// to a fixed point; returns the unchecked decoder names plus findings
/// for bare declaration-level markers.
fn classify_decoders(files: &[ParsedFile], graph: &CallGraph) -> (HashSet<String>, Vec<Finding>) {
    // First fixed point: the *checked* decoders. A group-returning
    // function is checked when it calls a sanitizer itself or delegates
    // to an already-checked decoder — `Signature::from_bytes` earns its
    // status from `from_compressed`'s internal subgroup test.
    let checked = name_fixpoint(files, graph, |ni, checked| {
        let item = graph.item(files, ni);
        returns_group(item)
            && (calls_sanitizer(item) || item.calls.iter().any(|c| checked.contains(&c.callee)))
    });

    // Second fixed point: the *unchecked* decoders — group-returning,
    // not checked, not declassified by a reviewed marker, and either
    // accepting raw bytes or propagating another unchecked decoder.
    let unchecked = name_fixpoint(files, graph, |ni, unchecked| {
        let item = graph.item(files, ni);
        returns_group(item)
            && !checked.contains(&item.name)
            && decl_suppression(item, &graph.file(files, ni).lines()) != Suppression::Justified
            && (takes_bytes(item) || item.calls.iter().any(|c| unchecked.contains(&c.callee)))
    });
    let mut findings = Vec::new();
    // A bare declaration-level marker never declassifies and is itself
    // a finding — same contract as every other suppression in the gate.
    for ni in 0..graph.nodes.len() {
        let item = graph.item(files, ni);
        if !returns_group(item) {
            continue;
        }
        let file = graph.file(files, ni);
        let raw = file.lines();
        if decl_suppression(item, &raw) == Suppression::MissingReason {
            findings.push(Finding {
                file: file.path.clone(),
                line: item.body_line,
                lint: "validate",
                message: format!(
                    "validated marker on `{}` present but gives no reason",
                    item.name
                ),
            });
        }
    }
    (unchecked, findings)
}

/// One body's intraprocedural result.
struct BodyFacts {
    /// Names holding unvalidated values after the fixed point.
    names: Vec<String>,
    /// Lines of bare `validated:` markers (findings).
    bare_marker_lines: Vec<usize>,
}

/// Intraprocedural value tracking: seeds (unvalidated parameters) plus
/// bindings fed by unchecked decoders, propagated through `let`s and
/// assignments; cleared by sanitizer calls and justified markers.
fn body_facts(
    item: &FnItem,
    raw: &[&str],
    seeds: &BTreeSet<String>,
    unchecked: &HashSet<String>,
) -> BodyFacts {
    let bindings = item.bindings();
    let declassified = ct_lint::declassified_by(&bindings, raw, VALIDATED_MARKER);

    // Flow-insensitive sanitizer clearing: a membership check anywhere
    // in the body validates the binding (word-boundary matched, so a
    // check on `pk` never clears a binding named `k`).
    let sanitized = |name: &str| {
        SANITIZERS.iter().any(|s| {
            let pat = format!("{name}.{s}");
            item.body.match_indices(&pat).any(|(i, _)| {
                !item.body[..i]
                    .chars()
                    .next_back()
                    .is_some_and(crate::lexer::is_ident_char)
            })
        })
    };

    let names = ct_lint::binding_fixpoint(
        &bindings,
        seeds,
        |name| declassified.names.contains(name) || sanitized(name),
        |names, rhs| expr_unvalidated(rhs, names, unchecked),
    );
    BodyFacts {
        names,
        bare_marker_lines: declassified.bare_lines,
    }
}

/// True when an expression carries an unvalidated value: it mentions an
/// unvalidated name or calls an unchecked decoder.
fn expr_unvalidated(expr: &str, names: &[String], unchecked: &HashSet<String>) -> bool {
    names.iter().any(|n| contains_word(expr, n)) || unchecked.iter().any(|d| contains_call(expr, d))
}

/// Emits sink findings: an unvalidated argument or receiver at a sink
/// call site, annotated with the concrete call chain. Bindings' bare
/// markers ride along.
fn report(
    files: &[ParsedFile],
    graph: &CallGraph,
    unchecked: &HashSet<String>,
    state: &ParamFacts,
) -> Vec<Finding> {
    let mut findings = Vec::new();
    for ni in 0..graph.nodes.len() {
        let item = graph.item(files, ni);
        let file = graph.file(files, ni);
        let raw = file.lines();
        let facts = body_facts(item, &raw, &state.params[ni], unchecked);

        for line in &facts.bare_marker_lines {
            findings.push(Finding {
                file: file.path.clone(),
                line: *line,
                lint: "validate",
                message: "validated marker present but gives no reason".to_owned(),
            });
        }

        for call in &item.calls {
            if !VALIDATE_SINKS.contains(&call.callee.as_str()) {
                continue;
            }
            let hot = call
                .args
                .iter()
                .chain(call.receiver.as_ref())
                .any(|a| expr_unvalidated(a, &facts.names, unchecked));
            if !hot {
                continue;
            }
            let message = format!(
                "unvalidated group element reaches sink `{}` via {} -> {} \
                 (decode through the checked constructors or sanitize with \
                 is_on_curve/is_torsion_free)",
                call.callee,
                chain_text(files, graph, &state.parent, ni),
                call.callee
            );
            match suppression_near(&raw, call.line, VALIDATED_MARKER) {
                Suppression::Justified => {}
                Suppression::MissingReason => findings.push(Finding {
                    file: file.path.clone(),
                    line: call.line,
                    lint: "validate",
                    message: format!("{message} (validated marker gives no reason)"),
                }),
                Suppression::None => findings.push(Finding {
                    file: file.path.clone(),
                    line: call.line,
                    lint: "validate",
                    message,
                }),
            }
        }
    }
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

    const UNCHECKED_DECODER: &str = "fn decode_raw(bytes: &[u8; 96]) -> G2Affine {\n    \
         let x = fp2_from(bytes);\n    G2Affine::raw(x)\n}\n";

    #[test]
    fn unvalidated_decode_reaching_pair_is_reported_with_chain() {
        let findings = run(&[(
            "a.rs",
            &format!(
                "{UNCHECKED_DECODER}\
                 fn verify(msg: &[u8], key: &[u8; 96]) -> bool {{\n    \
                 let pk = decode_raw(key);\n    \
                 let lhs = pair(&point(msg), &pk);\n    lhs == rhs()\n}}\n"
            ),
        )]);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("sink `pair`"));
        assert!(findings[0].message.contains("via verify -> pair"));
    }

    #[test]
    fn sanitizer_call_clears_the_value() {
        let findings = run(&[(
            "a.rs",
            &format!(
                "{UNCHECKED_DECODER}\
                 fn verify(msg: &[u8], key: &[u8; 96]) -> bool {{\n    \
                 let pk = decode_raw(key);\n    \
                 if !pk.is_torsion_free() {{ return false; }}\n    \
                 pair(&point(msg), &pk) == rhs()\n}}\n"
            ),
        )]);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn checked_decoder_is_not_a_source() {
        let findings = run(&[(
            "a.rs",
            "fn from_compressed(bytes: &[u8; 96]) -> G2Affine {\n    \
             let p = build(bytes);\n    assert_ok(p.is_torsion_free());\n    p\n}\n\
             fn verify(msg: &[u8], key: &[u8; 96]) -> bool {\n    \
             let pk = from_compressed(key);\n    pair(&point(msg), &pk) == rhs()\n}\n",
        )]);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn unchecked_classification_propagates_through_wrappers() {
        let findings = run(&[(
            "a.rs",
            &format!(
                "{UNCHECKED_DECODER}\
                 fn parse_key(bytes: &[u8; 96]) -> G2Affine {{\n    decode_raw(bytes)\n}}\n\
                 fn verify(msg: &[u8], key: &[u8; 96]) -> bool {{\n    \
                 let pk = parse_key(key);\n    pair(&point(msg), &pk) == rhs()\n}}\n"
            ),
        )]);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("sink `pair`"));
    }

    #[test]
    fn flow_crosses_call_edges_with_chain() {
        let findings = run(&[(
            "a.rs",
            &format!(
                "{UNCHECKED_DECODER}\
                 fn verify(msg: &[u8], key: &[u8; 96]) -> bool {{\n    \
                 let pk = decode_raw(key);\n    check(msg, &pk)\n}}\n\
                 fn check(msg: &[u8], pk: &G2Affine) -> bool {{\n    \
                 pair(&point(msg), pk) == rhs()\n}}\n"
            ),
        )]);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(
            findings[0].message.contains("via verify -> check -> pair"),
            "{findings:?}"
        );
    }

    #[test]
    fn justified_marker_declassifies_a_binding() {
        let findings = run(&[(
            "a.rs",
            &format!(
                "{UNCHECKED_DECODER}\
                 fn verify(msg: &[u8], key: &[u8; 96]) -> bool {{\n    \
                 // validated: subgroup membership checked by the KGC at registration\n    \
                 let pk = decode_raw(key);\n    pair(&point(msg), &pk) == rhs()\n}}\n"
            ),
        )]);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn bare_marker_is_reported_and_does_not_declassify() {
        let findings = run(&[(
            "a.rs",
            &format!(
                "{UNCHECKED_DECODER}\
                 fn verify(msg: &[u8], key: &[u8; 96]) -> bool {{\n    \
                 // validated:\n    \
                 let pk = decode_raw(key);\n    pair(&point(msg), &pk) == rhs()\n}}\n"
            ),
        )]);
        assert!(
            findings
                .iter()
                .any(|f| f.message.contains("gives no reason")),
            "{findings:?}"
        );
        assert!(
            findings.iter().any(|f| f.message.contains("sink `pair`")),
            "{findings:?}"
        );
    }

    #[test]
    fn declaration_marker_declassifies_a_whole_decoder() {
        let findings = run(&[(
            "a.rs",
            "// validated: output is cofactor-cleared, torsion-free by construction\n\
             fn hash_point(msg: &[u8]) -> G1Projective {\n    clear_cofactor(map(msg))\n}\n\
             fn verify(msg: &[u8]) -> bool {\n    \
             let h = hash_point(msg);\n    pair(&h, &gen2()) == rhs()\n}\n",
        )]);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn raw_prepared_decoder_is_a_source() {
        // A G2Prepared built straight from wire bytes — line
        // coefficients trusted from the network — is an unchecked
        // decoder, and feeding it to the Miller loop is a sink hit.
        let findings = run(&[(
            "a.rs",
            "fn prepared_raw(bytes: &[u8]) -> G2Prepared {\n    \
             G2Prepared::raw_steps(bytes)\n}\n\
             fn verify(msg: &[u8], wire: &[u8]) -> bool {\n    \
             let prep = prepared_raw(wire);\n    \
             multi_miller_loop(&[(&point(msg), &prep)]).final_exponentiation().is_identity()\n}\n",
        )]);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("sink `multi_miller_loop`"));
    }

    #[test]
    fn prepared_from_bytes_via_checked_point_decoder_is_checked() {
        // The real wire format: decode the source point through the
        // checked constructor, then re-derive the lines. The delegation
        // makes `from_bytes` itself a checked decoder.
        let findings = run(&[(
            "a.rs",
            "fn from_compressed(bytes: &[u8; 96]) -> G2Affine {\n    \
             let p = build(bytes);\n    assert_ok(p.is_torsion_free());\n    p\n}\n\
             fn from_bytes(bytes: &[u8]) -> G2Prepared {\n    \
             let source = from_compressed(fixed(bytes));\n    \
             G2Prepared::from_affine(&source)\n}\n\
             fn verify(msg: &[u8], wire: &[u8]) -> bool {\n    \
             let prep = from_bytes(wire);\n    \
             multi_miller_loop(&[(&point(msg), &prep)]).final_exponentiation().is_identity()\n}\n",
        )]);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn non_group_byte_functions_are_not_sources() {
        let findings = run(&[(
            "a.rs",
            "fn digest(bytes: &[u8]) -> [u8; 32] {\n    sha(bytes)\n}\n\
             fn verify(msg: &[u8]) -> bool {\n    \
             let d = digest(msg);\n    pair(&gen1(), &gen2()) == rhs()\n}\n",
        )]);
        assert!(findings.is_empty(), "{findings:?}");
    }
}
