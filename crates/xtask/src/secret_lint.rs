//! Secret-lifecycle lint: key material must not leak through derives
//! and must be wiped on drop.
//!
//! The scheme's long-lived secrets are the KGC master secret
//! (`MasterSecret`) and extracted partial private keys
//! (`PartialPrivateKey`). Three lifecycle hazards are rejected:
//!
//! * `#[derive(Debug)]` — a derived formatter prints the raw limbs
//!   into logs and panic messages (the crate's own redaction policy is
//!   a *manual* `Debug` that never touches the scalar);
//! * `#[derive(Clone)]` / `#[derive(Copy)]` — silent duplication
//!   multiplies the number of stack/heap locations holding key
//!   material, defeating zeroize-on-drop;
//! * `#[derive(Serialize)]` / `#[derive(Deserialize)]` — derived
//!   serialization writes secrets to untrusted sinks.
//!
//! The rule applies to the seed types themselves and transitively to
//! any struct with a secret-typed field. Seed types additionally
//! require a `Drop` impl that zeroizes (body must mention `zeroize`),
//! so key material does not linger in freed memory. Structs that
//! merely *contain* a secret field inherit the derive ban but not the
//! `Drop` obligation — the field's own destructor wipes it.
//!
//! A deliberate exception is suppressed in place with
//! `// secret-ok: <reason>`; a bare marker with no reason is itself a
//! finding. Test-only types (inside `#[cfg(test)]` spans) are skipped.

use std::collections::BTreeSet;

use crate::lexer::contains_word;
use crate::parser::{non_test_structs, ParsedFile, StructItem};
use crate::{suppression_near, Finding, Suppression};

/// Suppression marker for deliberate lifecycle exceptions.
pub const MARKER: &str = "// secret-ok:";

/// Type names that *are* key material.
pub const SEED_TYPES: [&str; 2] = ["MasterSecret", "PartialPrivateKey"];

const FORBIDDEN_DERIVES: [&str; 5] = ["Debug", "Clone", "Copy", "Serialize", "Deserialize"];

/// Derive idents from the contiguous attribute/comment run above
/// `line` (1-based).
fn derives_above(raw_lines: &[String], line: usize) -> Vec<String> {
    let mut out = Vec::new();
    let mut l = line.wrapping_sub(1);
    while l >= 1 {
        let Some(text) = raw_lines.get(l - 1) else {
            break;
        };
        let t = text.trim_start();
        if !t.starts_with("#[") && !t.starts_with("//") {
            break;
        }
        if let Some(pos) = t.find("derive(") {
            if let Some(end) = t[pos..].find(')') {
                for ident in t[pos + "derive(".len()..pos + end].split(',') {
                    let ident = ident.trim().rsplit("::").next().unwrap_or("").trim();
                    if !ident.is_empty() {
                        out.push(ident.to_owned());
                    }
                }
            }
        }
        l -= 1;
    }
    out
}

/// Suppression lookup that tolerates the attribute block between the
/// marker comment and the `struct` keyword: [`suppression_near`] only
/// walks contiguous `//` lines, but `// secret-ok:` naturally sits
/// *above* `#[derive(...)]`, so also probe at the top of the
/// attribute/comment run.
fn suppressed(lines: &[&str], decl_line: usize) -> Suppression {
    let mut l = decl_line;
    loop {
        let found = suppression_near(lines, l, MARKER);
        let above = lines.get(l.wrapping_sub(2)).map(|t| t.trim_start());
        if found != Suppression::None
            || !above.is_some_and(|t| t.starts_with("#[") || t.starts_with("//"))
        {
            return found;
        }
        l -= 1;
    }
}

/// The transitive secret set: seeds plus every struct with a field
/// whose type mentions a secret type.
fn secret_set(structs: &[(&ParsedFile, &StructItem)]) -> BTreeSet<String> {
    let mut secret: BTreeSet<String> = SEED_TYPES.iter().map(|s| (*s).to_owned()).collect();
    loop {
        let mut grew = false;
        for (_, def) in structs {
            if secret.contains(&def.name) {
                continue;
            }
            if secret.iter().any(|s| def.mentions(s)) {
                secret.insert(def.name.clone());
                grew = true;
            }
        }
        if !grew {
            return secret;
        }
    }
}

/// Runs the lint over parsed files.
pub fn analyze(files: &[ParsedFile]) -> Vec<Finding> {
    let structs = non_test_structs(files);
    let secret = secret_set(&structs);
    let mut findings = Vec::new();

    for &(file, def) in &structs {
        if !secret.contains(&def.name) {
            continue;
        }
        let lines = file.lines();
        let is_seed = SEED_TYPES.contains(&def.name.as_str());
        let why = if is_seed {
            "is key material".to_owned()
        } else {
            "holds a secret-typed field".to_owned()
        };

        for derive in &derives_above(&file.raw_lines, def.line) {
            if !FORBIDDEN_DERIVES.contains(&derive.as_str()) {
                continue;
            }
            match suppressed(&lines, def.line) {
                Suppression::Justified => continue,
                Suppression::MissingReason => findings.push(Finding {
                    file: file.path.clone(),
                    line: def.line,
                    lint: "secret",
                    message: format!(
                        "`{}` {why} and derives `{derive}`; the `{MARKER}` marker above it \
                         has no justification — write the reason or remove the derive",
                        def.name
                    ),
                }),
                Suppression::None => findings.push(Finding {
                    file: file.path.clone(),
                    line: def.line,
                    lint: "secret",
                    message: format!(
                        "`{}` {why} but derives `{derive}`: {}; \
                         implement a redacted/manual alternative or suppress with \
                         `{MARKER} <reason>`",
                        def.name,
                        match derive.as_str() {
                            "Debug" =>
                                "derived formatting prints raw key limbs into logs and panic \
                                 messages",
                            "Clone" | "Copy" =>
                                "derived duplication scatters key material across memory and \
                                 defeats zeroize-on-drop",
                            _ => "derived serialization writes key material to untrusted sinks",
                        }
                    ),
                }),
            }
        }

        if is_seed && !has_zeroizing_drop(files, &def.name) {
            match suppressed(&lines, def.line) {
                Suppression::Justified => {}
                _ => findings.push(Finding {
                    file: file.path.clone(),
                    line: def.line,
                    lint: "secret",
                    message: format!(
                        "`{}` {why} but has no zeroizing `Drop` impl: key material lingers \
                         in freed memory; add `impl Drop` that zeroizes, or suppress with \
                         `{MARKER} <reason>`",
                        def.name
                    ),
                }),
            }
        }
    }

    findings
}

/// True when a non-test `impl Drop for name` exists whose `drop` body
/// mentions `zeroize`.
fn has_zeroizing_drop(files: &[ParsedFile], name: &str) -> bool {
    files.iter().any(|file| {
        file.fns.iter().any(|f| {
            !f.is_test
                && f.name == "drop"
                && f.owner.as_deref() == Some(name)
                && contains_word(&f.body, "zeroize")
        })
    })
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // tests may panic freely
mod tests {
    use super::*;
    use crate::parser::parse_files;

    fn run(src: &str) -> Vec<Finding> {
        analyze(&parse_files(&[("t.rs".to_owned(), src.to_owned())]))
    }

    #[test]
    fn forbidden_derives_on_seeds_are_findings() {
        let findings = run(
            "#[derive(Debug, Clone)]\npub struct MasterSecret { s: Fr }\n\
             impl Drop for MasterSecret { fn drop(&mut self) { self.s.zeroize(); } }\n",
        );
        assert_eq!(findings.len(), 2, "{findings:?}");
        assert!(findings.iter().any(|f| f.message.contains("`Debug`")));
        assert!(findings.iter().any(|f| f.message.contains("`Clone`")));
    }

    #[test]
    fn missing_zeroizing_drop_is_a_finding() {
        let findings = run("pub struct PartialPrivateKey { d: G1Projective }\n");
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("no zeroizing `Drop`"));

        let empty_drop = run("pub struct PartialPrivateKey { d: G1Projective }\n\
             impl Drop for PartialPrivateKey { fn drop(&mut self) { let _ = &self.d; } }\n");
        assert_eq!(
            empty_drop.len(),
            1,
            "a Drop that does not zeroize does not count"
        );
    }

    #[test]
    fn clean_seed_types_are_silent() {
        let findings = run("pub struct MasterSecret { s: Fr }\n\
             impl Drop for MasterSecret { fn drop(&mut self) { self.s.zeroize(); } }\n\
             impl fmt::Debug for MasterSecret {\n\
             fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {\n\
             f.write_str(\"MasterSecret(<redacted>)\") } }\n");
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn secret_fields_propagate_transitively() {
        let findings = run("pub struct MasterSecret { s: Fr }\n\
             impl Drop for MasterSecret { fn drop(&mut self) { self.s.zeroize(); } }\n\
             #[derive(Debug)]\npub struct Kgc { params: SystemParams, master: MasterSecret }\n\
             #[derive(Clone)]\npub struct Registry { kgcs: Vec<Kgc> }\n\
             #[derive(Clone)]\npub struct Harmless { n: u64 }\n");
        assert_eq!(findings.len(), 2, "{findings:?}");
        assert!(findings.iter().any(|f| f.message.contains("`Kgc`")));
        assert!(
            findings.iter().any(|f| f.message.contains("`Registry`")),
            "two hops: Registry -> Kgc -> MasterSecret"
        );
        // Derived containers need no Drop of their own.
        assert!(!findings.iter().any(|f| f.message.contains("no zeroizing")));
    }

    #[test]
    fn suppression_needs_a_reason() {
        let justified = run(
            "// secret-ok: ephemeral test-vector key, wiped by the harness\n\
             #[derive(Debug)]\npub struct MasterSecret { s: Fr }\n",
        );
        assert!(justified.is_empty(), "{justified:?}");

        let bare = run("// secret-ok:\n#[derive(Debug)]\npub struct MasterSecret { s: Fr }\n");
        assert_eq!(bare.len(), 2, "derive + missing drop both stand: {bare:?}");
        assert!(bare.iter().any(|f| f.message.contains("no justification")));
    }

    #[test]
    fn test_only_types_are_skipped() {
        let findings = run("pub struct MasterSecret { s: Fr }\n\
             impl Drop for MasterSecret { fn drop(&mut self) { self.s.zeroize(); } }\n\
             #[cfg(test)]\nmod tests {\n\
             #[derive(Debug, Clone)]\nstruct World { master: MasterSecret }\n\
             }\n");
        assert!(findings.is_empty(), "{findings:?}");
    }
}
