//! Stable finding IDs and the committed-baseline diff.
//!
//! CI needs to fail on *new* findings without demanding that every
//! historical one be fixed in the same change, and it needs to notice
//! when a baselined finding disappears but the baseline still lists it
//! (a stale entry hides the next regression at that site). Both halves
//! hinge on finding identity that survives unrelated edits:
//!
//! * the **ID** hashes `(lint, file, message)` — never the line number.
//!   Messages carry function names, call chains, and sink names but no
//!   line numbers, so renumbering a file does not churn IDs, while
//!   moving a finding to a different function or sink does.
//! * the **baseline file** (`xtask-baseline.json` at the workspace
//!   root) stores the full finding alongside its ID so reviews can read
//!   it; only the IDs participate in the diff.
//!
//! The JSON reader is deliberately minimal (std-only, like the rest of
//! the gate): it extracts the `"id"` string values and ignores
//! everything else, so hand-edits that keep the IDs intact stay valid.

use std::collections::BTreeSet;
use std::fmt::Write as _;

use crate::report::quote;
use crate::Finding;

/// Stable identity of a finding: the lint name plus an FNV-1a hash of
/// `(lint, file, message)`. Line numbers are deliberately excluded.
pub fn stable_id(f: &Finding) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for part in [f.lint, "\u{0}", &f.file, "\u{0}", &f.message] {
        for b in part.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{}-{h:016x}", f.lint)
}

/// Outcome of diffing current findings against a baseline.
#[derive(Debug, Default)]
pub struct Diff {
    /// Findings whose ID is not in the baseline: these fail the gate.
    pub new: Vec<Finding>,
    /// Baseline IDs with no matching current finding: stale entries,
    /// which also fail the gate until the baseline is regenerated.
    pub stale: Vec<String>,
}

/// Splits `current` into new-vs-baselined and reports stale IDs.
pub fn diff(current: &[Finding], baseline_ids: &BTreeSet<String>) -> Diff {
    let current_ids: BTreeSet<String> = current.iter().map(stable_id).collect();
    Diff {
        new: current
            .iter()
            .filter(|f| !baseline_ids.contains(&stable_id(f)))
            .cloned()
            .collect(),
        stale: baseline_ids
            .iter()
            .filter(|id| !current_ids.contains(*id))
            .cloned()
            .collect(),
    }
}

/// Renders the baseline file for the given findings.
pub fn render(findings: &[Finding]) -> String {
    let mut out = String::from("{\n  \"version\": 1,\n  \"findings\": [");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n    {{\"id\": {}, \"lint\": {}, \"file\": {}, \"message\": {}}}",
            quote(&stable_id(f)),
            quote(f.lint),
            quote(&f.file),
            quote(&f.message)
        );
    }
    if !findings.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}\n");
    out
}

/// Extracts the baseline IDs from a baseline document. Tolerant by
/// design: any `"id"` key with a string value counts, other content is
/// ignored, and a malformed document yields the IDs that do parse.
pub fn parse_ids(text: &str) -> BTreeSet<String> {
    let mut ids = BTreeSet::new();
    let mut rest = text;
    while let Some(pos) = rest.find("\"id\"") {
        rest = &rest[pos + 4..];
        let Some(colon) = rest.find(':') else { break };
        let after = rest[colon + 1..].trim_start();
        let Some(body) = after.strip_prefix('"') else {
            continue;
        };
        if let Some(id) = read_json_string(body) {
            ids.insert(id);
        }
    }
    ids
}

/// Reads a JSON string body (after the opening quote) up to its
/// unescaped closing quote, decoding the escapes [`quote`] emits.
fn read_json_string(body: &str) -> Option<String> {
    let mut out = String::new();
    let mut chars = body.chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => return Some(out),
            '\\' => match chars.next()? {
                'n' => out.push('\n'),
                'r' => out.push('\r'),
                't' => out.push('\t'),
                'u' => {
                    let hex: String = chars.by_ref().take(4).collect();
                    let v = u32::from_str_radix(&hex, 16).ok()?;
                    out.push(char::from_u32(v)?);
                }
                other => out.push(other),
            },
            c => out.push(c),
        }
    }
    None
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // tests may panic freely
mod tests {
    use super::*;

    fn finding(file: &str, line: usize, message: &str) -> Finding {
        Finding {
            file: file.to_owned(),
            line,
            lint: "validate",
            message: message.to_owned(),
        }
    }

    #[test]
    fn ids_ignore_line_numbers_but_not_content() {
        let a = finding(
            "a.rs",
            10,
            "unvalidated element reaches sink `pair` via verify",
        );
        let b = finding(
            "a.rs",
            99,
            "unvalidated element reaches sink `pair` via verify",
        );
        let c = finding(
            "a.rs",
            10,
            "unvalidated element reaches sink `mul_g2` via verify",
        );
        assert_eq!(stable_id(&a), stable_id(&b));
        assert_ne!(stable_id(&a), stable_id(&c));
        assert_ne!(stable_id(&a), stable_id(&finding("b.rs", 10, &a.message)));
        assert!(stable_id(&a).starts_with("validate-"));
    }

    #[test]
    fn render_parse_round_trip() {
        let findings = vec![
            finding("a.rs", 1, "first \"quoted\" message"),
            finding("b.rs", 2, "second\nmessage"),
        ];
        let text = render(&findings);
        let ids = parse_ids(&text);
        assert_eq!(ids.len(), 2);
        for f in &findings {
            assert!(ids.contains(&stable_id(f)), "{text}");
        }
    }

    #[test]
    fn empty_baseline_renders_and_parses() {
        let text = render(&[]);
        assert!(text.contains("\"findings\": []"));
        assert!(parse_ids(&text).is_empty());
    }

    #[test]
    fn diff_splits_new_baselined_and_stale() {
        let old = finding("a.rs", 5, "old finding");
        let new = finding("a.rs", 7, "new finding");
        let gone = finding("c.rs", 1, "fixed finding");
        let baseline: BTreeSet<String> = [stable_id(&old), stable_id(&gone)].into_iter().collect();
        let d = diff(&[old.clone(), new.clone()], &baseline);
        assert_eq!(d.new, vec![new]);
        assert_eq!(d.stale, vec![stable_id(&gone)]);
    }

    #[test]
    fn in_sync_baseline_diffs_clean() {
        let f = finding("a.rs", 5, "finding");
        let baseline: BTreeSet<String> = [stable_id(&f)].into_iter().collect();
        let d = diff(&[f], &baseline);
        assert!(d.new.is_empty() && d.stale.is_empty(), "{d:?}");
    }
}
