//! The lint table and the finding reporters: human, JSON, and SARIF
//! 2.1.0.
//!
//! The SARIF output is the minimal subset GitHub code scanning accepts
//! (one run, one rule per lint, one location per result), hand-rolled
//! because the gate is deliberately std-only — the analysis must never
//! be the reason the offline build breaks.

use std::fmt::Write as _;

use crate::{
    certify, complexity, concurrency, opcount, taint, Finding, Workspace, COMPLEXITY_SCOPE,
};

/// One row of the lint table: the id every finding of the lint
/// carries, the one-line description SARIF consumers show next to
/// annotations, and the runner [`check_workspace`](crate::check_workspace)
/// calls. A lint runs only through its row, so it cannot run without a
/// SARIF rule, and a rule cannot outlive its lint.
pub struct Lint {
    /// Short lint name.
    pub id: &'static str,
    /// One-line description.
    pub description: &'static str,
    /// Runs the lint over the parsed workspace.
    pub run: fn(&Workspace<'_>) -> Vec<Finding>,
}

/// Every lint the gate runs. The SARIF driver always advertises the
/// full rule set — not just the lints that happened to fire — so
/// code-scanning UIs can render "passing" rules.
pub const LINTS: [Lint; 4] = [
    Lint {
        id: "ct",
        description: "No branching, indexing or variable-time call on secret data, across calls",
        run: |ws| taint::analyze(ws.crypto, ws.graph),
    },
    Lint {
        id: "opcount",
        description: "Table 1 operation budgets certified statically",
        run: |ws| {
            certify::check_committed::<opcount::Counts<'_>>(ws.root, |budgets| {
                opcount::analyze(ws.crypto, ws.graph, ws.costs, budgets)
            })
        },
    },
    Lint {
        id: "complexity",
        description: "Hot-path asymptotic classes certified against committed budgets",
        run: |ws| {
            certify::check_committed::<complexity::Classes<'_>>(ws.root, |budgets| {
                complexity::analyze(ws.files(COMPLEXITY_SCOPE), budgets)
            })
        },
    },
    Lint {
        id: "concurrency",
        description: "Lock-order acyclicity, no pairing work under guards, no escaping guards",
        run: |ws| concurrency::analyze(ws.crypto, ws.graph, ws.costs),
    },
];

/// Output format for [`render`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// One `file:line: [lint] message` per line (the CI gate default).
    Human,
    /// A JSON array of finding objects.
    Json,
    /// SARIF 2.1.0, for GitHub code-scanning annotations.
    Sarif,
}

impl Format {
    /// Parses a `--format` argument value.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "human" => Some(Self::Human),
            "json" => Some(Self::Json),
            "sarif" => Some(Self::Sarif),
            _ => None,
        }
    }
}

/// Renders findings in the chosen format. Human format includes a
/// trailing summary line; machine formats are pure payload.
pub fn render(findings: &[Finding], format: Format) -> String {
    match format {
        Format::Human => human(findings),
        Format::Json => json(findings),
        Format::Sarif => sarif(findings),
    }
}

fn human(findings: &[Finding]) -> String {
    let mut out = String::new();
    for f in findings {
        let _ = writeln!(out, "{f}");
    }
    if findings.is_empty() {
        out.push_str("xtask check: clean\n");
    } else {
        let _ = writeln!(out, "xtask check: {} finding(s)", findings.len());
    }
    out
}

fn json(findings: &[Finding]) -> String {
    let mut out = String::from("[");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n  {{\"file\":{},\"line\":{},\"lint\":{},\"message\":{}}}",
            quote(&f.file),
            f.line,
            quote(f.lint),
            quote(&f.message)
        );
    }
    if !findings.is_empty() {
        out.push('\n');
    }
    out.push_str("]\n");
    out
}

fn sarif(findings: &[Finding]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n");
    out.push_str("  \"version\": \"2.1.0\",\n");
    out.push_str("  \"runs\": [{\n");
    out.push_str("    \"tool\": {\"driver\": {\"name\": \"mccls-xtask\", \"rules\": [");
    for (i, lint) in LINTS.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n      {{\"id\": {}, \"name\": {}, \"shortDescription\": {{\"text\": {}}}, \
             \"defaultConfiguration\": {{\"level\": \"error\"}}}}",
            quote(lint.id),
            quote(lint.id),
            quote(lint.description)
        );
    }
    out.push_str("\n    ]}},\n");
    out.push_str("    \"results\": [");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        // SARIF regions require a positive line; whole-file findings
        // (line 0) anchor to line 1.
        let _ = write!(
            out,
            "\n      {{\"ruleId\": {}, \"level\": \"error\", \"message\": {{\"text\": {}}}, \
             \"locations\": [{{\"physicalLocation\": {{\"artifactLocation\": {{\"uri\": {}}}, \
             \"region\": {{\"startLine\": {}}}}}}}]}}",
            quote(f.lint),
            quote(&f.message),
            quote(&f.file),
            f.line.max(1)
        );
    }
    if !findings.is_empty() {
        out.push_str("\n    ");
    }
    out.push_str("]\n  }]\n}\n");
    out
}

/// JSON string quoting (std-only, ASCII control escapes).
pub(crate) fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // tests may panic freely
mod tests {
    use super::*;

    fn sample() -> Vec<Finding> {
        vec![Finding {
            file: "crates/core/src/mccls.rs".into(),
            line: 12,
            lint: "ct",
            message: "branch conditioned on secret-carrying `x`".into(),
        }]
    }

    #[test]
    fn format_parse_round_trips() {
        assert_eq!(Format::parse("human"), Some(Format::Human));
        assert_eq!(Format::parse("json"), Some(Format::Json));
        assert_eq!(Format::parse("sarif"), Some(Format::Sarif));
        assert_eq!(Format::parse("xml"), None);
    }

    #[test]
    fn human_output_lists_and_summarizes() {
        let out = render(&sample(), Format::Human);
        assert!(out.contains("mccls.rs:12: [ct]"));
        assert!(out.contains("1 finding(s)"));
        assert!(render(&[], Format::Human).contains("clean"));
    }

    #[test]
    fn json_output_is_well_formed() {
        let out = render(&sample(), Format::Json);
        assert!(out.contains("\"file\":\"crates/core/src/mccls.rs\""));
        assert!(out.contains("\"line\":12"));
        assert_eq!(render(&[], Format::Json).trim(), "[]");
    }

    #[test]
    fn sarif_output_has_schema_rules_and_results() {
        let out = render(&sample(), Format::Sarif);
        assert!(out.contains("sarif-2.1.0.json"));
        assert!(out.contains("\"name\": \"mccls-xtask\""));
        assert!(out.contains("\"id\": \"ct\""));
        assert!(out.contains("\"startLine\": 12"));
        // Empty runs still produce a structurally valid document.
        let empty = render(&[], Format::Sarif);
        assert!(empty.contains("\"results\": []"));
    }

    #[test]
    fn sarif_driver_always_advertises_every_rule() {
        assert_eq!(LINTS.len(), 4, "the gate runs four lints");
        // Rules carry metadata and appear even when nothing fired.
        let empty = render(&[], Format::Sarif);
        for Lint {
            id, description, ..
        } in LINTS
        {
            assert!(
                empty.contains(&format!("\"id\": {}", quote(id))),
                "rule `{id}` missing from the SARIF driver"
            );
            assert!(
                empty.contains(&quote(description)),
                "rule `{id}` lost its shortDescription"
            );
        }
        assert!(empty.contains("\"defaultConfiguration\""));
        // No duplicate ids.
        let mut ids: Vec<&str> = LINTS.iter().map(|lint| lint.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), LINTS.len());
    }

    #[test]
    fn quoting_escapes_specials() {
        assert_eq!(quote("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }
}
