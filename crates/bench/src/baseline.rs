//! Reading, writing, and regression-gating the committed benchmark
//! baselines (`BENCH_pairing.json`, `BENCH_throughput.json`,
//! `BENCH_batch.json`, `BENCH_sim.json` and `BENCH_table1.json` at the
//! repository root).
//!
//! Every bench bin shares one command line ([`Mode::from_args`]:
//! `--smoke`, `--update-baseline`, `--baseline <path>`) and one gate
//! ([`gate`]): `--update-baseline` rewrites the bin's committed file
//! from the run; otherwise the run fails on a missing file, on a file
//! carrying another bin's schema tag, on a median more than
//! [`REGRESSION_FACTOR`] times its committed value, and on a committed
//! row the run no longer produces.
//!
//! The workspace has no serde, so the format is a deliberately small
//! JSON subset written and parsed by hand: a `schema` tag, a `mode`,
//! and a `results` array of `{"id": ..., "median_ns": ...}` objects.
//! [`parse`] only needs to read back what [`render`] wrote, but it is
//! tolerant of whitespace and field reordering so hand edits don't
//! break the gate.

use std::path::PathBuf;
use std::process::ExitCode;

/// Median regression budget against the committed baseline.
pub const REGRESSION_FACTOR: f64 = 10.0;

/// One benchmark's committed number.
#[derive(Debug, Clone, PartialEq)]
pub struct Entry {
    /// `group/function` benchmark identifier.
    pub id: String,
    /// Median nanoseconds per iteration.
    pub median_ns: f64,
}

/// How a bench bin runs, from its command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Mode {
    /// `--smoke`: shrink sample counts for CI.
    pub smoke: bool,
    /// `--update-baseline`: rewrite the committed file from this run.
    pub update_baseline: bool,
    /// The committed baseline (`--baseline <path>` overrides it).
    pub baseline: PathBuf,
}

impl Mode {
    /// Parses the process arguments; `file` names the bin's committed
    /// baseline at the repository root.
    pub fn from_args(file: &str) -> Self {
        Self::parse(std::env::args().skip(1), file)
    }

    fn parse(args: impl IntoIterator<Item = String>, file: &str) -> Self {
        let mut mode = Self {
            smoke: false,
            update_baseline: false,
            baseline: committed_path(file),
        };
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--smoke" => mode.smoke = true,
                "--update-baseline" => mode.update_baseline = true,
                "--baseline" => {
                    if let Some(p) = args.next() {
                        mode.baseline = PathBuf::from(p);
                    }
                }
                _ => {}
            }
        }
        mode
    }

    /// The `mode` recorded in a written baseline: `smoke` or `full`.
    pub fn label(&self) -> &'static str {
        if self.smoke {
            "smoke"
        } else {
            "full"
        }
    }
}

/// The path of the committed file `file` at the repository root.
pub fn committed_path(file: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(file)
}

/// Renders entries as the committed JSON document under `schema`: each
/// committed file carries its bin's tag, so a stray copy can't silently
/// gate the wrong harness.
pub fn render(schema: &str, mode: &str, entries: &[Entry]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"schema\": \"{schema}\",\n"));
    out.push_str(&format!("  \"mode\": \"{mode}\",\n"));
    out.push_str("  \"results\": [\n");
    for (i, e) in entries.iter().enumerate() {
        let comma = if i + 1 == entries.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{ \"id\": \"{}\", \"median_ns\": {:.1} }}{comma}\n",
            e.id, e.median_ns
        ));
    }
    out.push_str("  ]\n");
    out.push_str("}\n");
    out
}

/// Writes the bin's baseline from `current` (`--update-baseline`), or
/// checks `current` against the committed file, reporting the outcome
/// on stdout/stderr.
pub fn gate(schema: &str, mode: &Mode, current: &[Entry]) -> ExitCode {
    let path = mode.baseline.display();
    if mode.update_baseline {
        return match std::fs::write(&mode.baseline, render(schema, mode.label(), current)) {
            Ok(()) => {
                println!("\nbaseline written to {path}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("\nfailed to write baseline {path}: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let committed = std::fs::read_to_string(&mode.baseline).ok();
    let bad = check(schema, committed.as_deref(), current);
    if bad.is_empty() {
        println!("\nno regression > {REGRESSION_FACTOR}x against {path}");
        return ExitCode::SUCCESS;
    }
    eprintln!("\nbaseline gate against {path} failed:");
    for line in &bad {
        eprintln!("  {line}");
    }
    ExitCode::FAILURE
}

/// The gate's verdict on `current` against the `committed` document
/// (`None` when the file is missing): one line per problem, empty when
/// the run passes. A missing file and a file tagged with another schema
/// fail outright; otherwise [`regressions`] decides.
fn check(schema: &str, committed: Option<&str>, current: &[Entry]) -> Vec<String> {
    let Some(doc) = committed else {
        return vec!["no committed baseline: run with --update-baseline to create one".to_owned()];
    };
    match entries(schema, doc) {
        Ok(base) => regressions(current, &base, REGRESSION_FACTOR),
        Err(problem) => vec![problem],
    }
}

/// The entries of a committed document, which must carry the tag
/// `schema`; an `Err` names the missing or foreign tag.
pub fn entries(schema: &str, doc: &str) -> Result<Vec<Entry>, String> {
    match string_field(doc, "schema") {
        Some(tag) if tag == schema => Ok(parse(doc)),
        Some(tag) => Err(format!(
            "the committed file is tagged `{tag}`, not `{schema}`"
        )),
        None => Err(format!(
            "the committed file has no schema tag; expected `{schema}`"
        )),
    }
}

/// Parses a document produced by [`render`] (or a hand-edited variant)
/// back into entries. Unrecognized content is skipped; an object only
/// yields an entry when both `id` and `median_ns` are present.
pub fn parse(json: &str) -> Vec<Entry> {
    let mut entries = Vec::new();
    // Objects cannot nest in this schema, so splitting on braces after
    // the opening of the results array is unambiguous.
    let Some(results_at) = json.find("\"results\"") else {
        return entries;
    };
    let tail = &json[results_at..];
    for obj in tail.split('{').skip(1) {
        let Some(end) = obj.find('}') else { continue };
        let body = &obj[..end];
        let id = string_field(body, "id");
        let median = number_field(body, "median_ns");
        if let (Some(id), Some(median_ns)) = (id, median) {
            entries.push(Entry { id, median_ns });
        }
    }
    entries
}

/// Extracts a `"key": "value"` string field from an object body.
fn string_field(body: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\"");
    let at = body.find(&pat)?;
    let after_colon = body[at + pat.len()..].split_once(':')?.1;
    let open = after_colon.find('"')?;
    let rest = &after_colon[open + 1..];
    let close = rest.find('"')?;
    Some(rest[..close].to_owned())
}

/// Extracts a `"key": number` field from an object body.
fn number_field(body: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\"");
    let at = body.find(&pat)?;
    let after_colon = body[at + pat.len()..].split_once(':')?.1;
    let token: String = after_colon
        .trim_start()
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-' || *c == 'e' || *c == '+')
        .collect();
    token.parse().ok()
}

/// Compares current medians against the committed baseline and returns
/// one human-readable line per benchmark that regressed by more than
/// `factor`, and one per committed benchmark the run did not produce —
/// a renamed or deleted row must not silently stop being gated. A
/// benchmark only the run produced is ignored, so adding one does not
/// fail CI until its number is committed.
pub fn regressions(current: &[Entry], baseline: &[Entry], factor: f64) -> Vec<String> {
    let mut out = Vec::new();
    for base in baseline {
        if !current.iter().any(|c| c.id == base.id) {
            out.push(format!(
                "{}: committed in the baseline but not produced by this run",
                base.id
            ));
        }
    }
    for cur in current {
        let Some(base) = baseline.iter().find(|b| b.id == cur.id) else {
            continue;
        };
        if base.median_ns > 0.0 && cur.median_ns > base.median_ns * factor {
            out.push(format!(
                "{}: {:.0} ns vs baseline {:.0} ns ({:.1}x > {factor}x budget)",
                cur.id,
                cur.median_ns,
                base.median_ns,
                cur.median_ns / base.median_ns
            ));
        }
    }
    out
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // tests may panic freely
mod tests {
    use super::*;

    fn sample() -> Vec<Entry> {
        vec![
            Entry {
                id: "pairing/before_unprepared".into(),
                median_ns: 1_500_000.0,
            },
            Entry {
                id: "pairing/after_prepared".into(),
                median_ns: 900_000.0,
            },
        ]
    }

    const SCHEMA: &str = "mccls-bench/pairing_precompute/v1";

    #[test]
    fn render_parse_round_trip() {
        let doc = render(SCHEMA, "full", &sample());
        assert_eq!(parse(&doc), sample());
        assert!(doc.contains("\"mode\": \"full\""));
    }

    #[test]
    fn render_with_schema_tags_the_document() {
        let doc = render("mccls-bench/throughput/v1", "smoke", &sample());
        assert!(doc.contains("\"schema\": \"mccls-bench/throughput/v1\""));
        assert_eq!(parse(&doc), sample());
    }

    #[test]
    fn parse_tolerates_reordered_fields_and_noise() {
        let doc = r#"{ "results": [
            { "median_ns": 42.5, "id": "a/b" },
            { "id": "incomplete" },
            { "median_ns": 7 }
        ] }"#;
        let entries = parse(doc);
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].id, "a/b");
        assert!((entries[0].median_ns - 42.5).abs() < 1e-9);
    }

    #[test]
    fn regression_fires_only_past_the_factor() {
        let base = sample();
        let mut cur = sample();
        assert!(regressions(&cur, &base, 10.0).is_empty(), "parity is fine");
        cur[1].median_ns = base[1].median_ns * 11.0;
        let r = regressions(&cur, &base, 10.0);
        assert_eq!(r.len(), 1);
        assert!(r[0].contains("pairing/after_prepared"));
    }

    #[test]
    fn a_row_new_in_the_run_passes() {
        let base = sample();
        let mut cur = sample();
        cur.push(Entry {
            id: "brand/new".into(),
            median_ns: 1e12,
        });
        assert!(regressions(&cur, &base, 10.0).is_empty());
    }

    #[test]
    fn a_committed_row_missing_from_the_run_fires() {
        let base = sample();
        let mut cur = sample();
        cur[1].id = "pairing/renamed".into();
        let r = regressions(&cur, &base, 10.0);
        assert_eq!(r.len(), 1, "{r:?}");
        assert!(r[0].contains("pairing/after_prepared"));
        assert!(r[0].contains("not produced by this run"));
    }

    #[test]
    fn a_missing_committed_file_fails() {
        let r = check(SCHEMA, None, &sample());
        assert_eq!(r.len(), 1, "{r:?}");
        assert!(r[0].contains("no committed baseline"), "{r:?}");
    }

    #[test]
    fn another_bins_schema_tag_fails() {
        let doc = render("mccls-bench/sim/v1", "full", &sample());
        let r = check(SCHEMA, Some(&doc), &sample());
        assert_eq!(r.len(), 1, "{r:?}");
        assert!(r[0].contains("mccls-bench/sim/v1"), "{r:?}");
        let untagged = doc.replace("\"schema\"", "\"tag\"");
        assert!(!check(SCHEMA, Some(&untagged), &sample()).is_empty());
        assert!(check(SCHEMA, Some(&render(SCHEMA, "full", &sample())), &sample()).is_empty());
    }

    #[test]
    fn mode_reads_the_three_flags() {
        let args = |a: &[&str]| Mode::parse(a.iter().map(|s| (*s).to_owned()), "BENCH_x.json");
        let plain = args(&[]);
        assert!(!plain.smoke && !plain.update_baseline);
        assert!(plain.baseline.ends_with("BENCH_x.json"));
        assert_eq!(plain.label(), "full");
        let all = args(&["--smoke", "--update-baseline", "--baseline", "other/b.json"]);
        assert!(all.smoke && all.update_baseline);
        assert_eq!(all.baseline, PathBuf::from("other/b.json"));
        assert_eq!(all.label(), "smoke");
    }
}
