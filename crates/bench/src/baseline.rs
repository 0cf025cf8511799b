//! Reading, writing, and regression-checking the committed benchmark
//! baselines (`BENCH_pairing.json` and `BENCH_throughput.json` at the
//! repository root).
//!
//! The workspace has no serde, so the format is a deliberately small
//! JSON subset written and parsed by hand: a `results` array of
//! `{"id": ..., "median_ns": ...}` objects. [`parse`] only needs to
//! read back what [`render`] wrote, but it is tolerant of whitespace
//! and field reordering so hand edits don't break the gate.

/// One benchmark's committed number.
#[derive(Debug, Clone, PartialEq)]
pub struct Entry {
    /// `group/function` benchmark identifier.
    pub id: String,
    /// Median nanoseconds per iteration.
    pub median_ns: f64,
}

/// Renders entries as the committed JSON document with the
/// pairing-precompute schema tag.
pub fn render(mode: &str, entries: &[Entry]) -> String {
    render_with_schema("mccls-bench/pairing_precompute/v1", mode, entries)
}

/// Renders entries under an explicit schema tag — each committed
/// baseline file (`BENCH_pairing.json`, `BENCH_throughput.json`)
/// carries its own so a stray copy can't silently gate the wrong
/// harness.
pub fn render_with_schema(schema: &str, mode: &str, entries: &[Entry]) -> String {
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

    #[test]
    fn render_parse_round_trip() {
        let doc = render("full", &sample());
        assert_eq!(parse(&doc), sample());
        assert!(doc.contains("\"mode\": \"full\""));
    }

    #[test]
    fn render_with_schema_tags_the_document() {
        let doc = render_with_schema("mccls-bench/throughput/v1", "smoke", &sample());
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
}
