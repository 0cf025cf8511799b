//! The certification engine behind `opcount` and `complexity`.
//!
//! Both lints certify a per-function value against a committed TOML
//! budget: [`crate::opcount`] the Table 1 operation counts, and
//! [`crate::complexity`] the simulator's asymptotic cost per event. They
//! differ only in the lattice the value lives in, which a [`Lattice`]
//! supplies; everything else is this one machine:
//!
//! * **one budget grammar** ([`parse_budgets`]): `[a.b]` section
//!   headers, `fn`/`impl` targets and the lattice's own value keys, as
//!   `key = "value"` strings with `#` comments;
//! * **one marker rule** ([`read_marker`]): a declaration marker
//!   (`// opcount-budget: <key>`, `// complexity: <class>`) opens a
//!   `//` line in the comment/attribute run directly above the `fn`, or
//!   trails code on the `fn` line itself. Doc prose that names a marker
//!   is not a marker;
//! * **one propagation** ([`propagate`]): bottom-up over the call
//!   graph's strongly connected components, callees first. The lattice
//!   supplies each function's local value, which edges close cycles and
//!   which carry values, how a call site scales its callee's value, the
//!   join over a call's candidate callees, sequential composition, and
//!   what a cycle saturates to;
//! * **one certification** ([`certify`]): every budget entry resolves to
//!   exactly one function (dead and ambiguous entries are findings), its
//!   marker is judged, and its value must *equal* the budget — an
//!   overrun, slack and an unbounded value each fail the gate. Markers
//!   on functions no entry claims are judged too, so they cannot rot.
//!
//! The engine never looks at which lint runs it: the wording of every
//! finding is the lattice's.

use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;

use crate::callgraph::{self, CallGraph, Edge};
use crate::parser::{FnItem, ParsedFile};
use crate::Finding;

/// One separately certified part of a lattice value: a counter's
/// `a·n + b` bound or an asymptotic class.
pub trait Bound: Copy + PartialEq + fmt::Display {
    /// True when no static bound exists.
    fn is_unbounded(&self) -> bool;
    /// Component-wise `≤`.
    fn le(&self, other: &Self) -> bool;
}

/// How a computed bound misses its budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// No static bound exists.
    Unbounded,
    /// Above the budget in some component.
    Overrun,
    /// Below the budget: certification must be exact.
    Slack,
}

/// The equality check: `None` when `computed` meets `budget` exactly.
pub fn verdict<B: Bound>(computed: B, budget: B) -> Option<Verdict> {
    if computed == budget {
        None
    } else if computed.is_unbounded() {
        Some(Verdict::Unbounded)
    } else if computed.le(&budget) {
        Some(Verdict::Slack)
    } else {
        Some(Verdict::Overrun)
    }
}

/// A declaration marker: the text after it, and its 1-based line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Marker {
    /// The trimmed text following the marker.
    pub text: String,
    /// The line the marker sits on.
    pub line: usize,
}

/// A cost lattice the engine certifies: how a function's value is
/// computed from its body and its callees, what a budget entry pins, and
/// how each finding is worded.
pub trait Lattice {
    /// A function's value.
    type Value: Copy + Default;
    /// One separately certified part of a value.
    type Bound: Bound;

    /// Lint id on findings.
    const LINT: &'static str;
    /// The committed budget file, relative to the workspace root.
    const BUDGET_FILE: &'static str;
    /// What the budget file certifies, for the missing-file finding.
    const BUDGETS: &'static str;
    /// The declaration marker tying a function to its budget.
    const MARKER: &'static str;
    /// Value keys every budget section must set.
    const REQUIRED: &'static [&'static str];

    /// Reads value key `key = "text"` into `budget`: `None` when `key`
    /// is not the lattice's, an error when `text` is no value.
    fn assign(budget: &mut Self::Value, key: &str, text: &str) -> Option<Result<(), String>>;
    /// A value's labelled bounds, certified one by one.
    fn bounds(value: &Self::Value) -> Vec<(&'static str, Self::Bound)>;
    /// Words a miss of bound `label` against `entry`.
    fn miss(
        verdict: Verdict,
        entry: &BudgetEntry<Self::Value>,
        label: &str,
        computed: Self::Bound,
        budget: Self::Bound,
    ) -> String;
    /// Judges the marker of function `f`, which `entry` budgets or, when
    /// no entry claims it, whose computed value is `value`:
    /// `(line, message)` when they disagree.
    fn judge(
        f: &FnItem,
        marker: Option<&Marker>,
        entry: Option<&BudgetEntry<Self::Value>>,
        value: &Self::Value,
        budgets: &Budgets<Self::Value>,
    ) -> Option<(usize, String)>;

    /// Node `ni`'s own value, before its calls.
    fn local(&self, ni: usize) -> Self::Value;
    /// Whether edge `e` out of `ni` can close a call cycle.
    fn cycle_edge(&self, ni: usize, e: &Edge) -> bool;
    /// Whether edge `e` out of `ni` carries its callee's value.
    fn flows(&self, ni: usize, e: &Edge) -> bool;
    /// Worst case over a call's candidate callees.
    fn join(a: &Self::Value, b: &Self::Value) -> Self::Value;
    /// `a` followed by `b`.
    fn then(a: &Self::Value, b: &Self::Value) -> Self::Value;
    /// A callee value as charged at call `call` of node `ni`.
    fn scale(&self, ni: usize, call: usize, callee: &Self::Value) -> Self::Value;
    /// The value every member of a call cycle gets.
    fn saturate(members: &[Self::Value]) -> Self::Value;
}

/// One budget entry.
#[derive(Debug, Clone)]
pub struct BudgetEntry<V> {
    /// Section name, e.g. `mccls.verify`.
    pub key: String,
    /// The budgeted function's name.
    pub fn_name: String,
    /// Its `impl`/`trait` owner; `None` for free functions.
    pub owner: Option<String>,
    /// The certified value.
    pub budget: V,
    /// 1-based line of the section header in the budget file.
    pub line: usize,
}

impl<V> BudgetEntry<V> {
    /// Human-readable target (`McCls::verify`).
    pub fn target(&self) -> String {
        match &self.owner {
            Some(o) => format!("{o}::{}", self.fn_name),
            None => self.fn_name.clone(),
        }
    }
}

/// A parsed budget file.
#[derive(Debug, Clone, Default)]
pub struct Budgets<V> {
    /// Entries in file order.
    pub entries: Vec<BudgetEntry<V>>,
}

impl<V> Budgets<V> {
    /// Looks up an entry by its section key.
    pub fn get(&self, key: &str) -> Option<&BudgetEntry<V>> {
        self.entries.iter().find(|e| e.key == key)
    }
}

/// Parses a budget file: a TOML subset of `[a.b]` section headers and
/// `key = "value"` string assignments, with `#` comments. `fn` and
/// `impl` name the target; every other key is the lattice's.
pub fn parse_budgets<L: Lattice>(text: &str) -> Result<Budgets<L::Value>, String> {
    let mut budgets = Budgets::default();
    let mut current: Option<(BudgetEntry<L::Value>, Vec<String>)> = None;
    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('[') {
            let Some(key) = rest.strip_suffix(']') else {
                return Err(format!("line {lineno}: malformed section header `{line}`"));
            };
            let key = key.trim();
            if key.is_empty() {
                return Err(format!("line {lineno}: empty section name"));
            }
            if let Some(done) = current.take() {
                finish_entry::<L>(&mut budgets, done)?;
            }
            let entry = BudgetEntry {
                key: key.to_owned(),
                fn_name: String::new(),
                owner: None,
                budget: L::Value::default(),
                line: lineno,
            };
            current = Some((entry, Vec::new()));
            continue;
        }
        let Some((entry, keys)) = current.as_mut() else {
            return Err(format!("line {lineno}: assignment outside any [section]"));
        };
        let Some((k, v)) = line.split_once('=') else {
            return Err(format!("line {lineno}: expected `key = \"value\"`"));
        };
        let k = k.trim();
        let v = v.trim();
        let Some(v) = v.strip_prefix('"').and_then(|v| v.strip_suffix('"')) else {
            return Err(format!(
                "line {lineno}: value for `{k}` must be a quoted string"
            ));
        };
        match k {
            "fn" => entry.fn_name = v.to_owned(),
            "impl" => entry.owner = Some(v.to_owned()),
            _ => match L::assign(&mut entry.budget, k, v) {
                None => return Err(format!("line {lineno}: unknown key `{k}`")),
                Some(Err(err)) => return Err(format!("line {lineno}: {err}")),
                Some(Ok(())) => keys.push(k.to_owned()),
            },
        }
    }
    if let Some(done) = current.take() {
        finish_entry::<L>(&mut budgets, done)?;
    }
    Ok(budgets)
}

fn finish_entry<L: Lattice>(
    budgets: &mut Budgets<L::Value>,
    (entry, keys): (BudgetEntry<L::Value>, Vec<String>),
) -> Result<(), String> {
    if entry.fn_name.is_empty() {
        return Err(format!(
            "entry `{}` (line {}) is missing its `fn = \"...\"` target",
            entry.key, entry.line
        ));
    }
    if let Some(k) = L::REQUIRED.iter().find(|k| !keys.iter().any(|s| s == *k)) {
        return Err(format!(
            "entry `{}` (line {}) is missing its `{k} = \"...\"` bound",
            entry.key, entry.line
        ));
    }
    if budgets.get(&entry.key).is_some() {
        return Err(format!(
            "duplicate entry `{}` (line {})",
            entry.key, entry.line
        ));
    }
    budgets.entries.push(entry);
    Ok(())
}

/// Reads `L`'s committed budget file under `root` and certifies with
/// `analyze`; a missing or unparseable file is itself a finding.
pub fn check_committed<L: Lattice>(
    root: &Path,
    analyze: impl FnOnce(&Budgets<L::Value>) -> Vec<Finding>,
) -> Vec<Finding> {
    let at_file = |message| {
        vec![Finding {
            file: L::BUDGET_FILE.to_owned(),
            line: 1,
            lint: L::LINT,
            message,
        }]
    };
    match std::fs::read_to_string(root.join(L::BUDGET_FILE)) {
        Ok(text) => match parse_budgets::<L>(&text) {
            Ok(budgets) => analyze(&budgets),
            Err(err) => at_file(format!("cannot parse budget file: {err}")),
        },
        Err(_) => at_file(format!(
            "`{}` is missing at the workspace root: {} must be committed and certified",
            L::BUDGET_FILE,
            L::BUDGETS
        )),
    }
}

/// Reads the `marker` attached to the declaration on `decl_line`
/// (1-based): text trailing code on that line, or a `//` line opening
/// with the marker in the contiguous comment/attribute run directly
/// above. Doc prose that names the marker (`/// … // complexity: …`)
/// does not count.
pub fn read_marker(raw_lines: &[String], decl_line: usize, marker: &str) -> Option<Marker> {
    if let Some(text) = raw_lines.get(decl_line.wrapping_sub(1)) {
        if let Some(pos) = text.find(marker) {
            if !text[..pos].ends_with('/') {
                return Some(Marker {
                    text: text[pos + marker.len()..].trim().to_owned(),
                    line: decl_line,
                });
            }
        }
    }
    let mut above = decl_line.wrapping_sub(1);
    while above >= 1 {
        let Some(text) = raw_lines.get(above - 1) else {
            break;
        };
        let t = text.trim_start();
        if !t.starts_with("//") && !t.starts_with("#[") {
            break;
        }
        if let Some(rest) = t.strip_prefix(marker) {
            return Some(Marker {
                text: rest.trim().to_owned(),
                line: above,
            });
        }
        above -= 1;
    }
    None
}

/// Every node's value, bottom-up over the strongly connected components
/// of the graph of `cycle_edge`s. A call's value is the join over its
/// candidate callees outside the caller's component, scaled at the call
/// site and composed after the caller's local value. Members of a
/// non-trivial component or a self-loop all get the component's
/// saturated value.
pub fn propagate<L: Lattice>(lattice: &L, graph: &CallGraph) -> Vec<L::Value> {
    let n = graph.nodes.len();
    let succ: Vec<Vec<usize>> = (0..n)
        .map(|ni| {
            graph.edges[ni]
                .iter()
                .filter(|e| lattice.cycle_edge(ni, e))
                .map(|e| e.callee)
                .collect()
        })
        .collect();
    let sccs = callgraph::sccs(&succ);
    let mut component_of = vec![0; n];
    for (si, component) in sccs.iter().enumerate() {
        for &ni in component {
            component_of[ni] = si;
        }
    }
    let mut values = vec![L::Value::default(); n];
    for (si, component) in sccs.iter().enumerate() {
        let members: Vec<L::Value> = component
            .iter()
            .map(|&ni| {
                let mut by_call: BTreeMap<usize, L::Value> = BTreeMap::new();
                for e in &graph.edges[ni] {
                    if component_of[e.callee] != si && lattice.flows(ni, e) {
                        let v = by_call.entry(e.call).or_default();
                        *v = L::join(v, &values[e.callee]);
                    }
                }
                by_call.iter().fold(lattice.local(ni), |acc, (&ci, v)| {
                    L::then(&acc, &lattice.scale(ni, ci, v))
                })
            })
            .collect();
        let head = component[0];
        if component.len() > 1 || succ[head].contains(&head) {
            let saturated = L::saturate(&members);
            for &ni in component {
                values[ni] = saturated;
            }
        } else {
            values[head] = members[0];
        }
    }
    values
}

/// Certifies computed `values` against `budgets`: dead and ambiguous
/// entries, each budgeted function's marker and every bound of its
/// value, then the markers of functions no entry claims.
pub fn certify<L: Lattice>(
    files: &[ParsedFile],
    graph: &CallGraph,
    values: &[L::Value],
    budgets: &Budgets<L::Value>,
) -> Vec<Finding> {
    let mut findings = Vec::new();
    let finding = |file: &str, line, message| Finding {
        file: file.to_owned(),
        line,
        lint: L::LINT,
        message,
    };
    let marker_of = |ni: usize| {
        let f = graph.item(files, ni);
        read_marker(&graph.file(files, ni).raw_lines, f.decl_line, L::MARKER)
    };
    let mut claimed = vec![false; graph.nodes.len()];
    for entry in &budgets.entries {
        let matches: Vec<usize> = graph
            .named(&entry.fn_name)
            .iter()
            .copied()
            .filter(|&ni| graph.item(files, ni).owner.as_deref() == entry.owner.as_deref())
            .collect();
        let message = match matches.as_slice() {
            [ni] => {
                claimed[*ni] = true;
                let f = graph.item(files, *ni);
                let path = &graph.file(files, *ni).path;
                let value = &values[*ni];
                let marker = marker_of(*ni);
                if let Some((line, message)) =
                    L::judge(f, marker.as_ref(), Some(entry), value, budgets)
                {
                    findings.push(finding(path, line, message));
                }
                let pairs = L::bounds(value).into_iter().zip(L::bounds(&entry.budget));
                for ((label, computed), (_, budget)) in pairs {
                    if let Some(v) = verdict(computed, budget) {
                        let message = L::miss(v, entry, label, computed, budget);
                        findings.push(finding(path, f.decl_line, message));
                    }
                }
                continue;
            }
            [] => format!(
                "dead budget entry `{}`: no non-test function `{}` exists in the analyzed crates",
                entry.key,
                entry.target()
            ),
            many => {
                let sites: Vec<&str> = many
                    .iter()
                    .map(|&ni| graph.file(files, ni).path.as_str())
                    .collect();
                format!(
                    "ambiguous budget entry `{}`: `{}` matches {} functions ({})",
                    entry.key,
                    entry.target(),
                    many.len(),
                    sites.join(", ")
                )
            }
        };
        findings.push(finding(L::BUDGET_FILE, entry.line, message));
    }

    for (ni, value) in values.iter().enumerate() {
        if claimed[ni] {
            continue;
        }
        let Some(marker) = marker_of(ni) else {
            continue;
        };
        let f = graph.item(files, ni);
        if let Some((line, message)) = L::judge(f, Some(&marker), None, value, budgets) {
            findings.push(finding(&graph.file(files, ni).path, line, message));
        }
    }
    findings
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // tests may panic freely
mod tests {
    use super::*;

    #[test]
    fn marker_opens_a_comment_line_above_or_trails_the_declaration() {
        let src: Vec<String> = "// complexity: neighbors\n#[inline]\npub fn a() {}\n\
             pub fn b() {} // complexity: const\n\
             /// Prose naming `// complexity: nodes` is documentation.\npub fn c() {}\n\
             let x = 1;\npub fn d() {}\n"
            .lines()
            .map(str::to_owned)
            .collect();
        let read = |line| read_marker(&src, line, "// complexity:").map(|m| (m.text, m.line));
        assert_eq!(read(3), Some(("neighbors".to_owned(), 1)));
        assert_eq!(read(4), Some(("const".to_owned(), 4)));
        assert_eq!(read(6), None, "doc prose is not a marker");
        assert_eq!(read(8), None, "the run stops at code");
    }
}
