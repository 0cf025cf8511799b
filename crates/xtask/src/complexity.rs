//! Interprocedural asymptotic-complexity certification for the
//! simulation hot path (`crates/sim` + `crates/aodv`).
//!
//! It is one lattice ([`Classes`]) over the shared certification engine
//! ([`crate::certify`]). Every function gets a symbolic big-O class — a
//! product of bounded factors `nodes` (network size) and `neighbors`
//! (grid-bucket candidates, capped by the density contract) — inferred
//! from its loop nests and composed bottom-up through the qualifier- and
//! suppression-filtered call graph; recursion saturates to "unbounded".
//! A call into a std collection (`BinaryHeap::pop`, `HashMap::get`,
//! `Vec::insert`, …) has no callee in the analyzed crates, so the model
//! charges it nothing.
//!
//! Loop iteration counts are classified from the loop header text:
//!
//! 1. `while`/`loop` have no static trip count → unbounded;
//! 2. headers naming `neighbor`/`candidate` collections → `neighbors`;
//! 3. headers naming `node`s/`peer`s/mobility state → `nodes`;
//! 4. literal or `SCREAMING_CASE`-constant ranges → constant;
//! 5. anything else → `nodes` (a sound over-approximation).
//!
//! Iterator adaptors (`map`, `filter`, …) count as loops only when
//! their receiver chain visibly produces an iterator (`.iter()`,
//! ranges, `.drain()`, …); `Option`/`Result` combinators run at most
//! once and are ignored.
//!
//! Hot-path functions declare their class with a `// complexity: <c>`
//! contract; `complexity-budgets.toml` pins the certified classes, and
//! an unbudgeted contract must match the inferred class. Individual
//! loops or calls can be excused with `// complexity-ok: <reason>`; a
//! bare marker without a reason is itself a finding.
//!
//! Certifying the per-event dispatch root (`Network::handle`) at
//! `neighbors` implies no node-quadratic path is reachable from it:
//! class propagation is monotone, so any `nodes`-bound callee would
//! surface in the root's class unless a reviewed suppression
//! explicitly severs it.

use std::fmt;

use crate::callgraph::{answers_to, qualifier, CallGraph, Edge};
use crate::certify::{self, Bound, Lattice, Marker, Verdict};
use crate::lexer::is_ident_char;
use crate::parser::{Call, FnItem, ParsedFile, Region, RegionKind};
use crate::{suppression_near, Finding, Suppression};

/// Contract comment tying a function declaration to its class.
pub const CONTRACT_MARKER: &str = "// complexity:";

/// Suppression marker excusing one loop or call site.
pub const SUPPRESS_MARKER: &str = "complexity-ok:";

/// File label used for findings about the budget file itself.
pub const BUDGET_FILE: &str = "complexity-budgets.toml";

/// Per-factor degree cap; any product beyond `nodes²`-style degrees is
/// treated as unbounded (nothing on a per-event budget should get
/// near it).
const MAX_POW: u8 = 2;

/// A symbolic asymptotic class: `nodes^a · neighbors^b`, or unbounded
/// when no static bound exists (recursion, `while`/`loop`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Class {
    nodes: u8,
    neighbors: u8,
    unbounded: bool,
}

impl Class {
    /// Constant work: the lattice bottom.
    pub const CONST: Self = Self::of(0, 0);

    /// No static bound: the lattice top.
    pub const UNBOUNDED: Self = Self {
        unbounded: true,
        ..Self::CONST
    };

    /// One factor of the network size.
    pub const NODES: Self = Self::of(1, 0);

    /// One factor of the density-bounded neighbor count.
    pub const NEIGHBORS: Self = Self::of(0, 1);

    const fn of(nodes: u8, neighbors: u8) -> Self {
        Self {
            nodes,
            neighbors,
            unbounded: false,
        }
    }

    /// Parses `"const"` or a `*`-product of `nodes`/`neighbors` factors,
    /// each optionally squared (`nodes^2`).
    pub fn parse(text: &str) -> Option<Self> {
        let t = text.trim();
        if t == "const" {
            return Some(Self::CONST);
        }
        if t.is_empty() {
            return None;
        }
        let mut out = Self::CONST;
        for factor in t.split('*') {
            let f = factor.trim();
            let (base, pow) = match f.split_once('^') {
                Some((b, p)) => (b.trim(), p.trim().parse::<u8>().ok()?),
                None => (f, 1),
            };
            if pow == 0 || pow > MAX_POW {
                return None;
            }
            let slot = match base {
                "nodes" => &mut out.nodes,
                "neighbors" => &mut out.neighbors,
                _ => return None,
            };
            *slot = slot.checked_add(pow).filter(|&v| v <= MAX_POW)?;
        }
        Some(out)
    }

    /// Sequential composition inside a loop: degrees add, saturating to
    /// unbounded past the degree cap.
    pub fn times(self, other: Self) -> Self {
        if self.unbounded || other.unbounded {
            return Self::UNBOUNDED;
        }
        let (n, b) = (self.nodes + other.nodes, self.neighbors + other.neighbors);
        if n > MAX_POW || b > MAX_POW {
            Self::UNBOUNDED
        } else {
            Self::of(n, b)
        }
    }

    /// Worst case of two alternatives (branch join).
    pub fn join(self, other: Self) -> Self {
        if self.unbounded || other.unbounded {
            return Self::UNBOUNDED;
        }
        Self::of(
            self.nodes.max(other.nodes),
            self.neighbors.max(other.neighbors),
        )
    }
}

impl Bound for Class {
    fn is_unbounded(&self) -> bool {
        self.unbounded
    }

    /// Component-wise ≤ (false whenever `self` is unbounded and `other`
    /// is not).
    fn le(&self, other: &Self) -> bool {
        if other.unbounded {
            return true;
        }
        !self.unbounded && self.nodes <= other.nodes && self.neighbors <= other.neighbors
    }
}

impl fmt::Display for Class {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.unbounded {
            return write!(f, "unbounded");
        }
        let mut factors = Vec::new();
        for (name, pow) in [("nodes", self.nodes), ("neighbors", self.neighbors)] {
            match pow {
                0 => {}
                1 => factors.push(name.to_owned()),
                p => factors.push(format!("{name}^{p}")),
            }
        }
        if factors.is_empty() {
            write!(f, "const")
        } else {
            write!(f, "{}", factors.join(" * "))
        }
    }
}

// ---------------------------------------------------------------------
// Loop-span scanning
// ---------------------------------------------------------------------

/// Receiver fragments that visibly produce an iterator. An adaptor on
/// any other receiver is treated as an `Option`/`Result` combinator
/// (at most one execution), not a loop.
const ITERATOR_HINTS: &[&str] = &[
    "..",
    ".iter",
    ".into_iter",
    ".drain",
    ".chars",
    ".bytes",
    ".lines",
    ".split",
    ".windows",
    ".chunks",
    ".keys",
    ".values",
    ".enumerate",
    ".flatten",
    ".zip",
    ".rev(",
];

/// True when a `..`/`..=` range ends in an integer literal or a
/// `SCREAMING_CASE` constant — a compile-time-constant trip count.
fn const_range(text: &str) -> bool {
    let Some(pos) = text.find("..") else {
        return false;
    };
    let tail = text[pos + 2..]
        .strip_prefix('=')
        .unwrap_or(&text[pos + 2..]);
    let token: String = tail
        .trim_start()
        .chars()
        .take_while(|&c| is_ident_char(c))
        .collect();
    !token.is_empty() && !token.chars().any(|c| c.is_ascii_lowercase())
}

/// Classifies an iteration source (a `for` header or an adaptor
/// receiver) into its bound. Order matters: named collections win over
/// the constant-range check so `0..num_nodes` stays node-bound.
fn classify_iterable(text: &str) -> Class {
    let lower = text.to_ascii_lowercase();
    if lower.contains("neighbor") || lower.contains("candidate") {
        Class::NEIGHBORS
    } else if lower.contains("node") || lower.contains("peer") || lower.contains("mobilit") {
        Class::NODES
    } else if const_range(text) {
        Class::CONST
    } else {
        Class::NODES
    }
}

fn receiver_is_iterator(recv: &str) -> bool {
    ITERATOR_HINTS.iter().any(|h| recv.contains(h))
}

// ---------------------------------------------------------------------
// Suppressions
// ---------------------------------------------------------------------

/// Looks for a suppression on `line` or above the *statement* holding
/// it: when the preceding line visibly continues the same statement (a
/// builder chain, a multi-line `let`), the search walks up to the
/// statement head so one comment covers the whole chain.
fn statement_suppressed(lines: &[&str], line: usize) -> Suppression {
    let mut l = line;
    loop {
        let s = suppression_near(lines, l, SUPPRESS_MARKER);
        if s != Suppression::None {
            return s;
        }
        // The line above `l` (index `l - 2`), if any.
        let Some(t) = l
            .checked_sub(2)
            .and_then(|i| lines.get(i))
            .map(|t| t.trim())
        else {
            return Suppression::None;
        };
        if t.is_empty()
            || t.starts_with("//")
            || t.ends_with(';')
            || t.ends_with('{')
            || t.ends_with('}')
        {
            return Suppression::None;
        }
        l -= 1;
    }
}

// ---------------------------------------------------------------------
// Per-function local analysis
// ---------------------------------------------------------------------

/// Loop structure of one function, after suppressions.
struct Local {
    /// Join over every loop nest's iteration product.
    loops: Class,
    /// Per call index: the product of enclosing loop bounds.
    call_ctx: Vec<Class>,
    /// Per call index: true when a justified suppression severs the
    /// call's edges.
    call_suppressed: Vec<bool>,
}

fn local_analysis(f: &FnItem, file: &ParsedFile, findings: &mut Vec<Finding>) -> Local {
    let lines = file.lines();
    let mut bare = |line: usize| {
        let finding = Finding {
            file: file.path.clone(),
            line,
            lint: "complexity",
            message: format!(
                "`// {SUPPRESS_MARKER}` gives no reason — justify the suppression or remove it"
            ),
        };
        if !findings.contains(&finding) {
            findings.push(finding);
        }
    };

    // Each region's iteration bound, after suppressions. An adaptor
    // counts only on a receiver that visibly yields an iterator.
    let mut spans: Vec<(&Region, Class)> = Vec::new();
    for r in &f.regions {
        let mut bound = match r.kind {
            RegionKind::For => classify_iterable(&r.source),
            RegionKind::While => Class::UNBOUNDED,
            RegionKind::Adaptor if receiver_is_iterator(&r.source) => classify_iterable(&r.source),
            RegionKind::Adaptor => continue,
        };
        match statement_suppressed(&lines, r.line) {
            Suppression::Justified => bound = Class::CONST,
            Suppression::MissingReason => bare(r.line),
            Suppression::None => {}
        }
        spans.push((r, bound));
    }

    // Each loop's cost is its own bound times every enclosing bound.
    let mut loops = Class::CONST;
    for (si, (s, bound)) in spans.iter().enumerate() {
        let mut product = *bound;
        for (ti, (t, outer)) in spans.iter().enumerate() {
            if ti != si && t.open < s.open && s.close < t.close {
                product = product.times(*outer);
            }
        }
        loops = loops.join(product);
    }

    // Calls inherit the product of the loop spans whose line range
    // contains them (a line-level over-approximation: a call in a loop
    // header counts as per-iteration, which only errs upward).
    let mut call_ctx = Vec::with_capacity(f.calls.len());
    let mut call_suppressed = Vec::with_capacity(f.calls.len());
    for call in &f.calls {
        let mut ctx = Class::CONST;
        for (s, bound) in &spans {
            if s.open_line <= call.line && call.line <= s.close_line {
                ctx = ctx.times(*bound);
            }
        }
        call_ctx.push(ctx);
        let suppression = statement_suppressed(&lines, call.line);
        if suppression == Suppression::MissingReason {
            bare(call.line);
        }
        call_suppressed.push(suppression == Suppression::Justified);
    }

    Local {
        loops,
        call_ctx,
        call_suppressed,
    }
}

// ---------------------------------------------------------------------
// Interprocedural propagation
// ---------------------------------------------------------------------

/// Method names shared with the std container/primitive APIs. A method
/// call with one of these names on any receiver other than literal
/// `self` is almost certainly `Vec::len`, `HashMap::remove`, … — not
/// the same-named in-scope function the name-based call graph links it
/// to. Without this filter, `self.routes.len()` makes `RoutingTable::
/// len` recursive and every caller saturates to unbounded.
const STD_METHODS: &[&str] = &[
    "len",
    "is_empty",
    "contains",
    "contains_key",
    "push",
    "pop",
    "insert",
    "remove",
    "resize",
    "clear",
    "extend",
    "append",
    "get",
    "last",
    "first",
    "min",
    "max",
    "sort",
    "sort_unstable",
    "saturating_mul",
    "saturating_add",
    "saturating_sub",
];

/// Whether an edge survives qualifier matching: a qualified call
/// (`Area::new`, `Self::digest`) only links to callees whose owner or
/// file matches the qualifier. This drops the name-only fallback edges
/// (`Vec::new` → every in-scope `new`) that would otherwise leak
/// constructor costs into the hot path. Method calls with std-container
/// names ([`STD_METHODS`]) additionally require a literal `self`
/// receiver.
fn edge_kept(
    files: &[ParsedFile],
    graph: &CallGraph,
    caller: &FnItem,
    call: &Call,
    callee: usize,
) -> bool {
    if call.is_method
        && STD_METHODS.contains(&call.callee.as_str())
        && call.receiver.as_deref().map(str::trim) != Some("self")
    {
        return false;
    }
    qualifier(caller, call)
        .is_none_or(|q| answers_to(graph.file(files, callee), graph.item(files, callee), q))
}

/// The asymptotic-class lattice over one call graph: loop products,
/// joined along a body and over dispatch candidates, on the graph that
/// survives qualifier matching and reviewed suppressions.
pub struct Classes<'a> {
    files: &'a [ParsedFile],
    graph: &'a CallGraph,
    locals: Vec<Local>,
}

impl Classes<'_> {
    /// Whether edge `e` of node `ni` survives its call's suppression and
    /// [`edge_kept`].
    fn kept(&self, ni: usize, e: &Edge) -> bool {
        let f = self.graph.item(self.files, ni);
        !self.locals[ni].call_suppressed[e.call]
            && edge_kept(self.files, self.graph, f, &f.calls[e.call], e.callee)
    }
}

impl Lattice for Classes<'_> {
    type Value = Class;
    type Bound = Class;

    const LINT: &'static str = "complexity";
    const BUDGET_FILE: &'static str = BUDGET_FILE;
    const BUDGETS: &'static str = "the hot-path complexity budgets";
    const MARKER: &'static str = CONTRACT_MARKER;
    const REQUIRED: &'static [&'static str] = &["class"];

    fn assign(budget: &mut Class, key: &str, text: &str) -> Option<Result<(), String>> {
        if key != "class" {
            return None;
        }
        let Some(class) = Class::parse(text) else {
            return Some(Err(format!(
                "`class = \"{text}\"` is not a product of `nodes`/`neighbors` factors or \
                 `const`"
            )));
        };
        *budget = class;
        Some(Ok(()))
    }

    fn bounds(value: &Class) -> Vec<(&'static str, Class)> {
        vec![("class", *value)]
    }

    fn miss(
        verdict: Verdict,
        entry: &BudgetEntry,
        _: &str,
        computed: Class,
        budget: Class,
    ) -> String {
        let (target, key) = (entry.target(), &entry.key);
        match verdict {
            Verdict::Unbounded => format!(
                "`{target}` has no static complexity bound (recursion or an unclassified \
                 `while`/`loop` reaches it); budget `{key}` demands {budget}"
            ),
            Verdict::Slack => format!(
                "`{target}` computes to {computed}, below its budget `{key}` = {budget}; \
                 tighten the committed class"
            ),
            Verdict::Overrun => {
                format!(
                    "`{target}` computes to {computed}, exceeding its budget `{key}` = {budget}"
                )
            }
        }
    }

    /// A budgeted function's contract must state its budget; an
    /// unbudgeted contract must still agree with the analysis, so
    /// drive-by markers cannot rot.
    fn judge(
        f: &FnItem,
        marker: Option<&Marker>,
        entry: Option<&BudgetEntry>,
        inferred: &Class,
        _budgets: &Budgets,
    ) -> Option<(usize, String)> {
        let Some(marker) = marker else {
            let entry = entry?;
            let message = format!(
                "budgeted function `{}` lacks a `{CONTRACT_MARKER} {}` contract above its \
                 declaration",
                entry.target(),
                entry.budget
            );
            return Some((f.decl_line, message));
        };
        let Some(declared) = Class::parse(&marker.text) else {
            let name = entry.map_or(f.name.clone(), BudgetEntry::target);
            let message = format!(
                "cannot parse `{CONTRACT_MARKER} {}` on `{name}` (expected factors of \
                 `nodes`/`neighbors`, or `const`)",
                marker.text
            );
            return Some((marker.line, message));
        };
        let message = match entry {
            Some(entry) if declared != entry.budget => format!(
                "`{}` is budgeted `{}` in `{}` but declares `{CONTRACT_MARKER} {declared}`",
                entry.target(),
                entry.budget,
                entry.key
            ),
            None if declared != *inferred => format!(
                "stale contract: `{}` declares `{CONTRACT_MARKER} {declared}` but the analysis \
                 infers {inferred}",
                f.name
            ),
            _ => return None,
        };
        Some((marker.line, message))
    }

    fn local(&self, ni: usize) -> Class {
        self.locals[ni].loops
    }

    fn cycle_edge(&self, ni: usize, e: &Edge) -> bool {
        self.kept(ni, e)
    }

    fn flows(&self, ni: usize, e: &Edge) -> bool {
        self.kept(ni, e)
    }

    fn join(a: &Class, b: &Class) -> Class {
        a.join(*b)
    }

    /// Sequential work is dominated by its larger part.
    fn then(a: &Class, b: &Class) -> Class {
        a.join(*b)
    }

    fn scale(&self, ni: usize, call: usize, callee: &Class) -> Class {
        self.locals[ni].call_ctx[call].times(*callee)
    }

    /// Recursion has no static bound.
    fn saturate(_members: &[Class]) -> Class {
        Class::UNBOUNDED
    }
}

/// Worst-case class of every call-graph node, bottom-up over the SCCs of
/// the suppression- and qualifier-filtered graph
/// ([`certify::propagate`]). Members of a non-trivial SCC (or a
/// self-loop) saturate to unbounded. Also returns the bare-suppression
/// findings collected along the way.
pub fn compute_classes(files: &[ParsedFile], graph: &CallGraph) -> (Vec<Class>, Vec<Finding>) {
    let mut findings = Vec::new();
    let locals = (0..graph.nodes.len())
        .map(|ni| local_analysis(graph.item(files, ni), graph.file(files, ni), &mut findings))
        .collect();
    let lattice = Classes {
        files,
        graph,
        locals,
    };
    (certify::propagate(&lattice, graph), findings)
}

/// One entry of `complexity-budgets.toml`: a function and its class.
pub type BudgetEntry = certify::BudgetEntry<Class>;

/// The parsed `complexity-budgets.toml`.
pub type Budgets = certify::Budgets<Class>;

/// Parses a complexity budget file ([`certify::parse_budgets`]): each
/// section sets `fn`, optionally `impl`, and a required `class`.
pub fn parse_budgets(text: &str) -> Result<Budgets, String> {
    certify::parse_budgets::<Classes<'_>>(text)
}

/// Runs the certification over parsed files against the budgets.
pub fn analyze(files: &[ParsedFile], budgets: &Budgets) -> Vec<Finding> {
    let graph = CallGraph::build(files);
    let (classes, mut findings) = compute_classes(files, &graph);
    findings.extend(certify::certify::<Classes<'_>>(
        files, &graph, &classes, budgets,
    ));
    findings
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // tests may panic freely
mod tests {
    use super::*;
    use crate::parser::parse_files;

    fn parsed(src: &str) -> Vec<ParsedFile> {
        parse_files(&[("crates/sim/src/t.rs".to_owned(), src.to_owned())])
    }

    fn run(src: &str, budgets: &str) -> Vec<Finding> {
        analyze(&parsed(src), &parse_budgets(budgets).unwrap())
    }

    #[test]
    fn class_parse_display_roundtrip() {
        for text in [
            "const",
            "nodes",
            "neighbors",
            "nodes^2",
            "nodes * neighbors",
        ] {
            let c = Class::parse(text).unwrap();
            assert_eq!(c.to_string(), text);
        }
        assert!(Class::parse("n^3").is_none());
        assert!(Class::parse("nodes^3").is_none());
        assert!(Class::parse("nodes * nodes * nodes").is_none());
        assert_eq!(
            Class::parse("nodes * nodes").unwrap(),
            Class::parse("nodes^2").unwrap()
        );
    }

    #[test]
    fn times_saturates_past_the_degree_cap() {
        let n2 = Class::NODES.times(Class::NODES);
        assert_eq!(n2.to_string(), "nodes^2");
        assert_eq!(n2.times(Class::NODES), Class::UNBOUNDED);
        assert_eq!(Class::UNBOUNDED.join(Class::CONST), Class::UNBOUNDED);
        assert_eq!(
            Class::NODES.join(Class::NEIGHBORS).to_string(),
            "nodes * neighbors"
        );
    }

    #[test]
    fn headers_classify_by_collection_name() {
        assert_eq!(
            classify_iterable(" n in &self.neighbors "),
            Class::NEIGHBORS
        );
        assert_eq!(
            classify_iterable(" c in candidates.iter() "),
            Class::NEIGHBORS
        );
        assert_eq!(classify_iterable(" i in 0..num_nodes "), Class::NODES);
        assert_eq!(classify_iterable(" _ in 0..16 "), Class::CONST);
        assert_eq!(classify_iterable(" _ in 0..MAX_ROUNDS "), Class::CONST);
        assert_eq!(classify_iterable(" x in mystery "), Class::NODES);
    }

    #[test]
    fn quadratic_scan_exceeds_a_neighbor_budget() {
        let findings = run(
            "// complexity: neighbors\n\
             fn scan(all_nodes: &[u32]) -> u32 {\n\
                 let mut acc = 0;\n\
                 for a in all_nodes {\n\
                     for b in all_nodes {\n\
                         acc += a ^ b;\n\
                     }\n\
                 }\n\
                 acc\n\
             }\n",
            "[fixture.scan]\nfn = \"scan\"\nclass = \"neighbors\"\n",
        );
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("nodes^2"), "{findings:?}");
        assert!(findings[0].message.contains("exceeding"), "{findings:?}");
    }

    #[test]
    fn slack_and_missing_marker_both_fail() {
        let findings = run(
            "fn tiny() -> u32 { 7 }\n",
            "[fixture.tiny]\nfn = \"tiny\"\nclass = \"neighbors\"\n",
        );
        assert_eq!(findings.len(), 2, "{findings:?}");
        assert!(findings.iter().any(|f| f.message.contains("lacks a")));
        assert!(findings
            .iter()
            .any(|f| f.message.contains("below its budget")));
    }

    #[test]
    fn mutual_recursion_saturates_to_unbounded() {
        let findings = run(
            "// complexity: const\n\
             fn ping(x: u32) -> u32 { if x == 0 { 0 } else { pong(x - 1) } }\n\
             fn pong(x: u32) -> u32 { ping(x) }\n",
            "[fixture.ping]\nfn = \"ping\"\nclass = \"const\"\n",
        );
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("no static complexity bound"));
    }

    #[test]
    fn justified_suppression_downgrades_and_bare_marker_fires() {
        let clean = run(
            "// complexity: const\n\
             fn pump(xs: &[u32]) -> u32 {\n\
                 let mut acc = 0;\n\
                 // complexity-ok: xs is a fixed-width register file\n\
                 for x in xs {\n\
                     acc += x;\n\
                 }\n\
                 acc\n\
             }\n",
            "[fixture.pump]\nfn = \"pump\"\nclass = \"const\"\n",
        );
        assert!(clean.is_empty(), "{clean:?}");

        let bare = run(
            "// complexity: const\n\
             fn pump(xs: &[u32]) -> u32 {\n\
                 let mut acc = 0;\n\
                 // complexity-ok:\n\
                 for x in xs {\n\
                     acc += x;\n\
                 }\n\
                 acc\n\
             }\n",
            "[fixture.pump]\nfn = \"pump\"\nclass = \"const\"\n",
        );
        assert!(
            bare.iter().any(|f| f.message.contains("gives no reason")),
            "{bare:?}"
        );
    }

    #[test]
    fn suppression_covers_a_multiline_statement() {
        let findings = run(
            "// complexity: const\n\
             fn longest(xs: &[u64]) -> u64 {\n\
                 // complexity-ok: diagnostic over a fixed probe set\n\
                 let best = xs\n\
                     .iter()\n\
                     .map(|x| x + 1)\n\
                     .max();\n\
                 best.unwrap_or(0)\n\
             }\n",
            "[fixture.longest]\nfn = \"longest\"\nclass = \"const\"\n",
        );
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn option_combinators_are_not_loops() {
        let findings = run(
            "// complexity: const\n\
             fn pick(t: &std::collections::BTreeMap<u32, u32>) -> u32 {\n\
                 t.get(&1).map(|v| v + 1).unwrap_or(0)\n\
             }\n",
            "[fixture.pick]\nfn = \"pick\"\nclass = \"const\"\n",
        );
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn iterator_adaptors_do_count() {
        let findings = run(
            "fn total(xs: &[u64]) -> u64 {\n\
                 xs.iter().map(|x| x * 2).sum()\n\
             }\n",
            "[fixture.total]\nfn = \"total\"\nclass = \"const\"\n",
        );
        assert!(
            findings.iter().any(|f| f.message.contains("exceeding")),
            "{findings:?}"
        );
    }

    #[test]
    fn calls_compose_multiplicatively_through_loops() {
        let findings = run(
            "// complexity: nodes * neighbors\n\
             fn sweep(all_nodes: &[u32]) -> u32 {\n\
                 let mut acc = 0;\n\
                 for n in all_nodes {\n\
                     acc += probe(*n);\n\
                 }\n\
                 acc\n\
             }\n\
             fn probe(x: u32) -> u32 {\n\
                 let mut acc = x;\n\
                 for b in 0..neighbor_count(x) {\n\
                     acc ^= b;\n\
                 }\n\
                 acc\n\
             }\n\
             fn neighbor_count(x: u32) -> u32 { x | 1 }\n",
            "[fixture.sweep]\nfn = \"sweep\"\nclass = \"nodes * neighbors\"\n",
        );
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn stale_contract_on_unbudgeted_fn_is_reported() {
        let findings = run(
            "// complexity: neighbors\n\
             fn drifted(all_nodes: &[u32]) -> u32 {\n\
                 let mut acc = 0;\n\
                 for n in all_nodes {\n\
                     acc += n;\n\
                 }\n\
                 acc\n\
             }\n",
            "",
        );
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("stale contract"));
        assert!(findings[0].message.contains("infers nodes"));
    }

    #[test]
    fn dead_and_ambiguous_entries_are_reported() {
        let findings = run(
            "impl A { fn go(&self) {} }\n\
             impl B { fn go(&self) {} }\n",
            "[fixture.ghost]\nfn = \"ghost\"\nclass = \"const\"\n",
        );
        assert!(
            findings
                .iter()
                .any(|f| f.message.contains("dead budget entry")),
            "{findings:?}"
        );
        let findings = run(
            "fn go() {}\nmod inner { pub fn go() {} }\n",
            "[fixture.go]\nfn = \"go\"\nclass = \"const\"\n",
        );
        assert!(
            findings
                .iter()
                .any(|f| f.message.contains("ambiguous budget entry")),
            "{findings:?}"
        );
    }

    #[test]
    fn qualified_calls_only_link_matching_owners() {
        // `Vec::new()` must not link to the expensive in-scope `new`.
        let findings = run(
            "// complexity: const\n\
             fn fresh() -> u32 {\n\
                 let v: Vec<u32> = Vec::new();\n\
                 v.len() as u32\n\
             }\n\
             struct Pool;\n\
             impl Pool {\n\
                 fn new(all_nodes: &[u32]) -> u32 {\n\
                     let mut acc = 0;\n\
                     for n in all_nodes {\n\
                         acc += n;\n\
                     }\n\
                     acc\n\
                 }\n\
             }\n",
            "[fixture.fresh]\nfn = \"fresh\"\nclass = \"const\"\n",
        );
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn marker_budget_mismatch_is_reported() {
        let findings = run(
            "// complexity: nodes\n\
             fn walk(all_nodes: &[u32]) -> u32 {\n\
                 let mut acc = 0;\n\
                 for n in all_nodes {\n\
                     acc += n;\n\
                 }\n\
                 acc\n\
             }\n",
            "[fixture.walk]\nfn = \"walk\"\nclass = \"neighbors\"\n",
        );
        assert!(
            findings.iter().any(|f| f.message.contains("but declares")),
            "{findings:?}"
        );
    }

    #[test]
    fn budget_file_rejects_malformed_input() {
        assert!(parse_budgets("[a]\nfn = \"f\"\n").is_err(), "missing class");
        assert!(
            parse_budgets("[a]\nclass = \"const\"\n").is_err(),
            "missing fn"
        );
        assert!(
            parse_budgets("[a]\nfn = \"f\"\nclass = \"n^9\"\n").is_err(),
            "bad class"
        );
        assert!(
            parse_budgets(
                "[a]\nfn = \"f\"\nclass = \"const\"\n[a]\nfn = \"g\"\nclass = \"const\"\n"
            )
            .is_err(),
            "duplicate key"
        );
        assert!(parse_budgets("fn = \"f\"\n").is_err(), "no section");
    }

    #[test]
    fn while_loops_are_unbounded_unless_suppressed() {
        let findings = run(
            "// complexity: const\n\
             fn spin(mut x: u32) -> u32 {\n\
                 while x > 1 {\n\
                     x /= 2;\n\
                 }\n\
                 x\n\
             }\n",
            "[fixture.spin]\nfn = \"spin\"\nclass = \"const\"\n",
        );
        assert!(
            findings
                .iter()
                .any(|f| f.message.contains("no static complexity bound")),
            "{findings:?}"
        );
    }
}
