//! Static operation-count certification of the Table 1 budgets.
//!
//! The paper's central claim is a table of operation counts: McCLS
//! signs with two scalar multiplications and zero pairings and
//! verifies with one pairing once the peer constant is cached. The
//! runtime counters in `mccls_core::ops` *measure* this; this module
//! *certifies* it statically, so a refactor cannot add a pairing to a
//! hot path without failing the gate.
//!
//! It is one lattice ([`Counts`]) over the shared certification engine
//! ([`crate::certify`]), which owns the budget grammar, the marker rule,
//! the bottom-up propagation and the equality check. The lattice:
//!
//! * every call site whose callee name is one of the counted `ops`
//!   frontends (`pair`, `pair_prepared`, `pairing_product_prepared`,
//!   `miller_loop`, `final_exp`, `mul_g1`/`mul_g2` and their
//!   `_fixed`/`_ct` variants, `exp_gt`, `hash_to_g1`, the
//!   `g1_table`/`g2_table` builders) or a raw pairing
//!   engine entry point (`pairing`, `pairing_product`,
//!   `multi_miller_loop`, `final_exponentiation`) is an **atomic
//!   cost** — the call graph is not traversed through it, mirroring
//!   how the runtime counters count the frontend and not its innards;
//! * any other resolved call contributes the **maximum** cost over its
//!   candidate callees (name-based dispatch is over-approximate, so
//!   the worst candidate bounds the truth), and a body sums its calls;
//! * costs are symbolic `a·n + b` vectors per counter. A call inside a
//!   `for` loop or iterator-adaptor closure multiplies by `n`
//!   ([`crate::parser::LoopCtx::PerItem`]); a call inside `while`/
//!   `loop`, under two nested per-item contexts, or on a call-graph
//!   cycle (over the full graph) is **unbounded** — reported, never
//!   silently summed;
//! * multi-pairing products take their factor count from the argument:
//!   a slice literal counts its elements, a local `Vec` tracks
//!   `Vec::new`/`with_capacity`, `push` (scaled by loop context) and
//!   length-preserving `collect()` copies, anything else is unbounded.
//!
//! Each entry of `opcount-budgets.toml` names a function (plus its
//! `impl` owner) and its counter budgets (`"0"`, `"2"`, `"n"`, `"n+1"`,
//! `"2n"`); a `table1` key may note the Table 1 row it mirrors. The
//! function carries a `// opcount-budget: <key>` marker, and every
//! marker must name a live key. Budget, static bound and the measured
//! counts (cross-checked in `crates/core/tests/opcount_certified.rs`)
//! must agree exactly.

use std::collections::BTreeMap;
use std::fmt;

use crate::callgraph::{CallGraph, Edge};
use crate::certify::{self, Bound, Lattice, Marker, Verdict};
use crate::lexer::{contains_word, is_ident_char};
use crate::parser::{Call, FnItem, Let, LoopCtx, ParsedFile};
use crate::Finding;

/// Marker comment tying a function declaration to its budget entry.
pub const BUDGET_MARKER: &str = "// opcount-budget:";

/// File label used for findings about the budget file itself.
pub const BUDGET_FILE: &str = "opcount-budgets.toml";

/// Counter names, in the same order as the fields of
/// `mccls_core::ops::OpCounts`.
pub const COUNTERS: [&str; 8] = [
    "pairings",
    "miller_loops",
    "final_exps",
    "g1_muls",
    "g2_muls",
    "gt_exps",
    "hashes_to_g1",
    "fp_inversions",
];

const PAIRINGS: usize = 0;
const MILLER_LOOPS: usize = 1;
const FINAL_EXPS: usize = 2;
const G1_MULS: usize = 3;
const G2_MULS: usize = 4;
const GT_EXPS: usize = 5;
const HASHES_TO_G1: usize = 6;
const FP_INVERSIONS: usize = 7;

/// One symbolic counter value `linear·n + konst`, with an explicit
/// "no static bound" escape hatch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Val {
    /// Constant term.
    pub konst: u64,
    /// Coefficient of the symbolic batch size `n`.
    pub linear: u64,
    /// True when no `a·n + b` bound exists (cycle, `while`/`loop`,
    /// nested per-item contexts, or an unresolvable factor count).
    pub unbounded: bool,
}

impl Val {
    /// A plain constant.
    pub fn konst(k: u64) -> Self {
        Self {
            konst: k,
            ..Self::default()
        }
    }

    /// The unbounded value.
    pub fn unbounded() -> Self {
        Self {
            unbounded: true,
            ..Self::default()
        }
    }

    /// True when provably zero.
    pub fn is_zero(&self) -> bool {
        *self == Self::default()
    }

    /// Saturating symbolic sum.
    pub fn add(&self, other: &Self) -> Self {
        Self {
            konst: self.konst.saturating_add(other.konst),
            linear: self.linear.saturating_add(other.linear),
            unbounded: self.unbounded || other.unbounded,
        }
    }

    /// Component-wise upper bound (sound for max-over-candidates).
    pub fn max(&self, other: &Self) -> Self {
        Self {
            konst: self.konst.max(other.konst),
            linear: self.linear.max(other.linear),
            unbounded: self.unbounded || other.unbounded,
        }
    }

    /// Multiplies by the loop context of a call site: per-item turns
    /// constants into `n` terms (and existing `n` terms into `n²`,
    /// which the grammar cannot express, hence unbounded); an
    /// unbounded context destroys any nonzero value.
    pub fn scale(&self, ctx: LoopCtx) -> Self {
        if self.is_zero() {
            return *self;
        }
        match ctx {
            LoopCtx::Straight => *self,
            LoopCtx::PerItem => Self {
                konst: 0,
                linear: self.konst,
                unbounded: self.unbounded || self.linear > 0,
            },
            LoopCtx::Unbounded => Self::unbounded(),
        }
    }

    /// Concrete value at batch size `n`; `None` when unbounded.
    pub fn eval(&self, n: u64) -> Option<u64> {
        if self.unbounded {
            return None;
        }
        Some(self.konst.saturating_add(self.linear.saturating_mul(n)))
    }

    /// Parses the budget grammar: `0`, `2`, `n`, `2n`, `n+1`, …
    pub fn parse(text: &str) -> Option<Self> {
        let mut out = Self::default();
        for term in text.split('+') {
            let t = term.trim();
            if t.is_empty() {
                return None;
            }
            if let Some(coeff) = t.strip_suffix('n') {
                let c = coeff.trim();
                let c = if c.is_empty() { 1 } else { c.parse().ok()? };
                out.linear = out.linear.checked_add(c)?;
            } else {
                out.konst = out.konst.checked_add(t.parse().ok()?)?;
            }
        }
        Some(out)
    }
}

impl Bound for Val {
    fn is_unbounded(&self) -> bool {
        self.unbounded
    }

    fn le(&self, other: &Self) -> bool {
        other.unbounded
            || (!self.unbounded && self.konst <= other.konst && self.linear <= other.linear)
    }
}

impl fmt::Display for Val {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.unbounded {
            return f.write_str("unbounded");
        }
        match (self.linear, self.konst) {
            (0, k) => write!(f, "{k}"),
            (1, 0) => f.write_str("n"),
            (l, 0) => write!(f, "{l}n"),
            (1, k) => write!(f, "n+{k}"),
            (l, k) => write!(f, "{l}n+{k}"),
        }
    }
}

/// A full operation-count vector, indexed like [`COUNTERS`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Cost(pub [Val; 8]);

impl Cost {
    fn add(&self, other: &Self) -> Self {
        Self(std::array::from_fn(|i| self.0[i].add(&other.0[i])))
    }

    fn max(&self, other: &Self) -> Self {
        Self(std::array::from_fn(|i| self.0[i].max(&other.0[i])))
    }

    fn scale(&self, ctx: LoopCtx) -> Self {
        Self(self.0.map(|v| v.scale(ctx)))
    }

    /// Marks every nonzero counter unbounded — the effect of sitting
    /// on a call cycle.
    fn saturate_unbounded(&self) -> Self {
        let mut out = *self;
        for v in out.0.iter_mut() {
            if !v.is_zero() {
                *v = Val::unbounded();
            }
        }
        out
    }
}

impl fmt::Display for Cost {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (name, v) in COUNTERS.iter().zip(self.0.iter()) {
            if v.is_zero() {
                continue;
            }
            if !first {
                f.write_str(", ")?;
            }
            write!(f, "{name}={v}")?;
            first = false;
        }
        if first {
            f.write_str("all zero")?;
        }
        Ok(())
    }
}

fn unit(counter: usize) -> Cost {
    let mut c = Cost::default();
    c.0[counter] = Val::konst(1);
    c
}

/// Atomic cost of a call site, or `None` when the callee is not a
/// counted frontend and the call graph must be traversed instead.
/// `lens` carries the tracked local `Vec` lengths for factor counts.
/// Crate-visible so the `concurrency` lint can classify calls made
/// under a lock guard with the same cost model.
pub(crate) fn atomic_cost(call: &Call, lens: &BTreeMap<String, Val>) -> Option<Cost> {
    match call.callee.as_str() {
        "pair" | "pair_prepared" | "pairing" => Some(
            unit(PAIRINGS)
                .add(&unit(MILLER_LOOPS))
                .add(&unit(FINAL_EXPS)),
        ),
        "final_exp" | "final_exponentiation" => Some(unit(FINAL_EXPS)),
        "mul_g1" | "mul_g1_fixed" | "mul_g1_ct" => Some(unit(G1_MULS)),
        "mul_g2" | "mul_g2_fixed" | "mul_g2_ct" => Some(unit(G2_MULS)),
        "exp_gt" => Some(unit(GT_EXPS)),
        "hash_to_g1" => Some(unit(HASHES_TO_G1)),
        // Fixed-base table construction: Montgomery's trick folds every
        // window normalization into one shared base-field inversion.
        // The qualifier guard keeps `Vec::new` and friends (whose
        // name-based resolution falls back to *every* `new`) out.
        "g1_table" | "g2_table" => Some(unit(FP_INVERSIONS)),
        "new"
            if matches!(
                call.qualifier.as_deref(),
                Some("G1Table" | "G2Table" | "FixedBaseTable")
            ) =>
        {
            Some(unit(FP_INVERSIONS))
        }
        // The cached generator tables are built once per process behind
        // a `OnceLock`; their steady-state cost — what the runtime
        // counters measure on every budgeted path — is zero.
        "g1_generator_table" | "g2_generator_table" => Some(Cost::default()),
        "pairing_product_prepared" | "pairing_product" => {
            let k = factor_count(call, lens);
            let mut c = Cost::default();
            c.0[PAIRINGS] = k;
            c.0[MILLER_LOOPS] = k;
            c.0[FINAL_EXPS] = Val::konst(1);
            Some(c)
        }
        "miller_loop" | "multi_miller_loop" => {
            let mut c = Cost::default();
            // The two-argument form is the raw engine entry
            // `miller_loop(p, q)`: exactly one loop.
            c.0[MILLER_LOOPS] = if call.callee == "miller_loop" && call.args.len() >= 2 {
                Val::konst(1)
            } else {
                factor_count(call, lens)
            };
            Some(c)
        }
        _ => None,
    }
}

/// Number of pairing factors a product-style call evaluates: counted
/// from a slice literal, read from a tracked `Vec` length, otherwise
/// unbounded.
fn factor_count(call: &Call, lens: &BTreeMap<String, Val>) -> Val {
    let Some(arg) = call.args.first() else {
        return Val::unbounded();
    };
    let arg = arg.trim_start_matches('&').trim();
    let arg = arg.strip_prefix("mut ").map(str::trim).unwrap_or(arg);
    if let Some(inner) = arg.strip_prefix('[').and_then(|a| a.strip_suffix(']')) {
        let k = crate::parser::split_top_level(inner)
            .iter()
            .filter(|e| !e.trim().is_empty())
            .count() as u64;
        return Val::konst(k);
    }
    if !arg.is_empty() && arg.chars().all(is_ident_char) {
        if let Some(v) = lens.get(arg) {
            return *v;
        }
    }
    Val::unbounded()
}

/// Tracks `Vec` lengths through one `let` that binds one name: a fresh
/// `Vec` starts at zero, and a `collect()` over a tracked `Vec` copies
/// its length.
fn apply_let(lens: &mut BTreeMap<String, Val>, binding: &Let) {
    let [name] = &binding.names[..] else {
        return;
    };
    let fresh_vec = contains_word(&binding.rhs, "Vec")
        && (contains_word(&binding.rhs, "new") || contains_word(&binding.rhs, "with_capacity"));
    if fresh_vec {
        lens.insert(name.clone(), Val::default());
        return;
    }
    if binding.rhs.contains("collect") {
        let copied = lens
            .iter()
            .find(|(k, _)| contains_word(&binding.rhs, k))
            .map(|(_, v)| *v);
        if let Some(v) = copied {
            lens.insert(name.clone(), v);
        }
    }
}

/// Per-function result of the intraprocedural pass.
struct LocalCost {
    /// Direct atomic cost of the body.
    cost: Cost,
    /// Call indices classified atomic (not traversed in the graph).
    atomic: Vec<bool>,
}

fn local_analysis(f: &FnItem) -> LocalCost {
    let lets = &f.lets;
    let mut lens: BTreeMap<String, Val> = BTreeMap::new();
    let mut li = 0;
    let mut cost = Cost::default();
    let mut atomic = vec![false; f.calls.len()];
    for (ci, call) in f.calls.iter().enumerate() {
        while li < lets.len() && lets[li].line <= call.line {
            apply_let(&mut lens, &lets[li]);
            li += 1;
        }
        if call.is_method && call.callee == "push" {
            if let Some(name) = call.receiver.as_deref() {
                if let Some(v) = lens.get_mut(name) {
                    *v = v.add(&Val::konst(1).scale(call.ctx));
                }
            }
            continue;
        }
        if let Some(c) = atomic_cost(call, &lens) {
            cost = cost.add(&c.scale(call.ctx));
            atomic[ci] = true;
        }
    }
    LocalCost { cost, atomic }
}

/// The operation-count lattice over one call graph: `a·n + b` cost
/// vectors, summed along a body and maxed over dispatch candidates.
pub struct Counts<'a> {
    files: &'a [ParsedFile],
    graph: &'a CallGraph,
    locals: Vec<LocalCost>,
}

impl Lattice for Counts<'_> {
    type Value = Cost;
    type Bound = Val;

    const LINT: &'static str = "opcount";
    const BUDGET_FILE: &'static str = BUDGET_FILE;
    const BUDGETS: &'static str = "the Table 1 budgets";
    const MARKER: &'static str = BUDGET_MARKER;
    const REQUIRED: &'static [&'static str] = &[];

    fn assign(budget: &mut Cost, key: &str, text: &str) -> Option<Result<(), String>> {
        // `table1` documents the Table 1 row an entry mirrors (the paper
        // folds hash and precomputable terms differently); nothing
        // certifies it.
        if key == "table1" {
            return Some(Ok(()));
        }
        let slot = COUNTERS.iter().position(|c| *c == key)?;
        let Some(val) = Val::parse(text) else {
            return Some(Err(format!(
                "`{key} = \"{text}\"` is not of the form `a·n + b` (e.g. \"0\", \"2\", \"n\", \
                 \"n+1\", \"2n\")"
            )));
        };
        budget.0[slot] = val;
        Some(Ok(()))
    }

    fn bounds(value: &Cost) -> Vec<(&'static str, Val)> {
        COUNTERS.iter().copied().zip(value.0).collect()
    }

    fn miss(
        verdict: Verdict,
        entry: &BudgetEntry,
        name: &str,
        computed: Val,
        budget: Val,
    ) -> String {
        let (target, key) = (entry.target(), &entry.key);
        match verdict {
            Verdict::Unbounded => format!(
                "`{target}` has a statically unbounded worst-case {name} count (a cycle, \
                 `while`/`loop`, or unresolvable pairing-product factor lies on some path); \
                 budget `{key}` demands {budget}"
            ),
            Verdict::Overrun => {
                format!(
                    "`{target}` computes to {computed} {name}, exceeding budget `{key}` = {budget}"
                )
            }
            Verdict::Slack => format!(
                "`{target}` computes to {computed} {name}, below budget `{key}` = {budget}; \
                 tighten the budget so certification stays exact"
            ),
        }
    }

    /// A budgeted function's marker must name its entry; any marker must
    /// name a live entry.
    fn judge(
        f: &FnItem,
        marker: Option<&Marker>,
        entry: Option<&BudgetEntry>,
        _cost: &Cost,
        budgets: &Budgets,
    ) -> Option<(usize, String)> {
        let key = marker.map(|m| m.text.split_whitespace().next().unwrap_or(""));
        let message = match (entry, key) {
            (Some(entry), Some(key)) if key == entry.key => return None,
            (Some(entry), Some(key)) if budgets.get(key).is_some() => format!(
                "`{}` is budgeted as `{}` but its marker says `{BUDGET_MARKER} {key}`",
                entry.target(),
                entry.key
            ),
            (_, Some(key)) if budgets.get(key).is_none() => format!(
                "`{}` carries marker `{BUDGET_MARKER} {key}` but `{BUDGET_FILE}` has no such \
                 entry",
                f.name
            ),
            (Some(entry), None) => format!(
                "budgeted function `{}` lacks the `{BUDGET_MARKER} {}` marker above its \
                 declaration",
                entry.target(),
                entry.key
            ),
            _ => return None,
        };
        Some((f.decl_line, message))
    }

    fn local(&self, ni: usize) -> Cost {
        self.locals[ni].cost
    }

    /// Every resolved call can close a cycle, atomic frontends included.
    fn cycle_edge(&self, _ni: usize, _e: &Edge) -> bool {
        true
    }

    /// An atomic call was charged at its site; its callee's body is not
    /// traversed.
    fn flows(&self, ni: usize, e: &Edge) -> bool {
        !self.locals[ni].atomic[e.call]
    }

    fn join(a: &Cost, b: &Cost) -> Cost {
        a.max(b)
    }

    fn then(a: &Cost, b: &Cost) -> Cost {
        a.add(b)
    }

    fn scale(&self, ni: usize, call: usize, callee: &Cost) -> Cost {
        callee.scale(self.graph.item(self.files, ni).calls[call].ctx)
    }

    /// A cost inside a cycle has no static repetition bound: the
    /// members' worst case with every nonzero counter unbounded.
    fn saturate(members: &[Cost]) -> Cost {
        members
            .iter()
            .fold(Cost::default(), |acc, m| acc.max(m))
            .saturate_unbounded()
    }
}

/// Worst-case cost of every node, computed bottom-up over the call
/// graph's SCCs ([`certify::propagate`]).
pub fn compute_costs(files: &[ParsedFile], graph: &CallGraph) -> Vec<Cost> {
    let locals = (0..graph.nodes.len())
        .map(|ni| local_analysis(graph.item(files, ni)))
        .collect();
    let lattice = Counts {
        files,
        graph,
        locals,
    };
    certify::propagate(&lattice, graph)
}

/// One entry of `opcount-budgets.toml`: a function and its counter
/// budgets.
pub type BudgetEntry = certify::BudgetEntry<Cost>;

/// The parsed `opcount-budgets.toml`.
pub type Budgets = certify::Budgets<Cost>;

/// Parses an operation-count budget file ([`certify::parse_budgets`]):
/// each section sets `fn`, optionally `impl` and `table1`, and any of
/// the [`COUNTERS`] as `a·n + b` strings.
pub fn parse_budgets(text: &str) -> Result<Budgets, String> {
    certify::parse_budgets::<Counts<'_>>(text)
}

/// Certifies the budgets against the costs [`compute_costs`] gave
/// over `graph`.
pub fn analyze(
    files: &[ParsedFile],
    graph: &CallGraph,
    costs: &[Cost],
    budgets: &Budgets,
) -> Vec<Finding> {
    certify::certify::<Counts<'_>>(files, graph, costs, budgets)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // tests may panic freely
mod tests {
    use super::*;
    use crate::parser::parse_files;

    fn parse(src: &str) -> Vec<ParsedFile> {
        parse_files(&[("t.rs".to_owned(), src.to_owned())])
    }

    fn cost_of(files: &[ParsedFile], name: &str) -> Cost {
        let graph = CallGraph::build(files);
        let costs = compute_costs(files, &graph);
        costs[graph.named(name)[0]]
    }

    fn run(files: &[ParsedFile], budgets: &Budgets) -> Vec<Finding> {
        let graph = CallGraph::build(files);
        analyze(files, &graph, &compute_costs(files, &graph), budgets)
    }

    #[test]
    fn val_parse_render_round_trip() {
        for text in ["0", "2", "n", "2n", "n+1", "3n+2"] {
            let v = Val::parse(text).unwrap();
            assert_eq!(v.to_string(), text, "round trip of {text}");
        }
        assert_eq!(Val::parse("1+n").unwrap(), Val::parse("n+1").unwrap());
        assert!(Val::parse("").is_none());
        assert!(Val::parse("n*n").is_none());
        assert!(Val::parse("x").is_none());
    }

    #[test]
    fn val_scale_follows_loop_context() {
        let two = Val::konst(2);
        assert_eq!(two.scale(LoopCtx::Straight), two);
        let scaled = two.scale(LoopCtx::PerItem);
        assert_eq!((scaled.konst, scaled.linear), (0, 2));
        assert!(two.scale(LoopCtx::Unbounded).unbounded);
        // n per item is n², inexpressible.
        assert!(Val::parse("n").unwrap().scale(LoopCtx::PerItem).unbounded);
        // Zero stays zero in any context.
        assert!(Val::default().scale(LoopCtx::Unbounded).is_zero());
    }

    #[test]
    fn atomic_costs_propagate_interprocedurally() {
        let files = parse(
            "fn entry(s: &Sig) -> bool { helper(s) }\n\
             fn helper(s: &Sig) -> bool { ops::pair(&s.a, &s.b); ops::mul_g1(&s.p, &s.k); true }\n",
        );
        let c = cost_of(&files, "entry");
        assert_eq!(c.0[PAIRINGS], Val::konst(1));
        assert_eq!(c.0[MILLER_LOOPS], Val::konst(1));
        assert_eq!(c.0[FINAL_EXPS], Val::konst(1));
        assert_eq!(c.0[G1_MULS], Val::konst(1));
    }

    #[test]
    fn for_loops_scale_costs_to_linear() {
        let files =
            parse("fn scan(items: &[Sig]) { for it in items { ops::mul_g2(&it.r, &it.h); } }\n");
        let c = cost_of(&files, "scan");
        assert_eq!(c.0[G2_MULS], Val::parse("n").unwrap());
    }

    #[test]
    fn while_loops_and_cycles_are_unbounded() {
        let files = parse(
            "fn spin(s: &Sig) { while s.more() { ops::pair(&s.a, &s.b); } }\n\
             fn ping(s: &Sig) { ops::exp_gt(&s.t, &s.k); pong(s); }\n\
             fn pong(s: &Sig) { ping(s); }\n",
        );
        assert!(cost_of(&files, "spin").0[PAIRINGS].unbounded);
        assert!(cost_of(&files, "ping").0[GT_EXPS].unbounded, "cycle");
        assert!(cost_of(&files, "pong").0[GT_EXPS].unbounded, "cycle");
    }

    #[test]
    fn slice_literal_products_count_factors() {
        let files = parse(
            "fn check(a: &P, b: &P) -> bool {\n\
             ops::pairing_product_prepared(&[(&a.x, g(.0)), (&b.x, h()), (&b.y, k())])\n\
             .is_identity() }\n",
        );
        let c = cost_of(&files, "check");
        assert_eq!(c.0[PAIRINGS], Val::konst(3));
        assert_eq!(c.0[MILLER_LOOPS], Val::konst(3));
        assert_eq!(c.0[FINAL_EXPS], Val::konst(1));
    }

    #[test]
    fn vec_tracking_yields_symbolic_batch_counts() {
        let files = parse(
            "fn batch(items: &[It]) -> bool {\n\
             let mut pairs = Vec::with_capacity(items.len() + 1);\n\
             for it in items {\n\
             pairs.push((ops::mul_g1(&it.s, &it.z).to_affine(), prep(&it.q)));\n\
             }\n\
             let mut refs: Vec<(&A, &B)> = pairs.iter().map(|(p, q)| (p, q)).collect();\n\
             refs.push((&q_neg(), p_pub()));\n\
             let acc = ops::miller_loop(&refs);\n\
             ops::final_exp(&acc).is_identity()\n\
             }\n",
        );
        let c = cost_of(&files, "batch");
        assert_eq!(c.0[MILLER_LOOPS], Val::parse("n+1").unwrap());
        assert_eq!(c.0[FINAL_EXPS], Val::konst(1));
        assert_eq!(c.0[G1_MULS], Val::parse("n").unwrap());
        assert_eq!(c.0[PAIRINGS], Val::konst(0));
    }

    #[test]
    fn if_let_heads_do_not_hide_later_bindings() {
        // Read as a binding, the `if let` head's "initializer" would run
        // on to the next top-level `;` and swallow `let mut pairs`,
        // leaving the one-factor product unbounded.
        let files = parse(
            "fn entry(s: &Sig, opt: Option<G1>) { if let Some(p) = opt { use_it(p); } \
             let mut pairs = Vec::new(); pairs.push((s.a, s.b)); \
             ops::pairing_product_prepared(&pairs); }\n",
        );
        let c = cost_of(&files, "entry");
        assert_eq!(c.0[PAIRINGS], Val::konst(1));
        assert_eq!(c.0[MILLER_LOOPS], Val::konst(1));
        assert_eq!(c.0[FINAL_EXPS], Val::konst(1));
    }

    #[test]
    fn unknown_product_factors_are_unbounded() {
        let files = parse("fn check(pairs: &[(A, B)]) -> Gt { ops::miller_loop(pairs) }\n");
        assert!(cost_of(&files, "check").0[MILLER_LOOPS].unbounded);
    }

    #[test]
    fn raw_two_argument_miller_loop_is_one_loop() {
        let files = parse("fn pair_impl(p: &A, q: &B) -> Gt { miller_loop(p, q) }\n");
        assert_eq!(cost_of(&files, "pair_impl").0[MILLER_LOOPS], Val::konst(1));
    }

    #[test]
    fn max_over_candidates_bounds_dispatch() {
        let files = parse(
            "impl A { fn go(&self) { ops::pair(&self.x, &self.y); } }\n\
             impl B { fn go(&self) {} }\n\
             fn top(v: &V) { v.go(); }\n",
        );
        // `.go()` may dispatch to A::go (1 pairing) or B::go (0): the
        // worst case bounds it.
        assert_eq!(cost_of(&files, "top").0[PAIRINGS], Val::konst(1));
    }

    #[test]
    fn table_builds_cost_one_inversion_and_cached_accessors_are_free() {
        let files = parse(
            "fn build(base: &G1Projective) -> G1Table { ops::g1_table(base) }\n\
             fn qualified(base: &G2Projective) -> G2Table { G2Table::new(base) }\n\
             fn warm(k: &Fr) { ops::mul_g1_fixed(g1_generator_table(), k); }\n\
             fn g1_generator_table() -> &'static G1Table { panic!() }\n\
             fn unrelated() -> Vec<u8> { Vec::new() }\n",
        );
        assert_eq!(
            cost_of(&files, "build").0[FP_INVERSIONS],
            Val::konst(1),
            "counted builder frontend"
        );
        assert_eq!(
            cost_of(&files, "qualified").0[FP_INVERSIONS],
            Val::konst(1),
            "qualified table construction"
        );
        // The OnceLock-cached accessor is atomic at zero cost, so warm
        // paths do not inherit the one-time build inversion...
        assert_eq!(cost_of(&files, "warm").0[FP_INVERSIONS], Val::konst(0));
        assert_eq!(cost_of(&files, "warm").0[G1_MULS], Val::konst(1));
        // ...and an unqualified-fallback `Vec::new` resolves past the
        // table builders without picking up their inversion.
        assert_eq!(cost_of(&files, "unrelated").0[FP_INVERSIONS], Val::konst(0));
    }

    #[test]
    fn budget_parser_reads_sections_and_rejects_junk() {
        let text = "# Table 1 budgets\n\
                    [mccls.sign]\n\
                    fn = \"sign\"\n\
                    impl = \"McCls\"\n\
                    g1_muls = \"1\"\n\
                    g2_muls = \"1\"\n\
                    table1 = \"2s / 0p\"\n\
                    [batch.batch_verify]\n\
                    fn = \"batch_verify\"\n\
                    miller_loops = \"n+1\"\n\
                    final_exps = \"1\"\n";
        let budgets = parse_budgets(text).unwrap();
        assert_eq!(budgets.entries.len(), 2);
        let sign = budgets.get("mccls.sign").unwrap();
        assert_eq!(sign.owner.as_deref(), Some("McCls"));
        assert_eq!(sign.budget.0[G1_MULS], Val::konst(1));
        assert_eq!(sign.budget.0[PAIRINGS], Val::konst(0));
        let batch = budgets.get("batch.batch_verify").unwrap();
        assert_eq!(batch.owner, None);
        assert_eq!(batch.budget.0[MILLER_LOOPS], Val::parse("n+1").unwrap());

        assert!(parse_budgets("[x]\nfn = \"f\"\nbogus = \"1\"\n").is_err());
        assert!(
            parse_budgets("[x]\npairings = \"1\"\n").is_err(),
            "missing fn"
        );
        assert!(parse_budgets("[x]\nfn = \"f\"\npairings = \"n*n\"\n").is_err());
        assert!(parse_budgets("[x]\nfn = \"f\"\n[x]\nfn = \"f\"\n").is_err());
        assert!(parse_budgets("fn = \"f\"\n").is_err(), "no section");
    }

    #[test]
    fn analyze_reports_overrun_slack_dead_and_markers() {
        let src = "\
// opcount-budget: t.hot\n\
fn hot(s: &Sig) { ops::pair(&s.a, &s.b); ops::pair(&s.c, &s.d); }\n\
// opcount-budget: t.loose\n\
fn loose(s: &Sig) { ops::mul_g1(&s.p, &s.k); }\n\
fn unmarked(s: &Sig) { ops::exp_gt(&s.t, &s.k); }\n\
// opcount-budget: t.ghost\n\
fn stray(s: &Sig) {}\n\
// opcount-budget: t.exact\n\
fn exact(s: &Sig) { ops::hash_to_g1(&s.m, DST); }\n\
/// Budgeted entry points carry a `// opcount-budget: <key>` marker.\n\
fn helper(s: &Sig) { ops::mul_g1(&s.p, &s.k); }\n";
        let budgets = parse_budgets(
            "[t.hot]\nfn = \"hot\"\npairings = \"1\"\nmiller_loops = \"2\"\nfinal_exps = \"2\"\n\
             [t.loose]\nfn = \"loose\"\ng1_muls = \"2\"\n\
             [t.missing]\nfn = \"unmarked\"\ngt_exps = \"1\"\n\
             [t.dead]\nfn = \"no_such_fn\"\n\
             [t.exact]\nfn = \"exact\"\nhashes_to_g1 = \"1\"\n",
        )
        .unwrap();
        let files = parse(src);
        let findings = run(&files, &budgets);
        let has = |frag: &str| findings.iter().any(|f| f.message.contains(frag));
        assert!(has("exceeding budget `t.hot`"), "{findings:?}");
        assert!(has("below budget `t.loose`"), "{findings:?}");
        assert!(
            has("lacks the `// opcount-budget: t.missing` marker"),
            "{findings:?}"
        );
        assert!(has("dead budget entry `t.dead`"), "{findings:?}");
        assert!(has("marker `// opcount-budget: t.ghost`"), "{findings:?}");
        assert!(
            !findings.iter().any(|f| f.message.contains("`exact`")),
            "an exact entry is silent: {findings:?}"
        );
        assert!(
            !findings.iter().any(|f| f.message.contains("`helper`")),
            "doc prose naming the marker is not a marker: {findings:?}"
        );
    }

    #[test]
    fn ambiguous_entries_are_reported() {
        let files = parse("impl A { fn run(&self) {} }\nimpl A { fn run(&self, x: u8) {} }\n");
        let budgets = parse_budgets("[t.run]\nfn = \"run\"\nimpl = \"A\"\n").unwrap();
        let findings = run(&files, &budgets);
        assert!(
            findings
                .iter()
                .any(|f| f.message.contains("ambiguous budget entry `t.run`")),
            "{findings:?}"
        );
    }
}
