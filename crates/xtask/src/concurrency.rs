//! The concurrency-safety lint: lock discipline, certified from source.
//!
//! The sharded registry (`mccls-core`'s `ShardedVerifier`) is shared
//! mutable state on the verification hot path, and a cache that can
//! deadlock or serve a torn `e(Q_ID, P_pub)` entry under concurrency is
//! a verification-bypass bug, not just a performance bug. This pass
//! proves three properties over the scrubbed source and the workspace
//! call graph ([`crate::callgraph`]), the same way [`crate::opcount`]
//! proves the Table 1 operation budgets:
//!
//! 1. **Lock-order acyclicity** — every `Mutex`/`RwLock` guard creation
//!    site (`.lock()` / `.read()` / `.write()` with no arguments) is
//!    assigned a *lock class*: its receiver expression with `self.`
//!    stripped and index/call groups collapsed, so `self.shards[i]` and
//!    `self.shards[j]` share the class `shards[]`. Acquiring class `B`
//!    while a class-`A` guard is live — directly or through any chain
//!    of calls, via a per-function "acquires" fixpoint — adds the edge
//!    `A → B` to a global order graph. Any cycle is reported, including
//!    the self-edge `A → A`: two locks of one class (two shards of the
//!    same array) taken in opposite index orders by concurrent threads
//!    is the classic sharding deadlock.
//! 2. **No pairing work under a guard** — a call made while a guard is
//!    live whose statically certified cost ([`crate::opcount`]) includes
//!    a pairing, Miller loop, final exponentiation, or scalar
//!    multiplication is reported. Guards must bracket map access only;
//!    the expensive group arithmetic runs before the lock is taken or
//!    after it drops.
//! 3. **Guard-extension hazards** — a guard in a function return type
//!    or stored in a struct field extends a critical section beyond any
//!    lexical scope this analysis (or a reviewer) can bound. Both
//!    shapes are reported.
//!
//! The Send/Sync boundary is rustc's to check: the workspace lint table
//! forbids `unsafe` (so no `unsafe impl Send`/`Sync`, and no access to
//! a `static mut`), a `Cell` field in the registry fails its `Sync` bound
//! in `registry_is_send_and_sync`, and the deny-by-default
//! `let_underscore_lock` rejects a guard bound to `_`.
//!
//! Guard liveness is lexical and deliberately over-approximate: a
//! `let`-bound guard is live from its binding to the end of the
//! enclosing block (or an explicit `drop(guard)`), and a temporary
//! guard (`m.lock().len()`) is live on its own line. Calls textually
//! before the acquisition on the binding line are excluded — they run
//! before the lock is taken.
//!
//! Suppress a reviewed site with `// lock-ok: <reason>`; a bare marker
//! with no written reason is itself a finding, like every other
//! suppression in this gate.

use std::collections::{BTreeMap, BTreeSet};

use crate::callgraph::CallGraph;
use crate::lexer::{contains_word, match_forward, match_paren};
use crate::opcount::{self, Cost};
use crate::parser::{non_test_structs, FnItem, ParsedFile};
use crate::{suppression_near, Finding, Suppression};

/// The suppression marker, written as `// lock-ok: <reason>`.
pub const LOCK_OK_MARKER: &str = "lock-ok:";

/// Zero-argument methods that mint a lock guard.
const GUARD_METHODS: &[&str] = &["lock", "read", "write"];

/// Guard type names that must not appear in return types or struct
/// fields.
const GUARD_TYPES: &[&str] = &["MutexGuard", "RwLockReadGuard", "RwLockWriteGuard"];

/// Counter slots (see [`opcount::COUNTERS`]) that make a call too
/// expensive to run under a lock: pairings, Miller loops, final
/// exponentiations, and G1/G2 scalar multiplications.
const EXPENSIVE_COUNTERS: usize = 5;

/// Runs the full concurrency pass over `graph` and the costs
/// [`opcount::compute_costs`] gave over it.
pub fn analyze(files: &[ParsedFile], graph: &CallGraph, costs: &[Cost]) -> Vec<Finding> {
    let guards: Vec<Vec<GuardSite>> = (0..graph.nodes.len())
        .map(|ni| guard_sites(graph.item(files, ni)))
        .collect();

    let mut findings = Vec::new();
    lock_order(files, graph, &guards, &mut findings);
    hold_across(files, graph, costs, &guards, &mut findings);
    guard_extension(files, graph, &mut findings);

    findings.sort();
    findings.dedup();
    findings
}

fn finding(file: &str, line: usize, message: String) -> Finding {
    Finding {
        file: file.to_owned(),
        line,
        lint: "concurrency",
        message,
    }
}

/// Checks the `lock-ok:` marker at `line`. Returns `true` when the
/// finding is suppressed with a written reason; a bare marker is
/// reported and does not suppress.
fn lock_ok(file: &ParsedFile, line: usize, findings: &mut Vec<Finding>) -> bool {
    let lines = file.lines();
    match suppression_near(&lines, line, LOCK_OK_MARKER) {
        Suppression::Justified => true,
        Suppression::MissingReason => {
            findings.push(finding(
                &file.path,
                line,
                "`// lock-ok:` gives no reason — an unexplained lock-discipline waiver is \
                 itself a violation"
                    .to_owned(),
            ));
            false
        }
        Suppression::None => false,
    }
}

// ---------------------------------------------------------------------
// Guard model: where guards are created and how long they live.
// ---------------------------------------------------------------------

/// One guard creation site and its lexical liveness window.
#[derive(Debug)]
struct GuardSite {
    /// Normalized lock class of the receiver (`shards[]`, `journal`).
    class: String,
    /// Index of the acquiring call in the function's `calls` vector.
    call: usize,
    /// 1-based line of the acquisition.
    line: usize,
    /// Last line (inclusive) the guard is considered live.
    end: usize,
    /// The names a guard's `let` binds (`_` included), `None` for
    /// temporaries.
    binding: Option<String>,
}

impl GuardSite {
    /// Whether the call at `(ci, line)` executes while this guard is
    /// live. Calls textually before the acquisition on its own line ran
    /// before the lock was taken.
    fn covers(&self, ci: usize, line: usize) -> bool {
        ci != self.call
            && line >= self.line
            && line <= self.end
            && !(line == self.line && ci < self.call)
    }
}

/// Normalizes a receiver expression into a lock class: strips `&`/`*`
/// and whitespace, collapses `[...]`/`(...)` groups so all elements of
/// one lock array (or all returns of one accessor) share a class, and
/// drops a leading `self.`.
fn lock_class(receiver: &str) -> String {
    let chars: Vec<char> = receiver.chars().collect();
    let mut out = String::new();
    let mut i = 0;
    while i < chars.len() {
        match chars[i] {
            '[' => {
                out.push_str("[]");
                i = match_forward(&chars, i, '[', ']').map_or(chars.len(), |c| c + 1);
            }
            '(' => {
                out.push_str("()");
                i = match_paren(&chars, i).map_or(chars.len(), |c| c + 1);
            }
            c if c.is_whitespace() || c == '&' || c == '*' => i += 1,
            c => {
                out.push(c);
                i += 1;
            }
        }
    }
    out.strip_prefix("self.").unwrap_or(&out).to_owned()
}

/// Extracts every guard creation site of a function with its liveness
/// window.
fn guard_sites(f: &FnItem) -> Vec<GuardSite> {
    let mut out = Vec::new();
    for (ci, call) in f.calls.iter().enumerate() {
        if !call.is_method
            || !call.args.is_empty()
            || !GUARD_METHODS.contains(&call.callee.as_str())
        {
            continue;
        }
        let Some(receiver) = &call.receiver else {
            continue;
        };
        let class = lock_class(receiver);
        // The innermost `let` whose right-hand side spans the call.
        let binding = f
            .lets
            .iter()
            .rfind(|s| s.line <= call.line && call.line <= s.rhs_end_line);
        let (end, name) = match binding {
            // A `_` binding drops the guard on the spot.
            Some(s) if s.names == ["_"] => (call.line, Some("_".to_owned())),
            Some(s) => {
                // An explicit `drop(name)` releases early.
                let dropped = f
                    .calls
                    .iter()
                    .filter(|c| {
                        c.callee == "drop"
                            && !c.is_method
                            && c.args.len() == 1
                            && s.names.contains(&c.args[0])
                            && c.line >= call.line
                            && c.line <= s.scope_end_line
                    })
                    .map(|c| c.line)
                    .min();
                (
                    dropped.unwrap_or(s.scope_end_line),
                    Some(s.names.join(", ")),
                )
            }
            None => (call.line, None),
        };
        out.push(GuardSite {
            class,
            call: ci,
            line: call.line,
            end,
            binding: name,
        });
    }
    out
}

// ---------------------------------------------------------------------
// (1) Lock-order acyclicity.
// ---------------------------------------------------------------------

fn lock_order(
    files: &[ParsedFile],
    graph: &CallGraph,
    guards: &[Vec<GuardSite>],
    findings: &mut Vec<Finding>,
) {
    // Per-function transitive "acquires" sets.
    let mut acquires: Vec<BTreeSet<String>> = guards
        .iter()
        .map(|gs| gs.iter().map(|g| g.class.clone()).collect())
        .collect();
    loop {
        let mut changed = false;
        for ni in 0..graph.nodes.len() {
            for e in &graph.edges[ni] {
                let extra: Vec<String> = acquires[e.callee]
                    .iter()
                    .filter(|c| !acquires[ni].contains(*c))
                    .cloned()
                    .collect();
                if !extra.is_empty() {
                    acquires[ni].extend(extra);
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }

    // Order edges `held → acquired`, each with its first provenance.
    let mut edges: BTreeMap<(String, String), (usize, usize)> = BTreeMap::new();
    for (ni, sites) in guards.iter().enumerate() {
        let f = graph.item(files, ni);
        let fi = graph.nodes[ni].0;
        for g in sites {
            for h in sites {
                if g.covers(h.call, h.line) {
                    edges
                        .entry((g.class.clone(), h.class.clone()))
                        .or_insert((fi, h.line));
                }
            }
            for e in &graph.edges[ni] {
                let call = &f.calls[e.call];
                if !g.covers(e.call, call.line) {
                    continue;
                }
                for acquired in &acquires[e.callee] {
                    edges
                        .entry((g.class.clone(), acquired.clone()))
                        .or_insert((fi, call.line));
                }
            }
        }
    }

    // Suppression filter at each edge's provenance line.
    let kept: Vec<((String, String), (usize, usize))> = edges
        .into_iter()
        .filter(|(_, (fi, line))| !lock_ok(&files[*fi], *line, findings))
        .collect();

    // Transitive closure over lock classes; `reach[i][i]` marks a cycle.
    let mut classes: Vec<&String> = kept
        .iter()
        .flat_map(|((a, b), _)| [a, b])
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    classes.sort();
    let idx: BTreeMap<&String, usize> = classes.iter().enumerate().map(|(i, c)| (*c, i)).collect();
    let n = classes.len();
    let mut reach = vec![vec![false; n]; n];
    for ((a, b), _) in &kept {
        reach[idx[a]][idx[b]] = true;
    }
    for k in 0..n {
        // Row `k` is stable within iteration `k` (or-ing it into itself
        // is a no-op), so a snapshot keeps Floyd–Warshall exact.
        let row_k = reach[k].clone();
        for row in &mut reach {
            if !row[k] {
                continue;
            }
            for (rij, &rkj) in row.iter_mut().zip(&row_k) {
                *rij = *rij || rkj;
            }
        }
    }

    let mut reported: BTreeSet<Vec<usize>> = BTreeSet::new();
    for i in 0..n {
        if !reach[i][i] {
            continue;
        }
        let scc: Vec<usize> = (0..n)
            .filter(|&j| reach[j][j] && reach[i][j] && reach[j][i])
            .collect();
        if !reported.insert(scc.clone()) {
            continue;
        }
        // Point the report at the earliest intra-cycle edge.
        let (fi, line) = kept
            .iter()
            .filter(|((a, b), _)| scc.contains(&idx[a]) && scc.contains(&idx[b]))
            .map(|(_, prov)| *prov)
            .min()
            .unwrap_or((0, 0));
        let message = if scc.len() == 1 {
            let class = classes[scc[0]];
            format!(
                "lock-order cycle: a `{class}` lock is acquired while another `{class}` guard \
                 is still held; two threads taking different instances (e.g. two shards of one \
                 lock array) in opposite orders deadlock"
            )
        } else {
            let list = scc
                .iter()
                .map(|&j| format!("`{}`", classes[j]))
                .collect::<Vec<_>>()
                .join(", ");
            format!(
                "lock-order cycle among lock classes {list}: different call paths acquire them \
                 in conflicting orders, so concurrent callers can deadlock"
            )
        };
        findings.push(finding(&files[fi].path, line, message));
    }
}

// ---------------------------------------------------------------------
// (2) No pairing-grade work under a guard.
// ---------------------------------------------------------------------

fn hold_across(
    files: &[ParsedFile],
    graph: &CallGraph,
    costs: &[Cost],
    guards: &[Vec<GuardSite>],
    findings: &mut Vec<Finding>,
) {
    let no_lens = BTreeMap::new();
    for (ni, sites) in guards.iter().enumerate() {
        let f = graph.item(files, ni);
        let fi = graph.nodes[ni].0;
        for g in sites {
            for (ci, call) in f.calls.iter().enumerate() {
                if !g.covers(ci, call.line) {
                    continue;
                }
                let cost = match opcount::atomic_cost(call, &no_lens) {
                    Some(c) => expensive(&c).then_some(c),
                    None => graph.edges[ni]
                        .iter()
                        .filter(|e| e.call == ci)
                        .map(|e| costs[e.callee])
                        .find(expensive),
                };
                let Some(cost) = cost else {
                    continue;
                };
                if lock_ok(&files[fi], call.line, findings) {
                    continue;
                }
                let held = match &g.binding {
                    Some(name) => format!("guard `{name}`"),
                    None => "temporary guard".to_owned(),
                };
                findings.push(finding(
                    &files[fi].path,
                    call.line,
                    format!(
                        "lock {held} on `{}` (taken on line {}) is held across `{}` ({cost}); \
                         guards must bracket map access only — run pairing-grade work before \
                         taking the lock or after dropping it, or justify with \
                         `// lock-ok: <reason>`",
                        g.class, g.line, call.callee
                    ),
                ));
            }
        }
    }
}

/// Whether a cost vector contains work too expensive for a critical
/// section: any pairing, Miller loop, final exponentiation, or scalar
/// multiplication.
fn expensive(c: &Cost) -> bool {
    c.0[..EXPENSIVE_COUNTERS].iter().any(|v| !v.is_zero())
}

// ---------------------------------------------------------------------
// (3) Guard-extension hazards.
// ---------------------------------------------------------------------

fn guard_extension(files: &[ParsedFile], graph: &CallGraph, findings: &mut Vec<Finding>) {
    for ni in 0..graph.nodes.len() {
        let f = graph.item(files, ni);
        let fi = graph.nodes[ni].0;
        for ty in GUARD_TYPES {
            if contains_word(&f.ret, ty) && !lock_ok(&files[fi], f.decl_line, findings) {
                findings.push(finding(
                    &files[fi].path,
                    f.decl_line,
                    format!(
                        "`{}` returns a `{ty}`: a guard that escapes its function extends the \
                         critical section beyond any scope this analysis can bound; lock and \
                         release inside one function",
                        f.name
                    ),
                ));
            }
        }
    }

    // Guards stored in struct fields, anywhere in scope.
    for (file, s) in non_test_structs(files) {
        for (lno, text) in &s.field_lines {
            for ty in GUARD_TYPES {
                if contains_word(text, ty) && !lock_ok(file, *lno, findings) {
                    findings.push(finding(
                        &file.path,
                        *lno,
                        format!(
                            "struct `{}` stores a `{ty}`: a guard living in a field pins its \
                             lock open indefinitely and defeats any lexical lock-order reasoning",
                            s.name
                        ),
                    ));
                }
            }
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // tests may panic freely
mod tests {
    use super::*;
    use crate::parser::parse_files;

    fn run(path: &str, src: &str) -> Vec<Finding> {
        let files = parse_files(&[(path.to_owned(), src.to_owned())]);
        let graph = CallGraph::build(&files);
        analyze(&files, &graph, &opcount::compute_costs(&files, &graph))
    }

    #[test]
    fn lock_class_normalizes_receivers() {
        assert_eq!(lock_class("self.shards[idx]"), "shards[]");
        assert_eq!(lock_class("self.shards[i + 1]"), "shards[]");
        assert_eq!(lock_class("self.shard(id)"), "shard()");
        assert_eq!(lock_class("&self.journal"), "journal");
        assert_eq!(lock_class("s"), "s");
    }

    #[test]
    fn same_class_nesting_is_a_lock_order_cycle() {
        let src = "impl R {\n\
                   pub fn migrate(&self, i: usize, j: usize) {\n\
                   let src = self.shards[i].write();\n\
                   let dst = self.shards[j].write();\n\
                   src.touch(dst);\n\
                   }\n}\n";
        let findings = run("x.rs", src);
        assert!(
            findings
                .iter()
                .any(|f| f.message.contains("lock-order cycle") && f.message.contains("`shards[]`")),
            "expected the two-shard self-cycle, got: {findings:?}"
        );
    }

    #[test]
    fn cross_function_opposite_orders_cycle() {
        let src = "impl R {\n\
                   pub fn checkpoint(&self) {\n\
                   let log = self.journal.lock();\n\
                   let shard = self.shards[0].read();\n\
                   log.push(shard.len());\n\
                   }\n\
                   pub fn restore(&self) {\n\
                   let shard = self.shards[0].write();\n\
                   self.append_journal();\n\
                   shard.clear();\n\
                   }\n\
                   fn append_journal(&self) {\n\
                   let log = self.journal.lock();\n\
                   log.pop();\n\
                   }\n}\n";
        let findings = run("x.rs", src);
        assert!(
            findings
                .iter()
                .any(|f| f.message.contains("lock-order cycle")
                    && f.message.contains("`journal`")
                    && f.message.contains("`shards[]`")),
            "expected the interprocedural journal/shards cycle, got: {findings:?}"
        );
    }

    #[test]
    fn block_scoped_guard_ends_before_next_acquisition() {
        let src = "impl R {\n\
                   pub fn rotate(&self) {\n\
                   let n = {\n\
                   let log = self.journal.lock();\n\
                   log.len()\n\
                   };\n\
                   let shard = self.shards[n].write();\n\
                   shard.clear();\n\
                   }\n\
                   pub fn restore(&self) {\n\
                   let shard = self.shards[0].write();\n\
                   self.append_journal();\n\
                   shard.clear();\n\
                   }\n\
                   fn append_journal(&self) {\n\
                   let log = self.journal.lock();\n\
                   log.pop();\n\
                   }\n}\n";
        // `rotate` would close the cycle only if the block-scoped
        // journal guard were (wrongly) considered live at the `write`.
        let findings = run("x.rs", src);
        assert!(
            findings
                .iter()
                .all(|f| !f.message.contains("lock-order cycle")),
            "block-scoped guard must not extend past its block: {findings:?}"
        );
    }

    #[test]
    fn explicit_drop_releases_the_guard() {
        let src = "impl R {\n\
                   pub fn swap(&self) {\n\
                   let a = self.journal.lock();\n\
                   a.push(1);\n\
                   drop(a);\n\
                   let b = self.shards[0].write();\n\
                   b.clear();\n\
                   }\n\
                   pub fn other(&self) {\n\
                   let b = self.shards[0].write();\n\
                   let a = self.journal.lock();\n\
                   a.push(b.len());\n\
                   }\n}\n";
        let findings = run("x.rs", src);
        assert!(
            findings
                .iter()
                .all(|f| !f.message.contains("lock-order cycle")),
            "drop(guard) must release before the next acquisition: {findings:?}"
        );
    }

    #[test]
    fn pairing_under_guard_is_reported_and_precompute_twin_is_clean() {
        let src = "impl R {\n\
                   pub fn register_locked(&self, q: &G1, p: &G2) {\n\
                   let mut shard = self.shards[0].write();\n\
                   let rhs = ops::pair(q, p);\n\
                   shard.insert(rhs);\n\
                   }\n\
                   pub fn register_unlocked(&self, q: &G1, p: &G2) {\n\
                   let rhs = ops::pair(q, p);\n\
                   let mut shard = self.shards[0].write();\n\
                   shard.insert(rhs);\n\
                   }\n}\n";
        let findings = run("x.rs", src);
        assert_eq!(
            findings
                .iter()
                .filter(|f| f.message.contains("held across `pair`"))
                .count(),
            1,
            "exactly the locked variant must fire: {findings:?}"
        );
        assert!(
            findings.iter().all(|f| f.line != 8),
            "the precompute-first twin is clean: {findings:?}"
        );
    }

    #[test]
    fn hold_across_is_interprocedural() {
        let src = "impl R {\n\
                   pub fn refresh(&self, q: &G1, p: &G2) {\n\
                   let mut shard = self.shards[0].write();\n\
                   let c = derive_constant(q, p);\n\
                   shard.insert(c);\n\
                   }\n}\n\
                   fn derive_constant(q: &G1, p: &G2) -> Gt {\n\
                   ops::pair(q, p)\n\
                   }\n";
        let findings = run("x.rs", src);
        assert!(
            findings
                .iter()
                .any(|f| f.message.contains("held across `derive_constant`")),
            "the pairing one call down must be charged to the guard: {findings:?}"
        );
    }

    #[test]
    fn justified_lock_ok_suppresses_and_bare_marker_reports() {
        let src = "impl R {\n\
                   pub fn a(&self, q: &G1, p: &G2) {\n\
                   let mut s = self.shards[0].write();\n\
                   // lock-ok: startup path, no concurrent readers exist yet\n\
                   let c = ops::pair(q, p);\n\
                   s.insert(c);\n\
                   }\n\
                   pub fn b(&self, q: &G1, p: &G2) {\n\
                   let mut s = self.shards[0].write();\n\
                   // lock-ok:\n\
                   let c = ops::pair(q, p);\n\
                   s.insert(c);\n\
                   }\n}\n";
        let findings = run("x.rs", src);
        assert!(
            findings.iter().all(|f| f.line != 5),
            "justified suppression must silence the site: {findings:?}"
        );
        assert!(
            findings
                .iter()
                .any(|f| f.message.contains("gives no reason")),
            "bare marker must be reported: {findings:?}"
        );
        assert!(
            findings
                .iter()
                .any(|f| f.line == 11 && f.message.contains("held across")),
            "bare marker must not suppress: {findings:?}"
        );
    }

    #[test]
    fn guard_escapes_are_reported() {
        let src = "pub struct Lease<'a> {\n\
                   pub guard: MutexGuard<'a, u64>,\n\
                   }\n\
                   impl R {\n\
                   pub fn lease(&self) -> MutexGuard<'_, u64> {\n\
                   self.journal.lock()\n\
                   }\n\
                   pub fn held(&self) {\n\
                   let _guard = self.journal.lock();\n\
                   self.counter.tick();\n\
                   }\n}\n";
        let findings = run("x.rs", src);
        assert!(
            findings
                .iter()
                .any(|f| f.message.contains("`lease` returns a `MutexGuard`")),
            "returned guard must fire: {findings:?}"
        );
        assert!(
            findings
                .iter()
                .any(|f| f.message.contains("`Lease` stores a `MutexGuard`")),
            "struct-stored guard must fire: {findings:?}"
        );
        assert!(
            findings.iter().all(|f| f.line != 9),
            "a named, held guard is clean: {findings:?}"
        );
    }

    #[test]
    fn calls_before_the_acquisition_on_the_binding_line_are_free() {
        // The accessor argument — a pairing included — is evaluated
        // before `.write()` takes the lock; charging it to the guard
        // would demand a waiver on every shard accessor.
        let src = "impl R {\n\
                   pub fn store(&self, q: &G1, p: &G2) {\n\
                   let mut s = self.lookup(ops::pair(q, p)).write();\n\
                   s.put(q);\n\
                   }\n}\n";
        let findings = run("x.rs", src);
        assert!(findings.is_empty(), "{findings:?}");
    }
}
