//! Workspace-wide call graph over parsed files.
//!
//! Nodes are non-test `fn` items; edges link call expressions to every
//! function the callee name can plausibly resolve to. Resolution is
//! name-based and **over-approximate** by design (DESIGN.md §8):
//!
//! * a path call `ops::mul_g1(..)` prefers functions whose file stem or
//!   owner type matches the qualifier (`Self` resolves to the caller's
//!   owner), falling back to every function of that name;
//! * a bare call `mac(..)` prefers free functions, as Rust resolves it
//!   only to one in scope, with the same fallback;
//! * a method call `.invert()` links to every known method of that name
//!   — trait dispatch and generics are not modelled;
//! * names that resolve to nothing (std/external calls) produce no edge.
//!
//! Over-approximation errs on the side of reporting: a spurious edge can
//! at worst demand one extra reviewed suppression, while a missing edge
//! would hide a real secret flow.

use std::collections::{BTreeSet, HashMap, HashSet};

use crate::parser::{Call, FnItem, ParsedFile};

/// Index of a function node: `(file index, fn index)`.
pub type NodeId = (usize, usize);

/// One resolved call edge.
#[derive(Debug, Clone)]
pub struct Edge {
    /// Index into the caller's `calls` vector.
    pub call: usize,
    /// The resolved callee (an index into [`CallGraph::nodes`]).
    pub callee: usize,
}

/// The workspace call graph.
pub struct CallGraph {
    /// All non-test function nodes, in deterministic file order.
    pub nodes: Vec<NodeId>,
    /// Outgoing edges per node (indexed like `nodes`).
    pub edges: Vec<Vec<Edge>>,
    /// Function name → node indices (into `nodes`).
    by_name: HashMap<String, Vec<usize>>,
}

impl CallGraph {
    /// Builds the graph over every non-test function in `files`.
    pub fn build(files: &[ParsedFile]) -> Self {
        let mut nodes = Vec::new();
        let mut by_name: HashMap<String, Vec<usize>> = HashMap::new();
        for (fi, file) in files.iter().enumerate() {
            for (gi, f) in file.fns.iter().enumerate() {
                if f.is_test {
                    continue;
                }
                let idx = nodes.len();
                nodes.push((fi, gi));
                by_name.entry(f.name.clone()).or_default().push(idx);
            }
        }

        let mut edges: Vec<Vec<Edge>> = vec![Vec::new(); nodes.len()];
        for ni in 0..nodes.len() {
            let (fi, gi) = nodes[ni];
            let caller = &files[fi].fns[gi];
            for (ci, call) in caller.calls.iter().enumerate() {
                let Some(cands) = by_name.get(&call.callee) else {
                    continue;
                };
                let targets = narrow_candidates(files, &nodes, caller, call, cands);
                for target in targets {
                    edges[ni].push(Edge {
                        call: ci,
                        callee: target,
                    });
                }
            }
        }
        Self {
            nodes,
            edges,
            by_name,
        }
    }

    /// The function item behind node index `ni`.
    pub fn item<'a>(&self, files: &'a [ParsedFile], ni: usize) -> &'a FnItem {
        let (fi, gi) = self.nodes[ni];
        &files[fi].fns[gi]
    }

    /// The file containing node index `ni`.
    pub fn file<'a>(&self, files: &'a [ParsedFile], ni: usize) -> &'a ParsedFile {
        &files[self.nodes[ni].0]
    }

    /// Node indices for every non-test function named `name`.
    pub fn named(&self, name: &str) -> &[usize] {
        self.by_name.get(name).map_or(&[], Vec::as_slice)
    }
}

/// Applies the qualifier filter: keep candidates that answer to the
/// call's qualifier ([`answers_to`]), unless that filters everything
/// out. Method calls whose receiver is literally `self` are narrowed to
/// the caller's own impl block the same way, and bare calls (no
/// qualifier, no receiver) to free functions.
fn narrow_candidates(
    files: &[ParsedFile],
    nodes: &[NodeId],
    caller: &FnItem,
    call: &Call,
    cands: &[usize],
) -> Vec<usize> {
    let self_call = call.is_method && call.receiver.as_deref() == Some("self");
    let keep = |idx: &usize| {
        let (fi, gi) = nodes[*idx];
        let f = &files[fi].fns[gi];
        match (&call.qualifier, qualifier(caller, call)) {
            (Some(_), Some(q)) => answers_to(&files[fi], f, q),
            (None, _) if self_call => caller.owner.is_some() && f.owner == caller.owner,
            (None, _) if !call.is_method => f.owner.is_none(),
            _ => false,
        }
    };
    let narrowed: Vec<usize> = cands.iter().copied().filter(keep).collect();
    if narrowed.is_empty() {
        cands.to_vec()
    } else {
        narrowed
    }
}

/// The type or module a call's path qualifier names, with `Self`
/// resolved to the caller's owner; `None` for unqualified calls and for
/// `Self` outside an impl.
pub(crate) fn qualifier<'a>(caller: &'a FnItem, call: &'a Call) -> Option<&'a str> {
    match call.qualifier.as_deref()? {
        "Self" => caller.owner.as_deref(),
        q => Some(q),
    }
}

/// Whether function `f` of `file` answers to qualifier `q`: `q` names
/// its owner type or its file's module.
pub(crate) fn answers_to(file: &ParsedFile, f: &FnItem, q: &str) -> bool {
    f.owner.as_deref() == Some(q) || file_stem(&file.path).eq_ignore_ascii_case(q)
}

/// The file name of `path` without its `.rs` extension: the module a
/// path qualifier like `ops::` names.
fn file_stem(path: &str) -> &str {
    path.rsplit('/')
        .next()
        .unwrap_or(path)
        .trim_end_matches(".rs")
}

/// Strongly connected components of the graph given by successor
/// lists (iterative Tarjan), emitted in reverse topological order:
/// every SCC appears before the SCCs that call into it, so a bottom-up
/// pass can walk the result front to back.
pub fn sccs(succ: &[Vec<usize>]) -> Vec<Vec<usize>> {
    #[derive(Clone, Copy)]
    struct NodeState {
        index: usize,
        lowlink: usize,
        on_stack: bool,
        visited: bool,
    }
    let n = succ.len();
    let mut state = vec![
        NodeState {
            index: 0,
            lowlink: 0,
            on_stack: false,
            visited: false,
        };
        n
    ];
    let mut counter = 0usize;
    let mut stack: Vec<usize> = Vec::new();
    let mut out: Vec<Vec<usize>> = Vec::new();
    // Explicit DFS frames: (node, next-successor cursor).
    let mut frames: Vec<(usize, usize)> = Vec::new();
    let mut visit = |v: usize, state: &mut [NodeState], stack: &mut Vec<usize>| {
        state[v] = NodeState {
            index: counter,
            lowlink: counter,
            on_stack: true,
            visited: true,
        };
        counter += 1;
        stack.push(v);
    };
    for root in 0..n {
        if state[root].visited {
            continue;
        }
        visit(root, &mut state, &mut stack);
        frames.push((root, 0));
        while let Some(&mut (v, ref mut cursor)) = frames.last_mut() {
            if let Some(&w) = succ[v].get(*cursor) {
                *cursor += 1;
                if !state[w].visited {
                    visit(w, &mut state, &mut stack);
                    frames.push((w, 0));
                } else if state[w].on_stack {
                    state[v].lowlink = state[v].lowlink.min(state[w].index);
                }
                continue;
            }
            frames.pop();
            if let Some(&(parent, _)) = frames.last() {
                state[parent].lowlink = state[parent].lowlink.min(state[v].lowlink);
            }
            if state[v].lowlink == state[v].index {
                let mut component = Vec::new();
                while let Some(w) = stack.pop() {
                    state[w].on_stack = false;
                    component.push(w);
                    if w == v {
                        break;
                    }
                }
                out.push(component);
            }
        }
    }
    out
}

/// The least set of function names closed under `holds`: a node's name
/// joins once `holds(ni, names)` is true of the names so far. `holds`
/// must be monotone in `names`, so the order of the rounds cannot
/// change the result.
pub fn name_fixpoint(
    files: &[ParsedFile],
    graph: &CallGraph,
    holds: impl Fn(usize, &HashSet<String>) -> bool,
) -> HashSet<String> {
    let mut names = HashSet::new();
    loop {
        let mut changed = false;
        for ni in 0..graph.nodes.len() {
            let name = &graph.item(files, ni).name;
            if !names.contains(name) && holds(ni, &names) {
                names.insert(name.clone());
                changed = true;
            }
        }
        if !changed {
            return names;
        }
    }
}

/// Propagates a per-parameter fact (secret taint) across call edges
/// until nothing changes, and returns, per node, the parameter names
/// (`self` included) holding it. Each round re-analyzes
/// every body: `carriers(ni, params)` names the bindings of node `ni`
/// holding the fact given its parameter facts, and `carries(names,
/// expr)` says whether an argument or receiver expression does. A call
/// argument that carries the fact marks the matching callee parameter;
/// a carrying method receiver marks the callee's `self`. Calls resolving
/// to a `sinks` name stop propagation: the pass reports them at the
/// call site instead. The workspace is small enough that whole rounds
/// beat a finer worklist for simplicity.
pub fn param_fixpoint(
    files: &[ParsedFile],
    graph: &CallGraph,
    seeds: Vec<BTreeSet<String>>,
    sinks: &[&str],
    carriers: impl Fn(usize, &BTreeSet<String>) -> Vec<String>,
    carries: impl Fn(&[String], &str) -> bool,
) -> Vec<BTreeSet<String>> {
    let mut params = seeds;
    loop {
        let mut changed = false;
        for ni in 0..graph.nodes.len() {
            let item = graph.item(files, ni);
            let names = carriers(ni, &params[ni]);
            for edge in &graph.edges[ni] {
                let call = &item.calls[edge.call];
                let callee = graph.item(files, edge.callee);
                if sinks.contains(&callee.name.as_str()) {
                    continue;
                }
                let via_self =
                    call.is_method && callee.params.first().is_some_and(|p| p.name == "self");
                let mut marked = Vec::new();
                if via_self && call.receiver.as_deref().is_some_and(|r| carries(&names, r)) {
                    marked.push("self");
                }
                let params_after_self = callee.params.iter().skip(usize::from(via_self));
                for (arg, p) in call.args.iter().zip(params_after_self) {
                    if !p.name.is_empty() && carries(&names, arg) {
                        marked.push(p.name.as_str());
                    }
                }
                for name in marked {
                    if params[edge.callee].insert(name.to_owned()) {
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            return params;
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // tests may panic freely
mod tests {
    use super::*;
    use crate::parser::parse_files;

    fn graph_of(sources: &[(&str, &str)]) -> (Vec<ParsedFile>, CallGraph) {
        let owned: Vec<(String, String)> = sources
            .iter()
            .map(|(p, s)| ((*p).to_owned(), (*s).to_owned()))
            .collect();
        let files = parse_files(&owned);
        let graph = CallGraph::build(&files);
        (files, graph)
    }

    #[test]
    fn links_free_function_calls_across_files() {
        let (files, g) = graph_of(&[
            ("a.rs", "fn top() { helper(1); }\n"),
            ("b.rs", "fn helper(x: u64) -> u64 { x }\n"),
        ]);
        let top = g.named("top")[0];
        assert_eq!(g.edges[top].len(), 1);
        assert_eq!(g.item(&files, g.edges[top][0].callee).name, "helper");
    }

    #[test]
    fn qualifier_narrows_to_owner_or_file_stem() {
        let (files, g) = graph_of(&[
            ("ops.rs", "fn mul(x: u64) -> u64 { x }\n"),
            (
                "other.rs",
                "fn mul(x: u64) -> u64 { x + 1 }\nfn top() { ops::mul(3); }\n",
            ),
        ]);
        let top = g.named("top")[0];
        assert_eq!(g.edges[top].len(), 1);
        let callee = g.edges[top][0].callee;
        assert_eq!(g.file(&files, callee).path, "ops.rs");
    }

    #[test]
    fn self_qualifier_resolves_to_owner() {
        let (files, g) = graph_of(&[(
            "a.rs",
            "impl Fp { fn mul(&self) {} fn run(&self) { Self::mul(self); } }\n\
             impl Fr { fn mul(&self) {} }\n",
        )]);
        let run = g.named("run")[0];
        assert_eq!(g.edges[run].len(), 1);
        let callee = g.edges[run][0].callee;
        assert_eq!(g.item(&files, callee).owner.as_deref(), Some("Fp"));
    }

    #[test]
    fn method_calls_link_to_every_same_named_method() {
        let (_files, g) = graph_of(&[(
            "a.rs",
            "impl A { fn run(&self, x: &B) { x.go(); } }\n\
             impl B { fn go(&self) {} }\n\
             impl C { fn go(&self) {} }\n",
        )]);
        let run = g.named("run")[0];
        assert_eq!(g.edges[run].len(), 2, "over-approximate dispatch");
    }

    #[test]
    fn std_calls_produce_no_edges() {
        let (_files, g) = graph_of(&[("a.rs", "fn f(v: &[u8]) -> usize { v.len() }\n")]);
        let f = g.named("f")[0];
        assert!(g.edges[f].is_empty());
    }

    #[test]
    fn test_functions_are_excluded() {
        let (_files, g) = graph_of(&[(
            "a.rs",
            "fn live() {}\n#[cfg(test)]\nmod tests { fn dead() { live(); } }\n",
        )]);
        assert_eq!(g.nodes.len(), 1);
        assert!(g.named("dead").is_empty());
    }

    #[test]
    fn self_receiver_narrows_to_the_callers_impl() {
        let (files, g) = graph_of(&[(
            "a.rs",
            "impl A { fn run(&self) { self.go(); } fn go(&self) {} }\n\
             impl B { fn go(&self) {} }\n",
        )]);
        let run = g.named("run")[0];
        assert_eq!(g.edges[run].len(), 1, "self call resolves in-impl");
        let callee = g.edges[run][0].callee;
        assert_eq!(g.item(&files, callee).owner.as_deref(), Some("A"));
    }

    #[test]
    fn bare_calls_narrow_to_free_functions() {
        let (files, g) = graph_of(&[(
            "a.rs",
            "fn mac(x: u64) -> u64 { x }\nfn top() { mac(1); only(2); }\n\
             impl Hmac { fn mac(&self) {} fn only(x: u64) {} }\n",
        )]);
        let top = g.named("top")[0];
        let callees: Vec<(&str, Option<&str>)> = g.edges[top]
            .iter()
            .map(|e| {
                let f = g.item(&files, e.callee);
                (f.name.as_str(), f.owner.as_deref())
            })
            .collect();
        // `mac` has a free candidate; `only` has none, so it falls back.
        assert_eq!(callees, [("mac", None), ("only", Some("Hmac"))]);
    }

    #[test]
    fn sccs_find_cycles_and_emit_callees_first() {
        let (_files, g) = graph_of(&[(
            "a.rs",
            "fn top() { ping(); }\nfn ping() { pong(); }\nfn pong() { ping(); leaf(); }\n\
             fn leaf() {}\nfn rec() { rec(); }\n",
        )]);
        let succ: Vec<Vec<usize>> = g
            .edges
            .iter()
            .map(|out| out.iter().map(|e| e.callee).collect())
            .collect();
        let components = sccs(&succ);
        let at = |name: &str| g.named(name)[0];
        let pos = |ni: usize| components.iter().position(|c| c.contains(&ni)).unwrap();
        // Mutual recursion shares one component; a self-edge does not
        // make one larger.
        assert_eq!(pos(at("ping")), pos(at("pong")), "mutual recursion");
        assert_eq!(components[pos(at("ping"))].len(), 2);
        assert_eq!(components[pos(at("rec"))].len(), 1);
        // Reverse-topological emission: leaf's SCC before the
        // ping/pong SCC, which in turn precedes top's.
        assert!(pos(at("leaf")) < pos(at("ping")));
        assert!(pos(at("ping")) < pos(at("top")));
    }
}
