//! In-memory spans around the benchmark's own calls into each layer.
//!
//! A span holds a name, start, end, parent and request id. Each worker
//! thread records into its own [`Tracer`] (no locking on the hot path);
//! the traced run merges them and writes them out when it ends. A
//! disabled tracer records nothing, so untraced runs pay one branch per
//! call site.

use std::collections::HashMap;
use std::io::Write;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Instant;

/// Span ids reserved per tracer.
const IDS_PER_TRACER: u32 = 1 << 20;

/// A span-id range no other tracer of this process uses.
pub fn fresh_base() -> u32 {
    static NEXT: AtomicU32 = AtomicU32::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed) * IDS_PER_TRACER
}

/// One recorded span; times are nanoseconds since the run's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique id within the run.
    pub id: u32,
    /// The span that caused this one, if any.
    pub parent: Option<u32>,
    /// The request (packet, frame or city run) the span belongs to.
    pub request: u64,
    /// Layer-qualified name, e.g. `relay.verify` or `pairing.final_exp`.
    pub name: &'static str,
    /// Start time.
    pub start_ns: u64,
    /// End time.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A per-thread span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    base: u32,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder whose span ids start at `base` (give each worker its
    /// own range so merged ids stay unique).
    pub fn new(enabled: bool, epoch: Instant, base: u32) -> Self {
        Self {
            enabled,
            epoch,
            base,
            spans: Vec::new(),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its id (0 when disabled).
    pub fn open(&mut self, name: &'static str, parent: Option<u32>, request: u64) -> u32 {
        if !self.enabled {
            return 0;
        }
        let id = self.base + self.spans.len() as u32;
        let now = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            request,
            name,
            start_ns: now,
            end_ns: now,
        });
        id
    }

    /// Closes span `id`.
    pub fn close(&mut self, id: u32) {
        if !self.enabled {
            return;
        }
        let now = self.now_ns();
        if let Some(span) = self.spans.get_mut(id.wrapping_sub(self.base) as usize) {
            span.end_ns = now;
        }
    }

    /// Renames span `id` (a call whose class is known only after it
    /// returned, e.g. a verify that turned out to be a first contact).
    pub fn rename(&mut self, id: u32, name: &'static str) {
        if let Some(span) = self.spans.get_mut(id.wrapping_sub(self.base) as usize) {
            span.name = name;
        }
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, request);
        let out = f();
        self.close(id);
        out
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Nanoseconds of `parent` not covered by any of `children`: its
/// duration minus the union of the children's intervals, each clipped
/// to the parent. Overlapping children are counted once.
pub fn self_time_ns(parent: &Span, children: &[&Span]) -> u64 {
    let mut intervals: Vec<(u64, u64)> = children
        .iter()
        .map(|c| (c.start_ns.max(parent.start_ns), c.end_ns.min(parent.end_ns)))
        .filter(|(a, b)| a < b)
        .collect();
    intervals.sort_unstable();
    let mut covered = 0;
    let mut current: Option<(u64, u64)> = None;
    for (a, b) in intervals {
        current = match current {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                covered += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((a, b)) = current {
        covered += b - a;
    }
    parent.duration_ns().saturating_sub(covered)
}

/// Share of the total time of spans named `name` that their direct
/// children do not cover (`None` when no such span exists).
pub fn unexplained_share(spans: &[Span], name: &str) -> Option<f64> {
    let mut children: HashMap<u32, Vec<&Span>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push(s);
        }
    }
    let (mut total, mut own) = (0u64, 0u64);
    for s in spans.iter().filter(|s| s.name == name) {
        total += s.duration_ns();
        let kids = children.get(&s.id).map(Vec::as_slice).unwrap_or(&[]);
        own += self_time_ns(s, kids);
    }
    (total > 0).then(|| own as f64 / total as f64)
}

/// Writes spans as tab-separated lines:
/// `id parent request name start_ns end_ns` (`-` for no parent).
pub fn write_tsv(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id\tparent\trequest\tname\tstart_ns\tend_ns")?;
    for s in spans {
        let parent = s.parent.map_or_else(|| "-".to_owned(), |p| p.to_string());
        writeln!(
            out,
            "{}\t{parent}\t{}\t{}\t{}\t{}",
            s.id, s.request, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            request: 1,
            name,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let p = span(0, None, "p", 0, 100);
        let a = span(1, Some(0), "a", 10, 30);
        let b = span(2, Some(0), "b", 20, 50); // overlaps a: counted once
        let c = span(3, Some(0), "c", 90, 120); // clipped to the parent
        assert_eq!(self_time_ns(&p, &[&a, &b, &c]), 100 - 40 - 10);
        assert_eq!(self_time_ns(&p, &[]), 100);
        let inside = span(4, Some(0), "d", 40, 45); // nested in b
        assert_eq!(self_time_ns(&p, &[&a, &b, &inside]), 60);
    }

    #[test]
    fn unexplained_share_pools_every_span_of_a_name() {
        let spans = vec![
            span(0, None, "req", 0, 100),
            span(1, Some(0), "call", 0, 75),
            span(2, None, "req", 200, 300),
            span(3, Some(2), "call", 200, 225),
            span(4, Some(3), "inner", 200, 225),
        ];
        // 25 + 75 uncovered out of 200.
        assert_eq!(unexplained_share(&spans, "req"), Some(0.5));
        assert_eq!(unexplained_share(&spans, "call"), Some(75.0 / 100.0));
        assert_eq!(unexplained_share(&spans, "missing"), None);
    }

    #[test]
    fn tracer_records_nesting_and_disabled_records_nothing() {
        let epoch = Instant::now();
        let mut t = Tracer::new(true, epoch, 100);
        let root = t.open("root", None, 7);
        let child = t.time("child", Some(root), 7, || 5);
        t.close(root);
        assert_eq!(child, 5);
        let spans = t.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].id, spans[1].parent), (100, Some(100)));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let mut off = Tracer::new(false, epoch, 0);
        let id = off.open("root", None, 1);
        off.close(id);
        assert!(off.into_spans().is_empty());
    }
}
