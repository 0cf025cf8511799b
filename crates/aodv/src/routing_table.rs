//! The per-node AODV routing table (RFC 3561 §2, simplified): next hop,
//! hop count, destination sequence number, lifetime, and precursors.

use std::collections::{BTreeMap, BTreeSet};

use mccls_sim::{SimDuration, SimTime};

use crate::types::{NodeId, SeqNo};

/// One routing-table entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Route {
    /// Neighbor to forward through.
    pub next_hop: NodeId,
    /// Distance to the destination in hops.
    pub hop_count: u8,
    /// Destination sequence number at learn time.
    pub dest_seq: SeqNo,
    /// Entry expiry.
    pub expires_at: SimTime,
    /// Valid flag (invalid entries keep their sequence number for RERR
    /// bookkeeping).
    pub valid: bool,
    /// Upstream nodes that route through us towards this destination.
    pub precursors: BTreeSet<NodeId>,
}

/// Hard cap on routing-table entries per node. This is what lets the
/// complexity lint certify whole-table operations (RERR generation,
/// eviction) as constant-bound per event: the scan length can never
/// track the network size. 512 comfortably exceeds what any node
/// accumulates in practice — even a 5,000-node sweep only routes
/// towards the ~20 flow endpoints plus transient neighbors — so the
/// eviction path below is essentially never exercised outside tests.
pub const MAX_ROUTES: usize = 512;

/// The routing table of a single node.
#[derive(Debug, Clone, Default)]
pub struct RoutingTable {
    routes: BTreeMap<NodeId, Route>,
}

impl RoutingTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// A valid, unexpired route to `dest`, if any.
    pub fn lookup(&self, dest: NodeId, now: SimTime) -> Option<&Route> {
        self.routes
            .get(&dest)
            .filter(|r| r.valid && r.expires_at > now)
    }

    /// The entry regardless of validity (for sequence-number
    /// bookkeeping).
    pub fn entry(&self, dest: NodeId) -> Option<&Route> {
        self.routes.get(&dest)
    }

    /// Applies the AODV update rule: adopt the offered route when it is
    /// strictly fresher (newer `dest_seq`), equally fresh but shorter,
    /// or when no valid entry exists. Returns true when the table
    /// changed.
    pub fn offer(
        &mut self,
        dest: NodeId,
        next_hop: NodeId,
        hop_count: u8,
        dest_seq: SeqNo,
        lifetime: SimDuration,
        now: SimTime,
    ) -> bool {
        let expires_at = now + lifetime;
        match self.routes.get_mut(&dest) {
            None => {
                if self.routes.len() >= MAX_ROUTES {
                    // Evict an invalid entry if one exists, else the one
                    // expiring soonest (false sorts before true).
                    // complexity-ok: the eviction scan visits at most MAX_ROUTES entries
                    let victim = self
                        .routes
                        .iter()
                        .min_by_key(|(_, r)| (r.valid, r.expires_at))
                        .map(|(d, _)| *d);
                    if let Some(d) = victim {
                        self.routes.remove(&d);
                    }
                }
                self.routes.insert(
                    dest,
                    Route {
                        next_hop,
                        hop_count,
                        dest_seq,
                        expires_at,
                        valid: true,
                        precursors: BTreeSet::new(),
                    },
                );
                true
            }
            Some(existing) => {
                let stale = !existing.valid || existing.expires_at <= now;
                let fresher = dest_seq.is_newer_than(existing.dest_seq);
                let same_but_shorter =
                    dest_seq == existing.dest_seq && hop_count < existing.hop_count;
                if stale || fresher || same_but_shorter {
                    existing.next_hop = next_hop;
                    existing.hop_count = hop_count;
                    existing.dest_seq = dest_seq;
                    existing.expires_at = expires_at;
                    existing.valid = true;
                    true
                } else {
                    if dest_seq == existing.dest_seq
                        && hop_count == existing.hop_count
                        && next_hop == existing.next_hop
                    {
                        // Same route reconfirmed: refresh lifetime.
                        existing.expires_at = existing.expires_at.max(expires_at);
                    }
                    false
                }
            }
        }
    }

    /// Records that `precursor` routes through us towards `dest`.
    pub fn add_precursor(&mut self, dest: NodeId, precursor: NodeId) {
        if let Some(r) = self.routes.get_mut(&dest) {
            r.precursors.insert(precursor);
        }
    }

    /// Marks the route to `dest` invalid and bumps its sequence number
    /// (RFC 3561 §6.11), returning the entry's state for RERR
    /// generation.
    pub fn invalidate(&mut self, dest: NodeId) -> Option<(SeqNo, BTreeSet<NodeId>)> {
        let r = self.routes.get_mut(&dest)?;
        if !r.valid {
            return None;
        }
        r.valid = false;
        r.dest_seq.increment();
        Some((r.dest_seq, std::mem::take(&mut r.precursors)))
    }

    /// Invalidates every valid route whose next hop is `neighbor`,
    /// returning the affected destinations.
    pub fn invalidate_via(&mut self, neighbor: NodeId) -> Vec<(NodeId, SeqNo)> {
        // complexity-ok: route tables are capped at MAX_ROUTES entries
        let dests: Vec<NodeId> = self
            .routes
            .iter()
            .filter(|(_, r)| r.valid && r.next_hop == neighbor)
            .map(|(d, _)| *d)
            .collect();
        // complexity-ok: at most MAX_ROUTES destinations collected above
        dests
            .into_iter()
            .filter_map(|d| self.invalidate(d).map(|(seq, _)| (d, seq)))
            .collect()
    }

    /// Extends the lifetime of an active route (called on use).
    pub fn refresh(&mut self, dest: NodeId, lifetime: SimDuration, now: SimTime) {
        if let Some(r) = self.routes.get_mut(&dest) {
            if r.valid {
                r.expires_at = r.expires_at.max(now + lifetime);
            }
        }
    }

    /// Number of entries (any validity).
    pub fn len(&self) -> usize {
        self.routes.len()
    }

    /// True when the table is empty.
    pub fn is_empty(&self) -> bool {
        self.routes.is_empty()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // tests may panic freely
mod tests {
    use super::*;

    const LIFETIME: SimDuration = SimDuration::from_secs(3);

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn offer_inserts_and_looks_up() {
        let mut rt = RoutingTable::new();
        assert!(rt.offer(NodeId(9), NodeId(2), 3, SeqNo(5), LIFETIME, t(0)));
        let r = rt.lookup(NodeId(9), t(1)).expect("route exists");
        assert_eq!(r.next_hop, NodeId(2));
        assert_eq!(r.hop_count, 3);
    }

    #[test]
    fn routes_expire() {
        let mut rt = RoutingTable::new();
        rt.offer(NodeId(9), NodeId(2), 3, SeqNo(5), LIFETIME, t(0));
        assert!(rt.lookup(NodeId(9), t(2)).is_some());
        assert!(rt.lookup(NodeId(9), t(4)).is_none());
    }

    #[test]
    fn fresher_sequence_wins() {
        let mut rt = RoutingTable::new();
        rt.offer(NodeId(9), NodeId(2), 3, SeqNo(5), LIFETIME, t(0));
        assert!(rt.offer(NodeId(9), NodeId(4), 7, SeqNo(6), LIFETIME, t(0)));
        assert_eq!(rt.lookup(NodeId(9), t(1)).unwrap().next_hop, NodeId(4));
    }

    #[test]
    fn equal_sequence_shorter_path_wins() {
        let mut rt = RoutingTable::new();
        rt.offer(NodeId(9), NodeId(2), 3, SeqNo(5), LIFETIME, t(0));
        assert!(rt.offer(NodeId(9), NodeId(4), 2, SeqNo(5), LIFETIME, t(0)));
        assert!(!rt.offer(NodeId(9), NodeId(6), 4, SeqNo(5), LIFETIME, t(0)));
        assert_eq!(rt.lookup(NodeId(9), t(1)).unwrap().next_hop, NodeId(4));
    }

    #[test]
    fn stale_sequence_rejected() {
        let mut rt = RoutingTable::new();
        rt.offer(NodeId(9), NodeId(2), 3, SeqNo(5), LIFETIME, t(0));
        assert!(!rt.offer(NodeId(9), NodeId(4), 1, SeqNo(4), LIFETIME, t(0)));
    }

    #[test]
    fn invalidate_bumps_sequence_and_clears() {
        let mut rt = RoutingTable::new();
        rt.offer(NodeId(9), NodeId(2), 3, SeqNo(5), LIFETIME, t(0));
        rt.add_precursor(NodeId(9), NodeId(7));
        let (seq, precursors) = rt.invalidate(NodeId(9)).expect("was valid");
        assert_eq!(seq, SeqNo(6));
        assert!(precursors.contains(&NodeId(7)));
        assert!(rt.lookup(NodeId(9), t(0)).is_none());
        assert!(rt.invalidate(NodeId(9)).is_none(), "already invalid");
    }

    #[test]
    fn invalid_route_can_be_replaced_by_older_seq_after_expiry() {
        let mut rt = RoutingTable::new();
        rt.offer(NodeId(9), NodeId(2), 3, SeqNo(5), LIFETIME, t(0));
        rt.invalidate(NodeId(9));
        // Stale entry: any fresh offer reactivates the destination.
        assert!(rt.offer(NodeId(9), NodeId(3), 2, SeqNo(1), LIFETIME, t(1)));
        assert!(rt.lookup(NodeId(9), t(2)).is_some());
    }

    #[test]
    fn invalidate_via_neighbor() {
        let mut rt = RoutingTable::new();
        rt.offer(NodeId(9), NodeId(2), 3, SeqNo(5), LIFETIME, t(0));
        rt.offer(NodeId(8), NodeId(2), 1, SeqNo(3), LIFETIME, t(0));
        rt.offer(NodeId(7), NodeId(4), 1, SeqNo(1), LIFETIME, t(0));
        let broken = rt.invalidate_via(NodeId(2));
        assert_eq!(broken.len(), 2);
        assert!(rt.lookup(NodeId(7), t(1)).is_some());
        assert!(rt.lookup(NodeId(9), t(1)).is_none());
    }

    #[test]
    fn table_never_exceeds_the_route_cap() {
        let mut rt = RoutingTable::new();
        for i in 0..(MAX_ROUTES as u16 + 100) {
            rt.offer(NodeId(i), NodeId(0), 1, SeqNo(1), LIFETIME, t(0));
            assert!(rt.len() <= MAX_ROUTES);
        }
        assert_eq!(rt.len(), MAX_ROUTES);
    }

    #[test]
    fn eviction_prefers_invalid_then_earliest_expiry() {
        let mut rt = RoutingTable::new();
        for i in 0..MAX_ROUTES as u16 {
            // Later destinations expire later.
            rt.offer(NodeId(i), NodeId(0), 1, SeqNo(1), LIFETIME, t(i as u64));
        }
        rt.invalidate(NodeId(7));
        rt.offer(NodeId(9_000), NodeId(0), 1, SeqNo(1), LIFETIME, t(0));
        assert!(rt.entry(NodeId(7)).is_none(), "invalid entry evicted first");
        // With no invalid entries left, the earliest expiry goes next.
        rt.offer(NodeId(9_001), NodeId(0), 1, SeqNo(1), LIFETIME, t(0));
        assert!(rt.entry(NodeId(0)).is_none(), "earliest expiry evicted");
        assert_eq!(rt.len(), MAX_ROUTES);
    }

    #[test]
    fn refresh_extends_lifetime() {
        let mut rt = RoutingTable::new();
        rt.offer(NodeId(9), NodeId(2), 3, SeqNo(5), LIFETIME, t(0));
        rt.refresh(NodeId(9), LIFETIME, t(2));
        assert!(rt.lookup(NodeId(9), t(4)).is_some());
    }

    #[test]
    fn reconfirmation_refreshes_lifetime() {
        let mut rt = RoutingTable::new();
        rt.offer(NodeId(9), NodeId(2), 3, SeqNo(5), LIFETIME, t(0));
        // Same route offered again later: not "changed", but refreshed.
        assert!(!rt.offer(NodeId(9), NodeId(2), 3, SeqNo(5), LIFETIME, t(2)));
        assert!(rt.lookup(NodeId(9), t(4)).is_some());
    }
}
