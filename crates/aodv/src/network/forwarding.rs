//! The AODV control and data planes: traffic generation, route
//! discovery (with expanding-ring search and retries), RREP/RERR
//! processing, and data forwarding.
//!
//! Per-event work here is bounded by explicit caps the complexity lint
//! leans on: RERR payloads carry at most [`RERR_MAX_DESTS`] entries,
//! per-destination buffers at most `BUFFER_CAPACITY` packets, and
//! routing tables at most `MAX_ROUTES` routes.

use mccls_sim::{Scheduler, SimDuration, SimTime};

use crate::config::{
    Behavior, Flow, ACTIVE_ROUTE_TIMEOUT, BUFFER_CAPACITY, MAX_HOPS, RERR_TTL, RING_TTL_START,
    RING_TTL_STEP, RREQ_RETRIES, RREQ_TIMEOUT,
};
use crate::packet::{DataPacket, Packet, Rerr, Rrep, Rreq};
use crate::types::{NodeId, SeqNo};

use super::{NetEvent, Network};

/// Hard cap on destinations carried by one RERR. RFC 3561 lets a RERR
/// list every broken destination; capping the list (the rest will be
/// re-discovered on demand) keeps RERR processing constant-bound per
/// event. Forwarded RERRs only ever shrink the incoming list, so the
/// cap propagates through the whole dissemination tree.
pub(super) const RERR_MAX_DESTS: usize = 8;

impl Network {
    // ------------------------------------------------------------------
    // Traffic generation
    // ------------------------------------------------------------------

    pub(super) fn handle_flow_tick(
        &mut self,
        now: SimTime,
        flow_idx: usize,
        sched: &mut Scheduler<NetEvent>,
    ) {
        let flow: Flow = self.cfg.flows[flow_idx];
        if now >= SimTime::ZERO + self.cfg.duration {
            return; // traffic stops at the end of the run
        }
        let seq = {
            let node = &mut self.nodes[flow.src.index()];
            let s = node.flow_seq;
            node.flow_seq += 1;
            s
        };
        let pkt = DataPacket {
            src: flow.src,
            dst: flow.dst,
            seq,
            payload: flow.payload,
            sent_at: now,
            hops: 0,
        };
        self.metrics.data_sent += 1;
        self.route_or_discover(now, flow.src, pkt, sched);
        let interval = SimDuration::from_nanos(1_000_000_000 / flow.rate_pps as u64);
        sched.schedule_at(now + interval, NetEvent::FlowTick { flow: flow_idx });
    }

    // ------------------------------------------------------------------
    // Data forwarding
    // ------------------------------------------------------------------

    /// Sends or buffers a data packet at its *source*.
    pub(super) fn route_or_discover(
        &mut self,
        now: SimTime,
        node: NodeId,
        pkt: DataPacket,
        sched: &mut Scheduler<NetEvent>,
    ) {
        let dst = pkt.dst;
        let route = self.nodes[node.index()]
            .table
            .lookup(dst, now)
            .map(|r| r.next_hop);
        match route {
            Some(next_hop) => {
                if self.forward_data(now, node, next_hop, pkt.clone(), sched) {
                    return;
                }
                if self.report_tx_failure(now, node, next_hop, sched) {
                    // Break declared: rediscover with the packet buffered.
                    self.buffer_and_discover(now, node, pkt, sched);
                } else {
                    // Blind window: the packet is gone.
                    self.metrics.honest_dropped += 1;
                }
            }
            None => self.buffer_and_discover(now, node, pkt, sched),
        }
    }

    /// Transmits a data packet to a known next hop, refreshing route
    /// lifetimes. Returns false on link break.
    pub(super) fn forward_data(
        &mut self,
        now: SimTime,
        node: NodeId,
        next_hop: NodeId,
        pkt: DataPacket,
        sched: &mut Scheduler<NetEvent>,
    ) -> bool {
        let dst = pkt.dst;
        if !self.unicast(
            now,
            node,
            next_hop,
            Packet::Data(pkt),
            SimDuration::ZERO,
            sched,
        ) {
            return false;
        }
        let table = &mut self.nodes[node.index()].table;
        table.refresh(dst, ACTIVE_ROUTE_TIMEOUT, now);
        table.refresh(next_hop, ACTIVE_ROUTE_TIMEOUT, now);
        true
    }

    fn buffer_and_discover(
        &mut self,
        now: SimTime,
        node: NodeId,
        pkt: DataPacket,
        sched: &mut Scheduler<NetEvent>,
    ) {
        let dst = pkt.dst;
        let needs_discovery = {
            let entry = self.nodes[node.index()].pending.entry(dst).or_default();
            if entry.buffered.len() >= BUFFER_CAPACITY {
                self.metrics.honest_dropped += 1;
            } else {
                entry.buffered.push_back(pkt);
            }
            // A discovery is already running iff this entry predates us
            // with a non-zero rreq marker.
            entry.buffered.len() == 1 && entry.attempt == 0 && entry.rreq_id == 0
        };
        if needs_discovery {
            self.start_discovery(now, node, dst, 0, sched);
        }
    }

    fn start_discovery(
        &mut self,
        now: SimTime,
        node: NodeId,
        dest: NodeId,
        attempt: u32,
        sched: &mut Scheduler<NetEvent>,
    ) {
        let rreq = {
            let n = &mut self.nodes[node.index()];
            n.seq.increment();
            n.next_rreq_id += 1;
            let rreq_id = n.next_rreq_id;
            if let Some(p) = n.pending.get_mut(&dest) {
                p.attempt = attempt;
                p.rreq_id = rreq_id;
            }
            Rreq {
                origin: node,
                origin_seq: n.seq,
                rreq_id,
                dest,
                dest_seq: n.table.entry(dest).map(|r| r.dest_seq),
                hop_count: 0,
                ttl: 0, // filled below from the discovery schedule
                auth: None,
            }
        };
        let mut rreq = rreq;
        rreq.ttl = if self.cfg.aodv.expanding_ring {
            RING_TTL_START
                .saturating_add(RING_TTL_STEP.saturating_mul(attempt as u8))
                .min(MAX_HOPS)
        } else {
            MAX_HOPS
        };
        if attempt == 0 {
            self.metrics.rreq_initiated += 1;
        } else {
            self.metrics.rreq_retried += 1;
        }
        let rreq = self.maybe_sign_rreq(node, rreq);
        let delay = self.sign_cost() + self.jitter();
        let rreq_id = rreq.rreq_id;
        self.broadcast(now, node, Packet::Rreq(rreq), delay, sched);
        // Exponential backoff on retries, as RFC 3561 prescribes.
        let timeout = RREQ_TIMEOUT.saturating_mul(1 << attempt.min(4));
        sched.schedule_at(
            now + timeout,
            NetEvent::RreqTimeout {
                node,
                dest,
                attempt,
                rreq_id,
            },
        );
    }

    pub(super) fn handle_rreq_timeout(
        &mut self,
        node: NodeId,
        dest: NodeId,
        attempt: u32,
        rreq_id: u32,
        sched: &mut Scheduler<NetEvent>,
    ) {
        let now = sched.now();
        let retry = {
            let n = &mut self.nodes[node.index()];
            match n.pending.get(&dest) {
                // A different (newer) discovery owns this destination.
                Some(p) if p.rreq_id != rreq_id || p.attempt != attempt => return,
                None => return, // already resolved
                Some(_) => {
                    if attempt < RREQ_RETRIES {
                        true
                    } else {
                        // Give up: drop everything buffered.
                        if let Some(p) = n.pending.remove(&dest) {
                            self.metrics.honest_dropped += p.buffered.len() as u64;
                        }
                        false
                    }
                }
            }
        };
        if retry {
            self.start_discovery(now, node, dest, attempt + 1, sched);
        }
    }

    // ------------------------------------------------------------------
    // RREQ handling
    // ------------------------------------------------------------------

    pub(super) fn handle_rreq(
        &mut self,
        now: SimTime,
        node: NodeId,
        from: NodeId,
        rreq: Rreq,
        sched: &mut Scheduler<NetEvent>,
    ) {
        let behavior = self.nodes[node.index()].behavior;

        // Attackers skip verification entirely; honest nodes verify
        // before touching any state, so rejected floods never poison the
        // duplicate cache.
        if behavior == Behavior::Honest && !self.check_auth(&rreq.auth_payload(from), &rreq.auth) {
            return;
        }

        {
            let n = &mut self.nodes[node.index()];
            if rreq.origin == node {
                return; // own flood echoed back
            }
            if !n.seen_rreq.insert((rreq.origin, rreq.rreq_id)) {
                return; // duplicate: first copy wins
            }
        }

        // Reverse route towards the originator through the sender.
        self.nodes[node.index()].table.offer(
            rreq.origin,
            from,
            rreq.hop_count + 1,
            rreq.origin_seq,
            ACTIVE_ROUTE_TIMEOUT,
            now,
        );

        // Malicious behaviours consume the flood here; honest-routing
        // behaviours hand it back for normal processing.
        let Some(rreq) = self.attacker_handle_rreq(now, node, from, rreq, behavior, sched) else {
            return;
        };

        // Are we the destination?
        if rreq.dest == node {
            let dest_seq = {
                let n = &mut self.nodes[node.index()];
                // RFC 3561 §6.6.1: ensure our sequence number is at
                // least the one in the RREQ, then use it.
                if let Some(ds) = rreq.dest_seq {
                    if ds.is_newer_than(n.seq) {
                        n.seq = ds;
                    }
                }
                n.seq.increment();
                n.seq
            };
            let rrep = Rrep {
                origin: rreq.origin,
                dest: node,
                dest_seq,
                hop_count: 0,
                replier: node,
                auth: None,
            };
            let rrep = self.maybe_sign_rrep(node, rrep);
            self.metrics.rrep_generated += 1;
            let delay = self.verify_cost() + self.sign_cost();
            self.unicast(now, node, from, Packet::Rrep(rrep), delay, sched);
            return;
        }

        // Intermediate reply when we hold a fresh-enough route.
        let fresh = self.nodes[node.index()]
            .table
            .lookup(rreq.dest, now)
            .and_then(|r| {
                let fresh_enough = match rreq.dest_seq {
                    Some(want) => r.dest_seq.is_at_least(want),
                    None => true,
                };
                fresh_enough.then_some((r.hop_count, r.dest_seq))
            });
        if let Some((hops, seq)) = fresh {
            let rrep = Rrep {
                origin: rreq.origin,
                dest: rreq.dest,
                dest_seq: seq,
                hop_count: hops,
                replier: node,
                auth: None,
            };
            let rrep = self.maybe_sign_rrep(node, rrep);
            self.metrics.rrep_generated += 1;
            let delay = self.verify_cost() + self.sign_cost();
            self.unicast(now, node, from, Packet::Rrep(rrep), delay, sched);
            return;
        }

        // Rebroadcast, within the flood radius.
        if rreq.hop_count + 1 >= rreq.ttl.min(MAX_HOPS) {
            return;
        }
        let mut fwd = rreq;
        fwd.hop_count += 1;
        fwd.auth = None;
        let fwd = self.maybe_sign_rreq(node, fwd);
        self.metrics.rreq_forwarded += 1;
        let delay = self.verify_cost() + self.sign_cost() + self.jitter();
        self.broadcast(now, node, Packet::Rreq(fwd), delay, sched);
    }

    // ------------------------------------------------------------------
    // RREP handling
    // ------------------------------------------------------------------

    pub(super) fn handle_rrep(
        &mut self,
        now: SimTime,
        node: NodeId,
        from: NodeId,
        rrep: Rrep,
        sched: &mut Scheduler<NetEvent>,
    ) {
        let behavior = self.nodes[node.index()].behavior;
        if behavior == Behavior::Honest && !self.check_auth(&rrep.auth_payload(from), &rrep.auth) {
            return;
        }

        // Forward route to the destination through the sender. Under
        // first-RREP-wins semantics an already-valid route is kept.
        let has_valid = self.nodes[node.index()]
            .table
            .lookup(rrep.dest, now)
            .is_some();
        if !(self.cfg.aodv.first_rrep_wins && has_valid) {
            self.nodes[node.index()].table.offer(
                rrep.dest,
                from,
                rrep.hop_count + 1,
                rrep.dest_seq,
                ACTIVE_ROUTE_TIMEOUT,
                now,
            );
        }

        if rrep.origin == node {
            // Discovery complete: flush whatever waited for this route.
            let buffered = self.nodes[node.index()]
                .pending
                .remove(&rrep.dest)
                .map(|p| p.buffered)
                .unwrap_or_default();
            // complexity-ok: at most BUFFER_CAPACITY (64) packets are buffered per destination
            for pkt in buffered {
                self.route_or_discover(now, node, pkt, sched);
            }
            return;
        }

        // Forward along the reverse route towards the originator.
        let reverse = self.nodes[node.index()]
            .table
            .lookup(rrep.origin, now)
            .map(|r| r.next_hop);
        let Some(next_hop) = reverse else {
            return; // reverse route evaporated
        };
        {
            let table = &mut self.nodes[node.index()].table;
            table.add_precursor(rrep.dest, next_hop);
            table.add_precursor(rrep.origin, from);
        }
        let mut fwd = rrep;
        fwd.hop_count = fwd.hop_count.saturating_add(1);
        fwd.auth = None;
        let fwd = self.maybe_sign_rrep(node, fwd);
        let delay = if behavior == Behavior::Honest {
            self.verify_cost() + self.sign_cost()
        } else {
            SimDuration::ZERO
        };
        if !self.unicast(now, node, next_hop, Packet::Rrep(fwd), delay, sched) {
            self.report_tx_failure(now, node, next_hop, sched);
        }
    }

    // ------------------------------------------------------------------
    // RERR handling and link breaks
    // ------------------------------------------------------------------

    pub(super) fn handle_link_break(
        &mut self,
        now: SimTime,
        node: NodeId,
        dead_neighbor: NodeId,
        sched: &mut Scheduler<NetEvent>,
    ) {
        let mut broken = self.nodes[node.index()].table.invalidate_via(dead_neighbor);
        if broken.is_empty() {
            return;
        }
        // Destinations beyond the cap stay invalidated locally; their
        // upstreams find out through data-plane no-route RERRs instead.
        broken.truncate(RERR_MAX_DESTS);
        let rerr = Rerr {
            unreachable: broken,
            ttl: RERR_TTL,
        };
        self.metrics.rerr_sent += 1;
        self.broadcast(now, node, Packet::Rerr(rerr), SimDuration::ZERO, sched);
    }

    pub(super) fn handle_rerr(
        &mut self,
        now: SimTime,
        node: NodeId,
        from: NodeId,
        rerr: Rerr,
        sched: &mut Scheduler<NetEvent>,
    ) {
        let mut invalidated = Vec::new();
        {
            let table = &mut self.nodes[node.index()].table;
            // complexity-ok: RERR payloads are truncated to RERR_MAX_DESTS entries at the origin
            for (dest, seq) in &rerr.unreachable {
                let uses_sender = table
                    .entry(*dest)
                    .is_some_and(|r| r.valid && r.next_hop == from);
                if uses_sender {
                    if let Some((_, _)) = table.invalidate(*dest) {
                        invalidated.push((*dest, *seq));
                    }
                }
            }
        }
        if !invalidated.is_empty() && rerr.ttl > 0 {
            let fwd = Rerr {
                unreachable: invalidated,
                ttl: rerr.ttl - 1,
            };
            self.metrics.rerr_sent += 1;
            self.broadcast(now, node, Packet::Rerr(fwd), SimDuration::ZERO, sched);
        }
    }

    // ------------------------------------------------------------------
    // Data handling
    // ------------------------------------------------------------------

    pub(super) fn handle_data(
        &mut self,
        now: SimTime,
        node: NodeId,
        _from: NodeId,
        pkt: DataPacket,
        sched: &mut Scheduler<NetEvent>,
    ) {
        let behavior = self.nodes[node.index()].behavior;
        if node != pkt.dst && self.attacker_absorbs_data(node, behavior) {
            return;
        }
        if node == pkt.dst {
            self.metrics.data_delivered += 1;
            self.metrics.delay_total = self.metrics.delay_total + (now - pkt.sent_at);
            self.metrics.delivered_hops += pkt.hops as u64;
            return;
        }
        // Forward.
        let mut pkt = pkt;
        pkt.hops = pkt.hops.saturating_add(1);
        let next = self.nodes[node.index()]
            .table
            .lookup(pkt.dst, now)
            .map(|r| r.next_hop);
        match next {
            Some(next_hop) => {
                if self.forward_data(now, node, next_hop, pkt.clone(), sched) {
                    self.metrics.data_forwarded += 1;
                } else {
                    self.report_tx_failure(now, node, next_hop, sched);
                    self.metrics.honest_dropped += 1;
                }
            }
            None => {
                // No route at an intermediate hop: drop and complain.
                self.metrics.honest_dropped += 1;
                let seq = self.nodes[node.index()]
                    .table
                    .entry(pkt.dst)
                    .map(|r| r.dest_seq)
                    .unwrap_or(SeqNo(0));
                let rerr = Rerr {
                    unreachable: vec![(pkt.dst, seq)],
                    ttl: RERR_TTL,
                };
                self.metrics.rerr_sent += 1;
                self.broadcast(now, node, Packet::Rerr(rerr), SimDuration::ZERO, sched);
            }
        }
    }
}
