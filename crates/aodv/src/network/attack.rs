//! Attacker behaviours, isolated behind two hooks so the honest
//! protocol logic in `forwarding` reads straight through:
//!
//! * [`Network::attacker_handle_rreq`] — control-plane misbehaviour on
//!   an incoming RREQ (forged replies, rushing, replays). Returns the
//!   flood unchanged for behaviours that route honestly.
//! * [`Network::attacker_absorbs_data`] — data-plane misbehaviour at a
//!   transit hop (black/gray-hole absorption).

use mccls_rng::Rng;
use mccls_sim::{Scheduler, SimDuration, SimTime};

use crate::config::{Behavior, MAX_HOPS};
use crate::packet::{Packet, Rrep, Rreq};
use crate::types::{NodeId, SeqNo};

use super::{NetEvent, Network};

impl Network {
    /// Lets a malicious `node` act on an incoming RREQ. Returns
    /// `Some(rreq)` when the flood should continue through the normal
    /// (honest) handling path, `None` when the behaviour consumed it.
    pub(super) fn attacker_handle_rreq(
        &mut self,
        now: SimTime,
        node: NodeId,
        from: NodeId,
        rreq: Rreq,
        behavior: Behavior,
        sched: &mut Scheduler<NetEvent>,
    ) -> Option<Rreq> {
        match behavior {
            Behavior::ForgingBlackHole => {
                // Forge "I have a fresh one-hop route" (the textbook
                // attack): inflate the destination sequence number so
                // the originator prefers this route over any honest
                // reply, answer instantly, and starve the flood.
                let fake_seq = rreq.dest_seq.unwrap_or(SeqNo(0)).advanced_by(1_000);
                let rrep = Rrep {
                    origin: rreq.origin,
                    dest: rreq.dest,
                    dest_seq: fake_seq,
                    hop_count: 1,
                    replier: node,
                    auth: None,
                };
                let rrep = self.maybe_sign_rrep(node, rrep);
                self.metrics.rrep_generated += 1;
                self.unicast(
                    now,
                    node,
                    from,
                    Packet::Rrep(rrep),
                    SimDuration::ZERO,
                    sched,
                );
                None
            }
            Behavior::Rushing => {
                // Forward immediately: no verification, no jitter, no
                // processing delay — win the duplicate-suppression race.
                if rreq.hop_count + 1 >= rreq.ttl.min(MAX_HOPS) {
                    return None;
                }
                let mut fwd = rreq;
                fwd.hop_count += 1;
                let fwd = self.maybe_sign_rreq(node, fwd);
                self.metrics.rreq_forwarded += 1;
                self.broadcast(now, node, Packet::Rreq(fwd), SimDuration::ZERO, sched);
                None
            }
            Behavior::Replayer => {
                // Store this flood and re-inject a previously captured
                // one verbatim — original forwarder signature and all.
                // (The per-hop forwarder binding makes secured receivers
                // reject the re-injection.)
                let stale = {
                    let n = &mut self.nodes[node.index()];
                    let stale = n.captured.first().cloned();
                    if n.captured.len() < 32 {
                        n.captured.push(rreq.clone());
                    }
                    stale
                };
                if let Some(stale) = stale {
                    self.broadcast(now, node, Packet::Rreq(stale), SimDuration::ZERO, sched);
                }
                // Keep forwarding the live flood to stay inconspicuous.
                if rreq.hop_count + 1 < rreq.ttl.min(MAX_HOPS) {
                    let mut fwd = rreq;
                    fwd.hop_count += 1;
                    let fwd = self.maybe_sign_rreq(node, fwd);
                    self.metrics.rreq_forwarded += 1;
                    let delay = self.jitter();
                    self.broadcast(now, node, Packet::Rreq(fwd), delay, sched);
                }
                None
            }
            // The drop-only black hole and gray hole route like honest
            // nodes (they want to be on paths); their data-plane
            // misbehaviour lives in `attacker_absorbs_data`.
            Behavior::Honest | Behavior::BlackHole | Behavior::GrayHole => Some(rreq),
        }
    }

    /// Whether a malicious transit `node` absorbs a data packet (and
    /// accounts for it). Only called when the node is not the packet's
    /// destination.
    pub(super) fn attacker_absorbs_data(&mut self, _node: NodeId, behavior: Behavior) -> bool {
        match behavior {
            Behavior::Honest => false,
            Behavior::GrayHole => {
                // Selective: absorb every other packet on average.
                if self.rng.gen_bool(0.5) {
                    self.metrics.attacker_dropped += 1;
                    true
                } else {
                    false
                }
            }
            // Every other malicious behaviour absorbs all data.
            _ => {
                self.metrics.attacker_dropped += 1;
                true
            }
        }
    }
}
