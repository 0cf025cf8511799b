//! Construction, the event loop, and the transmission primitives.
//!
//! Everything on the per-event hot path here is certified ≤
//! neighbor-bound by the `complexity` lint: neighbor queries go through
//! the [`SpatialGrid`](mccls_sim::SpatialGrid) (cell side = radio
//! range), whose candidate blocks are constant-size under the density
//! contract, and the per-node mobility streams make trajectories
//! independent of who samples them when — which is what keeps the grid
//! path bit-identical to the linear-scan ablation, and what lets a
//! query leave unsampled the candidates a drift bound puts out of range.

use mccls_rng::rngs::StdRng;
use mccls_rng::SeedableRng;
use mccls_sim::{
    Area, Position, RadioConfig, RandomWaypoint, Scheduler, SimDuration, SimTime, SpatialGrid,
    WaypointConfig,
};

use crate::auth::{AuthProvider, ModelAuthProvider, RealAuthProvider};
use crate::config::ScenarioConfig;
use crate::metrics::Metrics;
use crate::packet::Packet;
use crate::types::NodeId;

use super::{NetEvent, Network, Node};

/// Extra ring of grid cells scanned around the 3×3 block, absorbing
/// bucket staleness. Positions are re-bucketed at least every
/// `range / (2 · max_speed)` seconds (see [`Network::refresh_interval`]),
/// so a bucketed position drifts at most half a cell width: every true
/// neighbor then sits within Chebyshev distance 2 of the query cell,
/// which `slack = 1` covers. A query therefore gathers a 5×5 block.
const GRID_SLACK: usize = 1;

/// Slack, metres, added to the drift bound before a grid candidate is
/// skipped unsampled. It absorbs the rounding of the leg interpolation
/// (about 10⁻¹¹ m across a city) and of the leg hand-off, whose
/// nanosecond-rounded arrival can move a node `max_speed · 0.5 ns`
/// (10⁻⁸ m at 20 m/s) per leg ended between samples, so the skip never
/// drops a node that is in range.
const DRIFT_MARGIN: f64 = 1e-3;

impl Network {
    /// Builds a network from a scenario configuration.
    pub fn new(cfg: ScenarioConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let area = Area::new(cfg.area_width, cfg.area_height);
        let waypoints = WaypointConfig::paper(cfg.max_speed);
        let mut mobility: Vec<RandomWaypoint> = (0..cfg.num_nodes)
            .map(|_| RandomWaypoint::new(area, waypoints, &mut rng))
            .collect();
        let mut grid = SpatialGrid::new(cfg.area_width, cfg.area_height, cfg.radio_range);
        let mut seen = Vec::with_capacity(cfg.num_nodes);
        for (i, m) in mobility.iter_mut().enumerate() {
            let pos = m.position_at(SimTime::ZERO);
            grid.update(i, pos);
            seen.push((pos, SimTime::ZERO));
        }
        let nodes: Vec<Node> = (0..cfg.num_nodes as u16)
            .map(|i| Node::new(cfg.behavior_of(NodeId(i))))
            .collect();
        let attackers = cfg.attacker_ids().into_iter().collect();
        let provider: Box<dyn AuthProvider> = if cfg.real_crypto {
            Box::new(RealAuthProvider::new(
                cfg.num_nodes,
                &attackers,
                cfg.seed ^ 0xABCD,
            ))
        } else {
            let legit = (0..cfg.num_nodes as u16)
                .map(NodeId)
                .filter(|n| !attackers.contains(n));
            Box::new(ModelAuthProvider::new(legit))
        };
        let radio = RadioConfig {
            loss_rate: cfg.loss_rate,
            range: cfg.radio_range,
            ..RadioConfig::default()
        };
        Self {
            cfg,
            radio,
            nodes,
            mobility,
            seen,
            grid,
            candidate_buf: Vec::new(),
            neighbor_buf: Vec::new(),
            provider,
            rng,
            metrics: Metrics::default(),
        }
    }

    /// How often each node's grid bucket is refreshed, chosen so no
    /// bucketed position is ever stale by more than half a cell width
    /// (`None` when nodes cannot move).
    fn refresh_interval(&self) -> Option<SimDuration> {
        if self.cfg.max_speed <= 0.0 {
            return None;
        }
        Some(SimDuration::from_secs_f64(
            self.cfg.radio_range / (2.0 * self.cfg.max_speed),
        ))
    }

    /// Runs the scenario to completion and returns the metrics.
    pub fn run(mut self) -> Metrics {
        let mut sched = Scheduler::new();
        // complexity-ok: one-time setup over the configured flow list, not per-event work
        for (i, flow) in self.cfg.flows.iter().enumerate() {
            sched.schedule_at(flow.start, NetEvent::FlowTick { flow: i });
        }
        if let Some(iv) = self.refresh_interval() {
            // Stagger the first refreshes so re-bucketing work spreads
            // evenly instead of arriving in one burst per interval.
            // These run in both scan modes (the grid is maintained even
            // when `linear_scan` queries ignore it) so the event count —
            // and with it every metric — is scan-method independent.
            let n = self.cfg.num_nodes;
            // complexity-ok: one-time setup over the node list, not per-event work
            for i in 0..n {
                let first =
                    SimDuration::from_secs_f64(iv.as_secs_f64() * (i + 1) as f64 / n as f64);
                sched.schedule_at(
                    SimTime::ZERO + first,
                    NetEvent::MobilityRefresh {
                        node: NodeId(i as u16),
                    },
                );
            }
        }
        let end = SimTime::ZERO + self.cfg.duration;
        // Drain-down grace period: traffic generation stops at `end`, but
        // in-flight packets may still be delivered a little later.
        let drain = end + SimDuration::from_secs(5);
        // complexity-ok: the event loop itself is unbounded by design; per-event work is what is budgeted
        while let Some((t, ev)) = sched.pop() {
            // Stop everything past `drain`. The event popped here still
            // counts in `processed`, and so in `Metrics::events`.
            if t > drain {
                break;
            }
            self.handle(t, ev, &mut sched);
        }
        self.metrics.events = sched.processed();
        self.metrics
    }

    /// Per-event dispatch: the root the complexity budget certifies.
    /// Every path below must stay ≤ neighbor-bound.
    // complexity: neighbors
    fn handle(&mut self, now: SimTime, ev: NetEvent, sched: &mut Scheduler<NetEvent>) {
        match ev {
            NetEvent::FlowTick { flow } => self.handle_flow_tick(now, flow, sched),
            NetEvent::RreqTimeout {
                node,
                dest,
                attempt,
                rreq_id,
            } => self.handle_rreq_timeout(node, dest, attempt, rreq_id, sched),
            NetEvent::MobilityRefresh { node } => self.handle_mobility_refresh(now, node, sched),
            NetEvent::Receive { to, from, packet } => match packet {
                Packet::Rreq(r) => self.handle_rreq(now, to, from, r, sched),
                Packet::Rrep(r) => self.handle_rrep(now, to, from, r, sched),
                Packet::Rerr(r) => self.handle_rerr(now, to, from, r, sched),
                Packet::Data(d) => self.handle_data(now, to, from, d, sched),
            },
        }
    }

    // ------------------------------------------------------------------
    // Positions and neighbor queries
    // ------------------------------------------------------------------

    /// Re-buckets one node and schedules its next refresh.
    fn handle_mobility_refresh(
        &mut self,
        now: SimTime,
        node: NodeId,
        sched: &mut Scheduler<NetEvent>,
    ) {
        self.sample_position(node, now);
        if let Some(iv) = self.refresh_interval() {
            sched.schedule_at(now + iv, NetEvent::MobilityRefresh { node });
        }
    }

    /// Position of `node` at the scheduler's current instant, keeping
    /// its grid bucket and its `seen` record in sync.
    pub(super) fn sample_position(&mut self, node: NodeId, now: SimTime) -> Position {
        let pos = self.mobility[node.index()].position_at(now);
        self.grid.update(node.index(), pos);
        self.seen[node.index()] = (pos, now);
        pos
    }

    /// Fills `neighbor_buf` with every node currently within radio range
    /// of `node` (ascending id) and its distance.
    ///
    /// The grid gathers the candidates in bucket order. A candidate
    /// whose last sampled position lies farther from `node` than the
    /// range plus the distance it can have moved since (at `max_speed`)
    /// is out of range now, so it is skipped without sampling its
    /// mobility or touching its bucket; trajectories are pure functions
    /// of time, so skipping a sample moves no draw. The survivors are
    /// sorted by id, so the iteration order, and with it every RNG draw
    /// downstream, matches the linear scan exactly.
    // complexity: neighbors
    fn neighbors_of(&mut self, now: SimTime, node: NodeId) {
        let mut neighbors = std::mem::take(&mut self.neighbor_buf);
        neighbors.clear();
        let src_pos = self.sample_position(node, now);
        if self.cfg.linear_scan {
            // complexity-ok: bench-only ablation path, disabled in every default configuration
            self.neighbors_linear(now, node, src_pos, &mut neighbors);
        } else {
            let mut candidates = std::mem::take(&mut self.candidate_buf);
            candidates.clear();
            self.grid
                .candidates_into(src_pos, GRID_SLACK, &mut candidates);
            for &other in &candidates {
                let other = NodeId(other as u16);
                if other == node {
                    continue;
                }
                let (seen, at) = self.seen[other.index()];
                let drift = self.cfg.max_speed * now.duration_since(at).as_secs_f64();
                if src_pos.distance(&seen) > self.radio.range + drift + DRIFT_MARGIN {
                    continue;
                }
                let pos = self.sample_position(other, now);
                let dist = src_pos.distance(&pos);
                if dist <= self.radio.range {
                    neighbors.push((other, dist));
                }
            }
            self.candidate_buf = candidates;
            neighbors.sort_unstable_by_key(|&(id, _)| id);
        }
        self.neighbor_buf = neighbors;
    }

    /// The ablation twin of the grid query: a full scan over all nodes.
    /// This is the O(n)-per-event path the spatial grid retires; the
    /// bench keeps it alive (behind `linear_scan`) to measure the gap.
    // complexity: nodes
    fn neighbors_linear(
        &mut self,
        now: SimTime,
        node: NodeId,
        src_pos: Position,
        out: &mut Vec<(NodeId, f64)>,
    ) {
        for i in 0..self.nodes.len() {
            let other = NodeId(i as u16);
            if other == node {
                continue;
            }
            let pos = self.sample_position(other, now);
            let dist = src_pos.distance(&pos);
            if dist <= self.radio.range {
                out.push((other, dist));
            }
        }
    }

    // ------------------------------------------------------------------
    // Transmission primitives
    // ------------------------------------------------------------------

    /// Broadcasts `packet` from `node` after `extra_delay` (processing +
    /// MAC backoff chosen by the caller).
    // complexity: neighbors
    pub(super) fn broadcast(
        &mut self,
        now: SimTime,
        node: NodeId,
        packet: Packet,
        extra_delay: SimDuration,
        sched: &mut Scheduler<NetEvent>,
    ) {
        let tx = self.radio.tx_delay(packet.size_bytes());
        self.neighbors_of(now, node);
        let neighbors = std::mem::take(&mut self.neighbor_buf);
        for &(other, dist) in &neighbors {
            if self.radio.frame_lost(&mut self.rng) {
                continue;
            }
            let prop = self.radio.propagation_delay(dist);
            sched.schedule_at(
                now + extra_delay + tx + prop,
                NetEvent::Receive {
                    to: other,
                    from: node,
                    packet: packet.clone(),
                },
            );
        }
        self.neighbor_buf = neighbors;
    }

    /// Unicasts `packet` from `node` to `next_hop`. Returns false when
    /// the link is broken (receiver out of range) — link-layer feedback,
    /// standing in for 802.11 ACK failure.
    pub(super) fn unicast(
        &mut self,
        now: SimTime,
        node: NodeId,
        next_hop: NodeId,
        packet: Packet,
        extra_delay: SimDuration,
        sched: &mut Scheduler<NetEvent>,
    ) -> bool {
        let src_pos = self.sample_position(node, now);
        let dst_pos = self.sample_position(next_hop, now);
        if !self.radio.in_range(&src_pos, &dst_pos) {
            return false;
        }
        let tx = self.radio.tx_delay(packet.size_bytes());
        let prop = self.radio.propagation_delay(src_pos.distance(&dst_pos));
        self.nodes[node.index()].suspect.remove(&next_hop);
        sched.schedule_at(
            now + extra_delay + tx + prop,
            NetEvent::Receive {
                to: next_hop,
                from: node,
                packet,
            },
        );
        true
    }

    /// Records a failed transmission to a neighbor. The link is only
    /// *declared* broken (routes invalidated, RERR sent) once failures
    /// have persisted for the configured sensing latency; until then the
    /// caller just loses the packet into the blind window. Returns true
    /// when the break was declared.
    pub(super) fn report_tx_failure(
        &mut self,
        now: SimTime,
        node: NodeId,
        neighbor: NodeId,
        sched: &mut Scheduler<NetEvent>,
    ) -> bool {
        let first = *self.nodes[node.index()]
            .suspect
            .entry(neighbor)
            .or_insert(now);
        if now.duration_since(first) < self.cfg.aodv.link_break_detection {
            return false;
        }
        self.nodes[node.index()].suspect.remove(&neighbor);
        self.handle_link_break(now, node, neighbor, sched);
        true
    }

    /// A fresh MAC backoff for broadcast forwarding by honest nodes.
    pub(super) fn jitter(&mut self) -> SimDuration {
        self.radio.sample_jitter(&mut self.rng)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // tests may panic freely
mod tests {
    use super::*;

    #[test]
    fn neighbors_come_back_in_ascending_id_order() {
        // The grid gathers candidates bucket by bucket, and at 20 m/s
        // nodes keep crossing cells, each crossing swap-removing from a
        // bucket, so the gather is out of id order. Re-bucketing every
        // node each second stands in for the refresh events; querying
        // half a second later leaves every `seen` record stale, so the
        // drift bound is in play too.
        let n = 200;
        let mut net = Network::new(ScenarioConfig::scaled(n, 20.0, 5));
        let mut unsorted_gathers = 0;
        let mut linear = Vec::new();
        for s in 1..=30 {
            let refresh = SimTime::from_secs(s);
            for i in 0..n {
                net.sample_position(NodeId(i as u16), refresh);
            }
            let now = refresh + SimDuration::from_millis(500);
            for i in 0..n {
                let node = NodeId(i as u16);
                let src = net.sample_position(node, now);
                net.candidate_buf.clear();
                net.grid
                    .candidates_into(src, GRID_SLACK, &mut net.candidate_buf);
                if !net.candidate_buf.is_sorted() {
                    unsorted_gathers += 1;
                }
                net.neighbors_of(now, node);
                linear.clear();
                net.neighbors_linear(now, node, src, &mut linear);
                assert!(
                    net.neighbor_buf.is_sorted_by(|a, b| a.0 < b.0),
                    "node {i} at {s}.5 s: {:?}",
                    net.neighbor_buf
                );
                assert_eq!(net.neighbor_buf, linear, "node {i} at {s}.5 s");
            }
        }
        assert!(unsorted_gathers > 0, "every gather came back sorted");
    }
}
