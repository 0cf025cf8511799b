//! The simulation engine: AODV (and McCLS-secured AODV) nodes running
//! over the `mccls-sim` substrate, with attacker behaviours.
//!
//! One [`Network`] owns the nodes, their mobility processes, the radio
//! model, the spatial index, the authentication provider, and the
//! metrics; [`Network::run`] drives a [`Scheduler`](mccls_sim::Scheduler)
//! to completion and returns the run's [`Metrics`].
//!
//! The engine is split along its complexity budget:
//!
//! * `core` — construction, the event loop, and the transmission
//!   primitives (grid-backed neighbor queries, broadcast, unicast,
//!   link-break sensing). Everything here is certified ≤ neighbor-bound
//!   per event by the `complexity` lint.
//! * `forwarding` — the AODV control and data planes (RREQ/RREP/RERR
//!   handling, discovery retries, data forwarding).
//! * `attack` — the attacker behaviours, isolated behind two hooks so
//!   the honest protocol logic reads straight through.
//! * `stats` — authentication helpers and their metrics accounting.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use mccls_rng::rngs::StdRng;
use mccls_sim::{Position, RadioConfig, RandomWaypoint, SimTime, SpatialGrid};

use crate::auth::AuthProvider;
use crate::config::{Behavior, ScenarioConfig};
use crate::metrics::Metrics;
use crate::packet::{DataPacket, Packet, Rreq};
use crate::routing_table::RoutingTable;
use crate::types::{NodeId, SeqNo};

mod attack;
mod core;
mod forwarding;
mod stats;

/// Events flowing through the scheduler.
#[derive(Debug)]
pub enum NetEvent {
    /// A frame arrives at `to`'s radio.
    Receive {
        /// Receiving node.
        to: NodeId,
        /// Transmitting node (previous hop).
        from: NodeId,
        /// The frame.
        packet: Packet,
    },
    /// A CBR flow emits its next packet.
    FlowTick {
        /// Index into the scenario's flow list.
        flow: usize,
    },
    /// A route discovery timed out without an RREP.
    RreqTimeout {
        /// Discovering node.
        node: NodeId,
        /// Sought destination.
        dest: NodeId,
        /// Attempt number the timeout belongs to.
        attempt: u32,
        /// Flood id the timeout belongs to (stale timeouts are ignored).
        rreq_id: u32,
    },
    /// Periodic re-bucketing of one node's position in the spatial grid.
    /// Fired every `range / (2 · max_speed)` so no bucketed position is
    /// ever stale by more than half a cell width — the staleness bound
    /// the grid's one-cell slack ring absorbs. It bounds only bucket
    /// staleness: a neighbor query re-buckets just the candidates it
    /// samples, and its drift bound works from each node's last sample
    /// of any age.
    MobilityRefresh {
        /// The node to re-bucket.
        node: NodeId,
    },
}

// The scheduler writes every queued event into its slot store and moves
// it out when it fires, and a broadcast queues one `Receive` per
// neighbour, so a new packet field must not silently grow every event.
const _: () = assert!(std::mem::size_of::<NetEvent>() <= 64);

/// A discovery in progress: buffered data packets and retry state.
#[derive(Debug, Default)]
struct Pending {
    buffered: VecDeque<DataPacket>,
    attempt: u32,
    rreq_id: u32,
}

/// Per-node protocol state.
struct Node {
    behavior: Behavior,
    seq: SeqNo,
    next_rreq_id: u32,
    table: RoutingTable,
    seen_rreq: BTreeSet<(NodeId, u32)>,
    pending: BTreeMap<NodeId, Pending>,
    /// Neighbors with failing transmissions and the time of the first
    /// failure (link-break sensing in progress).
    suspect: BTreeMap<NodeId, SimTime>,
    /// RREQs captured by a replay attacker.
    captured: Vec<Rreq>,
    flow_seq: u64,
}

impl Node {
    fn new(behavior: Behavior) -> Self {
        Self {
            behavior,
            seq: SeqNo(0),
            next_rreq_id: 0,
            table: RoutingTable::new(),
            seen_rreq: BTreeSet::new(),
            pending: BTreeMap::new(),
            suspect: BTreeMap::new(),
            captured: Vec::new(),
            flow_seq: 0,
        }
    }
}

/// A full simulation instance.
pub struct Network {
    cfg: ScenarioConfig,
    radio: RadioConfig,
    nodes: Vec<Node>,
    mobility: Vec<RandomWaypoint>,
    /// Per node: the position and instant of its last mobility sample,
    /// the anchor of `neighbors_of`'s drift bound.
    seen: Vec<(Position, SimTime)>,
    /// Spatial index over current node positions (cell side = range).
    grid: SpatialGrid,
    /// Scratch buffer for grid candidate ids (reused across events).
    candidate_buf: Vec<u32>,
    /// Scratch buffer for in-range neighbors and their distances.
    neighbor_buf: Vec<(NodeId, f64)>,
    provider: Box<dyn AuthProvider>,
    rng: StdRng,
    /// Metrics accumulated so far (readable after [`Network::run`]).
    pub metrics: Metrics,
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // tests may panic freely
mod tests {
    use super::*;
    use mccls_sim::SimDuration;

    /// A 60 s paper scenario. Secured runs built from it charge the
    /// legacy 1.2/9 ms cost their assertions were tuned under.
    fn quick_cfg(speed: f64, seed: u64) -> ScenarioConfig {
        let mut cfg = ScenarioConfig::paper_baseline(speed, seed);
        cfg.duration = SimDuration::from_secs(60);
        cfg.crypto_cost = crate::auth::LEGACY_COST;
        cfg
    }

    #[test]
    fn static_network_delivers_most_packets() {
        let metrics = Network::new(quick_cfg(0.0, 42)).run();
        assert!(metrics.data_sent > 1000, "traffic flowed: {metrics}");
        // A static 20-node network either has connectivity for a flow or
        // not; connected flows deliver ~everything.
        assert!(
            metrics.packet_delivery_ratio() > 0.5,
            "static PDR too low: {metrics}"
        );
    }

    #[test]
    fn runs_are_deterministic() {
        let a = Network::new(quick_cfg(10.0, 7)).run();
        let b = Network::new(quick_cfg(10.0, 7)).run();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = Network::new(quick_cfg(10.0, 7)).run();
        let b = Network::new(quick_cfg(10.0, 8)).run();
        assert_ne!(a, b);
    }

    #[test]
    fn grid_and_linear_scan_agree_exactly() {
        // The headline determinism property: per-node mobility streams
        // make trajectories sampling-independent and in-range neighbors
        // are iterated in ascending id order (like the linear scan), so
        // the spatial index changes *nothing* — not even RNG draw order.
        for speed in [0.0, 5.0, 20.0] {
            let grid = Network::new(quick_cfg(speed, 7)).run();
            let mut cfg = quick_cfg(speed, 7);
            cfg.linear_scan = true;
            let linear = Network::new(cfg).run();
            assert_eq!(
                grid, linear,
                "scan method leaked into metrics at {speed} m/s"
            );
        }
    }

    #[test]
    fn grid_and_linear_scan_agree_under_attack_and_loss() {
        let make = |linear: bool| {
            let mut cfg = quick_cfg(10.0, 21)
                .secured()
                .with_attackers(Behavior::GrayHole, 2);
            cfg.loss_rate = 0.05;
            cfg.linear_scan = linear;
            Network::new(cfg).run()
        };
        assert_eq!(make(false), make(true));
    }

    #[test]
    fn grid_and_linear_scan_agree_at_district_scale() {
        // The paper's 1500 m × 300 m area is 5×1 cells, so the 5×5
        // gather holds nearly every node and the drift-bound skip has
        // little to drop. At 500 nodes most candidates lie beyond it,
        // and a bound too tight by any margin loses a neighbour.
        for speed in [0.0, 10.0, 20.0] {
            let make = |linear_scan: bool| {
                let mut cfg = ScenarioConfig::scaled(500, speed, 0xC17A_5CA1).secured();
                cfg.duration = SimDuration::from_secs(3);
                cfg.linear_scan = linear_scan;
                Network::new(cfg).run()
            };
            let grid = make(false);
            assert!(grid.signatures_checked > 10_000, "{grid}");
            assert_eq!(
                grid,
                make(true),
                "scan method leaked into metrics at {speed} m/s"
            );
        }
    }

    #[test]
    fn mobility_increases_rreq_traffic() {
        let slow = Network::new(quick_cfg(1.0, 11)).run();
        let fast = Network::new(quick_cfg(20.0, 11)).run();
        assert!(
            fast.rreq_initiated + fast.rreq_retried + fast.rreq_forwarded
                > slow.rreq_initiated + slow.rreq_retried + slow.rreq_forwarded,
            "fast {fast} vs slow {slow}"
        );
    }

    #[test]
    fn secured_variant_signs_and_verifies() {
        let metrics = Network::new(quick_cfg(5.0, 13).secured()).run();
        assert!(metrics.signatures_made > 0);
        assert!(metrics.signatures_checked > 0);
        assert_eq!(metrics.auth_rejected, 0, "no attackers, nothing rejected");
        assert!(metrics.packet_delivery_ratio() > 0.3, "{metrics}");
    }

    #[test]
    fn black_hole_degrades_plain_aodv() {
        let clean = Network::new(quick_cfg(5.0, 17)).run();
        let attacked =
            Network::new(quick_cfg(5.0, 17).with_attackers(Behavior::BlackHole, 2)).run();
        assert!(
            attacked.attacker_dropped > 0,
            "black holes absorbed traffic: {attacked}"
        );
        assert!(
            attacked.packet_delivery_ratio() < clean.packet_delivery_ratio(),
            "attacked {attacked} vs clean {clean}"
        );
    }

    #[test]
    fn mccls_neutralizes_black_hole() {
        let attacked = Network::new(
            quick_cfg(5.0, 19)
                .secured()
                .with_attackers(Behavior::BlackHole, 2),
        )
        .run();
        assert_eq!(
            attacked.attacker_dropped, 0,
            "secured run must not lose data to attackers: {attacked}"
        );
        assert!(
            attacked.auth_rejected > 0,
            "forged RREPs were rejected: {attacked}"
        );
    }

    #[test]
    fn forging_black_hole_captures_nearly_everything() {
        // The textbook ablation attacker: inflated sequence numbers
        // attract almost all traffic in plain AODV.
        let attacked =
            Network::new(quick_cfg(5.0, 17).with_attackers(Behavior::ForgingBlackHole, 2)).run();
        assert!(
            attacked.packet_drop_ratio() > 0.5,
            "forging black hole must dominate: {attacked}"
        );
    }

    #[test]
    fn mccls_neutralizes_forging_black_hole() {
        let attacked = Network::new(
            quick_cfg(5.0, 17)
                .secured()
                .with_attackers(Behavior::ForgingBlackHole, 2),
        )
        .run();
        assert_eq!(attacked.attacker_dropped, 0, "{attacked}");
        assert!(attacked.auth_rejected > 0);
    }

    #[test]
    fn rushing_attack_degrades_plain_aodv() {
        // Capture probability depends on attacker placement, so pool a
        // few seeds (a single topology can dodge the attackers).
        let mut clean = Metrics::default();
        let mut attacked = Metrics::default();
        for seed in [23, 24, 25, 26] {
            clean.merge(&Network::new(quick_cfg(5.0, seed)).run());
            attacked.merge(
                &Network::new(quick_cfg(5.0, seed).with_attackers(Behavior::Rushing, 2)).run(),
            );
        }
        assert!(attacked.attacker_dropped > 0, "{attacked}");
        assert!(
            attacked.packet_delivery_ratio() < clean.packet_delivery_ratio() - 0.05,
            "attacked {attacked} vs clean {clean}"
        );
    }

    #[test]
    fn mccls_neutralizes_rushing() {
        let attacked = Network::new(
            quick_cfg(5.0, 29)
                .secured()
                .with_attackers(Behavior::Rushing, 2),
        )
        .run();
        assert_eq!(attacked.attacker_dropped, 0, "{attacked}");
    }

    #[test]
    fn gray_hole_drops_roughly_half_of_transit_traffic() {
        let mut clean = Metrics::default();
        let mut attacked = Metrics::default();
        for seed in [41, 42, 43] {
            clean.merge(&Network::new(quick_cfg(5.0, seed)).run());
            attacked.merge(
                &Network::new(quick_cfg(5.0, seed).with_attackers(Behavior::GrayHole, 2)).run(),
            );
        }
        assert!(attacked.attacker_dropped > 0, "{attacked}");
        assert!(
            attacked.packet_delivery_ratio() < clean.packet_delivery_ratio(),
            "attacked {attacked} vs clean {clean}"
        );
    }

    #[test]
    fn mccls_neutralizes_gray_hole() {
        let attacked = Network::new(
            quick_cfg(5.0, 44)
                .secured()
                .with_attackers(Behavior::GrayHole, 2),
        )
        .run();
        assert_eq!(attacked.attacker_dropped, 0, "{attacked}");
    }

    #[test]
    fn replayer_is_rejected_in_secured_runs() {
        let attacked = Network::new(
            quick_cfg(10.0, 45)
                .secured()
                .with_attackers(Behavior::Replayer, 2),
        )
        .run();
        // Re-injected floods carry the original forwarder's signature
        // and fail the per-hop forwarder binding.
        assert!(attacked.auth_rejected > 0, "{attacked}");
        assert_eq!(attacked.attacker_dropped, 0, "{attacked}");
    }

    #[test]
    fn replayer_amplifies_plain_aodv_overhead() {
        let clean = Network::new(quick_cfg(10.0, 46)).run();
        let attacked =
            Network::new(quick_cfg(10.0, 46).with_attackers(Behavior::Replayer, 2)).run();
        // Replays do not collapse delivery (sequence numbers defend the
        // routing state) but they do burn airtime and processing.
        assert!(
            attacked.events > clean.events,
            "replays must add traffic: {} vs {}",
            attacked.events,
            clean.events
        );
    }

    #[test]
    fn expanding_ring_reduces_rreq_overhead() {
        let mut flat = Metrics::default();
        let mut ring = Metrics::default();
        for seed in [47, 48, 49] {
            flat.merge(&Network::new(quick_cfg(10.0, seed)).run());
            let mut cfg = quick_cfg(10.0, seed);
            cfg.aodv.expanding_ring = true;
            ring.merge(&Network::new(cfg).run());
        }
        assert!(
            ring.rreq_forwarded < flat.rreq_forwarded,
            "ring search must flood less: ring {} vs flat {}",
            ring.rreq_forwarded,
            flat.rreq_forwarded
        );
        assert!(
            ring.packet_delivery_ratio() > flat.packet_delivery_ratio() - 0.1,
            "ring search must not wreck delivery: ring {ring} vs flat {flat}"
        );
    }

    #[test]
    fn path_length_is_tracked() {
        let m = Network::new(quick_cfg(5.0, 50)).run();
        assert!(m.delivered_hops > 0, "multi-hop flows exist");
        assert!(
            m.avg_path_length() >= 0.5,
            "avg path {}",
            m.avg_path_length()
        );
    }

    #[test]
    fn crypto_cost_inflates_discovery_delay() {
        // With realistic (millisecond) crypto costs the delay shift is
        // within run-to-run noise for a single seed; crank the virtual
        // costs up so the mechanism itself is unambiguous.
        let plain = Network::new(quick_cfg(10.0, 31)).run();
        let mut cfg = quick_cfg(10.0, 31).secured();
        cfg.crypto_cost = crate::auth::CryptoCost {
            sign: SimDuration::from_millis(50),
            verify: SimDuration::from_millis(100),
        };
        let secured = Network::new(cfg).run();
        assert!(
            secured.avg_end_to_end_delay() > plain.avg_end_to_end_delay(),
            "per-hop crypto processing must show up in end-to-end delay: \
             plain {plain} vs secured {secured}"
        );
    }
}
