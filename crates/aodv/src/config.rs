//! Protocol and scenario configuration knobs.

use mccls_sim::{SimDuration, SimTime};

use crate::auth::CryptoCost;
use crate::types::NodeId;

/// Lifetime granted to routes on creation/use.
pub(crate) const ACTIVE_ROUTE_TIMEOUT: SimDuration = SimDuration::from_secs(3);
/// Time to wait for an RREP before retrying discovery
/// (NET_TRAVERSAL_TIME).
pub(crate) const RREQ_TIMEOUT: SimDuration = SimDuration::from_millis(2_000);
/// Attempts beyond the first flood.
pub(crate) const RREQ_RETRIES: u32 = 2;
/// Max packets buffered per destination awaiting a route.
pub(crate) const BUFFER_CAPACITY: usize = 64;
/// Max hops any packet may traverse (NET_DIAMETER).
pub(crate) const MAX_HOPS: u8 = 35;
/// Propagation budget for RERRs.
pub(crate) const RERR_TTL: u8 = 3;
/// Initial TTL of an expanding-ring discovery.
pub(crate) const RING_TTL_START: u8 = 2;
/// TTL increment per expanding-ring retry.
pub(crate) const RING_TTL_STEP: u8 = 2;

/// The AODV behaviours a run may switch. RFC 3561's timers and limits
/// are fixed, and intermediate nodes with a fresh route always answer
/// RREQs, as RFC 3561 prescribes (the hook the black hole abuses).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AodvConfig {
    /// RFC 3561 §6.4 expanding-ring search: start discoveries with a
    /// small flood radius and widen on retry, instead of always flooding
    /// the whole network. Off by default to match the paper's flat
    /// floods; the ablation bench measures the overhead difference.
    pub expanding_ring: bool,
    /// When set, a node keeps the route established by the first RREP it
    /// accepts and ignores later offers while that route is valid (a
    /// common simplification of QualNet-era AODV models). This caps a
    /// sequence-number-inflating black hole at its positional capture
    /// rate, matching the paper's Fig. 4/5 magnitudes.
    pub first_rrep_wins: bool,
    /// How long a neighbor must keep failing before the link is declared
    /// broken. Models hello-loss / MAC-retry sensing latency: packets
    /// forwarded into the blind window are lost, which is the dominant
    /// speed-dependent loss mechanism behind the paper's Fig. 1 decay.
    pub link_break_detection: SimDuration,
}

impl Default for AodvConfig {
    fn default() -> Self {
        Self {
            expanding_ring: false,
            first_rrep_wins: false,
            link_break_detection: SimDuration::from_millis(1_500),
        }
    }
}

/// Which routing protocol variant a run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protocol {
    /// Plain AODV, no authentication (the paper's baseline).
    Aodv,
    /// AODV with the McCLS routing-authentication extension.
    McClsSecured,
}

/// How a malicious node behaves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Behavior {
    /// Follows the protocol.
    Honest,
    /// Black hole in the Marti et al. sense the paper cites:
    /// participates in route discovery like an honest node (so routes
    /// form through it naturally) but silently absorbs every data
    /// packet. This is the variant whose capture rate matches the
    /// paper's Fig. 5 magnitudes (≤ ~20%).
    BlackHole,
    /// The stronger textbook forging black hole: answers every RREQ
    /// with a forged fresh route (destination sequence inflated, hop
    /// count 1), suppresses the flood, and absorbs all attracted data.
    /// Kept as an ablation — it captures nearly all traffic.
    ForgingBlackHole,
    /// Rushing: rebroadcasts RREQs immediately (no MAC jitter, no
    /// processing delay) to win the duplicate-suppression race, then
    /// drops the data packets that flow through it.
    Rushing,
    /// Gray hole: routes honestly but drops each data packet with
    /// probability one half — harder to pin down statistically than the
    /// full black hole, same remedy (no credentials ⇒ excluded).
    GrayHole,
    /// Replay attacker: stores overheard RREQs and re-injects stale
    /// copies verbatim (original signature included). The per-hop
    /// forwarder binding in the authentication payload makes honest
    /// nodes reject re-injections in secured runs.
    Replayer,
}

/// A constant-bit-rate traffic flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flow {
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Packets per second.
    pub rate_pps: u32,
    /// Payload bytes per packet.
    pub payload: usize,
    /// First packet time.
    pub start: SimTime,
}

/// Everything one simulation run needs.
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    /// Number of nodes (20 in the paper).
    pub num_nodes: usize,
    /// Area width in metres (1500 in the paper).
    pub area_width: f64,
    /// Area height in metres (300 in the paper).
    pub area_height: f64,
    /// Maximum node speed in m/s (the paper sweeps 0–20).
    pub max_speed: f64,
    /// Protocol variant.
    pub protocol: Protocol,
    /// Behaviour per node index (defaults to honest when shorter than
    /// `num_nodes`).
    pub behaviors: Vec<(NodeId, Behavior)>,
    /// CBR flows.
    pub flows: Vec<Flow>,
    /// Simulated duration.
    pub duration: SimDuration,
    /// RNG seed (mobility, jitter, traffic placement).
    pub seed: u64,
    /// Virtual-time crypto costs (only used by `McClsSecured`; free
    /// unless the caller sets them).
    pub crypto_cost: CryptoCost,
    /// Use the real BLS12-381 signatures instead of the modeled
    /// provider (slow; for validation runs and examples).
    pub real_crypto: bool,
    /// AODV timer configuration.
    pub aodv: AodvConfig,
    /// Uniform frame loss probability.
    pub loss_rate: f64,
    /// Radio reception range in metres. The paper does not state one;
    /// 370 m (QualNet's default 802.11b two-ray range) keeps the 20-node
    /// 1500×300 m scenario connected the way the paper's Fig. 1 PDR
    /// (~0.95 at 0 m/s) implies. ns-2's classic 250 m partitions it.
    pub radio_range: f64,
    /// Replace the spatial-grid neighbor query with a full linear scan
    /// over all nodes. The two produce bit-identical metrics (per-node
    /// mobility streams make trajectories sampling-independent); the
    /// flag exists for the bench ablation that measures what the grid
    /// buys at scale.
    pub linear_scan: bool,
}

impl ScenarioConfig {
    /// The paper's scenario skeleton: 20 nodes, 1500 m × 300 m, random
    /// waypoint with zero pause, plain AODV, no attackers, and a default
    /// CBR load of 10 flows × 4 packets/s × 512 B for 200 simulated
    /// seconds (the paper does not specify its traffic; these are the
    /// conventional values for this scenario family).
    pub fn paper_baseline(max_speed: f64, seed: u64) -> Self {
        Self {
            num_nodes: 20,
            area_width: 1500.0,
            area_height: 300.0,
            max_speed,
            protocol: Protocol::Aodv,
            behaviors: Vec::new(),
            flows: Vec::new(), // filled by `with_default_flows`
            duration: SimDuration::from_secs(200),
            seed,
            crypto_cost: CryptoCost::FREE,
            real_crypto: false,
            aodv: AodvConfig::default(),
            loss_rate: 0.0,
            radio_range: 370.0,
            linear_scan: false,
        }
        .with_default_flows(10, 4, 512)
    }

    /// A scaled-up variant of the paper scenario that preserves its node
    /// density (one node per 22,500 m², the paper's 20 nodes in
    /// 1500 m × 300 m) and its 5:1 aspect ratio, with the same CBR load
    /// of 10 flows × 4 packets/s × 512 B. Used by the city-scale sweeps
    /// (500–5,000 nodes) that the spatial grid makes tractable.
    pub fn scaled(num_nodes: usize, max_speed: f64, seed: u64) -> Self {
        assert!(num_nodes >= 2, "need at least two nodes");
        let mut cfg = Self::paper_baseline(max_speed, seed);
        cfg.num_nodes = num_nodes;
        let width = (num_nodes as f64 * 22_500.0 * 5.0).sqrt();
        cfg.area_width = width;
        cfg.area_height = width / 5.0;
        cfg.with_default_flows(10, 4, 512)
    }

    /// Installs `n` CBR flows between deterministic, distinct,
    /// non-attacker node pairs.
    pub fn with_default_flows(mut self, n: usize, rate_pps: u32, payload: usize) -> Self {
        let attacker_ids: Vec<NodeId> = self
            .behaviors
            .iter()
            .filter(|(_, b)| *b != Behavior::Honest)
            .map(|(id, _)| *id)
            .collect();
        let honest: Vec<NodeId> = (0..self.num_nodes as u16)
            .map(NodeId)
            .filter(|id| !attacker_ids.contains(id))
            .collect();
        assert!(
            honest.len() >= 2,
            "need at least two honest nodes for traffic"
        );
        self.flows = (0..n)
            .map(|i| {
                let src = honest[(2 * i) % honest.len()];
                let mut dst = honest[(2 * i + honest.len() / 2) % honest.len()];
                if dst == src {
                    dst = honest[(2 * i + honest.len() / 2 + 1) % honest.len()];
                }
                Flow {
                    src,
                    dst,
                    rate_pps,
                    payload,
                    // Stagger flow starts across the first seconds.
                    start: SimTime::from_nanos(1_000_000_000 + i as u64 * 137_000_000),
                }
            })
            .collect();
        self
    }

    /// Switches the run to McCLS-secured AODV.
    pub fn secured(mut self) -> Self {
        self.protocol = Protocol::McClsSecured;
        self
    }

    /// Adds `count` attackers of the given behaviour on the highest
    /// node indices (keeping flow endpoints honest), then reinstalls
    /// default flows away from them.
    pub fn with_attackers(mut self, behavior: Behavior, count: usize) -> Self {
        assert!(count < self.num_nodes, "too many attackers");
        let flows_spec = self
            .flows
            .first()
            .map(|f| (self.flows.len(), f.rate_pps, f.payload));
        for i in 0..count {
            let id = NodeId((self.num_nodes - 1 - i) as u16);
            self.behaviors.push((id, behavior));
        }
        if let Some((n, rate, payload)) = flows_spec {
            self = self.with_default_flows(n, rate, payload);
        }
        self
    }

    /// The behaviour of a given node.
    pub fn behavior_of(&self, node: NodeId) -> Behavior {
        self.behaviors
            .iter()
            .find(|(id, _)| *id == node)
            .map(|(_, b)| *b)
            .unwrap_or(Behavior::Honest)
    }

    /// All attacker node ids.
    pub fn attacker_ids(&self) -> Vec<NodeId> {
        self.behaviors
            .iter()
            .filter(|(_, b)| *b != Behavior::Honest)
            .map(|(id, _)| *id)
            .collect()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // tests may panic freely
mod tests {
    use super::*;

    #[test]
    fn baseline_matches_paper_scenario() {
        let cfg = ScenarioConfig::paper_baseline(10.0, 1);
        assert_eq!(cfg.num_nodes, 20);
        assert_eq!(cfg.area_width, 1500.0);
        assert_eq!(cfg.area_height, 300.0);
        assert_eq!(cfg.protocol, Protocol::Aodv);
        assert_eq!(cfg.flows.len(), 10);
    }

    #[test]
    fn flows_avoid_attackers_and_self_loops() {
        let cfg = ScenarioConfig::paper_baseline(10.0, 1).with_attackers(Behavior::BlackHole, 2);
        let attackers = cfg.attacker_ids();
        assert_eq!(attackers, vec![NodeId(19), NodeId(18)]);
        for f in &cfg.flows {
            assert_ne!(f.src, f.dst);
            assert!(!attackers.contains(&f.src));
            assert!(!attackers.contains(&f.dst));
        }
    }

    #[test]
    fn behavior_lookup() {
        let cfg = ScenarioConfig::paper_baseline(5.0, 2).with_attackers(Behavior::Rushing, 1);
        assert_eq!(cfg.behavior_of(NodeId(19)), Behavior::Rushing);
        assert_eq!(cfg.behavior_of(NodeId(0)), Behavior::Honest);
    }

    #[test]
    fn secured_switches_protocol() {
        let cfg = ScenarioConfig::paper_baseline(5.0, 2).secured();
        assert_eq!(cfg.protocol, Protocol::McClsSecured);
        // The crate keeps no crypto time: a caller charges one.
        assert_eq!(cfg.crypto_cost, CryptoCost::FREE);
    }

    #[test]
    fn scaled_scenario_preserves_density_and_aspect() {
        let base = ScenarioConfig::paper_baseline(10.0, 1);
        let big = ScenarioConfig::scaled(5_000, 10.0, 1);
        let density = |c: &ScenarioConfig| c.num_nodes as f64 / (c.area_width * c.area_height);
        assert!((density(&base) - density(&big)).abs() < 1e-12);
        assert!((big.area_width / big.area_height - 5.0).abs() < 1e-9);
        assert_eq!(big.flows.len(), 10, "load stays at the paper's 10 flows");
        // At 20 nodes the scaled scenario reproduces the paper baseline.
        let same = ScenarioConfig::scaled(20, 10.0, 1);
        assert_eq!(same.area_width, base.area_width);
        assert_eq!(same.area_height, base.area_height);
    }

    #[test]
    fn flow_starts_are_staggered() {
        let cfg = ScenarioConfig::paper_baseline(5.0, 3);
        let starts: Vec<_> = cfg.flows.iter().map(|f| f.start).collect();
        let mut sorted = starts.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(
            sorted.len(),
            starts.len(),
            "every flow starts at a distinct time"
        );
    }
}
