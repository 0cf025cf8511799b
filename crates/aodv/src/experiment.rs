//! The experiment harness: speed sweeps over the paper's scenario,
//! multi-trial averaging, and the exact series Figures 1–5 plot.

use crate::auth::CryptoCost;
use crate::config::{Behavior, Protocol, ScenarioConfig};
use crate::metrics::Metrics;
use crate::network::Network;
use mccls_sim::SimDuration;

/// The node speeds the paper sweeps (m/s).
pub const PAPER_SPEEDS: [f64; 5] = [0.0, 5.0, 10.0, 15.0, 20.0];

/// Which attack (if any) a series runs under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttackKind {
    /// No malicious nodes.
    None,
    /// Two black hole nodes (the paper's "2 nodes black hole attack").
    BlackHole2,
    /// Two rushing nodes.
    Rushing2,
}

impl AttackKind {
    fn apply(&self, cfg: ScenarioConfig) -> ScenarioConfig {
        match self {
            AttackKind::None => cfg,
            AttackKind::BlackHole2 => cfg.with_attackers(Behavior::BlackHole, 2),
            AttackKind::Rushing2 => cfg.with_attackers(Behavior::Rushing, 2),
        }
    }

    /// Label used in figure output.
    pub fn label(&self) -> &'static str {
        match self {
            AttackKind::None => "no attack",
            AttackKind::BlackHole2 => "black hole attack",
            AttackKind::Rushing2 => "rushing attack",
        }
    }
}

/// One point of a figure series: a speed and the averaged metrics.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Maximum node speed (m/s).
    pub speed: f64,
    /// Counters pooled over all trials (ratios computed on the pool).
    pub metrics: Metrics,
}

/// A full series: protocol + attack swept over the paper's speeds.
#[derive(Debug, Clone)]
pub struct SweepSeries {
    /// Protocol under test.
    pub protocol: Protocol,
    /// Attack configuration.
    pub attack: AttackKind,
    /// One point per speed.
    pub points: Vec<SweepPoint>,
}

impl SweepSeries {
    /// Label like `"AODV black hole attack"` / `"McCLS"` matching the
    /// paper's legends.
    pub fn label(&self) -> String {
        let proto = match self.protocol {
            Protocol::Aodv => "AODV",
            Protocol::McClsSecured => "McCLS",
        };
        match self.attack {
            AttackKind::None => proto.to_owned(),
            other => format!("{proto} {}", other.label()),
        }
    }
}

/// Builds one experiment scenario exactly the way the figure sweeps do:
/// the paper-baseline placement at `speed`/`seed`, secured when the
/// protocol is McCLS, with the attack applied and (optionally) a
/// shortened run duration for scratchpads and smoke tests. Its crypto
/// cost is the [`ScenarioConfig`] default, [`CryptoCost::FREE`]; a
/// sweep charges the cost its caller passes.
///
/// This is the single source of truth for experiment setup — the `fig*`
/// binaries (via [`sweep`]), the ablation harness, and the `debug_sim` /
/// `debug_rush` examples all call it instead of assembling their own
/// `ScenarioConfig` chains.
pub fn scenario(
    protocol: Protocol,
    attack: AttackKind,
    speed: f64,
    seed: u64,
    duration: Option<SimDuration>,
) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::paper_baseline(speed, seed);
    if protocol == Protocol::McClsSecured {
        cfg = cfg.secured();
    }
    let mut cfg = attack.apply(cfg);
    if let Some(d) = duration {
        cfg.duration = d;
    }
    cfg
}

/// One round of SplitMix64's output mixing (Steele et al., the
/// generator `java.util.SplittableRandom` popularized).
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The RNG seed of one sweep run, derived by chained SplitMix64 mixing
/// from `(base_seed, speed, trial)`.
///
/// Every run's seed is a pure function of its coordinates — independent
/// of iteration order, worker count, or which other points a sweep
/// covers — so `BENCH_sim.json` rows and the `figures/` output are
/// bit-identical no matter how the sweep is scheduled. The mixing also
/// decorrelates the lanes properly; the additive scheme it replaces
/// collided whenever `base_seed + trial + speed·1000` tied.
pub fn run_seed(base_seed: u64, speed: f64, trial: u64) -> u64 {
    splitmix64(splitmix64(splitmix64(base_seed) ^ speed.to_bits()) ^ trial)
}

/// Runs one configuration for every speed in `speeds`, pooling `trials`
/// seeds per point, fanned out over one scoped worker thread per core.
/// Secured runs charge `cost` per signed and per verified routing
/// packet; plain AODV runs ignore it.
pub fn sweep(
    protocol: Protocol,
    attack: AttackKind,
    cost: CryptoCost,
    speeds: &[f64],
    trials: u64,
    base_seed: u64,
) -> SweepSeries {
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    sweep_parallel(protocol, attack, cost, speeds, trials, base_seed, workers)
}

/// [`sweep`] with an explicit worker count. Results are bit-identical
/// for every `workers` value: each run's seed comes from [`run_seed`]
/// and runs are merged back in deterministic `(speed, trial)` order, so
/// threads only decide *when* a run executes, never what it computes.
pub fn sweep_parallel(
    protocol: Protocol,
    attack: AttackKind,
    cost: CryptoCost,
    speeds: &[f64],
    trials: u64,
    base_seed: u64,
    workers: usize,
) -> SweepSeries {
    let jobs: Vec<(usize, u64)> = (0..speeds.len())
        .flat_map(|si| (0..trials).map(move |trial| (si, trial)))
        .collect();
    let mut slots: Vec<Option<Metrics>> = vec![None; jobs.len()];
    let next = std::sync::atomic::AtomicUsize::new(0);
    let worker_outputs: Vec<Vec<(usize, Metrics)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers.max(1))
            .map(|_| {
                scope.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        let Some(&(si, trial)) = jobs.get(i) else {
                            break;
                        };
                        let speed = speeds[si];
                        let seed = run_seed(base_seed, speed, trial);
                        let mut cfg = scenario(protocol, attack, speed, seed, None);
                        cfg.crypto_cost = cost;
                        out.push((i, Network::new(cfg).run()));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(v) => v,
                Err(panic) => std::panic::resume_unwind(panic),
            })
            .collect()
    });
    for (i, m) in worker_outputs.into_iter().flatten() {
        slots[i] = Some(m);
    }
    let points = speeds
        .iter()
        .enumerate()
        .map(|(si, &speed)| {
            let mut pooled = Metrics::default();
            for trial in 0..trials as usize {
                if let Some(m) = &slots[si * trials as usize + trial] {
                    pooled.merge(m);
                }
            }
            SweepPoint {
                speed,
                metrics: pooled,
            }
        })
        .collect();
    SweepSeries {
        protocol,
        attack,
        points,
    }
}

/// Renders a set of series as an aligned text table, one row per speed
/// — the format the `fig*` binaries print.
pub fn render_table(
    title: &str,
    metric_name: &str,
    series: &[SweepSeries],
    metric: impl Fn(&Metrics) -> f64,
) -> String {
    let mut out = String::new();
    out.push_str(&format!("# {title}\n"));
    out.push_str(&format!("# metric: {metric_name}\n"));
    out.push_str(&format!("{:>12}", "speed (m/s)"));
    for s in series {
        out.push_str(&format!("  {:>28}", s.label()));
    }
    out.push('\n');
    let speeds: Vec<f64> = series
        .first()
        .map(|s| s.points.iter().map(|p| p.speed).collect())
        .unwrap_or_default();
    for (i, speed) in speeds.iter().enumerate() {
        out.push_str(&format!("{speed:>12.1}"));
        for s in series {
            out.push_str(&format!("  {:>28.4}", metric(&s.points[i].metrics)));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // tests may panic freely
mod tests {
    use super::*;
    use crate::auth::LEGACY_COST;

    fn tiny_speeds() -> [f64; 2] {
        [0.0, 10.0]
    }

    #[test]
    fn scenario_helper_applies_protocol_attack_and_duration() {
        let cfg = scenario(
            Protocol::McClsSecured,
            AttackKind::BlackHole2,
            10.0,
            7,
            Some(SimDuration::from_secs(60)),
        );
        assert_eq!(cfg.protocol, Protocol::McClsSecured);
        assert_eq!(cfg.duration, SimDuration::from_secs(60));
        assert_eq!(
            cfg.behaviors
                .iter()
                .filter(|(_, b)| *b == Behavior::BlackHole)
                .count(),
            2
        );
        let plain = scenario(Protocol::Aodv, AttackKind::None, 10.0, 7, None);
        assert_eq!(plain.protocol, Protocol::Aodv);
        assert_eq!(
            plain.duration,
            ScenarioConfig::paper_baseline(10.0, 7).duration
        );
    }

    #[test]
    fn sweep_produces_one_point_per_speed() {
        let s = sweep(
            Protocol::Aodv,
            AttackKind::None,
            CryptoCost::FREE,
            &tiny_speeds(),
            1,
            1,
        );
        assert_eq!(s.points.len(), 2);
        assert!(s.points[0].metrics.data_sent > 0);
        assert_eq!(s.label(), "AODV");
    }

    #[test]
    fn run_seeds_are_decorrelated() {
        // The coordinates that collided under the old additive scheme
        // must map to distinct seeds now.
        let a = run_seed(1, 0.0, 1000);
        let b = run_seed(1, 1.0, 0);
        let c = run_seed(1001, 0.0, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
        // And a seed only depends on its own coordinates.
        assert_eq!(run_seed(7, 5.0, 3), run_seed(7, 5.0, 3));
    }

    #[test]
    fn worker_count_does_not_change_sweep_results() {
        let free = CryptoCost::FREE;
        let serial = sweep_parallel(
            Protocol::Aodv,
            AttackKind::None,
            free,
            &tiny_speeds(),
            2,
            5,
            1,
        );
        let fanned = sweep_parallel(
            Protocol::Aodv,
            AttackKind::None,
            free,
            &tiny_speeds(),
            2,
            5,
            4,
        );
        assert_eq!(serial.points.len(), fanned.points.len());
        for (a, b) in serial.points.iter().zip(&fanned.points) {
            assert_eq!(a.speed, b.speed);
            assert_eq!(a.metrics, b.metrics, "worker count leaked into metrics");
        }
    }

    #[test]
    fn labels_match_paper_legends() {
        let s = sweep(
            Protocol::McClsSecured,
            AttackKind::Rushing2,
            LEGACY_COST,
            &[0.0],
            1,
            1,
        );
        assert_eq!(s.label(), "McCLS rushing attack");
        let s = sweep(
            Protocol::Aodv,
            AttackKind::BlackHole2,
            CryptoCost::FREE,
            &[0.0],
            1,
            1,
        );
        assert_eq!(s.label(), "AODV black hole attack");
    }

    #[test]
    fn render_table_contains_all_rows() {
        let series = vec![sweep(
            Protocol::Aodv,
            AttackKind::None,
            CryptoCost::FREE,
            &tiny_speeds(),
            1,
            2,
        )];
        let table = render_table("Fig. X", "pdr", &series, Metrics::packet_delivery_ratio);
        assert!(table.contains("Fig. X"));
        assert!(table.contains("AODV"));
        assert_eq!(table.lines().count(), 3 + tiny_speeds().len());
    }
}
