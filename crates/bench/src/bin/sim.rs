//! City-scale simulation throughput harness: what the spatial grid and
//! the calendar queue buy as the node count grows.
//!
//! Four rows, each the median wall-clock cost of one full simulation
//! run normalized to nanoseconds per simulated second:
//!
//! * `sim/run_n20` — the paper's 20-node scenario;
//! * `sim/run_n500` / `sim/run_n5000` — density-preserving scale-ups
//!   ([`ScenarioConfig::scaled`]) through the grid path the xtask
//!   `complexity` lint certifies neighbor-bound;
//! * `sim/linear_n5000` — the same 5,000-node scenario with the
//!   `linear_scan` ablation, the node-bound path the lint only admits
//!   under its reviewed bench-only suppression.
//!
//! The run asserts two contracts before any baseline gating: the
//! linear-scan ablation must cost at least [`GRID_SPEEDUP`]× the grid
//! run at 5,000 nodes ([`GRID_SPEEDUP_SMOKE`]× in smoke mode — if the
//! grid ever stops paying for itself, the row that proves it goes
//! red), and both paths must produce
//! bit-identical metrics (per-node mobility streams make trajectories
//! independent of how neighbors are enumerated). Medians are then
//! gated against the committed `BENCH_sim.json` with the same >10x
//! budget as the other harnesses.
//!
//! Usage: `cargo run -p mccls-bench --release --bin sim
//! [-- --smoke] [--update-baseline] [--baseline <path>]`.

// A panic in a benchmark binary is a loud, correct failure.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::process::ExitCode;
use std::time::Instant;

use mccls_aodv::config::ScenarioConfig;
use mccls_aodv::metrics::Metrics;
use mccls_aodv::network::Network;
use mccls_bench::baseline::{self, Entry, Mode};
use mccls_sim::SimDuration;

/// Schema tag of `BENCH_sim.json`.
const SCHEMA: &str = "mccls-bench/sim/v1";

/// The 5,000-node grid run must beat the linear-scan ablation by at
/// least this factor in full mode, or the harness fails outright.
const GRID_SPEEDUP: f64 = 10.0;

/// Smoke-mode floor: a 2-simulated-second single-sample run still has
/// to show the ablation hurting by a wide multiple, but it front-loads
/// discovery floods and amortizes less setup, so CI machines get slack.
const GRID_SPEEDUP_SMOKE: f64 = 4.0;

/// Builds the benchmark scenario: `n` nodes at the paper's density,
/// 10 m/s, a fixed seed, truncated to `sim_secs` simulated seconds.
fn scenario(n: usize, sim_secs: u64, linear_scan: bool) -> ScenarioConfig {
    let mut cfg = if n == 20 {
        ScenarioConfig::paper_baseline(10.0, 0xC17A_5CA1)
    } else {
        ScenarioConfig::scaled(n, 10.0, 0xC17A_5CA1)
    };
    cfg.duration = SimDuration::from_secs(sim_secs);
    cfg.linear_scan = linear_scan;
    cfg
}

/// Runs `samples` full simulations and returns the median wall-clock
/// nanoseconds per simulated second, plus the (run-invariant) metrics.
fn measure(cfg: &ScenarioConfig, samples: usize) -> (f64, Metrics) {
    let sim_secs = cfg.duration.as_nanos() as f64 / 1e9;
    let mut runs: Vec<(f64, Metrics)> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            let metrics = Network::new(cfg.clone()).run();
            (start.elapsed().as_nanos() as f64 / sim_secs, metrics)
        })
        .collect();
    runs.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("timings are finite"));
    let (ns, metrics) = runs.swap_remove(runs.len() / 2);
    (ns, metrics)
}

fn main() -> ExitCode {
    let mode = Mode::from_args("BENCH_sim.json");
    println!("simulation harness ({} mode)\n", mode.label());

    // Smoke keeps CI fast; full is what the committed baseline records.
    // The per-simulated-second unit keeps the two comparable under the
    // 10x gate.
    let (sim_secs, samples) = if mode.smoke { (2, 1) } else { (10, 3) };

    let mut current: Vec<Entry> = Vec::new();
    let mut row = |id: &str, n: usize, linear: bool| -> (f64, Metrics) {
        let (ns, metrics) = measure(&scenario(n, sim_secs, linear), samples);
        println!(
            "{id}: {ns:>14.0} ns/sim-sec  (pdr {:.3}, {} data delivered)",
            metrics.packet_delivery_ratio(),
            metrics.data_delivered
        );
        current.push(Entry {
            id: id.to_owned(),
            median_ns: ns,
        });
        (ns, metrics)
    };

    row("sim/run_n20", 20, false);
    row("sim/run_n500", 500, false);
    let (grid_ns, grid_metrics) = row("sim/run_n5000", 5_000, false);
    let (linear_ns, linear_metrics) = row("sim/linear_n5000", 5_000, true);

    // Contract 1: the ablation must produce the exact same simulation,
    // only slower — neighbor enumeration order can never leak into
    // trajectories or routing outcomes.
    assert_eq!(
        grid_metrics, linear_metrics,
        "grid and linear-scan runs diverged: neighbor enumeration leaked into the simulation"
    );
    // Contract 2: the grid pays for itself at city scale.
    let floor = if mode.smoke {
        GRID_SPEEDUP_SMOKE
    } else {
        GRID_SPEEDUP
    };
    let speedup = linear_ns / grid_ns;
    println!("\ngrid speedup at n=5000: {speedup:.1}x (floor {floor}x)");
    assert!(
        speedup >= floor,
        "spatial grid no longer beats the linear scan {floor}x at 5,000 nodes \
         ({speedup:.1}x measured)"
    );

    baseline::gate(SCHEMA, &mode, &current)
}
