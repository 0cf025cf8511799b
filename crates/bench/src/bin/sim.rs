//! City-scale simulation throughput harness: what the spatial grid buys
//! as the node count grows, and what the paper scenario's protocol and
//! attack variants cost.
//!
//! Every row is the median wall-clock cost of one full simulation run
//! normalized to nanoseconds per simulated second:
//!
//! * `sim/run_n20` — the paper's 20-node scenario;
//! * `sim/run_n500` / `sim/run_n5000` — density-preserving scale-ups
//!   ([`ScenarioConfig::scaled`]) through the grid path the xtask
//!   `complexity` lint certifies neighbor-bound;
//! * `sim/linear_n5000` — the same 5,000-node scenario with the
//!   `linear_scan` ablation, the node-bound path the lint only admits
//!   under its reviewed bench-only suppression;
//! * six variants of the 20-node scenario: McCLS-secured
//!   (`sim/mccls_n20`), secured under two black holes
//!   (`sim/mccls_blackhole_n20`), plain AODV under two drop-only and
//!   two forging black holes (`sim/blackhole_n20`,
//!   `sim/forging_blackhole_n20`), first-RREP-wins route selection
//!   (`sim/first_rrep_wins_n20`), and secured with real BLS12-381
//!   signatures (`sim/real_crypto_n20`). Secured runs charge no virtual
//!   crypto time (the scenario default); the rows time the simulator.
//!
//! The run asserts two contracts before any baseline gating: the
//! linear-scan ablation must cost at least [`GRID_SPEEDUP`]× the gated
//! `sim/run_n5000` row (if the grid ever stops paying for itself, the
//! row that proves it goes red), and both paths must produce
//! bit-identical metrics (per-node mobility streams make trajectories
//! independent of how neighbors are enumerated). Both modes run every
//! scenario over the same simulated length, so both contracts hold in
//! smoke mode too. Medians are then gated against the committed
//! `BENCH_sim.json` with the same >10x budget as the other harnesses.
//!
//! Usage: `cargo run -p mccls-bench --release --bin sim
//! [-- --smoke] [--update-baseline] [--baseline <path>]`.

// A panic in a benchmark binary is a loud, correct failure.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::process::ExitCode;

use mccls_aodv::config::{Behavior, ScenarioConfig};
use mccls_aodv::metrics::Metrics;
use mccls_aodv::network::Network;
use mccls_bench::baseline::{self, Entry, Mode};
use mccls_bench::sampler;
use mccls_sim::SimDuration;

/// Schema tag of `BENCH_sim.json`.
const SCHEMA: &str = "mccls-bench/sim/v1";

/// The 5,000-node grid run must beat the linear-scan ablation by at
/// least this factor, or the harness fails outright.
const GRID_SPEEDUP: f64 = 10.0;

/// Timed samples per row; a row is their median.
const SAMPLES: usize = 3;

/// Simulated seconds per run, in both modes.
const FULL_SIM_SECS: u64 = 10;

/// Builds the benchmark scenario: `n` nodes at the paper's density,
/// 10 m/s, a fixed seed, truncated to [`FULL_SIM_SECS`] simulated
/// seconds.
fn scenario(n: usize, linear_scan: bool) -> ScenarioConfig {
    let mut cfg = if n == 20 {
        ScenarioConfig::paper_baseline(10.0, 0xC17A_5CA1)
    } else {
        ScenarioConfig::scaled(n, 10.0, 0xC17A_5CA1)
    };
    cfg.duration = SimDuration::from_secs(FULL_SIM_SECS);
    cfg.linear_scan = linear_scan;
    cfg
}

/// The sampler's median wall-clock nanoseconds per simulated second
/// over `samples` runs, plus the (run-invariant) metrics.
fn measure(cfg: &ScenarioConfig, samples: usize) -> (f64, Metrics) {
    let sim_secs = cfg.duration.as_nanos() as f64 / 1e9;
    let mut metrics = Metrics::default();
    let ns = sampler::median_ns(samples, sim_secs, || {
        metrics = Network::new(cfg.clone()).run();
    });
    (ns, metrics)
}

fn main() -> ExitCode {
    let mode = Mode::from_args("BENCH_sim.json");
    println!("simulation harness ({} mode)\n", mode.label());

    // Full mode is what the committed baseline records. Every row runs
    // the full length in both modes: a short run front-loads route
    // discoveries and amortizes less set-up, so it costs several times
    // the committed row per simulated second, and one host swing would
    // fail the 10x gate. Every row is a median of three samples, so one
    // preempted sample on a loaded host cannot fail the gate; in smoke
    // mode the two rows that cost seconds per sample take one.
    let costly = if mode.smoke { 1 } else { SAMPLES };

    let mut current: Vec<Entry> = Vec::new();
    let mut row = |id: &str, cfg: ScenarioConfig, samples: usize| -> (f64, Metrics) {
        let (ns, metrics) = measure(&cfg, samples);
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

    let paper = || scenario(20, false);
    row("sim/run_n20", paper(), SAMPLES);
    row("sim/run_n500", scenario(500, false), SAMPLES);
    let (grid_ns, grid_metrics) = row("sim/run_n5000", scenario(5_000, false), SAMPLES);
    let (linear_ns, linear_metrics) = row("sim/linear_n5000", scenario(5_000, true), costly);
    row("sim/mccls_n20", paper().secured(), SAMPLES);
    row(
        "sim/mccls_blackhole_n20",
        paper().secured().with_attackers(Behavior::BlackHole, 2),
        SAMPLES,
    );
    row(
        "sim/blackhole_n20",
        paper().with_attackers(Behavior::BlackHole, 2),
        SAMPLES,
    );
    row(
        "sim/forging_blackhole_n20",
        paper().with_attackers(Behavior::ForgingBlackHole, 2),
        SAMPLES,
    );
    let mut first_wins = paper();
    first_wins.aodv.first_rrep_wins = true;
    row("sim/first_rrep_wins_n20", first_wins, SAMPLES);
    let mut real = paper().secured();
    real.real_crypto = true;
    row("sim/real_crypto_n20", real, costly);

    // Contract 1: the ablation must produce the exact same simulation,
    // only slower — neighbor enumeration order can never leak into
    // trajectories or routing outcomes.
    assert_eq!(
        grid_metrics, linear_metrics,
        "grid and linear-scan runs diverged: neighbor enumeration leaked into the simulation"
    );
    // Contract 2: the grid pays for itself at city scale.
    let speedup = linear_ns / grid_ns;
    println!("\ngrid speedup at n=5000: {speedup:.1}x (floor {GRID_SPEEDUP}x)");
    assert!(
        speedup >= GRID_SPEEDUP,
        "spatial grid no longer beats the linear scan {GRID_SPEEDUP}x at 5,000 nodes \
         ({speedup:.1}x measured)"
    );

    baseline::gate(SCHEMA, &mode, &current)
}
