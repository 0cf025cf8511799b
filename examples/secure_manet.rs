//! A mobile ad hoc network protected by *real* McCLS signatures.
//!
//! Runs the paper's 20-node scenario twice — plain AODV and
//! McCLS-secured AODV — with `real_crypto = true`, so every routing
//! control packet genuinely carries and verifies a BLS12-381
//! certificateless signature (no modeling shortcut). The simulated clock
//! charges no crypto time (the scenario default); the figure binaries
//! charge the McCLS cost committed to `BENCH_table1.json`.
//!
//! Run with: `cargo run --release --example secure_manet`

use mccls::aodv::{Network, ScenarioConfig};
use mccls::sim::SimDuration;

fn main() {
    let speed = 10.0;
    println!(
        "20 nodes, 1500x300 m, random waypoint @ {speed} m/s, 10 CBR flows, 20 s, real BLS12-381 crypto"
    );

    let mut plain = ScenarioConfig::paper_baseline(speed, 99);
    plain.duration = SimDuration::from_secs(20);
    plain.real_crypto = true;
    let plain_metrics = Network::new(plain).run();
    println!("\nAODV:  {plain_metrics}");

    let mut secured = ScenarioConfig::paper_baseline(speed, 99).secured();
    secured.duration = SimDuration::from_secs(20);
    secured.real_crypto = true;
    let secured_metrics = Network::new(secured).run();
    println!("McCLS: {secured_metrics}");
    println!(
        "\nsecured run produced {} signatures and verified {} ({} rejected).",
        secured_metrics.signatures_made,
        secured_metrics.signatures_checked,
        secured_metrics.auth_rejected
    );
    assert!(secured_metrics.signatures_checked > 0);
    assert_eq!(
        secured_metrics.auth_rejected, 0,
        "honest network: nothing should be rejected"
    );
}
