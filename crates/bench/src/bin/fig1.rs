//! Reproduces **Figure 1**: packet delivery ratio vs. node speed for
//! plain AODV and McCLS-secured AODV, no attackers.

use mccls_aodv::experiment::render_table;
use mccls_aodv::Metrics;
use mccls_bench::{baseline_series, committed_cost, FigureOpts};

fn main() -> Result<(), String> {
    let opts = FigureOpts::from_args();
    let series = baseline_series(opts, committed_cost()?);
    print!(
        "{}",
        render_table(
            "Fig. 1 — Packet Delivery Ratio (no attack)",
            "packet delivery ratio",
            &series,
            Metrics::packet_delivery_ratio,
        )
    );
    Ok(())
}
