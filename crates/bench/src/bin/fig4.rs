//! Reproduces **Figure 4**: packet delivery ratio vs. node speed under
//! 2-node black hole and 2-node rushing attacks, for AODV and McCLS.

use mccls_aodv::experiment::render_table;
use mccls_aodv::Metrics;
use mccls_bench::{attack_series, committed_cost, FigureOpts};

fn main() -> Result<(), String> {
    let opts = FigureOpts::from_args();
    let series = attack_series(opts, committed_cost()?);
    print!(
        "{}",
        render_table(
            "Fig. 4 — Packet Delivery Ratio under attack",
            "packet delivery ratio",
            &series,
            Metrics::packet_delivery_ratio,
        )
    );
    Ok(())
}
