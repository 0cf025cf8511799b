//! Reproduces **Figure 5**: packet drop ratio (packets absorbed by the
//! attackers over packets sent) vs. node speed under 2-node black hole
//! and 2-node rushing attacks, for AODV and McCLS.

use mccls_aodv::experiment::render_table;
use mccls_aodv::Metrics;
use mccls_bench::{attack_series, committed_cost, FigureOpts};

fn main() -> Result<(), String> {
    let opts = FigureOpts::from_args();
    let series = attack_series(opts, committed_cost()?);
    print!(
        "{}",
        render_table(
            "Fig. 5 — Packet Drop Ratio under attack",
            "packets discarded by attackers / packets sent by sources",
            &series,
            Metrics::packet_drop_ratio,
        )
    );
    Ok(())
}
