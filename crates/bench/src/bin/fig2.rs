//! Reproduces **Figure 2**: RREQ ratio vs. node speed for plain AODV
//! and McCLS-secured AODV, no attackers.

use mccls_aodv::experiment::render_table;
use mccls_aodv::Metrics;
use mccls_bench::{baseline_series, committed_cost, FigureOpts};

fn main() -> Result<(), String> {
    let opts = FigureOpts::from_args();
    let series = baseline_series(opts, committed_cost()?);
    print!(
        "{}",
        render_table(
            "Fig. 2 — RREQ Ratio (no attack)",
            "(RREQ initiated + forwarded + retried) / (data sent + forwarded)",
            &series,
            Metrics::rreq_ratio,
        )
    );
    Ok(())
}
