//! Reproduces **Figure 3**: average end-to-end delay vs. node speed for
//! plain AODV and McCLS-secured AODV, no attackers. The McCLS series
//! carries the virtual-time cost of signing and verifying each routing
//! control packet: the committed `table1/McCLS/sign` and
//! `table1/McCLS/verify_cached` medians in `BENCH_table1.json`.

use mccls_aodv::experiment::render_table;
use mccls_aodv::Metrics;
use mccls_bench::{baseline_series, committed_cost, FigureOpts};

fn main() -> Result<(), String> {
    let opts = FigureOpts::from_args();
    let series = baseline_series(opts, committed_cost()?);
    print!(
        "{}",
        render_table(
            "Fig. 3 — End-to-End Delay (no attack)",
            "mean end-to-end delay of delivered packets (s)",
            &series,
            Metrics::avg_end_to_end_delay,
        )
    );
    Ok(())
}
