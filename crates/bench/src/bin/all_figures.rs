//! Regenerates every figure of the paper in one pass (the sweeps are
//! shared, so this is ~3x cheaper than running fig1..fig5 separately).
//!
//! Pass `--svg <dir>` to additionally write `fig1.svg` … `fig5.svg`
//! line charts into `<dir>`.

use mccls_aodv::experiment::{render_table, SweepSeries};
use mccls_aodv::{plot, Metrics};
use mccls_bench::{attack_series, baseline_series, committed_cost, FigureOpts};

fn svg_dir() -> Option<std::path::PathBuf> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == "--svg")
        .and_then(|i| args.get(i + 1))
        .map(std::path::PathBuf::from)
}

fn write_svg(
    dir: &std::path::Path,
    name: &str,
    title: &str,
    metric_name: &str,
    series: &[SweepSeries],
    metric: impl Fn(&Metrics) -> f64,
) {
    let svg = plot::render_svg(title, metric_name, series, metric);
    let path = dir.join(name);
    match std::fs::write(&path, svg) {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("failed to write {}: {e}", path.display()),
    }
}

fn main() -> Result<(), String> {
    let opts = FigureOpts::from_args();
    let cost = committed_cost()?;
    eprintln!(
        "McCLS series charge {:.3} ms per sign and {:.3} ms per verify (BENCH_table1.json)",
        cost.sign.as_secs_f64() * 1e3,
        cost.verify.as_secs_f64() * 1e3
    );
    eprintln!(
        "running baseline sweeps (2 series x 5 speeds x {} trials)...",
        opts.trials
    );
    let baseline = baseline_series(opts, cost);
    eprintln!(
        "running attack sweeps (4 series x 5 speeds x {} trials)...",
        opts.trials
    );
    let attacks = attack_series(opts, cost);

    println!(
        "{}",
        render_table(
            "Fig. 1 — Packet Delivery Ratio (no attack)",
            "packet delivery ratio",
            &baseline,
            Metrics::packet_delivery_ratio,
        )
    );
    println!(
        "{}",
        render_table(
            "Fig. 2 — RREQ Ratio (no attack)",
            "(RREQ initiated + forwarded + retried) / (data sent + forwarded)",
            &baseline,
            Metrics::rreq_ratio,
        )
    );
    println!(
        "{}",
        render_table(
            "Fig. 3 — End-to-End Delay (no attack)",
            "mean end-to-end delay of delivered packets (s)",
            &baseline,
            Metrics::avg_end_to_end_delay,
        )
    );
    println!(
        "{}",
        render_table(
            "Fig. 4 — Packet Delivery Ratio under attack",
            "packet delivery ratio",
            &attacks,
            Metrics::packet_delivery_ratio,
        )
    );
    println!(
        "{}",
        render_table(
            "Fig. 5 — Packet Drop Ratio under attack",
            "packets discarded by attackers / packets sent by sources",
            &attacks,
            Metrics::packet_drop_ratio,
        )
    );

    if let Some(dir) = svg_dir() {
        if let Err(e) = std::fs::create_dir_all(&dir) {
            eprintln!("cannot create {}: {e}", dir.display());
            return Ok(());
        }
        write_svg(
            &dir,
            "fig1.svg",
            "Fig. 1 — Packet Delivery Ratio",
            "packet delivery ratio",
            &baseline,
            Metrics::packet_delivery_ratio,
        );
        write_svg(
            &dir,
            "fig2.svg",
            "Fig. 2 — RREQ Ratio",
            "RREQ ratio",
            &baseline,
            Metrics::rreq_ratio,
        );
        write_svg(
            &dir,
            "fig3.svg",
            "Fig. 3 — End-to-End Delay",
            "delay (s)",
            &baseline,
            Metrics::avg_end_to_end_delay,
        );
        write_svg(
            &dir,
            "fig4.svg",
            "Fig. 4 — PDR under attack",
            "packet delivery ratio",
            &attacks,
            Metrics::packet_delivery_ratio,
        );
        write_svg(
            &dir,
            "fig5.svg",
            "Fig. 5 — Packet Drop Ratio under attack",
            "packet drop ratio",
            &attacks,
            Metrics::packet_drop_ratio,
        );
    }
    Ok(())
}
