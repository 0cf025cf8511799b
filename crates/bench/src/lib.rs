//! Shared plumbing for the bench and figure binaries.
//!
//! * [`sampler`] is the one timing loop behind every committed
//!   `BENCH_*.json` row, and [`baseline`] the one gate those rows pass:
//!   `table1`, `pairing_precompute`, `batch`, `sim` and `throughput` all
//!   run `--smoke`, `--update-baseline` and `--baseline <path>` through
//!   them.
//! * The figure binaries (`fig1`–`fig5`, `all_figures`, `ablations`)
//!   share CLI parsing ([`FigureOpts`]), the standard sweeps, and the
//!   per-hop crypto cost they charge ([`committed_cost`]): the McCLS
//!   sign and warm-verify medians `table1` committed to
//!   `BENCH_table1.json`.
//!
//! Run a figure with `cargo run --release -p mccls-bench --bin fig1`
//! (add `-- --trials 5 --seed 7` to override defaults).

#![warn(missing_docs)]

pub mod baseline;
pub mod sampler;

use mccls_aodv::experiment::{sweep, AttackKind, SweepSeries, PAPER_SPEEDS};
use mccls_aodv::{CryptoCost, Protocol};
use mccls_sim::SimDuration;

/// Schema tag of `BENCH_table1.json`.
pub const TABLE1_SCHEMA: &str = "mccls-bench/table1/v1";

/// The committed `table1` row whose median the figures charge per
/// signed routing packet.
const SIGN_ROW: &str = "table1/McCLS/sign";

/// The committed `table1` row whose median the figures charge per
/// verified routing packet (a warm verify: the peer's
/// `e(Q_ID, P_pub)` is cached).
const VERIFY_ROW: &str = "table1/McCLS/verify_cached";

/// The per-hop crypto cost the figures charge, read from the committed
/// `BENCH_table1.json`; an `Err` names the missing file, schema tag or
/// row.
pub fn committed_cost() -> Result<CryptoCost, String> {
    let path = baseline::committed_path("BENCH_table1.json");
    let doc = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    cost_from(&doc).map_err(|e| format!("{}: {e}", path.display()))
}

/// [`committed_cost`] over the document `doc`.
fn cost_from(doc: &str) -> Result<CryptoCost, String> {
    let rows = baseline::entries(TABLE1_SCHEMA, doc)?;
    let median = |id: &str| {
        rows.iter()
            .find(|e| e.id == id)
            .map(|e| SimDuration::from_nanos(e.median_ns.round() as u64))
            .ok_or_else(|| format!("no `{id}` row"))
    };
    Ok(CryptoCost {
        sign: median(SIGN_ROW)?,
        verify: median(VERIFY_ROW)?,
    })
}

/// Options common to all figure binaries.
#[derive(Debug, Clone, Copy)]
pub struct FigureOpts {
    /// Independent trials pooled per (speed, configuration) point.
    pub trials: u64,
    /// Base RNG seed.
    pub seed: u64,
}

impl Default for FigureOpts {
    fn default() -> Self {
        Self {
            trials: 3,
            seed: 2008,
        }
    }
}

impl FigureOpts {
    /// Parses `--trials N` and `--seed N` from the process arguments,
    /// ignoring anything it does not recognize.
    pub fn from_args() -> Self {
        let mut opts = Self::default();
        let args: Vec<String> = std::env::args().collect();
        let mut i = 1;
        while i < args.len() {
            match args[i].as_str() {
                "--trials" => {
                    if let Some(v) = args.get(i + 1).and_then(|s| s.parse().ok()) {
                        opts.trials = v;
                        i += 1;
                    }
                }
                "--seed" => {
                    if let Some(v) = args.get(i + 1).and_then(|s| s.parse().ok()) {
                        opts.seed = v;
                        i += 1;
                    }
                }
                _ => {}
            }
            i += 1;
        }
        opts
    }
}

/// Runs the two no-attack series (AODV, McCLS) used by Figures 1–3,
/// charging the McCLS series `cost` per signed and verified packet.
pub fn baseline_series(opts: FigureOpts, cost: CryptoCost) -> Vec<SweepSeries> {
    [Protocol::Aodv, Protocol::McClsSecured]
        .into_iter()
        .map(|protocol| series(opts, cost, protocol, AttackKind::None))
        .collect()
}

/// Runs the four attacked series (AODV/McCLS × black hole/rushing) used
/// by Figures 4 and 5.
pub fn attack_series(opts: FigureOpts, cost: CryptoCost) -> Vec<SweepSeries> {
    [
        (Protocol::Aodv, AttackKind::BlackHole2),
        (Protocol::Aodv, AttackKind::Rushing2),
        (Protocol::McClsSecured, AttackKind::BlackHole2),
        (Protocol::McClsSecured, AttackKind::Rushing2),
    ]
    .into_iter()
    .map(|(protocol, attack)| series(opts, cost, protocol, attack))
    .collect()
}

fn series(
    opts: FigureOpts,
    cost: CryptoCost,
    protocol: Protocol,
    attack: AttackKind,
) -> SweepSeries {
    sweep(
        protocol,
        attack,
        cost,
        &PAPER_SPEEDS,
        opts.trials,
        opts.seed,
    )
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // tests may panic freely
mod tests {
    use super::*;

    #[test]
    fn default_opts() {
        let o = FigureOpts::default();
        assert_eq!(o.trials, 3);
        assert_eq!(o.seed, 2008);
    }

    #[test]
    fn the_committed_table1_rows_build_the_figure_cost() {
        let cost = committed_cost().expect("BENCH_table1.json carries both McCLS rows");
        assert!(cost.sign > SimDuration::ZERO);
        assert!(
            cost.verify > cost.sign,
            "verification (1 pairing) must dominate signing: {cost:?}"
        );
    }

    #[test]
    fn a_missing_row_or_foreign_tag_is_named() {
        let doc = |schema: &str, rows: &[&str]| {
            let entries: Vec<baseline::Entry> = rows
                .iter()
                .map(|id| baseline::Entry {
                    id: (*id).to_owned(),
                    median_ns: 1e6,
                })
                .collect();
            baseline::render(schema, "full", &entries)
        };
        assert!(cost_from(&doc(TABLE1_SCHEMA, &[SIGN_ROW, VERIFY_ROW])).is_ok());
        let err = cost_from(&doc(TABLE1_SCHEMA, &[SIGN_ROW])).unwrap_err();
        assert!(err.contains(VERIFY_ROW), "{err}");
        let err = cost_from(&doc(TABLE1_SCHEMA, &[VERIFY_ROW])).unwrap_err();
        assert!(err.contains(SIGN_ROW), "{err}");
        let err = cost_from(&doc("mccls-bench/sim/v1", &[SIGN_ROW, VERIFY_ROW])).unwrap_err();
        assert!(err.contains("mccls-bench/sim/v1"), "{err}");
    }
}
