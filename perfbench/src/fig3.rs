//! Fig. 3 driven by measured crypto cost: mean end-to-end delay of
//! McCLS-secured AODV with no attack, pooled over the paper's five
//! speeds and fixed seeds, with the per-hop `CryptoCost` taken from the
//! run's own sign and warm-verify medians.

use mccls_aodv::config::Protocol;
use mccls_aodv::experiment::{run_seed, scenario, AttackKind, PAPER_SPEEDS};
use mccls_aodv::{CryptoCost, Metrics, Network};
use mccls_sim::SimDuration;

/// Rounding step for the charged costs, ms: coarse enough that
/// run-to-run noise in the medians leaves the simulated delay unchanged.
pub const STEP_MS: f64 = 0.5;
/// Fixed base seed of the pooled runs (independent of `--seed`, so the
/// delay moves only when the rounded costs do).
const SEED: u64 = 2008;
/// Runs pooled per speed.
const TRIALS: u64 = 2;

/// Rounds a measured cost to the nearest [`STEP_MS`], never below one
/// step.
pub fn round_cost_ms(ms: f64) -> f64 {
    ((ms / STEP_MS).round() * STEP_MS).max(STEP_MS)
}

/// The Fig. 3 point: `(sign cost, verify cost, mean delay)`, all ms.
pub fn delay(sign_ms: f64, verify_ms: f64) -> (f64, f64, f64) {
    let (sign, verify) = (round_cost_ms(sign_ms), round_cost_ms(verify_ms));
    let cost = CryptoCost {
        sign: SimDuration::from_micros((sign * 1e3).round() as u64),
        verify: SimDuration::from_micros((verify * 1e3).round() as u64),
    };
    let mut pooled = Metrics::default();
    for speed in PAPER_SPEEDS {
        for trial in 0..TRIALS {
            let seed = run_seed(SEED, speed, trial);
            let mut cfg = scenario(Protocol::McClsSecured, AttackKind::None, speed, seed, None);
            cfg.crypto_cost = cost;
            pooled.merge(&Network::new(cfg).run());
        }
    }
    (sign, verify, pooled.avg_end_to_end_delay() * 1e3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn costs_round_to_the_step_and_never_to_zero() {
        assert_eq!(round_cost_ms(4.44), 4.5);
        assert_eq!(round_cost_ms(4.2), 4.0);
        assert_eq!(round_cost_ms(4.25), 4.5);
        assert_eq!(round_cost_ms(1.21), 1.0);
        assert_eq!(round_cost_ms(0.1), STEP_MS);
        // Noise inside one step leaves the charged cost unchanged.
        assert_eq!(round_cost_ms(4.3), round_cost_ms(4.6));
    }
}
