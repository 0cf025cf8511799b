//! The wireless channel model: unit-disk connectivity, serialization
//! delay from bandwidth, CSMA-style per-receiver jitter, and optional
//! uniform frame loss.
//!
//! This deliberately simple PHY/MAC stands in for QualNet's 802.11
//! model; the figures the paper reports are driven by AODV's
//! route-discovery dynamics, which only need connectivity, delay, and
//! the first-copy-wins race that jitter creates (the lever the rushing
//! attack pulls).

use mccls_rng::Rng;

use crate::mobility::Position;
use crate::time::SimDuration;

/// Radio and MAC parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RadioConfig {
    /// Reception range (m). The 250 m default is ns-2's classic 802.11
    /// figure, and only this module's unit tests read it: every
    /// simulation sets the range from `mccls_aodv`'s
    /// `ScenarioConfig::radio_range`, 370 m (QualNet's default 802.11b
    /// range) in the paper's scenario.
    pub range: f64,
    /// Link bandwidth in bits per second (2 Mb/s in the usual setups).
    pub bandwidth_bps: f64,
    /// Upper bound of the uniform per-receiver MAC/forwarding jitter.
    /// AODV mandates jittering broadcasts to avoid synchronized
    /// collisions; the rushing attacker's whole trick is skipping it.
    pub max_jitter: SimDuration,
    /// Probability that an individual frame reception is lost
    /// (collisions/fading, folded into one knob).
    pub loss_rate: f64,
}

impl Default for RadioConfig {
    fn default() -> Self {
        Self {
            range: 250.0,
            bandwidth_bps: 2_000_000.0,
            max_jitter: SimDuration::from_millis(10),
            loss_rate: 0.0,
        }
    }
}

impl RadioConfig {
    /// True when `a` can hear `b`.
    pub fn in_range(&self, a: &Position, b: &Position) -> bool {
        a.distance(b) <= self.range
    }

    /// Serialization (transmission) delay of a frame of `bytes` bytes.
    pub fn tx_delay(&self, bytes: usize) -> SimDuration {
        SimDuration::from_secs_f64(bytes as f64 * 8.0 / self.bandwidth_bps)
    }

    /// Propagation delay over `dist` metres (speed of light).
    pub fn propagation_delay(&self, dist: f64) -> SimDuration {
        SimDuration::from_secs_f64(dist / 299_792_458.0)
    }

    /// A fresh per-receiver jitter sample.
    pub fn sample_jitter(&self, rng: &mut impl Rng) -> SimDuration {
        let max = self.max_jitter.as_nanos();
        if max == 0 {
            SimDuration::ZERO
        } else {
            SimDuration::from_nanos(rng.gen_range(0..max))
        }
    }

    /// Samples whether a frame reception is lost.
    pub fn frame_lost(&self, rng: &mut impl Rng) -> bool {
        self.loss_rate > 0.0 && rng.gen_bool(self.loss_rate.min(1.0))
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // tests may panic freely
mod tests {
    use super::*;
    use mccls_rng::SeedableRng;

    #[test]
    fn range_check() {
        let cfg = RadioConfig::default();
        let a = Position { x: 0.0, y: 0.0 };
        let near = Position { x: 249.0, y: 0.0 };
        let far = Position { x: 251.0, y: 0.0 };
        assert!(cfg.in_range(&a, &near));
        assert!(!cfg.in_range(&a, &far));
    }

    #[test]
    fn tx_delay_scales_with_size() {
        let cfg = RadioConfig::default();
        // 512 bytes at 2 Mb/s = 2.048 ms.
        let d = cfg.tx_delay(512);
        assert!((d.as_secs_f64() - 0.002048).abs() < 1e-9);
        assert_eq!(cfg.tx_delay(1024).as_nanos(), 2 * d.as_nanos());
    }

    #[test]
    fn jitter_is_bounded() {
        let cfg = RadioConfig::default();
        let mut rng = mccls_rng::rngs::StdRng::seed_from_u64(1);
        for _ in 0..100 {
            let j = cfg.sample_jitter(&mut rng);
            assert!(j < cfg.max_jitter);
        }
    }

    #[test]
    fn zero_jitter_config() {
        let cfg = RadioConfig {
            max_jitter: SimDuration::ZERO,
            ..Default::default()
        };
        let mut rng = mccls_rng::rngs::StdRng::seed_from_u64(2);
        assert_eq!(cfg.sample_jitter(&mut rng), SimDuration::ZERO);
    }

    #[test]
    fn loss_rate_zero_never_loses() {
        let cfg = RadioConfig::default();
        let mut rng = mccls_rng::rngs::StdRng::seed_from_u64(3);
        assert!((0..1000).all(|_| !cfg.frame_lost(&mut rng)));
    }

    #[test]
    fn loss_rate_one_always_loses() {
        let cfg = RadioConfig {
            loss_rate: 1.0,
            ..Default::default()
        };
        let mut rng = mccls_rng::rngs::StdRng::seed_from_u64(4);
        assert!((0..100).all(|_| cfg.frame_lost(&mut rng)));
    }

    #[test]
    fn propagation_delay_is_small() {
        let cfg = RadioConfig::default();
        assert!(cfg.propagation_delay(250.0) < SimDuration::from_micros(2));
    }
}
