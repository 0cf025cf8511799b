//! Random-waypoint mobility (the model the paper's QualNet scenario
//! uses: nodes in a rectangle repeatedly pick a uniform destination and
//! speed, travel there in a straight line, pause, repeat).
//!
//! Each node owns a private RNG stream (seeded once at construction),
//! so a trajectory is a pure function of the construction draws and of
//! time: *when* and *how often* a node is sampled cannot perturb it,
//! and it cannot perturb any other node. That independence is what
//! lets the spatial grid sample only candidate neighbors per event
//! while staying bit-identical to a full linear scan.

use mccls_rng::{Rng, SeedableRng};

use crate::time::{SimDuration, SimTime};

/// A position in the simulation plane, metres.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Position {
    /// X coordinate (m).
    pub x: f64,
    /// Y coordinate (m).
    pub y: f64,
}

impl Position {
    /// Euclidean distance to `other`, metres.
    pub fn distance(&self, other: &Position) -> f64 {
        ((self.x - other.x).powi(2) + (self.y - other.y).powi(2)).sqrt()
    }
}

/// The rectangular simulation area (the paper uses 1500 m × 300 m).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Area {
    /// Width, metres.
    pub width: f64,
    /// Height, metres.
    pub height: f64,
}

impl Area {
    /// Builds an area, validating the dimensions.
    ///
    /// # Panics
    ///
    /// Panics on non-positive or non-finite dimensions.
    pub fn new(width: f64, height: f64) -> Self {
        assert!(width > 0.0 && width.is_finite(), "invalid width");
        assert!(height > 0.0 && height.is_finite(), "invalid height");
        Self { width, height }
    }

    /// Uniformly random point inside the area.
    pub fn random_point(&self, rng: &mut impl Rng) -> Position {
        Position {
            x: rng.gen_range(0.0..self.width),
            y: rng.gen_range(0.0..self.height),
        }
    }

    /// True when `p` lies inside (inclusive of the border).
    pub fn contains(&self, p: &Position) -> bool {
        (0.0..=self.width).contains(&p.x) && (0.0..=self.height).contains(&p.y)
    }
}

/// Random-waypoint parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WaypointConfig {
    /// Maximum node speed (m/s). The paper sweeps this from 0 to 20.
    pub max_speed: f64,
    /// Minimum node speed (m/s). Kept strictly positive (unless
    /// `max_speed` is 0) to avoid the classic RWP speed-decay
    /// pathology of near-zero legs that never finish.
    pub min_speed: f64,
    /// Pause at each waypoint (0 s in the paper).
    pub pause: SimDuration,
}

impl WaypointConfig {
    /// The paper's configuration for a given maximum speed: pause 0,
    /// minimum speed 10% of the maximum (floored at 0.1 m/s).
    pub fn paper(max_speed: f64) -> Self {
        assert!(max_speed >= 0.0 && max_speed.is_finite(), "invalid speed");
        let min_speed = if max_speed == 0.0 {
            0.0
        } else {
            (0.1 * max_speed).max(0.1)
        };
        Self {
            max_speed,
            min_speed,
            pause: SimDuration::ZERO,
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum Leg {
    /// Standing still (pausing, or `max_speed == 0`) since/at `at`.
    Idle {
        at: Position,
        until: Option<SimTime>,
    },
    /// Moving from `from` (at `start`) towards `to` at `speed` m/s.
    Moving {
        from: Position,
        to: Position,
        start: SimTime,
        speed: f64,
    },
}

/// The mobility state of one node.
///
/// Positions are evaluated analytically along the current leg, so the
/// model is exact regardless of how often it is sampled.
///
/// # Examples
///
/// ```
/// use mccls_sim::{Area, RandomWaypoint, SimTime, WaypointConfig};
/// use mccls_rng::SeedableRng;
///
/// let mut rng = mccls_rng::rngs::StdRng::seed_from_u64(1);
/// let area = Area::new(1500.0, 300.0);
/// let mut node = RandomWaypoint::new(area, WaypointConfig::paper(10.0), &mut rng);
/// let p = node.position_at(SimTime::from_secs(30));
/// assert!(area.contains(&p));
/// ```
#[derive(Debug, Clone)]
pub struct RandomWaypoint {
    area: Area,
    config: WaypointConfig,
    leg: Leg,
    /// Time up to which the state has been advanced.
    horizon: SimTime,
    /// Private waypoint stream: two nodes never share draws, so one
    /// node's sampling pattern cannot shift another's trajectory.
    rng: mccls_rng::rngs::StdRng,
}

impl RandomWaypoint {
    /// Places a node uniformly in `area` and starts its first leg at
    /// `t = 0`.
    ///
    /// `rng` is only used for the initial placement and to derive the
    /// node's private waypoint stream; the returned node never touches
    /// it again.
    pub fn new(area: Area, config: WaypointConfig, rng: &mut impl Rng) -> Self {
        let start = area.random_point(rng);
        let stream = mccls_rng::rngs::StdRng::seed_from_u64(rng.next_u64());
        let mut node = Self {
            area,
            config,
            leg: Leg::Idle {
                at: start,
                until: Some(SimTime::ZERO),
            },
            horizon: SimTime::ZERO,
            rng: stream,
        };
        node.advance_to(SimTime::ZERO);
        node
    }

    /// The node's position at time `t`, advancing internal state.
    ///
    /// # Panics
    ///
    /// Panics if `t` precedes an earlier query (time must be sampled
    /// monotonically, which the event loop guarantees).
    pub fn position_at(&mut self, t: SimTime) -> Position {
        assert!(t >= self.horizon, "mobility sampled backwards in time");
        self.advance_to(t);
        match self.leg {
            Leg::Idle { at, .. } => at,
            Leg::Moving {
                from,
                to,
                start,
                speed,
            } => {
                let elapsed = (t - start).as_secs_f64();
                let total = from.distance(&to);
                let travelled = (speed * elapsed).min(total);
                let frac = if total == 0.0 { 1.0 } else { travelled / total };
                Position {
                    x: from.x + (to.x - from.x) * frac,
                    y: from.y + (to.y - from.y) * frac,
                }
            }
        }
    }

    fn advance_to(&mut self, t: SimTime) {
        self.horizon = t;
        // complexity-ok: amortized O(1) — each iteration retires one travel leg, and legs are only ever created one per waypoint drawn
        loop {
            match self.leg {
                Leg::Idle { until: None, .. } => return, // parked forever
                Leg::Idle {
                    at,
                    until: Some(until),
                } => {
                    if until > t {
                        return;
                    }
                    if self.config.max_speed <= 0.0 {
                        self.leg = Leg::Idle { at, until: None };
                        return;
                    }
                    let to = self.area.random_point(&mut self.rng);
                    let speed = if self.config.min_speed >= self.config.max_speed {
                        self.config.max_speed
                    } else {
                        self.rng
                            .gen_range(self.config.min_speed..self.config.max_speed)
                    };
                    self.leg = Leg::Moving {
                        from: at,
                        to,
                        start: until,
                        speed,
                    };
                }
                Leg::Moving {
                    from,
                    to,
                    start,
                    speed,
                } => {
                    let total = from.distance(&to);
                    let arrival = start
                        + SimDuration::from_secs_f64(if speed > 0.0 { total / speed } else { 0.0 });
                    if arrival > t {
                        return;
                    }
                    self.leg = Leg::Idle {
                        at: to,
                        until: Some(arrival + self.config.pause),
                    };
                }
            }
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // tests may panic freely
mod tests {
    use super::*;
    use mccls_rng::SeedableRng;

    fn rng(seed: u64) -> mccls_rng::rngs::StdRng {
        mccls_rng::rngs::StdRng::seed_from_u64(seed)
    }

    #[test]
    fn stays_inside_area() {
        let area = Area::new(1500.0, 300.0);
        let mut r = rng(1);
        let mut node = RandomWaypoint::new(area, WaypointConfig::paper(20.0), &mut r);
        for s in 0..600 {
            let p = node.position_at(SimTime::from_secs(s));
            assert!(area.contains(&p), "escaped at t={s}: {p:?}");
        }
    }

    #[test]
    fn zero_speed_nodes_never_move() {
        let area = Area::new(100.0, 100.0);
        let mut r = rng(2);
        let mut node = RandomWaypoint::new(area, WaypointConfig::paper(0.0), &mut r);
        let p0 = node.position_at(SimTime::ZERO);
        for s in 1..100 {
            assert_eq!(node.position_at(SimTime::from_secs(s)), p0);
        }
    }

    /// When the current leg began or its pause ends: it changes each
    /// time a travel leg ends.
    fn leg_start(node: &RandomWaypoint) -> Option<SimTime> {
        match node.leg {
            Leg::Moving { start, .. } => Some(start),
            Leg::Idle { until, .. } => until,
        }
    }

    #[test]
    fn respects_speed_limit() {
        // The grid query skips a node unsampled when its last sample
        // lies farther than range + max_speed·Δt: this is the bound it
        // rests on. Gaps run from 0.1 ms to 30 s, log-uniform, so legs
        // and pauses end between samples; the last config moves at
        // exactly its maximum, where only rounding separates the
        // displacement from the bound.
        let configs = [
            WaypointConfig::paper(0.5),
            WaypointConfig::paper(5.0),
            WaypointConfig::paper(20.0),
            WaypointConfig {
                pause: SimDuration::from_secs(2),
                ..WaypointConfig::paper(20.0)
            },
            WaypointConfig {
                max_speed: 7.0,
                min_speed: 7.0,
                pause: SimDuration::from_millis(300),
            },
        ];
        let mut gaps = rng(3);
        let (short, long) = (1e-4_f64.ln(), 30.0_f64.ln());
        let mut leg_ends = 0;
        for (i, config) in configs.into_iter().enumerate() {
            for area in [Area::new(1500.0, 300.0), Area::new(60.0, 40.0)] {
                let mut node = RandomWaypoint::new(area, config, &mut rng(30 + i as u64));
                let mut t = SimTime::ZERO;
                let mut last = node.position_at(t);
                let mut leg = leg_start(&node);
                for _ in 0..2_000 {
                    let dt = SimDuration::from_secs_f64(gaps.gen_range(short..long).exp());
                    t += dt;
                    let p = node.position_at(t);
                    let moved = p.distance(&last);
                    let bound = config.max_speed * dt.as_secs_f64() + 1e-6;
                    assert!(
                        moved <= bound,
                        "moved {moved} m in {dt:?} (max {} m/s)",
                        config.max_speed
                    );
                    leg_ends += usize::from(leg_start(&node) != leg);
                    leg = leg_start(&node);
                    last = p;
                }
            }
        }
        assert!(
            leg_ends > 1_000,
            "only {leg_ends} samples crossed a leg end"
        );
    }

    #[test]
    fn moving_nodes_do_move() {
        let area = Area::new(1500.0, 300.0);
        let mut r = rng(4);
        let mut node = RandomWaypoint::new(area, WaypointConfig::paper(10.0), &mut r);
        let p0 = node.position_at(SimTime::ZERO);
        let p1 = node.position_at(SimTime::from_secs(60));
        assert!(p0.distance(&p1) > 1.0, "node stayed put for a minute");
    }

    #[test]
    fn pause_holds_position_at_waypoints() {
        let area = Area::new(10.0, 10.0);
        let mut r = rng(5);
        let config = WaypointConfig {
            max_speed: 5.0,
            min_speed: 5.0,
            pause: SimDuration::from_secs(1_000_000),
        };
        let mut node = RandomWaypoint::new(area, config, &mut r);
        // After at most ~3 s the node reaches its first waypoint
        // (diagonal of a 10x10 box at 5 m/s), then pauses ~forever.
        let p_a = node.position_at(SimTime::from_secs(10));
        let p_b = node.position_at(SimTime::from_secs(500));
        assert_eq!(p_a, p_b);
    }

    #[test]
    #[should_panic(expected = "sampled backwards")]
    fn rejects_backwards_sampling() {
        let area = Area::new(10.0, 10.0);
        let mut r = rng(6);
        let mut node = RandomWaypoint::new(area, WaypointConfig::paper(1.0), &mut r);
        node.position_at(SimTime::from_secs(10));
        node.position_at(SimTime::from_secs(5));
    }

    #[test]
    fn distance_is_symmetric() {
        let a = Position { x: 1.0, y: 2.0 };
        let b = Position { x: 4.0, y: 6.0 };
        assert_eq!(a.distance(&b), 5.0);
        assert_eq!(b.distance(&a), 5.0);
    }
}
