//! Discrete-event MANET simulation substrate — the workspace's stand-in
//! for the proprietary QualNet simulator the paper evaluates with.
//!
//! Four orthogonal pieces:
//!
//! * [`Scheduler`] — a deterministic discrete-event queue over typed
//!   events ([`SimTime`]/[`SimDuration`] virtual time, FIFO tie-break),
//!   a binary min-heap of `(time, seq, slot)` keys;
//! * [`RandomWaypoint`] — the random-waypoint mobility model over a
//!   rectangular [`Area`], evaluated analytically on a private per-node
//!   RNG stream;
//! * [`RadioConfig`] — unit-disk connectivity with bandwidth-derived
//!   serialization delay, per-receiver MAC jitter, and optional frame
//!   loss;
//! * [`SpatialGrid`] — a uniform spatial hash (cell side = radio range)
//!   giving O(neighbors) range queries with incremental re-bucketing.
//!
//! The AODV routing protocol, its McCLS security extension, the attack
//! models, and the experiment harness live in the `mccls-aodv` crate on
//! top of these primitives.
//!
//! # Examples
//!
//! ```
//! use mccls_sim::{Scheduler, SimDuration, SimTime};
//!
//! #[derive(Debug)]
//! enum Event { Ping(u32) }
//!
//! let mut sched = Scheduler::new();
//! sched.schedule_at(SimTime::from_secs(1), Event::Ping(0));
//! let mut pings = 0;
//! while let Some((t, Event::Ping(n))) = sched.pop() {
//!     pings += 1;
//!     if n < 3 {
//!         sched.schedule_at(t + SimDuration::from_secs(2), Event::Ping(n + 1));
//!     }
//! }
//! assert_eq!(pings, 4);
//! assert_eq!(sched.now(), SimTime::from_secs(7));
//! ```

#![warn(missing_docs)]

mod grid;
mod mobility;
mod radio;
mod scheduler;
mod time;

pub use grid::SpatialGrid;
pub use mobility::{Area, Position, RandomWaypoint, WaypointConfig};
pub use radio::RadioConfig;
pub use scheduler::Scheduler;
pub use time::{SimDuration, SimTime};
