//! Discrete-event MANET simulation substrate — the workspace's stand-in
//! for the proprietary QualNet simulator the paper evaluates with.
//!
//! Four orthogonal pieces:
//!
//! * [`Scheduler`] — a deterministic discrete-event calendar queue over
//!   typed events ([`SimTime`]/[`SimDuration`] virtual time, FIFO
//!   tie-break, O(1) amortized enqueue/dequeue);
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
//! sched.run_until(SimTime::from_secs(10), |_, Event::Ping(n), s| {
//!     pings += 1;
//!     if n < 3 {
//!         s.schedule_in(SimDuration::from_secs(2), Event::Ping(n + 1));
//!     }
//! });
//! assert_eq!(pings, 4);
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
