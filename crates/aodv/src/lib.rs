//! AODV routing with the McCLS routing-authentication extension, the
//! paper's two attack models, and its experiment harness — everything
//! Section 6 of the paper needs, on top of the `mccls-sim` substrate.
//!
//! Layers:
//!
//! * [`types`] / [`packet`] — node ids, sequence numbers, RFC 3561
//!   packet shapes with an optional per-hop signature extension;
//! * [`routing_table`] — AODV route state machine;
//! * [`auth`] — who can sign routing packets: the *real* McCLS provider
//!   (actual BLS12-381 signatures) or the behaviour-equivalent fast
//!   model used for the big figure sweeps;
//! * [`network`] — the event-driven protocol engine with honest,
//!   black hole, and rushing node behaviours;
//! * [`experiment`] — speed sweeps reproducing Figures 1–5.
//!
//! # Examples
//!
//! Run the paper's baseline scenario at 10 m/s:
//!
//! ```
//! use mccls_aodv::{Network, ScenarioConfig};
//! use mccls_sim::SimDuration;
//!
//! let mut cfg = ScenarioConfig::paper_baseline(10.0, 42);
//! cfg.duration = SimDuration::from_secs(30); // short demo run
//! let metrics = Network::new(cfg).run();
//! assert!(metrics.data_sent > 0);
//! println!("PDR = {:.2}", metrics.packet_delivery_ratio());
//! ```

#![warn(missing_docs)]

pub mod auth;
pub mod config;
pub mod experiment;
pub mod metrics;
pub mod network;
pub mod packet;
pub mod plot;
pub mod routing_table;
pub mod types;

pub use auth::{Auth, AuthProof, AuthProvider, CryptoCost, ModelAuthProvider, RealAuthProvider};
pub use config::{AodvConfig, Behavior, Flow, Protocol, ScenarioConfig};
pub use experiment::{sweep, AttackKind, SweepPoint, SweepSeries, PAPER_SPEEDS};
pub use metrics::Metrics;
pub use network::{NetEvent, Network};
pub use packet::{DataPacket, Packet, Rerr, Rrep, Rreq};
pub use routing_table::{Route, RoutingTable};
pub use types::{NodeId, SeqNo};
