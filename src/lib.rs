//! Umbrella crate for the McCLS reproduction workspace.
//!
//! Re-exports the public APIs of the member crates so examples and
//! downstream users can depend on a single crate:
//!
//! * [`hash`] — SHA-256 and XMD message expansion ([`mccls_hash`]),
//! * [`pairing`] — from-scratch BLS12-381 ([`mccls_pairing`]),
//! * [`cls`] — the McCLS scheme and the AP/ZWXF/YHG baselines
//!   ([`mccls_core`]),
//! * [`sim`] — the discrete-event MANET simulator ([`mccls_sim`]),
//! * [`aodv`] — AODV, the McCLS-secured extension, attacks, and the
//!   experiment harness ([`mccls_aodv`]).
//!
//! # Quickstart
//!
//! ```
//! use mccls::cls::{CertificatelessScheme, McCls};
//! use mccls_rng::SeedableRng;
//!
//! let mut rng = mccls_rng::rngs::StdRng::seed_from_u64(7);
//! let scheme = McCls::new();
//! let (params, kgc) = scheme.setup(&mut rng);
//! let partial = scheme.extract_partial_private_key(&kgc, b"node-1");
//! let keypair = scheme.generate_key_pair(&params, &mut rng);
//! let sig = scheme.sign(&params, b"node-1", &partial, &keypair, b"hello CPS", &mut rng);
//! assert!(scheme.verify(&params, b"node-1", &keypair.public, b"hello CPS", &sig).is_ok());
//! ```

pub use mccls_aodv as aodv;
pub use mccls_core as cls;
pub use mccls_hash as hash;
pub use mccls_pairing as pairing;
pub use mccls_sim as sim;
