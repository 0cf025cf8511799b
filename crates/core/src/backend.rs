//! The [`VerifierBackend`] trait: one verification surface over the
//! single-threaded [`Verifier`](crate::Verifier) and the sharded,
//! thread-safe [`ShardedVerifier`](crate::ShardedVerifier).
//!
//! Both handles cache the same per-peer state — the registered public
//! key and the pairing constant `e(Q_ID, P_pub)` — and certify the same
//! warm one-pairing budget; they differ only in how that cache is
//! guarded. Code that doesn't care (the AODV auth provider, the batch
//! engine, benches) is generic over this trait instead of hard-wiring
//! one handle.
//!
//! Method names are deliberately distinct from the inherent APIs they
//! front (`enroll_peer` vs `register_peer`, `authenticate` vs `verify`):
//! the xtask call graph resolves unqualified calls by bare name, so
//! reusing `verify`/`register_peer` here would alias the trait methods
//! onto the budgeted inherent functions and saturate their certified
//! op-count budgets to unbounded.

use mccls_pairing::Gt;
use mccls_rng::RngCore;

use crate::batch::{warm_batch_verify, BatchItem, BatchOutcome};
use crate::params::{SystemParams, UserPublicKey};
use crate::scheme::Signature;
use crate::verify::VerifyError;

/// A peer-caching McCLS verification handle.
///
/// Implemented by [`Verifier`](crate::Verifier) (single-threaded,
/// `&mut self` registration) and [`ShardedVerifier`](crate::ShardedVerifier)
/// (internally synchronized; the `&mut` receivers here are only what
/// the common surface demands — its inherent API registers through
/// `&self`).
///
/// # Examples
///
/// ```
/// use mccls_core::{CertificatelessScheme, McCls, ShardedVerifier, Verifier, VerifierBackend};
/// use mccls_rng::SeedableRng;
///
/// fn roundtrip<B: VerifierBackend>(backend: &mut B, scheme: &McCls, rng: &mut dyn mccls_rng::RngCore) {
///     let keys = scheme.generate_key_pair(backend.backend_params(), rng);
///     backend.enroll_peer(b"peer", keys.public).unwrap();
///     assert!(backend.peer_registered(b"peer"));
///     assert!(backend.warm_entry(b"peer").is_some());
///     assert!(backend.expel_peer(b"peer"), "peer was cached");
///     assert!(!backend.peer_registered(b"peer"));
/// }
///
/// let mut rng = mccls_rng::rngs::StdRng::seed_from_u64(2);
/// let scheme = McCls::new();
/// let (params, _kgc) = scheme.setup(&mut rng);
/// roundtrip(&mut Verifier::new(params.clone()), &scheme, &mut rng);
/// roundtrip(&mut ShardedVerifier::new(params), &scheme, &mut rng);
/// ```
pub trait VerifierBackend {
    /// The system parameters this backend trusts (with `P_pub`'s
    /// Miller-loop lines prepared).
    fn backend_params(&self) -> &SystemParams;

    /// Registers (or replaces) a peer's public key, paying the one-off
    /// pairing `e(Q_ID, P_pub)` that later verifications reuse.
    fn enroll_peer(&mut self, id: &[u8], public: UserPublicKey) -> Result<(), VerifyError>;

    /// Drops a peer's cached state; returns whether it was present.
    /// Later verifications for the identity re-pay the registration
    /// pairing — the hook for revocation and targeted cache invalidation
    /// (clock eviction handles capacity pressure on its own).
    fn expel_peer(&mut self, id: &[u8]) -> bool;

    /// Whether a public key is currently cached for `id`.
    fn peer_registered(&self, id: &[u8]) -> bool;

    /// Verifies a McCLS signature from a registered peer — the warm
    /// one-pairing hot path.
    fn authenticate(&self, id: &[u8], msg: &[u8], sig: &Signature) -> Result<(), VerifyError>;

    /// Verifies against an explicitly supplied public key, registering
    /// it (or replacing a stale entry) as a side effect — the entry
    /// point for protocols that carry the key in-band.
    fn authenticate_with_key(
        &mut self,
        id: &[u8],
        public: &UserPublicKey,
        msg: &[u8],
        sig: &Signature,
    ) -> Result<(), VerifyError>;

    /// Copies out a peer's cached `(public key, e(Q_ID, P_pub))` pair,
    /// marking it recently used. This is what lets the batch engine
    /// reuse warm per-peer state.
    // The entry was admitted by `enroll_peer`, which rejected identity
    // components and computed the `Gt` itself.
    fn warm_entry(&self, id: &[u8]) -> Option<(UserPublicKey, Gt)>;

    /// Batch-verifies signatures with per-index fault isolation,
    /// reusing warm per-peer `Gt` entries: a cached peer whose presented
    /// key matches costs one `Gt` exponentiation instead of an identity
    /// hash plus a fold term, and the whole batch settles in one shared
    /// final exponentiation (plus `O(b·log n)` bisection checks when `b`
    /// entries are bad).
    fn authenticate_batch(&self, items: &[BatchItem<'_>], rng: &mut dyn RngCore) -> BatchOutcome {
        warm_batch_verify(
            self.backend_params(),
            items,
            rng,
            &|id| self.warm_entry(id),
            None,
        )
    }
}
