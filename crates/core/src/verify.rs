//! The verifier-facing API: structured [`VerifyError`] rejections and
//! the stateful [`Verifier`] handle fronting the prepared-pairing
//! engine.
//!
//! The free functions on [`CertificatelessScheme`](crate::CertificatelessScheme)
//! are stateless: every call re-derives `e(Q_ID, P_pub)` and threads a
//! `(params, id, public)` tuple. A [`Verifier`] owns that state once —
//! the system parameters (with `P_pub`'s Miller-loop lines prepared),
//! the per-peer public keys, and the per-peer cached `Gt` constants —
//! so the hot path is exactly the one pairing the paper's Table 1
//! promises.

use mccls_pairing::Gt;
use mccls_rng::RngCore;

use crate::backend::VerifierBackend;
use crate::batch::{BatchItem, BatchOutcome};
use crate::params::{SystemParams, UserPublicKey};
use crate::registry::{prepare_peer_entry, settle_cached_verification, ClockMap};
use crate::scheme::Signature;

/// Default bound on the single-threaded verifier's peer cache. A
/// mobile node talks to a neighbourhood, not the whole network, so
/// 64&nbsp;Ki cached peers is generous; services that really track more
/// should use [`ShardedVerifier`](crate::ShardedVerifier) or raise the
/// bound with [`Verifier::with_peer_capacity`].
pub const DEFAULT_PEER_CAPACITY: usize = 65_536;

/// Why a signature was rejected.
///
/// Every verification entry point in this crate returns
/// `Result<(), VerifyError>`; the variants distinguish malformed input
/// (encoding, wrong scheme, degenerate points) from an honest-to-goodness
/// failed pairing equation, which is what intrusion-detection layers
/// care about when deciding whether a peer is faulty or hostile.
///
/// # Examples
///
/// ```
/// use mccls_core::{CertificatelessScheme, McCls, VerifyError};
/// use mccls_rng::SeedableRng;
///
/// let mut rng = mccls_rng::rngs::StdRng::seed_from_u64(1);
/// let scheme = McCls::new();
/// let (params, kgc) = scheme.setup(&mut rng);
/// let partial = scheme.extract_partial_private_key(&kgc, b"alice");
/// let keys = scheme.generate_key_pair(&params, &mut rng);
/// let sig = scheme.sign(&params, b"alice", &partial, &keys, b"msg", &mut rng);
///
/// // A tampered message is a pairing mismatch, not a parse error.
/// assert_eq!(
///     scheme.verify(&params, b"alice", &keys.public, b"other", &sig),
///     Err(VerifyError::PairingMismatch)
/// );
/// // `VerifyError` implements `std::error::Error` for `?`-friendly use.
/// let err: Box<dyn std::error::Error> = Box::new(VerifyError::PairingMismatch);
/// assert!(err.to_string().contains("pairing"));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum VerifyError {
    /// The signature bytes did not parse as any scheme's wire format.
    BadSignatureEncoding,
    /// The signature is from a different scheme than the verifier runs.
    WrongScheme,
    /// A signature or derived point was the group identity, which the
    /// pairing equation cannot accept (it would make `e(·,·) = 1`
    /// trivially and admit forgeries).
    IdentityPoint,
    /// The challenge scalar `h` hashed to zero, so `h⁻¹` is undefined.
    NonInvertibleChallenge,
    /// The public key is missing a component the scheme requires
    /// (AP's second, G1 component).
    MissingKeyComponent,
    /// The public key failed the scheme's well-formedness pairing check
    /// (AP's `e(X_A, P_pub) = e(G, Y_A)`).
    MalformedPublicKey,
    /// A public-key component is the group identity. Pairing against
    /// the identity is constant, so such a "key" (the cheapest
    /// key-replacement attempt) would trivialize the equation.
    IdentityPublicKey,
    /// The verifier has no registered public key for this identity.
    UnknownPeer,
    /// The pairing equation did not balance: the signature is not valid
    /// for this `(identity, public key, message)`.
    PairingMismatch,
}

impl core::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let msg = match self {
            VerifyError::BadSignatureEncoding => "signature bytes do not parse",
            VerifyError::WrongScheme => "signature belongs to a different scheme",
            VerifyError::IdentityPoint => "degenerate identity point in the equation",
            VerifyError::NonInvertibleChallenge => "challenge scalar hashed to zero",
            VerifyError::MissingKeyComponent => "public key lacks a required component",
            VerifyError::MalformedPublicKey => "public key failed its well-formedness check",
            VerifyError::IdentityPublicKey => "public key contains the group identity",
            VerifyError::UnknownPeer => "no public key registered for this identity",
            VerifyError::PairingMismatch => "pairing equation did not balance",
        };
        f.write_str(msg)
    }
}

impl std::error::Error for VerifyError {}

/// A verifying node's long-lived McCLS verification state.
///
/// Owns the [`SystemParams`] (whose `P_pub` line coefficients are
/// prepared once), the per-peer public keys, and the per-peer cached
/// constant `e(Q_ID, P_pub)`. Registering a peer pays the one-off
/// pairing; every subsequent [`Verifier::verify`] for that peer costs
/// exactly one Miller loop and one final exponentiation (asserted by
/// op-counter tests).
///
/// # Examples
///
/// ```
/// use mccls_core::{CertificatelessScheme, McCls, Verifier, VerifyError};
/// use mccls_rng::SeedableRng;
///
/// let mut rng = mccls_rng::rngs::StdRng::seed_from_u64(9);
/// let scheme = McCls::new();
/// let (params, kgc) = scheme.setup(&mut rng);
/// let partial = scheme.extract_partial_private_key(&kgc, b"node-1");
/// let keys = scheme.generate_key_pair(&params, &mut rng);
///
/// let mut verifier = Verifier::new(params.clone());
/// verifier.register_peer(b"node-1", keys.public).unwrap();
///
/// let sig = scheme.sign(&params, b"node-1", &partial, &keys, b"RREQ", &mut rng);
/// assert_eq!(verifier.verify(b"node-1", b"RREQ", &sig), Ok(()));
/// assert_eq!(
///     verifier.verify(b"node-1", b"RREP", &sig),
///     Err(VerifyError::PairingMismatch)
/// );
/// assert_eq!(
///     verifier.verify(b"node-2", b"RREQ", &sig),
///     Err(VerifyError::UnknownPeer)
/// );
/// ```
#[derive(Debug, Clone)]
pub struct Verifier {
    params: SystemParams,
    peers: ClockMap,
}

impl Verifier {
    /// Creates a verifier for the given system parameters, preparing
    /// `P_pub`'s Miller-loop lines up front. The peer cache is bounded
    /// to `DEFAULT_PEER_CAPACITY` (65,536) entries with clock eviction
    /// (the same policy as [`ShardedVerifier`](crate::ShardedVerifier)),
    /// so a churning network cannot grow it without limit.
    pub fn new(params: SystemParams) -> Self {
        Self::with_peer_capacity(params, DEFAULT_PEER_CAPACITY)
    }

    /// Creates a verifier whose peer cache holds at most `capacity`
    /// entries (clamped to at least one); the least recently verified
    /// peer is evicted first and can be re-registered at the usual
    /// one-pairing cost.
    pub fn with_peer_capacity(params: SystemParams, capacity: usize) -> Self {
        // Force the one-off preparation now rather than on the first
        // packet: verifiers are built at node start-up, not on the
        // routing hot path.
        let _ = params.prepared_p_pub();
        Self {
            params,
            peers: ClockMap::bounded(capacity),
        }
    }

    /// The system parameters this verifier trusts.
    pub fn params(&self) -> &SystemParams {
        &self.params
    }

    /// Registers (or replaces) a peer's public key, paying the one-off
    /// pairing `e(Q_ID, P_pub)` that later verifications reuse.
    ///
    /// Rejects keys containing the group identity up front — they would
    /// make every later pairing against them trivially constant.
    // opcount-budget: verifier.register_peer
    pub fn register_peer(&mut self, id: &[u8], public: UserPublicKey) -> Result<(), VerifyError> {
        let peer = prepare_peer_entry(&self.params, id, public)?;
        self.peers.admit(id, peer);
        Ok(())
    }

    /// Whether a public key is registered for `id`.
    pub fn knows_peer(&self, id: &[u8]) -> bool {
        self.peers.has_peer(id)
    }

    /// The cache bound: at most this many peers stay registered; the
    /// least recently verified is evicted to admit new ones.
    pub fn peer_capacity(&self) -> usize {
        self.peers.bound()
    }

    /// Number of registered peers.
    pub fn peer_count(&self) -> usize {
        self.peers.resident()
    }

    /// Verifies a McCLS signature from a registered peer.
    ///
    /// With the peer registered this is the paper's Table 1 hot path:
    /// one pairing (one Miller loop, one final exponentiation) and one
    /// fixed-base G2 scalar multiplication.
    // opcount-budget: verifier.verify
    pub fn verify(&self, id: &[u8], msg: &[u8], sig: &Signature) -> Result<(), VerifyError> {
        let entry = self.peers.peek(id).ok_or(VerifyError::UnknownPeer)?;
        settle_cached_verification(&entry.public, &entry.rhs, msg, sig)
    }

    /// Parses `bytes` as a wire-format signature and verifies it.
    pub fn verify_encoded(&self, id: &[u8], msg: &[u8], bytes: &[u8]) -> Result<(), VerifyError> {
        let sig = Signature::from_bytes(bytes).ok_or(VerifyError::BadSignatureEncoding)?;
        self.verify(id, msg, &sig)
    }

    /// Verifies against an explicitly supplied public key, registering
    /// it (or replacing a stale one) as a side effect. This is the
    /// entry point for protocols that carry the key in-band.
    pub fn verify_with_key(
        &mut self,
        id: &[u8],
        public: &UserPublicKey,
        msg: &[u8],
        sig: &Signature,
    ) -> Result<(), VerifyError> {
        match self.peers.peek(id) {
            Some(entry) if entry.public == *public => {}
            _ => self.register_peer(id, *public)?,
        }
        self.verify(id, msg, sig)
    }

    /// Boolean adapter over [`Verifier::verify`] for callers that don't
    /// need the rejection reason.
    pub fn is_valid(&self, id: &[u8], msg: &[u8], sig: &Signature) -> bool {
        self.verify(id, msg, sig).is_ok()
    }

    /// Batch-verifies signatures with per-index fault isolation
    /// ([`BatchOutcome`]), reusing this verifier's warm per-peer `Gt`
    /// cache: registered peers whose presented key matches cost one `Gt`
    /// exponentiation instead of an identity hash plus a fold term, and
    /// the whole batch settles in one shared final exponentiation (plus
    /// `O(b·log n)` bisection checks when `b` entries are bad).
    pub fn verify_batch(&self, items: &[BatchItem<'_>], rng: &mut dyn RngCore) -> BatchOutcome {
        self.authenticate_batch(items, rng)
    }
}

impl VerifierBackend for Verifier {
    fn backend_params(&self) -> &SystemParams {
        &self.params
    }

    fn enroll_peer(&mut self, id: &[u8], public: UserPublicKey) -> Result<(), VerifyError> {
        self.register_peer(id, public)
    }

    fn expel_peer(&mut self, id: &[u8]) -> bool {
        self.peers.expel(id)
    }

    fn peer_registered(&self, id: &[u8]) -> bool {
        self.knows_peer(id)
    }

    fn authenticate(&self, id: &[u8], msg: &[u8], sig: &Signature) -> Result<(), VerifyError> {
        self.verify(id, msg, sig)
    }

    fn authenticate_with_key(
        &mut self,
        id: &[u8],
        public: &UserPublicKey,
        msg: &[u8],
        sig: &Signature,
    ) -> Result<(), VerifyError> {
        self.verify_with_key(id, public, msg, sig)
    }

    // The entry was admitted by `register_peer`, which rejected identity
    // components and computed the `Gt` itself.
    fn warm_entry(&self, id: &[u8]) -> Option<(UserPublicKey, Gt)> {
        self.peers.peek(id).map(|peer| (peer.public, peer.rhs))
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // tests may panic freely
mod tests {
    use super::*;
    use crate::mccls::McCls;
    use crate::ops;
    use crate::scheme::CertificatelessScheme;
    use mccls_rng::SeedableRng;

    fn setup() -> (
        Verifier,
        SystemParams,
        crate::params::PartialPrivateKey,
        crate::params::UserKeyPair,
        mccls_rng::rngs::StdRng,
    ) {
        let mut rng = mccls_rng::rngs::StdRng::seed_from_u64(90);
        let scheme = McCls::new();
        let (params, kgc) = scheme.setup(&mut rng);
        let partial = kgc.extract_partial_private_key(b"alice");
        let keys = scheme.generate_key_pair(&params, &mut rng);
        let mut verifier = Verifier::new(params.clone());
        verifier.register_peer(b"alice", keys.public).unwrap();
        (verifier, params, partial, keys, rng)
    }

    #[test]
    fn registered_peer_verifies() {
        let (verifier, params, partial, keys, mut rng) = setup();
        let scheme = McCls::new();
        let sig = scheme.sign(&params, b"alice", &partial, &keys, b"m", &mut rng);
        assert_eq!(verifier.verify(b"alice", b"m", &sig), Ok(()));
        assert!(verifier.is_valid(b"alice", b"m", &sig));
        assert_eq!(
            verifier.verify(b"alice", b"other", &sig),
            Err(VerifyError::PairingMismatch)
        );
    }

    #[test]
    fn unknown_peer_is_reported_before_any_pairing_work() {
        let (verifier, params, partial, keys, mut rng) = setup();
        let scheme = McCls::new();
        let sig = scheme.sign(&params, b"alice", &partial, &keys, b"m", &mut rng);
        let (res, counts) = ops::measure(|| verifier.verify(b"mallory", b"m", &sig));
        assert_eq!(res, Err(VerifyError::UnknownPeer));
        assert_eq!(counts, ops::OpCounts::default());
    }

    #[test]
    fn warm_verify_is_one_miller_loop_and_one_final_exp() {
        let (verifier, params, partial, keys, mut rng) = setup();
        let scheme = McCls::new();
        let sig = scheme.sign(&params, b"alice", &partial, &keys, b"m", &mut rng);
        let (res, counts) = ops::measure(|| verifier.verify(b"alice", b"m", &sig));
        assert_eq!(res, Ok(()));
        assert_eq!(counts.pairings, 1, "Table 1: verify = 1p with warm cache");
        assert_eq!(counts.miller_loops, 1, "exactly one Miller loop");
        assert_eq!(counts.final_exps, 1, "exactly one final exponentiation");
        assert_eq!(counts.g1_muls, 0);
        assert_eq!(counts.g2_muls, 1, "Table 1: verify = 1s with warm cache");
    }

    #[test]
    fn verify_with_key_registers_and_replaces() {
        let (mut verifier, params, partial, keys, mut rng) = setup();
        let scheme = McCls::new();
        let bob = scheme.generate_key_pair(&params, &mut rng);
        let bob_partial = {
            let kgc_rng = &mut mccls_rng::rngs::StdRng::seed_from_u64(90);
            let (_, kgc) = scheme.setup(kgc_rng);
            kgc.extract_partial_private_key(b"bob")
        };
        let sig = scheme.sign(&params, b"bob", &bob_partial, &bob, b"m", &mut rng);
        assert!(!verifier.knows_peer(b"bob"));
        assert_eq!(
            verifier.verify_with_key(b"bob", &bob.public, b"m", &sig),
            Ok(())
        );
        assert!(verifier.knows_peer(b"bob"));
        assert_eq!(verifier.peer_count(), 2);
        // A different key for the same identity replaces the entry and
        // must reject the old signature.
        let bob2 = scheme.generate_key_pair(&params, &mut rng);
        assert_eq!(
            verifier.verify_with_key(b"bob", &bob2.public, b"m", &sig),
            Err(VerifyError::PairingMismatch)
        );
        // Re-verifying with the matching key restores acceptance.
        assert_eq!(
            verifier.verify_with_key(b"bob", &bob.public, b"m", &sig),
            Ok(())
        );
        let _ = partial;
        let _ = keys;
    }

    #[test]
    fn encoded_signatures_round_trip_and_garbage_is_flagged() {
        let (verifier, params, partial, keys, mut rng) = setup();
        let scheme = McCls::new();
        let sig = scheme.sign(&params, b"alice", &partial, &keys, b"m", &mut rng);
        assert_eq!(
            verifier.verify_encoded(b"alice", b"m", &sig.to_bytes()),
            Ok(())
        );
        assert_eq!(
            verifier.verify_encoded(b"alice", b"m", b"not a signature"),
            Err(VerifyError::BadSignatureEncoding)
        );
    }

    #[test]
    fn peer_cache_is_bounded_with_clock_eviction() {
        let mut rng = mccls_rng::rngs::StdRng::seed_from_u64(91);
        let scheme = McCls::new();
        let (params, _kgc) = scheme.setup(&mut rng);
        let keys = scheme.generate_key_pair(&params, &mut rng);
        let mut verifier = Verifier::with_peer_capacity(params, 3);
        assert_eq!(verifier.peer_capacity(), 3);
        for i in 0..10u32 {
            verifier
                .register_peer(format!("peer-{i}").as_bytes(), keys.public)
                .unwrap();
            assert!(verifier.peer_count() <= 3, "cache must stay bounded");
        }
        assert_eq!(verifier.peer_count(), 3);
    }

    #[test]
    fn verify_batch_reuses_warm_entries_and_isolates() {
        let (mut verifier, params, partial, keys, mut rng) = setup();
        let scheme = McCls::new();
        let sig_a = scheme.sign(&params, b"alice", &partial, &keys, b"a", &mut rng);
        let sig_b = scheme.sign(&params, b"alice", &partial, &keys, b"b", &mut rng);
        let items = [
            BatchItem {
                id: b"alice",
                public: &keys.public,
                msg: b"a",
                sig: &sig_a,
            },
            BatchItem {
                id: b"alice",
                public: &keys.public,
                msg: b"tampered",
                sig: &sig_b,
            },
        ];
        let (outcome, counts) = ops::measure(|| verifier.verify_batch(&items, &mut rng));
        assert!(!outcome.all_valid());
        assert_eq!(outcome.invalid_indices(), vec![1]);
        assert_eq!(
            outcome.verdicts().first(),
            Some(&crate::batch::Verdict::Ok),
            "warm batching must not punish the honest entry"
        );
        // Both entries are warm (alice is registered): zero identity
        // hashes, one Gt exponentiation each.
        assert_eq!(counts.hashes_to_g1, 0);
        assert_eq!(counts.gt_exps, 2);
        // A mismatched in-band key falls back to the cold path instead
        // of trusting the stale cache entry.
        let scheme2_keys = scheme.generate_key_pair(&params, &mut rng);
        let cold_items = [BatchItem {
            id: b"alice",
            public: &scheme2_keys.public,
            msg: b"a",
            sig: &sig_a,
        }];
        let (cold, cold_counts) = ops::measure(|| verifier.verify_batch(&cold_items, &mut rng));
        assert!(!cold.all_valid(), "stale-key signature must not pass warm");
        assert_eq!(cold_counts.hashes_to_g1, 1, "cold fallback hashes the id");
        let _ = verifier.expel_peer(b"alice");
        assert!(!verifier.knows_peer(b"alice"));
    }

    #[test]
    fn error_display_is_human_readable() {
        let rendered = format!("{}", VerifyError::PairingMismatch);
        assert!(rendered.contains("pairing"));
        let err: &dyn std::error::Error = &VerifyError::UnknownPeer;
        assert!(!err.to_string().is_empty());
    }
}
