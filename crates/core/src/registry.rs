//! The sharded, thread-safe peer registry: [`ShardedVerifier`].
//!
//! ROADMAP item 2 asks for a verification service that can hold state
//! for on the order of a million peers and serve concurrent verifiers.
//! The single-threaded [`Verifier`](crate::Verifier) already caches the
//! per-peer constant `e(Q_ID, P_pub)`; this module scales that cache
//! out while keeping two properties:
//!
//! * **Lock discipline** — every map is guarded by exactly one
//!   [`RwLock`](std::sync::RwLock), owned by the private `Shard` type:
//!   a guard lives only inside the closure given to `Shard::read` or
//!   `Shard::write`, so no caller can return or store one. Shard locks
//!   are never nested, and no guard is ever live across a pairing,
//!   Miller loop, final exponentiation, or scalar multiplication: all
//!   expensive group arithmetic happens *before* a write lock is taken
//!   or *after* a read lock is dropped, and guards bracket `HashMap`
//!   access only. Debug builds assert both on every section.
//! * **Bounded residency** — each shard's cache is a `ClockMap`: a
//!   capacity-bounded map with clock (second-chance) eviction, so a
//!   churning mobile network cannot grow per-peer `Gt` state without
//!   limit. The same structure bounds the single-threaded
//!   [`Verifier`](crate::Verifier).
//!
//! Poisoned locks are *recovered*, not propagated, in one place
//! (`Shard`'s section runner): every critical section only performs
//! map bookkeeping (no panicking operations and no multi-step
//! invariants that a mid-section unwind could tear), so the data under
//! a poisoned lock is still consistent and
//! [`PoisonError::into_inner`](std::sync::PoisonError::into_inner) is
//! safe. Refusing to serve verifications because an unrelated thread
//! panicked would turn one fault into a mesh-wide denial of service.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};

use mccls_pairing::{G1Affine, G2Affine, Gt};
use mccls_rng::RngCore;

use crate::backend::VerifierBackend;
use crate::batch::{BatchItem, BatchOutcome};
use crate::mccls::McCls;
use crate::params::{SystemParams, UserPublicKey};
use crate::scheme::Signature;
use crate::verify::VerifyError;

use shard::Shard;

/// Default shard count: enough to keep write contention negligible on
/// any plausible core count without bloating an idle registry.
pub const DEFAULT_SHARDS: usize = 16;

/// Default per-shard capacity. With [`DEFAULT_SHARDS`] shards the
/// registry holds up to 1&nbsp;Mi peers (`16 × 65536`), the ROADMAP's
/// million-peer target, at roughly 700 bytes of cached `Gt` + key state
/// per peer.
pub const DEFAULT_SHARD_CAPACITY: usize = 65_536;

/// One cached peer: the registered public key and the precomputed
/// right-hand side `e(Q_ID, P_pub)` of the verification equation, plus
/// the clock-eviction reference bit.
#[derive(Debug)]
pub(crate) struct CachedPeer {
    /// The registered public key.
    pub(crate) public: UserPublicKey,
    /// The cached pairing constant `e(Q_ID, P_pub)`.
    pub(crate) rhs: Gt,
    /// Second-chance bit: set on every cache hit, cleared (once) by the
    /// sweeping clock hand before the entry becomes an eviction victim.
    /// Atomic so read-path hits can mark recency under a shared
    /// reference (a read lock, or `&self` on the single-threaded
    /// verifier) without any interior-mutability cell.
    referenced: AtomicBool,
}

impl CachedPeer {
    pub(crate) fn new(public: UserPublicKey, rhs: Gt) -> Self {
        Self {
            public,
            rhs,
            referenced: AtomicBool::new(true),
        }
    }
}

/// Builds the cache entry for a peer: the identity-key rejection and
/// the one-off pairing `e(Q_ID, P_pub)`. Shared by the single-threaded
/// [`Verifier`](crate::Verifier) and the [`ShardedVerifier`] so their
/// registration paths cannot drift; always called *outside* any lock.
pub(crate) fn prepare_peer_entry(
    params: &SystemParams,
    id: &[u8],
    public: UserPublicKey,
) -> Result<CachedPeer, VerifyError> {
    if public.has_identity_component() {
        return Err(VerifyError::IdentityPublicKey);
    }
    let rhs = McCls::verification_target(params, id);
    Ok(CachedPeer::new(public, rhs))
}

/// The shared warm-verify tail: recompute the equation's left side for
/// `(public, msg, sig)` and compare it against the cached right side
/// `e(Q_ID, P_pub)`. Both verifier handles end here, so the one-pairing
/// budget is the same arithmetic in each.
pub(crate) fn settle_cached_verification(
    public: &UserPublicKey,
    rhs: &Gt,
    msg: &[u8],
    sig: &Signature,
) -> Result<(), VerifyError> {
    let lhs = McCls::verification_pairing(public, msg, sig)?;
    if lhs == *rhs {
        Ok(())
    } else {
        Err(VerifyError::PairingMismatch)
    }
}

impl Clone for CachedPeer {
    // `.into()` rather than `AtomicBool::new(..)`: the xtask call graph
    // cannot resolve the `AtomicBool` qualifier and would fan a call
    // named `new` out to every workspace constructor, dragging this
    // `self` (which over-approximate `.clone()` dispatch can taint)
    // into the hash and params taint domains.
    fn clone(&self) -> Self {
        Self {
            public: self.public,
            rhs: self.rhs,
            referenced: self.referenced.load(Ordering::Relaxed).into(),
        }
    }
}

/// A capacity-bounded peer cache with clock (second-chance) eviction.
///
/// The ring (`ring` + `hand`) holds every resident key; a lookup sets
/// the entry's reference bit, and an insert into a full map sweeps the
/// hand, clearing bits until it finds an unreferenced victim to
/// replace. Recently verified peers therefore survive churn, while a
/// burst of one-shot registrations recycles its own slots.
#[derive(Debug, Clone)]
pub(crate) struct ClockMap {
    capacity: usize,
    entries: HashMap<Vec<u8>, CachedPeer>,
    ring: Vec<Vec<u8>>,
    hand: usize,
}

impl ClockMap {
    /// Creates an empty map bounded to `capacity` resident entries
    /// (clamped to at least one).
    pub(crate) fn bounded(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            capacity,
            entries: HashMap::with_capacity(capacity.min(1024)),
            ring: Vec::new(),
            hand: 0,
        }
    }

    // Method names are deliberately workspace-unique (`peek` rather
    // than `get`, `admit` rather than `insert`, …): the xtask call
    // graph resolves unqualified method calls by name, so reusing the
    // std collection vocabulary would alias every `.get(..)` in the
    // hash and pairing crates onto this map and pollute the
    // interprocedural taint analysis with false edges.

    /// Number of resident entries.
    pub(crate) fn resident(&self) -> usize {
        self.entries.len()
    }

    /// The residency bound this map was created with.
    pub(crate) fn bound(&self) -> usize {
        self.capacity
    }

    pub(crate) fn has_peer(&self, id: &[u8]) -> bool {
        self.entries.contains_key(id)
    }

    /// Looks up a peer, marking it recently used on a hit.
    pub(crate) fn peek(&self, id: &[u8]) -> Option<&CachedPeer> {
        let entry = self.entries.get(id)?;
        entry.referenced.store(true, Ordering::Relaxed);
        Some(entry)
    }

    /// Inserts or replaces a peer, evicting the clock victim first when
    /// the map is at capacity. Bookkeeping only — the expensive pairing
    /// behind `peer.rhs` was paid by the caller before any lock.
    pub(crate) fn admit(&mut self, id: &[u8], peer: CachedPeer) {
        if let Some(existing) = self.entries.get_mut(id) {
            *existing = peer;
            return;
        }
        if self.entries.len() < self.capacity {
            self.ring.push(id.to_vec());
            self.entries.insert(id.to_vec(), peer);
            return;
        }
        let victim = self.sweep();
        self.entries.remove(&victim);
        let slot = self.hand;
        self.ring[slot] = id.to_vec();
        self.advance();
        self.entries.insert(id.to_vec(), peer);
    }

    /// Advances the clock hand to the next unreferenced entry, clearing
    /// reference bits along the way, and returns the victim key (the
    /// hand is left pointing at it). Terminates within two revolutions:
    /// the first pass clears every bit it crosses.
    fn sweep(&mut self) -> Vec<u8> {
        loop {
            let hand = self.hand;
            let key = self.ring[hand].clone();
            let Some(entry) = self.entries.get(&key) else {
                return key;
            };
            if entry.referenced.swap(false, Ordering::Relaxed) {
                self.advance();
            } else {
                return key;
            }
        }
    }

    /// Removes a peer outright (revocation / targeted invalidation);
    /// returns whether it was resident. The ring shrinks with the
    /// entry, and the hand is clamped back into range so the next sweep
    /// starts from a valid slot.
    pub(crate) fn expel(&mut self, id: &[u8]) -> bool {
        if self.entries.remove(id).is_none() {
            return false;
        }
        self.ring.retain(|key| key.as_slice() != id);
        if self.hand >= self.ring.len() {
            self.hand = 0;
        }
        true
    }

    fn advance(&mut self) {
        self.hand = (self.hand + 1) % self.ring.len().max(1);
    }
}

impl ClockMap {
    /// Copies out every resident `(identity, public key)` pair —
    /// bookkeeping only, so it is safe under a shard read guard. The
    /// cached `Gt` values are deliberately *not* exposed: snapshots
    /// carry keys, never pairing results (see
    /// [`ShardedVerifier::export_warm`]).
    pub(crate) fn resident_peers(&self) -> Vec<(Vec<u8>, UserPublicKey)> {
        self.entries
            .iter()
            .map(|(id, peer)| (id.clone(), peer.public))
            .collect()
    }
}

/// The one owner of the registry's locks.
mod shard {
    use std::cell::Cell;
    use std::sync::{LockResult, PoisonError, RwLock};

    use super::ClockMap;
    use crate::ops;

    thread_local! {
        /// Whether this thread is inside a shard section (debug builds).
        static HELD: Cell<bool> = const { Cell::new(false) };
    }

    /// One registry shard: a bounded peer map behind its own lock.
    ///
    /// The lock is private to this module, and a guard lives only for
    /// the closure handed to [`Shard::read`] or [`Shard::write`], so no
    /// caller can return a guard, store one, or keep it past the map
    /// access. Debug builds also assert, on every section, that the
    /// thread holds no other shard lock (a nested acquisition fails
    /// instead of deadlocking) and that no counted group operation ran
    /// under the guard.
    #[derive(Debug)]
    pub(super) struct Shard(RwLock<ClockMap>);

    impl Shard {
        pub(super) fn bounded(capacity: usize) -> Self {
            Self(RwLock::new(ClockMap::bounded(capacity)))
        }

        /// Runs `f` on the map under the shard's read lock.
        pub(super) fn read<T>(&self, f: impl FnOnce(&ClockMap) -> T) -> T {
            section(|| self.0.read(), |map| f(&map))
        }

        /// Runs `f` on the map under the shard's write lock.
        pub(super) fn write<T>(&self, f: impl FnOnce(&mut ClockMap) -> T) -> T {
            section(|| self.0.write(), |mut map| f(&mut map))
        }
    }

    /// Takes a guard with `take`, recovering a poisoned lock (see the
    /// registry's module docs), and runs `body` on it. Release builds do only
    /// that; debug builds check the section's two rules around it.
    fn section<G, T>(take: impl FnOnce() -> LockResult<G>, body: impl FnOnce(G) -> T) -> T {
        let run = || body(take().unwrap_or_else(PoisonError::into_inner));
        if !cfg!(debug_assertions) {
            return run();
        }
        let _held = Held::enter();
        let before = ops::snapshot();
        let out = run();
        assert_eq!(
            ops::snapshot(),
            before,
            "group arithmetic ran under a shard lock"
        );
        out
    }

    /// Marks this thread as inside a section until dropped, unwinding
    /// included.
    struct Held;

    impl Held {
        fn enter() -> Self {
            assert!(
                !HELD.replace(true),
                "a shard lock was taken while another is held"
            );
            Held
        }
    }

    impl Drop for Held {
        fn drop(&mut self) {
            HELD.set(false);
        }
    }
}

/// Version byte of the warm-cache snapshot wire format.
pub const WARM_SNAPSHOT_VERSION: u8 = 1;

/// Why a warm-cache snapshot was rejected by
/// [`ShardedVerifier::import_warm`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotError {
    /// The bytes do not parse as a warm-cache snapshot (wrong version,
    /// truncated record, trailing garbage, or a non-canonical point
    /// encoding).
    Encoding,
    /// The snapshot was exported under different system parameters: its
    /// `P_pub` binding does not match this registry's, so every cached
    /// constant it implies would be wrong.
    ForeignParams,
    /// A decoded peer record was rejected by registration (an identity
    /// public-key component, for example).
    BadPeer(VerifyError),
}

impl core::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SnapshotError::Encoding => write!(f, "snapshot bytes do not parse"),
            SnapshotError::ForeignParams => {
                write!(f, "snapshot was exported under different system parameters")
            }
            SnapshotError::BadPeer(e) => write!(f, "snapshot peer rejected: {e}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Splits `n` bytes off the front of `bytes`, advancing it.
fn carve<'a>(bytes: &mut &'a [u8], n: usize) -> Option<&'a [u8]> {
    if bytes.len() < n {
        return None;
    }
    let (head, tail) = bytes.split_at(n);
    *bytes = tail;
    Some(head)
}

/// FNV-1a over the peer identity: stable, dependency-free shard
/// placement. Peer identities are public routing names, so a keyed
/// hash is not required here.
fn shard_hash(id: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in id {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A sharded, thread-safe McCLS verification registry.
///
/// `N` shards each guard a bounded `ClockMap` with their own
/// [`RwLock`](std::sync::RwLock); a peer lives in exactly one shard (by
/// FNV-1a of its identity), so no operation ever holds two shard locks
/// and the lock order is trivially acyclic. Verification reads take the
/// shard lock *only* to copy out the cached
/// `(public key, e(Q_ID, P_pub))` pair — the Miller loop and final
/// exponentiation run after the guard is dropped, which is what keeps
/// the lock hold time in the nanoseconds while a verification costs
/// milliseconds.
///
/// This is the recommended entry point for multi-threaded services;
/// the single-threaded [`Verifier`](crate::Verifier) remains the right
/// choice inside one simulation or protocol task.
///
/// # Examples
///
/// ```
/// use mccls_core::{CertificatelessScheme, McCls, ShardedVerifier};
/// use mccls_rng::SeedableRng;
///
/// let mut rng = mccls_rng::rngs::StdRng::seed_from_u64(5);
/// let scheme = McCls::new();
/// let (params, kgc) = scheme.setup(&mut rng);
/// let partial = scheme.extract_partial_private_key(&kgc, b"node-1");
/// let keys = scheme.generate_key_pair(&params, &mut rng);
/// let sig = scheme.sign(&params, b"node-1", &partial, &keys, b"RREQ", &mut rng);
///
/// let registry = ShardedVerifier::new(params);
/// registry.register_peer(b"node-1", keys.public).unwrap();
/// std::thread::scope(|scope| {
///     for _ in 0..4 {
///         scope.spawn(|| {
///             assert_eq!(registry.verify(b"node-1", b"RREQ", &sig), Ok(()));
///         });
///     }
/// });
/// ```
#[derive(Debug)]
pub struct ShardedVerifier {
    params: SystemParams,
    shards: Vec<Shard>,
}

impl ShardedVerifier {
    /// Creates a registry with [`DEFAULT_SHARDS`] shards of
    /// [`DEFAULT_SHARD_CAPACITY`] peers each, preparing `P_pub`'s
    /// Miller-loop lines up front.
    pub fn new(params: SystemParams) -> Self {
        Self::with_shape(params, DEFAULT_SHARDS, DEFAULT_SHARD_CAPACITY)
    }

    /// Creates a registry with an explicit shard count and per-shard
    /// capacity (both clamped to at least one). Total residency is
    /// bounded by `shards * shard_capacity`.
    pub fn with_shape(params: SystemParams, shards: usize, shard_capacity: usize) -> Self {
        // Force the one-off `G2Prepared` computation now: registries
        // are built at service start-up, not on the packet hot path.
        let _ = params.prepared_p_pub();
        let shards = (0..shards.max(1))
            .map(|_| Shard::bounded(shard_capacity))
            .collect();
        Self { params, shards }
    }

    /// The system parameters this registry trusts.
    pub fn params(&self) -> &SystemParams {
        &self.params
    }

    /// The configured residency bound: no more than this many peers are
    /// ever cached at once.
    pub fn capacity(&self) -> usize {
        self.shards.iter().map(|s| s.read(ClockMap::bound)).sum()
    }

    /// Number of currently cached peers, summed across shards. Racy by
    /// nature under concurrent registration, but never above
    /// [`ShardedVerifier::capacity`].
    pub fn peer_count(&self) -> usize {
        self.shards.iter().map(|s| s.read(ClockMap::resident)).sum()
    }

    /// Whether a public key is currently cached for `id`.
    pub fn knows_peer(&self, id: &[u8]) -> bool {
        self.shard(id).read(|map| map.has_peer(id))
    }

    /// The shard owning `id`.
    fn shard(&self, id: &[u8]) -> &Shard {
        let idx = (shard_hash(id) % self.shards.len() as u64) as usize;
        &self.shards[idx]
    }

    /// Registers (or replaces) a peer's public key, paying the one-off
    /// pairing `e(Q_ID, P_pub)` that later verifications reuse.
    ///
    /// The pairing is computed *before* the shard's write lock is
    /// taken (a debug build's `Shard` section fails on the opposite
    /// order), so the lock is held only for the map insert and a
    /// possible clock eviction. Two threads racing to register the same
    /// peer both compute the same constant; last write wins and the
    /// registry stays consistent.
    ///
    /// Rejects keys containing the group identity up front — they would
    /// make every later pairing against them trivially constant.
    pub fn register_peer(&self, id: &[u8], public: UserPublicKey) -> Result<(), VerifyError> {
        let peer = prepare_peer_entry(&self.params, id, public)?;
        self.shard(id).write(|map| map.admit(id, peer));
        Ok(())
    }

    /// Verifies a McCLS signature from a registered peer.
    ///
    /// The warm path is the paper's Table 1 hot path — one pairing (one
    /// Miller loop, one final exponentiation) and one fixed-base G2
    /// scalar multiplication — and none of it runs under the shard
    /// lock: the read guard lives only long enough to copy the 16-limb
    /// cached `Gt` and the public key out of the map.
    pub fn verify(&self, id: &[u8], msg: &[u8], sig: &Signature) -> Result<(), VerifyError> {
        let Some((public, rhs)) = self.warm_entry(id) else {
            return Err(VerifyError::UnknownPeer);
        };
        settle_cached_verification(&public, &rhs, msg, sig)
    }

    /// Parses `bytes` as a wire-format signature and verifies it.
    pub fn verify_encoded(&self, id: &[u8], msg: &[u8], bytes: &[u8]) -> Result<(), VerifyError> {
        let sig = Signature::from_bytes(bytes).ok_or(VerifyError::BadSignatureEncoding)?;
        self.verify(id, msg, &sig)
    }

    /// Verifies against an explicitly supplied public key, registering
    /// it (or replacing a stale or evicted entry) as a side effect —
    /// the entry point for protocols that carry the key in-band.
    ///
    /// Unlike [`Verifier::verify_with_key`](crate::Verifier::verify_with_key)
    /// this takes `&self`: registration synchronizes through the shard
    /// lock, so any number of threads may call it concurrently.
    pub fn verify_with_key(
        &self,
        id: &[u8],
        public: &UserPublicKey,
        msg: &[u8],
        sig: &Signature,
    ) -> Result<(), VerifyError> {
        let cached_matches = self
            .shard(id)
            .read(|map| map.peek(id).is_some_and(|peer| peer.public == *public));
        if !cached_matches {
            self.register_peer(id, *public)?;
        }
        self.verify(id, msg, sig)
    }

    /// Boolean adapter over [`ShardedVerifier::verify`] for callers
    /// that don't need the rejection reason.
    pub fn is_valid(&self, id: &[u8], msg: &[u8], sig: &Signature) -> bool {
        self.verify(id, msg, sig).is_ok()
    }

    /// Batch-verifies signatures with per-index fault isolation,
    /// reusing this registry's warm per-peer `Gt` cache. Each warm
    /// lookup copies its entry out under a short shard read guard; all
    /// pairing work (and any bisection of a dirty batch) runs with no
    /// lock held.
    pub fn verify_batch(&self, items: &[BatchItem<'_>], rng: &mut dyn RngCore) -> BatchOutcome {
        self.authenticate_batch(items, rng)
    }

    /// Serializes the registered peer set as a warm-cache snapshot that
    /// a restarting service can feed to [`ShardedVerifier::import_warm`]
    /// instead of re-collecting every key over the network.
    ///
    /// Layout: `version || prepared(P_pub) || count || records`, where
    /// the 97-byte [`G2Prepared`](mccls_pairing::G2Prepared) wire form
    /// of `P_pub` binds the snapshot to the system parameters it was
    /// exported under, and each record is
    /// `id_len(u32 BE) || id || flags(u8) || compressed points`.
    ///
    /// Only identities and public keys are exported — never the cached
    /// `e(Q_ID, P_pub)` constants, which the importer recomputes from
    /// its own trusted parameters. Records are sorted by identity, so
    /// equal peer sets serialize identically. Each shard is drained
    /// under its own short read guard; encoding runs with no lock held.
    pub fn export_warm(&self) -> Vec<u8> {
        let mut peers: Vec<(Vec<u8>, UserPublicKey)> = Vec::new();
        for shard in &self.shards {
            peers.extend(shard.read(ClockMap::resident_peers));
        }
        peers.sort_by(|a, b| a.0.cmp(&b.0));
        let mut out = vec![WARM_SNAPSHOT_VERSION];
        out.extend_from_slice(&self.params.prepared_p_pub().to_bytes());
        out.extend_from_slice(&(peers.len() as u32).to_be_bytes());
        for (id, public) in &peers {
            out.extend_from_slice(&(id.len() as u32).to_be_bytes());
            out.extend_from_slice(id);
            out.push(u8::from(public.secondary.is_some()));
            out.extend_from_slice(&public.to_bytes());
        }
        out
    }

    /// Imports a warm-cache snapshot produced by
    /// [`ShardedVerifier::export_warm`], returning how many peers were
    /// registered.
    ///
    /// Nothing expensive is trusted from the wire: the `P_pub` binding
    /// must match this registry's own parameters (a snapshot from a
    /// different KGC is rejected outright as [`SnapshotError::ForeignParams`]),
    /// every point must pass the full compressed-decoding gauntlet
    /// (canonical encoding, on-curve, r-order subgroup), and the cached
    /// `e(Q_ID, P_pub)` constants are recomputed locally through the
    /// same [`ShardedVerifier::register_peer`] path as a live
    /// registration — a snapshot can therefore never plant a wrong
    /// pairing constant, only spend this registry's own time.
    ///
    /// Peers registered before the first malformed record stay
    /// registered; the error reports why the import stopped.
    pub fn import_warm(&self, snapshot: &[u8]) -> Result<usize, SnapshotError> {
        let mut rest = snapshot;
        let version = carve(&mut rest, 1).ok_or(SnapshotError::Encoding)?;
        if version != [WARM_SNAPSHOT_VERSION] {
            return Err(SnapshotError::Encoding);
        }
        let binding = carve(&mut rest, mccls_pairing::G2Prepared::SERIALIZED_LEN)
            .ok_or(SnapshotError::Encoding)?;
        if binding != self.params.prepared_p_pub().to_bytes() {
            return Err(SnapshotError::ForeignParams);
        }
        let count_bytes = carve(&mut rest, 4).ok_or(SnapshotError::Encoding)?;
        let count_arr: [u8; 4] = count_bytes
            .try_into()
            .map_err(|_| SnapshotError::Encoding)?;
        let count = u32::from_be_bytes(count_arr) as usize;
        let mut imported = 0usize;
        for _ in 0..count {
            let len_bytes = carve(&mut rest, 4).ok_or(SnapshotError::Encoding)?;
            let len_arr: [u8; 4] = len_bytes.try_into().map_err(|_| SnapshotError::Encoding)?;
            let id = carve(&mut rest, u32::from_be_bytes(len_arr) as usize)
                .ok_or(SnapshotError::Encoding)?
                .to_vec();
            let flags = carve(&mut rest, 1).ok_or(SnapshotError::Encoding)?;
            let primary_bytes: [u8; 96] = carve(&mut rest, 96)
                .ok_or(SnapshotError::Encoding)?
                .try_into()
                .map_err(|_| SnapshotError::Encoding)?;
            let primary = G2Affine::from_compressed(&primary_bytes)
                .ok_or(SnapshotError::Encoding)?
                .to_projective();
            let secondary = match flags {
                [0] => None,
                [1] => {
                    let secondary_bytes: [u8; 48] = carve(&mut rest, 48)
                        .ok_or(SnapshotError::Encoding)?
                        .try_into()
                        .map_err(|_| SnapshotError::Encoding)?;
                    Some(
                        G1Affine::from_compressed(&secondary_bytes)
                            .ok_or(SnapshotError::Encoding)?
                            .to_projective(),
                    )
                }
                _ => return Err(SnapshotError::Encoding),
            };
            let public = UserPublicKey { primary, secondary };
            self.register_peer(&id, public)
                .map_err(SnapshotError::BadPeer)?;
            imported += 1;
        }
        if !rest.is_empty() {
            return Err(SnapshotError::Encoding);
        }
        Ok(imported)
    }
}

impl VerifierBackend for ShardedVerifier {
    fn backend_params(&self) -> &SystemParams {
        &self.params
    }

    fn enroll_peer(&mut self, id: &[u8], public: UserPublicKey) -> Result<(), VerifyError> {
        self.register_peer(id, public)
    }

    fn expel_peer(&mut self, id: &[u8]) -> bool {
        self.shard(id).write(|map| map.expel(id))
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
        self.shard(id)
            .read(|map| map.peek(id).map(|peer| (peer.public, peer.rhs)))
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // tests may panic freely
mod tests {
    use super::*;
    use crate::ops;
    use crate::scheme::CertificatelessScheme;
    use mccls_rng::SeedableRng;

    fn world() -> (
        ShardedVerifier,
        SystemParams,
        crate::params::PartialPrivateKey,
        crate::params::UserKeyPair,
        mccls_rng::rngs::StdRng,
    ) {
        let mut rng = mccls_rng::rngs::StdRng::seed_from_u64(41);
        let scheme = McCls::new();
        let (params, kgc) = scheme.setup(&mut rng);
        let partial = kgc.extract_partial_private_key(b"alice");
        let keys = scheme.generate_key_pair(&params, &mut rng);
        let registry = ShardedVerifier::new(params.clone());
        registry.register_peer(b"alice", keys.public).unwrap();
        (registry, params, partial, keys, rng)
    }

    #[test]
    fn registry_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ShardedVerifier>();
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "a shard lock was taken while another is held")]
    fn nested_shard_sections_fail_in_debug_builds() {
        // Two shards, so the inner section could not even block: the
        // thread's flag, not a deadlock, is what fails.
        let (outer, inner) = (Shard::bounded(1), Shard::bounded(1));
        outer.read(|_| inner.read(ClockMap::resident));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "group arithmetic ran under a shard lock")]
    fn group_arithmetic_under_a_shard_lock_fails_in_debug_builds() {
        let shard = Shard::bounded(1);
        shard.write(|_| ops::hash_to_g1(b"alice", b"registry-test"));
    }

    #[test]
    fn registered_peer_verifies_and_unknown_is_rejected() {
        let (registry, params, partial, keys, mut rng) = world();
        let scheme = McCls::new();
        let sig = scheme.sign(&params, b"alice", &partial, &keys, b"m", &mut rng);
        assert_eq!(registry.verify(b"alice", b"m", &sig), Ok(()));
        assert!(registry.is_valid(b"alice", b"m", &sig));
        assert_eq!(
            registry.verify(b"alice", b"other", &sig),
            Err(VerifyError::PairingMismatch)
        );
        assert_eq!(
            registry.verify(b"bob", b"m", &sig),
            Err(VerifyError::UnknownPeer)
        );
        assert_eq!(
            registry.verify_encoded(b"alice", b"m", &sig.to_bytes()),
            Ok(())
        );
        assert_eq!(
            registry.verify_encoded(b"alice", b"m", b"junk"),
            Err(VerifyError::BadSignatureEncoding)
        );
    }

    #[test]
    fn unknown_peer_is_reported_before_any_pairing_work() {
        let (registry, params, partial, keys, mut rng) = world();
        let scheme = McCls::new();
        let sig = scheme.sign(&params, b"alice", &partial, &keys, b"m", &mut rng);
        let (res, counts) = ops::measure(|| registry.verify(b"mallory", b"m", &sig));
        assert_eq!(res, Err(VerifyError::UnknownPeer));
        assert_eq!(counts, ops::OpCounts::default());
    }

    #[test]
    fn verify_with_key_registers_and_survives_eviction() {
        let (registry, params, partial, keys, mut rng) = world();
        let scheme = McCls::new();
        let bob = scheme.generate_key_pair(&params, &mut rng);
        let bob_partial = {
            let kgc_rng = &mut mccls_rng::rngs::StdRng::seed_from_u64(41);
            let (_, kgc) = scheme.setup(kgc_rng);
            kgc.extract_partial_private_key(b"bob")
        };
        let sig = scheme.sign(&params, b"bob", &bob_partial, &bob, b"m", &mut rng);
        assert!(!registry.knows_peer(b"bob"));
        assert_eq!(
            registry.verify_with_key(b"bob", &bob.public, b"m", &sig),
            Ok(())
        );
        assert!(registry.knows_peer(b"bob"));
        let _ = (partial, keys);
    }

    #[test]
    fn eviction_keeps_residency_at_the_configured_bound() {
        let mut rng = mccls_rng::rngs::StdRng::seed_from_u64(17);
        let scheme = McCls::new();
        let (params, _) = scheme.setup(&mut rng);
        let keys = scheme.generate_key_pair(&params, &mut rng);
        let registry = ShardedVerifier::with_shape(params, 2, 4);
        assert_eq!(registry.capacity(), 8);
        for i in 0..64u32 {
            registry
                .register_peer(format!("peer-{i}").as_bytes(), keys.public)
                .unwrap();
            assert!(registry.peer_count() <= registry.capacity());
        }
        assert!(registry.peer_count() >= 1);
    }

    #[test]
    fn clock_eviction_prefers_unreferenced_victims() {
        let mut rng = mccls_rng::rngs::StdRng::seed_from_u64(23);
        let scheme = McCls::new();
        let (params, _) = scheme.setup(&mut rng);
        let keys = scheme.generate_key_pair(&params, &mut rng);
        // One shard of two slots so the victim choice is observable.
        let registry = ShardedVerifier::with_shape(params, 1, 2);
        registry.register_peer(b"hot", keys.public).unwrap();
        registry.register_peer(b"cold", keys.public).unwrap();
        // Touch `hot`, clearing nothing; the sweep must clear both bits
        // on its first revolution and evict the untouched entry on the
        // second, preserving the recently used peer.
        assert!(registry.knows_peer(b"hot"));
        registry.register_peer(b"new", keys.public).unwrap();
        assert_eq!(registry.peer_count(), 2);
        assert!(registry.knows_peer(b"new"));
    }

    #[test]
    fn expelled_peer_must_reregister() {
        let (registry, params, partial, keys, mut rng) = world();
        let scheme = McCls::new();
        let sig = scheme.sign(&params, b"alice", &partial, &keys, b"m", &mut rng);
        let mut registry = registry;
        assert!(registry.expel_peer(b"alice"));
        assert!(!registry.knows_peer(b"alice"));
        assert!(!registry.expel_peer(b"alice"), "second expel is a no-op");
        assert_eq!(
            registry.verify(b"alice", b"m", &sig),
            Err(VerifyError::UnknownPeer)
        );
        // Eviction state stays sound after an expel: churn keeps working.
        for i in 0..8u32 {
            registry
                .register_peer(format!("p{i}").as_bytes(), keys.public)
                .unwrap();
        }
        registry.register_peer(b"alice", keys.public).unwrap();
        assert_eq!(registry.verify(b"alice", b"m", &sig), Ok(()));
    }

    #[test]
    fn sharded_batch_reuses_warm_entries() {
        let (registry, params, partial, keys, mut rng) = world();
        let scheme = McCls::new();
        let sig = scheme.sign(&params, b"alice", &partial, &keys, b"m", &mut rng);
        let items = [BatchItem {
            id: b"alice",
            public: &keys.public,
            msg: b"m",
            sig: &sig,
        }];
        let (outcome, counts) = ops::measure(|| registry.verify_batch(&items, &mut rng));
        assert!(outcome.all_valid());
        // Warm path: no identity hash, one factor Miller loop plus the
        // closing loop, one shared final exp, one Gt exponentiation
        // against the cached e(Q_ID, P_pub).
        assert_eq!(counts.hashes_to_g1, 0, "warm entry skips the identity hash");
        assert_eq!(counts.miller_loops, 2);
        assert_eq!(counts.final_exps, 1);
        assert_eq!(counts.gt_exps, 1);
    }

    #[test]
    fn identity_key_is_rejected() {
        let (registry, ..) = world();
        let bad = UserPublicKey {
            primary: mccls_pairing::G2Projective::identity(),
            secondary: None,
        };
        assert_eq!(
            registry.register_peer(b"evil", bad),
            Err(VerifyError::IdentityPublicKey)
        );
    }
}
