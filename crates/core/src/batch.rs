//! Fault-isolating batch verification and online/offline signing for
//! McCLS — the two natural extensions the paper's construction inherits
//! from its ancestor, the Yoon–Cheon–Kim batch-verifiable ID-based
//! signature (reference \[15\] of the paper).
//!
//! # The batch engine
//!
//! The random-linear-combination (RLC) check
//! `∏ e(z_i·S_i, (V_i·h_i⁻¹)·P - R_i) · e(-Σ z_i·Q_IDi, P_pub) = 1`
//! verifies `n` signatures with `n + 1` Miller loops and one final
//! exponentiation — but a single adversarial signature used to poison
//! the whole batch and reveal nothing, which is exactly the degradation
//! an attacker wants under MANET traffic bursts. This module keeps the
//! `n + 1` happy path and adds fault isolation around it:
//!
//! * [`batch_verify`] returns a [`BatchOutcome`] with a per-index
//!   [`Verdict`] instead of an all-or-nothing `Result`. When the RLC
//!   check fails, a **bisection fallback** recursively splits the batch
//!   and re-checks halves, isolating `b` bad indices in `O(b·log n)`
//!   extra Miller loops. Each item's randomized Miller factor is
//!   computed once and cached, so a sub-batch re-check costs one Miller
//!   loop (closing the `Q_ID` sum against `P_pub`) plus one final
//!   exponentiation — and because the defect value is multiplicative
//!   over disjoint sub-batches, only one child of every dirty node needs
//!   a fresh check; the sibling's defect is derived algebraically.
//! * [`BatchAccumulator`] is the streaming form for the AODV auth hot
//!   path: it folds incoming entries into a running Miller-loop product
//!   as they arrive and flushes on a size/latency budget, so the flush
//!   itself costs one Miller loop and one final exponentiation no matter
//!   how many entries are pending (budgeted as
//!   `[batch.accumulator_flush]` in `opcount-budgets.toml`).
//!
//! Soundness of per-index verdicts rests on the 64-bit blinders: a
//! sub-batch whose defect is the identity contains only signatures that
//! individually verify, except with probability `~2^-64` per check
//! (DESIGN.md §10).

use std::time::{Duration, Instant};

use mccls_pairing::{
    g2_generator_table, Fr, G1Projective, G2Prepared, G2Projective, Gt, MillerLoopResult,
};
use mccls_rng::RngCore;

use crate::mccls::McCls;
use crate::ops;
use crate::params::{PartialPrivateKey, SystemParams, UserKeyPair, UserPublicKey};
use crate::scheme::Signature;
use crate::verify::VerifyError;

/// A warm-cache lookup: identity bytes to the cached
/// `(public key, e(Q_ID, P_pub))` snapshot, if one exists.
pub(crate) type WarmLookup<'a> = dyn Fn(&[u8]) -> Option<(UserPublicKey, Gt)> + 'a;

/// One entry of a verification batch.
#[derive(Debug, Clone)]
pub struct BatchItem<'a> {
    /// Signer identity.
    pub id: &'a [u8],
    /// Signer public key.
    pub public: &'a UserPublicKey,
    /// Signed message.
    pub msg: &'a [u8],
    /// The signature.
    pub sig: &'a Signature,
}

/// The per-index result of a batch verification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The entry individually verifies (up to the `~2^-64` RLC bound).
    Ok,
    /// The entry is invalid, with the same error its individual
    /// verification would report.
    Invalid(VerifyError),
    /// The batch check failed but the isolation budget ran out before
    /// this entry could be attributed either way.
    Unchecked,
}

/// Cost and shape statistics for one batch verification.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Number of entries in the batch.
    pub items: usize,
    /// Total Miller loops spent: `participants + 1` for the base RLC
    /// check (0 without participants) plus one per bisection sub-check.
    pub miller_loops: u64,
    /// Total final exponentiations spent (one per Miller-loop check).
    pub final_exps: u64,
    /// Bisection sub-checks performed while isolating bad indices.
    pub isolation_checks: u32,
    /// Deepest bisection level reached (0 when the batch was clean).
    pub bisection_depth: u32,
}

/// The outcome of a batch verification: one [`Verdict`] per input index
/// plus [`BatchStats`] describing what the engine spent.
///
/// # Examples
///
/// ```
/// use mccls_core::{batch_verify, BatchItem, CertificatelessScheme, McCls, Verdict};
/// use mccls_rng::SeedableRng;
///
/// let mut rng = mccls_rng::rngs::StdRng::seed_from_u64(1);
/// let scheme = McCls::new();
/// let (params, kgc) = scheme.setup(&mut rng);
/// let partial = scheme.extract_partial_private_key(&kgc, b"node");
/// let keys = scheme.generate_key_pair(&params, &mut rng);
/// let sig = scheme.sign(&params, b"node", &partial, &keys, b"msg", &mut rng);
/// let items = [BatchItem { id: b"node", public: &keys.public, msg: b"msg", sig: &sig }];
/// let outcome = batch_verify(&params, &items, &mut rng);
/// assert!(outcome.all_valid());
/// assert_eq!(outcome.verdicts(), &[Verdict::Ok]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchOutcome {
    verdicts: Vec<Verdict>,
    stats: BatchStats,
}

impl BatchOutcome {
    /// True when every entry verified (vacuously true for an empty
    /// batch) — the thin adapter for callers that only want the old
    /// all-or-nothing answer.
    pub fn all_valid(&self) -> bool {
        self.verdicts.iter().all(|v| matches!(v, Verdict::Ok))
    }

    /// Per-index verdicts, in input order.
    pub fn verdicts(&self) -> &[Verdict] {
        &self.verdicts
    }

    /// Indices whose entries were proven invalid.
    pub fn invalid_indices(&self) -> Vec<usize> {
        self.verdicts
            .iter()
            .enumerate()
            .filter(|(_, v)| matches!(v, Verdict::Invalid(_)))
            .map(|(i, _)| i)
            .collect()
    }

    /// Indices the isolation budget left unattributed.
    pub fn unchecked_indices(&self) -> Vec<usize> {
        self.verdicts
            .iter()
            .enumerate()
            .filter(|(_, v)| matches!(v, Verdict::Unchecked))
            .map(|(i, _)| i)
            .collect()
    }

    /// What the verification cost.
    pub fn stats(&self) -> &BatchStats {
        &self.stats
    }

    /// Collapses the outcome into the pre-redesign contract: `Ok(())`
    /// iff every entry verified, otherwise the first proven error (or
    /// [`VerifyError::PairingMismatch`] when only unattributed entries
    /// remain — "not proven valid" must never read as success).
    pub fn as_result(&self) -> Result<(), VerifyError> {
        let mut saw_unchecked = false;
        for v in &self.verdicts {
            match v {
                Verdict::Invalid(err) => return Err(*err),
                Verdict::Unchecked => saw_unchecked = true,
                Verdict::Ok => {}
            }
        }
        if saw_unchecked {
            Err(VerifyError::PairingMismatch)
        } else {
            Ok(())
        }
    }
}

/// What the shared product check must balance against for one entry.
// Boxing the `Gt` would buy nothing: every `Slot` already carries a
// full `MillerLoopResult`, which dominates the allocation either way.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
enum Expectation {
    /// Cold entry: `z·Q_ID`, folded into the closing
    /// `e(-Σ z·Q_ID, P_pub)` Miller loop.
    FoldQ(G1Projective),
    /// Warm entry: `e(Q_ID, P_pub)^z` from a verifier's cached `Gt`
    /// constant — no identity hash, no closing-sum contribution.
    Target(Gt),
}

/// One RLC participant: its cached randomized Miller factor
/// `ML(z·S, (V·h⁻¹)·P - R)` and the expectation it must balance.
#[derive(Debug, Clone)]
struct Slot {
    factor: MillerLoopResult,
    expect: Expectation,
}

/// A randomized Miller factor plus the blinder that produced it.
struct RandomizedFactor {
    factor: MillerLoopResult,
    z: Fr,
}

/// Computes one entry's randomized Miller factor, or the error its
/// individual verification would report for structural defects.
fn item_factor(
    item: &BatchItem<'_>,
    rng: &mut dyn RngCore,
) -> Result<RandomizedFactor, VerifyError> {
    let (s, lhs_g2) = McCls::equation_terms(item.public, item.msg, item.sig)?;
    // 64-bit small exponent; zero is excluded.
    let z = Fr::from_u64(rng.next_u64() | 1);
    // ct-ok: z blinds a public linear combination; it guards batch
    // soundness, not key secrecy
    let blinded = ops::mul_g1(&s, &z).to_affine();
    let lines = G2Prepared::from_projective(&lhs_g2);
    // ct-ok: the Miller loop runs over z-blinded *public* signature
    // components on the verifier side; no key material is involved.
    let factor = ops::miller_loop(&[(&blinded, &lines)]);
    Ok(RandomizedFactor { factor, z })
}

/// Builds a cold slot: the entry's factor plus its `z·Q_ID` fold term.
fn cold_slot(
    params: &SystemParams,
    item: &BatchItem<'_>,
    rng: &mut dyn RngCore,
) -> Result<Slot, VerifyError> {
    let rf = item_factor(item, rng)?;
    let q_id = params.hash_identity(item.id);
    // ct-ok: z blinds a public linear combination; it guards batch
    // soundness, not key secrecy
    let fold = ops::mul_g1(&q_id, &rf.z);
    Ok(Slot {
        factor: rf.factor,
        expect: Expectation::FoldQ(fold),
    })
}

/// Builds a warm slot from a verifier's cached `rhs = e(Q_ID, P_pub)`,
/// trading the identity hash and fold term for one `Gt` exponentiation.
fn warm_slot(item: &BatchItem<'_>, rhs: &Gt, rng: &mut dyn RngCore) -> Result<Slot, VerifyError> {
    let rf = item_factor(item, rng)?;
    // ct-ok: z blinds a public linear combination over verifier-side
    // public constants; it guards batch soundness, not key secrecy
    let target = ops::exp_gt(rhs, &rf.z);
    Ok(Slot {
        factor: rf.factor,
        expect: Expectation::Target(target),
    })
}

/// Multiplicative aggregates of a slot set, ready for one closing
/// Miller loop: the factor product, the `Σ z·Q_ID` fold sum, the
/// product of warm targets, and how many slots were folded.
#[derive(Debug, Clone)]
struct Folded {
    product: MillerLoopResult,
    q_sum: G1Projective,
    target: Gt,
    slots: usize,
}

impl Folded {
    fn empty() -> Self {
        Self {
            product: MillerLoopResult::one(),
            q_sum: G1Projective::identity(),
            target: Gt::identity(),
            slots: 0,
        }
    }

    /// Folds one more slot into the running aggregates — plain `Fp12`
    /// and point additions, no pairing work.
    fn fold(&mut self, slot: &Slot) {
        self.slots += 1;
        self.product = self.product.mul(&slot.factor);
        match &slot.expect {
            Expectation::FoldQ(q) => self.q_sum = self.q_sum.add(q),
            Expectation::Target(t) => self.target = self.target.mul(t),
        }
    }
}

/// Folds a slot range into aggregates (zero group operations).
fn fold_slots(slots: &[Slot]) -> Folded {
    let mut folded = Folded::empty();
    for slot in slots {
        folded.fold(slot);
    }
    folded
}

/// Settles folded aggregates into the sub-batch's *defect*: the `Gt`
/// value the RLC equation leaves over, identity iff every participant
/// verifies. This is the streaming flush shape — one closing Miller
/// loop against the prepared `P_pub` and one final exponentiation,
/// regardless of how many entries were folded in (none: the identity).
fn accumulator_flush(params: &SystemParams, folded: &Folded) -> Gt {
    if folded.slots == 0 {
        return Gt::identity();
    }
    let q_neg = folded.q_sum.neg().to_affine();
    // ct-ok: closes a z-blinded public linear combination on the
    // verifier side; no key material is involved.
    let closing = ops::miller_loop(&[(&q_neg, params.prepared_p_pub())]);
    ops::final_exp(&folded.product.mul(&closing)).mul(&folded.target.inverse())
}

/// The defect of a contiguous slot range (fold + settle).
fn fragment_defect(params: &SystemParams, slots: &[Slot]) -> Gt {
    accumulator_flush(params, &fold_slots(slots))
}

/// The base pass of [`batch_verify`]: per-entry structural checks and
/// randomized Miller factors (`n` single-pair loops so the factors stay
/// individually cached for bisection), then one closing Miller loop and
/// one shared final exponentiation — `n + 1` Miller loops total, the
/// same budgeted shape as the pre-redesign all-or-nothing batch.
fn verify_outcome(
    params: &SystemParams,
    items: &[BatchItem<'_>],
    rng: &mut dyn RngCore,
) -> (Vec<Verdict>, Vec<Slot>, Vec<usize>, Gt) {
    let mut verdicts = vec![Verdict::Ok; items.len()];
    let mut slots = Vec::with_capacity(items.len());
    let mut members = Vec::with_capacity(items.len());
    for (idx, item) in items.iter().enumerate() {
        match cold_slot(params, item, rng) {
            Ok(slot) => {
                slots.push(slot);
                members.push(idx);
            }
            Err(err) => {
                if let Some(v) = verdicts.get_mut(idx) {
                    *v = Verdict::Invalid(err);
                }
            }
        }
    }
    let defect = fragment_defect(params, &slots);
    (verdicts, slots, members, defect)
}

/// Sets the verdict of every RLC participant in `members[lo..hi]`.
fn mark_span(verdicts: &mut [Verdict], members: &[usize], lo: usize, hi: usize, verdict: Verdict) {
    for k in lo..hi {
        let Some(&idx) = members.get(k) else {
            continue;
        };
        if let Some(v) = verdicts.get_mut(idx) {
            *v = verdict;
        }
    }
}

/// Panic-free sub-slice: `slots[lo..hi]` without range indexing.
fn sub_slots(slots: &[Slot], lo: usize, hi: usize) -> &[Slot] {
    slots.get(lo..hi).unwrap_or(&[])
}

/// Bisection fallback over a dirty slot range.
///
/// Invariant: `defect` is the (non-identity) defect of `slots[lo..hi]`.
/// The range is split in half; the left half's defect costs one fresh
/// Miller-loop check, and the right half's is derived as
/// `defect · left⁻¹` — defects are multiplicative over disjoint ranges
/// because `Gt` is a group and both the factor product and the fold sum
/// split. Clean halves are marked [`Verdict::Ok`] wholesale; dirty
/// singletons become [`Verdict::Invalid`]. With `b` bad entries out of
/// `n`, at most `O(b·log n)` fresh checks run (≤ `2·log2(n) + 1` extra
/// Miller loops for `b = 1`, asserted by op-counter tests). When
/// `checks_left` runs dry, the remaining suspect range keeps its
/// pre-set [`Verdict::Unchecked`].
#[allow(clippy::too_many_arguments)]
fn isolate(
    params: &SystemParams,
    slots: &[Slot],
    members: &[usize],
    lo: usize,
    hi: usize,
    defect: &Gt,
    verdicts: &mut [Verdict],
    stats: &mut BatchStats,
    depth: u32,
    checks_left: &mut Option<u32>,
) {
    stats.bisection_depth = stats.bisection_depth.max(depth);
    if hi.saturating_sub(lo) <= 1 {
        // A dirty singleton: its z-blinded equation fails, and z is
        // invertible, so the unblinded equation fails too.
        mark_span(
            verdicts,
            members,
            lo,
            hi,
            Verdict::Invalid(VerifyError::PairingMismatch),
        );
        return;
    }
    if let Some(budget) = checks_left {
        if *budget == 0 {
            return; // the suspect range stays Unchecked
        }
        *budget -= 1;
    }
    let mid = lo + (hi - lo) / 2;
    let left = fragment_defect(params, sub_slots(slots, lo, mid));
    stats.miller_loops += 1;
    stats.final_exps += 1;
    stats.isolation_checks += 1;
    // The sibling's defect comes for free: defect(parent) =
    // defect(left) · defect(right) in Gt.
    let right = defect.mul(&left.inverse());
    if left.is_identity() {
        mark_span(verdicts, members, lo, mid, Verdict::Ok);
    } else {
        isolate(
            params,
            slots,
            members,
            lo,
            mid,
            &left,
            verdicts,
            stats,
            depth + 1,
            checks_left,
        );
    }
    if right.is_identity() {
        mark_span(verdicts, members, mid, hi, Verdict::Ok);
    } else {
        isolate(
            params,
            slots,
            members,
            mid,
            hi,
            &right,
            verdicts,
            stats,
            depth + 1,
            checks_left,
        );
    }
}

/// Turns a base pass into the final outcome, running bisection when the
/// batch-level defect is non-trivial.
fn finish_outcome(
    params: &SystemParams,
    mut verdicts: Vec<Verdict>,
    slots: Vec<Slot>,
    members: Vec<usize>,
    defect: Gt,
    isolation_limit: Option<u32>,
) -> BatchOutcome {
    // The closing check runs only when some entry joined the product.
    let closing = u64::from(!slots.is_empty());
    let mut stats = BatchStats {
        items: verdicts.len(),
        miller_loops: slots.len() as u64 + closing,
        final_exps: closing,
        isolation_checks: 0,
        bisection_depth: 0,
    };
    if !defect.is_identity() {
        mark_span(
            &mut verdicts,
            &members,
            0,
            members.len(),
            Verdict::Unchecked,
        );
        let mut checks_left = isolation_limit;
        isolate(
            params,
            &slots,
            &members,
            0,
            slots.len(),
            &defect,
            &mut verdicts,
            &mut stats,
            1,
            &mut checks_left,
        );
    }
    BatchOutcome { verdicts, stats }
}

/// Verifies `n` McCLS signatures with `n + 1` Miller loops and a single
/// final exponentiation on the clean path, using small-exponent
/// randomization so mix-and-match forgeries across the batch fail
/// except with probability `~2^-64` — and, unlike the pre-redesign
/// all-or-nothing check, isolates *which* entries are bad.
///
/// Returns a [`BatchOutcome`] with one [`Verdict`] per input index.
/// Every entry first passes the structural checks of single
/// verification, run by the same code (wrong scheme, identity public
/// key, identity points, non-invertible challenge); an entry that fails
/// them gets that error individually and is excluded from the RLC
/// product. If the remaining product check fails, bisection re-checks
/// cached per-entry Miller factors to pin the bad indices in
/// `O(b·log n)` extra Miller loops. `outcome.all_valid()` is the
/// drop-in replacement for the old `Ok(())`, and `outcome.as_result()`
/// recovers the old error shape.
///
/// An all-[`Verdict::Ok`] outcome implies every entry would
/// individually verify (up to the randomization bound), and every
/// verdict is the one single verification gives — asserted for every
/// batch entry point in `tests/verdict_agreement.rs`.
pub fn batch_verify(
    params: &SystemParams,
    items: &[BatchItem<'_>],
    rng: &mut dyn RngCore,
) -> BatchOutcome {
    let (verdicts, slots, members, defect) = verify_outcome(params, items, rng);
    finish_outcome(params, verdicts, slots, members, defect, None)
}

/// The warm-capable engine behind
/// [`VerifierBackend::authenticate_batch`](crate::VerifierBackend::authenticate_batch):
/// entries whose identity has a cached `(public key, e(Q_ID, P_pub))`
/// snapshot (and whose presented key matches it) skip the identity hash
/// and fold term, paying one `Gt` exponentiation against the cached
/// constant instead.
pub(crate) fn warm_batch_verify(
    params: &SystemParams,
    items: &[BatchItem<'_>],
    rng: &mut dyn RngCore,
    warm: &WarmLookup<'_>,
    isolation_limit: Option<u32>,
) -> BatchOutcome {
    let mut verdicts = vec![Verdict::Ok; items.len()];
    let mut slots = Vec::with_capacity(items.len());
    let mut members = Vec::with_capacity(items.len());
    for (idx, item) in items.iter().enumerate() {
        let built = match warm(item.id) {
            Some((public, rhs)) if public == *item.public => warm_slot(item, &rhs, rng),
            _ => cold_slot(params, item, rng),
        };
        match built {
            Ok(slot) => {
                slots.push(slot);
                members.push(idx);
            }
            Err(err) => {
                if let Some(v) = verdicts.get_mut(idx) {
                    *v = Verdict::Invalid(err);
                }
            }
        }
    }
    let defect = fragment_defect(params, &slots);
    finish_outcome(params, verdicts, slots, members, defect, isolation_limit)
}

/// When a [`BatchAccumulator`] flushes on its own.
#[derive(Debug, Clone, Copy)]
pub struct FlushPolicy {
    /// Flush as soon as this many entries are pending (clamped to at
    /// least one).
    pub max_pending: usize,
    /// Consider the window due once the oldest pending entry has waited
    /// this long (checked via [`BatchAccumulator::is_due`]; the
    /// accumulator has no timer thread of its own).
    pub max_delay: Option<Duration>,
    /// Bisection budget per flush: at most this many isolation
    /// sub-checks when the window's RLC check fails; entries the budget
    /// cannot attribute come back [`Verdict::Unchecked`]. `None` means
    /// isolate exhaustively.
    pub max_isolation_checks: Option<u32>,
}

impl Default for FlushPolicy {
    fn default() -> Self {
        Self {
            max_pending: 64,
            max_delay: None,
            max_isolation_checks: None,
        }
    }
}

/// Streaming batch verification for latency-bounded hot paths.
///
/// Entries are folded into a running Miller-loop product as they are
/// absorbed (each costs its own single-pair Miller loop, paid at
/// absorb time), so flushing costs **one** closing Miller loop and
/// **one** final exponentiation no matter how many entries are pending
/// — the `[batch.accumulator_flush]` budgeted shape. Per-entry factors
/// are retained until the flush so a failing window can still bisect
/// down to the bad indices under the policy's isolation budget.
///
/// # Examples
///
/// ```
/// use mccls_core::{BatchAccumulator, BatchItem, CertificatelessScheme, FlushPolicy, McCls};
/// use mccls_rng::SeedableRng;
///
/// let mut rng = mccls_rng::rngs::StdRng::seed_from_u64(3);
/// let scheme = McCls::new();
/// let (params, kgc) = scheme.setup(&mut rng);
/// let partial = scheme.extract_partial_private_key(&kgc, b"node");
/// let keys = scheme.generate_key_pair(&params, &mut rng);
/// let sig = scheme.sign(&params, b"node", &partial, &keys, b"pkt", &mut rng);
///
/// let mut acc = BatchAccumulator::new(params, FlushPolicy::default());
/// let item = BatchItem { id: b"node", public: &keys.public, msg: b"pkt", sig: &sig };
/// assert!(acc.absorb(&item, &mut rng).is_none(), "below the size budget");
/// let outcome = acc.flush();
/// assert!(outcome.all_valid());
/// ```
#[derive(Debug)]
pub struct BatchAccumulator {
    params: SystemParams,
    policy: FlushPolicy,
    folded: Folded,
    slots: Vec<Slot>,
    members: Vec<usize>,
    verdicts: Vec<Verdict>,
    opened_at: Option<Instant>,
}

impl BatchAccumulator {
    /// Creates an empty accumulator, preparing `P_pub`'s Miller-loop
    /// lines up front so the first flush is as cheap as the rest.
    pub fn new(params: SystemParams, policy: FlushPolicy) -> Self {
        let _ = params.prepared_p_pub();
        let policy = FlushPolicy {
            max_pending: policy.max_pending.max(1),
            ..policy
        };
        Self {
            params,
            policy,
            folded: Folded::empty(),
            slots: Vec::new(),
            members: Vec::new(),
            verdicts: Vec::new(),
            opened_at: None,
        }
    }

    /// Entries absorbed since the last flush.
    pub fn pending(&self) -> usize {
        self.verdicts.len()
    }

    /// Whether the pending window has hit its size or latency budget.
    /// Size-triggered flushes happen inside [`BatchAccumulator::absorb`]
    /// automatically; latency-triggered ones are the caller's loop:
    /// `if acc.is_due() { acc.flush() }`.
    pub fn is_due(&self) -> bool {
        if self.verdicts.len() >= self.policy.max_pending {
            return true;
        }
        match (self.opened_at, self.policy.max_delay) {
            (Some(opened), Some(limit)) => opened.elapsed() >= limit,
            _ => false,
        }
    }

    /// Folds one entry into the pending window, paying its single-pair
    /// Miller loop now. Returns the window's outcome when this entry
    /// filled it to `max_pending`; otherwise `None`.
    pub fn absorb(&mut self, item: &BatchItem<'_>, rng: &mut dyn RngCore) -> Option<BatchOutcome> {
        let built = cold_slot(&self.params, item, rng);
        self.admit_entry(built)
    }

    /// Like [`BatchAccumulator::absorb`], but reuses a verifier's cached
    /// `rhs = e(Q_ID, P_pub)` for this identity (one `Gt` exponentiation
    /// instead of an identity hash plus fold term).
    pub fn absorb_warm(
        &mut self,
        item: &BatchItem<'_>,
        rhs: &Gt,
        rng: &mut dyn RngCore,
    ) -> Option<BatchOutcome> {
        let built = warm_slot(item, rhs, rng);
        self.admit_entry(built)
    }

    fn admit_entry(&mut self, built: Result<Slot, VerifyError>) -> Option<BatchOutcome> {
        if self.opened_at.is_none() {
            self.opened_at = Some(Instant::now());
        }
        let idx = self.verdicts.len();
        match built {
            Ok(slot) => {
                self.folded.fold(&slot);
                self.slots.push(slot);
                self.members.push(idx);
                self.verdicts.push(Verdict::Ok);
            }
            Err(err) => self.verdicts.push(Verdict::Invalid(err)),
        }
        if self.verdicts.len() >= self.policy.max_pending {
            Some(self.flush())
        } else {
            None
        }
    }

    /// Settles the pending window: one closing Miller loop and one final
    /// exponentiation if any entry joined the product, then bisection
    /// (under the policy's isolation budget) if the window is dirty.
    /// Resets the accumulator.
    pub fn flush(&mut self) -> BatchOutcome {
        let slots = std::mem::take(&mut self.slots);
        let members = std::mem::take(&mut self.members);
        let verdicts = std::mem::take(&mut self.verdicts);
        let folded = std::mem::replace(&mut self.folded, Folded::empty());
        self.opened_at = None;
        let defect = accumulator_flush(&self.params, &folded);
        finish_outcome(
            &self.params,
            verdicts,
            slots,
            members,
            defect,
            self.policy.max_isolation_checks,
        )
    }
}

/// Precomputed McCLS signing material: everything message-independent.
///
/// The McCLS token structure splits perfectly: `S = x⁻¹·D_ID` is fixed
/// per key pair, and `R = (r - x)·P` depends only on the nonce — so both
/// can be prepared offline: `S` with one constant-time G1 ladder per key
/// pair, each `R` with one constant-time comb over the generator's
/// table. The online phase is one hash and one field multiplication
/// (`V = h·r`), with **zero group operations**, which is exactly what a
/// CPS node on a deadline wants.
#[derive(Debug)]
pub struct OfflineSigner {
    s: G1Projective,
    public: UserPublicKey,
    /// (nonce r, R = (r - x)·P) pairs, each usable once.
    tokens: Vec<(Fr, G2Projective)>,
}

impl OfflineSigner {
    /// Precomputes `n` signing tokens for the given key material.
    ///
    /// Each token's `R` is one constant-time comb over the generator's
    /// shared table (`g2_generator_table`), so `_params` is not read:
    /// `P` is the same for every KGC.
    pub fn precompute(
        _params: &SystemParams,
        partial: &PartialPrivateKey,
        keys: &UserKeyPair,
        n: usize,
        rng: &mut dyn RngCore,
    ) -> Self {
        // Same secret-scalar discipline as the online sign path: Fermat
        // inverse (x is nonzero by construction), the ct ladder for S
        // and the ct comb over the generator's table for each R.
        let x_inv = keys.secret.invert_ct();
        let s = ops::mul_g1_ct(&partial.d, &x_inv);
        let tokens = (0..n)
            .map(|_| {
                let r = Fr::random_nonzero(rng);
                let big_r = ops::mul_g2_fixed(g2_generator_table(), &r.sub(&keys.secret));
                (r, big_r)
            })
            .collect();
        Self {
            s,
            public: keys.public,
            tokens,
        }
    }

    /// Remaining one-time tokens.
    pub fn remaining(&self) -> usize {
        self.tokens.len()
    }

    /// Consumes one token to sign `msg`; `None` when exhausted.
    ///
    /// Costs one hash-to-scalar and one field multiplication — no
    /// pairings, no scalar multiplications (asserted by tests).
    pub fn sign_online(&mut self, msg: &[u8]) -> Option<Signature> {
        let (r, big_r) = self.tokens.pop()?;
        let h = McCls::challenge(msg, &big_r, &self.public);
        Some(Signature::McCls {
            v: h.mul(&r),
            s: self.s,
            r: big_r,
        })
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::unreachable)] // tests may panic freely
mod tests {
    use super::*;
    use crate::scheme::CertificatelessScheme;
    use crate::McCls;
    use mccls_rng::SeedableRng;

    struct World {
        params: SystemParams,
        entries: Vec<(Vec<u8>, UserKeyPair, Vec<u8>, Signature)>,
        partials: Vec<PartialPrivateKey>,
    }

    fn world(n: usize, seed: u64) -> World {
        let mut rng = mccls_rng::rngs::StdRng::seed_from_u64(seed);
        let scheme = McCls::new();
        let (params, kgc) = scheme.setup(&mut rng);
        let mut entries = Vec::new();
        let mut partials = Vec::new();
        for i in 0..n {
            let id = format!("node-{i}").into_bytes();
            let partial = kgc.extract_partial_private_key(&id);
            let keys = scheme.generate_key_pair(&params, &mut rng);
            let msg = format!("message #{i}").into_bytes();
            let sig = scheme.sign(&params, &id, &partial, &keys, &msg, &mut rng);
            entries.push((id, keys, msg, sig));
            partials.push(partial);
        }
        World {
            params,
            entries,
            partials,
        }
    }

    fn items(w: &World) -> Vec<BatchItem<'_>> {
        w.entries
            .iter()
            .map(|(id, keys, msg, sig)| BatchItem {
                id,
                public: &keys.public,
                msg,
                sig,
            })
            .collect()
    }

    #[test]
    fn valid_batch_verifies() {
        let w = world(5, 1);
        let mut rng = mccls_rng::rngs::StdRng::seed_from_u64(2);
        let outcome = batch_verify(&w.params, &items(&w), &mut rng);
        assert!(outcome.all_valid());
        assert_eq!(outcome.as_result(), Ok(()));
        assert_eq!(outcome.verdicts(), &[Verdict::Ok; 5]);
        assert_eq!(outcome.stats().isolation_checks, 0);
        assert_eq!(outcome.stats().bisection_depth, 0);
    }

    #[test]
    fn empty_batch_is_vacuously_true() {
        let w = world(0, 1);
        let mut rng = mccls_rng::rngs::StdRng::seed_from_u64(2);
        let outcome = batch_verify(&w.params, &[], &mut rng);
        assert!(outcome.all_valid());
        assert_eq!(outcome.as_result(), Ok(()));
        assert!(outcome.verdicts().is_empty());
        drop(w);
    }

    #[test]
    fn one_bad_message_is_isolated_not_poisonous() {
        let w = world(4, 3);
        let mut batch = items(&w);
        batch[2].msg = b"tampered";
        let mut rng = mccls_rng::rngs::StdRng::seed_from_u64(4);
        let outcome = batch_verify(&w.params, &batch, &mut rng);
        assert!(!outcome.all_valid());
        assert_eq!(outcome.as_result(), Err(VerifyError::PairingMismatch));
        assert_eq!(outcome.invalid_indices(), vec![2]);
        assert_eq!(
            outcome.verdicts(),
            &[
                Verdict::Ok,
                Verdict::Ok,
                Verdict::Invalid(VerifyError::PairingMismatch),
                Verdict::Ok,
            ]
        );
        assert!(outcome.unchecked_indices().is_empty());
    }

    #[test]
    fn swapped_signatures_are_both_isolated() {
        // Signature of entry 0 presented for entry 1 and vice versa: the
        // per-item equations are broken even though the multiset of
        // signatures is genuine — the randomizers must catch both.
        let w = world(2, 5);
        let mut batch = items(&w);
        batch.swap(0, 1);
        let batch = vec![
            BatchItem {
                sig: batch[1].sig,
                ..batch[0].clone()
            },
            BatchItem {
                sig: batch[0].sig,
                ..batch[1].clone()
            },
        ];
        let mut rng = mccls_rng::rngs::StdRng::seed_from_u64(6);
        let outcome = batch_verify(&w.params, &batch, &mut rng);
        assert_eq!(outcome.invalid_indices(), vec![0, 1]);
    }

    #[test]
    fn clean_batch_uses_n_plus_one_miller_loops_worth_of_pairings() {
        let w = world(6, 7);
        let batch = items(&w);
        let mut rng = mccls_rng::rngs::StdRng::seed_from_u64(8);
        let (outcome, counts) = ops::measure(|| batch_verify(&w.params, &batch, &mut rng));
        assert!(outcome.all_valid());
        // The batch goes through the raw miller_loop/final_exp wrappers
        // rather than ops::pair, so the Table 1 pairing column stays
        // untouched while the engine counters expose the real cost:
        // n + 1 Miller loops and exactly one final exponentiation.
        assert_eq!(counts.pairings, 0);
        assert_eq!(counts.miller_loops as usize, batch.len() + 1);
        assert_eq!(counts.final_exps, 1, "single shared final exponentiation");
        assert_eq!(counts.g1_muls as usize, 2 * batch.len());
        assert_eq!(counts.g2_muls as usize, batch.len());
        // The outcome's own accounting agrees with the ops counters.
        assert_eq!(outcome.stats().miller_loops, counts.miller_loops);
        assert_eq!(outcome.stats().final_exps, counts.final_exps);
    }

    #[test]
    fn non_mccls_signatures_are_rejected_individually() {
        let w = world(2, 9);
        let alien = Signature::Yhg {
            u: G1Projective::generator(),
            v: G1Projective::generator(),
        };
        let mut batch = items(&w);
        batch[0].sig = &alien;
        let mut rng = mccls_rng::rngs::StdRng::seed_from_u64(10);
        let outcome = batch_verify(&w.params, &batch, &mut rng);
        assert_eq!(
            outcome.verdicts().first(),
            Some(&Verdict::Invalid(VerifyError::WrongScheme))
        );
        // The structurally bad entry does not poison its neighbour.
        assert_eq!(outcome.verdicts().get(1), Some(&Verdict::Ok));
        assert_eq!(outcome.as_result(), Err(VerifyError::WrongScheme));
    }

    #[test]
    fn a_batch_without_participants_does_no_pairing_work() {
        let w = world(2, 9);
        let alien = Signature::Yhg {
            u: G1Projective::generator(),
            v: G1Projective::generator(),
        };
        let mut batch = items(&w);
        for item in &mut batch {
            item.sig = &alien;
        }
        let mut rng = mccls_rng::rngs::StdRng::seed_from_u64(10);
        let (outcome, counts) = ops::measure(|| batch_verify(&w.params, &batch, &mut rng));
        assert_eq!(
            outcome.verdicts(),
            &[Verdict::Invalid(VerifyError::WrongScheme); 2]
        );
        assert_eq!((counts.miller_loops, counts.final_exps), (0, 0));
        let stats = outcome.stats();
        assert_eq!((stats.miller_loops, stats.final_exps), (0, 0));

        let mut acc = BatchAccumulator::new(w.params.clone(), FlushPolicy::default());
        assert!(acc.absorb(&batch[0], &mut rng).is_none());
        let (outcome, counts) = ops::measure(|| acc.flush());
        assert_eq!(
            outcome.verdicts(),
            &[Verdict::Invalid(VerifyError::WrongScheme)]
        );
        assert_eq!((counts.miller_loops, counts.final_exps), (0, 0));
        let stats = outcome.stats();
        assert_eq!((stats.miller_loops, stats.final_exps), (0, 0));
    }

    #[test]
    fn accumulator_flushes_on_size_budget() {
        let w = world(3, 16);
        let batch = items(&w);
        let mut rng = mccls_rng::rngs::StdRng::seed_from_u64(17);
        let mut acc = BatchAccumulator::new(
            w.params.clone(),
            FlushPolicy {
                max_pending: 3,
                ..FlushPolicy::default()
            },
        );
        assert!(acc.absorb(&batch[0], &mut rng).is_none());
        assert!(acc.absorb(&batch[1], &mut rng).is_none());
        assert_eq!(acc.pending(), 2);
        assert!(!acc.is_due());
        let outcome = acc.absorb(&batch[2], &mut rng).expect("size budget hit");
        assert!(outcome.all_valid());
        assert_eq!(outcome.stats().items, 3);
        assert_eq!(acc.pending(), 0, "flush resets the window");
    }

    #[test]
    fn accumulator_flush_costs_one_miller_loop_and_one_final_exp() {
        let w = world(4, 18);
        let batch = items(&w);
        let mut rng = mccls_rng::rngs::StdRng::seed_from_u64(19);
        let mut acc = BatchAccumulator::new(w.params.clone(), FlushPolicy::default());
        for item in &batch {
            assert!(acc.absorb(item, &mut rng).is_none());
        }
        let (outcome, counts) = ops::measure(|| acc.flush());
        assert!(outcome.all_valid());
        assert_eq!(counts.miller_loops, 1, "streaming flush: 1 closing loop");
        assert_eq!(counts.final_exps, 1);
        assert_eq!(counts.pairings, 0);
    }

    #[test]
    fn accumulator_latency_budget_is_observable() {
        let w = world(1, 20);
        let batch = items(&w);
        let mut rng = mccls_rng::rngs::StdRng::seed_from_u64(21);
        let mut acc = BatchAccumulator::new(
            w.params.clone(),
            FlushPolicy {
                max_delay: Some(Duration::ZERO),
                ..FlushPolicy::default()
            },
        );
        assert!(!acc.is_due(), "empty window is never due");
        assert!(acc.absorb(&batch[0], &mut rng).is_none());
        assert!(acc.is_due(), "zero latency budget: due immediately");
        assert!(acc.flush().all_valid());
        assert!(!acc.is_due(), "flush rearms the window");
    }

    #[test]
    fn exhausted_isolation_budget_reports_unchecked() {
        let w = world(4, 22);
        let mut batch = items(&w);
        batch[1].msg = b"tampered";
        let mut rng = mccls_rng::rngs::StdRng::seed_from_u64(23);
        let mut acc = BatchAccumulator::new(
            w.params.clone(),
            FlushPolicy {
                max_isolation_checks: Some(0),
                ..FlushPolicy::default()
            },
        );
        for item in &batch {
            assert!(acc.absorb(item, &mut rng).is_none());
        }
        let outcome = acc.flush();
        assert!(!outcome.all_valid());
        // Zero isolation checks allowed: the whole dirty window stays
        // unattributed rather than falsely accused.
        assert_eq!(outcome.unchecked_indices(), vec![0, 1, 2, 3]);
        assert!(outcome.invalid_indices().is_empty());
        assert_eq!(outcome.as_result(), Err(VerifyError::PairingMismatch));
    }

    #[test]
    fn offline_signer_produces_verifying_signatures() {
        let mut rng = mccls_rng::rngs::StdRng::seed_from_u64(11);
        let scheme = McCls::new();
        let (params, kgc) = scheme.setup(&mut rng);
        let partial = kgc.extract_partial_private_key(b"node");
        let keys = scheme.generate_key_pair(&params, &mut rng);
        let mut signer = OfflineSigner::precompute(&params, &partial, &keys, 3, &mut rng);
        assert_eq!(signer.remaining(), 3);
        for i in 0..3u8 {
            let msg = [i; 4];
            let sig = signer.sign_online(&msg).expect("token available");
            assert!(scheme
                .verify(&params, b"node", &keys.public, &msg, &sig)
                .is_ok());
        }
        assert_eq!(signer.remaining(), 0);
        assert!(signer.sign_online(b"out of tokens").is_none());
    }

    #[test]
    fn online_phase_uses_no_group_operations() {
        let mut rng = mccls_rng::rngs::StdRng::seed_from_u64(12);
        let scheme = McCls::new();
        let (params, kgc) = scheme.setup(&mut rng);
        let partial = kgc.extract_partial_private_key(b"node");
        let keys = scheme.generate_key_pair(&params, &mut rng);
        let mut signer = OfflineSigner::precompute(&params, &partial, &keys, 1, &mut rng);
        let (sig, counts) = ops::measure(|| signer.sign_online(b"deadline message"));
        assert!(sig.is_some());
        assert_eq!(
            counts,
            ops::OpCounts::default(),
            "online signing is group-op free"
        );
    }

    #[test]
    fn offline_tokens_are_single_use_but_s_is_shared() {
        // Two signatures from the same signer share S (it is
        // message-independent by construction) but differ in (V, R).
        let mut rng = mccls_rng::rngs::StdRng::seed_from_u64(13);
        let scheme = McCls::new();
        let (params, kgc) = scheme.setup(&mut rng);
        let partial = kgc.extract_partial_private_key(b"node");
        let keys = scheme.generate_key_pair(&params, &mut rng);
        let mut signer = OfflineSigner::precompute(&params, &partial, &keys, 2, &mut rng);
        let a = signer.sign_online(b"m1").unwrap();
        let b = signer.sign_online(b"m2").unwrap();
        let (Signature::McCls { s: sa, r: ra, .. }, Signature::McCls { s: sb, r: rb, .. }) =
            (&a, &b)
        else {
            unreachable!()
        };
        assert_eq!(sa, sb);
        assert_ne!(ra, rb);
    }

    #[test]
    fn batch_and_individual_verification_agree() {
        let w = world(5, 14);
        let scheme = McCls::new();
        let mut rng = mccls_rng::rngs::StdRng::seed_from_u64(15);
        let outcome = batch_verify(&w.params, &items(&w), &mut rng);
        for (verdict, (id, keys, msg, sig)) in outcome.verdicts().iter().zip(&w.entries) {
            let individual = scheme.verify(&w.params, id, &keys.public, msg, sig);
            assert_eq!(
                matches!(verdict, Verdict::Ok),
                individual.is_ok(),
                "per-index verdict must match one-by-one verification"
            );
        }
        assert!(outcome.all_valid());
        let _ = &w.partials;
    }
}
