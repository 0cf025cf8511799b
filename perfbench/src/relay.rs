//! `relay_auth`: an AODV relay's per-hop authentication (the paper's
//! per-hop cost and Table 1's Sign and Verify columns).
//!
//! Two workers share one [`ShardedVerifier`] in a closed loop: each takes
//! its next packet only after returning the last verdict. A packet
//! arrives as wire bytes, is decoded with `Signature::from_bytes`, is
//! verified with the key it carries (`verify_with_key`) and, when valid
//! and forwardable, is re-signed with the relay's own key
//! (`McCls::sign`). Only a fixed share of packets is forwardable — the
//! sign-to-verify ratio the simulator measures on the paper scenario
//! (see [`FORWARD_BLOCK`]): most flood copies are duplicates, verified
//! and then dropped.
//!
//! Peers are drawn with Zipf popularity from a population eight times
//! the registry's capacity, so a few percent of packets are first
//! contact (a registration pairing, a hash-to-G1 and a clock eviction)
//! while the rest hit the cache. One packet in a hundred carries a
//! tampered message, and no (message, signature) pair repeats in a run.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use mccls_core::ops::{self, OpCounts};
use mccls_core::{
    CertificatelessScheme, McCls, OfflineSigner, PartialPrivateKey, ShardedVerifier, Signature,
    SystemParams, UserKeyPair, UserPublicKey, Verifier, VerifierBackend, VerifyError,
};

use crate::gen::{self, Popularity};
use crate::stats::{group_rates, Samples};
use crate::trace::{self, Span, Tracer};
use crate::{calib, parallel_map, replay};

/// Worker threads in the closed loop.
pub const WORKERS: usize = 2;
/// Registry shape the benchmark pins: shards × peers per shard.
pub const SHARDS: usize = 4;
/// Peers per shard (see [`SHARDS`]).
pub const SHARD_CAPACITY: usize = 32;
/// Peer population, eight times the registry's capacity.
pub const PEERS: usize = 1024;
/// Zipf exponent of peer popularity.
pub const ZIPF_EXPONENT: f64 = 1.5;
/// One packet per block of this many carries a tampered message.
pub const TAMPER_BLOCK: usize = 100;
/// One packet per block of this many is forwardable. The secured
/// simulator makes one signature per 8.05 it checks on the paper
/// scenario (McCLS, no attack, the five paper speeds × five seeds:
/// 17,399 made, 140,015 checked), so a relay re-signs one packet in
/// eight; `forward_share_matches_the_simulated_ratio` re-measures it.
pub const FORWARD_BLOCK: usize = 8;
/// Pool packets generated per measured second: 2.5 times the rate
/// measured on a 2-vCPU host (about 290 packets/s), so a change has to
/// speed the relay up 2.5x before the pool runs out — and running out
/// is a run error, never a silently shorter run.
pub const POOL_PER_SECOND: f64 = 725.0;
/// Routing payload length in bytes.
const MSG_LEN: usize = 64;
/// Offline signing tokens precomputed per key in one call.
const TOKEN_CHUNK: usize = 128;
/// Completions per group in the throughput.
const RATE_GROUP: usize = 64;
/// Re-signed packets kept (one in 16) for the ground-truth check.
const SIGN_CHECKS: usize = 64;

/// A peer as the relay sees it: identity and the key its packets carry.
pub struct Peer {
    /// Identity bytes.
    pub id: Vec<u8>,
    /// The public key carried in its packets.
    pub public: UserPublicKey,
}

/// One input packet.
pub struct Packet {
    /// Index into [`Relay::peers`].
    pub peer: usize,
    /// The signed (or, when tampered, altered) payload.
    pub msg: Vec<u8>,
    /// The signature's wire bytes.
    pub wire: Vec<u8>,
    /// Whether the payload was altered after signing.
    pub tampered: bool,
    /// Whether a valid packet is forwarded (and so re-signed).
    pub forward: bool,
}

/// The relay's own signing identity.
pub struct Signer {
    /// Identity bytes.
    pub id: Vec<u8>,
    /// KGC-issued partial private key.
    pub partial: PartialPrivateKey,
    /// The relay's key pair.
    pub keys: UserKeyPair,
}

/// Everything set up before the first timed packet.
pub struct Relay {
    /// System parameters.
    pub params: SystemParams,
    /// The shared registry under test.
    pub registry: ShardedVerifier,
    /// Peers that appear in the pool, most popular first.
    pub peers: Vec<Peer>,
    /// The input pool, consumed in order.
    pub packets: Vec<Packet>,
    /// The relay's own key.
    pub me: Signer,
    cursor: AtomicUsize,
}

/// A signed pool entry: index, message, signature wire bytes.
type SignedPacket = (usize, Vec<u8>, Vec<u8>);

/// Peer key material, shared by the signing chunks of one peer.
struct PeerKeys {
    id: Vec<u8>,
    partial: PartialPrivateKey,
    keys: UserKeyPair,
}

impl Relay {
    /// Builds the pool of `pool_len` packets for `seed`: KGC, the drawn
    /// peers' keys, every packet signed (online/offline signing, one
    /// token per packet), the registry pre-warmed with the most popular
    /// peers, and one warm-up verification.
    pub fn build(seed: u64, pool_len: usize) -> Self {
        let scheme = McCls::new();
        let (params, kgc) = scheme.setup(&mut gen::stream(seed, "relay.kgc", 0));
        let popularity = Popularity::new(PEERS, ZIPF_EXPONENT);
        let mut draws = gen::stream(seed, "relay.popularity", 0);
        let ranks: Vec<usize> = (0..pool_len).map(|_| popularity.draw(&mut draws)).collect();
        let tampered = gen::one_per_block(
            pool_len,
            TAMPER_BLOCK,
            &mut gen::stream(seed, "relay.tamper", 0),
        );
        let forward = gen::one_per_block(
            pool_len,
            FORWARD_BLOCK,
            &mut gen::stream(seed, "relay.forward", 0),
        );

        // Only peers the pool draws need keys; BTreeMap keeps them in
        // rank (popularity) order.
        let mut by_rank: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (i, &rank) in ranks.iter().enumerate() {
            by_rank.entry(rank).or_default().push(i);
        }
        let drawn: Vec<usize> = by_rank.keys().copied().collect();
        let keys: Vec<PeerKeys> = parallel_map(&drawn, WORKERS, |&rank| {
            let id = format!("peer-{rank:05}").into_bytes();
            let partial = kgc.extract_partial_private_key(&id);
            let keys = scheme
                .generate_key_pair(&params, &mut gen::stream(seed, "relay.peer", rank as u64));
            PeerKeys { id, partial, keys }
        });
        let chunks: Vec<(usize, Vec<usize>)> = by_rank
            .values()
            .enumerate()
            .flat_map(|(slot, idxs)| idxs.chunks(TOKEN_CHUNK).map(move |c| (slot, c.to_vec())))
            .collect();
        let signed: Vec<Vec<SignedPacket>> = parallel_map(&chunks, WORKERS, |(slot, idxs)| {
            let k = &keys[*slot];
            let mut rng = gen::stream(seed, "relay.tokens", idxs[0] as u64);
            let mut signer =
                OfflineSigner::precompute(&params, &k.partial, &k.keys, idxs.len(), &mut rng);
            idxs.iter()
                .map(|&i| {
                    let msg = gen::message(seed, "relay.msg", i, MSG_LEN);
                    let sig = signer.sign_online(&msg).expect("one token per packet");
                    (i, msg, sig.to_bytes())
                })
                .collect()
        });
        let mut slots: Vec<Option<Packet>> = (0..pool_len).map(|_| None).collect();
        for ((slot, _), rows) in chunks.iter().zip(signed) {
            for (i, mut msg, wire) in rows {
                if tampered[i] {
                    msg[0] ^= 0x20;
                }
                slots[i] = Some(Packet {
                    peer: *slot,
                    msg,
                    wire,
                    tampered: tampered[i],
                    forward: forward[i],
                });
            }
        }
        let packets = slots
            .into_iter()
            .map(|p| p.expect("every packet signed"))
            .collect();

        let registry = ShardedVerifier::with_shape(params.clone(), SHARDS, SHARD_CAPACITY);
        let peers: Vec<Peer> = keys
            .into_iter()
            .map(|k| Peer {
                id: k.id,
                public: k.keys.public,
            })
            .collect();
        for peer in peers.iter().take(SHARDS * SHARD_CAPACITY) {
            registry
                .register_peer(&peer.id, peer.public)
                .expect("generated keys are honest");
        }

        let me_id = b"relay-self".to_vec();
        let mut rng = gen::stream(seed, "relay.self", 0);
        let me = Signer {
            partial: kgc.extract_partial_private_key(&me_id),
            keys: scheme.generate_key_pair(&params, &mut rng),
            id: me_id,
        };
        // Warm-up outside the pool: fills the lazily built generator
        // tables and exponent caches before anything is timed.
        let sig = scheme.sign(&params, &me.id, &me.partial, &me.keys, b"warm-up", &mut rng);
        assert_eq!(
            scheme.verify(&params, &me.id, &me.keys.public, b"warm-up", &sig),
            Ok(()),
            "warm-up signature must verify"
        );
        Self {
            params,
            registry,
            peers,
            packets,
            me,
            cursor: AtomicUsize::new(0),
        }
    }

    /// Packets consumed so far.
    pub fn consumed(&self) -> usize {
        self.cursor.load(Ordering::Relaxed).min(self.packets.len())
    }
}

/// What one closed-loop segment measured.
#[derive(Default)]
pub struct RelayRun {
    /// Decode + verify of packets from cached peers, ms.
    pub warm: Samples,
    /// Decode + verify of first-contact packets, ms.
    pub first: Samples,
    /// `McCls::sign` of forwarded packets, ms.
    pub sign: Samples,
    /// Packets completed.
    pub packets: usize,
    /// Packets whose verdict was wrong, plus re-signatures that failed
    /// the ground-truth check.
    pub failed: usize,
    /// Tampered packets seen.
    pub tampered: usize,
    /// Wall-clock seconds from start until every worker returned.
    pub elapsed_s: f64,
    /// Every completion: seconds of the worker's busy time since the
    /// segment started (waits for a quiet host left out).
    pub done: Vec<f64>,
    /// See [`RelayRun::packets_per_s`].
    pub rate: f64,
    /// Whether the pool ran out before the deadline.
    pub exhausted: bool,
    /// `ops::OpCounts` of the first request of each class.
    pub class_ops: BTreeMap<&'static str, OpCounts>,
    /// Replays whose verdict agreed / disagreed with the library's.
    pub replay_agree: usize,
    /// See [`RelayRun::replay_agree`].
    pub replay_disagree: usize,
    /// Recorded spans (traced segments only).
    pub spans: Vec<Span>,
    signed_out: Vec<(Vec<u8>, Signature)>,
}

impl RelayRun {
    /// Packets completed per second by all workers: the sum over
    /// workers of each one's fastest group of [`RATE_GROUP`] completions.
    pub fn packets_per_s(&self) -> f64 {
        self.rate
    }

    /// Share of packets that were first contact.
    pub fn first_contact_share(&self) -> f64 {
        self.first.len() as f64 / self.packets.max(1) as f64
    }

    fn merge(&mut self, mut other: RelayRun) {
        self.warm.append(&mut other.warm);
        self.first.append(&mut other.first);
        self.sign.append(&mut other.sign);
        self.packets += other.packets;
        self.failed += other.failed;
        self.tampered += other.tampered;
        self.exhausted |= other.exhausted;
        self.done.append(&mut other.done);
        for (class, counts) in other.class_ops {
            self.class_ops.entry(class).or_insert(counts);
        }
        self.replay_agree += other.replay_agree;
        self.replay_disagree += other.replay_disagree;
        self.spans.append(&mut other.spans);
        self.signed_out.append(&mut other.signed_out);
    }
}

/// Runs the closed loop with `workers` threads until `budget` elapses,
/// continuing the pool where the previous segment stopped. With `trace`
/// set, spans are recorded and every `replay_every`-th packet is
/// replayed through the layers below.
pub fn run(
    relay: &Relay,
    seed: u64,
    workers: usize,
    budget: Duration,
    trace: bool,
    epoch: Instant,
    replay_every: usize,
) -> RelayRun {
    let start = Instant::now();
    let deadline = start + budget;
    let outs: Vec<RelayRun> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                scope.spawn(move || {
                    let mut tracer = Tracer::new(trace, epoch, trace::fresh_base());
                    let mut out =
                        worker(relay, seed, w, start, deadline, &mut tracer, replay_every);
                    out.spans = tracer.into_spans();
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("relay worker panicked"))
            .collect()
    });
    let mut total = RelayRun {
        elapsed_s: start.elapsed().as_secs_f64(),
        ..RelayRun::default()
    };
    for out in outs {
        total.rate += group_rates(&out.done, RATE_GROUP)
            .max()
            .unwrap_or(out.packets as f64 / total.elapsed_s);
        total.merge(out);
    }
    total.failed += check_resigned(relay, &total.signed_out);
    total
}

/// Ground truth for the relay's own output: every kept re-signature
/// must verify under the relay's key. Returns the number that do not.
fn check_resigned(relay: &Relay, signed: &[(Vec<u8>, Signature)]) -> usize {
    let mut verifier = Verifier::new(relay.params.clone());
    verifier
        .register_peer(&relay.me.id, relay.me.keys.public)
        .expect("the relay's key is honest");
    signed
        .iter()
        .filter(|(msg, sig)| verifier.verify(&relay.me.id, msg, sig).is_err())
        .count()
}

fn worker(
    relay: &Relay,
    seed: u64,
    w: usize,
    start: Instant,
    deadline: Instant,
    tr: &mut Tracer,
    replay_every: usize,
) -> RelayRun {
    let scheme = McCls::new();
    let mut nonces = gen::stream(seed, "relay.nonce", relay.consumed() as u64 + w as u64);
    let scratch = tr
        .enabled()
        .then(|| ShardedVerifier::with_shape(relay.params.clone(), SHARDS, SHARD_CAPACITY));
    let mut out = RelayRun::default();
    let mut deadline = deadline;
    let mut waited = Duration::ZERO;
    while Instant::now() < deadline {
        let i = relay.cursor.fetch_add(1, Ordering::Relaxed);
        let Some(pkt) = relay.packets.get(i) else {
            out.exhausted = true;
            break;
        };
        let req = i as u64;
        let peer = &relay.peers[pkt.peer];
        let pause = calib::settle();
        deadline += pause;
        waited += pause;
        let root = tr.open("relay.packet", None, req);
        let t0 = Instant::now();
        let sig = tr.time("relay.decode", Some(root), req, || {
            Signature::from_bytes(&pkt.wire)
        });
        let span = tr.open("relay.verify", Some(root), req);
        let (verdict, counts) = match &sig {
            Some(sig) => ops::measure(|| {
                relay
                    .registry
                    .verify_with_key(&peer.id, &peer.public, &pkt.msg, sig)
            }),
            None => (Err(VerifyError::BadSignatureEncoding), OpCounts::default()),
        };
        tr.close(span);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        // The class comes from the call's own op counts: a first contact
        // hashes the identity to G1 and pays the registration pairing.
        let first = counts.hashes_to_g1 > 0;
        if first {
            tr.rename(span, "relay.verify_first");
        }
        let class = if first { "first_contact" } else { "warm" };
        out.class_ops.entry(class).or_insert(counts);
        if first {
            out.first.push(ms);
        } else {
            out.warm.push(ms);
        }
        out.packets += 1;
        out.tampered += usize::from(pkt.tampered);
        let expected = if pkt.tampered {
            Err(VerifyError::PairingMismatch)
        } else {
            Ok(())
        };
        if verdict != expected {
            out.failed += 1;
        }
        if verdict.is_ok() && pkt.forward {
            let t1 = Instant::now();
            let (resigned, counts) = tr.time("relay.sign", Some(root), req, || {
                ops::measure(|| {
                    scheme.sign(
                        &relay.params,
                        &relay.me.id,
                        &relay.me.partial,
                        &relay.me.keys,
                        &pkt.msg,
                        &mut nonces,
                    )
                })
            });
            out.sign.push(t1.elapsed().as_secs_f64() * 1e3);
            out.class_ops.entry("sign").or_insert(counts);
            if i.is_multiple_of(16) && out.signed_out.len() < SIGN_CHECKS {
                out.signed_out.push((pkt.msg.clone(), resigned));
            }
        }
        tr.close(root);
        out.done.push((start.elapsed() - waited).as_secs_f64());

        if tr.enabled() && replay_every > 0 && i.is_multiple_of(replay_every) {
            if let (Some(sig), Some((_, rhs))) = (&sig, relay.registry.warm_entry(&peer.id)) {
                match replay::verify(tr, req, &pkt.msg, &peer.public, sig, &rhs, verdict.is_ok()) {
                    Some(true) => out.replay_agree += 1,
                    Some(false) => out.replay_disagree += 1,
                    None => {}
                }
            }
            if let Some(scratch) = &scratch {
                if first {
                    replay::register(tr, req, &relay.params, scratch, &peer.id, &peer.public);
                }
            }
            if pkt.forward {
                replay::sign(
                    tr,
                    req,
                    &relay.params,
                    &relay.me.partial,
                    &relay.me.keys,
                    &pkt.msg,
                    &mut nonces,
                );
            }
        }
    }
    out
}

/// Pool length for a measurement of `seconds` at up to
/// `packets_per_s`, never below `floor`.
pub fn pool_len(seconds: f64, packets_per_s: f64, floor: usize) -> usize {
    ((seconds * packets_per_s).ceil() as usize).max(floor)
}

/// Uncontended single-threaded timings over up to `n` honest packets
/// already consumed: `Verifier::verify` (warm), `ShardedVerifier::verify`
/// (the same plus shard and lock), and `McCls::sign`. Returns how many
/// of those verifications wrongly rejected.
pub fn uncontended(relay: &Relay, seed: u64, n: usize, tr: &mut Tracer) -> usize {
    let scheme = McCls::new();
    let mut verifier = Verifier::new(relay.params.clone());
    let scratch = ShardedVerifier::with_shape(relay.params.clone(), SHARDS, SHARD_CAPACITY);
    let mut rng = gen::stream(seed, "relay.uncontended", 0);
    let mut failed = 0;
    let sample = relay.packets[..relay.consumed()]
        .iter()
        .enumerate()
        .filter(|(_, p)| !p.tampered)
        .take(n);
    for (i, pkt) in sample {
        let req = i as u64;
        let peer = &relay.peers[pkt.peer];
        let Some(sig) = Signature::from_bytes(&pkt.wire) else {
            continue;
        };
        let registered = verifier.register_peer(&peer.id, peer.public).is_ok()
            && scratch.register_peer(&peer.id, peer.public).is_ok();
        if !registered {
            continue;
        }
        let single = tr.time("verify.warm", None, req, || {
            verifier.verify(&peer.id, &pkt.msg, &sig)
        });
        let sharded = tr.time("registry.verify", None, req, || {
            scratch.verify(&peer.id, &pkt.msg, &sig)
        });
        failed += usize::from(single.is_err()) + usize::from(sharded.is_err());
        tr.time("mccls.sign", None, req, || {
            scheme.sign(
                &relay.params,
                &relay.me.id,
                &relay.me.partial,
                &relay.me.keys,
                &pkt.msg,
                &mut rng,
            )
        });
    }
    failed
}

#[cfg(test)]
mod tests {
    use super::*;
    use mccls_aodv::config::Protocol;
    use mccls_aodv::experiment::{run_seed, scenario, AttackKind, PAPER_SPEEDS};
    use mccls_aodv::{Metrics, Network};

    #[test]
    fn forward_share_matches_the_simulated_ratio() {
        let mut pooled = Metrics::default();
        for speed in PAPER_SPEEDS {
            for trial in 0..5 {
                let seed = run_seed(2008, speed, trial);
                let mut cfg = scenario(Protocol::McClsSecured, AttackKind::None, speed, seed, None);
                cfg.crypto_cost = crate::city::pinned_cost();
                pooled.merge(&Network::new(cfg).run());
            }
        }
        let checked_per_made = pooled.signatures_checked as f64 / pooled.signatures_made as f64;
        assert_eq!(
            checked_per_made.round() as usize,
            FORWARD_BLOCK,
            "{checked_per_made}"
        );
    }
}
