//! Multi-threaded stress test for the sharded peer registry.
//!
//! Scoped workers hammer `register_peer`/`verify`/`verify_with_key`
//! across all shards while churn forces clock eviction, under a
//! wall-clock watchdog. The registry's private `Shard` type keeps every
//! guard inside one map access, and in debug builds asserts on each
//! section that the thread holds no other shard lock and runs no
//! counted group operation, so a nested acquisition fails instead of
//! hanging; the watchdog catches any deadlock those assertions miss.
//! Every concurrent verdict is also cross-checked bit-for-bit against
//! the single-threaded [`Verifier`], and residency must never exceed
//! the configured bound.
//!
//! The CI nightly job additionally runs this file under
//! ThreadSanitizer (`RUSTFLAGS=-Zsanitizer=thread`), which turns the
//! registry's atomics and lock use into checked happens-before claims.

// Tests may panic freely; that is how they fail.
#![allow(clippy::expect_used, clippy::unwrap_used, clippy::panic)]

use std::sync::mpsc;
use std::time::Duration;

use mccls_core::{
    CertificatelessScheme, McCls, ShardedVerifier, Signature, SystemParams, UserKeyPair, Verifier,
    VerifyError,
};
use mccls_rng::rngs::StdRng;
use mccls_rng::SeedableRng;

/// Generous bound on the whole stress run: a deadlock hangs forever, a
/// healthy run finishes in a few seconds even under TSan.
const WATCHDOG: Duration = Duration::from_secs(120);

const WORKERS: usize = 8;
const OPS_PER_WORKER: usize = 150;

struct Peer {
    id: Vec<u8>,
    keys: UserKeyPair,
    good: Signature,
    msg: Vec<u8>,
}

fn build_world(peers: usize) -> (SystemParams, Vec<Peer>) {
    let mut rng = StdRng::seed_from_u64(0x57AE55);
    let scheme = McCls::new();
    let (params, kgc) = scheme.setup(&mut rng);
    let world = (0..peers)
        .map(|i| {
            let id = format!("stress-peer-{i}").into_bytes();
            let keys = scheme.generate_key_pair(&params, &mut rng);
            let partial = kgc.extract_partial_private_key(&id);
            let msg = format!("route update {i}").into_bytes();
            let good = scheme.sign(&params, &id, &partial, &keys, &msg, &mut rng);
            Peer {
                id,
                keys,
                good,
                msg,
            }
        })
        .collect();
    (params, world)
}

/// Runs `body` on a helper thread and fails the test if it does not
/// finish inside [`WATCHDOG`] — the net under the `Shard` assertions.
fn with_deadlock_watchdog(body: impl FnOnce() + Send + 'static) {
    let (done, woken) = mpsc::channel();
    let runner = std::thread::spawn(move || {
        body();
        // A closed channel (panicking body) is reported by join below.
        let _ = done.send(());
    });
    match woken.recv_timeout(WATCHDOG) {
        Ok(()) => runner.join().expect("stress body panicked"),
        Err(_) => panic!(
            "stress run exceeded {WATCHDOG:?}: likely deadlock — a registry \
             section waited on a lock its own thread holds, or two threads \
             wait on each other"
        ),
    }
}

#[test]
fn concurrent_verdicts_match_the_single_threaded_verifier() {
    let (params, peers) = build_world(24);
    with_deadlock_watchdog(move || {
        // The single-threaded oracle: same params, every peer warm.
        let mut oracle = Verifier::new(params.clone());
        for p in &peers {
            oracle.register_peer(&p.id, p.keys.public).unwrap();
        }
        let registry = ShardedVerifier::new(params);
        for p in &peers {
            registry.register_peer(&p.id, p.keys.public).unwrap();
        }

        // Every (peer, tampered-message) verdict the workers will see,
        // decided up front by the oracle.
        let expected: Vec<(Result<(), VerifyError>, Result<(), VerifyError>)> = peers
            .iter()
            .map(|p| {
                (
                    oracle.verify(&p.id, &p.msg, &p.good),
                    oracle.verify(&p.id, b"tampered payload", &p.good),
                )
            })
            .collect();

        std::thread::scope(|scope| {
            for w in 0..WORKERS {
                let registry = &registry;
                let peers = &peers;
                let expected = &expected;
                scope.spawn(move || {
                    for op in 0..OPS_PER_WORKER {
                        let i = (op * WORKERS + w * 7) % peers.len();
                        let p = &peers[i];
                        let (want_good, want_bad) = &expected[i];
                        // Interleave re-registration (write locks) with
                        // verification (read locks) on the same shards.
                        match op % 3 {
                            0 => {
                                registry.register_peer(&p.id, p.keys.public).unwrap();
                            }
                            1 => {
                                assert_eq!(
                                    registry.verify_with_key(
                                        &p.id,
                                        &p.keys.public,
                                        &p.msg,
                                        &p.good
                                    ),
                                    Ok(())
                                );
                            }
                            _ => {}
                        }
                        assert_eq!(&registry.verify(&p.id, &p.msg, &p.good), want_good);
                        assert_eq!(
                            &registry.verify(&p.id, b"tampered payload", &p.good),
                            want_bad
                        );
                    }
                });
            }
        });
    });
}

#[test]
fn concurrent_churn_never_exceeds_the_residency_bound() {
    // A registry far smaller than the working set: every worker batch
    // forces clock eviction, and the bound must hold at every probe.
    let (params, peers) = build_world(16);
    with_deadlock_watchdog(move || {
        let registry = ShardedVerifier::with_shape(params, 2, 3);
        let bound = registry.capacity();
        assert_eq!(bound, 6);
        std::thread::scope(|scope| {
            for w in 0..WORKERS {
                let registry = &registry;
                let peers = &peers;
                scope.spawn(move || {
                    for op in 0..OPS_PER_WORKER {
                        let p = &peers[(op + w * 5) % peers.len()];
                        registry.register_peer(&p.id, p.keys.public).unwrap();
                        assert!(
                            registry.peer_count() <= bound,
                            "residency exceeded the configured bound under churn"
                        );
                        // Verification of evicted peers must degrade to
                        // UnknownPeer, never to a wrong verdict.
                        match registry.verify(&p.id, &p.msg, &p.good) {
                            Ok(()) | Err(VerifyError::UnknownPeer) => {}
                            other => panic!("unexpected verdict under churn: {other:?}"),
                        }
                    }
                });
            }
        });
        assert!(registry.peer_count() <= bound);
        assert!(registry.peer_count() >= 1);
    });
}

#[test]
fn panicking_worker_does_not_disrupt_service() {
    // One worker unwinds mid-run while others keep using the same
    // shard. Guards never escape the registry's own bookkeeping (the
    // private `Shard` type keeps each inside one closure), so a
    // client panic can never poison a shard lock from outside — and a
    // poisoned lock from a hypothetical internal panic is recovered via
    // `PoisonError::into_inner` (see the module docs on `registry`).
    // Either way, one crashed thread must not become a mesh-wide
    // denial of service.
    let (params, peers) = build_world(4);
    with_deadlock_watchdog(move || {
        let registry = ShardedVerifier::with_shape(params, 1, 8);
        for p in &peers {
            registry.register_peer(&p.id, p.keys.public).unwrap();
        }
        std::thread::scope(|scope| {
            let crasher = scope.spawn(|| {
                registry
                    .register_peer(&peers[0].id, peers[0].keys.public)
                    .unwrap();
                panic!("deliberate: crash-isolation probe");
            });
            // Joining inside the scope consumes the panic so the scope
            // itself does not re-raise it.
            assert!(crasher.join().is_err(), "crasher thread must panic");
            for p in &peers {
                assert_eq!(registry.verify(&p.id, &p.msg, &p.good), Ok(()));
            }
        });
        assert!(registry.knows_peer(&peers[0].id));
    });
}
