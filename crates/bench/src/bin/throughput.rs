//! Multi-threaded verification throughput harness for the sharded
//! registry (`ShardedVerifier`).
//!
//! Scoped worker threads share one registry and drive its two lock
//! paths, each a section of the registry's private `Shard` type:
//!
//! * **hot** — warm `verify` calls: a read-lock copy-out of the cached
//!   `(public key, e(Q_ID, P_pub))` pair, then the Miller loop and
//!   final exponentiation *outside* the guard;
//! * **churn** — repeated `register_peer` calls: the pairing is paid
//!   before the write lock, whose critical section is only the map
//!   insert plus a possible clock eviction.
//!
//! Each family runs at 1, 2, and 4 threads and reports nanoseconds per
//! operation plus derived verifications/sec, next to the host's
//! `available_parallelism`. The numbers are gated against the committed
//! `BENCH_throughput.json` with the same >10x median budget as
//! `BENCH_pairing.json`. Thread-count *scaling* is deliberately not
//! asserted: CI machines may expose a single core, where scaling is
//! noise — the committed baseline is the regression signal.
//!
//! Usage: `cargo run -p mccls-bench --release --bin throughput
//! [-- --smoke] [--update-baseline] [--baseline <path>]`.

// A panic in a benchmark binary is a loud, correct failure.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::process::ExitCode;

use mccls_bench::baseline::{self, Entry, Mode};
use mccls_bench::sampler;
use mccls_core::{ops, CertificatelessScheme, McCls, ShardedVerifier, Signature, UserPublicKey};
use mccls_rng::rngs::StdRng;
use mccls_rng::SeedableRng;

/// Schema tag of `BENCH_throughput.json`.
const SCHEMA: &str = "mccls-bench/throughput/v1";

/// Worker counts exercised per family.
const THREADS: [usize; 3] = [1, 2, 4];

struct Peer {
    id: Vec<u8>,
    public: UserPublicKey,
    msg: Vec<u8>,
    sig: Signature,
}

struct World {
    registry: ShardedVerifier,
    peers: Vec<Peer>,
}

fn build_world(peers: usize) -> World {
    let mut rng = StdRng::seed_from_u64(0x7412_0CAB);
    let scheme = McCls::new();
    let (params, kgc) = scheme.setup(&mut rng);
    let registry = ShardedVerifier::new(params.clone());
    let peers = (0..peers)
        .map(|i| {
            let id = format!("tp-node-{i}").into_bytes();
            let partial = kgc.extract_partial_private_key(&id);
            let keys = scheme.generate_key_pair(&params, &mut rng);
            let msg = format!("routing payload {i}").into_bytes();
            let sig = scheme.sign(&params, &id, &partial, &keys, &msg, &mut rng);
            registry
                .register_peer(&id, keys.public)
                .expect("benchmark keys are honest");
            Peer {
                id,
                public: keys.public,
                msg,
                sig,
            }
        })
        .collect();
    World { registry, peers }
}

/// The budget contract, re-asserted at runtime on the main
/// thread before any timing: the sharded warm path must cost exactly
/// what `[registry.verify]` in `opcount-budgets.toml` promises.
fn assert_op_counts(world: &World) {
    let p = &world.peers[0];
    let (res, counts) = ops::measure(|| world.registry.verify(&p.id, &p.msg, &p.sig));
    assert_eq!(res, Ok(()), "warm sharded verify must accept");
    assert_eq!(counts.pairings, 1, "sharded verify must cost one pairing");
    assert_eq!(counts.miller_loops, 1, "one Miller loop");
    assert_eq!(counts.final_exps, 1, "one final exponentiation");
    println!(
        "op-counts: sharded warm verify = {} Miller loop(s) + {} final exp(s)  [OK]",
        counts.miller_loops, counts.final_exps
    );
}

/// Runs `total_ops` operations split across `threads` scoped workers
/// and returns the sampler's median wall-clock nanoseconds per
/// operation.
fn measure(samples: usize, threads: usize, total_ops: usize, op: &(dyn Fn(usize) + Sync)) -> f64 {
    sampler::median_ns(samples, total_ops as f64, || {
        std::thread::scope(|scope| {
            for w in 0..threads {
                scope.spawn(move || {
                    let mut i = w;
                    while i < total_ops {
                        op(i);
                        i += threads;
                    }
                });
            }
        })
    })
}

fn main() -> ExitCode {
    let mode = Mode::from_args("BENCH_throughput.json");
    println!("throughput harness ({} mode)\n", mode.label());

    let world = build_world(32);
    assert_op_counts(&world);
    println!();
    // The hot_t*/churn_t* rows only read against the cores that ran
    // them: on one core, more threads cannot beat hot_t1.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    let samples = if mode.smoke { 3 } else { 7 };
    let ops_per_run = if mode.smoke { 48 } else { 192 };
    let registry = &world.registry;
    let peers = &world.peers;

    let mut current: Vec<Entry> = Vec::new();
    for t in THREADS {
        let ns = measure(samples, t, ops_per_run, &|i| {
            let p = &peers[i % peers.len()];
            assert_eq!(registry.verify(&p.id, &p.msg, &p.sig), Ok(()));
        });
        println!(
            "throughput/hot_t{t}: {ns:>12.0} ns/verify  ({:>8.0} verifications/sec aggregate, \
             {cores} core(s))",
            1e9 / ns
        );
        current.push(Entry {
            id: format!("throughput/hot_t{t}"),
            median_ns: ns,
        });
    }
    for t in THREADS {
        let ns = measure(samples, t, ops_per_run, &|i| {
            let p = &peers[i % peers.len()];
            registry
                .register_peer(&p.id, p.public)
                .expect("benchmark keys are honest");
        });
        println!(
            "throughput/churn_t{t}: {ns:>10.0} ns/register  ({:>8.0} registrations/sec aggregate, \
             {cores} core(s))",
            1e9 / ns
        );
        current.push(Entry {
            id: format!("throughput/churn_t{t}"),
            median_ns: ns,
        });
    }

    baseline::gate(SCHEMA, &mode, &current)
}
