//! The paper's motivating scenario: a cyber-physical monitoring field.
//!
//! Sensor nodes stream readings to a sink over an ad hoc network. Each
//! report is authenticated with McCLS; the sink batch-verifies a window
//! of reports at a fraction of the one-by-one pairing cost, and a node
//! under a real-time deadline signs with precomputed offline tokens
//! (zero group operations in the online phase).
//!
//! Run with: `cargo run --release --example cps_monitoring`

// Demo code: panicking on a broken invariant is the right failure mode.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::time::Instant;

use mccls::cls::{batch_verify, BatchItem, CertificatelessScheme, McCls, OfflineSigner, Verifier};
use mccls_rng::SeedableRng;

fn main() {
    let mut rng = mccls_rng::rngs::StdRng::seed_from_u64(11);
    let scheme = McCls::new();
    let (params, kgc) = scheme.setup(&mut rng);

    // A field of ten sensors, each with its own certificateless keys.
    let sensors: Vec<_> = (0..10)
        .map(|i| {
            let id = format!("sensor-{i:02}").into_bytes();
            let partial = scheme.extract_partial_private_key(&kgc, &id);
            let keys = scheme.generate_key_pair(&params, &mut rng);
            (id, partial, keys)
        })
        .collect();

    // Each sensor signs one reading.
    let readings: Vec<(Vec<u8>, Vec<u8>)> = sensors
        .iter()
        .enumerate()
        .map(|(i, (id, _, _))| {
            (
                id.clone(),
                format!("t=17:03:0{i} temp={}C", 20 + i).into_bytes(),
            )
        })
        .collect();
    let sigs: Vec<_> = sensors
        .iter()
        .zip(&readings)
        .map(|((id, partial, keys), (_, msg))| {
            scheme.sign(&params, id, partial, keys, msg, &mut rng)
        })
        .collect();

    // Sink, path A: verify one by one (with the pairing cache warm).
    let mut verifier = Verifier::new(params.clone());
    for ((id, _, keys), ((_, msg), sig)) in sensors.iter().zip(readings.iter().zip(&sigs)) {
        assert!(verifier.verify_with_key(id, &keys.public, msg, sig).is_ok());
    }
    let t = Instant::now();
    for ((id, _, keys), ((_, msg), sig)) in sensors.iter().zip(readings.iter().zip(&sigs)) {
        assert!(verifier.verify_with_key(id, &keys.public, msg, sig).is_ok());
    }
    let one_by_one = t.elapsed();

    // Sink, path B: batch-verify the whole window.
    let batch: Vec<BatchItem> = sensors
        .iter()
        .zip(readings.iter().zip(&sigs))
        .map(|((id, _, keys), ((_, msg), sig))| BatchItem {
            id,
            public: &keys.public,
            msg,
            sig,
        })
        .collect();
    let t = Instant::now();
    assert!(batch_verify(&params, &batch, &mut rng).all_valid());
    let batched = t.elapsed();
    println!(
        "sink verified {} reports: {one_by_one:?} one-by-one (cached) vs {batched:?} batched",
        sensors.len()
    );

    // A tampered reading no longer poisons the batch: the bisection
    // fallback pins the exact index while the rest stay accepted.
    let mut poisoned = batch.clone();
    poisoned[4].msg = b"t=17:03:04 temp=9999C";
    let outcome = batch_verify(&params, &poisoned, &mut rng);
    assert!(!outcome.all_valid());
    assert_eq!(outcome.invalid_indices(), vec![4]);
    println!(
        "tampered reading isolated at index 4 in {} bisection checks.",
        outcome.stats().isolation_checks
    );

    // Deadline path: offline tokens make the online signature free.
    let (id, partial, keys) = &sensors[0];
    let mut signer = OfflineSigner::precompute(&params, partial, keys, 100, &mut rng);
    let t = Instant::now();
    let mut last = None;
    for i in 0..100u32 {
        last = signer.sign_online(&i.to_be_bytes());
    }
    let online = t.elapsed();
    let sig = last.expect("tokens remained");
    assert!(scheme
        .verify(&params, id, &keys.public, &99u32.to_be_bytes(), &sig)
        .is_ok());
    println!(
        "100 online signatures in {online:?} ({:?}/signature) — no group operations.",
        online / 100
    );
}
