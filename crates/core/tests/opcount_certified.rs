//! Runtime check of the operation budgets in `opcount-budgets.toml`.
//!
//! Each budgeted path runs once under the thread-local counters of
//! `mccls_core::ops`, and every counter must equal its budget exactly:
//! an extra pairing fails here, and so does a budget left loose. Each
//! verify path also runs on a tampered message, so a rejection pays
//! exactly what an acceptance does. The `table1` bench bin reads the
//! same file and refuses to print a row whose counts disagree.

// Tests may panic freely; that is how they fail.
#![allow(clippy::expect_used, clippy::unwrap_used, clippy::panic)]

use mccls_core::{
    all_schemes, batch_verify, ops, BatchItem, CertificatelessScheme, Kgc, ShardedVerifier,
    Signature, UserKeyPair, Verifier, VerifyError,
};
use mccls_rng::rngs::StdRng;
use mccls_rng::SeedableRng;
use mccls_xtask::opcount::{parse_budgets, BudgetEntry, Budgets};

fn committed_budgets() -> Budgets {
    let root = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let text = std::fs::read_to_string(root.join("opcount-budgets.toml"))
        .expect("opcount-budgets.toml is committed at the workspace root");
    parse_budgets(&text).expect("committed budget file parses")
}

/// Asserts measured counts equal a budget entry evaluated at batch
/// size `n` (0 for the non-batch entries, where `n` never appears).
fn assert_matches(entry: &BudgetEntry, counts: &ops::OpCounts, n: u64, what: &str) {
    let measured = [
        counts.pairings,
        counts.miller_loops,
        counts.final_exps,
        counts.g1_muls,
        counts.g2_muls,
        counts.gt_exps,
        counts.hashes_to_g1,
        counts.fp_inversions,
    ];
    for (slot, name) in mccls_xtask::opcount::COUNTERS.iter().enumerate() {
        let certified = entry.budget.0[slot].eval(n);
        assert_eq!(
            measured[slot], certified,
            "{what}: measured {name} diverges from certified budget `{}`",
            entry.key
        );
    }
}

/// A message no signature in this file signs: every verify path must
/// reject it at the same cost as an accepted one.
const TAMPERED: &[u8] = b"route reply: 10.0.0.7 via 2 hops";

struct Signer {
    id: Vec<u8>,
    keys: UserKeyPair,
    sig_input: Vec<u8>,
}

fn setup(scheme: &dyn CertificatelessScheme, seed: u64) -> (Kgc, Signer) {
    let mut rng = StdRng::seed_from_u64(seed);
    let (params, kgc) = scheme.setup(&mut rng);
    let keys = scheme.generate_key_pair(&params, &mut rng);
    (
        kgc,
        Signer {
            id: b"alice@manet".to_vec(),
            keys,
            sig_input: b"route reply: 10.0.0.7 via 3 hops".to_vec(),
        },
    )
}

#[test]
fn every_scheme_measures_exactly_its_certified_budget() {
    let budgets = committed_budgets();
    for scheme in all_schemes() {
        let key = scheme.name().to_lowercase();
        let (kgc, signer) = setup(scheme.as_ref(), 0xC0DE);
        let params = kgc.params();
        let partial = scheme.extract_partial_private_key(&kgc, &signer.id);
        let mut rng = StdRng::seed_from_u64(7);

        let (sig, sign_counts) = ops::measure(|| {
            scheme.sign(
                params,
                &signer.id,
                &partial,
                &signer.keys,
                &signer.sig_input,
                &mut rng,
            )
        });
        let sign_entry = budgets
            .get(&format!("{key}.sign"))
            .unwrap_or_else(|| panic!("budget `{key}.sign` exists"));
        assert_matches(sign_entry, &sign_counts, 0, scheme.name());

        let (res, verify_counts) = ops::measure(|| {
            scheme.verify(
                params,
                &signer.id,
                &signer.keys.public,
                &signer.sig_input,
                &sig,
            )
        });
        assert_eq!(res, Ok(()), "{} verification", scheme.name());
        let verify_entry = budgets
            .get(&format!("{key}.verify"))
            .unwrap_or_else(|| panic!("budget `{key}.verify` exists"));
        assert_matches(verify_entry, &verify_counts, 0, scheme.name());

        let (res, tampered_counts) =
            ops::measure(|| scheme.verify(params, &signer.id, &signer.keys.public, TAMPERED, &sig));
        assert_eq!(res, Err(VerifyError::PairingMismatch), "{}", scheme.name());
        assert_matches(
            verify_entry,
            &tampered_counts,
            0,
            &format!("{} rejection", scheme.name()),
        );
    }
}

#[test]
fn mccls_meets_its_table1_row() {
    // The paper's headline claim, asserted directly rather than via
    // the budget file: signing costs two scalar multiplications and
    // zero pairings.
    let budgets = committed_budgets();
    let sign = budgets.get("mccls.sign").expect("mccls.sign entry");
    let eval = |slot: usize| sign.budget.0[slot].eval(0);
    assert_eq!(eval(0), 0, "sign pairings");
    assert_eq!(eval(1), 0, "sign Miller loops");
    assert_eq!(eval(3) + eval(4), 2, "sign scalar multiplications");

    // Warm verification costs one pairing: one Miller loop plus one
    // final exponentiation, with the peer constant cached.
    let warm = budgets
        .get("verifier.verify")
        .expect("verifier.verify entry");
    let eval = |slot: usize| warm.budget.0[slot].eval(0);
    assert_eq!(eval(0), 1, "warm verify pairings");
    assert_eq!(eval(1), 1, "warm verify Miller loops");
    assert_eq!(eval(2), 1, "warm verify final exponentiations");
}

#[test]
fn stateful_verifier_paths_measure_their_certified_budgets() {
    let budgets = committed_budgets();
    let scheme = mccls_core::McCls::new();
    let (kgc, signer) = setup(&scheme, 0xBEEF);
    let params = kgc.params().clone();
    let partial = scheme.extract_partial_private_key(&kgc, &signer.id);
    let mut rng = StdRng::seed_from_u64(11);
    let sig = scheme.sign(
        &params,
        &signer.id,
        &partial,
        &signer.keys,
        &signer.sig_input,
        &mut rng,
    );

    let mut verifier = Verifier::new(params);
    let (res, cold_counts) =
        ops::measure(|| verifier.register_peer(&signer.id, signer.keys.public));
    assert_eq!(res, Ok(()));
    let cold = budgets
        .get("verifier.register_peer")
        .expect("verifier.register_peer entry");
    assert_matches(cold, &cold_counts, 0, "cold registration");

    let (res, warm_counts) = ops::measure(|| verifier.verify(&signer.id, &signer.sig_input, &sig));
    assert_eq!(res, Ok(()));
    let warm = budgets
        .get("verifier.verify")
        .expect("verifier.verify entry");
    assert_matches(warm, &warm_counts, 0, "warm verification");

    let (res, tampered_counts) = ops::measure(|| verifier.verify(&signer.id, TAMPERED, &sig));
    assert_eq!(res, Err(VerifyError::PairingMismatch));
    assert_matches(warm, &tampered_counts, 0, "warm rejection");
}

#[test]
fn sharded_registry_paths_measure_their_certified_budgets() {
    let budgets = committed_budgets();
    let scheme = mccls_core::McCls::new();
    let (kgc, signer) = setup(&scheme, 0xCAFE);
    let params = kgc.params().clone();
    let partial = scheme.extract_partial_private_key(&kgc, &signer.id);
    let mut rng = StdRng::seed_from_u64(13);
    let sig = scheme.sign(
        &params,
        &signer.id,
        &partial,
        &signer.keys,
        &signer.sig_input,
        &mut rng,
    );

    let registry = ShardedVerifier::new(params);
    let (res, cold_counts) =
        ops::measure(|| registry.register_peer(&signer.id, signer.keys.public));
    assert_eq!(res, Ok(()));
    let cold = budgets
        .get("registry.register_peer")
        .expect("registry.register_peer entry");
    assert_matches(cold, &cold_counts, 0, "sharded cold registration");

    let (res, warm_counts) = ops::measure(|| registry.verify(&signer.id, &signer.sig_input, &sig));
    assert_eq!(res, Ok(()));
    let warm = budgets
        .get("registry.verify")
        .expect("registry.verify entry");
    assert_matches(warm, &warm_counts, 0, "sharded warm verification");

    let (res, tampered_counts) = ops::measure(|| registry.verify(&signer.id, TAMPERED, &sig));
    assert_eq!(res, Err(VerifyError::PairingMismatch));
    assert_matches(warm, &tampered_counts, 0, "sharded warm rejection");

    // Sharding must not change the arithmetic: the registry's warm and
    // cold budgets are the single-threaded verifier's, counter for
    // counter.
    for (reg, single) in [
        ("registry.verify", "verifier.verify"),
        ("registry.register_peer", "verifier.register_peer"),
    ] {
        let r = budgets.get(reg).expect("registry entry");
        let s = budgets.get(single).expect("verifier entry");
        for slot in 0..mccls_xtask::opcount::COUNTERS.len() {
            assert_eq!(
                r.budget.0[slot].eval(0),
                s.budget.0[slot].eval(0),
                "`{reg}` and `{single}` diverge in slot {slot}"
            );
        }
    }
}

#[test]
fn table_builders_measure_their_certified_inversion_budget() {
    // The counted table builders promise one shared base-field
    // inversion per build (Montgomery's trick), whatever the window
    // count.
    let budgets = committed_budgets();
    use mccls_pairing::{G1Projective, G2Projective};

    let (_, g1_counts) = ops::measure(|| ops::g1_table(&G1Projective::generator()));
    let g1 = budgets
        .get("tables.g1_table")
        .expect("tables.g1_table entry");
    assert_matches(g1, &g1_counts, 0, "G1 table build");

    let (_, g2_counts) = ops::measure(|| ops::g2_table(&G2Projective::generator()));
    let g2 = budgets
        .get("tables.g2_table")
        .expect("tables.g2_table entry");
    assert_matches(g2, &g2_counts, 0, "G2 table build");
}

#[test]
fn batch_verification_measures_its_symbolic_budget() {
    let budgets = committed_budgets();
    let scheme = mccls_core::McCls::new();
    let mut rng = StdRng::seed_from_u64(0xFACE);
    let (params, kgc) = scheme.setup(&mut rng);

    const N: usize = 5;
    let ids: Vec<Vec<u8>> = (0..N).map(|i| format!("node-{i}").into_bytes()).collect();
    let msgs: Vec<Vec<u8>> = (0..N).map(|i| format!("packet {i}").into_bytes()).collect();
    let mut keys = Vec::new();
    let mut sigs: Vec<Signature> = Vec::new();
    for i in 0..N {
        let partial = scheme.extract_partial_private_key(&kgc, &ids[i]);
        let kp = scheme.generate_key_pair(&params, &mut rng);
        sigs.push(scheme.sign(&params, &ids[i], &partial, &kp, &msgs[i], &mut rng));
        keys.push(kp);
    }
    let items: Vec<BatchItem<'_>> = (0..N)
        .map(|i| BatchItem {
            id: &ids[i],
            public: &keys[i].public,
            msg: &msgs[i],
            sig: &sigs[i],
        })
        .collect();

    let (res, counts) = ops::measure(|| batch_verify(&params, &items, &mut rng));
    assert!(res.all_valid());
    let entry = budgets
        .get("batch.verify_outcome")
        .expect("batch.verify_outcome entry");
    assert_matches(entry, &counts, N as u64, "batch verification");
    // The symbolic shape itself: n+1 Miller loops, one shared final
    // exponentiation, and no calls through the pairing frontend.
    assert_eq!(counts.miller_loops as usize, N + 1);
    assert_eq!(counts.final_exps, 1);
    assert_eq!(counts.pairings, 0);

    // The streaming flush shape: per-entry Miller loops are paid at
    // absorb time, so settling the window is one closing Miller loop
    // plus the shared final exponentiation regardless of size.
    let mut acc = mccls_core::BatchAccumulator::new(params, mccls_core::FlushPolicy::default());
    for item in &items {
        assert!(acc.absorb(item, &mut rng).is_none());
    }
    let (outcome, flush_counts) = ops::measure(|| acc.flush());
    assert!(outcome.all_valid());
    let flush_entry = budgets
        .get("batch.accumulator_flush")
        .expect("batch.accumulator_flush entry");
    assert_matches(flush_entry, &flush_counts, 0, "streaming flush");
}
