//! Cross-path verdict agreement: every verify entry point gives an input
//! the verdict `McCls::verify` gives it, the same `Ok` or the same
//! `VerifyError`.
//!
//! The corpus is the one `known_answers.rs` hashes, rebuilt from the
//! same seed: sixteen valid signatures, each also under a tampered
//! message and a wrong identity; for `node-0` the malformed inputs
//! `V+1`, `S+G`, `2R`, identity `S`, identity `R` (with the honest `S`
//! and with `S = h·D_ID`), an identity public key and the Type II
//! forgery; any point the decoder sweep accepts, as `node-0`'s `S` or
//! `R`. A YHG signature joins them. Every signature is round-tripped
//! through `Signature::from_bytes` first.
//!
//! The paths are `Verifier::verify_with_key`,
//! `ShardedVerifier::verify_with_key`, `batch_verify`, both registries'
//! `verify_batch` with the peer registered, and `BatchAccumulator`'s
//! `absorb` and `absorb_warm` followed by `flush`. Each entry goes
//! through them alone, and all entries go through the batch paths as
//! one mixed batch. The Type II forgery must be `Ok` on every path: it
//! is the scheme's known break.

#![allow(clippy::expect_used, clippy::unreachable)]

use mccls_core::security::mccls_type2_forgery;
use mccls_core::{
    batch_verify, h2_scalar, BatchAccumulator, BatchItem, CertificatelessScheme, FlushPolicy,
    McCls, ShardedVerifier, Signature, SystemParams, UserPublicKey, Verdict, Verifier,
    VerifierBackend, VerifyError,
};
use mccls_pairing::{Fr, G1Affine, G1Projective, G2Affine, G2Projective};
use mccls_rng::rngs::StdRng;
use mccls_rng::SeedableRng;

struct Entry {
    name: String,
    id: Vec<u8>,
    public: UserPublicKey,
    msg: Vec<u8>,
    sig: Signature,
}

impl Entry {
    fn item(&self) -> BatchItem<'_> {
        BatchItem {
            id: &self.id,
            public: &self.public,
            msg: &self.msg,
            sig: &self.sig,
        }
    }

    fn single_path_verdict(&self, params: &SystemParams) -> Verdict {
        verdict_of(McCls::new().verify(params, &self.id, &self.public, &self.msg, &self.sig))
    }
}

fn verdict_of(result: Result<(), VerifyError>) -> Verdict {
    match result {
        Ok(()) => Verdict::Ok,
        Err(err) => Verdict::Invalid(err),
    }
}

fn corpus() -> (SystemParams, Vec<Entry>) {
    let mut rng = StdRng::seed_from_u64(20080617);
    let scheme = McCls::new();
    let (params, kgc) = scheme.setup(&mut rng);
    let mut entries = Vec::new();
    let mut entry =
        |name: String, id: &[u8], public: UserPublicKey, msg: &[u8], sig: &Signature| {
            let sig =
                Signature::from_bytes(&sig.to_bytes()).expect("every corpus signature decodes");
            entries.push(Entry {
                name,
                id: id.to_vec(),
                public,
                msg: msg.to_vec(),
                sig,
            });
        };
    let mut first = None;
    for i in 0..16 {
        let id = format!("node-{i}").into_bytes();
        let msg = format!("message #{i}").into_bytes();
        let partial = kgc.extract_partial_private_key(&id);
        let keys = scheme.generate_key_pair(&params, &mut rng);
        let sig = scheme.sign(&params, &id, &partial, &keys, &msg, &mut rng);
        entry(format!("node-{i} valid"), &id, keys.public, &msg, &sig);
        entry(
            format!("node-{i} tampered"),
            &id,
            keys.public,
            b"tampered",
            &sig,
        );
        entry(
            format!("node-{i} wrong id"),
            b"stranger",
            keys.public,
            &msg,
            &sig,
        );
        first.get_or_insert((id, msg, keys.public, sig));
    }
    let (id, msg, public, sig) = first.expect("sixteen identities were signed");
    let Signature::McCls { v, s, r } = sig.clone() else {
        unreachable!("McCLS signs McCLS signatures");
    };
    let identity_r = G2Projective::identity();
    let h = h2_scalar(&[
        b"mccls",
        &msg,
        &identity_r.to_affine().to_compressed(),
        &public.to_bytes(),
    ]);
    let d_id = kgc.extract_partial_private_key(&id).d;
    let mut variants = vec![
        ("V+1", v.add(&Fr::one()), s, r),
        ("S+G", v, s.add(&G1Projective::generator()), r),
        ("2R", v, s, r.double()),
        ("identity S", v, G1Projective::identity(), r),
        ("identity R", v, s, identity_r),
        (
            "identity R, S = h·D_ID",
            Fr::one(),
            d_id.mul_scalar(&h),
            identity_r,
        ),
    ];
    for low in 0..=255u8 {
        let mut g1 = [0u8; 48];
        g1[0] = 0b1000_0000;
        g1[47] = low;
        if let Some(p) = G1Affine::from_compressed(&g1) {
            variants.push(("swept S", v, p.to_projective(), r));
        }
        let mut g2 = [0u8; 96];
        g2[0] = 0b1000_0000;
        g2[95] = low;
        if let Some(q) = G2Affine::from_compressed(&g2) {
            variants.push(("swept R", v, s, q.to_projective()));
        }
    }
    for (name, v, s, r) in variants {
        let bad = Signature::McCls { v, s, r };
        entry(format!("node-0 {name}"), &id, public, &msg, &bad);
    }
    let identity_key = UserPublicKey {
        primary: G2Projective::identity(),
        secondary: None,
    };
    entry("node-0 identity key".into(), &id, identity_key, &msg, &sig);
    let forged = mccls_type2_forgery(&params, &kgc, &id, &public, &msg, &mut rng);
    entry("node-0 Type II forgery".into(), &id, public, &msg, &forged);
    let alien = Signature::Yhg {
        u: G1Projective::generator(),
        v: G1Projective::generator(),
    };
    entry("node-0 YHG signature".into(), &id, public, &msg, &alien);
    (params, entries)
}

/// Runs `entries` as one batch through every batch path. Both
/// registries must already hold the keys that should be warm.
fn batch_paths(
    params: &SystemParams,
    entries: &[Entry],
    verifier: &Verifier,
    sharded: &ShardedVerifier,
    rng: &mut StdRng,
) -> Vec<(&'static str, Vec<Verdict>)> {
    let items: Vec<BatchItem<'_>> = entries.iter().map(Entry::item).collect();
    let verdicts = |outcome: mccls_core::BatchOutcome| outcome.verdicts().to_vec();
    vec![
        ("batch_verify", verdicts(batch_verify(params, &items, rng))),
        (
            "Verifier::verify_batch",
            verdicts(verifier.verify_batch(&items, rng)),
        ),
        (
            "ShardedVerifier::verify_batch",
            verdicts(sharded.verify_batch(&items, rng)),
        ),
        (
            "BatchAccumulator::absorb",
            accumulate(params, &items, None, rng),
        ),
        (
            "BatchAccumulator::absorb_warm",
            accumulate(params, &items, Some(verifier), rng),
        ),
    ]
}

fn accumulate(
    params: &SystemParams,
    items: &[BatchItem<'_>],
    warm: Option<&Verifier>,
    rng: &mut StdRng,
) -> Vec<Verdict> {
    let policy = FlushPolicy {
        max_pending: usize::MAX,
        ..FlushPolicy::default()
    };
    let mut acc = BatchAccumulator::new(params.clone(), policy);
    for item in items {
        let early = match warm {
            Some(verifier) => {
                let (_, rhs) = verifier
                    .warm_entry(item.id)
                    .expect("every corpus identity has a registered key");
                acc.absorb_warm(item, &rhs, rng)
            }
            None => acc.absorb(item, rng),
        };
        assert!(early.is_none(), "the window never fills");
    }
    acc.flush().verdicts().to_vec()
}

fn assert_no_disagreements(disagreements: &[String]) {
    assert!(
        disagreements.is_empty(),
        "{} verdict(s) differ from McCls::verify:\n{}",
        disagreements.len(),
        disagreements.join("\n")
    );
}

#[test]
fn every_path_gives_each_entry_its_single_path_verdict() {
    let (params, entries) = corpus();
    let mut verifier = Verifier::new(params.clone());
    let sharded = ShardedVerifier::new(params.clone());
    let mut rng = StdRng::seed_from_u64(21);
    let mut disagreements = Vec::new();
    for e in &entries {
        let expected = e.single_path_verdict(&params);
        if e.name.ends_with("Type II forgery") {
            assert_eq!(expected, Verdict::Ok, "the Type II forgery verifies");
        }
        // `verify_with_key` registers the entry's key, so the batch
        // paths below find the peer warm. An identity key is refused,
        // which leaves the identity's earlier key cached, so that entry
        // goes through the cold batch path.
        let mut got = vec![
            (
                "Verifier::verify_with_key",
                verdict_of(verifier.verify_with_key(&e.id, &e.public, &e.msg, &e.sig)),
            ),
            (
                "ShardedVerifier::verify_with_key",
                verdict_of(sharded.verify_with_key(&e.id, &e.public, &e.msg, &e.sig)),
            ),
        ];
        let alone = std::slice::from_ref(e);
        for (path, verdicts) in batch_paths(&params, alone, &verifier, &sharded, &mut rng) {
            got.push((
                path,
                verdicts.first().copied().expect("one verdict per entry"),
            ));
        }
        for (path, verdict) in got {
            if verdict != expected {
                disagreements.push(format!(
                    "{} alone: {path} gave {verdict:?}, McCls::verify {expected:?}",
                    e.name
                ));
            }
        }
    }
    assert_no_disagreements(&disagreements);
}

#[test]
fn a_mixed_batch_gives_each_entry_its_single_path_verdict() {
    let (params, entries) = corpus();
    // Each identity ends up warm under the last key registered for it;
    // entries presenting another key take the cold path.
    let mut verifier = Verifier::new(params.clone());
    let sharded = ShardedVerifier::new(params.clone());
    for e in &entries {
        let _ = verifier.register_peer(&e.id, e.public);
        let _ = sharded.register_peer(&e.id, e.public);
    }
    let expected: Vec<Verdict> = entries
        .iter()
        .map(|e| e.single_path_verdict(&params))
        .collect();
    let mut rng = StdRng::seed_from_u64(22);
    let mut disagreements = Vec::new();
    for (path, verdicts) in batch_paths(&params, &entries, &verifier, &sharded, &mut rng) {
        assert_eq!(verdicts.len(), entries.len(), "{path}");
        for ((e, want), got) in entries.iter().zip(&expected).zip(verdicts) {
            if got != *want {
                disagreements.push(format!(
                    "{} in the mixed batch: {path} gave {got:?}, McCls::verify {want:?}",
                    e.name
                ));
            }
        }
    }
    assert_no_disagreements(&disagreements);
}
