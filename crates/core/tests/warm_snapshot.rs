//! Round-trip and adversarial tests for the warm-cache snapshot
//! (`ShardedVerifier::export_warm` / `import_warm`).
//!
//! A snapshot carries only identities and public keys, bound to the
//! exporting registry's `P_pub` by the 97-byte `G2Prepared` wire form;
//! the importer recomputes every `e(Q_ID, P_pub)` itself. These tests
//! pin both halves: a faithful round trip (verifications work on the
//! importing side with no re-registration) and rejection of truncated,
//! corrupted, version-bumped, foreign-parameter, identity-key, and
//! wrong-subgroup snapshots.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

mod common;

use common::{wrong_subgroup_g1_bytes, wrong_subgroup_g2_bytes};
use mccls_core::{CertificatelessScheme, McCls, ShardedVerifier, SnapshotError, VerifyError};
use mccls_pairing::G2Affine;
use mccls_rng::SeedableRng;

struct World {
    registry: ShardedVerifier,
    params: mccls_core::SystemParams,
    sigs: Vec<(Vec<u8>, mccls_core::Signature)>,
}

/// A registry with three registered signers and one valid signature
/// each, from a deterministic setup.
fn world(seed: u64) -> World {
    let mut rng = mccls_rng::rngs::StdRng::seed_from_u64(seed);
    let scheme = McCls::new();
    let (params, kgc) = scheme.setup(&mut rng);
    let registry = ShardedVerifier::new(params.clone());
    let mut sigs = Vec::new();
    for i in 0..3u32 {
        let id = format!("node-{i}").into_bytes();
        let partial = kgc.extract_partial_private_key(&id);
        let keys = scheme.generate_key_pair(&params, &mut rng);
        let sig = scheme.sign(&params, &id, &partial, &keys, b"RREQ", &mut rng);
        registry.register_peer(&id, keys.public).unwrap();
        sigs.push((id, sig));
    }
    World {
        registry,
        params,
        sigs,
    }
}

#[test]
fn snapshot_round_trips_and_restored_registry_verifies() {
    let w = world(71);
    let snapshot = w.registry.export_warm();
    // version + 97-byte binding + count + 3 * (4 + 6 + 1 + 96).
    assert_eq!(snapshot.len(), 1 + 97 + 4 + 3 * 107);

    let restored = ShardedVerifier::new(w.params.clone());
    assert_eq!(restored.import_warm(&snapshot), Ok(3));
    assert_eq!(restored.peer_count(), 3);
    for (id, sig) in &w.sigs {
        assert_eq!(restored.verify(id, b"RREQ", sig), Ok(()));
        assert_eq!(
            restored.verify(id, b"RREP", sig),
            Err(VerifyError::PairingMismatch),
            "imported entries must still reject wrong messages"
        );
    }
    // Equal peer sets serialize identically (records are sorted), so a
    // snapshot of the restored registry reproduces the original bytes.
    assert_eq!(restored.export_warm(), snapshot);
}

#[test]
fn empty_registry_round_trips() {
    let w = world(72);
    let empty = ShardedVerifier::new(w.params.clone());
    let snapshot = empty.export_warm();
    assert_eq!(snapshot.len(), 1 + 97 + 4);
    let restored = ShardedVerifier::new(w.params);
    assert_eq!(restored.import_warm(&snapshot), Ok(0));
    assert_eq!(restored.peer_count(), 0);
}

#[test]
fn truncation_is_rejected_at_every_boundary() {
    let w = world(73);
    let snapshot = w.registry.export_warm();
    // Every strict prefix must fail: header cuts, mid-id cuts, mid-point
    // cuts. (The empty prefix included.)
    for cut in 0..snapshot.len() {
        let restored = ShardedVerifier::new(w.params.clone());
        assert_eq!(
            restored.import_warm(&snapshot[..cut]),
            Err(SnapshotError::Encoding),
            "prefix of {cut} bytes must not parse"
        );
    }
}

#[test]
fn trailing_garbage_and_wrong_version_are_rejected() {
    let w = world(74);
    let snapshot = w.registry.export_warm();

    let mut padded = snapshot.clone();
    padded.push(0);
    let restored = ShardedVerifier::new(w.params.clone());
    assert_eq!(
        restored.import_warm(&padded),
        Err(SnapshotError::Encoding),
        "trailing bytes must not be ignored"
    );

    let mut bumped = snapshot;
    bumped[0] ^= 0xFF;
    let restored = ShardedVerifier::new(w.params);
    assert_eq!(restored.import_warm(&bumped), Err(SnapshotError::Encoding));
}

#[test]
fn foreign_parameter_snapshot_is_rejected() {
    let w = world(75);
    let snapshot = w.registry.export_warm();
    // A registry under a different KGC: same scheme, different P_pub.
    let mut other_rng = mccls_rng::rngs::StdRng::seed_from_u64(9999);
    let (other_params, _) = McCls::new().setup(&mut other_rng);
    let other = ShardedVerifier::new(other_params);
    assert_eq!(
        other.import_warm(&snapshot),
        Err(SnapshotError::ForeignParams),
        "a snapshot bound to a different P_pub must be refused outright"
    );
    assert_eq!(
        other.peer_count(),
        0,
        "nothing may be registered on refusal"
    );
}

#[test]
fn corrupted_point_bytes_are_rejected() {
    let w = world(76);
    let snapshot = w.registry.export_warm();
    // The first record's compressed G2 starts after
    // version(1) + binding(97) + count(4) + id_len(4) + id(6) + flags(1).
    let point_at = 1 + 97 + 4 + 4 + 6 + 1;
    let mut corrupted = snapshot;
    corrupted[point_at + 50] ^= 0x01;
    let restored = ShardedVerifier::new(w.params);
    assert_eq!(
        restored.import_warm(&corrupted),
        Err(SnapshotError::Encoding),
        "a non-canonical or off-curve point must fail the decode gauntlet"
    );
    assert_eq!(restored.peer_count(), 0);
}

#[test]
fn identity_key_record_is_rejected_by_registration() {
    let w = world(77);
    let restored = ShardedVerifier::new(w.params.clone());
    // Hand-craft a snapshot whose single record carries the compressed
    // G2 identity: it parses as a point, so it must be the *register*
    // path (the same one live registration uses) that rejects it.
    let identity = G2Affine::identity().to_compressed();
    let mut forged = vec![1u8];
    forged.extend_from_slice(&w.params.prepared_p_pub().to_bytes());
    forged.extend_from_slice(&1u32.to_be_bytes());
    forged.extend_from_slice(&4u32.to_be_bytes());
    forged.extend_from_slice(b"evil");
    forged.push(0);
    forged.extend_from_slice(&identity);
    assert_eq!(
        restored.import_warm(&forged),
        Err(SnapshotError::BadPeer(VerifyError::IdentityPublicKey))
    );
    assert_eq!(restored.peer_count(), 0);
}

#[test]
fn wrong_subgroup_records_are_rejected() {
    // Two one-record snapshots that parse as curve points: a primary
    // outside G2's subgroup, and an honest primary whose AP-style G1
    // secondary (flags 1) lies outside G1's. Both points must fail the
    // importer's own decode, before any registration.
    let w = world(79);
    let honest = G2Affine::generator().to_compressed();
    let secondary = wrong_subgroup_g1_bytes();
    for (primary, flags, tail) in [
        (wrong_subgroup_g2_bytes(), 0u8, &[][..]),
        (honest, 1, &secondary[..]),
    ] {
        let mut forged = vec![1u8];
        forged.extend_from_slice(&w.params.prepared_p_pub().to_bytes());
        forged.extend_from_slice(&1u32.to_be_bytes());
        forged.extend_from_slice(&4u32.to_be_bytes());
        forged.extend_from_slice(b"evil");
        forged.push(flags);
        forged.extend_from_slice(&primary);
        forged.extend_from_slice(tail);
        let restored = ShardedVerifier::new(w.params.clone());
        assert_eq!(
            restored.import_warm(&forged),
            Err(SnapshotError::Encoding),
            "flags {flags}"
        );
        assert_eq!(restored.peer_count(), 0, "flags {flags}");
    }
}

#[test]
fn import_never_trusts_cached_constants_from_the_wire() {
    // Structural guarantee, pinned as arithmetic: importing must cost
    // one pairing per peer (the local recomputation of e(Q_ID, P_pub)),
    // which is only possible because the snapshot does not carry Gt.
    let w = world(78);
    let snapshot = w.registry.export_warm();
    let restored = ShardedVerifier::new(w.params);
    let (res, counts) = mccls_core::ops::measure(|| restored.import_warm(&snapshot));
    assert_eq!(res, Ok(3));
    assert_eq!(
        counts.pairings, 3,
        "each imported peer pays its own pairing locally"
    );
}
