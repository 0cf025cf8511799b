//! Identity-element rejection at the verification boundary.
//!
//! A public key or signature component equal to the group identity
//! makes pairings against it constant, so the pairing equation stops
//! binding anything — handing an identity "key" to a verifier is the
//! cheapest key-replacement attempt there is. Every verify entry point
//! must reject these inputs with a structured error before touching a
//! pairing. For McCLS every entry point (the stateless verify, both
//! registries, `batch_verify`, the warm batch and both
//! `BatchAccumulator` absorbs) runs one shared front end, so the
//! verdicts below hold on each; `verdict_agreement.rs` checks that.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use mccls_core::{
    Ap, CertificatelessScheme, McCls, Signature, UserPublicKey, Verifier, VerifyError, Yhg, Zwxf,
};
use mccls_pairing::{G1Projective, G2Projective};
use mccls_rng::SeedableRng;

struct Fixture {
    scheme: Box<dyn CertificatelessScheme>,
    params: mccls_core::SystemParams,
    public: UserPublicKey,
    sig: Signature,
}

fn fixtures() -> Vec<Fixture> {
    let schemes: Vec<Box<dyn CertificatelessScheme>> = vec![
        Box::new(McCls::new()),
        Box::new(Ap::new()),
        Box::new(Zwxf::new()),
        Box::new(Yhg::new()),
    ];
    schemes
        .into_iter()
        .map(|scheme| {
            let mut rng = mccls_rng::rngs::StdRng::seed_from_u64(11);
            let (params, kgc) = scheme.setup(&mut rng);
            let partial = kgc.extract_partial_private_key(b"alice");
            let keys = scheme.generate_key_pair(&params, &mut rng);
            let sig = scheme.sign(&params, b"alice", &partial, &keys, b"msg", &mut rng);
            Fixture {
                scheme,
                params,
                public: keys.public,
                sig,
            }
        })
        .collect()
}

/// Every `(signature, identity-swapped copy)` pair for one signature.
fn identity_component_variants(sig: &Signature) -> Vec<Signature> {
    match *sig {
        Signature::McCls { v, s, r } => vec![
            Signature::McCls {
                v,
                s: G1Projective::identity(),
                r,
            },
            Signature::McCls {
                v,
                s,
                r: G2Projective::identity(),
            },
        ],
        Signature::Ap { v, .. } => vec![Signature::Ap {
            u: G1Projective::identity(),
            v,
        }],
        Signature::Zwxf { u, v } => vec![
            Signature::Zwxf {
                u: G2Projective::identity(),
                v,
            },
            Signature::Zwxf {
                u,
                v: G1Projective::identity(),
            },
        ],
        Signature::Yhg { u, v } => vec![
            Signature::Yhg {
                u: G1Projective::identity(),
                v,
            },
            Signature::Yhg {
                u,
                v: G1Projective::identity(),
            },
        ],
    }
}

#[test]
fn identity_primary_public_key_is_rejected_by_all_schemes() {
    for f in fixtures() {
        let bad = UserPublicKey {
            primary: G2Projective::identity(),
            ..f.public
        };
        assert_eq!(
            f.scheme.verify(&f.params, b"alice", &bad, b"msg", &f.sig),
            Err(VerifyError::IdentityPublicKey),
            "{}",
            f.scheme.name()
        );
    }
}

#[test]
fn identity_secondary_public_key_is_rejected_by_ap() {
    let f = fixtures().remove(1);
    assert_eq!(f.scheme.name(), "AP");
    let bad = UserPublicKey {
        secondary: Some(G1Projective::identity()),
        ..f.public
    };
    assert_eq!(
        f.scheme.verify(&f.params, b"alice", &bad, b"msg", &f.sig),
        Err(VerifyError::IdentityPublicKey)
    );
}

#[test]
fn identity_signature_components_are_rejected_by_all_schemes() {
    for f in fixtures() {
        for bad in identity_component_variants(&f.sig) {
            assert_eq!(
                f.scheme
                    .verify(&f.params, b"alice", &f.public, b"msg", &bad),
                Err(VerifyError::IdentityPoint),
                "{}",
                f.scheme.name()
            );
        }
    }
}

#[test]
fn honest_signatures_still_verify() {
    for f in fixtures() {
        assert_eq!(
            f.scheme
                .verify(&f.params, b"alice", &f.public, b"msg", &f.sig),
            Ok(()),
            "{}",
            f.scheme.name()
        );
    }
}

#[test]
fn verifier_refuses_to_register_identity_keys() {
    let f = fixtures().remove(0);
    let mut verifier = Verifier::new(f.params.clone());
    let bad = UserPublicKey {
        primary: G2Projective::identity(),
        ..f.public
    };
    assert_eq!(
        verifier.register_peer(b"mallory", bad),
        Err(VerifyError::IdentityPublicKey)
    );
    assert!(!verifier.knows_peer(b"mallory"));
    // The in-band-key path refuses the same key and registers nothing.
    assert_eq!(
        verifier.verify_with_key(b"mallory", &bad, b"msg", &f.sig),
        Err(VerifyError::IdentityPublicKey)
    );
    assert!(!verifier.knows_peer(b"mallory"));
    // Honest keys still register and verify.
    verifier.register_peer(b"alice", f.public).unwrap();
    assert_eq!(verifier.verify(b"alice", b"msg", &f.sig), Ok(()));
}
