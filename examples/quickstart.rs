//! Quickstart: the complete McCLS certificateless key hierarchy and a
//! sign/verify round trip, including the wire encoding.
//!
//! Run with: `cargo run --release --example quickstart`

// Demo code: panicking on a broken invariant is the right failure mode.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use mccls::cls::{ops, CertificatelessScheme, McCls, Signature, Verifier};
use mccls_rng::SeedableRng;

fn main() {
    let mut rng = mccls_rng::rngs::StdRng::seed_from_u64(7);
    let scheme = McCls::new();

    // 1. The Key Generation Center runs Setup: master secret s,
    //    public parameters (P, P_pub = s·P).
    let (params, kgc) = scheme.setup(&mut rng);
    println!("KGC ready; P_pub published.");

    // 2. A node asks the KGC for its partial private key
    //    D_ID = s·H1(ID). Unlike ID-PKC there is no key escrow issue
    //    *by design*: the KGC never sees the full private key.
    let id = b"sensor-node-17";
    let partial = scheme.extract_partial_private_key(&kgc, id);
    assert!(partial.validate(&params, id), "KGC extraction checks out");
    println!(
        "partial private key for {:?} extracted and validated.",
        "sensor-node-17"
    );

    // 3. The node generates its own secret value x and public key
    //    P_ID = x·P_pub. No certificate is ever issued or checked.
    let keys = scheme.generate_key_pair(&params, &mut rng);
    println!(
        "node key pair generated ({} bytes of public key).",
        keys.public.encoded_len()
    );

    // 4. CL-Sign a message (e.g. an AODV route request it originates).
    let msg = b"RREQ origin=sensor-node-17 dest=sink-3 seq=42";
    let sig = scheme.sign(&params, id, &partial, &keys, msg, &mut rng);
    println!(
        "signed {} byte message -> {} byte signature.",
        msg.len(),
        sig.encoded_len()
    );

    // 5. CL-Verify — anyone holding the public parameters can check.
    assert!(scheme.verify(&params, id, &keys.public, msg, &sig).is_ok());
    assert!(scheme
        .verify(&params, id, &keys.public, b"tampered", &sig)
        .is_err());
    println!("verification: genuine accepted, tampered rejected.");

    // 6. The wire form survives a round trip.
    let bytes = sig.to_bytes();
    let parsed = Signature::from_bytes(&bytes).expect("canonical encoding");
    assert_eq!(parsed, sig);
    println!("wire round trip ok ({} bytes).", bytes.len());

    // 7. Repeated verification of the same peer costs one pairing with
    //    the cached constant e(Q_ID, P_pub).
    let mut verifier = Verifier::new(params);
    assert!(verifier
        .verify_with_key(id, &keys.public, msg, &sig)
        .is_ok());
    let (ok, counts) = ops::measure(|| verifier.verify_with_key(id, &keys.public, msg, &sig));
    assert!(ok.is_ok());
    println!("cached verify: {counts}.");
}
