//! Known-answer digest of McCLS signing, wire encoding and verdicts.
//!
//! `crates/pairing/tests/known_answers.rs` pins the curve and pairing
//! outputs; this suite pins what the scheme builds on them. It compares
//! the build against a committed constant, so it is the oracle across
//! versions: a rewrite of signing, the wire format, the point decoders
//! or the verification equation must leave [`MCCLS_DIGEST`] unchanged.
//!
//! From `StdRng::seed_from_u64(20080617)`, McCLS is set up and sixteen
//! identities `node-i` each get a partial key, a key pair and a
//! signature on `message #i`. SHA-256 is fed, per identity, the
//! compressed `H1(ID)`, the signature's wire bytes, the bytes
//! `Signature::from_bytes` re-encodes, and the `McCls::verify` verdicts
//! on the valid signature, a tampered message and a wrong identity.
//! For `node-0` it is then fed the verdicts on the malformed inputs of
//! [`malformed_verdicts`]. Last come both groups' `from_compressed`
//! results over the 256 compressed encodings whose `x` is one low byte:
//! a reject bit, or an accept bit and the re-encoded point.
//!
//! Every verdict is a single-path (`McCls::verify`) verdict and is fed
//! as its `Debug` text.

#![allow(clippy::expect_used, clippy::unreachable)]

use mccls_core::security::mccls_type2_forgery;
use mccls_core::{
    h2_scalar, CertificatelessScheme, Kgc, McCls, Signature, SystemParams, UserPublicKey,
    VerifyError,
};
use mccls_hash::Sha256;
use mccls_pairing::{Fr, G1Affine, G1Projective, G2Affine, G2Projective};
use mccls_rng::rngs::StdRng;
use mccls_rng::SeedableRng;

/// SHA-256 over the seeded signatures, their verdicts and the decoder sweep.
const MCCLS_DIGEST: &str = "dbcb9128a66d66535f3115e761670fd1702099fbcbcc6bde8d9422ba95bb94b6";

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn feed_verdict(hasher: &mut Sha256, verdict: Result<(), VerifyError>) {
    hasher.update(format!("{verdict:?}\n").as_bytes());
}

fn feed_decoded(hasher: &mut Sha256, decoded: Option<Vec<u8>>) {
    match decoded {
        Some(bytes) => {
            hasher.update(&[1]);
            hasher.update(&bytes);
        }
        None => hasher.update(&[0]),
    }
}

/// Single-path verdicts for `node-0`: `V+1`, `S+G`, `2R`, identity `S`,
/// identity `R` with the honest `S`, identity `R` with `V = 1` and
/// `S = h·D_ID` (which balances the equation), an identity public key,
/// and the Type II forgery, which verifies because it is the scheme's
/// known break.
fn malformed_verdicts(
    params: &SystemParams,
    kgc: &Kgc,
    (id, msg, public, sig): (&[u8], &[u8], &UserPublicKey, &Signature),
    rng: &mut StdRng,
) -> Vec<Result<(), VerifyError>> {
    let scheme = McCls::new();
    let Signature::McCls { v, s, r } = *sig else {
        unreachable!("McCLS signs McCLS signatures");
    };
    let identity_r = G2Projective::identity();
    let h = h2_scalar(&[
        b"mccls",
        msg,
        &identity_r.to_affine().to_compressed(),
        &public.to_bytes(),
    ]);
    let d_id = kgc.extract_partial_private_key(id).d;
    let variants = [
        Signature::McCls {
            v: v.add(&Fr::one()),
            s,
            r,
        },
        Signature::McCls {
            v,
            s: s.add(&G1Projective::generator()),
            r,
        },
        Signature::McCls {
            v,
            s,
            r: r.double(),
        },
        Signature::McCls {
            v,
            s: G1Projective::identity(),
            r,
        },
        Signature::McCls {
            v,
            s,
            r: identity_r,
        },
        Signature::McCls {
            v: Fr::one(),
            s: d_id.mul_scalar(&h),
            r: identity_r,
        },
    ];
    let mut verdicts: Vec<_> = variants
        .iter()
        .map(|bad| scheme.verify(params, id, public, msg, bad))
        .collect();
    let identity_key = UserPublicKey {
        primary: G2Projective::identity(),
        secondary: None,
    };
    verdicts.push(scheme.verify(params, id, &identity_key, msg, sig));
    let forged = mccls_type2_forgery(params, kgc, id, public, msg, rng);
    verdicts.push(scheme.verify(params, id, public, msg, &forged));
    verdicts
}

#[test]
fn seeded_mccls_outputs_match_the_committed_digest() {
    let mut rng = StdRng::seed_from_u64(20080617);
    let scheme = McCls::new();
    let (params, kgc) = scheme.setup(&mut rng);
    let mut hasher = Sha256::new();
    let mut first = None;
    for i in 0..16 {
        let id = format!("node-{i}").into_bytes();
        let msg = format!("message #{i}").into_bytes();
        let partial = kgc.extract_partial_private_key(&id);
        let keys = scheme.generate_key_pair(&params, &mut rng);
        let sig = scheme.sign(&params, &id, &partial, &keys, &msg, &mut rng);
        let wire = sig.to_bytes();
        let decoded = Signature::from_bytes(&wire).expect("an honest signature decodes");
        hasher.update(&params.hash_identity(&id).to_affine().to_compressed());
        hasher.update(&wire);
        hasher.update(&decoded.to_bytes());
        for (who, what) in [
            (&id[..], &msg[..]),
            (&id[..], b"tampered"),
            (b"stranger", &msg[..]),
        ] {
            feed_verdict(
                &mut hasher,
                scheme.verify(&params, who, &keys.public, what, &decoded),
            );
        }
        first.get_or_insert((id, msg, keys.public, decoded));
    }
    let (id, msg, public, sig) = first.expect("sixteen identities were signed");
    let verdicts = malformed_verdicts(&params, &kgc, (&id, &msg, &public, &sig), &mut rng);
    use VerifyError::{IdentityPoint, IdentityPublicKey, PairingMismatch};
    assert_eq!(
        verdicts,
        [
            Err(PairingMismatch),
            Err(PairingMismatch),
            Err(PairingMismatch),
            Err(IdentityPoint),
            Err(IdentityPoint),
            Err(IdentityPoint),
            Err(IdentityPublicKey),
            Ok(()),
        ]
    );
    for verdict in verdicts {
        feed_verdict(&mut hasher, verdict);
    }
    for low in 0..=255u8 {
        let mut g1 = [0u8; 48];
        g1[0] = 0b1000_0000;
        g1[47] = low;
        let p = G1Affine::from_compressed(&g1);
        feed_decoded(&mut hasher, p.map(|p| p.to_compressed().to_vec()));
        let mut g2 = [0u8; 96];
        g2[0] = 0b1000_0000;
        g2[95] = low;
        let q = G2Affine::from_compressed(&g2);
        feed_decoded(&mut hasher, q.map(|q| q.to_compressed().to_vec()));
    }
    assert_eq!(hex(&hasher.finalize()), MCCLS_DIGEST);
}
