//! The paper's contribution: the **McCLS** certificateless signature
//! scheme (Section 4), with zero pairings to sign and a single pairing to
//! verify (against a cacheable constant).
//!
//! Algorithms, in the asymmetric-pairing mapping (identities in G1,
//! system elements in G2):
//!
//! * **Setup** — master secret `s`, `P_pub = s·P ∈ G2`.
//! * **Extract-Partial-Private-Key** — `D_ID = s·H1(ID) ∈ G1`.
//! * **Generate-Key-Pair** — secret `x ∈ Z_r*`, public
//!   `P_ID = x·P_pub ∈ G2`.
//! * **CL-Sign** — pick `r ∈ Z_r*`; output `σ = (V, S, R)` with
//!   `S = x⁻¹·D_ID`, `R = (r - x)·P`, `V = H2(M, R, P_ID)·r`.
//! * **CL-Verify** — `h = H2(M, R, P_ID)`; accept iff
//!   `(P_pub, V·P - h·R, S/h, Q_ID)` is a valid Diffie-Hellman tuple,
//!   i.e. `e(S/h, V·P - h·R) = e(Q_ID, P_pub)`.
//!
//! Correctness: `V·P - h·R = h·r·P - h·(r-x)·P = h·x·P`, so
//! `e(S/h, V·P - h·R) = e(x⁻¹·D_ID·h⁻¹, h·x·P) = e(D_ID, P)
//! = e(Q_ID, s·P) = e(Q_ID, P_pub)`.
//!
//! The right-hand side depends only on `(ID, P_pub)`, so a verifier that
//! talks to the same peers repeatedly caches it ([`crate::Verifier`],
//! [`crate::ShardedVerifier`]) and pays exactly **one** pairing per
//! verification — the efficiency claim the paper's Table 1 rests on.

use mccls_pairing::{g2_generator_table, Fr, G1Projective, G2Projective, Gt};
use mccls_rng::RngCore;

use crate::ops;
use crate::params::{h2_scalar, PartialPrivateKey, SystemParams, UserKeyPair, UserPublicKey};
use crate::scheme::{CertificatelessScheme, ClaimedOps, Signature};
use crate::verify::VerifyError;

/// The McCLS scheme.
///
/// # Examples
///
/// ```
/// use mccls_core::{CertificatelessScheme, McCls};
/// use mccls_rng::SeedableRng;
///
/// let mut rng = mccls_rng::rngs::StdRng::seed_from_u64(1);
/// let scheme = McCls::new();
/// let (params, kgc) = scheme.setup(&mut rng);
/// let partial = scheme.extract_partial_private_key(&kgc, b"node-7");
/// let keys = scheme.generate_key_pair(&params, &mut rng);
/// let sig = scheme.sign(&params, b"node-7", &partial, &keys, b"RREQ", &mut rng);
/// assert!(scheme.verify(&params, b"node-7", &keys.public, b"RREQ", &sig).is_ok());
/// assert!(scheme.verify(&params, b"node-7", &keys.public, b"RREP", &sig).is_err());
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct McCls;

impl McCls {
    /// Creates the scheme handle.
    pub fn new() -> Self {
        Self
    }

    /// Computes `h = H2(M, R, P_ID)`.
    pub(crate) fn challenge(msg: &[u8], r: &G2Projective, public: &UserPublicKey) -> Fr {
        h2_scalar(&[
            b"mccls",
            msg,
            &r.to_affine().to_compressed(),
            &public.to_bytes(),
        ])
    }

    /// The front end of every McCLS verify path: the stateless
    /// [`CertificatelessScheme::verify`], both registries and every
    /// batch entry point. It rejects, in this order, another scheme's
    /// signature, a public key with an identity component, an identity
    /// `S` or `R`, a challenge `h` without an inverse and an identity
    /// `V·P - h·R`, and returns `(S, h⁻¹, V·P - h·R)`. Each caller
    /// multiplies `S` by `h⁻¹` (times its own factor) and rejects an
    /// identity product itself.
    // validated: the bytes are the message, which only feeds the
    // challenge hash; S and R come from a Signature the caller holds
    pub(crate) fn equation_terms(
        public: &UserPublicKey,
        msg: &[u8],
        sig: &Signature,
    ) -> Result<(G1Projective, Fr, G2Projective), VerifyError> {
        let Signature::McCls { v, s, r } = sig else {
            return Err(VerifyError::WrongScheme);
        };
        if public.has_identity_component() {
            return Err(VerifyError::IdentityPublicKey);
        }
        if s.is_identity() || r.is_identity() {
            return Err(VerifyError::IdentityPoint);
        }
        let h = Self::challenge(msg, r, public);
        let h_inv = h.invert().ok_or(VerifyError::NonInvertibleChallenge)?;
        // `V·P` uses the fixed-base generator table, so `h·R` (the nonce
        // point changes per signature) is the one full double-and-add.
        let lhs_g2 = ops::mul_g2_fixed(g2_generator_table(), v).sub(&ops::mul_g2(r, &h));
        if lhs_g2.is_identity() {
            return Err(VerifyError::IdentityPoint);
        }
        Ok((*s, h_inv, lhs_g2))
    }

    /// The verifier's left-hand pairing `e(S/h, V·P - h·R)`, shared by
    /// [`CertificatelessScheme::verify`] and both registries.
    pub(crate) fn verification_pairing(
        public: &UserPublicKey,
        msg: &[u8],
        sig: &Signature,
    ) -> Result<Gt, VerifyError> {
        let (s, h_inv, lhs_g2) = Self::equation_terms(public, msg, sig)?;
        let s_over_h = ops::mul_g1(&s, &h_inv);
        if s_over_h.is_identity() {
            return Err(VerifyError::IdentityPoint);
        }
        Ok(ops::pair(&s_over_h.to_affine(), &lhs_g2.to_affine()))
    }

    /// The right-hand side `e(Q_ID, P_pub)`, which the registries cache
    /// per peer.
    pub(crate) fn verification_target(params: &SystemParams, id: &[u8]) -> Gt {
        let q_id = params.hash_identity(id);
        ops::pair_prepared(&q_id.to_affine(), params.prepared_p_pub())
    }
}

impl CertificatelessScheme for McCls {
    fn name(&self) -> &'static str {
        "McCLS"
    }

    fn generate_key_pair(&self, params: &SystemParams, rng: &mut dyn RngCore) -> UserKeyPair {
        let x = Fr::random_nonzero(rng);
        // P_ID = x·P_pub, exactly as in Section 4. `x` is the long-term
        // user secret, so the uniform-schedule ladder is used.
        let p_id = ops::mul_g2_ct(&params.p_pub, &x);
        UserKeyPair {
            secret: x,
            public: UserPublicKey {
                primary: p_id,
                secondary: None,
            },
        }
    }

    // validated: honest-signer output; every component is a scalar
    // multiple of a subgroup generator or a cofactor-cleared hash point
    // opcount-budget: mccls.sign
    fn sign(
        &self,
        params: &SystemParams,
        _id: &[u8],
        partial: &PartialPrivateKey,
        keys: &UserKeyPair,
        msg: &[u8],
        rng: &mut dyn RngCore,
    ) -> Signature {
        // `x` is drawn nonzero at key generation, so the fixed-exponent
        // Fermat inverse is the true inverse; unlike `invert()` its
        // schedule does not depend on the secret.
        let x_inv = keys.secret.invert_ct();
        let r_scalar = Fr::random_nonzero(rng);
        // S = x⁻¹·D_ID (message independent), R = (r - x)·P. Both
        // scalars are secret, so the sign path uses the ct ladders.
        // taint-public: S and R are published signature components
        let s = ops::mul_g1_ct(&partial.d, &x_inv);
        // taint-public: R is a published signature component
        let r = ops::mul_g2_ct(&params.p(), &r_scalar.sub(&keys.secret));
        let h = Self::challenge(msg, &r, &keys.public);
        // taint-public: V = h·r is a published signature component
        let v = h.mul(&r_scalar);
        Signature::McCls { v, s, r }
    }

    // opcount-budget: mccls.verify
    fn verify(
        &self,
        params: &SystemParams,
        id: &[u8],
        public: &UserPublicKey,
        msg: &[u8],
        sig: &Signature,
    ) -> Result<(), VerifyError> {
        let lhs = Self::verification_pairing(public, msg, sig)?;
        if lhs == Self::verification_target(params, id) {
            Ok(())
        } else {
            Err(VerifyError::PairingMismatch)
        }
    }

    fn claimed_table1_profile(&self) -> (ClaimedOps, ClaimedOps) {
        (ClaimedOps::new(0, 2, 0), ClaimedOps::new(1, 1, 0))
    }

    fn claimed_public_key_points(&self) -> usize {
        1
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // tests may panic freely
mod tests {
    use super::*;
    use crate::params::Kgc;
    use mccls_pairing::G1Projective;
    use mccls_rng::SeedableRng;

    fn setup() -> (
        SystemParams,
        Kgc,
        PartialPrivateKey,
        UserKeyPair,
        mccls_rng::rngs::StdRng,
    ) {
        let mut rng = mccls_rng::rngs::StdRng::seed_from_u64(50);
        let scheme = McCls::new();
        let (params, kgc) = scheme.setup(&mut rng);
        let partial = kgc.extract_partial_private_key(b"alice");
        let keys = scheme.generate_key_pair(&params, &mut rng);
        (params, kgc, partial, keys, rng)
    }

    #[test]
    fn sign_verify_round_trip() {
        let (params, _kgc, partial, keys, mut rng) = setup();
        let scheme = McCls::new();
        let sig = scheme.sign(&params, b"alice", &partial, &keys, b"hello", &mut rng);
        assert!(scheme
            .verify(&params, b"alice", &keys.public, b"hello", &sig)
            .is_ok());
    }

    #[test]
    fn verify_rejects_wrong_message() {
        let (params, _kgc, partial, keys, mut rng) = setup();
        let scheme = McCls::new();
        let sig = scheme.sign(&params, b"alice", &partial, &keys, b"hello", &mut rng);
        assert!(scheme
            .verify(&params, b"alice", &keys.public, b"tampered", &sig)
            .is_err());
    }

    #[test]
    fn verify_rejects_wrong_identity() {
        let (params, _kgc, partial, keys, mut rng) = setup();
        let scheme = McCls::new();
        let sig = scheme.sign(&params, b"alice", &partial, &keys, b"hello", &mut rng);
        assert!(scheme
            .verify(&params, b"bob", &keys.public, b"hello", &sig)
            .is_err());
    }

    #[test]
    fn verify_rejects_wrong_public_key() {
        let (params, _kgc, partial, keys, mut rng) = setup();
        let scheme = McCls::new();
        let sig = scheme.sign(&params, b"alice", &partial, &keys, b"hello", &mut rng);
        let other = scheme.generate_key_pair(&params, &mut rng);
        assert!(scheme
            .verify(&params, b"alice", &other.public, b"hello", &sig)
            .is_err());
    }

    #[test]
    fn verify_rejects_component_tampering() {
        let (params, _kgc, partial, keys, mut rng) = setup();
        let scheme = McCls::new();
        let sig = scheme.sign(&params, b"alice", &partial, &keys, b"hello", &mut rng);
        let Signature::McCls { v, s, r } = sig.clone() else {
            unreachable!()
        };
        let bad_v = Signature::McCls {
            v: v.add(&Fr::one()),
            s,
            r,
        };
        let bad_s = Signature::McCls {
            v,
            s: s.add(&G1Projective::generator()),
            r,
        };
        let bad_r = Signature::McCls {
            v,
            s,
            r: r.double(),
        };
        assert!(scheme
            .verify(&params, b"alice", &keys.public, b"hello", &bad_v)
            .is_err());
        assert!(scheme
            .verify(&params, b"alice", &keys.public, b"hello", &bad_s)
            .is_err());
        assert!(scheme
            .verify(&params, b"alice", &keys.public, b"hello", &bad_r)
            .is_err());
    }

    #[test]
    fn verify_rejects_other_scheme_signatures() {
        let (params, _kgc, _partial, keys, _rng) = setup();
        let scheme = McCls::new();
        let alien = Signature::Yhg {
            u: G1Projective::generator(),
            v: G1Projective::generator(),
        };
        assert!(scheme
            .verify(&params, b"alice", &keys.public, b"hello", &alien)
            .is_err());
    }

    #[test]
    fn signatures_are_randomized() {
        let (params, _kgc, partial, keys, mut rng) = setup();
        let scheme = McCls::new();
        let s1 = scheme.sign(&params, b"alice", &partial, &keys, b"m", &mut rng);
        let s2 = scheme.sign(&params, b"alice", &partial, &keys, b"m", &mut rng);
        assert_ne!(s1, s2);
        assert!(scheme
            .verify(&params, b"alice", &keys.public, b"m", &s1)
            .is_ok());
        assert!(scheme
            .verify(&params, b"alice", &keys.public, b"m", &s2)
            .is_ok());
    }

    #[test]
    fn sign_uses_no_pairings_and_two_scalar_muls() {
        let (params, _kgc, partial, keys, mut rng) = setup();
        let scheme = McCls::new();
        let (_, counts) =
            ops::measure(|| scheme.sign(&params, b"alice", &partial, &keys, b"m", &mut rng));
        assert_eq!(counts.pairings, 0, "Table 1: sign has no pairings");
        assert_eq!(counts.scalar_muls(), 2, "Table 1: sign = 2s");
    }

    #[test]
    fn signature_wire_round_trip() {
        let (params, _kgc, partial, keys, mut rng) = setup();
        let scheme = McCls::new();
        let sig = scheme.sign(&params, b"alice", &partial, &keys, b"m", &mut rng);
        let bytes = sig.to_bytes();
        assert_eq!(bytes.len(), sig.encoded_len());
        let parsed = Signature::from_bytes(&bytes).expect("valid encoding");
        assert_eq!(parsed, sig);
        assert!(scheme
            .verify(&params, b"alice", &keys.public, b"m", &parsed)
            .is_ok());
    }
}
