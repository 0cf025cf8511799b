//! The Zhang–Wong–Xu–Feng (ZWXF) certificateless signature scheme
//! (ACNS 2006) — the baseline with a formal security model but four
//! pairings in verification (Table 1: sign `4s`, verify `4p+3s`).
//!
//! Structure in the asymmetric setting:
//!
//! * keys: partial `D_ID = s·Q_ID ∈ G1`; user secret `x`, public
//!   `P_ID = x·P ∈ G2`.
//! * sign: pick `r`; `U = r·P ∈ G2`; derive two message points
//!   `W = H_W(M, ID, P_ID, U)` and `W' = H_W'(M, ID, P_ID, U)` in G1;
//!   `V = D_ID + r·W + x·W' ∈ G1`. Output `(U, V)`.
//! * verify: accept iff
//!   `e(V, P) = e(Q_ID, P_pub) · e(W, U) · e(W', P_ID)`.
//!
//! Correctness is immediate from bilinearity:
//! `e(V, P) = e(D_ID, P)·e(r·W, P)·e(x·W', P)
//! = e(Q_ID, s·P)·e(W, r·P)·e(W', x·P)`.

use mccls_pairing::{g2_prepared_generator, Fr, G1Projective, G2Prepared, G2Projective};
use mccls_rng::RngCore;

use crate::ops;
use crate::params::{PartialPrivateKey, SystemParams, UserKeyPair, UserPublicKey, DST_HW};
use crate::scheme::{CertificatelessScheme, ClaimedOps, Signature};
use crate::verify::VerifyError;

/// The ZWXF scheme.
///
/// # Examples
///
/// ```
/// use mccls_core::{CertificatelessScheme, Zwxf};
/// use mccls_rng::SeedableRng;
///
/// let mut rng = mccls_rng::rngs::StdRng::seed_from_u64(3);
/// let scheme = Zwxf::new();
/// let (params, kgc) = scheme.setup(&mut rng);
/// let partial = scheme.extract_partial_private_key(&kgc, b"alice");
/// let keys = scheme.generate_key_pair(&params, &mut rng);
/// let sig = scheme.sign(&params, b"alice", &partial, &keys, b"msg", &mut rng);
/// assert!(scheme.verify(&params, b"alice", &keys.public, b"msg", &sig).is_ok());
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct Zwxf;

impl Zwxf {
    /// Creates the scheme handle.
    pub fn new() -> Self {
        Self
    }

    /// The two message-dependent G1 points `W` and `W'`.
    fn message_points(
        msg: &[u8],
        id: &[u8],
        public: &UserPublicKey,
        u: &G2Projective,
    ) -> (G1Projective, G1Projective) {
        let mut material = Vec::new();
        for part in [
            msg,
            id,
            &public.to_bytes()[..],
            &u.to_affine().to_compressed()[..],
        ] {
            material.extend_from_slice(&(part.len() as u64).to_be_bytes());
            material.extend_from_slice(part);
        }
        let mut w_input = material.clone();
        w_input.push(0);
        let mut wp_input = material;
        wp_input.push(1);
        (
            ops::hash_to_g1(&w_input, DST_HW),
            ops::hash_to_g1(&wp_input, DST_HW),
        )
    }
}

impl CertificatelessScheme for Zwxf {
    fn name(&self) -> &'static str {
        "ZWXF"
    }

    fn generate_key_pair(&self, params: &SystemParams, rng: &mut dyn RngCore) -> UserKeyPair {
        let x = Fr::random_nonzero(rng);
        // ct-ok: ZWXF derives its public key with the paper's variable-time mult
        let p_id = ops::mul_g2(&params.p(), &x);
        UserKeyPair {
            secret: x,
            public: UserPublicKey {
                primary: p_id,
                secondary: None,
            },
        }
    }

    fn sign(
        &self,
        params: &SystemParams,
        id: &[u8],
        partial: &PartialPrivateKey,
        keys: &UserKeyPair,
        msg: &[u8],
        rng: &mut dyn RngCore,
    ) -> Signature {
        let r = Fr::random_nonzero(rng);
        // ct-ok: the ZWXF baseline is variable-time per the paper's accounting
        // taint-public: U is a published signature component
        let u = ops::mul_g2(&params.p(), &r);
        let (w, wp) = Self::message_points(msg, id, &keys.public, &u);
        // taint-public: V is a published signature component
        let v = partial
            .d
            .add(&ops::mul_g1(&w, &r)) // ct-ok: ZWXF baseline is variable-time per the paper
            .add(&ops::mul_g1(&wp, &keys.secret)); // ct-ok: ZWXF baseline is variable-time per the paper
        Signature::Zwxf { u, v }
    }

    fn verify(
        &self,
        params: &SystemParams,
        id: &[u8],
        public: &UserPublicKey,
        msg: &[u8],
        sig: &Signature,
    ) -> Result<(), VerifyError> {
        let Signature::Zwxf { u, v } = sig else {
            return Err(VerifyError::WrongScheme);
        };
        if public.has_identity_component() {
            return Err(VerifyError::IdentityPublicKey);
        }
        if u.is_identity() || v.is_identity() {
            return Err(VerifyError::IdentityPoint);
        }
        let (w, wp) = Self::message_points(msg, id, public, u);
        let q_id = params.hash_identity(id);
        // The four pairings fold into a single product with one shared
        // final exponentiation:
        // e(-V, P) · e(Q_ID, P_pub) · e(W, U) · e(W', P_ID) == 1.
        // P and P_pub ride on cached line coefficients; the two
        // signature-dependent G2 arguments are prepared on the fly.
        let v_neg = v.neg().to_affine();
        let q_aff = q_id.to_affine();
        let w_aff = w.to_affine();
        let wp_aff = wp.to_affine();
        let u_prep = G2Prepared::from_projective(u);
        let p_id_prep = G2Prepared::from_projective(&public.primary);
        let balanced = ops::pairing_product_prepared(&[
            (&v_neg, g2_prepared_generator()),
            (&q_aff, params.prepared_p_pub()),
            (&w_aff, &u_prep),
            (&wp_aff, &p_id_prep),
        ])
        .is_identity();
        if balanced {
            Ok(())
        } else {
            Err(VerifyError::PairingMismatch)
        }
    }

    fn claimed_table1_profile(&self) -> (ClaimedOps, ClaimedOps) {
        (ClaimedOps::new(0, 4, 0), ClaimedOps::new(4, 3, 0))
    }

    fn claimed_public_key_points(&self) -> usize {
        1
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::unreachable)] // tests may panic freely
mod tests {
    use super::*;
    use mccls_rng::SeedableRng;

    fn setup() -> (
        SystemParams,
        PartialPrivateKey,
        UserKeyPair,
        mccls_rng::rngs::StdRng,
    ) {
        let mut rng = mccls_rng::rngs::StdRng::seed_from_u64(70);
        let scheme = Zwxf::new();
        let (params, kgc) = scheme.setup(&mut rng);
        let partial = kgc.extract_partial_private_key(b"alice");
        let keys = scheme.generate_key_pair(&params, &mut rng);
        (params, partial, keys, rng)
    }

    #[test]
    fn sign_verify_round_trip() {
        let (params, partial, keys, mut rng) = setup();
        let scheme = Zwxf::new();
        let sig = scheme.sign(&params, b"alice", &partial, &keys, b"m", &mut rng);
        assert!(scheme
            .verify(&params, b"alice", &keys.public, b"m", &sig)
            .is_ok());
        assert!(scheme
            .verify(&params, b"alice", &keys.public, b"n", &sig)
            .is_err());
        assert!(scheme
            .verify(&params, b"bob", &keys.public, b"m", &sig)
            .is_err());
    }

    #[test]
    fn verify_rejects_swapped_components() {
        let (params, partial, keys, mut rng) = setup();
        let scheme = Zwxf::new();
        let s1 = scheme.sign(&params, b"alice", &partial, &keys, b"m1", &mut rng);
        let s2 = scheme.sign(&params, b"alice", &partial, &keys, b"m2", &mut rng);
        let (Signature::Zwxf { u: u1, .. }, Signature::Zwxf { v: v2, .. }) = (&s1, &s2) else {
            unreachable!()
        };
        let franken = Signature::Zwxf { u: *u1, v: *v2 };
        assert!(scheme
            .verify(&params, b"alice", &keys.public, b"m1", &franken)
            .is_err());
        assert!(scheme
            .verify(&params, b"alice", &keys.public, b"m2", &franken)
            .is_err());
    }

    #[test]
    fn operation_counts_match_claims_shape() {
        let (params, partial, keys, mut rng) = setup();
        let scheme = Zwxf::new();
        let (sig, sign_counts) =
            ops::measure(|| scheme.sign(&params, b"alice", &partial, &keys, b"m", &mut rng));
        assert_eq!(
            sign_counts.pairings, 0,
            "Table 1: ZWXF sign has no pairings"
        );
        assert_eq!(sign_counts.scalar_muls(), 3);
        assert_eq!(sign_counts.hashes_to_g1, 2);
        let (ok, verify_counts) =
            ops::measure(|| scheme.verify(&params, b"alice", &keys.public, b"m", &sig));
        assert!(ok.is_ok());
        assert_eq!(verify_counts.pairings, 4, "Table 1: ZWXF verify = 4p");
    }

    #[test]
    fn wire_round_trip() {
        let (params, partial, keys, mut rng) = setup();
        let scheme = Zwxf::new();
        let sig = scheme.sign(&params, b"alice", &partial, &keys, b"m", &mut rng);
        let parsed = Signature::from_bytes(&sig.to_bytes()).unwrap();
        assert!(scheme
            .verify(&params, b"alice", &keys.public, b"m", &parsed)
            .is_ok());
    }
}
