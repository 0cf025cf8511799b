//! The Al-Riyami–Paterson (AP) certificateless signature scheme
//! (AsiaCrypt 2003) — the first CLS construction and the heaviest
//! baseline row in the paper's Table 1 (sign `1p+3s`, verify `4p+1e`,
//! two-point public keys).
//!
//! The original is stated over a symmetric pairing; this port keeps its
//! structure in the asymmetric setting:
//!
//! * keys: `S_A = x·D_A ∈ G1`; public key is the *pair*
//!   `(X_A, Y_A) = (x·G ∈ G1, x·P_pub ∈ G2)`.
//! * sign: pick `a`; `ρ = e(a·G, P)`; `v = H2(M ‖ ρ)`;
//!   `U = v·S_A + a·G`. Output `(U, v)`.
//! * verify: first check the public key is well formed
//!   (`e(X_A, P_pub) = e(G, Y_A)` — AP's substitute for a certificate),
//!   then recompute `ρ' = e(U, P)·e(Q_A, Y_A)^{-v}` and accept iff
//!   `v = H2(M ‖ ρ')`.
//!
//! Correctness: `e(U, P) = e(Q_A, P)^{v·x·s}·e(G, P)^a` and
//! `e(Q_A, Y_A)^{-v} = e(Q_A, P)^{-v·x·s}`, so the product is `ρ`.

use mccls_pairing::{g2_prepared_generator, Fr, G2Prepared, Gt};
use mccls_rng::RngCore;

use crate::ops;
use crate::params::{h2_scalar, PartialPrivateKey, SystemParams, UserKeyPair, UserPublicKey};
use crate::scheme::{CertificatelessScheme, ClaimedOps, Signature};
use crate::verify::VerifyError;

/// The AP scheme.
///
/// # Examples
///
/// ```
/// use mccls_core::{Ap, CertificatelessScheme};
/// use mccls_rng::SeedableRng;
///
/// let mut rng = mccls_rng::rngs::StdRng::seed_from_u64(2);
/// let scheme = Ap::new();
/// let (params, kgc) = scheme.setup(&mut rng);
/// let partial = scheme.extract_partial_private_key(&kgc, b"alice");
/// let keys = scheme.generate_key_pair(&params, &mut rng);
/// let sig = scheme.sign(&params, b"alice", &partial, &keys, b"msg", &mut rng);
/// assert!(scheme.verify(&params, b"alice", &keys.public, b"msg", &sig).is_ok());
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct Ap;

impl Ap {
    /// Creates the scheme handle.
    pub fn new() -> Self {
        Self
    }

    fn challenge(msg: &[u8], rho: &Gt) -> Fr {
        h2_scalar(&[b"ap", msg, &rho.to_bytes()])
    }
}

impl CertificatelessScheme for Ap {
    fn name(&self) -> &'static str {
        "AP"
    }

    fn generate_key_pair(&self, params: &SystemParams, rng: &mut dyn RngCore) -> UserKeyPair {
        let x = Fr::random_nonzero(rng);
        // ct-ok: AP derives its public key with the paper's variable-time mults
        let x_a = ops::mul_g1(&params.g(), &x);
        // ct-ok: AP derives its public key with the paper's variable-time mults
        let y_a = ops::mul_g2(&params.p_pub, &x);
        UserKeyPair {
            secret: x,
            public: UserPublicKey {
                primary: y_a,
                secondary: Some(x_a),
            },
        }
    }

    // opcount-budget: ap.sign
    fn sign(
        &self,
        params: &SystemParams,
        _id: &[u8],
        partial: &PartialPrivateKey,
        keys: &UserKeyPair,
        msg: &[u8],
        rng: &mut dyn RngCore,
    ) -> Signature {
        // S_A = x·D_A, recomputed per signature to stay faithful to the
        // paper's accounting (it charges AP's sign three scalar mults).
        // ct-ok: the AP baseline is variable-time per the paper's accounting
        let s_a = ops::mul_g1(&partial.d, &keys.secret);
        let a = Fr::random_nonzero(rng);
        // ct-ok: the AP baseline is variable-time per the paper's accounting
        let a_g = ops::mul_g1(&params.g(), &a);
        // ct-ok: the AP baseline is variable-time per the paper's accounting
        // taint-public: ρ is recomputed by every verifier from U, V and the keys
        let rho = ops::pair(&a_g.to_affine(), &params.p().to_affine());
        let v = Self::challenge(msg, &rho);
        // ct-ok: the AP baseline is variable-time per the paper's accounting
        // taint-public: U is a published signature component
        let u = ops::mul_g1(&s_a, &v).add(&a_g);
        Signature::Ap { u, v }
    }

    // opcount-budget: ap.verify
    fn verify(
        &self,
        params: &SystemParams,
        id: &[u8],
        public: &UserPublicKey,
        msg: &[u8],
        sig: &Signature,
    ) -> Result<(), VerifyError> {
        let Signature::Ap { u, v } = sig else {
            return Err(VerifyError::WrongScheme);
        };
        let Some(x_a) = public.secondary else {
            return Err(VerifyError::MissingKeyComponent);
        };
        if public.has_identity_component() {
            return Err(VerifyError::IdentityPublicKey);
        }
        if u.is_identity() {
            return Err(VerifyError::IdentityPoint);
        }
        // Public-key well-formedness, e(X_A, P_pub) == e(G, Y_A), folded
        // into one two-factor product e(X_A, P_pub)·e(-G, Y_A) == 1 with
        // a shared final exponentiation. P_pub's lines come prepared
        // from the params; Y_A's are prepared once and reused for ρ'.
        let y_a = G2Prepared::from_projective(&public.primary);
        let x_a_aff = x_a.to_affine();
        let g_neg = params.g().neg().to_affine();
        let well_formed =
            ops::pairing_product_prepared(&[(&x_a_aff, params.prepared_p_pub()), (&g_neg, &y_a)])
                .is_identity();
        if !well_formed {
            return Err(VerifyError::MalformedPublicKey);
        }
        // ρ' = e(U, P) · e(Q_A, Y_A)^{-v}.
        let q_a = params.hash_identity(id);
        let e_u = ops::pair_prepared(&u.to_affine(), g2_prepared_generator());
        let e_qy = ops::pair_prepared(&q_a.to_affine(), &y_a);
        let rho = e_u.mul(&ops::exp_gt(&e_qy, v).inverse());
        if Self::challenge(msg, &rho) == *v {
            Ok(())
        } else {
            Err(VerifyError::PairingMismatch)
        }
    }

    fn claimed_table1_profile(&self) -> (ClaimedOps, ClaimedOps) {
        (ClaimedOps::new(1, 3, 0), ClaimedOps::new(4, 0, 1))
    }

    fn claimed_public_key_points(&self) -> usize {
        2
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // tests may panic freely
mod tests {
    use super::*;
    use mccls_pairing::G1Projective;
    use mccls_rng::SeedableRng;

    fn setup() -> (
        SystemParams,
        PartialPrivateKey,
        UserKeyPair,
        mccls_rng::rngs::StdRng,
    ) {
        let mut rng = mccls_rng::rngs::StdRng::seed_from_u64(60);
        let scheme = Ap::new();
        let (params, kgc) = scheme.setup(&mut rng);
        let partial = kgc.extract_partial_private_key(b"alice");
        let keys = scheme.generate_key_pair(&params, &mut rng);
        (params, partial, keys, rng)
    }

    #[test]
    fn sign_verify_round_trip() {
        let (params, partial, keys, mut rng) = setup();
        let scheme = Ap::new();
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
    fn public_key_has_two_points() {
        let (_params, _partial, keys, _rng) = setup();
        assert_eq!(keys.public.num_points(), 2);
        assert_eq!(keys.public.encoded_len(), 144);
    }

    #[test]
    fn verify_rejects_mismatched_key_pair_components() {
        let (params, partial, keys, mut rng) = setup();
        let scheme = Ap::new();
        let sig = scheme.sign(&params, b"alice", &partial, &keys, b"m", &mut rng);
        // Replace X_A with a point not matching Y_A: well-formedness
        // check must fail.
        let mut bad = keys.public;
        bad.secondary = Some(G1Projective::generator());
        assert!(scheme.verify(&params, b"alice", &bad, b"m", &sig).is_err());
    }

    #[test]
    fn verify_rejects_single_point_public_key() {
        let (params, partial, keys, mut rng) = setup();
        let scheme = Ap::new();
        let sig = scheme.sign(&params, b"alice", &partial, &keys, b"m", &mut rng);
        let mut bad = keys.public;
        bad.secondary = None;
        assert!(scheme.verify(&params, b"alice", &bad, b"m", &sig).is_err());
    }

    #[test]
    fn operation_counts_match_claims_shape() {
        let (params, partial, keys, mut rng) = setup();
        let scheme = Ap::new();
        let (sig, sign_counts) =
            ops::measure(|| scheme.sign(&params, b"alice", &partial, &keys, b"m", &mut rng));
        assert_eq!(sign_counts.pairings, 1, "Table 1: AP sign = 1p");
        assert_eq!(sign_counts.scalar_muls(), 3, "Table 1: AP sign = 3s");
        let (ok, verify_counts) =
            ops::measure(|| scheme.verify(&params, b"alice", &keys.public, b"m", &sig));
        assert!(ok.is_ok());
        assert_eq!(verify_counts.pairings, 4, "Table 1: AP verify = 4p");
        assert_eq!(verify_counts.gt_exps, 1, "Table 1: AP verify = 1e");
    }
}
