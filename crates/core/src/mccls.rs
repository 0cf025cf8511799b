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
//! Since `V·P - h·R = h·((V·h⁻¹)·P - R)`, the verifier computes the
//! equal `e(S, (V·h⁻¹)·P - R)`: one fixed-base G2 multiplication and
//! the pairing, the paper's `1p + 1s`.
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
    /// `(V·h⁻¹)·P - R`, and returns `(S, (V·h⁻¹)·P - R)`, the two
    /// arguments of the left-hand pairing (see the module doc).
    // S and R come from a `Signature` the caller holds, so they are
    // subgroup points only if its decoder checked them.
    pub(crate) fn equation_terms(
        public: &UserPublicKey,
        msg: &[u8],
        sig: &Signature,
    ) -> Result<(G1Projective, G2Projective), VerifyError> {
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
        let lhs_g2 = ops::mul_g2_fixed(g2_generator_table(), &v.mul(&h_inv)).sub(r);
        if lhs_g2.is_identity() {
            return Err(VerifyError::IdentityPoint);
        }
        Ok((*s, lhs_g2))
    }

    /// The verifier's left-hand pairing `e(S, (V·h⁻¹)·P - R)`, which
    /// equals the paper's `e(S/h, V·P - h·R)`; shared by
    /// [`CertificatelessScheme::verify`] and both registries.
    pub(crate) fn verification_pairing(
        public: &UserPublicKey,
        msg: &[u8],
        sig: &Signature,
    ) -> Result<Gt, VerifyError> {
        let (s, lhs_g2) = Self::equation_terms(public, msg, sig)?;
        Ok(ops::pair(&s.to_affine(), &lhs_g2.to_affine()))
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

    // opcount-budget: mccls.sign
    fn sign(
        &self,
        _params: &SystemParams,
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
        // scalars are secret: S takes the ct ladder, R the ct comb over
        // the generator's table.
        // taint-public: S and R are published signature components
        let s = ops::mul_g1_ct(&partial.d, &x_inv);
        // taint-public: R is a published signature component
        let r = ops::mul_g2_fixed(g2_generator_table(), &r_scalar.sub(&keys.secret));
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
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::unreachable)] // tests may panic freely
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

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::unreachable)] // tests may panic freely
mod reference {
    //! The paper's verification equation, kept as the reference for the
    //! computed form every verify path uses.
    //!
    //! [`paper_pairing`] evaluates `e(S/h, V·P - h·R)` as written: after
    //! the same structural checks, a variable-base `h·R`, a variable-base
    //! `S/h` and an identity check on `S/h`. It uses only public
    //! operations. The differential test feeds it and the production code
    //! the same inputs, from seed 20080617:
    //!
    //! * valid, tampered and wrong-identity signatures of sixteen
    //!   identities;
    //! * the four strategies of [`crate::security::run_type1_game`], the
    //!   Type II forgery and identity components;
    //! * on-curve points outside the subgroup from the one-low-byte
    //!   `from_compressed_unchecked` sweep, as `S`, as `R`, added to `S`
    //!   and to `R`, and as `R` with `V = 0`.
    //!
    //! On subgroup inputs the left-hand `Gt` (or the error) is identical
    //! bit for bit. On every input the verdicts agree on accept or reject.
    //! The error differs in one place only: an `S` of order 3 (the sweep's
    //! `x = 0` point) becomes the identity as `S/h` whenever 3 divides
    //! `h⁻¹`, which the reference reports as `IdentityPoint`; the computed
    //! form pairs `S` itself and reports `PairingMismatch`.

    use super::*;
    use crate::params::Kgc;
    use crate::security::mccls_type2_forgery;
    use mccls_pairing::{pairing, G1Affine, G2Affine};
    use mccls_rng::rngs::StdRng;
    use mccls_rng::SeedableRng;

    /// `e(S/h, V·P - h·R)`, the paper's left-hand side.
    fn paper_pairing(
        public: &UserPublicKey,
        msg: &[u8],
        sig: &Signature,
    ) -> Result<Gt, VerifyError> {
        let Signature::McCls { v, s, r } = sig else {
            return Err(VerifyError::WrongScheme);
        };
        if public.has_identity_component() {
            return Err(VerifyError::IdentityPublicKey);
        }
        if s.is_identity() || r.is_identity() {
            return Err(VerifyError::IdentityPoint);
        }
        let h = h2_scalar(&[
            b"mccls",
            msg,
            &r.to_affine().to_compressed(),
            &public.to_bytes(),
        ]);
        let h_inv = h.invert().ok_or(VerifyError::NonInvertibleChallenge)?;
        let lhs_g2 = g2_generator_table().mul(v).sub(&r.mul_scalar(&h));
        if lhs_g2.is_identity() {
            return Err(VerifyError::IdentityPoint);
        }
        let s_over_h = s.mul_scalar(&h_inv);
        if s_over_h.is_identity() {
            return Err(VerifyError::IdentityPoint);
        }
        Ok(pairing(&s_over_h.to_affine(), &lhs_g2.to_affine()))
    }

    /// Where an input's points lie.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Points {
        /// Every point is in its prime-order subgroup.
        Subgroup,
        /// `S` is an order-3 point; `R` is honest.
        OrderThreeS,
        /// Some other point is outside its subgroup.
        Outside,
    }

    struct Case {
        name: String,
        points: Points,
        id: Vec<u8>,
        public: UserPublicKey,
        msg: Vec<u8>,
        sig: Signature,
    }

    fn has_order_three(p: &G1Projective) -> bool {
        p.double().add(p).is_identity()
    }

    /// The on-curve points the one-low-byte sweep of each group's
    /// unchecked decoder finds; none lies in the subgroup.
    fn swept_points() -> (Vec<G1Projective>, Vec<G2Projective>) {
        let mut g1_points = Vec::new();
        let mut g2_points = Vec::new();
        for low in 0..=255u8 {
            let mut g1 = [0u8; 48];
            g1[0] = 0b1000_0000;
            g1[47] = low;
            if let Some(p) = G1Affine::from_compressed_unchecked(&g1) {
                assert!(!p.is_torsion_free(), "x={low}");
                g1_points.push(p.to_projective());
            }
            let mut g2 = [0u8; 96];
            g2[0] = 0b1000_0000;
            g2[95] = low;
            if let Some(q) = G2Affine::from_compressed_unchecked(&g2) {
                assert!(!q.is_torsion_free(), "x={low}");
                g2_points.push(q.to_projective());
            }
        }
        (g1_points, g2_points)
    }

    /// The four strategies of `run_type1_game` against `victim`, as
    /// (strategy, presented public key, signature) on
    /// [`TYPE1_MESSAGE`].
    fn type1_forgeries(
        params: &SystemParams,
        kgc: &Kgc,
        (victim, victim_keys): (&[u8], &UserKeyPair),
        rng: &mut StdRng,
    ) -> Vec<(&'static str, UserPublicKey, Signature)> {
        let scheme = McCls::new();
        let victim_partial = kgc.extract_partial_private_key(victim);
        let replay = scheme.sign(params, victim, &victim_partial, victim_keys, b"other", rng);
        let random = Signature::McCls {
            v: Fr::random_nonzero(rng),
            s: G1Projective::generator().mul_scalar(&Fr::random_nonzero(rng)),
            r: G2Projective::generator().mul_scalar(&Fr::random_nonzero(rng)),
        };
        let adversary = scheme.generate_key_pair(params, rng);
        let fabricated = PartialPrivateKey {
            d: G1Projective::generator().mul_scalar(&Fr::random_nonzero(rng)),
        };
        let replaced = scheme.sign(params, victim, &fabricated, &adversary, TYPE1_MESSAGE, rng);
        let own = kgc.extract_partial_private_key(b"adversary");
        let transplant = scheme.sign(params, b"adversary", &own, &adversary, TYPE1_MESSAGE, rng);
        vec![
            ("random components", victim_keys.public, random),
            ("key replacement", adversary.public, replaced),
            ("identity transplant", adversary.public, transplant),
            ("message replay", victim_keys.public, replay),
        ]
    }

    const TYPE1_MESSAGE: &[u8] = b"forged routing update";

    /// Every input of the differential test.
    fn corpus(params: &SystemParams, kgc: &Kgc, rng: &mut StdRng) -> Vec<Case> {
        let scheme = McCls::new();
        let mut cases = Vec::new();
        let mut add = |name: String, points, id: &[u8], public, msg: &[u8], sig| {
            cases.push(Case {
                name,
                points,
                id: id.to_vec(),
                public,
                msg: msg.to_vec(),
                sig,
            });
        };
        let (g1_swept, g2_swept) = swept_points();
        let order_three = *g1_swept.first().expect("x = 0 is on the curve");
        assert!(has_order_three(&order_three));
        let mut node0 = None;
        for i in 0..16 {
            let id = format!("node-{i}").into_bytes();
            let msg = format!("message #{i}").into_bytes();
            let partial = kgc.extract_partial_private_key(&id);
            let keys = scheme.generate_key_pair(params, rng);
            let sig = scheme.sign(params, &id, &partial, &keys, &msg, rng);
            let Signature::McCls { v, r, .. } = sig else {
                unreachable!("McCLS signs McCLS signatures");
            };
            for (what, m) in [("valid", &msg[..]), ("tampered", b"tampered")] {
                let name = format!("node-{i} {what}");
                add(name, Points::Subgroup, &id, keys.public, m, sig.clone());
                let bad = Signature::McCls {
                    v,
                    s: order_three,
                    r,
                };
                let name = format!("node-{i} {what}, order-3 S");
                add(name, Points::OrderThreeS, &id, keys.public, m, bad);
            }
            let name = format!("node-{i} wrong id");
            add(
                name,
                Points::Subgroup,
                b"stranger",
                keys.public,
                &msg,
                sig.clone(),
            );
            node0.get_or_insert((id, msg, keys, sig));
        }
        let (id, msg, keys, sig) = node0.expect("sixteen signers");
        for (strategy, public, forged) in type1_forgeries(params, kgc, (&id, &keys), rng) {
            let name = format!("Type I {strategy}");
            add(name, Points::Subgroup, &id, public, TYPE1_MESSAGE, forged);
        }
        let forged = mccls_type2_forgery(params, kgc, &id, &keys.public, &msg, rng);
        add(
            "Type II forgery".into(),
            Points::Subgroup,
            &id,
            keys.public,
            &msg,
            forged,
        );
        let identity_key = UserPublicKey {
            primary: G2Projective::identity(),
            secondary: None,
        };
        add(
            "identity key".into(),
            Points::Subgroup,
            &id,
            identity_key,
            &msg,
            sig.clone(),
        );
        let Signature::McCls { v, s, r } = sig else {
            unreachable!("McCLS signs McCLS signatures");
        };
        let mut variant = |name: String, points, v, s, r| {
            let bad = Signature::McCls { v, s, r };
            add(
                format!("node-0 {name}"),
                points,
                &id,
                keys.public,
                &msg,
                bad,
            );
        };
        let (o1, o2) = (G1Projective::identity(), G2Projective::identity());
        variant("identity S".into(), Points::Subgroup, v, o1, r);
        variant("identity R".into(), Points::Subgroup, v, s, o2);
        variant("V = 0".into(), Points::Subgroup, Fr::zero(), s, r);
        for (k, u) in g1_swept.iter().enumerate() {
            let points = if has_order_three(u) {
                Points::OrderThreeS
            } else {
                Points::Outside
            };
            variant(format!("S = U{k}"), points, v, *u, r);
            variant(format!("S + U{k}"), Points::Outside, v, s.add(u), r);
        }
        for (k, u) in g2_swept.iter().enumerate() {
            variant(format!("R = U'{k}"), Points::Outside, v, s, *u);
            variant(format!("R + U'{k}"), Points::Outside, v, s, r.add(u));
            variant(
                format!("R = U'{k}, V = 0"),
                Points::Outside,
                Fr::zero(),
                s,
                *u,
            );
        }
        cases
    }

    #[test]
    fn computed_form_gives_the_papers_verdicts() {
        let mut rng = StdRng::seed_from_u64(20080617);
        let scheme = McCls::new();
        let (params, kgc) = scheme.setup(&mut rng);
        let cases = corpus(&params, &kgc, &mut rng);
        assert_eq!(cases.len(), 677);
        let mut targets = std::collections::HashMap::new();
        let mut accepted = Vec::new();
        let mut shifted = Vec::new();
        for c in &cases {
            let target = *targets
                .entry(c.id.clone())
                .or_insert_with(|| McCls::verification_target(&params, &c.id));
            let paper = paper_pairing(&c.public, &c.msg, &c.sig);
            let paper_verdict = paper.and_then(|lhs| {
                if lhs == target {
                    Ok(())
                } else {
                    Err(VerifyError::PairingMismatch)
                }
            });
            let verdict = scheme.verify(&params, &c.id, &c.public, &c.msg, &c.sig);
            assert_eq!(verdict.is_ok(), paper_verdict.is_ok(), "{}", c.name);
            if verdict.is_ok() {
                accepted.push(c.name.as_str());
            }
            if c.points == Points::Subgroup {
                let computed = McCls::verification_pairing(&c.public, &c.msg, &c.sig);
                assert_eq!(computed, paper, "{}", c.name);
                assert_eq!(verdict, paper_verdict, "{}", c.name);
            } else if verdict != paper_verdict {
                assert_eq!(c.points, Points::OrderThreeS, "{}", c.name);
                assert_eq!(paper_verdict, Err(VerifyError::IdentityPoint), "{}", c.name);
                assert_eq!(verdict, Err(VerifyError::PairingMismatch), "{}", c.name);
                shifted.push(c.name.as_str());
            }
        }
        let mut expected: Vec<String> = (0..16).map(|i| format!("node-{i} valid")).collect();
        expected.push("Type II forgery".into());
        // The order-3 point `U0` (x = 0) added to the honest `S`: the
        // pairing of an order-3 point is trivial, so both forms accept.
        // Only the decoders' subgroup check keeps it off the wire.
        expected.push("node-0 S + U0".into());
        assert_eq!(accepted, expected);
        assert_eq!(
            shifted,
            [
                "node-2 valid, order-3 S",
                "node-4 tampered, order-3 S",
                "node-5 valid, order-3 S",
                "node-5 tampered, order-3 S",
                "node-7 valid, order-3 S",
                "node-8 valid, order-3 S",
                "node-8 tampered, order-3 S",
                "node-9 valid, order-3 S",
                "node-12 valid, order-3 S",
            ]
        );
    }
}
