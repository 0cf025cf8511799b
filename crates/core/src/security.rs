//! Adversarial-game harnesses for the two CLS adversary types of
//! Al-Riyami and Paterson (the paper's Section 5 model):
//!
//! * **Type I** — an outsider who may *replace public keys* but does not
//!   know the master secret,
//! * **Type II** — an honest-but-curious/malicious KGC who knows the
//!   master secret `s` but not user secret values.
//!
//! [`run_type1_game`] and [`run_type2_game`] throw a battery of natural
//! forgery strategies at a scheme and report which (if any) verify.
//!
//! # Reproduction finding
//!
//! The paper claims (Theorem 2) that McCLS resists Type II adversaries
//! but omits the proof "due to the page limitation". Reproducing the
//! scheme faithfully lets us *refute* that claim constructively:
//! [`mccls_type2_forgery`] builds, from the master secret alone, a
//! signature on any message that verifies under any user's public key —
//! see the module tests and `EXPERIMENTS.md`.
//!
//! The Type I theorem (Theorem 1) fails too, to a weaker adversary than
//! Type I: [`mccls_signature_reuse_forgery`] turns one observed McCLS
//! signature into a signature on any message for the same signer, with
//! no secret and no key replacement. The generic strategies of
//! [`run_type1_game`] do not find it; the baselines resist all of them.

use mccls_pairing::{Fr, G1Projective, G2Projective};
use mccls_rng::RngCore;

use crate::mccls::McCls;
use crate::params::{h2_scalar, Kgc, SystemParams, UserPublicKey};
use crate::scheme::{CertificatelessScheme, Signature};

/// Outcome of one forgery strategy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttackOutcome {
    /// Human-readable strategy name.
    pub strategy: &'static str,
    /// Whether the forged signature passed verification.
    pub forged: bool,
}

/// Report of a full adversary game against one scheme.
#[derive(Debug, Clone)]
pub struct GameReport {
    /// Scheme under attack.
    pub scheme: &'static str,
    /// Adversary class ("Type I" / "Type II").
    pub adversary: &'static str,
    /// Per-strategy outcomes.
    pub outcomes: Vec<AttackOutcome>,
}

impl GameReport {
    /// True when no strategy produced a verifying forgery.
    pub fn all_rejected(&self) -> bool {
        self.outcomes.iter().all(|o| !o.forged)
    }
}

fn random_signature_like(template: &Signature, rng: &mut dyn RngCore) -> Signature {
    // ct-ok: adversary-side forgery fodder, not honest key material
    // taint-public: fabricated group element the adversary publishes
    let g1 = G1Projective::generator().mul_scalar(&Fr::random_nonzero(rng));
    // ct-ok: adversary-side forgery fodder, not honest key material
    // taint-public: fabricated group element the adversary publishes
    let g2 = G2Projective::generator().mul_scalar(&Fr::random_nonzero(rng));
    match template {
        Signature::McCls { .. } => Signature::McCls {
            v: Fr::random_nonzero(rng),
            s: g1,
            r: g2,
        },
        Signature::Ap { .. } => Signature::Ap {
            u: g1,
            v: Fr::random_nonzero(rng),
        },
        Signature::Zwxf { .. } => Signature::Zwxf { u: g2, v: g1 },
        Signature::Yhg { .. } => {
            // ct-ok: adversary-side forgery fodder, not honest key material
            // taint-public: fabricated group element the adversary publishes
            let g1b = G1Projective::generator().mul_scalar(&Fr::random_nonzero(rng));
            Signature::Yhg { u: g1, v: g1b }
        }
    }
}

/// Runs the Type I game: the adversary sees the victim's identity and
/// public key, may replace the public key with one it generated, but has
/// neither the master secret nor the victim's partial private key.
///
/// Strategies exercised:
/// 1. random signature components of the right shape,
/// 2. signing with a *fabricated* partial private key under a replaced
///    public key the adversary fully controls,
/// 3. transplanting a valid signature from a different identity,
/// 4. replaying a valid signature on a different message.
pub fn run_type1_game(scheme: &dyn CertificatelessScheme, rng: &mut dyn RngCore) -> GameReport {
    let (params, kgc) = scheme.setup(rng);
    let victim_id: &[u8] = b"victim";
    let victim_partial = kgc.extract_partial_private_key(victim_id);
    let victim_keys = scheme.generate_key_pair(&params, rng);
    let msg: &[u8] = b"forged routing update";

    let mut outcomes = Vec::new();

    // A reference signature fixes the shape for strategy 1.
    let reference = scheme.sign(
        &params,
        victim_id,
        &victim_partial,
        &victim_keys,
        b"other msg",
        rng,
    );

    // Strategy 1: random components.
    let random_sig = random_signature_like(&reference, rng);
    outcomes.push(AttackOutcome {
        strategy: "random components",
        forged: scheme
            .verify(&params, victim_id, &victim_keys.public, msg, &random_sig)
            .is_ok(),
    });

    // Strategy 2: replace the public key and sign with a fabricated
    // partial private key (the adversary cannot compute s·Q_ID).
    let adversary_keys = scheme.generate_key_pair(&params, rng);
    let fake_partial = crate::params::PartialPrivateKey {
        // ct-ok: the adversary fabricates this key; the game measures
        // forgeability, not timing
        d: G1Projective::generator().mul_scalar(&Fr::random_nonzero(rng)),
    };
    // taint-public: the forgery is handed to the verifier, i.e. published
    let forged = scheme.sign(&params, victim_id, &fake_partial, &adversary_keys, msg, rng);
    outcomes.push(AttackOutcome {
        strategy: "public key replacement + fabricated partial key",
        forged: scheme
            .verify(&params, victim_id, &adversary_keys.public, msg, &forged)
            .is_ok(),
    });

    // Strategy 3: transplant a signature valid for another identity the
    // adversary legitimately controls.
    let adv_id: &[u8] = b"adversary";
    let adv_partial = kgc.extract_partial_private_key(adv_id);
    let adv_sig = scheme.sign(&params, adv_id, &adv_partial, &adversary_keys, msg, rng);
    debug_assert!(scheme
        .verify(&params, adv_id, &adversary_keys.public, msg, &adv_sig)
        .is_ok());
    outcomes.push(AttackOutcome {
        strategy: "identity transplant",
        forged: scheme
            .verify(&params, victim_id, &adversary_keys.public, msg, &adv_sig)
            .is_ok(),
    });

    // Strategy 4: replay a valid victim signature on a new message.
    outcomes.push(AttackOutcome {
        strategy: "message replay",
        forged: scheme
            .verify(&params, victim_id, &victim_keys.public, msg, &reference)
            .is_ok(),
    });

    GameReport {
        scheme: scheme.name(),
        adversary: "Type I",
        outcomes,
    }
}

/// Runs the Type II game with *generic* strategies: the adversary holds
/// the master secret (so it can derive any partial private key) but not
/// the victim's secret value; it may not replace public keys.
///
/// Scheme-specific algebraic attacks (like [`mccls_type2_forgery`]) are
/// separate, deliberately: this function captures what a lazy malicious
/// KGC tries against *any* scheme.
pub fn run_type2_game(scheme: &dyn CertificatelessScheme, rng: &mut dyn RngCore) -> GameReport {
    let (params, kgc) = scheme.setup(rng);
    let victim_id: &[u8] = b"victim";
    let victim_partial = kgc.extract_partial_private_key(victim_id);
    let victim_keys = scheme.generate_key_pair(&params, rng);
    let msg: &[u8] = b"forged by the KGC";

    let mut outcomes = Vec::new();

    // Strategy 1: sign with the correct partial key but a guessed secret
    // value.
    let guessed = crate::params::UserKeyPair {
        secret: Fr::random_nonzero(rng),
        public: victim_keys.public,
    };
    // taint-public: the forgery is handed to the verifier, i.e. published
    let sig = scheme.sign(&params, victim_id, &victim_partial, &guessed, msg, rng);
    outcomes.push(AttackOutcome {
        strategy: "correct partial key + guessed secret value",
        forged: scheme
            .verify(&params, victim_id, &victim_keys.public, msg, &sig)
            .is_ok(),
    });

    // Strategy 2: sign with the KGC's own fresh key pair and claim it
    // verifies under the victim's registered public key.
    let kgc_keys = scheme.generate_key_pair(&params, rng);
    let sig = scheme.sign(&params, victim_id, &victim_partial, &kgc_keys, msg, rng);
    outcomes.push(AttackOutcome {
        strategy: "KGC key pair against registered public key",
        forged: scheme
            .verify(&params, victim_id, &victim_keys.public, msg, &sig)
            .is_ok(),
    });

    GameReport {
        scheme: scheme.name(),
        adversary: "Type II",
        outcomes,
    }
}

/// The constructive Type II break of McCLS (refutes the paper's
/// Theorem 2).
///
/// Knowing only the master secret `s`, forge `σ = (V, S, R)` on any
/// `(ID, message, public key)`:
///
/// * `S = D_ID = s·H1(ID)` — the partial key, which the KGC computes,
/// * `R = ρ·P` for arbitrary `ρ`,
/// * `h = H2(M, R, P_ID)`, `V = h·(1 + ρ)`.
///
/// Verification computes `(V·h⁻¹)·P - R = (1+ρ)·P - ρ·P = P` and then
/// `e(S, P) = e(D_ID, P) = e(Q_ID, P_pub)` — exactly the acceptance
/// condition, with the victim's secret value never involved.
pub fn mccls_type2_forgery(
    params: &SystemParams,
    kgc: &Kgc,
    id: &[u8],
    victim_public: &UserPublicKey,
    msg: &[u8],
    rng: &mut dyn RngCore,
) -> Signature {
    let s = kgc.master_secret_for_type2_games();
    let q_id = params.hash_identity(id);
    // ct-ok: the type-2 simulator legitimately holds the master secret;
    // the game measures forgeability, not timing
    // taint-public: the forged signature is handed to the verifier, i.e. published
    let d_id = q_id.mul_scalar(&s);
    let rho = Fr::random_nonzero(rng);
    // ct-ok: the type-2 simulator legitimately holds the master secret;
    // the game measures forgeability, not timing
    // taint-public: R of the forged signature is published to the verifier
    let r = params.p().mul_scalar(&rho);
    let h = h2_scalar(&[
        b"mccls",
        msg,
        &r.to_affine().to_compressed(),
        &victim_public.to_bytes(),
    ]);
    // taint-public: V of the forged signature is published to the verifier
    let v = h.mul(&Fr::one().add(&rho));
    Signature::McCls { v, s: d_id, r }
}

/// Forges McCLS signatures on any message from one observed signature
/// of the same signer; refutes the paper's Theorem 1 without a key
/// replacement.
///
/// `McCls::sign` publishes `V = h·r` next to `R = (r - x)·P`, and the
/// challenge `h = H2(M, R, P_ID)` is public. From `σ = (V, S, R)` on
/// `observed_msg` anyone recovers `r = V·h⁻¹` and `x·P = r·P - R`, then
/// picks any `r'` and outputs, for `msg`:
///
/// * `R' = r'·P - x·P`,
/// * `V' = H2(msg, R', P_ID)·r'`,
/// * `S' = S`, which no message changes.
///
/// Verification computes `(V'·h'⁻¹)·P - R' = r'·P - R' = x·P` and
/// `e(S, x·P) = e(Q_ID, P_pub)`, as for the observed signature. `None`
/// when `observed` is not a McCLS signature or its challenge has no
/// inverse.
pub fn mccls_signature_reuse_forgery(
    params: &SystemParams,
    public: &UserPublicKey,
    observed_msg: &[u8],
    observed: &Signature,
    msg: &[u8],
    rng: &mut dyn RngCore,
) -> Option<Signature> {
    let Signature::McCls { v, s, r } = observed else {
        return None;
    };
    let h_inv = McCls::challenge(observed_msg, r, public).invert()?;
    let x_p = params.p().mul_scalar(&v.mul(&h_inv)).sub(r);
    let r_new = Fr::random_nonzero(rng);
    // ct-ok: the forger's own nonce; the game measures forgeability,
    // not timing
    // taint-public: R' of the forged signature is published to the verifier
    let r_point = params.p().mul_scalar(&r_new).sub(&x_p);
    let h = McCls::challenge(msg, &r_point, public);
    // taint-public: V' of the forged signature is published to the verifier
    let v_new = h.mul(&r_new);
    Some(Signature::McCls {
        v: v_new,
        s: *s,
        r: r_point,
    })
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // tests may panic freely
mod tests {
    use super::*;
    use crate::{Ap, VerifyError, Yhg, Zwxf};
    use mccls_rng::SeedableRng;

    fn schemes() -> Vec<Box<dyn CertificatelessScheme>> {
        vec![
            Box::new(McCls::new()),
            Box::new(Ap::new()),
            Box::new(Zwxf::new()),
            Box::new(Yhg::new()),
        ]
    }

    #[test]
    fn type1_strategies_all_rejected() {
        let mut rng = mccls_rng::rngs::StdRng::seed_from_u64(90);
        for scheme in schemes() {
            let report = run_type1_game(scheme.as_ref(), &mut rng);
            assert!(
                report.all_rejected(),
                "{} Type I: {:?}",
                report.scheme,
                report.outcomes
            );
        }
    }

    #[test]
    fn generic_type2_strategies_rejected_by_baselines() {
        let mut rng = mccls_rng::rngs::StdRng::seed_from_u64(91);
        for scheme in [
            &Ap::new() as &dyn CertificatelessScheme,
            &Zwxf::new(),
            &Yhg::new(),
        ] {
            let report = run_type2_game(scheme, &mut rng);
            assert!(
                report.all_rejected(),
                "{} Type II (generic): {:?}",
                report.scheme,
                report.outcomes
            );
        }
    }

    #[test]
    fn generic_type2_game_exposes_mccls() {
        // McCLS verification only binds the user's secret value through
        // the hash input, so a KGC signing with the correct partial key
        // and *any* guessed secret value produces a verifying signature.
        // The baselines reject this (previous test); McCLS does not.
        let mut rng = mccls_rng::rngs::StdRng::seed_from_u64(94);
        let report = run_type2_game(&McCls::new(), &mut rng);
        let guessed = report
            .outcomes
            .iter()
            .find(|o| o.strategy == "correct partial key + guessed secret value")
            .expect("strategy present");
        assert!(
            guessed.forged,
            "McCLS must be forgeable by a Type II adversary with a guessed secret value"
        );
        let cross_key = report
            .outcomes
            .iter()
            .find(|o| o.strategy == "KGC key pair against registered public key")
            .expect("strategy present");
        assert!(
            !cross_key.forged,
            "challenge binding still rejects key confusion"
        );
    }

    #[test]
    fn mccls_algebraic_type2_forgery_verifies() {
        // This is the reproduction finding: the malicious-KGC forgery
        // *succeeds*, contradicting the paper's (unproved) Theorem 2.
        let mut rng = mccls_rng::rngs::StdRng::seed_from_u64(92);
        let scheme = McCls::new();
        let (params, kgc) = scheme.setup(&mut rng);
        let victim_keys = scheme.generate_key_pair(&params, &mut rng);
        let forged = mccls_type2_forgery(
            &params,
            &kgc,
            b"victim",
            &victim_keys.public,
            b"malicious KGC message",
            &mut rng,
        );
        assert!(
            scheme
                .verify(
                    &params,
                    b"victim",
                    &victim_keys.public,
                    b"malicious KGC message",
                    &forged
                )
                .is_ok(),
            "the Type II forgery must verify — McCLS's Theorem 2 does not hold"
        );
    }

    #[test]
    fn mccls_signature_reuse_forgery_verifies() {
        // One observed signature on one message signs three others for
        // the same signer; the paper's Theorem 1 does not hold.
        let mut rng = mccls_rng::rngs::StdRng::seed_from_u64(95);
        let scheme = McCls::new();
        let (params, kgc) = scheme.setup(&mut rng);
        let partial = kgc.extract_partial_private_key(b"victim");
        let keys = scheme.generate_key_pair(&params, &mut rng);
        let observed = scheme.sign(&params, b"victim", &partial, &keys, b"hello", &mut rng);
        for msg in [&b"route reply: via me"[..], b"", b"hello"] {
            let forged = mccls_signature_reuse_forgery(
                &params,
                &keys.public,
                b"hello",
                &observed,
                msg,
                &mut rng,
            )
            .unwrap();
            assert_ne!(forged, observed);
            assert_eq!(
                scheme.verify(&params, b"victim", &keys.public, msg, &forged),
                Ok(()),
                "the reuse forgery must verify — McCLS's Theorem 1 does not hold"
            );
        }
    }

    #[test]
    fn mccls_signature_reuse_forgery_needs_the_victims_signature() {
        // Built from another identity's signature, the forgery carries
        // that identity's `S` and fails for the victim.
        let mut rng = mccls_rng::rngs::StdRng::seed_from_u64(96);
        let scheme = McCls::new();
        let (params, kgc) = scheme.setup(&mut rng);
        let keys = scheme.generate_key_pair(&params, &mut rng);
        let other = kgc.extract_partial_private_key(b"bystander");
        let observed = scheme.sign(&params, b"bystander", &other, &keys, b"hello", &mut rng);
        let forged = mccls_signature_reuse_forgery(
            &params,
            &keys.public,
            b"hello",
            &observed,
            b"msg",
            &mut rng,
        )
        .unwrap();
        assert_eq!(
            scheme.verify(&params, b"victim", &keys.public, b"msg", &forged),
            Err(VerifyError::PairingMismatch)
        );
        assert_eq!(
            scheme.verify(&params, b"bystander", &keys.public, b"msg", &forged),
            Ok(()),
            "the forgery is the bystander's"
        );
    }

    #[test]
    fn mccls_type2_forgery_needs_the_master_secret() {
        // The same template built with a *wrong* master secret fails,
        // confirming the forgery genuinely uses the KGC's knowledge.
        let mut rng = mccls_rng::rngs::StdRng::seed_from_u64(93);
        let scheme = McCls::new();
        let (params, _kgc) = scheme.setup(&mut rng);
        let wrong_kgc = Kgc::from_master_secret(Fr::from_u64(12345));
        let victim_keys = scheme.generate_key_pair(&params, &mut rng);
        let forged = mccls_type2_forgery(
            &params,
            &wrong_kgc,
            b"victim",
            &victim_keys.public,
            b"msg",
            &mut rng,
        );
        assert!(scheme
            .verify(&params, b"victim", &victim_keys.public, b"msg", &forged)
            .is_err());
    }
}
