//! Runs the Type I / Type II adversary games against every scheme and
//! demonstrates the reproduction's two security findings: the McCLS
//! scheme is *forgeable by a malicious KGC* (its unproved Theorem 2
//! does not hold), and *one observed signature forges any message for
//! its signer* (so its Theorem 1 does not hold either), although its
//! Type I claim survives every generic strategy in the harness.
//!
//! Run with: `cargo run --release --example security_analysis`

use mccls::cls::security::{
    mccls_signature_reuse_forgery, mccls_type2_forgery, run_type1_game, run_type2_game,
};
use mccls::cls::{all_schemes, CertificatelessScheme, McCls};
use mccls_rng::SeedableRng;

fn main() {
    let mut rng = mccls_rng::rngs::StdRng::seed_from_u64(5);

    println!("== Type I games (public-key replacement, no master secret) ==");
    for scheme in all_schemes() {
        let report = run_type1_game(scheme.as_ref(), &mut rng);
        for o in &report.outcomes {
            println!(
                "  {:<6} {:<48} {}",
                report.scheme,
                o.strategy,
                if o.forged { "FORGED!" } else { "rejected" }
            );
        }
    }

    println!("\n== Type II games (malicious KGC, honest public keys) ==");
    for scheme in all_schemes() {
        let report = run_type2_game(scheme.as_ref(), &mut rng);
        for o in &report.outcomes {
            println!(
                "  {:<6} {:<48} {}",
                report.scheme,
                o.strategy,
                if o.forged { "FORGED!" } else { "rejected" }
            );
        }
    }

    println!("\n== Constructive Type II break of McCLS ==");
    println!("(S = D_ID, R = rho*P, V = h*(1+rho) — no user secret needed)");
    let scheme = McCls::new();
    let (params, kgc) = scheme.setup(&mut rng);
    let victim = scheme.generate_key_pair(&params, &mut rng);
    let msg = b"any message the malicious KGC chooses";
    let forged = mccls_type2_forgery(&params, &kgc, b"victim", &victim.public, msg, &mut rng);
    let accepted = scheme
        .verify(&params, b"victim", &victim.public, msg, &forged)
        .is_ok();
    println!(
        "forged signature under the victim's registered public key: {}",
        if accepted {
            "ACCEPTED — Theorem 2 is refuted"
        } else {
            "rejected"
        }
    );
    assert!(accepted, "the reproduction's forgery must verify");

    println!("\n== Signature-reuse break of McCLS (Type I, no key replacement) ==");
    println!("(r = V/h, x*P = r*P - R; R' = r'*P - x*P, V' = h'*r', S' = S)");
    let partial = kgc.extract_partial_private_key(b"victim");
    let observed = scheme.sign(&params, b"victim", &partial, &victim, b"RREQ", &mut rng);
    let msg = b"any message the eavesdropper chooses";
    let accepted =
        mccls_signature_reuse_forgery(&params, &victim.public, b"RREQ", &observed, msg, &mut rng)
            .is_some_and(|forged| {
                scheme
                    .verify(&params, b"victim", &victim.public, msg, &forged)
                    .is_ok()
            });
    println!(
        "signature forged from one observed signature: {}",
        if accepted {
            "ACCEPTED — Theorem 1 is refuted"
        } else {
            "rejected"
        }
    );
    assert!(accepted, "the signature-reuse forgery must verify");
}
