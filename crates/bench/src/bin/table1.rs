//! Reproduces **Table 1**: comparison of the CLS schemes — pairing /
//! scalar-multiplication / exponentiation counts for sign and verify,
//! and public key length — for AP, ZWXF, YHG, and McCLS.
//!
//! Unlike the paper, the operation counts here are *measured* from the
//! implementations via the instrumented wrappers in `mccls_core::ops`,
//! and wall-clock timings on this host are reported next to them. A
//! third column prints the *statically certified* counts straight from
//! `opcount-budgets.toml` (the same file the xtask `opcount` gate
//! enforces); the binary exits non-zero if measurement and
//! certification ever disagree, so the printed table cannot drift from
//! the gate.

use std::process::ExitCode;
use std::time::Instant;

use mccls_core::{all_schemes, ops, CertificatelessScheme};
use mccls_rng::SeedableRng;
use mccls_xtask::opcount::{BudgetEntry, Budgets};

fn time_op(mut f: impl FnMut(), iters: u32) -> f64 {
    // Warm up once (fills lazy pairing-exponent caches).
    f();
    let t0 = Instant::now();
    for _ in 0..iters {
        f();
    }
    t0.elapsed().as_secs_f64() * 1e3 / iters as f64
}

/// Loads the committed budget file the xtask gate certifies against.
fn certified_budgets() -> Result<Budgets, String> {
    let root = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let path = root.join("opcount-budgets.toml");
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    mccls_xtask::opcount::parse_budgets(&text)
}

/// Renders a budget entry in Table 1 shorthand and checks the measured
/// counts equal the certified ones; an `Err` carries the divergence.
fn certified_shorthand(entry: &BudgetEntry, counts: &ops::OpCounts) -> Result<String, String> {
    let mut certified = [0u64; 8];
    for (slot, out) in certified.iter_mut().enumerate() {
        *out = entry.budget.0[slot].eval(0).ok_or_else(|| {
            format!(
                "budget `{}` is unbounded — the gate should have failed",
                entry.key
            )
        })?;
    }
    let measured = [
        counts.pairings,
        counts.miller_loops,
        counts.final_exps,
        counts.g1_muls,
        counts.g2_muls,
        counts.gt_exps,
        counts.hashes_to_g1,
        counts.fp_inversions,
    ];
    if measured != certified {
        return Err(format!(
            "measured counts {measured:?} diverge from certified budget `{}` {certified:?} \
             (counter order: {:?})",
            entry.key,
            mccls_xtask::opcount::COUNTERS
        ));
    }
    let as_counts = ops::OpCounts {
        pairings: certified[0],
        miller_loops: certified[1],
        final_exps: certified[2],
        g1_muls: certified[3],
        g2_muls: certified[4],
        gt_exps: certified[5],
        hashes_to_g1: certified[6],
        fp_inversions: certified[7],
    };
    Ok(as_counts.shorthand())
}

/// Looks up `key` and cross-checks it, exiting the process on any
/// divergence — the whole point of the column is to refuse to print a
/// table the gate would reject.
fn certify(budgets: &Budgets, key: &str, counts: &ops::OpCounts) -> Result<String, String> {
    let entry = budgets
        .get(key)
        .ok_or_else(|| format!("opcount-budgets.toml has no `{key}` entry"))?;
    certified_shorthand(entry, counts)
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("table1: {err}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), String> {
    let budgets = certified_budgets()?;
    let mut rng = mccls_rng::rngs::StdRng::seed_from_u64(1);
    println!("# Table 1. Comparison of the CLS Schemes");
    println!("# claimed = the paper's symbolic counts; certified = statically proven by the");
    println!("# xtask opcount gate (opcount-budgets.toml); measured = instrumented counts");
    println!("# from this implementation; ms = wall-clock on this host (release build).");
    println!("# The binary fails if measured and certified counts ever disagree.");
    println!(
        "{:<7} {:>14} {:>11} {:>16} {:>10} {:>15} {:>13} {:>17} {:>11} {:>9} {:>9}",
        "Scheme",
        "Sign(claimed)",
        "Sign(cert)",
        "Sign(measured)",
        "Sign ms",
        "Verify(claimed)",
        "Verify(cert)",
        "Verify(measured)",
        "Verify ms",
        "PK pts",
        "Sig B"
    );
    for scheme in all_schemes() {
        let (params, kgc) = scheme.setup(&mut rng);
        let partial = scheme.extract_partial_private_key(&kgc, b"node-1");
        let keys = scheme.generate_key_pair(&params, &mut rng);
        let msg = b"table-1 measurement message (32B)";

        let (sig, sign_counts) =
            ops::measure(|| scheme.sign(&params, b"node-1", &partial, &keys, msg, &mut rng));
        let (ok, verify_counts) =
            ops::measure(|| scheme.verify(&params, b"node-1", &keys.public, msg, &sig));
        assert!(ok.is_ok(), "{} verification failed", scheme.name());

        let prefix = scheme.name().to_lowercase();
        let sign_cert = certify(&budgets, &format!("{prefix}.sign"), &sign_counts)?;
        let verify_cert = certify(&budgets, &format!("{prefix}.verify"), &verify_counts)?;

        let sign_ms = time_op(
            || {
                let _ = scheme.sign(&params, b"node-1", &partial, &keys, msg, &mut rng);
            },
            10,
        );
        let verify_ms = time_op(
            || {
                let _ = scheme.verify(&params, b"node-1", &keys.public, msg, &sig);
            },
            10,
        );

        let (claim_sign, claim_verify) = scheme.claimed_table1_profile();
        println!(
            "{:<7} {:>14} {:>11} {:>16} {:>10.3} {:>15} {:>13} {:>17} {:>11.3} {:>9} {:>9}",
            scheme.name(),
            claim_sign.to_string(),
            sign_cert,
            sign_counts.shorthand(),
            sign_ms,
            claim_verify.to_string(),
            verify_cert,
            verify_counts.shorthand(),
            verify_ms,
            format!(
                "{}/{}",
                keys.public.num_points(),
                scheme.claimed_public_key_points()
            ),
            sig.encoded_len(),
        );
    }
    // The paper's "verify = 1p" row assumes the constant e(Q_ID, P_pub)
    // is precomputed; show that operating point explicitly.
    {
        let scheme = mccls_core::McCls::new();
        let (params, kgc) = scheme.setup(&mut rng);
        let partial = scheme.extract_partial_private_key(&kgc, b"node-1");
        let keys = scheme.generate_key_pair(&params, &mut rng);
        let msg = b"table-1 measurement message (32B)";
        let sig = scheme.sign(&params, b"node-1", &partial, &keys, msg, &mut rng);
        let mut verifier = mccls_core::Verifier::new(params);
        assert!(verifier.register_peer(b"node-1", keys.public).is_ok());
        let (ok, verify_counts) = ops::measure(|| verifier.verify(b"node-1", msg, &sig));
        assert!(ok.is_ok());
        // The warm path is the certified `Verifier::verify` entry itself.
        let warm_cert = certify(&budgets, "verifier.verify", &verify_counts)?;
        let verify_ms = time_op(
            || {
                let _ = verifier.verify(b"node-1", msg, &sig);
            },
            10,
        );
        println!(
            "{:<7} {:>14} {:>11} {:>16} {:>10} {:>15} {:>13} {:>17} {:>11.3} {:>9} {:>9}",
            "McCLS*",
            "",
            "",
            "",
            "",
            "1p+1s",
            warm_cert,
            verify_counts.shorthand(),
            verify_ms,
            "1/1",
            sig.encoded_len(),
        );
    }

    println!();
    println!("# PK pts column: generated/claimed group elements per public key.");
    println!("# McCLS* = verification with the per-identity constant e(Q_ID, P_pub)");
    println!("# cached (the operating point Table 1's '1p' refers to); the plain");
    println!("# McCLS row is first-contact verification, which also evaluates the");
    println!("# constant once.");
    Ok(())
}
