//! Reproduces **Table 1**: comparison of the CLS schemes — pairing /
//! scalar-multiplication / exponentiation counts for sign and verify,
//! and public key length — for AP, ZWXF, YHG, and McCLS.
//!
//! Unlike the paper, the operation counts here are *measured* from the
//! implementations via the instrumented wrappers in `mccls_core::ops`,
//! and wall-clock timings on this host are reported next to them. A
//! third column prints the *budgeted* counts straight from
//! `opcount-budgets.toml` (the same file `opcount_certified.rs` checks
//! at runtime); the binary exits non-zero if measurement and budget
//! ever disagree, so the printed table cannot drift from the file.
//!
//! The timings are committed rows of `BENCH_table1.json`, measured by
//! the shared sampler and checked by the shared baseline gate:
//! `table1/<scheme>/sign` and `table1/<scheme>/verify` (first contact)
//! per scheme, `table1/McCLS/verify_cached` (the warm verify with
//! `e(Q_ID, P_pub)` cached), and `table1/op/*`, the primitive costs
//! behind Table 1's `p`, `s` and `e`. The figure binaries charge the
//! committed McCLS sign and cached-verify medians per routing packet,
//! so `--update-baseline` is how a host's crypto cost reaches Fig. 3.
//!
//! Usage: `cargo run -p mccls-bench --release --bin table1
//! [-- --smoke] [--update-baseline] [--baseline <path>]`.

use std::process::ExitCode;

use mccls_bench::baseline::{self, Entry, Mode};
use mccls_bench::sampler::row;
use mccls_bench::TABLE1_SCHEMA;
use mccls_core::{all_schemes, ops, CertificatelessScheme, McCls, Verifier};
use mccls_pairing::{
    hash_to_g1, pairing, pairing_product, Fp, Fp12, Fr, G1Projective, G2Projective,
};
use mccls_rng::rngs::StdRng;
use mccls_rng::SeedableRng;
use mccls_xtask::opcount::{BudgetEntry, Budgets};

/// The message every row signs and verifies (32 bytes).
const MSG: &[u8] = b"table-1 measurement message (32B)";

/// Loads the committed budget file.
fn certified_budgets() -> Result<Budgets, String> {
    let path = baseline::committed_path("opcount-budgets.toml");
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    mccls_xtask::opcount::parse_budgets(&text)
}

/// Renders a budget entry in Table 1 shorthand and checks the measured
/// counts equal the certified ones; an `Err` carries the divergence.
fn certified_shorthand(entry: &BudgetEntry, counts: &ops::OpCounts) -> Result<String, String> {
    let mut certified = [0u64; 8];
    for (slot, out) in certified.iter_mut().enumerate() {
        *out = entry.budget.0[slot].eval(0);
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
/// table the budget file contradicts.
fn certify(budgets: &Budgets, key: &str, counts: &ops::OpCounts) -> Result<String, String> {
    let entry = budgets
        .get(key)
        .ok_or_else(|| format!("opcount-budgets.toml has no `{key}` entry"))?;
    certified_shorthand(entry, counts)
}

fn main() -> ExitCode {
    let mode = Mode::from_args("BENCH_table1.json");
    match run(mode.smoke) {
        Ok(rows) => baseline::gate(TABLE1_SCHEMA, &mode, &rows),
        Err(err) => {
            eprintln!("table1: {err}");
            ExitCode::FAILURE
        }
    }
}

/// Milliseconds of a row's median.
fn ms(row: &Entry) -> f64 {
    row.median_ns / 1e6
}

fn run(smoke: bool) -> Result<Vec<Entry>, String> {
    let budgets = certified_budgets()?;
    let samples = if smoke { 3 } else { 10 };
    let mut rng = StdRng::seed_from_u64(1);
    let mut rows = Vec::new();
    let mut table = Vec::new();
    for scheme in all_schemes() {
        let (params, kgc) = scheme.setup(&mut rng);
        let partial = scheme.extract_partial_private_key(&kgc, b"node-1");
        let keys = scheme.generate_key_pair(&params, &mut rng);

        let (sig, sign_counts) =
            ops::measure(|| scheme.sign(&params, b"node-1", &partial, &keys, MSG, &mut rng));
        let (ok, verify_counts) =
            ops::measure(|| scheme.verify(&params, b"node-1", &keys.public, MSG, &sig));
        assert!(ok.is_ok(), "{} verification failed", scheme.name());

        let prefix = scheme.name().to_lowercase();
        let sign_cert = certify(&budgets, &format!("{prefix}.sign"), &sign_counts)?;
        let verify_cert = certify(&budgets, &format!("{prefix}.verify"), &verify_counts)?;

        let sign = row(&format!("table1/{}/sign", scheme.name()), samples, || {
            scheme.sign(&params, b"node-1", &partial, &keys, MSG, &mut rng)
        });
        let verify = row(&format!("table1/{}/verify", scheme.name()), samples, || {
            scheme.verify(&params, b"node-1", &keys.public, MSG, &sig)
        });

        let (claim_sign, claim_verify) = scheme.claimed_table1_profile();
        table.push(format!(
            "{:<7} {:>14} {:>11} {:>16} {:>10.3} {:>15} {:>13} {:>17} {:>11.3} {:>9} {:>9}",
            scheme.name(),
            claim_sign.to_string(),
            sign_cert,
            sign_counts.shorthand(),
            ms(&sign),
            claim_verify.to_string(),
            verify_cert,
            verify_counts.shorthand(),
            ms(&verify),
            format!(
                "{}/{}",
                keys.public.num_points(),
                scheme.claimed_public_key_points()
            ),
            sig.encoded_len(),
        ));
        rows.extend([sign, verify]);
    }
    // The paper's "verify = 1p" row assumes the constant e(Q_ID, P_pub)
    // is precomputed; show that operating point explicitly.
    {
        let scheme = McCls::new();
        let (params, kgc) = scheme.setup(&mut rng);
        let partial = scheme.extract_partial_private_key(&kgc, b"node-1");
        let keys = scheme.generate_key_pair(&params, &mut rng);
        let sig = scheme.sign(&params, b"node-1", &partial, &keys, MSG, &mut rng);
        let mut verifier = Verifier::new(params);
        assert!(verifier.register_peer(b"node-1", keys.public).is_ok());
        let (ok, verify_counts) = ops::measure(|| verifier.verify(b"node-1", MSG, &sig));
        assert!(ok.is_ok());
        // The warm path is the certified `Verifier::verify` entry itself.
        let warm_cert = certify(&budgets, "verifier.verify", &verify_counts)?;
        let verify = row("table1/McCLS/verify_cached", samples, || {
            verifier.verify(b"node-1", MSG, &sig)
        });
        table.push(format!(
            "{:<7} {:>14} {:>11} {:>16} {:>10} {:>15} {:>13} {:>17} {:>11.3} {:>9} {:>9}",
            "McCLS*",
            "",
            "",
            "",
            "",
            "1p+1s",
            warm_cert,
            verify_counts.shorthand(),
            ms(&verify),
            "1/1",
            sig.encoded_len(),
        ));
        rows.push(verify);
    }
    rows.extend(primitive_rows(samples));

    println!();
    println!("# Table 1. Comparison of the CLS Schemes");
    println!("# claimed = the paper's symbolic counts; certified = the committed budget");
    println!("# (opcount-budgets.toml, checked at runtime); measured = instrumented counts");
    println!("# from this implementation; ms = the sampler's median on this host (release");
    println!("# build). The binary fails if measured and certified counts ever disagree.");
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
    for line in &table {
        println!("{line}");
    }
    println!();
    println!("# PK pts column: generated/claimed group elements per public key.");
    println!("# McCLS* = verification with the per-identity constant e(Q_ID, P_pub)");
    println!("# cached (the operating point Table 1's '1p' refers to); the plain");
    println!("# McCLS row is first-contact verification, which also evaluates the");
    println!("# constant once.");
    Ok(rows)
}

/// The primitive costs behind Table 1's notation (`p` pairing, `e`
/// `Gt` exponentiation, the map-to-point hash) and the field operations
/// beneath them. The unprepared pairing, both generator scalar
/// multiplications and `Fp12` multiplication are `pairing_precompute`'s
/// `pairing/before_unprepared`, `fixed_base_g*/before_generic` and
/// `tower/fp12_mul` rows.
fn primitive_rows(samples: usize) -> Vec<Entry> {
    let mut rng = StdRng::seed_from_u64(1);
    let k = Fr::random(&mut rng);
    let g1 = G1Projective::generator().to_affine();
    let g2 = G2Projective::generator().to_affine();
    let gt = pairing(&g1, &g2);
    let a = Fp::random(&mut rng);
    let b = Fp::random(&mut rng);
    let f12 = Fp12::random(&mut rng);
    vec![
        row("table1/op/gt_exp", samples, || gt.pow(&k)),
        row("table1/op/hash_to_g1", samples, || {
            hash_to_g1(b"some identity", b"BENCH")
        }),
        row("table1/op/pairing_product_2", samples, || {
            pairing_product(&[(g1, g2), (g1.neg(), g2)])
        }),
        row("table1/op/fp_mul", samples, || a.mul(&b)),
        row("table1/op/fp_invert", samples, || a.invert()),
        row("table1/op/fp12_square", samples, || f12.square()),
    ]
}
