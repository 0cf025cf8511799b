//! The prepared-pairing harness: measures what the precomputation layer
//! buys on the verify hot path and guards the paper's "one pairing"
//! claim with op-counter assertions.
//!
//! Four benchmark families; all but **tower** are before/after pairs:
//!
//! * **pairing** — a full `pairing()` call (Miller-loop lines recomputed
//!   every time) vs. a prepared evaluation over cached [`G2Prepared`]
//!   line coefficients, plus its two halves on their own: the final
//!   exponentiation of a Miller-loop output and `G2Prepared::from_affine`.
//! * **tower** — one `Fp2`, `Fp6` and `Fp12` multiplication each (the
//!   `*` operator).
//! * **fixed-base** — generic double-and-add generator multiplication
//!   vs. the precomputed signed radix-16 tables in G1 and G2.
//! * **verify** — stateless `McCls::verify` (re-derives `e(Q_ID,
//!   P_pub)` per call) vs. the cached [`Verifier`] hot path, and `n`
//!   individual verifications vs. one `batch_verify` (`n + 1` Miller
//!   loops, one shared final exponentiation).
//!
//! Usage: `cargo run -p mccls-bench --release [-- --smoke]
//! [--update-baseline] [--baseline <path>]`.
//!
//! `--smoke` shrinks sample counts for CI; in both modes the run fails
//! (non-zero exit) on any op-count violation and on the shared baseline
//! gate ([`mccls_bench::baseline::gate`]) against the committed
//! `BENCH_pairing.json`: a missing or mistagged file, a >10x median
//! regression, or a committed row the run no longer produces. Pass
//! `--update-baseline` to rewrite that file from the current run.

use std::process::ExitCode;

use mccls_bench::baseline::{self, Entry, Mode};
use mccls_bench::sampler::row;
use mccls_core::batch::{batch_verify, BatchItem};
use mccls_core::{ops, CertificatelessScheme, McCls, Verifier};
use mccls_pairing::{
    g1_generator_table, g2_generator_table, multi_miller_loop, pairing, Fp12, Fp2, Fp6, Fr,
    G1Projective, G2Prepared, G2Projective,
};
use mccls_rng::rngs::StdRng;
use mccls_rng::SeedableRng;

/// Schema tag of `BENCH_pairing.json`.
const SCHEMA: &str = "mccls-bench/pairing_precompute/v1";

/// Batch size for the batch-verify comparison.
const BATCH_N: usize = 8;

/// One signer's worth of McCLS material for the verify benchmarks.
struct World {
    params: mccls_core::SystemParams,
    verifier: Verifier,
    items: Vec<(
        Vec<u8>,
        mccls_core::UserPublicKey,
        Vec<u8>,
        mccls_core::Signature,
    )>,
    rng: StdRng,
}

fn build_world() -> World {
    let mut rng = StdRng::seed_from_u64(0xBE_BC);
    let scheme = McCls::new();
    let (params, kgc) = scheme.setup(&mut rng);
    let mut verifier = Verifier::new(params.clone());
    let mut items = Vec::with_capacity(BATCH_N);
    for i in 0..BATCH_N {
        let id = format!("node-{i}").into_bytes();
        let partial = kgc.extract_partial_private_key(&id);
        let keys = scheme.generate_key_pair(&params, &mut rng);
        let msg = format!("routing payload {i}").into_bytes();
        let sig = scheme.sign(&params, &id, &partial, &keys, &msg, &mut rng);
        let registered = verifier.register_peer(&id, keys.public);
        assert!(
            registered.is_ok(),
            "benchmark keys are honest: {registered:?}"
        );
        items.push((id, keys.public, msg, sig));
    }
    World {
        params,
        verifier,
        items,
        rng,
    }
}

/// The op-counter contract behind Table 1: violations panic, which CI
/// treats as failure.
fn assert_op_counts(world: &mut World) {
    let (id, _public, msg, sig) = &world.items[0];
    let (res, counts) = ops::measure(|| world.verifier.verify(id, msg, sig));
    assert!(res.is_ok(), "warm verify must accept: {res:?}");
    assert_eq!(counts.pairings, 1, "cached verify must cost one pairing");
    assert_eq!(
        counts.miller_loops, 1,
        "cached verify must run exactly one Miller loop"
    );
    assert_eq!(
        counts.final_exps, 1,
        "cached verify must run exactly one final exponentiation"
    );
    println!(
        "op-counts: cached single-verify = {} Miller loop(s) + {} final exp(s)  [OK]",
        counts.miller_loops, counts.final_exps
    );

    let batch: Vec<BatchItem> = world
        .items
        .iter()
        .map(|(id, public, msg, sig)| BatchItem {
            id,
            public,
            msg,
            sig,
        })
        .collect();
    let (res, counts) = ops::measure(|| batch_verify(&world.params, &batch, &mut world.rng));
    assert!(res.all_valid(), "batch verify must accept: {res:?}");
    assert!(
        counts.miller_loops <= batch.len() as u64 + 1,
        "batch of {} must cost at most n+1 Miller loops, got {}",
        batch.len(),
        counts.miller_loops
    );
    assert_eq!(
        counts.final_exps, 1,
        "batch verify must share a single final exponentiation"
    );
    println!(
        "op-counts: batch of {} = {} Miller loop(s) + {} final exp(s)  [OK]",
        batch.len(),
        counts.miller_loops,
        counts.final_exps
    );
}

fn run_benches(smoke: bool, world: &mut World) -> Vec<Entry> {
    let samples = if smoke { 3 } else { 12 };
    let mut rng = StdRng::seed_from_u64(0xF1E1D);
    let p = G1Projective::generator()
        .mul_scalar(&Fr::random_nonzero(&mut rng))
        .to_affine();
    let q_proj = G2Projective::generator().mul_scalar(&Fr::random_nonzero(&mut rng));
    let q = q_proj.to_affine();
    let q_prep = G2Prepared::from_affine(&q);
    let miller = multi_miller_loop(&[(&p, &q_prep)]);
    let mut rows = vec![
        row("pairing/before_unprepared", samples, || pairing(&p, &q)),
        row("pairing/after_prepared", samples, || {
            multi_miller_loop(&[(&p, &q_prep)]).final_exponentiation()
        }),
        row("pairing/final_exp", samples, || {
            miller.final_exponentiation()
        }),
        row("pairing/g2_prepare", samples, || {
            G2Prepared::from_affine(&q)
        }),
    ];

    let x2 = Fp2::random(&mut rng);
    let y2 = Fp2::random(&mut rng);
    rows.push(row("tower/fp2_mul", samples, || x2 * y2));
    let x6 = Fp6::random(&mut rng);
    let y6 = Fp6::random(&mut rng);
    rows.push(row("tower/fp6_mul", samples, || x6 * y6));
    let x12 = Fp12::random(&mut rng);
    let y12 = Fp12::random(&mut rng);
    rows.push(row("tower/fp12_mul", samples, || x12 * y12));

    let k = Fr::random_nonzero(&mut rng);
    rows.push(row("fixed_base_g1/before_generic", samples, || {
        G1Projective::generator().mul_scalar(&k)
    }));
    rows.push(row("fixed_base_g1/after_table", samples, || {
        g1_generator_table().mul(&k)
    }));
    rows.push(row("fixed_base_g2/before_generic", samples, || {
        G2Projective::generator().mul_scalar(&k)
    }));
    rows.push(row("fixed_base_g2/after_table", samples, || {
        g2_generator_table().mul(&k)
    }));

    let scheme = McCls::new();
    let (id, public, msg, sig) = world.items[0].clone();
    rows.push(row("verify/before_stateless", samples, || {
        scheme.verify(&world.params, &id, &public, &msg, &sig)
    }));
    rows.push(row("verify/after_cached", samples, || {
        world.verifier.verify(&id, &msg, &sig)
    }));

    let items = world.items.clone();
    let batch: Vec<BatchItem> = items
        .iter()
        .map(|(id, public, msg, sig)| BatchItem {
            id,
            public,
            msg,
            sig,
        })
        .collect();
    rows.push(row("batch8/before_individual", samples, || {
        batch
            .iter()
            .all(|item| world.verifier.verify(item.id, item.msg, item.sig).is_ok())
    }));
    rows.push(row("batch8/after_multi_miller_loop", samples, || {
        batch_verify(&world.params, &batch, &mut world.rng)
    }));
    rows
}

fn main() -> ExitCode {
    let mode = Mode::from_args("BENCH_pairing.json");
    println!("pairing_precompute harness ({} mode)\n", mode.label());

    let mut world = build_world();
    assert_op_counts(&mut world);
    println!();

    let current = run_benches(mode.smoke, &mut world);
    baseline::gate(SCHEMA, &mode, &current)
}
