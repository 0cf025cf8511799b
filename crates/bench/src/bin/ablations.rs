//! Ablations of the reproduction's design choices (see DESIGN.md):
//!
//! 1. black hole variant — the paper-matching drop-only attacker vs the
//!    textbook forging attacker,
//! 2. route selection — RFC sequence-number updates vs first-RREP-wins,
//! 3. expanding-ring search vs flat flooding,
//! 4. link-break sensing latency (the blind window behind Fig. 1's
//!    speed decay),
//! 5. crypto cost sensitivity for Fig. 3's delay gap: free, the
//!    committed Table 1 cost the figures charge, and 50x that cost (a
//!    2008-era pairing).

use mccls_aodv::experiment::{scenario, AttackKind};
use mccls_aodv::{Behavior, CryptoCost, Metrics, Network, Protocol, ScenarioConfig};
use mccls_bench::{committed_cost, FigureOpts};
use mccls_sim::SimDuration;

fn pooled(opts: FigureOpts, build: impl Fn(u64) -> ScenarioConfig) -> Metrics {
    let mut m = Metrics::default();
    for t in 0..opts.trials {
        m.merge(&Network::new(build(opts.seed.wrapping_add(t * 7919))).run());
    }
    m
}

fn main() -> Result<(), String> {
    let opts = FigureOpts::from_args();
    let committed = committed_cost()?;
    let speed = 10.0;
    // All ablations start from the shared experiment-setup helper and
    // tweak exactly one knob from there.
    let base = |seed: u64| scenario(Protocol::Aodv, AttackKind::None, speed, seed, None);

    println!(
        "# Ablation study @ {speed} m/s, {} trials pooled",
        opts.trials
    );
    println!();

    println!("## 1. Black hole variant (plain AODV)");
    let drop_only = pooled(opts, |s| base(s).with_attackers(Behavior::BlackHole, 2));
    let forging = pooled(opts, |s| {
        base(s).with_attackers(Behavior::ForgingBlackHole, 2)
    });
    println!("drop-only (paper's Marti et al. model): {drop_only}");
    println!("forging   (textbook seq-inflation):     {forging}");
    println!();

    println!("## 2. Route selection under the forging black hole");
    let rfc = pooled(opts, |s| {
        base(s).with_attackers(Behavior::ForgingBlackHole, 2)
    });
    let first_wins = pooled(opts, |s| {
        let mut cfg = base(s).with_attackers(Behavior::ForgingBlackHole, 2);
        cfg.aodv.first_rrep_wins = true;
        cfg
    });
    println!("RFC seq-number updates: {rfc}");
    println!("first-RREP-wins:        {first_wins}");
    println!();

    println!("## 3. Expanding-ring search (no attack)");
    let flat = pooled(opts, base);
    let ring = pooled(opts, |s| {
        let mut cfg = base(s);
        cfg.aodv.expanding_ring = true;
        cfg
    });
    println!("flat floods:    {flat} | RREQ fwd {}", flat.rreq_forwarded);
    println!("expanding ring: {ring} | RREQ fwd {}", ring.rreq_forwarded);
    println!();

    println!("## 4. Link-break sensing latency (no attack)");
    for ms in [0u64, 500, 1_500, 3_000] {
        let m = pooled(opts, |s| {
            let mut cfg = base(s);
            cfg.aodv.link_break_detection = SimDuration::from_millis(ms);
            cfg
        });
        println!("detection {ms:>5} ms: {m}");
    }
    println!();

    println!("## 5. Crypto cost sensitivity (secured, no attack)");
    let times50 = CryptoCost {
        sign: committed.sign.saturating_mul(50),
        verify: committed.verify.saturating_mul(50),
    };
    for (label, cost) in [
        ("free", CryptoCost::FREE),
        ("committed (table1)", committed),
        ("2008-era (50x)", times50),
    ] {
        let m = pooled(opts, |s| {
            let mut cfg = base(s).secured();
            cfg.crypto_cost = cost;
            cfg
        });
        println!(
            "{label:<22}: sign {:.3} ms, verify {:.3} ms: {m}",
            cost.sign.as_secs_f64() * 1e3,
            cost.verify.as_secs_f64() * 1e3
        );
    }
    Ok(())
}
