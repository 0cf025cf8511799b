//! The traced run (`--trace 1`): all three workloads, each first
//! untraced and then traced over fresh inputs, plus replays of a sample
//! of requests through the layers below and the lowest layers' per-call
//! costs. It reports every per-layer metric, each parent's unexplained
//! share, the tracing overhead, and its own end-to-end numbers; the
//! spans are written to `perfbench/out/` when it ends.

use std::path::Path;
use std::time::{Duration, Instant};

use mccls_core::ops::OpCounts;

use crate::city::{self, Scale};
use crate::report::{line, Report};
use crate::stats::Samples;
use crate::trace::{self, Span, Tracer};
use crate::{fig3, layers, relay, sink, POOL_RAN_OUT};

/// Every `n`-th relay packet / sink frame is replayed.
const RELAY_REPLAY_EVERY: usize = 8;
const SINK_REPLAY_EVERY: usize = 16;
/// Honest packets timed uncontended on one thread.
const UNCONTENDED: usize = 24;
/// Where the spans are written, relative to the working directory.
const SPAN_DIR: &str = "perfbench/out";

/// Op-count classes and counters reported as `ops.<class>.<counter>`.
const OP_CLASSES: [&str; 5] = ["warm", "first_contact", "sign", "frame", "flush"];
const OP_COUNTERS: [&str; 8] = [
    "pairings",
    "miller_loops",
    "final_exps",
    "g1_muls",
    "g2_muls",
    "gt_exps",
    "hashes_to_g1",
    "fp_inversions",
];

fn counter(c: &OpCounts, name: &str) -> u64 {
    match name {
        "pairings" => c.pairings,
        "miller_loops" => c.miller_loops,
        "final_exps" => c.final_exps,
        "g1_muls" => c.g1_muls,
        "g2_muls" => c.g2_muls,
        "gt_exps" => c.gt_exps,
        "hashes_to_g1" => c.hashes_to_g1,
        _ => c.fp_inversions,
    }
}

/// Median duration of the spans named `name`, ns.
fn span_ns(spans: &[Span], name: &str) -> Option<f64> {
    let mut s = Samples::default();
    for span in spans.iter().filter(|s| s.name == name) {
        s.push(span.duration_ns() as f64);
    }
    s.median()
}

/// `1 − Σ children / parent` over span medians: the part of the
/// parent's time its replayed children do not account for.
fn unexplained(spans: &[Span], parent: &str, children: &[&str]) -> Option<f64> {
    let p = span_ns(spans, parent)?;
    let c: Option<f64> = children.iter().map(|c| span_ns(spans, c)).sum();
    Some(1.0 - c? / p)
}

fn ratio(a: f64, b: f64) -> Option<f64> {
    (b != 0.0).then(|| a / b)
}

/// Runs the traced pass and reports the per-layer metrics.
pub fn run(seed: u64, seconds: f64) -> Report {
    let epoch = Instant::now();
    let seg = |share: f64| Duration::from_secs_f64(seconds * share);
    let mut r = Report::default();

    // relay_auth: untraced with both workers, with one worker (for the
    // parallel efficiency), then traced with replays.
    let pool = relay::pool_len(0.5 * seconds, relay::POOL_PER_SECOND, 512);
    let relay = relay::Relay::build(seed, pool);
    let plain = relay::run(&relay, seed, relay::WORKERS, seg(0.15), false, epoch, 0);
    let single = relay::run(&relay, seed, 1, seg(0.1), false, epoch, 0);
    let mut traced = relay::run(
        &relay,
        seed,
        relay::WORKERS,
        seg(0.2),
        true,
        epoch,
        RELAY_REPLAY_EVERY,
    );
    let mut tr = Tracer::new(true, epoch, trace::fresh_base());
    let uncontended_failed = relay::uncontended(&relay, seed, UNCONTENDED, &mut tr);
    let mut relay_spans = tr.into_spans();
    relay_spans.append(&mut traced.spans);
    r.attempted += plain.packets + single.packets + traced.packets;
    r.failed += plain.failed + single.failed + traced.failed + uncontended_failed;
    if plain.exhausted || single.exhausted || traced.exhausted {
        r.errors.push(format!("relay_auth: {POOL_RAN_OUT}"));
    }
    println!("relay_auth (traced run)");
    line("packets_per_s untraced", plain.packets_per_s(), "1/s", "");
    line(
        "packets_per_s traced",
        traced.packets_per_s(),
        "1/s",
        "with replays",
    );
    line(
        "packets_per_s one worker",
        single.packets_per_s(),
        "1/s",
        "",
    );

    // sensor_sink: untraced, then traced with replays.
    let windows = sink::pool_windows(0.35 * seconds).max(4 * sink::DIRTY_BLOCK);
    let mut sink = sink::Sink::build(seed, windows);
    let sink_plain = sink::run(&mut sink, seg(0.12), sink::DIRTY_BLOCK, false, epoch, 0);
    let mut sink_traced = sink::run(
        &mut sink,
        seg(0.18),
        sink::DIRTY_BLOCK,
        true,
        epoch,
        SINK_REPLAY_EVERY,
    );
    let sink_spans = std::mem::take(&mut sink_traced.spans);
    r.attempted += sink_plain.frames + sink_traced.frames;
    r.failed += sink_plain.failed + sink_traced.failed;
    if sink_plain.exhausted || sink_traced.exhausted {
        r.errors.push(format!("sensor_sink: {POOL_RAN_OUT}"));
    }
    println!("sensor_sink (traced run)");
    line(
        "frames_per_s untraced",
        sink_plain.frames_per_s(),
        "1/s",
        "",
    );
    line(
        "frames_per_s traced",
        sink_traced.frames_per_s(),
        "1/s",
        "with replays",
    );

    // city_sim: one untraced and one traced run of the city itself.
    let cfg = Scale::City.config();
    let city_plain = city::run(&[Scale::City], Duration::ZERO, 1, false, epoch);
    let mut city_traced = city::run(&[Scale::City], Duration::ZERO, 1, true, epoch);
    let city_spans = std::mem::take(&mut city_traced.spans);
    r.attempted += city_plain.runs + city_traced.runs;
    r.failed += city_plain.failed + city_traced.failed;
    println!("city_sim (traced run)");
    for (label, run) in [("untraced", &city_plain), ("traced", &city_traced)] {
        if let Some(v) = run.sim_s_per_s() {
            line(&format!("sim_s_per_s {label}"), v, "sim-s/s", "");
        }
    }

    let tower = layers::tower(seed);
    let sim = layers::simulator(
        seed,
        city::NODES,
        city::SPEED,
        (cfg.area_width, cfg.area_height, cfg.radio_range),
    );
    let layer = |name: &str| {
        tower
            .iter()
            .chain(sim.iter())
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    };
    // Each layer is read from the workload whose replays exercise it,
    // so contended (relay) and single-threaded (sink) timings never mix.
    let ms = |spans: &[Span], name: &str| span_ns(spans, name).map(|v| v / 1e6);
    let us = |spans: &[Span], name: &str| span_ns(spans, name).map(|v| v / 1e3);
    let (rs, ss, cs) = (&relay_spans[..], &sink_spans[..], &city_spans[..]);

    for (name, value) in &tower {
        let unit = if name.ends_with("_us") { "us" } else { "ns" };
        r.metric(name, Some(*value), unit);
    }
    let unprepared = ms(rs, "pairing.unprepared");
    let final_exp = ms(rs, "pairing.final_exp");
    r.metric("pairing.unprepared_ms", unprepared, "ms");
    r.metric("pairing.final_exp_ms", final_exp, "ms");
    r.metric(
        "pairing.miller_ms",
        unprepared.zip(final_exp).map(|(u, f)| u - f),
        "ms",
    );
    r.metric("gt.pow_us", us(ss, "gt.pow"), "us");
    r.metric(
        "prepared.g2_prepare_ms",
        ms(ss, "prepared.g2_prepare"),
        "ms",
    );
    r.metric("prepared.miller_ms", ms(ss, "prepared.miller"), "ms");
    r.metric("prepared.g2_fixed_us", us(rs, "prepared.g2_fixed"), "us");
    r.metric("curve.g2_mul_us", us(rs, "curve.g2_mul"), "us");
    r.metric("curve.g1_mul_us", us(rs, "curve.g1_mul"), "us");
    r.metric("curve.g1_mul_ct_us", us(rs, "curve.g1_mul_ct"), "us");
    r.metric("curve.g2_mul_ct_us", us(rs, "curve.g2_mul_ct"), "us");
    r.metric("g1.hash_to_g1_us", us(rs, "g1.hash_to_g1"), "us");
    r.metric("g2.decode_us", us(rs, "g2.decode"), "us");
    r.metric("hash.h2_us", us(rs, "hash.h2"), "us");
    r.metric(
        "hash.sha256_payload_ns",
        layer("hash.sha256_payload_ns"),
        "ns",
    );
    r.metric("mccls.sign_ms", ms(rs, "mccls.sign"), "ms");
    r.metric("verify.warm_ms", ms(rs, "verify.warm"), "ms");
    r.metric("registry.verify_ms", ms(rs, "registry.verify"), "ms");
    r.metric("registry.register_ms", ms(rs, "registry.register"), "ms");
    let packets = plain.packets + single.packets + traced.packets;
    let firsts = plain.first.len() + single.first.len() + traced.first.len();
    r.metric(
        "registry.first_contact_share",
        ratio(firsts as f64, packets as f64),
        "ratio",
    );
    r.metric(
        "registry.parallel_efficiency",
        ratio(
            plain.packets_per_s(),
            relay::WORKERS as f64 * single.packets_per_s(),
        ),
        "ratio",
    );

    let mut absorb = sink_plain.absorb.clone();
    let mut flush = sink_plain.flush.clone();
    let mut dirty_flush = sink_plain.dirty_flush.clone();
    let dirty_windows = sink_plain.dirty_windows + sink_traced.dirty_windows;
    let frames = sink_plain.frames + sink_traced.frames;
    absorb.append(&mut sink_traced.absorb.clone());
    flush.append(&mut sink_traced.flush.clone());
    dirty_flush.append(&mut sink_traced.dirty_flush.clone());
    r.metric("batch.absorb_ms", absorb.median(), "ms");
    r.metric("batch.flush_ms", flush.median(), "ms");
    r.metric("batch.dirty_flush_ms", dirty_flush.median(), "ms");
    r.metric(
        "batch.isolation_checks",
        ratio(
            (sink_plain.isolation_checks + sink_traced.isolation_checks) as f64,
            dirty_windows as f64,
        ),
        "count",
    );
    r.metric(
        "batch.bisection_depth",
        ratio(
            (sink_plain.bisection_depth + sink_traced.bisection_depth) as f64,
            dirty_windows as f64,
        ),
        "count",
    );
    r.metric(
        "batch.miller_loops_per_frame",
        ratio(
            (sink_plain.miller_loops + sink_traced.miller_loops) as f64,
            frames as f64,
        ),
        "ratio",
    );
    r.metric(
        "batch.unchecked",
        Some((sink_plain.unchecked + sink_traced.unchecked) as f64),
        "count",
    );

    let mut class_ops = plain.class_ops.clone();
    for (class, counts) in traced.class_ops.iter().chain(single.class_ops.iter()) {
        class_ops.entry(*class).or_insert(*counts);
    }
    if let Some(c) = sink_plain.frame_ops.or(sink_traced.frame_ops) {
        class_ops.insert("frame", c);
    }
    if let Some(c) = sink_plain.flush_ops.or(sink_traced.flush_ops) {
        class_ops.insert("flush", c);
    }
    for class in OP_CLASSES {
        let counts = class_ops.get(class);
        for name in OP_COUNTERS {
            r.metric(
                &format!("ops.{class}.{name}"),
                counts.map(|c| counter(c, name) as f64),
                "count",
            );
        }
    }

    let city_run_ns = span_ns(cs, "city.run");
    let events = city_traced.last_city.events as f64;
    let sim_secs = city::CITY_TRAFFIC_MS as f64 / 1e3;
    r.metric("auth.model_verify_ns", layer("auth.model_verify_ns"), "ns");
    r.metric(
        "network.signatures_per_sim_s",
        Some(city_traced.last_city.signatures_made as f64 / sim_secs),
        "1/sim-s",
    );
    r.metric(
        "network.events_per_sim_s",
        Some(events / sim_secs),
        "1/sim-s",
    );
    match (plain.sign.median(), plain.warm.median()) {
        (Some(sign), Some(verify)) => {
            let (sign_cost, verify_cost, delay) = fig3::delay(sign, verify);
            r.metric("fig3.sign_cost_ms", Some(sign_cost), "sim-ms");
            r.metric("fig3.verify_cost_ms", Some(verify_cost), "sim-ms");
            r.metric("fig3.delay_ms", Some(delay), "sim-ms");
        }
        _ => r.errors.push("no relay samples for Fig. 3".to_owned()),
    }
    r.metric(
        "sim.ns_per_event",
        city_run_ns.map(|ns| ns / events.max(1.0)),
        "ns",
    );
    for name in [
        "scheduler.push_pop_ns",
        "grid.query_ns",
        "grid.update_ns",
        "mobility.position_ns",
    ] {
        r.metric(name, layer(name), "ns");
    }
    r.metric("network.new_ms", ms(cs, "network.new"), "ms");

    // Parents and the part of their time their children leave over.
    r.metric(
        "relay.packet.unexplained_share",
        trace::unexplained_share(rs, "relay.packet"),
        "ratio",
    );
    r.metric(
        "relay.verify.unexplained_share",
        unexplained(
            rs,
            "relay.verify",
            &[
                "hash.h2",
                "prepared.g2_fixed",
                "curve.g2_mul",
                "curve.g1_mul",
                "pairing.unprepared",
            ],
        ),
        "ratio",
    );
    r.metric(
        "relay.sign.unexplained_share",
        unexplained(
            rs,
            "relay.sign",
            &["curve.g1_mul_ct", "curve.g2_mul_ct", "hash.h2"],
        ),
        "ratio",
    );
    r.metric(
        "registry.register.unexplained_share",
        unexplained(
            rs,
            "registry.register",
            &["g1.hash_to_g1", "prepared.miller", "pairing.final_exp"],
        ),
        "ratio",
    );
    r.metric(
        "sink.window.unexplained_share",
        trace::unexplained_share(ss, "sink.window"),
        "ratio",
    );
    r.metric(
        "sink.absorb.unexplained_share",
        unexplained(
            ss,
            "sink.absorb",
            &[
                "hash.h2",
                "curve.g1_mul",
                "prepared.g2_fixed",
                "curve.g2_mul",
                "prepared.g2_prepare",
                "prepared.miller",
                "gt.pow",
            ],
        ),
        "ratio",
    );
    r.metric(
        "sink.flush.unexplained_share",
        // Warm frames fold no identity term, so the closing Miller loop
        // runs over the identity and the final exponentiation is the
        // flush's only expensive child.
        unexplained(ss, "sink.flush", &["pairing.final_exp"]),
        "ratio",
    );
    r.metric(
        "city.request.unexplained_share",
        trace::unexplained_share(cs, "city.request"),
        "ratio",
    );
    r.metric(
        "city.run.unexplained_share",
        city_run_ns
            .zip(layer("scheduler.push_pop_ns"))
            .map(|(run, pp)| 1.0 - events * pp / run),
        "ratio",
    );

    // Tracing overhead: traced over untraced, same workload and loop.
    r.metric(
        "relay.trace_overhead_share",
        traced
            .warm
            .median()
            .zip(plain.warm.median())
            .map(|(t, u)| t / u - 1.0),
        "ratio",
    );
    r.metric(
        "sink.trace_overhead_share",
        sink_traced
            .absorb
            .median()
            .zip(sink_plain.absorb.median())
            .map(|(t, u)| t / u - 1.0),
        "ratio",
    );
    r.metric(
        "city.trace_overhead_share",
        city_traced
            .city_run
            .min()
            .zip(city_plain.city_run.min())
            .map(|(t, u)| t / u - 1.0),
        "ratio",
    );
    let agree = traced.replay_agree + sink_traced.replay_agree;
    let disagree = traced.replay_disagree + sink_traced.replay_disagree;
    r.metric(
        "replay.agreement_share",
        ratio(agree as f64, (agree + disagree) as f64),
        "ratio",
    );
    r.metric(
        "relay.tampered_share",
        ratio(
            (plain.tampered + single.tampered + traced.tampered) as f64,
            packets as f64,
        ),
        "ratio",
    );
    r.metric(
        "sink.dirty_window_share",
        ratio(
            dirty_windows as f64,
            (sink_plain.windows + sink_traced.windows) as f64,
        ),
        "ratio",
    );

    let spans: Vec<Span> = [relay_spans, sink_spans, city_spans].concat();
    let path = Path::new(SPAN_DIR).join(format!("spans-seed{seed}.tsv"));
    match trace::write_tsv(&path, &spans) {
        Ok(()) => println!("{} spans written to {}", spans.len(), path.display()),
        Err(e) => println!("spans not written ({e})"),
    }
    println!("per-layer metrics");
    for m in &r.metrics {
        line(&m.name, m.value, m.unit, "");
    }
    r
}
