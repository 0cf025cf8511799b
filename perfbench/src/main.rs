//! The McCLS benchmark: three seeded workloads, end-to-end metrics with
//! tracing off, and a separate traced run for the per-layer metrics.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload relay_auth|sensor_sink|city_sim --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` the named workload runs for `--seconds` and the
//! end-to-end metrics are reported. With `--trace 1` all three
//! workloads run traced (see `traced.rs`) and the per-layer metrics are
//! reported. Every output is checked against ground truth; the last
//! stdout line is one JSON object, and any failure exits non-zero.

use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

mod calib;
mod city;
mod fig3;
mod gen;
mod layers;
mod relay;
mod replay;
mod report;
mod sink;
mod stats;
mod trace;
mod traced;

use city::Scale;
use report::{line, Report};
use stats::Samples;

/// The seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 20_080_617;

/// Set-up is repeated this many times per run and its median reported,
/// so one disturbed set-up does not move `setup_s`. The city's set-up
/// takes about a millisecond, so it is repeated more often.
const SETUP_ROUNDS: usize = 3;
const CITY_SETUP_ROUNDS: usize = 15;
/// Fewest `city_sim` cycles per run, however short `--seconds`.
const CITY_CYCLES: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    RelayAuth,
    SensorSink,
    CitySim,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "relay_auth" => Some(Self::RelayAuth),
            "sensor_sink" => Some(Self::SensorSink),
            "city_sim" => Some(Self::CitySim),
            _ => None,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: mccls-perfbench --workload relay_auth|sensor_sink|city_sim \
                     [--seed N] [--seconds S] [--trace 0|1]";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad seconds {value}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace flag {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Maps `f` over `items` on `threads` scoped workers, keeping order.
/// Set-up work only; results do not depend on the thread count.
pub fn parallel_map<T: Sync, R: Send>(
    items: &[T],
    threads: usize,
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads.max(1))
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else {
                            break;
                        };
                        local.push((i, f(item)));
                    }
                    local
                })
            })
            .collect();
        for handle in handles {
            for (i, r) in handle.join().expect("set-up worker panicked") {
                slots[i] = Some(r);
            }
        }
    });
    slots
        .into_iter()
        .map(|r| r.expect("every item mapped"))
        .collect()
}

/// Runs `build` `rounds` times, each after waiting for a quiet host
/// (see `calib`), and returns the last result with the median build
/// time in seconds.
fn set_up<T>(rounds: usize, mut build: impl FnMut() -> T) -> (T, f64) {
    let mut times = Samples::default();
    let mut last = None;
    for _ in 0..rounds {
        calib::settle();
        let t = Instant::now();
        last = Some(build());
        times.push(t.elapsed().as_secs_f64());
    }
    (
        last.expect("at least one set-up round"),
        times.median().unwrap_or(f64::NAN),
    )
}

/// Prints a timing: the fastest sample (the reported value) with the
/// sample count, the median, and the highest percentile with at least
/// ten samples beyond it.
fn timing(name: &str, s: &Samples) {
    let (Some(min), Some(p50)) = (s.min(), s.median()) else {
        println!("  {name:<34} (no samples)");
        return;
    };
    let tail = s
        .tail()
        .filter(|t| t.permille > 500)
        .map(|t| format!("{} {:.4}", t.label(), t.value))
        .unwrap_or_else(|| "no tail".to_owned());
    line(
        name,
        min,
        "ms",
        &format!("fastest, n={} (p50 {p50:.4}, {tail})", s.len()),
    );
}

/// An input pool that ran out before the deadline makes a run shorter
/// than its parent's, so it is an error, not a note.
pub const POOL_RAN_OUT: &str = "the input pool ran out before the deadline";

/// `relay_auth` with tracing off.
fn relay_auth(seed: u64, seconds: f64) -> Report {
    let pool = relay::pool_len(seconds, relay::POOL_PER_SECOND, 256);
    let (relay, setup_s) = set_up(SETUP_ROUNDS, || relay::Relay::build(seed, pool));
    let run = relay::run(
        &relay,
        seed,
        relay::WORKERS,
        Duration::from_secs_f64(seconds),
        false,
        Instant::now(),
        0,
    );
    println!(
        "relay_auth: {} workers, pool {pool} packets",
        relay::WORKERS
    );
    timing("warm_verify_ms", &run.warm);
    timing("first_contact_ms", &run.first);
    timing("sign_ms", &run.sign);
    line("packets_per_s", run.packets_per_s(), "1/s", "");
    line(
        "first_contact_share",
        run.first_contact_share(),
        "ratio",
        "",
    );
    line(
        "tampered_share",
        run.tampered as f64 / run.packets.max(1) as f64,
        "ratio",
        "",
    );
    line(
        "sign_share",
        run.sign.len() as f64 / run.packets.max(1) as f64,
        "ratio",
        "",
    );
    if let (Some(sign), Some(verify)) = (run.sign.median(), run.warm.median()) {
        let (sc, vc, delay) = fig3::delay(sign, verify);
        line(
            "fig3_delay_ms",
            delay,
            "sim-ms",
            &format!("charged sign {sc} ms, verify {vc} ms"),
        );
    }
    let mut r = Report {
        attempted: run.packets,
        failed: run.failed,
        ..Report::default()
    };
    if run.exhausted {
        r.errors.push(POOL_RAN_OUT.to_owned());
    }
    r.metric("setup_s", Some(setup_s), "s");
    r.metric("throughput_per_s", Some(run.packets_per_s()), "1/s");
    r.metric("unit_ms", run.warm.min(), "ms");
    r.metric("secondary_ms", run.sign.min(), "ms");
    r.metric("heavy_ms", run.first.min(), "ms");
    r
}

/// `sensor_sink` with tracing off.
fn sensor_sink(seed: u64, seconds: f64) -> Report {
    let windows = sink::pool_windows(seconds);
    let (mut sink, setup_s) = set_up(SETUP_ROUNDS, || sink::Sink::build(seed, windows));
    let run = sink::run(
        &mut sink,
        Duration::from_secs_f64(seconds),
        sink::DIRTY_BLOCK,
        false,
        Instant::now(),
        0,
    );
    println!("sensor_sink: pool {windows} windows of {}", sink::WINDOW);
    timing("absorb_ms", &run.absorb);
    timing("flush_ms", &run.flush);
    timing("dirty_flush_ms", &run.dirty_flush);
    line("frames_per_s", run.frames_per_s(), "1/s", "");
    line(
        "dirty_window_share",
        run.dirty_windows as f64 / run.windows.max(1) as f64,
        "ratio",
        &format!("{} of {} windows", run.dirty_windows, run.windows),
    );
    let mut r = Report {
        attempted: run.frames,
        failed: run.failed,
        ..Report::default()
    };
    if run.exhausted {
        r.errors.push(POOL_RAN_OUT.to_owned());
    }
    r.metric("setup_s", Some(setup_s), "s");
    r.metric("throughput_per_s", Some(run.frames_per_s()), "1/s");
    r.metric("unit_ms", run.absorb.min(), "ms");
    r.metric("secondary_ms", run.flush.min(), "ms");
    r.metric("heavy_ms", run.dirty_flush.min(), "ms");
    r
}

/// `city_sim` with tracing off.
fn city_sim(seconds: f64) -> Report {
    let (_, setup_s) = set_up(CITY_SETUP_ROUNDS, || {
        mccls_aodv::Network::new(Scale::City.config())
    });
    let run = city::run(
        &Scale::ALL,
        Duration::from_secs_f64(seconds),
        CITY_CYCLES,
        false,
        Instant::now(),
    );
    println!(
        "city_sim: {} runs ({} nodes, {} simulated ms of traffic; {} nodes, {} simulated s; \
         the paper's 20 nodes)",
        run.runs,
        city::NODES,
        city::CITY_TRAFFIC_MS,
        city::DISTRICT_NODES,
        city::DISTRICT_SECS
    );
    let runs = [
        ("city_run_ms", &run.city_run),
        ("district_ms", &run.request[Scale::District as usize]),
        ("paper_static_ms", &run.request[Scale::PaperStatic as usize]),
        ("paper_fast_ms", &run.request[Scale::PaperFast as usize]),
    ];
    for (name, s) in runs {
        if let (Some(min), Some(p50)) = (s.min(), s.median()) {
            line(
                name,
                min,
                "ms",
                &format!("fastest, n={} (p50 {p50:.4})", s.len()),
            );
        }
    }
    if let Some(v) = run.sim_s_per_s() {
        line("sim_s_per_s", v, "sim-s/s", "the city, fastest run");
    }
    line(
        "city_events",
        run.last_city.events as f64,
        "count",
        &format!("{}", run.last_city),
    );
    let mut r = Report {
        attempted: run.runs,
        failed: run.failed,
        ..Report::default()
    };
    r.metric("setup_s", Some(setup_s), "s");
    r.metric("throughput_per_s", run.events_per_s(), "1/s");
    r.metric("unit_ms", run.best_ms(Scale::PaperStatic), "ms");
    r.metric("secondary_ms", run.best_ms(Scale::District), "ms");
    r.metric("heavy_ms", run.best_ms(Scale::PaperFast), "ms");
    r
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!(
        "mccls-perfbench: seed {}, {} s, trace {}, {} cpus",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    calib::warm_up();
    let report = if args.trace {
        traced::run(args.seed, args.seconds)
    } else {
        match args.workload {
            Workload::RelayAuth => relay_auth(args.seed, args.seconds),
            Workload::SensorSink => sensor_sink(args.seed, args.seconds),
            Workload::CitySim => city_sim(args.seconds),
        }
    };
    for e in &report.errors {
        eprintln!("error: {e}");
    }
    println!(
        "attempted {}, failed {}, waited {:.1} s for a quiet host",
        report.attempted,
        report.failed,
        calib::waited().as_secs_f64()
    );
    println!("{}", report.to_json());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
