//! `sensor_sink`: the paper's cyber-physical monitoring scenario seen
//! from the sink (`examples/cps_monitoring.rs`).
//!
//! One thread streams signed frames from enrolled sensors into a
//! [`BatchAccumulator`] in a closed loop. Each frame enters through
//! `absorb_warm` with the cached `e(Q_ID, P_pub)` from the sink's
//! [`Verifier`], so it pays a G2 preparation, a prepared Miller loop and
//! a 64-bit `Gt` exponentiation, while the final exponentiation is paid
//! once per 64-frame window. A fixed quarter of the windows carries
//! exactly one tampered frame, which the flush must isolate by
//! bisection.

use std::time::{Duration, Instant};

use mccls_core::ops::{self, OpCounts};
use mccls_core::{
    BatchAccumulator, BatchItem, CertificatelessScheme, FlushPolicy, McCls, OfflineSigner,
    Signature, SystemParams, Verdict, Verifier, VerifierBackend, VerifyError,
};

use crate::gen;
use crate::stats::Samples;
use crate::trace::{self, Span, Tracer};
use crate::{calib, parallel_map, replay};

/// Enrolled sensors.
pub const SENSORS: usize = 32;
/// Frames per accumulator window.
pub const WINDOW: usize = 64;
/// One window per block of this many carries a tampered frame.
pub const DIRTY_BLOCK: usize = 4;
/// Sensor reading length in bytes.
const FRAME_LEN: usize = 48;
/// Pool frames generated per measured second: 2.5 times the rate
/// measured on a 2-vCPU host (about 350 frames/s), so a change has to
/// speed the sink up 2.5x before the pool runs out — and running out is
/// a run error, never a silently shorter run.
const POOL_PER_SECOND: f64 = 875.0;

/// Whole windows in the pool for a measurement of `seconds` (at least
/// two blocks, so dirty windows always occur).
pub fn pool_windows(seconds: f64) -> usize {
    ((seconds * POOL_PER_SECOND / WINDOW as f64).ceil() as usize).max(2 * DIRTY_BLOCK)
}

/// The accumulator policy the benchmark pins. `max_pending` sits one
/// above the window so the loop — not an absorb call — closes each
/// window with `flush()`, and the flush is timed on its own; isolation
/// is exhaustive, so no verdict may come back `Unchecked`.
pub fn policy() -> FlushPolicy {
    FlushPolicy {
        max_pending: WINDOW + 1,
        max_delay: None,
        max_isolation_checks: None,
    }
}

/// One input frame.
pub struct Frame {
    /// Index into [`Sink::sensors`].
    pub sensor: usize,
    /// The reading (altered after signing when tampered).
    pub msg: Vec<u8>,
    /// Its signature.
    pub sig: Signature,
    /// Whether the reading was altered after signing.
    pub tampered: bool,
}

/// Everything set up before the first timed frame.
pub struct Sink {
    /// System parameters.
    pub params: SystemParams,
    /// The sink's verifier, holding every sensor's cached constant.
    pub verifier: Verifier,
    /// Sensor identities.
    pub sensors: Vec<Vec<u8>>,
    /// The input pool, whole windows, consumed in order.
    pub frames: Vec<Frame>,
    next_window: usize,
    seed: u64,
}

impl Sink {
    /// Builds `windows` windows of signed frames for `seed`: KGC,
    /// sensor keys (enrolled in the sink's verifier), the tampered-frame
    /// placement, and every frame signed with online/offline tokens.
    pub fn build(seed: u64, windows: usize) -> Self {
        let scheme = McCls::new();
        let (params, kgc) = scheme.setup(&mut gen::stream(seed, "sink.kgc", 0));
        let ids: Vec<usize> = (0..SENSORS).collect();
        let keys = parallel_map(&ids, crate::relay::WORKERS, |&k| {
            let id = format!("sensor-{k:03}").into_bytes();
            let partial = kgc.extract_partial_private_key(&id);
            let keys =
                scheme.generate_key_pair(&params, &mut gen::stream(seed, "sink.sensor", k as u64));
            (id, partial, keys)
        });
        let n = windows * WINDOW;
        let mut draws = gen::stream(seed, "sink.source", 0);
        let sources: Vec<usize> = (0..n)
            .map(|_| (draws.next_u64() % SENSORS as u64) as usize)
            .collect();
        let dirty = gen::one_per_block(
            windows,
            DIRTY_BLOCK,
            &mut gen::stream(seed, "sink.dirty", 0),
        );
        let mut at = gen::stream(seed, "sink.tamper_index", 0);
        let mut tampered = vec![false; n];
        for (w, _) in dirty.iter().enumerate().filter(|(_, &d)| d) {
            tampered[w * WINDOW + (at.next_u64() % WINDOW as u64) as usize] = true;
        }

        // One signing job per sensor: a token per frame it sends.
        let by_sensor: Vec<Vec<usize>> = (0..SENSORS)
            .map(|k| (0..n).filter(|&i| sources[i] == k).collect())
            .collect();
        let signed: Vec<Vec<(usize, Signature)>> =
            parallel_map(&ids, crate::relay::WORKERS, |&k| {
                let (_, partial, pair) = &keys[k];
                let idxs = &by_sensor[k];
                let mut rng = gen::stream(seed, "sink.tokens", k as u64);
                let mut signer =
                    OfflineSigner::precompute(&params, partial, pair, idxs.len(), &mut rng);
                idxs.iter()
                    .map(|&i| {
                        let msg = gen::message(seed, "sink.reading", i, FRAME_LEN);
                        (i, signer.sign_online(&msg).expect("one token per frame"))
                    })
                    .collect()
            });
        let mut slots: Vec<Option<Frame>> = (0..n).map(|_| None).collect();
        for (i, sig) in signed.into_iter().flatten() {
            let mut msg = gen::message(seed, "sink.reading", i, FRAME_LEN);
            if tampered[i] {
                msg[0] ^= 0x20;
            }
            slots[i] = Some(Frame {
                sensor: sources[i],
                msg,
                sig,
                tampered: tampered[i],
            });
        }
        let frames = slots
            .into_iter()
            .map(|f| f.expect("every frame signed"))
            .collect();

        let mut verifier = Verifier::new(params.clone());
        for (id, _, pair) in &keys {
            verifier
                .register_peer(id, pair.public)
                .expect("generated keys are honest");
        }
        // Warm-up outside the pool: one frame through a throwaway
        // accumulator fills the lazily built tables before timing.
        let (id, partial, pair) = &keys[0];
        let mut rng = gen::stream(seed, "sink.warm_up", 0);
        let sig = scheme.sign(&params, id, partial, pair, b"warm-up", &mut rng);
        let (_, rhs) = verifier.warm_entry(id).expect("sensor enrolled");
        let mut acc = BatchAccumulator::new(params.clone(), policy());
        let item = BatchItem {
            id,
            public: &pair.public,
            msg: b"warm-up",
            sig: &sig,
        };
        let _ = acc.absorb_warm(&item, &rhs, &mut rng);
        assert!(acc.flush().all_valid(), "warm-up frame must verify");
        Self {
            params,
            verifier,
            sensors: keys.into_iter().map(|(id, _, _)| id).collect(),
            frames,
            next_window: 0,
            seed,
        }
    }
}

/// What one closed-loop segment measured.
#[derive(Default)]
pub struct SinkRun {
    /// `absorb_warm` per frame, ms.
    pub absorb: Samples,
    /// `flush` of clean windows, ms.
    pub flush: Samples,
    /// `flush` of windows carrying one tampered frame, ms.
    pub dirty_flush: Samples,
    /// Time per settled window (its 64 absorbs and the flush), ms.
    pub window: Samples,
    /// Frames settled (absorbed and flushed).
    pub frames: usize,
    /// Frames whose verdict was wrong (`Unchecked` or a false `Ok`
    /// included).
    pub failed: usize,
    /// Windows settled / of which dirty.
    pub windows: usize,
    /// See [`SinkRun::windows`].
    pub dirty_windows: usize,
    /// Bisection checks and deepest level, summed over dirty windows.
    pub isolation_checks: u64,
    /// See [`SinkRun::isolation_checks`].
    pub bisection_depth: u64,
    /// Miller loops the batch engine reported, all windows.
    pub miller_loops: u64,
    /// `Unchecked` verdicts returned.
    pub unchecked: usize,
    /// Wall-clock seconds of the loop.
    pub elapsed_s: f64,
    /// Whether the pool ran out before the deadline.
    pub exhausted: bool,
    /// Op counts of the first frame absorb and first clean flush.
    pub frame_ops: Option<OpCounts>,
    /// See [`SinkRun::frame_ops`].
    pub flush_ops: Option<OpCounts>,
    /// Replays agreeing / disagreeing with the expected verdict.
    pub replay_agree: usize,
    /// See [`SinkRun::replay_agree`].
    pub replay_disagree: usize,
    /// Recorded spans (traced segments only).
    pub spans: Vec<Span>,
}

impl SinkRun {
    /// Frames settled per wall-clock second, from the fastest window.
    pub fn frames_per_s(&self) -> f64 {
        self.window
            .min()
            .map_or(self.frames as f64 / self.elapsed_s, |ms| {
                WINDOW as f64 / (ms / 1e3)
            })
    }
}

/// Streams whole windows until `budget` elapses (and at least
/// `min_windows` were settled), continuing where the previous segment
/// stopped. With `trace` set, spans are recorded and every
/// `replay_every`-th frame is replayed through the layers below.
pub fn run(
    sink: &mut Sink,
    budget: Duration,
    min_windows: usize,
    trace: bool,
    epoch: Instant,
    replay_every: usize,
) -> SinkRun {
    let mut tr = Tracer::new(trace, epoch, trace::fresh_base());
    let mut acc = BatchAccumulator::new(sink.params.clone(), policy());
    let mut out = SinkRun::default();
    let start = Instant::now();
    let mut deadline = start + budget;
    let mut replay_rng = gen::stream(sink.seed, "sink.replay", sink.next_window as u64);
    while Instant::now() < deadline || out.windows < min_windows {
        let w = sink.next_window;
        let Some(window) = sink.frames.get(w * WINDOW..(w + 1) * WINDOW) else {
            out.exhausted = true;
            break;
        };
        sink.next_window += 1;
        // Blinders are inputs too: one stream per window.
        let mut blind = gen::stream(sink.seed, "sink.blind", w as u64);
        let mut window_ms = 0.0;
        let root = tr.open("sink.window", None, w as u64);
        for (j, frame) in window.iter().enumerate() {
            let req = (w * WINDOW + j) as u64;
            let id = &sink.sensors[frame.sensor];
            let Some((public, rhs)) = sink.verifier.warm_entry(id) else {
                out.failed += 1;
                continue;
            };
            let item = BatchItem {
                id,
                public: &public,
                msg: &frame.msg,
                sig: &frame.sig,
            };
            deadline += tr.time("calib.settle", Some(root), req, calib::settle);
            let t0 = Instant::now();
            let (settled, counts) = tr.time("sink.absorb", Some(root), req, || {
                ops::measure(|| acc.absorb_warm(&item, &rhs, &mut blind))
            });
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            window_ms += ms;
            out.absorb.push(ms);
            out.frame_ops.get_or_insert(counts);
            if settled.is_some() {
                // The pinned policy never closes a window inside absorb.
                out.failed += WINDOW;
            }
            if tr.enabled() && replay_every > 0 && req.is_multiple_of(replay_every as u64) {
                let honest = !frame.tampered;
                let r = replay::frame(
                    &mut tr,
                    Some(root),
                    req,
                    &frame.msg,
                    &public,
                    &frame.sig,
                    &rhs,
                    honest,
                    &mut replay_rng,
                );
                match r {
                    Some(true) => out.replay_agree += 1,
                    Some(false) => out.replay_disagree += 1,
                    None => {}
                }
            }
        }
        let dirty = window.iter().any(|f| f.tampered);
        let name = if dirty {
            "sink.flush_dirty"
        } else {
            "sink.flush"
        };
        deadline += tr.time("calib.settle", Some(root), w as u64, calib::settle);
        let t0 = Instant::now();
        let (outcome, counts) =
            tr.time(name, Some(root), w as u64, || ops::measure(|| acc.flush()));
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        tr.close(root);
        if dirty {
            out.dirty_flush.push(ms);
            out.dirty_windows += 1;
            out.isolation_checks += u64::from(outcome.stats().isolation_checks);
            out.bisection_depth += u64::from(outcome.stats().bisection_depth);
        } else {
            out.flush.push(ms);
            out.flush_ops.get_or_insert(counts);
        }
        out.window.push(window_ms + ms);
        out.miller_loops += outcome.stats().miller_loops;
        out.windows += 1;
        out.frames += WINDOW;
        let verdicts = outcome.verdicts();
        if verdicts.len() != WINDOW {
            out.failed += WINDOW;
            continue;
        }
        for (frame, verdict) in window.iter().zip(verdicts) {
            out.unchecked += usize::from(*verdict == Verdict::Unchecked);
            let expected = if frame.tampered {
                Verdict::Invalid(VerifyError::PairingMismatch)
            } else {
                Verdict::Ok
            };
            if *verdict != expected {
                out.failed += 1;
            }
        }
    }
    out.elapsed_s = start.elapsed().as_secs_f64();
    out.spans = tr.into_spans();
    out
}
