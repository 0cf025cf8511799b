//! Per-call costs of the lowest layers, timed from outside through
//! their public functions on seeded operands: the field and tower
//! (`mccls-pairing`), SHA-256 payload digests (`mccls-hash`), and the
//! simulator's scheduler, grid, mobility and modeled authentication.

use std::hint::black_box;
use std::time::Instant;

use mccls_aodv::{AuthProvider, ModelAuthProvider, NodeId};
use mccls_pairing::{pairing, Fp, Fp12, Fp2, G1Affine, G2Affine};
use mccls_rng::RngCore;
use mccls_sim::WaypointConfig;
use mccls_sim::{Area, Position, RandomWaypoint, Scheduler, SimDuration, SimTime, SpatialGrid};

use crate::gen;
use crate::stats::Samples;

/// Repetitions per measurement; the median is reported.
const REPS: usize = 5;

/// Median nanoseconds per operation of `op` run `iters` times per
/// repetition.
fn per_op_ns(iters: usize, mut op: impl FnMut()) -> f64 {
    let mut s = Samples::default();
    for _ in 0..REPS {
        let t = Instant::now();
        for _ in 0..iters {
            op();
        }
        s.push(t.elapsed().as_nanos() as f64 / iters as f64);
    }
    s.median().unwrap_or(f64::NAN)
}

/// Field and tower costs, ns: `(name, value)`.
pub fn tower(seed: u64) -> Vec<(&'static str, f64)> {
    let mut rng = gen::stream(seed, "layers.tower", 0);
    let (a, b) = (Fp::random(&mut rng), Fp::random(&mut rng));
    let (c, d) = (Fp2::random(&mut rng), Fp2::random(&mut rng));
    let (e, f) = (Fp12::random(&mut rng), Fp12::random(&mut rng));
    // A pairing output lies in the cyclotomic subgroup.
    let g = *pairing(&G1Affine::generator(), &G2Affine::generator()).as_fp12();
    let mut x = a;
    let fp_mul = per_op_ns(20_000, || x = black_box(x).mul(&b));
    let fp_square = per_op_ns(20_000, || x = black_box(x).square());
    let fp_invert = per_op_ns(500, || x = black_box(x).invert().unwrap_or(b).add(&b));
    let mut y = c;
    let fp2_mul = per_op_ns(5_000, || y = black_box(y).mul(&d));
    let mut z = e;
    let fp12_mul = per_op_ns(500, || z = black_box(z).mul(&f));
    let mut w = g;
    let fp12_cyc = per_op_ns(500, || w = black_box(w).cyclotomic_square());
    black_box((x, y, z, w));
    vec![
        ("fp.mul_ns", fp_mul),
        ("fp.square_ns", fp_square),
        ("fp.invert_us", fp_invert / 1e3),
        ("fp2.mul_ns", fp2_mul),
        ("fp12.mul_ns", fp12_mul),
        ("fp12.cyclotomic_square_ns", fp12_cyc),
    ]
}

/// Simulator-side costs for a city of `nodes` nodes at `speed` m/s on
/// the scenario's `width × height` area with radio range `range`.
pub fn simulator(
    seed: u64,
    nodes: usize,
    speed: f64,
    (width, height, range): (f64, f64, f64),
) -> Vec<(&'static str, f64)> {
    let mut rng = gen::stream(seed, "layers.sim", 0);
    let payload: Vec<u8> = (0..64).map(|_| rng.next_u32() as u8).collect();
    let sha = per_op_ns(20_000, || {
        black_box(mccls_hash::Sha256::digest(black_box(&payload)));
    });
    let mut model = ModelAuthProvider::new((0..nodes as u16).map(NodeId));
    let auth = model.sign(NodeId(0), &payload);
    let model_verify = per_op_ns(20_000, || {
        black_box(model.verify(black_box(&payload), &auth));
    });

    // Scheduler at the run's standing pending set: one mobility timer
    // per node, spread over the refresh interval.
    let interval = (range / (2.0 * speed) * 1e9) as u64;
    let mut sched: Scheduler<u32> = Scheduler::new();
    for i in 0..nodes {
        sched.schedule_at(SimTime::from_nanos(rng.next_u64() % interval), i as u32);
    }
    let push_pop = per_op_ns(100_000, || {
        if let Some((t, ev)) = sched.pop() {
            let gap = SimDuration::from_nanos(interval / 2 + (u64::from(ev) * 7919) % interval);
            sched.schedule_at(t + gap, ev);
        }
    });

    let area = Area::new(width, height);
    let mut walkers: Vec<RandomWaypoint> = (0..nodes)
        .map(|_| RandomWaypoint::new(area, WaypointConfig::paper(speed), &mut rng))
        .collect();
    let mut grid = SpatialGrid::new(width, height, range);
    let mut positions: Vec<Position> = walkers
        .iter_mut()
        .map(|m| m.position_at(SimTime::ZERO))
        .collect();
    for (i, p) in positions.iter().enumerate() {
        grid.update(i, *p);
    }
    let mut out = Vec::new();
    let mut k = 0usize;
    let query = per_op_ns(20_000, || {
        out.clear();
        grid.candidates_into(positions[k % nodes], 1, &mut out);
        k += 1;
    });
    let mut step = 0u64;
    let position = per_op_ns(20_000, || {
        let i = k % nodes;
        step += 1;
        positions[i] = walkers[i].position_at(SimTime::from_nanos(step * 1_000_000));
        k += 1;
    });
    let update = per_op_ns(20_000, || {
        let i = k % nodes;
        grid.update(i, positions[i]);
        k += 1;
    });
    black_box((&out, &grid));
    vec![
        ("hash.sha256_payload_ns", sha),
        ("auth.model_verify_ns", model_verify),
        ("scheduler.push_pop_ns", push_pop),
        ("grid.query_ns", query),
        ("mobility.position_ns", position),
        ("grid.update_ns", update),
    ]
}
