//! Waiting for a quiet stretch of a shared host before each timed
//! request.
//!
//! On a host whose cores are shared (an SMT sibling busy with another
//! tenant's work), throughput-bound arithmetic such as the field tower
//! slows by up to 2x for seconds at a time, while a latency-bound
//! multiply chain runs at the same speed. The ratio of two short probes
//! — eight independent multiply chains over one dependent chain — is
//! therefore low on a quiet core and high on a contended one, whatever
//! the clock speed. Before each timed request the benchmark waits (up
//! to a small per-process budget) until the ratio is within
//! [`QUIET_TOLERANCE`] of the fastest decile this process has seen.
//! Waiting is never part of a timing, and no sample is filtered
//! afterwards.
//! Interleaved runs on a 2-vCPU host halved the sink's spread across
//! seeds with the wait, while filtering by probe on top of it changed
//! nothing (see the README).

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Probe rounds for the dependent chain and for the eight lanes
/// (about 15 µs each on a quiet core).
const CHAIN_ROUNDS: u64 = 6_000;
const LANE_ROUNDS: u64 = 1_500;
/// A ratio within this factor of the fastest decile seen is quiet.
pub const QUIET_TOLERANCE: f64 = 1.15;
/// Pause between probes while the host is contended.
const PAUSE: Duration = Duration::from_millis(2);
/// Total time one process may spend waiting for quiet.
const WAIT_BUDGET: Duration = Duration::from_secs(10);
/// Histogram of every probe ratio seen, in steps of [`STEP`]
/// thousandths.
const BUCKETS: usize = 1_000;
const STEP: u64 = 10;
static SEEN: [AtomicU64; BUCKETS] = [const { AtomicU64::new(0) }; BUCKETS];
/// Waiting time left for this process.
static BUDGET: Mutex<Duration> = Mutex::new(WAIT_BUDGET);

const K: u64 = 0xD201_0000_0001_0001;

fn chain_ns() -> u64 {
    let t = Instant::now();
    let mut x = 1u64;
    let mut acc = 1u128;
    let k = black_box(K);
    for i in 0..CHAIN_ROUNDS {
        acc = acc.wrapping_add(u128::from(x) * u128::from(k));
        x = ((acc >> 64) as u64) ^ (acc as u64) ^ i;
    }
    black_box(x);
    t.elapsed().as_nanos() as u64
}

fn lanes_ns() -> u64 {
    let t = Instant::now();
    let mut x = [1u64, 2, 3, 4, 5, 6, 7, 8];
    let mut acc = [1u128; 8];
    let k = black_box(K);
    for i in 0..LANE_ROUNDS {
        for j in 0..8 {
            acc[j] = acc[j].wrapping_add(u128::from(x[j]) * u128::from(k));
            x[j] = ((acc[j] >> 64) as u64) ^ (acc[j] as u64) ^ i;
        }
    }
    black_box(x);
    t.elapsed().as_nanos() as u64
}

/// One probe: the lanes-over-chain ratio in thousandths (lower is
/// quieter), also recorded in the process-wide histogram.
fn probe() -> u64 {
    let ratio = lanes_ns() * 1000 / chain_ns().max(1);
    let bucket = ((ratio / STEP) as usize).min(BUCKETS - 1);
    SEEN[bucket].fetch_add(1, Ordering::Relaxed);
    ratio
}

/// The highest probe ratio still counted as quiet: [`QUIET_TOLERANCE`]
/// times the fastest decile of every probe this process has taken
/// (`u64::MAX` before any probe).
fn quiet_threshold() -> u64 {
    let counts: Vec<u64> = SEEN.iter().map(|c| c.load(Ordering::Relaxed)).collect();
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return u64::MAX;
    }
    let mut below = 0;
    for (i, &c) in counts.iter().enumerate() {
        below += c;
        if below * 10 >= total {
            return (((i as u64 + 1) * STEP) as f64 * QUIET_TOLERANCE) as u64;
        }
    }
    u64::MAX
}

/// Probes until the host is quiet or the process's waiting budget is
/// spent, and returns how long it waited (to be left out of every
/// timing and deadline).
pub fn settle() -> Duration {
    let start = Instant::now();
    while probe() > quiet_threshold() {
        {
            let mut left = BUDGET.lock().expect("budget lock is never poisoned");
            if *left < PAUSE {
                break;
            }
            *left -= PAUSE;
        }
        std::thread::sleep(PAUSE);
    }
    start.elapsed()
}

/// Seeds the histogram with a burst of probes before anything is
/// timed.
pub fn warm_up() {
    for _ in 0..200 {
        probe();
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Waiting time this process has spent so far.
pub fn waited() -> Duration {
    WAIT_BUDGET - *BUDGET.lock().expect("budget lock is never poisoned")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_fold_into_the_quiet_threshold() {
        let ratio = probe();
        assert!(ratio > 0);
        let threshold = quiet_threshold();
        assert!(threshold < u64::MAX);
        assert!(threshold as f64 <= ((ratio / STEP + 1) * STEP) as f64 * QUIET_TOLERANCE + 1.0);
    }
}
