//! The one timing loop every bench bin shares.
//!
//! [`median_ns`] times a closure the way every committed `BENCH_*.json`
//! row is measured: one untimed call sizes a batch to last at least
//! [`MIN_BATCH`], each of `samples` timed batches yields nanoseconds per
//! unit of work, and the row is the median of those samples. The median
//! (not the mean) keeps one preempted batch on a shared host from
//! moving the row.

use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::baseline::Entry;

/// Minimum wall-clock length of one timed batch.
pub const MIN_BATCH: Duration = Duration::from_millis(10);

/// Median nanoseconds per unit over `samples` timed batches of `f`.
///
/// `units` is the work one call of `f` performs (operations spread over
/// worker threads, simulated seconds, …); pass `1.0` to time whole
/// calls. `f`'s result goes through [`black_box`] so the measured work
/// cannot be optimized away.
pub fn median_ns<R>(samples: usize, units: f64, f: impl FnMut() -> R) -> f64 {
    let start = Instant::now();
    sample(samples, units, f, || start.elapsed())
}

/// Times whole calls of `f` as the row `id` and prints the row.
pub fn row<R>(id: &str, samples: usize, f: impl FnMut() -> R) -> Entry {
    let median_ns = median_ns(samples, 1.0, f);
    println!("{id:<44} {median_ns:>16.1} ns");
    Entry {
        id: id.to_owned(),
        median_ns,
    }
}

/// [`median_ns`] over the clock `now` (the wall clock in production, a
/// fake in tests).
fn sample<R>(
    samples: usize,
    units: f64,
    mut f: impl FnMut() -> R,
    mut now: impl FnMut() -> Duration,
) -> f64 {
    let t0 = now();
    black_box(f());
    let calls = batch_calls(now().saturating_sub(t0));
    let mut per_unit: Vec<f64> = (0..samples.max(1))
        .map(|_| {
            let t0 = now();
            for _ in 0..calls {
                black_box(f());
            }
            now().saturating_sub(t0).as_nanos() as f64 / (calls as f64 * units)
        })
        .collect();
    per_unit.sort_by(f64::total_cmp);
    per_unit[per_unit.len() / 2]
}

/// Calls per batch when one call takes `first`: enough to fill
/// [`MIN_BATCH`], and at least one.
fn batch_calls(first: Duration) -> u64 {
    let first = first.as_nanos().max(1);
    MIN_BATCH.as_nanos().div_ceil(first).max(1) as u64
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // tests may panic freely
mod tests {
    use super::*;
    use std::cell::Cell;

    /// Samples a closure that advances a fake clock by `cost(i)` on its
    /// `i`-th call, returning the median and the calls per timed batch.
    fn fake_run(samples: usize, units: f64, cost: impl Fn(u64) -> Duration) -> (f64, u64) {
        let clock = Cell::new(Duration::ZERO);
        let calls = Cell::new(0u64);
        let median = sample(
            samples,
            units,
            || {
                clock.set(clock.get() + cost(calls.get()));
                calls.set(calls.get() + 1);
            },
            || clock.get(),
        );
        (median, (calls.get() - 1) / samples as u64)
    }

    #[test]
    fn a_batch_lasts_at_least_min_batch() {
        for call in [
            Duration::from_nanos(7),
            Duration::from_micros(333),
            Duration::from_millis(3),
        ] {
            let (_, per_batch) = fake_run(4, 1.0, |_| call);
            let batch = call * per_batch as u32;
            assert!(batch >= MIN_BATCH, "{call:?} x {per_batch} = {batch:?}");
            assert!(batch < MIN_BATCH + call, "no more calls than needed");
        }
        // A call longer than the floor is its own batch.
        assert_eq!(fake_run(3, 1.0, |_| Duration::from_millis(40)).1, 1);
    }

    #[test]
    fn the_unit_divisor_is_applied() {
        let call = Duration::from_millis(20);
        assert_eq!(fake_run(3, 1.0, |_| call).0, 20e6);
        assert_eq!(fake_run(3, 48.0, |_| call).0, 20e6 / 48.0);
    }

    #[test]
    fn the_result_is_the_median_not_the_mean() {
        // Five timed batches of one 20 ms call each, after the untimed
        // sizing call; the third timed call is a 1 s outlier.
        let (median, per_batch) = fake_run(5, 1.0, |i| {
            if i == 3 {
                Duration::from_secs(1)
            } else {
                Duration::from_millis(20)
            }
        });
        assert_eq!(per_batch, 1);
        assert_eq!(median, 20e6, "the outlier must not move the row");
        let mean = (4.0 * 20e6 + 1e9) / 5.0;
        assert!(median < mean);
    }

    #[test]
    fn the_wall_clock_sampler_times_real_work() {
        let ns = median_ns(3, 1.0, || std::thread::sleep(Duration::from_millis(2)));
        assert!(ns >= 2e6, "{ns}");
    }
}
