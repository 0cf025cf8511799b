//! The discrete-event scheduler: a time-ordered queue of typed events
//! with deterministic FIFO tie-breaking.
//!
//! A binary min-heap of 24-byte `(time, seq, slot)` keys over a store of
//! event slots. Heap sifts move only the keys, never the events, and
//! `seq`, the insertion counter, breaks ties in scheduling order. A
//! popped event's slot goes on a free list for the next insert.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// A discrete-event scheduler over events of type `E`.
///
/// Events fire in non-decreasing time order; events scheduled for the
/// same instant fire in the order they were scheduled, so a run is fully
/// deterministic given a deterministic handler and RNG.
///
/// # Examples
///
/// ```
/// use mccls_sim::{Scheduler, SimTime};
///
/// let mut sched = Scheduler::new();
/// sched.schedule_at(SimTime::from_secs(2), "b");
/// sched.schedule_at(SimTime::from_secs(1), "a");
/// let mut seen = Vec::new();
/// while let Some((t, ev)) = sched.pop() {
///     seen.push((t.as_nanos(), ev));
/// }
/// assert_eq!(seen, vec![(1_000_000_000, "a"), (2_000_000_000, "b")]);
/// ```
pub struct Scheduler<E> {
    /// Pending `(at, seq, slot)` keys, earliest first.
    heap: BinaryHeap<Reverse<(SimTime, u64, usize)>>,
    /// Event storage, indexed by a key's slot; `None` when vacant.
    slots: Vec<Option<E>>,
    /// Vacant slots, reused before `slots` grows.
    free: Vec<usize>,
    seq: u64,
    now: SimTime,
    processed: u64,
}

impl<E> Default for Scheduler<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Scheduler<E> {
    /// Creates an empty scheduler at `t = 0`.
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            seq: 0,
            now: SimTime::ZERO,
            processed: 0,
        }
    }

    /// The current virtual time (the timestamp of the last popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events waiting: the occupied slots.
    pub fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total events processed so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past — a discrete-event simulation must
    /// never rewind.
    // complexity: const
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule into the past ({at} < {})",
            self.now
        );
        let slot = self.free.pop().unwrap_or_else(|| {
            self.slots.push(None);
            self.slots.len() - 1
        });
        self.slots[slot] = Some(event);
        self.heap.push(Reverse((at, self.seq, slot)));
        self.seq += 1;
    }

    /// Pops the next event, advancing the clock to its timestamp.
    // complexity: const
    #[allow(clippy::unreachable)] // every heap key names the slot `schedule_at` filled for it
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let Reverse((at, _, slot)) = self.heap.pop()?;
        let Some(event) = self.slots[slot].take() else {
            unreachable!("a queued key names a vacant slot");
        };
        self.free.push(slot);
        self.now = at;
        self.processed += 1;
        Some((at, event))
    }
}

impl<E> core::fmt::Debug for Scheduler<E> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Scheduler")
            .field("now", &self.now)
            .field("pending", &self.len())
            .field("processed", &self.processed)
            .finish()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // tests may panic freely
mod tests {
    use super::*;
    use mccls_rng::{Rng, SeedableRng};

    #[test]
    fn pops_in_time_order() {
        let mut s = Scheduler::new();
        s.schedule_at(SimTime::from_secs(3), 3);
        s.schedule_at(SimTime::from_secs(1), 1);
        s.schedule_at(SimTime::from_secs(2), 2);
        let order: Vec<i32> = std::iter::from_fn(|| s.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn same_time_is_fifo() {
        let mut s = Scheduler::new();
        let t = SimTime::from_secs(1);
        for i in 0..10 {
            s.schedule_at(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| s.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut s = Scheduler::new();
        s.schedule_at(SimTime::from_secs(5), ());
        assert_eq!(s.now(), SimTime::ZERO);
        s.pop();
        assert_eq!(s.now(), SimTime::from_secs(5));
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn rejects_past_events() {
        let mut s = Scheduler::new();
        s.schedule_at(SimTime::from_secs(5), ());
        s.pop();
        s.schedule_at(SimTime::from_secs(1), ());
    }

    #[test]
    fn always_non_decreasing() {
        let mut rng = mccls_rng::rngs::StdRng::seed_from_u64(0x5C4ED);
        for _ in 0..32 {
            let times: Vec<u64> = (0..rng.gen_range(1usize..100))
                .map(|_| rng.gen_range(0u64..1_000_000))
                .collect();
            let mut s = Scheduler::new();
            for &t in &times {
                s.schedule_at(SimTime::from_nanos(t), t);
            }
            let mut last = 0;
            while let Some((t, _)) = s.pop() {
                assert!(t.as_nanos() >= last);
                last = t.as_nanos();
            }
            assert_eq!(s.processed(), times.len() as u64);
        }
    }

    /// Model check against a sorted reference: random interleavings of
    /// schedules and pops must replay the exact `(time, seq)` order a
    /// stable sort would produce, and `len` must count the pending events
    /// after every step, so a slot the free list leaks, or hands out while
    /// it is occupied, fails here.
    #[test]
    fn matches_sorted_reference_under_churn() {
        let mut rng = mccls_rng::rngs::StdRng::seed_from_u64(0xCA1E);
        for round in 0..16 {
            let mut s = Scheduler::new();
            let mut reference: Vec<(u64, u64)> = Vec::new(); // (at, label)
            let mut label = 0u64;
            let mut popped: Vec<(u64, u64)> = Vec::new();
            for _ in 0..rng.gen_range(50usize..800) {
                if rng.gen_bool(0.7) || s.is_empty() {
                    // Mix of same-instant, near-future and far-future
                    // timestamps, so ties and long waits interleave.
                    let base = s.now().as_nanos();
                    let at = match rng.gen_range(0u8..4) {
                        0 => base,
                        1 => base + rng.gen_range(1u64..1_000),
                        2 => base + rng.gen_range(1u64..10_000_000),
                        _ => base + rng.gen_range(1u64..40_000_000_000),
                    };
                    s.schedule_at(SimTime::from_nanos(at), label);
                    reference.push((at, label));
                    label += 1;
                } else if let Some((t, l)) = s.pop() {
                    popped.push((t.as_nanos(), l));
                }
                assert_eq!(s.len(), reference.len() - popped.len(), "round {round}");
            }
            while let Some((t, l)) = s.pop() {
                popped.push((t.as_nanos(), l));
                assert_eq!(s.len(), reference.len() - popped.len(), "round {round}");
            }
            // Labels are assigned in schedule order, so a stable sort
            // by time reproduces the required FIFO tie-break.
            reference.sort_by_key(|&(at, l)| (at, l));
            assert_eq!(popped, reference, "round {round} diverged");
        }
    }

    #[test]
    fn far_future_event_outlasts_a_burst() {
        let mut s = Scheduler::new();
        // One distant event, queued first, must pop after a burst of
        // 200 near events that all arrive behind it.
        s.schedule_at(SimTime::from_secs(3_600), 999u64);
        for i in 0..200u64 {
            s.schedule_at(SimTime::from_nanos(i * 7), i);
        }
        let mut last = None;
        while let Some((_, e)) = s.pop() {
            last = Some(e);
        }
        assert_eq!(last, Some(999));
        assert_eq!(s.processed(), 201);
    }
}
