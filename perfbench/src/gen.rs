//! Seeded input generators. Every input a workload consumes — peer
//! popularity draws, messages, tampered-packet and tampered-frame
//! placement, key material and the scenario seed — comes from streams
//! derived from the one `--seed` argument, and is generated before the
//! first timed operation.

use mccls_rng::rngs::StdRng;
use mccls_rng::{RngCore, SeedableRng};

/// An independent generator for input stream `label`/`index` of the run
/// seeded with `seed`: the same triple always yields the same stream.
pub fn stream(seed: u64, label: &str, index: u64) -> StdRng {
    // FNV-1a over the label; `seed_from_u64` then runs SplitMix64, so
    // nearby mixes still give unrelated streams.
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in label.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    StdRng::seed_from_u64(seed ^ h.rotate_left(23) ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// A uniform draw from `[0, 1)` with 53 random bits.
fn unit(rng: &mut impl RngCore) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

/// Zipf popularity over `n` ranks: rank `k` (0-based) is drawn with
/// probability proportional to `1 / (k + 1)^s`.
#[derive(Debug, Clone)]
pub struct Popularity {
    cdf: Vec<f64>,
}

impl Popularity {
    /// The distribution over `n ≥ 1` ranks with exponent `s`.
    pub fn new(n: usize, s: f64) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n.max(1))
            .map(|k| {
                acc += 1.0 / ((k + 1) as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Self { cdf }
    }

    /// Draws one rank.
    pub fn draw(&self, rng: &mut impl RngCore) -> usize {
        let u = unit(rng);
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// Marks exactly one index in every block of `block` consecutive
/// indices, at a position drawn uniformly inside the block. A partial
/// last block is marked only when its draw falls inside it, so every
/// full block carries exactly one mark.
pub fn one_per_block(len: usize, block: usize, rng: &mut impl RngCore) -> Vec<bool> {
    let block = block.max(1);
    let mut marks = vec![false; len];
    for start in (0..len).step_by(block) {
        let at = start + (rng.next_u64() % block as u64) as usize;
        if let Some(mark) = marks.get_mut(at) {
            *mark = true;
        }
    }
    marks
}

/// The payload of input message `index` of stream `kind`: unique per
/// `(seed, kind, index)`, `len` bytes, so no message repeats in a run.
pub fn message(seed: u64, kind: &str, index: usize, len: usize) -> Vec<u8> {
    let mut msg = format!("{kind} seed={seed} n={index:09} ").into_bytes();
    let mut rng = stream(seed, kind, index as u64);
    while msg.len() < len {
        msg.push(b'a' + (rng.next_u32() % 26) as u8);
    }
    msg
}

#[cfg(test)]
mod tests {
    use super::*;

    fn draws(seed: u64, n: usize) -> Vec<usize> {
        let pop = Popularity::new(1024, 1.5);
        let mut rng = stream(seed, "popularity", 0);
        (0..n).map(|_| pop.draw(&mut rng)).collect()
    }

    #[test]
    fn popularity_draws_repeat_per_seed_and_differ_across_seeds() {
        assert_eq!(draws(7, 500), draws(7, 500));
        assert_ne!(draws(7, 500), draws(8, 500));
        let d = draws(7, 20_000);
        assert!(d.iter().all(|&k| k < 1024));
        let count = |k: usize| d.iter().filter(|&&x| x == k).count();
        // Zipf(1.5): rank 0 carries ~38% of the mass, rank 1 ~14%.
        assert!(count(0) > 2 * count(1), "{} vs {}", count(0), count(1));
        assert!((6_500..8_500).contains(&count(0)), "{}", count(0));
    }

    #[test]
    fn placement_marks_exactly_one_per_full_block() {
        let marks = one_per_block(1_000, 64, &mut stream(3, "tamper", 0));
        for block in marks.chunks(64).take(1_000 / 64) {
            assert_eq!(block.iter().filter(|&&m| m).count(), 1);
        }
        assert!(marks.iter().filter(|&&m| m).count() <= 1_000 / 64 + 1);
        assert_eq!(marks, one_per_block(1_000, 64, &mut stream(3, "tamper", 0)));
        assert_ne!(marks, one_per_block(1_000, 64, &mut stream(4, "tamper", 0)));
    }

    #[test]
    fn streams_are_keyed_by_label_and_index() {
        let first = |label: &str, index: u64| stream(9, label, index).next_u64();
        assert_eq!(first("a", 0), first("a", 0));
        assert_ne!(first("a", 0), first("b", 0));
        assert_ne!(first("a", 0), first("a", 1));
    }

    #[test]
    fn messages_are_unique_and_sized() {
        let a = message(1, "rreq", 5, 64);
        assert_eq!(a.len(), 64);
        assert_eq!(a, message(1, "rreq", 5, 64));
        assert_ne!(a, message(1, "rreq", 6, 64));
        assert_ne!(a, message(2, "rreq", 5, 64));
    }
}
