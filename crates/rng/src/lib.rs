//! Deterministic random number generation for the McCLS workspace.
//!
//! The workspace must build and test with **no network access**, so it
//! cannot depend on the external `rand` crate. This crate supplies the
//! small slice of that API the workspace actually uses, implemented from
//! scratch:
//!
//! * [`RngCore`] — the object-safe generator interface
//!   (`next_u32` / `next_u64` / `fill_bytes`);
//! * [`SeedableRng`] — deterministic construction, including the
//!   `seed_from_u64` convenience used throughout the tests and the
//!   simulation harness;
//! * [`Rng`] — the ergonomic extension trait (`gen_range`, `gen_bool`);
//! * [`rngs::StdRng`] — the workspace's standard generator, a
//!   [xoshiro256**](https://prng.di.unimi.it/) instance seeded through
//!   [`SplitMix64`] as its authors recommend.
//!
//! Everything here is deterministic by design: simulation results and
//! test vectors are reproducible from a `u64` seed alone. **None of these
//! generators are cryptographically secure.** They are used for
//! simulation, testing, and sampling field elements in a reproduction
//! setting; a deployment would substitute a CSPRNG behind the same
//! [`RngCore`] interface.
//!
//! # Examples
//!
//! ```
//! use mccls_rng::{Rng, RngCore, SeedableRng};
//!
//! let mut rng = mccls_rng::rngs::StdRng::seed_from_u64(7);
//! let a = rng.next_u64();
//! let lane: f64 = rng.gen_range(0.0..250.0);
//! let coin = rng.gen_bool(0.5);
//! assert!((0.0..250.0).contains(&lane));
//! let mut replay = mccls_rng::rngs::StdRng::seed_from_u64(7);
//! assert_eq!(replay.next_u64(), a);
//! let _ = coin;
//! ```

#![warn(missing_docs)]

mod splitmix;
mod uniform;
mod xoshiro;

pub use splitmix::SplitMix64;
pub use uniform::SampleUniform;
pub use xoshiro::Xoshiro256StarStar;

/// The generators module, mirroring the external `rand` crate's `rngs`
/// module so call sites read the same way they would against it.
pub mod rngs {
    /// The workspace's standard generator: xoshiro256** behind splitmix64
    /// seeding. Deterministic and fast; **not** cryptographically secure.
    pub type StdRng = super::Xoshiro256StarStar;
}

/// A stream of pseudo-random bits.
///
/// Object safe (`&mut dyn RngCore` works), mirroring the shape of the
/// external `rand` crate's `RngCore` so generic bounds like
/// `rng: &mut (impl RngCore + ?Sized)` port over unchanged.
pub trait RngCore {
    /// The next 32 pseudo-random bits.
    fn next_u32(&mut self) -> u32;

    /// The next 64 pseudo-random bits.
    fn next_u64(&mut self) -> u64;

    /// Fills `dest` with pseudo-random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]);
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u32(&mut self) -> u32 {
        R::next_u32(self)
    }
    fn next_u64(&mut self) -> u64 {
        R::next_u64(self)
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        R::fill_bytes(self, dest)
    }
}

/// Deterministic construction from seed material.
pub trait SeedableRng: Sized {
    /// The full-entropy seed type.
    type Seed: Default + AsMut<[u8]>;

    /// Constructs the generator from a full seed.
    fn from_seed(seed: Self::Seed) -> Self;

    /// Expands a `u64` into a full seed via [`SplitMix64`] and constructs
    /// the generator — the idiom every test and experiment in the
    /// workspace uses.
    fn seed_from_u64(state: u64) -> Self {
        let mut sm = SplitMix64::new(state);
        let mut seed = Self::Seed::default();
        for chunk in seed.as_mut().chunks_mut(8) {
            let bytes = sm.next_u64().to_le_bytes();
            for (dst, src) in chunk.iter_mut().zip(bytes) {
                *dst = src;
            }
        }
        Self::from_seed(seed)
    }
}

/// Ergonomic sampling helpers on top of [`RngCore`].
///
/// Blanket-implemented for every generator; the generic methods require
/// `Self: Sized` so the core trait stays object safe.
pub trait Rng: RngCore {
    /// Samples uniformly from a half-open range.
    ///
    /// # Panics
    ///
    /// Panics when `range` is empty, matching `rand`'s contract.
    fn gen_range<T: SampleUniform>(&mut self, range: core::ops::Range<T>) -> T
    where
        Self: Sized,
    {
        T::sample_range(self, range.start, range.end)
    }

    /// Returns `true` with probability `p`.
    ///
    /// `p` is clamped to `[0, 1]`; `NaN` is treated as `0`.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        uniform::unit_f64(self.next_u64()) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // tests may panic freely
mod tests {
    use super::*;

    #[test]
    fn seed_from_u64_is_deterministic() {
        let mut a = rngs::StdRng::seed_from_u64(42);
        let mut b = rngs::StdRng::seed_from_u64(42);
        for _ in 0..32 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = rngs::StdRng::seed_from_u64(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn fill_bytes_covers_partial_chunks() {
        let mut rng = rngs::StdRng::seed_from_u64(1);
        for len in [0usize, 1, 7, 8, 9, 31, 64] {
            let mut buf = vec![0u8; len];
            rng.fill_bytes(&mut buf);
            // A 31-byte read must not leave the tail untouched.
            if len >= 16 {
                assert!(buf.iter().any(|&b| b != 0));
            }
        }
    }

    #[test]
    fn fill_bytes_matches_next_u64_le() {
        let mut a = rngs::StdRng::seed_from_u64(9);
        let mut b = rngs::StdRng::seed_from_u64(9);
        let mut buf = [0u8; 16];
        a.fill_bytes(&mut buf);
        let mut expect = [0u8; 16];
        expect[..8].copy_from_slice(&b.next_u64().to_le_bytes());
        expect[8..].copy_from_slice(&b.next_u64().to_le_bytes());
        assert_eq!(buf, expect);
    }

    #[test]
    fn gen_range_stays_in_bounds() {
        let mut rng = rngs::StdRng::seed_from_u64(5);
        for _ in 0..1000 {
            let v: u64 = rng.gen_range(10..17);
            assert!((10..17).contains(&v));
            let f: f64 = rng.gen_range(-2.5..7.5);
            assert!((-2.5..7.5).contains(&f));
            let u: usize = rng.gen_range(0..3);
            assert!(u < 3);
            let w: u32 = rng.gen_range(1..2);
            assert_eq!(w, 1);
        }
    }

    #[test]
    fn gen_range_hits_every_bucket() {
        let mut rng = rngs::StdRng::seed_from_u64(6);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            seen[rng.gen_range(0usize..8)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn gen_range_rejects_empty() {
        let mut rng = rngs::StdRng::seed_from_u64(7);
        let _ = rng.gen_range(5u64..5);
    }

    #[test]
    fn gen_bool_extremes_and_balance() {
        let mut rng = rngs::StdRng::seed_from_u64(8);
        for _ in 0..100 {
            assert!(!rng.gen_bool(0.0));
            assert!(rng.gen_bool(1.0));
        }
        let heads = (0..10_000).filter(|_| rng.gen_bool(0.5)).count();
        assert!((4_500..5_500).contains(&heads), "heads = {heads}");
    }

    #[test]
    fn dyn_rng_core_is_object_safe() {
        let mut rng = rngs::StdRng::seed_from_u64(11);
        let dynamic: &mut dyn RngCore = &mut rng;
        let mut buf = [0u8; 4];
        dynamic.fill_bytes(&mut buf);
        let _ = dynamic.next_u32();
    }
}
