//! Instrumented group operations.
//!
//! Every scheme in this crate performs its pairings and scalar
//! multiplications through the wrappers below, which maintain
//! thread-local counters. The Table 1 harness resets the counters, runs
//! one sign or verify, and reads the counts back — so the reported
//! operation profile is *measured from the implementation*, not
//! transcribed from the paper.
//!
//! Since the prepared-pairing engine landed, the counters also split a
//! "pairing" into its two halves — Miller loops and final
//! exponentiations — so the batch and cached-verify paths can assert the
//! *shared* final exponentiation the engine buys them: a batch of `n`
//! signatures shows `n + 1` Miller loops but only one final
//! exponentiation.

use std::cell::Cell;

use mccls_pairing::{
    multi_miller_loop, pairing, Fr, G1Affine, G1Projective, G1Table, G2Affine, G2Prepared,
    G2Projective, G2Table, Gt, MillerLoopResult,
};

thread_local! {
    static PAIRINGS: Cell<u64> = const { Cell::new(0) };
    static MILLER_LOOPS: Cell<u64> = const { Cell::new(0) };
    static FINAL_EXPS: Cell<u64> = const { Cell::new(0) };
    static G1_MULS: Cell<u64> = const { Cell::new(0) };
    static G2_MULS: Cell<u64> = const { Cell::new(0) };
    static GT_EXPS: Cell<u64> = const { Cell::new(0) };
    static HASHES_TO_G1: Cell<u64> = const { Cell::new(0) };
    static FP_INVERSIONS: Cell<u64> = const { Cell::new(0) };
}

/// A snapshot of the operation counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OpCounts {
    /// Bilinear pairing evaluations (`p` in Table 1). A pairing product
    /// of `k` factors with one shared final exponentiation still counts
    /// `k` here, matching how the paper's column tallies pairings.
    pub pairings: u64,
    /// Miller loops executed (one per pairing factor).
    pub miller_loops: u64,
    /// Final exponentiations executed. Strictly fewer than
    /// `miller_loops` whenever products share one.
    pub final_exps: u64,
    /// G1 scalar multiplications.
    pub g1_muls: u64,
    /// G2 scalar multiplications.
    pub g2_muls: u64,
    /// GT exponentiations (`e` in Table 1).
    pub gt_exps: u64,
    /// Hash-to-G1 evaluations (map-to-point; some papers fold these into
    /// their `s` column, we report them separately).
    pub hashes_to_g1: u64,
    /// Base-field inversions paid through the counted frontends. Batch
    /// normalization uses Montgomery's trick, so a whole fixed-base
    /// table build ([`g1_table`]/[`g2_table`]) counts exactly one.
    pub fp_inversions: u64,
}

impl OpCounts {
    /// Total scalar multiplications (`s` in Table 1).
    pub fn scalar_muls(&self) -> u64 {
        self.g1_muls + self.g2_muls
    }

    /// Renders the Table 1 style `Np+Ms(+Ke)` shorthand.
    pub fn shorthand(&self) -> String {
        let mut parts = Vec::new();
        if self.pairings > 0 {
            parts.push(format!("{}p", self.pairings));
        }
        if self.scalar_muls() > 0 {
            parts.push(format!("{}s", self.scalar_muls()));
        }
        if self.gt_exps > 0 {
            parts.push(format!("{}e", self.gt_exps));
        }
        if parts.is_empty() {
            "-".to_owned()
        } else {
            parts.join("+")
        }
    }
}

impl core::fmt::Display for OpCounts {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}", self.shorthand())
    }
}

/// Resets all counters on this thread.
pub fn reset() {
    PAIRINGS.with(|c| c.set(0));
    MILLER_LOOPS.with(|c| c.set(0));
    FINAL_EXPS.with(|c| c.set(0));
    G1_MULS.with(|c| c.set(0));
    G2_MULS.with(|c| c.set(0));
    GT_EXPS.with(|c| c.set(0));
    HASHES_TO_G1.with(|c| c.set(0));
    FP_INVERSIONS.with(|c| c.set(0));
}

/// Reads the current counters on this thread.
pub fn snapshot() -> OpCounts {
    OpCounts {
        pairings: PAIRINGS.with(Cell::get),
        miller_loops: MILLER_LOOPS.with(Cell::get),
        final_exps: FINAL_EXPS.with(Cell::get),
        g1_muls: G1_MULS.with(Cell::get),
        g2_muls: G2_MULS.with(Cell::get),
        gt_exps: GT_EXPS.with(Cell::get),
        hashes_to_g1: HASHES_TO_G1.with(Cell::get),
        fp_inversions: FP_INVERSIONS.with(Cell::get),
    }
}

/// Runs `f` with freshly reset counters and returns its result together
/// with the operation counts it incurred.
pub fn measure<T>(f: impl FnOnce() -> T) -> (T, OpCounts) {
    reset();
    let out = f();
    (out, snapshot())
}

/// Counted pairing evaluation (one Miller loop + one final
/// exponentiation).
pub fn pair(p: &G1Affine, q: &G2Affine) -> Gt {
    PAIRINGS.with(|c| c.set(c.get() + 1));
    MILLER_LOOPS.with(|c| c.set(c.get() + 1));
    FINAL_EXPS.with(|c| c.set(c.get() + 1));
    pairing(p, q)
}

/// Counted pairing against a [`G2Prepared`] point whose line
/// coefficients were cached ahead of time.
///
/// Costs the same one Miller loop + one final exponentiation in the
/// counters as [`pair`], but skips all G2 group arithmetic at runtime —
/// this is the wrapper the verify hot paths use for the fixed arguments
/// `P` and `P_pub`.
pub fn pair_prepared(p: &G1Affine, q: &G2Prepared) -> Gt {
    PAIRINGS.with(|c| c.set(c.get() + 1));
    MILLER_LOOPS.with(|c| c.set(c.get() + 1));
    FINAL_EXPS.with(|c| c.set(c.get() + 1));
    multi_miller_loop(&[(p, q)]).final_exponentiation()
}

/// Counted pairing product `∏ e(p_i, q_i)` over prepared points with one
/// shared final exponentiation.
///
/// Counts one `pairings` (and one Miller loop) per factor — matching the
/// paper's Table 1 accounting, which charges a `k`-factor product as `k`
/// pairings — but only a single `final_exps`.
pub fn pairing_product_prepared(pairs: &[(&G1Affine, &G2Prepared)]) -> Gt {
    let n = pairs.len() as u64;
    PAIRINGS.with(|c| c.set(c.get() + n));
    MILLER_LOOPS.with(|c| c.set(c.get() + n));
    FINAL_EXPS.with(|c| c.set(c.get() + 1));
    multi_miller_loop(pairs).final_exponentiation()
}

/// Counted multi-Miller loop *without* the final exponentiation.
///
/// Use with [`final_exp`] when a caller wants to combine several loop
/// results (batch verification) before paying the single exponentiation.
pub fn miller_loop(pairs: &[(&G1Affine, &G2Prepared)]) -> MillerLoopResult {
    MILLER_LOOPS.with(|c| c.set(c.get() + pairs.len() as u64));
    multi_miller_loop(pairs)
}

/// Counted final exponentiation of an accumulated Miller-loop result.
pub fn final_exp(m: &MillerLoopResult) -> Gt {
    FINAL_EXPS.with(|c| c.set(c.get() + 1));
    m.final_exponentiation()
}

/// Counted G1 scalar multiplication.
pub fn mul_g1(p: &G1Projective, k: &Fr) -> G1Projective {
    G1_MULS.with(|c| c.set(c.get() + 1));
    p.mul_scalar(k)
}

/// Counted G2 scalar multiplication.
pub fn mul_g2(p: &G2Projective, k: &Fr) -> G2Projective {
    G2_MULS.with(|c| c.set(c.get() + 1));
    p.mul_scalar(k)
}

/// Counted fixed-base G1 scalar multiplication through a precomputed
/// window table: the constant-time comb of
/// [`mccls_pairing::FixedBaseTable::mul`], safe for secret scalars.
/// Counts in the same `g1_muls` bucket as [`mul_g1`] so Table 1
/// profiles are unaffected by which ladder a scheme picks.
pub fn mul_g1_fixed(table: &G1Table, k: &Fr) -> G1Projective {
    G1_MULS.with(|c| c.set(c.get() + 1));
    table.mul(k)
}

/// Counted fixed-base G2 scalar multiplication through a precomputed
/// window table (see [`mul_g1_fixed`]). McCLS runs every multiplication
/// of the generator `P` through it: signing's `R = (r - x)·P`, the
/// offline signer's tokens, the KGC's `P_pub = s·P` and verify's
/// `(V·h⁻¹)·P`.
pub fn mul_g2_fixed(table: &G2Table, k: &Fr) -> G2Projective {
    G2_MULS.with(|c| c.set(c.get() + 1));
    table.mul(k)
}

/// Counted G1 scalar multiplication with the uniform-schedule ladder
/// on complete formulas.
///
/// Use this (not [`mul_g1`]) whenever `k` is secret and the base is not
/// a tabled generator — inverted user secrets, partial private keys
/// (a generator base takes [`mul_g1_fixed`]). Counts in the same
/// `g1_muls` bucket so Table 1 profiles are unaffected by which ladder
/// a scheme picks.
pub fn mul_g1_ct(p: &G1Projective, k: &Fr) -> G1Projective {
    G1_MULS.with(|c| c.set(c.get() + 1));
    p.mul_scalar_ct(k)
}

/// Counted G2 scalar multiplication with the uniform-schedule ladder,
/// for secret scalars (see [`mul_g1_ct`]).
pub fn mul_g2_ct(p: &G2Projective, k: &Fr) -> G2Projective {
    G2_MULS.with(|c| c.set(c.get() + 1));
    p.mul_scalar_ct(k)
}

/// Counted GT exponentiation.
pub fn exp_gt(g: &Gt, k: &Fr) -> Gt {
    GT_EXPS.with(|c| c.set(c.get() + 1));
    g.pow(k)
}

/// Counted fixed-base G1 window-table construction.
///
/// All `65 × 8` window entries are normalized with one shared field
/// inversion (Montgomery's trick, [`mccls_pairing::Field::batch_invert`]
/// via `batch_to_affine`), so the whole build counts a single
/// `fp_inversions` — that bound is what the opcount gate certifies.
// opcount-budget: tables.g1_table
pub fn g1_table(base: &G1Projective) -> G1Table {
    FP_INVERSIONS.with(|c| c.set(c.get() + 1));
    G1Table::new(base)
}

/// Counted fixed-base G2 window-table construction (see [`g1_table`]).
// opcount-budget: tables.g2_table
pub fn g2_table(base: &G2Projective) -> G2Table {
    FP_INVERSIONS.with(|c| c.set(c.get() + 1));
    G2Table::new(base)
}

/// Counted hash-to-G1 (map-to-point).
pub fn hash_to_g1(msg: &[u8], dst: &[u8]) -> G1Projective {
    HASHES_TO_G1.with(|c| c.set(c.get() + 1));
    mccls_pairing::hash_to_g1(msg, dst)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // tests may panic freely
mod tests {
    use super::*;
    use mccls_rng::SeedableRng;

    #[test]
    fn counters_track_operations() {
        let mut rng = mccls_rng::rngs::StdRng::seed_from_u64(1);
        let (_, counts) = measure(|| {
            let k = Fr::random(&mut rng);
            let p = mul_g1(&G1Projective::generator(), &k);
            let q = mul_g2(&G2Projective::generator(), &k);
            let e = pair(&p.to_affine(), &q.to_affine());
            exp_gt(&e, &k);
            hash_to_g1(b"x", b"T");
        });
        assert_eq!(
            counts,
            OpCounts {
                pairings: 1,
                miller_loops: 1,
                final_exps: 1,
                g1_muls: 1,
                g2_muls: 1,
                gt_exps: 1,
                hashes_to_g1: 1,
                fp_inversions: 0
            }
        );
    }

    #[test]
    fn table_construction_counts_one_batched_inversion() {
        let k = Fr::from_u64(0xF00D);
        let ((t1, t2), counts) = measure(|| {
            (
                g1_table(&G1Projective::generator()),
                g2_table(&G2Projective::generator()),
            )
        });
        assert_eq!(
            counts.fp_inversions, 2,
            "one shared inversion per table, not one per window entry"
        );
        assert_eq!(counts.g1_muls, 0, "construction is not a scalar mul");
        assert_eq!(t1.mul(&k), G1Projective::generator().mul_scalar(&k));
        assert_eq!(t2.mul(&k), G2Projective::generator().mul_scalar(&k));
    }

    #[test]
    fn prepared_wrappers_split_miller_loops_from_final_exps() {
        let g1 = G1Projective::generator().to_affine();
        let prep = G2Prepared::from_projective(&G2Projective::generator());
        let (_, counts) =
            measure(|| pairing_product_prepared(&[(&g1, &prep), (&g1, &prep), (&g1, &prep)]));
        assert_eq!(counts.pairings, 3, "a 3-factor product tallies 3p");
        assert_eq!(counts.miller_loops, 3);
        assert_eq!(counts.final_exps, 1, "one shared final exponentiation");

        let (_, counts) = measure(|| {
            let m = miller_loop(&[(&g1, &prep), (&g1, &prep)]);
            final_exp(&m)
        });
        assert_eq!(counts.pairings, 0, "raw loops are not Table 1 pairings");
        assert_eq!(counts.miller_loops, 2);
        assert_eq!(counts.final_exps, 1);
    }

    #[test]
    fn pair_prepared_agrees_with_pair() {
        let mut rng = mccls_rng::rngs::StdRng::seed_from_u64(2);
        let k = Fr::random(&mut rng);
        let p = G1Projective::generator().mul_scalar(&k).to_affine();
        let q = G2Projective::generator();
        let prep = G2Prepared::from_projective(&q);
        let ((a, b), counts) = measure(|| (pair(&p, &q.to_affine()), pair_prepared(&p, &prep)));
        assert_eq!(a, b);
        assert_eq!(counts.pairings, 2);
        assert_eq!(counts.miller_loops, 2);
        assert_eq!(counts.final_exps, 2);
    }

    #[test]
    fn fixed_base_wrappers_count_as_scalar_muls() {
        let k = Fr::from_u64(123456);
        let (out, counts) = measure(|| {
            (
                mul_g1_fixed(mccls_pairing::g1_generator_table(), &k),
                mul_g2_fixed(mccls_pairing::g2_generator_table(), &k),
            )
        });
        assert_eq!(counts.g1_muls, 1);
        assert_eq!(counts.g2_muls, 1);
        assert_eq!(out.0, G1Projective::generator().mul_scalar(&k));
        assert_eq!(out.1, G2Projective::generator().mul_scalar(&k));
    }

    #[test]
    fn shorthand_formats_like_table_1() {
        let c = OpCounts {
            pairings: 4,
            g1_muls: 1,
            gt_exps: 1,
            ..OpCounts::default()
        };
        assert_eq!(c.shorthand(), "4p+1s+1e");
        assert_eq!(OpCounts::default().shorthand(), "-");
        let sign_only = OpCounts {
            g1_muls: 2,
            ..OpCounts::default()
        };
        assert_eq!(sign_only.shorthand(), "2s");
    }

    #[test]
    fn reset_clears_counters() {
        pair(
            &G1Projective::generator().to_affine(),
            &G2Projective::generator().to_affine(),
        );
        reset();
        assert_eq!(snapshot(), OpCounts::default());
    }
}
