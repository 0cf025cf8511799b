//! The precomputation layer behind the verify hot path: prepared G2
//! points, multi-Miller loops with a shared final exponentiation, and
//! fixed-base scalar-multiplication tables.
//!
//! The McCLS verification equation pairs a message-dependent G1 point
//! against a message-dependent G2 point *once*, and everything else it
//! pairs against — the generator `P`, the KGC key `P_pub`, a peer's
//! long-term `P_ID` — is fixed across calls. Three precomputations
//! exploit that:
//!
//! * [`G2Prepared`] caches the Miller-loop line coefficients of a G2
//!   point, so pairing against it skips all G2 group arithmetic;
//! * [`multi_miller_loop`] evaluates `∏ f_{u,Q_i}(P_i)` sharing the
//!   `Fp12` squarings across terms and returns a [`MillerLoopResult`]
//!   whose (expensive) final exponentiation is paid once per product
//!   instead of once per pairing;
//! * [`FixedBaseTable`] stores signed width-4 windows (digits in
//!   `[-8, 8]`) of a fixed base so scalar multiplication costs 65
//!   masked table scans and complete mixed additions and **zero**
//!   doublings, instead of the ~255 doublings + ~51 additions of the
//!   generic wNAF ladder; being constant time, it serves signing and
//!   verification alike.
//!
//! # Examples
//!
//! A prepared pairing agrees with the direct one:
//!
//! ```
//! use mccls_pairing::{multi_miller_loop, pairing, G1Affine, G2Affine, G2Prepared};
//!
//! let p = G1Affine::generator();
//! let q = G2Affine::generator();
//! let prepared = G2Prepared::from_affine(&q);
//! let fast = multi_miller_loop(&[(&p, &prepared)]).final_exponentiation();
//! assert_eq!(fast, pairing(&p, &q));
//! ```
//!
//! A fixed-base table agrees with the generic ladder:
//!
//! ```
//! use mccls_pairing::{Fr, G1Projective, G1Table};
//!
//! let table = G1Table::new(&G1Projective::generator());
//! let k = Fr::from_u64(123456789);
//! assert_eq!(table.mul(&k), G1Projective::generator().mul_scalar(&k));
//! ```

use std::sync::OnceLock;

use crate::ct;
use crate::curve::{AffinePoint, Curve, Homogeneous, ProjectivePoint};
use crate::field::Field;
use crate::fp12::Fp12;
use crate::fp2::Fp2;
use crate::fr::Fr;
use crate::g1::{G1Affine, G1Params};
use crate::g2::{G2Affine, G2Params, G2Projective};
use crate::pairing_impl::{final_exponentiation, Gt, BLS_X};

/// One Miller-loop line `ℓ(P) = a·y_P + (b·v + c·x_P·v²)·w`, reduced
/// to the three coefficients that do not depend on the G1 argument.
///
/// Through the untwist `ψ(x', y') = (x'·v²/ξ, y'·v·w/ξ)` of the M-type
/// sextic twist, the affine line through `(x₁, y₁)` with slope `λ`,
/// scaled by `ξ` and evaluated at `P`, is
/// `ξ·y_P + (λ·x₁ - y₁)·v·w - λ·x_P·v²·w`. Each stored line is that
/// line multiplied by a further `Fp2` factor, which keeps the
/// coefficients free of inversions; `Fp2` factors die in the final
/// exponentiation, so the pairing value is unchanged.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Line {
    a: Fp2,
    b: Fp2,
    c: Fp2,
}

impl Line {
    /// The tangent at the Jacobian `T = (X, Y, Z)`, scaled by `2YZ³`:
    /// `a = ξ·2YZ³`, `b = 3X³ - 2Y²`, `c = -3X²Z²`.
    fn tangent(t: &G2Projective) -> Self {
        let xx = t.x.square();
        let zz = t.z.square();
        let xx3 = xx.double().add(&xx);
        Self {
            a: t.y.mul(&zz.mul(&t.z)).double().mul_by_nonresidue(),
            b: xx3.mul(&t.x).sub(&t.y.square().double()),
            c: xx3.mul(&zz).neg(),
        }
    }

    /// The chord through the Jacobian `T` and the affine `Q`, scaled by
    /// `Z·H`: `a = ξ·Z·H`, `b = θ·x_Q - Z·H·y_Q`, `c = -θ`, with
    /// `H = x_Q·Z² - X` and `θ = y_Q·Z³ - Y`.
    fn chord(t: &G2Projective, q: &G2Affine) -> Self {
        let zz = t.z.square();
        let h = q.x.mul(&zz).sub(&t.x);
        let theta = q.y.mul(&zz.mul(&t.z)).sub(&t.y);
        let zh = t.z.mul(&h);
        Self {
            a: zh.mul_by_nonresidue(),
            b: theta.mul(&q.x).sub(&zh.mul(&q.y)),
            c: theta.neg(),
        }
    }

    /// Multiplies the line evaluated at `p` into `f`.
    fn apply(&self, f: &Fp12, p: &G1Affine) -> Fp12 {
        f.mul_by_line(&self.a.mul_by_fp(&p.y), &self.b, &self.c.mul_by_fp(&p.x))
    }
}

/// Lines per prepared point: a tangent for each of the 63 bits of `|u|`
/// below its top bit, plus a chord for each of those bits that is set
/// (five of them).
const LINES: usize = 63 + BLS_X.count_ones() as usize - 1;

/// A G2 point with its Miller-loop line coefficients precomputed.
///
/// Preparing costs roughly one Miller loop's worth of G2 arithmetic;
/// every subsequent [`multi_miller_loop`] against the prepared point
/// pays only the sparse `Fp12` line multiplications. Verifiers prepare
/// their fixed pairing arguments (`P`, `P_pub`, long-term peer keys)
/// once and reuse them for every signature.
///
/// # Examples
///
/// ```
/// use mccls_pairing::{multi_miller_loop, pairing, Fr, G1Projective, G2Projective, G2Prepared};
///
/// let q = (G2Projective::generator() * Fr::from_u64(7)).to_affine();
/// let prepared = G2Prepared::from_affine(&q);
/// let p = (G1Projective::generator() * Fr::from_u64(5)).to_affine();
/// assert_eq!(
///     multi_miller_loop(&[(&p, &prepared)]).final_exponentiation(),
///     pairing(&p, &q),
/// );
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct G2Prepared {
    /// The lines in loop order (68 of them, 19,584 bytes), empty for the
    /// identity.
    lines: Vec<Line>,
    /// The point the lines were derived from, kept for serialization:
    /// the wire form ships one compressed point and re-derives the line
    /// coefficients on decode.
    source: G2Affine,
}

/// Leading version byte of the [`G2Prepared`] wire form.
const G2_PREPARED_VERSION: u8 = 0x01;

impl G2Prepared {
    /// Byte length of [`G2Prepared::to_bytes`]: one version byte plus
    /// the 96-byte compressed source point.
    pub const SERIALIZED_LEN: usize = 97;

    /// Precomputes the line coefficients of `q`, walking the working
    /// point in Jacobian coordinates (no inversions).
    pub fn from_affine(q: &G2Affine) -> Self {
        if q.is_identity() {
            return Self {
                lines: Vec::new(),
                source: G2Affine::identity(),
            };
        }
        let mut lines = Vec::with_capacity(LINES);
        let mut t = q.to_projective();
        for i in (0..63).rev() {
            lines.push(Line::tangent(&t));
            t = t.double();
            if (BLS_X >> i) & 1 == 1 {
                lines.push(Line::chord(&t, q));
                t = t.add_affine(q);
            }
        }
        Self { lines, source: *q }
    }

    /// Prepares a projective point (normalizes first).
    pub fn from_projective(q: &G2Projective) -> Self {
        Self::from_affine(&q.to_affine())
    }

    /// True when this prepares the identity (its pairings are trivial).
    pub fn is_identity(&self) -> bool {
        self.source.is_identity()
    }

    /// Serializes as `version || compressed(source)`.
    ///
    /// The line coefficients are a pure function of the source point,
    /// so the wire form ships 97 bytes instead of the 19,584 bytes of
    /// `Fp2` line data and [`G2Prepared::from_bytes`] re-derives them.
    pub fn to_bytes(&self) -> [u8; Self::SERIALIZED_LEN] {
        let mut out = [0u8; Self::SERIALIZED_LEN];
        out[0] = G2_PREPARED_VERSION;
        for (dst, src) in out.iter_mut().skip(1).zip(self.source.to_compressed()) {
            *dst = src;
        }
        out
    }

    /// Parses the wire form produced by [`G2Prepared::to_bytes`].
    ///
    /// Rejects wrong lengths, unknown version bytes, and everything
    /// [`G2Affine::from_compressed`] rejects: bad flag combinations,
    /// non-canonical field encodings, off-curve points, and points
    /// outside the r-order subgroup. The lines are recomputed from the
    /// validated point — no line coefficient is ever trusted from the
    /// wire, so a decoded value is interchangeable with a locally
    /// prepared one.
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        if bytes.len() != Self::SERIALIZED_LEN {
            return None;
        }
        let (&version, point) = bytes.split_first()?;
        if version != G2_PREPARED_VERSION {
            return None;
        }
        let compressed: [u8; 96] = point.try_into().ok()?;
        let source = G2Affine::from_compressed(&compressed)?;
        Some(Self::from_affine(&source))
    }
}

impl From<&G2Affine> for G2Prepared {
    fn from(q: &G2Affine) -> Self {
        Self::from_affine(q)
    }
}

impl From<&G2Projective> for G2Prepared {
    fn from(q: &G2Projective) -> Self {
        Self::from_projective(q)
    }
}

/// The un-exponentiated output of a (multi-)Miller loop.
///
/// Miller-loop values multiply homomorphically, so products of pairings
/// accumulate here and pay [`MillerLoopResult::final_exponentiation`]
/// exactly once.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MillerLoopResult(Fp12);

impl MillerLoopResult {
    /// The empty product.
    pub fn one() -> Self {
        Self(Fp12::one())
    }

    /// Accumulates another Miller-loop factor.
    pub fn mul(&self, other: &Self) -> Self {
        Self(self.0.mul(&other.0))
    }

    /// Maps into the target group: `f ↦ f^((p¹²-1)/r)`.
    pub fn final_exponentiation(&self) -> Gt {
        final_exponentiation(&self.0)
    }

    /// The raw `Fp12` accumulator.
    pub fn as_fp12(&self) -> &Fp12 {
        &self.0
    }
}

/// Evaluates `∏ f_{u,Q_i}(P_i)` with one shared squaring schedule.
///
/// Pairs where either side is the identity contribute the factor `1`
/// (matching [`crate::pairing`] / [`crate::pairing_product`]). Apply
/// [`MillerLoopResult::final_exponentiation`] to land in [`Gt`]:
/// `multi_miller_loop(pairs).final_exponentiation()` equals the product
/// of the individual pairings.
///
/// # Examples
///
/// Verifying `e(aG, H) = e(G, aH)` with two Miller loops and a single
/// final exponentiation:
///
/// ```
/// use mccls_pairing::{multi_miller_loop, Fr, G1Projective, G2Projective, G2Prepared};
///
/// let a = Fr::from_u64(42);
/// let lhs_g1 = (G1Projective::generator() * a).to_affine();
/// let rhs_g1 = G1Projective::generator().neg().to_affine();
/// let h = G2Prepared::from_projective(&G2Projective::generator());
/// let ah = G2Prepared::from_projective(&(G2Projective::generator() * a));
/// let check = multi_miller_loop(&[(&lhs_g1, &h), (&rhs_g1, &ah)]);
/// assert!(check.final_exponentiation().is_identity());
/// ```
pub fn multi_miller_loop(pairs: &[(&G1Affine, &G2Prepared)]) -> MillerLoopResult {
    let mut evals: Vec<(&G1Affine, core::slice::Iter<'_, Line>)> = pairs
        .iter()
        .filter(|(p, q)| !p.is_identity() && !q.is_identity())
        .map(|(p, q)| (*p, q.lines.iter()))
        .collect();
    if evals.is_empty() {
        return MillerLoopResult::one();
    }
    let mut f = Fp12::one();
    for i in (0..63).rev() {
        f = f.square();
        // The tangent, then the chord on set bits of |u|.
        let lines_this_bit = if (BLS_X >> i) & 1 == 1 { 2 } else { 1 };
        for (p, lines) in evals.iter_mut() {
            for line in lines.by_ref().take(lines_this_bit) {
                f = line.apply(&f, p);
            }
        }
    }
    // u < 0: f_{u,Q} = conj(f_{|u|,Q}) after the easy part of the final
    // exponentiation; conjugating once for the whole product is equivalent.
    MillerLoopResult(f.conjugate())
}

/// A fixed-base scalar-multiplication table over signed width-4
/// windows, multiplied by a constant-time comb.
///
/// The scalar is recoded into 65 digits `d_i ∈ [-8, 8]` with
/// `k = Σ d_i·16^i`; window `i` stores the affine multiples
/// `{1..8}·16^i·B`. A multiplication is 65 complete mixed additions and
/// no doublings. Building the table costs ~520 group operations —
/// about two generic scalar multiplications — so it pays for itself
/// after a handful of uses of the same base (`P`, `P_pub`, `G`).
///
/// # Examples
///
/// ```
/// use mccls_pairing::{Fr, G2Projective, G2Table};
///
/// let table = G2Table::new(&G2Projective::generator());
/// let k = Fr::from_u64(0xDEAD_BEEF);
/// assert_eq!(table.mul(&k), G2Projective::generator().mul_scalar(&k));
/// ```
#[derive(Clone, Debug)]
pub struct FixedBaseTable<C: Curve> {
    /// `windows[w]` holds `[1·16^w·B, …, 8·16^w·B]` in affine form.
    windows: Vec<[AffinePoint<C>; 8]>,
}

/// Number of signed radix-16 windows covering a 256-bit scalar (the
/// recoding carry can spill into a 65th digit).
const WINDOWS: usize = 65;

/// A fixed-base table over G1.
pub type G1Table = FixedBaseTable<G1Params>;
/// A fixed-base table over G2.
pub type G2Table = FixedBaseTable<G2Params>;

impl<C: Curve> FixedBaseTable<C> {
    /// Precomputes the window tables for `base`.
    pub fn new(base: &ProjectivePoint<C>) -> Self {
        let mut flat = Vec::with_capacity(WINDOWS * 8);
        let mut power = *base; // 16^w · B
        for _ in 0..WINDOWS {
            let mut multiple = power;
            for j in 0..8 {
                flat.push(multiple);
                if j < 7 {
                    multiple = multiple.add(&power);
                }
            }
            power = power.double().double().double().double();
        }
        let affine = ProjectivePoint::batch_to_affine(&flat);
        let mut windows = Vec::with_capacity(WINDOWS);
        let mut rows = affine.chunks_exact(8);
        for row in &mut rows {
            let mut arr = [AffinePoint::identity(); 8];
            for (dst, src) in arr.iter_mut().zip(row) {
                *dst = *src;
            }
            windows.push(arr);
        }
        Self { windows }
    }

    /// Multiplies the fixed base by `k` in constant time: the one
    /// fixed-base multiplication, for secret scalars (signing nonces,
    /// the master secret) and public ones (verify's `(V·h⁻¹)·P`) alike.
    ///
    /// Per window it reads all eight entries, keeps the one the digit's
    /// magnitude names by masked selects, negates it by a masked select
    /// on the digit's sign, and adds it with one complete mixed addition
    /// (Renes–Costello–Batina 2016, Algorithm 8) in homogeneous
    /// coordinates. A zero digit (or an identity entry, which the affine
    /// addend cannot hold) keeps the old sum by a masked select, so the
    /// schedule, the memory reads and the field operations are the same
    /// for every scalar. The sum becomes Jacobian once, at the end.
    pub fn mul(&self, k: &Fr) -> ProjectivePoint<C> {
        let digits = signed_radix16(&k.to_raw());
        let mut acc = Homogeneous::identity();
        for (row, &digit) in self.windows.iter().zip(digits.iter()) {
            // `sign` is -1 (all ones) for a negative digit, else 0, so
            // `(digit ^ sign) - sign` is `|digit|`.
            let sign = digit >> 7;
            let magnitude = ((digit ^ sign) - sign) as u8;
            let mut x = C::Base::zero();
            let mut y = C::Base::one();
            let mut skip = ct::Choice::TRUE;
            for (j, entry) in (1u8..).zip(row.iter()) {
                let hit = ct::is_zero_word(u64::from(j ^ magnitude));
                x = C::Base::ct_select(&x, &entry.x, hit);
                y = C::Base::ct_select(&y, &entry.y, hit);
                let at_infinity = ct::Choice::from_lsb(u64::from(entry.infinity));
                skip = skip.and(!hit).or(hit.and(at_infinity));
            }
            y = C::Base::ct_select(&y, &y.neg(), ct::Choice::from_lsb(u64::from(sign as u8)));
            let sum = acc.add_affine(&x, &y);
            acc = Homogeneous::select(&sum, &acc, skip);
        }
        acc.to_jacobian()
    }
}

/// Recodes a 256-bit little-endian scalar into 65 signed radix-16
/// digits in `[-8, 8]` with `k = Σ d_i·16^i`, without branches: each
/// nibble plus the incoming carry, `t ∈ [0, 16]`, becomes `t - 16·c`
/// with carry out `c = (t + 7) >> 4`, which is 1 exactly when `t > 8`.
/// The 65th digit is the carry out of the top nibble.
fn signed_radix16(limbs: &[u64; 4]) -> [i8; WINDOWS] {
    let nibbles = limbs
        .iter()
        .flat_map(|&limb| {
            (0..64)
                .step_by(4)
                .map(move |shift| (limb >> shift) as u8 & 0xF)
        })
        .chain(core::iter::once(0));
    let mut digits = [0i8; WINDOWS];
    let mut carry = 0u8;
    for (digit, nibble) in digits.iter_mut().zip(nibbles) {
        let t = nibble + carry;
        carry = (t + 7) >> 4;
        *digit = t as i8 - (carry << 4) as i8;
    }
    digits
}

/// The generator `G ∈ G1` as a cached fixed-base table.
pub fn g1_generator_table() -> &'static G1Table {
    static TABLE: OnceLock<G1Table> = OnceLock::new();
    TABLE.get_or_init(|| G1Table::new(&ProjectivePoint::generator()))
}

/// The generator `P ∈ G2` as a cached fixed-base table.
pub fn g2_generator_table() -> &'static G2Table {
    static TABLE: OnceLock<G2Table> = OnceLock::new();
    TABLE.get_or_init(|| G2Table::new(&ProjectivePoint::generator()))
}

/// The generator `P ∈ G2` with its line coefficients prepared.
pub fn g2_prepared_generator() -> &'static G2Prepared {
    static PREPARED: OnceLock<G2Prepared> = OnceLock::new();
    PREPARED.get_or_init(|| G2Prepared::from_affine(&AffinePoint::generator()))
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // tests may panic freely
mod tests {
    use super::*;
    use crate::g1::G1Projective;
    use crate::pairing_impl::{pairing, pairing_product};
    use mccls_rng::SeedableRng;

    #[test]
    fn prepared_pairing_matches_direct_pairing() {
        let mut rng = mccls_rng::rngs::StdRng::seed_from_u64(90);
        for _ in 0..4 {
            let a = Fr::random(&mut rng);
            let b = Fr::random(&mut rng);
            let p = (G1Projective::generator() * a).to_affine();
            let q = (G2Projective::generator() * b).to_affine();
            let prepared = G2Prepared::from_affine(&q);
            assert_eq!(
                multi_miller_loop(&[(&p, &prepared)]).final_exponentiation(),
                pairing(&p, &q)
            );
        }
    }

    #[test]
    fn multi_miller_loop_matches_product_of_pairings() {
        let mut rng = mccls_rng::rngs::StdRng::seed_from_u64(91);
        for n in 1..=4usize {
            let points: Vec<(G1Affine, G2Affine)> = (0..n)
                .map(|_| {
                    let a = Fr::random(&mut rng);
                    let b = Fr::random(&mut rng);
                    (
                        (G1Projective::generator() * a).to_affine(),
                        (G2Projective::generator() * b).to_affine(),
                    )
                })
                .collect();
            let prepared: Vec<G2Prepared> = points
                .iter()
                .map(|(_, q)| G2Prepared::from_affine(q))
                .collect();
            let pairs: Vec<(&G1Affine, &G2Prepared)> = points
                .iter()
                .zip(prepared.iter())
                .map(|((p, _), prep)| (p, prep))
                .collect();
            let shared = multi_miller_loop(&pairs).final_exponentiation();
            let mut individual = Gt::identity();
            for (p, q) in &points {
                individual = individual.mul(&pairing(p, q));
            }
            assert_eq!(shared, individual, "n = {n}");
        }
    }

    #[test]
    fn multi_miller_loop_matches_pairing_product() {
        let mut rng = mccls_rng::rngs::StdRng::seed_from_u64(92);
        let a = Fr::random(&mut rng);
        let b = Fr::random(&mut rng);
        let g = G1Projective::generator();
        let h = G2Projective::generator();
        let pairs_plain = [
            ((g * a).to_affine(), (h * b).to_affine()),
            ((g * a.mul(&b)).neg().to_affine(), h.to_affine()),
        ];
        let prepared: Vec<G2Prepared> = pairs_plain
            .iter()
            .map(|(_, q)| G2Prepared::from_affine(q))
            .collect();
        let pairs: Vec<(&G1Affine, &G2Prepared)> = pairs_plain
            .iter()
            .zip(prepared.iter())
            .map(|((p, _), prep)| (p, prep))
            .collect();
        assert!(multi_miller_loop(&pairs)
            .final_exponentiation()
            .is_identity());
        assert!(pairing_product(&pairs_plain).is_identity());
    }

    #[test]
    fn identity_pairs_contribute_trivially() {
        let p = G1Affine::generator();
        let q = G2Affine::generator();
        let prep_q = G2Prepared::from_affine(&q);
        let prep_id = G2Prepared::from_affine(&G2Affine::identity());
        assert!(prep_id.is_identity());
        assert!(multi_miller_loop(&[(&G1Affine::identity(), &prep_q)])
            .final_exponentiation()
            .is_identity());
        assert!(multi_miller_loop(&[(&p, &prep_id)])
            .final_exponentiation()
            .is_identity());
        assert!(multi_miller_loop(&[]).final_exponentiation().is_identity());
        // Mixed: identity pairs drop out of a product.
        assert_eq!(
            multi_miller_loop(&[(&p, &prep_q), (&p, &prep_id)]).final_exponentiation(),
            pairing(&p, &q)
        );
    }

    #[test]
    fn off_curve_point_fails_closed() {
        // (0, 0) is not on the twist. Its tangent is the zero line, so its
        // Miller value is zero; decoders reject the point, and a caller
        // that builds it by hand must not get a balanced check out of it.
        let bad = G2Affine {
            x: Fp2::zero(),
            y: Fp2::zero(),
            infinity: false,
        };
        let g = G1Affine::generator();
        let prepared = G2Prepared::from_affine(&bad);
        let e_gh = pairing(&g, &G2Affine::generator());
        for value in [
            multi_miller_loop(&[(&g, &prepared)]).final_exponentiation(),
            multi_miller_loop(&[(&g, &prepared), (&g.neg(), g2_prepared_generator())])
                .final_exponentiation(),
            pairing(&g, &bad),
        ] {
            assert!(!value.is_identity());
            assert_ne!(value, e_gh);
        }
    }

    #[test]
    fn miller_loop_result_multiplies_homomorphically() {
        let p = G1Affine::generator();
        let q = G2Affine::generator();
        let prep = G2Prepared::from_affine(&q);
        let single = multi_miller_loop(&[(&p, &prep)]);
        let merged = single.mul(&single).final_exponentiation();
        let joint = multi_miller_loop(&[(&p, &prep), (&p, &prep)]).final_exponentiation();
        assert_eq!(merged, joint);
        assert_eq!(
            MillerLoopResult::one().final_exponentiation(),
            Gt::identity()
        );
    }

    #[test]
    fn fixed_base_mul_matches_generic_mul_on_random_scalars() {
        let mut rng = mccls_rng::rngs::StdRng::seed_from_u64(93);
        let g1 = G1Table::new(&G1Projective::generator());
        let g2 = G2Table::new(&G2Projective::generator());
        for _ in 0..8 {
            let k = Fr::random(&mut rng);
            assert_eq!(g1.mul(&k), G1Projective::generator().mul_scalar(&k));
            assert_eq!(g2.mul(&k), G2Projective::generator().mul_scalar(&k));
        }
    }

    #[test]
    fn fixed_base_mul_edge_scalars() {
        let table = G1Table::new(&G1Projective::generator());
        assert!(table.mul(&Fr::zero()).is_identity());
        assert_eq!(table.mul(&Fr::one()), G1Projective::generator());
        let r_minus_1 = Fr::zero().sub(&Fr::one());
        assert_eq!(
            table.mul(&r_minus_1),
            G1Projective::generator().mul_scalar(&r_minus_1)
        );
        // All-8 digits exercise the carry chain: 0x8888...8 nibbles.
        let k = Fr::from_u64(0x8888_8888_8888_8888);
        assert_eq!(table.mul(&k), G1Projective::generator().mul_scalar(&k));
    }

    #[test]
    fn fixed_base_table_of_non_generator_base() {
        let mut rng = mccls_rng::rngs::StdRng::seed_from_u64(94);
        let base = G2Projective::generator() * Fr::random(&mut rng);
        let table = G2Table::new(&base);
        let k = Fr::random(&mut rng);
        assert_eq!(table.mul(&k), base.mul_scalar(&k));
    }

    #[test]
    fn fixed_base_table_of_identity_is_identity() {
        let table = G1Table::new(&G1Projective::identity());
        assert!(table.mul(&Fr::from_u64(12345)).is_identity());
    }

    #[test]
    fn signed_radix16_recomposes() {
        let mut rng = mccls_rng::rngs::StdRng::seed_from_u64(95);
        for _ in 0..16 {
            let k = Fr::random(&mut rng);
            let digits = signed_radix16(&k.to_raw());
            // Recompose via Horner in Fr: Σ d_i·16^i.
            let sixteen = Fr::from_u64(16);
            let mut acc = Fr::zero();
            for &d in digits.iter().rev() {
                acc = acc.mul(&sixteen);
                let mag = Fr::from_u64(d.unsigned_abs() as u64);
                acc = if d < 0 { acc.sub(&mag) } else { acc.add(&mag) };
            }
            assert_eq!(acc, k);
            assert!(digits.iter().all(|d| (-8..=8).contains(d)));
        }
    }

    #[test]
    fn prepared_round_trips_through_bytes() {
        let mut rng = mccls_rng::rngs::StdRng::seed_from_u64(96);
        for _ in 0..4 {
            let q = (G2Projective::generator() * Fr::random(&mut rng)).to_affine();
            let prep = G2Prepared::from_affine(&q);
            let bytes = prep.to_bytes();
            assert_eq!(bytes.len(), G2Prepared::SERIALIZED_LEN);
            let back = G2Prepared::from_bytes(&bytes).expect("round trip");
            // Equality covers the re-derived line coefficients, and the
            // decoded value pairs exactly like a locally prepared one.
            assert_eq!(back, prep);
            let p = G1Affine::generator();
            assert_eq!(
                multi_miller_loop(&[(&p, &back)]).final_exponentiation(),
                pairing(&p, &q)
            );
        }
        let id = G2Prepared::from_affine(&G2Affine::identity());
        let back = G2Prepared::from_bytes(&id.to_bytes()).expect("identity round trip");
        assert!(back.is_identity());
        assert_eq!(back, id);
    }

    #[test]
    fn prepared_decoding_rejects_malformed_inputs() {
        let good = G2Prepared::from_affine(&G2Affine::generator()).to_bytes();
        assert!(G2Prepared::from_bytes(&good).is_some(), "control");

        // Wrong lengths: empty, truncated, extended.
        assert!(G2Prepared::from_bytes(&[]).is_none());
        assert!(G2Prepared::from_bytes(&good[..good.len() - 1]).is_none());
        let mut long = good.to_vec();
        long.push(0);
        assert!(G2Prepared::from_bytes(&long).is_none());

        // Unknown version byte.
        let mut bad_version = good;
        bad_version[0] = 0x02;
        assert!(G2Prepared::from_bytes(&bad_version).is_none());

        // Bad flags: clearing the compression bit invalidates the point.
        let mut bad_flags = good;
        bad_flags[1] &= 0b0111_1111;
        assert!(G2Prepared::from_bytes(&bad_flags).is_none());

        // Non-zero x with the infinity bit set is non-canonical.
        let mut bad_identity = good;
        bad_identity[1] |= 0b0100_0000;
        assert!(G2Prepared::from_bytes(&bad_identity).is_none());

        // Non-canonical field element: x ≥ p (all-ones payload).
        let mut non_canonical = good;
        for b in non_canonical.iter_mut().skip(1) {
            *b = 0xFF;
        }
        non_canonical[1] = 0b1011_1111; // compressed + sign, max remaining bits
        assert!(G2Prepared::from_bytes(&non_canonical).is_none());

        // Off-curve / wrong-subgroup points. Sweep low-byte values: each
        // candidate x either has no square root (off-curve, must be
        // rejected by both decoders) or yields a curve point that is
        // almost surely outside the r-order subgroup (G2's cofactor is
        // ~2^382): `from_compressed_unchecked` accepts it, the checked
        // decoder — and therefore `G2Prepared::from_bytes` — must not.
        let mut hit_wrong_subgroup = false;
        for low in 0u8..=255 {
            let mut candidate = [0u8; 96];
            candidate[0] = 0b1000_0000;
            candidate[95] = low;
            let mut wire = [0u8; G2Prepared::SERIALIZED_LEN];
            wire[0] = 0x01;
            wire[1..].copy_from_slice(&candidate);
            match G2Affine::from_compressed_unchecked(&candidate) {
                Some(point) => {
                    assert!(!point.is_torsion_free(), "x={low}: cofactor is ~2^382");
                    assert!(
                        G2Prepared::from_bytes(&wire).is_none(),
                        "x={low}: wrong-subgroup point must be rejected"
                    );
                    hit_wrong_subgroup = true;
                }
                None => assert!(
                    G2Prepared::from_bytes(&wire).is_none(),
                    "x={low}: off-curve point must be rejected"
                ),
            }
        }
        assert!(hit_wrong_subgroup, "sweep found at least one curve point");
    }

    #[test]
    fn cached_generator_tables_work() {
        let k = Fr::from_u64(77);
        assert_eq!(
            g1_generator_table().mul(&k),
            G1Projective::generator().mul_scalar(&k)
        );
        assert_eq!(
            g2_generator_table().mul(&k),
            G2Projective::generator().mul_scalar(&k)
        );
        assert_eq!(
            multi_miller_loop(&[(&G1Affine::generator(), g2_prepared_generator())])
                .final_exponentiation(),
            pairing(&G1Affine::generator(), &G2Affine::generator())
        );
    }
}
