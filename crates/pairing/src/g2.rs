//! The group `G2 = E'(Fp2)[r]` on the sextic twist
//! `E' : y² = x³ + 4(1 + u)`, plus compressed serialization.
//!
//! In the McCLS mapping, the fixed system elements (`P`, `P_pub`, public
//! keys) live in G2 so that hashed identities can stay in the cheap G1.

use std::sync::OnceLock;

use crate::arith::hex_to_be_bytes;
use crate::curve::{times_twelve, AffinePoint, Curve, ProjectivePoint};
use crate::fp::Fp;
use crate::fp2::Fp2;

/// Marker type carrying the G2 curve parameters.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct G2Params;

/// Affine G2 point.
pub type G2Affine = AffinePoint<G2Params>;
/// Jacobian G2 point.
pub type G2Projective = ProjectivePoint<G2Params>;

#[allow(clippy::expect_used)] // constants only, checked by every test
fn fp_from_hex(s: &str) -> Fp {
    Fp::from_be_bytes(&hex_to_be_bytes::<48>(s)).expect("constant is canonical")
}

fn g2_generator() -> &'static (Fp2, Fp2) {
    static GEN: OnceLock<(Fp2, Fp2)> = OnceLock::new();
    GEN.get_or_init(|| {
        let x = Fp2::new(
            fp_from_hex(
                "024aa2b2f08f0a91260805272dc51051c6e47ad4fa403b02b4510b647ae3d1770bac0326a805bbefd48056c8c121bdb8",
            ),
            fp_from_hex(
                "13e02b6052719f607dacd3a088274f65596bd0d09920b61ab5da61bbdc7f5049334cf11213945d57e5ac7d055d042b7e",
            ),
        );
        let y = Fp2::new(
            fp_from_hex(
                "0ce5d527727d6e118cc9cdc6da2e351aadfd9baa8cbdd3a76d429a695160d12c923ac9cc3baca289e193548608b82801",
            ),
            fp_from_hex(
                "0606c4a02ea734cc32acd2b02bc28b99cb3e287e85a763af267492ab572e99ab3f370d275cec1da1aaa9075ff05f79be",
            ),
        );
        (x, y)
    })
}

impl Curve for G2Params {
    type Base = Fp2;

    fn b() -> Fp2 {
        // 4(1 + u)
        Fp2::new(Fp::from_u64(4), Fp::from_u64(4))
    }

    fn mul_by_3b(x: &Fp2) -> Fp2 {
        // 3b = 12(1 + u), and 1 + u is the tower's nonresidue.
        times_twelve(x).mul_by_nonresidue()
    }

    fn generator_affine() -> (Fp2, Fp2) {
        *g2_generator()
    }
}

impl G2Affine {
    /// Serializes to the 96-byte compressed form
    /// (`x.c1 || x.c0` with flag bits as in G1).
    pub fn to_compressed(&self) -> [u8; 96] {
        let mut out = [0u8; 96];
        if self.infinity {
            out[0] = 0b1100_0000;
            return out;
        }
        out.copy_from_slice(&self.x.to_be_bytes());
        out[0] |= 0b1000_0000;
        if self.y.is_lexicographically_largest() {
            out[0] |= 0b0010_0000;
        }
        out
    }

    /// Parses the 96-byte compressed form with full validation
    /// (canonical coordinates, curve membership, subgroup membership).
    pub fn from_compressed(bytes: &[u8; 96]) -> Option<Self> {
        let point = Self::from_compressed_unchecked(bytes)?;
        (point.is_on_curve() && point.is_torsion_free()).then_some(point)
    }

    /// Parses the 96-byte compressed form **without** the subgroup
    /// check: flag handling and coordinate canonicality are enforced,
    /// curve membership holds by construction of `y` (a checked square
    /// root of `x³ + b`), but the point may lie outside the prime-order
    /// subgroup (G2's cofactor is enormous, so random curve points
    /// almost never land in it).
    ///
    /// It is exposed so adversarial tests can build wrong-subgroup
    /// inputs. Protocol code must use
    /// [`from_compressed`](Self::from_compressed), whose checks the
    /// adversarial decoding, wire and snapshot tests pin.
    pub fn from_compressed_unchecked(bytes: &[u8; 96]) -> Option<Self> {
        let compressed = bytes[0] >> 7 & 1 == 1;
        let infinity = bytes[0] >> 6 & 1 == 1;
        let sign = bytes[0] >> 5 & 1 == 1;
        if !compressed {
            return None;
        }
        let mut xbytes = *bytes;
        xbytes[0] &= 0b0001_1111;
        if infinity {
            if xbytes.iter().all(|&b| b == 0) && !sign {
                return Some(Self::identity());
            }
            return None;
        }
        let x = Fp2::from_be_bytes(&xbytes)?;
        let y2 = x.square().mul(&x).add(&G2Params::b());
        let mut y = sqrt_fp2(&y2)?;
        if y.is_lexicographically_largest() != sign {
            y = y.neg();
        }
        Some(Self {
            x,
            y,
            infinity: false,
        })
    }
}

/// Square root in `Fp2` via the complex method (`p ≡ 3 mod 4`).
///
/// For `a = a0 + a1·u`, uses the norm: if `a1 = 0` fall back to `Fp`
/// square roots of `a0` (or of `-a0` times `u`); otherwise solve
/// `x0² = (a0 + sqrt(a0² + a1²)) / 2`, `x1 = a1 / (2 x0)`.
pub fn sqrt_fp2(a: &Fp2) -> Option<Fp2> {
    if a.is_zero() {
        return Some(Fp2::zero());
    }
    if a.c1.is_zero() {
        // sqrt(a0) in Fp, or sqrt(-a0)·u if a0 is a non-residue.
        if let Some(r) = a.c0.sqrt() {
            return Some(Fp2::new(r, Fp::zero()));
        }
        let r = a.c0.neg().sqrt()?;
        return Some(Fp2::new(Fp::zero(), r));
    }
    let norm = a.c0.square().add(&a.c1.square());
    let alpha = norm.sqrt()?;
    #[allow(clippy::expect_used)] // 2 is a unit in Fp (p is an odd prime)
    let two_inv = Fp::from_u64(2).invert().expect("2 != 0");
    // Try both candidate values for x0².
    for cand in [
        a.c0.add(&alpha).mul(&two_inv),
        a.c0.sub(&alpha).mul(&two_inv),
    ] {
        if let Some(x0) = cand.sqrt() {
            if x0.is_zero() {
                continue;
            }
            #[allow(clippy::expect_used)] // x0 = 0 is skipped by the guard above
            let x1 = a.c1.mul(&two_inv).mul(&x0.invert().expect("nonzero"));
            let root = Fp2::new(x0, x1);
            if root.square() == *a {
                return Some(root);
            }
        }
    }
    None
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // tests may panic freely
mod tests {
    use super::*;
    use crate::fr::Fr;
    use mccls_rng::SeedableRng;

    #[test]
    fn generator_is_on_curve_and_torsion_free() {
        let g = G2Affine::generator();
        assert!(g.is_on_curve());
        assert!(g.is_torsion_free());
    }

    #[test]
    fn group_laws() {
        let g = G2Projective::generator();
        assert_eq!(g.double(), g.add(&g));
        assert_eq!(g.double().add(&g), g.mul_scalar(&Fr::from_u64(3)));
        assert_eq!(g.add(&g.neg()), G2Projective::identity());
    }

    #[test]
    fn scalar_mul_composes() {
        let mut rng = mccls_rng::rngs::StdRng::seed_from_u64(12);
        let g = G2Projective::generator();
        let a = Fr::random(&mut rng);
        let b = Fr::random(&mut rng);
        assert_eq!(g.mul_scalar(&a).mul_scalar(&b), g.mul_scalar(&a.mul(&b)));
    }

    #[test]
    fn wnaf_mul_matches_double_and_add() {
        let mut rng = mccls_rng::rngs::StdRng::seed_from_u64(56);
        let g = G2Projective::generator();
        for _ in 0..5 {
            let k = Fr::random(&mut rng);
            assert_eq!(g.mul_scalar(&k), g.mul_bits(&k.to_raw()));
        }
        assert!(g.mul_scalar(&Fr::zero()).is_identity());
    }

    #[test]
    fn batch_to_affine_matches_individual() {
        let mut rng = mccls_rng::rngs::StdRng::seed_from_u64(57);
        let g = G2Projective::generator();
        let points: Vec<G2Projective> = (0..4)
            .map(|_| g.mul_scalar(&Fr::random(&mut rng)))
            .collect();
        let batch = G2Projective::batch_to_affine(&points);
        for (p, a) in points.iter().zip(&batch) {
            assert_eq!(p.to_affine(), *a);
        }
    }

    #[test]
    fn sqrt_fp2_round_trips() {
        let mut rng = mccls_rng::rngs::StdRng::seed_from_u64(13);
        for _ in 0..10 {
            let a = Fp2::random(&mut rng);
            let sq = a.square();
            let r = sqrt_fp2(&sq).expect("square must have a root");
            assert!(r == a || r == a.neg());
        }
    }

    #[test]
    fn sqrt_fp2_of_base_field_values() {
        // 4 = 2² and -4 = (2u)².
        let four = Fp2::from_fp(Fp::from_u64(4));
        let r = sqrt_fp2(&four).unwrap();
        assert_eq!(r.square(), four);
        let minus_four = four.neg();
        let r = sqrt_fp2(&minus_four).unwrap();
        assert_eq!(r.square(), minus_four);
    }

    #[test]
    fn compression_round_trip() {
        let mut rng = mccls_rng::rngs::StdRng::seed_from_u64(14);
        for _ in 0..5 {
            let p = G2Projective::generator()
                .mul_scalar(&Fr::random(&mut rng))
                .to_affine();
            let bytes = p.to_compressed();
            assert_eq!(G2Affine::from_compressed(&bytes), Some(p));
        }
        let id = G2Affine::identity();
        assert_eq!(G2Affine::from_compressed(&id.to_compressed()), Some(id));
    }

    #[test]
    fn compression_rejects_bad_infinity_encoding() {
        let mut bytes = G2Affine::identity().to_compressed();
        bytes[50] = 1; // non-zero payload with the infinity flag set
        assert_eq!(G2Affine::from_compressed(&bytes), None);
    }
}
