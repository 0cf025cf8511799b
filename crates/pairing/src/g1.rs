//! The group `G1 = E(Fp)[r]` with `E : y² = x³ + 4`, plus serialization
//! and hash-to-curve. Identities (`Q_ID = H1(ID)`) live here.

use std::sync::OnceLock;

use crate::arith::hex_to_be_bytes;
use crate::curve::{times_twelve, AffinePoint, Curve, ProjectivePoint};
use crate::fp::Fp;

/// Marker type carrying the G1 curve parameters.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct G1Params;

/// Affine G1 point.
pub type G1Affine = AffinePoint<G1Params>;
/// Jacobian G1 point.
pub type G1Projective = ProjectivePoint<G1Params>;

/// `h_eff = 1 - u = 0xd201000000010001`, the effective G1 cofactor of
/// RFC 9380 §8.8.1 (`u` is the negative BLS parameter).
const G1_H_EFF: [u64; 1] = [0xd201_0000_0001_0001];

fn g1_generator() -> &'static (Fp, Fp) {
    static GEN: OnceLock<(Fp, Fp)> = OnceLock::new();
    GEN.get_or_init(|| {
        #[allow(clippy::expect_used)] // a constant, checked by every test
        let x = Fp::from_be_bytes(&hex_to_be_bytes::<48>(
            "17f1d3a73197d7942695638c4fa9ac0fc3688c4f9774b905a14e3a3f171bac586c55e83ff97a1aeffb3af00adb22c6bb",
        ))
        .expect("generator x is canonical");
        #[allow(clippy::expect_used)] // a constant, checked by every test
        let y = Fp::from_be_bytes(&hex_to_be_bytes::<48>(
            "08b3f481e3aaa0f1a09e30ed741d8ae4fcf5e095d5d00af600db18cb2c04b3edd03cc744a2888ae40caa232946c5e7e1",
        ))
        .expect("generator y is canonical");
        (x, y)
    })
}

impl Curve for G1Params {
    type Base = Fp;

    fn b() -> Fp {
        Fp::from_u64(4)
    }

    fn mul_by_3b(x: &Fp) -> Fp {
        times_twelve(x)
    }

    fn generator_affine() -> (Fp, Fp) {
        *g1_generator()
    }
}

impl G1Affine {
    /// Serializes to the 48-byte compressed form.
    ///
    /// Flag bits (most significant bits of the first byte): bit 7 set
    /// (compressed), bit 6 identity, bit 5 the lexicographic sign of `y`.
    pub fn to_compressed(&self) -> [u8; 48] {
        let mut out = [0u8; 48];
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

    /// Parses the 48-byte compressed form, rejecting non-canonical
    /// encodings, off-curve points, and points outside the prime-order
    /// subgroup.
    pub fn from_compressed(bytes: &[u8; 48]) -> Option<Self> {
        let point = Self::from_compressed_unchecked(bytes)?;
        point.is_torsion_free().then_some(point)
    }

    /// Parses the 48-byte compressed form **without** the subgroup
    /// check: flag handling and coordinate canonicality are enforced,
    /// curve membership holds by construction of `y`, but the point may
    /// lie outside the prime-order subgroup.
    ///
    /// It is exposed so adversarial tests can build wrong-subgroup
    /// inputs. Protocol code must use
    /// [`from_compressed`](Self::from_compressed), whose checks the
    /// adversarial decoding, wire and snapshot tests pin.
    pub fn from_compressed_unchecked(bytes: &[u8; 48]) -> Option<Self> {
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
        Self::with_x(Fp::from_be_bytes(&xbytes)?, sign)
    }

    /// The curve point with abscissa `x` whose `y` is the
    /// lexicographically largest root exactly when `largest_y` is set,
    /// or `None` when `x³ + 4` is not a square.
    fn with_x(x: Fp, largest_y: bool) -> Option<Self> {
        let mut y = x.square().mul(&x).add(&G1Params::b()).sqrt()?;
        if y.is_lexicographically_largest() != largest_y {
            y = y.neg();
        }
        Some(Self {
            x,
            y,
            infinity: false,
        })
    }
}

/// Hashes an arbitrary message into the prime-order subgroup of G1
/// (the paper's `H1 : {0,1}* → G1`).
///
/// Uses deterministic try-and-increment over an XMD-expanded field
/// element, followed by effective-cofactor clearing. Not the RFC 9380
/// SSWU map, but a uniform-enough random oracle instantiation for the
/// scheme (documented in `DESIGN.md`).
///
/// # Examples
///
/// ```
/// use mccls_pairing::hash_to_g1;
///
/// let p = hash_to_g1(b"node-17", b"MCCLS-H1");
/// assert!(!p.is_identity());
/// assert_eq!(p, hash_to_g1(b"node-17", b"MCCLS-H1"));
/// ```
// The map solves the curve equation directly (on-curve by
// construction), and the effective-cofactor clearing below forces the
// result into the prime-order subgroup.
pub fn hash_to_g1(msg: &[u8], dst: &[u8]) -> G1Projective {
    let wide = mccls_hash::expand_message(msg, dst, 64);
    let mut x = Fp::from_be_bytes_mod(&wide);
    loop {
        // The smaller root keeps the map deterministic.
        if let Some(p) = G1Affine::with_x(x, false) {
            let cleared = p.to_projective().mul_bits(&G1_H_EFF);
            if !cleared.is_identity() {
                return cleared;
            }
        }
        x = x.add(&Fp::one());
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // tests may panic freely
mod tests {
    use super::*;
    use crate::fr::Fr;
    use mccls_rng::SeedableRng;

    #[test]
    fn generator_is_on_curve_and_torsion_free() {
        let g = G1Affine::generator();
        assert!(g.is_on_curve());
        assert!(g.is_torsion_free());
        assert!(!g.is_identity());
    }

    #[test]
    fn generator_times_order_is_identity() {
        let g = G1Projective::generator();
        assert!(g.mul_bits(&Fr::MODULUS).is_identity());
    }

    #[test]
    fn group_laws() {
        let g = G1Projective::generator();
        let two_g = g.double();
        assert_eq!(two_g, g.add(&g));
        assert_eq!(two_g.add(&g), g.mul_scalar(&Fr::from_u64(3)));
        assert_eq!(g.add(&g.neg()), G1Projective::identity());
        assert_eq!(g.add(&G1Projective::identity()), g);
    }

    #[test]
    fn scalar_mul_distributes() {
        let mut rng = mccls_rng::rngs::StdRng::seed_from_u64(5);
        let g = G1Projective::generator();
        for _ in 0..5 {
            let a = Fr::random(&mut rng);
            let b = Fr::random(&mut rng);
            assert_eq!(
                g.mul_scalar(&a).add(&g.mul_scalar(&b)),
                g.mul_scalar(&a.add(&b))
            );
            assert_eq!(g.mul_scalar(&a).mul_scalar(&b), g.mul_scalar(&a.mul(&b)));
        }
    }

    #[test]
    fn wnaf_mul_matches_double_and_add() {
        let mut rng = mccls_rng::rngs::StdRng::seed_from_u64(55);
        let g = G1Projective::generator();
        for _ in 0..10 {
            let k = Fr::random(&mut rng);
            assert_eq!(g.mul_scalar(&k), g.mul_bits(&k.to_raw()));
        }
        // Edge scalars.
        for k in [
            Fr::zero(),
            Fr::one(),
            Fr::from_u64(7),
            Fr::zero().sub(&Fr::one()),
        ] {
            assert_eq!(g.mul_scalar(&k), g.mul_bits(&k.to_raw()), "{k:?}");
        }
        assert!(G1Projective::identity()
            .mul_scalar(&Fr::from_u64(5))
            .is_identity());
    }

    #[test]
    fn affine_round_trip() {
        let mut rng = mccls_rng::rngs::StdRng::seed_from_u64(6);
        let p = G1Projective::generator().mul_scalar(&Fr::random(&mut rng));
        let a = p.to_affine();
        assert!(a.is_on_curve());
        assert_eq!(a.to_projective(), p);
    }

    #[test]
    fn batch_to_affine_matches_individual() {
        let mut rng = mccls_rng::rngs::StdRng::seed_from_u64(7);
        let g = G1Projective::generator();
        let mut points: Vec<G1Projective> = (0..6)
            .map(|_| g.mul_scalar(&Fr::random(&mut rng)))
            .collect();
        points.insert(2, G1Projective::identity());
        let batch = G1Projective::batch_to_affine(&points);
        for (p, a) in points.iter().zip(&batch) {
            assert_eq!(p.to_affine(), *a);
        }
    }

    #[test]
    fn compression_round_trip() {
        let mut rng = mccls_rng::rngs::StdRng::seed_from_u64(8);
        for _ in 0..10 {
            let p = G1Projective::generator()
                .mul_scalar(&Fr::random(&mut rng))
                .to_affine();
            let bytes = p.to_compressed();
            assert_eq!(G1Affine::from_compressed(&bytes), Some(p));
        }
        let id = G1Affine::identity();
        assert_eq!(G1Affine::from_compressed(&id.to_compressed()), Some(id));
    }

    #[test]
    fn compression_rejects_uncompressed_flag() {
        let p = G1Affine::generator();
        let mut bytes = p.to_compressed();
        bytes[0] &= 0b0111_1111;
        assert_eq!(G1Affine::from_compressed(&bytes), None);
    }

    #[test]
    fn compression_rejects_off_curve_x() {
        // x = 1: 1 + 4 = 5 — find whether 5 is a QR; if it decodes, the
        // point must still be rejected unless torsion free. Construct an
        // x with no valid y instead: iterate until decode fails.
        let mut bytes = [0u8; 48];
        bytes[0] = 0b1000_0000;
        let mut rejected = false;
        for last in 0..=255u8 {
            bytes[47] = last;
            if G1Affine::from_compressed(&bytes).is_none() {
                rejected = true;
                break;
            }
        }
        assert!(rejected, "some x must fail to decode");
    }

    #[test]
    fn ct_ladder_matches_wnaf() {
        let mut rng = mccls_rng::rngs::StdRng::seed_from_u64(0xC7);
        let g = G1Projective::generator();
        for _ in 0..8 {
            let k = Fr::random(&mut rng);
            assert_eq!(g.mul_scalar_ct(&k), g.mul_scalar(&k));
        }
        // Edge cases: zero scalar, one, and the identity point.
        assert!(g.mul_scalar_ct(&Fr::zero()).is_identity());
        assert_eq!(g.mul_scalar_ct(&Fr::one()), g);
        let id = G1Projective::identity();
        assert!(id.mul_scalar_ct(&Fr::from_u64(42)).is_identity());
    }

    #[test]
    fn hash_to_g1_properties() {
        let a = hash_to_g1(b"alice", b"TEST");
        let b = hash_to_g1(b"bob", b"TEST");
        assert_ne!(a, b);
        assert!(a.to_affine().is_on_curve());
        assert!(a.is_torsion_free());
        assert!(b.is_torsion_free());
        assert_eq!(a, hash_to_g1(b"alice", b"TEST"));
        assert_ne!(a, hash_to_g1(b"alice", b"OTHER"));
    }
}
