//! Known-answer digests of the curve and pairing outputs.
//!
//! The other suites compare two paths of one build against each other;
//! this one compares the build against committed constants, so it is
//! the oracle across versions: a rewrite of the `Fp2/Fp6/Fp12` tower,
//! the Miller loop, the final exponentiation or the scalar-multiplication
//! ladders must leave both digests unchanged.
//!
//! From `StdRng::seed_from_u64(20080617)`, sixteen rounds each draw
//! scalars `a, b`, set `p = a·G1` and `q = b·G2`, and feed SHA-256 with
//! `p` and `q` compressed, `e(p, q)`, the `G2Prepared` wire form of `q`
//! and `e(p, q)^a`. The product of the sixteen pairings follows; that
//! digest is [`PAIRING_DIGEST`]. A constant-time G2 ladder output (the
//! signing path) is then fed as well, giving [`FULL_DIGEST`].

use mccls_hash::Sha256;
use mccls_pairing::{pairing, pairing_product, Fr, G1Projective, G2Prepared, G2Projective};
use mccls_rng::rngs::StdRng;
use mccls_rng::SeedableRng;

/// SHA-256 over the sixteen rounds and their `pairing_product`.
const PAIRING_DIGEST: &str = "bdcdf89dea70d3fb4aa21dc867b839fd6911260236d55dc61085b3aa449231b6";

/// [`PAIRING_DIGEST`]'s input followed by one `mul_scalar_ct` output.
const FULL_DIGEST: &str = "72871329e56d70258a9664d1621ad79851c8ceca437094b625383d0c46774246";

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn seeded_curve_and_pairing_outputs_match_the_committed_digests() {
    let mut rng = StdRng::seed_from_u64(20080617);
    let mut hasher = Sha256::new();
    let mut pairs = Vec::new();
    for _ in 0..16 {
        let a = Fr::random(&mut rng);
        let b = Fr::random(&mut rng);
        let p = (G1Projective::generator() * a).to_affine();
        let q = (G2Projective::generator() * b).to_affine();
        let e = pairing(&p, &q);
        hasher.update(&p.to_compressed());
        hasher.update(&q.to_compressed());
        hasher.update(&e.to_bytes());
        hasher.update(&G2Prepared::from_affine(&q).to_bytes());
        hasher.update(&e.pow(&a).to_bytes());
        pairs.push((p, q));
    }
    hasher.update(&pairing_product(&pairs).to_bytes());
    assert_eq!(hex(&hasher.clone().finalize()), PAIRING_DIGEST);

    let k = Fr::random(&mut rng);
    let ladder = G2Projective::generator().mul_scalar_ct(&k).to_affine();
    hasher.update(&ladder.to_compressed());
    assert_eq!(hex(&hasher.finalize()), FULL_DIGEST);
}
