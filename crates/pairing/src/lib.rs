//! A from-scratch implementation of the BLS12-381 pairing-friendly curve.
//!
//! The McCLS paper builds on a bilinear map `e : G1 × G1 → G2` over a Gap
//! Diffie-Hellman group. Following modern convention this crate provides
//! the asymmetric form `e : G1 × G2 → GT` on BLS12-381 (the paper's
//! symmetric-pairing notation maps onto it directly: identities hash into
//! G1, the second pairing argument carries the fixed system elements in
//! G2).
//!
//! Everything is implemented in this workspace: Montgomery-form prime
//! fields whose constants are derived at compile time from the modulus,
//! the `Fp2/Fp6/Fp12` tower, Jacobian group arithmetic for G1/G2, XMD
//! hash-to-curve, and the optimal ate pairing (a Miller loop over
//! inversion-free lines from Jacobian coordinates, plus a final
//! exponentiation whose hard part is the exact chain in the BLS
//! parameter `u`).
//!
//! # Examples
//!
//! Bilinearity in action:
//!
//! ```
//! use mccls_pairing::{pairing, Fr, G1Projective, G2Projective};
//! use mccls_rng::SeedableRng;
//!
//! let mut rng = mccls_rng::rngs::StdRng::seed_from_u64(1);
//! let a = Fr::random(&mut rng);
//! let b = Fr::random(&mut rng);
//! let p = G1Projective::generator() * a;
//! let q = G2Projective::generator() * b;
//! let lhs = pairing(&p.to_affine(), &q.to_affine());
//! let rhs = pairing(&G1Projective::generator().to_affine(),
//!                   &G2Projective::generator().to_affine())
//!     .pow(&a)
//!     .pow(&b);
//! assert_eq!(lhs, rhs);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arith;
pub mod ct;
mod curve;
mod field;
mod fp;
mod fp12;
mod fp2;
mod fp6;
mod fr;
mod g1;
mod g2;
mod pairing_impl;
mod prepared;

pub use curve::{AffinePoint, Curve, ProjectivePoint};
pub use field::Field;
pub use fp::Fp;
pub use fp12::Fp12;
pub use fp2::Fp2;
pub use fp6::Fp6;
pub use fr::Fr;
pub use g1::{hash_to_g1, G1Affine, G1Params, G1Projective};
pub use g2::{G2Affine, G2Params, G2Projective};
pub use pairing_impl::{final_exponentiation, pairing, pairing_product, Gt};
pub use prepared::{
    g1_generator_table, g2_generator_table, g2_prepared_generator, multi_miller_loop,
    FixedBaseTable, G1Table, G2Prepared, G2Table, MillerLoopResult,
};
