//! Child spans for the traced run: a sample of each workload's requests
//! is replayed through the public functions of the layers below the
//! library call that served it — decode, H2, fixed- and variable-base
//! scalar multiplications, the pairing and its two halves, G2
//! preparation, the prepared Miller loop and the `Gt` exponentiation.
//!
//! A replay follows the scheme's published verification equation, not
//! the library's private code, so its verdict is compared with the
//! library's and the agreement is *reported*: a later change that
//! legitimately rewrites the equation shows up as disagreement in the
//! trace without failing the workload.

use mccls_core::{h2_scalar, PartialPrivateKey, ShardedVerifier, Signature, SystemParams};
use mccls_core::{UserKeyPair, UserPublicKey};
use mccls_pairing::{
    final_exponentiation, g2_generator_table, multi_miller_loop, pairing, Fr, G2Affine, G2Prepared,
    Gt,
};
use mccls_rng::RngCore;

use crate::trace::Tracer;

/// Domain prefix of the McCLS challenge `h = H2(M, R, P_ID)`.
const CHALLENGE_PREFIX: &[u8] = b"mccls";

fn challenge(msg: &[u8], r_bytes: &[u8], public: &UserPublicKey) -> Fr {
    let pk = public.to_bytes();
    h2_scalar(&[CHALLENGE_PREFIX, msg, r_bytes, &pk])
}

/// Replays a warm verification `e(S/h, V·P − h·R) = rhs` and returns
/// whether the replay's verdict agrees with `library_ok` (`None` for a
/// non-McCLS signature).
pub fn verify(
    tr: &mut Tracer,
    req: u64,
    msg: &[u8],
    public: &UserPublicKey,
    sig: &Signature,
    rhs: &Gt,
    library_ok: bool,
) -> Option<bool> {
    let Signature::McCls { v, s, r } = sig else {
        return None;
    };
    let r_bytes = r.to_affine().to_compressed();
    let decoded = tr.time("g2.decode", None, req, || {
        G2Affine::from_compressed(&r_bytes)
    });
    let root = tr.open("replay.verify", None, req);
    let p = Some(root);
    let h = tr.time("hash.h2", p, req, || challenge(msg, &r_bytes, public));
    let Some(h_inv) = h.invert() else {
        tr.close(root);
        return Some(!library_ok);
    };
    let vp = tr.time("prepared.g2_fixed", p, req, || g2_generator_table().mul(v));
    let hr = tr.time("curve.g2_mul", p, req, || r.mul_scalar(&h));
    let s_over_h = tr.time("curve.g1_mul", p, req, || s.mul_scalar(&h_inv));
    let lhs = vp.sub(&hr);
    let (sa, la) = (s_over_h.to_affine(), lhs.to_affine());
    let e = tr.time("pairing.unprepared", p, req, || pairing(&sa, &la));
    tr.close(root);
    // The same pairing once more, split into its halves.
    let split = tr.open("replay.split", None, req);
    let prep = tr.time("prepared.g2_prepare", Some(split), req, || {
        G2Prepared::from_projective(&lhs)
    });
    let ml = tr.time("prepared.miller", Some(split), req, || {
        multi_miller_loop(&[(&sa, &prep)])
    });
    let fe = tr.time("pairing.final_exp", Some(split), req, || {
        final_exponentiation(ml.as_fp12())
    });
    tr.close(split);
    Some(decoded.is_some() && fe == e && (e == *rhs) == library_ok)
}

/// Replays a first-contact registration on a scratch registry of the
/// same shape, then its parts: H1, the prepared Miller loop against
/// `P_pub` and the final exponentiation.
pub fn register(
    tr: &mut Tracer,
    req: u64,
    params: &SystemParams,
    scratch: &ShardedVerifier,
    id: &[u8],
    public: &UserPublicKey,
) -> bool {
    let ok = tr.time("registry.register", None, req, || {
        scratch.register_peer(id, *public)
    });
    let root = tr.open("replay.register", None, req);
    let q = tr.time("g1.hash_to_g1", Some(root), req, || {
        params.hash_identity(id)
    });
    let qa = q.to_affine();
    let ml = tr.time("prepared.miller", Some(root), req, || {
        multi_miller_loop(&[(&qa, params.prepared_p_pub())])
    });
    tr.time("pairing.final_exp", Some(root), req, || {
        final_exponentiation(ml.as_fp12())
    });
    tr.close(root);
    ok.is_ok()
}

/// Replays the parts of `McCls::sign`: `S = x⁻¹·D_ID` and
/// `R = (r − x)·P` on the constant-time ladders, then the challenge.
pub fn sign(
    tr: &mut Tracer,
    req: u64,
    params: &SystemParams,
    partial: &PartialPrivateKey,
    keys: &UserKeyPair,
    msg: &[u8],
    rng: &mut dyn RngCore,
) {
    let root = tr.open("replay.sign", None, req);
    let p = Some(root);
    let x_inv = keys.secret.invert_ct();
    tr.time("curve.g1_mul_ct", p, req, || {
        partial.d.mul_scalar_ct(&x_inv)
    });
    let k = Fr::random_nonzero(rng).sub(&keys.secret);
    let big_r = tr.time("curve.g2_mul_ct", p, req, || params.p().mul_scalar_ct(&k));
    let r_bytes = big_r.to_affine().to_compressed();
    tr.time("hash.h2", p, req, || challenge(msg, &r_bytes, &keys.public));
    tr.close(root);
}

/// Replays one warm batch frame — its blinded Miller factor
/// `ML(z·S/h, V·P − h·R)` and target `rhs^z` — and returns whether the
/// factor's final exponentiation matches the target exactly when the
/// frame is honest (`None` for a non-McCLS signature).
#[allow(clippy::too_many_arguments)]
pub fn frame(
    tr: &mut Tracer,
    parent: Option<u32>,
    req: u64,
    msg: &[u8],
    public: &UserPublicKey,
    sig: &Signature,
    rhs: &Gt,
    honest: bool,
    rng: &mut dyn RngCore,
) -> Option<bool> {
    let Signature::McCls { v, s, r } = sig else {
        return None;
    };
    let root = tr.open("replay.frame", parent, req);
    let p = Some(root);
    let r_bytes = r.to_affine().to_compressed();
    let h = tr.time("hash.h2", p, req, || challenge(msg, &r_bytes, public));
    let Some(h_inv) = h.invert() else {
        tr.close(root);
        return Some(!honest);
    };
    let z = Fr::from_u64(rng.next_u64() | 1);
    let scaled = h_inv.mul(&z);
    let sz = tr.time("curve.g1_mul", p, req, || s.mul_scalar(&scaled));
    let vp = tr.time("prepared.g2_fixed", p, req, || g2_generator_table().mul(v));
    let hr = tr.time("curve.g2_mul", p, req, || r.mul_scalar(&h));
    let lhs = vp.sub(&hr);
    let prep = tr.time("prepared.g2_prepare", p, req, || {
        G2Prepared::from_projective(&lhs)
    });
    let sza = sz.to_affine();
    let ml = tr.time("prepared.miller", p, req, || {
        multi_miller_loop(&[(&sza, &prep)])
    });
    let target = tr.time("gt.pow", p, req, || rhs.pow(&z));
    tr.close(root);
    let fe = tr.time("pairing.final_exp", parent, req, || {
        final_exponentiation(ml.as_fp12())
    });
    Some((fe == target) == honest)
}
