//! Shared key material: system parameters, the Key Generation Center,
//! partial private keys, and user key pairs.
//!
//! All four schemes in this crate share the same key hierarchy
//! (Section 4 of the paper, adapted to the asymmetric pairing):
//!
//! * the KGC picks a master secret `s ∈ Z_r*` and publishes
//!   `P_pub = s·P ∈ G2`,
//! * an identity hashes to `Q_ID = H1(ID) ∈ G1`,
//! * the partial private key is `D_ID = s·Q_ID ∈ G1`,
//! * the user picks `x ∈ Z_r*` and publishes `P_ID = x·P_pub` (McCLS) or
//!   `x·P` (ZWXF/YHG) in G2 — plus, for AP, a second component in G1.

use std::sync::OnceLock;

use mccls_pairing::{
    g2_generator_table, g2_prepared_generator, Fr, G1Projective, G2Prepared, G2Projective,
};
use mccls_rng::RngCore;

use crate::ops;

/// Domain separation tag for `H1 : {0,1}* → G1` (identity hashing).
pub const DST_H1: &[u8] = b"MCCLS-V01-H1-ID";
/// Domain separation tag for `H2 : message material → Z_r`.
pub const DST_H2: &[u8] = b"MCCLS-V01-H2-MSG";
/// Domain separation tag for message-dependent G1 points (ZWXF).
pub const DST_HW: &[u8] = b"MCCLS-V01-HW-G1";

/// Public system parameters `(P, P_pub, H1, H2)`.
///
/// `P` is the fixed G2 generator and `G` the fixed G1 generator (the
/// asymmetric setting needs both); the hash functions are fixed by the
/// domain tags above.
#[derive(Debug, Clone)]
pub struct SystemParams {
    /// The KGC's public key `P_pub = s·P`.
    pub p_pub: G2Projective,
    /// Lazily-built Miller-loop line coefficients for `P_pub`, shared by
    /// every verify path that pairs against the fixed KGC key.
    prepared_p_pub: OnceLock<G2Prepared>,
}

impl SystemParams {
    /// Wraps a KGC public key as system parameters.
    pub fn new(p_pub: G2Projective) -> Self {
        Self {
            p_pub,
            prepared_p_pub: OnceLock::new(),
        }
    }

    /// The fixed G2 generator `P`.
    pub fn p(&self) -> G2Projective {
        G2Projective::generator()
    }

    /// The fixed G1 generator `G`.
    pub fn g(&self) -> G1Projective {
        G1Projective::generator()
    }

    /// `P_pub` with its Miller-loop line coefficients precomputed.
    ///
    /// Built on first use and cached for the lifetime of these params,
    /// so pairing against the KGC key skips all G2 group arithmetic.
    pub fn prepared_p_pub(&self) -> &G2Prepared {
        self.prepared_p_pub
            .get_or_init(|| G2Prepared::from_projective(&self.p_pub))
    }

    /// Hashes an identity onto G1 (`Q_ID = H1(ID)`).
    pub fn hash_identity(&self, id: &[u8]) -> G1Projective {
        ops::hash_to_g1(id, DST_H1)
    }
}

impl PartialEq for SystemParams {
    fn eq(&self, other: &Self) -> bool {
        // The prepared cache is derived from `p_pub`; identity of the
        // parameters is the KGC key alone.
        self.p_pub == other.p_pub
    }
}

impl Eq for SystemParams {}

/// The KGC master secret `s`.
///
/// Deliberately opaque: nothing outside this module reads the scalar,
/// mirroring the paper's requirement that only the KGC holds `s`.
pub struct MasterSecret {
    s: Fr,
}

impl core::fmt::Debug for MasterSecret {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str("MasterSecret(<redacted>)")
    }
}

impl Drop for MasterSecret {
    fn drop(&mut self) {
        self.s.zeroize();
    }
}

/// The Key Generation Center: runs `Setup` and
/// `Extract-Partial-Private-Key`.
pub struct Kgc {
    params: SystemParams,
    master: MasterSecret,
}

impl core::fmt::Debug for Kgc {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Kgc")
            .field("params", &self.params)
            .field("master", &self.master)
            .finish()
    }
}

impl Kgc {
    /// `Setup`: samples the master secret and publishes
    /// `P_pub = s·P`.
    pub fn setup(rng: &mut (impl RngCore + ?Sized)) -> Self {
        let s = Fr::random_nonzero(rng);
        // The master secret drives this multiplication: the ct comb over
        // the generator's table.
        let p_pub = ops::mul_g2_fixed(g2_generator_table(), &s);
        Self {
            params: SystemParams::new(p_pub),
            master: MasterSecret { s },
        }
    }

    /// Test-only deterministic setup from a fixed master secret.
    pub fn from_master_secret(s: Fr) -> Self {
        let p_pub = G2Projective::generator().mul_scalar(&s);
        Self {
            params: SystemParams::new(p_pub),
            master: MasterSecret { s },
        }
    }

    /// The public system parameters.
    pub fn params(&self) -> &SystemParams {
        &self.params
    }

    /// `Extract-Partial-Private-Key`: `D_ID = s·H1(ID)`.
    pub fn extract_partial_private_key(&self, id: &[u8]) -> PartialPrivateKey {
        let q_id = self.params.hash_identity(id);
        PartialPrivateKey {
            d: ops::mul_g1_ct(&q_id, &self.master.s),
        }
    }

    /// Exposes the master secret for Type II adversary experiments
    /// (a malicious-but-passive KGC knows `s` by definition).
    pub fn master_secret_for_type2_games(&self) -> Fr {
        self.master.s
    }
}

/// The identity-bound half of a private key, `D_ID = s·Q_ID ∈ G1`.
pub struct PartialPrivateKey {
    /// The point `D_ID`.
    pub d: G1Projective,
}

impl core::fmt::Debug for PartialPrivateKey {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str("PartialPrivateKey(<redacted>)")
    }
}

impl Drop for PartialPrivateKey {
    fn drop(&mut self) {
        self.d.zeroize();
    }
}

impl PartialPrivateKey {
    /// Verifies the KGC's extraction against the public parameters:
    /// `e(D_ID, P) = e(Q_ID, P_pub)`.
    ///
    /// The paper assumes the KGC is honest here; real deployments check.
    pub fn validate(&self, params: &SystemParams, id: &[u8]) -> bool {
        let q_id = params.hash_identity(id);
        let d = self.d.to_affine();
        let q_neg = q_id.neg().to_affine();
        // ct-ok: one-shot extraction check at key issuance; the pairing
        // admits no repeated timing measurement of D_ID
        ops::pairing_product_prepared(&[
            (&d, g2_prepared_generator()),
            (&q_neg, params.prepared_p_pub()),
        ])
        .is_identity()
    }
}

/// A user's public key.
///
/// `primary` is the G2 component every scheme publishes; `secondary` is
/// the extra G1 component only the AP scheme carries (its "2 points"
/// row in Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UserPublicKey {
    /// The G2 component (`P_ID`).
    pub primary: G2Projective,
    /// AP's extra G1 component (`X_A = x·G`).
    pub secondary: Option<G1Projective>,
}

impl UserPublicKey {
    /// True when any component is the group identity. Pairings against
    /// the identity are constant, so verifiers must reject such keys —
    /// accepting one is the cheapest key-replacement attack.
    pub fn has_identity_component(&self) -> bool {
        self.primary.is_identity() || self.secondary.is_some_and(|s| s.is_identity())
    }

    /// Encoded size in bytes (compressed points), reported by the
    /// Table 1 harness.
    pub fn encoded_len(&self) -> usize {
        96 + if self.secondary.is_some() { 48 } else { 0 }
    }

    /// Number of group elements ("points" in Table 1).
    pub fn num_points(&self) -> usize {
        1 + usize::from(self.secondary.is_some())
    }

    /// Canonical bytes for hashing into signatures.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = self.primary.to_affine().to_compressed().to_vec();
        if let Some(sec) = &self.secondary {
            out.extend_from_slice(&sec.to_affine().to_compressed());
        }
        out
    }
}

/// A user's full key pair (secret value + public key).
///
/// Any signature carries `S = x⁻¹·D_ID`, so `x` alone gives the whole
/// signing key `D_ID = x·S`: it is key material like `D_ID` itself.
pub struct UserKeyPair {
    /// The secret value `x ∈ Z_r*` (`S_ID` in the paper's notation).
    pub secret: Fr,
    /// The published public key.
    pub public: UserPublicKey,
}

impl core::fmt::Debug for UserKeyPair {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("UserKeyPair")
            .field("secret", &format_args!("<redacted>"))
            .field("public", &self.public)
            .finish()
    }
}

impl Drop for UserKeyPair {
    fn drop(&mut self) {
        self.secret.zeroize();
    }
}

// No key type is `Clone`, so no copy of a key escapes its zeroizing
// `Drop`, and a derived `Clone` or `Copy` on any struct that holds one
// fails to build (E0277). The ambiguity idiom of `static_assertions`'
// `assert_not_impl_any!`: for a `Clone` type both impls below apply, and
// the `_` cannot be inferred (E0283).
const _: fn() = || {
    trait AmbiguousIfClone<A> {
        fn some_item() {}
    }
    impl<T> AmbiguousIfClone<()> for T {}
    struct IsClone;
    impl<T: Clone> AmbiguousIfClone<IsClone> for T {}
    let _ = <MasterSecret as AmbiguousIfClone<_>>::some_item;
    let _ = <PartialPrivateKey as AmbiguousIfClone<_>>::some_item;
    let _ = <UserKeyPair as AmbiguousIfClone<_>>::some_item;
};

/// Derives a `Z_r` scalar from signature material
/// (the paper's `H2(M, R, P_ID)` pattern).
pub fn h2_scalar(parts: &[&[u8]]) -> Fr {
    let mut buf = Vec::new();
    for p in parts {
        buf.extend_from_slice(&(p.len() as u64).to_be_bytes());
        buf.extend_from_slice(p);
    }
    Fr::hash_from_bytes(&buf, DST_H2)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // tests may panic freely
mod tests {
    use super::*;
    use crate::CertificatelessScheme;
    use mccls_rng::SeedableRng;

    #[test]
    fn setup_publishes_s_times_p() {
        let kgc = Kgc::from_master_secret(Fr::from_u64(7));
        assert_eq!(
            kgc.params().p_pub,
            G2Projective::generator().mul_scalar(&Fr::from_u64(7))
        );
    }

    #[test]
    fn partial_key_validates_against_params() {
        let mut rng = mccls_rng::rngs::StdRng::seed_from_u64(40);
        let kgc = Kgc::setup(&mut rng);
        let ppk = kgc.extract_partial_private_key(b"alice");
        assert!(ppk.validate(kgc.params(), b"alice"));
        assert!(!ppk.validate(kgc.params(), b"bob"));
    }

    #[test]
    fn partial_key_from_wrong_kgc_fails_validation() {
        let mut rng = mccls_rng::rngs::StdRng::seed_from_u64(41);
        let kgc1 = Kgc::setup(&mut rng);
        let kgc2 = Kgc::setup(&mut rng);
        let ppk = kgc2.extract_partial_private_key(b"alice");
        assert!(!ppk.validate(kgc1.params(), b"alice"));
    }

    #[test]
    fn h2_scalar_is_injective_on_framing() {
        // Length-prefix framing: ("ab", "c") != ("a", "bc").
        let a = h2_scalar(&[b"ab", b"c"]);
        let b = h2_scalar(&[b"a", b"bc"]);
        assert_ne!(a, b);
        assert_eq!(a, h2_scalar(&[b"ab", b"c"]));
    }

    #[test]
    fn key_material_prints_redacted_and_wipes_on_drop() {
        let mut rng = mccls_rng::rngs::StdRng::seed_from_u64(42);
        let kgc = Kgc::setup(&mut rng);
        let ppk = kgc.extract_partial_private_key(b"alice");
        let keys = crate::McCls::new().generate_key_pair(kgc.params(), &mut rng);
        assert_eq!(format!("{:?}", kgc.master), "MasterSecret(<redacted>)");
        let secrets = [
            format!("{:?}", kgc.master_secret_for_type2_games()),
            format!("{:?}", ppk.d),
            format!("{:?}", keys.secret),
        ];
        for printed in [
            format!("{:?}", kgc.master),
            format!("{kgc:?}"),
            format!("{ppk:?}"),
            format!("{keys:?}"),
        ] {
            assert!(printed.contains("<redacted>"), "{printed}");
            for secret in &secrets {
                assert!(!printed.contains(secret.as_str()), "{printed}");
            }
        }
        // Each key type has a `Drop` of its own: none of its fields needs one.
        assert!(std::mem::needs_drop::<MasterSecret>());
        assert!(std::mem::needs_drop::<PartialPrivateKey>());
        assert!(std::mem::needs_drop::<UserKeyPair>());
        assert!(!std::mem::needs_drop::<Fr>());
        assert!(!std::mem::needs_drop::<G1Projective>());
        assert!(!std::mem::needs_drop::<UserPublicKey>());
    }

    #[test]
    fn public_key_sizes() {
        let pk1 = UserPublicKey {
            primary: G2Projective::generator(),
            secondary: None,
        };
        assert_eq!(pk1.encoded_len(), 96);
        assert_eq!(pk1.num_points(), 1);
        let pk2 = UserPublicKey {
            primary: G2Projective::generator(),
            secondary: Some(G1Projective::generator()),
        };
        assert_eq!(pk2.encoded_len(), 144);
        assert_eq!(pk2.num_points(), 2);
        assert_eq!(pk2.to_bytes().len(), 144);
    }
}
