//! The routing-authentication layer: who can produce signatures that
//! honest nodes accept.
//!
//! Two interchangeable providers implement [`AuthProvider`]:
//!
//! * [`RealAuthProvider`] — actually runs McCLS from `mccls-core`,
//!   verifying through its single-threaded [`Verifier`] (one simulator
//!   run is one thread). Legitimate nodes get KGC-issued
//!   partial private keys; attacker nodes are *outsiders* that fabricate
//!   their partial keys, so every signature they produce fails
//!   verification. This is the ground-truth implementation.
//! * [`ModelAuthProvider`] — the fast, behaviour-equivalent model used
//!   for the large figure sweeps: a proof carries the bytes that were
//!   signed plus a legitimacy bit, and verification checks exactly what
//!   a signature would (payload unmodified ∧ signer credentialed) by
//!   comparing those bytes with the payload. Its equivalence to the
//!   real provider is asserted by tests.
//!
//! Both proofs sit behind an [`Arc`]: every copy of a broadcast frame
//! (one queued event per neighbour) shares one signature or one payload,
//! and a queued event stays small.
//!
//! Crypto *time* is independent of the provider: [`CryptoCost`] carries
//! the virtual-time price of one sign and one verify. This crate keeps
//! no crypto time of its own. A scenario's default is
//! [`CryptoCost::FREE`]; the figure binaries in `mccls-bench` charge the
//! McCLS sign and warm-verify medians that `table1` commits to
//! `BENCH_table1.json`.

use std::collections::BTreeSet;
use std::sync::Arc;

use mccls_core::{
    CertificatelessScheme, McCls, PartialPrivateKey, Signature, SystemParams, UserKeyPair,
    UserPublicKey, Verifier,
};
use mccls_pairing::{Fr, G1Projective};
use mccls_rng::rngs::StdRng;
use mccls_rng::SeedableRng;
use mccls_sim::SimDuration;

use crate::types::NodeId;

/// Virtual-time cost of signing and verifying one routing packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CryptoCost {
    /// Time to produce one signature.
    pub sign: SimDuration,
    /// Time to verify one signature.
    pub verify: SimDuration,
}

impl CryptoCost {
    /// No crypto cost: plain AODV's, and every scenario's default.
    pub const FREE: CryptoCost = CryptoCost {
        sign: SimDuration::ZERO,
        verify: SimDuration::ZERO,
    };
}

/// The per-hop cost the figures charged before they read the committed
/// Table 1 medians: 1.2 ms sign, 9 ms verify. Tests whose assertions
/// were tuned under it pass it explicitly.
#[cfg(test)]
pub(crate) const LEGACY_COST: CryptoCost = CryptoCost {
    sign: SimDuration::from_micros(1_200),
    verify: SimDuration::from_micros(9_000),
};

/// An authentication tag attached to a routing packet.
#[derive(Debug, Clone, PartialEq)]
pub struct Auth {
    /// Claimed signer.
    pub signer: NodeId,
    /// The proof itself.
    pub proof: AuthProof,
}

impl Auth {
    /// Extra bytes the tag adds to the frame (signature + the signer's
    /// public key piggybacked for first contact).
    pub fn overhead_bytes(&self) -> usize {
        match &self.proof {
            // McCLS wire signature (177 B) + compressed public key (96 B).
            AuthProof::Real(sig) => sig.encoded_len() + 96,
            AuthProof::Model { .. } => 177 + 96,
        }
    }
}

/// The proof inside an [`Auth`] tag.
#[derive(Debug, Clone, PartialEq)]
pub enum AuthProof {
    /// A real certificateless signature.
    Real(Arc<Signature>),
    /// The modeled equivalent: the signed payload and whether the
    /// signer held KGC credentials when signing.
    Model {
        /// The bytes that were signed.
        signed: Arc<[u8]>,
        /// Whether the signer was credentialed.
        legitimate: bool,
    },
}

/// Signs and verifies routing packets on behalf of nodes.
pub trait AuthProvider: Send {
    /// Produces an authentication tag for `payload` as `node`.
    ///
    /// Attacker nodes still "sign" — with fabricated credentials — so
    /// their packets are well-formed but fail verification.
    fn sign(&mut self, node: NodeId, payload: &[u8]) -> Auth;

    /// Verifies a tag over `payload`.
    fn verify(&mut self, payload: &[u8], auth: &Auth) -> bool;
}

/// The behaviour-equivalent fast provider.
#[derive(Debug)]
pub struct ModelAuthProvider {
    credentialed: BTreeSet<NodeId>,
}

impl ModelAuthProvider {
    /// Creates a provider where every node in `legitimate` holds
    /// KGC-issued credentials and everyone else is an outsider.
    pub fn new(legitimate: impl IntoIterator<Item = NodeId>) -> Self {
        Self {
            credentialed: legitimate.into_iter().collect(),
        }
    }
}

impl AuthProvider for ModelAuthProvider {
    fn sign(&mut self, node: NodeId, payload: &[u8]) -> Auth {
        Auth {
            signer: node,
            proof: AuthProof::Model {
                signed: Arc::from(payload),
                legitimate: self.credentialed.contains(&node),
            },
        }
    }

    fn verify(&mut self, payload: &[u8], auth: &Auth) -> bool {
        match &auth.proof {
            AuthProof::Model { signed, legitimate } => *legitimate && **signed == *payload,
            AuthProof::Real(_) => false,
        }
    }
}

/// Per-node key material in the real provider.
struct NodeKeys {
    partial: PartialPrivateKey,
    keys: UserKeyPair,
}

/// The ground-truth provider: real McCLS signatures over real BLS12-381,
/// verified through a [`Verifier`].
pub struct RealAuthProvider {
    scheme: McCls,
    node_keys: Vec<NodeKeys>,
    /// Public key directory (what nodes would learn from piggybacked
    /// keys).
    directory: Vec<UserPublicKey>,
    /// The stateful verify side: prepared `P_pub` lines plus the
    /// per-peer `e(Q_ID, P_pub)` cache, registered lazily on first
    /// contact via [`Verifier::verify_with_key`].
    verifier: Verifier,
    rng: StdRng,
}

impl RealAuthProvider {
    /// Sets up a KGC, enrolls `num_nodes` nodes, and fabricates
    /// credentials for the nodes in `attackers` (outsiders who never
    /// contact the KGC).
    pub fn new(num_nodes: usize, attackers: &BTreeSet<NodeId>, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let scheme = McCls::new();
        let (params, kgc) = scheme.setup(&mut rng);
        let mut node_keys = Vec::with_capacity(num_nodes);
        let mut directory = Vec::with_capacity(num_nodes);
        for i in 0..num_nodes {
            let node = NodeId(i as u16);
            let keys = scheme.generate_key_pair(&params, &mut rng);
            let partial = if attackers.contains(&node) {
                // Outsider: a made-up partial key, not s·Q_ID.
                PartialPrivateKey {
                    d: G1Projective::generator().mul_scalar(&Fr::random_nonzero(&mut rng)),
                }
            } else {
                kgc.extract_partial_private_key(&node.identity_bytes())
            };
            directory.push(keys.public);
            node_keys.push(NodeKeys { partial, keys });
        }
        Self {
            scheme,
            node_keys,
            directory,
            verifier: Verifier::new(params),
            rng,
        }
    }

    /// The public parameters (exposed for tests).
    pub fn params(&self) -> &SystemParams {
        self.verifier.params()
    }
}

impl AuthProvider for RealAuthProvider {
    fn sign(&mut self, node: NodeId, payload: &[u8]) -> Auth {
        let nk = &self.node_keys[node.index()];
        // complexity-ok: McCLS scheme signing (crates/core), constant per packet and outside the lint scope
        let sig = self.scheme.sign(
            self.verifier.params(),
            &node.identity_bytes(),
            &nk.partial,
            &nk.keys,
            payload,
            &mut self.rng,
        );
        Auth {
            signer: node,
            proof: AuthProof::Real(Arc::new(sig)),
        }
    }

    fn verify(&mut self, payload: &[u8], auth: &Auth) -> bool {
        let AuthProof::Real(sig) = &auth.proof else {
            return false;
        };
        let Some(public) = self.directory.get(auth.signer.index()) else {
            return false;
        };
        // The routing layer only needs accept/reject; the structured
        // `VerifyError` stays available here for a future
        // intrusion-detection hook that wants to tell tampering apart
        // from unknown peers.
        self.verifier
            .verify_with_key(&auth.signer.identity_bytes(), public, payload, sig)
            .is_ok()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // tests may panic freely
mod tests {
    use super::*;

    fn attackers(ids: &[u16]) -> BTreeSet<NodeId> {
        ids.iter().map(|&i| NodeId(i)).collect()
    }

    #[test]
    fn model_provider_accepts_legitimate_untampered() {
        let mut p = ModelAuthProvider::new((0..5).map(NodeId));
        let auth = p.sign(NodeId(2), b"payload");
        assert!(p.verify(b"payload", &auth));
    }

    #[test]
    fn model_provider_rejects_tampering_and_outsiders() {
        let mut p = ModelAuthProvider::new((0..5).map(NodeId));
        let auth = p.sign(NodeId(2), b"payload");
        assert!(!p.verify(b"payload!", &auth), "tampered payload");
        let outsider = p.sign(NodeId(9), b"payload");
        assert!(!p.verify(b"payload", &outsider), "outsider signature");
    }

    #[test]
    fn model_check_is_exact() {
        // 17 and 24 bytes are an RREP's and an RREQ's payload; 64 is
        // what perfbench's layer probe signs.
        let mut p = ModelAuthProvider::new([NodeId(0)]);
        for len in [0usize, 17, 24, 64, 300] {
            let payload: Vec<u8> = (0..len).map(|i| (i * 37 + 11) as u8).collect();
            let auth = p.sign(NodeId(0), &payload);
            assert!(p.verify(&payload, &auth), "{len}-byte payload rejected");
            for i in 0..len {
                for bit in 0..8 {
                    let mut flipped = payload.clone();
                    flipped[i] ^= 1 << bit;
                    assert!(
                        !p.verify(&flipped, &auth),
                        "{len} bytes, byte {i} bit {bit}"
                    );
                }
            }
            if let Some((_, shorter)) = payload.split_last() {
                assert!(!p.verify(shorter, &auth), "{len} bytes, last dropped");
            }
            let mut longer = payload.clone();
            longer.push(0);
            assert!(!p.verify(&longer, &auth), "{len} bytes, one appended");
        }
    }

    #[test]
    fn real_provider_accepts_legitimate_untampered() {
        let mut p = RealAuthProvider::new(4, &attackers(&[3]), 7);
        let auth = p.sign(NodeId(1), b"RREQ|fields");
        assert!(p.verify(b"RREQ|fields", &auth));
    }

    #[test]
    fn real_provider_rejects_tampering() {
        let mut p = RealAuthProvider::new(4, &attackers(&[3]), 8);
        let auth = p.sign(NodeId(1), b"RREQ|fields");
        assert!(!p.verify(b"RREQ|fields-altered", &auth));
    }

    #[test]
    fn real_provider_rejects_outsider_attacker() {
        let mut p = RealAuthProvider::new(4, &attackers(&[3]), 9);
        let auth = p.sign(NodeId(3), b"forged RREP");
        assert!(!p.verify(b"forged RREP", &auth));
    }

    #[test]
    fn real_provider_rejects_signer_spoofing() {
        // An attacker relabeling its signature with an honest signer id
        // still fails: the signature does not verify under the honest
        // node's identity/public key.
        let mut p = RealAuthProvider::new(4, &attackers(&[3]), 10);
        let mut auth = p.sign(NodeId(3), b"payload");
        auth.signer = NodeId(1);
        assert!(!p.verify(b"payload", &auth));
    }

    #[test]
    fn providers_agree_on_all_cases() {
        // The model provider must accept/reject exactly when the real
        // one does, case by case.
        let atk = attackers(&[3]);
        let mut real = RealAuthProvider::new(4, &atk, 11);
        let mut model = ModelAuthProvider::new((0..4).map(NodeId).filter(|n| !atk.contains(n)));
        let long: Vec<u8> = (0..64).collect();
        let mut long_tampered = long.clone();
        long_tampered[63] ^= 1;
        for (signer, payload, verify_payload) in [
            (NodeId(0), b"aa".as_slice(), b"aa".as_slice()), // honest, clean
            (NodeId(0), b"aa", b"ab"),                       // honest, tampered
            (NodeId(3), b"aa", b"aa"),                       // attacker, clean
            (NodeId(3), b"aa", b"ab"),                       // attacker, tampered
            (NodeId(0), &long, &long),                       // honest, 64 bytes
            (NodeId(0), &long, &long_tampered),              // last byte flipped
            (NodeId(3), &long, &long),                       // attacker, 64 bytes
        ] {
            let ra = real.sign(signer, payload);
            let ma = model.sign(signer, payload);
            assert_eq!(
                real.verify(verify_payload, &ra),
                model.verify(verify_payload, &ma),
                "divergence for signer {signer}, payload {payload:?} vs {verify_payload:?}"
            );
        }
    }

    #[test]
    fn auth_overhead_matches_wire_sizes() {
        let mut p = ModelAuthProvider::new([NodeId(0)]);
        let auth = p.sign(NodeId(0), b"x");
        assert_eq!(auth.overhead_bytes(), 177 + 96);
    }
}
