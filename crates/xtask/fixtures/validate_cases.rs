//! Seeded violations for the validation-state pass.
//!
//! Not compiled — parsed by `validate::analyze` in the gate tests. The
//! dirty chain (`admit_peer -> session_pairing -> pair`) is locally
//! clean in every function: only the call-graph fixpoint can connect
//! the unchecked decode to the pairing two hops away. The `_checked`
//! and `_trusted` twins must stay silent, and the bare marker in
//! `admit_sloppy` must itself be reported.

/// The unchecked decoder: raw bytes straight into a group type with no
/// curve or subgroup test.
fn decode_peer_key(bytes: &[u8; 96]) -> G2Affine {
    let x = Fp2::from_be_bytes_unreduced(bytes);
    G2Affine::from_x_unchecked(x)
}

/// Locally clean forwarding: the decoded key only reaches a pairing
/// inside the callee, so flagging this chain requires interprocedural
/// propagation.
fn admit_peer(bytes: &[u8; 96]) -> Gt {
    let key = decode_peer_key(bytes);
    session_pairing(&key)
}

fn session_pairing(key: &G2Affine) -> Gt {
    pair(&generator(), key)
}

/// Sanitized twin: same shape, but the subgroup check clears the value
/// before the sink. Must not be flagged.
fn admit_peer_checked(bytes: &[u8; 96]) -> Option<Gt> {
    let key = decode_peer_key(bytes);
    if !key.is_torsion_free() {
        return None;
    }
    Some(pair(&generator(), key))
}

/// Declassified twin: a reviewed marker with a written reason. Must not
/// be flagged.
fn admit_trusted(bytes: &[u8; 96]) -> Gt {
    // validated: bytes come from the local key store, which only ever
    // holds encodings produced by the checked from_compressed path
    let key = decode_peer_key(bytes);
    pair(&generator(), key)
}

/// Bare marker: gives no reason, so it suppresses nothing and is itself
/// a finding.
fn admit_sloppy(bytes: &[u8; 96]) -> Gt {
    // validated:
    let key = decode_peer_key(bytes);
    pair(&generator(), key)
}

/// Tuple-bound decode: the pattern binds the unchecked key, which
/// reaches the pairing.
fn admit_tuple(bytes: &[u8; 96]) -> Gt {
    let (key, _tag) = (decode_peer_key(bytes), 7u8);
    pair(&generator(), key)
}

/// Sanitized twin of the tuple shape. Must not be flagged.
fn admit_tuple_checked(bytes: &[u8; 96]) -> Option<Gt> {
    let (key, _tag) = (decode_peer_key(bytes), 7u8);
    if !key.is_torsion_free() {
        return None;
    }
    Some(pair(&generator(), key))
}

/// The first `let` inside an `if let` block: the decode reaches the
/// pairing.
fn admit_hinted(bytes: &[u8; 96], hint: Option<u8>) -> Option<Gt> {
    if let Some(_h) = hint {
        let key = decode_peer_key(bytes);
        return Some(pair(&generator(), key));
    }
    None
}

/// Sanitized twin of the `if let` shape. Must not be flagged.
fn admit_hinted_checked(bytes: &[u8; 96], hint: Option<u8>) -> Option<Gt> {
    if let Some(_h) = hint {
        let key = decode_peer_key(bytes);
        if key.is_torsion_free() {
            return Some(pair(&generator(), key));
        }
    }
    None
}
