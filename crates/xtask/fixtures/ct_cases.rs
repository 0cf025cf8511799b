//! Seeded violations for the constant-time lint. NOT compiled — parsed
//! as text by `ct_lint` unit tests. Lines marked CLEAN must never be
//! flagged.

fn direct_branch_on_rng_draw(rng: &mut Rng) -> Fr {
    let x = Fr::random(rng);
    if x.is_zero() {
        // finding is reported on the `if` line above
        return Fr::one();
    }
    x
}

fn propagated_taint(keys: &KeyPair, point: &G1) -> G1 {
    let inv = keys.secret.invert_ct();
    let derived = point.mul_scalar(&inv);
    while derived.is_identity() {
        // finding on the `while` line: `derived` carries the secret
        break;
    }
    derived
}

fn variable_time_inverse(keys: &KeyPair) -> Fr {
    let x = keys.secret;
    x.invert() // finding: variable-time invert on a secret
}

fn bare_marker(rng: &mut Rng) -> bool {
    let n = rng.next_u64();
    // ct-ok:
    n > 7 && n < 100 // finding: marker without a reason
}

fn public_control_flow(msg: &[u8]) -> bool {
    let digest = hash(msg); // CLEAN: hashes of public data are public
    if digest.is_empty() {
        return false; // CLEAN
    }
    digest.len() > 16 && msg.len() > 4 // CLEAN
}

fn justified(rng: &mut Rng) -> Fr {
    let candidate = Fr::random(rng);
    // ct-ok: rejection sampling reveals only that a discarded candidate
    // was zero, which happens with probability ~2^-255
    if candidate.is_zero() {
        return Fr::one(); // CLEAN: governed by the justified branch
    }
    candidate
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_branch_on_secrets() {
        let x = keys.secret;
        if x.is_zero() {
            panic!("CLEAN: test code is exempt");
        }
    }
}

/// Tuple-bound secret: every name of the pattern carries the draw.
fn tuple_bound_secret(rng: &mut Rng) -> Fr {
    let (x, tries) = (Fr::random(rng), 1u8);
    if x.is_zero() {
        // finding on the `if` line: the tuple pattern binds `x`
        return Fr::from(tries);
    }
    x
}

/// Clean twin: the tuple binds public data only.
fn tuple_bound_public(msg: &[u8]) -> bool {
    let (digest, floor) = (hash(msg), 16);
    digest.len() > floor && msg.len() > 4 // CLEAN: public lengths
}

/// The first `let` inside an `if let` block binds like any other.
fn first_let_in_if_let(keys: &KeyPair, hint: Option<u8>) -> bool {
    if let Some(h) = hint {
        let s = keys.secret;
        return s.is_zero() || h > 7; // finding: `||` on secret-carrying `s`
    }
    false
}

/// Clean twin: the same shape over public data.
fn first_let_in_if_let_public(msg: &[u8], hint: Option<u8>) -> bool {
    if let Some(h) = hint {
        let n = msg.len();
        return n > 4 || h > 7; // CLEAN: message lengths are public
    }
    false
}

impl G1 {
    /// Variable-time by contract, like the pairing frontends: the call
    /// graph resolves calls to it, so the sink rule applies to them.
    fn pair(&self, q: &G2) -> Gt {
        miller(self, q)
    }
}

/// A secret-carrying receiver handed to a variable-time call, its chain
/// split over lines the way rustfmt writes a long chain.
fn split_chain_sink(keys: &KeyPair, q: &G2) -> Gt {
    keys.partial
        .secret
        .to_point()
        .pair(q) // finding: the receiver chain reads `keys.partial.secret`
}
