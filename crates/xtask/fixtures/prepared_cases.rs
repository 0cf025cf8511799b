//! Seeded violations shaped like the prepared-pairing engine
//! (`crates/pairing/src/prepared.rs`): secret digit recoding and the
//! batch blinder. NOT compiled — parsed as text by the `clean_tree` gate
//! tests to prove the `ct` lint still fires on this idiom. Lines marked
//! CLEAN must never be flagged.

fn recode_secret_scalar(keys: &KeyPair) -> [i8; 65] {
    let k = keys.secret;
    let mut digits = [0i8; 65];
    let mut carry = 0i16;
    for (w, d) in digits.iter_mut().enumerate() {
        *d = (k.limb(w) as i16 + carry) as i8;
        if *d > 8 {
            // missed: `d` is bound by a `for` pattern, which carries no
            // taint (DESIGN.md §8.1)
            carry = 1;
        }
    }
    digits
}

fn blinded_batch_exponent(rng: &mut Rng) -> Fr {
    let z = Fr::random_nonzero(rng);
    while z.is_small() {
        // finding: loop condition on the random blinder
        break;
    }
    z
}

fn tolerated(table: &FixedBaseTable, rng: &mut Rng) -> G1 {
    let first = table.windows[0];
    let z = Fr::random_nonzero(rng);
    // ct-ok: the blinder is discarded after one multi-Miller-loop batch;
    // revealing whether a discarded candidate was rejected leaks nothing
    if z.is_small() {
        return first.entries[0]; // CLEAN: governed by the justified branch
    }
    first.entries[1]
}
