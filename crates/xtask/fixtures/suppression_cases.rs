//! Regression fixture for the suppression-reason policy. NOT compiled —
//! parsed as text by the gate tests.
//!
//! A suppression marker with an empty or whitespace-only reason must
//! NOT silence the lint: the whole point of the marker is the written
//! justification. The seeded site below carries a bare marker and must
//! still be reported; the CLEAN twin carries a real reason.

fn bare_ct_marker(keys: &KeyPair) -> Fr {
    let x = keys.secret.double();
    // ct-ok:
    if x.is_small() {
        // finding: empty reason does not suppress
        return Fr::one();
    }
    x
}

fn justified_twin(keys: &KeyPair) -> Fr {
    let x = keys.secret.double();
    // ct-ok: the discarded candidate leaks nothing about the kept key
    if x.is_small() {
        // CLEAN: justified
        return Fr::one();
    }
    x
}
