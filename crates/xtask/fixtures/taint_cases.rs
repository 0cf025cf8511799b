//! Seeded interprocedural taint violations. NOT compiled — parsed as
//! text by the gate tests to prove `taint::analyze` still catches a
//! secret that leaks across call boundaries.
//!
//! The dirty chain below is *invisible* to any one body's analysis:
//! every individual function is locally clean (no `.secret` text, no
//! taint source in the branching function), so only the call-graph
//! fixpoint can connect the master secret to the branch two hops away.
//! Functions marked CLEAN form the constant-time twin and must never be
//! flagged.

/// Hop 0: the secret enters through a declared-secret parameter type.
/// `exponent` is tainted because its initializer mentions `master`.
fn extract_share(master: &MasterSecret, id: &[u8]) -> Fr {
    let exponent = master.s.mul(&hash_to_fr(id));
    fold_exponent(&exponent)
}

/// Hop 1: an innocently named pass-through. Locally there is nothing
/// secret about `exponent: &Fr`.
fn fold_exponent(exponent: &Fr) -> Fr {
    reduce_window(exponent)
}

/// Hop 2: the leak. `window` arrived tainted through the chain
/// extract_share -> fold_exponent -> reduce_window, and this branch
/// makes the running time depend on it.
fn reduce_window(window: &Fr) -> Fr {
    if window.is_small() {
        // finding: branch on a two-hop-tainted parameter
        return Fr::one();
    }
    window.double()
}

/// CLEAN twin, hop 0: same secret entry, same shape.
fn extract_share_ct(master: &MasterSecret, id: &[u8]) -> Fr {
    let exponent = master.s.mul(&hash_to_fr(id));
    fold_exponent_ct(&exponent)
}

/// CLEAN twin, hop 1.
fn fold_exponent_ct(exponent: &Fr) -> Fr {
    reduce_window_ct(exponent)
}

/// CLEAN twin, hop 2: the fold is branch-free — a ct select instead of
/// an `if`, so the tainted value never steers control flow.
fn reduce_window_ct(window: &Fr) -> Fr {
    let folded = window.double();
    Fr::ct_select(&folded, &Fr::one(), window.is_small_ct())
}

/// CLEAN, by resolution: a bare call reaches only a free function. The
/// secret goes to the free `pad_ct` below, never to `Window::pad_ct`,
/// which shares the name and branches on its argument.
fn extract_padded_ct(master: &MasterSecret) -> Fr {
    let exponent = master.s.double();
    pad_ct(&exponent)
}

/// CLEAN: the free function the bare call above resolves to.
fn pad_ct(value: &Fr) -> Fr {
    value.double()
}

impl Window {
    /// CLEAN: it branches on its argument, but only a `Window::pad_ct`
    /// or `Self::pad_ct` path call can reach it, and none is made.
    fn pad_ct(value: &Fr) -> Fr {
        if value.is_small() {
            return Fr::one();
        }
        value.double()
    }
}
