//! Seed violations for the asymptotic-complexity lint. Every class the
//! analysis certifies against appears once, each beside a clean twin
//! that must stay silent. This file is NOT compiled — it exists so the
//! fixture test can prove the lint still fires.

// The budgeted entry point is locally loop-free: the quadratic scan
// lives one call down, so an overrun finding proves classes composed
// bottom-up across call edges.
// complexity: neighbors
fn flood_rreq(all_nodes: &[u32]) -> u32 {
    scan_all_pairs(all_nodes)
}

// The node-quadratic helper a naive neighbor discovery would hide in.
fn scan_all_pairs(all_nodes: &[u32]) -> u32 {
    let mut acc = 0;
    for a in all_nodes {
        for b in all_nodes {
            acc += a ^ b;
        }
    }
    acc
}

// A contract that drifted: the comment promises `neighbors` but the
// body scans the whole node table.
// complexity: neighbors
fn drifted_walk(all_nodes: &[u32]) -> u32 {
    let mut acc = 0;
    for n in all_nodes {
        acc ^= n;
    }
    acc
}

// Mutual recursion has no static bound; the budget demands `const`, so
// the saturated class must be reported as unbounded.
// complexity: const
fn retry_send(budget_left: u32) -> u32 {
    if budget_left == 0 {
        0
    } else {
        retry_ack(budget_left - 1)
    }
}

fn retry_ack(x: u32) -> u32 {
    retry_send(x)
}

// A suppression with no written reason is itself a finding and does
// not downgrade the loop it decorates.
fn tally(xs: &[u32]) -> u32 {
    let mut acc = 0;
    // complexity-ok:
    for x in xs {
        acc += x;
    }
    acc
}

// Clean twin: exactly on budget, marker agrees, must stay silent.
// complexity: neighbors
fn relay_frame(neighbors: &[u32]) -> u32 {
    let mut acc = 0;
    for n in neighbors {
        acc ^= n;
    }
    acc
}

// Clean twin: the loop is justified away, so the `const` contract
// holds and nothing fires.
// complexity: const
fn checksum(xs: &[u32]) -> u32 {
    let mut acc = 0u32;
    // complexity-ok: fixed 8-word header checksum, length pinned by the wire format
    for x in xs {
        acc = acc.wrapping_add(*x);
    }
    acc
}
