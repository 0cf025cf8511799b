//! Cryptographic hash primitives for the McCLS reproduction.
//!
//! The paper models its hash functions `H1 : {0,1}* -> G1` and
//! `H2 : {0,1}* x G1 -> Z_p` as random oracles. This crate provides the
//! concrete instantiations everything else is built on, implemented from
//! scratch so the workspace has no external cryptographic dependencies:
//!
//! * [`Sha256`] — the FIPS 180-4 hash function,
//! * [`expand_message`] — an XMD-style expander producing arbitrary-length
//!   uniform output with domain separation, used by the pairing crate's
//!   hash-to-field and hash-to-curve routines.
//!
//! # Examples
//!
//! ```
//! use mccls_hash::Sha256;
//!
//! let digest = Sha256::digest(b"abc");
//! assert_eq!(digest[0], 0xba);
//! ```

#![warn(missing_docs)]

mod sha256;

pub use sha256::Sha256;

/// Expands `msg` to `out_len` uniformly pseudo-random bytes with the domain
/// separation tag `dst`, following the XMD construction of RFC 9380 §5.3.1
/// instantiated with SHA-256.
///
/// This is the random-oracle workhorse behind hash-to-field and
/// hash-to-curve in the pairing crate.
///
/// # Panics
///
/// Panics if `out_len` is zero or larger than `255 * 32` bytes, or if `dst`
/// is longer than 255 bytes — both limits are inherited from the XMD
/// construction.
///
/// # Examples
///
/// ```
/// let a = mccls_hash::expand_message(b"msg", b"MCCLS-TEST", 48);
/// let b = mccls_hash::expand_message(b"msg", b"MCCLS-TEST", 48);
/// let c = mccls_hash::expand_message(b"msg", b"OTHER-DST", 48);
/// assert_eq!(a, b);
/// assert_ne!(a, c);
/// ```
pub fn expand_message(msg: &[u8], dst: &[u8], out_len: usize) -> Vec<u8> {
    const B_IN_BYTES: usize = 32; // SHA-256 output
    const R_IN_BYTES: usize = 64; // SHA-256 block
    assert!(out_len > 0, "expand_message: zero output length");
    let ell = out_len.div_ceil(B_IN_BYTES);
    assert!(ell <= 255, "expand_message: output too long");
    assert!(dst.len() <= 255, "expand_message: DST too long");

    let mut dst_prime = dst.to_vec();
    dst_prime.push(dst.len() as u8);

    // b_0 = H(Z_pad || msg || l_i_b_str || 0 || DST_prime)
    let mut h = Sha256::new();
    h.update(&[0u8; R_IN_BYTES]);
    h.update(msg);
    h.update(&[(out_len >> 8) as u8, out_len as u8, 0u8]);
    h.update(&dst_prime);
    let b0 = h.finalize();

    // b_1 = H(b_0 || 1 || DST_prime)
    let mut h = Sha256::new();
    h.update(&b0);
    h.update(&[1u8]);
    h.update(&dst_prime);
    let mut bi = h.finalize();

    let mut out = Vec::with_capacity(ell * B_IN_BYTES);
    out.extend_from_slice(&bi);
    for i in 2..=ell {
        let mut xored = [0u8; B_IN_BYTES];
        for (j, x) in xored.iter_mut().enumerate() {
            *x = b0[j] ^ bi[j];
        }
        let mut h = Sha256::new();
        h.update(&xored);
        h.update(&[i as u8]);
        h.update(&dst_prime);
        bi = h.finalize();
        out.extend_from_slice(&bi);
    }
    out.truncate(out_len);
    out
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // tests may panic freely
mod tests {
    use super::*;

    #[test]
    fn expand_message_is_deterministic_and_length_exact() {
        for len in [1usize, 31, 32, 33, 48, 64, 96, 128, 255] {
            let out = expand_message(b"hello", b"DST", len);
            assert_eq!(out.len(), len);
            assert_eq!(out, expand_message(b"hello", b"DST", len));
        }
    }

    #[test]
    fn expand_message_separates_domains() {
        let a = expand_message(b"m", b"A", 64);
        let b = expand_message(b"m", b"B", 64);
        assert_ne!(a, b);
    }

    #[test]
    fn expand_message_separates_messages() {
        let a = expand_message(b"m1", b"A", 64);
        let b = expand_message(b"m2", b"A", 64);
        assert_ne!(a, b);
    }

    #[test]
    fn expand_message_prefix_differs_across_lengths() {
        // XMD mixes the requested length into b_0, so different lengths
        // give unrelated streams (not prefixes of each other).
        let a = expand_message(b"m", b"A", 32);
        let b = expand_message(b"m", b"A", 64);
        assert_ne!(a[..], b[..32]);
    }

    #[test]
    #[should_panic(expected = "zero output length")]
    fn expand_message_rejects_zero_len() {
        expand_message(b"m", b"A", 0);
    }
}
