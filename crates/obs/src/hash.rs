//! FNV-1a 64: the workspace's one content hash. Dependency-free and
//! stable across processes and platforms, so snapshot identities,
//! journal checksums, cache keys and tenant routing all agree on it. A
//! cryptographic hash would buy nothing: nothing hashed is adversarial.

/// The FNV-1a 64-bit offset basis: the hash of no bytes.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// 64-bit FNV-1a over a byte slice.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_extend(FNV_OFFSET, bytes)
}

/// Continues an FNV-1a hash over more bytes:
/// `fnv1a64_extend(fnv1a64(a), b) == fnv1a64(a ++ b)`.
pub fn fnv1a64_extend(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"hello"), 0xa430_d846_80aa_bd0b);
    }

    #[test]
    fn distinguishes_inputs() {
        assert_ne!(fnv1a64(b"model-a"), fnv1a64(b"model-b"));
        assert_eq!(fnv1a64(b"same"), fnv1a64(b"same"));
    }

    #[test]
    fn extending_equals_hashing_the_concatenation() {
        assert_eq!(fnv1a64_extend(fnv1a64(b"hel"), b"lo"), fnv1a64(b"hello"));
        assert_eq!(fnv1a64_extend(FNV_OFFSET, b""), fnv1a64(b""));
    }
}
