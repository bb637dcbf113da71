//! Run-stable hashing: FNV-1a 64.
//!
//! `std`'s default `RandomState` is seeded per process, so two runs of
//! the same workload hash the same key differently — fine for a private
//! `HashMap`, fatal for anything whose hash leaks into observable
//! behaviour (cache-key digests recorded in journals or bench JSON).
//! Everything that needs a *stable* hash routes through [`Fnv64`]; the
//! hash of a given byte stream is a pure function of that stream,
//! forever.

use std::hash::Hasher;

const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64-bit streaming hasher.
#[derive(Debug, Clone, Copy)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Self(OFFSET_BASIS)
    }
}

impl Fnv64 {
    /// A fresh hasher at the offset basis.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl Hasher for Fnv64 {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(PRIME);
        }
        self.0 = h;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    #[test]
    fn matches_reference_vectors() {
        // Canonical FNV-1a 64 test vectors over raw bytes.
        let mut h = Fnv64::new();
        h.write(b"");
        assert_eq!(h.finish(), 0xcbf2_9ce4_8422_2325);
        let mut h = Fnv64::new();
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv64::new();
        h.write(b"foobar");
        assert_eq!(h.finish(), 0x85944171f73967e8);
    }

    #[test]
    fn is_stable_and_input_sensitive() {
        fn digest<T: Hash + ?Sized>(value: &T) -> u64 {
            let mut h = Fnv64::new();
            value.hash(&mut h);
            h.finish()
        }
        assert_eq!(digest(&(1u32, 2u64)), digest(&(1u32, 2u64)));
        assert_ne!(digest(&(1u32, 2u64)), digest(&(2u32, 1u64)));
        assert_ne!(digest("ab"), digest("ba"));
    }
}
