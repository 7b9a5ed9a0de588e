//! The one fast hasher for maps keyed by ids this program generates.
//!
//! Thread, monitor and core ids, heap locations and 64-bit state
//! fingerprints are all produced by the runtimes themselves, so
//! SipHash's resistance to crafted collisions buys nothing for them —
//! but its cost lands on hot paths: the governor's consult on every
//! contended enter, the telemetry collector's interval maps inside every
//! collection pass, the explorer's oracle on every logged write. Maps
//! keyed by anything read from outside the program keep the default
//! hasher.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiply-rotate hasher (the Fx construction): one rotate, xor and
/// multiply per word hashed.
#[derive(Clone, Copy, Debug, Default)]
pub struct FxHasher(u64);

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    // Enum discriminants hash as `isize`, which lands here.
    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

/// A `HashMap` using [`FxHasher`].
pub type FxMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// A `HashSet` using [`FxHasher`].
pub type FxSet<K> = HashSet<K, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash_of<T: Hash>(v: T) -> u64 {
        let mut h = FxHasher::default();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn word_writers_agree_with_the_byte_path() {
        // The typed fast paths must hash exactly what `write` would, so
        // swapping a key's integer width never reshuffles a map.
        let mut bytes = FxHasher::default();
        bytes.write(&0xdead_beef_u64.to_le_bytes());
        assert_eq!(hash_of(0xdead_beef_u64), bytes.finish());
        assert_eq!(hash_of(0xdead_beef_u32), bytes.finish());
        assert_eq!(hash_of(0xdead_beef_usize), bytes.finish());
    }

    #[test]
    fn distinct_small_keys_spread() {
        let hashes: FxSet<u64> = (0u64..1000).map(|k| hash_of((k, k as u32))).collect();
        assert_eq!(hashes.len(), 1000);
    }
}
