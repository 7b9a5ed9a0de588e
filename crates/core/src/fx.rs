//! Three hashes, one job each: one map hasher for keys this program
//! generates, one fingerprint hasher for whole machine states, and one
//! content digest for bytes that must hash the same in every build.
//!
//! * [`FxHasher`] keys maps. Thread, monitor and core ids, heap
//!   locations and 64-bit state fingerprints are all produced by the
//!   runtimes themselves, so SipHash's resistance to crafted collisions
//!   buys nothing for them — but its cost lands on hot paths: the
//!   governor's consult on every contended enter, the telemetry
//!   collector's interval maps inside every collection pass, the
//!   explorer's visited-state sets. Maps keyed by anything read from
//!   outside the program keep the default hasher.
//! * [`FoldHasher`] fingerprints. The explorer prunes a choice point
//!   whose fingerprint it has seen, so a collision silently drops an
//!   unexplored state: every output bit must depend on every input bit.
//!   Fx has no finaliser and its multiply carries a high input bit only
//!   upwards, so it is not used here; one folded multiply per word is.
//! * [`fnv1a`] is a stable digest, not a hasher for maps or states:
//!   `.schedule.json` artifacts name their program by it, and the byte
//!   pins record it beside each output's length.

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

/// The low half xor the high half of the 128-bit product `a × b`.
#[inline(always)]
fn fold(a: u64, b: u64) -> u64 {
    let p = u128::from(a) * u128::from(b);
    p as u64 ^ (p >> 64) as u64
}

/// Folded-multiply word hasher (the foldhash/wyhash construction) for
/// state fingerprints: from a nonzero seed, each word `w` hashed costs
/// `s = fold(s ^ w, K1)`, and [`Hasher::finish`] folds once more with
/// `K2`. The product's high half carries every input bit into the low
/// output bits, which Fx's plain multiply does not.
///
/// Integer writes take the word path, so a derived `Hash` field costs
/// one fold. Unkeyed: a fingerprint is the same in every run, process
/// and build. One fixed point: a word equal to the running state zeroes
/// it, and zero words then leave it at zero — for words not chosen
/// against the seed, a 2⁻⁶⁴ event, the odds of any other collision.
#[derive(Clone, Copy, Debug)]
pub struct FoldHasher(u64);

impl FoldHasher {
    const SEED: u64 = 0x243f_6a88_85a3_08d3;
    const K1: u64 = 0xa076_1d64_78bd_642f;
    const K2: u64 = 0xe703_7ed1_a0b4_28db;

    /// A hasher at the seed.
    pub const fn new() -> Self {
        FoldHasher(Self::SEED)
    }

    #[inline(always)]
    fn add(&mut self, word: u64) {
        self.0 = fold(self.0 ^ word, Self::K1);
    }
}

impl Default for FoldHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl Hasher for FoldHasher {
    #[inline]
    fn finish(&self) -> u64 {
        fold(self.0, Self::K2)
    }

    /// Whole little-endian words, then the tail zero-padded with its
    /// length in the top byte, so no two byte strings share a word
    /// sequence.
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.add(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        let tail = words.remainder();
        let mut last = [0u8; 8];
        last[..tail.len()].copy_from_slice(tail);
        last[7] = tail.len() as u8;
        self.add(u64::from_le_bytes(last));
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(n.into());
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add(n.into());
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n.into());
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    // Enum discriminants hash as `isize`.
    #[inline]
    fn write_isize(&mut self, n: isize) {
        self.add(n as u64);
    }

    #[inline]
    fn write_i64(&mut self, n: i64) {
        self.add(n as u64);
    }
}

/// FNV-1a, 64-bit, of `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

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
    fn fnv1a_matches_the_published_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn distinct_small_keys_spread() {
        let hashes: FxSet<u64> = (0u64..1000).map(|k| hash_of((k, k as u32))).collect();
        assert_eq!(hashes.len(), 1000);
    }

    fn fold_words(words: &[u64]) -> u64 {
        let mut h = FoldHasher::new();
        for &w in words {
            h.write_u64(w);
        }
        h.finish()
    }

    #[test]
    fn a_leading_zero_word_is_not_absorbed() {
        // (`FoldHasher::SEED` itself would fail: a word equal to the
        // running state zeroes it, and `fold(0, K1)` is 0 again — see the
        // type's docs.)
        for x in [0, 1, 2, 0xff, 1 << 63, u64::MAX] {
            assert_ne!(fold_words(&[0, x]), fold_words(&[x]), "x = {x:#x}");
            assert_ne!(fold_words(&[x, 0]), fold_words(&[x]), "x = {x:#x}");
        }
        assert_ne!(fold_words(&[]), fold_words(&[0]));
    }

    #[test]
    fn permutations_of_small_words_differ() {
        // Every ordering of 0..6 (720 of them), and of six words that
        // differ in one high bit only.
        fn permutations(rest: &mut Vec<u64>, done: &mut Vec<u64>, out: &mut Vec<u64>) {
            if rest.is_empty() {
                out.push(fold_words(done));
            }
            for i in 0..rest.len() {
                let w = rest.remove(i);
                done.push(w);
                permutations(rest, done, out);
                done.pop();
                rest.insert(i, w);
            }
        }
        for words in [(0u64..6).collect::<Vec<_>>(), (58u32..64).map(|b| 1u64 << b).collect()] {
            let mut out = Vec::new();
            permutations(&mut words.clone(), &mut Vec::new(), &mut out);
            assert_eq!(out.len(), 720);
            let distinct: FxSet<u64> = out.iter().copied().collect();
            assert_eq!(distinct.len(), 720, "{words:?}");
        }
    }

    #[test]
    fn every_input_bit_reaches_both_output_halves() {
        // The property Fx lacks: flipping a high input bit must move the
        // low output bits too (and the reverse), for words in every field
        // position of a short sequence.
        for pos in 0..3 {
            let base = [0x1234_5678_9abc_def0u64, 7, 0];
            for bit in 0..64 {
                let mut flipped = base;
                flipped[pos] ^= 1 << bit;
                let d = fold_words(&base) ^ fold_words(&flipped);
                assert!(d as u32 != 0 && (d >> 32) != 0, "pos {pos} bit {bit}: {d:#018x}");
            }
        }
        let mut fx = FxHasher::default();
        fx.write_u64(1 << 63);
        assert_eq!(fx.finish() as u32, 0, "Fx keeps a top input bit out of the low half");
    }

    #[test]
    fn byte_strings_hash_by_content_and_length() {
        let of = |b: &[u8]| {
            let mut h = FoldHasher::new();
            h.write(b);
            h.finish()
        };
        let cases: [&[u8]; 7] = [b"", b"\0", b"\0\0", b"a", b"a\0", b"abcdefgh", b"abcdefgh\0"];
        let distinct: FxSet<u64> = cases.iter().map(|b| of(b)).collect();
        assert_eq!(distinct.len(), cases.len());
    }

    #[test]
    fn typed_writers_take_the_word_path() {
        // One fold per derived field, whatever its width.
        let word = |w: u64| fold_words(&[w]);
        let of = |f: &dyn Fn(&mut FoldHasher)| {
            let mut h = FoldHasher::new();
            f(&mut h);
            h.finish()
        };
        assert_eq!(of(&|h| h.write_u8(200)), word(200));
        assert_eq!(of(&|h| h.write_u16(60_000)), word(60_000));
        assert_eq!(of(&|h| h.write_u32(7)), word(7));
        assert_eq!(of(&|h| h.write_usize(9)), word(9));
        assert_eq!(of(&|h| h.write_isize(-1)), word(u64::MAX));
        assert_eq!(of(&|h| h.write_i64(-2)), word(u64::MAX - 1));
        assert_eq!(of(&|h| true.hash(h)), word(1));
    }
}
