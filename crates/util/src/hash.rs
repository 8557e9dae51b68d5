//! A fixed, fast hasher for maps keyed by addresses.
//!
//! The simulator's functional memories, crash images and log sets are
//! maps from 8-byte-aligned word (or 64-byte-aligned line) addresses.
//! `std`'s default `RandomState` hashes every key with SipHash-1-3 under
//! a per-process random key: a defence against adversarial keys that
//! these maps never see, paid for on every lookup. [`WordHasher`] is one
//! multiply and one fold instead.
//!
//! The fold matters. `hashbrown` picks a bucket from the *low* bits of
//! the hash, and aligned addresses have their low 3 or 6 bits at zero. A
//! product by an odd constant keeps those zeros (the low bits of `x * k`
//! depend only on the low bits of `x`), so [`WordHasher`] XORs the
//! product's upper bits (from bit 29 up) back down before handing it out.
//!
//! The hasher is fixed, so a map's iteration order is the same in every
//! process. No output may depend on it all the same: anything printed,
//! compared or folded into a digest iterates in a sorted or recorded
//! order.
//!
//! One pitfall comes with a fixed hasher. Iterating one map and
//! inserting into a fresh map with the same hasher feeds the new table
//! its keys in bucket order; while the new table is still small, those
//! keys land in a few adjacent buckets and the probe sequences grow long.
//! Pre-size such a map ([`map_with_capacity`], `reserve`) or `clone` the
//! source.
//!
//! # Example
//!
//! ```
//! use ede_util::hash::{U64Map, U64Set};
//!
//! let mut image: U64Map<u64> = U64Map::default();
//! image.insert(0x1_0000_0040, 7);
//! assert_eq!(image[&0x1_0000_0040], 7);
//!
//! let lines: U64Set = [0x40, 0x80, 0x40].into_iter().collect();
//! assert_eq!(lines.len(), 2);
//! ```

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Odd multiplier: 2^64 divided by the golden ratio (Fibonacci hashing).
const K: u64 = 0x9E37_79B9_7F4A_7C15;

/// Multiply-and-fold hasher for `u64` keys.
///
/// [`write_u64`](Hasher::write_u64) is the path `u64` keys take. Byte
/// slices, which they never produce, are folded a word at a time so the
/// hasher stays total.
#[derive(Clone, Copy, Debug, Default)]
pub struct WordHasher {
    hash: u64,
}

impl Hasher for WordHasher {
    #[inline]
    fn write_u64(&mut self, x: u64) {
        let h = (self.hash ^ x).wrapping_mul(K);
        self.hash = h ^ (h >> 29);
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// Zero-sized builder for [`WordHasher`].
pub type WordBuild = BuildHasherDefault<WordHasher>;

/// A map keyed by `u64` (typically an address), hashed by [`WordHasher`].
pub type U64Map<V> = HashMap<u64, V, WordBuild>;

/// A set of `u64`s (typically addresses), hashed by [`WordHasher`].
pub type U64Set = HashSet<u64, WordBuild>;

/// An empty [`U64Map`] with room for `n` entries.
pub fn map_with_capacity<V>(n: usize) -> U64Map<V> {
    U64Map::with_capacity_and_hasher(n, WordBuild::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    /// How many of a 4096-bucket table's buckets `keys` occupy when the
    /// bucket is the hash's low 12 bits, as in `hashbrown`.
    fn buckets_used(keys: impl Iterator<Item = u64>) -> usize {
        let build = WordBuild::default();
        let used: HashSet<u64> = keys.map(|k| build.hash_one(k) & 4095).collect();
        used.len()
    }

    #[test]
    fn aligned_keys_spread_over_low_bits() {
        // 4096 keys into 4096 buckets: a uniform hash fills about
        // 1 - 1/e of them (2589). Without the fold, 8-byte strides would
        // use 512 buckets and 64-byte strides 64.
        for stride in [8u64, 64] {
            for base in [0u64, 0x1_0000_0000, 0x1_0010_0000] {
                let used = buckets_used((0..4096).map(|i| base + i * stride));
                assert!(
                    used >= 2400,
                    "stride {stride} base {base:#x}: {used} buckets"
                );
            }
        }
    }

    #[test]
    fn maps_and_sets_behave_like_std() {
        let mut m: U64Map<&str> = map_with_capacity(4);
        m.insert(0x40, "a");
        m.insert(0x80, "b");
        m.insert(0x40, "c");
        assert_eq!(m.len(), 2);
        assert_eq!(m[&0x40], "c");
        let s: U64Set = m.keys().copied().collect();
        assert!(s.contains(&0x80) && !s.contains(&0xc0));
    }
}
