//! A keyed multiply hasher for the maps the scoring and maintenance hot
//! paths probe: the pairing kernel's geometry memo, document
//! frequencies, the arena directory, and the streaming engine's pair
//! cache, adjacency and matcher maps.
//!
//! Their keys are a few machine words (`CellId`, `(WindowIdx, CellId)`,
//! `EntityId`, entity pairs), and SipHash's per-probe cost was a
//! measurable share of a scored window. Each word is folded into the
//! state with one multiply; [`FastHasher::finish`] then applies a
//! *folded* 64×64→128 multiply (high half XOR low half). The fold
//! matters: the hash table takes its bucket from the low bits, the low
//! bits of a plain product depend only on the low bits of its operands,
//! and level-12 `CellId`s all share their low 36 bits — without the fold
//! they would pile into one bucket.
//!
//! Each map draws its keys from [`RandomState::new`], as std does for
//! SipHash, so iteration order stays random per instance: nothing may
//! depend on it, and the equivalence suites keep checking that nothing
//! does.

use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hasher};

/// An odd multiplier with well-mixed bits (2⁶⁴ / φ).
const MUL: u64 = 0x9E37_79B9_7F4A_7C15;

/// The high and low halves of the 128-bit product, XORed.
#[inline]
fn folded_multiply(a: u64, b: u64) -> u64 {
    let p = u128::from(a) * u128::from(b);
    (p as u64) ^ ((p >> 64) as u64)
}

/// The hasher [`FastState`] builds.
#[derive(Debug, Clone, Copy)]
pub struct FastHasher {
    state: u64,
    key: u64,
}

impl Hasher for FastHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.write_u64(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            // The length keeps "ab" and "ab\0" apart.
            self.write_u64(u64::from_le_bytes(word) ^ ((rest.len() as u64) << 59));
        }
    }

    #[inline]
    fn write_u32(&mut self, x: u32) {
        self.write_u64(u64::from(x));
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.state = (self.state ^ x).wrapping_mul(MUL);
    }

    #[inline]
    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        // The key goes in by XOR and the multiplier is the fixed, well
        // mixed `MUL`: multiplying by a random key instead leaves some
        // keys that fold a lattice of cells onto a lattice of buckets.
        folded_multiply(self.state ^ self.key, MUL)
    }
}

/// Builds [`FastHasher`]s under per-instance random keys.
#[derive(Debug, Clone, Copy)]
pub struct FastState {
    seed: u64,
    key: u64,
}

impl Default for FastState {
    fn default() -> Self {
        let random = RandomState::new();
        Self {
            seed: random.hash_one(0u64),
            key: random.hash_one(1u64),
        }
    }
}

impl BuildHasher for FastState {
    type Hasher = FastHasher;

    #[inline]
    fn build_hasher(&self) -> FastHasher {
        FastHasher {
            state: self.seed,
            key: self.key,
        }
    }
}

/// A `HashMap` under [`FastState`].
pub type FastMap<K, V> = HashMap<K, V, FastState>;

/// A `HashSet` under [`FastState`].
pub type FastSet<K> = HashSet<K, FastState>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::EntityId;
    use crate::window::WindowIdx;
    use geocell::{CellId, LatLng};

    /// Distinct low-12-bit values among `keys`' hashes under one state.
    fn low_bits_spread<K: std::hash::Hash>(keys: impl IntoIterator<Item = K>) -> usize {
        let state = FastState::default();
        let buckets: HashSet<u64> = keys
            .into_iter()
            .map(|k| state.hash_one(k) & 0xFFF)
            .collect();
        buckets.len()
    }

    /// 4,096 keys of each hot-path shape must spread over at least
    /// 2,000 of the 4,096 values of the low 12 bits (a random function
    /// reaches ≈ 2,589; the lowest of 5,000 random states measured
    /// 2,303). Level-12 `CellId`s share their low 36 bits, so a finish
    /// without the fold puts all of them in one value.
    #[test]
    fn hot_keys_spread_over_the_low_bits() {
        let cells: Vec<CellId> = (0..64)
            .flat_map(|i| {
                (0..64).map(move |j| {
                    let at = LatLng::from_degrees(30.0 + 0.05 * i as f64, -100.0 + 0.05 * j as f64);
                    CellId::from_latlng(at, 12)
                })
            })
            .collect();
        let distinct: HashSet<CellId> = cells.iter().copied().collect();
        assert_eq!(distinct.len(), 4096, "the grid must give distinct cells");
        assert!(cells
            .iter()
            .all(|c| c.to_u64() << 28 == cells[0].to_u64() << 28));

        let spread = low_bits_spread(cells.iter().copied());
        assert!(spread >= 2000, "level-12 cells: {spread}");
        let bins = (0..64u32).flat_map(|w| cells[..64].iter().map(move |&c| (w as WindowIdx, c)));
        let spread = low_bits_spread(bins);
        assert!(spread >= 2000, "(window, cell) bins: {spread}");
        let spread = low_bits_spread((0..4096u64).map(EntityId));
        assert!(spread >= 2000, "sequential entities: {spread}");
    }

    #[test]
    fn states_are_keyed_per_instance() {
        let (a, b) = (FastState::default(), FastState::default());
        assert_ne!(a.hash_one(7u64), b.hash_one(7u64));
        assert_eq!(a.hash_one(7u64), a.hash_one(7u64));
    }

    #[test]
    fn byte_writes_separate_trailing_zeros() {
        let s = FastState::default();
        assert_ne!(s.hash_one(b"ab".as_slice()), s.hash_one(b"ab\0".as_slice()));
        assert_ne!(s.hash_one("abcdefgh"), s.hash_one("abcdefgi"));
    }
}
