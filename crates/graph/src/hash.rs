//! A keyed fast hasher for maps keyed by vertex ids.
//!
//! The engine's message path probes a map keyed by vertex ids (or message
//! keys built on them) several times per message: the fragmentation graph's
//! holder maps, `Fragment::to_local`, the message buffer's coalescing index
//! and the transports' pending and delivered maps.  `std`'s SipHash costs
//! more per probe than the rest of a message's journey.
//!
//! A client chooses those ids through its deltas, so the maps cannot drop
//! their protection against keys crafted to collide.  [`KeyedState`] keeps
//! it with a secret drawn once per process from `std`'s `RandomState`, and
//! hashes each word with one folded 64×64→128-bit multiply: the high half
//! of the product folds into the low half, so ids with a shared structure
//! (multiples of `2^k`) still spread over the low bits a table indexes by.
//! An unkeyed multiply (Fx-style) sends all of them to one bucket.
//!
//! It is not a cryptographic hash.  Every map in one process hashes alike;
//! iteration order still differs between processes.

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};
use std::sync::OnceLock;

/// A `HashMap` under [`KeyedState`].
pub type KeyedHashMap<K, V> = HashMap<K, V, KeyedState>;

/// Builds [`KeyedHasher`]s under this process's key.
#[derive(Debug, Clone, Copy)]
pub struct KeyedState {
    seed: u64,
    multiplier: u64,
}

impl Default for KeyedState {
    /// The process's key, drawn on first use.
    fn default() -> Self {
        static KEY: OnceLock<KeyedState> = OnceLock::new();
        *KEY.get_or_init(|| {
            let random = RandomState::new();
            KeyedState {
                seed: random.hash_one(0u64),
                multiplier: random.hash_one(1u64) | 1,
            }
        })
    }
}

impl BuildHasher for KeyedState {
    type Hasher = KeyedHasher;

    fn build_hasher(&self) -> KeyedHasher {
        KeyedHasher {
            state: self.seed,
            multiplier: self.multiplier,
        }
    }
}

/// One folded multiply per 64-bit word.
#[derive(Debug, Clone)]
pub struct KeyedHasher {
    state: u64,
    multiplier: u64,
}

/// The 128-bit product of `x` and `y`, its high half folded into its low.
#[inline]
fn folded_multiply(x: u64, y: u64) -> u64 {
    let full = u128::from(x) * u128::from(y);
    (full as u64) ^ ((full >> 64) as u64)
}

impl Hasher for KeyedHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, x: u32) {
        self.write_u64(u64::from(x));
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.state = folded_multiply(self.state ^ x, self.multiplier);
    }

    #[inline]
    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ids `k · 2^20` agree in their low 20 bits.  The keyed hash still
    /// spreads them over the low 12 bits (a 4 096-bucket table's index),
    /// where an unkeyed multiply puts every one in the same bucket.
    #[test]
    fn structured_ids_spread_over_the_low_bits() {
        let ids: Vec<u64> = (0..4096u64).map(|k| k << 20).collect();
        let distinct = |hash: &dyn Fn(u64) -> u64| {
            let mut low: Vec<u64> = ids.iter().map(|&v| hash(v) & 0xfff).collect();
            low.sort_unstable();
            low.dedup();
            low.len()
        };
        let keyed = KeyedState::default();
        let spread = distinct(&|v| keyed.hash_one(v));
        assert!(
            spread >= 1024,
            "keyed hash: {spread} distinct low-12-bit values"
        );
        let unkeyed = distinct(&|v| v.wrapping_mul(0x517c_c1b7_2722_0a95));
        assert_eq!(unkeyed, 1, "an unkeyed multiply keeps the low bits");
    }

    /// Two maps built in one process hash equal keys alike, so a key found
    /// in one is found in the other.
    #[test]
    fn maps_in_one_process_hash_alike() {
        let mut a: KeyedHashMap<u64, u32> = KeyedHashMap::default();
        let b: KeyedHashMap<(u32, u64), ()> = KeyedHashMap::default();
        for v in [0u64, 1, 7, 1 << 20, u64::MAX] {
            assert_eq!(a.hasher().hash_one(v), b.hasher().hash_one(v));
            assert_eq!(
                a.hasher().hash_one((3u32, v)),
                b.hasher().hash_one((3u32, v))
            );
            a.insert(v, 1);
        }
        assert_eq!(a.len(), 5);
        assert_eq!(a.get(&(1 << 20)), Some(&1));
    }
}
