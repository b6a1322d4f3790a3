//! A multiplicative (Fx-style) hasher for the simulator's integer-keyed
//! maps.
//!
//! The heap's allocation table and the harness's cell maps are keyed by
//! values the simulation itself generates (addresses, cell keys), so
//! SipHash's DoS resistance buys nothing there and only adds its cost.
//! This is the rotate-xor-multiply word hash the Rust compiler uses
//! internally: one multiply per `u64` key. It is unseeded, so map iteration
//! order is the same in every process — but code whose results depend on
//! that order should still sort.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// The Fx multiplier (an odd 64-bit constant with well-mixed bits).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Word-at-a-time multiplicative hasher. Not DoS-resistant: use only for
/// keys the simulation itself generates.
#[derive(Debug, Default, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// A `HashMap` hashed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    #[test]
    fn unseeded_one_multiply_per_word() {
        let h = BuildHasherDefault::<FxHasher>::default();
        assert_eq!(h.hash_one(42u64), 42u64.wrapping_mul(SEED));
        assert_ne!(h.hash_one("abc"), h.hash_one("abd"));
        let mut m: FxHashMap<u64, u64> = FxHashMap::default();
        m.extend((0..10_000u64).map(|k| (k << 12, k)));
        assert!((0..10_000u64).all(|k| m[&(k << 12)] == k));
    }
}
