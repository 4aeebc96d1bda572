//! The hasher of every map keyed by ids, signatures or pairs of them: each
//! word is folded in by one 64×64→128-bit multiply whose halves are XORed,
//! from a seed drawn once per process from `std`'s [`RandomState`], so map
//! order varies by run and keys cannot be aimed at one bucket without it.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hasher, RandomState};
use std::sync::OnceLock;

/// A map keyed by ids, signatures or pairs of them.
pub type KeyMap<K, V> = HashMap<K, V, KeyState>;
/// A set of ids, signatures or pairs of them.
pub type KeySet<K> = HashSet<K, KeyState>;

/// Builds [`KeyHasher`]s from the process's seed.
#[derive(Debug, Clone, Copy)]
pub struct KeyState(u64);

impl Default for KeyState {
    fn default() -> Self {
        static SEED: OnceLock<u64> = OnceLock::new();
        Self(*SEED.get_or_init(|| RandomState::new().hash_one(0u64)))
    }
}

impl BuildHasher for KeyState {
    type Hasher = KeyHasher;
    #[inline]
    fn build_hasher(&self) -> KeyHasher {
        KeyHasher(self.0)
    }
}

/// One key's hash state. A short tail is zero-padded, so text keys belong on `std`'s hasher.
pub struct KeyHasher(u64);

impl Hasher for KeyHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for word in bytes.chunks(8) {
            self.write_u64(word.iter().rev().fold(0, |w, &b| w << 8 | u64::from(b)));
        }
    }
    #[inline]
    fn write_u64(&mut self, word: u64) {
        let product = u128::from(self.0 ^ word) * 0x9E37_79B9_7F4A_7C15;
        self.0 = product as u64 ^ (product >> 64) as u64;
    }
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digest::Signature;
    use crate::id::{DocumentId, UserId};
    use std::hash::Hash;

    /// The cache's `EntryKey`, with the same derive, so it hashes alike.
    #[derive(Hash)]
    enum Key {
        Version(DocumentId, UserId),
        Stage(Signature),
    }

    /// 2¹⁶ sequential versions (256 documents × 256 users) and 2¹⁶
    /// stages whose signatures count up from zero.
    fn keys() -> [Vec<Key>; 2] {
        let versions = (0..1u64 << 16).map(|i| Key::Version(DocumentId(i >> 8), UserId(i & 255)));
        let stages = (0..1u64 << 16).map(|i| {
            let mut sig = [0; 16];
            sig[..8].copy_from_slice(&i.to_le_bytes());
            Key::Stage(Signature(sig))
        });
        [versions.collect(), stages.collect()]
    }

    /// How many times the mean its fullest bucket holds when each of
    /// `hashes` picks one of `buckets` by `project`.
    fn fullest(hashes: &[u64], buckets: usize, project: impl Fn(u64) -> usize) -> f64 {
        let mut load = vec![0usize; buckets];
        hashes.iter().for_each(|&h| load[project(h)] += 1);
        let mean = hashes.len() as f64 / buckets as f64;
        *load.iter().max().unwrap() as f64 / mean
    }

    /// A 1,024-bucket table's index (the low ten bits) and hashbrown's
    /// tag (the top seven) each keep the fullest bucket under twice the
    /// mean. A random hash's fullest is about 1.5× and 1.1× here.
    fn spreads<H: Hasher>(hasher: impl Fn() -> H) -> bool {
        keys().iter().all(|keys| {
            let hashes: Vec<u64> = keys
                .iter()
                .map(|key| {
                    let mut h = hasher();
                    key.hash(&mut h);
                    h.finish()
                })
                .collect();
            let low = fullest(&hashes, 1 << 10, |h| (h & 1023) as usize);
            let tag = fullest(&hashes, 1 << 7, |h| (h >> 57) as usize);
            low < 2.0 && tag < 2.0
        })
    }

    #[test]
    fn sequential_keys_spread_over_buckets_and_tags() {
        let seeds = [KeyState::default().0, 0, 1, u64::MAX, 0x5555_5555_5555_5555];
        for seed in seeds {
            assert!(spreads(|| KeyState(seed).build_hasher()), "seed {seed:#x}");
        }
        // The test tells hashes apart: a key's last write as its hash, and
        // bytes rotated and XORed in without a multiply, both fail it.
        struct Identity(u64);
        impl Hasher for Identity {
            fn write(&mut self, bytes: &[u8]) {
                self.0 = bytes.iter().rev().fold(0, |w, &b| w << 8 | u64::from(b));
            }
            fn finish(&self) -> u64 {
                self.0
            }
        }
        struct Unmixed(u64);
        impl Hasher for Unmixed {
            fn write(&mut self, bytes: &[u8]) {
                bytes
                    .iter()
                    .for_each(|&b| self.0 = self.0.rotate_left(5) ^ u64::from(b));
            }
            fn finish(&self) -> u64 {
                self.0
            }
        }
        assert!(!spreads(|| Identity(0)));
        assert!(!spreads(|| Unmixed(0)));
    }

    #[test]
    fn one_process_hashes_a_key_alike() {
        let key = (DocumentId(7), UserId(3));
        assert_eq!(
            KeyState::default().hash_one(key),
            KeyState::default().hash_one(key)
        );
    }
}
