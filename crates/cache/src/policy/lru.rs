//! Least-recently-used replacement.

use super::{EntryAttrs, EntryKey, ReplacementPolicy};
use placeless_core::keymap::KeyMap;

/// Classic LRU, tracked with a logical access clock.
#[derive(Default)]
pub struct Lru {
    stamps: KeyMap<EntryKey, u64>,
    tick: u64,
}

impl Lru {
    /// Creates an empty LRU tracker.
    pub fn new() -> Self {
        Self::default()
    }

    fn touch(&mut self, key: EntryKey) {
        self.tick += 1;
        self.stamps.insert(key, self.tick);
    }
}

impl ReplacementPolicy for Lru {
    fn name(&self) -> &'static str {
        "lru"
    }

    fn on_insert(&mut self, key: EntryKey, _attrs: &EntryAttrs) {
        self.touch(key);
    }

    fn on_hit(&mut self, key: EntryKey) {
        // Hits on untracked keys are ignored; only inserts admit keys.
        if self.stamps.contains_key(&key) {
            self.touch(key);
        }
    }

    fn on_remove(&mut self, key: EntryKey) {
        self.stamps.remove(&key);
    }

    fn evict(&mut self) -> Option<EntryKey> {
        let victim = self
            .stamps
            .iter()
            .min_by_key(|(_, &stamp)| stamp)
            .map(|(&k, _)| k)?;
        self.stamps.remove(&victim);
        Some(victim)
    }

    fn len(&self) -> usize {
        self.stamps.len()
    }
}
