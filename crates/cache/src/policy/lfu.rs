//! Least-frequently-used replacement.

use super::{EntryAttrs, EntryKey, ReplacementPolicy};
use placeless_core::keymap::KeyMap;

/// LFU with an LRU tiebreak among equal frequencies.
#[derive(Default)]
pub struct Lfu {
    counts: KeyMap<EntryKey, (u64, u64)>,
    tick: u64,
}

impl Lfu {
    /// Creates an empty LFU tracker.
    pub fn new() -> Self {
        Self::default()
    }
}

impl ReplacementPolicy for Lfu {
    fn name(&self) -> &'static str {
        "lfu"
    }

    fn on_insert(&mut self, key: EntryKey, _attrs: &EntryAttrs) {
        self.tick += 1;
        self.counts.insert(key, (1, self.tick));
    }

    fn on_hit(&mut self, key: EntryKey) {
        self.tick += 1;
        let tick = self.tick;
        if let Some((count, stamp)) = self.counts.get_mut(&key) {
            *count += 1;
            *stamp = tick;
        }
    }

    fn on_remove(&mut self, key: EntryKey) {
        self.counts.remove(&key);
    }

    fn evict(&mut self) -> Option<EntryKey> {
        let victim = self
            .counts
            .iter()
            .min_by_key(|(_, &(count, stamp))| (count, stamp))
            .map(|(&k, _)| k)?;
        self.counts.remove(&victim);
        Some(victim)
    }

    fn len(&self) -> usize {
        self.counts.len()
    }
}
