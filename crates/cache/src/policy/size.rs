//! SIZE replacement: evict the largest entry first.

use super::{EntryAttrs, EntryKey, ReplacementPolicy};
use placeless_core::keymap::KeyMap;

/// Evicts the largest resident entry, the classic proxy-cache heuristic
/// that maximizes object hit rate by keeping many small documents.
#[derive(Default)]
pub struct SizePolicy {
    sizes: KeyMap<EntryKey, (u64, u64)>,
    tick: u64,
}

impl SizePolicy {
    /// Creates an empty SIZE tracker.
    pub fn new() -> Self {
        Self::default()
    }
}

impl ReplacementPolicy for SizePolicy {
    fn name(&self) -> &'static str {
        "size"
    }

    fn on_insert(&mut self, key: EntryKey, attrs: &EntryAttrs) {
        self.tick += 1;
        self.sizes.insert(key, (attrs.size, self.tick));
    }

    fn on_hit(&mut self, _key: EntryKey) {}

    fn on_hit_shared(&self, _key: EntryKey) -> bool {
        true
    }

    fn on_remove(&mut self, key: EntryKey) {
        self.sizes.remove(&key);
    }

    fn evict(&mut self) -> Option<EntryKey> {
        // Largest first; FIFO tiebreak (older first) among equals.
        let victim = self
            .sizes
            .iter()
            .max_by_key(|(_, &(size, stamp))| (size, std::cmp::Reverse(stamp)))
            .map(|(&k, _)| k)?;
        self.sizes.remove(&victim);
        Some(victim)
    }

    fn len(&self) -> usize {
        self.sizes.len()
    }
}
