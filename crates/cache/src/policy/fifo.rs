//! First-in first-out replacement.

use super::{EntryAttrs, EntryKey, ReplacementPolicy};
use std::collections::VecDeque;

/// FIFO: evicts in insertion order, ignoring hits entirely.
#[derive(Default)]
pub struct Fifo {
    order: VecDeque<EntryKey>,
    live: placeless_core::keymap::KeySet<EntryKey>,
}

impl Fifo {
    /// Creates an empty FIFO tracker.
    pub fn new() -> Self {
        Self::default()
    }
}

impl ReplacementPolicy for Fifo {
    fn name(&self) -> &'static str {
        "fifo"
    }

    fn on_insert(&mut self, key: EntryKey, _attrs: &EntryAttrs) {
        if self.live.insert(key) {
            self.order.push_back(key);
        }
    }

    fn on_hit(&mut self, _key: EntryKey) {}

    fn on_hit_shared(&self, _key: EntryKey) -> bool {
        true
    }

    fn on_remove(&mut self, key: EntryKey) {
        self.live.remove(&key);
    }

    fn evict(&mut self) -> Option<EntryKey> {
        // Skip queue entries removed out of band.
        while let Some(key) = self.order.pop_front() {
            if self.live.remove(&key) {
                return Some(key);
            }
        }
        None
    }

    fn len(&self) -> usize {
        self.live.len()
    }
}
