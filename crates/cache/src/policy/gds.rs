//! Greedy-Dual-Size [Cao & Irani 1997], and its frequency-aware version.
//!
//! Every resident entry carries a credit `H = L + cost / size`, where `L` is
//! the policy's inflation value. Eviction removes the entry with the lowest
//! `H` and raises `L` to that value, so recently accessed and
//! expensive-to-reproduce documents survive. With `cost ≡ 1` this degrades
//! to GD(1), the cost-blind variant used as an ablation baseline; with a
//! hit count multiplying `cost / size` it is GDS-Frequency (`gdsf`).
//!
//! Implementation: a binary heap with lazy deletion holding **one live
//! node per entry**, ordered by `(H, generation)` — the generation is the
//! instant of the last insert or hit, so equal credits leave oldest-first.
//! A hit rewrites the entry's `H` and generation in the map and leaves its
//! node alone: `L` never falls and a frequency only rises, so between two
//! inserts of a key its pair only rises and the node stays a lower bound.
//! `evict` re-pushes a popped node that has fallen behind its entry, so a
//! node that surfaces *current* is the true minimum: the victim a heap
//! pushing on every hit would choose, at one map update per hit. Nodes
//! orphaned by a removal or re-insert are skipped when they surface and
//! swept once they outnumber the live ones.

use super::{EntryAttrs, EntryKey, ReplacementPolicy};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// Dead nodes tolerated beyond one per live entry before the heap is
/// rebuilt, so a near-empty policy does not rebuild on every removal.
const DEAD_SLACK: usize = 64;

/// An `f64` with total ordering for use in the heap.
#[derive(Debug, Clone, Copy, PartialEq)]
struct OrdF64(f64);

impl Eq for OrdF64 {}

impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

struct Tracked {
    size: u64,
    cost: f64,
    /// Hits since the insert, plus one; stays 1 without `FREQUENCY`.
    frequency: u64,
    credit: f64,
    generation: u64,
    /// The generation on this entry's live heap node; a node of this key
    /// carrying any other is dead.
    queued: u64,
}

impl Tracked {
    /// The full credit `L + frequency · cost/size` of a touch now.
    fn full_credit(&self, inflation: f64, cost_blind: bool) -> f64 {
        let cost = if cost_blind { 1.0 } else { self.cost };
        inflation + self.frequency as f64 * cost / self.size.max(1) as f64
    }

    fn node(&self, key: EntryKey) -> Reverse<(OrdF64, u64, EntryKey)> {
        Reverse((OrdF64(self.credit), self.generation, key))
    }
}

/// The Greedy-Dual replacement policy; `FREQUENCY` makes it GDS-Frequency
/// ([`super::GdsFrequency`]).
pub struct GreedyDual<const FREQUENCY: bool> {
    entries: HashMap<EntryKey, Tracked>,
    heap: BinaryHeap<Reverse<(OrdF64, u64, EntryKey)>>,
    inflation: f64,
    next_generation: u64,
    cost_blind: bool,
}

/// The Greedy-Dual-Size replacement policy.
pub type GreedyDualSize = GreedyDual<false>;

impl<const FREQUENCY: bool> GreedyDual<FREQUENCY> {
    /// Creates a cost-aware policy.
    pub fn new() -> Self {
        Self {
            entries: HashMap::new(),
            heap: BinaryHeap::new(),
            inflation: 0.0,
            next_generation: 0,
            cost_blind: false,
        }
    }

    /// Returns the current inflation value `L`.
    pub fn inflation(&self) -> f64 {
        self.inflation
    }

    /// Rebuilds the heap from the entries once dead nodes outnumber live
    /// ones: a removal or re-insert orphans one node, and nothing but an
    /// eviction would ever pop it. Amortised O(1) per orphaned node.
    fn sweep(&mut self) {
        if self.heap.len() <= 2 * self.entries.len() + DEAD_SLACK {
            return;
        }
        let live = self.entries.iter_mut().map(|(&key, tracked)| {
            tracked.queued = tracked.generation;
            tracked.node(key)
        });
        self.heap = live.collect();
    }
}

impl GreedyDualSize {
    /// Creates GD(1): every entry costs 1, isolating the size/recency terms.
    pub fn cost_blind() -> Self {
        Self {
            cost_blind: true,
            ..Self::new()
        }
    }
}

impl<const FREQUENCY: bool> Default for GreedyDual<FREQUENCY> {
    fn default() -> Self {
        Self::new()
    }
}

impl<const FREQUENCY: bool> ReplacementPolicy for GreedyDual<FREQUENCY> {
    fn name(&self) -> &'static str {
        match (FREQUENCY, self.cost_blind) {
            (true, _) => "gdsf",
            (false, true) => "gd1",
            (false, false) => "gds",
        }
    }

    fn on_insert(&mut self, key: EntryKey, attrs: &EntryAttrs) {
        // A re-insert of a resident key keeps its earned frequency.
        let frequency = match self.entries.get(&key) {
            Some(tracked) if FREQUENCY => tracked.frequency,
            _ => 1,
        };
        let generation = self.next_generation;
        self.next_generation += 1;
        let mut tracked = Tracked {
            size: attrs.size,
            cost: attrs.cost,
            frequency,
            credit: 0.0,
            generation,
            queued: generation,
        };
        tracked.credit = tracked.full_credit(self.inflation, self.cost_blind);
        // A re-insert may lower the credit, so an insert always pushes.
        self.heap.push(tracked.node(key));
        self.entries.insert(key, tracked);
        self.sweep();
    }

    fn on_hit(&mut self, key: EntryKey) {
        let Some(tracked) = self.entries.get_mut(&key) else {
            return;
        };
        tracked.frequency += u64::from(FREQUENCY);
        // Restore the entry's credit to its full value, in place.
        let credit = tracked.full_credit(self.inflation, self.cost_blind);
        let fell = credit < tracked.credit;
        (tracked.credit, tracked.generation) = (credit, self.next_generation);
        self.next_generation += 1;
        if fell {
            // A negative cost under a rising frequency: the old node is
            // no lower bound any more.
            tracked.queued = tracked.generation;
            self.heap.push(tracked.node(key));
        }
    }

    fn on_remove(&mut self, key: EntryKey) {
        self.entries.remove(&key);
        self.sweep();
    }

    fn evict(&mut self) -> Option<EntryKey> {
        while let Some(Reverse((OrdF64(h), generation, key))) = self.heap.pop() {
            let live = self.entries.get_mut(&key);
            let Some(tracked) = live.filter(|tracked| tracked.queued == generation) else {
                continue;
            };
            if tracked.generation != generation {
                // Hit since this node was pushed: queue the entry again
                // where it stands now.
                tracked.queued = tracked.generation;
                self.heap.push(tracked.node(key));
                continue;
            }
            self.entries.remove(&key);
            // Inflate L to the evicted credit; future entries start from
            // here, which is what ages out stale residents.
            self.inflation = self.inflation.max(h);
            return Some(key);
        }
        None
    }

    fn len(&self) -> usize {
        self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use placeless_core::id::{DocumentId, UserId};

    fn key(i: u64) -> EntryKey {
        EntryKey::Version(DocumentId(i), UserId(1))
    }

    fn heap_is_bounded<const FREQUENCY: bool>(policy: &GreedyDual<FREQUENCY>) {
        assert!(policy.heap.len() <= 2 * policy.entries.len() + 64);
    }

    // The heap used to take a node per hit and give one back only per
    // eviction; a cache that hits and never evicts grew without bound.
    fn hits_do_not_grow_the_heap<const FREQUENCY: bool>() {
        let mut policy = GreedyDual::<FREQUENCY>::new();
        for i in 0..100 {
            policy.on_insert(key(i), &EntryAttrs::new(64 + i, 1_000.0));
        }
        for hit in 0..1_000_000 {
            policy.on_hit(key(hit % 100));
        }
        heap_is_bounded(&policy);
    }

    fn removed_and_superseded_nodes_are_reclaimed<const FREQUENCY: bool>() {
        let mut policy = GreedyDual::<FREQUENCY>::new();
        for _ in 0..100_000 {
            policy.on_insert(key(1), &EntryAttrs::new(64, 1_000.0));
            policy.on_insert(key(1), &EntryAttrs::new(32, 10.0));
            heap_is_bounded(&policy);
            policy.on_remove(key(1));
            heap_is_bounded(&policy);
        }
    }

    #[test]
    fn gds_heap_is_bounded_by_its_entries() {
        hits_do_not_grow_the_heap::<false>();
        removed_and_superseded_nodes_are_reclaimed::<false>();
    }

    #[test]
    fn gdsf_heap_is_bounded_by_its_entries() {
        hits_do_not_grow_the_heap::<true>();
        removed_and_superseded_nodes_are_reclaimed::<true>();
    }
}
