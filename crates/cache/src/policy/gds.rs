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
//! What a hit rewrites is kept in relaxed atomics, so hits are taken
//! through `&self`, side by side ([`ReplacementPolicy::on_hit_shared`]):
//! they touch neither the map's shape, nor the heap, nor `L`.
//! `evict` re-pushes a popped node that has fallen behind its entry, so a
//! node that surfaces *current* is the true minimum: the victim a heap
//! pushing on every hit would choose, at one map update per hit. Nodes
//! orphaned by a removal or re-insert are skipped when they surface and
//! swept once they outnumber the live ones.

use super::{EntryAttrs, EntryKey, ReplacementPolicy};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

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

/// The one word that hits of different keys write, on a cache line of its
/// own, away from `inflation` and the map's header, which the other core's
/// next hit reads first. One unit with `Shard`'s alignment (DESIGN.md §4.5).
#[repr(align(64))]
struct OwnLine(AtomicU64);

struct Tracked {
    size: u64,
    cost: f64,
    /// Hits since the insert, plus one; stays 1 without `FREQUENCY`.
    frequency: AtomicU64,
    /// The credit `H`, as `f64` bits.
    credit: AtomicU64,
    generation: AtomicU64,
    /// The generation on this entry's live heap node; a node of this key
    /// carrying any other is dead.
    queued: u64,
}

impl Tracked {
    /// The full credit `L + frequency · cost/size` of a touch now.
    fn full_credit(&self, frequency: u64, inflation: f64, cost_blind: bool) -> f64 {
        let cost = if cost_blind { 1.0 } else { self.cost };
        inflation + frequency as f64 * cost / self.size.max(1) as f64
    }

    fn credit(&self) -> f64 {
        f64::from_bits(self.credit.load(Relaxed))
    }

    /// The entry where it stands now, as a heap node, which becomes its
    /// live one.
    fn queue(&mut self, key: EntryKey) -> Reverse<(OrdF64, u64, EntryKey)> {
        self.queued = *self.generation.get_mut();
        Reverse((OrdF64(self.credit()), self.queued, key))
    }
}

/// The Greedy-Dual replacement policy; `FREQUENCY` makes it GDS-Frequency
/// ([`super::GdsFrequency`]).
pub struct GreedyDual<const FREQUENCY: bool> {
    entries: HashMap<EntryKey, Tracked>,
    heap: BinaryHeap<Reverse<(OrdF64, u64, EntryKey)>>,
    inflation: f64,
    next_generation: OwnLine,
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
            next_generation: OwnLine(AtomicU64::new(0)),
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
        let live = self.entries.iter_mut();
        self.heap = live.map(|(&key, tracked)| tracked.queue(key)).collect();
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
        let frequency = match self.entries.get_mut(&key) {
            Some(tracked) if FREQUENCY => *tracked.frequency.get_mut(),
            _ => 1,
        };
        let generation = *self.next_generation.0.get_mut();
        *self.next_generation.0.get_mut() += 1;
        let mut tracked = Tracked {
            size: attrs.size,
            cost: attrs.cost,
            frequency: AtomicU64::new(frequency),
            credit: AtomicU64::new(0),
            generation: AtomicU64::new(generation),
            queued: generation,
        };
        let credit = tracked.full_credit(frequency, self.inflation, self.cost_blind);
        *tracked.credit.get_mut() = credit.to_bits();
        // A re-insert may lower the credit, so an insert always pushes.
        self.heap.push(tracked.queue(key));
        self.entries.insert(key, tracked);
        self.sweep();
    }

    fn on_hit(&mut self, key: EntryKey) {
        if self.on_hit_shared(key) {
            return;
        }
        // Declined: a negative cost under a rising frequency, the one hit
        // that may lower a credit, leaving the old node no lower bound.
        let Some(tracked) = self.entries.get_mut(&key) else {
            return;
        };
        *tracked.frequency.get_mut() += 1;
        let frequency = *tracked.frequency.get_mut();
        let credit = tracked.full_credit(frequency, self.inflation, self.cost_blind);
        let fell = credit < tracked.credit();
        *tracked.credit.get_mut() = credit.to_bits();
        *tracked.generation.get_mut() = *self.next_generation.0.get_mut();
        *self.next_generation.0.get_mut() += 1;
        if fell {
            self.heap.push(tracked.queue(key));
        }
    }

    /// The hit, on atomics: the frequency rises, the credit is restored to
    /// its full value in place, the entry takes the next generation. `L`
    /// is read plainly, as it moves only under `&mut`. Racing hits on one
    /// key leave what either serial order leaves: each computes from the
    /// frequency its own `fetch_add` returned, and both the credit and the
    /// generation go to the highest offered. Both only ever rise here,
    /// because the one hit whose credit could fall is declined. Relaxed
    /// throughout: these words publish nothing but themselves, and whoever
    /// reads them through `&mut` came by the lock that owns this policy.
    fn on_hit_shared(&self, key: EntryKey) -> bool {
        let Some(tracked) = self.entries.get(&key) else {
            return true;
        };
        let frequency = if FREQUENCY {
            if tracked.cost < 0.0 {
                return false;
            }
            tracked.frequency.fetch_add(1, Relaxed) + 1
        } else {
            1
        };
        let credit = tracked.full_credit(frequency, self.inflation, self.cost_blind);
        let raise = |held: u64| (f64::from_bits(held) < credit).then_some(credit.to_bits());
        // `Err` is "already there": nothing to publish.
        let _ = tracked.credit.fetch_update(Relaxed, Relaxed, raise);
        let generation = self.next_generation.0.fetch_add(1, Relaxed);
        tracked.generation.fetch_max(generation, Relaxed);
        true
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
            if *tracked.generation.get_mut() != generation {
                // Hit since this node was pushed: queue the entry again
                // where it stands now.
                self.heap.push(tracked.queue(key));
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
