//! The replacement policies through their public API: each policy's
//! victim order, and the Greedy-Dual policies against the push-per-hit
//! heaps they replaced.

use placeless_cache::policy::{
    EntryAttrs, EntryKey, Fifo, GdsFrequency, GreedyDualSize, Lfu, Lru, ReplacementPolicy,
    SizePolicy,
};
use placeless_core::id::{DocumentId, UserId};
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

fn key(i: u64) -> EntryKey {
    EntryKey::Version(DocumentId(i), UserId(1))
}

mod gds {
    use super::*;

    #[test]
    fn evicts_lowest_credit_first() {
        let mut gds = GreedyDualSize::new();
        gds.on_insert(key(1), &EntryAttrs::new(100, 1_000.0)); // H = 10
        gds.on_insert(key(2), &EntryAttrs::new(100, 100.0)); // H = 1
        gds.on_insert(key(3), &EntryAttrs::new(100, 500.0)); // H = 5
        assert_eq!(gds.evict(), Some(key(2)));
        assert_eq!(gds.evict(), Some(key(3)));
        assert_eq!(gds.evict(), Some(key(1)));
        assert_eq!(gds.evict(), None);
    }

    #[test]
    fn size_divides_cost() {
        let mut gds = GreedyDualSize::new();
        gds.on_insert(key(1), &EntryAttrs::new(10, 100.0)); // H = 10: small and pricey
        gds.on_insert(key(2), &EntryAttrs::new(1_000, 100.0)); // H = 0.1: big
        assert_eq!(gds.evict(), Some(key(2)), "big documents go first");
    }

    #[test]
    fn hit_refreshes_credit() {
        let mut gds = GreedyDualSize::new();
        gds.on_insert(key(1), &EntryAttrs::new(100, 100.0));
        gds.on_insert(key(2), &EntryAttrs::new(100, 100.0));
        // Evicting key(1) raises L to 1.0.
        assert_eq!(gds.evict(), Some(key(1)));
        assert_eq!(gds.inflation(), 1.0);
        // Insert a new entry; its credit is L + 1 = 2.
        gds.on_insert(key(3), &EntryAttrs::new(100, 100.0));
        // key(2) still has its old credit 1.0 and goes first...
        // unless it is hit, which refreshes it to L + 1 = 2.
        gds.on_hit(key(2));
        gds.on_insert(key(4), &EntryAttrs::new(1_000_000, 1.0)); // essentially L
        assert_eq!(gds.evict(), Some(key(4)));
    }

    #[test]
    fn inflation_is_monotone() {
        let mut gds = GreedyDualSize::new();
        for i in 0..10 {
            gds.on_insert(key(i), &EntryAttrs::new(10, (i * 100) as f64 + 10.0));
        }
        let mut last = 0.0;
        while gds.evict().is_some() {
            assert!(gds.inflation() >= last);
            last = gds.inflation();
        }
    }

    #[test]
    fn cost_blind_ignores_cost() {
        let mut gd1 = GreedyDualSize::cost_blind();
        gd1.on_insert(key(1), &EntryAttrs::new(100, 1_000_000.0));
        gd1.on_insert(key(2), &EntryAttrs::new(10, 1.0));
        // Cost is ignored; only size matters: 1/100 < 1/10.
        assert_eq!(gd1.evict(), Some(key(1)));
        assert_eq!(gd1.name(), "gd1");
    }

    #[test]
    fn remove_then_evict_skips_stale_nodes() {
        let mut gds = GreedyDualSize::new();
        gds.on_insert(key(1), &EntryAttrs::new(100, 1.0));
        gds.on_insert(key(2), &EntryAttrs::new(100, 2.0));
        gds.on_remove(key(1));
        assert_eq!(gds.evict(), Some(key(2)));
        assert_eq!(gds.evict(), None);
        assert!(gds.is_empty());
    }

    #[test]
    fn reinsert_updates_metadata() {
        let mut gds = GreedyDualSize::new();
        gds.on_insert(key(1), &EntryAttrs::new(100, 1.0));
        gds.on_insert(key(2), &EntryAttrs::new(100, 50.0));
        // Re-insert key(1) with a much higher cost.
        gds.on_insert(key(1), &EntryAttrs::new(100, 10_000.0));
        assert_eq!(gds.len(), 2);
        assert_eq!(gds.evict(), Some(key(2)), "refreshed entry survives");
    }

    #[test]
    fn a_free_alias_goes_before_the_stage_entry_it_aliases() {
        // A chain that ends on a signed stage prices its rendition at
        // nothing: whatever the stage cost, the alias is the victim.
        let mut gds = GreedyDualSize::new();
        let stage = EntryKey::Stage(placeless_core::digest::md5(b"stage"));
        gds.on_insert(stage, &EntryAttrs::new(100, 1_000.0));
        gds.on_insert(key(1), &EntryAttrs::new(100, 0.0));
        assert_eq!(gds.evict(), Some(key(1)));
        assert_eq!(gds.inflation(), 0.0, "losing an alias ages nothing");
        assert_eq!(gds.evict(), Some(stage));
    }

    #[test]
    fn zero_size_does_not_divide_by_zero() {
        let mut gds = GreedyDualSize::new();
        gds.on_insert(key(1), &EntryAttrs::new(0, 100.0));
        assert_eq!(gds.evict(), Some(key(1)));
    }
}

mod gdsf {
    use super::*;

    #[test]
    fn frequency_raises_credit() {
        let mut gdsf = GdsFrequency::new();
        gdsf.on_insert(key(1), &EntryAttrs::new(100, 100.0));
        gdsf.on_insert(key(2), &EntryAttrs::new(100, 100.0));
        // Hit key(1) three times: its credit triples.
        gdsf.on_hit(key(1));
        gdsf.on_hit(key(1));
        gdsf.on_hit(key(1));
        assert_eq!(gdsf.evict(), Some(key(2)), "unfrequented entry goes first");
        assert_eq!(gdsf.evict(), Some(key(1)));
    }

    #[test]
    fn frequency_can_outweigh_cost() {
        let mut gdsf = GdsFrequency::new();
        gdsf.on_insert(key(1), &EntryAttrs::new(100, 300.0)); // pricey, touched once: H = 3
        gdsf.on_insert(key(2), &EntryAttrs::new(100, 100.0)); // cheap, hot
        for _ in 0..4 {
            gdsf.on_hit(key(2)); // frequency 5: H = 5
        }
        assert_eq!(gdsf.evict(), Some(key(1)));
    }

    #[test]
    fn cost_still_matters_at_equal_frequency() {
        let mut gdsf = GdsFrequency::new();
        gdsf.on_insert(key(1), &EntryAttrs::new(100, 500.0));
        gdsf.on_insert(key(2), &EntryAttrs::new(100, 50.0));
        assert_eq!(gdsf.evict(), Some(key(2)));
    }

    #[test]
    fn inflation_is_monotone() {
        let mut gdsf = GdsFrequency::new();
        for i in 0..12 {
            gdsf.on_insert(key(i), &EntryAttrs::new(10, (i + 1) as f64 * 10.0));
            if i % 3 == 0 {
                gdsf.on_hit(key(i));
            }
        }
        let mut last = 0.0;
        while gdsf.evict().is_some() {
            assert!(gdsf.inflation() >= last);
            last = gdsf.inflation();
        }
        assert!(gdsf.is_empty());
    }

    #[test]
    fn reinsert_preserves_earned_frequency() {
        let mut gdsf = GdsFrequency::new();
        gdsf.on_insert(key(1), &EntryAttrs::new(100, 100.0));
        gdsf.on_hit(key(1));
        gdsf.on_hit(key(1)); // frequency 3
                             // Re-insert (e.g. verifier replaced the content): frequency kept.
        gdsf.on_insert(key(1), &EntryAttrs::new(100, 100.0));
        gdsf.on_insert(key(2), &EntryAttrs::new(100, 250.0)); // frequency 1, H = 2.5 < 3
        assert_eq!(gdsf.evict(), Some(key(2)));
    }
}

mod lru {
    use super::*;

    #[test]
    fn evicts_least_recently_used() {
        let mut lru = Lru::new();
        lru.on_insert(key(1), &EntryAttrs::new(1, 1.0));
        lru.on_insert(key(2), &EntryAttrs::new(1, 1.0));
        lru.on_insert(key(3), &EntryAttrs::new(1, 1.0));
        lru.on_hit(key(1));
        assert_eq!(lru.evict(), Some(key(2)));
        assert_eq!(lru.evict(), Some(key(3)));
        assert_eq!(lru.evict(), Some(key(1)));
    }

    #[test]
    fn hit_order_matters_not_insert_order() {
        let mut lru = Lru::new();
        lru.on_insert(key(1), &EntryAttrs::new(1, 1.0));
        lru.on_insert(key(2), &EntryAttrs::new(1, 1.0));
        lru.on_hit(key(1));
        lru.on_hit(key(2));
        lru.on_hit(key(1));
        assert_eq!(lru.evict(), Some(key(2)));
    }
}

mod lfu {
    use super::*;

    #[test]
    fn evicts_least_frequent() {
        let mut lfu = Lfu::new();
        lfu.on_insert(key(1), &EntryAttrs::new(1, 1.0));
        lfu.on_insert(key(2), &EntryAttrs::new(1, 1.0));
        lfu.on_hit(key(1));
        lfu.on_hit(key(1));
        lfu.on_hit(key(2));
        assert_eq!(lfu.evict(), Some(key(2)));
        assert_eq!(lfu.evict(), Some(key(1)));
    }

    #[test]
    fn ties_break_by_recency() {
        let mut lfu = Lfu::new();
        lfu.on_insert(key(1), &EntryAttrs::new(1, 1.0));
        lfu.on_insert(key(2), &EntryAttrs::new(1, 1.0));
        lfu.on_hit(key(1));
        lfu.on_hit(key(2)); // both at count 2; key(1) older
        assert_eq!(lfu.evict(), Some(key(1)));
    }
}

mod fifo {
    use super::*;

    #[test]
    fn evicts_in_insertion_order() {
        let mut fifo = Fifo::new();
        fifo.on_insert(key(1), &EntryAttrs::new(1, 1.0));
        fifo.on_insert(key(2), &EntryAttrs::new(1, 1.0));
        fifo.on_hit(key(1)); // hits do not matter
        assert_eq!(fifo.evict(), Some(key(1)));
        assert_eq!(fifo.evict(), Some(key(2)));
        assert_eq!(fifo.evict(), None);
    }

    #[test]
    fn duplicate_insert_keeps_original_position() {
        let mut fifo = Fifo::new();
        fifo.on_insert(key(1), &EntryAttrs::new(1, 1.0));
        fifo.on_insert(key(2), &EntryAttrs::new(1, 1.0));
        fifo.on_insert(key(1), &EntryAttrs::new(1, 1.0));
        assert_eq!(fifo.evict(), Some(key(1)));
    }
}

mod size {
    use super::*;

    #[test]
    fn evicts_largest_first() {
        let mut policy = SizePolicy::new();
        policy.on_insert(key(1), &EntryAttrs::new(10, 1.0));
        policy.on_insert(key(2), &EntryAttrs::new(1_000, 1.0));
        policy.on_insert(key(3), &EntryAttrs::new(100, 1.0));
        assert_eq!(policy.evict(), Some(key(2)));
        assert_eq!(policy.evict(), Some(key(3)));
        assert_eq!(policy.evict(), Some(key(1)));
    }

    #[test]
    fn equal_sizes_evict_oldest_first() {
        let mut policy = SizePolicy::new();
        policy.on_insert(key(1), &EntryAttrs::new(10, 1.0));
        policy.on_insert(key(2), &EntryAttrs::new(10, 1.0));
        assert_eq!(policy.evict(), Some(key(1)));
    }
}

/// The Greedy-Dual heap as it was before hits went in place: a node per
/// insert *and per hit*, nodes popped by `evict` alone, a node live while
/// its generation is its entry's. The reference the in-place policies
/// must agree with, victim for victim.
struct PushPerHit {
    /// GDSF: hits raise a frequency that multiplies the credit and
    /// survives a re-insert. GDS keeps it at 1.
    frequency_aware: bool,
    cost_blind: bool,
    /// `(size, cost, frequency, generation)` per tracked key.
    entries: HashMap<EntryKey, (u64, f64, u64, u64)>,
    /// Credits are never negative, so their bit patterns order as they do.
    heap: BinaryHeap<Reverse<(u64, u64, EntryKey)>>,
    inflation: f64,
    next_generation: u64,
}

impl PushPerHit {
    fn new(frequency_aware: bool, cost_blind: bool) -> Self {
        Self {
            frequency_aware,
            cost_blind,
            entries: HashMap::new(),
            heap: BinaryHeap::new(),
            inflation: 0.0,
            next_generation: 0,
        }
    }

    fn push(&mut self, key: EntryKey, size: u64, cost: f64, frequency: u64) {
        let h = self.inflation + frequency as f64 * cost / size.max(1) as f64;
        let generation = self.next_generation;
        self.next_generation += 1;
        self.entries
            .insert(key, (size, cost, frequency, generation));
        self.heap.push(Reverse((h.to_bits(), generation, key)));
    }

    fn on_insert(&mut self, key: EntryKey, attrs: &EntryAttrs) {
        let frequency = match self.entries.get(&key) {
            Some(&(_, _, frequency, _)) if self.frequency_aware => frequency,
            _ => 1,
        };
        let cost = if self.cost_blind { 1.0 } else { attrs.cost };
        self.push(key, attrs.size, cost, frequency);
    }

    fn on_hit(&mut self, key: EntryKey) {
        if let Some(&(size, cost, frequency, _)) = self.entries.get(&key) {
            let frequency = frequency + u64::from(self.frequency_aware);
            self.push(key, size, cost, frequency);
        }
    }

    fn on_remove(&mut self, key: EntryKey) {
        self.entries.remove(&key);
    }

    fn evict(&mut self) -> Option<EntryKey> {
        while let Some(Reverse((h, generation, key))) = self.heap.pop() {
            if self.entries.get(&key).map(|t| t.3) == Some(generation) {
                self.entries.remove(&key);
                self.inflation = self.inflation.max(f64::from_bits(h));
                return Some(key);
            }
        }
        None
    }
}

#[derive(Debug, Clone)]
enum Step {
    Insert { key: u64, size: u64, cost: u32 },
    Hit(u64),
    Remove(u64),
    Evict,
}

/// Few keys, sizes and costs, so steps collide on keys and credits tie.
fn step_strategy() -> impl Strategy<Value = Step> {
    let key = 0u64..10;
    let size = proptest::sample::select(vec![0u64, 1, 64, 64, 100, 4096]);
    let cost = proptest::sample::select(vec![0u32, 1, 100, 100, 1_000, 50_000]);
    // Arms repeat as weights: hits outnumber everything, as in a cache.
    prop_oneof![
        (key.clone(), size, cost).prop_map(|(key, size, cost)| Step::Insert { key, size, cost }),
        key.clone().prop_map(Step::Hit),
        key.clone().prop_map(Step::Hit),
        key.clone().prop_map(Step::Hit),
        key.prop_map(Step::Remove),
        Just(Step::Evict),
    ]
}

/// Drives `policy` and `reference` through `steps` side by side.
fn agree_with_reference<P: ReplacementPolicy>(
    mut policy: P,
    inflation: fn(&P) -> f64,
    mut reference: PushPerHit,
    steps: Vec<Step>,
) {
    for (at, step) in steps.into_iter().enumerate() {
        match step {
            Step::Insert { key: k, size, cost } => {
                let attrs = EntryAttrs::new(size, f64::from(cost));
                policy.on_insert(key(k), &attrs);
                reference.on_insert(key(k), &attrs);
            }
            Step::Hit(k) => {
                policy.on_hit(key(k));
                reference.on_hit(key(k));
            }
            Step::Remove(k) => {
                policy.on_remove(key(k));
                reference.on_remove(key(k));
            }
            Step::Evict => {
                prop_assert_eq!(policy.evict(), reference.evict(), "victim at step {}", at);
            }
        }
        prop_assert_eq!(inflation(&policy).to_bits(), reference.inflation.to_bits());
        prop_assert_eq!(policy.len(), reference.entries.len());
    }
    // What is left comes out in the same order too.
    while let Some(victim) = reference.evict() {
        prop_assert_eq!(policy.evict(), Some(victim));
        prop_assert_eq!(inflation(&policy).to_bits(), reference.inflation.to_bits());
    }
    prop_assert_eq!(policy.evict(), None);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// In-place credit chooses the victims the push-per-hit heap chose,
    /// tie-break included, and inflates `L` to the same values.
    #[test]
    fn in_place_credit_evicts_what_push_per_hit_evicted(
        flavor in proptest::sample::select(vec!["gds", "gd1", "gdsf"]),
        steps in proptest::collection::vec(step_strategy(), 0..400),
    ) {
        match flavor {
            "gds" => agree_with_reference(
                GreedyDualSize::new(),
                GreedyDualSize::inflation,
                PushPerHit::new(false, false),
                steps,
            ),
            "gd1" => agree_with_reference(
                GreedyDualSize::cost_blind(),
                GreedyDualSize::inflation,
                PushPerHit::new(false, true),
                steps,
            ),
            _ => agree_with_reference(
                GdsFrequency::new(),
                GdsFrequency::inflation,
                PushPerHit::new(true, false),
                steps,
            ),
        }
    }
}
