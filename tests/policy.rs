//! The replacement policies through their public API: the contract every
//! policy keeps, each policy's victim order, hits taken through `&self`
//! (by the Greedy-Dual policies side by side, by a caller's policy one at
//! a time), and the Greedy-Dual policies against the push-per-hit heaps
//! they replaced.

use placeless_cache::policy::{
    by_name, EntryAttrs, EntryKey, Fifo, GdsFrequency, GreedyDualSize, Lfu, Lru, PolicyFactory,
    ReplacementPolicy, SizePolicy, ALL_POLICIES,
};
use placeless_core::id::{DocumentId, UserId};
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn key(i: u64) -> EntryKey {
    EntryKey::Version(DocumentId(i), UserId(1))
}

mod contract {
    use super::*;

    #[test]
    fn by_name_knows_all_policies() {
        for name in ALL_POLICIES {
            let policy = by_name(name).unwrap_or_else(|_| panic!("missing {name}"));
            assert!(policy.is_empty());
        }
        assert!(by_name("random").is_err());
    }

    #[test]
    fn by_name_is_case_insensitive() {
        assert_eq!(by_name("GDSF").unwrap().name(), "gdsf");
        assert_eq!(by_name("Lru").unwrap().name(), "lru");
    }

    #[test]
    fn unknown_policy_error_lists_alternatives() {
        let err = by_name("random").err().expect("unknown name must fail");
        assert_eq!(err.requested, "random");
        let message = err.to_string();
        for name in ALL_POLICIES {
            assert!(message.contains(name), "error should list {name}");
        }
    }

    #[test]
    fn factory_builds_independent_instances() {
        let factory = PolicyFactory::by_name("LRU").unwrap();
        assert_eq!(factory.name(), "lru");
        let mut a = factory.build();
        let b = factory.build();
        a.on_insert(
            EntryKey::Version(DocumentId(1), UserId(1)),
            &EntryAttrs::new(1, 1.0),
        );
        assert_eq!(a.len(), 1);
        assert_eq!(b.len(), 0, "instances must not share state");
        assert!(PolicyFactory::by_name("nope").is_err());
    }

    /// Every policy must satisfy the basic contract: inserts are tracked,
    /// evictions drain exactly the tracked keys, removals are honored.
    #[test]
    fn contract_insert_evict_drains() {
        for name in ALL_POLICIES {
            let mut policy = by_name(name).unwrap();
            let keys: Vec<EntryKey> = (0..5)
                .map(|i| EntryKey::Version(DocumentId(i), UserId(1)))
                .collect();
            for (i, &k) in keys.iter().enumerate() {
                policy.on_insert(k, &EntryAttrs::new(100 + i as u64, 1_000.0));
            }
            assert_eq!(policy.len(), 5, "{name}");
            let mut evicted = Vec::new();
            while let Some(victim) = policy.evict() {
                evicted.push(victim);
            }
            assert_eq!(evicted.len(), 5, "{name}");
            let mut sorted = evicted.clone();
            sorted.sort();
            let mut expected = keys.clone();
            expected.sort();
            assert_eq!(sorted, expected, "{name} must evict exactly what it tracks");
        }
    }

    #[test]
    fn contract_remove_prevents_eviction() {
        for name in ALL_POLICIES {
            let mut policy = by_name(name).unwrap();
            let a = EntryKey::Version(DocumentId(1), UserId(1));
            let b = EntryKey::Version(DocumentId(2), UserId(1));
            policy.on_insert(a, &EntryAttrs::new(10, 1.0));
            policy.on_insert(b, &EntryAttrs::new(10, 1.0));
            policy.on_remove(a);
            assert_eq!(policy.len(), 1, "{name}");
            assert_eq!(policy.evict(), Some(b), "{name}");
            assert_eq!(policy.evict(), None, "{name}");
        }
    }
}

mod shared_hits {
    use super::*;

    /// A policy as a caller would have written it before `on_hit_shared`
    /// existed: hits arrive through `&mut self` and nowhere else.
    struct OnHitOnly {
        inner: Box<dyn ReplacementPolicy>,
        /// Counted without synchronisation of its own, mirrored out.
        hits: u64,
        seen: Arc<AtomicU64>,
    }

    impl ReplacementPolicy for OnHitOnly {
        fn name(&self) -> &'static str {
            "on-hit-only"
        }
        fn on_insert(&mut self, key: EntryKey, attrs: &EntryAttrs) {
            self.inner.on_insert(key, attrs);
        }
        fn on_hit(&mut self, key: EntryKey) {
            self.hits += 1;
            self.seen.store(self.hits, Ordering::Relaxed);
            self.inner.on_hit(key);
        }
        fn on_remove(&mut self, key: EntryKey) {
            self.inner.on_remove(key);
        }
        fn evict(&mut self) -> Option<EntryKey> {
            self.inner.evict()
        }
        fn len(&self) -> usize {
            self.inner.len()
        }
    }

    /// The factory serialises a caller's hits: every shared hit is taken,
    /// and reaches `on_hit` exactly once.
    #[test]
    fn a_callers_policy_receives_each_shared_hit_exactly_once() {
        const THREADS: u64 = 4;
        const HITS: u64 = 10_000;
        let seen = Arc::new(AtomicU64::new(0));
        let factory = {
            let seen = seen.clone();
            PolicyFactory::new("on-hit-only", move || {
                Box::new(OnHitOnly {
                    inner: Box::new(Lru::new()),
                    hits: 0,
                    seen: seen.clone(),
                })
            })
        };
        let mut policy = factory.build();
        for i in 0..THREADS {
            policy.on_insert(key(i), &EntryAttrs::new(1, 1.0));
        }
        let policy = &*policy;
        std::thread::scope(|scope| {
            for i in 0..THREADS {
                scope.spawn(move || {
                    for _ in 0..HITS {
                        assert!(policy.on_hit_shared(key(i)), "the hit must be taken");
                    }
                });
            }
        });
        assert_eq!(seen.load(Ordering::Relaxed), THREADS * HITS);
        assert_eq!(policy.len(), THREADS as usize);
        assert_eq!(policy.name(), "on-hit-only");
    }

    /// Bare, the two list-reordering baselines decline a hit through `&`;
    /// as a cache is given them (`PolicyFactory::by_name`) every policy
    /// takes it, so no configured cache escalates a plain hit.
    #[test]
    fn which_policies_take_a_hit_through_a_shared_reference() {
        for name in ALL_POLICIES {
            let mut policy = by_name(name).unwrap();
            policy.on_insert(key(1), &EntryAttrs::new(10, 1.0));
            let taken = policy.on_hit_shared(key(1));
            assert_eq!(taken, !matches!(name, "lru" | "lfu"), "{name}");
            let mut built = PolicyFactory::by_name(name).unwrap().build();
            assert_eq!(built.name(), name);
            built.on_insert(key(1), &EntryAttrs::new(10, 1.0));
            assert!(built.on_hit_shared(key(1)), "{name} as configured");
        }
    }

    /// Two threads hit one key two thousand times each, at once (they
    /// start from a spin barrier: a blocking one wakes the second thread
    /// after the first is done). Whatever the interleaving, the entry ends
    /// where any serial order leaves it: at the credit of 4 001 touches —
    /// a lost hit would let `below` outlive it — and at a generation the
    /// hits handed out, so it leaves after an entry of its credit inserted
    /// before the hits and before one inserted after.
    #[test]
    fn racing_hits_on_one_key_leave_a_serial_outcome() {
        const HITS: u64 = 2_000;
        let touches = (2 * HITS + 1) as f64;
        let (hot, before, below, after) = (key(1), key(2), key(3), key(4));
        for _ in 0..100 {
            let mut gdsf = GdsFrequency::new();
            gdsf.on_insert(hot, &EntryAttrs::new(100, 100.0));
            gdsf.on_insert(before, &EntryAttrs::new(100, 100.0 * touches));
            gdsf.on_insert(below, &EntryAttrs::new(100, 100.0 * touches - 50.0));
            let arrived = AtomicU64::new(0);
            std::thread::scope(|scope| {
                for _ in 0..2 {
                    scope.spawn(|| {
                        arrived.fetch_add(1, Ordering::SeqCst);
                        while arrived.load(Ordering::SeqCst) < 2 {
                            std::hint::spin_loop();
                        }
                        for _ in 0..HITS {
                            assert!(gdsf.on_hit_shared(hot));
                        }
                    });
                }
            });
            gdsf.on_insert(after, &EntryAttrs::new(100, 100.0 * touches));
            let order: Vec<_> = std::iter::from_fn(|| gdsf.evict()).collect();
            assert_eq!(order, [below, before, hot, after]);
        }
    }
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
    /// Credits as [`ordered`] keys.
    heap: BinaryHeap<Reverse<(i64, u64, EntryKey)>>,
    inflation: f64,
    next_generation: u64,
}

/// An `f64`'s bits as an integer that orders as `f64::total_cmp` does,
/// negative credits included. Its own inverse.
fn ordered(bits: i64) -> i64 {
    bits ^ (((bits >> 63) as u64) >> 1) as i64
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
        let h = ordered(h.to_bits() as i64);
        self.heap.push(Reverse((h, generation, key)));
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
                let h = f64::from_bits(ordered(h) as u64);
                self.inflation = self.inflation.max(h);
                return Some(key);
            }
        }
        None
    }
}

#[derive(Debug, Clone)]
enum Step {
    Insert { key: u64, size: u64, cost: i32 },
    Hit(u64),
    Remove(u64),
    Evict,
}

/// Few keys, sizes and costs, so steps collide on keys and credits tie;
/// some costs negative, so a GDSF credit can fall on a hit.
fn step_strategy() -> impl Strategy<Value = Step> {
    let key = 0u64..10;
    let size = proptest::sample::select(vec![0u64, 1, 64, 64, 100, 4096]);
    let cost = proptest::sample::select(vec![-1_000i32, -1, 0, 1, 100, 100, 1_000, 50_000]);
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

/// Drives `policy` and `reference` through `steps` side by side: with
/// `shared`, every hit offered through `&` first, as the cache offers it;
/// without, through `on_hit` alone, as a caller's wrapper forwards it.
fn agree_with_reference<P: ReplacementPolicy>(
    mut policy: P,
    inflation: fn(&P) -> f64,
    mut reference: PushPerHit,
    steps: Vec<Step>,
    shared: bool,
) {
    for (at, step) in steps.into_iter().enumerate() {
        match step {
            Step::Insert { key: k, size, cost } => {
                let attrs = EntryAttrs::new(size, f64::from(cost));
                policy.on_insert(key(k), &attrs);
                reference.on_insert(key(k), &attrs);
            }
            Step::Hit(k) => {
                if !(shared && policy.on_hit_shared(key(k))) {
                    policy.on_hit(key(k));
                }
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
        for shared in [true, false] {
            let steps = steps.clone();
            match flavor {
                "gds" => agree_with_reference(
                    GreedyDualSize::new(),
                    GreedyDualSize::inflation,
                    PushPerHit::new(false, false),
                    steps,
                    shared,
                ),
                "gd1" => agree_with_reference(
                    GreedyDualSize::cost_blind(),
                    GreedyDualSize::inflation,
                    PushPerHit::new(false, true),
                    steps,
                    shared,
                ),
                _ => agree_with_reference(
                    GdsFrequency::new(),
                    GdsFrequency::inflation,
                    PushPerHit::new(true, false),
                    steps,
                    shared,
                ),
            }
        }
    }
}
