//! Property-based tests over the caching layer: the content store against
//! a reference model (and its budget and refcount examples), the entry
//! table held to what its policies were told through fills, evictions and
//! invalidations, replacement-policy contracts under random operation
//! sequences, GDS invariants, and the simulation substrate.

use bytes::Bytes;
use placeless_bench::support::TagProperty;
use placeless_cache::policy::{
    by_name, EntryAttrs, EntryKey, GreedyDualSize, PolicyFactory, ReplacementPolicy, ALL_POLICIES,
};
use placeless_cache::store::NoRoom;
use placeless_cache::{CacheConfig, ConcurrentStore, DocumentCache, HitClass, ReadOptions};
use placeless_core::prelude::*;
use placeless_simenv::trace::{WorkloadBuilder, ZipfSampler};
use placeless_simenv::{LatencyModel, SimRng, VirtualClock};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex};

fn key_strategy() -> impl Strategy<Value = EntryKey> {
    (0u64..12, 0u64..4).prop_map(|(d, u)| EntryKey::Version(DocumentId(d), UserId(u)))
}

/// Operations the store/policy models replay.
#[derive(Debug, Clone)]
enum Op {
    Insert(EntryKey, u8),
    Remove(EntryKey),
    Hit(EntryKey),
    Evict,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (key_strategy(), any::<u8>()).prop_map(|(k, v)| Op::Insert(k, v)),
        key_strategy().prop_map(Op::Remove),
        key_strategy().prop_map(Op::Hit),
        Just(Op::Evict),
    ]
}

const BALANCE_DOCS: u64 = 4;
const BALANCE_USERS: u64 = 3;
/// About a third of what the world's stage and version entries need, so
/// most fills evict.
const BALANCE_CAPACITY: u64 = 250;

/// What the shards' policies have been told, which is what their tables
/// must hold: every unpinned entry enters a policy when it is installed
/// and leaves it when it is evicted or invalidated.
type Ledger = Arc<Mutex<HashMap<EntryKey, EntryAttrs>>>;

/// The default policy, keeping a [`Ledger`].
struct LedgerPolicy {
    inner: Box<dyn ReplacementPolicy>,
    ledger: Ledger,
}

impl ReplacementPolicy for LedgerPolicy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn on_insert(&mut self, key: EntryKey, attrs: &EntryAttrs) {
        self.ledger.lock().unwrap().insert(key, *attrs);
        self.inner.on_insert(key, attrs);
    }
    fn on_hit(&mut self, key: EntryKey) {
        self.inner.on_hit(key);
    }
    fn on_remove(&mut self, key: EntryKey) {
        self.ledger.lock().unwrap().remove(&key);
        self.inner.on_remove(key);
    }
    fn evict(&mut self) -> Option<EntryKey> {
        let victim = self.inner.evict()?;
        self.ledger.lock().unwrap().remove(&victim);
        Some(victim)
    }
    fn len(&self) -> usize {
        self.inner.len()
    }
}

fn ledgered(ledger: &Ledger) -> PolicyFactory {
    let ledger = ledger.clone();
    PolicyFactory::new("ledgered", move || {
        Box::new(LedgerPolicy {
            inner: PolicyFactory::default().build(),
            ledger: ledger.clone(),
        })
    })
}

/// Holds the entry table to the ledger: the same keys (so each shard's
/// per-document index finds exactly its versions, and the stage count is
/// a recount), the same bytes, inside the budget.
fn table_matches_ledger(
    cache: &DocumentCache,
    ledger: &Ledger,
    pairs: &[(UserId, DocumentId)],
    capacity: u64,
) {
    let ledger = ledger.lock().unwrap();
    assert_eq!(cache.len(), ledger.len());
    let stages = ledger.keys().filter(|key| key.is_stage()).count();
    assert_eq!(cache.stage_entry_count(), stages);
    for &(user, doc) in pairs {
        let listed = ledger.contains_key(&EntryKey::Version(doc, user));
        assert_eq!(cache.contains(user, doc), listed, "{user:?} of {doc:?}");
    }
    let (physical, logical) = cache.resident_bytes();
    assert!(physical <= capacity, "{physical} over budget");
    assert!(physical <= logical);
    // One store reference per entry, each counted at the entry's size.
    let listed: u64 = ledger.values().map(|attrs| attrs.size).sum();
    assert_eq!(logical, listed);
}

/// Every document carries one universal signed stage and one signed
/// personal suffix per user, behind a write-through stage-caching cache of
/// `capacity` bytes.
fn staged_chain_world(
    shards: usize,
    capacity: u64,
    ledger: &Ledger,
) -> (
    Arc<DocumentSpace>,
    Arc<DocumentCache>,
    Vec<DocumentId>,
    Vec<UserId>,
) {
    let space = DocumentSpace::with_middleware_cost(VirtualClock::new(), LatencyModel::FREE);
    let users: Vec<UserId> = (1..=BALANCE_USERS).map(UserId).collect();
    let docs: Vec<DocumentId> = (0..BALANCE_DOCS)
        .map(|d| {
            let body = format!("document {d} body, thirty-two bytes");
            let doc = space.create_document(users[0], MemoryProvider::new("d", body, 100));
            space
                .attach_active(Scope::Universal, doc, TagProperty::new("all", 100))
                .expect("doc exists");
            for &user in &users {
                if user != users[0] {
                    space.add_reference(user, doc).expect("doc exists");
                }
                let own = TagProperty::new(&format!("u{}", user.0), 100);
                space
                    .attach_active(Scope::Personal(user), doc, own)
                    .expect("reference exists");
            }
            doc
        })
        .collect();
    let cache = DocumentCache::new(
        space.clone(),
        CacheConfig::builder()
            .capacity_bytes(capacity)
            .local_latency(LatencyModel::FREE)
            .stage_cache(true)
            .shards(shards)
            .policy(ledgered(ledger))
            .build(),
    );
    (space, cache, docs, users)
}

proptest! {
    /// The content store behaves like a plain `(key → bytes)` map when
    /// driven the way a cache shard drives it — one reference per bound
    /// key, released on re-point and removal — while storing each distinct
    /// value once.
    #[test]
    fn shared_store_matches_reference_model(ops in proptest::collection::vec(op_strategy(), 0..200)) {
        let store = ConcurrentStore::new();
        // Content derived from the value: equal values share.
        let content = |v: u8| Bytes::from(vec![v; 16]);
        let sig = |v: u8| ConcurrentStore::signature_of(&[v; 16]);
        let mut model: HashMap<EntryKey, u8> = HashMap::new();
        for op in ops {
            match op {
                Op::Insert(key, v) => {
                    if let Some(old) = model.remove(&key) {
                        store.release(sig(old));
                    }
                    let (stored, shared) = store
                        .try_acquire(sig(v), &content(v), u64::MAX)
                        .expect("no budget to exceed");
                    prop_assert_eq!(shared, model.values().any(|&other| other == v));
                    // What comes back is what the store keeps.
                    prop_assert_eq!(stored.as_ptr(), store.get(sig(v)).expect("held").as_ptr());
                    model.insert(key, v);
                }
                Op::Remove(key) => {
                    if let Some(old) = model.remove(&key) {
                        store.release(sig(old));
                    }
                }
                _ => {}
            }
            // Lookups agree.
            for &v in model.values() {
                prop_assert_eq!(store.get(sig(v)), Some(content(v)));
            }
            // Physical bytes: one copy per distinct value.
            let distinct: HashSet<u8> = model.values().copied().collect();
            prop_assert_eq!(store.physical_bytes(), distinct.len() as u64 * 16);
            prop_assert_eq!(store.logical_bytes(), model.len() as u64 * 16);
        }
        for (_, v) in model.drain() {
            store.release(sig(v));
        }
        prop_assert_eq!((store.physical_bytes(), store.logical_bytes()), (0, 0));
    }

    /// Every policy maintains the contract: it tracks exactly the live
    /// keys, evicts only live keys, and empties exactly when drained.
    #[test]
    fn policy_contract_under_random_ops(
        name in proptest::sample::select(ALL_POLICIES.to_vec()),
        ops in proptest::collection::vec(op_strategy(), 0..200),
    ) {
        let mut policy = by_name(name).unwrap();
        let mut live: HashSet<EntryKey> = HashSet::new();
        for op in ops {
            match op {
                Op::Insert(key, v) => {
                    policy.on_insert(key, &EntryAttrs::new(1 + v as u64, v as f64 + 1.0));
                    live.insert(key);
                }
                Op::Remove(key) => {
                    policy.on_remove(key);
                    live.remove(&key);
                }
                Op::Hit(key) => {
                    // Hits on non-resident keys may occur in the manager
                    // only for resident ones; policies must tolerate both.
                    policy.on_hit(key);
                }
                Op::Evict => {
                    match policy.evict() {
                        Some(victim) => {
                            prop_assert!(live.remove(&victim), "{}: evicted dead key", name);
                        }
                        None => prop_assert!(live.is_empty(), "{}: refused with live keys", name),
                    }
                }
            }
            prop_assert_eq!(policy.len(), live.len(), "{}", name);
        }
        // Drain: every live key comes out exactly once.
        let mut drained = HashSet::new();
        while let Some(victim) = policy.evict() {
            prop_assert!(drained.insert(victim), "{}: duplicate eviction", name);
        }
        prop_assert_eq!(drained, live, "{}", name);
    }

    /// GDS inflation (`L`) never decreases, and eviction order respects
    /// credits for a pure-insert workload.
    #[test]
    fn gds_inflation_is_monotone(costs in proptest::collection::vec(1u64..10_000, 1..64)) {
        let mut gds = GreedyDualSize::new();
        for (i, &cost) in costs.iter().enumerate() {
            gds.on_insert(
                EntryKey::Version(DocumentId(i as u64), UserId(1)),
                &EntryAttrs::new(100, cost as f64),
            );
        }
        let mut last = gds.inflation();
        while gds.evict().is_some() {
            prop_assert!(gds.inflation() >= last);
            last = gds.inflation();
        }
    }

    /// For equal sizes and no hits, GDS evicts in ascending cost order.
    #[test]
    fn gds_pure_insert_evicts_cheapest_first(costs in proptest::collection::vec(1u64..1_000_000, 1..40)) {
        let mut gds = GreedyDualSize::new();
        for (i, &cost) in costs.iter().enumerate() {
            gds.on_insert(
                EntryKey::Version(DocumentId(i as u64), UserId(1)),
                &EntryAttrs::new(64, cost as f64),
            );
        }
        let mut evicted_costs = Vec::new();
        while let Some(victim) = gds.evict() {
            let EntryKey::Version(DocumentId(i), _) = victim else {
                panic!("only version keys were inserted");
            };
            evicted_costs.push(costs[i as usize]);
        }
        let mut sorted = evicted_costs.clone();
        sorted.sort_unstable();
        prop_assert_eq!(evicted_costs, sorted);
    }

    /// The virtual clock never goes backwards under arbitrary advances.
    #[test]
    fn clock_is_monotone(advances in proptest::collection::vec(0u64..1_000_000, 0..64)) {
        let clock = VirtualClock::new();
        let mut last = clock.now();
        for a in advances {
            if a % 2 == 0 {
                clock.advance(a);
            } else {
                clock.advance_to(placeless_simenv::Instant(a));
            }
            let now = clock.now();
            prop_assert!(now >= last);
            last = now;
        }
    }

    /// Zipf samples stay within the universe and the generator is
    /// deterministic per seed.
    #[test]
    fn zipf_within_bounds(n in 1usize..500, theta in 0.0f64..1.5, seed in any::<u64>()) {
        let zipf = ZipfSampler::new(n, theta);
        let mut a = SimRng::seeded(seed);
        let mut b = SimRng::seeded(seed);
        for _ in 0..64 {
            let x = zipf.sample(&mut a);
            prop_assert!(x < n);
            prop_assert_eq!(x, zipf.sample(&mut b));
        }
    }

    /// Workloads honor their parameters.
    #[test]
    fn workload_respects_parameters(
        seed in any::<u64>(),
        users in 1usize..8,
        docs in 1usize..64,
        events in 0usize..256,
    ) {
        let workload = WorkloadBuilder::new(seed)
            .users(users)
            .documents(docs)
            .events(events)
            .build();
        prop_assert_eq!(workload.len(), events);
        for e in &workload {
            prop_assert!(e.user < users);
            prop_assert!(e.doc < docs);
        }
    }

    /// `SimRng::next_range` is inclusive and in bounds.
    #[test]
    fn rng_range_inclusive(seed in any::<u64>(), lo in 0u64..1000, span in 0u64..1000) {
        let hi = lo + span;
        let mut rng = SimRng::seeded(seed);
        for _ in 0..32 {
            let v = rng.next_range(lo, hi);
            prop_assert!((lo..=hi).contains(&v));
        }
    }
}

// ---- The content store's budget and refcounts, by example ---------------

fn bytes(s: &str) -> Bytes {
    Bytes::copy_from_slice(s.as_bytes())
}

#[test]
fn dedup_shares_physical_bytes() {
    let store = ConcurrentStore::new();
    let content = bytes("hello world");
    let sig = ConcurrentStore::signature_of(&content);
    assert_eq!(
        store.try_acquire(sig, &content, 1_000),
        Ok((content.clone(), false))
    );
    // A second holder is handed the first one's allocation, not its own.
    let same_text = bytes("hello world");
    let (stored, shared) = store.try_acquire(sig, &same_text, 1_000).unwrap();
    assert!(shared);
    assert_eq!(stored.as_ptr(), content.as_ptr());
    assert_ne!(stored.as_ptr(), same_text.as_ptr());
    assert_eq!(store.physical_bytes(), 11);
    assert_eq!(store.logical_bytes(), 22);
    store.release(sig);
    assert_eq!(store.physical_bytes(), 11);
    assert_eq!(store.get(sig).unwrap(), content);
    store.release(sig);
    assert_eq!(store.physical_bytes(), 0);
    assert_eq!(store.logical_bytes(), 0);
    assert!(store.get(sig).is_none());
}

#[test]
fn try_acquire_respects_budget() {
    let store = ConcurrentStore::new();
    let a = bytes("aaaaaaaa");
    let sig_a = ConcurrentStore::signature_of(&a);
    assert_eq!(store.try_acquire(sig_a, &a, 10), Ok((a.clone(), false)));
    let b = bytes("bbbbbbbb");
    let sig_b = ConcurrentStore::signature_of(&b);
    assert_eq!(store.try_acquire(sig_b, &b, 10), Err(NoRoom));
    // A shared acquire charges no physical bytes, so it always fits.
    assert_eq!(store.try_acquire(sig_a, &a, 10), Ok((a.clone(), true)));
    store.release(sig_a);
    store.release(sig_a);
    assert_eq!(store.try_acquire(sig_b, &b, 10), Ok((b.clone(), false)));
}

#[test]
fn concurrent_acquires_never_overshoot() {
    let store = ConcurrentStore::new();
    let budget = 400u64;
    std::thread::scope(|scope| {
        for t in 0..8 {
            let store = &store;
            scope.spawn(move || {
                for i in 0..200 {
                    let content = bytes(&format!("content-{t}-{i}-padpadpad"));
                    let sig = ConcurrentStore::signature_of(&content);
                    if store.try_acquire(sig, &content, budget).is_ok() {
                        assert!(store.physical_bytes() <= budget);
                        store.release(sig);
                    }
                }
            });
        }
    });
    assert_eq!(store.physical_bytes(), 0);
}

/// Re-pointing a key the way a shard does — release the old binding's
/// reference, acquire the new content — must decrement the *old*
/// signature's refcount, and orphaned bytes must leave the store at
/// once, not linger until some later release.
#[test]
fn repoint_decrements_old_refcount_and_evicts_orphans() {
    let store = ConcurrentStore::new();
    let (v1, v2) = (bytes("v1-bytes"), bytes("v2-bytes!"));
    let (sig1, sig2) = (
        ConcurrentStore::signature_of(&v1),
        ConcurrentStore::signature_of(&v2),
    );
    // Two keys share v1; a third holds v2.
    assert!(!store.acquire(sig1, &v1).1);
    assert!(store.acquire(sig1, &v1).1);
    assert!(!store.acquire(sig2, &v2).1);
    assert_eq!(store.physical_bytes(), 8 + 9);

    // Re-point one v1 holder onto v2: v1 must survive (one ref left)
    // and the fill must report sharing v2's bytes.
    store.release(sig1);
    assert!(store.acquire(sig2, &v2).1, "v2 bytes were already resident");
    assert!(store.get(sig1).is_some(), "one v1 reference remains");
    assert_eq!(store.logical_bytes(), 8 + 9 + 9);

    // Re-point the last v1 holder: the orphaned v1 bytes must go with
    // the release itself.
    store.release(sig1);
    assert!(store.get(sig1).is_none(), "v1 orphan evicted");
    assert!(store.acquire(sig2, &v2).1);
    assert_eq!(store.physical_bytes(), 9);

    // And the refcount actually moved: dropping two of the three v2
    // holders keeps the bytes, dropping the last frees them.
    store.release(sig2);
    store.release(sig2);
    assert_eq!(store.physical_bytes(), 9, "still one v2 reference");
    store.release(sig2);
    assert_eq!((store.physical_bytes(), store.logical_bytes()), (0, 0));
}

// ---- One content, one allocation, however many names hold it ------------

/// Two users' versions of one content and the stage entry they alias serve
/// the very same allocation — the first reader's computed bytes, which the
/// store kept — and the store counts it once. So do two users' versions in
/// a cache without stage entries, where each miss computed a copy of its
/// own: the second fill keeps the store's bytes, not the copy it brought.
#[test]
fn every_holder_of_one_content_serves_one_allocation() {
    for staged in [true, false] {
        let space = DocumentSpace::with_middleware_cost(VirtualClock::new(), LatencyModel::FREE);
        let (ann, ben) = (UserId(1), UserId(2));
        let doc = space.create_document(ann, MemoryProvider::new("d", "one shared body", 100));
        space.add_reference(ben, doc).expect("doc exists");
        space
            .attach_active(Scope::Universal, doc, TagProperty::new("all", 100))
            .expect("doc exists");
        let config = CacheConfig::builder()
            .local_latency(LatencyModel::FREE)
            .stage_cache(staged)
            .build();
        let cache = DocumentCache::new(space, config);
        let read = |user, class| {
            let outcome = cache
                .read_with(user, doc, ReadOptions::default())
                .expect("the origin is up");
            assert_eq!(outcome.class, class, "staged: {staged}");
            outcome.bytes
        };
        let filled = read(ann, HitClass::Miss);
        let second_fill = if staged {
            HitClass::PartialHit
        } else {
            HitClass::Miss
        };
        let served = [
            read(ben, second_fill),
            read(ann, HitClass::Hit),
            read(ben, HitClass::Hit),
        ];
        if staged {
            // The walk adopted the stage entry's bytes: the store's.
            assert_eq!(served[0].as_ptr(), filled.as_ptr());
        }
        for bytes in &served[1..] {
            assert_eq!(bytes.as_ptr(), filled.as_ptr(), "staged: {staged}");
        }
        let (versions, stage_entries) = (2, u64::from(staged));
        let size = filled.len() as u64;
        assert_eq!(
            cache.resident_bytes(),
            (size, size * (versions + stage_entries))
        );
    }
}

// ---- The entry table under `install`, by a long seeded walk --------------

/// Four thousand seeded steps of fills, user- and document-scoped
/// invalidations over three shards with room for about a third of what the
/// walk touches, so installs evict (own shard and stolen) while
/// invalidations run: after every step the table is what its policies were
/// told, and a document-scoped invalidation leaves no version of its
/// document in any shard.
#[test]
fn entry_table_follows_its_ledger_through_fills_evictions_and_invalidations() {
    let ledger = Ledger::default();
    let (space, cache, docs, users) = staged_chain_world(3, BALANCE_CAPACITY, &ledger);
    let pairs: Vec<(UserId, DocumentId)> = users
        .iter()
        .flat_map(|&user| docs.iter().map(move |&doc| (user, doc)))
        .collect();
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    for step in 0..4_000u64 {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let doc = docs[((state >> 33) % BALANCE_DOCS) as usize];
        let user = users[((state >> 40) % BALANCE_USERS) as usize];
        match (state >> 60) % 8 {
            0 => {
                space.bus().post(Invalidation::Document(doc));
                let ledger = ledger.lock().unwrap();
                let left = ledger
                    .keys()
                    .filter(|key| matches!(key, EntryKey::Version(d, _) if *d == doc))
                    .count();
                assert_eq!(left, 0, "after step {step}");
            }
            1 => space.bus().post(Invalidation::UserDocument(doc, user)),
            _ => drop(cache.read(user, doc).expect("read must succeed")),
        }
        table_matches_ledger(&cache, &ledger, &pairs, BALANCE_CAPACITY);
    }
    assert!(cache.stats().evictions > 0, "the budget never bit");
}
