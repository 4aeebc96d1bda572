//! Stress test for the sharded cache: eight threads hammer one cache with
//! a mixed read/write/invalidate workload over ~200 documents while the
//! byte budget is tight enough to keep the eviction path hot.
//!
//! The invariants checked are the ones a lock-striping bug would break:
//!
//! * the run completes (no deadlock between shard locks, stripe locks,
//!   and bus-driven re-entry);
//! * every read is accounted exactly once:
//!   `hits + misses + uncacheable_reads == issued reads`;
//! * physical residency never exceeds the budget, *including while the
//!   threads are still running* — the reserve-before-publish fill path
//!   must hold under contention, not just at quiescence.

use placeless::cache::{CacheStats, HitClass, OriginConfig, ReadOptions, WindowConfig};
use placeless::prelude::*;
use placeless_bench::support::TagProperty;
use placeless_simenv::trace::{lorem_bytes, AccessEvent, TraceBuilder};
use placeless_simenv::LatencyModel;
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const THREADS: u64 = 8;
const CACHEABLE_DOCS: usize = 200;
const UNCACHEABLE_DOCS: usize = 8;
const OPS_PER_THREAD: u64 = 400;
const CAPACITY: u64 = 1_024;

/// Deterministic per-thread RNG (xorshift64*), so failures reproduce.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

fn build_world() -> (Arc<DocumentSpace>, Arc<DocumentCache>, Vec<DocumentId>) {
    let space = DocumentSpace::with_middleware_cost(VirtualClock::new(), LatencyModel::FREE);
    let mut docs = Vec::new();
    for i in 0..CACHEABLE_DOCS + UNCACHEABLE_DOCS {
        // Distinct bodies so signature sharing cannot hide eviction
        // pressure; ~26–38 bytes each against a 1 KiB budget.
        let provider = MemoryProvider::new(
            &format!("doc{i}"),
            format!("document {i} body {}", "x".repeat(i % 13)),
            100,
        );
        let doc = space.create_document(UserId(1), provider);
        for user in 2..=THREADS {
            space.add_reference(UserId(user), doc).unwrap();
        }
        space
            .attach_active(Scope::Universal, doc, ContentWriteNotifier::any())
            .unwrap();
        if i >= CACHEABLE_DOCS {
            space
                .attach_active(Scope::Universal, doc, UncacheableMarker::new())
                .unwrap();
        }
        docs.push(doc);
    }
    let cache = DocumentCache::new(
        space.clone(),
        CacheConfig::builder()
            .capacity_bytes(CAPACITY)
            .local_latency(LatencyModel::FREE)
            .shards(8)
            .build(),
    );
    (space, cache, docs)
}

#[test]
fn stress_mixed_ops_hold_invariants() {
    let (space, cache, docs) = build_world();
    let issued_reads = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let cache = &cache;
            let space = &space;
            let docs = &docs;
            let issued_reads = &issued_reads;
            scope.spawn(move || {
                let user = UserId(t + 1);
                let mut rng = Rng(0x9E37_79B9 + t);
                for _ in 0..OPS_PER_THREAD {
                    let roll = rng.next() % 100;
                    if roll < 80 {
                        // Read a cacheable document (Zipf-ish: favor the
                        // low indices so shards see real hit traffic).
                        let r = rng.next();
                        let doc = docs[if r.is_multiple_of(4) {
                            (r / 4) as usize % CACHEABLE_DOCS
                        } else {
                            (r / 4) as usize % 16
                        }];
                        let bytes = cache.read(user, doc).unwrap();
                        assert!(bytes.starts_with(b"document ") || bytes.starts_with(b"rev"));
                        issued_reads.fetch_add(1, Ordering::Relaxed);
                    } else if roll < 85 {
                        // Read an uncacheable document.
                        let doc = docs[CACHEABLE_DOCS + rng.next() as usize % UNCACHEABLE_DOCS];
                        cache.read(user, doc).unwrap();
                        issued_reads.fetch_add(1, Ordering::Relaxed);
                    } else if roll < 95 {
                        // Write through the cache (invalidates everywhere).
                        let doc = docs[rng.next() as usize % CACHEABLE_DOCS];
                        cache
                            .write(user, doc, format!("rev{t} by {}", user.0).as_bytes())
                            .unwrap();
                    } else {
                        // Out-of-band invalidation through the bus.
                        let doc = docs[rng.next() as usize % CACHEABLE_DOCS];
                        space.bus().post(Invalidation::Document(doc));
                    }
                    // The budget must hold *during* the run: fills reserve
                    // room before publishing content.
                    let (physical, logical) = cache.resident_bytes();
                    assert!(
                        physical <= CAPACITY,
                        "budget overshot mid-run: {physical} > {CAPACITY}"
                    );
                    assert!(physical <= logical);
                }
            });
        }
    });

    let stats = cache.stats();
    let issued = issued_reads.load(Ordering::Relaxed);
    assert_eq!(
        stats.hits + stats.misses + stats.uncacheable_reads,
        issued,
        "every read accounted exactly once: {stats:?}"
    );
    assert!(stats.uncacheable_reads > 0, "uncacheable docs were read");
    assert!(stats.evictions > 0, "budget pressure forced evictions");
    assert!(
        stats.notifier_invalidations > 0,
        "bus traffic reached the cache"
    );
    let (physical, _) = cache.resident_bytes();
    assert!(physical <= CAPACITY, "budget holds at quiescence");
    // The entry map and the content store agree after the dust settles.
    assert!(!cache.is_empty());
}

#[test]
fn stress_write_back_flush_races_with_readers() {
    let space = DocumentSpace::with_middleware_cost(VirtualClock::new(), LatencyModel::FREE);
    let mut docs = Vec::new();
    for i in 0..32 {
        let provider = MemoryProvider::new(&format!("wb{i}"), format!("original {i}"), 100);
        let doc = space.create_document(UserId(1), provider);
        for user in 2..=4 {
            space.add_reference(UserId(user), doc).unwrap();
        }
        docs.push(doc);
    }
    let cache = DocumentCache::new(
        space.clone(),
        CacheConfig::builder()
            .capacity_bytes(4_096)
            .write_mode(WriteMode::Back)
            .local_latency(LatencyModel::FREE)
            .shards(4)
            .build(),
    );
    std::thread::scope(|scope| {
        for t in 0..3u64 {
            let cache = &cache;
            let docs = &docs;
            scope.spawn(move || {
                let user = UserId(t + 2);
                let mut rng = Rng(7 + t);
                for round in 0..200 {
                    let doc = docs[rng.next() as usize % docs.len()];
                    if rng.next().is_multiple_of(4) {
                        cache
                            .write(user, doc, format!("w{t}r{round}").as_bytes())
                            .unwrap();
                    } else {
                        cache.read(user, doc).unwrap();
                    }
                }
            });
        }
        let cache = &cache;
        scope.spawn(move || {
            for _ in 0..20 {
                let _ = cache.flush().unwrap();
            }
        });
    });
    let _ = cache.flush().unwrap();
    assert_eq!(cache.dirty_count(), 0, "final flush drained everything");
    let stats = cache.stats();
    assert!(stats.writes > 0);
    assert!(stats.flushes > 0);
}

/// Readers, an installer and a document invalidator race on **one**
/// shard, so shared hits, exclusive installs, verdicts carried from the
/// shared to the exclusive lock (the installer edits the origin out of
/// band, leaving every resident version for its verifier to refute) and
/// index-driven removals all meet on one lock. The race lasts 50 ms and at
/// least `MIN_ROUNDS` rounds a thread. Every body served is one the origin held;
/// afterwards every read is accounted once, the per-document index finds
/// exactly the resident versions, and no content reference is left over.
#[test]
fn stress_one_shard_hits_installs_and_invalidations() {
    const DOCS: usize = 6;
    const READERS: u64 = 2;
    const MIN_ROUNDS: u64 = 300;
    let installer = UserId(READERS + 1);
    let space = DocumentSpace::with_middleware_cost(VirtualClock::new(), LatencyModel::FREE);
    let (docs, origins): (Vec<_>, Vec<_>) = (0..DOCS)
        .map(|i| {
            let provider = MemoryProvider::new(&format!("d{i}"), format!("doc{i} v0"), 100);
            let doc = space.create_document(installer, provider.clone());
            for reader in 1..=READERS {
                space.add_reference(UserId(reader), doc).unwrap();
            }
            (doc, provider)
        })
        .unzip();
    let cache = DocumentCache::new(
        space.clone(),
        CacheConfig::builder()
            .local_latency(LatencyModel::FREE)
            .shards(1)
            .build(),
    );
    // The newest version the installer has started writing, per document.
    let latest: Vec<AtomicU64> = (0..DOCS).map(|_| AtomicU64::new(0)).collect();
    let issued_reads = AtomicU64::new(0);
    let deadline = std::time::Instant::now() + std::time::Duration::from_millis(50);
    let running = |round: &mut u64| {
        *round += 1;
        *round <= MIN_ROUNDS || std::time::Instant::now() < deadline
    };
    let read_checked = |user: UserId, index: usize| {
        let body = cache.read(user, docs[index]).unwrap();
        issued_reads.fetch_add(1, Ordering::Relaxed);
        let body = std::str::from_utf8(&body).unwrap();
        let version = body
            .strip_prefix(&format!("doc{index} v"))
            .unwrap_or_else(|| panic!("doc{index} served {body:?}"));
        let version: u64 = version.parse().unwrap();
        assert!(version <= latest[index].load(Ordering::SeqCst), "{body:?}");
    };
    std::thread::scope(|scope| {
        for reader in 1..=READERS {
            let read_checked = &read_checked;
            scope.spawn(move || {
                let (mut rng, mut round) = (Rng(0xC0FFEE + reader), 0);
                while running(&mut round) {
                    read_checked(UserId(reader), rng.next() as usize % DOCS);
                }
            });
        }
        scope.spawn(|| {
            let (mut rng, mut round) = (Rng(0xBEEF), 0);
            while running(&mut round) {
                let index = rng.next() as usize % DOCS;
                let version = latest[index].fetch_add(1, Ordering::SeqCst) + 1;
                origins[index].set_out_of_band(format!("doc{index} v{version}"));
                read_checked(installer, index);
            }
        });
        scope.spawn(|| {
            let (mut rng, mut round) = (Rng(0xD00D), 0);
            while running(&mut round) {
                let doc = docs[rng.next() as usize % DOCS];
                space.bus().post(Invalidation::Document(doc));
            }
        });
    });

    let stats = cache.stats();
    assert_eq!(
        stats.hits + stats.misses + stats.uncacheable_reads,
        issued_reads.load(Ordering::Relaxed),
        "every read accounted exactly once: {stats:?}"
    );
    assert!(stats.hits > 0 && stats.misses > 0 && stats.verifier_invalidations > 0);
    for &doc in &docs {
        let (len, notified) = (cache.len(), cache.stats().notifier_invalidations);
        space.bus().post(Invalidation::Document(doc));
        let counted = cache.stats().notifier_invalidations - notified;
        assert_eq!((len - cache.len()) as u64, counted, "index and table agree");
    }
    assert!(cache.is_empty(), "the index found every resident version");
    assert_eq!(cache.resident_bytes(), (0, 0), "no reference left over");
}

/// Eight threads, ten thousand reads each — hits, partial hits over shared
/// stage entries, whole misses — counted into per-thread blocks. Every
/// read is a hit or a miss exactly once in the sum; `inflight_peak`, which
/// every thread raises, is the most fetches that ran at once (two, the
/// origin's window) and not a sum over threads; and `stage_bytes`, raised
/// and lowered by whichever thread fills or evicts, is what the resident
/// stage entries hold — nothing, once they have all been evicted.
#[test]
fn stress_counters_add_up_across_threads() {
    const DOCS: usize = 24;
    const READS: u64 = 10_000;
    const WINDOW: u32 = 2;
    const CAPACITY: u64 = 64 * 1024;
    let space = DocumentSpace::with_middleware_cost(VirtualClock::new(), LatencyModel::FREE);
    let users: Vec<UserId> = (1..=THREADS).map(UserId).collect();
    // One label, so one origin and one window for all of them.
    let document = |body: String, fetch_cost| {
        let doc = space.create_document(users[0], MemoryProvider::new("origin", body, fetch_cost));
        for &user in &users[1..] {
            space.add_reference(user, doc).unwrap();
        }
        doc
    };
    let docs: Vec<DocumentId> = (0..DOCS)
        .map(|i| {
            let doc = document(format!("document {i} {}", "x".repeat(40 + i)), 100);
            let shared = TagProperty::new("all", 100);
            space.attach_active(Scope::Universal, doc, shared).unwrap();
            for &user in &users {
                let own = TagProperty::new(&format!("u{}", user.0), 100);
                space
                    .attach_active(Scope::Personal(user), doc, own)
                    .unwrap();
            }
            doc
        })
        .collect();
    let cache = DocumentCache::new(
        space.clone(),
        CacheConfig::builder()
            .capacity_bytes(CAPACITY)
            .local_latency(LatencyModel::FREE)
            .stage_cache(true)
            .origin(OriginConfig::default().window(WindowConfig::new(WINDOW)))
            .shards(4)
            .build(),
    );
    std::thread::scope(|scope| {
        for &user in &users {
            let (cache, space, docs) = (&cache, &space, &docs);
            scope.spawn(move || {
                let mut rng = Rng(0xFACADE + user.0);
                for read in 0..READS {
                    let doc = docs[rng.next() as usize % DOCS];
                    if read % 64 == 63 {
                        // Keeps misses coming once everything is resident.
                        space.bus().post(Invalidation::UserDocument(doc, user));
                    }
                    cache.read(user, doc).unwrap();
                }
            });
        }
    });

    let stats = cache.stats();
    assert_eq!(stats.hits + stats.misses, THREADS * READS, "{stats:?}");
    assert!(stats.hits > stats.misses && stats.stage_partial_hits > 0);
    assert!(
        (1..=u64::from(WINDOW)).contains(&stats.inflight_peak),
        "a peak of {} through a window of {WINDOW}",
        stats.inflight_peak
    );
    for &doc in &docs {
        space.bus().post(Invalidation::Document(doc));
    }
    assert!(cache.stage_entry_count() > 0);
    assert_eq!(cache.len(), cache.stage_entry_count());
    assert_eq!(cache.resident_bytes().1, cache.stats().stage_bytes);
    // Entries no stage entry can outbid, a cache's worth of them.
    for i in 0..64 {
        let doc = document(format!("pricey {i} {}", "y".repeat(2_000)), 1_000_000_000);
        cache.read(users[0], doc).unwrap();
    }
    assert_eq!(cache.stage_entry_count(), 0);
    assert_eq!(cache.stats().stage_bytes, 0);
}

/// What one [`drive_trace`] run saw: reads per [`HitClass`] (indexed by
/// `class as usize`), and the cache's counters across the run.
struct TraceRun {
    classes: [u64; 5],
    stats: CacheStats,
}

impl TraceRun {
    fn class(&self, class: HitClass) -> u64 {
        self.classes[class as usize]
    }
}

/// Drives four threads, each on its own stream of one seeded population
/// trace, through a cache of `shards` shards holding `capacity` bytes.
/// Every document carries `base_chain` universal (stage-cacheable) tags;
/// only the `(user, document)` pairs the trace names are referenced.
fn drive_trace(trace: &TraceBuilder, base_chain: usize, shards: usize, capacity: u64) -> TraceRun {
    const STREAMS: u64 = 4;
    const OPS_PER_STREAM: usize = 1_500;
    let sampler = trace.build();
    let streams: Vec<Vec<AccessEvent>> = (0..STREAMS)
        .map(|id| {
            let mut rng = sampler.stream(id);
            (0..OPS_PER_STREAM)
                .map(|_| sampler.next_event(&mut rng))
                .collect()
        })
        .collect();

    let space = DocumentSpace::with_middleware_cost(VirtualClock::new(), LatencyModel::FREE);
    let docs: Vec<DocumentId> = (0..sampler.documents())
        .map(|d| {
            let provider = MemoryProvider::new(&format!("doc{d}"), lorem_bytes(d as u64, 128), 200);
            let doc = space.create_document(UserId(0), provider);
            for i in 0..base_chain {
                let tag = TagProperty::new(&format!("base-{i}"), 100);
                space.attach_active(Scope::Universal, doc, tag).unwrap();
            }
            doc
        })
        .collect();
    let pairs: HashSet<(usize, usize)> =
        streams.iter().flatten().map(|e| (e.user, e.doc)).collect();
    for (user, doc) in pairs {
        space
            .add_reference(UserId(user as u64 + 1), docs[doc])
            .unwrap();
    }
    let cache = DocumentCache::new(
        space,
        CacheConfig::builder()
            .capacity_bytes(capacity)
            .local_latency(LatencyModel::FREE)
            .shards(shards)
            .stage_cache(base_chain > 0)
            .build(),
    );

    let before = cache.stats();
    let classes: [AtomicU64; 5] = std::array::from_fn(|_| AtomicU64::new(0));
    std::thread::scope(|scope| {
        for stream in &streams {
            let (cache, docs, classes) = (&cache, &docs, &classes);
            scope.spawn(move || {
                for (i, e) in stream.iter().enumerate() {
                    let (user, doc) = (UserId(e.user as u64 + 1), docs[e.doc]);
                    if e.is_write {
                        let body = format!("rev {i} by {}", e.user);
                        cache.write(user, doc, body.as_bytes()).unwrap();
                    } else {
                        let outcome = cache.read_with(user, doc, ReadOptions::default()).unwrap();
                        classes[outcome.class as usize].fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    TraceRun {
        classes: classes.map(AtomicU64::into_inner),
        stats: cache.stats().delta(&before),
    }
}

/// The class each read reports and the counters the cache keeps are two
/// accounts of the same reads; under a multi-threaded population trace
/// with writes they must still agree.
#[test]
fn outcome_classes_match_counter_delta() {
    let trace = TraceBuilder::new(42).users(2_000).documents(128);
    let r = drive_trace(&trace, 2, 4, 1 << 30);
    // Whole-version hits + coalesced waits both count as `hits` in the
    // counters; the outcome classes split them apart.
    assert_eq!(
        r.class(HitClass::Hit) + r.class(HitClass::CoalescedWait) + r.class(HitClass::StaleServed),
        r.stats.hits + r.stats.stale_served,
    );
    assert_eq!(
        r.class(HitClass::Miss) + r.class(HitClass::PartialHit),
        r.stats.misses
    );
    // `coalesced_waits` also counts *stage*-flight waiters, which are
    // classified Miss/PartialHit (their version fetch ran; only a
    // stage inside it coalesced) — so the counter dominates the class.
    assert!(r.stats.coalesced_waits >= r.class(HitClass::CoalescedWait));
    // A population trace is cold per (user, document) most of the time;
    // what the cache shares across it is the staged base prefix.
    let reads: u64 = r.classes.iter().sum();
    assert!(r.class(HitClass::Hit) > 0, "Zipf head never repeated");
    assert!(
        r.class(HitClass::Miss) * 5 < reads,
        "under 80% of reads shared work: {:?}",
        r.classes
    );
    assert!(r.stats.stage_hits > 0, "staged prefix never shared");
}

/// Sharding must not change what is a hit: over a hit-dominated read
/// trace the hit rate of 16 shards agrees with the single-shard
/// (global-lock) cache within 2 points. The budget is half the per-user
/// working set, which holds the corpus because the four users share its
/// bytes — so only the interleaving differs between the runs, not the
/// victims. (Under a budget that binds, per-shard victim choice costs a
/// corpus this small 2 to 5 points; nothing gates that.)
#[test]
fn hit_rate_parity_across_shard_counts() {
    let trace = TraceBuilder::new(42)
        .users(4)
        .documents(64)
        .locality(0.0)
        .write_fraction(0.0);
    let capacity = 64 * 128 * 4 / 2;
    let hit_rate = |shards| {
        let stats = drive_trace(&trace, 0, shards, capacity).stats;
        stats.hit_rate().unwrap()
    };
    let (single, sharded) = (hit_rate(1), hit_rate(16));
    assert!(single > 0.5, "the trace is hit-dominated: {single}");
    assert!(
        (single - sharded).abs() < 0.02,
        "hit-rate divergence: {single} vs {sharded}"
    );
}
