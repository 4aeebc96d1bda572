//! The cache manager's behaviour through its public API: hit and miss
//! paths, verifiers, notifier invalidation, signature sharing, capacity,
//! both write modes, the journal and recovery, cacheability, plan leases,
//! the config builder, and op-based writes.

use bytes::Bytes;
use placeless_bench::support::TagProperty;
use placeless_cache::policy::{EntryAttrs, EntryKey, PolicyFactory, ReplacementPolicy};
use placeless_cache::{
    default_shard_count, CacheConfig, ConflictHook, ConflictResolution, DocumentCache, HitClass,
    MergePolicy, PrefetchConfig, ReadOptions, WriteJournal, WriteMode,
};
use placeless_core::op::rebasable;
use placeless_core::prelude::*;
use placeless_simenv::{LatencyModel, VirtualClock};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

const ALICE: UserId = UserId(1);
const BOB: UserId = UserId(2);

fn setup(content: &str, fetch_cost: u64) -> (Arc<DocumentSpace>, Arc<MemoryProvider>, DocumentId) {
    let clock = VirtualClock::new();
    let space = DocumentSpace::with_middleware_cost(clock, LatencyModel::FREE);
    let provider = MemoryProvider::new("t", content.to_owned(), fetch_cost);
    let doc = space.create_document(ALICE, provider.clone());
    (space, provider, doc)
}

fn quiet_config() -> CacheConfig {
    CacheConfig {
        local_latency: LatencyModel::FREE,
        ..CacheConfig::default()
    }
}

#[test]
fn miss_then_hit() {
    let (space, _provider, doc) = setup("content", 1_000);
    let cache = DocumentCache::new(space, quiet_config());
    assert_eq!(
        cache.read(ALICE, doc).expect("read must succeed"),
        "content"
    );
    assert_eq!(
        cache.read(ALICE, doc).expect("read must succeed"),
        "content"
    );
    let stats = cache.stats();
    assert_eq!((stats.misses, stats.hits), (1, 1));
    assert!(cache.contains(ALICE, doc));
}

#[test]
fn hits_are_much_faster_than_misses() {
    let (space, _provider, doc) = setup("content", 50_000);
    let clock = space.clock().clone();
    let cache = DocumentCache::new(space, quiet_config());
    let t0 = clock.now();
    cache.read(ALICE, doc).expect("read must succeed");
    let miss_time = clock.now().since(t0);
    let t1 = clock.now();
    cache.read(ALICE, doc).expect("read must succeed");
    let hit_time = clock.now().since(t1);
    assert!(
        hit_time * 10 < miss_time,
        "hit {hit_time}µs vs miss {miss_time}µs"
    );
}

#[test]
fn verifier_catches_out_of_band_change() {
    let (space, provider, doc) = setup("v1", 100);
    let cache = DocumentCache::new(space, quiet_config());
    assert_eq!(cache.read(ALICE, doc).expect("read must succeed"), "v1");
    provider.set_out_of_band("v2");
    assert_eq!(
        cache.read(ALICE, doc).expect("read must succeed"),
        "v2",
        "stale entry refilled"
    );
    let stats = cache.stats();
    assert_eq!(stats.verifier_invalidations, 1);
    assert_eq!(stats.misses, 2);
}

#[test]
fn verifiers_can_be_disabled() {
    let (space, provider, doc) = setup("v1", 100);
    let cache = DocumentCache::new(
        space,
        CacheConfig {
            run_verifiers: false,
            local_latency: LatencyModel::FREE,
            ..CacheConfig::default()
        },
    );
    cache.read(ALICE, doc).expect("read must succeed");
    provider.set_out_of_band("v2");
    // Without verifiers (and no notifier for out-of-band changes) the
    // stale content is served — the consistency/latency trade-off.
    assert_eq!(cache.read(ALICE, doc).expect("read must succeed"), "v1");
}

#[test]
fn bus_invalidation_drops_entries() {
    let (space, _provider, doc) = setup("v1", 100);
    let cache = DocumentCache::new(space.clone(), quiet_config());
    cache.read(ALICE, doc).expect("read must succeed");
    assert!(cache.contains(ALICE, doc));
    space.bus().post(Invalidation::Document(doc));
    assert!(!cache.contains(ALICE, doc));
    assert_eq!(cache.stats().notifier_invalidations, 1);
}

#[test]
fn user_scoped_invalidation_spares_others() {
    let (space, _provider, doc) = setup("v1", 100);
    space
        .add_reference(BOB, doc)
        .expect("reference must attach");
    let cache = DocumentCache::new(space.clone(), quiet_config());
    cache.read(ALICE, doc).expect("read must succeed");
    cache.read(BOB, doc).expect("read must succeed");
    space.bus().post(Invalidation::UserDocument(doc, ALICE));
    assert!(!cache.contains(ALICE, doc));
    assert!(cache.contains(BOB, doc));
}

#[test]
fn identical_chains_share_bytes() {
    let (space, _provider, doc) = setup("shared content", 100);
    space
        .add_reference(BOB, doc)
        .expect("reference must attach");
    let cache = DocumentCache::new(space, quiet_config());
    cache.read(ALICE, doc).expect("read must succeed");
    cache.read(BOB, doc).expect("read must succeed");
    let (physical, logical) = cache.resident_bytes();
    assert_eq!(physical, 14);
    assert_eq!(logical, 28);
    assert_eq!(cache.stats().shared_fills, 1);
}

#[test]
fn sharing_crosses_shard_boundaries() {
    // Same bytes for many users land in different shards but are
    // stored once: the content store is global.
    let (space, _provider, doc) = setup("cross-shard bytes", 100);
    let users: Vec<UserId> = (2..=9).map(UserId).collect();
    for &user in &users {
        space
            .add_reference(user, doc)
            .expect("reference must attach");
    }
    let cache = DocumentCache::new(
        space,
        CacheConfig {
            shards: 8,
            local_latency: LatencyModel::FREE,
            ..CacheConfig::default()
        },
    );
    cache.read(ALICE, doc).expect("read must succeed");
    for &user in &users {
        cache.read(user, doc).expect("read must succeed");
    }
    let (physical, logical) = cache.resident_bytes();
    assert_eq!(physical, 17);
    assert_eq!(logical, 17 * 9);
    assert_eq!(cache.stats().shared_fills, 8);
}

#[test]
fn capacity_forces_evictions() {
    let clock = VirtualClock::new();
    let space = DocumentSpace::with_middleware_cost(clock, LatencyModel::FREE);
    let mut docs = Vec::new();
    for i in 0..10u8 {
        // Distinct bodies, or signature sharing would dedup them all.
        let mut body = vec![b'x'; 100];
        body[0] = b'0' + i;
        let provider = MemoryProvider::new(&format!("d{i}"), body, 100);
        docs.push(space.create_document(ALICE, provider));
    }
    let cache = DocumentCache::new(
        space,
        CacheConfig {
            capacity_bytes: 350,
            local_latency: LatencyModel::FREE,
            ..CacheConfig::default()
        },
    );
    for &doc in &docs {
        cache.read(ALICE, doc).expect("read must succeed");
    }
    let (physical, _) = cache.resident_bytes();
    assert!(physical <= 350, "capacity respected, got {physical}");
    assert!(cache.stats().evictions >= 7);
    assert_eq!(cache.len() as u64 * 100, physical);
}

#[test]
fn write_through_updates_source_and_invalidates() {
    let (space, provider, doc) = setup("old", 100);
    let cache = DocumentCache::new(space, quiet_config());
    cache.read(ALICE, doc).expect("read must succeed");
    cache
        .write(ALICE, doc, b"new")
        .expect("write-through must succeed");
    assert_eq!(provider.content(), "new");
    assert!(!cache.contains(ALICE, doc), "own entry invalidated");
    assert_eq!(cache.read(ALICE, doc).expect("read must succeed"), "new");
}

#[test]
fn write_back_buffers_until_flush() {
    let (space, provider, doc) = setup("old", 100);
    let cache = DocumentCache::new(
        space,
        CacheConfig {
            write_mode: WriteMode::Back,
            local_latency: LatencyModel::FREE,
            ..CacheConfig::default()
        },
    );
    cache
        .write(ALICE, doc, b"buffered")
        .expect("write-back must buffer");
    assert_eq!(provider.content(), "old", "not yet flushed");
    assert_eq!(cache.dirty_count(), 1);
    // The writer reads their own buffered data.
    assert_eq!(
        cache.read(ALICE, doc).expect("read must succeed"),
        "buffered"
    );
    let _ = cache.flush().expect("flush must push every dirty entry");
    assert_eq!(provider.content(), "buffered");
    assert_eq!(cache.dirty_count(), 0);
    assert_eq!(cache.stats().flushes, 1);
}

/// A read served from the reader's own buffered write is a hit: the
/// outcome counters sum to the reads issued under write-back too.
#[test]
fn a_read_of_ones_own_buffered_write_counts_as_a_hit() {
    let (space, _provider, doc) = setup("old", 100);
    let cache = DocumentCache::new(
        space,
        CacheConfig {
            write_mode: WriteMode::Back,
            local_latency: LatencyModel::FREE,
            ..CacheConfig::default()
        },
    );
    cache.write(ALICE, doc, b"buffered").expect("buffered");
    let before = cache.stats();
    let outcome = cache
        .read_with(ALICE, doc, ReadOptions::default())
        .expect("read");
    assert_eq!(
        (outcome.bytes.as_ref(), outcome.class),
        (&b"buffered"[..], HitClass::Hit)
    );
    let moved = cache.stats().delta(&before);
    assert_eq!((moved.hits, moved.misses), (1, 0));
}

/// A write-back write the space refuses — the writer holds no reference —
/// is neither buffered nor journaled: one that stayed dirty would be
/// re-queued by every later flush, and its record would never be acked.
#[test]
fn refused_write_back_write_is_neither_buffered_nor_journaled() {
    use placeless_core::op::DocOp;
    let (space, provider, doc) = setup("v0", 100);
    let journal = WriteJournal::new(placeless_simenv::StableStore::new());
    let cache = DocumentCache::new(
        space,
        CacheConfig {
            write_mode: WriteMode::Back,
            journal: Some(journal.clone()),
            ..quiet_config()
        },
    );
    let refused = [
        cache.write(BOB, doc, b"intruder"),
        cache.write_op(BOB, doc, DocOp::Append(Bytes::from("!"))),
    ];
    for result in refused {
        assert!(
            matches!(result, Err(PlacelessError::NoSuchReference(..))),
            "{result:?}"
        );
    }
    assert_eq!(cache.dirty_count(), 0);
    assert!(journal.is_empty());
    for _ in 0..2 {
        let report = cache.flush().expect("flush must run");
        assert!(report.is_clean() && report.attempted == 0, "{report}");
    }
    assert_eq!(provider.content(), "v0");
}

#[test]
fn journal_records_writes_and_flush_acks_prune_it() {
    let (space, provider, doc) = setup("v0", 100);
    let journal = WriteJournal::new(placeless_simenv::StableStore::new());
    let cache = DocumentCache::new(
        space,
        CacheConfig {
            write_mode: WriteMode::Back,
            journal: Some(journal.clone()),
            ..quiet_config()
        },
    );
    cache
        .write(ALICE, doc, b"draft")
        .expect("write must buffer");
    assert_eq!(cache.stats().journal_appends, 1);
    assert_eq!(journal.len(), 1, "journaled before the flush");
    assert!(!journal.store().is_empty());
    let report = cache.flush().expect("flush must succeed");
    assert!(report.is_clean());
    assert_eq!((report.attempted, report.flushed), (1, 1));
    assert!(journal.is_empty(), "ack prunes the flushed record");
    assert!(journal.store().is_empty(), "ack compacts the medium");
    assert_eq!(provider.content(), "draft");
}

/// Recovery acknowledges the records it drops once, together: fifty
/// writes whose documents vanished during the outage cost one ack frame,
/// not fifty passes over the journal.
#[test]
fn recover_acknowledges_every_dropped_record_with_one_frame() {
    let (space, _provider, kept) = setup("v0", 100);
    let gone: Vec<DocumentId> = (0..50)
        .map(|i| space.create_document(ALICE, MemoryProvider::new("t", format!("g{i}"), 100)))
        .collect();
    let medium = placeless_simenv::StableStore::new();
    let config = |journal| CacheConfig {
        write_mode: WriteMode::Back,
        journal: Some(journal),
        ..quiet_config()
    };
    {
        let cache = DocumentCache::new(space.clone(), config(WriteJournal::new(medium.clone())));
        for &doc in gone.iter().chain([&kept]) {
            // Read first, so the record carries a base epoch and recovery
            // consults the origin.
            cache.read(ALICE, doc).expect("read must succeed");
            cache
                .write(ALICE, doc, b"buffered")
                .expect("write must buffer");
        }
    } // crash
    for &doc in &gone {
        space.delete_document(doc).expect("document exists");
    }
    let (journal, outcome) = WriteJournal::open(medium.clone());
    assert_eq!(outcome.records.len(), 51);
    let frames = medium.append_count();
    let (cache, report) = DocumentCache::recover(space, config(journal.clone()), None);
    assert_eq!((report.dropped, report.requeued), (50, 1));
    assert_eq!(
        medium.append_count(),
        frames + 1,
        "one ack frame for all 50"
    );
    assert_eq!(journal.len(), 1);
    assert_eq!(cache.dirty_count(), 1);
}

/// A flush acknowledges every record it wrote with one ack frame after its
/// last group, however many origins the groups span; the record of an
/// entry its origin refused stays live, beside its re-queued entry.
#[test]
fn flush_acknowledges_every_origin_with_one_frame() {
    let space = DocumentSpace::with_middleware_cost(VirtualClock::new(), LatencyModel::FREE);
    let written: Vec<DocumentId> = (0..8)
        .map(|i| space.create_document(ALICE, MemoryProvider::new(&format!("o{i}"), "v0", 100)))
        .collect();
    let refusing = space.create_document(ALICE, ScriptedOrigin::new("v0", || Validity::Valid));
    let medium = placeless_simenv::StableStore::new();
    let journal = WriteJournal::new(medium.clone());
    let cache = DocumentCache::new(
        space,
        CacheConfig {
            write_mode: WriteMode::Back,
            journal: Some(journal.clone()),
            ..quiet_config()
        },
    );
    for &doc in written.iter().chain([&refusing]) {
        cache
            .write(ALICE, doc, b"buffered")
            .expect("write must buffer");
    }
    let frames = medium.append_count();
    let report = cache.flush().expect("flush must run");
    assert_eq!((report.batches, report.flushed), (9, 8), "{report}");
    assert_eq!(report.requeued.len(), 1, "{report}");
    assert_eq!(
        medium.append_count(),
        frames + 1,
        "one ack frame for eight origins"
    );
    let live = journal.live_records();
    assert_eq!(live.len(), 1);
    assert_eq!(live[0].doc, refusing);
    assert_eq!(cache.dirty_count(), 1);
}

#[test]
fn uncacheable_content_is_never_stored() {
    struct LiveProvider;
    impl BitProvider for LiveProvider {
        fn describe(&self) -> String {
            "live".into()
        }
        fn open_input(&self, clock: &VirtualClock) -> Result<Box<dyn InputStream>> {
            Ok(Box::new(MemoryInput::new(Bytes::from(format!(
                "frame@{}",
                clock.advance(1).as_micros()
            )))))
        }
        fn open_output(&self, _clock: &VirtualClock) -> Result<Box<dyn OutputStream>> {
            Err(PlacelessError::ReadOnly(DocumentId(0)))
        }
        fn make_verifier(
            &self,
            _clock: &VirtualClock,
        ) -> Option<Box<dyn placeless_core::verifier::Verifier>> {
            None
        }
        fn fetch_cost_micros(&self) -> u64 {
            10
        }
        fn cacheability_vote(&self) -> Cacheability {
            Cacheability::Uncacheable
        }
    }
    let clock = VirtualClock::new();
    let space = DocumentSpace::with_middleware_cost(clock, LatencyModel::FREE);
    let doc = space.create_document(ALICE, Arc::new(LiveProvider));
    let cache = DocumentCache::new(space, quiet_config());
    let a = cache.read(ALICE, doc).expect("read must succeed");
    let b = cache.read(ALICE, doc).expect("read must succeed");
    assert_ne!(a, b, "every read reaches the live source");
    assert!(cache.is_empty());
    assert_eq!(cache.stats().uncacheable_reads, 2);
    assert_eq!(cache.stats().hits, 0);
}

#[test]
fn latency_and_verifier_accounting() {
    let (space, _provider, doc) = setup("abcdef", 10_000);
    let clock = space.clock().clone();
    let cache = DocumentCache::new(space, quiet_config());
    cache.read(ALICE, doc).expect("read must succeed");
    cache.read(ALICE, doc).expect("read must succeed");
    cache.read(ALICE, doc).expect("read must succeed");
    let stats = cache.stats();
    // The provider's mtime verifier costs 2 µs per hit.
    assert_eq!(stats.verify_micros, 4);
    assert_eq!((stats.misses, stats.hits), (1, 2));
    assert!(stats.miss_micros >= 10_000 && stats.hit_micros < 2_000);
    assert!(clock.now().as_micros() >= 10_000);
}

#[test]
fn writes_are_counted_per_mode() {
    let (space, _provider, doc) = setup("x", 0);
    let through = DocumentCache::new(space.clone(), quiet_config());
    through
        .write(ALICE, doc, b"a")
        .expect("write-through must succeed");
    through
        .write(ALICE, doc, b"b")
        .expect("write-through must succeed");
    assert_eq!(through.stats().writes, 2);
    assert_eq!(through.stats().flushes, 0);

    let back = DocumentCache::new(
        space,
        CacheConfig {
            write_mode: WriteMode::Back,
            local_latency: LatencyModel::FREE,
            ..CacheConfig::default()
        },
    );
    back.write(ALICE, doc, b"c")
        .expect("write-back must buffer");
    back.write(ALICE, doc, b"d")
        .expect("write-back must buffer");
    let _ = back.flush().expect("flush must push every dirty entry");
    let stats = back.stats();
    assert_eq!(stats.writes, 2);
    assert_eq!(stats.flushes, 1, "coalesced into one flush");
}

fn lease_setup() -> (
    Arc<DocumentSpace>,
    Arc<MemoryProvider>,
    DocumentId,
    VirtualClock,
) {
    let clock = VirtualClock::new();
    let space = DocumentSpace::with_middleware_cost(clock.clone(), LatencyModel::new(300, 0));
    let provider = MemoryProvider::new("t", "body", 1_000);
    let doc = space.create_document(ALICE, provider.clone());
    space.add_reference(BOB, doc).expect("reference");
    space
        .attach_active(Scope::Universal, doc, TagProperty::new("t", 50))
        .expect("attach");
    (space, provider, doc, clock)
}

fn lease_config() -> CacheConfig {
    CacheConfig {
        local_latency: LatencyModel::FREE,
        stage_cache: true,
        ..CacheConfig::default()
    }
}

#[test]
fn plan_lease_serves_later_staged_walks_without_refetching() {
    let (space, _provider, doc, clock) = lease_setup();
    let cache = DocumentCache::new(space, lease_config());

    assert_eq!(cache.read(ALICE, doc).expect("first read"), "body[t]");
    assert_eq!(cache.stats().root_reuses, 0, "cold walk must fetch");

    // Bob's first read is a version miss, but the whole staged walk is
    // served off the leases: the chain lease saves one hop, the
    // verified root signature elides the provider fetch, and the tag
    // stage is adopted from the intermediate store.
    let t0 = clock.now();
    assert_eq!(cache.read(BOB, doc).expect("later read"), "body[t]");
    let later = clock.now().since(t0);
    let stats = cache.stats();
    assert_eq!(stats.root_reuses, 1, "root fetch elided via the lease");
    assert_eq!(stats.stage_hits, 1, "tag stage adopted, not executed");
    assert!(
        later < 1_000,
        "later walk ({later} us) must not pay the 1000 us provider fetch"
    );
}

#[test]
fn stale_root_lease_refetches_fresh_provider_bytes() {
    let (space, provider, doc, _clock) = lease_setup();
    space.add_reference(UserId(3), doc).expect("reference");
    let cache = DocumentCache::new(space, lease_config());

    assert_eq!(cache.read(ALICE, doc).expect("first read"), "body[t]");
    assert_eq!(cache.read(BOB, doc).expect("leased read"), "body[t]");
    assert_eq!(cache.stats().root_reuses, 1);

    // An out-of-band provider change fires no events; only the lease's
    // verifier can catch it — and must, on the very next walk.
    provider.set_out_of_band("body2");
    assert_eq!(
        cache.read(UserId(3), doc).expect("post-change read"),
        "body2[t]",
        "stale root lease must never anchor a walk on old bytes"
    );
    let stats = cache.stats();
    assert_eq!(
        stats.root_reuses, 1,
        "the invalidated root lease is not reused"
    );
}

#[test]
fn cacheable_with_events_forwards_cache_reads() {
    use parking_lot::Mutex as PMutex;
    struct Audit {
        reads: Arc<PMutex<u64>>,
    }
    impl ActiveProperty for Audit {
        fn name(&self) -> &str {
            "audit"
        }
        fn interests(&self) -> Interests {
            Interests::of(&[EventKind::GetInputStream, EventKind::CacheRead])
        }
        fn wrap_input(
            &self,
            _ctx: &PathCtx<'_>,
            report: &mut PathReport,
            inner: Box<dyn InputStream>,
        ) -> Result<Box<dyn InputStream>> {
            report.vote(Cacheability::CacheableWithEvents);
            *self.reads.lock() += 1;
            Ok(inner)
        }
        fn on_event(&self, _ctx: &EventCtx<'_>, _event: &DocumentEvent) -> Result<()> {
            *self.reads.lock() += 1;
            Ok(())
        }
    }
    let (space, _provider, doc) = setup("audited", 100);
    let reads = Arc::new(PMutex::new(0u64));
    space
        .attach_active(
            Scope::Universal,
            doc,
            Arc::new(Audit {
                reads: reads.clone(),
            }),
        )
        .expect("property must attach to an existing document");
    let cache = DocumentCache::new(space, quiet_config());
    cache.read(ALICE, doc).expect("read must succeed"); // miss: wrap_input counts 1
    cache.read(ALICE, doc).expect("read must succeed"); // hit: forwarded event counts 1
    cache.read(ALICE, doc).expect("read must succeed"); // hit: forwarded event counts 1
    assert_eq!(*reads.lock(), 3, "audit saw every read despite caching");
    assert_eq!(cache.stats().events_forwarded, 2);
    assert_eq!(cache.stats().hits, 2);
}

#[test]
fn builder_mirrors_struct_config() {
    let config = CacheConfig::builder()
        .capacity_bytes(4_096)
        .policy(PolicyFactory::by_name("LFU").expect("LFU is a known policy"))
        .run_verifiers(false)
        .write_mode(WriteMode::Back)
        .local_latency(LatencyModel::FREE)
        .prefetch(PrefetchConfig::up_to(3))
        .shards(2)
        .merge(MergePolicy::new())
        .build();
    assert_eq!(config.capacity_bytes, 4_096);
    assert_eq!(config.policy.name(), "lfu");
    assert!(!config.run_verifiers);
    assert_eq!(config.write_mode, WriteMode::Back);
    assert_eq!(config.shards, 2);
    assert_eq!(config.prefetch.max_per_miss, 3);
    assert!(config.merge.is_some());
    // Exhaustive on purpose: a thirteenth field stops this compiling,
    // so adding an option is a decision, not an accident.
    let CacheConfig {
        capacity_bytes: _,
        policy: _,
        run_verifiers,
        write_mode,
        local_latency: _,
        prefetch,
        access_link,
        shards,
        origin,
        stage_cache,
        journal,
        merge,
    } = CacheConfig::default();
    assert!(run_verifiers && !stage_cache && prefetch.max_per_miss == 0);
    assert_eq!((write_mode, shards), (WriteMode::Through, 0));
    assert_eq!((origin.max_retries, origin.breaker), (0, false));
    assert!(access_link.is_none() && journal.is_none() && merge.is_none());
    assert!(origin.window.is_none() && origin.serve_stale.is_none());
    assert!(PolicyFactory::by_name("bogus").is_err());

    let (space, _provider, doc) = setup("built", 100);
    let cache = DocumentCache::new(space, config);
    assert_eq!(cache.shard_count(), 2);
    cache
        .write(ALICE, doc, b"dirty")
        .expect("write-back must buffer");
    assert_eq!(
        cache.read(ALICE, doc).expect("read must succeed"),
        "dirty",
        "write-back took"
    );
}

#[test]
fn write_op_buffers_a_mergeable_delta_and_flushes_it() {
    use placeless_core::op::DocOp;
    let (space, provider, doc) = setup("base;", 100);
    let journal = WriteJournal::new(placeless_simenv::StableStore::new());
    let config = |journal| CacheConfig {
        write_mode: WriteMode::Back,
        journal: Some(journal),
        merge: Some(MergePolicy::new()),
        ..quiet_config()
    };
    let cache = DocumentCache::new(space.clone(), config(journal.clone()));
    cache.read(ALICE, doc).expect("read must succeed");
    cache
        .write_op(ALICE, doc, DocOp::Append(Bytes::from("a1;")))
        .expect("op write must buffer");
    cache
        .write_op(ALICE, doc, DocOp::Append(Bytes::from("a2;")))
        .expect("op write must buffer");
    // The buffered view materializes the accumulated delta.
    assert_eq!(
        cache.read(ALICE, doc).expect("read must succeed"),
        "base;a1;a2;"
    );
    // The journal record carries both ops with a causal sequence.
    let records = journal.live_records();
    assert_eq!(records.len(), 1);
    assert_eq!(records[0].ops.len(), 2);
    assert_eq!(records[0].writer_seq, 2);
    assert!(rebasable(&records[0].ops));
    let report = cache.flush().expect("flush must run");
    assert!(report.is_clean(), "{report}");
    assert_eq!(provider.content(), "base;a1;a2;");
    assert!(journal.is_empty(), "flush acks the op record");

    // The writer sequence continues across the flush, and across a crash
    // whose replayed record has flushed too.
    let append = |cache: &DocumentCache, op: &'static str| {
        cache
            .write_op(ALICE, doc, DocOp::Append(Bytes::from(op)))
            .expect("op write must buffer");
    };
    append(&cache, "a3;");
    assert_eq!(journal.live_records()[0].writer_seq, 3);
    drop(cache);
    let (journal, _) = WriteJournal::open(journal.store().clone());
    let (cache, report) = DocumentCache::recover(space, config(journal.clone()), None);
    assert_eq!(report.requeued, 1);
    assert!(cache.flush().expect("flush must run").is_clean());
    append(&cache, "a4;");
    assert_eq!(journal.live_records()[0].writer_seq, 4);
    assert!(cache.flush().expect("flush must run").is_clean());
    assert_eq!(provider.content(), "base;a1;a2;a3;a4;");
}

/// Two users' op deltas on one document flush in one group: the second
/// applies onto the first's result, the group's view of the document, not
/// onto the rendition its own probe read, so both edits survive. A flushed
/// op entry then costs the space the group's two hops and its
/// `ContentWritten` dispatch only: its ops apply onto the rendition the
/// probe read, not onto a second read through the chain.
#[test]
fn flushed_op_entries_compose_and_read_no_rendition_again() {
    use placeless_core::op::DocOp;
    let (space, provider, doc) = setup("base;", 100);
    space.add_reference(BOB, doc).expect("document exists");
    let cache = DocumentCache::new(
        space.clone(),
        CacheConfig {
            write_mode: WriteMode::Back,
            merge: Some(MergePolicy::new()),
            ..quiet_config()
        },
    );
    let append = |user, op: &'static str| {
        cache.read(user, doc).expect("read must succeed");
        cache
            .write_op(user, doc, DocOp::Append(Bytes::from(op)))
            .expect("op write must buffer");
    };
    append(ALICE, "a;");
    append(BOB, "b;");
    let report = cache.flush().expect("flush must run");
    assert!(report.is_clean() && report.batches == 1, "{report}");
    assert_eq!(provider.content(), "base;a;b;");

    append(ALICE, "c;");
    let hops = space.ops_count();
    assert!(cache.flush().expect("flush must run").is_clean());
    assert_eq!(provider.content(), "base;a;b;c;");
    assert_eq!(space.ops_count() - hops, 3, "no read_document hops");
}

/// The flush's conflict probe takes the writer's rendition from the cache
/// only while the rendition's verifier vouches for it, and runs that
/// verifier even in a cache that trusts notifiers and skips verifiers on
/// hits: an origin edited out of band still conflicts with the buffered
/// write.
#[test]
fn flush_probe_runs_the_verifier_a_notifier_cache_skips() {
    let (space, provider, doc) = setup("v1", 100);
    let hook: ConflictHook = Arc::new(|_| ConflictResolution::KeepTheirs);
    let cache = DocumentCache::new(
        space,
        CacheConfig {
            run_verifiers: false,
            write_mode: WriteMode::Back,
            merge: Some(MergePolicy::new().on_unmergeable(hook)),
            ..quiet_config()
        },
    );
    cache.read(ALICE, doc).expect("read must succeed");
    cache
        .write(ALICE, doc, b"mine")
        .expect("write-back must buffer");
    provider.set_out_of_band("theirs");
    assert!(
        cache.contains(ALICE, doc),
        "the stale rendition is resident"
    );
    let report = cache.flush().expect("flush must run");
    assert_eq!(report.merge.examined, 1, "{report}");
    assert_eq!(report.dropped, vec![(doc, ALICE)], "{report}");
    assert_eq!(provider.content(), "theirs");
}

#[test]
fn plain_write_supersedes_the_op_delta() {
    use placeless_core::op::DocOp;
    let (space, _provider, doc) = setup("base", 100);
    let journal = WriteJournal::new(placeless_simenv::StableStore::new());
    let cache = DocumentCache::new(
        space,
        CacheConfig {
            write_mode: WriteMode::Back,
            journal: Some(journal.clone()),
            ..quiet_config()
        },
    );
    cache
        .write_op(ALICE, doc, DocOp::Append(Bytes::from("!")))
        .expect("op write must buffer");
    assert!(!journal.live_records()[0].ops.is_empty());
    cache
        .write(ALICE, doc, b"rewritten")
        .expect("write buffers");
    let records = journal.live_records();
    assert_eq!(records.len(), 1, "the plain write supersedes the delta");
    assert!(records[0].ops.is_empty());
    assert_eq!(records[0].data, "rewritten");
    // A later op over the pending snapshot folds it in as a
    // full-body op: correct view, deliberately unmergeable.
    cache
        .write_op(ALICE, doc, DocOp::Append(Bytes::from("?")))
        .expect("op write must buffer");
    assert_eq!(
        cache.read(ALICE, doc).expect("read must succeed"),
        "rewritten?"
    );
    assert!(!rebasable(&journal.live_records()[0].ops));
}

#[test]
fn write_op_through_mode_applies_to_current_content() {
    use placeless_core::op::DocOp;
    let (space, provider, doc) = setup("hello world", 100);
    let cache = DocumentCache::new(space.clone(), quiet_config());
    cache
        .write_op(
            ALICE,
            doc,
            DocOp::ReplaceRange {
                start: 6,
                end: 11,
                data: Bytes::from("there"),
            },
        )
        .expect("through-mode op writes immediately");
    assert_eq!(provider.content(), "hello there");
    cache
        .write_op(
            ALICE,
            doc,
            DocOp::SetProperty {
                name: "mood".into(),
                value: placeless_core::content::PropertyValue::Str("calm".into()),
            },
        )
        .expect("property op attaches");
    let description = space.describe(ALICE, doc).expect("describe");
    assert!(
        description.personal.iter().any(|p| p.name == "mood"),
        "SetProperty attached a personal property"
    );
}

#[test]
fn zero_shards_means_auto() {
    let (space, _provider, _doc) = setup("auto", 0);
    let cache = DocumentCache::new(space, quiet_config());
    assert_eq!(cache.shard_count(), default_shard_count());
    assert!(cache.shard_count() >= 1);
}

#[test]
fn multi_shard_cache_behaves_like_single_shard() {
    // The same single-threaded workload through 1 and 8 shards must
    // agree on every outcome that does not depend on victim choice.
    let run = |shards: usize| {
        let clock = VirtualClock::new();
        let space = DocumentSpace::with_middleware_cost(clock, LatencyModel::FREE);
        let mut docs = Vec::new();
        for i in 0..12u8 {
            let provider = MemoryProvider::new(&format!("m{i}"), format!("body {i}"), 100);
            docs.push(space.create_document(ALICE, provider));
        }
        let cache = DocumentCache::new(
            space.clone(),
            CacheConfig {
                shards,
                local_latency: LatencyModel::FREE,
                ..CacheConfig::default()
            },
        );
        for &doc in &docs {
            cache.read(ALICE, doc).expect("read must succeed");
            cache.read(ALICE, doc).expect("read must succeed");
        }
        space.bus().post(Invalidation::Document(docs[0]));
        let stats = cache.stats();
        (
            stats.hits,
            stats.misses,
            stats.notifier_invalidations,
            cache.len(),
            cache.resident_bytes(),
        )
    };
    assert_eq!(run(1), run(8));
}

/// A space holding `references` references spread over 256 documents
/// with 64-byte bodies, plus one more document held by four users.
/// Returns the space, the 256 documents, the extra document and its four
/// holders.
fn populated_space(
    references: usize,
) -> (Arc<DocumentSpace>, Vec<DocumentId>, DocumentId, [UserId; 4]) {
    const DOCS: usize = 256;
    let space = DocumentSpace::with_middleware_cost(VirtualClock::new(), LatencyModel::FREE);
    let docs: Vec<DocumentId> = (0..DOCS)
        .map(|d| {
            let body = format!("{d:<64}");
            space.create_document(UserId(1), MemoryProvider::new(&format!("p{d}"), body, 0))
        })
        .collect();
    for user in 2..=(references / DOCS) as u64 {
        for &doc in &docs {
            space
                .add_reference(UserId(user), doc)
                .expect("the document exists");
        }
    }
    let holders = [UserId(1), UserId(2), UserId(3), UserId(4)];
    let probe = space.create_document(holders[0], MemoryProvider::new("probe", "x", 0));
    for &user in &holders[1..] {
        space
            .add_reference(user, probe)
            .expect("the document exists");
    }
    (space, docs, probe, holders)
}

fn median(mut samples: Vec<std::time::Duration>) -> std::time::Duration {
    samples.sort();
    samples[samples.len() / 2]
}

/// Median wall time of a document-scoped bus invalidation of a document
/// with four resident versions, beside `resident` versions of others.
fn invalidation_median(resident: usize) -> std::time::Duration {
    let (space, docs, probe, holders) = populated_space(resident);
    let cache = DocumentCache::new(
        space.clone(),
        CacheConfig {
            capacity_bytes: 1 << 30,
            ..quiet_config()
        },
    );
    for user in 1..=(resident / docs.len()) as u64 {
        for &doc in &docs {
            cache.read(UserId(user), doc).expect("read must succeed");
        }
    }
    assert_eq!(cache.len(), resident);
    let samples = (0..200)
        .map(|_| {
            for &user in &holders {
                cache.read(user, probe).expect("read must succeed");
            }
            let started = std::time::Instant::now();
            space.bus().post(Invalidation::Document(probe));
            let elapsed = started.elapsed();
            assert_eq!(cache.len(), resident, "only the probe's versions went");
            elapsed
        })
        .collect();
    median(samples)
}

/// The complexity gate of the per-document shard index: thirty-two times
/// the resident population must not show in what invalidating one
/// document costs. The margin is wide on purpose — this checks that no
/// scan over the population is on the path, not how fast the path is.
#[test]
fn document_invalidation_cost_is_independent_of_resident_population() {
    let (small, large) = (invalidation_median(2_048), invalidation_median(65_536));
    assert!(
        large <= small * 4,
        "invalidating a four-version document: {small:?} beside 2k resident versions, \
         {large:?} beside 64k"
    );
}

/// Median wall time of a `write_document` to a document with four
/// holders, beside `references` references to other documents.
fn write_median(references: usize) -> std::time::Duration {
    let (space, _docs, probe, holders) = populated_space(references);
    let samples = (0..200)
        .map(|i| {
            let started = std::time::Instant::now();
            space
                .write_document(holders[i % 4], probe, b"rewritten")
                .expect("write must succeed");
            started.elapsed()
        })
        .collect();
    median(samples)
}

/// The same gate for the space's reference table: `ContentWritten` reaches
/// the written document's holders without walking everyone else's
/// references.
#[test]
fn write_cost_is_independent_of_other_documents_references() {
    let (small, large) = (write_median(2_048), write_median(65_536));
    assert!(
        large <= small * 4,
        "writing a four-holder document: {small:?} beside 2k references, {large:?} beside 64k"
    );
}

/// Median wall time of a `write_document` to a document with `holders`
/// holders, each carrying a personal read-path property (as the
/// benchmark's suffix users do) and none registered for `ContentWritten`.
fn silent_holders_write_median(holders: u64) -> std::time::Duration {
    let (space, _provider, doc) = setup("x", 0);
    for user in (1..=holders).map(UserId) {
        space.add_reference(user, doc).expect("the document exists");
        space
            .attach_active(Scope::Personal(user), doc, TagProperty::new("suffix", 0))
            .expect("the reference exists");
    }
    let samples = (0..200u64)
        .map(|i| {
            let started = std::time::Instant::now();
            space
                .write_document(UserId(1 + i % 4), doc, b"rewritten")
                .expect("write must succeed");
            started.elapsed()
        })
        .collect();
    median(samples)
}

/// The same gate for the written document's own holders: `ContentWritten`
/// reaches the references registered for it, and a thousand times as many
/// that are not must not show in the cost of a write.
#[test]
fn write_cost_is_independent_of_silent_holders() {
    let (small, large) = (
        silent_holders_write_median(4),
        silent_holders_write_median(4_096),
    );
    assert!(
        large <= small * 4,
        "writing a document: {small:?} with 4 silent holders, {large:?} with 4k"
    );
}

/// A memory origin that counts how often its bytes were read.
struct CountedOrigin {
    inner: Arc<MemoryProvider>,
    reads: AtomicU64,
}

impl BitProvider for CountedOrigin {
    fn describe(&self) -> String {
        self.inner.describe()
    }
    fn open_input(&self, clock: &VirtualClock) -> Result<Box<dyn InputStream>> {
        self.reads.fetch_add(1, Ordering::SeqCst);
        self.inner.open_input(clock)
    }
    fn open_output(&self, clock: &VirtualClock) -> Result<Box<dyn OutputStream>> {
        self.inner.open_output(clock)
    }
    fn make_verifier(&self, clock: &VirtualClock) -> Option<Box<dyn Verifier>> {
        self.inner.make_verifier(clock)
    }
    fn fetch_cost_micros(&self) -> u64 {
        self.inner.fetch_cost_micros()
    }
}

/// What a write-back write costs the origin's readers: with the writer's
/// rendition resident and attested by its verifier, neither the op's base
/// nor the flush's conflict probe reads the document again.
#[test]
fn flush_cost_reads_no_attested_rendition_again() {
    use placeless_core::op::DocOp;
    let space = DocumentSpace::with_middleware_cost(VirtualClock::new(), LatencyModel::FREE);
    let origin = Arc::new(CountedOrigin {
        inner: MemoryProvider::new("counted", "base", 100),
        reads: AtomicU64::new(0),
    });
    let doc = space.create_document(ALICE, origin.clone());
    let cache = DocumentCache::new(
        space,
        CacheConfig {
            stage_cache: true,
            write_mode: WriteMode::Back,
            merge: Some(MergePolicy::new()),
            ..quiet_config()
        },
    );
    cache.read(ALICE, doc).expect("read must succeed");
    let reads = origin.reads.load(Ordering::SeqCst);
    // A full-body op: it travels as bytes, so the group write reads
    // nothing either.
    cache
        .write_op(ALICE, doc, DocOp::Replace(Bytes::from("mine")))
        .expect("op write must buffer");
    let report = cache.flush().expect("flush must run");
    assert_eq!((report.flushed, report.merge.examined), (1, 0), "{report}");
    assert_eq!(origin.inner.content(), "mine");
    assert_eq!(origin.reads.load(Ordering::SeqCst), reads, "no chain read");
}

/// A read-only origin whose verifier asks `script` for its verdict and
/// counts how often the cache ran it.
struct ScriptedOrigin {
    body: Bytes,
    script: Arc<dyn Fn() -> Validity + Send + Sync>,
    checks: Arc<AtomicU64>,
}

const SCRIPTED_VERIFIER_COST: u64 = 7;

impl ScriptedOrigin {
    fn new(body: &str, script: impl Fn() -> Validity + Send + Sync + 'static) -> Arc<Self> {
        Arc::new(Self {
            body: Bytes::from(body.to_owned()),
            script: Arc::new(script),
            checks: Arc::default(),
        })
    }

    fn checks(&self) -> u64 {
        self.checks.load(Ordering::SeqCst)
    }
}

impl BitProvider for ScriptedOrigin {
    fn describe(&self) -> String {
        "scripted".into()
    }
    fn open_input(&self, _clock: &VirtualClock) -> Result<Box<dyn InputStream>> {
        Ok(Box::new(MemoryInput::new(self.body.clone())))
    }
    fn open_output(&self, _clock: &VirtualClock) -> Result<Box<dyn OutputStream>> {
        Err(PlacelessError::ReadOnly(DocumentId(0)))
    }
    fn make_verifier(&self, _clock: &VirtualClock) -> Option<Box<dyn Verifier>> {
        let (script, checks) = (self.script.clone(), self.checks.clone());
        Some(ClosureVerifier::new(
            "scripted",
            SCRIPTED_VERIFIER_COST,
            move |_| {
                checks.fetch_add(1, Ordering::SeqCst);
                script()
            },
        ))
    }
    fn fetch_cost_micros(&self) -> u64 {
        100
    }
}

/// Two hits in one shard run side by side: each reader's verifier waits
/// inside the shard lock for the other reader's to get there too. Under an
/// exclusive shard lock the second reader waits outside while the first
/// times out inside.
#[test]
fn hit_path_two_readers_of_one_shard_overlap() {
    use std::time::{Duration, Instant};
    let space = DocumentSpace::with_middleware_cost(VirtualClock::new(), LatencyModel::FREE);
    let arrived = Arc::new(AtomicU64::new(0));
    let alone = Arc::new(AtomicBool::new(false));
    let docs: Vec<DocumentId> = (0..2)
        .map(|i| {
            let (arrived, alone) = (arrived.clone(), alone.clone());
            let rendezvous = move || {
                arrived.fetch_add(1, Ordering::SeqCst);
                let deadline = Instant::now() + Duration::from_secs(5);
                while arrived.load(Ordering::SeqCst) < 2 {
                    if Instant::now() > deadline {
                        alone.store(true, Ordering::SeqCst);
                        break;
                    }
                    std::thread::yield_now();
                }
                Validity::Valid
            };
            space.create_document(ALICE, ScriptedOrigin::new(&format!("body {i}"), rendezvous))
        })
        .collect();
    let cache = DocumentCache::new(
        space,
        CacheConfig::builder()
            .local_latency(LatencyModel::FREE)
            .shards(1)
            .build(),
    );
    for &doc in &docs {
        cache.read(ALICE, doc).expect("fill");
    }
    std::thread::scope(|scope| {
        for &doc in &docs {
            let cache = &cache;
            scope.spawn(move || {
                let outcome = cache
                    .read_with(ALICE, doc, ReadOptions::default())
                    .expect("hit");
                assert_eq!(outcome.class, HitClass::Hit);
            });
        }
    });
    assert_eq!(arrived.load(Ordering::SeqCst), 2);
    assert!(
        !alone.load(Ordering::SeqCst),
        "a reader sat in its verifier while the other waited for the shard"
    );
    assert_eq!(cache.stats().hits, 2);
}

/// The default policy as a caller's own, written before `on_hit_shared`
/// existed: it forwards the methods it knew.
struct OnHitOnly(Box<dyn ReplacementPolicy>);

impl ReplacementPolicy for OnHitOnly {
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn on_insert(&mut self, key: EntryKey, attrs: &EntryAttrs) {
        self.0.on_insert(key, attrs);
    }
    fn on_hit(&mut self, key: EntryKey) {
        self.0.on_hit(key);
    }
    fn on_remove(&mut self, key: EntryKey) {
        self.0.on_remove(key);
    }
    fn evict(&mut self) -> Option<EntryKey> {
        self.0.evict()
    }
    fn len(&self) -> usize {
        self.0.len()
    }
}

fn callers_policy() -> PolicyFactory {
    PolicyFactory::new("callers", || {
        Box::new(OnHitOnly(PolicyFactory::default().build()))
    })
}

/// A reader parked inside its verifier holds its shard shared, for as long
/// as the origin takes to answer. A second reader's hit on that shard
/// returns meanwhile, whether the policy is the cache's default, one of
/// its own that knows `on_hit` only (LRU), or a caller's: telling the
/// policy takes no lock the parked reader could be holding up.
/// (A hit that escalated to the exclusive guard would wait for the parked
/// reader, which here gives up after 5 s and fails the test.)
#[test]
fn hit_path_a_parked_reader_does_not_stall_the_policy() {
    use std::time::{Duration, Instant};
    let lru = PolicyFactory::by_name("lru").expect("known");
    for policy in [PolicyFactory::default(), lru, callers_policy()] {
        let space = DocumentSpace::with_middleware_cost(VirtualClock::new(), LatencyModel::FREE);
        let parked = Arc::new(AtomicBool::new(false));
        let release = Arc::new(AtomicBool::new(false));
        let gave_up = Arc::new(AtomicBool::new(false));
        let park = {
            let (parked, release, gave_up) = (parked.clone(), release.clone(), gave_up.clone());
            move || {
                parked.store(true, Ordering::SeqCst);
                let deadline = Instant::now() + Duration::from_secs(5);
                while !release.load(Ordering::SeqCst) {
                    if Instant::now() > deadline {
                        gave_up.store(true, Ordering::SeqCst);
                        break;
                    }
                    std::thread::yield_now();
                }
                Validity::Valid
            }
        };
        let slow = space.create_document(ALICE, ScriptedOrigin::new("slow origin", park));
        let quick = space.create_document(ALICE, MemoryProvider::new("quick", "quick body", 1));
        let cache = DocumentCache::new(
            space,
            CacheConfig::builder()
                .local_latency(LatencyModel::FREE)
                .shards(1)
                .policy(policy.clone())
                .build(),
        );
        for doc in [slow, quick] {
            cache.read(ALICE, doc).expect("fill");
        }
        let hit = |doc| {
            let outcome = cache
                .read_with(ALICE, doc, ReadOptions::default())
                .expect("hit");
            assert_eq!(outcome.class, HitClass::Hit, "{}", policy.name());
        };
        std::thread::scope(|scope| {
            scope.spawn(|| hit(slow));
            while !parked.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
            hit(quick);
            release.store(true, Ordering::SeqCst);
        });
        assert!(
            !gave_up.load(Ordering::SeqCst),
            "{}: the second hit waited for the parked reader",
            policy.name()
        );
        assert_eq!(cache.stats().hits, 2);
    }
}

/// Verifiers run exactly once per read whatever the verdict, including
/// the verdicts that are reached under the shared shard lock and applied
/// under the exclusive one, for a policy that takes hits through `&` and
/// for one whose hits are serialised (LRU), and their cost is charged
/// exactly once. After a `Replace` the entry holds the new content and
/// the store has let the old go.
#[test]
fn hit_path_runs_verifiers_once_per_read_for_every_verdict() {
    for policy in ["gds", "lru"] {
        verifiers_run_once_per_read(PolicyFactory::by_name(policy).expect("known"));
    }
}

fn verifiers_run_once_per_read(policy: PolicyFactory) {
    let verdict = Arc::new(parking_lot::Mutex::new(Validity::Valid));
    let script = {
        let verdict = verdict.clone();
        move || verdict.lock().clone()
    };
    let origin = ScriptedOrigin::new("origin body", script);
    let world = |run_verifiers: bool| {
        let space = DocumentSpace::with_middleware_cost(VirtualClock::new(), LatencyModel::FREE);
        let doc = space.create_document(ALICE, origin.clone());
        let other = space.create_document(ALICE, MemoryProvider::new("other", "o", 1));
        let config = CacheConfig::builder()
            .local_latency(LatencyModel::FREE)
            .run_verifiers(run_verifiers)
            .shards(1)
            .policy(policy.clone())
            .build();
        (space.clone(), DocumentCache::new(space, config), doc, other)
    };
    let (space, cache, doc, _) = world(true);
    let clock = space.clock().clone();
    let read = |cache: &DocumentCache, doc, expect: &str, class| {
        let outcome = cache
            .read_with(ALICE, doc, ReadOptions::default())
            .expect("the origin is up");
        assert_eq!(outcome.bytes, expect);
        assert_eq!(outcome.class, class);
    };
    read(&cache, doc, "origin body", HitClass::Miss);
    assert_eq!(origin.checks(), 0, "a fill runs no verifier");

    let verdicts = [
        (Validity::Valid, "origin body", HitClass::Hit),
        (Validity::Invalid, "origin body", HitClass::Miss),
        (
            Validity::Replace(Bytes::from_static(b"replaced")),
            "replaced",
            HitClass::Hit,
        ),
        // The entry now holds what replaced it.
        (Validity::Valid, "replaced", HitClass::Hit),
        (Validity::Unverifiable, "origin body", HitClass::Miss),
        (Validity::Valid, "origin body", HitClass::Hit),
    ];
    for (probed, (verdict_now, body, class)) in (1u64..).zip(verdicts) {
        *verdict.lock() = verdict_now.clone();
        let before = clock.now();
        read(&cache, doc, body, class);
        assert_eq!(origin.checks(), probed, "after {verdict_now:?}");
        let stats = cache.stats();
        assert_eq!(stats.verify_micros, probed * SCRIPTED_VERIFIER_COST);
        if class == HitClass::Hit {
            // A hit is the verifier's cost and nothing else on the clock.
            assert_eq!(clock.now().since(before), SCRIPTED_VERIFIER_COST);
        }
        // One entry, one reference, on the content just served.
        let size = body.len() as u64;
        assert_eq!(cache.resident_bytes(), (size, size), "{verdict_now:?}");
    }
    let stats = cache.stats();
    assert_eq!((stats.hits, stats.misses), (4, 3));
    assert_eq!(stats.verifier_invalidations, 1);
    assert_eq!(stats.verifier_replacements, 1);

    // A notifier-only cache runs no verifier, not even after an
    // invalidation gap: the gap drops the version, and the read refills it.
    *verdict.lock() = Validity::Valid;
    let (space, cache, doc, other) = world(false);
    read(&cache, doc, "origin body", HitClass::Miss);
    let ping = || {
        space
            .bus()
            .post(Invalidation::UserDocument(other, UserId(99)))
    };
    ping();
    space.bus().drop_next_deliveries(1);
    ping();
    ping();
    assert_eq!(cache.stats().notifier_gaps, 1);
    assert!(!cache.contains(ALICE, doc), "the gap dropped the version");
    let checks = origin.checks();
    read(&cache, doc, "origin body", HitClass::Miss);
    read(&cache, doc, "origin body", HitClass::Hit);
    assert_eq!(origin.checks(), checks, "no verifier ran");
    assert_eq!(cache.stats().verify_micros, 0);
}

/// Racing posts, and a cache subscribing among them, count no gap: a
/// post's number and its delivery share the bus's one lock.
#[test]
fn concurrent_posts_and_a_subscription_among_them_count_no_gap() {
    let (space, _provider, doc) = setup("content", 1);
    let early = DocumentCache::new(space.clone(), quiet_config());
    let post = || (0..2_000).for_each(|_| space.bus().post(Invalidation::Document(doc)));
    let late = std::thread::scope(|s| {
        s.spawn(post);
        s.spawn(post);
        while space.bus().counters().0 < 200 {}
        DocumentCache::new(space.clone(), quiet_config())
    });
    for cache in [early, late] {
        assert_eq!(cache.stats().notifier_gaps, 0);
    }
}

/// A verifier's replacement is hashed before the exclusive shard lock and
/// filed by its MD5 like any other content: the reader is served the new
/// bytes, the entry is bound to their digest (the epoch a write-back write
/// against it is journaled with), and the store holds them once, shared
/// with another version of the same bytes.
#[test]
fn verifier_replacement_is_filed_by_its_md5() {
    let verdict = Arc::new(parking_lot::Mutex::new(Validity::Valid));
    let script = {
        let verdict = verdict.clone();
        move || verdict.lock().clone()
    };
    let space = DocumentSpace::with_middleware_cost(VirtualClock::new(), LatencyModel::FREE);
    let doc = space.create_document(ALICE, ScriptedOrigin::new("origin body", script));
    let twin = space.create_document(ALICE, MemoryProvider::new("twin", "replaced", 1));
    let journal = WriteJournal::new(placeless_simenv::StableStore::new());
    let config = CacheConfig::builder()
        .local_latency(LatencyModel::FREE)
        .write_mode(WriteMode::Back)
        .journal(journal)
        .shards(1)
        .build();
    let cache = DocumentCache::new(space, config);
    cache.read(ALICE, twin).unwrap();
    assert_eq!(cache.read(ALICE, doc).unwrap(), "origin body");
    assert_eq!(cache.resident_bytes(), (8 + 11, 8 + 11));

    *verdict.lock() = Validity::Replace(Bytes::from_static(b"replaced"));
    let outcome = cache.read_with(ALICE, doc, ReadOptions::default()).unwrap();
    assert_eq!(
        (outcome.bytes, outcome.class),
        ("replaced".into(), HitClass::Hit)
    );
    let stats = cache.stats();
    assert_eq!((stats.verifier_replacements, stats.shared_fills), (1, 1));
    // The old content is gone; the new is stored once for two versions.
    assert_eq!(cache.resident_bytes(), (8, 16));

    *verdict.lock() = Validity::Valid;
    cache.write(ALICE, doc, b"mine").unwrap();
    let records = cache.journal().unwrap().live_records();
    assert_eq!(records.len(), 1);
    assert_eq!(records[0].epoch, placeless_cache::md5(b"replaced"));
}
