//! Fault matrix: scripted repository failures against the resilient fetch
//! pipeline (retries, circuit breaker, serve-stale degradation) and the
//! write-back flush, in the shapes `tests/model.rs` cannot reach: timeout
//! windows and retry hints, prefetch, a batch whose entries part ways, a
//! flush without a journal, and concurrent writers merged.
//!
//! Every scenario runs on the virtual clock with seeded fault plans, so
//! each test is a deterministic replay; the model holds whole runs to
//! equal `CacheStats` across same-seed replays.

use bytes::Bytes;
use parking_lot::Mutex;
use placeless_bench::fault::{self, FaultParams, ResilienceMode};
use placeless_cache::{
    BreakerState, CacheConfig, ConflictHook, ConflictResolution, DocumentCache, MergePolicy,
    OriginConfig, PrefetchConfig, ReadOptions, StalenessBound, WriteConflict, WriteJournal,
    WriteMode,
};
use placeless_core::bitprovider::BitProvider;
use placeless_core::cacheability::Cacheability;
use placeless_core::error::{PlacelessError, Result};
use placeless_core::id::{DocumentId, UserId};
use placeless_core::notifier::Invalidation;
use placeless_core::op::{apply_all, DocOp};
use placeless_core::space::DocumentSpace;
use placeless_core::streams::{InputStream, MemoryInput, OutputStream};
use placeless_core::verifier::{ClosureVerifier, Validity, Verifier};
use placeless_repository::{FsProvider, MemFs, WebProvider, WebServer};
use placeless_simenv::{FaultPlan, Instant, LatencyModel, Link, StableStore, VirtualClock};
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const USER: UserId = UserId(1);

fn lan(seed: u64) -> Link {
    Link::new(1_000, 10_000_000, 0.0, seed)
}

/// Timeout faults: a hung conditional-GET probe charges the whole hang to
/// the virtual clock before the read recovers, and a cold fetch inside a
/// timeout window surfaces [`PlacelessError::Timeout`] to the caller.
#[test]
fn timeout_during_revalidation_charges_and_surfaces() {
    let clock = VirtualClock::new();
    let space = DocumentSpace::with_middleware_cost(clock.clone(), LatencyModel::FREE);
    let server = WebServer::new("origin");
    server.publish("/page", "page body", 60_000_000);
    server.publish("/cold", "cold body", 60_000_000);
    let link = lan(3);
    link.set_fault_plan(
        FaultPlan::builder(3)
            .timeout(10_000, 80_000)
            .timeout(100_000, 150_000)
            .build(),
    );
    let warm = space.create_document(
        USER,
        WebProvider::with_revalidation(server.clone(), "/page", link.clone()),
    );
    let cold = space.create_document(USER, WebProvider::with_revalidation(server, "/cold", link));
    let cache = DocumentCache::new(
        space,
        CacheConfig::builder()
            .local_latency(LatencyModel::FREE)
            .build(),
    );

    assert_eq!(cache.read(USER, warm).expect("warm fill"), "page body");

    // Hit revalidation inside the window: the probe hangs until the
    // window closes (the hang is charged), then the refetch goes through.
    clock.advance_to(Instant(20_000));
    assert_eq!(
        cache.read(USER, warm).expect("refetched after hang"),
        "page body"
    );
    assert!(
        clock.now().as_micros() >= 80_000,
        "the hang was charged to the clock, now={}µs",
        clock.now().as_micros()
    );
    assert_eq!(cache.stats().misses, 2, "the hung probe forced a refetch");

    // A cold fetch inside the second window has no entry to fall back on:
    // the timeout surfaces, with the hang on the bill.
    clock.advance_to(Instant(110_000));
    let err = cache.read(USER, cold).expect_err("cold fetch hangs");
    assert!(matches!(err, PlacelessError::Timeout { .. }), "{err}");
    assert!(clock.now().as_micros() >= 150_000);

    // Past the window everything flows again.
    assert_eq!(cache.read(USER, cold).expect("recovered"), "cold body");
    assert_eq!(cache.stats().degraded_errors, 1);
}

/// A read's deadline bounds retry storms: a fetch that would retry
/// past the budget aborts with `Timeout` instead of backing off forever.
/// (The failures are hint-less — `error_rate`, not an outage window — so
/// the retry loop keeps backing off instead of honouring a
/// `retry_after` it cannot reach; the deadline is what stops it.)
#[test]
fn fetch_deadline_caps_the_retry_budget() {
    let clock = VirtualClock::new();
    let space = DocumentSpace::with_middleware_cost(clock.clone(), LatencyModel::FREE);
    let fs = MemFs::new(clock.clone());
    fs.create("/doc", "body");
    let link = lan(4);
    link.set_fault_plan(FaultPlan::builder(4).error_rate(1.0).build());
    let doc = space.create_document(USER, FsProvider::new(fs, "/doc", link));
    let cache = DocumentCache::new(
        space,
        CacheConfig::builder()
            .local_latency(LatencyModel::FREE)
            .origin(OriginConfig::default().max_retries(10))
            .build(),
    );

    let deadline = ReadOptions::default().deadline_micros(20_000);
    let err = cache
        .read_with(USER, doc, deadline)
        .expect_err("deadline must fire");
    assert!(matches!(err, PlacelessError::Timeout { .. }), "{err}");
    let stats = cache.stats();
    assert!(
        stats.retries < 10,
        "the deadline cut the retry budget short, used {}",
        stats.retries
    );
    assert!(clock.now().as_micros() <= 40_000, "no unbounded backoff");
}

/// A provider `retry_after` hint within the schedule's horizon floors
/// every backoff wait: the loop never retries sooner than the origin
/// said it could recover.
#[test]
fn retry_after_hint_floors_the_backoff() {
    let clock = VirtualClock::new();
    let space = DocumentSpace::with_middleware_cost(clock.clone(), LatencyModel::FREE);
    let fs = MemFs::new(clock.clone());
    fs.create("/doc", "body");
    let link = lan(5);
    link.set_fault_plan(
        FaultPlan::builder(5)
            .error_rate(1.0)
            .retry_hint(1_200)
            .build(),
    );
    let doc = space.create_document(USER, FsProvider::new(fs, "/doc", link));
    let cache = DocumentCache::new(
        space,
        CacheConfig::builder()
            .local_latency(LatencyModel::FREE)
            .origin(OriginConfig::default().max_retries(2))
            .build(),
    );

    let err = cache.read(USER, doc).expect_err("origin keeps failing");
    assert!(matches!(err, PlacelessError::Unavailable { .. }), "{err}");
    let stats = cache.stats();
    assert_eq!(stats.retries, 2, "hint within horizon keeps the loop going");
    // Waits were max(backoff, hint): 1_200 then max(1_000 + jitter, 1_200).
    assert!(
        clock.now().as_micros() >= 2_400,
        "floored backoffs must be charged, now={}µs",
        clock.now().as_micros()
    );
}

/// A `retry_after` hint beyond the schedule's horizon fails the fetch at
/// once: the origin told us it will not recover within any wait the loop
/// is prepared to make, so burning attempts (or stalling for the whole
/// advertised outage) is pointless.
#[test]
fn unreachable_retry_hint_fails_fast() {
    let clock = VirtualClock::new();
    let space = DocumentSpace::with_middleware_cost(clock.clone(), LatencyModel::FREE);
    let fs = MemFs::new(clock.clone());
    fs.create("/doc", "body");
    let link = lan(6);
    link.set_fault_plan(FaultPlan::builder(6).outage(0, 10_000_000).build());
    let doc = space.create_document(USER, FsProvider::new(fs, "/doc", link));
    let cache = DocumentCache::new(
        space,
        CacheConfig::builder()
            .local_latency(LatencyModel::FREE)
            .origin(OriginConfig::default().max_retries(10))
            .build(),
    );

    let err = cache.read(USER, doc).expect_err("origin is dark for 10s");
    assert!(matches!(err, PlacelessError::Unavailable { .. }), "{err}");
    let stats = cache.stats();
    assert_eq!(stats.retries, 0, "no retry can reach a 10s-away recovery");
    assert!(
        clock.now().as_micros() <= 50_000,
        "the loop must not wait out the advertised outage, now={}µs",
        clock.now().as_micros()
    );
}

/// Breaker lifecycle: consecutive failures trip it open, open fast-fails
/// without contacting the origin, a half-open probe fails and re-opens,
/// and a successful probe closes it again.
#[test]
fn breaker_opens_half_opens_and_recovers() {
    let clock = VirtualClock::new();
    let space = DocumentSpace::with_middleware_cost(clock.clone(), LatencyModel::FREE);
    let fs = MemFs::new(clock.clone());
    let link = lan(5);
    let plan = FaultPlan::builder(5).outage(0, 200_000).build();
    link.set_fault_plan(plan.clone());
    let mut docs = Vec::new();
    for i in 0..4 {
        let path = format!("/doc-{i}");
        fs.create(&path, "body");
        docs.push(space.create_document(USER, FsProvider::new(fs.clone(), &path, link.clone())));
    }
    let cache = DocumentCache::new(
        space,
        CacheConfig::builder()
            .local_latency(LatencyModel::FREE)
            .origin(OriginConfig::default().breaker(true))
            .build(),
    );

    // Three cold reads fail against the dark origin and trip the breaker.
    for &doc in &docs[..2] {
        assert!(cache.read(USER, doc).is_err());
        assert_eq!(cache.breaker_state("fs"), BreakerState::Closed);
    }
    assert!(cache.read(USER, docs[2]).is_err());
    assert_eq!(cache.breaker_state("fs"), BreakerState::Open);
    let failures_at_trip = plan.counters().failures_injected;

    // Open: the next read fast-fails without touching the origin.
    let err = cache.read(USER, docs[3]).expect_err("breaker rejects");
    match err {
        PlacelessError::Unavailable { retry_after, .. } => {
            assert!(retry_after.is_some(), "cool-down is advertised");
        }
        other => panic!("expected Unavailable, got {other}"),
    }
    assert_eq!(
        plan.counters().failures_injected,
        failures_at_trip,
        "no origin contact while open"
    );

    // Cool-down elapsed but the outage persists: the half-open probe
    // fails and re-opens the breaker.
    clock.advance_to(Instant(100_000));
    assert!(cache.read(USER, docs[3]).is_err());
    assert_eq!(cache.breaker_state("fs"), BreakerState::Open);

    // Outage over, cool-down over: the probe succeeds and closes it.
    clock.advance_to(Instant(250_000));
    assert_eq!(cache.read(USER, docs[3]).expect("recovered"), "body");
    assert_eq!(cache.breaker_state("fs"), BreakerState::Closed);

    let stats = cache.stats();
    assert_eq!(stats.breaker_trips, 2);
    assert_eq!(stats.degraded_errors, 5);
    assert_eq!(stats.misses, 1, "exactly one read ever got real bytes");
}

/// Collection prefetch is speculative work, so it honours an open
/// breaker like any other fetch: a sibling on a tripped origin is skipped
/// without contacting that origin, and without spending the half-open
/// probe a demand read will need.
#[test]
fn prefetch_skips_siblings_behind_an_open_breaker() {
    let clock = VirtualClock::new();
    let space = DocumentSpace::with_middleware_cost(clock.clone(), LatencyModel::FREE);
    let fs = MemFs::new(clock.clone());
    fs.create("/a", "body a");
    let doc_a = space.create_document(USER, FsProvider::new(fs, "/a", lan(6)));
    let server = WebServer::new("origin-b");
    server.publish("/b", "body b", 60_000_000);
    let link_b = lan(7);
    link_b.set_fault_plan(FaultPlan::builder(7).outage(0, 10_000).build());
    let doc_b = space.create_document(USER, WebProvider::new(server.clone(), "/b", link_b));
    for doc in [doc_a, doc_b] {
        space.add_to_collection("pair", doc).expect("doc exists");
    }
    let cache = DocumentCache::new(
        space,
        CacheConfig::builder()
            .local_latency(LatencyModel::FREE)
            .prefetch(PrefetchConfig::up_to(4))
            .origin(OriginConfig::default().breaker(true))
            .build(),
    );

    // Three failed reads trip origin B's breaker; then B comes back while
    // the cool-down is still running.
    for _ in 0..OriginConfig::BREAKER_THRESHOLD {
        assert!(cache.read(USER, doc_b).is_err());
    }
    assert_eq!(cache.breaker_state("http://origin-b"), BreakerState::Open);
    clock.advance_to(Instant(20_000));
    let (gets_before, _) = server.counters();

    // A miss on healthy origin A would prefetch its sibling on B.
    assert_eq!(
        cache.read(USER, doc_a).expect("origin A is healthy"),
        "body a"
    );
    assert_eq!(
        server.counters().0,
        gets_before,
        "no origin contact while the breaker is open"
    );
    assert!(!cache.contains(USER, doc_b));
    assert_eq!(cache.stats().prefetches, 0);
    assert_eq!(cache.breaker_state("http://origin-b"), BreakerState::Open);
}

/// An origin whose fetches fail while an out-of-band verifier still works.
/// Serve-stale must never override a definite verifier rejection.
struct RejectedOrigin {
    state: Arc<Mutex<(u64, Bytes)>>,
    down: AtomicBool,
}

impl RejectedOrigin {
    fn new(content: &str) -> Arc<Self> {
        Arc::new(Self {
            state: Arc::new(Mutex::new((0, Bytes::copy_from_slice(content.as_bytes())))),
            down: AtomicBool::new(false),
        })
    }

    fn update(&self, content: &str) {
        let mut state = self.state.lock();
        state.0 += 1;
        state.1 = Bytes::copy_from_slice(content.as_bytes());
    }
}

impl BitProvider for RejectedOrigin {
    fn describe(&self) -> String {
        "rejected-origin".into()
    }

    fn open_input(&self, clock: &VirtualClock) -> Result<Box<dyn InputStream>> {
        clock.advance(10);
        if self.down.load(Ordering::SeqCst) {
            return Err(PlacelessError::Unavailable {
                source: self.describe(),
                retry_after: None,
            });
        }
        Ok(Box::new(MemoryInput::new(self.state.lock().1.clone())))
    }

    fn open_output(&self, _clock: &VirtualClock) -> Result<Box<dyn OutputStream>> {
        Err(PlacelessError::ReadOnly(DocumentId(0)))
    }

    fn make_verifier(&self, _clock: &VirtualClock) -> Option<Box<dyn Verifier>> {
        // The verifier checks a side channel that keeps working during
        // the outage: it can still *refute* freshness while fetches fail.
        let seen = self.state.lock().0;
        let cell = Arc::clone(&self.state);
        Some(ClosureVerifier::new("side-channel", 2, move |_| {
            if cell.lock().0 == seen {
                Validity::Valid
            } else {
                Validity::Invalid
            }
        }))
    }

    fn fetch_cost_micros(&self) -> u64 {
        10
    }

    fn writable(&self) -> bool {
        false
    }

    fn cacheability_vote(&self) -> Cacheability {
        Cacheability::Unrestricted
    }
}

/// Verifier-rejected bytes are never served stale, whatever the bound.
#[test]
fn stale_service_never_overrides_a_verifier_rejection() {
    let clock = VirtualClock::new();
    let space = DocumentSpace::with_middleware_cost(clock, LatencyModel::FREE);
    let origin = RejectedOrigin::new("v1");
    let doc = space.create_document(USER, origin.clone());
    let cache = DocumentCache::new(
        space,
        CacheConfig::builder()
            .local_latency(LatencyModel::FREE)
            .origin(OriginConfig::default().serve_stale(StalenessBound::micros(u64::MAX)))
            .build(),
    );

    assert_eq!(cache.read(USER, doc).expect("warm"), "v1");

    // The content changes and the origin goes down for fetches; the
    // side-channel verifier still works and rejects the cached bytes.
    origin.update("v2");
    origin.down.store(true, Ordering::SeqCst);
    let err = cache.read(USER, doc).expect_err("rejected, not degraded");
    assert!(err.is_transient());
    let stats = cache.stats();
    assert_eq!(
        stats.stale_served, 0,
        "an unbounded staleness window still cannot serve refuted bytes"
    );
    assert_eq!(stats.verifier_invalidations, 1);
    assert_eq!(stats.degraded_errors, 1);

    // Back up: the fresh content flows.
    origin.down.store(false, Ordering::SeqCst);
    assert_eq!(cache.read(USER, doc).expect("recovered"), "v2");
}

/// The E-FAULT acceptance claim: with serve-stale + breaker, availability
/// during the scripted outage is strictly higher than without resilience,
/// and the numbers replay identically for the same seed.
#[test]
fn e_fault_availability_ranks_and_replays() {
    let params = FaultParams::default();
    let first = fault::sweep(params);
    let second = fault::sweep(params);

    let off = &first[0];
    let full = &first[2];
    assert_eq!(off.mode, ResilienceMode::Off);
    assert_eq!(full.mode, ResilienceMode::BreakerAndStale);
    assert!(
        full.availability() > off.availability(),
        "resilient {} must strictly beat unprotected {}",
        full.availability(),
        off.availability()
    );
    assert_eq!(full.failed, 0, "serve-stale masks the whole outage");
    assert!(full.stats.stale_served > 0);
    assert!(full.stats.breaker_trips > 0);

    for (a, b) in first.iter().zip(&second) {
        assert_eq!(a.stats, b.stats, "{:?} must replay exactly", a.mode);
        assert_eq!((a.served, a.failed), (b.served, b.failed));
    }
}

/// Write-through failures are recorded on the *same* per-origin breakers
/// the read path uses: a storm of failed writes opens the breaker for
/// reads too, and a successful write probe closes it for both.
#[test]
fn write_through_failures_trip_the_shared_breaker() {
    let clock = VirtualClock::new();
    let space = DocumentSpace::with_middleware_cost(clock.clone(), LatencyModel::FREE);
    let fs = MemFs::new(clock.clone());
    fs.create("/doc", "v0");
    let link = lan(11);
    link.set_fault_plan(FaultPlan::builder(11).outage(0, 100_000).build());
    let doc = space.create_document(USER, FsProvider::new(fs.clone(), "/doc", link));
    let cache = DocumentCache::new(
        space,
        CacheConfig::builder()
            .local_latency(LatencyModel::FREE)
            .write_mode(WriteMode::Through)
            .origin(OriginConfig::default().breaker(true))
            .build(),
    );

    // Three write-through failures against the dark origin trip the breaker.
    for body in [b"w1", b"w2"] {
        assert!(cache.write(USER, doc, body).is_err());
        assert_eq!(cache.breaker_state("fs"), BreakerState::Closed);
    }
    assert!(cache.write(USER, doc, b"w3").is_err());
    assert_eq!(cache.breaker_state("fs"), BreakerState::Open);

    // The read path fast-fails on the breaker the writes opened.
    let err = cache.read(USER, doc).expect_err("shared breaker rejects");
    match err {
        PlacelessError::Unavailable { retry_after, .. } => {
            assert!(retry_after.is_some(), "cool-down is advertised")
        }
        other => panic!("expected Unavailable, got {other}"),
    }

    // Outage and cool-down over: a write probe succeeds and closes the
    // breaker for reads as well.
    clock.advance_to(Instant(200_000));
    cache.write(USER, doc, b"w4").expect("origin is back");
    assert_eq!(cache.breaker_state("fs"), BreakerState::Closed);
    assert_eq!(fs.read("/doc").expect("file exists"), "w4");
    assert_eq!(cache.read(USER, doc).expect("reads flow again"), "w4");
    assert_eq!(cache.stats().breaker_trips, 1);
}

/// The flush data-loss regression: a mid-flush write failure used to
/// abandon the failed entry *and* every entry not yet attempted. Now the
/// flush keeps going, re-queues what failed, and reports it.
#[test]
fn flush_into_outage_loses_nothing_and_drains_later() {
    let clock = VirtualClock::new();
    let space = DocumentSpace::with_middleware_cost(clock.clone(), LatencyModel::FREE);
    let fs = MemFs::new(clock.clone());
    let healthy = lan(12);
    let dark = lan(13);
    dark.set_fault_plan(FaultPlan::builder(13).outage(0, 400_000).build());
    // Doc 0 flushes over a healthy link; docs 1 and 2 hit the outage.
    fs.create("/d0", "old0");
    fs.create("/d1", "old1");
    fs.create("/d2", "old2");
    let d0 = space.create_document(USER, FsProvider::new(fs.clone(), "/d0", healthy));
    let d1 = space.create_document(USER, FsProvider::new(fs.clone(), "/d1", dark.clone()));
    let d2 = space.create_document(USER, FsProvider::new(fs.clone(), "/d2", dark));
    let cache = DocumentCache::new(
        space,
        CacheConfig::builder()
            .local_latency(LatencyModel::FREE)
            .write_mode(WriteMode::Back)
            .build(),
    );
    cache.write(USER, d0, b"new0").expect("buffers");
    cache.write(USER, d1, b"new1").expect("buffers");
    cache.write(USER, d2, b"new2").expect("buffers");
    assert_eq!(cache.dirty_count(), 3);

    let report = cache.flush().expect("flush reports, not errors");
    assert!(!report.is_clean());
    assert_eq!(report.attempted, 3);
    assert_eq!(report.flushed, 1, "the healthy origin's entry flushed");
    assert_eq!(
        report.requeued.len(),
        2,
        "the dark origin's entries did not"
    );
    assert!(report
        .requeued
        .iter()
        .all(|(doc, user, err)| (*doc == d1 || *doc == d2) && *user == USER && err.is_transient()));
    assert_eq!(
        cache.dirty_count(),
        2,
        "failed entries are re-queued, not dropped"
    );
    assert_eq!(fs.read("/d0").expect("file exists"), "new0");
    assert_eq!(fs.read("/d1").expect("file exists"), "old1");

    // Origin back: the re-queued entries drain completely.
    clock.advance_to(Instant(500_000));
    let report = cache.flush().expect("flush succeeds");
    assert!(report.is_clean());
    assert_eq!(report.flushed, 2);
    assert_eq!(cache.dirty_count(), 0);
    assert_eq!(fs.read("/d1").expect("file exists"), "new1");
    assert_eq!(fs.read("/d2").expect("file exists"), "new2");
    assert_eq!(cache.stats().flushes, 3);
}

/// A flush interrupted by a timeout window: the hung write is charged to
/// the clock, surfaces as `Timeout`, and the entry stays dirty for the
/// next flush.
#[test]
fn flush_interrupted_by_timeout_requeues_the_entry() {
    let clock = VirtualClock::new();
    let space = DocumentSpace::with_middleware_cost(clock.clone(), LatencyModel::FREE);
    let fs = MemFs::new(clock.clone());
    fs.create("/doc", "old");
    let link = lan(14);
    link.set_fault_plan(FaultPlan::builder(14).timeout(0, 90_000).build());
    let doc = space.create_document(USER, FsProvider::new(fs.clone(), "/doc", link));
    let cache = DocumentCache::new(
        space,
        CacheConfig::builder()
            .local_latency(LatencyModel::FREE)
            .write_mode(WriteMode::Back)
            .build(),
    );
    cache.write(USER, doc, b"new").expect("buffers");

    let report = cache.flush().expect("flush reports, not errors");
    assert_eq!(report.flushed, 0);
    let (_, _, err) = &report.requeued[0];
    assert!(matches!(err, PlacelessError::Timeout { .. }), "{err}");
    assert!(
        clock.now().as_micros() >= 90_000,
        "the hang was charged to the clock, now={}µs",
        clock.now().as_micros()
    );
    assert_eq!(cache.dirty_count(), 1, "the write survived the timeout");
    assert_eq!(fs.read("/doc").expect("file exists"), "old");

    let report = cache.flush().expect("flush succeeds past the window");
    assert!(report.is_clean());
    assert_eq!(cache.dirty_count(), 0);
    assert_eq!(fs.read("/doc").expect("file exists"), "new");
}

/// Recovery finds the origin moved on while writes sat buffered across
/// the crash: each conflict is surfaced (never silent last-writer-wins)
/// and resolved per the hook — keep-mine re-queues, keep-theirs drops.
#[test]
fn recovery_conflicts_resolve_keep_mine_and_keep_theirs() {
    let clock = VirtualClock::new();
    let space = DocumentSpace::with_middleware_cost(clock, LatencyModel::FREE);
    let origin_a = placeless_core::bitprovider::MemoryProvider::new("a", "base-a", 100);
    let origin_b = placeless_core::bitprovider::MemoryProvider::new("b", "base-b", 100);
    let doc_a = space.create_document(USER, origin_a.clone());
    let doc_b = space.create_document(USER, origin_b.clone());
    let medium = StableStore::new();
    let config = || {
        CacheConfig::builder()
            .local_latency(LatencyModel::FREE)
            .write_mode(WriteMode::Back)
            .run_verifiers(false)
    };
    {
        let cache = DocumentCache::new(
            space.clone(),
            config().journal(WriteJournal::new(medium.clone())).build(),
        );
        // Read first, so each journal record carries the epoch (the
        // signature of the rendition the writer based its edit on).
        cache.read(USER, doc_a).expect("warm");
        cache.read(USER, doc_b).expect("warm");
        cache.write(USER, doc_a, b"mine-a").expect("buffers");
        cache.write(USER, doc_b, b"mine-b").expect("buffers");
    } // crash before any flush

    // Both origins change out of band while the process is down.
    origin_a.set_out_of_band("theirs-a");
    origin_b.set_out_of_band("theirs-b");

    let (journal, outcome) = WriteJournal::open(medium.clone());
    assert_eq!(outcome.records.len(), 2);
    let hook: ConflictHook = Arc::new(move |conflict: &WriteConflict| {
        if conflict.doc == doc_a {
            ConflictResolution::KeepMine
        } else {
            ConflictResolution::KeepTheirs
        }
    });
    let (cache, report) =
        DocumentCache::recover(space, config().journal(journal.clone()).build(), Some(hook));
    assert_eq!(report.replayed, 2);
    assert_eq!(report.conflicts.len(), 2, "both divergences were detected");
    assert_eq!((report.merge.kept_mine, report.merge.kept_theirs), (1, 1));
    for conflict in &report.conflicts {
        assert_ne!(conflict.journal_epoch, conflict.origin_signature);
    }
    assert_eq!(cache.stats().write_conflicts, 2);
    assert_eq!(cache.dirty_count(), 1, "only the kept-mine write re-queued");
    assert_eq!(journal.len(), 1, "keep-theirs acked its record away");

    let flush = cache.flush().expect("flush succeeds");
    assert!(flush.is_clean());
    assert_eq!(
        origin_a.content(),
        "mine-a",
        "keep-mine overwrote the origin"
    );
    assert_eq!(origin_b.content(), "theirs-b", "keep-theirs left it alone");
    assert!(journal.is_empty());
}

/// A grouped flush whose origin batch straddles an outage: the healthy
/// document's write lands and its journal record is acknowledged even
/// though its batch-mates failed, while only the dark documents park.
/// Batching never coarsens per-entry outcomes.
#[test]
fn batched_flush_straddling_outage_parks_only_failed_entries() {
    let clock = VirtualClock::new();
    let space = DocumentSpace::with_middleware_cost(clock.clone(), LatencyModel::FREE);
    let fs = MemFs::new(clock.clone());
    let healthy = lan(21);
    let dark = lan(22);
    dark.set_fault_plan(FaultPlan::builder(22).outage(0, 300_000).build());
    fs.create("/a", "old a");
    fs.create("/b", "old b");
    fs.create("/c", "old c");
    let a = space.create_document(USER, FsProvider::new(fs.clone(), "/a", healthy));
    let b = space.create_document(USER, FsProvider::new(fs.clone(), "/b", dark.clone()));
    let c = space.create_document(USER, FsProvider::new(fs.clone(), "/c", dark));
    let journal = WriteJournal::new(StableStore::new());
    let cache = DocumentCache::new(
        space,
        CacheConfig::builder()
            .local_latency(LatencyModel::FREE)
            .write_mode(WriteMode::Back)
            .journal(journal.clone())
            .build(),
    );
    cache.write(USER, a, b"new a").expect("buffers");
    cache.write(USER, b, b"new b").expect("buffers");
    cache.write(USER, c, b"new c").expect("buffers");
    assert_eq!(journal.len(), 3);

    let report = cache.flush().expect("flush reports, not errors");
    // All three documents share the "fs" origin: one group, one batch.
    assert_eq!(report.batches, 1);
    assert_eq!(report.attempted, 3);
    assert_eq!(report.flushed, 1, "the healthy entry landed");
    let mut parked: Vec<DocumentId> = report.parked.iter().map(|(d, _)| *d).collect();
    parked.sort();
    let mut dark_docs = vec![b, c];
    dark_docs.sort();
    assert_eq!(parked, dark_docs, "only the dark entries parked");
    assert!(report.requeued.is_empty());
    assert_eq!(
        report.attempted,
        report.flushed + (report.parked.len() + report.requeued.len()) as u64
    );
    // The successful entry's journal record was acknowledged even though
    // the rest of its batch failed; the parked records stay durable.
    assert_eq!(journal.len(), 2, "only the parked records stay journaled");
    assert_eq!(fs.read("/a").expect("file exists"), "new a");
    assert_eq!(fs.read("/b").expect("file exists"), "old b");
    let stats = cache.stats();
    assert!(stats.flush_batches >= 1, "the grouped path ran");
    assert_eq!(stats.flushes, 1, "one entry succeeded via the batch");
    assert_eq!(stats.writes_parked, 2);

    // Past the outage and the breaker cool-down, the parked half of the
    // batch drains and the journal empties.
    clock.advance_to(Instant(500_000));
    let report = cache.flush().expect("second flush");
    assert!(report.is_clean());
    assert!(journal.is_empty());
    assert_eq!(fs.read("/b").expect("file exists"), "new b");
    assert_eq!(fs.read("/c").expect("file exists"), "new c");
}

/// Grouping never merges origins: a dark filesystem origin trips its own
/// breaker while a healthy web origin in the same flush keeps flushing,
/// and the open breaker rejects only its own group on the next pass.
#[test]
fn mixed_origin_batches_keep_breaker_isolation() {
    let clock = VirtualClock::new();
    let space = DocumentSpace::with_middleware_cost(clock.clone(), LatencyModel::FREE);
    let fs = MemFs::new(clock.clone());
    fs.create("/f0", "old");
    fs.create("/f1", "old");
    let dark = lan(23);
    dark.set_fault_plan(FaultPlan::builder(23).outage(0, 1_000_000).build());
    let f0 = space.create_document(USER, FsProvider::new(fs.clone(), "/f0", dark.clone()));
    let f1 = space.create_document(USER, FsProvider::new(fs.clone(), "/f1", dark));
    let server = WebServer::new("origin");
    server.publish("/w0", "old", 60_000_000);
    server.publish("/w1", "old", 60_000_000);
    let web = lan(24);
    let w0 = space.create_document(
        USER,
        WebProvider::with_revalidation(server.clone(), "/w0", web.clone()),
    );
    let w1 = space.create_document(
        USER,
        WebProvider::with_revalidation(server.clone(), "/w1", web),
    );
    let journal = WriteJournal::new(StableStore::new());
    let cache = DocumentCache::new(
        space,
        CacheConfig::builder()
            .local_latency(LatencyModel::FREE)
            .write_mode(WriteMode::Back)
            .journal(journal.clone())
            .origin(OriginConfig::default().breaker(true))
            .build(),
    );
    for (doc, body) in [
        (f0, "new f0"),
        (f1, "new f1"),
        (w0, "new w0"),
        (w1, "new w1"),
    ] {
        cache.write(USER, doc, body.as_bytes()).expect("buffers");
    }

    let report = cache.flush().expect("flush reports, not errors");
    assert_eq!(report.batches, 2, "one group per origin");
    assert_eq!(report.flushed, 2, "the healthy web origin flushed");
    assert_eq!(report.parked.len(), 2, "the dark fs origin parked");
    assert_eq!(
        report.attempted,
        report.flushed + (report.parked.len() + report.requeued.len()) as u64
    );
    // Each flush is one failed attempt on the dark group; the third trips.
    for _ in 1..OriginConfig::BREAKER_THRESHOLD {
        assert_eq!(cache.flush().expect("flush").parked.len(), 2);
    }
    assert_eq!(cache.breaker_state("fs"), BreakerState::Open);
    assert_eq!(cache.breaker_state("http://origin"), BreakerState::Closed);
    assert_eq!(server.get("/w0").expect("served").body, "new w0");
    assert_eq!(server.get("/w1").expect("served").body, "new w1");
    assert_eq!(fs.read("/f0").expect("file exists"), "old");

    // While the fs breaker is open, a fresh web write still flushes; the
    // parked fs entries are rejected at admission without a probe.
    cache.write(USER, w0, b"newer w0").expect("buffers");
    let report = cache.flush().expect("second flush");
    assert_eq!(report.flushed, 1);
    assert_eq!(report.parked.len(), 2, "fs entries re-park without probing");
    assert_eq!(
        report.attempted,
        report.flushed + (report.parked.len() + report.requeued.len()) as u64
    );
    assert_eq!(cache.breaker_state("http://origin"), BreakerState::Closed);
    assert_eq!(server.get("/w0").expect("served").body, "newer w0");
}

// ---------------------------------------------------------------------
// Operation-based multi-writer merge
// ---------------------------------------------------------------------

const BOB: UserId = UserId(2);

/// Write-back + journal + merge policy over a shared FsProvider document.
fn merge_config(journal: WriteJournal) -> CacheConfig {
    CacheConfig::builder()
        .local_latency(LatencyModel::FREE)
        .write_mode(WriteMode::Back)
        .shards(1)
        .journal(journal)
        .merge(MergePolicy::new())
        .build()
}

/// Two write-back caches append typed ops to one document; one crashes
/// with its edits only journaled. Recovery detects that the origin moved
/// under the crashed writer and rebases its ops onto the survivor's
/// landed content — neither writer's acknowledged edits are lost.
#[test]
fn two_writers_crash_then_recovery_merges_both_edit_streams() {
    let clock = VirtualClock::new();
    let space = DocumentSpace::with_middleware_cost(clock.clone(), LatencyModel::FREE);
    let fs = MemFs::new(clock.clone());
    fs.create("/shared", "seed;");
    let doc = space.create_document(USER, FsProvider::new(fs.clone(), "/shared", lan(61)));
    space.add_reference(BOB, doc).expect("doc exists");

    let medium = StableStore::new();
    let alice = DocumentCache::new(
        space.clone(),
        merge_config(WriteJournal::new(medium.clone())),
    );
    let bob = DocumentCache::new(
        space.clone(),
        merge_config(WriteJournal::new(StableStore::new())),
    );
    alice.read(USER, doc).expect("warm fill");
    bob.read(BOB, doc).expect("warm fill");
    for token in ["A1;", "A2;"] {
        alice
            .write_op(USER, doc, DocOp::Append(Bytes::from(token)))
            .expect("op write buffers");
    }
    for token in ["B1;", "B2;"] {
        bob.write_op(BOB, doc, DocOp::Append(Bytes::from(token)))
            .expect("op write buffers");
    }
    assert!(bob.flush().expect("healthy origin").is_clean());
    drop(alice); // crash: Alice's buffered ops survive only in her journal

    let (journal, _) = WriteJournal::open(medium);
    let (recovered, report) = DocumentCache::recover(space, merge_config(journal), None);
    assert_eq!(report.replayed, 1, "one cumulative record per (doc, user)");
    assert_eq!(report.conflicts.len(), 1, "the origin moved under Alice");
    assert_eq!(report.merge.merged, 1);
    assert_eq!(report.merge.rebases, 2, "both appends were rebased");
    assert_eq!(
        report.merge.kept_mine + report.merge.kept_theirs,
        0,
        "nobody lost"
    );
    assert!(report.to_string().contains("1 merged"), "{report}");
    assert!(recovered.flush().expect("healthy origin").is_clean());

    assert_eq!(
        fs.read("/shared").expect("file exists"),
        Bytes::from("seed;B1;B2;A1;A2;"),
        "canonical order: Bob landed first, Alice rebases on top"
    );
    let stats = recovered.stats();
    assert_eq!(stats.conflicts_merged, 1);
    assert_eq!(stats.merge_rebases, 2);
}

/// A scheduled partition window isolates one cache mid-flush: its
/// entries park, the other writer lands after the heal, and the parked
/// retry then merges onto the moved origin instead of clobbering it.
#[test]
fn partition_mid_flush_parks_then_merges_after_heal() {
    let clock = VirtualClock::new();
    let space = DocumentSpace::with_middleware_cost(clock.clone(), LatencyModel::FREE);
    let fs = MemFs::new(clock.clone());
    fs.create("/shared", "seed;");
    let link = lan(62);
    link.set_fault_plan(FaultPlan::builder(62).partition(50_000, 150_000).build());
    let doc = space.create_document(USER, FsProvider::new(fs.clone(), "/shared", link));
    space.add_reference(BOB, doc).expect("doc exists");

    let alice = DocumentCache::new(
        space.clone(),
        merge_config(WriteJournal::new(StableStore::new())),
    );
    let bob = DocumentCache::new(
        space.clone(),
        merge_config(WriteJournal::new(StableStore::new())),
    );
    alice.read(USER, doc).expect("warm fill");
    bob.read(BOB, doc).expect("warm fill");
    alice
        .write_op(USER, doc, DocOp::Append(Bytes::from("A;")))
        .expect("op write buffers");
    bob.write_op(BOB, doc, DocOp::Append(Bytes::from("B;")))
        .expect("op write buffers");

    // Bob tries to save inside the partition: nothing lands, nothing is
    // lost — the entry parks and stays dirty.
    clock.advance_to(Instant(60_000));
    let parked = bob.flush().expect("the flush itself runs");
    assert!(!parked.is_clean(), "{parked}");
    assert_eq!(parked.flushed, 0);
    assert!(bob.dirty_count() > 0, "the write is still buffered");

    // After the heal, Alice lands first; Bob's retry faces a moved
    // origin and rebases his op onto it.
    clock.advance_to(Instant(160_000));
    assert!(alice.flush().expect("healed origin").is_clean());
    let healed = bob.flush().expect("healed origin");
    assert!(healed.is_clean(), "{healed}");
    assert!(!healed.merge.is_empty(), "the retry went through the merge");

    assert_eq!(
        fs.read("/shared").expect("file exists"),
        Bytes::from("seed;A;B;"),
        "both appends survive the partition"
    );
    assert_eq!(bob.stats().conflicts_merged, 1);
    assert!(
        bob.stats().writes_parked > 0,
        "the partition parked the write"
    );
}

/// A write parked by a partition and later resolved `KeepTheirs` has left
/// the dirty set for good: the parked gauge must drop with it.
#[test]
fn parked_write_dropped_by_keep_theirs_leaves_the_parked_gauge() {
    let clock = VirtualClock::new();
    let space = DocumentSpace::with_middleware_cost(clock.clone(), LatencyModel::FREE);
    let fs = MemFs::new(clock.clone());
    fs.create("/shared", "seed;");
    let link = lan(63);
    link.set_fault_plan(FaultPlan::builder(63).partition(50_000, 150_000).build());
    let doc = space.create_document(USER, FsProvider::new(fs.clone(), "/shared", link));
    space.add_reference(BOB, doc).expect("doc exists");

    let keep_theirs = || {
        let mut config = merge_config(WriteJournal::new(StableStore::new()));
        let hook: ConflictHook = Arc::new(|_| ConflictResolution::KeepTheirs);
        config.merge = Some(MergePolicy::new().on_unmergeable(hook));
        config
    };
    let alice = DocumentCache::new(space.clone(), keep_theirs());
    let bob = DocumentCache::new(space.clone(), keep_theirs());
    alice.read(USER, doc).expect("warm fill");
    bob.read(BOB, doc).expect("warm fill");
    alice.write(USER, doc, b"alice").expect("write buffers");
    bob.write(BOB, doc, b"bob").expect("write buffers");

    clock.advance_to(Instant(60_000));
    let parked = bob.flush().expect("the flush itself runs");
    assert_eq!(parked.parked, vec![(doc, BOB)], "{parked}");
    assert_eq!(bob.parked_count(), 1);

    // After the heal Alice lands first; Bob's plain write cannot be
    // rebased onto the moved origin and the policy keeps theirs.
    clock.advance_to(Instant(160_000));
    assert!(alice.flush().expect("healed origin").is_clean());
    let healed = bob.flush().expect("healed origin");
    assert_eq!(healed.dropped, vec![(doc, BOB)], "{healed}");
    assert_eq!(bob.dirty_count(), 0);
    assert_eq!(bob.parked_count(), 0, "a dropped write is no longer parked");
    assert_eq!(
        fs.read("/shared").expect("file exists"),
        Bytes::from("alice")
    );
}

/// A second plain write over a still-buffered one keeps the *first*
/// write's base epoch: the writer has only ever been served their own
/// dirty bytes since, so that epoch is the last origin rendition they
/// saw. Taking the epoch from the resident entry instead would launder
/// the conflict once an invalidation dropped that entry (`NO_EPOCH`
/// skips the flush-time probe and the origin is blindly overwritten).
#[test]
fn second_plain_write_keeps_the_buffered_epoch() {
    for second_write in [false, true] {
        let clock = VirtualClock::new();
        let space = DocumentSpace::with_middleware_cost(clock.clone(), LatencyModel::FREE);
        let fs = MemFs::new(clock.clone());
        fs.create("/shared", "seed");
        let doc = space.create_document(USER, FsProvider::new(fs.clone(), "/shared", lan(64)));
        space.add_reference(BOB, doc).expect("doc exists");

        let keep_theirs = || {
            let mut config = merge_config(WriteJournal::new(StableStore::new()));
            let hook: ConflictHook = Arc::new(|_| ConflictResolution::KeepTheirs);
            config.merge = Some(MergePolicy::new().on_unmergeable(hook));
            config
        };
        let alice = DocumentCache::new(space.clone(), keep_theirs());
        let bob = DocumentCache::new(space.clone(), keep_theirs());
        alice.read(USER, doc).expect("warm fill");
        bob.read(BOB, doc).expect("warm fill");
        alice.write(USER, doc, b"alice 1").expect("write buffers");
        bob.write(BOB, doc, b"bob").expect("write buffers");
        assert!(bob.flush().expect("healthy origin").is_clean());
        space.bus().post(Invalidation::Document(doc));
        if second_write {
            alice.write(USER, doc, b"alice 2").expect("write buffers");
        }

        let report = alice.flush().expect("healthy origin");
        assert_eq!(
            report.dropped,
            vec![(doc, USER)],
            "second_write={second_write}: {report}"
        );
        assert_eq!(alice.stats().write_conflicts, 1, "the probe ran");
        assert_eq!(fs.read("/shared").expect("file exists"), Bytes::from("bob"));
    }
}

/// With `merge: None` (the default) the write-back pipeline is the
/// pre-merge one: plain v1 journal frames, no flush-time conflict probe,
/// and a concurrent writer is blindly overwritten — last writer wins.
#[test]
fn merge_disabled_preserves_the_blind_overwrite_pipeline() {
    let clock = VirtualClock::new();
    let space = DocumentSpace::with_middleware_cost(clock.clone(), LatencyModel::FREE);
    let fs = MemFs::new(clock.clone());
    fs.create("/shared", "seed");
    let doc = space.create_document(USER, FsProvider::new(fs.clone(), "/shared", lan(63)));
    space.add_reference(BOB, doc).expect("doc exists");

    let medium = StableStore::new();
    let plain_config = || {
        CacheConfig::builder()
            .local_latency(LatencyModel::FREE)
            .write_mode(WriteMode::Back)
            .shards(1)
            .journal(WriteJournal::new(medium.clone()))
            .build()
    };
    let alice = DocumentCache::new(space.clone(), plain_config());
    let bob = DocumentCache::new(
        space.clone(),
        CacheConfig::builder()
            .local_latency(LatencyModel::FREE)
            .write_mode(WriteMode::Back)
            .shards(1)
            .build(),
    );
    alice.read(USER, doc).expect("warm fill");
    alice.write(USER, doc, b"alice version").expect("buffers");
    bob.write(BOB, doc, b"bob version").expect("buffers");
    assert!(bob.flush().expect("healthy origin").is_clean());

    // The journal holds a plain v1 frame: no ops, no causal sequence.
    let records = {
        let (journal, _) = WriteJournal::open(medium.clone());
        journal.live_records()
    };
    assert_eq!(records.len(), 1);
    assert!(records[0].ops.is_empty(), "plain writes journal no ops");
    assert_eq!(records[0].writer_seq, 0);

    // Flush never probes the origin: the moved document is clobbered
    // without a conflict being counted anywhere.
    assert!(alice.flush().expect("healthy origin").is_clean());
    assert_eq!(
        fs.read("/shared").expect("file exists"),
        Bytes::from("alice version"),
        "last writer wins, exactly as before the merge subsystem"
    );
    let stats = alice.stats();
    assert_eq!(stats.write_conflicts, 0, "no probe ran");
    assert_eq!(stats.conflicts_merged, 0);
    assert_eq!(stats.merge_rebases, 0);
}

// The reference model of the op-based merge: what the origin must hold
// after any set of rebasable contributions, whatever order they arrived
// in. The cache itself never calls it — it merges through
// `op::apply_all` in recovery and server-side in `write_documents` — so
// the proptest below holds one real flush to it.

/// One writer's contribution to a merge: the typed ops it accumulated
/// since its base epoch, plus the causal coordinates that order it.
#[derive(Debug, Clone, PartialEq)]
pub struct Contribution {
    /// The writing user.
    pub user: UserId,
    /// Per-`(doc, user)` causal sequence at the time of the write.
    pub writer_seq: u64,
    /// Journal-wide sequence number (tie-breaker of last resort).
    pub seq: u64,
    /// The ops, oldest first.
    pub ops: Vec<DocOp>,
}

impl Contribution {
    fn causal_key(&self) -> (u64, u64, u64) {
        (self.user.0, self.writer_seq, self.seq)
    }
}

/// Sorts contributions into the canonical causal order — ascending
/// `(user, writer_seq, seq)` — and drops replayed duplicates (same user
/// and writer sequence). This is what makes the merge order-independent
/// and idempotent: any permutation, with any contribution repeated,
/// canonicalizes to the same list.
pub fn canonical_order(mut contributions: Vec<Contribution>) -> Vec<Contribution> {
    contributions.sort_by_key(Contribution::causal_key);
    contributions.dedup_by_key(|c| (c.user.0, c.writer_seq));
    contributions
}

/// Rebases every contribution onto `origin` in canonical order, returning
/// the merged content and how many individual ops were re-applied.
///
/// The caller is responsible for only passing rebasable contributions; a
/// full-body `Replace` in the fold would silently discard every
/// contribution ordered before it.
pub fn merge_onto(origin: &Bytes, contributions: Vec<Contribution>) -> (Bytes, u64) {
    let canonical = canonical_order(contributions);
    let mut view = origin.clone();
    let mut rebases = 0;
    for c in &canonical {
        view = apply_all(&view, &c.ops);
        rebases += c.ops.len() as u64;
    }
    (view, rebases)
}

mod merge_model {
    use super::*;

    fn b(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    fn contrib(user: u64, writer_seq: u64, seq: u64, ops: Vec<DocOp>) -> Contribution {
        Contribution {
            user: UserId(user),
            writer_seq,
            seq,
            ops,
        }
    }

    #[test]
    fn merge_is_order_independent() {
        let origin = b("base;");
        let a = contrib(1, 1, 10, vec![DocOp::Append(b("alice;"))]);
        let bb = contrib(2, 1, 11, vec![DocOp::Append(b("bob;"))]);
        let (fwd, _) = merge_onto(&origin, vec![a.clone(), bb.clone()]);
        let (rev, _) = merge_onto(&origin, vec![bb, a]);
        assert_eq!(fwd, rev);
        assert_eq!(fwd, b("base;alice;bob;"));
    }

    #[test]
    fn merge_is_idempotent_under_replay() {
        let origin = b("v:");
        let a = contrib(1, 1, 10, vec![DocOp::Append(b("x"))]);
        let (once, rebases_once) = merge_onto(&origin, vec![a.clone()]);
        let (twice, rebases_twice) = merge_onto(&origin, vec![a.clone(), a]);
        assert_eq!(once, twice, "a replayed contribution folds once");
        assert_eq!(rebases_once, rebases_twice);
    }

    #[test]
    fn canonical_order_sorts_by_user_then_writer_seq() {
        let list = vec![
            contrib(2, 1, 5, vec![]),
            contrib(1, 2, 9, vec![]),
            contrib(1, 1, 7, vec![]),
        ];
        let ordered = canonical_order(list);
        let keys: Vec<_> = ordered.iter().map(Contribution::causal_key).collect();
        assert_eq!(keys, vec![(1, 1, 7), (1, 2, 9), (2, 1, 5)]);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// One real flush agrees with the model: the same contributions,
    /// issued as `write_op`s by several users in a shuffled arrival order
    /// through one write-back cache (journal + merge policy), leave the
    /// origin holding exactly `merge_onto`'s bytes — the flush's
    /// `(doc, user)` sort is the canonical order the model claims — and
    /// the model itself is order-independent (canonical causal order, not
    /// arrival order) and idempotent (duplicate deliveries collapse), the
    /// property that makes recovery-then-flush safe to repeat after a
    /// second crash.
    #[test]
    fn merge_replay_is_order_independent_and_idempotent(
        seed in any::<u64>(),
        writers in 1u64..4,
        edits in 1u64..5,
    ) {
        let origin = Bytes::from("origin;");
        let mut arrivals = Vec::new();
        for w in 1..=writers {
            for e in 1..=edits {
                arrivals.push((UserId(w), DocOp::Append(Bytes::from(format!("w{w}e{e};")))));
            }
        }
        // A deterministic shuffle driven by the proptest seed.
        let mut state = seed | 1;
        for i in (1..arrivals.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            arrivals.swap(i, (state >> 33) as usize % (i + 1));
        }

        // The real cache sees the arrival order; a writer's causal
        // sequence is the order its own ops arrived in.
        let clock = VirtualClock::new();
        let space = DocumentSpace::with_middleware_cost(clock.clone(), LatencyModel::FREE);
        let fs = MemFs::new(clock.clone());
        fs.create("/shared", origin.clone());
        let doc = space.create_document(USER, FsProvider::new(fs.clone(), "/shared", lan(64)));
        for w in 2..=writers {
            space.add_reference(UserId(w), doc).expect("doc exists");
        }
        let mut config = merge_config(WriteJournal::new(StableStore::new()));
        config.shards = 4;
        let cache = DocumentCache::new(space, config);
        let mut contributions = Vec::new();
        let mut writer_seqs = std::collections::HashMap::new();
        for (seq, (user, op)) in arrivals.into_iter().enumerate() {
            cache.write_op(user, doc, op.clone()).expect("write buffers");
            let writer_seq: &mut u64 = writer_seqs.entry(user).or_default();
            *writer_seq += 1;
            contributions.push(Contribution {
                user,
                writer_seq: *writer_seq,
                seq: seq as u64,
                ops: vec![op],
            });
        }
        let report = cache.flush().expect("healthy origin");
        prop_assert!(report.is_clean(), "{}", report);
        prop_assert_eq!(report.flushed, writers, "one dirty entry per writer");

        let (in_order, rebased_a) = merge_onto(&origin, contributions.clone());
        prop_assert_eq!(
            &fs.read("/shared").expect("file exists"),
            &in_order,
            "the flush must land the model's bytes"
        );
        prop_assert_eq!(rebased_a, writers * edits);
        let mut reversed = contributions.clone();
        reversed.reverse();
        let (out_of_order, rebased_b) = merge_onto(&origin, reversed);
        prop_assert_eq!(&in_order, &out_of_order, "arrival order must not matter");
        prop_assert_eq!(rebased_a, rebased_b);
        // Duplicate delivery of every contribution changes nothing, and
        // neither does flushing again.
        let mut doubled = contributions.clone();
        doubled.extend(contributions);
        let (deduped, rebased_c) = merge_onto(&origin, doubled);
        prop_assert_eq!(&in_order, &deduped, "replay must be idempotent");
        prop_assert_eq!(rebased_a, rebased_c);
        prop_assert_eq!(cache.flush().expect("healthy origin").attempted, 0);
        prop_assert_eq!(&fs.read("/shared").expect("file exists"), &in_order);
    }
}
