//! Overload-control integration tests: deadline-aware admission on the
//! per-origin window, the window's one width, the brownout ladder's rungs,
//! and deterministic shed decisions — all end to end through
//! [`DocumentCache`].

use bytes::Bytes;
use placeless_cache::{
    CacheConfig, CacheStats, DocumentCache, HitClass, OriginConfig, OverloadControl, Priority,
    ReadOptions, StalenessBound, WindowConfig,
};
use placeless_core::bitprovider::BitProvider;
use placeless_core::error::{PlacelessError, Result};
use placeless_core::event::{EventKind, Interests};
use placeless_core::id::UserId;
use placeless_core::property::{ActiveProperty, PathCtx, PathReport};
use placeless_core::space::{DocumentSpace, Scope};
use placeless_core::streams::{InputStream, MemoryInput, OutputStream};
use placeless_core::verifier::{ClosureVerifier, Validity, Verifier};
use placeless_simenv::{LatencyModel, SimRng, VirtualClock};
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

const USER: UserId = UserId(1);

/// All providers in this file share one origin key, so every document
/// competes for the same per-origin inflight window.
const ORIGIN: &str = "hold:origin";

/// Spin-waits (wall clock) until `ready` holds; panics after 5 seconds so
/// a broken test fails instead of hanging the suite.
fn wait_until(what: &str, ready: impl Fn() -> bool) {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while !ready() {
        assert!(
            std::time::Instant::now() < deadline,
            "timed out waiting for {what}"
        );
        std::thread::sleep(std::time::Duration::from_micros(200));
    }
}

/// A provider whose fetch parks (wall clock) holding its window slot
/// until the test releases it, then charges `advance_micros` to the
/// virtual clock. Lets a test keep the origin window provably full.
struct HoldProvider {
    body: Bytes,
    advance_micros: u64,
    held: AtomicBool,
    release: AtomicBool,
}

impl HoldProvider {
    fn new(advance_micros: u64) -> Arc<Self> {
        Arc::new(Self {
            body: Bytes::from_static(b"held body"),
            advance_micros,
            held: AtomicBool::new(false),
            release: AtomicBool::new(false),
        })
    }

    fn held(&self) -> bool {
        self.held.load(Ordering::SeqCst)
    }

    fn release(&self) {
        self.release.store(true, Ordering::SeqCst);
    }
}

impl BitProvider for HoldProvider {
    fn describe(&self) -> String {
        ORIGIN.to_owned()
    }

    fn open_input(&self, clock: &VirtualClock) -> Result<Box<dyn InputStream>> {
        self.held.store(true, Ordering::SeqCst);
        wait_until("holder release", || self.release.load(Ordering::SeqCst));
        clock.advance(self.advance_micros);
        Ok(Box::new(MemoryInput::new(self.body.clone())))
    }

    fn open_output(&self, _clock: &VirtualClock) -> Result<Box<dyn OutputStream>> {
        Err(PlacelessError::Repository("read-only".to_owned()))
    }

    fn make_verifier(&self, _clock: &VirtualClock) -> Option<Box<dyn Verifier>> {
        None
    }

    fn fetch_cost_micros(&self) -> u64 {
        self.advance_micros
    }
}

/// A counting provider with a fixed virtual fetch cost on the shared
/// origin key.
struct CheapProvider {
    body: Bytes,
    cost_micros: u64,
    fetches: AtomicU64,
    /// Whether its verifier answers `Unverifiable`: the origin cannot be
    /// reached to check a resident copy.
    unverifiable: bool,
}

impl CheapProvider {
    fn new(cost_micros: u64) -> Arc<Self> {
        Arc::new(Self {
            body: Bytes::from_static(b"cheap body"),
            cost_micros,
            fetches: AtomicU64::new(0),
            unverifiable: false,
        })
    }

    fn unverifiable(cost_micros: u64) -> Arc<Self> {
        Arc::new(Self {
            body: Bytes::from_static(b"cheap body"),
            cost_micros,
            fetches: AtomicU64::new(0),
            unverifiable: true,
        })
    }

    fn fetches(&self) -> u64 {
        self.fetches.load(Ordering::SeqCst)
    }
}

impl BitProvider for CheapProvider {
    fn describe(&self) -> String {
        ORIGIN.to_owned()
    }

    fn open_input(&self, clock: &VirtualClock) -> Result<Box<dyn InputStream>> {
        self.fetches.fetch_add(1, Ordering::SeqCst);
        clock.advance(self.cost_micros);
        Ok(Box::new(MemoryInput::new(self.body.clone())))
    }

    fn open_output(&self, _clock: &VirtualClock) -> Result<Box<dyn OutputStream>> {
        Err(PlacelessError::Repository("read-only".to_owned()))
    }

    fn make_verifier(&self, _clock: &VirtualClock) -> Option<Box<dyn Verifier>> {
        self.unverifiable
            .then(|| ClosureVerifier::new("unreachable", 1, |_| Validity::Unverifiable))
    }

    fn fetch_cost_micros(&self) -> u64 {
        self.cost_micros
    }
}

/// A reader parked on a full origin window whose deadline lapses before
/// a slot frees is shed with the non-transient `Overloaded` — never
/// served late — and the wait it did make is charged to the queue-wait
/// counter and its priority's shed counter.
#[test]
fn deadline_expired_while_queued_sheds_instead_of_serving_late() {
    let space = DocumentSpace::with_middleware_cost(VirtualClock::new(), LatencyModel::FREE);
    let clock = space.clock().clone();
    let holder = HoldProvider::new(3_000);
    let doc_hold = space.create_document(USER, holder.clone());
    let victim_origin = CheapProvider::new(500);
    let doc_victim = space.create_document(USER, victim_origin.clone());
    let cache = DocumentCache::new(
        space,
        CacheConfig::builder()
            .local_latency(LatencyModel::FREE)
            .origin(
                OriginConfig::default().window(WindowConfig::new(1).control(OverloadControl {
                    expected_service_micros: 1_000,
                    retry_after_micros: 9_999,
                    ..OverloadControl::default()
                })),
            )
            .build(),
    );

    std::thread::scope(|scope| {
        let hold_read = {
            let cache = &cache;
            scope.spawn(move || cache.read(USER, doc_hold))
        };
        // The holder owns the origin's only slot before the victim
        // arrives, so the victim's admission check sees a full window.
        wait_until("holder to claim the slot", || holder.held());

        let victim = {
            let cache = &cache;
            scope.spawn(move || {
                cache.read_with(
                    USER,
                    doc_victim,
                    ReadOptions::default().deadline_micros(10_000),
                )
            })
        };
        // Budget 10_000 covers the expected 1_000 µs service, so the
        // victim queues rather than shedding on arrival — provably so,
        // via the window's pressure gauge.
        wait_until("victim to park on the window", || {
            cache.queued_fetches() == 1
        });

        // The deadline lapses while the victim is still parked. The
        // parked reader notices on its next poll and sheds.
        clock.advance(20_000);
        let error = victim.join().unwrap().expect_err("doomed read must shed");
        match error {
            PlacelessError::Overloaded { retry_after } => assert_eq!(retry_after, 9_999),
            other => panic!("expected Overloaded, got {other:?}"),
        }

        holder.release();
        let body = hold_read.join().unwrap().expect("holder read succeeds");
        assert_eq!(body, "held body");
    });

    assert_eq!(
        victim_origin.fetches(),
        0,
        "a shed read must never reach the origin"
    );
    let stats = cache.stats();
    assert_eq!(stats.sheds_foreground, 1, "default priority is foreground");
    assert_eq!(stats.sheds_total(), 1);
    assert_eq!(
        stats.queue_wait_micros, 20_000,
        "the doomed wait is charged to the queue-wait counter"
    );
    assert_eq!(stats.misses, 1, "only the holder's fill counts as a miss");
    assert_eq!(cache.queued_fetches(), 0, "no reader left parked");
}

/// A window is never wider than its configured width: under overload
/// control a fetch well inside the latency target grows the AIMD width
/// only up to it, so a second reader of the origin queues behind the
/// first instead of running beside it.
#[test]
fn controlled_window_never_exceeds_its_width() {
    let space = DocumentSpace::with_middleware_cost(VirtualClock::new(), LatencyModel::FREE);
    let doc_fast = space.create_document(USER, CheapProvider::new(500));
    let (first, second) = (HoldProvider::new(500), HoldProvider::new(500));
    let doc_first = space.create_document(USER, first.clone());
    let doc_second = space.create_document(USER, second.clone());
    let window = WindowConfig::new(1).control(OverloadControl::default());
    let cache = DocumentCache::new(
        space,
        CacheConfig::builder()
            .local_latency(LatencyModel::FREE)
            .origin(OriginConfig::default().window(window))
            .build(),
    );

    cache.read(USER, doc_fast).expect("one fast fetch");
    std::thread::scope(|scope| {
        let cache = &cache;
        let first_read = scope.spawn(move || cache.read(USER, doc_first));
        wait_until("first reader to hold the slot", || first.held());
        let second_read = scope.spawn(move || cache.read(USER, doc_second));
        wait_until("second reader to queue or run", || {
            cache.queued_fetches() == 1 || second.held()
        });
        first.release();
        second.release();
        first_read.join().unwrap().expect("first read succeeds");
        second_read.join().unwrap().expect("second read succeeds");
    });
    assert_eq!(
        cache.stats().inflight_peak,
        1,
        "two fetches ran against a one-wide window"
    );
}

/// Readers parked behind the held slot: pressure enough for the ladder
/// to climb a rung per miss.
const PARKED: u64 = OverloadControl::BROWNOUT_ENTER_WAITERS;

/// One slot per origin under overload control, with a brownout ladder
/// that moves on every sample, and a generous staleness bound.
fn ladder_config() -> CacheConfig {
    let control = OverloadControl {
        brownout_dwell_micros: 0,
        ..OverloadControl::default()
    };
    let origin = OriginConfig::default()
        .serve_stale(StalenessBound::micros(1_000_000))
        .window(WindowConfig::new(1).control(control));
    CacheConfig::builder()
        .local_latency(LatencyModel::FREE)
        .origin(origin)
        .build()
}

/// Brownout rung 1 through a real cache: with the origin's only slot held
/// and readers parked behind it, the next miss lifts the ladder to its
/// first rung, and a resident entry whose verifier cannot reach the
/// origin is served stale within `serve_stale` without a fetch.
#[test]
fn brownout_rung_one_serves_stale_within_serve_stale_without_fetching() {
    let space = DocumentSpace::with_middleware_cost(VirtualClock::new(), LatencyModel::FREE);
    let holder = HoldProvider::new(500);
    let doc_hold = space.create_document(USER, holder.clone());
    let parked: Vec<_> = (0..PARKED)
        .map(|_| space.create_document(USER, CheapProvider::new(500)))
        .collect();
    let stale_origin = CheapProvider::unverifiable(500);
    let doc_stale = space.create_document(USER, stale_origin.clone());
    let cache = DocumentCache::new(space, ladder_config());

    cache.read(USER, doc_stale).expect("fill");
    std::thread::scope(|scope| {
        let cache = &cache;
        let hold_read = scope.spawn(move || cache.read(USER, doc_hold));
        wait_until("holder to claim the slot", || holder.held());
        let parked_reads: Vec<_> = parked
            .iter()
            .map(|&doc| scope.spawn(move || cache.read(USER, doc)))
            .collect();
        wait_until("readers to park", || cache.queued_fetches() == PARKED);

        let outcome = cache
            .read_with(USER, doc_stale, ReadOptions::default())
            .expect("served from the resident copy");
        assert_eq!(outcome.class, HitClass::StaleServed);
        assert_eq!(outcome.bytes, "cheap body");

        holder.release();
        hold_read.join().unwrap().expect("holder read succeeds");
        for read in parked_reads {
            read.join().unwrap().expect("parked read succeeds");
        }
    });
    assert_eq!(
        stale_origin.fetches(),
        1,
        "only the fill reached the origin"
    );
    let stats = cache.stats();
    assert_eq!((stats.brownout_level, stats.brownout_shifts), (1, 1));
    assert_eq!(stats.stale_served, 1);
}

/// Brownout rung 4 through a real cache: four doomed misses under
/// pressure walk the ladder to its top rung, where a `Refresh` or
/// `Prefetch` miss is refused `Overloaded` without reaching the origin
/// while a `Foreground` read still queues for the slot.
#[test]
fn brownout_rung_four_refuses_background_misses_but_queues_foreground() {
    let space = DocumentSpace::with_middleware_cost(VirtualClock::new(), LatencyModel::FREE);
    let holder = HoldProvider::new(500);
    let doc_hold = space.create_document(USER, holder.clone());
    let parked: Vec<_> = (0..PARKED)
        .map(|_| space.create_document(USER, CheapProvider::new(500)))
        .collect();
    let doomed: Vec<_> = (0..4)
        .map(|_| space.create_document(USER, CheapProvider::new(500)))
        .collect();
    let background = CheapProvider::new(500);
    let doc_background = space.create_document(USER, background.clone());
    let doc_foreground = space.create_document(USER, CheapProvider::new(500));
    let cache = DocumentCache::new(space, ladder_config());

    std::thread::scope(|scope| {
        let cache = &cache;
        let hold_read = scope.spawn(move || cache.read(USER, doc_hold));
        wait_until("holder to claim the slot", || holder.held());
        let parked_reads: Vec<_> = parked
            .iter()
            .map(|&doc| scope.spawn(move || cache.read(USER, doc)))
            .collect();
        wait_until("readers to park", || cache.queued_fetches() == PARKED);

        // Each doomed miss is one pressure sample, one rung up.
        for &doc in &doomed {
            let opts = ReadOptions::default().deadline_micros(1);
            let error = cache.read_with(USER, doc, opts).expect_err("doomed");
            assert!(
                matches!(error, PlacelessError::Overloaded { .. }),
                "{error}"
            );
        }
        assert_eq!(cache.stats().brownout_level, 4);

        for priority in [Priority::Refresh, Priority::Prefetch] {
            let opts = ReadOptions::default().priority(priority);
            let error = cache
                .read_with(USER, doc_background, opts)
                .expect_err("background work is refused at rung 4");
            assert!(
                matches!(error, PlacelessError::Overloaded { .. }),
                "{error}"
            );
        }
        let foreground_read = scope.spawn(move || cache.read(USER, doc_foreground));
        wait_until("the foreground read to queue", || {
            cache.queued_fetches() == PARKED + 1
        });

        holder.release();
        hold_read.join().unwrap().expect("holder read succeeds");
        for read in parked_reads {
            read.join().unwrap().expect("parked read succeeds");
        }
        foreground_read
            .join()
            .unwrap()
            .expect("foreground read is served");
    });
    assert_eq!(
        background.fetches(),
        0,
        "refused reads never reach the origin"
    );
    let stats = cache.stats();
    assert_eq!(stats.sheds_foreground, 4);
    assert_eq!((stats.sheds_refresh, stats.sheds_prefetch), (1, 1));
}

/// A property whose read-path hook panics on its first run and passes the
/// stream through afterwards: a buggy extension unwinding mid-fetch.
struct PanicsOnce {
    armed: AtomicBool,
}

impl ActiveProperty for PanicsOnce {
    fn name(&self) -> &str {
        "panics-once"
    }

    fn interests(&self) -> Interests {
        Interests::of(&[EventKind::GetInputStream])
    }

    fn wrap_input(
        &self,
        _ctx: &PathCtx<'_>,
        _report: &mut PathReport,
        inner: Box<dyn InputStream>,
    ) -> Result<Box<dyn InputStream>> {
        if self.armed.swap(false, Ordering::SeqCst) {
            panic!("scripted property bug");
        }
        Ok(inner)
    }
}

/// A fetch that unwinds through a panicking property gives back its
/// window slot and its place in the running-fetch gauge: the origin's
/// only slot is free for the next document, and both gauges read zero.
#[test]
fn unwinding_fetch_frees_its_window_slot() {
    let space = DocumentSpace::with_middleware_cost(VirtualClock::new(), LatencyModel::FREE);
    let doc_buggy = space.create_document(USER, CheapProvider::new(500));
    let doc_next = space.create_document(USER, CheapProvider::new(500));
    let buggy = Arc::new(PanicsOnce {
        armed: AtomicBool::new(true),
    });
    space
        .attach_active(Scope::Universal, doc_buggy, buggy)
        .expect("doc exists");
    let cache = DocumentCache::new(
        space,
        CacheConfig::builder()
            .local_latency(LatencyModel::FREE)
            .origin(OriginConfig::default().window(WindowConfig::new(1)))
            .build(),
    );

    let unwound =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| cache.read(USER, doc_buggy)));
    assert!(unwound.is_err(), "the property's panic reaches the caller");

    // A leaked slot parks the next read on this origin forever, so it
    // runs on its own thread and the test waits with a timeout.
    let (done, outcome) = std::sync::mpsc::channel();
    let reader = {
        let cache = Arc::clone(&cache);
        std::thread::spawn(move || done.send(cache.read(USER, doc_next)))
    };
    let body = outcome
        .recv_timeout(std::time::Duration::from_secs(5))
        .expect("the unwound fetch still holds the origin's only slot")
        .expect("read succeeds");
    assert_eq!(body, "cheap body");
    reader.join().unwrap().expect("outcome was received");
    assert_eq!(cache.inflight_fetches(), 0, "no fetch is running");
    assert_eq!(cache.queued_fetches(), 0, "no reader left parked");
}

fn priority_for(rng: &mut SimRng) -> Priority {
    match rng.next_below(3) {
        0 => Priority::Prefetch,
        1 => Priority::Refresh,
        _ => Priority::Foreground,
    }
}

/// One seeded overload scenario: phase A offers doomed short-deadline
/// reads against a full window (every one sheds on the admission
/// predicate), phase B offers comfortable reads against a free window
/// (every one admits). Returns the per-read outcome trace and the final
/// stats snapshot; both must be pure functions of the seed.
fn shed_decision_trace(seed: u64) -> (Vec<String>, CacheStats) {
    let mut rng = SimRng::seeded(seed);
    let space = DocumentSpace::with_middleware_cost(VirtualClock::new(), LatencyModel::FREE);
    let clock = space.clock().clone();
    let holder = HoldProvider::new(3_000);
    let doc_hold = space.create_document(USER, holder.clone());
    let doomed: Vec<_> = (0..8)
        .map(|_| space.create_document(USER, CheapProvider::new(500)))
        .collect();
    let comfortable: Vec<_> = (0..8)
        .map(|_| space.create_document(USER, CheapProvider::new(500)))
        .collect();
    let cache = DocumentCache::new(
        space,
        CacheConfig::builder()
            .local_latency(LatencyModel::FREE)
            .origin(
                OriginConfig::default().window(WindowConfig::new(1).control(OverloadControl {
                    expected_service_micros: 2_000,
                    retry_after_micros: 7_777,
                    ..OverloadControl::default()
                })),
            )
            .build(),
    );

    let mut trace = Vec::new();
    std::thread::scope(|scope| {
        let hold_read = {
            let cache = &cache;
            scope.spawn(move || cache.read(USER, doc_hold))
        };
        wait_until("holder to claim the slot", || holder.held());

        // Phase A: the window is full and the cold-start expected
        // service time is 2_000 µs, so any deadline below that is shed
        // at the admission predicate — a decision driven only by the
        // seeded (deadline, priority) stream and the virtual clock.
        for &doc in &doomed {
            let deadline = rng.next_range(1, 2_000);
            let priority = priority_for(&mut rng);
            let opts = ReadOptions::default()
                .deadline_micros(deadline)
                .priority(priority);
            match cache.read_with(USER, doc, opts) {
                Err(PlacelessError::Overloaded { retry_after }) => trace.push(format!(
                    "shed deadline={deadline} class={} retry_after={retry_after}",
                    priority.label()
                )),
                other => panic!("doomed read must shed, got {other:?}"),
            }
        }

        holder.release();
        let body = hold_read.join().unwrap().expect("holder read succeeds");
        trace.push(format!("holder bytes={}", body.len()));
    });

    // Phase B: the window is free again; comfortable deadlines admit.
    for &doc in &comfortable {
        clock.advance(rng.next_below(1_000));
        let deadline = rng.next_range(10_000, 20_000);
        let priority = priority_for(&mut rng);
        let opts = ReadOptions::default()
            .deadline_micros(deadline)
            .priority(priority);
        let outcome = cache
            .read_with(USER, doc, opts)
            .expect("comfortable read admits");
        trace.push(format!(
            "ok deadline={deadline} class={:?} latency={}",
            outcome.class, outcome.latency_micros
        ));
    }

    (trace, cache.stats())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Shed decisions are deterministic: the same seed replays the same
    /// per-read outcomes and the same final counters, because admission
    /// is a pure function of the virtual clock, the queue state, and
    /// the seeded (deadline, priority) stream.
    #[test]
    fn same_seed_replays_identical_shed_decisions(seed in any::<u64>()) {
        let (first_trace, first_stats) = shed_decision_trace(seed);
        let (second_trace, second_stats) = shed_decision_trace(seed);
        prop_assert_eq!(&first_trace, &second_trace);
        prop_assert_eq!(first_stats, second_stats);
        // Every doomed read shed, every comfortable read admitted.
        prop_assert_eq!(first_stats.sheds_total(), 8);
        prop_assert_eq!(first_trace.len(), 17);
    }
}
