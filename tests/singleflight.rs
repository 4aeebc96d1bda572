//! Single-flight coalescing and the `read_with` options surface, tested
//! end to end: racing OS threads against one cold document and asserting
//! the origin saw exactly one fetch.

use bytes::Bytes;
use placeless_bench::support::TagProperty;
use placeless_cache::{CacheConfig, DocumentCache, HitClass, OriginConfig, ReadOptions};
use placeless_core::bitprovider::{BitProvider, MemoryProvider};
use placeless_core::error::{PlacelessError, Result};
use placeless_core::id::UserId;
use placeless_core::space::{DocumentSpace, Scope};
use placeless_core::streams::{InputStream, MemoryInput, OutputStream};
use placeless_core::verifier::Verifier;
use placeless_repository::{FsProvider, MemFs};
use placeless_simenv::{FaultPlan, LatencyModel, Link, VirtualClock};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

const USER: UserId = UserId(1);

/// A counting provider that parks its *first* fetch until the cache
/// reports `expected_waiters` queued readers (so the race is real, not
/// timing luck), optionally failing that first fetch after the waiters
/// have queued.
struct GateProvider {
    body: Bytes,
    fetches: AtomicU64,
    fail_first: bool,
    cache: Arc<OnceLock<Arc<DocumentCache>>>,
    expected_waiters: u64,
}

impl GateProvider {
    fn new(
        fail_first: bool,
        cache: Arc<OnceLock<Arc<DocumentCache>>>,
        expected_waiters: u64,
    ) -> Arc<Self> {
        Arc::new(Self {
            body: Bytes::from_static(b"the one true body"),
            fetches: AtomicU64::new(0),
            fail_first,
            cache,
            expected_waiters,
        })
    }

    fn fetches(&self) -> u64 {
        self.fetches.load(Ordering::SeqCst)
    }
}

impl BitProvider for GateProvider {
    fn describe(&self) -> String {
        "gate:test".to_owned()
    }

    fn open_input(&self, _clock: &VirtualClock) -> Result<Box<dyn InputStream>> {
        if self.fetches.fetch_add(1, Ordering::SeqCst) == 0 {
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
            while std::time::Instant::now() < deadline {
                let waiting = self
                    .cache
                    .get()
                    .map(|cache| cache.waiting_reads())
                    .unwrap_or(0);
                if waiting >= self.expected_waiters {
                    break;
                }
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
            if self.fail_first {
                return Err(PlacelessError::Unavailable {
                    source: "gate:test".to_owned(),
                    retry_after: None,
                });
            }
        }
        Ok(Box::new(MemoryInput::new(self.body.clone())))
    }

    fn open_output(&self, _clock: &VirtualClock) -> Result<Box<dyn OutputStream>> {
        Err(PlacelessError::Repository("gate is read-only".to_owned()))
    }

    fn make_verifier(&self, _clock: &VirtualClock) -> Option<Box<dyn Verifier>> {
        None
    }

    fn fetch_cost_micros(&self) -> u64 {
        100
    }
}

fn gated_world(
    fail_first: bool,
    threads: usize,
) -> (
    Arc<DocumentCache>,
    Arc<GateProvider>,
    placeless_core::id::DocumentId,
) {
    let handle: Arc<OnceLock<Arc<DocumentCache>>> = Arc::new(OnceLock::new());
    let provider = GateProvider::new(fail_first, handle.clone(), threads as u64 - 1);
    let space = DocumentSpace::with_middleware_cost(VirtualClock::new(), LatencyModel::FREE);
    let doc = space.create_document(USER, provider.clone());
    let cache = DocumentCache::new(
        space,
        CacheConfig::builder()
            .local_latency(LatencyModel::FREE)
            .build(),
    );
    handle.set(cache.clone()).ok().expect("handle set once");
    (cache, provider, doc)
}

/// N racing threads miss the same cold document: the provider computes
/// once, every other read coalesces, and all threads see identical bytes.
#[test]
fn concurrent_misses_compute_once() {
    const THREADS: usize = 8;
    let (cache, provider, doc) = gated_world(false, THREADS);

    let bodies: Vec<Bytes> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let cache = &cache;
                scope.spawn(move || cache.read(USER, doc).expect("read"))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    assert!(bodies.windows(2).all(|w| w[0] == w[1]), "bytes diverged");
    assert_eq!(provider.fetches(), 1, "origin must compute exactly once");

    let stats = cache.stats();
    assert_eq!(stats.coalesced_waits, THREADS as u64 - 1);
    assert_eq!(stats.misses, 1, "one leader filled the entry");
    assert_eq!(stats.hits, THREADS as u64 - 1, "waiters count as hits");
    assert_eq!(stats.hits + stats.misses, THREADS as u64, "accounting");
    assert!(stats.inflight_peak >= 1);
    assert_eq!(cache.waiting_reads(), 0, "no waiter left behind");
}

/// A failing leader shares its error with every waiter — but the failure
/// is not sticky: the flight is gone before the outcome publishes, so the
/// very next read retries the origin and succeeds.
#[test]
fn leader_failure_is_shared_but_not_sticky() {
    const THREADS: usize = 4;
    let (cache, provider, doc) = gated_world(true, THREADS);

    let errors: Vec<PlacelessError> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let cache = &cache;
                scope.spawn(move || cache.read(USER, doc).expect_err("origin is dark"))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    assert_eq!(provider.fetches(), 1, "one failed attempt serves them all");
    assert!(
        errors
            .iter()
            .all(|e| matches!(e, PlacelessError::Unavailable { .. })),
        "waiters must share the leader's error: {errors:?}"
    );
    assert_eq!(cache.stats().coalesced_waits, THREADS as u64 - 1);

    // The flight died with its leader; a fresh read goes back to the
    // origin (whose failure was first-fetch-only) and succeeds.
    assert_eq!(
        cache.read(USER, doc).expect("retry reaches the origin"),
        "the one true body"
    );
    assert_eq!(provider.fetches(), 2);
    assert_eq!(cache.stats().misses, 1, "only the successful fill counts");
}

/// A provider whose first fetch takes its bytes, then lands an out-of-band
/// edit and parks until a reader has joined the fetch's flight: that
/// reader's read starts after the edit the leader's bytes predate.
struct EditBehindFlight {
    inner: Arc<MemoryProvider>,
    cache: Arc<OnceLock<Arc<DocumentCache>>>,
    armed: AtomicBool,
    /// Set once a reader joined while the first fetch was parked.
    joined: AtomicBool,
}

impl BitProvider for EditBehindFlight {
    fn describe(&self) -> String {
        self.inner.describe()
    }

    fn open_input(&self, clock: &VirtualClock) -> Result<Box<dyn InputStream>> {
        let stream = self.inner.open_input(clock)?;
        if self.armed.swap(false, Ordering::SeqCst) {
            self.inner.set_out_of_band("v2");
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
            let cache = self.cache.get().expect("cache set before any read");
            while cache.waiting_reads() < 1 && std::time::Instant::now() < deadline {
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
            self.joined
                .store(cache.waiting_reads() >= 1, Ordering::SeqCst);
        }
        Ok(stream)
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

/// A read that begins after an edit must not be served the bytes of a
/// flight that fetched before it: the leader's verifier, re-checked once
/// the flight is closed to joiners, sees the edit, so the waiter fetches
/// for itself.
#[test]
fn a_waiter_that_joins_after_an_edit_is_not_served_the_older_bytes() {
    let handle: Arc<OnceLock<Arc<DocumentCache>>> = Arc::new(OnceLock::new());
    let provider = Arc::new(EditBehindFlight {
        inner: MemoryProvider::new("edit", "v1", 100),
        cache: handle.clone(),
        armed: AtomicBool::new(true),
        joined: AtomicBool::new(false),
    });
    let space = DocumentSpace::with_middleware_cost(VirtualClock::new(), LatencyModel::FREE);
    let doc = space.create_document(USER, provider.clone());
    let cache = DocumentCache::new(
        space,
        CacheConfig::builder()
            .local_latency(LatencyModel::FREE)
            .build(),
    );
    handle.set(cache.clone()).ok().expect("handle set once");

    let (led, joined) = std::thread::scope(|scope| {
        let leader = scope.spawn(|| cache.read(USER, doc).expect("leader read"));
        while provider.inner.epoch() == 0 {
            std::thread::yield_now();
        }
        let waiter = scope.spawn(|| cache.read_with(USER, doc, ReadOptions::default()));
        let led = leader.join().unwrap();
        (led, waiter.join().unwrap().expect("waiter read"))
    });
    assert!(provider.joined.load(Ordering::SeqCst), "the waiter joined");
    assert_eq!(led, "v1", "the leader's read began before the edit");
    assert_eq!(joined.bytes, "v2");
    assert_ne!(joined.class, HitClass::CoalescedWait);
}

/// A provider that costs nothing and yields the processor inside every
/// fetch, so that a leader is routinely descheduled mid-flight and the
/// other threads join it — on one core as on many.
struct YieldingProvider(Bytes);

impl BitProvider for YieldingProvider {
    fn describe(&self) -> String {
        "yielding:test".to_owned()
    }

    fn open_input(&self, _clock: &VirtualClock) -> Result<Box<dyn InputStream>> {
        std::thread::yield_now();
        Ok(Box::new(MemoryInput::new(self.0.clone())))
    }

    fn open_output(&self, _clock: &VirtualClock) -> Result<Box<dyn OutputStream>> {
        Err(PlacelessError::Repository("read-only".to_owned()))
    }

    fn make_verifier(&self, _clock: &VirtualClock) -> Option<Box<dyn Verifier>> {
        None
    }

    fn fetch_cost_micros(&self) -> u64 {
        0
    }
}

/// Lost-wake-up stress. A flight notifies only when a waiter registered, so
/// a waiter the leader failed to count would sleep for ever. Four threads
/// read eight documents that are never resident (the capacity is below one
/// document, so every read is a miss) and keep leading and joining each
/// other's flights: two threads a user, so version flights (same user) and
/// stage flights (same document, other user) both coalesce. A hang fails
/// the test after 30 s instead of stalling the suite.
#[test]
fn a_cold_stampede_loses_no_wake_up() {
    const THREADS: u64 = 4;
    const READS: u64 = 20_000;
    const DOCS: u64 = 8;
    let space = DocumentSpace::with_middleware_cost(VirtualClock::new(), LatencyModel::FREE);
    let users = [UserId(1), UserId(2)];
    let docs: Vec<_> = (0..DOCS)
        .map(|d| {
            let body = Bytes::from(format!("cold document {d}"));
            let doc = space.create_document(users[0], Arc::new(YieldingProvider(body)));
            space.add_reference(users[1], doc).expect("doc exists");
            space
                .attach_active(Scope::Universal, doc, TagProperty::new("t", 0))
                .expect("attach");
            doc
        })
        .collect();
    // What the uncached middleware serves: the oracle for every read.
    let oracle: Vec<Bytes> = docs
        .iter()
        .map(|&doc| space.read_document(users[0], doc).expect("uncached").0)
        .collect();
    let cache = DocumentCache::new(
        space,
        CacheConfig::builder()
            .capacity_bytes(1)
            .stage_cache(true)
            .local_latency(LatencyModel::FREE)
            .build(),
    );

    let (done, finished) = std::sync::mpsc::channel();
    let workers: Vec<_> = (0..THREADS)
        .map(|t| {
            let (cache, docs, oracle, done) =
                (cache.clone(), docs.clone(), oracle.clone(), done.clone());
            std::thread::spawn(move || {
                let user = users[(t % 2) as usize];
                let mut x = 0x9E37_79B9_7F4A_7C15_u64 + t;
                for _ in 0..READS {
                    // xorshift64: a different walk of the same keys a thread.
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let d = (x % DOCS) as usize;
                    assert_eq!(cache.read(user, docs[d]).expect("read"), oracle[d]);
                }
                done.send(()).expect("the watchdog outlives the workers");
            })
        })
        .collect();
    drop(done);
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    for _ in 0..THREADS {
        let left = deadline.saturating_duration_since(std::time::Instant::now());
        // `Disconnected` is a worker that panicked: its join below says why.
        if finished.recv_timeout(left) == Err(std::sync::mpsc::RecvTimeoutError::Timeout) {
            panic!(
                "a reader is still parked after 30 s: waiting_reads {}, inflight_fetches {}",
                cache.waiting_reads(),
                cache.inflight_fetches()
            );
        }
    }
    for worker in workers {
        worker
            .join()
            .expect("every read returned the oracle's bytes");
    }

    let stats = cache.stats();
    assert_eq!(stats.hits + stats.misses, THREADS * READS, "accounting");
    assert!(stats.coalesced_waits > 0, "no flight was ever joined");
    assert_eq!(cache.waiting_reads(), 0, "no waiter left behind");
    assert_eq!(cache.inflight_fetches(), 0, "no fetch left running");
    assert_eq!(cache.resident_bytes(), (0, 0), "the keys stayed cold");
}

/// `read()` is a thin wrapper: it returns exactly `read_with(..)`'s bytes
/// under default options, on both the miss and the hit path.
#[test]
fn read_delegates_to_read_with() {
    let clock = VirtualClock::new();
    let space = DocumentSpace::with_middleware_cost(clock.clone(), LatencyModel::FREE);
    let fs = MemFs::new(clock);
    fs.create("/doc", "delegation body");
    let doc = space.create_document(
        USER,
        FsProvider::new(fs, "/doc", Link::new(500, 2_000_000, 0.0, 1)),
    );
    let cache = DocumentCache::new(
        space,
        CacheConfig::builder()
            .local_latency(LatencyModel::FREE)
            .build(),
    );

    let miss = cache
        .read_with(USER, doc, ReadOptions::default())
        .expect("miss");
    assert_eq!(miss.class, HitClass::Miss);
    assert_eq!(cache.read(USER, doc).expect("hit"), miss.bytes);
    let hit = cache
        .read_with(USER, doc, ReadOptions::default())
        .expect("hit");
    assert_eq!(hit.class, HitClass::Hit);
    assert_eq!(hit.bytes, miss.bytes);
}

/// A per-read deadline override cuts retry scheduling short: the same
/// outage that the configured policy would ride out with backoff turns
/// into an immediate timeout when the caller's budget can't cover the
/// first backoff delay.
#[test]
fn deadline_override_bounds_retries() {
    let clock = VirtualClock::new();
    let space = DocumentSpace::with_middleware_cost(clock.clone(), LatencyModel::FREE);
    let fs = MemFs::new(clock.clone());
    fs.create("/doc", "body");
    let link = Link::new(1_000, 10_000_000, 0.0, 9);
    link.set_fault_plan(FaultPlan::builder(9).outage(0, 2_000).build());
    let doc = space.create_document(USER, FsProvider::new(fs, "/doc", link));
    let cache = DocumentCache::new(
        space,
        CacheConfig::builder()
            .local_latency(LatencyModel::FREE)
            .origin(OriginConfig::default().max_retries(3))
            .build(),
    );

    // Budget below the first backoff delay: fail fast with Timeout, no
    // retries burned.
    let err = cache
        .read_with(USER, doc, ReadOptions::new().deadline_micros(100))
        .expect_err("budget exhausted before the first retry");
    assert!(matches!(err, PlacelessError::Timeout { .. }), "{err}");
    assert_eq!(cache.stats().retries, 0);

    // The configured policy (no per-read override) rides the outage out:
    // backoff walks the clock past the outage end and the read succeeds.
    let outcome = cache
        .read_with(USER, doc, ReadOptions::default())
        .expect("retries outlast the outage");
    assert!(!outcome.bytes.is_empty());
    assert!(cache.stats().retries > 0);
}
