//! Experiment **E-LOAD**, the deterministic half: the single-flight
//! guarantee and the round-trip amortization of grouped flushes.
//!
//! The population trace itself — 10^5 users, Zipf document popularity,
//! per-user working sets, a write mix, driven from OS threads on the wall
//! clock — is the repo benchmark's `cross_user` and `write_through_mix`
//! workloads (`benchmark/run.sh`), which report it with the cores, commit
//! and compiler it ran on. What stays here is what a count decides:
//!
//! [`coalesce_probe`] pins the single-flight guarantee: its readers run
//! under a seeded scheduler, and the miss leader yields inside the
//! provider until every other thread has queued behind the same
//! `(doc, stage)` flight; it then asserts the fetch ran exactly once and
//! that `coalesced_waits` accounts for all the waiters.
//!
//! The **write mix** is measured by [`write_mix`]: a Zipf population
//! ([`placeless_simenv::trace::TraceSampler`]) drives write-back writes,
//! flushed once after every write (every per-origin group is a single
//! entry) and once periodically, counting middleware origin operations
//! per flushed entry. The periodic run must amortize origin round-trips
//! at least 2× — like the coalesce probe, an acceptance check rather than
//! a soft measurement.

use crate::fields;
use crate::report::{Report, Value};
use bytes::Bytes;
use placeless_cache::{CacheConfig, DocumentCache, WriteMode};
use placeless_core::prelude::*;
use placeless_simenv::sched::{self, Schedule};
use placeless_simenv::trace::{lorem_bytes, TraceBuilder};
use placeless_simenv::{LatencyModel, VirtualClock};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Provider that holds the *first* fetch open, yielding to the scheduler,
/// until the cache reports `expected_waiters` queued readers, counting
/// every fetch that reaches the origin. The cache handle arrives after
/// construction through the [`OnceLock`].
struct GateProvider {
    body: Bytes,
    fetches: AtomicU64,
    cache: Arc<OnceLock<Arc<DocumentCache>>>,
    expected_waiters: u64,
}

impl GateProvider {
    fn new(body: Bytes, cache: Arc<OnceLock<Arc<DocumentCache>>>, expected_waiters: u64) -> Self {
        Self {
            body,
            fetches: AtomicU64::new(0),
            cache,
            expected_waiters,
        }
    }
}

impl BitProvider for GateProvider {
    fn describe(&self) -> String {
        "gate:probe".to_owned()
    }

    fn open_input(&self, _clock: &VirtualClock) -> Result<Box<dyn InputStream>> {
        if self.fetches.fetch_add(1, Ordering::SeqCst) == 0 {
            // Leader: hold the miss open until every other thread is
            // queued behind this flight, so the fetches stay concurrent
            // whatever order the schedule drew.
            let cache = self.cache.get().expect("set before the first read");
            while cache.waiting_reads() < self.expected_waiters {
                sched::yield_now();
            }
        }
        Ok(Box::new(MemoryInput::new(self.body.clone())))
    }

    fn open_output(&self, _clock: &VirtualClock) -> Result<Box<dyn OutputStream>> {
        Err(PlacelessError::Repository(
            "gate probe provider is read-only".to_owned(),
        ))
    }

    fn make_verifier(&self, _clock: &VirtualClock) -> Option<Box<dyn Verifier>> {
        None
    }

    fn fetch_cost_micros(&self) -> u64 {
        200
    }
}

/// The coalescing guarantee, measured: `threads` concurrent cold misses
/// on one `(doc, stage)` signature.
#[derive(Debug, Clone, Copy)]
pub struct CoalesceReport {
    /// Threads that read the cold document.
    pub threads: usize,
    /// Fetches that reached the origin provider (must be 1).
    pub provider_fetches: u64,
    /// Reads that joined the leader's flight (must be `threads - 1`).
    pub coalesced_waits: u64,
    /// Whether every thread got byte-identical content.
    pub identical: bool,
    /// High-water mark of concurrent origin fetches during the probe.
    pub inflight_peak: u64,
}

/// Runs `threads` cold readers of one document under a seeded schedule
/// and asserts the single-flight contract: exactly one fetch reaches the
/// origin, every other reader coalesces onto it, and all readers observe
/// identical bytes.
///
/// # Panics
///
/// Panics if any part of the contract is violated — this is the E-LOAD
/// acceptance check, not a soft measurement.
pub fn coalesce_probe(threads: usize) -> CoalesceReport {
    assert!(threads >= 2, "coalescing needs at least one waiter");
    let handle: Arc<OnceLock<Arc<DocumentCache>>> = Arc::new(OnceLock::new());
    let provider = Arc::new(GateProvider::new(
        Bytes::from(lorem_bytes(99, 1_024)),
        handle.clone(),
        threads as u64 - 1,
    ));

    let clock = VirtualClock::new();
    let space = DocumentSpace::with_middleware_cost(clock.clone(), LatencyModel::FREE);
    let user = UserId(1);
    let doc = space.create_document(user, provider.clone());
    let cache = DocumentCache::new(
        space,
        CacheConfig::builder()
            .capacity_bytes(1 << 20)
            .local_latency(LatencyModel::FREE)
            .build(),
    );
    if handle.set(cache.clone()).is_err() {
        unreachable!("probe handle is set exactly once");
    }

    let before = cache.stats();
    let bodies = Mutex::new(Vec::with_capacity(threads));
    let mut schedule = Schedule::new(threads as u64, &clock);
    for _ in 0..threads {
        schedule.spawn(|| {
            let body = cache.read(user, doc).expect("probe read");
            bodies.lock().expect("no reader panicked").push(body);
        });
    }
    schedule.run();
    let bodies = bodies.into_inner().expect("no reader panicked");
    let stats = cache.stats().delta(&before);

    let report = CoalesceReport {
        threads,
        provider_fetches: provider.fetches.load(Ordering::SeqCst),
        coalesced_waits: stats.coalesced_waits,
        identical: bodies.windows(2).all(|w| w[0] == w[1]),
        inflight_peak: stats.inflight_peak,
    };
    assert_eq!(
        report.provider_fetches, 1,
        "concurrent misses on one (doc, stage) must compute exactly once"
    );
    assert_eq!(
        report.coalesced_waits,
        threads as u64 - 1,
        "every non-leader read must coalesce onto the flight"
    );
    assert!(report.identical, "coalesced readers must share bytes");
    report
}

/// Parameters for the E-LOAD write-mix flush measurement.
#[derive(Debug, Clone, Copy)]
pub struct WriteMixParams {
    /// Simulated user population.
    pub users: usize,
    /// Documents in the corpus (each its own memory origin, so a flush
    /// group forms per popular document across its dirty users).
    pub documents: usize,
    /// Write-back writes issued.
    pub writes: usize,
    /// Flush after every this many writes (plus one final flush).
    pub flush_every: usize,
    /// Zipf exponent of global document popularity.
    pub doc_theta: f64,
    /// Zipf exponent of user activity skew.
    pub user_theta: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for WriteMixParams {
    fn default() -> Self {
        Self {
            users: 20_000,
            documents: 64,
            writes: 4_000,
            flush_every: 1_000,
            doc_theta: 0.9,
            user_theta: 0.6,
            seed: 42,
        }
    }
}

impl WriteMixParams {
    /// Applies `E_LOAD_WMIX_WRITES` / `E_LOAD_WMIX_DOCS` /
    /// `E_LOAD_WMIX_FLUSH_EVERY` environment overrides, so CI can run a
    /// reduced flush smoke without a separate code path.
    pub fn from_env(mut self) -> Self {
        let get = |name: &str| {
            std::env::var(name)
                .ok()
                .and_then(|v| v.parse::<usize>().ok())
        };
        if let Some(v) = get("E_LOAD_WMIX_WRITES") {
            self.writes = v.max(1);
        }
        if let Some(v) = get("E_LOAD_WMIX_DOCS") {
            self.documents = v.max(1);
        }
        if let Some(v) = get("E_LOAD_WMIX_FLUSH_EVERY") {
            self.flush_every = v.max(1);
        }
        self
    }
}

/// One write-mix run: the trace flushed at one interval.
#[derive(Debug, Clone, Copy)]
pub struct WriteMixResult {
    /// Writes between flushes. At `1` every flush group is a single
    /// entry — the per-entry baseline.
    pub flush_every: usize,
    /// Dirty entries pushed to the middleware across all flushes.
    pub entries_flushed: u64,
    /// `flush()` calls issued.
    pub flush_calls: u64,
    /// Grouped origin operations issued (stats delta).
    pub flush_batches: u64,
    /// Middleware origin operations charged during the flushes.
    pub origin_ops: u64,
    /// Virtual microseconds the flushes consumed.
    pub flush_micros: u64,
}

impl WriteMixResult {
    /// Origin operations per flushed entry — the round-trip amortization
    /// metric grouped flushing is gated on.
    pub fn ops_per_entry(&self) -> f64 {
        self.origin_ops as f64 / self.entries_flushed.max(1) as f64
    }
}

/// Runs the write mix twice over one trace — flushing after every write,
/// so each group is one entry, then every `params.flush_every` writes —
/// and asserts the grouped run amortizes origin round-trips at least 2×.
/// Both rows go through the same flush code; the entry counts differ
/// (flushing after every write cannot coalesce rewrites of one key), which
/// is why the metric is normalised per entry.
///
/// # Panics
///
/// Panics if any flush is not clean, if `FlushReport` accounting is not
/// exact (`attempted == flushed + parked + requeued`), if the singleton
/// row does not cost exactly one group and three origin operations per
/// entry, or if the amortization falls below 2× — this is the E-LOAD
/// write-mix acceptance check.
pub fn write_mix(params: WriteMixParams) -> [WriteMixResult; 2] {
    let singleton = write_mix_one(params, 1);
    let grouped = write_mix_one(params, params.flush_every);
    assert_eq!(
        singleton.flush_batches, singleton.entries_flushed,
        "flushing after every write forms one group per entry"
    );
    assert_eq!(
        singleton.ops_per_entry(),
        3.0,
        "a group of one amortizes nothing"
    );
    let amortization = singleton.ops_per_entry() / grouped.ops_per_entry();
    assert!(
        amortization >= 2.0,
        "grouped flushes must amortize origin round-trips >= 2x, got {amortization:.2}"
    );
    [singleton, grouped]
}

fn write_mix_one(params: WriteMixParams, flush_every: usize) -> WriteMixResult {
    let sampler = TraceBuilder::new(params.seed)
        .users(params.users)
        .documents(params.documents)
        .doc_theta(params.doc_theta)
        .user_theta(params.user_theta)
        .write_fraction(1.0)
        .build();
    let mut rng = sampler.stream(0);
    let events: Vec<placeless_simenv::trace::AccessEvent> = (0..params.writes)
        .map(|_| sampler.next_event(&mut rng))
        .collect();
    let mut pairs: HashSet<(usize, usize)> = HashSet::new();
    for e in &events {
        pairs.insert((e.user, e.doc));
    }

    let space = DocumentSpace::with_middleware_cost(VirtualClock::new(), LatencyModel::FREE);
    let mut docs = Vec::with_capacity(params.documents);
    for d in 0..params.documents {
        let provider = MemoryProvider::new(
            &format!("doc{d}"),
            lorem_bytes(params.seed + d as u64, 128),
            200,
        );
        docs.push(space.create_document(UserId(0), provider));
    }
    for &(user, doc) in &pairs {
        space
            .add_reference(UserId(user as u64 + 1), docs[doc])
            .expect("reference");
    }

    let cache = DocumentCache::new(
        space.clone(),
        CacheConfig::builder()
            .capacity_bytes(1 << 30)
            .local_latency(LatencyModel::FREE)
            .write_mode(WriteMode::Back)
            .build(),
    );
    let clock = space.clock().clone();
    let before = cache.stats();
    let mut result = WriteMixResult {
        flush_every,
        entries_flushed: 0,
        flush_calls: 0,
        flush_batches: 0,
        origin_ops: 0,
        flush_micros: 0,
    };
    let flush_now = |result: &mut WriteMixResult| {
        let ops0 = space.ops_count();
        let t0 = clock.now();
        let report = cache.flush().expect("flush");
        assert!(report.is_clean(), "healthy origins must flush clean");
        assert_eq!(
            report.attempted,
            report.flushed + (report.parked.len() + report.requeued.len()) as u64,
            "flush accounting must be exact"
        );
        result.entries_flushed += report.flushed;
        result.flush_calls += 1;
        result.origin_ops += space.ops_count() - ops0;
        result.flush_micros += clock.now().since(t0);
    };
    for (i, e) in events.iter().enumerate() {
        let user = UserId(e.user as u64 + 1);
        let body = format!("rev {i} by {}", e.user);
        cache
            .write(user, docs[e.doc], body.as_bytes())
            .expect("buffered write");
        if (i + 1) % flush_every == 0 {
            flush_now(&mut result);
        }
    }
    flush_now(&mut result);
    let stats = cache.stats().delta(&before);
    result.flush_batches = stats.flush_batches;
    assert_eq!(
        stats.flushes, result.entries_flushed,
        "the flush counter agrees with the per-flush reports"
    );
    assert_eq!(cache.dirty_count(), 0, "nothing may stay dirty");
    result
}

/// The `BENCH_load.json` artifact: the probe and the two write-mix rows.
pub fn report(
    probe: CoalesceReport,
    wmix_params: WriteMixParams,
    wmix: &[WriteMixResult; 2],
) -> Report {
    let run = |r: &WriteMixResult| {
        fields! {
            "flush_every": r.flush_every,
            "entries_flushed": r.entries_flushed,
            "flush_calls": r.flush_calls,
            "flush_batches": r.flush_batches,
            "origin_ops": r.origin_ops,
            "ops_per_entry": Value::Float(r.ops_per_entry(), 4),
            "flush_micros": r.flush_micros,
        }
    };
    Report {
        experiment: "load",
        deterministic: true,
        clock: "virtual",
        params: fields! { "probe_threads": probe.threads },
        body: fields! {
            "probe": fields! {
                "threads": probe.threads,
                "provider_fetches": probe.provider_fetches,
                "coalesced_waits": probe.coalesced_waits,
                "identical": probe.identical,
                "inflight_peak": probe.inflight_peak,
            },
            "write_mix": fields! {
                "params": fields! {
                    "users": wmix_params.users,
                    "documents": wmix_params.documents,
                    "writes": wmix_params.writes,
                    "flush_every": wmix_params.flush_every,
                    "doc_theta": Value::Float(wmix_params.doc_theta, 1),
                    "user_theta": Value::Float(wmix_params.user_theta, 1),
                    "seed": wmix_params.seed,
                },
                "runs": Value::rows(wmix, run),
                "round_trip_amortization": Value::Float(
                    wmix[0].ops_per_entry() / wmix[1].ops_per_entry(),
                    4,
                ),
            },
        },
    }
}
