//! Experiment **E-LOAD**: million-user trace-driven load with single-flight
//! miss coalescing.
//!
//! The paper's prototype served one interactive user; E-SCALE already
//! shows shard scaling under a synthetic per-thread read mix. This
//! experiment instead models a *population*: a
//! [`placeless_simenv::trace::TraceSampler`] drives 10^5–10^6 simulated
//! users (Zipf user-activity skew, per-user working-set locality over a
//! global Zipf document popularity, a configurable write mix) through the
//! shared cache from many OS threads, and reports **wall-clock** sustained
//! reads/sec with p50/p99 latency per read and per write — sharded versus
//! the single-shard global-lock baseline.
//!
//! Every read goes through [`DocumentCache::read_with`] and is classified
//! by its [`HitClass`], so the engine observes coalescing directly from
//! the outcome rather than by diffing counters. A separate
//! [`coalesce_probe`] pins the single-flight guarantee: it parks the miss
//! leader inside the provider until every other thread has queued behind
//! the same `(doc, stage)` flight, then asserts the fetch ran exactly once
//! and that `coalesced_waits` accounts for all the waiters.
//!
//! The **write mix** is measured by [`write_mix`]: the same Zipf
//! population drives write-back writes, flushed once after every write
//! (every per-origin group is a single entry) and once periodically,
//! counting middleware origin operations per flushed entry. The periodic
//! run must amortize origin round-trips at least 2× — like the coalesce
//! probe, an acceptance check rather than a soft measurement.

use crate::support::TagProperty;
use bytes::Bytes;
pub use placeless_cache::HitClass;
use placeless_cache::{CacheConfig, CacheStats, DocumentCache, ReadOptions, WriteMode};
use placeless_core::prelude::*;
use placeless_simenv::trace::{lorem_bytes, TraceBuilder};
use placeless_simenv::{LatencyModel, VirtualClock};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Parameters for one load run.
#[derive(Debug, Clone, Copy)]
pub struct LoadParams {
    /// Simulated user population (the trace's user universe).
    pub users: usize,
    /// Documents in the corpus.
    pub documents: usize,
    /// Bytes per document body.
    pub doc_bytes: usize,
    /// Zipf exponent of global document popularity.
    pub doc_theta: f64,
    /// Zipf exponent of user activity skew.
    pub user_theta: f64,
    /// Fraction of accesses hitting the acting user's working set.
    pub locality: f64,
    /// Per-user working-set size, in documents.
    pub working_set: usize,
    /// Fraction of accesses that write.
    pub write_fraction: f64,
    /// Universal tagging transforms per document (stage-cacheable, so
    /// cross-user misses share staged work).
    pub base_chain: usize,
    /// OS threads driving the cache.
    pub threads: usize,
    /// Accesses issued by each thread.
    pub ops_per_thread: usize,
    /// RNG seed; thread `t` samples trace stream `t`.
    pub seed: u64,
}

impl Default for LoadParams {
    fn default() -> Self {
        Self {
            users: 100_000,
            documents: 2_048,
            doc_bytes: 256,
            doc_theta: 0.9,
            user_theta: 0.6,
            locality: 0.3,
            working_set: 8,
            write_fraction: 0.02,
            base_chain: 2,
            threads: 8,
            ops_per_thread: 25_000,
            seed: 42,
        }
    }
}

impl LoadParams {
    /// Applies `E_LOAD_USERS` / `E_LOAD_DOCS` / `E_LOAD_OPS` /
    /// `E_LOAD_THREADS` environment overrides, so CI can run a reduced
    /// smoke without a separate code path.
    pub fn from_env(mut self) -> Self {
        let get = |name: &str| {
            std::env::var(name)
                .ok()
                .and_then(|v| v.parse::<usize>().ok())
        };
        if let Some(v) = get("E_LOAD_USERS") {
            self.users = v.max(1);
        }
        if let Some(v) = get("E_LOAD_DOCS") {
            self.documents = v.max(1);
        }
        if let Some(v) = get("E_LOAD_OPS") {
            self.ops_per_thread = v.max(1);
        }
        if let Some(v) = get("E_LOAD_THREADS") {
            self.threads = v.max(1);
        }
        self
    }

    /// Total accesses one run issues.
    pub fn total_ops(&self) -> usize {
        self.threads * self.ops_per_thread
    }
}

/// The outcome of one `(shards, params)` load run.
#[derive(Debug, Clone)]
pub struct LoadResult {
    /// Shard count (`1` = the global-lock baseline).
    pub shards: usize,
    /// Reader threads driven.
    pub threads: usize,
    /// Simulated user population.
    pub users: usize,
    /// Reads issued (writes excluded).
    pub reads: u64,
    /// Writes issued.
    pub writes: u64,
    /// Writes that failed (conflicts under contention).
    pub write_errors: u64,
    /// Wall-clock duration of the drive phase, microseconds.
    pub wall_micros: u64,
    /// Median per-read wall latency, nanoseconds.
    pub p50_nanos: u64,
    /// 99th-percentile per-read wall latency, nanoseconds.
    pub p99_nanos: u64,
    /// Median per-write wall latency, nanoseconds (`0` with no writes).
    pub write_p50_nanos: u64,
    /// 99th-percentile per-write wall latency, nanoseconds.
    pub write_p99_nanos: u64,
    /// Reads per [`HitClass`], indexed by `class as usize`.
    pub classes: [u64; 5],
    /// Counter delta across the drive phase (exercises
    /// [`CacheStats::delta`] rather than hand-subtraction).
    pub stats: CacheStats,
}

impl LoadResult {
    /// Sustained wall-clock read throughput, reads per second.
    pub fn reads_per_sec(&self) -> f64 {
        self.reads as f64 / (self.wall_micros.max(1) as f64 / 1_000_000.0)
    }

    /// Fraction of reads served as whole-version hits.
    pub fn hit_frac(&self) -> f64 {
        self.classes[HitClass::Hit as usize] as f64 / self.reads.max(1) as f64
    }

    /// Reads of a given class.
    pub fn class(&self, class: HitClass) -> u64 {
        self.classes[class as usize]
    }
}

/// Runs one load cell: the trace of `params` against a cache with
/// `shards` shards.
///
/// The trace is pre-walked once to learn which `(user, document)` pairs
/// actually occur, and only those references are registered — a million
/// users referencing a few thousand documents each would otherwise mean
/// billions of reference rows for accesses that never happen.
pub fn run_one(shards: usize, params: LoadParams) -> LoadResult {
    let sampler = TraceBuilder::new(params.seed)
        .users(params.users)
        .documents(params.documents)
        .doc_theta(params.doc_theta)
        .user_theta(params.user_theta)
        .locality(params.locality)
        .working_set(params.working_set)
        .write_fraction(params.write_fraction)
        .build();

    // Pre-walk every thread's stream: materialize the events and collect
    // the unique (user, doc) pairs that need references.
    let traces: Vec<Vec<placeless_simenv::trace::AccessEvent>> = (0..params.threads)
        .map(|t| {
            let mut rng = sampler.stream(t as u64);
            (0..params.ops_per_thread)
                .map(|_| sampler.next_event(&mut rng))
                .collect()
        })
        .collect();
    let mut pairs: HashSet<(usize, usize)> = HashSet::new();
    for trace in &traces {
        for e in trace {
            pairs.insert((e.user, e.doc));
        }
    }

    let space = DocumentSpace::with_middleware_cost(VirtualClock::new(), LatencyModel::FREE);
    let mut docs = Vec::with_capacity(params.documents);
    for d in 0..params.documents {
        let provider = MemoryProvider::new(
            &format!("doc{d}"),
            lorem_bytes(params.seed + d as u64, params.doc_bytes),
            200,
        );
        let doc = space.create_document(UserId(0), provider);
        for i in 0..params.base_chain {
            space
                .attach_active(
                    Scope::Universal,
                    doc,
                    TagProperty::new(&format!("base-{i}"), 100),
                )
                .expect("attach base chain");
        }
        docs.push(doc);
    }
    for &(user, doc) in &pairs {
        space
            .add_reference(UserId(user as u64 + 1), docs[doc])
            .expect("reference");
    }

    let cache = DocumentCache::new(
        space,
        CacheConfig::builder()
            .capacity_bytes(1 << 30)
            .local_latency(LatencyModel::FREE)
            .shards(shards)
            .stage_cache(true)
            .build(),
    );

    let before = cache.stats();
    let classes = [
        AtomicU64::new(0),
        AtomicU64::new(0),
        AtomicU64::new(0),
        AtomicU64::new(0),
        AtomicU64::new(0),
    ];
    let writes = AtomicU64::new(0);
    let write_errors = AtomicU64::new(0);
    let latencies: Mutex<Vec<u64>> = Mutex::new(Vec::with_capacity(params.total_ops()));
    let write_latencies: Mutex<Vec<u64>> = Mutex::new(Vec::new());

    let started = std::time::Instant::now();
    std::thread::scope(|scope| {
        for trace in &traces {
            let cache = &cache;
            let docs = &docs;
            let classes = &classes;
            let writes = &writes;
            let write_errors = &write_errors;
            let latencies = &latencies;
            let write_latencies = &write_latencies;
            scope.spawn(move || {
                let mut local = Vec::with_capacity(trace.len());
                let mut local_writes = Vec::new();
                for (i, e) in trace.iter().enumerate() {
                    let user = UserId(e.user as u64 + 1);
                    let doc = docs[e.doc];
                    if e.is_write {
                        writes.fetch_add(1, Ordering::Relaxed);
                        let body = format!("rev {i} by {}", e.user);
                        let t0 = std::time::Instant::now();
                        let written = cache.write(user, doc, body.as_bytes());
                        local_writes.push(t0.elapsed().as_nanos() as u64);
                        if written.is_err() {
                            write_errors.fetch_add(1, Ordering::Relaxed);
                        }
                        continue;
                    }
                    let t0 = std::time::Instant::now();
                    let outcome = cache
                        .read_with(user, doc, ReadOptions::default())
                        .expect("read");
                    local.push(t0.elapsed().as_nanos() as u64);
                    std::hint::black_box(&outcome.bytes);
                    classes[outcome.class as usize].fetch_add(1, Ordering::Relaxed);
                }
                latencies.lock().unwrap().extend_from_slice(&local);
                write_latencies
                    .lock()
                    .unwrap()
                    .extend_from_slice(&local_writes);
            });
        }
    });
    let wall_micros = started.elapsed().as_micros() as u64;

    let mut lats = latencies.into_inner().unwrap();
    lats.sort_unstable();
    let mut write_lats = write_latencies.into_inner().unwrap();
    write_lats.sort_unstable();
    let pct = |sorted: &[u64], p: f64| {
        if sorted.is_empty() {
            0
        } else {
            sorted[((sorted.len() - 1) as f64 * p) as usize]
        }
    };

    LoadResult {
        shards,
        threads: params.threads,
        users: params.users,
        reads: lats.len() as u64,
        writes: writes.into_inner(),
        write_errors: write_errors.into_inner(),
        wall_micros,
        p50_nanos: pct(&lats, 0.50),
        p99_nanos: pct(&lats, 0.99),
        write_p50_nanos: pct(&write_lats, 0.50),
        write_p99_nanos: pct(&write_lats, 0.99),
        classes: classes.map(AtomicU64::into_inner),
        stats: cache.stats().delta(&before),
    }
}

/// Runs the sharded configuration against the single-shard global-lock
/// baseline under one trace.
pub fn sweep(shards: usize, params: LoadParams) -> Vec<LoadResult> {
    vec![run_one(1, params), run_one(shards, params)]
}

/// Provider that parks the *first* fetch until the cache reports
/// `expected_waiters` queued readers (or a wall timeout), counting every
/// fetch that reaches the origin. The cache handle arrives after
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
            // rather than serialized by timing luck.
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
    /// Threads that raced the cold read.
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

/// Races `threads` cold readers at one document and asserts the
/// single-flight contract: exactly one fetch reaches the origin, every
/// other reader coalesces onto it, and all readers observe identical
/// bytes.
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

    let space = DocumentSpace::with_middleware_cost(VirtualClock::new(), LatencyModel::FREE);
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
    let bodies: Vec<Bytes> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let cache = &cache;
                scope.spawn(move || cache.read(user, doc).expect("probe read"))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
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

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> LoadParams {
        LoadParams {
            users: 2_000,
            documents: 128,
            doc_bytes: 128,
            threads: 4,
            ops_per_thread: 1_500,
            ..LoadParams::default()
        }
    }

    #[test]
    fn every_access_is_accounted() {
        let r = run_one(8, small());
        assert_eq!(r.reads + r.writes, small().total_ops() as u64);
        assert_eq!(r.classes.iter().sum::<u64>(), r.reads);
        assert_eq!(r.write_errors, 0, "writes must succeed under load");
        assert!(r.reads_per_sec() > 0.0);
        assert!(r.p50_nanos <= r.p99_nanos);
        assert!(r.writes > 0 && r.write_p50_nanos > 0, "writes are timed");
        assert!(r.write_p50_nanos <= r.write_p99_nanos);
    }

    #[test]
    fn outcome_classes_match_counter_delta() {
        let r = run_one(4, small());
        // Whole-version hits + coalesced waits both count as `hits` in the
        // counters; the outcome classes split them apart.
        assert_eq!(
            r.class(HitClass::Hit)
                + r.class(HitClass::CoalescedWait)
                + r.class(HitClass::StaleServed),
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
    }

    #[test]
    fn workload_shares_work_across_the_population() {
        // A population trace is cold per (user, document) most of the
        // time — whole-version hits come only from repeat visits by the
        // Zipf-head users. The cache's value under this mix is that cold
        // reads share staged work: almost every read should be a hit, a
        // partial hit over the shared stage prefix, or a coalesced wait.
        let r = run_one(8, small());
        let shared = r.class(HitClass::Hit)
            + r.class(HitClass::PartialHit)
            + r.class(HitClass::CoalescedWait);
        let frac = shared as f64 / r.reads.max(1) as f64;
        assert!(frac > 0.8, "shared-work fraction {frac} too low");
        assert!(r.stats.stage_hits > 0, "staged prefix never shared");
        assert!(r.class(HitClass::Hit) > 0, "Zipf head never repeated");
    }

    #[test]
    fn baseline_and_sharded_read_identical_traces() {
        let a = run_one(1, small());
        let b = run_one(8, small());
        assert_eq!(a.reads, b.reads);
        assert_eq!(a.writes, b.writes);
    }

    #[test]
    fn probe_coalesces_concurrent_misses() {
        let r = coalesce_probe(6);
        assert_eq!(r.provider_fetches, 1);
        assert_eq!(r.coalesced_waits, 5);
        assert!(r.inflight_peak >= 1);
    }

    #[test]
    fn write_mix_amortizes_origin_round_trips() {
        let params = WriteMixParams {
            users: 2_000,
            documents: 32,
            writes: 600,
            flush_every: 300,
            ..WriteMixParams::default()
        };
        // write_mix() itself asserts the >= 2x amortization contract.
        let [singleton, grouped] = write_mix(params);
        assert!(grouped.flush_calls < singleton.flush_calls);
        assert!(grouped.origin_ops < singleton.origin_ops);
        assert!(
            grouped.flush_micros <= singleton.flush_micros,
            "grouped commits must not cost more virtual time"
        );
        assert!(grouped.flush_batches >= grouped.flush_calls);
    }

    #[test]
    fn write_mix_is_deterministic_per_seed() {
        let params = WriteMixParams {
            users: 1_000,
            documents: 16,
            writes: 200,
            flush_every: 100,
            ..WriteMixParams::default()
        };
        let [_, a] = write_mix(params);
        let [_, b] = write_mix(params);
        assert_eq!(a.entries_flushed, b.entries_flushed);
        assert_eq!(a.flush_batches, b.flush_batches);
        assert_eq!(a.origin_ops, b.origin_ops);
        assert_eq!(a.flush_micros, b.flush_micros);
    }
}
