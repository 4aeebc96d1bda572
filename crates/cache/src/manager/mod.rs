//! The document cache manager.
//!
//! A [`DocumentCache`] interposes between an application and the Placeless
//! middleware (the paper's "application-level cache"). It implements the
//! full §3 design:
//!
//! * entries are tagged `(document, user)` and deduplicated by MD5 content
//!   signature ([`crate::store::ConcurrentStore`]);
//! * **verifiers** shipped by the read path run on every hit, trading hit
//!   latency for consistency with conditions outside Placeless control;
//! * **notifiers** deliver invalidations through the
//!   [`placeless_core::notifier::InvalidationBus`] for changes inside
//!   Placeless control;
//! * the **cacheability indicator** is honored: `Uncacheable` content is
//!   never stored, and `CacheableWithEvents` hits forward the operation
//!   event so audit-like properties still fire;
//! * the replacement policy (Greedy-Dual-Size by default) consumes the
//!   **replacement costs** accumulated along the read path;
//! * writes run **write-through** or **write-back**; both route through
//!   the resilient write pipeline (retries, per-origin breakers shared
//!   with the read path, deadline), and write-back can journal every
//!   buffered write to stable storage for crash recovery
//!   ([`CacheConfig::builder`]'s `journal`, [`DocumentCache::recover`]).
//!
//! # Layout
//!
//! Entry state lives in the sharded table of `crate::shard`, which owns
//! every content-store reference, replacement-policy call and gauge that
//! must move with it; the code here works through its `ShardGuard`
//! methods, and a shard lock is held exactly as long as a guard is alive.
//! The child modules split the cache by concern — `config`, `read`,
//! `stages`, `write`, `flush`, `recover`, `invalidate` — as
//! `impl DocumentCache` blocks over the one struct below.
//!
//! Reads, writes, and user-scoped invalidations touch only the target
//! key's shard. A document-scoped invalidation visits the shards one at
//! a time, and each visit costs the versions of that document resident in
//! that shard (its per-document index), not the shard's population; a
//! flush visits them the same way to drain each dirty map. Statistics
//! are relaxed atomics ([`AtomicCacheStats`]), so no counter update ever
//! takes a lock it would not otherwise hold.
//!
//! ## Lock ordering
//!
//! The shard-lock rules live with the table in `crate::shard`, which also
//! holds all per-key state. On top of them, the write-journal lock, the two
//! flight tables and the origin locks of `crate::origin` (the table of
//! records, each record's health, the brownout ladder) are **leaves**:
//! released before returning, never two at once, and no shard lock is
//! ever requested while one of them is held. A read parked on a full
//! origin window holds no lock at all. Miss fetches, flush writes, and
//! event forwarding run with **no** cache lock held, because the
//! middleware path may re-enter the cache through the invalidation bus.
//!
//! ## Single-flight coalescing
//!
//! Concurrent misses on the same key are deduplicated by two
//! [`crate::singleflight::FlightGroup`]s: one keyed by version key around
//! the whole resilient miss fetch, one keyed by stage signature around
//! each stage execution of the compiled-plan walk. The first thread in
//! leads and computes; the rest block (holding no cache lock) and share
//! the leader's cloneable outcome — bytes or error. Flight waits never
//! cycle: a version leader may wait on a stage flight, but a stage leader
//! only executes its transform. An [`OriginConfig::window`] adds
//! per-origin back-pressure for the misses coalescing cannot merge
//! (distinct keys, one origin; the `origin` module). See the
//! `singleflight` module docs for the full argument.

mod config;
mod flush;
mod invalidate;
mod read;
mod recover;
mod stages;
mod write;

pub use config::{default_shard_count, CacheConfig, CacheConfigBuilder, ReadOptions, WriteMode};
pub use flush::FlushReport;
pub use read::{HitClass, ReadOutcome, StalenessBound};
pub use recover::{ConflictHook, ConflictResolution, RecoveryReport, WriteConflict};

// The child modules are `impl DocumentCache` blocks over the struct below
// and share this import list through `use super::*`.
use crate::digest::Signature;
use crate::entry::EntryMeta;
use crate::journal::{WriteJournal, NO_EPOCH};
use crate::merge::{MergePolicy, MergeReport};
use crate::origin::{
    BreakerState, FetchCtx, GaveUp, Op, Origin, OriginConfig, Origins, Priority, RetryDriver, Rung,
};
use crate::policy::{EntryKey, PolicyFactory};
use crate::prefetch::PrefetchConfig;
use crate::shard::{DirtyEntry, PlanLease, Probe, Removal, Root, ShardGuard, ShardTable, Stale};
use crate::singleflight::{FlightGroup, FlightResult, Join};
use crate::stats::{AtomicCacheStats, CacheStats};
use crate::store::ConcurrentStore;
use bytes::Bytes;
use invalidate::CacheSink;
use placeless_core::cacheability::Cacheability;
use placeless_core::error::{PlacelessError, Result};
use placeless_core::event::EventKind;
use placeless_core::id::{CacheId, DocumentId, UserId};
use placeless_core::notifier::{Invalidation, InvalidationSink};
use placeless_core::op::{apply_all, rebasable, DocOp};
use placeless_core::plan::{StagePipeline, TransformPlan};
use placeless_core::property::PathReport;
use placeless_core::space::{BaseChainLease, BatchWrite, DocumentSpace, Scope};
use placeless_core::streams::read_all;
use placeless_core::verifier::{run_all, Validity, Verifier};
use placeless_simenv::{Instant, LatencyModel, Link, VirtualClock};
use read::Fetched;
use recover::Probed;
use std::cell::OnceCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};

static NEXT_CACHE_ID: AtomicU64 = AtomicU64::new(0);

/// An application-level cache over a [`DocumentSpace`].
pub struct DocumentCache {
    id: CacheId,
    space: Arc<DocumentSpace>,
    run_verifiers: bool,
    write_mode: WriteMode,
    local_latency: LatencyModel,
    prefetch: PrefetchConfig,
    access_link: Option<Link>,
    /// The sharded entry table and the content store behind it.
    table: ShardTable,
    stage_cache: bool,
    /// Origin health: one record per origin, the policy over them, and
    /// the brownout ladder.
    origins: Origins,
    journal: Option<WriteJournal>,
    /// Highest invalidation-bus sequence number seen, from the bus's post
    /// count at subscription on: a post lost after it, before the first
    /// delivery too, is a gap. Gaps mean dropped notifications (see
    /// [`DocumentCache::note_sequence`]).
    last_seq: AtomicU64,
    /// Open miss fetches keyed by version key.
    version_flights: FlightGroup,
    /// Open stage executions keyed by stage signature.
    stage_flights: FlightGroup,
    /// Operation-based conflict resolution, when configured (see
    /// [`CacheConfig::merge`]).
    merge: Option<MergePolicy>,
}

impl DocumentCache {
    /// Creates a cache over `space` and subscribes it to the space's
    /// invalidation bus.
    pub fn new(space: Arc<DocumentSpace>, config: CacheConfig) -> Arc<Self> {
        let shard_count = if config.shards == 0 {
            default_shard_count()
        } else {
            config.shards
        };
        let origins = Origins::new(config.origin, space.clock().clone());
        let cache = Arc::new(Self {
            id: CacheId(NEXT_CACHE_ID.fetch_add(1, Ordering::Relaxed)),
            space,
            run_verifiers: config.run_verifiers,
            write_mode: config.write_mode,
            local_latency: config.local_latency,
            prefetch: config.prefetch,
            access_link: config.access_link,
            table: ShardTable::new(shard_count, &config.policy, config.capacity_bytes),
            stage_cache: config.stage_cache,
            origins,
            journal: config.journal,
            last_seq: AtomicU64::new(0),
            version_flights: FlightGroup::new(),
            stage_flights: FlightGroup::new(),
            merge: config.merge,
        });
        cache.space.bus().subscribe(Arc::new(CacheSink {
            cache: Arc::downgrade(&cache),
            id: cache.id,
        }));
        cache
    }

    /// Creates a cache with the default configuration.
    pub fn with_defaults(space: Arc<DocumentSpace>) -> Arc<Self> {
        Self::new(space, CacheConfig::default())
    }

    /// Returns the number of shards.
    pub fn shard_count(&self) -> usize {
        self.table.shard_count()
    }

    /// Returns a snapshot of the statistics. Exact when the cache is
    /// quiescent; a moment-in-time approximation under concurrent load.
    pub fn stats(&self) -> CacheStats {
        self.table.stats.snapshot()
    }

    /// Returns the circuit-breaker state for an origin key (as reported
    /// by [`placeless_core::bitprovider::BitProvider::origin_key`]);
    /// `Closed` if the origin has never failed.
    pub fn breaker_state(&self, origin: &str) -> BreakerState {
        self.origins.breaker_state(origin)
    }

    /// Returns the number of resident entries — final `(document, user)`
    /// versions plus (with stage caching) intermediate stage entries.
    pub fn len(&self) -> usize {
        self.table.share_each().map(|shard| shard.len()).sum()
    }

    /// Returns the number of resident intermediate stage entries.
    pub fn stage_entry_count(&self) -> usize {
        self.table.share_each().map(|shard| shard.stage_len()).sum()
    }

    /// Returns `true` if no entries are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns `(physical, logical)` resident bytes; the gap is what
    /// signature sharing saved. Lock-free.
    pub fn resident_bytes(&self) -> (u64, u64) {
        self.table.resident_bytes()
    }

    /// Returns `true` if `(doc, user)` is resident.
    pub fn contains(&self, user: UserId, doc: DocumentId) -> bool {
        let key = EntryKey::Version(doc, user);
        self.table.share(key).contains(key)
    }

    /// Returns how many writes are buffered (write-back mode).
    ///
    /// Reads an atomic gauge maintained at every dirty-map mutation —
    /// no shard lock is taken, so a sampling thread (the load engine's)
    /// never perturbs readers. Like [`Self::stats`], a moment-in-time
    /// approximation under concurrency, exact at quiescence.
    pub fn dirty_count(&self) -> usize {
        self.table.dirty_gauge.load(Ordering::Relaxed) as usize
    }

    /// Returns how many dirty entries are currently parked (their last
    /// flush exhausted its retries against an unreachable origin).
    /// Lock-free; see [`Self::dirty_count`] for the precision contract.
    pub fn parked_count(&self) -> usize {
        self.table.parked_gauge.load(Ordering::Relaxed) as usize
    }

    /// Returns how many reads are currently blocked waiting on another
    /// thread's in-flight computation (version and stage flights
    /// together). Zero whenever the cache is quiescent.
    pub fn waiting_reads(&self) -> u64 {
        self.version_flights.waiting() + self.stage_flights.waiting()
    }

    /// Returns how many origin fetch attempts are running right now (the
    /// gauge whose high-water mark is `CacheStats::inflight_peak`).
    pub fn inflight_fetches(&self) -> u64 {
        self.origins.running()
    }

    /// Returns how many readers are currently parked waiting for a
    /// per-origin window slot — the brownout ladder's pressure gauge.
    /// Zero without an [`OriginConfig::window`], and zero whenever the
    /// cache is quiescent.
    pub fn queued_fetches(&self) -> u64 {
        self.origins.queued()
    }

    /// Returns the configured write journal, if any.
    pub fn journal(&self) -> Option<&WriteJournal> {
        self.journal.as_ref()
    }

    /// Recounts every shard's table, one shard lock at a time, for a test
    /// to hold beside its own model. Exact only while the cache is quiescent.
    #[doc(hidden)]
    pub fn recount(&self) -> Recount {
        let mut recount = Recount::default();
        for shard in self.table.share_each() {
            shard.recount(self.space.clock(), &mut recount);
        }
        let gauges = [&self.table.dirty_gauge, &self.table.parked_gauge];
        recount.gauges = gauges.map(|gauge| gauge.load(Ordering::Relaxed));
        recount
    }
}

/// What [`DocumentCache::recount`] found.
#[doc(hidden)]
#[derive(Debug, Default)]
pub struct Recount {
    /// Every resident entry: its key, the signature it is filed under, its bytes.
    pub entries: Vec<(EntryKey, Signature, Bytes)>,
    /// Every buffered write: its key, view, base epoch and parked mark.
    pub dirty: Vec<(DocumentId, UserId, Bytes, Signature, bool)>,
    /// Every lease, with the digest of its root while the root's verifier passes.
    pub leases: Vec<(DocumentId, Option<Signature>)>,
    /// Each shard and item of its bookkeeping that disagrees with the recount.
    pub mismatches: Vec<(usize, &'static str)>,
    /// The dirty and parked gauges.
    pub gauges: [u64; 2],
}

/// Whether `verifier` still stands for content fetched after it was made:
/// one that attests content is re-checked (uncharged: its probe paid), and
/// while some thread `waits` on a flight, any other too: a TTL attests
/// nothing, yet a waiter that joined once it lapsed must not share them.
fn still_attests(verifier: &dyn Verifier, clock: &VirtualClock, waits: bool) -> bool {
    !(verifier.attests_content() || waits) || verifier.check(clock) == Validity::Valid
}
