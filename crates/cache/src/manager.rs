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
//! # Concurrency architecture
//!
//! The cache is sharded: entry state — the `(doc, user) → signature`
//! binding, entry metadata, the replacement-policy instance, and dirty
//! write-back data — is split over N [`Shard`]s, each behind its own
//! mutex, with the shard chosen by a *fixed* multiplicative hash of the
//! key (no per-process hasher seeds, so runs are reproducible). Content
//! bytes live outside the shards in one [`ConcurrentStore`], so identical
//! renditions are deduplicated **across** shards exactly as they were in
//! the single-lock design, and the global physical/logical byte totals
//! are plain atomic counters.
//!
//! Reads, writes, and user-scoped invalidations touch only the target
//! key's shard; document-scoped invalidations and flushes sweep the
//! shards one at a time. Statistics are relaxed atomics
//! ([`AtomicCacheStats`]), so no counter update ever takes a lock it
//! would not otherwise hold. With `shards: 1` the cache degenerates to
//! the original global-lock design and reproduces its statistics exactly.
//!
//! ## Capacity
//!
//! The byte budget is global. A fill *reserves* physical bytes in the
//! content store with a compare-and-swap bounded by the budget
//! ([`ConcurrentStore::try_acquire`]), and evicts until the reservation
//! succeeds — so concurrent fills can never overshoot the budget, unlike
//! an insert-then-evict scheme. Victims come from the filling shard's own
//! policy first; when that shard has nothing (more) to give, the fill
//! *steals* one eviction from a sibling shard. The one deliberate
//! exception is the verifier replace path, which (as in the original
//! design) refreshes content in place and reclaims any overshoot
//! immediately afterwards.
//!
//! ## Lock ordering (deadlock freedom)
//!
//! Three rules, checkable by inspection of this file:
//!
//! 1. a thread **blocks** on at most one shard lock, acquired while
//!    holding no other cache lock;
//! 2. a thread already holding a shard lock may probe sibling shards only
//!    via `try_lock` (work-stealing eviction), which never blocks;
//! 3. content-store stripe locks, the write-journal lock, and the
//!    parked-set lock are **leaves**: taken after any shard locks,
//!    released before returning, never two at once, and no shard lock is
//!    ever requested while one of them is held.
//!
//! Every blocking edge therefore points from "holding nothing" to a shard
//! lock, or from a shard lock to a stripe lock; the wait-for graph is
//! acyclic and no deadlock is possible. Miss fetches, flush writes, and
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
//! only executes its transform. [`CacheConfig::max_inflight_per_origin`]
//! adds per-origin back-pressure for the misses coalescing cannot merge
//! (distinct keys, one origin). See the `singleflight` module docs for
//! the full argument.

use crate::entry::EntryMeta;
use crate::journal::{WriteJournal, NO_EPOCH};
use crate::merge::{MergePolicy, MergeReport};
use crate::overload::{BrownoutLevel, OverloadConfig, OverloadController, Priority};
use crate::policy::{EntryAttrs, EntryKey, PolicyFactory, ReplacementPolicy, STAGE_PIN_LEVEL};
use crate::prefetch::PrefetchConfig;
use crate::resilience::{
    BackoffSchedule, BreakerSet, BreakerState, GaveUp, ResilienceConfig, RetryDriver,
    StalenessBound,
};
use crate::singleflight::{Acquire, FlightGroup, FlightResult, InflightWindow, Join};
use crate::stats::{AtomicCacheStats, CacheStats};
use crate::store::{ConcurrentStore, NoRoom};
use bytes::Bytes;
use parking_lot::Mutex;
use placeless_core::cacheability::Cacheability;
use placeless_core::error::{PlacelessError, Result};
use placeless_core::event::EventKind;
use placeless_core::id::{CacheId, DocumentId, UserId};
use placeless_core::notifier::{Invalidation, InvalidationSink};
use placeless_core::op::{apply_all, rebasable, DocOp};
use placeless_core::plan::{StagePipeline, TransformPlan};
use placeless_core::property::PathReport;
use placeless_core::space::{BaseChainLease, BatchWrite, DocumentSpace, Scope};
use placeless_core::streams::read_all_digest;
use placeless_core::verifier::{run_all, Validity, Verifier};
use placeless_simenv::{Instant, LatencyModel, Link, Stopwatch, VirtualClock};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};

static NEXT_CACHE_ID: AtomicU64 = AtomicU64::new(0);

/// How writes reach the middleware.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteMode {
    /// Forward every write immediately.
    Through,
    /// Buffer writes locally; [`DocumentCache::flush`] pushes them.
    Back,
}

/// What a [`DocumentCache::flush`] accomplished — the write-side sibling
/// of the read path's `PathReport`.
///
/// A flush only returns `Err` for infrastructure failures before any
/// write is attempted (currently never); per-entry failures are reported
/// here so one unreachable origin cannot hide the entries that *did*
/// flush, and nothing is silently dropped — which also makes the report
/// `#[must_use]`: dropping it unexamined loses the parked/requeued
/// entries it carries.
#[must_use = "inspect the report: it may carry parked or requeued writes"]
#[derive(Debug, Clone, Default)]
pub struct FlushReport {
    /// Dirty entries the flush attempted to write.
    pub attempted: u64,
    /// Entries whose origin write succeeded (and, with a journal, whose
    /// journal record was acknowledged and pruned).
    pub flushed: u64,
    /// Entries parked in the journal after exhausting retries against a
    /// transient failure: still dirty, still journaled, drained by a
    /// later flush once the origin's breaker admits probes again.
    /// Journal-configured caches only.
    pub parked: Vec<(DocumentId, UserId)>,
    /// Entries re-queued into the dirty maps with the error that stopped
    /// them: transient failures without a journal, and non-transient
    /// failures always.
    pub requeued: Vec<(DocumentId, UserId, PlacelessError)>,
    /// Per-origin groups the flush formed (one per distinct origin among
    /// the drained entries).
    pub batches: u64,
    /// Drained entries whose key was not an [`EntryKey::Version`] —
    /// an invariant violation (the dirty maps only ever buffer version
    /// keys). They are re-queued, never written, and counted here
    /// instead of in `attempted` so `attempted == flushed + parked.len()
    /// + requeued.len() + dropped.len()` always holds.
    pub skipped_non_version: u64,
    /// Entries deliberately dropped by an unmergeable-conflict
    /// `KeepTheirs` resolution (merge policy configured): the origin's
    /// newer version won, the journaled write was acknowledged and
    /// discarded. Empty without a [`crate::MergePolicy`].
    pub dropped: Vec<(DocumentId, UserId)>,
    /// What the merge policy did with flush-time write conflicts. Empty
    /// (all zeros) without a [`crate::MergePolicy`].
    pub merge: MergeReport,
}

impl FlushReport {
    /// Returns `true` if every attempted entry was resolved — written to
    /// the origin, or deliberately dropped by a `KeepTheirs` merge
    /// fallback — and nothing remains dirty.
    pub fn is_clean(&self) -> bool {
        self.parked.is_empty() && self.requeued.is_empty() && self.skipped_non_version == 0
    }

    /// Returns how many entries remain dirty after this flush.
    pub fn remaining(&self) -> u64 {
        (self.parked.len() + self.requeued.len()) as u64 + self.skipped_non_version
    }
}

impl std::fmt::Display for FlushReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "flushed {}/{} in {} batch(es); {} parked, {} requeued, {} dropped, {} skipped",
            self.flushed,
            self.attempted,
            self.batches,
            self.parked.len(),
            self.requeued.len(),
            self.dropped.len(),
            self.skipped_non_version,
        )?;
        if !self.merge.is_empty() {
            write!(f, "; merge: {}", self.merge)?;
        }
        Ok(())
    }
}

/// How [`DocumentCache::recover`] should resolve one write conflict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConflictResolution {
    /// Keep the journaled write: re-queue it dirty so the next flush
    /// pushes it over the newer origin version. The conflict is still
    /// reported — this is an informed overwrite, not last-writer-wins by
    /// omission.
    KeepMine,
    /// Keep the origin's version: drop the journaled write and
    /// acknowledge its record.
    KeepTheirs,
}

/// One recovered write whose base version no longer matches the origin:
/// the origin moved on while the write sat buffered across the crash.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WriteConflict {
    /// The conflicted document.
    pub doc: DocumentId,
    /// The user whose buffered write conflicts.
    pub user: UserId,
    /// Signature of the rendition the writer based the write on.
    pub journal_epoch: Signature,
    /// Signature of the origin's current rendition.
    pub origin_signature: Signature,
}

impl WriteConflict {
    /// Returns the conflict as the middleware error it surfaces as.
    pub fn error(&self) -> PlacelessError {
        PlacelessError::Conflict {
            doc: self.doc,
            user: self.user,
        }
    }
}

/// Resolution callback consulted by [`DocumentCache::recover`] for each
/// [`WriteConflict`]; `None` defaults to [`ConflictResolution::KeepMine`].
pub type ConflictHook = Arc<dyn Fn(&WriteConflict) -> ConflictResolution + Send + Sync>;

/// What [`DocumentCache::recover`] did with the journal's live records.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Intact journal records considered for replay.
    pub replayed: u64,
    /// Records re-queued into the dirty maps (flushed by the next flush).
    pub requeued: u64,
    /// Conflicts detected (journal epoch vs. origin signature), however
    /// they were resolved. Each surfaces as a non-fatal
    /// [`PlacelessError::Conflict`] via [`WriteConflict::error`].
    pub conflicts: Vec<WriteConflict>,
    /// Conflicts resolved by keeping the journaled write.
    pub kept_mine: u64,
    /// Conflicts resolved by keeping the origin's version.
    pub kept_theirs: u64,
    /// Records dropped because their document no longer exists (the
    /// write can never be applied).
    pub dropped: u64,
    /// What the merge policy did with recovery conflicts. Empty (all
    /// zeros) without a [`crate::MergePolicy`].
    pub merge: MergeReport,
}

impl std::fmt::Display for RecoveryReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "replayed {}, requeued {}; {} conflict(s) ({} kept mine, {} kept theirs), {} dropped",
            self.replayed,
            self.requeued,
            self.conflicts.len(),
            self.kept_mine,
            self.kept_theirs,
            self.dropped,
        )?;
        if !self.merge.is_empty() {
            write!(f, "; merge: {}", self.merge)?;
        }
        Ok(())
    }
}

/// Returns one shard per available CPU (the `shards: 0` default).
pub fn default_shard_count() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Cache construction parameters.
///
/// All fields are public and `..CacheConfig::default()` keeps working;
/// [`CacheConfig::builder`] is the ergonomic front door.
#[derive(Clone)]
pub struct CacheConfig {
    /// Capacity in *physical* (deduplicated) bytes.
    pub capacity_bytes: u64,
    /// Replacement policy recipe; defaults to Greedy-Dual-Size. Each
    /// shard builds its own instance.
    pub policy: PolicyFactory,
    /// Whether to run verifiers on hits (disable to measure a
    /// notifier-only configuration).
    pub run_verifiers: bool,
    /// Write handling.
    pub write_mode: WriteMode,
    /// Cost of serving a hit from local storage.
    pub local_latency: LatencyModel,
    /// Collection prefetching (§5 related-documents mechanism).
    pub prefetch: PrefetchConfig,
    /// The network path between the application and this cache, if the
    /// cache is not co-located with the application — the prototype "also
    /// experimented with caches co-located with the Placeless server".
    /// Charged on every served read.
    pub access_link: Option<Link>,
    /// Number of lock shards; `0` means one per available CPU. `1`
    /// reproduces the original global-lock behaviour exactly.
    pub shards: usize,
    /// Resilient-fetch policy: retries, circuit breakers, serve-stale
    /// degradation. The default enables none of it: every origin
    /// operation is one attempt and fails with that attempt's error.
    pub resilience: ResilienceConfig,
    /// Retain intermediate stage outputs from the compiled transform plan,
    /// content-addressed by stage signature, so the user-independent base
    /// prefix of a property chain is computed once and shared across
    /// users; later misses replay only the per-user reference suffix. Off
    /// by default: misses then execute the chain as one opaque stream,
    /// exactly as before.
    pub stage_cache: bool,
    /// Durable write-ahead journal for write-back writes. When set, every
    /// `WriteMode::Back` write is appended to the journal's stable medium
    /// *before* the dirty map is updated, flushes acknowledge records only
    /// after the origin write succeeds, and writes whose flush exhausts
    /// its retries are *parked* in the journal instead of erroring. `None`
    /// (the default) reproduces the unjournaled behaviour exactly.
    pub journal: Option<WriteJournal>,
    /// Bound the number of concurrently in-flight origin fetches per
    /// origin. Excess misses block at the cache until a slot frees,
    /// queueing a miss storm instead of stampeding the origin. `None`
    /// (the default) leaves fetch concurrency unbounded.
    pub max_inflight_per_origin: Option<u32>,
    /// Operation-based conflict resolution. When set, write conflicts
    /// detected during recovery *and* flush are routed through the merge
    /// policy first: a conflicted write whose journal record carries
    /// rebasable typed ops ([`placeless_core::op::DocOp`], via
    /// [`DocumentCache::write_op`]) is rebased onto the origin's current
    /// content — both sides' edits survive — and only unmergeable
    /// conflicts (plain full-body writes) fall back to the binary
    /// keep-mine/keep-theirs hooks. `None` (the default) preserves the
    /// binary PR-4 behaviour exactly: no origin probes, no rebases,
    /// byte-identical flush payloads.
    pub merge: Option<MergePolicy>,
    /// Overload control: deadline-aware admission against the per-origin
    /// in-flight windows, AIMD concurrency limits driven by observed
    /// fetch latency, priority-class shedding, and the brownout ladder
    /// (see [`crate::overload`]). Requires an in-flight window: when
    /// `max_inflight_per_origin` is unset, the window is created with
    /// the overload config's `max_inflight` ceiling. `None` (the
    /// default) reproduces the uncontrolled behaviour exactly.
    pub overload: Option<OverloadConfig>,
}

impl Default for CacheConfig {
    fn default() -> Self {
        Self {
            capacity_bytes: 16 * 1024 * 1024,
            policy: PolicyFactory::default(),
            run_verifiers: true,
            write_mode: WriteMode::Through,
            local_latency: LatencyModel::new(50, 5),
            prefetch: PrefetchConfig::OFF,
            access_link: None,
            shards: 0,
            resilience: ResilienceConfig::default(),
            stage_cache: false,
            journal: None,
            max_inflight_per_origin: None,
            merge: None,
            overload: None,
        }
    }
}

impl CacheConfig {
    /// Starts building a configuration from the defaults.
    pub fn builder() -> CacheConfigBuilder {
        CacheConfigBuilder {
            config: Self::default(),
        }
    }
}

/// Builder for [`CacheConfig`]; obtain via [`CacheConfig::builder`].
#[derive(Clone)]
pub struct CacheConfigBuilder {
    config: CacheConfig,
}

impl CacheConfigBuilder {
    /// Sets the capacity in physical (deduplicated) bytes.
    pub fn capacity_bytes(mut self, bytes: u64) -> Self {
        self.config.capacity_bytes = bytes;
        self
    }

    /// Sets the replacement-policy recipe.
    pub fn policy(mut self, policy: PolicyFactory) -> Self {
        self.config.policy = policy;
        self
    }

    /// Sets the replacement policy by name (case-insensitive); the error
    /// lists every known policy.
    pub fn policy_name(
        mut self,
        name: &str,
    ) -> std::result::Result<Self, crate::policy::UnknownPolicy> {
        self.config.policy = PolicyFactory::by_name(name)?;
        Ok(self)
    }

    /// Enables or disables verifier runs on hits.
    pub fn run_verifiers(mut self, run: bool) -> Self {
        self.config.run_verifiers = run;
        self
    }

    /// Sets the write mode.
    pub fn write_mode(mut self, mode: WriteMode) -> Self {
        self.config.write_mode = mode;
        self
    }

    /// Sets the local hit latency model.
    pub fn local_latency(mut self, latency: LatencyModel) -> Self {
        self.config.local_latency = latency;
        self
    }

    /// Sets the collection-prefetch configuration.
    pub fn prefetch(mut self, prefetch: PrefetchConfig) -> Self {
        self.config.prefetch = prefetch;
        self
    }

    /// Sets the application-to-cache network link.
    pub fn access_link(mut self, link: Link) -> Self {
        self.config.access_link = Some(link);
        self
    }

    /// Sets the shard count (`0` = one per available CPU).
    pub fn shards(mut self, shards: usize) -> Self {
        self.config.shards = shards;
        self
    }

    /// Sets the resilient-fetch policy (retries, circuit breakers,
    /// serve-stale degradation); see [`ResilienceConfig::builder`].
    pub fn resilience(mut self, resilience: ResilienceConfig) -> Self {
        self.config.resilience = resilience;
        self
    }

    /// Enables or disables intermediate-result (stage) caching on the miss
    /// path.
    pub fn stage_cache(mut self, on: bool) -> Self {
        self.config.stage_cache = on;
        self
    }

    /// Attaches a durable write-ahead journal for write-back writes (see
    /// [`CacheConfig::journal`]). Pass a journal opened over the same
    /// [`placeless_simenv::StableStore`] across restarts to recover
    /// buffered writes with [`DocumentCache::recover`].
    pub fn journal(mut self, journal: WriteJournal) -> Self {
        self.config.journal = Some(journal);
        self
    }

    /// Single-flight miss coalescing is always on; kept until
    /// `benchmark/` is next re-cut.
    #[doc(hidden)]
    #[deprecated(note = "always on; this call selects nothing")]
    pub fn single_flight(self, _on: bool) -> Self {
        self
    }

    /// Bounds concurrently in-flight origin fetches per origin (see
    /// [`CacheConfig::max_inflight_per_origin`]).
    pub fn max_inflight_per_origin(mut self, limit: u32) -> Self {
        self.config.max_inflight_per_origin = Some(limit);
        self
    }

    /// Per-origin flush grouping is always on; kept until `benchmark/`
    /// is next re-cut.
    #[doc(hidden)]
    #[deprecated(note = "always on; this call selects nothing")]
    pub fn batched_flush(self, _on: bool) -> Self {
        self
    }

    /// Enables operation-based conflict resolution (see
    /// [`CacheConfig::merge`]).
    pub fn merge(mut self, policy: MergePolicy) -> Self {
        self.config.merge = Some(policy);
        self
    }

    /// Enables overload control (see [`CacheConfig::overload`]).
    pub fn overload(mut self, overload: OverloadConfig) -> Self {
        self.config.overload = Some(overload);
        self
    }

    /// Finishes the configuration.
    pub fn build(self) -> CacheConfig {
        self.config
    }
}

/// Per-read knobs for [`DocumentCache::read_with`].
///
/// `ReadOptions::default()` reproduces [`DocumentCache::read`] exactly.
/// The struct is `#[non_exhaustive]` so later PRs can add knobs without
/// breaking callers; construct it with [`ReadOptions::new`] (or
/// `default()`) and the chainable setters:
///
/// ```
/// use placeless_cache::ReadOptions;
///
/// let opts = ReadOptions::new().allow_stale(true).deadline_micros(5_000);
/// assert!(opts.allow_stale);
/// assert_eq!(opts.deadline_micros, Some(5_000));
/// ```
#[non_exhaustive]
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReadOptions {
    /// Overrides the configured fetch deadline
    /// ([`ResilienceConfig::fetch_deadline_micros`]) for this read only.
    /// Like the configured deadline it bounds retry *scheduling* — a
    /// backoff the remaining budget cannot cover fails the read with
    /// [`PlacelessError::Timeout`] instead of sleeping. With the default
    /// resilience config there are no retries to bound and the override
    /// has no effect.
    pub deadline_micros: Option<u64>,
    /// Permits serving resident-but-unverifiable bytes when the origin is
    /// unreachable, even if the cache has no configured
    /// [`ResilienceConfig::serve_stale`] bound (the per-read bound is
    /// [`StalenessBound::UNBOUNDED`]). A configured bound still applies
    /// to every read regardless of this flag.
    pub allow_stale: bool,
    /// Executes the property chain as one opaque stream for this read,
    /// skipping intermediate-result lookups *and* fills even when
    /// [`CacheConfig::stage_cache`] is on. For measuring the stage
    /// cache's contribution without rebuilding the cache.
    pub bypass_stage_cache: bool,
    /// Scheduling class for overload control: under pressure the cache
    /// sheds [`Priority::Prefetch`] first, [`Priority::Refresh`] next,
    /// and [`Priority::Foreground`] (the default) last. Without
    /// [`CacheConfig::overload`] the class is recorded but never acted
    /// on.
    pub priority: Priority,
}

impl ReadOptions {
    /// Returns the defaults ([`DocumentCache::read`] semantics).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the per-read fetch deadline override.
    pub fn deadline_micros(mut self, micros: u64) -> Self {
        self.deadline_micros = Some(micros);
        self
    }

    /// Sets the per-read stale-service opt-in.
    pub fn allow_stale(mut self, allow: bool) -> Self {
        self.allow_stale = allow;
        self
    }

    /// Sets the per-read stage-cache bypass.
    pub fn bypass_stage_cache(mut self, bypass: bool) -> Self {
        self.bypass_stage_cache = bypass;
        self
    }

    /// Sets the read's overload priority class.
    pub fn priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }
}

/// How a [`DocumentCache::read_with`] was served.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HitClass {
    /// Served from a resident entry (verifiers passed, or a verifier
    /// replaced the content in place), or from the reader's own buffered
    /// write-back data.
    Hit,
    /// A miss whose chain walk reused at least one cached intermediate
    /// stage (the paper's per-user suffix over a shared base prefix).
    PartialHit,
    /// Fetched through the full read path, including uncacheable reads.
    Miss,
    /// Joined another thread's in-flight miss on the same key and shared
    /// its bytes without fetching (counted under both `hits` and
    /// `coalesced_waits` in [`CacheStats`]).
    CoalescedWait,
    /// Resident bytes of unknown freshness served in place of an
    /// unreachable origin, within the staleness bound.
    StaleServed,
}

impl HitClass {
    /// A stable lowercase label for reports and JSON artifacts.
    pub fn label(&self) -> &'static str {
        match self {
            HitClass::Hit => "hit",
            HitClass::PartialHit => "partial_hit",
            HitClass::Miss => "miss",
            HitClass::CoalescedWait => "coalesced_wait",
            HitClass::StaleServed => "stale_served",
        }
    }
}

/// What [`DocumentCache::read_with`] returned: the bytes plus how they
/// were obtained, so callers classify service quality per read instead of
/// re-deriving it from [`CacheStats`] deltas. `#[must_use]`: dropping an
/// outcome unexamined silently discards the degraded/stale service
/// classification.
#[must_use = "inspect the outcome's class: it may be stale or degraded service"]
#[non_exhaustive]
#[derive(Debug, Clone)]
pub struct ReadOutcome {
    /// The document content.
    pub bytes: Bytes,
    /// How the read was served.
    pub class: HitClass,
    /// Virtual-clock microseconds this read observed, as charged by the
    /// latency models along its path. Under concurrent load the virtual
    /// clock advances globally, so per-read wall-clock timing belongs to
    /// the caller (the load engine times reads with a wall stopwatch).
    pub latency_micros: u64,
}

/// One buffered write-back write: the data plus (journal configured) the
/// sequence number of its journal record, so a flush acknowledges exactly
/// the record it pushed — never a newer one that superseded it while the
/// flush held no lock.
#[derive(Debug, Clone)]
struct DirtyEntry {
    data: Bytes,
    seq: Option<u64>,
    /// Typed ops accumulated since `epoch`, oldest first — the delta a
    /// merge can rebase. Empty for plain full-body writes.
    ops: Vec<DocOp>,
    /// Content signature of the base rendition the buffered write was
    /// authored against ([`NO_EPOCH`] when unknown). The flush-time
    /// conflict probe compares it against the origin's current rendition.
    epoch: Signature,
    /// Per-`(doc, user)` causal sequence; `0` for plain writes.
    writer_seq: u64,
}

/// One lock-striped slice of the cache's entry state. Content bytes live
/// outside, in the cache-wide [`ConcurrentStore`].
struct Shard {
    sigs: HashMap<EntryKey, Signature>,
    meta: HashMap<EntryKey, EntryMeta>,
    policy: Box<dyn ReplacementPolicy>,
    dirty: HashMap<EntryKey, DirtyEntry>,
}

use crate::digest::Signature;

/// Fast-path state for one document's staged read walk (see
/// [`DocumentCache::read_through_stages`]).
struct PlanLease {
    /// The space-issued compiled view of the base half of the property
    /// chain, validated against the base document's chain epoch on every
    /// use — reusing it saves one middleware hop per walk.
    chain: Arc<BaseChainLease>,
    /// The provider rendition last fetched through this lease, when the
    /// provider could hand out a verifier for it.
    root: Option<RootLease>,
}

/// A verifier-guarded root content signature: "the provider bytes still
/// digest to `sig`", as attested by `verifier`. The verifier is captured
/// *before* the bytes it covers are fetched, so a write landing between
/// capture and fetch reads as `Invalid` (a wasted refetch) — never as
/// `Valid` over stale bytes.
struct RootLease {
    sig: Signature,
    verifier: Box<dyn Verifier>,
}

/// Per-fetch overload context threaded from [`DocumentCache::read_with`]
/// through retries, window admission, and stage computation: the read's
/// priority class and the virtual instant its deadline budget expires.
/// `deadline_at` is only ever `Some` when overload control is configured
/// — without it the deadline keeps its original meaning (bounding retry
/// scheduling only) and no new check fires.
#[derive(Clone, Copy)]
struct FetchCtx {
    priority: Priority,
    deadline_at: Option<Instant>,
}

/// A claimed per-origin window slot plus when the fetch started, so
/// releasing it can feed the observed service time to the AIMD
/// controller.
struct OriginSlot {
    origin: String,
    started: Instant,
}

/// An application-level cache over a [`DocumentSpace`].
pub struct DocumentCache {
    id: CacheId,
    space: Arc<DocumentSpace>,
    capacity_bytes: u64,
    run_verifiers: bool,
    write_mode: WriteMode,
    local_latency: LatencyModel,
    prefetch: PrefetchConfig,
    access_link: Option<Link>,
    shards: Box<[Mutex<Shard>]>,
    store: ConcurrentStore,
    stats: AtomicCacheStats,
    resilience: ResilienceConfig,
    stage_cache: bool,
    breakers: BreakerSet,
    journal: Option<WriteJournal>,
    /// Keys whose flush exhausted its retries and now sit in the journal
    /// awaiting a breaker probe. Bookkeeping only (stats and reports);
    /// the data itself stays in the dirty maps and the journal. Leaf lock.
    parked: Mutex<HashSet<EntryKey>>,
    /// Highest invalidation-bus sequence number seen; `0` until the first
    /// delivery. Gaps mean dropped notifications (see
    /// [`DocumentCache::note_sequence`]).
    last_seq: AtomicU64,
    /// Open miss fetches keyed by version key.
    version_flights: FlightGroup,
    /// Open stage executions keyed by stage signature.
    stage_flights: FlightGroup,
    /// Per-origin fetch back-pressure, when configured.
    window: Option<InflightWindow>,
    /// Overload control (deadline-aware admission, AIMD limits, brownout
    /// ladder), when configured. Always paired with a `window`.
    overload: Option<OverloadController>,
    /// Origin fetches currently running (gauge feeding `inflight_peak`).
    inflight: AtomicU64,
    /// Buffered write-back writes across all shards, maintained at every
    /// dirty-map mutation so [`DocumentCache::dirty_count`] does not
    /// sweep the shard locks.
    dirty_gauge: AtomicU64,
    /// Mirror of `parked.len()`, so [`DocumentCache::parked_count`] does
    /// not take the parked lock.
    parked_gauge: AtomicU64,
    /// Operation-based conflict resolution, when configured (see
    /// [`CacheConfig::merge`]).
    merge: Option<MergePolicy>,
    /// Per-`(doc, user)` causal sequence counters for op-based writes,
    /// seeded from replayed journal records on recovery. Leaf lock.
    writer_seqs: Mutex<HashMap<(DocumentId, UserId), u64>>,
    /// Per-document staged-read leases (see [`PlanLease`]). Leaf lock; the
    /// root verifier runs under it, but verifiers touch only provider
    /// internals, never cache state.
    leases: Mutex<HashMap<DocumentId, PlanLease>>,
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
        let shards = (0..shard_count)
            .map(|_| {
                Mutex::new(Shard {
                    sigs: HashMap::new(),
                    meta: HashMap::new(),
                    policy: config.policy.build(),
                    dirty: HashMap::new(),
                })
            })
            .collect();
        let cache = Arc::new(Self {
            id: CacheId(NEXT_CACHE_ID.fetch_add(1, Ordering::Relaxed)),
            space,
            capacity_bytes: config.capacity_bytes,
            run_verifiers: config.run_verifiers,
            write_mode: config.write_mode,
            local_latency: config.local_latency,
            prefetch: config.prefetch,
            access_link: config.access_link,
            shards,
            store: ConcurrentStore::new(),
            stats: AtomicCacheStats::default(),
            resilience: config.resilience,
            stage_cache: config.stage_cache,
            breakers: BreakerSet::new(),
            journal: config.journal,
            parked: Mutex::new(HashSet::new()),
            last_seq: AtomicU64::new(0),
            version_flights: FlightGroup::new(),
            stage_flights: FlightGroup::new(),
            window: {
                // Overload control needs a window to meter admission
                // through; fall back to its ceiling when no static
                // per-origin bound was configured.
                let limit = config.max_inflight_per_origin.or_else(|| {
                    config
                        .overload
                        .as_ref()
                        .map(|overload| overload.max_inflight)
                });
                limit.map(|limit| InflightWindow::new(limit as usize))
            },
            overload: config.overload.map(OverloadController::new),
            inflight: AtomicU64::new(0),
            dirty_gauge: AtomicU64::new(0),
            parked_gauge: AtomicU64::new(0),
            merge: config.merge,
            writer_seqs: Mutex::new(HashMap::new()),
            leases: Mutex::new(HashMap::new()),
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

    /// Creates a cache after a crash, replaying the journal configured in
    /// `config` into the dirty queue (warm restart).
    ///
    /// Open the journal over the surviving [`placeless_simenv::StableStore`]
    /// first — [`WriteJournal::open`] truncates any torn tail the crash
    /// left — then pass it in `config.journal`. Each intact record is
    /// checked against the origin: if the record carries a base-version
    /// epoch and the origin's current rendition no longer matches it, the
    /// origin changed while the write sat buffered across the crash. That
    /// is a [`WriteConflict`], resolved through `hook` (default:
    /// [`ConflictResolution::KeepMine`]) and *reported*, never silently
    /// last-writer-wins. Records whose origin is unreachable during
    /// recovery are re-queued unchecked — the conflict check re-runs
    /// implicitly when a human inspects the report, and the write itself
    /// is preserved either way. Records whose document no longer exists
    /// are dropped and acknowledged.
    ///
    /// Without a journal in `config`, this is exactly [`Self::new`] plus
    /// an empty report.
    pub fn recover(
        space: Arc<DocumentSpace>,
        config: CacheConfig,
        hook: Option<ConflictHook>,
    ) -> (Arc<Self>, RecoveryReport) {
        let cache = Self::new(space, config);
        let mut report = RecoveryReport::default();
        let Some(journal) = cache.journal.clone() else {
            return (cache, report);
        };
        for record in journal.live_records() {
            report.replayed += 1;
            AtomicCacheStats::bump(&cache.stats.journal_replays);
            // Seed the causal counter so post-recovery ops continue this
            // writer's sequence instead of restarting it.
            if record.writer_seq > 0 {
                let mut seqs = cache.writer_seqs.lock();
                let counter = seqs.entry((record.doc, record.user)).or_insert(0);
                *counter = (*counter).max(record.writer_seq);
            }
            let mut origin_bytes: Option<Bytes> = None;
            let conflict = if record.epoch == NO_EPOCH {
                // The writer never read the document: no base version is
                // known, so there is nothing to compare against.
                None
            } else {
                match cache.space.read_document(record.user, record.doc) {
                    Ok((bytes, _)) => {
                        let origin_sig = ConcurrentStore::signature_of(&bytes);
                        let conflict = (origin_sig != record.epoch).then_some(WriteConflict {
                            doc: record.doc,
                            user: record.user,
                            journal_epoch: record.epoch,
                            origin_signature: origin_sig,
                        });
                        origin_bytes = Some(bytes);
                        conflict
                    }
                    Err(
                        PlacelessError::NoSuchDocument(_) | PlacelessError::NoSuchReference(..),
                    ) => {
                        // The write's target is gone; it can never be
                        // applied. Drop and acknowledge.
                        journal.ack(record.seq);
                        report.dropped += 1;
                        continue;
                    }
                    // Origin unreachable (or any other read failure):
                    // re-queue unchecked — losing the write would be worse
                    // than flushing it unverified.
                    Err(_) => None,
                }
            };
            let mut entry = DirtyEntry {
                data: record.data.clone(),
                seq: Some(record.seq),
                ops: record.ops.clone(),
                epoch: record.epoch,
                writer_seq: record.writer_seq,
            };
            if let Some(conflict) = conflict {
                AtomicCacheStats::bump(&cache.stats.write_conflicts);
                if cache.merge.is_some() {
                    report.merge.examined += 1;
                }
                if cache.merge.is_some() && record.rebasable() {
                    // Operation-based resolution: re-apply the writer's
                    // typed ops onto the origin's *current* content, so
                    // both the crashed writer's edits and whatever landed
                    // at the origin meanwhile survive. The re-queued
                    // entry's epoch advances to the rebased base so the
                    // flush does not re-detect the same conflict.
                    let origin = origin_bytes
                        .clone()
                        .expect("a conflict implies a successful origin read");
                    entry.data = apply_all(&origin, &record.ops);
                    entry.epoch = conflict.origin_signature;
                    AtomicCacheStats::bump(&cache.stats.conflicts_merged);
                    for _ in &record.ops {
                        AtomicCacheStats::bump(&cache.stats.merge_rebases);
                    }
                    report.merge.merged += 1;
                    report.merge.rebases += record.ops.len() as u64;
                    report.conflicts.push(conflict);
                } else {
                    // Unmergeable (or no merge policy): fall back to the
                    // binary hooks — the call-site hook first, then the
                    // policy's fallback, then keep-mine.
                    let resolution = match (&hook, &cache.merge) {
                        (Some(hook), _) => hook(&conflict),
                        (None, Some(policy)) => policy.resolve_unmergeable(&conflict),
                        (None, None) => ConflictResolution::KeepMine,
                    };
                    report.conflicts.push(conflict);
                    match resolution {
                        ConflictResolution::KeepMine => {
                            report.kept_mine += 1;
                            if cache.merge.is_some() {
                                report.merge.kept_mine += 1;
                            }
                        }
                        ConflictResolution::KeepTheirs => {
                            report.kept_theirs += 1;
                            if cache.merge.is_some() {
                                report.merge.kept_theirs += 1;
                            }
                            journal.ack(record.seq);
                            continue;
                        }
                    }
                }
            }
            let key = EntryKey::Version(record.doc, record.user);
            let mut shard = cache.shard(key).lock();
            let inserted = shard.dirty.insert(key, entry).is_none();
            drop(shard);
            if inserted {
                cache.dirty_gauge.fetch_add(1, Ordering::Relaxed);
            }
            report.requeued += 1;
        }
        (cache, report)
    }

    /// Returns this cache's id.
    pub fn id(&self) -> CacheId {
        self.id
    }

    /// Returns the number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Returns a snapshot of the statistics. Exact when the cache is
    /// quiescent; a moment-in-time approximation under concurrent load.
    pub fn stats(&self) -> CacheStats {
        self.stats.snapshot()
    }

    /// Returns the circuit-breaker state for an origin key (as reported
    /// by [`placeless_core::bitprovider::BitProvider::origin_key`]);
    /// `Closed` if the origin has never failed.
    pub fn breaker_state(&self, origin: &str) -> BreakerState {
        self.breakers.state(origin)
    }

    /// Returns the number of resident entries — final `(document, user)`
    /// versions plus (with stage caching) intermediate stage entries.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().meta.len()).sum()
    }

    /// Returns the number of resident intermediate stage entries.
    pub fn stage_entry_count(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().meta.keys().filter(|k| k.is_stage()).count())
            .sum()
    }

    /// Returns `true` if no entries are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns `(physical, logical)` resident bytes; the gap is what
    /// signature sharing saved. Lock-free.
    pub fn resident_bytes(&self) -> (u64, u64) {
        (self.store.physical_bytes(), self.store.logical_bytes())
    }

    /// Returns `true` if `(doc, user)` is resident.
    pub fn contains(&self, user: UserId, doc: DocumentId) -> bool {
        let key = EntryKey::Version(doc, user);
        self.shard(key).lock().meta.contains_key(&key)
    }

    /// Picks the shard for a key with a fixed multiplicative hash, so
    /// placement is identical across runs and machines (std's default
    /// hasher is randomly seeded and would break reproducibility).
    fn shard_index(&self, key: EntryKey) -> usize {
        let mixed = match key {
            EntryKey::Version(DocumentId(doc), UserId(user)) => {
                doc.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ user.wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
            }
            // A stage signature is an MD5 digest: hash its two halves with
            // the same mixers for identical distribution properties.
            EntryKey::Stage(sig) => {
                let lo = u64::from_le_bytes(sig.0[..8].try_into().expect("8 bytes"));
                let hi = u64::from_le_bytes(sig.0[8..].try_into().expect("8 bytes"));
                lo.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ hi.wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
            }
        };
        // Use the high bits: multiplicative hashing mixes upward.
        (mixed >> 32) as usize % self.shards.len()
    }

    fn shard(&self, key: EntryKey) -> &Mutex<Shard> {
        &self.shards[self.shard_index(key)]
    }

    /// Removes an entry for a non-eviction reason (invalidation), telling
    /// the policy. Returns `true` if the entry existed.
    fn drop_entry(&self, shard: &mut Shard, key: EntryKey) -> bool {
        let existed = match shard.sigs.remove(&key) {
            Some(sig) => {
                self.store.release(sig);
                true
            }
            None => false,
        };
        if let Some(meta) = shard.meta.remove(&key) {
            if key.is_stage() {
                AtomicCacheStats::sub(&self.stats.stage_bytes, meta.size);
            }
        }
        shard.policy.on_remove(key);
        existed
    }

    /// Removes an entry the policy already chose (and forgot) as an
    /// eviction victim.
    fn drop_victim(&self, shard: &mut Shard, victim: EntryKey) {
        if let Some(sig) = shard.sigs.remove(&victim) {
            self.store.release(sig);
        }
        if let Some(meta) = shard.meta.remove(&victim) {
            if victim.is_stage() {
                AtomicCacheStats::sub(&self.stats.stage_bytes, meta.size);
            }
        }
    }

    /// Evicts one entry from some *other* shard to make room, probing
    /// with `try_lock` only (rule 2 of the lock order: a blocking
    /// acquisition here could deadlock with a concurrent steal in the
    /// opposite direction). Returns `true` if an entry was evicted.
    fn steal_one(&self, skip: usize) -> bool {
        for offset in 1..self.shards.len() {
            let index = (skip + offset) % self.shards.len();
            let Some(mut shard) = self.shards[index].try_lock() else {
                continue;
            };
            if let Some(victim) = shard.policy.evict() {
                self.drop_victim(&mut shard, victim);
                AtomicCacheStats::bump(&self.stats.evictions);
                return true;
            }
        }
        false
    }

    /// Reads a document for `user`, serving from the cache when possible.
    ///
    /// Equivalent to [`Self::read_with`] with default [`ReadOptions`],
    /// discarding the [`ReadOutcome`] classification.
    pub fn read(&self, user: UserId, doc: DocumentId) -> Result<Bytes> {
        self.read_with(user, doc, ReadOptions::default())
            .map(|outcome| outcome.bytes)
    }

    /// Reads a document for `user` under per-read [`ReadOptions`],
    /// reporting how the read was served.
    pub fn read_with(
        &self,
        user: UserId,
        doc: DocumentId,
        opts: ReadOptions,
    ) -> Result<ReadOutcome> {
        let key = EntryKey::Version(doc, user);
        let clock = self.space.clock().clone();
        let watch = Stopwatch::start(&clock);

        enum Outcome {
            Dirty(Bytes),
            Serve(Bytes, bool),
            Miss,
            /// The entry's freshness could not be checked (origin
            /// unreachable): go to the origin for a fresh copy, keeping
            /// these bytes as the stale-service candidate.
            MissWithStale {
                bytes: Bytes,
                filled_at: Instant,
                forward: bool,
            },
        }
        let index = self.shard_index(key);
        let outcome = {
            let mut shard = self.shards[index].lock();
            // Dirty write-back data is the freshest view for its writer.
            if let Some(dirty) = shard.dirty.get(&key) {
                Outcome::Dirty(dirty.data.clone())
            } else if shard.meta.contains_key(&key) {
                let meta = shard.meta.get(&key).expect("checked above");
                // `force_verify` (set after an invalidation gap) overrides
                // a notifier-only configuration: the notifier guarantee is
                // void for this entry until a verification passes.
                let verdict = if self.run_verifiers || meta.force_verify {
                    let (verdict, probe_cost) = run_all(&meta.verifiers, &clock);
                    clock.advance(probe_cost);
                    AtomicCacheStats::add(&self.stats.verify_micros, probe_cost);
                    verdict
                } else {
                    Validity::Valid
                };
                match verdict {
                    Validity::Valid => {
                        let sig = *shard.sigs.get(&key).expect("meta implies content");
                        let bytes = self.store.get(sig).expect("binding implies content");
                        let meta = shard.meta.get_mut(&key).expect("checked above");
                        meta.hits += 1;
                        meta.force_verify = false;
                        let was_prefetched = meta.prefetched;
                        let forward = meta.cacheability.requires_event_forwarding();
                        shard.policy.on_hit(key);
                        if was_prefetched {
                            AtomicCacheStats::bump(&self.stats.prefetch_hits);
                        }
                        self.local_latency.charge(&clock, bytes.len() as u64);
                        AtomicCacheStats::bump(&self.stats.hits);
                        AtomicCacheStats::add(&self.stats.hit_micros, watch.elapsed_micros());
                        Outcome::Serve(bytes, forward)
                    }
                    Validity::Replace(bytes) => {
                        // Refresh the entry in place and serve.
                        let size = bytes.len() as u64;
                        if let Some(old) = shard.sigs.remove(&key) {
                            self.store.release(old);
                        }
                        let sig = ConcurrentStore::signature_of(&bytes);
                        if self.store.acquire(sig, &bytes) {
                            AtomicCacheStats::bump(&self.stats.shared_fills);
                        }
                        shard.sigs.insert(key, sig);
                        let forward = {
                            let meta = shard.meta.get_mut(&key).expect("checked above");
                            meta.size = size;
                            meta.filled_at = clock.now();
                            meta.hits += 1;
                            meta.force_verify = false;
                            meta.cacheability.requires_event_forwarding()
                        };
                        shard.policy.on_hit(key);
                        // The replacement may have grown the content past
                        // the budget; reclaim, sparing the fresh entry.
                        self.reclaim_over_budget(index, &mut shard, Some(key));
                        self.local_latency.charge(&clock, size);
                        AtomicCacheStats::bump(&self.stats.verifier_replacements);
                        AtomicCacheStats::bump(&self.stats.hits);
                        AtomicCacheStats::add(&self.stats.hit_micros, watch.elapsed_micros());
                        Outcome::Serve(bytes, forward)
                    }
                    Validity::Invalid => {
                        self.drop_entry(&mut shard, key);
                        AtomicCacheStats::bump(&self.stats.verifier_invalidations);
                        Outcome::Miss
                    }
                    Validity::Unverifiable => {
                        // Neither fresh nor refuted. Keep the entry; the
                        // miss path decides whether the staleness bound
                        // lets it stand in for an unreachable origin.
                        let sig = *shard.sigs.get(&key).expect("meta implies content");
                        let bytes = self.store.get(sig).expect("binding implies content");
                        let meta = shard.meta.get(&key).expect("checked above");
                        Outcome::MissWithStale {
                            bytes,
                            filled_at: meta.filled_at,
                            forward: meta.cacheability.requires_event_forwarding(),
                        }
                    }
                }
            } else {
                Outcome::Miss
            }
        };

        let stale = match outcome {
            Outcome::Dirty(bytes) => {
                let latency_micros = watch.elapsed_micros();
                return Ok(ReadOutcome {
                    bytes,
                    class: HitClass::Hit,
                    latency_micros,
                });
            }
            Outcome::Serve(bytes, forward) => {
                if forward {
                    self.space
                        .post_cache_event(user, doc, EventKind::CacheRead)?;
                    AtomicCacheStats::bump(&self.stats.events_forwarded);
                }
                if let Some(link) = &self.access_link {
                    link.transfer(&clock, bytes.len() as u64);
                }
                let latency_micros = watch.elapsed_micros();
                return Ok(ReadOutcome {
                    bytes,
                    class: HitClass::Hit,
                    latency_micros,
                });
            }
            Outcome::Miss => None,
            Outcome::MissWithStale {
                bytes,
                filled_at,
                forward,
            } => Some((bytes, filled_at, forward)),
        };

        // Overload gates on the miss path: feed the brownout ladder one
        // pressure sample, then apply its rungs before any fetch work.
        if let Some(controller) = &self.overload {
            let level = self.observe_overload_pressure(&clock);
            // Rung 4: reject background misses outright — only
            // foreground reads still compete for origin capacity (each
            // remains subject to deadline-aware admission below).
            if level.rejects_background() && opts.priority < Priority::Foreground {
                self.count_shed(opts.priority);
                return Err(PlacelessError::Overloaded {
                    retry_after: controller.config().retry_after_micros,
                });
            }
            // Rung 1: serve the resident stale candidate without
            // fetching at all, within the brownout staleness bound (or
            // the resilience bound when none is configured). A hit the
            // origin never sees is capacity reclaimed.
            if level.widens_stale() {
                if let Some((bytes, filled_at, forward)) = &stale {
                    let bound = controller
                        .config()
                        .brownout_stale
                        .or(self.resilience.serve_stale);
                    if bound.is_some_and(|bound| bound.permits(*filled_at, clock.now())) {
                        return self.serve_stale_candidate(
                            bytes.clone(),
                            *forward,
                            user,
                            doc,
                            &clock,
                            &watch,
                        );
                    }
                }
            }
        }

        // Miss path. Coalesce concurrent misses on this key into one
        // flight: the first thread fetches, the rest wait (holding no
        // cache lock) and share its outcome.
        let guard = match self.version_flights.join(key) {
            Join::Leader(guard) => Some(guard),
            Join::Waited(Some(FlightResult::Shared { bytes, forward, .. })) => {
                // Another thread's miss computed these bytes while we
                // waited; the read was served locally without touching
                // the origin, so it counts as a hit — plus the
                // coalescing counter that explains *why* it hit.
                AtomicCacheStats::bump(&self.stats.hits);
                AtomicCacheStats::bump(&self.stats.coalesced_waits);
                self.local_latency.charge(&clock, bytes.len() as u64);
                AtomicCacheStats::add(&self.stats.hit_micros, watch.elapsed_micros());
                if forward {
                    // `CacheableWithEvents` demands an event per read:
                    // every waiter posts its own.
                    self.space
                        .post_cache_event(user, doc, EventKind::CacheRead)?;
                    AtomicCacheStats::bump(&self.stats.events_forwarded);
                }
                if let Some(link) = &self.access_link {
                    link.transfer(&clock, bytes.len() as u64);
                }
                let latency_micros = watch.elapsed_micros();
                return Ok(ReadOutcome {
                    bytes,
                    class: HitClass::CoalescedWait,
                    latency_micros,
                });
            }
            Join::Waited(Some(FlightResult::Failed(error))) => {
                // The flight's one fetch failed; every waiter shares
                // the error (and its own stale fallback, if any).
                AtomicCacheStats::bump(&self.stats.coalesced_waits);
                return self.stale_or_degraded(error, stale, user, doc, &clock, &opts, &watch);
            }
            // The leader's result may not be shared (uncacheable
            // content must reach the origin per read) or the leader
            // unwound without publishing: fetch independently.
            Join::Waited(Some(FlightResult::Unshared)) | Join::Waited(None) => None,
        };

        // Execute the full read path with no shard lock held — the path
        // may dispatch events that invalidate entries in this cache
        // (lock-order rule: no cache lock across middleware calls).
        let fetched = self.fetch_with_resilience(user, doc, &clock, &opts);
        if let Some(guard) = guard {
            guard.complete(match &fetched {
                Ok((bytes, report, _, _)) => {
                    if report.cacheability == Cacheability::Uncacheable {
                        FlightResult::Unshared
                    } else {
                        FlightResult::Shared {
                            bytes: bytes.clone(),
                            forward: report.cacheability.requires_event_forwarding(),
                        }
                    }
                }
                Err(error) => FlightResult::Failed(error.clone()),
            });
        }
        let (bytes, report, stage_partial, content_sig) = match fetched {
            Ok(fetched) => fetched,
            Err(error) => {
                return self.stale_or_degraded(error, stale, user, doc, &clock, &opts, &watch)
            }
        };
        if report.cacheability == Cacheability::Uncacheable {
            AtomicCacheStats::bump(&self.stats.uncacheable_reads);
            let latency_micros = watch.elapsed_micros();
            return Ok(ReadOutcome {
                bytes,
                class: HitClass::Miss,
                latency_micros,
            });
        }
        AtomicCacheStats::bump(&self.stats.misses);
        {
            let mut shard = self.shards[index].lock();
            self.fill_locked(
                index,
                &mut shard,
                key,
                bytes.clone(),
                report,
                false,
                content_sig,
            );
        }
        AtomicCacheStats::add(&self.stats.miss_micros, watch.elapsed_micros());
        if self.prefetch.enabled {
            // Brownout rung 3: sibling prefetch is the most speculative
            // work in the cache, so it is the first whole feature shed.
            if self.brownout_level().sheds_prefetch() {
                self.count_shed(Priority::Prefetch);
            } else {
                self.prefetch_collection_siblings(user, doc);
            }
        }
        if let Some(link) = &self.access_link {
            link.transfer(&clock, bytes.len() as u64);
        }
        let latency_micros = watch.elapsed_micros();
        Ok(ReadOutcome {
            bytes,
            class: if stage_partial {
                HitClass::PartialHit
            } else {
                HitClass::Miss
            },
            latency_micros,
        })
    }

    /// Terminal miss-path failure handling: a transient error may still
    /// be served stale — resident bytes whose freshness is merely
    /// *unknown* stand in for the unreachable origin within the effective
    /// staleness bound (the configured [`ResilienceConfig::serve_stale`],
    /// or an unbounded per-read window when `opts.allow_stale` is set).
    /// Verifier-rejected entries were dropped before the fetch and can
    /// never be served here. Everything else propagates the error.
    #[allow(clippy::too_many_arguments)]
    fn stale_or_degraded(
        &self,
        error: PlacelessError,
        stale: Option<(Bytes, Instant, bool)>,
        user: UserId,
        doc: DocumentId,
        clock: &VirtualClock,
        opts: &ReadOptions,
        watch: &Stopwatch,
    ) -> Result<ReadOutcome> {
        if error.is_transient() {
            let bound = self
                .resilience
                .serve_stale
                .or_else(|| opts.allow_stale.then_some(StalenessBound::UNBOUNDED));
            if let (Some(bound), Some((bytes, filled_at, forward))) = (bound, stale) {
                if bound.permits(filled_at, clock.now()) {
                    return self.serve_stale_candidate(bytes, forward, user, doc, clock, watch);
                }
            }
            AtomicCacheStats::bump(&self.stats.degraded_errors);
        }
        Err(error)
    }

    /// Serves resident stale bytes in place of a fetch: counts the stale
    /// service, charges local latency and the access link, and forwards
    /// the read event when the entry's cacheability demands one per
    /// read. Callers have already checked the applicable staleness
    /// bound.
    fn serve_stale_candidate(
        &self,
        bytes: Bytes,
        forward: bool,
        user: UserId,
        doc: DocumentId,
        clock: &VirtualClock,
        watch: &Stopwatch,
    ) -> Result<ReadOutcome> {
        AtomicCacheStats::bump(&self.stats.stale_served);
        self.local_latency.charge(clock, bytes.len() as u64);
        if forward {
            self.space
                .post_cache_event(user, doc, EventKind::CacheRead)?;
            AtomicCacheStats::bump(&self.stats.events_forwarded);
        }
        if let Some(link) = &self.access_link {
            link.transfer(clock, bytes.len() as u64);
        }
        let latency_micros = watch.elapsed_micros();
        Ok(ReadOutcome {
            bytes,
            class: HitClass::StaleServed,
            latency_micros,
        })
    }

    /// Executes the middleware read through the retry driver
    /// ([`RetryDriver::run`]); `opts` may override the configured deadline
    /// per read.
    ///
    /// Returns the bytes, the path report, and whether the chain walk
    /// reused at least one cached stage. Runs with no cache lock held
    /// (the middleware path may re-enter this cache through the
    /// invalidation bus).
    fn fetch_with_resilience(
        &self,
        user: UserId,
        doc: DocumentId,
        clock: &VirtualClock,
        opts: &ReadOptions,
    ) -> Result<(Bytes, PathReport, bool, Option<Signature>)> {
        let use_stages = self.stage_cache && !opts.bypass_stage_cache;
        let deadline = opts
            .deadline_micros
            .or(self.resilience.fetch_deadline_micros);
        let ctx = FetchCtx {
            priority: opts.priority,
            // The budget instant exists only under overload control;
            // without it the deadline bounds retry scheduling alone.
            deadline_at: if self.overload.is_some() {
                deadline.map(|budget| clock.now().plus(budget))
            } else {
                None
            },
        };
        self.with_retries(user, doc, deadline, &self.stats.retries, || {
            self.fetch_once(user, doc, clock, use_stages, ctx)
        })
    }

    /// The retry driver over this cache's policy, breakers and stats.
    /// `retries` names the counter a waited-out backoff is charged to.
    fn retry_driver<'a>(
        &'a self,
        deadline: Option<u64>,
        retries: &'a AtomicU64,
    ) -> RetryDriver<'a> {
        RetryDriver {
            config: &self.resilience,
            breakers: &self.breakers,
            clock: self.space.clock(),
            deadline,
            trips: &self.stats.breaker_trips,
            retries,
        }
    }

    /// Runs a single-key origin operation — a miss fetch, a write-through
    /// write — through the retry driver.
    fn with_retries<T>(
        &self,
        user: UserId,
        doc: DocumentId,
        deadline: Option<u64>,
        retries: &AtomicU64,
        mut op: impl FnMut() -> Result<T>,
    ) -> Result<T> {
        self.retry_driver(deadline, retries)
            .run(
                || self.origin_key(doc),
                // Salting the jitter stream with the key keeps concurrent
                // operations from sharing one schedule while staying
                // deterministic per key.
                || BackoffSchedule::new(&self.resilience, doc.0 ^ user.0.rotate_left(32)),
                || op().map_err(|error| [error]),
            )
            .map_err(GaveUp::into_error)
    }

    /// The key `doc`'s origin goes by in the breakers, the in-flight
    /// windows and the flush groups.
    fn origin_key(&self, doc: DocumentId) -> String {
        self.space
            .origin_of(doc)
            .unwrap_or_else(|| format!("doc:{}", doc.0))
    }

    /// Executes one middleware read attempt: the plain opaque-stream read,
    /// or — with `use_stages` — the compiled-plan walk with
    /// intermediate-result lookups. Every attempt claims a per-origin
    /// window slot first (when configured) and is counted in the
    /// in-flight gauge behind `inflight_peak`; with overload control the
    /// claim is deadline-aware and may shed the attempt with
    /// [`PlacelessError::Overloaded`]. Runs with no cache lock held.
    fn fetch_once(
        &self,
        user: UserId,
        doc: DocumentId,
        clock: &VirtualClock,
        use_stages: bool,
        ctx: FetchCtx,
    ) -> Result<(Bytes, PathReport, bool, Option<Signature>)> {
        let slot = self.begin_origin_fetch(doc, clock, ctx)?;
        let result = if use_stages {
            self.read_through_stages(user, doc, clock, ctx)
        } else {
            self.space
                .read_document(user, doc)
                .map(|(bytes, report)| (bytes, report, false, None))
        };
        self.end_origin_fetch(slot, clock);
        result
    }

    /// Claims a per-origin window slot (when a window is configured) and
    /// bumps the in-flight gauge feeding `inflight_peak`. Without
    /// overload control the claim blocks until a slot frees, exactly as
    /// before. With overload control the claim is deadline-aware
    /// ([`InflightWindow::acquire_until`]): a request whose remaining
    /// budget cannot cover the expected queue wait plus service time —
    /// or whose deadline lapses while parked — is shed with
    /// [`PlacelessError::Overloaded`] and counted against its priority
    /// class. Called holding no cache lock; the window wait blocks
    /// holding no lock either.
    fn begin_origin_fetch(
        &self,
        doc: DocumentId,
        clock: &VirtualClock,
        ctx: FetchCtx,
    ) -> Result<Option<OriginSlot>> {
        let slot = match &self.window {
            None => None,
            Some(window) => {
                let origin = self.origin_key(doc);
                match &self.overload {
                    None => window.acquire(&origin),
                    Some(controller) => {
                        let expected = controller.expected_service_micros(&origin);
                        match window.acquire_until(&origin, clock, ctx.deadline_at, expected) {
                            Acquire::Admitted { queued_micros } => {
                                AtomicCacheStats::add(&self.stats.queue_wait_micros, queued_micros);
                            }
                            Acquire::Shed { queued_micros } => {
                                AtomicCacheStats::add(&self.stats.queue_wait_micros, queued_micros);
                                self.count_shed(ctx.priority);
                                return Err(PlacelessError::Overloaded {
                                    retry_after: controller.config().retry_after_micros,
                                });
                            }
                        }
                    }
                }
                Some(OriginSlot {
                    origin,
                    started: clock.now(),
                })
            }
        };
        let now = self.inflight.fetch_add(1, Ordering::Relaxed) + 1;
        AtomicCacheStats::maximize(&self.stats.inflight_peak, now);
        Ok(slot)
    }

    /// Releases what [`Self::begin_origin_fetch`] claimed and, with
    /// overload control, feeds the observed fetch latency to the AIMD
    /// controller — the returned width immediately resizes this origin's
    /// window. The observation is virtual-clock time, which under
    /// concurrency includes advances charged by other threads; AIMD only
    /// needs the signal to rise under load and fall when it drains, and
    /// it does.
    fn end_origin_fetch(&self, slot: Option<OriginSlot>, clock: &VirtualClock) {
        self.inflight.fetch_sub(1, Ordering::Relaxed);
        if let (Some(window), Some(slot)) = (&self.window, slot) {
            window.release(&slot.origin);
            if let Some(controller) = &self.overload {
                let observed = clock.now().since(slot.started);
                let width = controller.observe_fetch(&slot.origin, observed);
                window.set_limit(&slot.origin, width as usize);
            }
        }
    }

    /// Bumps the shed counter for `priority`.
    fn count_shed(&self, priority: Priority) {
        AtomicCacheStats::bump(match priority {
            Priority::Foreground => &self.stats.sheds_foreground,
            Priority::Refresh => &self.stats.sheds_refresh,
            Priority::Prefetch => &self.stats.sheds_prefetch,
        });
    }

    /// Current brownout rung ([`BrownoutLevel::Normal`] without overload
    /// control).
    fn brownout_level(&self) -> BrownoutLevel {
        self.overload
            .as_ref()
            .map(|controller| controller.level())
            .unwrap_or(BrownoutLevel::Normal)
    }

    /// Feeds the brownout ladder one pressure sample (readers parked on
    /// origin windows plus readers blocked on miss flights) and records
    /// any transition in the stats. Returns the post-sample level.
    fn observe_overload_pressure(&self, clock: &VirtualClock) -> BrownoutLevel {
        let Some(controller) = &self.overload else {
            return BrownoutLevel::Normal;
        };
        let waiters = self
            .window
            .as_ref()
            .map(|window| window.queued_total())
            .unwrap_or(0)
            + self.version_flights.waiting();
        if let Some((_, to)) = controller.observe_pressure(clock.now(), waiters) {
            AtomicCacheStats::bump(&self.stats.brownout_shifts);
            AtomicCacheStats::set(&self.stats.brownout_level, u64::from(to.rung()));
        }
        controller.level()
    }

    /// Budget check before each expensive stage step (fires only when
    /// overload control supplied a deadline instant): a walk whose
    /// budget already lapsed is shed instead of computing doomed stages.
    fn check_stage_budget(&self, ctx: FetchCtx, clock: &VirtualClock) -> Result<()> {
        let Some(controller) = &self.overload else {
            return Ok(());
        };
        if ctx
            .deadline_at
            .is_some_and(|deadline| clock.now() >= deadline)
        {
            self.count_shed(ctx.priority);
            return Err(PlacelessError::Overloaded {
                retry_after: controller.config().retry_after_micros,
            });
        }
        Ok(())
    }

    /// Walks the compiled [`TransformPlan`] through a
    /// [`StagePipeline`], streaming each executed stage in one chunked
    /// pass (output digest folded as the chunks flow) and skipping stages
    /// whose output is already resident under its stage signature.
    ///
    /// Two leases make the repeat walk cheap. The **chain lease** is the
    /// space's compiled view of the base half of the property chain,
    /// validated against the base document's chain epoch inside
    /// [`DocumentSpace::read_plan_cached`] — reusing it saves one
    /// middleware hop. The **root lease** is the provider content
    /// signature captured at the last fetch, guarded by the provider's
    /// own verifier: the verifier runs on *every* use (this is the
    /// lease's soundness condition, not `run_verifiers` freshness
    /// policy), and only `Valid` lets the walk anchor its signature chain
    /// on the leased digest without refetching the provider bytes at all.
    /// A walk that never executes a stage — every signed stage hits —
    /// then never materializes the root. Stale intermediates are never
    /// served either way: a stage hit is *proof* that the resident
    /// intermediate was derived from exactly the attested source bytes by
    /// exactly this transform prefix. Skipped stages do not charge the
    /// virtual clock (that is the saving) but still accrue their
    /// replacement cost and still register their path metadata (votes,
    /// verifiers, pins) via a lazy dummy wrap.
    ///
    /// A stage that is neither resident nor being computed opens a
    /// **stage flight** keyed by its signature; threads
    /// that miss the same `(doc, stage)` signature while it is open wait
    /// for the leader and account the shared output as a stage hit plus a
    /// coalesced wait. Identical signatures imply identical input bytes
    /// and transform prefix, so the leader's output is byte-for-byte what
    /// every waiter's walk would have computed.
    ///
    /// Returns the bytes, the report, whether any stage hit (resident or
    /// coalesced), and the final content digest when the walk knows it
    /// (spares the install path a full re-hash).
    fn read_through_stages(
        &self,
        user: UserId,
        doc: DocumentId,
        clock: &VirtualClock,
        ctx: FetchCtx,
    ) -> Result<(Bytes, PathReport, bool, Option<Signature>)> {
        // Lease probe. The root half is consumed only if its verifier —
        // charged to this walk — still vouches for the leased signature.
        let (chain_lease, root_sig) = {
            let mut leases = self.leases.lock();
            match leases.get_mut(&doc) {
                Some(lease) => {
                    let chain = Arc::clone(&lease.chain);
                    let root = lease.root.as_ref().and_then(|root| {
                        let cost = root.verifier.cost_micros();
                        clock.advance(cost);
                        AtomicCacheStats::add(&self.stats.verify_micros, cost);
                        (root.verifier.check(clock) == Validity::Valid).then_some(root.sig)
                    });
                    if root.is_none() {
                        lease.root = None;
                    }
                    (Some(chain), root)
                }
                None => (None, None),
            }
        };
        let (plan, chain_lease, _chain_reused) =
            self.space
                .read_plan_cached(user, doc, chain_lease.as_ref())?;
        let mut report = plan.seed_report(clock);
        // The walk anchors either on the verified root signature (no
        // fetch, no bytes until a stage actually needs them) or on freshly
        // fetched provider bytes, their digest folded in the same pass.
        let mut fetched_root: Option<Signature> = None;
        let mut root_verifier: Option<Box<dyn Verifier>> = None;
        let mut pipeline = match root_sig {
            Some(sig) => {
                AtomicCacheStats::bump(&self.stats.root_reuses);
                StagePipeline::from_signature(&plan, sig)
            }
            None => {
                // Capture the verifier before the bytes it vouches for: a
                // write landing in between reads as Invalid next time (a
                // wasted refetch), never as Valid over stale bytes.
                root_verifier = plan.provider.make_verifier(clock);
                let mut stream = plan.provider.open_input(clock)?;
                let (bytes, sig) = read_all_digest(stream.as_mut())?;
                drop(stream);
                fetched_root = Some(sig);
                StagePipeline::from_root(&plan, bytes, sig)
            }
        };
        let mut any_hit = false;
        for index in 0..plan.len() {
            // Every expensive step checks remaining budget first: a walk
            // whose deadline lapsed mid-chain is shed before executing
            // (or even looking up) the next stage.
            self.check_stage_budget(ctx, clock)?;
            match pipeline.stage_signature(index) {
                Some(stage_sig) => {
                    if let Some((cached, content_sig)) = self.stage_lookup(stage_sig) {
                        pipeline.adopt_hit(
                            clock,
                            index,
                            &mut report,
                            stage_sig,
                            cached,
                            Some(content_sig),
                        )?;
                        AtomicCacheStats::bump(&self.stats.stage_hits);
                        any_hit = true;
                    } else {
                        match self.stage_flights.join(EntryKey::Stage(stage_sig)) {
                            Join::Leader(guard) => {
                                // Re-check residency under leadership: a
                                // previous flight may have filled this
                                // signature between our lookup and now.
                                if let Some((cached, content_sig)) = self.stage_lookup(stage_sig) {
                                    pipeline.adopt_hit(
                                        clock,
                                        index,
                                        &mut report,
                                        stage_sig,
                                        cached.clone(),
                                        Some(content_sig),
                                    )?;
                                    AtomicCacheStats::bump(&self.stats.stage_hits);
                                    any_hit = true;
                                    guard.complete(FlightResult::Shared {
                                        bytes: cached,
                                        forward: false,
                                    });
                                } else {
                                    match self.run_and_fill_stage(
                                        &plan,
                                        &mut pipeline,
                                        clock,
                                        index,
                                        &mut report,
                                        &mut fetched_root,
                                        &mut root_verifier,
                                    ) {
                                        Ok((output, executed_sig)) => {
                                            guard.complete(
                                                if report.cacheability == Cacheability::Uncacheable
                                                    || executed_sig != stage_sig
                                                {
                                                    // Uncacheable content
                                                    // must execute per read;
                                                    // a rebased walk (stale
                                                    // root lease) computed
                                                    // something else than
                                                    // this flight promised.
                                                    // Waiters run their own.
                                                    FlightResult::Unshared
                                                } else {
                                                    FlightResult::Shared {
                                                        bytes: output,
                                                        forward: false,
                                                    }
                                                },
                                            );
                                        }
                                        Err(error) => {
                                            guard.complete(FlightResult::Failed(error.clone()));
                                            return Err(error);
                                        }
                                    }
                                }
                            }
                            Join::Waited(Some(FlightResult::Shared { bytes: shared, .. })) => {
                                pipeline.adopt_hit(
                                    clock,
                                    index,
                                    &mut report,
                                    stage_sig,
                                    shared,
                                    None,
                                )?;
                                AtomicCacheStats::bump(&self.stats.stage_hits);
                                AtomicCacheStats::bump(&self.stats.coalesced_waits);
                                any_hit = true;
                            }
                            Join::Waited(Some(FlightResult::Failed(error))) => {
                                // Same signature, same computation: the
                                // leader's failure is this walk's failure
                                // (the resilience loop above may retry it).
                                AtomicCacheStats::bump(&self.stats.coalesced_waits);
                                return Err(error);
                            }
                            Join::Waited(Some(FlightResult::Unshared)) | Join::Waited(None) => {
                                self.run_and_fill_stage(
                                    &plan,
                                    &mut pipeline,
                                    clock,
                                    index,
                                    &mut report,
                                    &mut fetched_root,
                                    &mut root_verifier,
                                )?;
                            }
                        }
                    }
                }
                None => {
                    // Opaque stage: executes on every read; the pipeline
                    // restarts the signature chain from its actual output
                    // digest, so downstream stages stay cacheable.
                    self.materialize_root(
                        &plan,
                        &mut pipeline,
                        clock,
                        &mut fetched_root,
                        &mut root_verifier,
                    )?;
                    pipeline.execute(clock, index, &mut report)?;
                }
            }
        }
        if any_hit {
            AtomicCacheStats::bump(&self.stats.stage_partial_hits);
        }
        // A walk whose every stage hit never needed the root — until now:
        // the caller wants the final content.
        self.materialize_root(
            &plan,
            &mut pipeline,
            clock,
            &mut fetched_root,
            &mut root_verifier,
        )?;
        let (bytes, content_sig) = pipeline.finish();
        let bytes = bytes.expect("pipeline bytes materialized after the walk");
        // Refresh the lease for the next walk: the chain half always (it
        // is epoch-validated on use), the root half only when this walk
        // fetched the provider bytes and could capture a verifier over
        // them (a fetch with no verifier clears any stale root lease).
        {
            let mut leases = self.leases.lock();
            let lease = leases.entry(doc).or_insert_with(|| PlanLease {
                chain: Arc::clone(&chain_lease),
                root: None,
            });
            lease.chain = chain_lease;
            if let Some(sig) = fetched_root {
                lease.root = root_verifier
                    .take()
                    .map(|verifier| RootLease { sig, verifier });
            }
        }
        Ok((bytes, report, any_hit, content_sig))
    }

    /// Ensures the pipeline holds real bytes, fetching the provider root
    /// when a lease-anchored walk reaches a point that needs content. The
    /// pipeline can only be byteless at the chain head (every processed
    /// stage leaves bytes behind), so when the fetched digest contradicts
    /// the leased signature — the lease lost its race with a writer
    /// between the verifier probe and this fetch — rebasing the pipeline
    /// on the real root is a clean restart of the walk, not a mid-chain
    /// splice.
    fn materialize_root<'p>(
        &self,
        plan: &'p TransformPlan,
        pipeline: &mut StagePipeline<'p>,
        clock: &VirtualClock,
        fetched_root: &mut Option<Signature>,
        root_verifier: &mut Option<Box<dyn Verifier>>,
    ) -> Result<()> {
        if pipeline.has_bytes() {
            return Ok(());
        }
        *root_verifier = plan.provider.make_verifier(clock);
        let mut stream = plan.provider.open_input(clock)?;
        let (bytes, sig) = read_all_digest(stream.as_mut())?;
        drop(stream);
        *fetched_root = Some(sig);
        if sig == pipeline.chain_signature() {
            pipeline.supply_root(bytes);
        } else {
            *pipeline = StagePipeline::from_root(plan, bytes, sig);
        }
        Ok(())
    }

    /// Executes one signed stage through the pipeline and retains its
    /// output — the plain, uncoalesced stage miss path. Returns the bytes
    /// and the signature the stage actually executed under; the latter
    /// differs from the caller's expectation only when materializing the
    /// root rebased the walk onto a newer provider rendition.
    #[allow(clippy::too_many_arguments)]
    fn run_and_fill_stage<'p>(
        &self,
        plan: &'p TransformPlan,
        pipeline: &mut StagePipeline<'p>,
        clock: &VirtualClock,
        index: usize,
        report: &mut PathReport,
        fetched_root: &mut Option<Signature>,
        root_verifier: &mut Option<Box<dyn Verifier>>,
    ) -> Result<(Bytes, Signature)> {
        self.materialize_root(plan, pipeline, clock, fetched_root, root_verifier)?;
        let stage_sig = pipeline
            .stage_signature(index)
            .expect("run_and_fill_stage is only called for signed stages");
        let output = pipeline.execute(clock, index, report)?;
        if report.cacheability != Cacheability::Uncacheable {
            // Replacement cost = everything it would take to rebuild this
            // intermediate: provider fetch plus the chain prefix up to and
            // including this stage.
            self.fill_stage(
                stage_sig,
                output.bytes.clone(),
                Some(output.content_sig),
                report.cost.effective_micros(),
            );
        }
        Ok((output.bytes, stage_sig))
    }

    /// Looks up an intermediate stage entry, registering the hit with the
    /// entry's shard policy. Briefly takes one shard lock. Returns the
    /// bytes together with their stored content digest, so the pipeline
    /// can carry the digest forward without re-hashing.
    fn stage_lookup(&self, sig: Signature) -> Option<(Bytes, Signature)> {
        let key = EntryKey::Stage(sig);
        let mut shard = self.shard(key).lock();
        let content_sig = *shard.sigs.get(&key)?;
        let bytes = self.store.get(content_sig)?;
        if let Some(meta) = shard.meta.get_mut(&key) {
            meta.hits += 1;
        }
        shard.policy.on_hit(key);
        Some((bytes, content_sig))
    }

    /// Inserts an intermediate stage output under its stage signature,
    /// competing for residency like any other entry but tagged
    /// [`STAGE_PIN_LEVEL`] so cost-aware policies discount it.
    /// `content_sig` is the output's already-computed digest (the
    /// streaming executor folds it as the chunks flow), sparing the
    /// install a second full pass over the bytes.
    fn fill_stage(&self, sig: Signature, bytes: Bytes, content_sig: Option<Signature>, cost: f64) {
        // Brownout rung 2: under sustained pressure the output is still
        // computed and served, but not persisted — stage-cache churn is
        // pure overhead when the cache is fighting for its life.
        if self.brownout_level().skips_stage_fills() {
            return;
        }
        let key = EntryKey::Stage(sig);
        let index = self.shard_index(key);
        let mut shard = self.shards[index].lock();
        // Content-addressed: an existing binding is already this content.
        if shard.sigs.contains_key(&key) {
            return;
        }
        let meta = EntryMeta::new(
            Vec::new(),
            Cacheability::Unrestricted,
            cost,
            bytes.len() as u64,
            self.space.clock().now(),
        );
        self.install_locked(
            index,
            &mut shard,
            key,
            bytes,
            meta,
            STAGE_PIN_LEVEL,
            content_sig,
        );
    }

    /// Records an invalidation-bus sequence number and reacts to gaps.
    ///
    /// Sequence numbers are dense over every bus post; a jump of more
    /// than one means notifications were lost, and *any* resident entry
    /// might have been covered by one of them. The notifier consistency
    /// guarantee is void, so every entry is demoted to verifier
    /// revalidation: entries with verifiers are flagged `force_verify`
    /// (checked on their next hit even in notifier-only configurations),
    /// and entries with no verifier — nothing could ever catch their
    /// staleness — are dropped outright.
    ///
    /// The first delivery after subscribing (`prev == 0`) establishes the
    /// baseline and is never treated as a gap.
    fn note_sequence(&self, seq: u64) {
        let prev = self.last_seq.swap(seq, Ordering::AcqRel);
        if prev == 0 || seq <= prev + 1 {
            return;
        }
        AtomicCacheStats::bump(&self.stats.notifier_gaps);
        for mutex in self.shards.iter() {
            let mut shard = mutex.lock();
            let keys: Vec<EntryKey> = shard.meta.keys().copied().collect();
            for key in keys {
                // Stage entries are exempt: they are content-addressed, so a
                // lost invalidation can never make one serve stale data —
                // the lookup key itself stops resolving.
                if key.is_stage() {
                    continue;
                }
                let has_verifiers = shard
                    .meta
                    .get(&key)
                    .is_some_and(|meta| !meta.verifiers.is_empty());
                if has_verifiers {
                    if let Some(meta) = shard.meta.get_mut(&key) {
                        meta.force_verify = true;
                    }
                } else {
                    self.drop_entry(&mut shard, key);
                }
            }
        }
    }

    /// Inserts a filled entry, updating sharing stats, pinning, the
    /// policy, and enforcing the global byte budget. Caller holds the
    /// shard lock for `index`.
    ///
    /// Room is *reserved* before the content is published
    /// ([`ConcurrentStore::try_acquire`]), evicting until the reservation
    /// succeeds — the budget is never overshot. Victim order matches the
    /// classic insert-then-evict loop: the incoming entry enters its
    /// shard's policy first, so it competes for residency like any other
    /// entry; if the policy nominates *it*, the fill tries to steal room
    /// from a sibling shard and otherwise gives the entry up (with
    /// `shards: 1` that reproduces the original "evict the entry just
    /// inserted" behaviour, statistics included).
    #[allow(clippy::too_many_arguments)]
    fn fill_locked(
        &self,
        index: usize,
        shard: &mut Shard,
        key: EntryKey,
        bytes: Bytes,
        report: PathReport,
        prefetched: bool,
        content_sig: Option<Signature>,
    ) {
        let clock = self.space.clock();
        let mut meta = EntryMeta::new(
            report.verifiers,
            report.cacheability,
            report.cost.effective_micros(),
            bytes.len() as u64,
            clock.now(),
        );
        meta.pinned = report.pinned;
        meta.prefetched = prefetched;
        self.install_locked(index, shard, key, bytes, meta, 0, content_sig);
    }

    /// The shared insert-with-reservation loop behind [`Self::fill_locked`]
    /// (final versions) and [`Self::fill_stage`] (intermediates). Caller
    /// holds the shard lock for `index`. `known_sig` is the content digest
    /// when the read path already computed it in-stream; the store is
    /// content-addressed, so a wrong digest would corrupt sharing —
    /// debug builds re-hash and compare.
    #[allow(clippy::too_many_arguments)]
    fn install_locked(
        &self,
        index: usize,
        shard: &mut Shard,
        key: EntryKey,
        bytes: Bytes,
        meta: EntryMeta,
        pin_level: u8,
        known_sig: Option<Signature>,
    ) {
        let size = meta.size;
        let cost = meta.cost_micros;
        let pinned = meta.pinned;
        // A re-fill over an existing binding releases the old content.
        if let Some(old) = shard.sigs.remove(&key) {
            self.store.release(old);
            if key.is_stage() {
                if let Some(old_meta) = shard.meta.get(&key) {
                    AtomicCacheStats::sub(&self.stats.stage_bytes, old_meta.size);
                }
            }
        }
        shard.meta.insert(key, meta);
        let attrs = EntryAttrs::new(size, cost).with_pin_level(pin_level);
        if pinned {
            // Pinned entries never enter the policy, so they can never be
            // chosen as eviction victims.
            AtomicCacheStats::bump(&self.stats.pinned_fills);
        } else {
            shard.policy.on_insert(key, &attrs);
        }
        let sig = match known_sig {
            Some(sig) => {
                debug_assert_eq!(
                    sig,
                    ConcurrentStore::signature_of(&bytes),
                    "known content signature must match the bytes being installed"
                );
                sig
            }
            None => ConcurrentStore::signature_of(&bytes),
        };
        loop {
            match self.store.try_acquire(sig, &bytes, self.capacity_bytes) {
                Ok(shared) => {
                    if shared {
                        AtomicCacheStats::bump(&self.stats.shared_fills);
                    }
                    shard.sigs.insert(key, sig);
                    if key.is_stage() {
                        AtomicCacheStats::add(&self.stats.stage_bytes, size);
                    }
                    return;
                }
                Err(NoRoom) => {
                    if let Some(victim) = shard.policy.evict() {
                        if victim == key {
                            // The incoming entry is its own shard's
                            // minimum; prefer room from a sibling shard.
                            if self.steal_one(index) {
                                shard.policy.on_insert(key, &attrs);
                                continue;
                            }
                            shard.meta.remove(&key);
                            AtomicCacheStats::bump(&self.stats.evictions);
                            return;
                        }
                        self.drop_victim(shard, victim);
                        AtomicCacheStats::bump(&self.stats.evictions);
                    } else if !self.steal_one(index) {
                        // Nothing evictable anywhere (everything pinned):
                        // serve without caching rather than overshoot.
                        shard.meta.remove(&key);
                        return;
                    }
                }
            }
        }
    }

    /// Evicts until the store fits the budget again, sparing `spare`
    /// (re-entered into the policy if nominated). Used after in-place
    /// verifier replacements, the one path that can overshoot. Caller
    /// holds the shard lock for `index`.
    fn reclaim_over_budget(&self, index: usize, shard: &mut Shard, spare: Option<EntryKey>) {
        while self.store.physical_bytes() > self.capacity_bytes {
            if let Some(victim) = shard.policy.evict() {
                if spare == Some(victim) {
                    if let Some(meta) = shard.meta.get(&victim) {
                        shard
                            .policy
                            .on_insert(victim, &EntryAttrs::new(meta.size, meta.cost_micros));
                    }
                    if !self.steal_one(index) {
                        return;
                    }
                    continue;
                }
                self.drop_victim(shard, victim);
                AtomicCacheStats::bump(&self.stats.evictions);
            } else if !self.steal_one(index) {
                return;
            }
        }
    }

    /// Pulls collection siblings of `doc` into the cache after a miss.
    ///
    /// Sibling fetches carry [`Priority::Prefetch`], so with overload
    /// control they are the first work deadline-aware admission sheds —
    /// and one `Overloaded` verdict abandons the rest of the batch
    /// rather than hammering a window that just refused speculative
    /// work.
    fn prefetch_collection_siblings(&self, user: UserId, doc: DocumentId) {
        let ctx = FetchCtx {
            priority: Priority::Prefetch,
            // Speculative work gets the configured fetch budget as its
            // deadline: a prefetch the origin cannot serve inside the
            // budget a demand read would get is not worth queueing for.
            deadline_at: if self.overload.is_some() {
                self.resilience
                    .fetch_deadline_micros
                    .map(|budget| self.space.clock().now().plus(budget))
            } else {
                None
            },
        };
        let mut budget = self.prefetch.max_per_miss;
        for collection in self.space.collections_of(doc) {
            for sibling in self.space.collection_members(&collection) {
                if budget == 0 {
                    return;
                }
                if sibling == doc
                    || self.contains(user, sibling)
                    || !self.space.has_reference(user, sibling)
                {
                    continue;
                }
                // Fetch through the full property path, as a miss would.
                let clock = self.space.clock().clone();
                let fetched = self.fetch_once(user, sibling, &clock, self.stage_cache, ctx);
                if matches!(&fetched, Err(PlacelessError::Overloaded { .. })) {
                    return;
                }
                let Ok((bytes, report, _, content_sig)) = fetched else {
                    continue;
                };
                if report.cacheability == Cacheability::Uncacheable {
                    continue;
                }
                let key = EntryKey::Version(sibling, user);
                let index = self.shard_index(key);
                let mut shard = self.shards[index].lock();
                self.fill_locked(index, &mut shard, key, bytes, report, true, content_sig);
                AtomicCacheStats::bump(&self.stats.prefetches);
                budget -= 1;
            }
        }
    }

    /// Writes a document for `user` according to the configured
    /// [`WriteMode`].
    pub fn write(&self, user: UserId, doc: DocumentId, data: &[u8]) -> Result<()> {
        match self.write_mode {
            WriteMode::Through => {
                // Successes and failures land on the *same* per-origin
                // breakers the read path uses, so a storm of failed
                // writes opens the breaker for reads too (and vice versa).
                let deadline = self.resilience.fetch_deadline_micros;
                self.with_retries(user, doc, deadline, &self.stats.flush_retries, || {
                    self.space.write_document(user, doc, data)
                })?;
                AtomicCacheStats::bump(&self.stats.writes);
                // The source changed: every locally cached version of this
                // document is stale, whatever notifiers may also say.
                self.invalidate_doc(doc);
                Ok(())
            }
            WriteMode::Back => {
                {
                    let key = EntryKey::Version(doc, user);
                    let mut shard = self.shard(key).lock();
                    // The epoch is the signature of the rendition this
                    // writer last saw resident — recovery and the
                    // flush-time merge probe compare it against the
                    // origin to detect conflicts.
                    let epoch = shard.sigs.get(&key).copied().unwrap_or(NO_EPOCH);
                    let seq = self.journal.as_ref().map(|journal| {
                        // Write-ahead: the record reaches stable storage
                        // before the dirty map changes, so a crash between
                        // the two loses nothing.
                        let seq = journal.append(doc, user, epoch, data);
                        AtomicCacheStats::bump(&self.stats.journal_appends);
                        seq
                    });
                    // A full-body write supersedes any accumulated op
                    // delta: the entry reverts to an opaque snapshot.
                    let inserted = shard
                        .dirty
                        .insert(
                            key,
                            DirtyEntry {
                                data: Bytes::copy_from_slice(data),
                                seq,
                                ops: Vec::new(),
                                epoch,
                                writer_seq: 0,
                            },
                        )
                        .is_none();
                    drop(shard);
                    if inserted {
                        self.dirty_gauge.fetch_add(1, Ordering::Relaxed);
                    }
                }
                AtomicCacheStats::bump(&self.stats.writes);
                // §3: write-path properties register their own cacheability
                // requirements; forward the operation event when any of
                // them must see every write.
                let forward = self
                    .space
                    .write_cacheability(user, doc)?
                    .requires_event_forwarding();
                if forward {
                    self.space
                        .post_cache_event(user, doc, EventKind::CacheWrite)?;
                    AtomicCacheStats::bump(&self.stats.events_forwarded);
                }
                Ok(())
            }
        }
    }

    /// Applies one typed operation ([`DocOp`]) to a document — the
    /// op-based write API that makes buffered writes *mergeable*.
    ///
    /// In write-through mode the op is applied to the origin's current
    /// content and written immediately ([`DocOp::SetProperty`] attaches
    /// the property directly). In write-back mode the op is folded into
    /// the entry's accumulated delta: the dirty entry keeps both the
    /// materialized view (what a read of the buffered write returns, and
    /// what a binary keep-mine resolution would flush) *and* the op list
    /// since the base epoch, journaled together via
    /// [`WriteJournal::append_op`], so crash recovery and flush can
    /// rebase the delta onto a origin that moved on concurrently — see
    /// [`CacheConfig::merge`].
    pub fn write_op(&self, user: UserId, doc: DocumentId, op: DocOp) -> Result<()> {
        if self.write_mode == WriteMode::Through {
            if let DocOp::SetProperty { name, value } = &op {
                self.space
                    .attach_static(Scope::Personal(user), doc, name, value.clone())?;
                AtomicCacheStats::bump(&self.stats.writes);
                return Ok(());
            }
            let (base, _) = self.space.read_document(user, doc)?;
            return self.write(user, doc, &op.apply(&base));
        }
        let key = EntryKey::Version(doc, user);
        // Resolve the base view without holding the shard lock across a
        // middleware read: if neither a buffered write nor a resident
        // rendition provides the base, read the origin first and re-take
        // the lock (a buffered write that lands in between wins).
        let mut origin_base: Option<(Bytes, Signature)> = None;
        loop {
            let mut shard = self.shard(key).lock();
            let (base, epoch, prior_ops, prior_writer_seq) =
                if let Some(entry) = shard.dirty.get(&key) {
                    // A pending plain write is an opaque snapshot: represent
                    // it as a full-body op so the combined delta stays honest
                    // (it pins the body and is therefore unmergeable, exactly
                    // like the plain write itself).
                    let prior = if entry.ops.is_empty() {
                        vec![DocOp::Replace(entry.data.clone())]
                    } else {
                        entry.ops.clone()
                    };
                    (entry.data.clone(), entry.epoch, prior, entry.writer_seq)
                } else if let Some((sig, bytes)) = shard
                    .sigs
                    .get(&key)
                    .and_then(|sig| self.store.get(*sig).map(|bytes| (*sig, bytes)))
                {
                    (bytes, sig, Vec::new(), 0)
                } else if let Some((bytes, sig)) = origin_base.take() {
                    (bytes, sig, Vec::new(), 0)
                } else {
                    drop(shard);
                    origin_base = Some(match self.space.read_document(user, doc) {
                        Ok((bytes, _)) => {
                            let sig = ConcurrentStore::signature_of(&bytes);
                            (bytes, sig)
                        }
                        Err(
                            error @ (PlacelessError::NoSuchDocument(_)
                            | PlacelessError::NoSuchReference(..)),
                        ) => return Err(error),
                        // Origin unreachable: the op must still not be lost.
                        // Start the delta from an empty base with no epoch;
                        // the flush applies the ops server-side onto whatever
                        // the origin holds by then.
                        Err(_) => (Bytes::new(), NO_EPOCH),
                    });
                    continue;
                };
            let view = op.apply(&base);
            let mut ops = prior_ops;
            ops.push(op.clone());
            let writer_seq = {
                let mut seqs = self.writer_seqs.lock();
                let counter = seqs.entry((doc, user)).or_insert(0);
                // Monotone past both this cache's counter and whatever a
                // recovered entry carried.
                *counter = (*counter).max(prior_writer_seq) + 1;
                *counter
            };
            let seq = self.journal.as_ref().map(|journal| {
                let seq = journal.append_op(doc, user, epoch, &view, ops.clone(), writer_seq);
                AtomicCacheStats::bump(&self.stats.journal_appends);
                seq
            });
            let inserted = shard
                .dirty
                .insert(
                    key,
                    DirtyEntry {
                        data: view,
                        seq,
                        ops,
                        epoch,
                        writer_seq,
                    },
                )
                .is_none();
            drop(shard);
            if inserted {
                self.dirty_gauge.fetch_add(1, Ordering::Relaxed);
            }
            break;
        }
        AtomicCacheStats::bump(&self.stats.writes);
        // Same write-path event forwarding as a plain write-back write.
        let forward = self
            .space
            .write_cacheability(user, doc)?
            .requires_event_forwarding();
        if forward {
            self.space
                .post_cache_event(user, doc, EventKind::CacheWrite)?;
            AtomicCacheStats::bump(&self.stats.events_forwarded);
        }
        Ok(())
    }

    /// Pushes all buffered write-back data to the middleware.
    ///
    /// Dirty data is drained holding one shard lock at a time, sorted
    /// into a deterministic order, and written with no cache lock held.
    /// The drained entries are grouped by origin and each group is
    /// written as one grouped origin operation — one breaker admission
    /// decision, one backoff schedule, and one pair of middleware hops
    /// per group attempt instead of per entry — while every per-entry
    /// outcome below still holds, because the batch write returns one
    /// result per entry. A failed write does not abandon the remaining
    /// entries: the failed entry and every entry not yet attempted are
    /// re-queued into their shards' dirty maps (a concurrent newer write
    /// for the same key wins over the re-queue), and the returned
    /// [`FlushReport`] names exactly what remains dirty.
    ///
    /// With a journal configured, a flushed record is acknowledged (and
    /// the journal pruned) only after its origin write succeeded, and an
    /// entry whose write exhausted its retries on a transient failure is
    /// *parked*: it stays dirty and journaled, without failing the flush,
    /// until a later flush finds the origin's breaker admitting probes
    /// again. Non-transient failures are re-queued and reported either
    /// way.
    pub fn flush(&self) -> Result<FlushReport> {
        let mut dirty: Vec<(EntryKey, DirtyEntry)> = Vec::new();
        for mutex in self.shards.iter() {
            dirty.extend(mutex.lock().dirty.drain());
        }
        self.dirty_gauge
            .fetch_sub(dirty.len() as u64, Ordering::Relaxed);
        // HashMap drain order depends on the process hasher seed; sorting
        // by the full key (derived `Ord`: every version key before every
        // stage key, no ties between distinct keys) keeps flush outcomes
        // (which entry hit the outage window first) reproducible for
        // same-seed replays.
        dirty.sort_by_key(|(key, _)| *key);
        let mut report = FlushReport::default();
        // Group by origin, preserving the sorted entry order inside each
        // group; BTreeMap keeps the group order itself deterministic too.
        let mut groups: BTreeMap<String, Vec<(DocumentId, UserId, DirtyEntry)>> = BTreeMap::new();
        for (key, entry) in dirty {
            match key {
                EntryKey::Version(doc, user) => groups
                    .entry(self.origin_key(doc))
                    .or_default()
                    .push((doc, user, entry)),
                EntryKey::Stage(_) => {
                    // Dirty data is only ever buffered under version keys;
                    // a stage key here is an invariant violation. Don't
                    // drop the bytes on the floor: put the entry back and
                    // surface the skip in the report.
                    debug_assert!(false, "non-version key {key:?} in a dirty map");
                    self.requeue_dirty(key, entry);
                    report.skipped_non_version += 1;
                }
            }
        }
        for (origin, group) in groups {
            self.flush_group(&origin, group, &mut report);
        }
        debug_assert_eq!(
            report.attempted,
            report.flushed
                + (report.parked.len() + report.requeued.len() + report.dropped.len()) as u64,
            "flush accounting must be non-lossy"
        );
        Ok(report)
    }

    /// Flushes one per-origin group of drained dirty entries as grouped
    /// origin operations through the retry driver.
    ///
    /// One breaker admission decision, one origin-salted backoff
    /// schedule, and one in-flight-window slot cover each *attempt* on
    /// the whole group; the group write itself goes through
    /// [`DocumentSpace::write_documents`], which returns one result per
    /// entry. Outcomes stay per entry: successes are acknowledged in the
    /// journal as a batch (one compaction), transient failures stay
    /// pending for the group's next retry, and non-transient failures
    /// are re-queued immediately. Entries still pending when the driver
    /// gives up are parked or re-queued — each with its own error when
    /// the retries ran out, all with the driver's verdict when the
    /// breaker or the deadline stopped the group.
    fn flush_group(
        &self,
        origin: &str,
        group: Vec<(DocumentId, UserId, DirtyEntry)>,
        report: &mut FlushReport,
    ) {
        report.attempted += group.len() as u64;
        report.batches += 1;
        let mut pending = self.route_conflicts_through_merge(group, report);
        if pending.is_empty() {
            return;
        }
        let deadline = self.resilience.fetch_deadline_micros;
        let outcome = self.retry_driver(deadline, &self.stats.flush_retries).run(
            || origin.to_owned(),
            || BackoffSchedule::for_origin(&self.resilience, origin),
            || {
                // One grouped origin operation per attempt, behind one
                // per-origin window slot (when configured).
                AtomicCacheStats::bump(&self.stats.flush_batches);
                let writes: Vec<BatchWrite> = pending
                    .iter()
                    .map(|(doc, user, entry)| BatchWrite {
                        user: *user,
                        doc: *doc,
                        data: entry.data.clone(),
                        // With a merge policy, rebasable deltas travel
                        // as ops and are applied server-side onto the
                        // origin's current content — concurrent
                        // writers through other caches are merged, not
                        // clobbered.
                        ops: if self.merge.is_some() && rebasable(&entry.ops) {
                            entry.ops.clone()
                        } else {
                            Vec::new()
                        },
                    })
                    .collect();
                if let Some(window) = &self.window {
                    window.acquire(origin);
                }
                let results = self.space.write_documents(&writes);
                if let Some(window) = &self.window {
                    window.release(origin);
                }
                debug_assert_eq!(results.len(), pending.len());
                let mut acks: Vec<u64> = Vec::new();
                // The entries a retry would write again, and (index
                // for index) the transient error each just met.
                let mut survivors = Vec::new();
                let mut errors = Vec::new();
                for ((doc, user, entry), result) in pending.drain(..).zip(results) {
                    match result {
                        Ok(()) => {
                            AtomicCacheStats::bump(&self.stats.flushes);
                            AtomicCacheStats::bump(&self.stats.batched_writes);
                            report.flushed += 1;
                            acks.extend(entry.seq);
                            self.unpark(EntryKey::Version(doc, user));
                            self.invalidate_doc(doc);
                        }
                        Err(error) if error.is_transient() => {
                            survivors.push((doc, user, entry));
                            errors.push(error);
                        }
                        Err(error) => self.settle_flush_failure(doc, user, entry, error, report),
                    }
                }
                if let Some(journal) = &self.journal {
                    if !acks.is_empty() {
                        // Each ack names exactly the record that was
                        // pushed (a newer write that superseded it
                        // mid-flush keeps its own); the medium
                        // compacts once per batch.
                        journal.ack_batch(&acks);
                    }
                }
                pending = survivors;
                // The driver records one breaker strike per batch
                // attempt: the origin either answered for the group or
                // dropped (part of) it.
                if errors.is_empty() {
                    Ok(())
                } else {
                    Err(errors)
                }
            },
        );
        match outcome {
            Ok(()) => {}
            Err(GaveUp::Own(errors)) => {
                for ((doc, user, entry), error) in pending.into_iter().zip(errors) {
                    self.settle_flush_failure(doc, user, entry, error, report);
                }
            }
            Err(GaveUp::Shared(error)) => {
                for (doc, user, entry) in pending {
                    self.settle_flush_failure(doc, user, entry, error.clone(), report);
                }
            }
        }
    }

    /// Probes each entry's base epoch against the origin's current
    /// rendition and routes every conflict through the merge policy
    /// (without one, every entry passes through). Returns the entries
    /// that should still be written:
    ///
    /// * rebasable conflicts stay — their ops travel server-side and are
    ///   rebased onto the origin's current content by `write_documents`;
    /// * unmergeable conflicts resolved `KeepMine` stay as full-body
    ///   writes (an informed overwrite);
    /// * unmergeable conflicts resolved `KeepTheirs` are dropped: their
    ///   journal record is acknowledged and the drop is reported.
    ///
    /// Entries with no base epoch, and entries whose origin is currently
    /// unreachable, pass through unassessed — the write attempt itself
    /// will surface any failure, and ops still rebase server-side.
    fn route_conflicts_through_merge(
        &self,
        entries: Vec<(DocumentId, UserId, DirtyEntry)>,
        report: &mut FlushReport,
    ) -> Vec<(DocumentId, UserId, DirtyEntry)> {
        let Some(policy) = &self.merge else {
            return entries;
        };
        let mut sigs: HashMap<(DocumentId, UserId), Option<Signature>> = HashMap::new();
        let mut kept = Vec::with_capacity(entries.len());
        for (doc, user, entry) in entries {
            if entry.epoch == NO_EPOCH {
                kept.push((doc, user, entry));
                continue;
            }
            // One probe per (doc, user) rendition, shared across retries
            // of the same flush via the memo map.
            let probed = *sigs.entry((doc, user)).or_insert_with(|| {
                self.space
                    .read_document(user, doc)
                    .ok()
                    .map(|(bytes, _)| ConcurrentStore::signature_of(&bytes))
            });
            let Some(origin_sig) = probed else {
                kept.push((doc, user, entry));
                continue;
            };
            if origin_sig == entry.epoch {
                kept.push((doc, user, entry));
                continue;
            }
            // The origin moved on while the write sat buffered: a flush-
            // time write conflict.
            AtomicCacheStats::bump(&self.stats.write_conflicts);
            report.merge.examined += 1;
            if rebasable(&entry.ops) {
                AtomicCacheStats::bump(&self.stats.conflicts_merged);
                for _ in &entry.ops {
                    AtomicCacheStats::bump(&self.stats.merge_rebases);
                }
                report.merge.merged += 1;
                report.merge.rebases += entry.ops.len() as u64;
                kept.push((doc, user, entry));
                continue;
            }
            let conflict = WriteConflict {
                doc,
                user,
                journal_epoch: entry.epoch,
                origin_signature: origin_sig,
            };
            match policy.resolve_unmergeable(&conflict) {
                ConflictResolution::KeepMine => {
                    report.merge.kept_mine += 1;
                    kept.push((doc, user, entry));
                }
                ConflictResolution::KeepTheirs => {
                    report.merge.kept_theirs += 1;
                    if let (Some(journal), Some(seq)) = (&self.journal, entry.seq) {
                        journal.ack(seq);
                    }
                    self.unpark(EntryKey::Version(doc, user));
                    report.dropped.push((doc, user));
                }
            }
        }
        kept
    }

    /// Settles one failed flush entry: re-queues the data (a concurrent
    /// newer write wins) and either parks it (journal configured and the
    /// failure transient — it stays journaled and dirty until a later
    /// flush finds the origin's breaker admitting probes again) or
    /// reports it re-queued with the error.
    fn settle_flush_failure(
        &self,
        doc: DocumentId,
        user: UserId,
        entry: DirtyEntry,
        error: PlacelessError,
        report: &mut FlushReport,
    ) {
        let key = EntryKey::Version(doc, user);
        self.requeue_dirty(key, entry);
        if self.journal.is_some() && error.is_transient() {
            if self.parked.lock().insert(key) {
                self.parked_gauge.fetch_add(1, Ordering::Relaxed);
                AtomicCacheStats::bump(&self.stats.writes_parked);
            }
            report.parked.push((doc, user));
        } else {
            report.requeued.push((doc, user, error));
        }
    }

    /// Forgets that `key` was parked: its entry left the dirty set for
    /// good (flushed, or dropped by a `KeepTheirs` resolution).
    fn unpark(&self, key: EntryKey) {
        if self.parked.lock().remove(&key) {
            self.parked_gauge.fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// Puts a drained dirty entry back without clobbering a newer write
    /// that landed while the flush held no lock.
    fn requeue_dirty(&self, key: EntryKey, entry: DirtyEntry) {
        let mut shard = self.shard(key).lock();
        let vacant = !shard.dirty.contains_key(&key);
        if vacant {
            shard.dirty.insert(key, entry);
        }
        drop(shard);
        if vacant {
            self.dirty_gauge.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Returns how many writes are buffered (write-back mode).
    ///
    /// Reads an atomic gauge maintained at every dirty-map mutation —
    /// no shard lock is taken, so a sampling thread (the load engine's)
    /// never perturbs readers. Like [`Self::stats`], a moment-in-time
    /// approximation under concurrency, exact at quiescence.
    pub fn dirty_count(&self) -> usize {
        self.dirty_gauge.load(Ordering::Relaxed) as usize
    }

    /// Returns how many dirty entries are currently parked (their last
    /// flush exhausted its retries against an unreachable origin).
    /// Lock-free; see [`Self::dirty_count`] for the precision contract.
    pub fn parked_count(&self) -> usize {
        self.parked_gauge.load(Ordering::Relaxed) as usize
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
        self.inflight.load(Ordering::Relaxed)
    }

    /// Returns how many readers are currently parked waiting for a
    /// per-origin window slot — the brownout ladder's pressure gauge.
    /// Zero without a configured [`CacheConfigBuilder::max_inflight_per_origin`]
    /// window, and zero whenever the cache is quiescent.
    pub fn queued_fetches(&self) -> u64 {
        self.window
            .as_ref()
            .map(|window| window.queued_total())
            .unwrap_or(0)
    }

    /// Returns the configured write journal, if any.
    pub fn journal(&self) -> Option<&WriteJournal> {
        self.journal.as_ref()
    }

    /// Drops every resident version of `doc`, sweeping the shards one at
    /// a time (no two shard locks are ever held together).
    fn invalidate_doc(&self, doc: DocumentId) {
        // Hygiene, not correctness: both lease halves self-validate on use
        // (chain epoch, root verifier), but a doc-wide invalidation makes
        // them unlikely to validate again — free the memory now.
        self.leases.lock().remove(&doc);
        for mutex in self.shards.iter() {
            let mut shard = mutex.lock();
            let keys: Vec<EntryKey> = shard
                .sigs
                .keys()
                .filter(|key| key.doc() == Some(doc))
                .copied()
                .collect();
            for key in keys {
                self.drop_entry(&mut shard, key);
            }
        }
    }

    fn handle_invalidation(&self, invalidation: &Invalidation) {
        match *invalidation {
            // User-scoped invalidations resolve to exactly one key, so
            // only that key's shard is locked.
            Invalidation::UserDocument(doc, user) => {
                let key = EntryKey::Version(doc, user);
                let mut shard = self.shard(key).lock();
                if self.drop_entry(&mut shard, key) {
                    AtomicCacheStats::bump(&self.stats.notifier_invalidations);
                }
            }
            Invalidation::Document(doc) => {
                self.leases.lock().remove(&doc);
                for mutex in self.shards.iter() {
                    let mut shard = mutex.lock();
                    let keys: Vec<EntryKey> = shard
                        .sigs
                        .keys()
                        .filter(|key| key.doc() == Some(doc))
                        .copied()
                        .collect();
                    for key in keys {
                        if self.drop_entry(&mut shard, key) {
                            AtomicCacheStats::bump(&self.stats.notifier_invalidations);
                        }
                    }
                }
            }
        }
    }
}

/// Bus subscription adapter holding a weak handle so dropping the cache
/// tears down the subscription naturally.
struct CacheSink {
    cache: Weak<DocumentCache>,
    id: CacheId,
}

impl InvalidationSink for CacheSink {
    fn cache_id(&self) -> CacheId {
        self.id
    }

    fn invalidate(&self, invalidation: &Invalidation) {
        if let Some(cache) = self.cache.upgrade() {
            cache.handle_invalidation(invalidation);
        }
    }

    fn invalidate_seq(&self, seq: u64, invalidation: &Invalidation) {
        if let Some(cache) = self.cache.upgrade() {
            cache.note_sequence(seq);
            cache.handle_invalidation(invalidation);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use placeless_core::prelude::*;
    use placeless_simenv::VirtualClock;

    const ALICE: UserId = UserId(1);
    const BOB: UserId = UserId(2);

    fn setup(
        content: &str,
        fetch_cost: u64,
    ) -> (Arc<DocumentSpace>, Arc<MemoryProvider>, DocumentId) {
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
    fn shard_placement_is_deterministic() {
        let (space, _provider, doc) = setup("x", 0);
        let cache_a = DocumentCache::new(
            space.clone(),
            CacheConfig {
                shards: 8,
                ..quiet_config()
            },
        );
        let cache_b = DocumentCache::new(
            space,
            CacheConfig {
                shards: 8,
                ..quiet_config()
            },
        );
        for d in 0..64u64 {
            for u in 1..4u64 {
                let key = EntryKey::Version(DocumentId(d), UserId(u));
                assert_eq!(cache_a.shard_index(key), cache_b.shard_index(key));
            }
        }
        let spread: std::collections::HashSet<usize> = (0..64u64)
            .map(|d| cache_a.shard_index(EntryKey::Version(DocumentId(d), UserId(1))))
            .collect();
        assert!(
            spread.len() >= 4,
            "64 docs hit only {} of 8 shards",
            spread.len()
        );
        let _ = doc;
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

    #[test]
    fn recover_replays_journal_into_dirty_queue() {
        let (space, provider, doc) = setup("v0", 100);
        let medium = placeless_simenv::StableStore::new();
        {
            let cache = DocumentCache::new(
                space.clone(),
                CacheConfig {
                    write_mode: WriteMode::Back,
                    journal: Some(WriteJournal::new(medium.clone())),
                    ..quiet_config()
                },
            );
            cache
                .write(ALICE, doc, b"buffered")
                .expect("write must buffer");
            // Crash: every in-memory structure dies unflushed; only the
            // stable medium survives.
        }
        let (journal, outcome) = WriteJournal::open(medium);
        assert_eq!(outcome.records.len(), 1);
        let (cache, report) = DocumentCache::recover(
            space,
            CacheConfig {
                write_mode: WriteMode::Back,
                journal: Some(journal),
                ..quiet_config()
            },
            None,
        );
        assert_eq!((report.replayed, report.requeued), (1, 1));
        assert!(report.conflicts.is_empty());
        assert_eq!(cache.dirty_count(), 1);
        assert_eq!(cache.stats().journal_replays, 1);
        assert_eq!(
            cache.read(ALICE, doc).expect("read must succeed"),
            "buffered",
            "the recovered write is the writer's view again"
        );
        let _ = cache.flush().expect("flush must succeed");
        assert_eq!(provider.content(), "buffered");
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
        assert!(stats.mean_miss_ms().expect("misses were recorded") >= 10.0);
        assert!(stats.mean_hit_ms().expect("hits were recorded") < 1.0);
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

    /// A minimal signed tagging transform for the plan-lease tests.
    struct LeaseTag;
    impl ActiveProperty for LeaseTag {
        fn name(&self) -> &str {
            "lease-tag"
        }
        fn interests(&self) -> Interests {
            Interests::of(&[EventKind::GetInputStream])
        }
        fn execution_cost_micros(&self) -> u64 {
            50
        }
        fn wrap_input(
            &self,
            _ctx: &PathCtx<'_>,
            _report: &mut PathReport,
            inner: Box<dyn InputStream>,
        ) -> Result<Box<dyn InputStream>> {
            Ok(Box::new(TransformingInput::new(
                inner,
                Box::new(|b| {
                    let mut v = b.to_vec();
                    v.extend_from_slice(b"[t]");
                    Ok(Bytes::from(v))
                }),
            )))
        }
        fn transform_token(&self, _ctx: &PathCtx<'_>) -> Option<Vec<u8>> {
            Some(b"t".to_vec())
        }
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
            .attach_active(Scope::Universal, doc, Arc::new(LeaseTag))
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
            .policy_name("LFU")
            .expect("LFU is a known policy")
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
        assert!(config.prefetch.enabled);
        assert!(config.merge.is_some());
        // Exhaustive on purpose: a fifteenth field stops this compiling,
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
            resilience,
            stage_cache,
            journal,
            max_inflight_per_origin,
            merge,
            overload,
        } = CacheConfig::default();
        assert!(run_verifiers && !stage_cache && !prefetch.enabled);
        assert_eq!((write_mode, shards), (WriteMode::Through, 0));
        assert_eq!((resilience.max_retries, resilience.breaker), (0, None));
        assert!(access_link.is_none() && journal.is_none() && merge.is_none());
        assert!(max_inflight_per_origin.is_none() && overload.is_none());
        assert!(CacheConfig::builder().policy_name("bogus").is_err());

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
        let cache = DocumentCache::new(
            space,
            CacheConfig {
                write_mode: WriteMode::Back,
                journal: Some(journal.clone()),
                merge: Some(MergePolicy::new()),
                ..quiet_config()
            },
        );
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
        assert!(records[0].rebasable());
        let report = cache.flush().expect("flush must run");
        assert!(report.is_clean(), "{report}");
        assert_eq!(provider.content(), "base;a1;a2;");
        assert!(journal.is_empty(), "flush acks the op record");
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
        assert!(!journal.live_records()[0].rebasable());
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
}
