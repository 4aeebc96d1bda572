//! Cache construction parameters and per-read options.

use super::*;

/// How writes reach the middleware.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteMode {
    /// Forward every write immediately.
    Through,
    /// Buffer writes locally; [`DocumentCache::flush`] pushes them.
    Back,
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
    /// Number of lock shards; `0` means one per available CPU. `1` is a
    /// single global lock over one replacement-policy instance.
    pub shards: usize,
    /// Origin health: retries, circuit breakers, stale service, and the
    /// per-origin window with its optional overload control. The default
    /// enables none of it: every origin operation is one attempt that
    /// fails with its own error, runs unbounded and is never shed.
    pub origin: OriginConfig,
    /// Retain intermediate stage outputs from the compiled transform plan,
    /// content-addressed by stage signature, so the user-independent base
    /// prefix of a property chain is computed once and shared across
    /// users; later misses replay only the per-user reference suffix. Off
    /// by default: a miss then executes the whole chain as one opaque
    /// stream and only the final version is cached.
    pub stage_cache: bool,
    /// Durable write-ahead journal for write-back writes. When set, every
    /// `WriteMode::Back` write is appended to the journal's stable medium
    /// *before* the dirty map is updated, flushes acknowledge records only
    /// after the origin write succeeds, and writes whose flush exhausts
    /// its retries are *parked* in the journal instead of erroring. With
    /// `None` (the default) buffered writes live in memory only, and a
    /// failed flush re-queues the entry and reports its error.
    pub journal: Option<WriteJournal>,
    /// Operation-based conflict resolution. When set, write conflicts
    /// detected during recovery *and* flush are routed through the merge
    /// policy first: a conflicted write whose journal record carries
    /// rebasable typed ops ([`placeless_core::op::DocOp`], via
    /// [`DocumentCache::write_op`]) is rebased onto the origin's current
    /// content — both sides' edits survive — and only unmergeable
    /// conflicts (plain full-body writes) fall back to the binary
    /// keep-mine/keep-theirs hooks. With `None` (the default) only those
    /// hooks exist: a flush never probes the origin, nothing is rebased,
    /// and every flush payload is the writer's full body.
    pub merge: Option<MergePolicy>,
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
            origin: OriginConfig::default(),
            stage_cache: false,
            journal: None,
            merge: None,
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

    /// Sets the shard count (`0` = one per available CPU).
    pub fn shards(mut self, shards: usize) -> Self {
        self.config.shards = shards;
        self
    }

    /// Sets the origin-health policy (see [`CacheConfig::origin`]).
    pub fn origin(mut self, origin: OriginConfig) -> Self {
        self.config.origin = origin;
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

    /// Finishes the configuration.
    pub fn build(self) -> CacheConfig {
        self.config
    }
}

/// Per-read knobs for [`DocumentCache::read_with`].
///
/// `ReadOptions::default()` reproduces [`DocumentCache::read`] exactly.
/// The struct is `#[non_exhaustive]` so later PRs can add knobs without
/// breaking callers; construct it with `default()` and the chainable
/// setters:
///
/// ```
/// use placeless_cache::ReadOptions;
///
/// let opts = ReadOptions::default().deadline_micros(5_000);
/// assert_eq!(opts.deadline_micros, Some(5_000));
/// ```
#[non_exhaustive]
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReadOptions {
    /// Virtual-time budget of this read's fetch, backoffs included. It
    /// bounds retry *scheduling* — a backoff the remaining budget cannot
    /// cover fails the read with [`PlacelessError::Timeout`] instead of
    /// sleeping — and under overload control it is the deadline the fetch
    /// is admitted by. With the default origin config there is nothing to
    /// bound and the deadline has no effect.
    pub deadline_micros: Option<u64>,
    /// Scheduling class for overload control: under pressure the cache
    /// sheds [`Priority::Prefetch`] first, [`Priority::Refresh`] next,
    /// and [`Priority::Foreground`] (the default) last. Without overload
    /// control ([`WindowConfig::control`](crate::WindowConfig::control))
    /// the class is recorded but never acted on.
    pub priority: Priority,
}

impl ReadOptions {
    /// Sets the read's fetch deadline.
    pub fn deadline_micros(mut self, micros: u64) -> Self {
        self.deadline_micros = Some(micros);
        self
    }

    /// Sets the read's overload priority class.
    pub fn priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }
}
