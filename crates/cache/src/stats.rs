//! Cache statistics.
//!
//! Everything the benchmark harness reports comes from here: hit/miss
//! counts, invalidation causes (notifier vs verifier — the central §5
//! trade-off), latency sums over the virtual clock, and sharing/eviction
//! bookkeeping.

use std::ops::Sub;
use std::sync::atomic::{AtomicU64, Ordering};

/// Counters accumulated by a [`crate::manager::DocumentCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CacheStats {
    /// Reads served from the cache (verifiers passed).
    pub hits: u64,
    /// Reads that went to the middleware.
    pub misses: u64,
    /// Reads of uncacheable content (always forwarded, never stored).
    pub uncacheable_reads: u64,
    /// Entries dropped because a notifier invalidated them.
    pub notifier_invalidations: u64,
    /// Hits rejected because a verifier said the entry was stale.
    pub verifier_invalidations: u64,
    /// Entries whose content a verifier replaced in place.
    pub verifier_replacements: u64,
    /// Entries evicted by the replacement policy.
    pub evictions: u64,
    /// Fills that found identical bytes already resident (shared).
    pub shared_fills: u64,
    /// Operation events forwarded for `CacheableWithEvents` entries.
    pub events_forwarded: u64,
    /// Total simulated microseconds spent serving hits.
    pub hit_micros: u64,
    /// Total simulated microseconds spent serving misses.
    pub miss_micros: u64,
    /// Total simulated microseconds spent running verifiers.
    pub verify_micros: u64,
    /// Writes accepted (through or back).
    pub writes: u64,
    /// Write-back flushes pushed to the middleware.
    pub flushes: u64,
    /// Entries filled by collection prefetch rather than demand misses.
    pub prefetches: u64,
    /// Hits served from prefetched entries.
    pub prefetch_hits: u64,
    /// Fills pinned by a QoS property.
    pub pinned_fills: u64,
    /// Fetch attempts repeated after a transient failure.
    pub retries: u64,
    /// Circuit breakers tripped open by consecutive failures.
    pub breaker_trips: u64,
    /// Reads served from a resident entry despite a failed or impossible
    /// freshness check, within the configured staleness bound.
    pub stale_served: u64,
    /// Reads that failed even after retries / stale fallback.
    pub degraded_errors: u64,
    /// Invalidation sequence gaps detected (dropped notifications).
    pub notifier_gaps: u64,
    /// Chain stages served from the intermediate-result store instead of
    /// executing (stage caching only).
    pub stage_hits: u64,
    /// Misses that replayed only part of the chain because at least one
    /// stage hit — the paper's per-user suffix served over a shared base
    /// prefix.
    pub stage_partial_hits: u64,
    /// Staged walks that anchored on a verifier-attested root content
    /// signature instead of refetching the provider bytes (the plan-lease
    /// fast path).
    pub root_reuses: u64,
    /// Logical bytes currently resident as intermediate stage entries (a
    /// gauge: rises on stage fills, falls when stage entries leave).
    pub stage_bytes: u64,
    /// Write-back writes appended to the durable write journal before the
    /// dirty map was updated (journal configured only).
    pub journal_appends: u64,
    /// Journaled writes replayed into the dirty queue by a warm restart
    /// ([`crate::manager::DocumentCache::recover`]).
    pub journal_replays: u64,
    /// Dirty entries parked in the journal after a flush exhausted its
    /// retries (drained when the origin's breaker lets probes through).
    pub writes_parked: u64,
    /// Write attempts repeated after a transient failure (write-through
    /// and flush paths; the write-side sibling of `retries`).
    pub flush_retries: u64,
    /// Grouped origin write operations issued by `flush` — one per
    /// per-origin group per attempt (a retried group counts again).
    pub flush_batches: u64,
    /// Recovered writes that conflicted with a newer origin version
    /// (journal epoch no longer matches the origin signature).
    pub write_conflicts: u64,
    /// Write conflicts resolved by rebasing the writer's typed ops onto
    /// the origin's current content (merge policy) instead of the binary
    /// keep-mine/keep-theirs hooks.
    pub conflicts_merged: u64,
    /// Individual typed ops re-applied across all merge resolutions.
    pub merge_rebases: u64,
    /// Reads that joined another thread's in-flight miss on the same key
    /// and shared its result instead of fetching (single-flight).
    pub coalesced_waits: u64,
    /// High-water mark of concurrently in-flight origin fetches (a peak,
    /// not a monotone sum; [`CacheStats::delta`] keeps the later value).
    pub inflight_peak: u64,
    /// Foreground reads shed under overload (`Overloaded` returned).
    pub sheds_foreground: u64,
    /// Refresh-class reads shed under overload.
    pub sheds_refresh: u64,
    /// Prefetch work shed under overload (admission, brownout, or the
    /// collection-prefetch gate).
    pub sheds_prefetch: u64,
    /// Brownout ladder transitions (each one-rung move, up or down).
    pub brownout_shifts: u64,
    /// Current brownout rung, 0 (normal) through 4 (reject) — a gauge;
    /// [`CacheStats::delta`] keeps the later value.
    pub brownout_level: u64,
    /// Total virtual microseconds readers spent parked on origin
    /// windows before being admitted or shed (queue-wait accounting).
    pub queue_wait_micros: u64,
}

impl CacheStats {
    /// Returns the hit rate over cacheable reads, or `None` before any
    /// read.
    pub fn hit_rate(&self) -> Option<f64> {
        let total = self.hits + self.misses;
        if total == 0 {
            None
        } else {
            Some(self.hits as f64 / total as f64)
        }
    }

    /// Returns the mean hit latency in milliseconds, or `None` without
    /// hits.
    pub fn mean_hit_ms(&self) -> Option<f64> {
        if self.hits == 0 {
            None
        } else {
            Some(self.hit_micros as f64 / self.hits as f64 / 1_000.0)
        }
    }

    /// Returns the fraction of cacheable reads that returned bytes —
    /// hits, misses, and stale-served reads over those plus degraded
    /// errors — or `None` before any read. The E-FAULT experiment's
    /// headline metric.
    pub fn read_availability(&self) -> Option<f64> {
        let served = self.hits + self.misses + self.stale_served;
        let total = served + self.degraded_errors;
        if total == 0 {
            None
        } else {
            Some(served as f64 / total as f64)
        }
    }

    /// Total reads shed under overload across all priority classes.
    pub fn sheds_total(&self) -> u64 {
        self.sheds_foreground + self.sheds_refresh + self.sheds_prefetch
    }

    /// Returns the mean miss latency in milliseconds, or `None` without
    /// misses.
    pub fn mean_miss_ms(&self) -> Option<f64> {
        if self.misses == 0 {
            None
        } else {
            Some(self.miss_micros as f64 / self.misses as f64 / 1_000.0)
        }
    }

    /// Returns the counters accumulated since `earlier` was snapshotted.
    ///
    /// Monotone counters subtract (saturating, so a stale `earlier` from a
    /// different cache degrades to zero rather than wrapping). The two
    /// non-monotone fields keep the later observation: `stage_bytes` is a
    /// residency gauge and `inflight_peak` a high-water mark, so "the
    /// difference" is not meaningful for either.
    pub fn delta(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            uncacheable_reads: self
                .uncacheable_reads
                .saturating_sub(earlier.uncacheable_reads),
            notifier_invalidations: self
                .notifier_invalidations
                .saturating_sub(earlier.notifier_invalidations),
            verifier_invalidations: self
                .verifier_invalidations
                .saturating_sub(earlier.verifier_invalidations),
            verifier_replacements: self
                .verifier_replacements
                .saturating_sub(earlier.verifier_replacements),
            evictions: self.evictions.saturating_sub(earlier.evictions),
            shared_fills: self.shared_fills.saturating_sub(earlier.shared_fills),
            events_forwarded: self
                .events_forwarded
                .saturating_sub(earlier.events_forwarded),
            hit_micros: self.hit_micros.saturating_sub(earlier.hit_micros),
            miss_micros: self.miss_micros.saturating_sub(earlier.miss_micros),
            verify_micros: self.verify_micros.saturating_sub(earlier.verify_micros),
            writes: self.writes.saturating_sub(earlier.writes),
            flushes: self.flushes.saturating_sub(earlier.flushes),
            prefetches: self.prefetches.saturating_sub(earlier.prefetches),
            prefetch_hits: self.prefetch_hits.saturating_sub(earlier.prefetch_hits),
            pinned_fills: self.pinned_fills.saturating_sub(earlier.pinned_fills),
            retries: self.retries.saturating_sub(earlier.retries),
            breaker_trips: self.breaker_trips.saturating_sub(earlier.breaker_trips),
            stale_served: self.stale_served.saturating_sub(earlier.stale_served),
            degraded_errors: self.degraded_errors.saturating_sub(earlier.degraded_errors),
            notifier_gaps: self.notifier_gaps.saturating_sub(earlier.notifier_gaps),
            stage_hits: self.stage_hits.saturating_sub(earlier.stage_hits),
            stage_partial_hits: self
                .stage_partial_hits
                .saturating_sub(earlier.stage_partial_hits),
            root_reuses: self.root_reuses.saturating_sub(earlier.root_reuses),
            stage_bytes: self.stage_bytes,
            journal_appends: self.journal_appends.saturating_sub(earlier.journal_appends),
            journal_replays: self.journal_replays.saturating_sub(earlier.journal_replays),
            writes_parked: self.writes_parked.saturating_sub(earlier.writes_parked),
            flush_retries: self.flush_retries.saturating_sub(earlier.flush_retries),
            flush_batches: self.flush_batches.saturating_sub(earlier.flush_batches),
            write_conflicts: self.write_conflicts.saturating_sub(earlier.write_conflicts),
            conflicts_merged: self
                .conflicts_merged
                .saturating_sub(earlier.conflicts_merged),
            merge_rebases: self.merge_rebases.saturating_sub(earlier.merge_rebases),
            coalesced_waits: self.coalesced_waits.saturating_sub(earlier.coalesced_waits),
            inflight_peak: self.inflight_peak,
            sheds_foreground: self
                .sheds_foreground
                .saturating_sub(earlier.sheds_foreground),
            sheds_refresh: self.sheds_refresh.saturating_sub(earlier.sheds_refresh),
            sheds_prefetch: self.sheds_prefetch.saturating_sub(earlier.sheds_prefetch),
            brownout_shifts: self.brownout_shifts.saturating_sub(earlier.brownout_shifts),
            brownout_level: self.brownout_level,
            queue_wait_micros: self
                .queue_wait_micros
                .saturating_sub(earlier.queue_wait_micros),
        }
    }
}

impl Sub for CacheStats {
    type Output = CacheStats;

    /// `later - earlier` is shorthand for [`CacheStats::delta`].
    fn sub(self, earlier: CacheStats) -> CacheStats {
        self.delta(&earlier)
    }
}

/// The three counters every hit writes, one cell per shard and one cache
/// line per cell, so cores hitting different shards write different lines.
#[derive(Debug, Default)]
#[repr(align(64))]
pub(crate) struct HitCell {
    pub(crate) hits: AtomicU64,
    pub(crate) hit_micros: AtomicU64,
    pub(crate) verify_micros: AtomicU64,
}

/// Lock-free counters shared by every shard of a sharded cache.
///
/// Each field mirrors one [`CacheStats`] counter, except the three hit
/// counters, which [`AtomicCacheStats::snapshot`] sums over the per-shard
/// cells. Increments use relaxed atomics: counters are monotone sums with
/// no cross-field invariant that readers could observe torn, and
/// [`AtomicCacheStats::snapshot`] is documented as a moment-in-time
/// approximation under concurrency (exact whenever the cache is
/// quiescent).
#[derive(Debug, Default)]
pub struct AtomicCacheStats {
    cells: Box<[HitCell]>,
    pub(crate) misses: AtomicU64,
    pub(crate) uncacheable_reads: AtomicU64,
    pub(crate) notifier_invalidations: AtomicU64,
    pub(crate) verifier_invalidations: AtomicU64,
    pub(crate) verifier_replacements: AtomicU64,
    pub(crate) evictions: AtomicU64,
    pub(crate) shared_fills: AtomicU64,
    pub(crate) events_forwarded: AtomicU64,
    pub(crate) miss_micros: AtomicU64,
    pub(crate) writes: AtomicU64,
    pub(crate) flushes: AtomicU64,
    pub(crate) prefetches: AtomicU64,
    pub(crate) prefetch_hits: AtomicU64,
    pub(crate) pinned_fills: AtomicU64,
    pub(crate) retries: AtomicU64,
    pub(crate) breaker_trips: AtomicU64,
    pub(crate) stale_served: AtomicU64,
    pub(crate) degraded_errors: AtomicU64,
    pub(crate) notifier_gaps: AtomicU64,
    pub(crate) stage_hits: AtomicU64,
    pub(crate) stage_partial_hits: AtomicU64,
    pub(crate) root_reuses: AtomicU64,
    pub(crate) stage_bytes: AtomicU64,
    pub(crate) journal_appends: AtomicU64,
    pub(crate) journal_replays: AtomicU64,
    pub(crate) writes_parked: AtomicU64,
    pub(crate) flush_retries: AtomicU64,
    pub(crate) flush_batches: AtomicU64,
    pub(crate) write_conflicts: AtomicU64,
    pub(crate) conflicts_merged: AtomicU64,
    pub(crate) merge_rebases: AtomicU64,
    pub(crate) coalesced_waits: AtomicU64,
    pub(crate) inflight_peak: AtomicU64,
    pub(crate) sheds_foreground: AtomicU64,
    pub(crate) sheds_refresh: AtomicU64,
    pub(crate) sheds_prefetch: AtomicU64,
    pub(crate) brownout_shifts: AtomicU64,
    pub(crate) brownout_level: AtomicU64,
    pub(crate) queue_wait_micros: AtomicU64,
}

impl AtomicCacheStats {
    /// Counters for a cache of `shards` shards.
    pub(crate) fn new(shards: usize) -> Self {
        Self {
            cells: (0..shards).map(|_| HitCell::default()).collect(),
            ..Self::default()
        }
    }

    /// Shard `shard`'s hit counters.
    pub(crate) fn cell(&self, shard: usize) -> &HitCell {
        &self.cells[shard]
    }

    pub(crate) fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn add(counter: &AtomicU64, amount: u64) {
        counter.fetch_add(amount, Ordering::Relaxed);
    }

    /// Decrements a gauge-style counter (used for `stage_bytes`, which
    /// tracks resident bytes rather than a monotone sum).
    pub(crate) fn sub(counter: &AtomicU64, amount: u64) {
        counter.fetch_sub(amount, Ordering::Relaxed);
    }

    /// Raises a high-water-mark counter to `observed` if it is larger
    /// (used for `inflight_peak`).
    pub(crate) fn maximize(counter: &AtomicU64, observed: u64) {
        counter.fetch_max(observed, Ordering::Relaxed);
    }

    /// Overwrites a level-style gauge (used for `brownout_level`, which
    /// tracks the ladder's current rung rather than a sum).
    pub(crate) fn set(counter: &AtomicU64, value: u64) {
        counter.store(value, Ordering::Relaxed);
    }

    /// Returns a plain-old-data copy of the counters.
    pub fn snapshot(&self) -> CacheStats {
        let hit_sum = |counter: fn(&HitCell) -> &AtomicU64| -> u64 {
            let loads = self
                .cells
                .iter()
                .map(|cell| counter(cell).load(Ordering::Relaxed));
            loads.sum()
        };
        CacheStats {
            hits: hit_sum(|cell| &cell.hits),
            misses: self.misses.load(Ordering::Relaxed),
            uncacheable_reads: self.uncacheable_reads.load(Ordering::Relaxed),
            notifier_invalidations: self.notifier_invalidations.load(Ordering::Relaxed),
            verifier_invalidations: self.verifier_invalidations.load(Ordering::Relaxed),
            verifier_replacements: self.verifier_replacements.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            shared_fills: self.shared_fills.load(Ordering::Relaxed),
            events_forwarded: self.events_forwarded.load(Ordering::Relaxed),
            hit_micros: hit_sum(|cell| &cell.hit_micros),
            miss_micros: self.miss_micros.load(Ordering::Relaxed),
            verify_micros: hit_sum(|cell| &cell.verify_micros),
            writes: self.writes.load(Ordering::Relaxed),
            flushes: self.flushes.load(Ordering::Relaxed),
            prefetches: self.prefetches.load(Ordering::Relaxed),
            prefetch_hits: self.prefetch_hits.load(Ordering::Relaxed),
            pinned_fills: self.pinned_fills.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            breaker_trips: self.breaker_trips.load(Ordering::Relaxed),
            stale_served: self.stale_served.load(Ordering::Relaxed),
            degraded_errors: self.degraded_errors.load(Ordering::Relaxed),
            notifier_gaps: self.notifier_gaps.load(Ordering::Relaxed),
            stage_hits: self.stage_hits.load(Ordering::Relaxed),
            stage_partial_hits: self.stage_partial_hits.load(Ordering::Relaxed),
            root_reuses: self.root_reuses.load(Ordering::Relaxed),
            stage_bytes: self.stage_bytes.load(Ordering::Relaxed),
            journal_appends: self.journal_appends.load(Ordering::Relaxed),
            journal_replays: self.journal_replays.load(Ordering::Relaxed),
            writes_parked: self.writes_parked.load(Ordering::Relaxed),
            flush_retries: self.flush_retries.load(Ordering::Relaxed),
            flush_batches: self.flush_batches.load(Ordering::Relaxed),
            write_conflicts: self.write_conflicts.load(Ordering::Relaxed),
            conflicts_merged: self.conflicts_merged.load(Ordering::Relaxed),
            merge_rebases: self.merge_rebases.load(Ordering::Relaxed),
            coalesced_waits: self.coalesced_waits.load(Ordering::Relaxed),
            inflight_peak: self.inflight_peak.load(Ordering::Relaxed),
            sheds_foreground: self.sheds_foreground.load(Ordering::Relaxed),
            sheds_refresh: self.sheds_refresh.load(Ordering::Relaxed),
            sheds_prefetch: self.sheds_prefetch.load(Ordering::Relaxed),
            brownout_shifts: self.brownout_shifts.load(Ordering::Relaxed),
            brownout_level: self.brownout_level.load(Ordering::Relaxed),
            queue_wait_micros: self.queue_wait_micros.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atomic_stats_snapshot_round_trips() {
        let atomic = AtomicCacheStats::new(2);
        AtomicCacheStats::bump(&atomic.cell(0).hits);
        AtomicCacheStats::bump(&atomic.cell(1).hits);
        AtomicCacheStats::bump(&atomic.misses);
        AtomicCacheStats::add(&atomic.cell(1).hit_micros, 6_000);
        let snap = atomic.snapshot();
        assert_eq!(snap.hits, 2);
        assert_eq!(snap.misses, 1);
        assert_eq!(snap.hit_micros, 6_000);
        assert_eq!(snap.evictions, 0);
    }

    #[test]
    fn stage_bytes_gauge_rises_and_falls() {
        let atomic = AtomicCacheStats::default();
        AtomicCacheStats::add(&atomic.stage_bytes, 500);
        AtomicCacheStats::add(&atomic.stage_bytes, 200);
        AtomicCacheStats::sub(&atomic.stage_bytes, 500);
        assert_eq!(atomic.snapshot().stage_bytes, 200);
    }

    #[test]
    fn rates_are_none_before_traffic() {
        let stats = CacheStats::default();
        assert_eq!(stats.hit_rate(), None);
        assert_eq!(stats.mean_hit_ms(), None);
        assert_eq!(stats.mean_miss_ms(), None);
    }

    #[test]
    fn rates_compute() {
        let stats = CacheStats {
            hits: 3,
            misses: 1,
            hit_micros: 6_000,
            miss_micros: 10_000,
            ..Default::default()
        };
        assert_eq!(stats.hit_rate(), Some(0.75));
        assert_eq!(stats.mean_hit_ms(), Some(2.0));
        assert_eq!(stats.mean_miss_ms(), Some(10.0));
    }

    #[test]
    fn delta_subtracts_counters_and_keeps_gauges() {
        let earlier = CacheStats {
            hits: 10,
            misses: 4,
            stage_bytes: 900,
            inflight_peak: 3,
            sheds_prefetch: 2,
            brownout_level: 3,
            ..Default::default()
        };
        let later = CacheStats {
            hits: 25,
            misses: 4,
            coalesced_waits: 6,
            stage_bytes: 300,
            inflight_peak: 7,
            sheds_prefetch: 5,
            brownout_level: 1,
            ..Default::default()
        };
        let d = later.delta(&earlier);
        assert_eq!(d.hits, 15);
        assert_eq!(d.misses, 0);
        assert_eq!(d.coalesced_waits, 6);
        assert_eq!(d.sheds_prefetch, 3, "sheds are monotone counters");
        // Non-monotone fields carry the later observation.
        assert_eq!(d.stage_bytes, 300);
        assert_eq!(d.inflight_peak, 7);
        assert_eq!(d.brownout_level, 1, "the level is a gauge");
        // The Sub impl is the same operation.
        assert_eq!(later - earlier, d);
    }

    #[test]
    fn delta_saturates_instead_of_wrapping() {
        let earlier = CacheStats {
            hits: 9,
            ..Default::default()
        };
        let later = CacheStats {
            hits: 2,
            ..Default::default()
        };
        assert_eq!(later.delta(&earlier).hits, 0);
    }

    #[test]
    fn maximize_is_a_high_water_mark() {
        let atomic = AtomicCacheStats::default();
        AtomicCacheStats::maximize(&atomic.inflight_peak, 4);
        AtomicCacheStats::maximize(&atomic.inflight_peak, 9);
        AtomicCacheStats::maximize(&atomic.inflight_peak, 6);
        assert_eq!(atomic.snapshot().inflight_peak, 9);
    }

    #[test]
    fn availability_counts_stale_service_as_served() {
        assert_eq!(CacheStats::default().read_availability(), None);
        let stats = CacheStats {
            hits: 5,
            misses: 2,
            stale_served: 2,
            degraded_errors: 1,
            ..Default::default()
        };
        assert_eq!(stats.read_availability(), Some(0.9));
    }
}
