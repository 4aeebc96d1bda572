//! Cache statistics.
//!
//! Everything the benchmark harness reports comes from here: hit/miss
//! counts, invalidation causes (notifier vs verifier — the central §5
//! trade-off), latency sums over the virtual clock, and sharing/eviction
//! bookkeeping.
//!
//! The counters are listed once, in the `counters!` invocation, which
//! generates [`CacheStats`], its `delta`, [`AtomicCacheStats`] and its
//! `snapshot`. A counter is a monotone **sum** or a **gauge**. The sums
//! live in `STRIPES` cache-line-aligned blocks, one picked per thread, so
//! two threads counting — hits included — write different lines; a
//! snapshot adds the blocks up. A gauge is a level and stays one atomic.

use std::ops::Deref;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// How many blocks the sums are spread over; more threads than this share
/// blocks (the adds are atomic either way).
const STRIPES: usize = 8;

/// The block this thread adds to: threads are numbered on first use.
fn stripe_of_this_thread() -> usize {
    static NEXT_THREAD: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static STRIPE: usize = NEXT_THREAD.fetch_add(1, Ordering::Relaxed) % STRIPES;
    }
    STRIPE.with(|stripe| *stripe)
}

macro_rules! counters {
    (
        sums { $($(#[$sum_doc:meta])* $sum:ident,)* }
        gauges { $($(#[$gauge_doc:meta])* $gauge:ident,)* }
    ) => {
        /// Counters accumulated by a [`crate::manager::DocumentCache`].
        #[derive(Debug, Clone, Copy, Default, PartialEq)]
        pub struct CacheStats {
            $($(#[$sum_doc])* pub $sum: u64,)*
            $($(#[$gauge_doc])* pub $gauge: u64,)*
        }

        impl CacheStats {
            /// Returns the counters accumulated since `earlier` was
            /// snapshotted. Sums subtract (saturating, so a stale
            /// `earlier` from a different cache degrades to zero rather
            /// than wrapping); the gauges keep the later observation, a
            /// level or a high-water mark having no meaningful difference.
            pub fn delta(&self, earlier: &CacheStats) -> CacheStats {
                CacheStats {
                    $($sum: self.$sum.saturating_sub(earlier.$sum),)*
                    $($gauge: self.$gauge,)*
                }
            }
        }

        /// One block of the sums, a whole number of cache lines: what the
        /// threads numbered into it have counted.
        #[derive(Debug, Default)]
        #[repr(align(64))]
        pub struct Sums {
            $(pub(crate) $sum: AtomicU64,)*
        }

        /// Lock-free counters shared by every shard of a cache.
        ///
        /// Dereferences to the calling thread's block of sums, so
        /// `stats.misses` is this thread's share of the misses; the gauges
        /// are fields of their own. All relaxed: there is no cross-field
        /// invariant to observe torn, and [`Self::snapshot`] is a
        /// moment-in-time approximation under concurrency (exact whenever
        /// the cache is quiescent).
        #[derive(Debug, Default)]
        pub struct AtomicCacheStats {
            stripes: [Sums; STRIPES],
            $(pub(crate) $gauge: AtomicU64,)*
        }

        impl AtomicCacheStats {
            /// Returns a plain-old-data copy of the counters.
            pub fn snapshot(&self) -> CacheStats {
                let stripes = self.stripes.iter();
                CacheStats {
                    $($sum: stripes.clone().map(|sums| sums.$sum.load(Ordering::Relaxed)).sum(),)*
                    $($gauge: self.$gauge.load(Ordering::Relaxed),)*
                }
            }
        }
    };
}

counters! {
    sums {
        /// Reads served from the cache (verifiers passed).
        hits,
        /// Reads that went to the middleware.
        misses,
        /// Reads of uncacheable content (always forwarded, never stored).
        uncacheable_reads,
        /// Entries dropped because a notifier invalidated them.
        notifier_invalidations,
        /// Hits rejected because a verifier said the entry was stale.
        verifier_invalidations,
        /// Entries whose content a verifier replaced in place.
        verifier_replacements,
        /// Entries evicted by the replacement policy.
        evictions,
        /// Fills that found identical bytes already resident (shared).
        shared_fills,
        /// Operation events forwarded for `CacheableWithEvents` entries.
        events_forwarded,
        /// Total simulated microseconds spent serving hits.
        hit_micros,
        /// Total simulated microseconds spent serving misses.
        miss_micros,
        /// Total simulated microseconds spent running verifiers.
        verify_micros,
        /// Writes accepted (through or back).
        writes,
        /// Write-back flushes pushed to the middleware.
        flushes,
        /// Entries filled by collection prefetch rather than demand misses.
        prefetches,
        /// Hits served from prefetched entries.
        prefetch_hits,
        /// Fills pinned by a QoS property.
        pinned_fills,
        /// Origin attempts repeated after a transient failure: fetches,
        /// write-through writes and flush groups.
        retries,
        /// Circuit breakers tripped open by consecutive failures.
        breaker_trips,
        /// Reads served from a resident entry despite a failed or impossible
        /// freshness check, within the configured staleness bound.
        stale_served,
        /// Reads that failed even after retries / stale fallback.
        degraded_errors,
        /// Invalidation sequence gaps detected (dropped notifications).
        notifier_gaps,
        /// Chain stages served from the intermediate-result store instead of
        /// executing (stage caching only).
        stage_hits,
        /// Misses that replayed only part of the chain because a stage hit:
        /// the paper's per-user suffix served over a shared base prefix.
        stage_partial_hits,
        /// Staged walks anchored on a verifier-attested root signature
        /// instead of refetched provider bytes (the plan-lease fast path).
        root_reuses,
        /// Write-back writes appended to the durable write journal before the
        /// dirty map was updated (journal configured only).
        journal_appends,
        /// Journaled writes replayed into the dirty queue by a warm restart
        /// ([`crate::manager::DocumentCache::recover`]).
        journal_replays,
        /// Dirty entries parked in the journal after a flush exhausted its
        /// retries (drained when the origin's breaker lets probes through).
        writes_parked,
        /// Grouped origin write operations issued by `flush` — one per
        /// per-origin group per attempt (a retried group counts again).
        flush_batches,
        /// Recovered writes that conflicted with a newer origin version
        /// (journal epoch no longer matches the origin signature).
        write_conflicts,
        /// Write conflicts resolved by rebasing the writer's typed ops onto
        /// the origin's current content, not by keep-mine/keep-theirs.
        conflicts_merged,
        /// Individual typed ops re-applied across all merge resolutions.
        merge_rebases,
        /// Reads that joined another thread's in-flight miss on the same key
        /// and shared its result instead of fetching (single-flight).
        coalesced_waits,
        /// Foreground reads shed under overload (`Overloaded` returned).
        sheds_foreground,
        /// Refresh-class reads shed under overload.
        sheds_refresh,
        /// Prefetch work shed under overload (admission, brownout, or the
        /// collection-prefetch gate).
        sheds_prefetch,
        /// Brownout ladder transitions (each one-rung move, up or down).
        brownout_shifts,
        /// Total virtual microseconds readers spent parked on origin
        /// windows before being admitted or shed (queue-wait accounting).
        queue_wait_micros,
    }
    gauges {
        /// Logical bytes currently resident as intermediate stage entries.
        stage_bytes,
        /// High-water mark of concurrently in-flight origin fetches.
        inflight_peak,
        /// Current brownout rung, 0 (normal) through 4 (reject).
        brownout_level,
    }
}

impl Deref for AtomicCacheStats {
    type Target = Sums;

    fn deref(&self) -> &Sums {
        &self.stripes[stripe_of_this_thread()]
    }
}

/// `numerator / denominator`, or `None` over nothing.
fn ratio(numerator: u64, denominator: u64) -> Option<f64> {
    (denominator != 0).then(|| numerator as f64 / denominator as f64)
}

impl CacheStats {
    /// Returns the hit rate over cacheable reads, or `None` before any read.
    pub fn hit_rate(&self) -> Option<f64> {
        ratio(self.hits, self.hits + self.misses)
    }

    /// Total reads shed under overload across all priority classes.
    pub fn sheds_total(&self) -> u64 {
        self.sheds_foreground + self.sheds_refresh + self.sheds_prefetch
    }
}

/// The two ways to count into a sum. The gauges are moved with the atomic
/// operation that suits each: `fetch_sub`, `fetch_max`, `store`.
impl AtomicCacheStats {
    pub(crate) fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn add(counter: &AtomicU64, amount: u64) {
        counter.fetch_add(amount, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atomic_stats_snapshot_round_trips() {
        let atomic = AtomicCacheStats::default();
        AtomicCacheStats::bump(&atomic.hits);
        // Another thread counts into another block; the snapshot adds up.
        std::thread::scope(|scope| {
            scope.spawn(|| {
                AtomicCacheStats::bump(&atomic.hits);
                AtomicCacheStats::add(&atomic.hit_micros, 6_000);
            });
        });
        AtomicCacheStats::bump(&atomic.misses);
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
        atomic.stage_bytes.fetch_sub(500, Ordering::Relaxed);
        assert_eq!(atomic.snapshot().stage_bytes, 200);
    }

    #[test]
    fn rates_are_none_before_traffic() {
        let stats = CacheStats::default();
        assert_eq!(stats.hit_rate(), None);
    }

    #[test]
    fn rates_compute() {
        let stats = CacheStats {
            hits: 3,
            misses: 1,
            ..Default::default()
        };
        assert_eq!(stats.hit_rate(), Some(0.75));
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
}
