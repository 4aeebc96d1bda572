//! Experiment **E-FAULT**: read availability under origin outages.
//!
//! A file origin goes dark for a scripted window
//! ([`placeless_simenv::FaultPlan`]) while an application keeps reading a
//! working set it had already cached. Three cache configurations face the
//! same fault schedule:
//!
//! * **off** — the seed cache: every fetch failure surfaces to the
//!   application;
//! * **breaker** — bounded retries plus a per-origin circuit breaker:
//!   fewer doomed origin attempts, but reads still fail;
//! * **breaker+stale** — the full pipeline: when the origin is
//!   unreachable and the freshness probe is [`Validity::Unverifiable`],
//!   resident entries within the staleness bound are served anyway.
//!
//! The outage's failures carry a `retry_after` hint past the backoff
//! horizon, so the retry loop gives up on them at once. A fourth mode,
//! **flaky+retry**, faces what retries are for instead: no outage, but
//! [`FLAKY_ERROR_RATE`] of the origin's operations fail transiently and
//! with no hint, and the cache retries them (no breaker, no stale service).
//!
//! The headline metric is [`FaultResult::availability`]. The scenario is
//! fully deterministic over the virtual clock: identical parameters
//! produce identical statistics, which `tests/fault_matrix.rs` asserts.
//!
//! [`Validity::Unverifiable`]: placeless_core::verifier::Validity::Unverifiable

use placeless_cache::{CacheConfig, CacheStats, DocumentCache, OriginConfig, StalenessBound};
use placeless_core::id::{DocumentId, UserId};
use placeless_core::space::DocumentSpace;
use placeless_repository::{FsProvider, MemFs};
use placeless_simenv::{FaultPlan, LatencyModel, Link, VirtualClock};

/// Which resilience mechanisms the cache under test enables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResilienceMode {
    /// Seed behaviour: fail fast, no degradation.
    Off,
    /// Retries + per-origin circuit breaker; no stale service.
    Breaker,
    /// Retries + breaker + serve-stale within a generous bound.
    BreakerAndStale,
    /// Retries alone, against an origin that fails at random with no hint
    /// instead of the outage.
    FlakyRetry,
}

/// The share of origin operations that fail in the flaky mode.
pub const FLAKY_ERROR_RATE: f64 = 0.2;

impl ResilienceMode {
    /// All modes, in presentation order.
    pub const ALL: [ResilienceMode; 4] = [
        ResilienceMode::Off,
        ResilienceMode::Breaker,
        ResilienceMode::BreakerAndStale,
        ResilienceMode::FlakyRetry,
    ];

    /// Short label for tables.
    pub fn label(&self) -> &'static str {
        match self {
            ResilienceMode::Off => "off",
            ResilienceMode::Breaker => "breaker",
            ResilienceMode::BreakerAndStale => "breaker+stale",
            ResilienceMode::FlakyRetry => "flaky+retry",
        }
    }
}

/// Scenario parameters.
#[derive(Debug, Clone, Copy)]
pub struct FaultParams {
    /// Documents in the working set (all on the one faulted origin).
    pub docs: u64,
    /// Reads issued after the warm-up pass, spread over the timeline.
    pub reads: u64,
    /// Virtual time between consecutive reads, in µs.
    pub read_gap_micros: u64,
    /// Outage window start (virtual µs).
    pub outage_from: u64,
    /// Outage window end (exclusive, virtual µs).
    pub outage_until: u64,
    /// Seed for the fault plan and the link.
    pub seed: u64,
}

impl Default for FaultParams {
    fn default() -> Self {
        Self {
            docs: 8,
            reads: 400,
            read_gap_micros: 5_000,
            // The middle half of the 2-second timeline is dark.
            outage_from: 500_000,
            outage_until: 1_500_000,
            seed: 7,
        }
    }
}

/// One mode's outcome under the shared fault schedule.
#[derive(Debug, Clone)]
pub struct FaultResult {
    /// The configuration measured.
    pub mode: ResilienceMode,
    /// Reads that returned bytes.
    pub served: u64,
    /// Reads that surfaced an error to the application.
    pub failed: u64,
    /// Full counter snapshot (retries, breaker trips, stale serves…).
    pub stats: CacheStats,
}

impl FaultResult {
    /// Fraction of reads that returned bytes.
    pub fn availability(&self) -> f64 {
        if self.served + self.failed == 0 {
            return 1.0;
        }
        self.served as f64 / (self.served + self.failed) as f64
    }
}

fn config_for(mode: ResilienceMode, params: &FaultParams) -> OriginConfig {
    let retries = OriginConfig::default().max_retries(2).breaker(true);
    match mode {
        ResilienceMode::Off => OriginConfig::default(),
        ResilienceMode::FlakyRetry => OriginConfig::default().max_retries(2),
        ResilienceMode::Breaker => retries,
        ResilienceMode::BreakerAndStale => retries
            // Entries are warmed just before t=0 and the outage ends well
            // inside the timeline, so this bound always covers the window.
            .serve_stale(StalenessBound::micros(
                params.outage_until + params.read_gap_micros,
            )),
    }
}

/// Runs one mode against the scripted outage and returns its outcome.
pub fn run_one(mode: ResilienceMode, params: FaultParams) -> FaultResult {
    let user = UserId(1);
    let clock = VirtualClock::new();
    let space = DocumentSpace::with_middleware_cost(clock.clone(), LatencyModel::FREE);
    let fs = MemFs::new(clock.clone());
    let link = Link::new(1_000, 10_000_000, 0.0, params.seed);
    let plan = FaultPlan::builder(params.seed);
    link.set_fault_plan(match mode {
        ResilienceMode::FlakyRetry => plan.error_rate(FLAKY_ERROR_RATE).build(),
        _ => plan.outage(params.outage_from, params.outage_until).build(),
    });
    let mut docs: Vec<DocumentId> = Vec::new();
    for i in 0..params.docs {
        let path = format!("/srv/doc-{i}");
        fs.create(&path, format!("document {i} body"));
        docs.push(space.create_document(user, FsProvider::new(fs.clone(), &path, link.clone())));
    }

    let cache = DocumentCache::new(
        space,
        CacheConfig::builder()
            .local_latency(LatencyModel::FREE)
            .shards(1)
            .origin(config_for(mode, &params))
            .build(),
    );

    // Warm pass: every document is resident before the clock reaches the
    // outage (provider fetches advance the clock by link RTT only).
    for &doc in &docs {
        let _ = cache.read(user, doc);
    }

    let mut served = 0;
    let mut failed = 0;
    for i in 0..params.reads {
        // Pin each read to its slot on the timeline; retries/backoff may
        // have advanced the clock past the slot, in which case the read
        // happens "late", exactly as a real client's would.
        let slot = placeless_simenv::Instant(i * params.read_gap_micros);
        if clock.now() < slot {
            clock.advance_to(slot);
        }
        let doc = docs[(i % params.docs) as usize];
        match cache.read(user, doc) {
            Ok(_) => served += 1,
            Err(_) => failed += 1,
        }
    }

    FaultResult {
        mode,
        served,
        failed,
        stats: cache.stats(),
    }
}

/// Runs every mode against the same schedule.
pub fn sweep(params: FaultParams) -> Vec<FaultResult> {
    ResilienceMode::ALL
        .iter()
        .map(|&mode| run_one(mode, params))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outage_degrades_the_unprotected_cache() {
        let result = run_one(ResilienceMode::Off, FaultParams::default());
        assert!(result.failed > 0, "the outage must be visible");
        assert!(result.availability() < 1.0);
        assert_eq!(result.stats.stale_served, 0);
        assert_eq!(result.stats.retries, 0);
    }

    #[test]
    fn serve_stale_masks_the_outage() {
        let result = run_one(ResilienceMode::BreakerAndStale, FaultParams::default());
        assert_eq!(result.failed, 0, "every read inside the bound is served");
        assert!(result.stats.stale_served > 0);
        assert!(result.stats.breaker_trips >= 1);
    }

    #[test]
    fn modes_rank_by_availability() {
        let results = sweep(FaultParams::default());
        let avail: Vec<f64> = results.iter().map(FaultResult::availability).collect();
        assert!(
            avail[2] > avail[0],
            "breaker+stale {} must beat off {}",
            avail[2],
            avail[0]
        );
        assert!(avail[2] >= avail[1]);
    }

    #[test]
    fn breaker_cuts_origin_attempts() {
        let breaker = run_one(ResilienceMode::Breaker, FaultParams::default());
        assert!(breaker.stats.breaker_trips >= 1);
        // Once open, fetches fast-fail without consuming retries.
        let unprotected_failures = run_one(ResilienceMode::Off, FaultParams::default()).failed;
        assert!(breaker.failed <= unprotected_failures + breaker.stats.retries);
    }

    #[test]
    fn retries_mask_a_flaky_origin() {
        let result = run_one(ResilienceMode::FlakyRetry, FaultParams::default());
        assert!(result.stats.retries > 0, "hint-less failures are retried");
        assert!(
            result.availability() > 1.0 - FLAKY_ERROR_RATE,
            "retries buy back more than the failure rate: {}",
            result.availability()
        );
    }

    #[test]
    fn identical_params_identical_stats() {
        let params = FaultParams::default();
        for mode in ResilienceMode::ALL {
            let a = run_one(mode, params);
            let b = run_one(mode, params);
            assert_eq!(a.stats, b.stats, "{mode:?} must replay exactly");
            assert_eq!((a.served, a.failed), (b.served, b.failed));
        }
    }
}
