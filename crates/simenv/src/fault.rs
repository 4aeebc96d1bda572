//! Deterministic fault injection for simulated links.
//!
//! A [`FaultPlan`] scripts failures against the virtual clock: error
//! windows, timeout windows, drop-next-N counters, a
//! partition toggle, scheduled partition windows, and an optional
//! per-operation error probability. All
//! randomness flows through a [`SimRng`] seeded at plan construction, so a
//! given plan replays the *exact* same failure sequence on every run —
//! resilience experiments are reproducible bit-for-bit.
//!
//! The plan is attached to a [`crate::latency::Link`]
//! ([`crate::latency::Link::set_fault_plan`]); providers consult it at the
//! start of every repository operation and verifier probe. Nothing in this
//! module knows about documents or caches: a fault is just "this operation
//! against this link fails (or slows down) now".

use crate::clock::VirtualClock;
use crate::rng::SimRng;
use parking_lot::Mutex;
use std::fmt;
use std::sync::Arc;

/// How an injected failure presents to the caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultErrorKind {
    /// The origin is unreachable (connection refused, partition, outage).
    Unavailable,
    /// The operation hung until a deadline elapsed.
    Timeout,
}

/// An injected failure, as surfaced to the component using the link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultError {
    /// The failure mode.
    pub kind: FaultErrorKind,
    /// A hint for when retrying might succeed (microseconds from now),
    /// when the plan knows (e.g. the end of a scripted outage window).
    pub retry_after: Option<u64>,
}

impl fmt::Display for FaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            FaultErrorKind::Unavailable => write!(f, "origin unavailable")?,
            FaultErrorKind::Timeout => write!(f, "operation timed out")?,
        }
        if let Some(after) = self.retry_after {
            write!(f, " (retry after {after}µs)")?;
        }
        Ok(())
    }
}

/// A half-open window `[from, until)` in virtual microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Window {
    from: u64,
    until: u64,
}

impl Window {
    fn contains(&self, t: u64) -> bool {
        self.from <= t && t < self.until
    }

    fn remaining(&self, t: u64) -> u64 {
        self.until.saturating_sub(t)
    }
}

/// Counters describing what a plan has injected so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Operations assessed against the plan.
    pub ops_assessed: u64,
    /// Operations failed (any [`FaultErrorKind`]).
    pub failures_injected: u64,
}

#[derive(Debug)]
struct PlanState {
    drop_next: u64,
    partitioned: bool,
    rng: SimRng,
    counters: FaultCounters,
}

/// A scripted, deterministic failure schedule for one simulated link.
///
/// Cloning a `FaultPlan` shares the underlying state (drop counters,
/// partition flag, RNG stream), mirroring how [`crate::latency::Link`]
/// clones share their jitter stream.
///
/// # Examples
///
/// ```
/// use placeless_simenv::fault::{FaultErrorKind, FaultPlan};
/// use placeless_simenv::VirtualClock;
///
/// let clock = VirtualClock::new();
/// let plan = FaultPlan::builder(7).outage(1_000, 2_000).build();
/// assert!(plan.assess(&clock).is_ok());
/// clock.advance(1_500);
/// let err = plan.assess(&clock).unwrap_err();
/// assert_eq!(err.kind, FaultErrorKind::Unavailable);
/// assert_eq!(err.retry_after, Some(500));
/// ```
#[derive(Debug, Clone)]
pub struct FaultPlan {
    outages: Arc<[Window]>,
    partitions: Arc<[Window]>,
    timeouts: Arc<[Window]>,
    error_rate: f64,
    retry_hint: Option<u64>,
    state: Arc<Mutex<PlanState>>,
}

impl FaultPlan {
    /// Starts building a plan whose probabilistic stream is seeded with
    /// `seed`.
    pub fn builder(seed: u64) -> FaultPlanBuilder {
        FaultPlanBuilder {
            outages: Vec::new(),
            partitions: Vec::new(),
            timeouts: Vec::new(),
            error_rate: 0.0,
            retry_hint: None,
            seed,
        }
    }

    /// Fails the next `n` operations with [`FaultErrorKind::Unavailable`],
    /// on top of whatever the schedule says.
    pub fn drop_next(&self, n: u64) {
        self.state.lock().drop_next += n;
    }

    /// Toggles a network partition: while set, every operation fails.
    pub fn set_partitioned(&self, partitioned: bool) {
        self.state.lock().partitioned = partitioned;
    }

    /// Returns a snapshot of what the plan has injected so far.
    pub fn counters(&self) -> FaultCounters {
        self.state.lock().counters
    }

    /// Assesses one operation at the current virtual time.
    ///
    /// On failure the caller decides what the failed attempt costs
    /// (typically one link round trip).
    pub fn assess(&self, clock: &VirtualClock) -> Result<(), FaultError> {
        let now = clock.now().as_micros();
        let mut state = self.state.lock();
        state.counters.ops_assessed += 1;
        let fail = |state: &mut PlanState, kind, retry_after| {
            state.counters.failures_injected += 1;
            Err(FaultError { kind, retry_after })
        };
        if state.partitioned {
            return fail(&mut state, FaultErrorKind::Unavailable, self.retry_hint);
        }
        if state.drop_next > 0 {
            state.drop_next -= 1;
            return fail(&mut state, FaultErrorKind::Unavailable, self.retry_hint);
        }
        if let Some(w) = self.partitions.iter().find(|w| w.contains(now)) {
            let after = Some(w.remaining(now));
            return fail(&mut state, FaultErrorKind::Unavailable, after);
        }
        if let Some(w) = self.timeouts.iter().find(|w| w.contains(now)) {
            let after = Some(w.remaining(now));
            return fail(&mut state, FaultErrorKind::Timeout, after);
        }
        if let Some(w) = self.outages.iter().find(|w| w.contains(now)) {
            let after = Some(w.remaining(now));
            return fail(&mut state, FaultErrorKind::Unavailable, after);
        }
        if self.error_rate > 0.0 && state.rng.chance(self.error_rate) {
            return fail(&mut state, FaultErrorKind::Unavailable, self.retry_hint);
        }
        Ok(())
    }
}

/// Builder for [`FaultPlan`]; obtain via [`FaultPlan::builder`].
#[derive(Debug, Clone)]
pub struct FaultPlanBuilder {
    outages: Vec<Window>,
    partitions: Vec<Window>,
    timeouts: Vec<Window>,
    error_rate: f64,
    retry_hint: Option<u64>,
    seed: u64,
}

impl FaultPlanBuilder {
    /// Schedules an unavailability window `[from, until)` in virtual
    /// microseconds.
    pub fn outage(mut self, from: u64, until: u64) -> Self {
        self.outages.push(Window { from, until });
        self
    }

    /// Schedules a network partition window `[from, until)` in virtual
    /// microseconds: operations inside it fail with
    /// [`FaultErrorKind::Unavailable`] and a `retry_after` hint pointing
    /// at the heal time. Semantically this is an outage whose cause is
    /// the network rather than the origin — kept as a separate schedule
    /// so experiments can script "partition one writer mid-flush" and
    /// report partition and outage effects independently.
    pub fn partition(mut self, from: u64, until: u64) -> Self {
        self.partitions.push(Window { from, until });
        self
    }

    /// Schedules a window in which every operation times out instead of
    /// erroring fast — the slow-failure mode that eats deadline budgets.
    pub fn timeout(mut self, from: u64, until: u64) -> Self {
        self.timeouts.push(Window { from, until });
        self
    }

    /// Sets a background per-operation failure probability, sampled from
    /// the plan's seeded RNG stream (deterministic per seed).
    pub fn error_rate(mut self, p: f64) -> Self {
        self.error_rate = p.clamp(0.0, 1.0);
        self
    }

    /// Sets the `retry_after` hint attached to failures that have no
    /// scheduled end (partition, drop-next, probabilistic errors).
    pub fn retry_hint(mut self, micros: u64) -> Self {
        self.retry_hint = Some(micros);
        self
    }

    /// Finishes the plan.
    pub fn build(self) -> FaultPlan {
        FaultPlan {
            outages: self.outages.into(),
            partitions: self.partitions.into(),
            timeouts: self.timeouts.into(),
            error_rate: self.error_rate,
            retry_hint: self.retry_hint,
            state: Arc::new(Mutex::new(PlanState {
                drop_next: 0,
                partitioned: false,
                rng: SimRng::seeded(self.seed ^ 0xFA11_FA11_FA11_FA11),
                counters: FaultCounters::default(),
            })),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_never_fails() {
        let clock = VirtualClock::new();
        let plan = FaultPlan::builder(0).build();
        for _ in 0..100 {
            assert!(plan.assess(&clock).is_ok());
            clock.advance(1_000);
        }
        assert_eq!(plan.counters().failures_injected, 0);
        assert_eq!(plan.counters().ops_assessed, 100);
    }

    #[test]
    fn outage_window_fails_with_remaining_hint() {
        let clock = VirtualClock::new();
        let plan = FaultPlan::builder(1).outage(100, 300).build();
        assert!(plan.assess(&clock).is_ok(), "before the window");
        clock.advance(150);
        let err = plan.assess(&clock).unwrap_err();
        assert_eq!(err.kind, FaultErrorKind::Unavailable);
        assert_eq!(err.retry_after, Some(150));
        clock.advance(150);
        assert!(plan.assess(&clock).is_ok(), "window end is exclusive");
    }

    #[test]
    fn timeout_window_fails_as_timeout() {
        let clock = VirtualClock::new();
        let plan = FaultPlan::builder(1).timeout(0, 50).build();
        let err = plan.assess(&clock).unwrap_err();
        assert_eq!(err.kind, FaultErrorKind::Timeout);
        assert_eq!(err.retry_after, Some(50));
    }

    #[test]
    fn drop_next_consumes_exactly_n() {
        let clock = VirtualClock::new();
        let plan = FaultPlan::builder(0).build();
        plan.drop_next(2);
        assert!(plan.assess(&clock).is_err());
        assert!(plan.assess(&clock).is_err());
        assert!(plan.assess(&clock).is_ok());
    }

    #[test]
    fn partition_toggles() {
        let clock = VirtualClock::new();
        let plan = FaultPlan::builder(1).retry_hint(500).build();
        plan.set_partitioned(true);
        let err = plan.assess(&clock).unwrap_err();
        assert_eq!(err.retry_after, Some(500));
        plan.set_partitioned(false);
        assert!(plan.assess(&clock).is_ok());
    }

    #[test]
    fn partition_window_fails_until_heal() {
        let clock = VirtualClock::new();
        let plan = FaultPlan::builder(1).partition(200, 600).build();
        assert!(plan.assess(&clock).is_ok(), "before the partition");
        clock.advance(250);
        let err = plan.assess(&clock).unwrap_err();
        assert_eq!(err.kind, FaultErrorKind::Unavailable);
        assert_eq!(err.retry_after, Some(350), "hint points at the heal");
        clock.advance(350);
        assert!(plan.assess(&clock).is_ok(), "healed at the window end");
    }

    #[test]
    fn error_rate_is_deterministic_per_seed() {
        let run = |seed| {
            let clock = VirtualClock::new();
            let plan = FaultPlan::builder(seed).error_rate(0.3).build();
            (0..200)
                .map(|_| plan.assess(&clock).is_err())
                .collect::<Vec<bool>>()
        };
        assert_eq!(run(9), run(9), "same seed, same failure sequence");
        assert_ne!(run(9), run(10), "different seeds diverge");
        let failures = run(9).iter().filter(|&&f| f).count();
        assert!((30..90).contains(&failures), "rate in the ballpark");
    }

    #[test]
    fn clones_share_state() {
        let clock = VirtualClock::new();
        let plan = FaultPlan::builder(0).build();
        let other = plan.clone();
        plan.drop_next(1);
        assert!(other.assess(&clock).is_err(), "clone sees the drop counter");
        assert!(plan.assess(&clock).is_ok());
        assert_eq!(plan.counters(), other.counters());
    }

    #[test]
    fn display_is_informative() {
        let err = FaultError {
            kind: FaultErrorKind::Timeout,
            retry_after: Some(42),
        };
        let s = err.to_string();
        assert!(s.contains("timed out") && s.contains("42"), "{s}");
    }
}
