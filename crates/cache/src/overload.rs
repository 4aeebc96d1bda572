//! Overload control: deadline-aware admission, adaptive concurrency, and
//! graceful brownout.
//!
//! Under a traffic burst the failure mode of a naive cache is *congestive
//! collapse*: every reader queues on its origin's window (the
//! crate-private `origin` module) forever, misses its deadline anyway, and still consumes a thread, a queue slot, and —
//! eventually — origin capacity. This module turns that cliff into a
//! ladder of controlled degradation:
//!
//! 1. **Deadline-aware admission** — before a reader is allowed to queue
//!    for an origin slot, the expected completion time (queue depth ÷
//!    concurrency × observed service time) is compared against the
//!    reader's remaining deadline budget. Doomed work is shed immediately
//!    with the non-transient
//!    [`PlacelessError::Overloaded`](placeless_core::error::PlacelessError::Overloaded)
//!    instead of being served late.
//! 2. **AIMD concurrency limits** — each origin's in-flight window width
//!    adapts to observed fetch latency: additive increase while fetches
//!    meet the latency target, multiplicative decrease when they exceed
//!    it. A slow origin sheds load instead of accumulating queues. The
//!    width and the latency estimate live in the origin's record, next to
//!    the slots they govern; this module holds the tuning.
//! 3. **Priority classes** — [`Priority::Foreground`] >
//!    [`Priority::Refresh`] > [`Priority::Prefetch`]; pressure sheds the
//!    lowest class first, so speculative sibling prefetches are the first
//!    casualties and interactive reads the last.
//! 4. **Brownout ladder** — sustained queue pressure walks
//!    [`BrownoutLevel`] upward (serve staler → skip stage-cache fills →
//!    shed prefetch → reject background work) and back down as pressure
//!    drains, with hysteresis and a minimum dwell between moves so the
//!    ladder cannot flap.
//!
//! Every decision is a pure function of the virtual clock, the queue
//! state, and the seeded configuration — shedding is deterministic and
//! replayable, which the overload proptests rely on.
//!
//! The subsystem is **opt-in**: with `overload: None` (the default) no
//! read is shed, no deadline instant is computed and no ladder exists,
//! which the parity tests pin.

use crate::resilience::StalenessBound;
use parking_lot::Mutex;
use placeless_simenv::Instant;

/// Scheduling class of a read, from most to least sheddable.
///
/// Ordering is by importance: `Prefetch < Refresh < Foreground`, so
/// "shed lowest first" is a plain `<` comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Priority {
    /// Speculative work (collection sibling prefetch): first to shed.
    Prefetch,
    /// Freshness maintenance (background revalidation): shed next.
    Refresh,
    /// An interactive user is waiting on this read: shed last.
    #[default]
    Foreground,
}

impl Priority {
    /// Stable lower-case label, used in stats tables and JSON output.
    pub fn label(self) -> &'static str {
        match self {
            Priority::Prefetch => "prefetch",
            Priority::Refresh => "refresh",
            Priority::Foreground => "foreground",
        }
    }
}

/// Rungs of the brownout ladder, from healthy to rejecting.
///
/// Each level implies every cheaper degradation below it: at
/// [`BrownoutLevel::ShedPrefetch`] the cache is also widening staleness
/// and skipping stage-cache fills.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum BrownoutLevel {
    /// No degradation.
    #[default]
    Normal,
    /// Serve stale copies within the configured brownout staleness bound
    /// instead of fetching.
    WidenStale,
    /// Compute stages but skip persisting intermediates to the stage
    /// cache (saves allocation and cache churn under pressure).
    SkipStageFills,
    /// Drop collection-sibling prefetches entirely.
    ShedPrefetch,
    /// Reject non-foreground misses outright with `Overloaded`;
    /// foreground reads remain subject to deadline-aware admission.
    Reject,
}

impl BrownoutLevel {
    const LADDER: [BrownoutLevel; 5] = [
        BrownoutLevel::Normal,
        BrownoutLevel::WidenStale,
        BrownoutLevel::SkipStageFills,
        BrownoutLevel::ShedPrefetch,
        BrownoutLevel::Reject,
    ];

    /// Numeric rung, 0 (normal) through 4 (reject).
    pub fn rung(self) -> u8 {
        self as u8
    }

    fn step_up(self) -> BrownoutLevel {
        let next = (self.rung() as usize + 1).min(Self::LADDER.len() - 1);
        Self::LADDER[next]
    }

    fn step_down(self) -> BrownoutLevel {
        let prev = (self.rung() as usize).saturating_sub(1);
        Self::LADDER[prev]
    }

    /// Whether stale serving should widen to the brownout bound.
    pub fn widens_stale(self) -> bool {
        self >= BrownoutLevel::WidenStale
    }

    /// Whether stage-cache fills should be skipped.
    pub fn skips_stage_fills(self) -> bool {
        self >= BrownoutLevel::SkipStageFills
    }

    /// Whether collection prefetch should be shed.
    pub fn sheds_prefetch(self) -> bool {
        self >= BrownoutLevel::ShedPrefetch
    }

    /// Whether non-foreground misses are rejected outright.
    pub fn rejects_background(self) -> bool {
        self >= BrownoutLevel::Reject
    }
}

/// Tuning for the overload subsystem; enable via
/// [`CacheConfig::overload`](crate::manager::CacheConfig::overload).
///
/// All times are virtual microseconds. The defaults suit the simulated
/// origins used in tests and experiments; production deployments should
/// start from the observed origin latency distribution (set
/// `target_fetch_micros` near the healthy p90) and the interactive
/// deadline (leave `expected_service_micros` at the healthy mean so cold
/// admission is neither credulous nor paranoid).
#[derive(Debug, Clone)]
pub struct OverloadConfig {
    /// AIMD latency target: fetches slower than this shrink the origin's
    /// window, faster ones grow it.
    pub target_fetch_micros: u64,
    /// Floor for the adaptive per-origin window.
    pub min_inflight: u32,
    /// Ceiling (and initial width) for the adaptive per-origin window.
    pub max_inflight: u32,
    /// Prior for expected service time before the per-origin EWMA warms.
    pub expected_service_micros: u64,
    /// Queue pressure (readers parked on origin windows) at or above
    /// which the brownout ladder steps up one rung.
    pub brownout_enter_waiters: u64,
    /// Pressure at or below which the ladder steps back down. Must be
    /// below `brownout_enter_waiters` to give the ladder hysteresis.
    pub brownout_exit_waiters: u64,
    /// Minimum virtual time between ladder moves (dwell), so one noisy
    /// sample cannot flap the level.
    pub brownout_dwell_micros: u64,
    /// Staleness bound used while the ladder is at
    /// [`BrownoutLevel::WidenStale`] or above; `None` falls back to the
    /// resilience `serve_stale` bound.
    pub brownout_stale: Option<StalenessBound>,
    /// `retry_after` hint attached to `Overloaded` rejections.
    pub retry_after_micros: u64,
}

impl Default for OverloadConfig {
    fn default() -> Self {
        Self {
            target_fetch_micros: 5_000,
            min_inflight: 1,
            max_inflight: 8,
            expected_service_micros: 2_000,
            brownout_enter_waiters: 8,
            brownout_exit_waiters: 2,
            brownout_dwell_micros: 10_000,
            brownout_stale: None,
            retry_after_micros: 10_000,
        }
    }
}

impl OverloadConfig {
    /// Sets the AIMD latency target.
    pub fn target_fetch_micros(mut self, micros: u64) -> Self {
        self.target_fetch_micros = micros.max(1);
        self
    }

    /// Sets the adaptive window floor and ceiling (both clamped ≥ 1).
    pub fn inflight_bounds(mut self, min: u32, max: u32) -> Self {
        self.min_inflight = min.max(1);
        self.max_inflight = max.max(self.min_inflight);
        self
    }

    /// Sets the cold-start expected service time used by admission.
    pub fn expected_service_micros(mut self, micros: u64) -> Self {
        self.expected_service_micros = micros.max(1);
        self
    }

    /// Sets the brownout enter/exit pressure thresholds (hysteresis).
    pub fn brownout_waiters(mut self, enter: u64, exit: u64) -> Self {
        self.brownout_enter_waiters = enter.max(1);
        self.brownout_exit_waiters = exit.min(enter.saturating_sub(1));
        self
    }

    /// Sets the minimum virtual dwell between ladder moves.
    pub fn brownout_dwell_micros(mut self, micros: u64) -> Self {
        self.brownout_dwell_micros = micros;
        self
    }

    /// Sets the widened staleness bound for brownout stale serving.
    pub fn brownout_stale(mut self, bound: StalenessBound) -> Self {
        self.brownout_stale = Some(bound);
        self
    }

    /// Sets the `retry_after` hint attached to shed requests.
    pub fn retry_after_micros(mut self, micros: u64) -> Self {
        self.retry_after_micros = micros.max(1);
        self
    }
}

/// Expected completion time for a new arrival at an origin window:
/// `queued_ahead` readers are already parked, `limit` slots drain the
/// queue, and each service takes `service_micros`. The arrival completes
/// after its own service plus however many full drain rounds precede it.
///
/// This is the admission predicate's left-hand side: a reader whose
/// remaining deadline budget is smaller than this is doomed and gets
/// shed instead of queued.
pub fn expected_completion_micros(queued_ahead: u64, limit: u32, service_micros: u64) -> u64 {
    let rounds = queued_ahead / u64::from(limit.max(1)) + 1;
    rounds.saturating_mul(service_micros.max(1))
}

struct ControllerState {
    level: BrownoutLevel,
    /// Virtual instant of the last ladder move, for dwell enforcement.
    shifted_at: Instant,
}

/// Runtime state of the overload subsystem: the brownout ladder, over
/// the configuration. One per cache; all methods are thread-safe and
/// deterministic given the same sequence of (virtual time, pressure)
/// inputs.
pub(crate) struct OverloadController {
    config: OverloadConfig,
    state: Mutex<ControllerState>,
}

impl OverloadController {
    pub(crate) fn new(config: OverloadConfig) -> Self {
        Self {
            state: Mutex::new(ControllerState {
                level: BrownoutLevel::Normal,
                shifted_at: Instant(0),
            }),
            config,
        }
    }

    pub(crate) fn config(&self) -> &OverloadConfig {
        &self.config
    }

    /// Current brownout level.
    pub(crate) fn level(&self) -> BrownoutLevel {
        self.state.lock().level
    }

    /// Feeds the ladder one pressure sample (`waiters` readers parked on
    /// origin windows) at virtual time `now`. Steps at most one rung per
    /// dwell period: up when pressure is at or above the enter
    /// threshold, down when at or below the exit threshold. Returns the
    /// `(from, to)` pair when the level moved, for stats accounting.
    pub(crate) fn observe_pressure(
        &self,
        now: Instant,
        waiters: u64,
    ) -> Option<(BrownoutLevel, BrownoutLevel)> {
        let mut state = self.state.lock();
        let dwelled = now.since(state.shifted_at) >= self.config.brownout_dwell_micros;
        if !dwelled && state.shifted_at.as_micros() != 0 {
            return None;
        }
        let from = state.level;
        let to = if waiters >= self.config.brownout_enter_waiters {
            from.step_up()
        } else if waiters <= self.config.brownout_exit_waiters {
            from.step_down()
        } else {
            from
        };
        if to == from {
            return None;
        }
        state.level = to;
        state.shifted_at = now;
        Some((from, to))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn priority_orders_by_importance() {
        assert!(Priority::Prefetch < Priority::Refresh);
        assert!(Priority::Refresh < Priority::Foreground);
        assert_eq!(Priority::default(), Priority::Foreground);
        assert_eq!(Priority::Prefetch.label(), "prefetch");
    }

    #[test]
    fn ladder_steps_saturate_at_both_ends() {
        assert_eq!(BrownoutLevel::Normal.step_down(), BrownoutLevel::Normal);
        assert_eq!(BrownoutLevel::Reject.step_up(), BrownoutLevel::Reject);
        assert_eq!(
            BrownoutLevel::WidenStale.step_up(),
            BrownoutLevel::SkipStageFills
        );
        assert!(BrownoutLevel::Reject.widens_stale());
        assert!(BrownoutLevel::Reject.sheds_prefetch());
        assert!(!BrownoutLevel::WidenStale.skips_stage_fills());
    }

    #[test]
    fn expected_completion_counts_drain_rounds() {
        // Empty queue: one service time.
        assert_eq!(expected_completion_micros(0, 4, 1_000), 1_000);
        // 7 ahead, 4 slots: one full round ahead of us, then ours.
        assert_eq!(expected_completion_micros(7, 4, 1_000), 2_000);
        // Zero-width limits are clamped rather than dividing by zero.
        assert_eq!(expected_completion_micros(3, 0, 1_000), 4_000);
    }

    #[test]
    fn ladder_has_hysteresis_and_dwell() {
        let ctrl = OverloadController::new(
            OverloadConfig::default()
                .brownout_waiters(8, 2)
                .brownout_dwell_micros(1_000),
        );
        // First sample may move immediately (nothing to dwell from).
        assert_eq!(
            ctrl.observe_pressure(Instant(10), 9),
            Some((BrownoutLevel::Normal, BrownoutLevel::WidenStale))
        );
        // Within the dwell: no move even under pressure.
        assert_eq!(ctrl.observe_pressure(Instant(500), 100), None);
        // After the dwell: one rung at a time.
        assert_eq!(
            ctrl.observe_pressure(Instant(1_100), 100),
            Some((BrownoutLevel::WidenStale, BrownoutLevel::SkipStageFills))
        );
        // Pressure between exit and enter thresholds: hold steady.
        assert_eq!(ctrl.observe_pressure(Instant(3_000), 5), None);
        assert_eq!(ctrl.level(), BrownoutLevel::SkipStageFills);
        // Pressure drains: step back down.
        assert_eq!(
            ctrl.observe_pressure(Instant(5_000), 0),
            Some((BrownoutLevel::SkipStageFills, BrownoutLevel::WidenStale))
        );
    }
}
