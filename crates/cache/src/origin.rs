//! Per-origin state: one record per origin, one table of them per cache.
//!
//! The cache fronts many repositories at once, and everything it knows
//! *about* one of them — is it failing, how many operations may run
//! against it, how slow is it — lives in that origin's [`Origin`] record:
//! the circuit breaker the retry driver consults, and the **gate**, a
//! bounded window of concurrently running operations whose width AIMD
//! adapts to the observed fetch latency under overload control. A miss
//! storm that single-flight cannot coalesce (distinct keys, one origin)
//! queues at the gate instead of stampeding the origin.
//!
//! [`Origins`] maps an origin key to its record. A caller resolves the
//! `Arc<Origin>` once and then works on `&Origin`: no later step hashes
//! or allocates the key again. [`Origins::enter`] is the only way into a
//! window, and the [`Slot`] it returns leaves on `Drop` — so a fetch that
//! unwinds through a panicking property still frees its slot.
//!
//! Every lock here is a **leaf** in the manager's lock order: the table
//! lock covers one map lookup, a breaker lock one state transition, a
//! gate lock one counter update; no shard lock and no second origin lock
//! is ever requested while one is held, and a reader parked on a full
//! window holds no lock at all. A slot is held for a single origin
//! attempt, never across a flight wait for another key's leader, so slot
//! waits always terminate.
//!
//! Every decision is a function of the virtual clock, the gate's counters
//! and the configuration, so breaker transitions and shed verdicts replay
//! exactly under a fixed fault plan.

use crate::overload::{expected_completion_micros, OverloadConfig};
use crate::resilience::{BreakerConfig, BreakerState};
use crate::singleflight::lock;
use crate::stats::AtomicCacheStats;
use placeless_simenv::{Instant, VirtualClock};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};

/// One origin's breaker bookkeeping.
#[derive(Debug)]
struct Breaker {
    state: BreakerState,
    consecutive_failures: u32,
    opened_at: Instant,
    half_open_successes: u32,
}

/// The breaker's answer to "may an operation contact this origin now?".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Admission {
    /// Contact the origin normally.
    Allow,
    /// Contact the origin as a half-open probe.
    Probe,
    /// Do not contact the origin; `retry_after` is the remaining
    /// cool-down in virtual µs.
    Reject { retry_after: u64 },
}

/// One origin's window of concurrently running operations.
#[derive(Debug, Default)]
struct Gate {
    /// Operations currently holding a slot.
    inflight: u32,
    /// Operations parked waiting for a slot (admission math).
    queued: u32,
    /// The AIMD width; `None` until the first observed fetch, and the
    /// configured static width applies until then.
    limit: Option<u32>,
    /// EWMA of observed fetch latency (µs); 0 means "no samples yet".
    ewma_micros: u64,
}

impl Gate {
    /// The current window width, given the static `width`.
    fn width(&self, width: u32) -> u32 {
        self.limit.unwrap_or(width)
    }

    /// Claims a slot if one is free.
    fn try_claim(&mut self, width: u32) -> bool {
        let free = self.inflight < self.width(width);
        if free {
            self.inflight += 1;
        }
        free
    }

    /// Expected service time of one fetch: the EWMA, or the configured
    /// prior before any sample lands.
    fn expected_service_micros(&self, config: &OverloadConfig) -> u64 {
        let expected = match self.ewma_micros {
            0 => config.expected_service_micros,
            ewma => ewma,
        };
        expected.max(1)
    }

    /// Records one completed fetch and returns the new AIMD width,
    /// stepping from `max_inflight` on the first observation:
    /// multiplicative decrease when the observation exceeds the latency
    /// target, additive increase otherwise.
    fn observe(&mut self, config: &OverloadConfig, observed_micros: u64) -> u32 {
        self.ewma_micros = if self.ewma_micros == 0 {
            observed_micros.max(1)
        } else {
            // 3/4 old + 1/4 new: smooth enough to ride out one outlier,
            // fast enough to track a regime change within a few fetches.
            ((self.ewma_micros * 3 + observed_micros) / 4).max(1)
        };
        let limit = self.limit.unwrap_or(config.max_inflight);
        let limit = if observed_micros > config.target_fetch_micros {
            (limit / 2).max(config.min_inflight)
        } else {
            (limit + 1).min(config.max_inflight)
        };
        self.limit = Some(limit);
        limit
    }
}

/// Everything the cache knows about one origin; see the module docs.
#[derive(Debug)]
pub(crate) struct Origin {
    key: String,
    breaker: parking_lot::Mutex<Breaker>,
    gate: Mutex<Gate>,
    /// Signalled when this origin's window gains a free slot.
    freed: Condvar,
}

impl Origin {
    fn new(key: String) -> Self {
        Self {
            key,
            breaker: parking_lot::Mutex::new(Breaker {
                state: BreakerState::Closed,
                consecutive_failures: 0,
                opened_at: Instant(0),
                half_open_successes: 0,
            }),
            gate: Mutex::new(Gate::default()),
            freed: Condvar::new(),
        }
    }

    /// The key this origin goes by (`BitProvider::origin_key`).
    pub(crate) fn key(&self) -> &str {
        &self.key
    }

    /// Returns the breaker's current state.
    pub(crate) fn breaker_state(&self) -> BreakerState {
        self.breaker.lock().state
    }

    /// Asks whether an operation against this origin may proceed at `now`.
    ///
    /// An `Open` breaker whose cool-down has elapsed transitions to
    /// `HalfOpen` here and admits the caller as a probe.
    pub(crate) fn admit(&self, config: &BreakerConfig, now: Instant) -> Admission {
        let mut breaker = self.breaker.lock();
        match breaker.state {
            BreakerState::Closed => Admission::Allow,
            BreakerState::HalfOpen => Admission::Probe,
            BreakerState::Open => {
                let elapsed = now
                    .as_micros()
                    .saturating_sub(breaker.opened_at.as_micros());
                if elapsed >= config.open_micros {
                    breaker.state = BreakerState::HalfOpen;
                    breaker.half_open_successes = 0;
                    Admission::Probe
                } else {
                    Admission::Reject {
                        retry_after: config.open_micros - elapsed,
                    }
                }
            }
        }
    }

    /// Records a successful operation against this origin.
    pub(crate) fn record_success(&self, config: &BreakerConfig) {
        let mut breaker = self.breaker.lock();
        match breaker.state {
            BreakerState::Closed => breaker.consecutive_failures = 0,
            BreakerState::HalfOpen => {
                breaker.half_open_successes += 1;
                if breaker.half_open_successes >= config.half_open_probes {
                    breaker.state = BreakerState::Closed;
                    breaker.consecutive_failures = 0;
                }
            }
            // A success while open can only come from an operation
            // admitted before the breaker tripped; it closes nothing.
            BreakerState::Open => {}
        }
    }

    /// Records a transient failure against this origin at `now`. Returns
    /// `true` if this failure tripped the breaker open.
    pub(crate) fn record_failure(&self, config: &BreakerConfig, now: Instant) -> bool {
        let mut breaker = self.breaker.lock();
        let trips = match breaker.state {
            BreakerState::Closed => {
                breaker.consecutive_failures += 1;
                breaker.consecutive_failures >= config.failure_threshold
            }
            // A failed probe re-opens immediately and restarts the
            // cool-down.
            BreakerState::HalfOpen => true,
            BreakerState::Open => false,
        };
        if trips {
            breaker.state = BreakerState::Open;
            breaker.opened_at = now;
        }
        trips
    }
}

/// [`Origins::enter`] refused the operation: its remaining deadline
/// budget could not cover the expected queue wait plus service time, or
/// the deadline lapsed while it was parked. No slot is held.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Shed;

/// The table of origin records, the window configuration they share, and
/// the cache-wide gauges over them.
pub(crate) struct Origins {
    table: parking_lot::Mutex<HashMap<String, Arc<Origin>>>,
    /// Static window width; `None` means no window: operations run
    /// unbounded and [`Origins::enter`] resolves no origin.
    width: Option<u32>,
    /// Overload control's AIMD and admission tuning, when configured.
    overload: Option<OverloadConfig>,
    /// Operations parked on any origin's window (the brownout pressure
    /// gauge; atomic so sampling takes no gate lock).
    queued: AtomicU64,
    /// Origin fetches currently running (gauge feeding `inflight_peak`).
    running: AtomicU64,
}

impl Origins {
    /// How long a parked reader sleeps between deadline re-checks.
    /// Wall-clock, not virtual: the virtual clock only moves when some
    /// thread advances it, so parked readers must poll it to notice a
    /// deadline that lapsed without a slot being freed.
    const QUEUE_POLL: std::time::Duration = std::time::Duration::from_millis(1);

    /// Creates an empty table. `max_inflight` bounds each origin's
    /// window (clamped to at least 1 — a zero-wide window would admit
    /// nothing and hang the first fetch); overload control needs a window
    /// to meter admission through, so without a static bound its
    /// `max_inflight` ceiling is the width.
    pub(crate) fn new(max_inflight: Option<u32>, overload: Option<OverloadConfig>) -> Self {
        let width = max_inflight.or_else(|| overload.as_ref().map(|config| config.max_inflight));
        Self {
            table: parking_lot::Mutex::new(HashMap::new()),
            width: width.map(|width| width.max(1)),
            overload,
            queued: AtomicU64::new(0),
            running: AtomicU64::new(0),
        }
    }

    /// Returns `key`'s record, creating it on first sight.
    pub(crate) fn get(&self, key: String) -> Arc<Origin> {
        let mut table = self.table.lock();
        if let Some(origin) = table.get(&key) {
            return Arc::clone(origin);
        }
        let origin = Arc::new(Origin::new(key.clone()));
        table.insert(key, Arc::clone(&origin));
        origin
    }

    /// Returns `key`'s record if any operation ever resolved it.
    pub(crate) fn peek(&self, key: &str) -> Option<Arc<Origin>> {
        self.table.lock().get(key).cloned()
    }

    /// Operations currently parked on any origin's window.
    pub(crate) fn queued(&self) -> u64 {
        self.queued.load(Ordering::SeqCst)
    }

    /// Origin fetches currently running.
    pub(crate) fn running(&self) -> u64 {
        self.running.load(Ordering::Relaxed)
    }

    /// Admits one origin operation. With a window configured this claims
    /// a slot of `origin`'s window first, parking (holding no lock) while
    /// the window is full; without one, `origin` is never called.
    ///
    /// `deadline_at` makes the claim deadline-aware. On arrival at a full
    /// window the expected completion time (queue depth ÷ window width ×
    /// expected service time, see [`expected_completion_micros`]) is
    /// compared against the budget remaining until `deadline_at`, and a
    /// doomed operation is shed without queueing. While parked, the
    /// operation re-checks the virtual clock (woken by a leaving slot, or
    /// every [`Self::QUEUE_POLL`] of wall time otherwise) and sheds the
    /// moment its deadline lapses — never served late. `None` never
    /// sheds. The virtual time spent parked is charged to
    /// `queue_wait_micros` either way.
    ///
    /// `fetch` marks a miss fetch, as opposed to a flush write: fetches
    /// are counted in the running gauge behind `inflight_peak`, and under
    /// overload control their service time is the AIMD observation. A
    /// group write's duration says nothing about `target_fetch_micros`.
    pub(crate) fn enter<'a>(
        &'a self,
        origin: impl FnOnce() -> &'a Origin,
        clock: &'a VirtualClock,
        deadline_at: Option<Instant>,
        fetch: bool,
        stats: &AtomicCacheStats,
    ) -> Result<Slot<'a>, Shed> {
        let origin = match self.width {
            None => None,
            Some(width) => {
                let origin = origin();
                let (admitted, queued_micros) = self.claim(origin, width, clock, deadline_at);
                AtomicCacheStats::add(&stats.queue_wait_micros, queued_micros);
                if !admitted {
                    return Err(Shed);
                }
                Some(origin)
            }
        };
        if fetch {
            let running = self.running.fetch_add(1, Ordering::Relaxed) + 1;
            stats.inflight_peak.fetch_max(running, Ordering::Relaxed);
        }
        let observe = match (&self.overload, origin) {
            (Some(config), Some(_)) if fetch => Some((config, clock.now())),
            _ => None,
        };
        Ok(Slot {
            origin,
            clock,
            running: fetch.then_some(&self.running),
            observe,
        })
    }

    /// Claims a slot of `origin`'s window, parking until one is free or
    /// the deadline rules it out. Returns whether a slot is now held, and
    /// the virtual time spent parked (0 when decided on arrival).
    fn claim(
        &self,
        origin: &Origin,
        width: u32,
        clock: &VirtualClock,
        deadline_at: Option<Instant>,
    ) -> (bool, u64) {
        let arrived = clock.now();
        let mut gate = lock(&origin.gate);
        if gate.try_claim(width) {
            return (true, 0);
        }
        if let (Some(deadline_at), Some(config)) = (deadline_at, &self.overload) {
            let remaining = deadline_at.since(arrived);
            let expected = expected_completion_micros(
                u64::from(gate.queued),
                gate.width(width),
                gate.expected_service_micros(config),
            );
            if remaining == 0 || expected > remaining {
                return (false, 0);
            }
        }
        gate.queued += 1;
        self.queued.fetch_add(1, Ordering::SeqCst);
        let admitted = loop {
            if gate.try_claim(width) {
                break true;
            }
            if deadline_at.is_some_and(|deadline_at| clock.now() >= deadline_at) {
                break false;
            }
            let freed = &origin.freed;
            gate = match deadline_at {
                Some(_) => {
                    freed
                        .wait_timeout(gate, Self::QUEUE_POLL)
                        .unwrap_or_else(PoisonError::into_inner)
                        .0
                }
                None => freed.wait(gate).unwrap_or_else(PoisonError::into_inner),
            };
        };
        gate.queued -= 1;
        self.queued.fetch_sub(1, Ordering::SeqCst);
        (admitted, clock.now().since(arrived))
    }
}

/// One admitted origin operation; leaving is `Drop`, so the slot is freed
/// however the operation ends. Under the gate lock that owns the window
/// width, leaving also feeds a fetch's service time to AIMD, and then
/// wakes the readers parked on *this* origin, if any: each counted itself
/// in `queued` under that lock before it waited. The observation is
/// virtual-clock time, which under concurrency includes advances charged
/// by other threads; AIMD only needs the signal to rise under load and
/// fall when it drains, and it does.
pub(crate) struct Slot<'a> {
    /// The origin whose window slot this holds; `None` without a window.
    origin: Option<&'a Origin>,
    clock: &'a VirtualClock,
    /// The running gauge a fetch is counted in; `None` for a flush write.
    running: Option<&'a AtomicU64>,
    /// The AIMD observation a fetch owes its origin's window on leaving:
    /// the tuning, and when the fetch was admitted.
    observe: Option<(&'a OverloadConfig, Instant)>,
}

impl Slot<'_> {
    /// Leaves (once); returns whether a parked reader was there to wake.
    fn release(&mut self) -> bool {
        if let Some(running) = self.running.take() {
            running.fetch_sub(1, Ordering::Relaxed);
        }
        let Some(origin) = self.origin.take() else {
            return false;
        };
        let mut gate = lock(&origin.gate);
        gate.inflight = gate.inflight.saturating_sub(1);
        if let Some((config, admitted_at)) = self.observe {
            gate.observe(config, self.clock.now().since(admitted_at));
        }
        let parked = gate.queued > 0;
        drop(gate);
        if parked {
            origin.freed.notify_all();
        }
        parked
    }
}

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        self.release();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::overload::OverloadController;
    use std::sync::atomic::AtomicUsize;
    use std::thread;
    use std::time::Duration;

    fn origin(key: &str) -> Origin {
        Origin::new(key.to_owned())
    }

    #[test]
    fn breaker_trips_after_threshold_and_recovers() {
        let config = BreakerConfig {
            failure_threshold: 2,
            open_micros: 1_000,
            half_open_probes: 1,
        };
        let web = origin("web");
        assert_eq!(web.admit(&config, Instant(0)), Admission::Allow);
        assert!(!web.record_failure(&config, Instant(10)));
        assert!(
            web.record_failure(&config, Instant(20)),
            "second failure trips"
        );
        assert_eq!(web.breaker_state(), BreakerState::Open);

        // While open, fetches are rejected with the remaining cool-down.
        assert_eq!(
            web.admit(&config, Instant(120)),
            Admission::Reject { retry_after: 900 }
        );

        // After the cool-down, one probe is admitted.
        assert_eq!(web.admit(&config, Instant(1_020)), Admission::Probe);
        assert_eq!(web.breaker_state(), BreakerState::HalfOpen);
        web.record_success(&config);
        assert_eq!(web.breaker_state(), BreakerState::Closed);
        assert_eq!(web.admit(&config, Instant(1_030)), Admission::Allow);
    }

    #[test]
    fn failed_probe_reopens_the_breaker() {
        let config = BreakerConfig {
            failure_threshold: 1,
            open_micros: 100,
            half_open_probes: 1,
        };
        let dms = origin("dms");
        assert!(dms.record_failure(&config, Instant(0)));
        assert_eq!(dms.admit(&config, Instant(100)), Admission::Probe);
        assert!(dms.record_failure(&config, Instant(110)), "probe failed");
        assert_eq!(dms.breaker_state(), BreakerState::Open);
        assert_eq!(
            dms.admit(&config, Instant(150)),
            Admission::Reject { retry_after: 60 },
            "cool-down restarted at the failed probe"
        );
        assert!(
            !dms.record_failure(&config, Instant(160)),
            "an open breaker cannot trip again"
        );
    }

    #[test]
    fn breakers_are_per_origin() {
        let config = BreakerConfig {
            failure_threshold: 1,
            open_micros: 1_000,
            half_open_probes: 1,
        };
        let origins = Origins::new(None, None);
        let a = origins.get("web-a".into());
        a.record_failure(&config, Instant(0));
        assert_eq!(a.breaker_state(), BreakerState::Open);
        assert!(origins.peek("web-b").is_none(), "never seen, so Closed");
        let b = origins.get("web-b".into());
        assert_eq!(b.breaker_state(), BreakerState::Closed);
        assert_eq!(b.admit(&config, Instant(1)), Admission::Allow);
        assert!(Arc::ptr_eq(&a, &origins.get("web-a".into())), "one record");
    }

    #[test]
    fn success_resets_the_failure_streak() {
        let config = BreakerConfig {
            failure_threshold: 2,
            open_micros: 1_000,
            half_open_probes: 1,
        };
        let web = origin("web");
        web.record_failure(&config, Instant(0));
        web.record_success(&config);
        assert!(
            !web.record_failure(&config, Instant(10)),
            "streak restarted after the success"
        );
        assert_eq!(web.breaker_state(), BreakerState::Closed);
    }

    #[test]
    fn multiple_half_open_probes_required_when_configured() {
        let config = BreakerConfig {
            failure_threshold: 1,
            open_micros: 100,
            half_open_probes: 2,
        };
        let web = origin("web");
        web.record_failure(&config, Instant(0));
        assert_eq!(web.admit(&config, Instant(100)), Admission::Probe);
        web.record_success(&config);
        assert_eq!(
            web.breaker_state(),
            BreakerState::HalfOpen,
            "one probe is not enough"
        );
        web.record_success(&config);
        assert_eq!(web.breaker_state(), BreakerState::Closed);
    }

    /// Enters `origin`'s window as a fetch with no deadline.
    fn enter<'a>(
        origins: &'a Origins,
        origin: &'a Origin,
        clock: &'a VirtualClock,
        stats: &AtomicCacheStats,
    ) -> Slot<'a> {
        origins
            .enter(|| origin, clock, None, true, stats)
            .expect("no deadline never sheds")
    }

    #[test]
    fn window_bounds_concurrency_per_origin() {
        let origins = Origins::new(Some(2), None);
        let a = origins.get("origin-a".into());
        let (clock, stats) = (VirtualClock::new(), AtomicCacheStats::default());
        let running = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    let _slot = enter(&origins, &a, &clock, &stats);
                    let now = running.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    thread::sleep(Duration::from_millis(2));
                    running.fetch_sub(1, Ordering::SeqCst);
                });
            }
        });
        assert!(peak.load(Ordering::SeqCst) <= 2, "window overshot");
        assert!(stats.snapshot().inflight_peak <= 2);
        assert_eq!((origins.running(), origins.queued()), (0, 0));
    }

    #[test]
    fn window_is_per_origin() {
        let origins = Origins::new(Some(1), None);
        let (a, b) = (
            origins.get("origin-a".into()),
            origins.get("origin-b".into()),
        );
        let (clock, stats) = (VirtualClock::new(), AtomicCacheStats::default());
        let _a = enter(&origins, &a, &clock, &stats);
        // A different origin is admitted immediately even though
        // origin-a's window is full.
        let _b = enter(&origins, &b, &clock, &stats);
    }

    #[test]
    fn no_window_resolves_no_origin() {
        let origins = Origins::new(None, None);
        let (clock, stats) = (VirtualClock::new(), AtomicCacheStats::default());
        let slot = origins
            .enter(
                || -> &Origin { panic!("no window, so no origin is needed") },
                &clock,
                None,
                true,
                &stats,
            )
            .expect("admitted");
        assert_eq!(origins.running(), 1, "the fetch is still counted");
        drop(slot);
        assert_eq!(origins.running(), 0);
    }

    #[test]
    fn observed_width_overrides_one_origin_and_persists_when_idle() {
        let config = OverloadConfig::default().inflight_bounds(1, 2);
        let origins = Origins::new(Some(1), Some(config));
        let (a, b) = (
            origins.get("origin-a".into()),
            origins.get("origin-b".into()),
        );
        let (clock, stats) = (VirtualClock::new(), AtomicCacheStats::default());
        // One fast fetch steps origin-a's width from `max_inflight`.
        drop(enter(&origins, &a, &clock, &stats));
        assert_eq!(lock(&a.gate).width(1), 2);
        assert_eq!(lock(&b.gate).width(1), 1, "others keep the static width");
        let first = enter(&origins, &a, &clock, &stats);
        let second = enter(&origins, &a, &clock, &stats);
        drop((first, second));
        // The override survives the origin going idle.
        assert_eq!(lock(&a.gate).width(1), 2);
        assert_eq!(lock(&a.gate).inflight, 0);
    }

    #[test]
    fn flush_writes_hold_a_slot_but_feed_neither_aimd_nor_the_gauge() {
        let origins = Origins::new(Some(1), Some(OverloadConfig::default()));
        let a = origins.get("origin-a".into());
        let (clock, stats) = (VirtualClock::new(), AtomicCacheStats::default());
        let slot = origins
            .enter(|| &a, &clock, None, false, &stats)
            .expect("no deadline never sheds");
        assert_eq!(lock(&a.gate).inflight, 1);
        assert_eq!(origins.running(), 0);
        drop(slot);
        assert_eq!(lock(&a.gate).inflight, 0);
        assert_eq!(lock(&a.gate).limit, None, "no observation was fed");
    }

    #[test]
    fn acquire_until_sheds_doomed_arrivals_without_queueing() {
        let config = OverloadConfig::default()
            .expected_service_micros(5_000)
            .inflight_bounds(1, 1);
        let origins = Origins::new(Some(1), Some(config));
        let o = origins.get("o".into());
        let (clock, stats) = (VirtualClock::new(), AtomicCacheStats::default());
        let holder = enter(&origins, &o, &clock, &stats);
        // Budget 1000µs, expected service 5000µs: doomed on arrival.
        let deadline = Some(clock.now().plus(1_000));
        assert!(matches!(
            origins.enter(|| &o, &clock, deadline, true, &stats),
            Err(Shed)
        ));
        assert_eq!(origins.queued(), 0, "shed arrivals never park");
        // Without a deadline the same arrival would have queued; with a
        // generous budget and a free slot it is admitted instantly.
        drop(holder);
        assert!(origins.enter(|| &o, &clock, deadline, true, &stats).is_ok());
        assert_eq!(stats.snapshot().queue_wait_micros, 0);
    }

    #[test]
    fn queued_reader_sheds_when_virtual_deadline_lapses() {
        let config = OverloadConfig::default().expected_service_micros(5_000);
        let origins = Origins::new(Some(1), Some(config));
        let o = origins.get("o".into());
        let (clock, stats) = (VirtualClock::new(), AtomicCacheStats::default());
        let _holder = enter(&origins, &o, &clock, &stats);
        thread::scope(|scope| {
            let parked = scope.spawn(|| {
                // Budget 10000µs covers one expected service, so the
                // reader queues rather than shedding on arrival.
                let deadline = Some(clock.now().plus(10_000));
                origins
                    .enter(|| &o, &clock, deadline, true, &stats)
                    .map(drop)
            });
            while origins.queued() < 1 {
                thread::sleep(Duration::from_millis(1));
            }
            // The slot never frees; the virtual clock passes the deadline.
            clock.advance(20_000);
            assert_eq!(parked.join().expect("no panic"), Err(Shed));
        });
        assert!(
            stats.snapshot().queue_wait_micros >= 10_000,
            "queue wait is accounted"
        );
        assert_eq!(origins.queued(), 0);
    }

    #[test]
    fn a_release_wakes_only_a_queued_reader() {
        let origins = Origins::new(Some(1), None);
        let o = origins.get("o".into());
        let (clock, stats) = (VirtualClock::new(), AtomicCacheStats::default());
        let mut alone = enter(&origins, &o, &clock, &stats);
        assert!(!alone.release(), "nobody queued, nobody to wake");
        assert!(!alone.release(), "and a slot leaves once");
        assert_eq!(lock(&o.gate).inflight, 0);

        let mut holder = enter(&origins, &o, &clock, &stats);
        thread::scope(|scope| {
            let parked = scope.spawn(|| drop(enter(&origins, &o, &clock, &stats)));
            while origins.queued() < 1 {
                thread::sleep(Duration::from_millis(1));
            }
            assert!(holder.release(), "the queued reader is woken");
            parked.join().expect("and admitted: no deadline, no poll");
        });
        assert_eq!((origins.running(), origins.queued()), (0, 0));
        assert_eq!(lock(&o.gate).inflight, 0);
    }

    #[test]
    fn aimd_shrinks_on_slow_and_grows_on_fast() {
        let config = OverloadConfig::default()
            .target_fetch_micros(1_000)
            .inflight_bounds(1, 8);
        let mut gate = Gate::default();
        assert_eq!(gate.observe(&config, 5_000), 4, "8/2 on a slow fetch");
        assert_eq!(gate.observe(&config, 5_000), 2);
        assert_eq!(gate.observe(&config, 5_000), 1);
        assert_eq!(gate.observe(&config, 5_000), 1, "floored at min");
        assert_eq!(gate.observe(&config, 100), 2, "+1 on a fast fetch");
        for _ in 0..10 {
            gate.observe(&config, 100);
        }
        assert_eq!(gate.observe(&config, 100), 8, "capped at max");
    }

    #[test]
    fn ewma_warms_from_prior_then_tracks() {
        let config = OverloadConfig::default().expected_service_micros(2_000);
        let mut gate = Gate::default();
        assert_eq!(gate.expected_service_micros(&config), 2_000, "prior");
        gate.observe(&config, 10_000);
        assert_eq!(
            gate.expected_service_micros(&config),
            10_000,
            "first sample"
        );
        gate.observe(&config, 2_000);
        assert_eq!(
            gate.expected_service_micros(&config),
            8_000,
            "(3·10k + 2k)/4"
        );
    }

    #[test]
    fn decisions_replay_identically() {
        let run = || {
            let config = OverloadConfig::default();
            let ctrl = OverloadController::new(config.clone());
            let mut gate = Gate::default();
            let mut log = Vec::new();
            for i in 0..200u64 {
                let observed = (i * 37) % 9_000;
                log.push(gate.observe(&config, observed));
                log.push(u32::from(
                    ctrl.observe_pressure(Instant(i * 700), (i * 13) % 16)
                        .map(|(_, to)| to.rung())
                        .unwrap_or(99),
                ));
            }
            log
        };
        assert_eq!(run(), run(), "controller is a pure function of inputs");
    }
}
