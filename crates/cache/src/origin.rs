//! Origin health: whether each repository the cache fronts is failing (its
//! breaker), how many operations may run against it (its window) and how
//! slow it is (its latency estimate and AIMD width). Every origin operation
//! is one [`Origins::admit`] and one [`Slot::settle`]; [`RetryDriver::run`]
//! wraps the two in the retry loop. Every decision is a function of the
//! virtual clock, the windows' counters and the configuration, so it
//! replays exactly under a fixed fault plan.
//!
//! Every lock here is a **leaf** of the manager's lock order: the table
//! lock covers one lookup, an origin's lock one admission or settlement,
//! the ladder lock one step. A reader parked on a full window holds no
//! lock, and a slot is held for one origin attempt, never across a flight
//! wait, so slot waits always terminate.

use crate::manager::StalenessBound;
use crate::singleflight::lock;
use crate::stats::AtomicCacheStats;
use placeless_core::error::PlacelessError;
use placeless_simenv::{Instant, SimRng, VirtualClock};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// Scheduling class of a read, from most to least sheddable: ordered by
/// importance, so "shed lowest first" is a plain `<`.
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

/// A circuit breaker's externally visible state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BreakerState {
    /// Normal operation; failures are counted.
    #[default]
    Closed,
    /// Operations are rejected until the cool-down elapses.
    Open,
    /// A probe goes through; its success closes it, a failure re-opens it.
    HalfOpen,
}

/// What the cache does about its origins' health
/// ([`CacheConfig::origin`](crate::CacheConfig::origin)). The [`Default`]
/// enables none of it: every origin operation is one attempt that fails
/// with its own error, runs unbounded and is never shed.
///
/// ```
/// use placeless_cache::{OriginConfig, OverloadControl, WindowConfig};
///
/// let config = OriginConfig::default()
///     .max_retries(2)
///     .breaker(true)
///     .window(WindowConfig::new(4).control(OverloadControl::default()));
/// assert_eq!(config.window.map(|window| window.width), Some(4));
/// ```
#[derive(Debug, Clone, Default)]
pub struct OriginConfig {
    /// Retries after the first failed attempt (0 = fail fast), each after
    /// a backoff of [`Self::BACKOFF_BASE_MICROS`]` << n` plus up to a
    /// quarter of it in seeded jitter.
    pub max_retries: u32,
    /// Whether each origin has a circuit breaker: [`Self::BREAKER_THRESHOLD`]
    /// consecutive transient failures open it for
    /// [`Self::BREAKER_OPEN_MICROS`], then one successful probe closes it.
    pub breaker: bool,
    /// How old an entry whose freshness check cannot reach its origin may
    /// be and still be served: after a failed fetch, or without fetching
    /// from the brownout ladder's first rung.
    pub serve_stale: Option<StalenessBound>,
    /// Bound on the operations running against one origin at once.
    pub window: Option<WindowConfig>,
}

impl OriginConfig {
    /// Consecutive transient failures that trip a breaker open.
    pub const BREAKER_THRESHOLD: u32 = 3;
    /// How long (virtual µs) an open breaker rejects without probing.
    pub const BREAKER_OPEN_MICROS: u64 = 50_000;
    /// The backoff before retry *n* is this `<< n`, in virtual µs.
    pub const BACKOFF_BASE_MICROS: u64 = 500;
    /// Jitter added per backoff: up to this many 256ths of the delay.
    const BACKOFF_JITTER_FRAC: u8 = 64;
    /// Seed of the jitter RNG, salted per key or origin.
    const RETRY_SEED: u64 = 7;

    /// Sets the retries after the first failed attempt.
    pub fn max_retries(mut self, n: u32) -> Self {
        self.max_retries = n;
        self
    }

    /// Turns the per-origin circuit breakers on or off.
    pub fn breaker(mut self, on: bool) -> Self {
        self.breaker = on;
        self
    }

    /// Permits stale service within `bound`.
    pub fn serve_stale(mut self, bound: StalenessBound) -> Self {
        self.serve_stale = Some(bound);
        self
    }

    /// Bounds each origin's concurrently running operations.
    pub fn window(mut self, window: WindowConfig) -> Self {
        self.window = Some(window);
        self
    }

    /// The longest backoff the schedule could grant: a provider hint beyond
    /// it means no wait the loop would make reaches recovery.
    fn hint_horizon_micros(&self) -> u64 {
        let exp = self.max_retries.saturating_sub(1).min(20);
        let base = Self::BACKOFF_BASE_MICROS << exp;
        base + base * u64::from(Self::BACKOFF_JITTER_FRAC) / 256
    }
}

/// One origin's window: at most `width` operations run against it at
/// once; the rest queue.
#[derive(Debug, Clone)]
pub struct WindowConfig {
    /// Slots per origin (at least 1), and the AIMD width's ceiling.
    pub width: u32,
    /// Overload control, or `None` for a fixed width that sheds nothing.
    pub control: Option<OverloadControl>,
}

impl WindowConfig {
    /// A fixed window of `width` slots per origin.
    pub fn new(width: u32) -> Self {
        Self {
            width,
            control: None,
        }
    }

    /// Puts the window under overload control.
    pub fn control(mut self, control: OverloadControl) -> Self {
        self.control = Some(control);
        self
    }
}

/// Overload control's tuning, in virtual µs: deadline-aware admission, the
/// AIMD width and the brownout ladder.
#[derive(Debug, Clone)]
pub struct OverloadControl {
    /// AIMD latency target: a slower fetch halves the origin's width (down
    /// to one slot), a faster one adds a slot.
    pub target_fetch_micros: u64,
    /// A fetch's expected service time before the origin has a sample.
    pub expected_service_micros: u64,
    /// Minimum virtual time between ladder moves, up a rung at
    /// [`Self::BROWNOUT_ENTER_WAITERS`] or down at
    /// [`Self::BROWNOUT_EXIT_WAITERS`].
    pub brownout_dwell_micros: u64,
    /// `retry_after` hint attached to `Overloaded` rejections.
    pub retry_after_micros: u64,
}

impl Default for OverloadControl {
    fn default() -> Self {
        Self {
            target_fetch_micros: 5_000,
            expected_service_micros: 2_000,
            brownout_dwell_micros: 10_000,
            retry_after_micros: 10_000,
        }
    }
}

impl OverloadControl {
    /// Pressure (readers parked on windows or flights) at or above which
    /// the brownout ladder climbs a rung.
    pub const BROWNOUT_ENTER_WAITERS: u64 = 8;
    /// Pressure at or below which it steps down (below `enter`: hysteresis).
    pub const BROWNOUT_EXIT_WAITERS: u64 = 2;
}

/// A fetch's class and, under overload control, when its deadline lapses.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FetchCtx {
    pub(crate) priority: Priority,
    pub(crate) deadline_at: Option<Instant>,
}

/// An origin operation, as admission sees it.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Op {
    /// Shed by class and deadline; counted behind `inflight_peak`; timed.
    Fetch(FetchCtx),
    /// A sibling prefetch: admitted only by a closed breaker, which it
    /// tells nothing, and the first work the ladder sheds.
    Prefetch(FetchCtx),
    /// A write-through write or a flush group: never shed, never timed.
    Write,
}

impl Op {
    fn fetch(self) -> Option<FetchCtx> {
        match self {
            Op::Fetch(fetch) | Op::Prefetch(fetch) => Some(fetch),
            Op::Write => None,
        }
    }

    /// The lowest brownout rung that sheds this operation, if any does.
    fn shed_at(self) -> Option<Rung> {
        match self {
            Op::Prefetch(_) => Some(Rung::ShedPrefetch),
            Op::Fetch(fetch) if fetch.priority < Priority::Foreground => Some(Rung::Reject),
            Op::Fetch(_) | Op::Write => None,
        }
    }
}

/// One operation's backoff schedule: before retry *n*, the base `<< n` plus
/// a jitter of up to a quarter of it from the seeded RNG.
#[derive(Debug)]
struct BackoffSchedule {
    rng: SimRng,
}

impl BackoffSchedule {
    fn new(salt: u64) -> Self {
        Self {
            rng: SimRng::seeded(OriginConfig::RETRY_SEED ^ salt ^ 0xBAC0_FF5E_BAC0_FF5E),
        }
    }

    fn delay_micros(&mut self, attempt: u32) -> u64 {
        let exp = attempt.min(20); // cap the shift; delays beyond 2^20×base are academic
        let base = OriginConfig::BACKOFF_BASE_MICROS << exp;
        let span = base * u64::from(OriginConfig::BACKOFF_JITTER_FRAC) / 256;
        base + self.rng.next_below(span + 1)
    }
}

/// A flush group's jitter salt: FNV-1a of its origin key, stable across
/// processes as same-seed replay needs (the std hasher is not).
fn origin_salt(key: &str) -> u64 {
    key.bytes().fold(0xcbf2_9ce4_8422_2325, |salt, byte| {
        (salt ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The provider's `retry_after` hint (0 when none): retrying sooner than
/// the origin said it could recover is a wasted attempt.
fn retry_floor(error: &PlacelessError) -> u64 {
    match error {
        PlacelessError::Unavailable {
            retry_after: Some(hint),
            ..
        } => *hint,
        _ => 0,
    }
}

/// One origin's breaker and window, behind the origin's one lock.
#[derive(Debug, Default)]
struct Health {
    breaker: BreakerState,
    opened_at: Instant,
    /// Consecutive failures while `Closed`.
    streak: u32,
    /// Operations holding a window slot.
    inflight: u32,
    /// Operations parked waiting for one.
    queued: u32,
    /// The window's width: the configured one until AIMD steps it.
    limit: u32,
    /// EWMA of observed fetch latency (µs); 0 until the first sample.
    ewma_micros: u64,
}

impl Health {
    /// Whether an operation may contact the origin at `now` (`Err`: the rest
    /// of the cool-down). An `Open` breaker past its cool-down admits a
    /// probe, turning `HalfOpen`; a `speculative` caller needs `Closed`.
    fn ask(&mut self, now: Instant, speculative: bool) -> Result<(), u64> {
        let cool_down = OriginConfig::BREAKER_OPEN_MICROS.saturating_sub(now.since(self.opened_at));
        match self.breaker {
            BreakerState::Closed => Ok(()),
            _ if speculative => Err(cool_down),
            BreakerState::HalfOpen => Ok(()),
            BreakerState::Open if cool_down == 0 => {
                (self.breaker, self.streak) = (BreakerState::HalfOpen, 0);
                Ok(())
            }
            BreakerState::Open => Err(cool_down),
        }
    }

    /// Records one operation's success (`ok`) or transient failure at
    /// `now`; returns whether it tripped the breaker open.
    fn record(&mut self, now: Instant, ok: bool) -> bool {
        let trips = match self.breaker {
            // An operation admitted before the trip changes nothing.
            BreakerState::Open => false,
            BreakerState::Closed => {
                self.streak = if ok { 0 } else { self.streak + 1 };
                !ok && self.streak >= OriginConfig::BREAKER_THRESHOLD
            }
            // One successful probe closes it.
            BreakerState::HalfOpen if ok => {
                (self.breaker, self.streak) = (BreakerState::Closed, 0);
                false
            }
            // A failed probe re-opens and restarts the cool-down.
            BreakerState::HalfOpen => true,
        };
        if trips {
            (self.breaker, self.opened_at) = (BreakerState::Open, now);
        }
        trips
    }

    fn try_claim(&mut self) -> bool {
        let free = self.inflight < self.limit;
        self.inflight += u32::from(free);
        free
    }

    /// When an arrival now would complete: a service (the estimate, or the
    /// prior) per full width queued ahead of it, plus its own.
    fn expected_completion_micros(&self, control: &OverloadControl) -> u64 {
        let service = match self.ewma_micros {
            0 => control.expected_service_micros,
            ewma => ewma,
        };
        let rounds = u64::from(self.queued) / u64::from(self.limit.max(1)) + 1;
        rounds.saturating_mul(service.max(1))
    }

    /// Records a completed fetch: slower than the target halves the width
    /// (down to one slot), else it gains a slot (up to `width`).
    fn observe(&mut self, control: &OverloadControl, width: u32, observed_micros: u64) {
        self.ewma_micros = if self.ewma_micros == 0 {
            observed_micros.max(1)
        } else {
            // 3/4 old + 1/4 new: smooth enough to ride out one outlier,
            // fast enough to track a regime change within a few fetches.
            ((self.ewma_micros * 3 + observed_micros) / 4).max(1)
        };
        self.limit = if observed_micros > control.target_fetch_micros {
            (self.limit / 2).max(1)
        } else {
            (self.limit + 1).min(width)
        };
    }
}

/// Everything the cache knows about one origin.
#[derive(Debug)]
pub(crate) struct Origin {
    key: String,
    health: Mutex<Health>,
    /// Signalled when the window gains a free slot.
    freed: Condvar,
}

/// Rungs of the brownout ladder; each implies the ones below it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub(crate) enum Rung {
    #[default]
    Normal,
    /// Misses with a resident copy within `serve_stale` are served it.
    WidenStale,
    /// Stage outputs are computed and served but not stored.
    SkipStageFills,
    /// Collection prefetch is shed.
    ShedPrefetch,
    /// Every background fetch is shed; foreground reads still queue.
    Reject,
}

#[derive(Debug, Default)]
struct Ladder {
    rung: Rung,
    shifted_at: Instant,
}

impl Ladder {
    const RUNGS: [Rung; 5] = [
        Rung::Normal,
        Rung::WidenStale,
        Rung::SkipStageFills,
        Rung::ShedPrefetch,
        Rung::Reject,
    ];

    /// Feeds one `pressure` sample: a rung up at or above the enter
    /// threshold, down at or below the exit one, at most one move per dwell.
    fn step(&mut self, control: &OverloadControl, now: Instant, pressure: u64) -> Option<Rung> {
        let dwelled = now.since(self.shifted_at) >= control.brownout_dwell_micros;
        if !dwelled && self.shifted_at.as_micros() != 0 {
            return None;
        }
        let at = self.rung as usize;
        let to = if pressure >= OverloadControl::BROWNOUT_ENTER_WAITERS {
            Self::RUNGS[(at + 1).min(Self::RUNGS.len() - 1)]
        } else if pressure <= OverloadControl::BROWNOUT_EXIT_WAITERS {
            Self::RUNGS[at.saturating_sub(1)]
        } else {
            self.rung
        };
        if to == self.rung {
            return None;
        }
        self.rung = to;
        self.shifted_at = now;
        Some(to)
    }
}

/// The origin records, the configuration they share, the brownout ladder
/// over them, and the cache-wide gauges.
pub(crate) struct Origins {
    /// As configured, with a window at least one wide.
    pub(crate) config: OriginConfig,
    clock: VirtualClock,
    table: parking_lot::Mutex<HashMap<String, Arc<Origin>>>,
    /// `Some` exactly under overload control.
    ladder: Option<parking_lot::Mutex<Ladder>>,
    /// Operations parked on any window: the brownout pressure gauge.
    queued: AtomicU64,
    /// Origin fetches running: the gauge behind `inflight_peak`.
    running: AtomicU64,
}

impl Origins {
    /// How long (wall time) a parked reader with a deadline sleeps between
    /// looks at the virtual clock: it can lapse with no slot freed.
    const QUEUE_POLL: std::time::Duration = std::time::Duration::from_millis(1);

    pub(crate) fn new(mut config: OriginConfig, clock: VirtualClock) -> Self {
        if let Some(window) = &mut config.window {
            // A zero-wide window would admit nothing and hang a fetch.
            window.width = window.width.max(1);
        }
        let controlled = config.window.as_ref().is_some_and(|w| w.control.is_some());
        Self {
            config,
            clock,
            table: parking_lot::Mutex::new(HashMap::new()),
            ladder: controlled.then(parking_lot::Mutex::default),
            queued: AtomicU64::new(0),
            running: AtomicU64::new(0),
        }
    }

    /// Returns `key`'s record, creating it on first sight.
    pub(crate) fn get(&self, key: String) -> Arc<Origin> {
        let mut table = self.table.lock();
        let limit = self.config.window.as_ref().map_or(0, |window| window.width);
        let origin = table.entry(key).or_insert_with_key(|key| {
            let health = Mutex::new(Health {
                limit,
                ..Health::default()
            });
            let (key, freed) = (key.clone(), Condvar::new());
            Arc::new(Origin { key, health, freed })
        });
        Arc::clone(origin)
    }

    /// The breaker state of `key`'s origin: `Closed` if no operation ever
    /// resolved it.
    pub(crate) fn breaker_state(&self, key: &str) -> BreakerState {
        let table = self.table.lock();
        table
            .get(key)
            .map_or(BreakerState::Closed, |origin| lock(&origin.health).breaker)
    }

    pub(crate) fn queued(&self) -> u64 {
        self.queued.load(Ordering::SeqCst)
    }

    pub(crate) fn running(&self) -> u64 {
        self.running.load(Ordering::Relaxed)
    }

    fn control(&self) -> Option<&OverloadControl> {
        self.config.window.as_ref()?.control.as_ref()
    }

    /// A fetch of class `priority` with `deadline` µs of budget from now.
    /// The budget is an admission deadline only under overload control;
    /// without it a deadline bounds retry scheduling alone.
    pub(crate) fn fetch_ctx(&self, priority: Priority, deadline: Option<u64>) -> FetchCtx {
        FetchCtx {
            priority,
            deadline_at: deadline
                .filter(|_| self.control().is_some())
                .map(|budget| self.clock.now().plus(budget)),
        }
    }

    /// Feeds the ladder a miss's pressure sample — readers parked on
    /// windows plus `waiting()` — and returns its rung (`Normal`, reading
    /// nothing, without overload control).
    pub(crate) fn sample(&self, waiting: impl FnOnce() -> u64, stats: &AtomicCacheStats) -> Rung {
        let (Some(ladder), Some(control)) = (&self.ladder, self.control()) else {
            return Rung::Normal;
        };
        let pressure = self.queued() + waiting();
        let mut ladder = ladder.lock();
        if let Some(to) = ladder.step(control, self.clock.now(), pressure) {
            AtomicCacheStats::bump(&stats.brownout_shifts);
            stats.brownout_level.store(to as u64, Ordering::Relaxed);
        }
        ladder.rung
    }

    /// The brownout ladder's rung (`Normal` without one).
    pub(crate) fn rung(&self) -> Rung {
        self.ladder
            .as_ref()
            .map_or(Rung::Normal, |ladder| ladder.lock().rung)
    }

    /// Counts a shed of class `priority`; returns the `Overloaded` it
    /// fails with.
    pub(crate) fn shed(&self, priority: Priority, stats: &AtomicCacheStats) -> PlacelessError {
        AtomicCacheStats::bump(match priority {
            Priority::Foreground => &stats.sheds_foreground,
            Priority::Refresh => &stats.sheds_refresh,
            Priority::Prefetch => &stats.sheds_prefetch,
        });
        PlacelessError::Overloaded {
            retry_after: self
                .control()
                .map_or(0, |control| control.retry_after_micros),
        }
    }

    /// Admits one operation, or refuses it `Overloaded` (shed by its rung or
    /// deadline) or `Unavailable` (an open breaker). A fetch with a deadline
    /// is shed on arrival at a full window if its budget cannot cover the
    /// expected wait, and once parked, the moment the deadline lapses: it is
    /// never served late. `origin` is called at most once, and only when a
    /// breaker or a window needs the record: the default config resolves
    /// none.
    pub(crate) fn admit<'a>(
        &'a self,
        origin: impl FnOnce() -> &'a Origin,
        op: Op,
        stats: &'a AtomicCacheStats,
    ) -> Result<Slot<'a>, PlacelessError> {
        let fetch = op.fetch();
        let priority = fetch.map_or(Priority::Foreground, |fetch| fetch.priority);
        if op.shed_at().is_some_and(|shed_at| self.rung() >= shed_at) {
            return Err(self.shed(priority, stats));
        }
        let record = (self.config.breaker || self.config.window.is_some()).then(origin);
        let speculative = matches!(op, Op::Prefetch(_));
        if let Some(origin) = record {
            let mut health = lock(&origin.health);
            if self.config.breaker {
                if let Err(cool_down) = health.ask(self.clock.now(), speculative) {
                    return Err(PlacelessError::Unavailable {
                        source: origin.key.clone(),
                        retry_after: Some(cool_down),
                    });
                }
            }
            if self.config.window.is_some() {
                let deadline_at = fetch.and_then(|fetch| fetch.deadline_at);
                let (admitted, queued_micros) = self.claim(origin, health, deadline_at);
                AtomicCacheStats::add(&stats.queue_wait_micros, queued_micros);
                if !admitted {
                    return Err(self.shed(priority, stats));
                }
            }
        }
        if fetch.is_some() {
            let running = self.running.fetch_add(1, Ordering::Relaxed) + 1;
            stats.inflight_peak.fetch_max(running, Ordering::Relaxed);
        }
        let timed = fetch.is_some() && record.is_some() && self.control().is_some();
        Ok(Slot {
            origins: self,
            stats,
            origin: record,
            speculative,
            running: fetch.is_some(),
            admitted_at: timed.then(|| self.clock.now()),
        })
    }

    /// Claims a slot, parking until one frees or the deadline rules it out;
    /// returns whether it holds one, and the virtual time spent parked.
    fn claim(
        &self,
        origin: &Origin,
        mut health: MutexGuard<'_, Health>,
        deadline_at: Option<Instant>,
    ) -> (bool, u64) {
        let clock = &self.clock;
        let arrived = clock.now();
        if health.try_claim() {
            return (true, 0);
        }
        if let (Some(deadline_at), Some(control)) = (deadline_at, self.control()) {
            let remaining = deadline_at.since(arrived);
            if remaining == 0 || health.expected_completion_micros(control) > remaining {
                return (false, 0);
            }
        }
        health.queued += 1;
        self.queued.fetch_add(1, Ordering::SeqCst);
        let admitted = loop {
            if health.try_claim() {
                break true;
            }
            if deadline_at.is_some_and(|deadline_at| clock.now() >= deadline_at) {
                break false;
            }
            let freed = &origin.freed;
            health = match deadline_at {
                Some(_) => {
                    freed
                        .wait_timeout(health, Self::QUEUE_POLL)
                        .unwrap_or_else(PoisonError::into_inner)
                        .0
                }
                None => freed.wait(health).unwrap_or_else(PoisonError::into_inner),
            };
        };
        health.queued -= 1;
        self.queued.fetch_sub(1, Ordering::SeqCst);
        (admitted, clock.now().since(arrived))
    }
}

/// One admitted operation. Leaving is `Drop`, so the slot is freed however
/// the operation ends.
pub(crate) struct Slot<'a> {
    origins: &'a Origins,
    stats: &'a AtomicCacheStats,
    /// The record whose breaker hears the outcome and whose window holds
    /// the slot, as configured.
    origin: Option<&'a Origin>,
    /// A prefetch, which tells the breaker nothing.
    speculative: bool,
    /// Counted in the running gauge (a fetch).
    running: bool,
    /// When the fetch was admitted, if AIMD is owed its service time.
    admitted_at: Option<Instant>,
}

impl Slot<'_> {
    /// Settles the attempt: a success, or a failure all of whose errors are
    /// transient, is one breaker record, and a fetch's service time feeds
    /// AIMD. That time is virtual, including other threads' charges; AIMD
    /// needs only a signal that rises under load and falls as it drains.
    pub(crate) fn settle<T, E: AsRef<[PlacelessError]>>(mut self, result: &Result<T, E>) {
        let ok = match result {
            Ok(_) => Some(true),
            Err(errors) if errors.as_ref().iter().all(PlacelessError::is_transient) => Some(false),
            Err(_) => None,
        };
        if let (Some(ok), Some(origin), true) = (ok, self.origin, self.origins.config.breaker) {
            let tripped =
                !self.speculative && lock(&origin.health).record(self.origins.clock.now(), ok);
            if tripped {
                AtomicCacheStats::bump(&self.stats.breaker_trips);
            }
        }
        self.release(true);
    }

    /// Leaves (once), feeding AIMD if `settled`; returns whether a parked
    /// reader — counted in `queued` under the lock before it waited — was
    /// there to wake.
    fn release(&mut self, settled: bool) -> bool {
        if std::mem::take(&mut self.running) {
            self.origins.running.fetch_sub(1, Ordering::Relaxed);
        }
        let (Some(origin), Some(window)) = (self.origin.take(), &self.origins.config.window) else {
            return false;
        };
        let mut health = lock(&origin.health);
        health.inflight = health.inflight.saturating_sub(1);
        if let (true, Some(admitted_at), Some(control)) =
            (settled, self.admitted_at, &window.control)
        {
            health.observe(
                control,
                window.width,
                self.origins.clock.now().since(admitted_at),
            );
        }
        let parked = health.queued > 0;
        drop(health);
        if parked {
            origin.freed.notify_all();
        }
        parked
    }
}

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        self.release(false);
    }
}

/// Why [`RetryDriver::run`] stopped without a success.
pub(crate) enum GaveUp<E> {
    /// The last attempt's errors stand: one was not transient, the retries
    /// ran out, or a provider hint lay beyond the backoff horizon.
    Own(E),
    /// Admission refused, or the deadline could not cover the next backoff:
    /// one verdict for everything still pending.
    Shared(PlacelessError),
}

impl GaveUp<[PlacelessError; 1]> {
    /// The error a single-entry operation fails with.
    pub(crate) fn into_error(self) -> PlacelessError {
        match self {
            GaveUp::Own([error]) | GaveUp::Shared(error) => error,
        }
    }
}

/// The retry loop behind every origin operation but a prefetch.
pub(crate) struct RetryDriver<'a> {
    pub(crate) origins: &'a Origins,
    pub(crate) stats: &'a AtomicCacheStats,
    /// What is retried; every waited-out backoff counts in `retries`.
    pub(crate) op: Op,
    /// Virtual-time budget for the whole operation, backoffs included.
    pub(crate) deadline: Option<u64>,
}

impl RetryDriver<'_> {
    /// Runs `attempt` — one admission and one settlement each — until it
    /// succeeds or the policy gives up: at most `max_retries` retries, each
    /// after the scheduled backoff or the longest provider hint among the
    /// attempt's errors, whichever is longer. An attempt fails with every
    /// error it has left; unless all are transient the loop stops at once.
    /// Jitter is salted with `salt`, or the origin's key when `None`.
    pub(crate) fn run<'o, T, E: AsRef<[PlacelessError]>>(
        &self,
        origin: impl Fn() -> &'o Origin,
        salt: Option<u64>,
        mut attempt: impl FnMut() -> Result<T, E>,
    ) -> Result<T, GaveUp<E>> {
        let config = &self.origins.config;
        let clock = &self.origins.clock;
        let started = clock.now();
        let mut schedule: Option<BackoffSchedule> = None;
        let mut retry = 0u32;
        loop {
            let slot = self
                .origins
                .admit(|| origin(), self.op, self.stats)
                .map_err(GaveUp::Shared)?;
            let result = attempt();
            slot.settle(&result);
            let failure = match result {
                Ok(value) => return Ok(value),
                Err(failure) => failure,
            };
            let errors = failure.as_ref();
            if !errors.iter().all(PlacelessError::is_transient) || retry >= config.max_retries {
                return Err(GaveUp::Own(failure));
            }
            let floor = errors
                .iter()
                .fold(0, |floor, error| floor.max(retry_floor(error)));
            if floor > config.hint_horizon_micros() {
                return Err(GaveUp::Own(failure));
            }
            let delay = schedule
                .get_or_insert_with(|| {
                    BackoffSchedule::new(salt.unwrap_or_else(|| origin_salt(&origin().key)))
                })
                .delay_micros(retry)
                .max(floor);
            if let Some(budget) = self.deadline {
                // Don't start a backoff the deadline can't cover — but the
                // caller did wait out the rest of its budget discovering
                // that, so charge it before reporting the `Timeout`.
                let elapsed = clock.now().since(started);
                if elapsed + delay > budget {
                    clock.advance(budget.saturating_sub(elapsed));
                    return Err(GaveUp::Shared(PlacelessError::Timeout {
                        source: origin().key.clone(),
                        elapsed_micros: clock.now().since(started),
                    }));
                }
            }
            clock.advance(delay);
            AtomicCacheStats::bump(&self.stats.retries);
            retry += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::atomic::AtomicUsize;
    use std::thread;
    use std::time::Duration;

    fn origin(key: &str) -> Arc<Origin> {
        Origins::new(OriginConfig::default(), VirtualClock::new()).get(key.to_owned())
    }

    fn windowed(width: u32, control: Option<OverloadControl>) -> Origins {
        let window = WindowConfig { width, control };
        Origins::new(OriginConfig::default().window(window), VirtualClock::new())
    }

    fn fetch(deadline_at: Option<Instant>) -> Op {
        Op::Fetch(FetchCtx {
            priority: Priority::Foreground,
            deadline_at,
        })
    }

    const OK: Result<(), [PlacelessError; 1]> = Ok(());

    /// Admits a foreground fetch with no deadline against `origin`.
    fn enter<'a>(
        origins: &'a Origins,
        origin: &'a Origin,
        stats: &'a AtomicCacheStats,
    ) -> Slot<'a> {
        origins
            .admit(|| origin, fetch(None), stats)
            .expect("no deadline never sheds")
    }

    /// Records `n` transient failures at `at`; returns whether the last
    /// one tripped the breaker.
    fn fail(origin: &Origin, at: Instant, n: u32) -> bool {
        (0..n).fold(false, |_, _| lock(&origin.health).record(at, false))
    }

    const THRESHOLD: u32 = OriginConfig::BREAKER_THRESHOLD;
    const OPEN: u64 = OriginConfig::BREAKER_OPEN_MICROS;

    #[test]
    fn breaker_trips_after_threshold_and_recovers() {
        let web = origin("web");
        assert_eq!(lock(&web.health).ask(Instant(0), false), Ok(()));
        assert!(!fail(&web, Instant(10), THRESHOLD - 1));
        assert!(fail(&web, Instant(20), 1), "the third failure trips");
        assert_eq!(lock(&web.health).breaker, BreakerState::Open);

        // While open, operations are rejected with the remaining cool-down.
        assert_eq!(lock(&web.health).ask(Instant(120), false), Err(OPEN - 100));

        // After the cool-down, one probe is admitted.
        assert_eq!(lock(&web.health).ask(Instant(OPEN + 20), false), Ok(()));
        assert_eq!(lock(&web.health).breaker, BreakerState::HalfOpen);
        lock(&web.health).record(Instant(0), true);
        assert_eq!(lock(&web.health).breaker, BreakerState::Closed);
        assert_eq!(lock(&web.health).ask(Instant(OPEN + 30), false), Ok(()));
    }

    #[test]
    fn failed_probe_reopens_the_breaker() {
        let dms = origin("dms");
        assert!(fail(&dms, Instant(0), THRESHOLD));
        assert_eq!(lock(&dms.health).ask(Instant(OPEN), false), Ok(()));
        assert!(fail(&dms, Instant(OPEN + 10), 1), "probe failed");
        assert_eq!(lock(&dms.health).breaker, BreakerState::Open);
        assert_eq!(
            lock(&dms.health).ask(Instant(OPEN + 50), false),
            Err(OPEN - 40),
            "cool-down restarted at the failed probe"
        );
        assert!(
            !fail(&dms, Instant(OPEN + 60), 1),
            "an open breaker cannot trip again"
        );
    }

    #[test]
    fn breakers_are_per_origin() {
        let origins = Origins::new(OriginConfig::default(), VirtualClock::new());
        let a = origins.get("web-a".into());
        fail(&a, Instant(0), THRESHOLD);
        assert_eq!(lock(&a.health).breaker, BreakerState::Open);
        assert_eq!(
            origins.breaker_state("web-b"),
            BreakerState::Closed,
            "never seen"
        );
        let b = origins.get("web-b".into());
        assert_eq!(lock(&b.health).breaker, BreakerState::Closed);
        assert_eq!(lock(&b.health).ask(Instant(1), false), Ok(()));
        assert!(Arc::ptr_eq(&a, &origins.get("web-a".into())), "one record");
    }

    #[test]
    fn success_resets_the_failure_streak() {
        let web = origin("web");
        fail(&web, Instant(0), THRESHOLD - 1);
        lock(&web.health).record(Instant(0), true);
        assert!(
            !fail(&web, Instant(10), THRESHOLD - 1),
            "streak restarted after the success"
        );
        assert_eq!(lock(&web.health).breaker, BreakerState::Closed);
    }

    #[test]
    fn settle_records_the_breaker_outcome_except_for_a_prefetch() {
        let origins = Origins::new(OriginConfig::default().breaker(true), VirtualClock::new());
        let web = origins.get("web".into());
        let (clock, stats) = (&origins.clock, AtomicCacheStats::default());
        let prefetch = Op::Prefetch(FetchCtx {
            priority: Priority::Prefetch,
            deadline_at: None,
        });
        let dark: Result<(), _> = Err([PlacelessError::Unavailable {
            source: "web".into(),
            retry_after: None,
        }]);
        for _ in 0..THRESHOLD {
            let slot = origins.admit(|| &web, prefetch, &stats);
            slot.expect("closed").settle(&dark);
        }
        assert_eq!(
            lock(&web.health).breaker,
            BreakerState::Closed,
            "told nothing"
        );
        for _ in 0..THRESHOLD {
            let slot = origins.admit(|| &web, fetch(None), &stats);
            slot.expect("closed").settle(&dark);
        }
        assert_eq!(lock(&web.health).breaker, BreakerState::Open);
        assert_eq!(stats.snapshot().breaker_trips, 1);
        // Past the cool-down a read may probe; a prefetch may not.
        clock.advance(OPEN);
        assert!(matches!(
            origins.admit(|| &web, prefetch, &stats),
            Err(PlacelessError::Unavailable { .. })
        ));
        assert_eq!(
            lock(&web.health).breaker,
            BreakerState::Open,
            "no probe spent"
        );
        let slot = origins.admit(|| &web, fetch(None), &stats);
        slot.expect("the probe").settle(&OK);
        assert_eq!(lock(&web.health).breaker, BreakerState::Closed);
    }

    #[test]
    fn window_bounds_concurrency_per_origin() {
        let origins = windowed(2, None);
        let a = origins.get("origin-a".into());
        let stats = AtomicCacheStats::default();
        let running = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    let _slot = enter(&origins, &a, &stats);
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
        let origins = windowed(1, None);
        let (a, b) = (
            origins.get("origin-a".into()),
            origins.get("origin-b".into()),
        );
        let stats = AtomicCacheStats::default();
        let _a = enter(&origins, &a, &stats);
        // A different origin is admitted immediately even though
        // origin-a's window is full.
        let _b = enter(&origins, &b, &stats);
    }

    #[test]
    fn no_window_resolves_no_origin() {
        let origins = Origins::new(OriginConfig::default(), VirtualClock::new());
        let stats = AtomicCacheStats::default();
        let slot = origins
            .admit(
                || -> &Origin { panic!("no window, so no origin is needed") },
                fetch(None),
                &stats,
            )
            .expect("admitted");
        assert_eq!(origins.running(), 1, "the fetch is still counted");
        slot.settle(&OK);
        assert_eq!(origins.running(), 0);
    }

    #[test]
    fn observed_width_stays_within_its_bounds_and_persists_when_idle() {
        let control = OverloadControl {
            target_fetch_micros: 1_000,
            ..OverloadControl::default()
        };
        let origins = windowed(4, Some(control));
        let (a, b) = (
            origins.get("origin-a".into()),
            origins.get("origin-b".into()),
        );
        let (clock, stats) = (&origins.clock, AtomicCacheStats::default());
        let width = |origin: &Origin| lock(&origin.health).limit;
        // Fast fetches grow no window past its configured width.
        for _ in 0..3 {
            enter(&origins, &a, &stats).settle(&OK);
            assert_eq!(width(&a), 4);
        }
        // Slow ones halve it down to the floor, and no further.
        for expected in [2, 1, 1] {
            let slot = enter(&origins, &a, &stats);
            clock.advance(5_000);
            slot.settle(&OK);
            assert_eq!(width(&a), expected);
        }
        assert_eq!(width(&b), 4, "others keep the configured width");
        enter(&origins, &a, &stats).settle(&OK);
        let first = enter(&origins, &a, &stats);
        let second = enter(&origins, &a, &stats);
        drop((first, second));
        // Unsettled slots feed nothing, and the width survives the origin
        // going idle.
        assert_eq!(width(&a), 2);
        assert_eq!(lock(&a.health).inflight, 0);
    }

    #[test]
    fn writes_hold_a_slot_but_feed_neither_aimd_nor_the_gauge() {
        let origins = windowed(1, Some(OverloadControl::default()));
        let a = origins.get("origin-a".into());
        let stats = AtomicCacheStats::default();
        let slot = origins
            .admit(|| &a, Op::Write, &stats)
            .expect("a write is never shed");
        assert_eq!(lock(&a.health).inflight, 1);
        assert_eq!(origins.running(), 0);
        slot.settle(&OK);
        assert_eq!(lock(&a.health).inflight, 0);
        assert_eq!(lock(&a.health).ewma_micros, 0, "no observation was fed");
    }

    #[test]
    fn doomed_arrivals_are_shed_without_queueing() {
        let control = OverloadControl {
            expected_service_micros: 5_000,
            ..OverloadControl::default()
        };
        let origins = windowed(1, Some(control));
        let o = origins.get("o".into());
        let (clock, stats) = (&origins.clock, AtomicCacheStats::default());
        let holder = enter(&origins, &o, &stats);
        // Budget 1000µs, expected service 5000µs: doomed on arrival.
        let deadline = Some(clock.now().plus(1_000));
        assert!(matches!(
            origins.admit(|| &o, fetch(deadline), &stats),
            Err(PlacelessError::Overloaded {
                retry_after: 10_000
            })
        ));
        assert_eq!(origins.queued(), 0, "shed arrivals never park");
        assert_eq!(stats.snapshot().sheds_foreground, 1);
        // With a free slot the same arrival is admitted instantly.
        drop(holder);
        assert!(origins.admit(|| &o, fetch(deadline), &stats).is_ok());
        assert_eq!(stats.snapshot().queue_wait_micros, 0);
    }

    #[test]
    fn queued_reader_sheds_when_virtual_deadline_lapses() {
        let control = OverloadControl {
            expected_service_micros: 5_000,
            ..OverloadControl::default()
        };
        let origins = windowed(1, Some(control));
        let o = origins.get("o".into());
        let (clock, stats) = (&origins.clock, AtomicCacheStats::default());
        let _holder = enter(&origins, &o, &stats);
        thread::scope(|scope| {
            let parked = scope.spawn(|| {
                // Budget 10000µs covers one expected service, so the
                // reader queues rather than shedding on arrival.
                let deadline = Some(clock.now().plus(10_000));
                origins.admit(|| &o, fetch(deadline), &stats).map(drop)
            });
            while origins.queued() < 1 {
                thread::sleep(Duration::from_millis(1));
            }
            // The slot never frees; the virtual clock passes the deadline.
            clock.advance(20_000);
            let shed = parked.join().expect("no panic");
            assert!(matches!(shed, Err(PlacelessError::Overloaded { .. })));
        });
        assert!(
            stats.snapshot().queue_wait_micros >= 10_000,
            "queue wait is accounted"
        );
        assert_eq!(origins.queued(), 0);
    }

    #[test]
    fn a_release_wakes_only_a_queued_reader() {
        let origins = windowed(1, None);
        let o = origins.get("o".into());
        let stats = AtomicCacheStats::default();
        let mut alone = enter(&origins, &o, &stats);
        assert!(!alone.release(false), "nobody queued, nobody to wake");
        assert!(!alone.release(false), "and a slot leaves once");
        assert_eq!(lock(&o.health).inflight, 0);

        let mut holder = enter(&origins, &o, &stats);
        thread::scope(|scope| {
            let parked = scope.spawn(|| drop(enter(&origins, &o, &stats)));
            while origins.queued() < 1 {
                thread::sleep(Duration::from_millis(1));
            }
            assert!(holder.release(false), "the queued reader is woken");
            parked.join().expect("and admitted: no deadline, no poll");
        });
        assert_eq!((origins.running(), origins.queued()), (0, 0));
        assert_eq!(lock(&o.health).inflight, 0);
    }

    #[test]
    fn the_ladder_sheds_background_fetches_by_rung() {
        let control = OverloadControl {
            brownout_dwell_micros: 0,
            ..OverloadControl::default()
        };
        let enter = OverloadControl::BROWNOUT_ENTER_WAITERS;
        let origins = windowed(1, Some(control));
        let o = origins.get("o".into());
        let stats = AtomicCacheStats::default();
        let class = |priority| FetchCtx {
            priority,
            deadline_at: None,
        };
        let admits = |op| origins.admit(|| &o, op, &stats).is_ok();
        for rung in [Rung::WidenStale, Rung::SkipStageFills, Rung::ShedPrefetch] {
            assert_eq!(origins.sample(|| enter, &stats), rung);
        }
        assert!(!admits(Op::Prefetch(class(Priority::Prefetch))));
        assert!(admits(Op::Fetch(class(Priority::Refresh))));
        assert_eq!(origins.sample(|| enter, &stats), Rung::Reject);
        assert!(!admits(Op::Fetch(class(Priority::Refresh))));
        assert!(!admits(Op::Fetch(class(Priority::Prefetch))));
        assert!(admits(Op::Fetch(class(Priority::Foreground))));
        assert!(admits(Op::Write));
        let snapshot = stats.snapshot();
        assert_eq!((snapshot.sheds_prefetch, snapshot.sheds_refresh), (2, 1));
        assert_eq!((snapshot.brownout_shifts, snapshot.brownout_level), (4, 4));
    }

    #[test]
    fn no_control_means_no_ladder() {
        let origins = windowed(1, None);
        let stats = AtomicCacheStats::default();
        let pressure = || -> u64 { panic!("nothing to sample without control") };
        assert_eq!(origins.sample(pressure, &stats), Rung::Normal);
        assert_eq!(origins.rung(), Rung::Normal);
    }

    #[test]
    fn aimd_shrinks_on_slow_and_grows_on_fast() {
        let control = OverloadControl {
            target_fetch_micros: 1_000,
            ..OverloadControl::default()
        };
        let mut gate = Health {
            limit: 8,
            ..Health::default()
        };
        let mut observe = |micros| {
            gate.observe(&control, 8, micros);
            gate.limit
        };
        assert_eq!(observe(5_000), 4, "8/2 on a slow fetch");
        assert_eq!(observe(5_000), 2);
        assert_eq!(observe(5_000), 1);
        assert_eq!(observe(5_000), 1, "floored at min");
        assert_eq!(observe(100), 2, "+1 on a fast fetch");
        for _ in 0..10 {
            observe(100);
        }
        assert_eq!(observe(100), 8, "capped at the width");
    }

    #[test]
    fn ewma_warms_from_prior_then_tracks() {
        let control = OverloadControl {
            expected_service_micros: 2_000,
            ..OverloadControl::default()
        };
        let mut gate = Health {
            limit: 4,
            ..Health::default()
        };
        assert_eq!(gate.expected_completion_micros(&control), 2_000, "prior");
        gate.observe(&control, 4, 10_000);
        assert_eq!(
            gate.expected_completion_micros(&control),
            10_000,
            "first sample"
        );
        gate.observe(&control, 4, 2_000);
        assert_eq!(
            gate.expected_completion_micros(&control),
            8_000,
            "(3·10k + 2k)/4"
        );
    }

    #[test]
    fn expected_completion_counts_drain_rounds() {
        let control = OverloadControl {
            expected_service_micros: 1_000,
            ..OverloadControl::default()
        };
        let mut gate = Health {
            limit: 4,
            ..Health::default()
        };
        // Empty queue: one service time.
        assert_eq!(gate.expected_completion_micros(&control), 1_000);
        // 7 ahead, 4 slots: one full round ahead of us, then ours.
        gate.queued = 7;
        assert_eq!(gate.expected_completion_micros(&control), 2_000);
        // A zero width is clamped rather than divided by.
        (gate.queued, gate.limit) = (3, 0);
        assert_eq!(gate.expected_completion_micros(&control), 4_000);
    }

    #[test]
    fn ladder_has_hysteresis_and_dwell() {
        let control = OverloadControl {
            brownout_dwell_micros: 1_000,
            ..OverloadControl::default()
        };
        let mut ladder = Ladder::default();
        // First sample may move immediately (nothing to dwell from).
        assert_eq!(
            ladder.step(&control, Instant(10), 9),
            Some(Rung::WidenStale)
        );
        // Within the dwell: no move even under pressure.
        assert_eq!(ladder.step(&control, Instant(500), 100), None);
        // After the dwell: one rung at a time.
        assert_eq!(
            ladder.step(&control, Instant(1_100), 100),
            Some(Rung::SkipStageFills)
        );
        // Pressure between exit and enter thresholds: hold steady.
        assert_eq!(ladder.step(&control, Instant(3_000), 5), None);
        assert_eq!(ladder.rung, Rung::SkipStageFills);
        // Pressure drains: step back down.
        assert_eq!(
            ladder.step(&control, Instant(5_000), 0),
            Some(Rung::WidenStale)
        );
        for _ in 0..10 {
            ladder.step(&control, Instant(u64::MAX), 0);
        }
        assert_eq!(ladder.rung, Rung::Normal, "saturates at the bottom");
    }

    #[test]
    fn decisions_replay_identically() {
        let run = || {
            let control = OverloadControl::default();
            let mut gate = Health {
                limit: 8,
                ..Health::default()
            };
            let mut ladder = Ladder::default();
            let mut log = Vec::new();
            for i in 0..200u64 {
                let observed = (i * 37) % 9_000;
                gate.observe(&control, 8, observed);
                log.push(gate.limit);
                let moved = ladder.step(&control, Instant(i * 700), (i * 13) % 16);
                log.push(moved.map_or(99, |to| to as u32));
            }
            log
        };
        assert_eq!(run(), run(), "controller is a pure function of inputs");
    }

    #[test]
    fn priority_orders_by_importance() {
        assert!(Priority::Prefetch < Priority::Refresh);
        assert!(Priority::Refresh < Priority::Foreground);
        assert_eq!(Priority::default(), Priority::Foreground);
        assert_eq!(Priority::Prefetch.label(), "prefetch");
    }

    /// A scripted operation for [`RetryDriver::run`]: fails with
    /// `script`'s errors in turn, then succeeds. Returns the driver's
    /// verdict, how many attempts ran, and the virtual time charged.
    fn drive<'o>(
        origins: &Origins,
        deadline: Option<u64>,
        origin: impl Fn() -> &'o Origin,
        script: Vec<PlacelessError>,
    ) -> (Result<(), PlacelessError>, usize, u64) {
        let (clock, stats) = (&origins.clock, AtomicCacheStats::default());
        let started = clock.now();
        let driver = RetryDriver {
            origins,
            stats: &stats,
            op: fetch(None),
            deadline,
        };
        let mut script = script.into_iter();
        let mut attempts = 0;
        let verdict = driver
            .run(origin, Some(0), || {
                attempts += 1;
                script.next().map_or(Ok(()), |error| Err([error]))
            })
            .map_err(GaveUp::into_error);
        (verdict, attempts, clock.now().since(started))
    }

    fn unavailable(retry_after: Option<u64>) -> PlacelessError {
        PlacelessError::Unavailable {
            source: "web".into(),
            retry_after,
        }
    }

    #[test]
    fn default_config_is_one_attempt_and_the_attempts_own_error() {
        let origins = Origins::new(OriginConfig::default(), VirtualClock::new());
        let no_origin =
            || -> &'static Origin { panic!("the default config must not resolve the origin") };
        let (verdict, attempts, waited) = drive(&origins, None, no_origin, vec![unavailable(None)]);
        assert_eq!(verdict, Err(unavailable(None)));
        assert_eq!((attempts, waited), (1, 0));
        let (verdict, attempts, waited) = drive(&origins, None, no_origin, Vec::new());
        assert_eq!(verdict, Ok(()));
        assert_eq!((attempts, waited), (1, 0));
    }

    #[test]
    fn deadline_shorter_than_the_backoff_charges_exactly_the_budget() {
        let config = OriginConfig::default().max_retries(3);
        let origins = Origins::new(config, VirtualClock::new());
        let web = origins.get("web".into());
        let (verdict, attempts, waited) = drive(
            &origins,
            Some(400),
            || &web,
            vec![unavailable(None), unavailable(None)],
        );
        assert_eq!(
            verdict,
            Err(PlacelessError::Timeout {
                source: "web".into(),
                elapsed_micros: 400,
            })
        );
        assert_eq!((attempts, waited), (1, 400));
    }

    #[test]
    fn hint_beyond_the_horizon_gives_up_with_the_original_error() {
        let config = OriginConfig::default().max_retries(3);
        let hinted = unavailable(Some(config.hint_horizon_micros() + 1));
        let origins = Origins::new(config, VirtualClock::new());
        let web = origins.get("web".into());
        let (verdict, attempts, waited) = drive(
            &origins,
            None,
            || &web,
            vec![hinted.clone(), hinted.clone()],
        );
        assert_eq!(verdict, Err(hinted));
        assert_eq!((attempts, waited), (1, 0));
    }

    #[test]
    fn open_breaker_rejects_without_an_attempt() {
        let origins = Origins::new(OriginConfig::default().breaker(true), VirtualClock::new());
        let web = origins.get("web".into());
        fail(&web, Instant(0), THRESHOLD);
        let (verdict, attempts, waited) = drive(&origins, None, || &web, Vec::new());
        assert_eq!(verdict, Err(unavailable(Some(OPEN))));
        assert_eq!((attempts, waited), (0, 0));
    }

    #[test]
    fn retry_floor_reads_only_unavailable_hints() {
        let timeout = PlacelessError::Timeout {
            source: "o".into(),
            elapsed_micros: 9,
        };
        assert_eq!(retry_floor(&unavailable(Some(7_500))), 7_500);
        assert_eq!(retry_floor(&unavailable(None)), 0);
        assert_eq!(retry_floor(&timeout), 0, "timeouts carry no hint");
    }

    #[test]
    fn hint_horizon_is_the_final_attempts_maximum_delay() {
        // Final (0-based) retry is attempt 2: 500 << 2, plus a quarter.
        let config = OriginConfig::default().max_retries(3);
        assert_eq!(config.hint_horizon_micros(), 2_500, "max jitter included");
        assert_eq!(
            OriginConfig::default().hint_horizon_micros(),
            625,
            "zero retries still report the base horizon"
        );
    }

    #[test]
    fn staleness_bound_measures_from_fill() {
        let bound = StalenessBound::micros(1_000);
        assert!(bound.permits(Instant(500), Instant(1_500)));
        assert!(!bound.permits(Instant(500), Instant(1_501)));
        assert!(StalenessBound::ZERO.permits(Instant(5), Instant(5)));
        assert!(!StalenessBound::ZERO.permits(Instant(5), Instant(6)));
    }

    /// Whether `delay` is retry `attempt`'s base plus at most a quarter.
    fn jittered(attempt: u32, delay: u64) -> bool {
        let base = OriginConfig::BACKOFF_BASE_MICROS << attempt.min(20);
        (base..=base + base / 4).contains(&delay)
    }

    #[test]
    fn backoff_doubles_and_is_deterministic() {
        let mut a = BackoffSchedule::new(7);
        let mut b = BackoffSchedule::new(7);
        for attempt in 0..4 {
            let da = a.delay_micros(attempt);
            assert_eq!(da, b.delay_micros(attempt), "same salt, same schedule");
            assert!(jittered(attempt, da), "jitter within +25%: {da}");
        }
        let mut c = BackoffSchedule::new(8);
        let schedules_differ =
            (0..4).any(|n| BackoffSchedule::new(7).delay_micros(n) != c.delay_micros(n));
        assert!(schedules_differ, "different salt, different jitter");
    }

    #[test]
    fn origin_salted_backoff_is_stable_per_origin() {
        let schedule = |key| BackoffSchedule::new(origin_salt(key));
        let (mut a, mut b) = (schedule("fs"), schedule("fs"));
        for attempt in 0..4 {
            assert_eq!(
                a.delay_micros(attempt),
                b.delay_micros(attempt),
                "same origin, same schedule"
            );
        }
        let mut other = schedule("dms");
        let schedules_differ =
            (0..4).any(|n| schedule("fs").delay_micros(n) != other.delay_micros(n));
        assert!(schedules_differ, "different origin, different jitter");
        assert_eq!(
            origin_salt(""),
            0xcbf2_9ce4_8422_2325,
            "FNV-1a offset basis"
        );
    }

    #[test]
    fn backoff_shift_is_capped() {
        let delay = BackoffSchedule::new(0).delay_micros(63);
        assert!(jittered(20, delay), "shift capped, no overflow: {delay}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The backoff schedule is a pure function of its salt.
        #[test]
        fn backoff_schedule_replays_exactly(salt in any::<u64>()) {
            let mut a = BackoffSchedule::new(salt);
            let mut b = BackoffSchedule::new(salt);
            for attempt in 0..12 {
                let da = a.delay_micros(attempt);
                prop_assert_eq!(da, b.delay_micros(attempt));
                // Jitter never exceeds the documented fraction of the base.
                prop_assert!(jittered(attempt, da));
            }
        }
    }
}
