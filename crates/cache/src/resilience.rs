//! Resilient fetch policy: retries, circuit breakers, serve-stale bounds.
//!
//! The paper's cache assumes the middleware answers every read. Under the
//! fault plans scripted by `placeless_simenv::fault`, it doesn't — so the
//! cache needs a policy for *transient* failures ([`PlacelessError::
//! is_transient`]): how many times to retry, how long to back off, when to
//! stop contacting a dead origin altogether, and whether a resident-but-
//! unverifiable entry may be served anyway.
//!
//! Everything here is deterministic over the virtual clock. Backoff jitter
//! comes from a seeded [`SimRng`], delays are charged with
//! `clock.advance`, and breaker state transitions key off `clock.now()` —
//! two runs with the same seed produce byte-identical schedules and
//! [`crate::stats::CacheStats`].
//!
//! Every origin operation — a miss fetch, a write-through write, a flush
//! group — goes through the one retry loop, [`RetryDriver::run`]. The
//! default [`ResilienceConfig`] enables no mechanism, which through that
//! loop is exactly one attempt and the attempt's own error.

use crate::origin::{Admission, Origin};
use crate::stats::AtomicCacheStats;
use placeless_core::error::PlacelessError;
use placeless_simenv::{Instant, SimRng, VirtualClock};
use std::sync::atomic::AtomicU64;

/// How long a resident entry may be served past a failed freshness check.
///
/// Age is measured from the entry's fill time. `StalenessBound::ZERO`
/// permits nothing; use [`StalenessBound::micros`] for a window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StalenessBound {
    /// Maximum entry age, in virtual microseconds, at which stale service
    /// is still acceptable.
    pub max_age_micros: u64,
}

impl StalenessBound {
    /// No stale service at all.
    pub const ZERO: Self = Self { max_age_micros: 0 };

    /// Any age is acceptable (used by per-read `allow_stale` opt-ins that
    /// name no window of their own).
    pub const UNBOUNDED: Self = Self {
        max_age_micros: u64::MAX,
    };

    /// Allows serving entries up to `max_age_micros` old.
    pub fn micros(max_age_micros: u64) -> Self {
        Self { max_age_micros }
    }

    /// Returns `true` if an entry filled at `filled_at` may still be
    /// served at `now`.
    pub fn permits(&self, filled_at: Instant, now: Instant) -> bool {
        now.as_micros().saturating_sub(filled_at.as_micros()) <= self.max_age_micros
    }
}

/// Per-origin circuit breaker tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive transient failures that trip the breaker open.
    pub failure_threshold: u32,
    /// How long (virtual µs) an open breaker rejects without probing.
    pub open_micros: u64,
    /// Successful half-open probes required to close again.
    pub half_open_probes: u32,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        Self {
            failure_threshold: 3,
            open_micros: 500_000,
            half_open_probes: 1,
        }
    }
}

/// The resilient-fetch policy attached to a cache.
///
/// Built with [`ResilienceConfig::builder`]; the [`Default`] turns every
/// mechanism off (no retries, no breaker, no stale service, no deadline).
#[derive(Debug, Clone)]
pub struct ResilienceConfig {
    /// Retries after the first failed fetch attempt (0 = fail fast).
    pub max_retries: u32,
    /// Base backoff before retry *n* is `backoff_base_micros << n`.
    pub backoff_base_micros: u64,
    /// Jitter added per backoff, as a fraction of the base delay in
    /// 1/256ths (e.g. 64 ≈ ±25 %). Sampled from the seeded RNG.
    pub backoff_jitter_frac: u8,
    /// Seed for the backoff-jitter RNG; same seed → same schedule.
    pub retry_seed: u64,
    /// Total virtual-time budget for one fetch including backoffs, or
    /// `None` for unbounded. Exceeding it aborts with `Timeout`.
    pub fetch_deadline_micros: Option<u64>,
    /// Per-origin circuit breaker, or `None` to always contact origins.
    pub breaker: Option<BreakerConfig>,
    /// Stale-service window, or `None` to never serve unverified bytes.
    pub serve_stale: Option<StalenessBound>,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        Self {
            max_retries: 0,
            backoff_base_micros: 1_000,
            backoff_jitter_frac: 0,
            retry_seed: 0,
            fetch_deadline_micros: None,
            breaker: None,
            serve_stale: None,
        }
    }
}

impl ResilienceConfig {
    /// Starts a builder with everything disabled.
    pub fn builder() -> ResilienceConfigBuilder {
        ResilienceConfigBuilder {
            config: Self::default(),
        }
    }

    /// The longest single backoff this config's schedule could ever
    /// grant (the final attempt's delay at maximum jitter), in virtual
    /// µs. A provider `retry_after` hint beyond this horizon means the
    /// origin will not be back within any wait the retry loop is
    /// prepared to make — the loop gives up immediately instead of
    /// burning attempts it was told would fail, or stalling the read for
    /// the whole advertised outage.
    pub fn hint_horizon_micros(&self) -> u64 {
        let exp = self.max_retries.saturating_sub(1).min(20);
        let base = self.backoff_base_micros.saturating_mul(1 << exp);
        base.saturating_add(base * u64::from(self.backoff_jitter_frac) / 256)
    }
}

/// Builder for [`ResilienceConfig`].
#[derive(Debug, Clone)]
pub struct ResilienceConfigBuilder {
    config: ResilienceConfig,
}

impl ResilienceConfigBuilder {
    /// Retries after the first failed attempt.
    pub fn max_retries(mut self, n: u32) -> Self {
        self.config.max_retries = n;
        self
    }

    /// Base backoff delay (doubled per attempt) in virtual µs.
    pub fn backoff_base_micros(mut self, micros: u64) -> Self {
        self.config.backoff_base_micros = micros;
        self
    }

    /// Jitter per backoff in 1/256ths of the delay (0 = none, 64 ≈ 25 %).
    pub fn backoff_jitter_frac(mut self, frac: u8) -> Self {
        self.config.backoff_jitter_frac = frac;
        self
    }

    /// Seeds the jitter RNG for reproducible schedules.
    pub fn retry_seed(mut self, seed: u64) -> Self {
        self.config.retry_seed = seed;
        self
    }

    /// Caps one fetch (attempts + backoffs) at `micros` of virtual time.
    pub fn fetch_deadline_micros(mut self, micros: u64) -> Self {
        self.config.fetch_deadline_micros = Some(micros);
        self
    }

    /// Enables per-origin circuit breakers.
    pub fn breaker(mut self, breaker: BreakerConfig) -> Self {
        self.config.breaker = Some(breaker);
        self
    }

    /// Permits serving resident entries within `bound` when the origin is
    /// unreachable or the freshness check cannot run.
    pub fn serve_stale(mut self, bound: StalenessBound) -> Self {
        self.config.serve_stale = Some(bound);
        self
    }

    /// Finishes the builder.
    pub fn build(self) -> ResilienceConfig {
        self.config
    }
}

/// A circuit breaker's externally visible state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Normal operation; failures are counted.
    Closed,
    /// Fetches are rejected without contacting the origin until the
    /// cool-down elapses.
    Open,
    /// Cool-down elapsed: a limited number of probe fetches go through;
    /// success closes the breaker, failure re-opens it.
    HalfOpen,
}

/// The deterministic backoff schedule for one fetch.
///
/// Delay before retry *n* (0-based) is `base << n`, plus a jitter sampled
/// from the seeded RNG: `delay * jitter_frac/256` scaled by a uniform
/// sample. Same seed, same sequence of calls → identical delays.
#[derive(Debug)]
pub struct BackoffSchedule {
    base: u64,
    jitter_frac: u8,
    rng: SimRng,
}

impl BackoffSchedule {
    /// Creates a schedule from the config, deriving the RNG from
    /// `config.retry_seed` xor a per-fetch salt (e.g. the document id) so
    /// concurrent fetches don't share a jitter stream.
    pub fn new(config: &ResilienceConfig, salt: u64) -> Self {
        Self {
            base: config.backoff_base_micros,
            jitter_frac: config.backoff_jitter_frac,
            rng: SimRng::seeded(config.retry_seed ^ salt ^ 0xBAC0_FF5E_BAC0_FF5E),
        }
    }

    /// Creates a schedule salted by an origin key instead of a per-fetch
    /// id, so one deterministic jitter stream covers a whole per-origin
    /// flush group regardless of which entries happen to be in it. The
    /// salt is an FNV-1a hash of the key — stable across processes,
    /// unlike the std hasher, which the same-seed-replay guarantee
    /// forbids.
    pub fn for_origin(config: &ResilienceConfig, origin: &str) -> Self {
        let mut salt: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in origin.as_bytes() {
            salt ^= u64::from(*byte);
            salt = salt.wrapping_mul(0x0000_0100_0000_01b3);
        }
        Self::new(config, salt)
    }

    /// Returns the delay in virtual µs before retry `attempt` (0-based),
    /// consuming one RNG sample when jitter is enabled.
    pub fn delay_micros(&mut self, attempt: u32) -> u64 {
        let exp = attempt.min(20); // cap the shift; delays beyond 2^20×base are academic
        let base = self.base.saturating_mul(1 << exp);
        if self.jitter_frac == 0 || base == 0 {
            return base;
        }
        let span = base * u64::from(self.jitter_frac) / 256;
        if span == 0 {
            return base;
        }
        base + self.rng.next_below(span + 1)
    }
}

/// Extracts the provider's `retry_after` hint from a transient failure,
/// in virtual µs (0 when the error carries none). Retry loops use it as
/// a **floor** for the next backoff wait: when the origin said how long
/// its outage lasts, retrying sooner is a guaranteed-wasted attempt, so
/// the wait is `max(backoff, hint)` — never shorter than the hint, and
/// never shorter than the schedule either. A hint beyond
/// [`ResilienceConfig::hint_horizon_micros`] makes the loop give up at
/// once instead (see there).
pub fn retry_floor(error: &PlacelessError) -> u64 {
    match error {
        PlacelessError::Unavailable {
            retry_after: Some(hint),
            ..
        } => *hint,
        _ => 0,
    }
}

/// Why [`RetryDriver::run`] stopped without a success.
pub(crate) enum GaveUp<E> {
    /// The last attempt's own errors stand: one was not transient, the
    /// retries ran out, or a provider hint lay beyond the backoff horizon.
    Own(E),
    /// The breaker rejected the operation or the deadline could not cover
    /// the next backoff: one verdict for everything the operation still
    /// had pending.
    Shared(PlacelessError),
}

impl GaveUp<[PlacelessError; 1]> {
    /// The error a single-entry operation (a fetch, a write-through
    /// write) fails with.
    pub(crate) fn into_error(self) -> PlacelessError {
        match self {
            GaveUp::Own([error]) | GaveUp::Shared(error) => error,
        }
    }
}

/// The retry loop behind every origin operation, over one cache's
/// resilience policy and clock.
pub(crate) struct RetryDriver<'a> {
    pub(crate) config: &'a ResilienceConfig,
    pub(crate) clock: &'a VirtualClock,
    /// Virtual-time budget for the whole operation, backoffs included.
    pub(crate) deadline: Option<u64>,
    /// Bumped once per breaker trip.
    pub(crate) trips: &'a AtomicU64,
    /// Bumped once per backoff actually waited out (`retries` for reads,
    /// `flush_retries` for writes and flush groups).
    pub(crate) retries: &'a AtomicU64,
}

impl RetryDriver<'_> {
    /// Runs `attempt` until it succeeds or the policy gives up: breaker
    /// admission before every attempt and one success/failure record
    /// after it, at most `max_retries` retries, each after the scheduled
    /// backoff or the longest provider `retry_after` hint among the
    /// attempt's errors, whichever is longer.
    ///
    /// An attempt fails with every error it has left — one for a fetch,
    /// one per still-pending entry for a flush group. Unless all of them
    /// are transient the loop stops at once and records nothing against
    /// the breaker.
    ///
    /// `origin` and `backoff` are called at most once each: `origin` only
    /// when a breaker is configured or the deadline lapses, `backoff` only
    /// when a retry is scheduled. Resolving the origin record takes the
    /// space lock and allocates its key, which the default config must not
    /// pay on every miss.
    pub(crate) fn run<'o, T, E: AsRef<[PlacelessError]>>(
        &self,
        origin: impl Fn() -> &'o Origin,
        backoff: impl Fn() -> BackoffSchedule,
        mut attempt: impl FnMut() -> Result<T, E>,
    ) -> Result<T, GaveUp<E>> {
        let config = self.config;
        let clock = self.clock;
        let started = clock.now();
        let guard = config.breaker.as_ref().map(|breaker| (breaker, origin()));
        let mut schedule: Option<BackoffSchedule> = None;
        let mut retry = 0u32;
        loop {
            if let Some((breaker, origin)) = &guard {
                if let Admission::Reject { retry_after } = origin.admit(breaker, clock.now()) {
                    // Fast-fail without contacting the origin at all.
                    return Err(GaveUp::Shared(PlacelessError::Unavailable {
                        source: origin.key().to_owned(),
                        retry_after: Some(retry_after),
                    }));
                }
            }
            let failure = match attempt() {
                Ok(value) => {
                    if let Some((breaker, origin)) = &guard {
                        origin.record_success(breaker);
                    }
                    return Ok(value);
                }
                Err(failure) => failure,
            };
            let errors = failure.as_ref();
            if !errors.iter().all(PlacelessError::is_transient) {
                return Err(GaveUp::Own(failure));
            }
            if let Some((breaker, origin)) = &guard {
                if origin.record_failure(breaker, clock.now()) {
                    AtomicCacheStats::bump(self.trips);
                }
            }
            if retry >= config.max_retries {
                return Err(GaveUp::Own(failure));
            }
            // Retrying sooner than the origin said it could recover is a
            // wasted attempt, and a hint beyond the schedule's horizon
            // means no wait this loop is prepared to make reaches
            // recovery: give up now.
            let floor = errors
                .iter()
                .fold(0, |floor, error| floor.max(retry_floor(error)));
            if floor > config.hint_horizon_micros() {
                return Err(GaveUp::Own(failure));
            }
            let delay = schedule
                .get_or_insert_with(&backoff)
                .delay_micros(retry)
                .max(floor);
            if let Some(budget) = self.deadline {
                // Don't start a backoff the deadline can't cover. The
                // caller still waited out the rest of its budget
                // discovering that, so charge the truncated wait to the
                // clock first: `elapsed_micros` then covers the backoff
                // that overran, not just the attempts before it.
                let elapsed = clock.now().since(started);
                if elapsed + delay > budget {
                    clock.advance(budget.saturating_sub(elapsed));
                    return Err(GaveUp::Shared(PlacelessError::Timeout {
                        source: guard
                            .map_or_else(&origin, |(_, origin)| origin)
                            .key()
                            .to_owned(),
                        elapsed_micros: clock.now().since(started),
                    }));
                }
            }
            clock.advance(delay);
            AtomicCacheStats::bump(self.retries);
            retry += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scripted operation for [`RetryDriver::run`]: fails with
    /// `script`'s errors in turn, then succeeds. Returns the driver's
    /// verdict, how many attempts ran, and the virtual time charged.
    fn drive<'o>(
        config: &ResilienceConfig,
        deadline: Option<u64>,
        origin: impl Fn() -> &'o Origin,
        script: Vec<PlacelessError>,
    ) -> (Result<(), PlacelessError>, usize, u64) {
        let clock = VirtualClock::new();
        let (trips, retries) = (AtomicU64::new(0), AtomicU64::new(0));
        let driver = RetryDriver {
            config,
            clock: &clock,
            deadline,
            trips: &trips,
            retries: &retries,
        };
        let mut script = script.into_iter();
        let mut attempts = 0;
        let verdict = driver
            .run(
                origin,
                || BackoffSchedule::new(config, 0),
                || {
                    attempts += 1;
                    script.next().map_or(Ok(()), |error| Err([error]))
                },
            )
            .map_err(GaveUp::into_error);
        (verdict, attempts, clock.now().as_micros())
    }

    fn web() -> std::sync::Arc<Origin> {
        crate::origin::Origins::new(None, None).get("web".into())
    }

    fn unavailable(retry_after: Option<u64>) -> PlacelessError {
        PlacelessError::Unavailable {
            source: "web".into(),
            retry_after,
        }
    }

    #[test]
    fn default_config_is_one_attempt_and_the_attempts_own_error() {
        let config = ResilienceConfig::default();
        let no_origin =
            || -> &'static Origin { panic!("the default config must not resolve the origin") };
        let (verdict, attempts, waited) = drive(&config, None, no_origin, vec![unavailable(None)]);
        assert_eq!(verdict, Err(unavailable(None)));
        assert_eq!((attempts, waited), (1, 0));
        let (verdict, attempts, waited) = drive(&config, None, no_origin, Vec::new());
        assert_eq!(verdict, Ok(()));
        assert_eq!((attempts, waited), (1, 0));
    }

    #[test]
    fn deadline_shorter_than_the_backoff_charges_exactly_the_budget() {
        let config = ResilienceConfig::builder()
            .max_retries(3)
            .backoff_base_micros(1_000)
            .build();
        let web = web();
        let (verdict, attempts, waited) = drive(
            &config,
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
        let config = ResilienceConfig::builder()
            .max_retries(3)
            .backoff_base_micros(1_000)
            .build();
        let hinted = unavailable(Some(config.hint_horizon_micros() + 1));
        let web = web();
        let (verdict, attempts, waited) =
            drive(&config, None, || &web, vec![hinted.clone(), hinted.clone()]);
        assert_eq!(verdict, Err(hinted));
        assert_eq!((attempts, waited), (1, 0));
    }

    #[test]
    fn open_breaker_rejects_without_an_attempt() {
        let breaker = BreakerConfig {
            failure_threshold: 1,
            open_micros: 1_000,
            half_open_probes: 1,
        };
        let config = ResilienceConfig::builder().breaker(breaker).build();
        let web = web();
        web.record_failure(&breaker, Instant(0));
        let (verdict, attempts, waited) = drive(&config, None, || &web, Vec::new());
        assert_eq!(verdict, Err(unavailable(Some(1_000))));
        assert_eq!((attempts, waited), (0, 0));
    }

    #[test]
    fn retry_floor_reads_only_unavailable_hints() {
        let hinted = PlacelessError::Unavailable {
            source: "o".into(),
            retry_after: Some(7_500),
        };
        let unhinted = PlacelessError::Unavailable {
            source: "o".into(),
            retry_after: None,
        };
        let timeout = PlacelessError::Timeout {
            source: "o".into(),
            elapsed_micros: 9,
        };
        assert_eq!(retry_floor(&hinted), 7_500);
        assert_eq!(retry_floor(&unhinted), 0);
        assert_eq!(retry_floor(&timeout), 0, "timeouts carry no hint");
    }

    #[test]
    fn hint_horizon_is_the_final_attempts_maximum_delay() {
        let config = ResilienceConfig::builder()
            .max_retries(3)
            .backoff_base_micros(1_000)
            .build();
        // Final (0-based) retry is attempt 2: 1_000 << 2, no jitter.
        assert_eq!(config.hint_horizon_micros(), 4_000);
        let jittered = ResilienceConfig::builder()
            .max_retries(3)
            .backoff_base_micros(1_000)
            .backoff_jitter_frac(64)
            .build();
        assert_eq!(jittered.hint_horizon_micros(), 5_000, "max jitter included");
        let fail_fast = ResilienceConfig::builder()
            .backoff_base_micros(1_000)
            .build();
        assert_eq!(
            fail_fast.hint_horizon_micros(),
            1_000,
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

    #[test]
    fn backoff_doubles_and_is_deterministic() {
        let config = ResilienceConfig::builder()
            .max_retries(3)
            .backoff_base_micros(1_000)
            .retry_seed(42)
            .build();
        let mut sched = BackoffSchedule::new(&config, 7);
        assert_eq!(sched.delay_micros(0), 1_000);
        assert_eq!(sched.delay_micros(1), 2_000);
        assert_eq!(sched.delay_micros(2), 4_000);

        let jittered = ResilienceConfig::builder()
            .backoff_base_micros(1_000)
            .backoff_jitter_frac(64)
            .retry_seed(42)
            .build();
        let mut a = BackoffSchedule::new(&jittered, 7);
        let mut b = BackoffSchedule::new(&jittered, 7);
        for attempt in 0..4 {
            let da = a.delay_micros(attempt);
            assert_eq!(da, b.delay_micros(attempt), "same seed, same schedule");
            let base = 1_000u64 << attempt;
            assert!(
                da >= base && da < base + base / 4 + 1,
                "jitter within +25%: {da}"
            );
        }
        let mut c = BackoffSchedule::new(&jittered, 8);
        let schedules_differ =
            (0..4).any(|n| BackoffSchedule::new(&jittered, 7).delay_micros(n) != c.delay_micros(n));
        assert!(schedules_differ, "different salt, different jitter");
    }

    #[test]
    fn origin_salted_backoff_is_stable_per_origin() {
        let jittered = ResilienceConfig::builder()
            .backoff_base_micros(1_000)
            .backoff_jitter_frac(64)
            .retry_seed(42)
            .build();
        let mut a = BackoffSchedule::for_origin(&jittered, "fs");
        let mut b = BackoffSchedule::for_origin(&jittered, "fs");
        for attempt in 0..4 {
            assert_eq!(
                a.delay_micros(attempt),
                b.delay_micros(attempt),
                "same origin, same schedule"
            );
        }
        let mut other = BackoffSchedule::for_origin(&jittered, "dms");
        let schedules_differ = (0..4).any(|n| {
            BackoffSchedule::for_origin(&jittered, "fs").delay_micros(n) != other.delay_micros(n)
        });
        assert!(schedules_differ, "different origin, different jitter");
    }

    #[test]
    fn backoff_shift_is_capped() {
        let config = ResilienceConfig::builder().backoff_base_micros(1).build();
        let mut sched = BackoffSchedule::new(&config, 0);
        assert_eq!(sched.delay_micros(63), 1 << 20, "shift capped, no overflow");
    }
}
