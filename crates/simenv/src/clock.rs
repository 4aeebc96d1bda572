//! A shared virtual clock measured in microseconds.
//!
//! All latencies in the workspace — network hops, property execution,
//! repository service times — are charged against a [`VirtualClock`] rather
//! than wall time. This makes every experiment deterministic and lets the
//! benchmark harness report "milliseconds" comparable in shape to the
//! paper's Table 1 regardless of the host machine.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A point in virtual time, in microseconds since the start of the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Instant(pub u64);

impl Instant {
    /// Returns the zero instant (start of the simulation).
    pub const ZERO: Instant = Instant(0);

    /// Returns this instant expressed in whole microseconds.
    pub fn as_micros(self) -> u64 {
        self.0
    }

    /// Returns this instant expressed in (fractional) milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Returns the duration elapsed since `earlier`, saturating at zero.
    pub fn since(self, earlier: Instant) -> u64 {
        self.0.saturating_sub(earlier.0)
    }

    /// Returns this instant advanced by `micros` microseconds.
    pub fn plus(self, micros: u64) -> Instant {
        Instant(self.0.saturating_add(micros))
    }
}

/// A shared, monotonically advancing virtual clock.
///
/// Cloning a `VirtualClock` yields a handle to the *same* underlying clock;
/// every component of a simulation should observe a single time line.
///
/// # Examples
///
/// ```
/// use placeless_simenv::VirtualClock;
///
/// let clock = VirtualClock::new();
/// let t0 = clock.now();
/// clock.advance(1_500);
/// assert_eq!(clock.now().since(t0), 1_500);
/// ```
#[derive(Debug, Clone, Default)]
pub struct VirtualClock {
    micros: Arc<AtomicU64>,
}

impl VirtualClock {
    /// Creates a new clock at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a new clock already advanced to `micros`.
    pub fn starting_at(micros: u64) -> Self {
        let clock = Self::new();
        clock.micros.store(micros, Ordering::SeqCst);
        clock
    }

    /// Returns the current virtual time.
    pub fn now(&self) -> Instant {
        Instant(self.micros.load(Ordering::SeqCst))
    }

    /// Advances the clock by `micros` microseconds and returns the new time.
    ///
    /// Advancing is how simulated work "takes time": a component that wants
    /// to charge 3 ms of service time calls `clock.advance(3_000)`. A zero
    /// charge (a free latency model) only reads: it must not make every
    /// core write the clock's cache line.
    pub fn advance(&self, micros: u64) -> Instant {
        if micros == 0 {
            return self.now();
        }
        Instant(self.micros.fetch_add(micros, Ordering::SeqCst) + micros)
    }

    /// Advances the clock so that it reads at least `target`.
    ///
    /// Returns the resulting time. If the clock is already past `target`
    /// this is a no-op; the clock never moves backwards.
    pub fn advance_to(&self, target: Instant) -> Instant {
        let mut current = self.micros.load(Ordering::SeqCst);
        while current < target.0 {
            match self.micros.compare_exchange(
                current,
                target.0,
                Ordering::SeqCst,
                Ordering::SeqCst,
            ) {
                Ok(_) => return target,
                Err(observed) => current = observed,
            }
        }
        Instant(current)
    }
}

/// A stopwatch over a [`VirtualClock`], used to measure simulated spans.
#[derive(Debug, Clone)]
pub struct Stopwatch {
    clock: VirtualClock,
    started: Instant,
}

impl Stopwatch {
    /// Starts a stopwatch at the clock's current time.
    pub fn start(clock: &VirtualClock) -> Self {
        Self {
            clock: clock.clone(),
            started: clock.now(),
        }
    }

    /// Returns the simulated microseconds elapsed since the stopwatch started.
    pub fn elapsed_micros(&self) -> u64 {
        self.clock.now().since(self.started)
    }

    /// Returns the simulated milliseconds elapsed since the stopwatch started.
    pub fn elapsed_millis_f64(&self) -> f64 {
        self.elapsed_micros() as f64 / 1_000.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_clock_reads_zero() {
        let clock = VirtualClock::new();
        assert_eq!(clock.now(), Instant::ZERO);
    }

    #[test]
    fn advance_accumulates() {
        let clock = VirtualClock::new();
        clock.advance(10);
        clock.advance(32);
        assert_eq!(clock.now().as_micros(), 42);
    }

    #[test]
    fn clones_share_the_time_line() {
        let clock = VirtualClock::new();
        let other = clock.clone();
        clock.advance(7);
        assert_eq!(other.now().as_micros(), 7);
        other.advance(3);
        assert_eq!(clock.now().as_micros(), 10);
    }

    #[test]
    fn advance_to_never_moves_backwards() {
        let clock = VirtualClock::starting_at(100);
        clock.advance_to(Instant(50));
        assert_eq!(clock.now().as_micros(), 100);
        clock.advance_to(Instant(150));
        assert_eq!(clock.now().as_micros(), 150);
    }

    #[test]
    fn instant_arithmetic() {
        let a = Instant(1_000);
        assert_eq!(a.plus(500).as_micros(), 1_500);
        assert_eq!(a.since(Instant(400)), 600);
        assert_eq!(Instant(400).since(a), 0, "since saturates at zero");
        assert!((a.as_millis_f64() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn stopwatch_measures_simulated_spans() {
        let clock = VirtualClock::new();
        let watch = Stopwatch::start(&clock);
        clock.advance(2_500);
        assert_eq!(watch.elapsed_micros(), 2_500);
        assert!((watch.elapsed_millis_f64() - 2.5).abs() < 1e-9);
    }

    #[test]
    fn starting_at_sets_origin() {
        let clock = VirtualClock::starting_at(9_999);
        assert_eq!(clock.now().as_micros(), 9_999);
    }
}
