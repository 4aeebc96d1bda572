//! Single-flight miss coalescing.
//!
//! Under heavy concurrent traffic the expensive event is not the miss
//! itself but the *redundant* miss: N threads observe the same key absent
//! and all N walk the property chain, so one cold popular document costs
//! N provider fetches and N transform executions. A [`FlightGroup`]
//! deduplicates that work: the first thread to miss a key becomes the
//! flight's **leader** and computes the result; every other thread that
//! misses the same key while the flight is open becomes a **waiter**,
//! blocks on the leader's condvar, and shares the leader's outcome — a
//! cloneable [`FlightResult`], so errors are shared exactly like bytes.
//!
//! The flight is removed from the table *before* its outcome is
//! published, so a thread arriving after completion starts a fresh
//! flight: a failed flight is never sticky, and the next read retries
//! against the origin. The leader makes its outcome only then, so a
//! version leader shares its bytes only if the verifiers that attest
//! content still vouch for them: a reader that joined after a write the
//! fetch missed fetches for itself.
//!
//! Both layers of the read path use the same group type:
//!
//! * **version flights**, keyed `EntryKey::Version(doc, user)`, wrap the
//!   whole resilient miss fetch;
//! * **stage flights**, keyed `EntryKey::Stage(signature)`, wrap one
//!   stage execution inside the compiled-plan walk, so concurrent misses
//!   on the same `(doc, stage)` signature — typically different users
//!   sharing a chain prefix — compute the intermediate exactly once.
//!
//! The per-origin windows of `crate::origin` are the companion
//! back-pressure mechanism for the misses a flight cannot merge (distinct
//! keys, one origin).
//!
//! **A flight wakes only its waiters** (DESIGN.md §4.5). A waiter counts
//! itself under the flight's state mutex before it first waits; the leader
//! publishes and reads that count under the same mutex, so a waiter is
//! counted or sees the outcome, and a leader nobody joined — nearly every
//! miss — makes no `notify_all`, a system call in `std`, waiter or not.
//! That state, its condvar and the two flight tables are the
//! `parking_lot` facade's, like every lock of the cache (a short wait
//! spins, and a scheduler can run any interleaving of them). All are
//! **leaves** in the manager's lock order: no shard lock
//! is ever taken while one is held, and the manager only joins flights
//! while holding no shard lock. Waiting
//! threads hold no lock at all while blocked. Leader/waiter waits cannot
//! cycle: a version leader may wait on a stage flight, but a stage
//! leader only executes its transform — it never joins another flight.

use crate::policy::EntryKey;
use bytes::Bytes;
use parking_lot::{Condvar, Mutex};
use placeless_core::error::PlacelessError;
use placeless_core::keymap::KeyMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// What a flight leader publishes to its waiters. Cloneable, so one
/// computation fans out to any number of waiters — including one
/// failure.
#[derive(Debug, Clone)]
pub(crate) enum FlightResult {
    /// The leader produced shareable bytes.
    Shared {
        /// The computed content.
        bytes: Bytes,
        /// Whether the read path demands per-read event forwarding
        /// (`CacheableWithEvents`): each waiter posts its own event.
        forward: bool,
    },
    /// The leader completed, but the result must not be shared
    /// (uncacheable content has to reach the origin on every read).
    /// Waiters fall back to their own fetch.
    Unshared,
    /// The leader's fetch failed; every waiter shares this error.
    Failed(PlacelessError),
}

#[derive(Default)]
enum FlightState {
    #[default]
    Pending,
    Done(FlightResult),
    /// The leader unwound without completing (panic in a transform).
    /// Waiters fall back to their own fetch rather than hanging.
    Abandoned,
}

#[derive(Default)]
struct Flight {
    /// The outcome, and how many waiters registered while it was pending.
    state: Mutex<(FlightState, u32)>,
    done: Condvar,
}

impl Flight {
    /// Blocks until the leader publishes; `None` means abandoned.
    fn wait(&self) -> Option<FlightResult> {
        let mut state = self.state.lock();
        // Counted before the first wait; after the outcome, read by nobody.
        state.1 += 1;
        loop {
            match &state.0 {
                FlightState::Pending => state = self.done.wait(state),
                FlightState::Done(result) => return Some(result.clone()),
                FlightState::Abandoned => return None,
            }
        }
    }

    /// Publishes `outcome` and wakes the registered waiters, if any;
    /// returns whether there were any.
    fn finish(&self, outcome: FlightState) -> bool {
        let mut state = self.state.lock();
        state.0 = outcome;
        let waiters = state.1 > 0;
        drop(state);
        if waiters {
            self.done.notify_all();
        }
        waiters
    }
}

/// How [`FlightGroup::join`] classified the caller.
pub(crate) enum Join<'a> {
    /// First thread in: compute the result, then publish it through the
    /// guard. Dropping the guard without completing abandons the flight.
    Leader(FlightGuard<'a>),
    /// Another thread was already computing this key; this is its
    /// (cloned) outcome. `None` means the leader abandoned the flight —
    /// fall back to an independent fetch.
    Waited(Option<FlightResult>),
}

/// One in-flight computation per key; see the module docs.
#[derive(Default)]
pub(crate) struct FlightGroup {
    flights: Mutex<KeyMap<EntryKey, Arc<Flight>>>,
    /// Threads currently blocked inside [`FlightGroup::join`] as waiters
    /// (a gauge, exposed for experiments and tests).
    waiting: AtomicU64,
}

impl FlightGroup {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Joins the flight for `key`, creating it if none is open.
    ///
    /// Waiters block (holding no lock) until the leader publishes.
    pub(crate) fn join(&self, key: EntryKey) -> Join<'_> {
        let flight = {
            let mut flights = self.flights.lock();
            match flights.get(&key) {
                Some(flight) => Arc::clone(flight),
                None => {
                    let flight = Arc::<Flight>::default();
                    flights.insert(key, Arc::clone(&flight));
                    return Join::Leader(FlightGuard {
                        group: self,
                        key,
                        flight,
                        closed: false,
                    });
                }
            }
        };
        self.waiting.fetch_add(1, Ordering::SeqCst);
        let result = flight.wait();
        self.waiting.fetch_sub(1, Ordering::SeqCst);
        Join::Waited(result)
    }

    /// Returns how many threads are currently blocked waiting on some
    /// flight in this group.
    pub(crate) fn waiting(&self) -> u64 {
        self.waiting.load(Ordering::SeqCst)
    }
}

/// The leader's obligation to publish; see [`Join::Leader`].
pub(crate) struct FlightGuard<'a> {
    group: &'a FlightGroup,
    key: EntryKey,
    flight: Arc<Flight>,
    closed: bool,
}

impl FlightGuard<'_> {
    /// Closes the flight and publishes `result()` to every waiter. It runs
    /// once no thread can join any more, so a freshness check made in it
    /// covers the read of every waiter.
    pub(crate) fn complete(mut self, result: impl FnOnce() -> FlightResult) {
        self.close(|| FlightState::Done(result()));
    }

    /// The flight leaves the table *before* the outcome is made and lands,
    /// so later arrivals start a fresh flight (a failure is shared with the
    /// threads that waited on it, never with the next read). Whether it
    /// woke any.
    fn close(&mut self, outcome: impl FnOnce() -> FlightState) -> bool {
        self.closed = true;
        self.group.flights.lock().remove(&self.key);
        self.flight.finish(outcome())
    }
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        if !self.closed {
            self.close(|| FlightState::Abandoned);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use placeless_core::id::{DocumentId, UserId};
    use placeless_simenv::sched::{self, Schedule};
    use placeless_simenv::VirtualClock;

    /// The schedules each threaded test runs under.
    const SEEDS: std::ops::Range<u64> = 0..16;

    fn key(n: u64) -> EntryKey {
        EntryKey::Version(DocumentId(n), UserId(1))
    }

    #[test]
    fn sole_joiner_is_leader() {
        let group = FlightGroup::new();
        match group.join(key(1)) {
            Join::Leader(guard) => guard.complete(|| FlightResult::Unshared),
            Join::Waited(_) => panic!("first joiner must lead"),
        }
        // The flight closed: the next joiner leads a fresh one.
        assert!(matches!(group.join(key(1)), Join::Leader(_)));
    }

    #[test]
    fn waiters_share_the_leaders_bytes() {
        for seed in SEEDS {
            let group = FlightGroup::new();
            let guard = lead(&group, 7);
            let mut schedule = Schedule::new(seed, &VirtualClock::new());
            for _ in 0..4 {
                schedule.spawn(|| match group.join(key(7)) {
                    Join::Waited(Some(FlightResult::Shared { bytes, .. })) => {
                        assert_eq!(bytes, "payload");
                    }
                    _ => panic!("expected a shared outcome"),
                });
            }
            schedule.spawn(|| {
                // All four must be blocked inside join before the leader lands.
                while group.waiting() < 4 {
                    sched::yield_now();
                }
                guard.complete(|| FlightResult::Shared {
                    bytes: Bytes::from_static(b"payload"),
                    forward: false,
                });
            });
            schedule.run();
            assert_eq!(group.waiting(), 0);
        }
    }

    #[test]
    fn waiters_share_the_leaders_error() {
        for seed in SEEDS {
            let group = FlightGroup::new();
            let guard = lead(&group, 9);
            let mut schedule = Schedule::new(seed, &VirtualClock::new());
            schedule
                .spawn(|| match group.join(key(9)) {
                    Join::Waited(Some(FlightResult::Failed(error))) => {
                        assert!(matches!(error, PlacelessError::Unavailable { .. }));
                    }
                    _ => panic!("expected the shared failure"),
                })
                .spawn(|| {
                    while group.waiting() < 1 {
                        sched::yield_now();
                    }
                    guard.complete(|| {
                        FlightResult::Failed(PlacelessError::Unavailable {
                            source: "origin-x".into(),
                            retry_after: None,
                        })
                    });
                });
            schedule.run();
        }
    }

    #[test]
    fn dropped_guard_abandons_instead_of_hanging() {
        for seed in SEEDS {
            let group = FlightGroup::new();
            let guard = lead(&group, 3);
            let mut schedule = Schedule::new(seed, &VirtualClock::new());
            schedule
                .spawn(|| {
                    let abandoned = matches!(group.join(key(3)), Join::Waited(None));
                    assert!(abandoned, "waiter saw abandonment");
                })
                .spawn(|| {
                    while group.waiting() < 1 {
                        sched::yield_now();
                    }
                    drop(guard);
                });
            schedule.run();
        }
    }

    fn lead(group: &FlightGroup, n: u64) -> FlightGuard<'_> {
        match group.join(key(n)) {
            Join::Leader(guard) => guard,
            Join::Waited(_) => panic!("first joiner must lead"),
        }
    }

    /// A leader nobody joined wakes nobody — on the `complete` path and on
    /// the path a dropped guard takes — and one with a parked waiter does.
    #[test]
    fn a_flight_wakes_only_its_waiters() {
        let group = FlightGroup::new();
        let done = || FlightState::Done(FlightResult::Unshared);
        assert!(!lead(&group, 1).close(done), "sole leader, completed");
        assert!(
            !lead(&group, 1).close(|| FlightState::Abandoned),
            "and dropped"
        );

        for (seed, abandon) in SEEDS.flat_map(|seed| [(seed, false), (seed, true)]) {
            let mut guard = lead(&group, 2);
            let mut schedule = Schedule::new(seed, &VirtualClock::new());
            schedule
                .spawn(|| {
                    let returned = matches!(group.join(key(2)), Join::Waited(_));
                    assert!(returned, "and it returns");
                })
                .spawn(move || {
                    // Registered under the flight's own mutex, not merely
                    // counted by the group's gauge: only then may the
                    // leader rely on it.
                    while guard.flight.state.lock().1 < 1 {
                        sched::yield_now();
                    }
                    let outcome = || match abandon {
                        true => FlightState::Abandoned,
                        false => done(),
                    };
                    assert!(guard.close(outcome), "one parked waiter is woken");
                });
            schedule.run();
        }
        assert_eq!(group.waiting(), 0);
    }

    #[test]
    fn distinct_keys_fly_independently() {
        let group = FlightGroup::new();
        let a = match group.join(key(1)) {
            Join::Leader(guard) => guard,
            Join::Waited(_) => panic!("lead a"),
        };
        // A different key must not wait on key 1's flight.
        match group.join(key(2)) {
            Join::Leader(guard) => guard.complete(|| FlightResult::Unshared),
            Join::Waited(_) => panic!("key 2 must lead its own flight"),
        }
        a.complete(|| FlightResult::Unshared);
    }
}
