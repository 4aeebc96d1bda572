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
//! That state is `std`'s mutex and condvar; the two flight tables are the
//! facade's mutex (a short wait spins). All are **leaves** in the
//! manager's lock order: no shard lock
//! is ever taken while one is held, and the manager only joins flights
//! while holding no shard lock. Waiting
//! threads hold no lock at all while blocked. Leader/waiter waits cannot
//! cycle: a version leader may wait on a stage flight, but a stage
//! leader only executes its transform — it never joins another flight.

use crate::policy::EntryKey;
use bytes::Bytes;
use placeless_core::error::PlacelessError;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

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
        let mut state = lock(&self.state);
        // Counted before the first wait; after the outcome, read by nobody.
        state.1 += 1;
        loop {
            match &state.0 {
                FlightState::Pending => {
                    state = self
                        .done
                        .wait(state)
                        .unwrap_or_else(PoisonError::into_inner);
                }
                FlightState::Done(result) => return Some(result.clone()),
                FlightState::Abandoned => return None,
            }
        }
    }

    /// Publishes `outcome` and wakes the registered waiters, if any;
    /// returns whether there were any.
    fn finish(&self, outcome: FlightState) -> bool {
        let mut state = lock(&self.state);
        state.0 = outcome;
        let waiters = state.1 > 0;
        drop(state);
        if waiters {
            self.done.notify_all();
        }
        waiters
    }
}

/// A mutex lock that shrugs off poisoning: flight state transitions (and
/// `crate::origin`'s breaker and window updates) are trivial stores, so state is
/// coherent even if a panicking thread was interrupted holding the lock.
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
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
    flights: parking_lot::Mutex<HashMap<EntryKey, Arc<Flight>>>,
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
    use std::thread;
    use std::time::Duration;

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
        let group = Arc::new(FlightGroup::new());
        let Join::Leader(guard) = group.join(key(7)) else {
            panic!("first joiner must lead");
        };
        let waiters: Vec<_> = (0..4)
            .map(|_| {
                let group = Arc::clone(&group);
                thread::spawn(move || match group.join(key(7)) {
                    Join::Waited(Some(FlightResult::Shared { bytes, .. })) => bytes,
                    _ => panic!("expected a shared outcome"),
                })
            })
            .collect();
        // All four must be blocked inside join before the leader lands.
        while group.waiting() < 4 {
            thread::sleep(Duration::from_millis(1));
        }
        guard.complete(|| FlightResult::Shared {
            bytes: Bytes::from_static(b"payload"),
            forward: false,
        });
        for waiter in waiters {
            assert_eq!(waiter.join().expect("no panic"), "payload");
        }
        assert_eq!(group.waiting(), 0);
    }

    #[test]
    fn waiters_share_the_leaders_error() {
        let group = Arc::new(FlightGroup::new());
        let Join::Leader(guard) = group.join(key(9)) else {
            panic!("first joiner must lead");
        };
        let waiter = {
            let group = Arc::clone(&group);
            thread::spawn(move || match group.join(key(9)) {
                Join::Waited(Some(FlightResult::Failed(error))) => error,
                _ => panic!("expected the shared failure"),
            })
        };
        while group.waiting() < 1 {
            thread::sleep(Duration::from_millis(1));
        }
        guard.complete(|| {
            FlightResult::Failed(PlacelessError::Unavailable {
                source: "origin-x".into(),
                retry_after: None,
            })
        });
        let error = waiter.join().expect("no panic");
        assert!(matches!(error, PlacelessError::Unavailable { .. }));
    }

    #[test]
    fn dropped_guard_abandons_instead_of_hanging() {
        let group = Arc::new(FlightGroup::new());
        let guard = match group.join(key(3)) {
            Join::Leader(guard) => guard,
            Join::Waited(_) => panic!("first joiner must lead"),
        };
        let waiter = {
            let group = Arc::clone(&group);
            thread::spawn(move || matches!(group.join(key(3)), Join::Waited(None)))
        };
        while group.waiting() < 1 {
            thread::sleep(Duration::from_millis(1));
        }
        drop(guard);
        assert!(waiter.join().expect("no panic"), "waiter saw abandonment");
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
        let group = Arc::new(FlightGroup::new());
        let done = || FlightState::Done(FlightResult::Unshared);
        assert!(!lead(&group, 1).close(done), "sole leader, completed");
        assert!(
            !lead(&group, 1).close(|| FlightState::Abandoned),
            "and dropped"
        );

        for abandon in [false, true] {
            let mut guard = lead(&group, 2);
            let waiter = {
                let group = Arc::clone(&group);
                thread::spawn(move || matches!(group.join(key(2)), Join::Waited(_)))
            };
            // Registered under the flight's own mutex, not merely counted
            // by the group's gauge: only then may the leader rely on it.
            while lock(&guard.flight.state).1 < 1 {
                thread::sleep(Duration::from_millis(1));
            }
            let outcome = || {
                if abandon {
                    FlightState::Abandoned
                } else {
                    done()
                }
            };
            assert!(guard.close(outcome), "one parked waiter is woken");
            assert!(waiter.join().expect("no panic"), "and it returns");
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
