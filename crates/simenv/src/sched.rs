//! A seeded baton scheduler: the threads of a [`Schedule`] run one at a
//! time, and a seeded RNG picks which runs next at each switch point.
//!
//! The switch points are those of the vendored `parking_lot` facade, on
//! which every lock of the workspace sits: each `lock`, `read`, `write`,
//! condvar wait and `notify_all`, plus [`yield_now`] and [`sleep`]. A
//! contended lock blocks its thread in the scheduler until some guard is
//! released, and a condvar wait until a notify names the condvar. A wait
//! with a deadline, and a [`sleep`], is on the virtual clock: when every
//! thread is blocked and some wait on a deadline, the clock jumps to the
//! earliest one, so concurrent waits overlap in virtual time. When every
//! thread is blocked and none on a deadline, nothing can ever run again:
//! the run fails, naming each thread's wait and the seed.
//!
//! A run is a function of its seed and of what its threads do between
//! switch points, so a failure replays from the seed it names. This is the
//! idea of loom and of AWS's shuttle, which sample (shuttle) or enumerate
//! (loom) a program's interleavings, written in-tree: the threads are OS
//! threads that pass one baton. Everything a scheduled thread touches that
//! another scheduled thread may hold across a switch point must sit on the
//! facade: a thread blocked in `std` holds the baton for ever.
//!
//! ```
//! use placeless_simenv::sched::{self, Schedule};
//! use placeless_simenv::VirtualClock;
//! use std::sync::atomic::{AtomicU64, Ordering};
//!
//! let clock = VirtualClock::new();
//! let done = AtomicU64::new(0);
//! let mut schedule = Schedule::new(7, &clock);
//! for _ in 0..3 {
//!     schedule.spawn(|| {
//!         sched::sleep(&clock, 1_000);
//!         done.fetch_add(1, Ordering::SeqCst);
//!     });
//! }
//! schedule.run();
//! // Three sleeps of a millisecond overlap: one millisecond passed.
//! assert_eq!((done.into_inner(), clock.now().as_micros()), (3, 1_000));
//! ```

use crate::clock::{Instant, VirtualClock};
use crate::rng::SimRng;
use parking_lot::Wait;
use std::any::Any;
use std::cell::RefCell;
use std::fmt::Write as _;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::Thread;

/// Threads to run one at a time under one seed; see the module docs.
pub struct Schedule<'a> {
    seed: u64,
    clock: VirtualClock,
    threads: Vec<Box<dyn FnOnce() + Send + 'a>>,
}

impl<'a> Schedule<'a> {
    /// A schedule drawn from `seed` whose deadlines are on `clock`.
    pub fn new(seed: u64, clock: &VirtualClock) -> Self {
        Self {
            seed,
            clock: clock.clone(),
            threads: Vec::new(),
        }
    }

    /// Adds a thread; none starts before [`Schedule::run`].
    pub fn spawn(&mut self, body: impl FnOnce() + Send + 'a) -> &mut Self {
        self.threads.push(Box::new(body));
        self
    }

    /// Runs every thread to its end, one at a time.
    ///
    /// # Panics
    ///
    /// Panics, naming the seed, if a thread panicked or if every thread
    /// left was blocked with no deadline to jump to.
    pub fn run(self) {
        let run = Arc::new(Run {
            clock: self.clock,
            state: Mutex::new(State {
                rng: SimRng::seeded(self.seed),
                threads: Vec::new(),
                running: None,
                failure: None,
            }),
        });
        std::thread::scope(|scope| {
            let mut state = run.state();
            for (me, body) in self.threads.into_iter().enumerate() {
                let run = Arc::clone(&run);
                let thread = scope.spawn(move || run.thread(me, body));
                state
                    .threads
                    .push((Status::Runnable, thread.thread().clone()));
            }
            run.hand_on(&mut state);
        });
        let failure = run.state().failure.take();
        if let Some(failure) = failure {
            panic!("scheduled run failed (seed {}): {failure}", self.seed);
        }
    }
}

/// A switch point: another runnable thread may run before this returns.
/// Outside a scheduler it yields the processor.
pub fn yield_now() {
    match current() {
        Some((run, me)) => run.switch(me, None),
        None => std::thread::yield_now(),
    }
}

/// Holds the calling thread for `micros` of `clock`'s time. Under a
/// scheduler the thread blocks until the clock reaches the end, and the
/// others run meanwhile; alone, it advances the clock itself.
pub fn sleep(clock: &VirtualClock, micros: u64) {
    let until = clock.now().plus(micros);
    match current() {
        Some((run, me)) => {
            debug_assert!(run.clock.same(clock), "a schedule keeps one clock");
            run.switch(me, Some(Block::Sleep(until)));
        }
        None => {
            clock.advance_to(until);
        }
    }
}

/// What a blocked thread waits for.
#[derive(Debug, Clone, Copy)]
enum Block {
    /// A lock's release, or a condvar's notify or deadline.
    On(Wait),
    /// Virtual time reaching the instant.
    Sleep(Instant),
}

impl Block {
    fn deadline(self) -> Option<Instant> {
        match self {
            Block::On(Wait::Condvar { deadline, .. }) => deadline.map(Instant),
            Block::On(Wait::Lock { .. }) => None,
            Block::Sleep(until) => Some(until),
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum Status {
    Runnable,
    Blocked(Block),
    Finished,
}

struct State {
    rng: SimRng,
    /// Each thread's status and handle, by spawn order.
    threads: Vec<(Status, Thread)>,
    /// The thread holding the baton.
    running: Option<usize>,
    /// Why the run failed; from then on every thread abandons it.
    failure: Option<String>,
}

impl State {
    /// Picks the next thread to run: runnable ones first, else the clock
    /// jumps to the earliest deadline. `None` is the end of the run, or a
    /// failure it records.
    fn pick(&mut self, clock: &VirtualClock) -> Option<usize> {
        loop {
            let now = clock.now();
            let mut runnable = 0;
            let mut earliest: Option<Instant> = None;
            for (status, _) in &mut self.threads {
                let deadline = match *status {
                    Status::Blocked(block) => block.deadline(),
                    _ => None,
                };
                match deadline {
                    Some(deadline) if deadline <= now => *status = Status::Runnable,
                    Some(deadline) => {
                        earliest = Some(earliest.map_or(deadline, |e| e.min(deadline)))
                    }
                    None => {}
                }
                runnable += usize::from(matches!(status, Status::Runnable));
            }
            if runnable > 0 {
                let nth = self.rng.next_below(runnable as u64) as usize;
                return self
                    .threads
                    .iter()
                    .enumerate()
                    .filter(|(_, (status, _))| matches!(status, Status::Runnable))
                    .nth(nth)
                    .map(|(index, _)| index);
            }
            match earliest {
                Some(deadline) => {
                    clock.advance_to(deadline);
                }
                None => {
                    if self.failure.is_none() && !self.finished() {
                        self.failure = Some(self.deadlock());
                    }
                    return None;
                }
            }
        }
    }

    fn finished(&self) -> bool {
        self.threads
            .iter()
            .all(|(status, _)| matches!(status, Status::Finished))
    }

    fn deadlock(&self) -> String {
        let mut text = String::from("no runnable thread:");
        for (index, (status, _)) in self.threads.iter().enumerate() {
            let _ = match status {
                Status::Blocked(Block::On(Wait::Lock { key, what })) => {
                    write!(text, " thread {index} waits on {what} {key:#x};")
                }
                Status::Blocked(Block::On(Wait::Condvar { key, .. })) => {
                    write!(text, " thread {index} waits on condvar {key:#x};")
                }
                _ => write!(text, " thread {index} finished;"),
            };
        }
        text
    }

    /// Makes the threads blocked on what `wakes` runnable.
    fn wake(&mut self, wakes: impl Fn(Wait) -> bool) {
        for (status, _) in &mut self.threads {
            if matches!(*status, Status::Blocked(Block::On(wait)) if wakes(wait)) {
                *status = Status::Runnable;
            }
        }
    }
}

/// One run's shared state; its threads find it through [`CURRENT`].
struct Run {
    clock: VirtualClock,
    state: Mutex<State>,
}

/// The payload of a thread unwound because the run failed elsewhere.
struct Abandoned;

impl Run {
    fn state(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Passes the baton to the thread [`State::pick`] draws, or, when the
    /// run failed, to every thread, so that each abandons it.
    fn hand_on(&self, state: &mut State) {
        if state.failure.is_none() {
            state.running = state.pick(&self.clock);
        }
        match state.running {
            _ if state.failure.is_some() => {
                state.running = None;
                state.threads.iter().for_each(|(_, thread)| thread.unpark());
            }
            Some(next) => state.threads[next].1.unpark(),
            None => {}
        }
    }

    /// Parks until the baton is `me`'s; whether the run is still whole.
    fn await_baton(&self, me: usize) -> bool {
        loop {
            {
                let state = self.state();
                if state.failure.is_some() {
                    return false;
                }
                if state.running == Some(me) {
                    return true;
                }
            }
            std::thread::park();
        }
    }

    /// A switch point of thread `me`, which blocks first if it `waits`.
    fn switch(&self, me: usize, waits: Option<Block>) {
        let whole = {
            let mut state = self.state();
            if let Some(block) = waits {
                state.threads[me].0 = Status::Blocked(block);
            }
            self.hand_on(&mut state);
            state.running == Some(me)
        };
        if !whole && !self.await_baton(me) && !std::thread::panicking() {
            // Unwinding runs the thread's destructors, free of the
            // scheduler; `resume_unwind` prints nothing.
            panic::resume_unwind(Box::new(Abandoned));
        }
    }

    /// The body of spawned thread `me`.
    fn thread(self: Arc<Self>, me: usize, body: Box<dyn FnOnce() + Send + '_>) {
        CURRENT.with(|current| *current.borrow_mut() = Some((Arc::clone(&self), me)));
        parking_lot::set_scheduler(Some(&HOOK));
        let outcome = match self.await_baton(me) {
            true => panic::catch_unwind(AssertUnwindSafe(body)),
            false => Ok(()),
        };
        parking_lot::set_scheduler(None);
        CURRENT.with(|current| current.borrow_mut().take());
        let mut state = self.state();
        state.threads[me].0 = Status::Finished;
        if let Err(payload) = outcome {
            if !payload.is::<Abandoned>() && state.failure.is_none() {
                state.failure = Some(format!("thread {me} panicked: {}", message(&*payload)));
            }
        }
        self.hand_on(&mut state);
    }
}

fn message(payload: &(dyn Any + Send)) -> &str {
    match (
        payload.downcast_ref::<&str>(),
        payload.downcast_ref::<String>(),
    ) {
        (Some(text), _) => text,
        (_, Some(text)) => text,
        _ => "(not a string)",
    }
}

thread_local! {
    /// The run the calling thread belongs to, and its index in it.
    static CURRENT: RefCell<Option<(Arc<Run>, usize)>> = const { RefCell::new(None) };
}

fn current() -> Option<(Arc<Run>, usize)> {
    CURRENT.with(|current| current.borrow().clone())
}

/// The facade's hook: it finds the calling thread's run through
/// [`CURRENT`].
struct Hook;

static HOOK: Hook = Hook;

impl parking_lot::Scheduler for Hook {
    fn switch(&self) {
        if let Some((run, me)) = current() {
            run.switch(me, None);
        }
    }

    fn block(&self, wait: Wait) {
        if let Some((run, me)) = current() {
            run.switch(me, Some(Block::On(wait)));
        }
    }

    fn released(&self) {
        if let Some((run, _)) = current() {
            run.state().wake(|wait| matches!(wait, Wait::Lock { .. }));
        }
    }

    fn notify(&self, key: usize) {
        if let Some((run, _)) = current() {
            let notified = |wait| matches!(wait, Wait::Condvar { key: k, .. } if k == key);
            run.state().wake(notified);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::{Condvar, Mutex as Lock};
    use std::sync::atomic::{AtomicU64, Ordering};

    fn record(seed: u64) -> Vec<u64> {
        let (clock, order) = (VirtualClock::new(), Lock::new(Vec::new()));
        let mut schedule = Schedule::new(seed, &clock);
        for t in 0..4 {
            let order = &order;
            schedule.spawn(move || {
                for step in 0..8 {
                    order.lock().push(t * 100 + step);
                }
            });
        }
        schedule.run();
        order.into_inner()
    }

    #[test]
    fn a_seed_replays_its_interleaving_and_others_differ() {
        assert_eq!(record(3), record(3));
        assert!((0..8).any(|seed| record(seed) != record(3)));
        let mut sorted = record(5);
        sorted.sort_unstable();
        let all: Vec<u64> = (0..4)
            .flat_map(|t| (0..8).map(move |s| t * 100 + s))
            .collect();
        assert_eq!(sorted, all, "every step ran once");
    }

    #[test]
    fn the_clock_jumps_to_the_earliest_deadline() {
        let clock = VirtualClock::new();
        let woke = Lock::new(Vec::new());
        let mut schedule = Schedule::new(1, &clock);
        for micros in [3_000, 1_000, 2_000] {
            let (clock, woke) = (&clock, &woke);
            schedule.spawn(move || {
                sleep(clock, micros);
                woke.lock().push(clock.now().as_micros());
            });
        }
        schedule.run();
        assert_eq!(woke.into_inner(), [1_000, 2_000, 3_000]);
    }

    /// A deadline wait nobody notifies returns at its deadline, and one
    /// that is notified returns before it.
    #[test]
    fn a_condvar_wait_ends_at_a_notify_or_its_deadline() {
        for seed in 0..16 {
            let clock = VirtualClock::new();
            let (state, ready) = (Lock::new(false), Condvar::new());
            let mut schedule = Schedule::new(seed, &clock);
            schedule
                .spawn(|| {
                    let mut set = state.lock();
                    while !*set {
                        set = ready.wait_until(set, 5_000);
                    }
                    assert_eq!(clock.now().as_micros(), 700, "woken by the notify");
                })
                .spawn(|| {
                    sleep(&clock, 700);
                    *state.lock() = true;
                    ready.notify_all();
                });
            schedule.run();
        }
        let clock = VirtualClock::new();
        let (state, ready) = (Lock::new(()), Condvar::new());
        let mut schedule = Schedule::new(0, &clock);
        schedule.spawn(|| drop(ready.wait_until(state.lock(), 5_000)));
        schedule.run();
        assert_eq!(clock.now().as_micros(), 5_000);
    }

    #[test]
    fn a_lost_wake_up_fails_naming_the_wait_and_the_seed() {
        let (state, ready) = (Lock::new(false), Condvar::new());
        let mut schedule = Schedule::new(11, &VirtualClock::new());
        schedule.spawn(|| {
            let mut set = state.lock();
            while !*set {
                set = ready.wait(set);
            }
        });
        let failure = panic::catch_unwind(AssertUnwindSafe(|| schedule.run()))
            .expect_err("nobody ever notifies");
        let text = message(&*failure);
        assert!(text.contains("seed 11"), "{text}");
        assert!(text.contains("thread 0 waits on condvar"), "{text}");
    }

    /// A panicking thread fails the run; the others are unwound at their
    /// next switch point, and their guards still release.
    #[test]
    fn a_panic_fails_the_run_and_abandons_the_rest() {
        let (lock, steps) = (Lock::new(0), AtomicU64::new(0));
        let mut schedule = Schedule::new(2, &VirtualClock::new());
        schedule.spawn(|| panic!("planted"));
        for _ in 0..3 {
            schedule.spawn(|| loop {
                *lock.lock() += 1;
                steps.fetch_add(1, Ordering::SeqCst);
            });
        }
        let failure = panic::catch_unwind(AssertUnwindSafe(|| schedule.run()))
            .expect_err("a thread panicked");
        assert!(message(&*failure).contains("thread 0 panicked: planted"));
        assert!(lock.try_lock().is_some(), "every guard was released");
    }

    #[test]
    fn outside_a_schedule_sleep_advances_the_clock() {
        let clock = VirtualClock::new();
        sleep(&clock, 250);
        yield_now();
        assert_eq!(clock.now().as_micros(), 250);
    }
}
