//! Experiment **E-OVERLOAD**: deadline-aware admission and brownout under
//! a 10× offered-load burst.
//!
//! E-LOAD measures sustained throughput when the cache absorbs the
//! workload; this experiment measures what happens when it *cannot* — a
//! burst several times over origin capacity. A
//! [`placeless_simenv::trace::BurstSchedule`] shapes three phases —
//! calibrated saturation at 1×, a burst at `burst_intensity`×, and a
//! recovery tail back at 1× — and each phase drives `base_threads ×
//! intensity` threads of cold-miss reads at a deliberately slow shared
//! origin. The threads run under [`placeless_simenv::sched`], one at a
//! time in an order drawn from the seed, and a fetch holds its window slot
//! for `service_virtual_micros` of virtual time: queues form on the
//! per-origin inflight window, the fetches in the window overlap in
//! virtual time, and a run replays byte for byte.
//!
//! The same schedule runs twice:
//!
//! * **unprotected** — the inflight window alone
//!   ([`WindowConfig`] of width 4). Nothing is ever refused,
//!   so the queue grows with the burst and every read eventually
//!   completes — *late*. Classic congestion collapse: the origin stays
//!   busy but almost nothing finishes inside its latency objective.
//! * **protected** — the same window under [`OverloadControl`] and a
//!   per-read deadline. Arrivals whose remaining budget cannot cover the
//!   expected queue delay are shed at admission with
//!   [`PlacelessError::Overloaded`]; AIMD adapts the window width to the
//!   observed service time; the brownout ladder sheds background-priority
//!   reads outright. The reads that are admitted complete on time.
//!
//! **Goodput** is on-time completions per *virtual* second, where on-time
//! means the read's virtual latency stayed within the same
//! `slo_micros` objective for both configurations. [`run_overload`]
//! asserts the acceptance gates: the protected burst sustains at least
//! 80 % of saturation goodput with its completed-read p99 inside the SLO,
//! the unprotected burst collapses below half, and per phase
//! `admitted + shed == offered` (pinned by `debug_assert!`).

use crate::fields;
use crate::report::{Report, Value};
use bytes::Bytes;
use placeless_cache::{
    CacheConfig, CacheStats, DocumentCache, OriginConfig, OverloadControl, Priority, ReadOptions,
    WindowConfig,
};
use placeless_core::prelude::*;
use placeless_simenv::sched::{self, Schedule};
use placeless_simenv::trace::{lorem_bytes, BurstSchedule};
use placeless_simenv::{LatencyModel, VirtualClock};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Parameters for one E-OVERLOAD run.
#[derive(Debug, Clone, Copy)]
pub struct OverloadParams {
    /// Driving threads at intensity 1 (the calibrated steady state).
    pub base_threads: usize,
    /// Reads offered during the saturation phase.
    pub sat_events: usize,
    /// Reads offered during the burst phase.
    pub burst_events: usize,
    /// Reads offered during the recovery tail.
    pub recover_events: usize,
    /// Offered-load multiplier of the burst phase.
    pub burst_intensity: u32,
    /// Virtual microseconds one origin fetch holds its window slot.
    pub service_virtual_micros: u64,
    /// Per-read deadline the protected configuration passes in
    /// [`ReadOptions::deadline_micros`] (virtual µs).
    pub deadline_micros: u64,
    /// Latency objective a completed read must meet to count toward
    /// goodput (virtual µs; judged identically for both configurations).
    pub slo_micros: u64,
    /// Bytes per document body.
    pub doc_bytes: usize,
    /// RNG seed for document bodies.
    pub seed: u64,
}

impl Default for OverloadParams {
    fn default() -> Self {
        Self {
            base_threads: 4,
            sat_events: 400,
            burst_events: 1_200,
            recover_events: 400,
            burst_intensity: 10,
            // Four slots of 4 ms serve one fetch a virtual millisecond,
            // so forty readers queue for ten times the service time.
            service_virtual_micros: 4_000,
            deadline_micros: 8_000,
            slo_micros: 15_000,
            doc_bytes: 96,
            seed: 42,
        }
    }
}

impl OverloadParams {
    /// The three-phase offered-load schedule this run drives.
    pub fn schedule(&self) -> BurstSchedule {
        BurstSchedule::steady(self.sat_events)
            .phase(self.burst_events, self.burst_intensity)
            .phase(self.recover_events, 1)
    }

    /// Total reads one run offers.
    pub fn total_events(&self) -> usize {
        self.sat_events + self.burst_events + self.recover_events
    }
}

/// Measured outcome of one schedule phase.
#[derive(Debug, Clone, Copy)]
pub struct PhaseResult {
    /// Phase label ("saturation", "burst", "recovery").
    pub name: &'static str,
    /// Offered-load multiplier the phase ran at.
    pub intensity: u32,
    /// Reads offered.
    pub offered: u64,
    /// Reads that completed (`Ok`).
    pub admitted: u64,
    /// Reads refused with [`PlacelessError::Overloaded`].
    pub shed: u64,
    /// Completions whose virtual latency met the SLO.
    pub on_time: u64,
    /// Virtual microseconds the phase consumed.
    pub virtual_micros: u64,
    /// 99th-percentile virtual latency of completed reads, µs.
    pub p99_virtual_micros: u64,
}

impl PhaseResult {
    /// On-time completions per virtual second — the goodput metric the
    /// experiment is gated on.
    pub fn goodput(&self) -> f64 {
        self.on_time as f64 / (self.virtual_micros.max(1) as f64 / 1_000_000.0)
    }
}

/// One configuration's run over the full schedule.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// Whether [`OverloadControl`] (and per-read deadlines) were on.
    pub protected: bool,
    /// Per-phase measurements, in schedule order.
    pub phases: Vec<PhaseResult>,
    /// Counter delta across the whole run.
    pub stats: CacheStats,
}

impl CellResult {
    /// The phase named `name`.
    ///
    /// # Panics
    ///
    /// Panics if the schedule had no such phase.
    pub fn phase(&self, name: &str) -> &PhaseResult {
        self.phases
            .iter()
            .find(|p| p.name == name)
            .expect("phase present")
    }

    /// Burst goodput as a fraction of this cell's saturation goodput.
    pub fn retained(&self) -> f64 {
        self.phase("burst").goodput() / self.phase("saturation").goodput().max(f64::MIN_POSITIVE)
    }
}

/// Origin provider that is deliberately slow: each fetch holds its window
/// slot for `virtual_micros` of virtual time, the deadline currency. All
/// instances share one origin key, so every document lands on the same
/// inflight window.
struct SlowOrigin {
    body: Bytes,
    virtual_micros: u64,
}

impl BitProvider for SlowOrigin {
    fn describe(&self) -> String {
        "slow:origin".to_owned()
    }

    fn open_input(&self, clock: &VirtualClock) -> Result<Box<dyn InputStream>> {
        sched::sleep(clock, self.virtual_micros);
        Ok(Box::new(MemoryInput::new(self.body.clone())))
    }

    fn open_output(&self, _clock: &VirtualClock) -> Result<Box<dyn OutputStream>> {
        Err(PlacelessError::Repository(
            "slow origin is read-only".to_owned(),
        ))
    }

    fn make_verifier(&self, _clock: &VirtualClock) -> Option<Box<dyn Verifier>> {
        None
    }

    fn fetch_cost_micros(&self) -> u64 {
        self.virtual_micros
    }
}

/// Deterministic priority mix: during overload phases one read in five is
/// a background prefetch and one in five a refresh, so the priority
/// ladder has something to shed before foreground work.
fn priority_for(index: usize) -> Priority {
    match index % 5 {
        0 => Priority::Prefetch,
        1 => Priority::Refresh,
        _ => Priority::Foreground,
    }
}

/// Runs one configuration over the full schedule.
pub fn run_cell(protected: bool, params: OverloadParams) -> CellResult {
    let space = DocumentSpace::with_middleware_cost(VirtualClock::new(), LatencyModel::FREE);
    let user = UserId(1);
    let total = params.total_events();
    let docs: Vec<DocumentId> = (0..total)
        .map(|d| {
            space.create_document(
                user,
                std::sync::Arc::new(SlowOrigin {
                    body: Bytes::from(lorem_bytes(params.seed + d as u64, params.doc_bytes)),
                    virtual_micros: params.service_virtual_micros,
                }),
            )
        })
        .collect();

    let mut window = WindowConfig::new(4);
    if protected {
        window = window.control(OverloadControl {
            target_fetch_micros: 5 * params.service_virtual_micros,
            expected_service_micros: params.service_virtual_micros,
            brownout_dwell_micros: 10 * params.service_virtual_micros,
            retry_after_micros: params.deadline_micros,
        });
    }
    let config = CacheConfig::builder()
        .capacity_bytes(1 << 30)
        .local_latency(LatencyModel::FREE)
        .origin(OriginConfig::default().window(window));
    let cache = DocumentCache::new(space.clone(), config.build());
    let clock = space.clock().clone();
    let before = cache.stats();

    let schedule = params.schedule();
    let phase_names = ["saturation", "burst", "recovery"];
    let mut phases = Vec::with_capacity(schedule.phases().len());
    let mut next_doc = 0usize;
    for (phase_index, phase) in schedule.phases().iter().enumerate() {
        let threads = params.base_threads * phase.intensity as usize;
        let phase_docs = &docs[next_doc..next_doc + phase.events];
        next_doc += phase.events;

        let admitted = AtomicU64::new(0);
        let shed = AtomicU64::new(0);
        // Virtual latency of each completed read, µs.
        let latencies: Mutex<Vec<u64>> = Mutex::new(Vec::with_capacity(phase.events));
        let v0 = clock.now();
        let mut run = Schedule::new(params.seed + phase_index as u64, &clock);
        for (t, chunk) in phase_docs
            .chunks(phase.events.div_ceil(threads))
            .enumerate()
        {
            let cache = &cache;
            let clock = &clock;
            let admitted = &admitted;
            let shed = &shed;
            let latencies = &latencies;
            run.spawn(move || {
                let mut local = Vec::with_capacity(chunk.len());
                for (i, &doc) in chunk.iter().enumerate() {
                    let mut opts = ReadOptions::default().priority(priority_for(t + i));
                    if protected {
                        opts = opts.deadline_micros(params.deadline_micros);
                    }
                    let t0 = clock.now();
                    match cache.read_with(user, doc, opts) {
                        Ok(outcome) => {
                            std::hint::black_box(&outcome.bytes);
                            admitted.fetch_add(1, Ordering::Relaxed);
                            local.push(clock.now().since(t0));
                        }
                        Err(PlacelessError::Overloaded { .. }) => {
                            shed.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(other) => panic!("unexpected read failure: {other}"),
                    }
                }
                latencies.lock().unwrap().extend_from_slice(&local);
            });
        }
        run.run();
        let virtual_micros = clock.now().since(v0);

        let mut lats = latencies.into_inner().unwrap();
        lats.sort_unstable();
        let p99_virtual_micros = lats
            .get(lats.len().saturating_sub(1) * 99 / 100)
            .copied()
            .unwrap_or(0);
        let on_time = lats
            .iter()
            .filter(|&&virt| virt <= params.slo_micros)
            .count() as u64;
        let result = PhaseResult {
            name: phase_names[phase_index.min(phase_names.len() - 1)],
            intensity: phase.intensity,
            offered: phase.events as u64,
            admitted: admitted.into_inner(),
            shed: shed.into_inner(),
            on_time,
            virtual_micros,
            p99_virtual_micros,
        };
        // The overload contract: every offered read is either served or
        // refused with `Overloaded` — nothing vanishes.
        debug_assert!(
            result.admitted + result.shed == result.offered,
            "{}: admitted {} + shed {} != offered {}",
            result.name,
            result.admitted,
            result.shed,
            result.offered
        );
        phases.push(result);
    }

    CellResult {
        protected,
        phases,
        stats: cache.stats().delta(&before),
    }
}

/// Runs the burst schedule unprotected and protected and asserts the
/// acceptance gates.
///
/// # Panics
///
/// Panics if the protected configuration fails to sustain ≥ 80 % of its
/// saturation goodput through the burst with completed-read p99 inside
/// the SLO, if it never sheds or never shifts the brownout ladder, or if
/// the unprotected configuration fails to *collapse* (which would mean
/// the burst is not actually overloading the origin).
pub fn run_overload(params: OverloadParams) -> [CellResult; 2] {
    let unprotected = run_cell(false, params);
    let protected = run_cell(true, params);

    for cell in [&unprotected, &protected] {
        let offered: u64 = cell.phases.iter().map(|p| p.offered).sum();
        let served: u64 = cell.phases.iter().map(|p| p.admitted + p.shed).sum();
        assert_eq!(offered, served, "every offered read must be accounted");
    }
    assert_eq!(
        unprotected.stats.sheds_total(),
        0,
        "the unprotected cell must never shed"
    );

    let retained = protected.retained();
    assert!(
        retained >= 0.8,
        "protected burst goodput retained only {:.0}% of saturation",
        retained * 100.0
    );
    assert!(
        protected.stats.sheds_total() > 0,
        "the burst never triggered shedding"
    );
    assert!(
        protected.stats.brownout_shifts > 0,
        "the burst never moved the brownout ladder"
    );

    let collapsed = unprotected.retained();
    assert!(
        collapsed < 0.5,
        "unprotected burst retained {:.0}% — the burst is not overloading",
        collapsed * 100.0
    );
    // "Bounded p99 vs collapse", judged against the unprotected cell: an
    // admitted read may still wait out its whole deadline and one service.
    assert!(
        protected.phase("burst").p99_virtual_micros * 2
            <= unprotected.phase("burst").p99_virtual_micros,
        "protected burst p99 {}us is not clearly bounded vs unprotected {}us",
        protected.phase("burst").p99_virtual_micros,
        unprotected.phase("burst").p99_virtual_micros
    );
    assert!(
        unprotected.phase("burst").p99_virtual_micros > params.slo_micros,
        "unprotected burst p99 stayed inside the SLO"
    );

    [unprotected, protected]
}

/// The `BENCH_overload.json` artifact of one run: virtual-clock
/// quantities of seeded schedules, so a rerun is byte-identical.
pub fn report(params: OverloadParams, cells: &[CellResult]) -> Report {
    let phase = |p: &PhaseResult| {
        fields! {
            "name": p.name,
            "intensity": p.intensity,
            "offered": p.offered,
            "admitted": p.admitted,
            "shed": p.shed,
            "on_time": p.on_time,
            "p99_virtual_micros": p.p99_virtual_micros,
            "goodput_per_virtual_sec": Value::Float(p.goodput(), 2),
        }
    };
    let cell = |c: &CellResult| {
        fields! {
            "protected": c.protected,
            "retained": Value::Float(c.retained(), 4),
            "sheds_foreground": c.stats.sheds_foreground,
            "sheds_refresh": c.stats.sheds_refresh,
            "sheds_prefetch": c.stats.sheds_prefetch,
            "brownout_shifts": c.stats.brownout_shifts,
            "phases": Value::rows(&c.phases, phase),
        }
    };
    Report {
        experiment: "overload",
        deterministic: true,
        clock: "virtual",
        params: fields! {
            "base_threads": params.base_threads,
            "sat_events": params.sat_events,
            "burst_events": params.burst_events,
            "recover_events": params.recover_events,
            "burst_intensity": params.burst_intensity,
            "service_virtual_micros": params.service_virtual_micros,
            "deadline_micros": params.deadline_micros,
            "slo_micros": params.slo_micros,
            "seed": params.seed,
        },
        body: fields! { "cells": Value::rows(cells, cell) },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> OverloadParams {
        OverloadParams {
            base_threads: 4,
            sat_events: 150,
            burst_events: 600,
            recover_events: 150,
            ..OverloadParams::default()
        }
    }

    #[test]
    fn protected_survives_the_burst_and_unprotected_collapses() {
        // run_overload() itself asserts the acceptance gates.
        let [unprotected, protected] = run_overload(small());
        assert!(protected.phase("burst").shed > 0);
        assert_eq!(unprotected.phase("burst").shed, 0);
        assert!(
            protected.phase("burst").goodput() > unprotected.phase("burst").goodput(),
            "shedding must beat queueing on goodput"
        );
    }

    /// `small()` with one thread per unit of intensity and a 40x burst (so
    /// the burst is the other cells' forty threads): the 1x phases run on
    /// one reader, which never queues behind another.
    fn one_reader_at_1x() -> OverloadParams {
        OverloadParams {
            base_threads: 1,
            burst_intensity: 40,
            ..small()
        }
    }

    #[test]
    fn saturation_phase_is_clean_in_both_cells() {
        for protected in [false, true] {
            let cell = run_cell(protected, one_reader_at_1x());
            let sat = cell.phase("saturation");
            assert_eq!(sat.shed, 0, "1x shed (protected={protected})");
            assert_eq!(sat.on_time, sat.offered, "1x late (protected={protected})");
        }
    }

    #[test]
    fn recovery_returns_to_on_time_service() {
        let cell = run_cell(true, one_reader_at_1x());
        assert!(cell.phase("burst").shed > 0, "the burst never overloaded");
        // The ladder rejects background reads for as long as it holds its
        // last rung, one dwell; past that every read is served on time.
        let recover = cell.phase("recovery");
        assert!(
            recover.on_time as f64 >= recover.offered as f64 * 0.9,
            "recovery must return to on-time service, got {}/{}",
            recover.on_time,
            recover.offered
        );
    }

    #[test]
    fn priority_classes_shed_background_first() {
        let cell = run_cell(true, small());
        let background = cell.stats.sheds_prefetch + cell.stats.sheds_refresh;
        assert!(background > 0, "brownout never shed background reads");
        // 3 of 5 reads are foreground, yet shedding must not fall on them
        // disproportionately: admission sheds late arrivals of any class,
        // but the ladder rejects background outright.
        assert!(cell.stats.sheds_total() >= background);
    }
}
