//! Experiment **E-CRASH**: acknowledged-write durability across a process
//! crash.
//!
//! A write-back cache buffers edits and acknowledges them to the
//! application immediately; a scripted crash
//! ([`placeless_simenv::CrashEvent`]) then kills the process mid-workload,
//! tearing the journal append that was in flight. Two configurations face
//! the same schedule:
//!
//! * **journal off** — the seed cache: every acknowledged-but-unflushed
//!   write dies with the process;
//! * **journal on** — every write-back write is appended to a
//!   [`StableStore`]-backed [`WriteJournal`] *before* the dirty map is
//!   updated; after the crash, [`DocumentCache::recover`] truncates the
//!   torn tail, replays the intact prefix into the dirty queue, and the
//!   next flush pushes the recovered writes to the origin.
//!
//! The headline metric is **acknowledged writes lost**: documents whose
//! origin content, after restart and a final flush, no longer matches the
//! last write the application saw acknowledged. With the journal on it
//! must be zero — the write the crash tore was *in flight*, never
//! acknowledged, so losing it is correct; losing anything else is not.
//!
//! Fully deterministic over the virtual clock: identical parameters give
//! identical statistics, which the embedded tests assert.

use crate::fields;
use crate::report::{Fields, Report, Value};
use placeless_cache::{CacheConfig, CacheStats, DocumentCache, WriteJournal, WriteMode};
use placeless_core::id::{DocumentId, UserId};
use placeless_core::space::DocumentSpace;
use placeless_repository::{FsProvider, MemFs};
use placeless_simenv::{FaultPlan, Instant, LatencyModel, Link, StableStore, VirtualClock};
use std::collections::HashMap;

/// Scenario parameters.
#[derive(Debug, Clone, Copy)]
pub struct CrashParams {
    /// Documents in the working set.
    pub docs: u64,
    /// Write-back writes the application issues, round-robin over the
    /// working set.
    pub writes: u64,
    /// Virtual time between consecutive writes, in µs.
    pub write_gap_micros: u64,
    /// Issue a flush after every N writes (so part of the workload is
    /// already durable at the origin when the crash strikes).
    pub flush_every: u64,
    /// When the scripted crash fires (virtual µs).
    pub crash_at_micros: u64,
    /// How many bytes of the in-flight journal append the crash tears
    /// (clamped below the record length — a torn write never reaches
    /// back into records that were already on stable storage).
    pub torn_tail_bytes: u64,
    /// Seed for links and the fault plan.
    pub seed: u64,
}

impl Default for CrashParams {
    fn default() -> Self {
        Self {
            docs: 4,
            writes: 120,
            write_gap_micros: 5_000,
            flush_every: 16,
            // Roughly three quarters through the 600 ms write timeline.
            crash_at_micros: 450_000,
            torn_tail_bytes: 25,
            seed: 7,
        }
    }
}

/// One configuration's outcome under the shared crash schedule.
#[derive(Debug, Clone)]
pub struct CrashResult {
    /// Whether the write journal was configured.
    pub journaled: bool,
    /// Writes the application saw acknowledged before the crash (the
    /// in-flight write at the crash tick is *not* acknowledged).
    pub acknowledged: u64,
    /// Of those, how many were already flushed to the origin pre-crash.
    pub flushed_before_crash: u64,
    /// Documents whose origin content after restart + final flush no
    /// longer matches the last acknowledged write. The durability claim:
    /// zero with the journal on.
    pub lost_docs: u64,
    /// Journal records replayed by recovery (0 with the journal off).
    pub replayed: u64,
    /// Bytes of torn tail the recovery truncated away.
    pub torn_bytes: u64,
    /// Counter snapshot of the cache that crashed, taken as it died
    /// (journal appends, the pre-crash flushes…).
    pub crashed: CacheStats,
    /// Counter snapshot of the *recovered* cache (journal replays, the
    /// recovery flush, parked writes…).
    pub stats: CacheStats,
}

impl CrashResult {
    /// Short label for tables.
    pub fn label(&self) -> &'static str {
        if self.journaled {
            "journal on"
        } else {
            "journal off"
        }
    }
}

/// Runs one configuration against the scripted crash and returns its
/// outcome.
pub fn run_one(journaled: bool, params: CrashParams) -> CrashResult {
    let user = UserId(1);
    let clock = VirtualClock::new();
    let space = DocumentSpace::with_middleware_cost(clock.clone(), LatencyModel::FREE);
    let fs = MemFs::new(clock.clone());
    let link = Link::new(1_000, 10_000_000, 0.0, params.seed);
    let plan = FaultPlan::builder(params.seed)
        .crash(params.crash_at_micros, params.torn_tail_bytes)
        .build();
    let mut docs: Vec<DocumentId> = Vec::new();
    for i in 0..params.docs {
        let path = format!("/srv/doc-{i}");
        fs.create(&path, format!("document {i} seed"));
        docs.push(space.create_document(user, FsProvider::new(fs.clone(), &path, link.clone())));
    }

    let medium = StableStore::new();
    let config = |journal: Option<WriteJournal>| {
        let builder = CacheConfig::builder()
            .local_latency(LatencyModel::FREE)
            .write_mode(WriteMode::Back)
            .shards(1);
        match journal {
            Some(journal) => builder.journal(journal),
            None => builder,
        }
        .build()
    };
    let cache = DocumentCache::new(
        space.clone(),
        config(journaled.then(|| WriteJournal::new(medium.clone()))),
    );

    // The application's ledger: the last write it saw acknowledged per
    // document, and how many acknowledgments it collected.
    let mut last_acked: HashMap<DocumentId, String> = HashMap::new();
    let mut acknowledged = 0u64;
    let mut flushed_before_crash = 0u64;
    for i in 0..params.writes {
        let slot = Instant(i * params.write_gap_micros);
        if clock.now() < slot {
            clock.advance_to(slot);
        }
        let doc = docs[(i % params.docs) as usize];
        let body = format!("write {i}");
        if let Some(crash) = plan.take_crash(&clock) {
            // The crash strikes *during* this write: the journal append
            // may reach the medium, but the acknowledgment never reaches
            // the application — so losing this one write is correct.
            let before = medium.len();
            let _ = cache.write(user, doc, body.as_bytes());
            let in_flight = medium.len() - before;
            if in_flight > 0 {
                medium.tear_tail(crash.torn_tail_bytes.clamp(1, in_flight.saturating_sub(1)));
            }
            break;
        }
        cache
            .write(user, doc, body.as_bytes())
            .expect("write-back buffers");
        last_acked.insert(doc, body);
        acknowledged += 1;
        if (i + 1) % params.flush_every == 0 {
            let report = cache.flush().expect("healthy origin");
            flushed_before_crash += report.flushed;
        }
    }
    let crashed = cache.stats();
    drop(cache); // the crash: every in-memory structure dies

    // Warm restart: reopen the journal over the surviving medium (the
    // torn tail is truncated here) and replay it into a fresh cache.
    let (journal, outcome) = WriteJournal::open(medium);
    let torn_bytes = outcome.torn_bytes;
    let (recovered, report) =
        DocumentCache::recover(space, config(journaled.then_some(journal)), None);
    let flush = recovered.flush().expect("healthy origin");
    assert!(flush.is_clean(), "nothing is dark after the restart");

    let lost_docs = last_acked
        .iter()
        .filter(|(doc, expected)| {
            let i = docs.iter().position(|d| d == *doc).expect("known doc");
            fs.read(&format!("/srv/doc-{i}")).expect("file exists") != expected.as_bytes()
        })
        .count() as u64;

    CrashResult {
        journaled,
        acknowledged,
        flushed_before_crash,
        lost_docs,
        replayed: report.replayed,
        torn_bytes,
        crashed,
        stats: recovered.stats(),
    }
}

/// Runs both configurations against the same schedule: journal off, then
/// journal on.
pub fn sweep(params: CrashParams) -> Vec<CrashResult> {
    vec![run_one(false, params), run_one(true, params)]
}

/// One cache's counters, as a run row reports them.
fn counters(stats: &CacheStats) -> Fields {
    fields! {
        "journal_appends": stats.journal_appends,
        "journal_replays": stats.journal_replays,
        "writes_parked": stats.writes_parked,
        "retries": stats.retries,
        "write_conflicts": stats.write_conflicts,
        "flushes": stats.flushes,
    }
}

/// The `BENCH_crash.json` artifact of one sweep: each run's outcome, then
/// the counters of the cache that crashed and of the recovered one.
pub fn report(params: CrashParams, results: &[CrashResult]) -> Report {
    Report {
        experiment: "crash",
        deterministic: true,
        clock: "virtual",
        params: fields! {
            "docs": params.docs,
            "writes": params.writes,
            "write_gap_micros": params.write_gap_micros,
            "flush_every": params.flush_every,
            "crash_at_micros": params.crash_at_micros,
            "torn_tail_bytes": params.torn_tail_bytes,
            "seed": params.seed,
        },
        body: fields! {
            "runs": Value::rows(results, |r| fields! {
                "journaled": r.journaled,
                "acknowledged": r.acknowledged,
                "flushed_before_crash": r.flushed_before_crash,
                "lost_docs": r.lost_docs,
                "replayed": r.replayed,
                "torn_bytes": r.torn_bytes,
                "crashed": counters(&r.crashed),
                "recovered": counters(&r.stats),
            }),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crash_without_journal_loses_acknowledged_writes() {
        let result = run_one(false, CrashParams::default());
        assert!(result.acknowledged > 0);
        assert!(
            result.lost_docs > 0,
            "the crash must be visible without a journal"
        );
        assert_eq!(result.replayed, 0);
    }

    #[test]
    fn crash_with_journal_loses_nothing_acknowledged() {
        let result = run_one(true, CrashParams::default());
        assert_eq!(
            result.lost_docs, 0,
            "every acknowledged write survived the crash"
        );
        assert!(result.replayed > 0, "recovery replayed the journal");
        assert!(result.torn_bytes > 0, "the in-flight append was torn");
        assert!(result.stats.journal_replays > 0);
    }

    #[test]
    fn the_crashed_cache_journaled_every_acknowledged_write() {
        let result = run_one(true, CrashParams::default());
        assert!(
            result.crashed.journal_appends >= result.acknowledged,
            "{} appends for {} acknowledged writes",
            result.crashed.journal_appends,
            result.acknowledged
        );
        assert_eq!(result.stats.journal_appends, 0, "recovery appends nothing");
    }

    #[test]
    fn identical_params_identical_stats() {
        let params = CrashParams::default();
        for journaled in [false, true] {
            let a = run_one(journaled, params);
            let b = run_one(journaled, params);
            assert_eq!(a.stats, b.stats, "journaled={journaled} must replay");
            assert_eq!(a.crashed, b.crashed);
            assert_eq!(
                (a.acknowledged, a.lost_docs, a.replayed, a.torn_bytes),
                (b.acknowledged, b.lost_docs, b.replayed, b.torn_bytes)
            );
        }
    }
}
