//! Experiment **E-CRASH**: every crash state of the journaled write path.
//!
//! A write-back cache acknowledges a write before the origin has it, and
//! no crash point may lose such a write once it is journaled. E-CRASH
//! enumerates every crash state of one seeded workload under the medium's
//! persistence model ([`placeless_simenv::stable`]): every cache-op
//! boundary; every medium op with none of it landed; each append with 1,
//! len − 1 (either side of the frame's boundaries), len and
//! [`INTERIOR_SAMPLES`] seeded interior bytes landed; each overwrite or
//! truncate landed whole. A medium-op state runs the workload against a
//! [`StableStore::crashing_at`] store under `catch_unwind`: re-running it
//! up to the point leaves the origin holding exactly what was written
//! before the crash. After each crash it opens and recovers twice (the
//! second must equal the first), reads each recovered key (the writer's
//! view), flushes, makes one more acknowledged write, crashes again and
//! reopens (which must replay it, numbered past every record the first
//! reopen found). A state *loses* a write when a read or the origin holds
//! anything but a document's last acknowledged write or the one in flight
//! at the crash. DESIGN.md §4.8 has the decision; fully deterministic
//! over the virtual clock.

use crate::fields;
use crate::report::{Report, Value};
use bytes::Bytes;
use placeless_cache::{CacheConfig, DocumentCache, WriteJournal, WriteMode};
use placeless_core::id::{DocumentId, UserId};
use placeless_core::op::DocOp;
use placeless_core::space::DocumentSpace;
use placeless_repository::{FsProvider, MemFs};
use placeless_simenv::{
    CrashPoint, LatencyModel, Link, MediumOp, SimRng, StableStore, VirtualClock,
};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// The size of the workload's big bodies: two of them superseded are more
/// dead bytes than the journal's `COMPACTION_FLOOR` (64 KiB).
pub const BIG_BODY: usize = 40 * 1024;

/// Seeded interior landed lengths per append, beside 1, len − 1 and len.
pub const INTERIOR_SAMPLES: usize = 2;

const USER: UserId = UserId(1);

/// Scenario parameters.
#[derive(Debug, Clone, Copy)]
pub struct CrashParams {
    /// Documents in the working set.
    pub docs: u64,
    /// Write-back writes, round-robin over the working set.
    pub writes: u64,
    /// Issue a flush after every N writes.
    pub flush_every: u64,
    /// Seed for the workload (which small writes are `write_op` appends)
    /// and for the interior landed lengths.
    pub seed: u64,
}

impl Default for CrashParams {
    fn default() -> Self {
        Self {
            docs: 4,
            writes: 120,
            flush_every: 16,
            seed: 7,
        }
    }
}

/// One configuration's tally over every crash state.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CrashResult {
    /// Whether the write journal was configured.
    pub journaled: bool,
    /// Crash states enumerated.
    pub states: u64,
    /// Medium ops the whole workload issues.
    pub medium_ops: u64,
    /// States that lose an acknowledged write. Zero with the journal.
    pub lost: u64,
    /// States whose second recovery differs from the first, or does not
    /// replay and re-queue exactly the records its `open` found.
    pub recover_differs: u64,
    /// States whose post-recovery write is not replayed after the second
    /// crash, or replays under a sequence number the first reopen found.
    pub post_write_lost: u64,
    /// States whose medium holds a compacted image.
    pub after_compaction: u64,
    /// States inside a torn record frame that carries ops.
    pub torn_op: u64,
    /// States inside a torn ack frame.
    pub torn_ack: u64,
    /// The first state that failed a check, for a test's message.
    pub first_failure: Option<String>,
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

    /// Adds the outcome of the state `crash` left.
    fn add(&mut self, crash: Crash, state: &State) {
        self.states += 1;
        self.lost += u64::from(state.lost);
        self.recover_differs += u64::from(state.recover_differs);
        self.post_write_lost += u64::from(state.post_write_lost);
        let failed = state.lost || state.recover_differs || state.post_write_lost;
        if failed && self.first_failure.is_none() {
            self.first_failure = Some(format!("{crash:?}"));
        }
    }
}

/// One step of the workload.
#[derive(Debug, Clone)]
enum Step {
    /// A plain write of a whole body.
    Write(usize, Bytes),
    /// A `write_op` appending to the writer's view.
    Append(usize, Bytes),
    Flush,
}

/// The seeded workload. The first two writes after each flush carry
/// [`BIG_BODY`]-byte bodies, and the next write to each of those documents
/// is a small plain one: the big frames it leaves dead outweigh
/// `COMPACTION_FLOOR`, so the journal compacts in every flush interval,
/// and no big body stays live for long. A third of the other writes are
/// `write_op` appends.
fn workload(params: CrashParams) -> Vec<Step> {
    let mut rng = SimRng::seeded(params.seed);
    let mut big = vec![false; params.docs as usize];
    let mut steps = Vec::new();
    for i in 0..params.writes {
        let doc = (i % params.docs) as usize;
        let mut body = format!("w{i};").into_bytes();
        let was_big = std::mem::replace(&mut big[doc], i % params.flush_every < 2);
        if big[doc] {
            body.resize(BIG_BODY, b'0' + (i % 10) as u8);
        }
        if !big[doc] && !was_big && rng.next_below(3) == 0 {
            steps.push(Step::Append(doc, body.into()));
        } else {
            steps.push(Step::Write(doc, body.into()));
        }
        if (i + 1) % params.flush_every == 0 {
            steps.push(Step::Flush);
        }
    }
    steps
}

/// Where a state's process dies.
#[derive(Debug, Clone, Copy)]
enum Crash {
    /// After this many steps returned.
    After(usize),
    /// Inside a medium op.
    At(CrashPoint),
}

/// What one crash state showed.
#[derive(Debug, Default)]
struct State {
    /// The step in flight when the process died, and the medium op it
    /// died in (`None` at a cache-op boundary).
    died: Option<(usize, MediumOp)>,
    lost: bool,
    recover_differs: bool,
    post_write_lost: bool,
}

/// The origin and the documents on it, which survive every crash.
struct World {
    space: Arc<DocumentSpace>,
    fs: Arc<MemFs>,
    docs: Vec<DocumentId>,
}

impl World {
    fn new(params: CrashParams) -> Self {
        let clock = VirtualClock::new();
        let space = DocumentSpace::with_middleware_cost(clock.clone(), LatencyModel::FREE);
        let fs = MemFs::new(clock);
        let link = Link::new(1_000, 10_000_000, 0.0, params.seed);
        let docs = (0..params.docs)
            .map(|i| {
                let path = Self::path(i as usize);
                fs.create(&path, format!("document {i} seed"));
                space.create_document(USER, FsProvider::new(fs.clone(), &path, link.clone()))
            })
            .collect();
        Self { space, fs, docs }
    }

    fn path(doc: usize) -> String {
        format!("/srv/doc-{doc}")
    }

    fn origin(&self, doc: usize) -> Bytes {
        self.fs.read(&Self::path(doc)).expect("file exists")
    }

    /// Starts a cache over the origin, replaying `journal` (a fresh one
    /// replays nothing). Returns the cache and its recovery report, as
    /// text to compare.
    fn boot(&self, journal: Option<WriteJournal>) -> (Arc<DocumentCache>, String) {
        let config = CacheConfig::builder()
            .local_latency(LatencyModel::FREE)
            .write_mode(WriteMode::Back)
            .shards(1);
        let config = match journal {
            Some(journal) => config.journal(journal),
            None => config,
        };
        let (cache, report) = DocumentCache::recover(self.space.clone(), config.build(), None);
        (cache, format!("{report:?}"))
    }
}

/// Runs the workload into `medium` until `crash`, then recovers and
/// checks (see the module docs).
fn run_state(journaled: bool, params: CrashParams, steps: &[Step], crash: Crash) -> State {
    let world = World::new(params);
    let (medium, stop) = match crash {
        Crash::After(k) => (StableStore::new(), k),
        Crash::At(point) => (StableStore::crashing_at(point), steps.len()),
    };
    // Per document: the writer's view, and the views a crash may leave —
    // the last acknowledged one, and the one in flight.
    let mut views: Vec<Bytes> = (0..world.docs.len()).map(|d| world.origin(d)).collect();
    let mut acked = views.clone();
    // The step in flight, and the document it writes.
    let mut in_flight: Option<(usize, Option<usize>)> = None;
    let mut state = State::default();
    let unwound = catch_unwind(AssertUnwindSafe(|| {
        let journal = journaled.then(|| WriteJournal::new(medium.clone()));
        let (cache, _) = world.boot(journal);
        for (i, step) in steps[..stop].iter().enumerate() {
            let doc = match step {
                Step::Write(doc, body) => {
                    views[*doc] = body.clone();
                    Some(*doc)
                }
                Step::Append(doc, tail) => {
                    views[*doc] = [&views[*doc][..], tail].concat().into();
                    Some(*doc)
                }
                Step::Flush => None,
            };
            in_flight = Some((i, doc));
            let id = |doc: usize| world.docs[doc];
            match step {
                Step::Write(doc, body) => cache.write(USER, id(*doc), body),
                Step::Append(doc, tail) => {
                    cache.write_op(USER, id(*doc), DocOp::Append(tail.clone()))
                }
                Step::Flush => cache.flush().map(drop),
            }
            .expect("a healthy origin");
            if let Some(doc) = doc {
                acked[doc] = views[doc].clone();
            }
            in_flight = None;
        }
    }));
    match unwound {
        Err(payload) => {
            let op = payload
                .downcast::<MediumOp>()
                .unwrap_or_else(|payload| resume_unwind(payload));
            let (step, _) = in_flight.expect("a crash strikes inside a step");
            state.died = Some((step, *op));
        }
        // A point past the workload's last medium op: no such state, and
        // the store is still armed.
        Ok(()) if matches!(crash, Crash::At(_)) => return state,
        Ok(()) => {}
    }
    let may_hold = |doc: usize, bytes: &Bytes| {
        *bytes == acked[doc]
            || in_flight.is_some_and(|(_, d)| d == Some(doc) && *bytes == views[doc])
    };

    // Recover, crash right after, recover again: the same records, each
    // replayed into the dirty queue.
    let reopen = || {
        let (journal, outcome) = WriteJournal::open(medium.clone());
        let (cache, report) = world.boot(journaled.then(|| journal.clone()));
        (journal, outcome, cache, report)
    };
    let (_, first, cache, first_report) = reopen();
    drop(cache);
    let (journal, second, cache, second_report) = reopen();
    let replayed = cache.stats().journal_replays as usize;
    state.recover_differs = second.truncated
        || second.records != first.records
        || second_report != first_report
        || (replayed, cache.dirty_count()) != (second.records.len(), second.records.len());

    for record in &second.records {
        let doc = world.docs.iter().position(|&d| d == record.doc);
        let doc = doc.expect("a journaled document");
        let read = cache
            .read(record.user, record.doc)
            .expect("a healthy origin");
        state.lost |= read != record.data || !may_hold(doc, &read);
    }
    let flush = cache.flush().expect("a healthy origin");
    state.lost |= !flush.is_clean();
    state.lost |= (0..world.docs.len()).any(|doc| !may_hold(doc, &world.origin(doc)));

    // One more acknowledged write, a second crash, a reopen.
    let post = Bytes::from_static(b"after recovery");
    cache
        .write(USER, world.docs[0], &post)
        .expect("write-back buffers");
    let seq = journal.live_records().iter().map(|r| r.seq).max();
    drop(cache);
    let (_, third) = WriteJournal::open(medium);
    let replayed = third
        .records
        .iter()
        .any(|r| r.doc == world.docs[0] && r.data == post && Some(r.seq) == seq);
    let resumed = first.records.iter().all(|r| seq > Some(r.seq));
    state.post_write_lost = !replayed || !resumed;
    state
}

/// The landed lengths a crash point takes inside an append of `len`
/// bytes (see the module docs; every journal frame is longer than 2).
fn landings(len: u64, rng: &mut SimRng) -> Vec<u64> {
    let mut landed = vec![1, len - 1, len];
    landed.extend((0..INTERIOR_SAMPLES).map(|_| 2 + rng.next_below(len - 2)));
    landed.sort_unstable();
    landed.dedup();
    landed
}

/// Enumerates every crash state of one configuration.
pub fn run_one(journaled: bool, params: CrashParams) -> CrashResult {
    let steps = workload(params);
    let mut result = CrashResult {
        journaled,
        ..CrashResult::default()
    };
    let run = |crash| run_state(journaled, params, &steps, crash);
    for k in 0..=steps.len() {
        result.add(Crash::After(k), &run(Crash::After(k)));
    }
    if !journaled {
        return result;
    }
    let mut rng = SimRng::seeded(params.seed ^ 0xC4A5_11ED);
    // Whether the image the medium holds was written by a compaction.
    let mut compacted = false;
    for op in 0.. {
        let at = |landed| Crash::At(CrashPoint { op, landed });
        let state = run(at(0));
        let Some((step, kind)) = state.died else {
            result.medium_ops = op;
            return result;
        };
        result.after_compaction += u64::from(compacted);
        result.add(at(0), &state);
        let landed = match kind {
            MediumOp::Append { len } => landings(len, &mut rng),
            MediumOp::Overwrite | MediumOp::Truncate => vec![1],
        };
        compacted = match kind {
            MediumOp::Overwrite => true,
            MediumOp::Truncate => false,
            MediumOp::Append { .. } => compacted,
        };
        for n in landed {
            let torn = matches!(kind, MediumOp::Append { len } if n < len);
            result.after_compaction += u64::from(compacted);
            result.torn_op += u64::from(torn && matches!(steps[step], Step::Append(..)));
            result.torn_ack += u64::from(torn && matches!(steps[step], Step::Flush));
            result.add(at(n), &run(at(n)));
        }
    }
    unreachable!("a workload issues finitely many medium ops")
}

/// Runs both configurations over the same workload: journal off, then
/// journal on.
pub fn sweep(params: CrashParams) -> Vec<CrashResult> {
    vec![run_one(false, params), run_one(true, params)]
}

/// The `BENCH_crash.json` artifact of one sweep: each configuration's
/// tally over every crash state.
pub fn report(params: CrashParams, results: &[CrashResult]) -> Report {
    Report {
        experiment: "crash",
        deterministic: true,
        clock: "virtual",
        params: fields! {
            "docs": params.docs,
            "writes": params.writes,
            "flush_every": params.flush_every,
            "big_body": BIG_BODY as u64,
            "interior_samples": INTERIOR_SAMPLES as u64,
            "seed": params.seed,
        },
        body: fields! {
            "runs": Value::rows(results, |r| fields! {
                "journaled": r.journaled,
                "states": r.states,
                "medium_ops": r.medium_ops,
                "lost": r.lost,
                "recover_differs": r.recover_differs,
                "post_write_lost": r.post_write_lost,
                "after_compaction": r.after_compaction,
                "torn_op": r.torn_op,
                "torn_ack": r.torn_ack,
            }),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tier-1's bound in a debug build; `scripts/check.sh` runs the same
    /// tests optimized at twice the experiment's.
    fn bound() -> CrashParams {
        let writes = if cfg!(debug_assertions) { 48 } else { 240 };
        CrashParams {
            writes,
            ..CrashParams::default()
        }
    }

    #[test]
    fn crash_without_journal_loses_acknowledged_writes() {
        let result = run_one(false, bound());
        assert!(
            result.lost > 0,
            "the crash must be visible without a journal"
        );
        assert_eq!(result.states, result.post_write_lost);
    }

    #[test]
    fn crash_with_journal_loses_nothing_acknowledged() {
        let result = run_one(true, bound());
        assert_eq!(
            (result.lost, result.recover_differs, result.post_write_lost),
            (0, 0, 0),
            "(lost, recover differs, post-write lost) of {} states; the first failing: {:?}",
            result.states,
            result.first_failure
        );
        assert!(result.after_compaction > 0, "{result:?}");
        assert!(result.torn_op > 0, "{result:?}");
        assert!(result.torn_ack > 0, "{result:?}");
    }

    #[test]
    fn identical_params_identical_stats() {
        let params = CrashParams {
            writes: 20,
            ..CrashParams::default()
        };
        assert_eq!(sweep(params), sweep(params));
    }
}
