//! Experiment **E-MERGE**: acknowledged-edit survival under concurrent
//! writers, a crash, and a network partition.
//!
//! Two write-back caches over the *same* document — Alice's and Bob's,
//! each with its own journal medium — interleave edits through two
//! phases of trouble:
//!
//! 1. **Crash.** Both writers append edits; Bob flushes, Alice crashes
//!    with her edits still buffered (her in-flight journal append is
//!    torn). Recovery replays her journal and finds the origin moved
//!    under her — a genuine multi-writer conflict.
//! 2. **Partition.** Both writers keep editing; Bob's flush lands inside
//!    a scheduled partition window and parks; Alice flushes after the
//!    heal; Bob's retry then faces an origin that moved again.
//!
//! Three resolution modes face the identical schedule:
//!
//! * **op-merge** — edits are issued as typed [`DocOp::Append`]
//!   operations and both caches carry a [`MergePolicy`]: conflicts are
//!   resolved by rebasing the ops onto the origin's current content,
//!   server-side at flush and cache-side at recovery.
//! * **keep-mine** — edits are full-body writes (the buffered view wins):
//!   the concurrent writer's acknowledged edits are overwritten.
//! * **keep-theirs** — full-body writes, conflicted journal records are
//!   dropped at recovery: the crashed writer's acknowledged edits die.
//!
//! The headline metric is **acknowledged edits lost**: unique edit
//! tokens the application saw acknowledged that are absent from the
//! origin's final content. Op-merge must lose zero; both binary modes
//! must lose at least one — that asymmetry is the point of the
//! experiment, and the embedded tests pin it.
//!
//! Fully deterministic over the virtual clock: identical parameters give
//! identical statistics, which the embedded tests also assert.

use crate::fields;
use crate::report::{Report, Value};
use bytes::Bytes;
use placeless_cache::{
    CacheConfig, ConflictHook, ConflictResolution, DocumentCache, MergePolicy, WriteJournal,
    WriteMode,
};
use placeless_core::id::{DocumentId, UserId};
use placeless_core::op::DocOp;
use placeless_core::space::DocumentSpace;
use placeless_repository::{FsProvider, MemFs};
use placeless_simenv::{FaultPlan, Instant, LatencyModel, Link, StableStore, VirtualClock};
use std::sync::Arc;

/// How concurrent edits to one document are reconciled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeMode {
    /// Typed ops + [`MergePolicy`]: conflicts rebase, nobody loses.
    OpMerge,
    /// Full-body writes, conflicts overwritten (the PR-4 default).
    KeepMine,
    /// Full-body writes, conflicted recovery records dropped.
    KeepTheirs,
}

impl MergeMode {
    /// Short label for tables and JSON.
    pub fn label(&self) -> &'static str {
        match self {
            MergeMode::OpMerge => "op-merge",
            MergeMode::KeepMine => "keep-mine",
            MergeMode::KeepTheirs => "keep-theirs",
        }
    }

    /// All modes, in report order.
    pub const ALL: [MergeMode; 3] = [
        MergeMode::OpMerge,
        MergeMode::KeepMine,
        MergeMode::KeepTheirs,
    ];
}

/// Scenario parameters.
#[derive(Debug, Clone, Copy)]
pub struct MergeParams {
    /// Edits each writer issues before the crash.
    pub edits_phase1: u64,
    /// Edits each writer issues between recovery and the partition.
    pub edits_phase2: u64,
    /// Virtual time between consecutive edits, in µs.
    pub edit_gap_micros: u64,
    /// Scheduled partition window start (virtual µs).
    pub partition_from: u64,
    /// Scheduled partition window end (heal time, virtual µs).
    pub partition_until: u64,
    /// Bytes the crash tears off Alice's in-flight journal append.
    pub torn_tail_bytes: u64,
    /// Seed for the link and the fault plan.
    pub seed: u64,
}

impl Default for MergeParams {
    fn default() -> Self {
        Self {
            edits_phase1: 6,
            edits_phase2: 4,
            edit_gap_micros: 1_000,
            partition_from: 150_000,
            partition_until: 250_000,
            torn_tail_bytes: 9,
            seed: 11,
        }
    }
}

/// One mode's outcome under the shared crash + partition schedule.
#[derive(Debug, Clone)]
pub struct MergeResult {
    /// The resolution mode this row ran under.
    pub mode: MergeMode,
    /// Edits the application saw acknowledged across both writers (the
    /// edit in flight at the crash tick is *not* acknowledged).
    pub acknowledged: u64,
    /// Acknowledged edits absent from the origin's final content.
    pub lost: u64,
    /// Conflicts resolved by op rebase, summed over both caches.
    pub conflicts_merged: u64,
    /// Individual ops re-applied onto a newer base, both caches.
    pub merge_rebases: u64,
    /// Journal records Alice's recovery replayed.
    pub replayed: u64,
    /// The origin's final content (for the determinism assertions).
    pub final_content: String,
}

/// One writer's half of the workload: a user, a cache with its own
/// journal, the local buffer (used by the full-body modes), and the
/// ledger of acknowledged edit tokens.
struct Writer {
    user: UserId,
    cache: Arc<DocumentCache>,
    buffer: String,
    acked: Vec<String>,
}

impl Writer {
    /// Re-reads the document through the cache into the local buffer —
    /// what an editor does on open (and re-open, after a crash).
    fn reload(&mut self, doc: DocumentId) {
        let bytes = self.cache.read(self.user, doc).expect("read succeeds");
        self.buffer = String::from_utf8(bytes.to_vec()).expect("utf-8 content");
    }

    /// Issues one edit and records its acknowledgment. Op-merge appends
    /// a typed op; the binary modes write the whole buffer back.
    fn edit(&mut self, doc: DocumentId, mode: MergeMode, token: &str) {
        self.buffer.push_str(token);
        match mode {
            MergeMode::OpMerge => self
                .cache
                .write_op(self.user, doc, DocOp::Append(Bytes::from(token.to_owned())))
                .expect("op write buffers"),
            MergeMode::KeepMine | MergeMode::KeepTheirs => self
                .cache
                .write(self.user, doc, self.buffer.as_bytes())
                .expect("write-back buffers"),
        }
        self.acked.push(token.to_owned());
    }
}

/// Runs one mode against the scripted crash + partition schedule.
pub fn run_one(mode: MergeMode, params: MergeParams) -> MergeResult {
    let alice = UserId(1);
    let bob = UserId(2);
    let clock = VirtualClock::new();
    let space = DocumentSpace::with_middleware_cost(clock.clone(), LatencyModel::FREE);
    let fs = MemFs::new(clock.clone());
    let link = Link::new(1_000, 10_000_000, 0.0, params.seed);
    link.set_fault_plan(
        FaultPlan::builder(params.seed)
            .partition(params.partition_from, params.partition_until)
            .build(),
    );
    fs.create("/srv/shared", "seed;");
    let doc = space.create_document(alice, FsProvider::new(fs.clone(), "/srv/shared", link));
    space.add_reference(bob, doc).expect("doc exists");

    let config = |journal: WriteJournal| {
        let builder = CacheConfig::builder()
            .local_latency(LatencyModel::FREE)
            .write_mode(WriteMode::Back)
            .shards(1)
            .journal(journal);
        match mode {
            MergeMode::OpMerge => builder.merge(MergePolicy::new()),
            MergeMode::KeepMine | MergeMode::KeepTheirs => builder,
        }
        .build()
    };
    let hook: Option<ConflictHook> = match mode {
        MergeMode::OpMerge | MergeMode::KeepMine => None,
        MergeMode::KeepTheirs => Some(Arc::new(|_| ConflictResolution::KeepTheirs)),
    };

    let medium_a = StableStore::new();
    let medium_b = StableStore::new();
    let mut a = Writer {
        user: alice,
        cache: DocumentCache::new(space.clone(), config(WriteJournal::new(medium_a.clone()))),
        buffer: String::new(),
        acked: Vec::new(),
    };
    let mut b = Writer {
        user: bob,
        cache: DocumentCache::new(space.clone(), config(WriteJournal::new(medium_b.clone()))),
        buffer: String::new(),
        acked: Vec::new(),
    };

    // Phase 1: both writers open the document and edit concurrently.
    a.reload(doc);
    b.reload(doc);
    for i in 0..params.edits_phase1 {
        clock.advance(params.edit_gap_micros);
        a.edit(doc, mode, &format!("A{i};"));
        b.edit(doc, mode, &format!("B{i};"));
    }
    // Bob saves; Alice crashes mid-edit. Her in-flight journal append is
    // torn, so that one edit was never acknowledged — losing it is
    // correct in every mode.
    let _ = b.cache.flush().expect("healthy origin");
    let before = medium_a.len();
    a.buffer.push_str("A-torn;");
    match mode {
        MergeMode::OpMerge => a
            .cache
            .write_op(alice, doc, DocOp::Append(Bytes::from("A-torn;")))
            .expect("op write buffers"),
        _ => a
            .cache
            .write(alice, doc, a.buffer.as_bytes())
            .expect("write-back buffers"),
    }
    let in_flight = medium_a.len() - before;
    if in_flight > 1 {
        medium_a.tear_tail(params.torn_tail_bytes.clamp(1, in_flight - 1));
    }
    drop(a.cache); // the crash: Alice's in-memory state dies

    // Restart: reopen Alice's journal over the surviving medium and
    // replay it. The origin has Bob's edits now, so every replayed
    // record conflicts; the mode decides who survives.
    let (journal_a, _) = WriteJournal::open(medium_a);
    let (recovered, recovery) =
        DocumentCache::recover(space.clone(), config(journal_a), hook.clone());
    a.cache = recovered;
    let _ = a.cache.flush().expect("healthy origin");

    // Phase 2: both writers reload and keep editing; a partition then
    // isolates the origin. Bob tries to save inside the window (his
    // entries park), Alice saves after the heal, Bob's retry lands last.
    clock.advance_to(Instant(params.partition_from - 20_000));
    a.reload(doc);
    b.reload(doc);
    for i in 0..params.edits_phase2 {
        clock.advance(params.edit_gap_micros);
        a.edit(doc, mode, &format!("a{i};"));
        b.edit(doc, mode, &format!("b{i};"));
    }
    clock.advance_to(Instant(params.partition_from + 1_000));
    let _ = b.cache.flush().expect("flush itself runs; entries park");
    clock.advance_to(Instant(params.partition_until + 1_000));
    let _ = a.cache.flush().expect("healed origin");
    let _ = b.cache.flush().expect("healed origin");

    let final_bytes = fs.read("/srv/shared").expect("file exists");
    let final_content = String::from_utf8(final_bytes.to_vec()).expect("utf-8 content");
    let lost = a
        .acked
        .iter()
        .chain(b.acked.iter())
        .filter(|token| !final_content.contains(token.as_str()))
        .count() as u64;
    let stats_a = a.cache.stats();
    let stats_b = b.cache.stats();
    MergeResult {
        mode,
        acknowledged: (a.acked.len() + b.acked.len()) as u64,
        lost,
        conflicts_merged: stats_a.conflicts_merged + stats_b.conflicts_merged,
        merge_rebases: stats_a.merge_rebases + stats_b.merge_rebases,
        replayed: recovery.replayed,
        final_content,
    }
}

/// Runs every mode against the same schedule, in [`MergeMode::ALL`]
/// order.
pub fn sweep(params: MergeParams) -> Vec<MergeResult> {
    MergeMode::ALL
        .iter()
        .map(|&mode| run_one(mode, params))
        .collect()
}

/// The `BENCH_merge.json` artifact of one sweep.
pub fn report(params: MergeParams, results: &[MergeResult]) -> Report {
    Report {
        experiment: "merge",
        deterministic: true,
        clock: "virtual",
        params: fields! {
            "edits_phase1": params.edits_phase1,
            "edits_phase2": params.edits_phase2,
            "edit_gap_micros": params.edit_gap_micros,
            "partition_from": params.partition_from,
            "partition_until": params.partition_until,
            "torn_tail_bytes": params.torn_tail_bytes,
            "seed": params.seed,
        },
        body: fields! {
            "runs": Value::rows(results, |r| fields! {
                "mode": r.mode.label(),
                "acknowledged": r.acknowledged,
                "lost": r.lost,
                "conflicts_merged": r.conflicts_merged,
                "merge_rebases": r.merge_rebases,
                "replayed": r.replayed,
            }),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_merge_loses_no_acknowledged_edit() {
        let r = run_one(MergeMode::OpMerge, MergeParams::default());
        assert!(r.acknowledged > 0);
        assert_eq!(r.lost, 0, "op merge must keep every acknowledged edit");
        assert!(r.replayed > 0, "recovery replayed Alice's journal");
        assert!(
            r.conflicts_merged > 0,
            "conflicts were rebased, not dropped"
        );
        assert!(r.merge_rebases > 0);
        assert!(
            !r.final_content.contains("A-torn;"),
            "the torn in-flight edit was never acknowledged"
        );
    }

    #[test]
    fn binary_modes_lose_acknowledged_edits() {
        for mode in [MergeMode::KeepMine, MergeMode::KeepTheirs] {
            let r = run_one(mode, MergeParams::default());
            assert!(
                r.lost >= 1,
                "{} must lose at least one acknowledged edit, lost {}",
                mode.label(),
                r.lost
            );
            assert_eq!(r.conflicts_merged, 0, "no op rebase without the policy");
        }
    }

    #[test]
    fn identical_params_identical_results() {
        let params = MergeParams::default();
        for mode in MergeMode::ALL {
            let x = run_one(mode, params);
            let y = run_one(mode, params);
            assert_eq!(
                (
                    x.acknowledged,
                    x.lost,
                    x.conflicts_merged,
                    x.merge_rebases,
                    x.replayed
                ),
                (
                    y.acknowledged,
                    y.lost,
                    y.conflicts_merged,
                    y.merge_rebases,
                    y.replayed
                ),
                "{} must be deterministic",
                mode.label()
            );
            assert_eq!(x.final_content, y.final_content);
        }
    }
}
