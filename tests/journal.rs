//! The write-ahead journal through its public API: framing, supersession,
//! acks as appended frames, replay with torn and corrupt tails, the
//! space-reclaiming rule, a state machine against a replay model, and the
//! two release-mode gates on what an ack and a flush cost
//! (`scripts/check.sh` runs this file again under `--release`).

use bytes::Bytes;
use placeless_cache::journal::COMPACTION_FLOOR;
use placeless_cache::{md5, JournalRecord, WriteJournal, NO_EPOCH};
use placeless_core::id::{DocumentId, UserId};
use placeless_core::op::{encode_ops, rebasable, DocOp};
use placeless_simenv::StableStore;
use proptest::prelude::*;
use std::collections::BTreeMap;

const DOC: DocumentId = DocumentId(7);
const ALICE: UserId = UserId(1);
const BOB: UserId = UserId(2);

/// Length of a record frame around `data` and (for an op-carrying record)
/// its encoded ops: the 44-byte header, the 12-byte op header, the md5.
fn record_len(data: &[u8], ops: Option<&[DocOp]>) -> u64 {
    (44 + ops.map_or(0, |ops| 12 + encode_ops(ops).len()) + data.len() + 16) as u64
}

/// Length of an ack frame naming `count` records: tag, count, seqs, md5.
fn ack_len(count: usize) -> u64 {
    (8 + 4 + 8 * count + 16) as u64
}

#[test]
fn append_ack_roundtrip() {
    let (journal, outcome) = WriteJournal::open(StableStore::new());
    assert!(outcome.records.is_empty());
    assert!(!outcome.truncated);
    let seq = journal.append(DOC, ALICE, NO_EPOCH, b"draft");
    assert_eq!(journal.len(), 1);
    assert_eq!(journal.live_records()[0].seq, seq);
    assert_eq!(journal.ack_batch(&[seq]), 1);
    assert!(journal.is_empty());
    assert!(
        journal.store().is_empty(),
        "an empty live set truncates the medium"
    );
    assert_eq!(journal.ack_batch(&[seq]), 0, "double ack is a no-op");
}

#[test]
fn ack_batch_appends_one_frame_and_skips_superseded_records() {
    let store = StableStore::new();
    let journal = WriteJournal::new(store.clone());
    let a = journal.append(DOC, ALICE, NO_EPOCH, b"alice v1");
    let superseded = journal.append(DOC, BOB, NO_EPOCH, b"bob v1");
    let b = journal.append(DOC, BOB, NO_EPOCH, b"bob v2");
    let keep = journal.append(DocumentId(8), ALICE, NO_EPOCH, b"other");
    let (appends, len) = (store.append_count(), store.len());
    // One batch ack: two live seqs, one superseded seq.
    assert_eq!(journal.ack_batch(&[a, b, superseded]), 2);
    assert_eq!(store.append_count(), appends + 1, "one frame per batch");
    assert_eq!(
        store.len(),
        len + ack_len(2),
        "the frame names the two records it removed, nothing else"
    );
    assert_eq!(store.rewrite_count(), 0, "an ack rewrites nothing");
    assert_eq!(journal.len(), 1);
    assert_eq!(journal.live_records()[0].seq, keep);
    assert_eq!(journal.ack_batch(&[a, b]), 0, "double batch ack is a no-op");
    assert_eq!(
        (store.append_count(), store.len()),
        (appends + 1, len + ack_len(2)),
        "an all-stale batch writes nothing"
    );
    let (_, outcome) = WriteJournal::open(store);
    assert_eq!(outcome.scanned, 4, "dead records are still on the medium");
    assert_eq!(outcome.records.len(), 1, "the ack frame replays");
    assert_eq!(outcome.records[0].seq, keep);
}

#[test]
fn newer_write_supersedes_and_ack_is_seq_precise() {
    let journal = WriteJournal::new(StableStore::new());
    let first = journal.append(DOC, ALICE, NO_EPOCH, b"v1");
    let second = journal.append(DOC, ALICE, NO_EPOCH, b"v2");
    assert_eq!(journal.len(), 1, "one live record per key");
    assert_eq!(
        journal.ack_batch(&[first]),
        0,
        "acking the superseded seq must not drop the newer record"
    );
    assert_eq!(journal.live_records()[0].seq, second);
    assert_eq!(journal.live_records()[0].data, "v2");
}

#[test]
fn reopen_recovers_live_records_in_seq_order() {
    let store = StableStore::new();
    let journal = WriteJournal::new(store.clone());
    journal.append(DOC, ALICE, NO_EPOCH, b"v1");
    journal.append(DocumentId(9), BOB, md5(b"base"), b"other");
    journal.append(DOC, ALICE, NO_EPOCH, b"v2");
    drop(journal); // crash: in-memory state is gone, the medium is not

    let (recovered, outcome) = WriteJournal::open(store);
    assert_eq!(outcome.scanned, 3, "all three records were intact");
    assert!(!outcome.truncated);
    assert_eq!(outcome.records.len(), 2, "deduplicated by key");
    assert_eq!(outcome.records[0].data, "other");
    assert_eq!(outcome.records[0].epoch, md5(b"base"));
    assert_eq!(outcome.records[1].data, "v2", "latest seq wins");
    let next = recovered.append(DOC, BOB, NO_EPOCH, b"new");
    assert!(next >= 3, "sequence numbering resumes past recovery");
}

/// Flips one byte at `at` of the medium's image.
fn corrupt(store: &StableStore, at: u64) {
    let mut image = store.contents();
    image[at as usize] ^= 0xFF;
    store.overwrite(&image);
}

#[test]
fn corrupt_checksum_stops_the_scan() {
    let store = StableStore::new();
    let journal = WriteJournal::new(store.clone());
    journal.append(DOC, ALICE, NO_EPOCH, b"good");
    let good_len = store.len();
    journal.append(DOC, BOB, NO_EPOCH, b"bad");
    // Flip a payload byte of the second record (past its 44-byte header):
    // framing is intact but the checksum no longer matches.
    corrupt(&store, good_len + 44);

    let (_, outcome) = WriteJournal::open(store);
    assert_eq!(outcome.records.len(), 1);
    assert_eq!(outcome.records[0].data, "good");
    assert!(outcome.truncated);
}

#[test]
fn corrupt_ack_stops_the_scan_like_a_corrupt_record() {
    let store = StableStore::new();
    let journal = WriteJournal::new(store.clone());
    let first = journal.append(DOC, ALICE, NO_EPOCH, b"first");
    journal.append(DOC, BOB, NO_EPOCH, b"second");
    let before = store.len();
    journal.ack_batch(&[first]);
    journal.append(DocumentId(8), ALICE, NO_EPOCH, b"after the ack");
    // Flip a byte of the sequence number the ack names.
    corrupt(&store, before + 12);

    let (_, outcome) = WriteJournal::open(store.clone());
    assert!(outcome.truncated);
    assert_eq!(
        store.len(),
        before,
        "everything from the bad frame on is cut"
    );
    let data: Vec<_> = outcome.records.iter().map(|r| r.data.clone()).collect();
    assert_eq!(data, ["first", "second"]);
}

#[test]
fn plain_append_is_byte_identical_to_the_v1_frame() {
    // The parity contract: a journal that never sees ops produces the
    // exact PR-4 medium image, byte for byte.
    let store = StableStore::new();
    let journal = WriteJournal::new(store.clone());
    journal.append(DOC, ALICE, md5(b"base"), b"payload");

    let mut v1 = Vec::new();
    v1.extend_from_slice(&0u64.to_le_bytes());
    v1.extend_from_slice(&DOC.0.to_le_bytes());
    v1.extend_from_slice(&ALICE.0.to_le_bytes());
    v1.extend_from_slice(&md5(b"base").0);
    v1.extend_from_slice(&(b"payload".len() as u32).to_le_bytes());
    v1.extend_from_slice(b"payload");
    let check = md5(&v1);
    v1.extend_from_slice(&check.0);
    assert_eq!(store.contents(), v1);
}

#[test]
fn op_records_roundtrip_across_reopen() {
    use placeless_core::content::PropertyValue;
    let store = StableStore::new();
    let journal = WriteJournal::new(store.clone());
    let ops = vec![
        DocOp::Append(Bytes::from("tail")),
        DocOp::SetProperty {
            name: "color".into(),
            value: PropertyValue::Str("blue".into()),
        },
    ];
    journal.append_op(DOC, ALICE, md5(b"base"), b"base-tail", ops.clone(), 3);
    journal.append(DOC, BOB, NO_EPOCH, b"plain");
    drop(journal);

    let (_, outcome) = WriteJournal::open(store);
    assert_eq!(outcome.records.len(), 2);
    let alice = &outcome.records[0];
    assert_eq!(alice.data, "base-tail");
    assert_eq!(alice.ops, ops);
    assert_eq!(alice.writer_seq, 3);
    assert!(rebasable(&alice.ops));
    let bob = &outcome.records[1];
    assert!(bob.ops.is_empty());
    assert_eq!(bob.writer_seq, 0);
    assert!(!rebasable(&bob.ops));
}

#[test]
fn empty_payload_and_large_payload_roundtrip() {
    let store = StableStore::new();
    let journal = WriteJournal::new(store.clone());
    journal.append(DOC, ALICE, NO_EPOCH, b"");
    let big = vec![0xAB; 10_000];
    journal.append(DOC, BOB, NO_EPOCH, &big);
    let (_, outcome) = WriteJournal::open(store);
    assert_eq!(outcome.records.len(), 2);
    assert_eq!(outcome.records[0].data.len(), 0);
    assert_eq!(outcome.records[1].data, big.as_slice());
}

/// An editor autosaving one parked document through a long outage: every
/// write supersedes the last and nothing is ever acknowledged. The
/// superseded frames are dead bytes, and the reclaim rule runs on append.
#[test]
fn rewriting_one_key_without_acks_keeps_the_medium_bounded() {
    let store = StableStore::new();
    let journal = WriteJournal::new(store.clone());
    let live = record_len(&[0; 1024], None);
    for i in 0..10_000u32 {
        let mut body = vec![0u8; 1024];
        body[..4].copy_from_slice(&i.to_le_bytes());
        journal.append(DOC, ALICE, NO_EPOCH, &body);
        assert!(
            store.len() <= 2 * live + COMPACTION_FLOOR,
            "after {i} rewrites the medium holds {} bytes for one live {live}-byte record",
            store.len()
        );
    }
    assert!(
        store.rewrite_count() > 0,
        "space was reclaimed by compaction"
    );
    assert!(
        store.bytes_written() <= 2 * 10_000 * live,
        "and compaction at most doubled what was written"
    );
    let (_, outcome) = WriteJournal::open(store);
    assert_eq!(outcome.records.len(), 1);
    assert_eq!(outcome.records[0].data[..4], 9_999u32.to_le_bytes());
}

/// A frame the model expects on the medium.
#[derive(Debug, Clone)]
enum Frame {
    Record(JournalRecord, u64),
    Ack(Vec<u64>, u64),
}

impl Frame {
    fn len(&self) -> u64 {
        match self {
            Frame::Record(_, len) | Frame::Ack(_, len) => *len,
        }
    }
}

/// The reference the state machine checks the journal against: the frames
/// the medium should hold, oldest first. Everything else — the live set,
/// what a crash leaves, what a compaction keeps — is derived by replaying
/// them.
#[derive(Debug, Default)]
struct Model {
    frames: Vec<Frame>,
}

impl Model {
    /// The unacknowledged, unsuperseded records, by sequence number.
    fn live(&self) -> BTreeMap<u64, JournalRecord> {
        let mut live: BTreeMap<u64, JournalRecord> = BTreeMap::new();
        for frame in &self.frames {
            match frame {
                Frame::Record(record, _) => {
                    live.retain(|_, old| (old.doc, old.user) != (record.doc, record.user));
                    live.insert(record.seq, record.clone());
                }
                Frame::Ack(seqs, _) => {
                    for seq in seqs {
                        live.remove(seq);
                    }
                }
            }
        }
        live
    }

    fn len(&self) -> u64 {
        self.frames.iter().map(Frame::len).sum()
    }

    /// A crash tears `n` bytes off the medium: every frame not wholly
    /// inside what remains is gone.
    fn tear(&mut self, n: u64) {
        let keep = self.len().saturating_sub(n);
        let mut end = 0;
        self.frames.retain(|frame| {
            end += frame.len();
            end <= keep
        });
    }

    /// Follows the journal through a step that began at `rewrites_before`:
    /// if it reclaimed space, only the live records' frames remain. Either
    /// way the medium holds exactly the model's frames, within the bound.
    fn settle(&mut self, store: &StableStore, rewrites_before: u64) {
        let live = self.live();
        if store.rewrite_count() > rewrites_before || store.is_empty() {
            self.frames
                .retain(|f| matches!(f, Frame::Record(r, _) if live.contains_key(&r.seq)));
        }
        assert_eq!(store.len(), self.len(), "frames on the medium");
        let live_bytes: u64 = self
            .frames
            .iter()
            .filter(|f| matches!(f, Frame::Record(r, _) if live.contains_key(&r.seq)))
            .map(Frame::len)
            .sum();
        assert!(
            store.len() <= 2 * live_bytes + COMPACTION_FLOOR,
            "{} bytes on the medium for {live_bytes} live",
            store.len()
        );
    }
}

/// Steps of the journal state machine.
#[derive(Debug, Clone)]
enum Step {
    /// Plain append to one of a few keys (so keys are rewritten often).
    Append { key: u64, len: usize },
    /// Op-carrying append.
    AppendOp { key: u64, len: usize },
    /// Append again to the key written last.
    Rewrite { len: usize },
    /// `ack_batch` of seqs picked from every seq issued so far: live,
    /// superseded, already acknowledged and repeated ones mixed.
    Ack { picks: Vec<usize> },
    /// Rewrites one key with large bodies until the medium compacts.
    ForceCompaction,
    /// Crash tearing `tear` bytes off the medium, then reopen.
    Crash { tear: u64 },
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0u64..5, 0usize..300).prop_map(|(key, len)| Step::Append { key, len }),
        (0u64..5, 0usize..300).prop_map(|(key, len)| Step::AppendOp { key, len }),
        (0usize..300).prop_map(|len| Step::Rewrite { len }),
        // Twice, so that acks keep pace with the three kinds of append.
        proptest::collection::vec(0usize..64, 0..6).prop_map(|picks| Step::Ack { picks }),
        proptest::collection::vec(0usize..64, 0..6).prop_map(|picks| Step::Ack { picks }),
        Just(Step::ForceCompaction),
        (0u64..400).prop_map(|tear| Step::Crash { tear }),
        Just(Step::Crash { tear: 0 }),
    ]
}

/// The journal under test beside its model.
struct Machine {
    store: StableStore,
    journal: WriteJournal,
    model: Model,
    /// Every sequence number `append` ever returned.
    issued: Vec<u64>,
    last_key: u64,
    /// Distinguishes bodies, so a stale record is never mistaken for the
    /// live one.
    stamp: u8,
}

impl Machine {
    fn new() -> Self {
        let store = StableStore::new();
        Self {
            journal: WriteJournal::new(store.clone()),
            store,
            model: Model::default(),
            issued: Vec::new(),
            last_key: 0,
            stamp: 0,
        }
    }

    fn append(&mut self, key: u64, len: usize, with_ops: bool) {
        self.stamp = self.stamp.wrapping_add(1);
        self.last_key = key;
        let (doc, user) = (DocumentId(key / 2), UserId(key % 2));
        let body = vec![self.stamp; len];
        let ops = if with_ops {
            vec![DocOp::Append(Bytes::from(body.clone()))]
        } else {
            Vec::new()
        };
        let writer_seq = u64::from(with_ops) * u64::from(self.stamp);
        let rewrites = self.store.rewrite_count();
        let seq = if with_ops {
            self.journal
                .append_op(doc, user, NO_EPOCH, &body, ops.clone(), writer_seq)
        } else {
            self.journal.append(doc, user, NO_EPOCH, &body)
        };
        for frame in &self.model.frames {
            match frame {
                Frame::Record(record, _) => assert!(seq > record.seq),
                Frame::Ack(seqs, _) => assert!(
                    !seqs.contains(&seq),
                    "seq {seq} is named by an ack frame still on the medium"
                ),
            }
        }
        let len = record_len(&body, with_ops.then_some(&ops));
        let record = JournalRecord {
            seq,
            doc,
            user,
            epoch: NO_EPOCH,
            data: Bytes::from(body),
            ops,
            writer_seq,
        };
        self.model.frames.push(Frame::Record(record, len));
        self.issued.push(seq);
        self.model.settle(&self.store, rewrites);
    }

    fn ack(&mut self, picks: &[usize]) {
        if self.issued.is_empty() {
            return;
        }
        let seqs: Vec<u64> = picks
            .iter()
            .map(|pick| self.issued[self.issued.len() - 1 - pick % self.issued.len()])
            .collect();
        let mut live = self.model.live();
        let named: Vec<u64> = seqs
            .iter()
            .copied()
            .filter(|seq| live.remove(seq).is_some())
            .collect();
        let (rewrites, appends) = (self.store.rewrite_count(), self.store.append_count());
        assert_eq!(self.journal.ack_batch(&seqs), named.len());
        assert_eq!(
            self.store.append_count() - appends,
            u64::from(!named.is_empty()),
            "one frame per batch, none for a stale batch"
        );
        if !named.is_empty() {
            let len = ack_len(named.len());
            self.model.frames.push(Frame::Ack(named, len));
        }
        self.model.settle(&self.store, rewrites);
    }

    fn crash(&mut self, tear: u64) {
        let before = self.model.live();
        let medium_len = self.store.len();
        self.store.truncate(medium_len.saturating_sub(tear));
        self.model.tear(tear);
        let expected = self.model.live();
        // A torn ack only resurrects: a record that was live and whose
        // frame survived is still live.
        for frame in &self.model.frames {
            if let Frame::Record(record, _) = frame {
                if before.contains_key(&record.seq) {
                    assert!(expected.contains_key(&record.seq));
                }
            }
        }
        let (journal, outcome) = WriteJournal::open(self.store.clone());
        assert_eq!(outcome.records, expected.into_values().collect::<Vec<_>>());
        assert_eq!(self.store.len(), self.model.len(), "the intact prefix");
        assert_eq!(
            outcome.torn_bytes,
            medium_len.saturating_sub(tear) - self.model.len()
        );
        assert_eq!(outcome.truncated, outcome.torn_bytes > 0);
        let (_, again) = WriteJournal::open(self.store.clone());
        assert!(!again.truncated, "a second open truncates nothing");
        assert_eq!(again.records, outcome.records);
        self.journal = journal;
    }

    fn step(&mut self, step: &Step) {
        match step {
            Step::Append { key, len } => self.append(*key, *len, false),
            Step::AppendOp { key, len } => self.append(*key, *len, true),
            Step::Rewrite { len } => self.append(self.last_key, *len, false),
            Step::Ack { picks } => self.ack(picks),
            Step::ForceCompaction => {
                let rewrites = self.store.rewrite_count();
                let mut appended = 0;
                while self.store.rewrite_count() == rewrites {
                    assert!(appended < 8, "eight 40 KiB rewrites never compacted");
                    self.append(5, 40 * 1024, false);
                    appended += 1;
                }
            }
            Step::Crash { tear } => self.crash(*tear),
        }
        let live: Vec<_> = self.model.live().into_values().collect();
        assert_eq!(self.journal.live_records(), live);
    }
}

proptest! {
    /// Whatever is appended, rewritten, acknowledged, compacted and torn,
    /// the journal holds the frames the model holds, and reopening it
    /// after a crash at any byte recovers the records unacknowledged as
    /// of the intact prefix.
    #[test]
    fn journal_matches_the_replay_model(steps in proptest::collection::vec(step_strategy(), 1..80)) {
        let mut machine = Machine::new();
        for step in &steps {
            machine.step(step);
        }
        machine.crash(0);
    }
}

/// The proptest tears where its generator lands; this walks a medium
/// holding every kind of frame and cuts it at each byte.
#[test]
fn crash_at_every_byte_offset_recovers_the_intact_prefix() {
    let mut machine = Machine::new();
    for step in [
        Step::Append { key: 0, len: 40 },
        Step::AppendOp { key: 1, len: 30 },
        Step::Append { key: 2, len: 0 },
        Step::Rewrite { len: 25 },
        Step::Ack { picks: vec![3, 0] },
        Step::AppendOp { key: 0, len: 10 },
        Step::Ack {
            picks: vec![0, 4, 4],
        },
        Step::Append { key: 3, len: 60 },
    ] {
        machine.step(&step);
    }
    let image = machine.store.contents();
    for cut in 0..=image.len() {
        let store = StableStore::new();
        store.append(&image[..cut]);
        let mut model = Model {
            frames: machine.model.frames.clone(),
        };
        model.tear((image.len() - cut) as u64);
        let (_, outcome) = WriteJournal::open(store.clone());
        let expected: Vec<_> = model.live().into_values().collect();
        assert_eq!(outcome.records, expected, "cut at byte {cut}");
        assert_eq!(store.len(), model.len(), "cut at byte {cut}");
    }
}

fn median(mut samples: Vec<std::time::Duration>) -> std::time::Duration {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Median wall time of an `ack_batch` of two records beside `others`
/// other live 1 KiB records.
fn ack_median(others: u64) -> std::time::Duration {
    const SAMPLES: u64 = 400;
    let journal = WriteJournal::new(StableStore::new());
    let body = [0x5A; 1024];
    for doc in 0..others {
        journal.append(DocumentId(doc), BOB, NO_EPOCH, &body);
    }
    let seqs: Vec<u64> = (0..2 * SAMPLES)
        .map(|doc| journal.append(DocumentId(doc), ALICE, NO_EPOCH, &body))
        .collect();
    let samples = seqs
        .chunks(2)
        .map(|pair| {
            let started = std::time::Instant::now();
            assert_eq!(journal.ack_batch(pair), 2);
            started.elapsed()
        })
        .collect();
    median(samples)
}

/// An ack costs what it acknowledges: 128 times the live records must not
/// show in the cost of acknowledging two. The margin is wide on purpose —
/// this checks that no pass over the live set is on the path (a rewrite
/// per ack is two orders of magnitude apart here), not how fast it is.
#[test]
fn ack_cost_is_independent_of_live_records() {
    let (small, large) = (ack_median(64), ack_median(8_192));
    assert!(
        large <= small * 4,
        "acknowledging two records: {small:?} beside 64 live records, {large:?} beside 8192"
    );
}

/// The shape of the benchmark's `write_back_flush`: eleven rounds, each
/// appending 165 records of 1 KiB and acknowledging them in groups of
/// two. Compaction is paid for by what was appended — under three bytes
/// reach the medium per user byte — and happens at most once a round.
#[test]
fn flush_shaped_run_writes_under_three_bytes_per_user_byte() {
    const ROUNDS: u64 = 11;
    const LIVE: u64 = 165;
    let store = StableStore::new();
    let journal = WriteJournal::new(store.clone());
    let body = [0x5A; 1024];
    for round in 0..ROUNDS {
        let rewrites = store.rewrite_count();
        let seqs: Vec<u64> = (0..LIVE)
            .map(|doc| journal.append(DocumentId(doc), ALICE, NO_EPOCH, &body))
            .collect();
        for group in seqs.chunks(2) {
            journal.ack_batch(group);
        }
        assert!(store.is_empty(), "round {round} acknowledged everything");
        assert!(
            store.rewrite_count() - rewrites <= 1,
            "round {round} rewrote the medium {} times",
            store.rewrite_count() - rewrites
        );
    }
    let user_bytes = ROUNDS * LIVE * body.len() as u64;
    assert!(
        store.bytes_written() <= 3 * user_bytes,
        "{} bytes written for {user_bytes} user bytes",
        store.bytes_written()
    );
}
