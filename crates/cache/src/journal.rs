//! The write-ahead journal for write-back caches.
//!
//! §3's write-back mode makes the cache the *only* holder of buffered
//! user data until a flush succeeds — a crash or a failed flush must not
//! lose writes the application already saw acknowledged. The journal is
//! the durability half of that contract: every write-back write is
//! appended here, to a [`StableStore`] (a simulated stable medium that
//! survives scripted crashes), *before* the in-memory dirty map is
//! updated; a flush acknowledges ([`WriteJournal::ack_batch`]) and
//! prunes a record only after the origin write succeeded.
//!
//! # Frames
//!
//! The medium is append-only between compactions. It holds two kinds of
//! frame, each sequence-numbered or tagged, and each closed by the md5 of
//! everything before it, so recovery can tell an intact prefix from the
//! torn tail a crash leaves behind:
//!
//! | frame | layout (integers little-endian) | written by |
//! |---|---|---|
//! | record, v1 | `seq: u64` `doc: u64` `user: u64` `epoch: 16 B` `data_len: u32` `data` `md5: 16 B` | [`WriteJournal::append`] |
//! | record, ops | `seq` `doc` `user` `epoch` `data_len∣OPS_FLAG: u32` `writer_seq: u64` `ops_len: u32` `ops` `data` `md5` | [`WriteJournal::append_op`] |
//! | ack | `ACK_TAG: u64` `count: u32` `seq: u64` × count `md5` | [`WriteJournal::ack_batch`] |
//!
//! A record that carries typed operations ([`DocOp`]) sets the high bit
//! of the length field (`OPS_FLAG` — payloads are far below 2 GiB, so the
//! bit is free) and inserts the op section between the header and the
//! payload. `data` is always the *materialized* view (base at `epoch`
//! with `ops` applied), so a reader that ignores ops — or a conflict
//! handler that falls back to keep-mine — behaves exactly like v1. Plain
//! writes encode v1 frames byte-for-byte, keeping old media replayable.
//!
//! `epoch` is the content signature of the rendition the writer last read
//! for `(doc, user)` — [`NO_EPOCH`] when the writer never read the
//! document. Recovery compares it against the writer's current rendition
//! signature to detect write/invalidation conflicts (the origin moved on
//! while the write sat buffered across a crash). `writer_seq` is the
//! per-`(doc, user)` causal sequence: together with the epoch it orders
//! concurrent writers deterministically during a merge.
//!
//! An ack frame starts with `ACK_TAG` (`u64::MAX`) where a record has its
//! sequence number — numbering starts at zero and never gets there — and
//! names the sequence numbers its acknowledgement removed from the live
//! set. Its cost is that of the batch it names, not of the records that
//! stay live. A medium holding ack frames is not readable by code that
//! predates them: it would take the first one for a torn tail.
//!
//! # Reclaiming space
//!
//! A frame is *dead* once nothing replays from it: a record that was
//! acknowledged or superseded by a newer write for its key, and every ack
//! frame. One rule, checked after every append and every ack, reclaims
//! the space:
//!
//! * an empty live set truncates the medium to zero;
//! * otherwise, when dead bytes exceed live bytes plus
//!   [`COMPACTION_FLOOR`], the live frames are copied forward, in
//!   sequence order, in one [`StableStore::overwrite`].
//!
//! A record dies once, and a compaction copies fewer bytes than died
//! since the last one, so everything compaction ever writes is bounded by
//! what was appended: write amplification stays under 2 and the medium
//! under `2 × live + COMPACTION_FLOOR`. Each live record keeps the exact
//! bytes of its frame, so a compaction is a copy — nothing is re-encoded
//! or re-hashed.
//!
//! # Recovery
//!
//! [`WriteJournal::open`] replays whatever the medium holds in medium
//! order — a record becomes the live write for its `(doc, user)`,
//! superseding an earlier one; an ack removes the records it names — and
//! keeps the longest intact prefix (every frame of either kind framed
//! correctly and matching its checksum). Anything after it, the frame a
//! crash tore mid-append, is truncated. A torn *record* was never
//! acknowledged to the application. A torn *ack* resurrects the records
//! it named: their origin writes had succeeded, so the next flush pushes
//! the same bytes again — a duplicate, never a loss.
//!
//! Everything here is synchronous and deterministic; the journal knows
//! nothing about origins or retries — parking and draining policy live in
//! [`crate::manager::DocumentCache`].

use crate::digest::{md5, Signature};
use bytes::Bytes;
use parking_lot::Mutex;
use placeless_core::id::{DocumentId, UserId};
use placeless_core::op::{decode_ops, encode_ops, DocOp};
use placeless_simenv::StableStore;
use std::collections::BTreeMap;
use std::sync::Arc;

/// The epoch recorded when the writer never read the document: no base
/// version is known, so recovery cannot detect conflicts for the record.
pub const NO_EPOCH: Signature = Signature([0; 16]);

/// Dead bytes the medium may hold beyond its live bytes before a
/// compaction copies the live frames forward (see the module docs). It
/// keeps a small journal from compacting on every other ack; the bound on
/// the medium is `2 × live + COMPACTION_FLOOR`.
pub const COMPACTION_FLOOR: u64 = 64 * 1024;

/// Fixed bytes before the payload: seq + doc + user + epoch + data_len.
const HEADER_LEN: usize = 8 + 8 + 8 + 16 + 4;
/// Trailing checksum bytes.
const CHECK_LEN: usize = 16;
/// High bit of the length field: set when the frame carries an op section
/// (`writer_seq` + encoded op list) between the header and the payload.
const OPS_FLAG: u32 = 0x8000_0000;
/// Extra fixed bytes in an op-carrying frame: writer_seq + ops_len.
const OPS_HEADER_LEN: usize = 8 + 4;
/// First eight bytes of an ack frame, where a record has its sequence
/// number. Numbering starts at zero, so no record ever carries it.
const ACK_TAG: u64 = u64::MAX;
/// Fixed bytes before an ack frame's sequence numbers: tag + count.
const ACK_HEADER_LEN: usize = 8 + 4;

/// One journaled write-back write.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalRecord {
    /// Journal-wide sequence number (monotone per journal lifetime).
    pub seq: u64,
    /// Target document.
    pub doc: DocumentId,
    /// Writing user.
    pub user: UserId,
    /// Content signature of the rendition the writer last read, or
    /// [`NO_EPOCH`] if unknown.
    pub epoch: Signature,
    /// The buffered write payload: the writer's materialized view (base
    /// at `epoch` with `ops` applied, when ops are present).
    pub data: Bytes,
    /// Typed operations accumulated since `epoch`, oldest first. Empty
    /// for plain full-body writes — such records cannot be rebased.
    pub ops: Vec<DocOp>,
    /// Per-`(doc, user)` causal sequence at the time of the write; `0`
    /// for plain writes that never participated in op tracking.
    pub writer_seq: u64,
}

/// A live record beside the exact bytes that hold it on the medium.
/// `record.data` is a slice of `frame`, so the payload is stored once and
/// a compaction copies `frame` without encoding or hashing anything.
#[derive(Debug)]
struct LiveRecord {
    record: JournalRecord,
    frame: Bytes,
}

impl LiveRecord {
    /// Encodes a record frame and keeps it beside the decoded record.
    fn encode(
        seq: u64,
        doc: DocumentId,
        user: UserId,
        epoch: Signature,
        data: &[u8],
        ops: Vec<DocOp>,
        writer_seq: u64,
    ) -> Self {
        let plain = ops.is_empty() && writer_seq == 0;
        let ops_wire = if plain { Vec::new() } else { encode_ops(&ops) };
        let mut out = Vec::with_capacity(
            HEADER_LEN
                + if plain {
                    0
                } else {
                    OPS_HEADER_LEN + ops_wire.len()
                }
                + data.len()
                + CHECK_LEN,
        );
        out.extend_from_slice(&seq.to_le_bytes());
        out.extend_from_slice(&doc.0.to_le_bytes());
        out.extend_from_slice(&user.0.to_le_bytes());
        out.extend_from_slice(&epoch.0);
        let mut len_field = data.len() as u32;
        if !plain {
            len_field |= OPS_FLAG;
        }
        out.extend_from_slice(&len_field.to_le_bytes());
        if !plain {
            out.extend_from_slice(&writer_seq.to_le_bytes());
            out.extend_from_slice(&(ops_wire.len() as u32).to_le_bytes());
            out.extend_from_slice(&ops_wire);
        }
        let data_at = out.len();
        out.extend_from_slice(data);
        let check_at = out.len();
        seal(&mut out);
        let frame = Bytes::from(out);
        Self {
            record: JournalRecord {
                seq,
                doc,
                user,
                epoch,
                data: frame.slice(data_at..check_at),
                ops,
                writer_seq,
            },
            frame,
        }
    }

    /// Decodes the record frame at the start of `rest`. Returns `None`
    /// if the bytes are torn (incomplete) or fail their checksum.
    fn decode(rest: &[u8]) -> Option<Self> {
        if rest.len() < HEADER_LEN + CHECK_LEN {
            return None;
        }
        let seq = u64::from_le_bytes(rest[0..8].try_into().expect("8 bytes"));
        let doc = u64::from_le_bytes(rest[8..16].try_into().expect("8 bytes"));
        let user = u64::from_le_bytes(rest[16..24].try_into().expect("8 bytes"));
        let epoch: [u8; 16] = rest[24..40].try_into().expect("16 bytes");
        let len_field = u32::from_le_bytes(rest[40..44].try_into().expect("4 bytes"));
        let has_ops = len_field & OPS_FLAG != 0;
        let data_len = (len_field & !OPS_FLAG) as usize;
        let mut writer_seq = 0u64;
        let mut data_at = HEADER_LEN;
        if has_ops {
            if rest.len() < HEADER_LEN + OPS_HEADER_LEN + CHECK_LEN {
                return None;
            }
            writer_seq = u64::from_le_bytes(rest[44..52].try_into().expect("8 bytes"));
            let ops_len = u32::from_le_bytes(rest[52..56].try_into().expect("4 bytes")) as usize;
            data_at = HEADER_LEN + OPS_HEADER_LEN + ops_len;
        }
        let check_at = data_at.checked_add(data_len)?;
        let total = sealed_len(rest, check_at)?;
        let ops = if has_ops {
            let wire = &rest[HEADER_LEN + OPS_HEADER_LEN..data_at];
            let mut at = 0;
            let ops = decode_ops(wire, &mut at)?;
            if at != wire.len() {
                return None; // trailing garbage inside the op section
            }
            ops
        } else {
            Vec::new()
        };
        let frame = Bytes::copy_from_slice(&rest[..total]);
        Some(Self {
            record: JournalRecord {
                seq,
                doc: DocumentId(doc),
                user: UserId(user),
                epoch: Signature(epoch),
                data: frame.slice(data_at..check_at),
                ops,
                writer_seq,
            },
            frame,
        })
    }
}

/// Closes a frame with the md5 of everything written so far.
fn seal(frame: &mut Vec<u8>) {
    let check = md5(frame);
    frame.extend_from_slice(&check.0);
}

/// Returns the length of the frame at the start of `rest` whose checksum
/// sits at `check_at`, or `None` if the frame is torn (incomplete) or the
/// checksum does not match what precedes it.
fn sealed_len(rest: &[u8], check_at: usize) -> Option<usize> {
    let total = check_at.checked_add(CHECK_LEN)?;
    let stored = rest.get(check_at..total)?;
    (md5(&rest[..check_at]).0 == *stored).then_some(total)
}

/// Encodes the ack frame naming `seqs`.
fn encode_ack(seqs: &[u64]) -> Vec<u8> {
    let count = u32::try_from(seqs.len()).expect("an ack batch names fewer than 2^32 records");
    let mut out = Vec::with_capacity(ACK_HEADER_LEN + 8 * seqs.len() + CHECK_LEN);
    out.extend_from_slice(&ACK_TAG.to_le_bytes());
    out.extend_from_slice(&count.to_le_bytes());
    for seq in seqs {
        out.extend_from_slice(&seq.to_le_bytes());
    }
    seal(&mut out);
    out
}

/// Decodes the ack frame at the start of `rest` (which starts with
/// [`ACK_TAG`]). Returns the sequence numbers it names and its length,
/// or `None` if the bytes are torn or fail their checksum.
fn decode_ack(rest: &[u8]) -> Option<(Vec<u64>, usize)> {
    if rest.len() < ACK_HEADER_LEN + CHECK_LEN {
        return None;
    }
    let count = u32::from_le_bytes(rest[8..12].try_into().expect("4 bytes")) as usize;
    let check_at = ACK_HEADER_LEN.checked_add(count.checked_mul(8)?)?;
    let total = sealed_len(rest, check_at)?;
    let seqs = rest[ACK_HEADER_LEN..check_at]
        .chunks_exact(8)
        .map(|seq| u64::from_le_bytes(seq.try_into().expect("8 bytes")))
        .collect();
    Some((seqs, total))
}

/// What [`WriteJournal::open`] found on the medium.
#[derive(Debug, Clone, Default)]
pub struct ReplayOutcome {
    /// The live records (latest per `(doc, user)`, not acknowledged), in
    /// sequence order.
    pub records: Vec<JournalRecord>,
    /// Intact record frames scanned. Besides the live records this counts
    /// the dead ones still on the medium between compactions —
    /// superseded duplicates and acknowledged records — so it can exceed
    /// `records.len()` by up to the compaction slack. Ack frames are not
    /// counted.
    pub scanned: u64,
    /// Bytes discarded past the intact prefix (the torn tail).
    pub torn_bytes: u64,
    /// `true` if the medium held a torn tail that was truncated away.
    pub truncated: bool,
}

#[derive(Debug, Default)]
struct JournalState {
    next_seq: u64,
    live: BTreeMap<u64, LiveRecord>,
    by_key: placeless_core::keymap::KeyMap<(DocumentId, UserId), u64>,
    /// Bytes of the medium that live frames occupy; the rest is dead.
    live_bytes: u64,
}

impl JournalState {
    /// Inserts `live` as the live write for its key, superseding any
    /// earlier one (whose frame stays on the medium, dead, until the next
    /// compaction).
    fn insert(&mut self, live: LiveRecord) {
        let seq = live.record.seq;
        if let Some(old) = self.by_key.insert((live.record.doc, live.record.user), seq) {
            if let Some(old) = self.live.remove(&old) {
                self.live_bytes -= old.frame.len() as u64;
            }
        }
        self.live_bytes += live.frame.len() as u64;
        self.live.insert(seq, live);
    }

    /// Removes the record `seq` if it is still live — a newer write for
    /// its key may have superseded it, or an earlier ack removed it.
    fn remove(&mut self, seq: u64) -> bool {
        let Some(live) = self.live.remove(&seq) else {
            return false;
        };
        self.live_bytes -= live.frame.len() as u64;
        self.by_key.remove(&(live.record.doc, live.record.user));
        true
    }

    /// The live records in sequence order.
    fn records(&self) -> Vec<JournalRecord> {
        self.live.values().map(|live| live.record.clone()).collect()
    }
}

/// A write-ahead journal over a [`StableStore`].
///
/// Clones share state (like clones of the underlying store), so the
/// cache and its construction site hold the same journal.
#[derive(Debug, Clone)]
pub struct WriteJournal {
    store: StableStore,
    state: Arc<Mutex<JournalState>>,
}

impl WriteJournal {
    /// Opens a journal over `store`, replaying the intact record and ack
    /// frames the medium holds and truncating any torn tail.
    ///
    /// On a fresh medium the outcome is empty. Sequence numbering resumes
    /// past every sequence number a frame on the medium carries or names.
    pub fn open(store: StableStore) -> (Self, ReplayOutcome) {
        let image = store.contents();
        let mut state = JournalState::default();
        let mut outcome = ReplayOutcome::default();
        let mut offset = 0;
        while let Some(rest) = image.get(offset..).filter(|rest| rest.len() >= 8) {
            if rest[..8] == ACK_TAG.to_le_bytes() {
                let Some((seqs, len)) = decode_ack(rest) else {
                    break;
                };
                for seq in seqs {
                    state.next_seq = state.next_seq.max(seq + 1);
                    state.remove(seq);
                }
                offset += len;
            } else {
                let Some(live) = LiveRecord::decode(rest) else {
                    break;
                };
                outcome.scanned += 1;
                state.next_seq = state.next_seq.max(live.record.seq + 1);
                offset += live.frame.len();
                state.insert(live);
            }
        }
        if offset < image.len() {
            outcome.torn_bytes = (image.len() - offset) as u64;
            outcome.truncated = true;
            store.truncate(offset as u64);
        }
        outcome.records = state.records();
        (
            Self {
                store,
                state: Arc::new(Mutex::new(state)),
            },
            outcome,
        )
    }

    /// Creates a journal over a fresh (or already-recovered) medium,
    /// discarding any replay information.
    pub fn new(store: StableStore) -> Self {
        Self::open(store).0
    }

    /// Returns the underlying stable medium.
    pub fn store(&self) -> &StableStore {
        &self.store
    }

    /// Appends a write record, returning its sequence number. The record
    /// is on the stable medium before this returns — the write-ahead
    /// guarantee the cache relies on.
    pub fn append(&self, doc: DocumentId, user: UserId, epoch: Signature, data: &[u8]) -> u64 {
        self.append_op(doc, user, epoch, data, Vec::new(), 0)
    }

    /// Appends an op-carrying record: `data` is the writer's materialized
    /// view, `ops` the typed edits accumulated since `epoch` (oldest
    /// first), and `writer_seq` the per-`(doc, user)` causal sequence.
    /// Same write-ahead guarantee as [`WriteJournal::append`].
    pub fn append_op(
        &self,
        doc: DocumentId,
        user: UserId,
        epoch: Signature,
        data: &[u8],
        ops: Vec<DocOp>,
        writer_seq: u64,
    ) -> u64 {
        let mut state = self.state.lock();
        let seq = state.next_seq;
        state.next_seq += 1;
        let live = LiveRecord::encode(seq, doc, user, epoch, data, ops, writer_seq);
        let end = self.store.append(&live.frame) + live.frame.len() as u64;
        state.insert(live);
        self.reclaim(&state, end);
        seq
    }

    /// Acknowledges a batch of flushed records with one ack frame naming
    /// every `seq` that was still live; sequence numbers that were
    /// superseded by a newer write or already acknowledged are skipped,
    /// and a batch of nothing but those writes nothing. The cost is that
    /// of the batch, whatever else is live. Returns how many records
    /// were live.
    pub fn ack_batch(&self, seqs: &[u64]) -> usize {
        let mut state = self.state.lock();
        let removed: Vec<u64> = seqs
            .iter()
            .copied()
            .filter(|&seq| state.remove(seq))
            .collect();
        if removed.is_empty() {
            return 0;
        }
        let frame = encode_ack(&removed);
        let end = self.store.append(&frame) + frame.len() as u64;
        self.reclaim(&state, end);
        removed.len()
    }

    /// The one space-reclaiming rule (see the module docs), run with the
    /// state lock held after a frame brought the medium to `medium_len`
    /// bytes.
    fn reclaim(&self, state: &JournalState, medium_len: u64) {
        let dead_bytes = medium_len.saturating_sub(state.live_bytes);
        if state.live.is_empty() {
            self.store.truncate(0);
        } else if dead_bytes > state.live_bytes + COMPACTION_FLOOR {
            let mut image = Vec::with_capacity(state.live_bytes as usize);
            for live in state.live.values() {
                image.extend_from_slice(&live.frame);
            }
            self.store.overwrite(&image);
        }
    }

    /// Returns the live records in sequence order.
    pub fn live_records(&self) -> Vec<JournalRecord> {
        self.state.lock().records()
    }

    /// Returns how many records are live (unacknowledged).
    pub fn len(&self) -> usize {
        self.state.lock().live.len()
    }

    /// Returns `true` if no records are live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}
