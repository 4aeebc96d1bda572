//! Warm restart: replaying the write journal into the dirty queue.

use super::*;

/// How [`DocumentCache::recover`] should resolve one write conflict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConflictResolution {
    /// Keep the journaled write: re-queue it dirty so the next flush
    /// pushes it over the newer origin version. The conflict is still
    /// reported — this is an informed overwrite, not last-writer-wins by
    /// omission.
    KeepMine,
    /// Keep the origin's version: drop the journaled write and
    /// acknowledge its record.
    KeepTheirs,
}

/// One recovered write whose base version no longer matches the origin:
/// the origin moved on while the write sat buffered across the crash.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WriteConflict {
    /// The conflicted document.
    pub doc: DocumentId,
    /// The user whose buffered write conflicts.
    pub user: UserId,
    /// Signature of the rendition the writer based the write on.
    pub journal_epoch: Signature,
    /// Signature of the writer's current rendition of the document.
    pub origin_signature: Signature,
}

/// Resolution callback consulted by [`DocumentCache::recover`] for each
/// [`WriteConflict`]; `None` defaults to [`ConflictResolution::KeepMine`].
pub type ConflictHook = Arc<dyn Fn(&WriteConflict) -> ConflictResolution + Send + Sync>;

/// What [`DocumentCache::recover`] did with the journal's live records.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Intact journal records considered for replay.
    pub replayed: u64,
    /// Records re-queued into the dirty maps (flushed by the next flush).
    pub requeued: u64,
    /// Conflicts detected (journal epoch vs. origin signature), however
    /// they were resolved.
    pub conflicts: Vec<WriteConflict>,
    /// Records dropped because their document no longer exists (the
    /// write can never be applied).
    pub dropped: u64,
    /// How the conflicts were settled: rebased (with a
    /// [`crate::MergePolicy`]), kept mine or kept theirs.
    pub merge: MergeReport,
}

impl std::fmt::Display for RecoveryReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "replayed {}, requeued {}, {} dropped; {}",
            self.replayed, self.requeued, self.dropped, self.merge,
        )
    }
}

impl DocumentCache {
    /// Creates a cache after a crash, replaying the journal configured in
    /// `config` into the dirty queue (warm restart).
    ///
    /// Open the journal over the surviving [`placeless_simenv::StableStore`]
    /// first — [`WriteJournal::open`] truncates any torn tail the crash
    /// left — then pass it in `config.journal`. A record that carries a
    /// base-version epoch is checked against the writer's current
    /// rendition ([`Self::current_rendition`]: one fetch through the new
    /// cache, installed there). If that no longer matches, the origin
    /// changed while the write sat buffered across the crash: a
    /// [`WriteConflict`], resolved through `hook` (default:
    /// [`ConflictResolution::KeepMine`]) and *reported*, never silently
    /// last-writer-wins. A record whose origin is unreachable is
    /// re-queued unchecked; one whose document no longer exists is
    /// dropped and acknowledged.
    ///
    /// Without a journal in `config`, this is exactly [`Self::new`] plus
    /// an empty report.
    pub fn recover(
        space: Arc<DocumentSpace>,
        config: CacheConfig,
        hook: Option<ConflictHook>,
    ) -> (Arc<Self>, RecoveryReport) {
        let cache = Self::new(space, config);
        let mut report = RecoveryReport::default();
        let Some(journal) = cache.journal.clone() else {
            return (cache, report);
        };
        // Records recovery drops (their document is gone, or the origin's
        // version won), acknowledged together after the replay.
        let mut dropped_seqs: Vec<u64> = Vec::new();
        for record in journal.live_records() {
            report.replayed += 1;
            AtomicCacheStats::bump(&cache.table.stats.journal_replays);
            // Seed the causal counter so post-recovery ops continue this
            // writer's sequence instead of restarting it.
            if record.writer_seq > 0 {
                let mut shard = cache.table.lock(EntryKey::Version(record.doc, record.user));
                let last = shard.writer_seq(record.doc, record.user);
                *last = (*last).max(record.writer_seq);
            }
            let (data, ops) = (record.data.clone(), record.ops.clone());
            let mut entry = DirtyEntry::new(data, record.epoch, ops, record.writer_seq);
            entry.seq = Some(record.seq);
            let (doc, user) = (record.doc, record.user);
            match cache.probe_conflict(doc, user, &entry, hook.as_ref(), &mut report.merge) {
                // No epoch, the same one, or the origin unreachable (or any
                // other read failure): re-queue — losing the write would be
                // worse than flushing it unverified.
                Probed::Current(_) => {}
                Probed::Gone => {
                    // The write's target is gone; it can never be applied.
                    // Drop and acknowledge.
                    dropped_seqs.push(record.seq);
                    report.dropped += 1;
                    continue;
                }
                Probed::Moved(conflict, origin, resolution) => {
                    let rebased = conflict.origin_signature;
                    report.conflicts.push(conflict);
                    match resolution {
                        None => {
                            // Re-apply the writer's typed ops onto the
                            // origin's *current* content, so both the
                            // crashed writer's edits and whatever landed at
                            // the origin meanwhile survive. The re-queued
                            // entry's epoch advances to the rebased base so
                            // the flush does not re-detect the same conflict.
                            entry.data = apply_all(&origin, &record.ops);
                            entry.epoch = rebased;
                        }
                        Some(ConflictResolution::KeepMine) => {}
                        Some(ConflictResolution::KeepTheirs) => {
                            dropped_seqs.push(record.seq);
                            continue;
                        }
                    }
                }
            }
            cache
                .table
                .lock(EntryKey::Version(record.doc, record.user))
                .put_dirty(record.doc, record.user, entry, false);
            report.requeued += 1;
        }
        journal.ack_batch(&dropped_seqs);
        (cache, report)
    }

    /// The one conflict step of recovery and flush: probes `entry`'s base
    /// epoch against the writer's current rendition
    /// ([`Self::current_rendition`]) and, if the origin moved on, counts the
    /// conflict in `tally` and decides what becomes of the write. With a
    /// merge policy, rebasable typed ops need no resolution — they rebase
    /// onto the origin's content and both sides' edits survive: `None`.
    /// Anything else falls back to the binary hooks — the call-site `hook`
    /// first, then the policy's fallback, then keep-mine.
    pub(super) fn probe_conflict(
        &self,
        doc: DocumentId,
        user: UserId,
        entry: &DirtyEntry,
        hook: Option<&ConflictHook>,
        tally: &mut MergeReport,
    ) -> Probed {
        // The writer may never have read the document: nothing to compare.
        if entry.epoch == NO_EPOCH {
            return Probed::Current(None);
        }
        let (origin, origin_signature) = match self.current_rendition(user, doc) {
            Ok((bytes, sig)) if sig == entry.epoch => return Probed::Current(Some(bytes)),
            Ok(rendition) => rendition,
            Err(PlacelessError::NoSuchDocument(_) | PlacelessError::NoSuchReference(..)) => {
                return Probed::Gone;
            }
            Err(_) => return Probed::Current(None),
        };
        let conflict = WriteConflict {
            doc,
            user,
            journal_epoch: entry.epoch,
            origin_signature,
        };
        let ops = &entry.ops;
        AtomicCacheStats::bump(&self.table.stats.write_conflicts);
        tally.examined += 1;
        if self.merge.is_some() && rebasable(ops) {
            AtomicCacheStats::bump(&self.table.stats.conflicts_merged);
            AtomicCacheStats::add(&self.table.stats.merge_rebases, ops.len() as u64);
            tally.merged += 1;
            tally.rebases += ops.len() as u64;
            return Probed::Moved(conflict, origin, None);
        }
        let resolution = match (hook, &self.merge) {
            (Some(hook), _) => hook(&conflict),
            (None, Some(policy)) => policy.resolve_unmergeable(&conflict),
            (None, None) => ConflictResolution::KeepMine,
        };
        match resolution {
            ConflictResolution::KeepMine => tally.kept_mine += 1,
            ConflictResolution::KeepTheirs => tally.kept_theirs += 1,
        }
        Probed::Moved(conflict, origin, Some(resolution))
    }
}

/// What [`DocumentCache::probe_conflict`] found for one buffered write.
pub(super) enum Probed {
    /// Nothing to settle: the write names no base or the origin could not
    /// be read (`None`), or its base is still the writer's rendition, whose
    /// bytes the probe carries.
    Current(Option<Bytes>),
    /// The write's document or the writer's reference is gone.
    Gone,
    /// The origin moved on: the conflict, the origin's content, and the
    /// write's resolution (`None`: its ops rebase onto that content).
    Moved(WriteConflict, Bytes, Option<ConflictResolution>),
}
