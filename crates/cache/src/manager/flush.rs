//! The write-back flush: drain, group by origin, write through the retry
//! driver, settle every entry, and acknowledge the journal once.

use super::*;

/// A drained dirty entry and its key.
type Drained = (DocumentId, UserId, DirtyEntry);

/// What a [`DocumentCache::flush`] accomplished — the write-side sibling
/// of the read path's `PathReport`.
///
/// Per-entry failures are reported here, never as the flush's `Err`, so
/// one unreachable origin cannot hide the entries that *did* flush; a
/// report dropped unexamined loses the parked and requeued entries it
/// names, hence `#[must_use]`.
#[must_use = "inspect the report: it may carry parked or requeued writes"]
#[derive(Debug, Clone, Default)]
pub struct FlushReport {
    /// Dirty entries the flush attempted to write.
    pub attempted: u64,
    /// Entries whose origin write succeeded (and, with a journal, whose
    /// journal record the flush's one ack frame acknowledged and pruned).
    pub flushed: u64,
    /// Entries parked in the journal after exhausting retries against a
    /// transient failure: still dirty, still journaled, drained by a
    /// later flush once the origin's breaker admits probes again.
    /// Journal-configured caches only.
    pub parked: Vec<(DocumentId, UserId)>,
    /// Entries re-queued into the dirty maps with the error that stopped
    /// them: transient failures without a journal, and non-transient
    /// failures always.
    pub requeued: Vec<(DocumentId, UserId, PlacelessError)>,
    /// Per-origin groups the flush formed (one per distinct origin among
    /// the drained entries).
    pub batches: u64,
    /// Entries deliberately dropped by an unmergeable-conflict
    /// `KeepTheirs` resolution (merge policy configured): the origin's
    /// newer version won, the journaled write was acknowledged and
    /// discarded. Empty without a [`crate::MergePolicy`].
    pub dropped: Vec<(DocumentId, UserId)>,
    /// What the merge policy did with flush-time write conflicts. Empty
    /// (all zeros) without a [`crate::MergePolicy`].
    pub merge: MergeReport,
}

impl FlushReport {
    /// Returns `true` if every attempted entry was resolved — written to
    /// the origin, or deliberately dropped by a `KeepTheirs` merge
    /// fallback — and nothing remains dirty.
    pub fn is_clean(&self) -> bool {
        self.parked.is_empty() && self.requeued.is_empty()
    }
}

impl std::fmt::Display for FlushReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "flushed {}/{} in {} batch(es); {} parked, {} requeued, {} dropped",
            self.flushed,
            self.attempted,
            self.batches,
            self.parked.len(),
            self.requeued.len(),
            self.dropped.len(),
        )?;
        if !self.merge.is_empty() {
            write!(f, "; merge: {}", self.merge)?;
        }
        Ok(())
    }
}

impl DocumentCache {
    /// Pushes all buffered write-back data to the middleware.
    ///
    /// Dirty data is drained holding one shard lock at a time, sorted by
    /// key, grouped by origin, and written with no cache lock held, one
    /// grouped origin operation per group attempt (`flush_group`). A failed
    /// write abandons no other entry: it is re-queued into its shard's
    /// dirty map (a concurrent newer write for the same key wins), and the
    /// returned [`FlushReport`] names exactly what remains dirty.
    ///
    /// With a journal, one ack frame after the last group acknowledges
    /// every record the flush wrote or dropped, and an entry whose write
    /// exhausted its retries on a transient failure is *parked*: it stays
    /// dirty and journaled until a later flush finds the origin's breaker
    /// admitting probes again.
    pub fn flush(&self) -> Result<FlushReport> {
        let mut dirty: Vec<Drained> = Vec::new();
        for mut shard in self.table.lock_each() {
            shard.drain_dirty(&mut dirty);
        }
        // HashMap drain order depends on the process hasher seed; sorting
        // by the full key (no ties between distinct keys) keeps flush
        // outcomes (which entry hit the outage window first) reproducible
        // for same-seed replays.
        dirty.sort_by_key(|(doc, user, _)| (*doc, *user));
        let mut report = FlushReport::default();
        // Group by origin, keeping the sorted order inside each group (a
        // document's entries adjacent, its key resolved once); BTreeMap
        // keeps the group order deterministic too.
        let mut groups: BTreeMap<String, Vec<Drained>> = BTreeMap::new();
        let mut resolved = (None, String::new());
        for (doc, user, entry) in dirty {
            if resolved.0 != Some(doc) {
                resolved = (Some(doc), self.origin_key(doc));
            }
            let group = groups.entry(resolved.1.clone()).or_default();
            group.push((doc, user, entry));
        }
        let mut acks: Vec<u64> = Vec::new();
        for (origin, group) in groups {
            self.flush_group(&self.origins.get(origin), group, &mut acks, &mut report);
        }
        if let Some(journal) = &self.journal {
            // Each ack names exactly the record pushed or dropped: a newer
            // write that superseded it mid-flush keeps its own.
            journal.ack_batch(&acks);
        }
        debug_assert_eq!(
            report.attempted,
            report.flushed
                + (report.parked.len() + report.requeued.len() + report.dropped.len()) as u64,
            "flush accounting must be non-lossy"
        );
        Ok(report)
    }

    /// Flushes one per-origin group of drained dirty entries as grouped
    /// origin operations through the retry driver.
    ///
    /// One breaker admission, one origin-salted backoff schedule and one
    /// window slot cover each *attempt* on the whole group, one
    /// [`DocumentSpace::write_documents`] call with one result per entry.
    /// A first attempt rebases op entries onto the renditions the conflict
    /// probes read ([`BatchWrite::base`]); a retry reads them again. A
    /// success adds its record to `acks`, and each written document is
    /// invalidated once; a transient failure waits for the next attempt, a
    /// non-transient one is re-queued at once. What is pending when the
    /// driver gives up is parked or re-queued, with its own error when the
    /// retries ran out, else with the driver's verdict.
    fn flush_group(
        &self,
        origin: &Origin,
        group: Vec<Drained>,
        acks: &mut Vec<u64>,
        report: &mut FlushReport,
    ) {
        report.attempted += group.len() as u64;
        report.batches += 1;
        let (mut pending, mut bases) = self.route_conflicts_through_merge(group, acks, report);
        if pending.is_empty() {
            return;
        }
        let driver = RetryDriver {
            origins: &self.origins,
            stats: &self.table.stats,
            op: Op::Write,
            deadline: None,
        };
        // One grouped origin operation per attempt, in one slot of the
        // origin's window (when configured), its jitter salted by origin.
        let outcome = driver.run(
            || origin,
            None,
            || {
                AtomicCacheStats::bump(&self.table.stats.flush_batches);
                // The probe's renditions serve the first attempt only.
                let mut bases = std::mem::take(&mut bases).into_iter();
                let writes: Vec<BatchWrite> = pending
                    .iter()
                    .map(|(doc, user, entry)| BatchWrite {
                        user: *user,
                        doc: *doc,
                        data: entry.data.clone(),
                        // With a merge policy, rebasable deltas travel as
                        // ops onto the origin's content: concurrent writers
                        // through other caches are merged, not clobbered.
                        ops: if self.merge.is_some() && rebasable(&entry.ops) {
                            entry.ops.clone()
                        } else {
                            Vec::new()
                        },
                        base: bases.next().flatten(),
                    })
                    .collect();
                let results = self.space.write_documents(&writes);
                debug_assert_eq!(results.len(), pending.len());
                let mut written = None;
                // The entries a retry would write again, and (index
                // for index) the transient error each just met.
                let mut survivors = Vec::new();
                let mut errors = Vec::new();
                for ((doc, user, mut entry), result) in pending.drain(..).zip(results) {
                    match result {
                        Ok(()) => {
                            AtomicCacheStats::bump(&self.table.stats.flushes);
                            report.flushed += 1;
                            acks.extend(entry.seq);
                            self.table.mark(&mut entry, false);
                            // A document's entries are adjacent: it is
                            // invalidated once, however many it has.
                            if written.replace(doc) != Some(doc) {
                                self.invalidate_doc(doc);
                            }
                        }
                        Err(error) if error.is_transient() => {
                            survivors.push((doc, user, entry));
                            errors.push(error);
                        }
                        Err(error) => self.settle_flush_failure(doc, user, entry, error, report),
                    }
                }
                pending = survivors;
                // The driver records one breaker strike per batch
                // attempt: the origin either answered for the group or
                // dropped (part of) it.
                if errors.is_empty() {
                    Ok(())
                } else {
                    Err(errors)
                }
            },
        );
        match outcome {
            Ok(()) => {}
            Err(GaveUp::Own(errors)) => {
                for ((doc, user, entry), error) in pending.into_iter().zip(errors) {
                    self.settle_flush_failure(doc, user, entry, error, report);
                }
            }
            Err(GaveUp::Shared(error)) => {
                for (doc, user, entry) in pending {
                    self.settle_flush_failure(doc, user, entry, error.clone(), report);
                }
            }
        }
    }

    /// Probes each entry for a conflict ([`Self::probe_conflict`]) and
    /// routes it through the merge policy (without one, every entry passes
    /// through unprobed). Returns the entries that should still be written,
    /// and index for index the rendition each probe read (none without a
    /// merge policy):
    ///
    /// * rebasable conflicts stay — their ops travel server-side and are
    ///   rebased onto the origin's content the probe read;
    /// * unmergeable conflicts resolved `KeepMine` stay as full-body
    ///   writes (an informed overwrite);
    /// * unmergeable conflicts resolved `KeepTheirs` are dropped: their
    ///   journal record joins `acks` and the drop is reported.
    ///
    /// Entries with no base epoch, and entries whose origin is currently
    /// unreachable, pass through unassessed — the write attempt itself
    /// will surface any failure, and ops rebase onto a server-side read.
    fn route_conflicts_through_merge(
        &self,
        entries: Vec<Drained>,
        acks: &mut Vec<u64>,
        report: &mut FlushReport,
    ) -> (Vec<Drained>, Vec<Option<Bytes>>) {
        if self.merge.is_none() {
            return (entries, Vec::new());
        }
        let mut kept = Vec::with_capacity(entries.len());
        let mut bases = Vec::with_capacity(entries.len());
        for (doc, user, mut entry) in entries {
            // Rebasable ops travel server-side; keep-mine is an informed
            // overwrite. Either way the entry is still written, as is one
            // the probe found nothing for.
            let base = match self.probe_conflict(doc, user, &entry, None, &mut report.merge) {
                Probed::Current(base) => base,
                Probed::Moved(_, origin, None) => Some(origin),
                Probed::Gone | Probed::Moved(_, _, Some(ConflictResolution::KeepMine)) => None,
                Probed::Moved(_, _, Some(ConflictResolution::KeepTheirs)) => {
                    acks.extend(entry.seq);
                    self.table.mark(&mut entry, false);
                    report.dropped.push((doc, user));
                    continue;
                }
            };
            kept.push((doc, user, entry));
            bases.push(base);
        }
        (kept, bases)
    }

    /// Settles one failed flush entry: re-queues the data (a concurrent
    /// newer write wins) and either parks it (journal configured and the
    /// failure transient — it stays journaled and dirty until a later
    /// flush finds the origin's breaker admitting probes again) or
    /// reports it re-queued with the error.
    fn settle_flush_failure(
        &self,
        doc: DocumentId,
        user: UserId,
        entry: DirtyEntry,
        error: PlacelessError,
        report: &mut FlushReport,
    ) {
        // Put the drained entry back without clobbering a newer write
        // that landed while the flush held no lock.
        let park = self.journal.is_some() && error.is_transient();
        let mut shard = self.table.lock(EntryKey::Version(doc, user));
        let queued = shard.put_dirty(doc, user, entry, true);
        if park && self.table.mark(queued, true) {
            AtomicCacheStats::bump(&self.table.stats.writes_parked);
        }
        if park {
            report.parked.push((doc, user));
        } else {
            report.requeued.push((doc, user, error));
        }
    }
}
