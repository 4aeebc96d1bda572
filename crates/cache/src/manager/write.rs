//! The write path: write-through, and buffering write-back writes.

use super::*;

impl DocumentCache {
    /// Writes a document for `user` according to the configured
    /// [`WriteMode`].
    pub fn write(&self, user: UserId, doc: DocumentId, data: &[u8]) -> Result<()> {
        match self.write_mode {
            WriteMode::Through => {
                // Successes and failures land on the *same* per-origin
                // breakers the read path uses, so a storm of failed
                // writes opens the breaker for reads too (and vice versa).
                self.with_retries(user, doc, Op::Write, None, || {
                    self.space.write_document(user, doc, data)
                })?;
                AtomicCacheStats::bump(&self.table.stats.writes);
                // The source changed: every locally cached version of this
                // document is stale, whatever notifiers may also say.
                self.invalidate_doc(doc);
                Ok(())
            }
            WriteMode::Back => {
                let forward = self.forwards_writes(user, doc)?;
                let key = EntryKey::Version(doc, user);
                let shard = self.table.lock(key);
                // The epoch, which recovery and the flush's probe compare
                // with, is the rendition this writer last saw: its buffered
                // write's (served only that since), else the resident one.
                let epoch = shard
                    .dirty(doc, user)
                    .map(|entry| entry.epoch)
                    .or_else(|| shard.content(key, |_| true).map(|(_, sig)| sig))
                    .unwrap_or(NO_EPOCH);
                // A full-body write supersedes any accumulated op
                // delta: the entry reverts to an opaque snapshot.
                let entry = DirtyEntry::new(Bytes::copy_from_slice(data), epoch, Vec::new(), 0);
                self.buffer_write(shard, user, doc, entry, forward)
            }
        }
    }

    /// Applies one typed operation ([`DocOp`]) to a document — the
    /// op-based write API that makes buffered writes *mergeable*.
    ///
    /// In write-through mode the op is applied to the writer's current
    /// rendition ([`Self::current_rendition`]) and written immediately
    /// ([`DocOp::SetProperty`] attaches the property directly). In
    /// write-back mode it is folded into the entry's delta, based on the
    /// buffered write, the resident version, or that rendition: the entry
    /// keeps the materialized view (what a read of it returns, and what a
    /// keep-mine resolution would flush) *and* the op list since the base
    /// epoch, journaled together via [`WriteJournal::append_op`], so
    /// recovery and flush can rebase the delta onto an origin that moved
    /// on concurrently — see [`CacheConfig::merge`].
    pub fn write_op(&self, user: UserId, doc: DocumentId, op: DocOp) -> Result<()> {
        if self.write_mode == WriteMode::Through {
            if let DocOp::SetProperty { name, value } = &op {
                self.space
                    .attach_static(Scope::Personal(user), doc, name, value.clone())?;
                AtomicCacheStats::bump(&self.table.stats.writes);
                return Ok(());
            }
            let (base, _) = self.current_rendition(user, doc)?;
            return self.write(user, doc, &op.apply(&base));
        }
        let forward = self.forwards_writes(user, doc)?;
        let key = EntryKey::Version(doc, user);
        // The base, with no shard lock held across a fetch: without a
        // buffered write or a resident version, take the current rendition
        // and re-take the lock (a buffered write landing in between wins).
        let mut current: Option<(Bytes, Signature)> = None;
        loop {
            let mut shard = self.table.lock(key);
            let (base, epoch, mut ops) = if let Some(entry) = shard.dirty(doc, user) {
                // A pending plain write is an opaque snapshot: represent
                // it as a full-body op so the combined delta stays honest
                // (it pins the body and is therefore unmergeable, exactly
                // like the plain write itself).
                let prior = if entry.ops.is_empty() {
                    vec![DocOp::Replace(entry.data.clone())]
                } else {
                    entry.ops.clone()
                };
                (entry.data.clone(), entry.epoch, prior)
            } else if let Some((bytes, sig)) = shard.content(key, |_| true).or(current.take()) {
                (bytes, sig, Vec::new())
            } else {
                drop(shard);
                current = Some(match self.current_rendition(user, doc) {
                    Ok(rendition) => rendition,
                    Err(
                        error @ (PlacelessError::NoSuchDocument(_)
                        | PlacelessError::NoSuchReference(..)),
                    ) => return Err(error),
                    // Origin unreachable: the op must still not be lost.
                    // Start the delta from an empty base with no epoch;
                    // the flush applies the ops server-side onto whatever
                    // the origin holds by then.
                    Err(_) => (Bytes::new(), NO_EPOCH),
                });
                continue;
            };
            let view = op.apply(&base);
            ops.push(op);
            // Recovery seeds the counter, so it is past every queued entry's.
            let writer_seq = shard.writer_seq(doc, user);
            *writer_seq += 1;
            let entry = DirtyEntry::new(view, epoch, ops, *writer_seq);
            return self.buffer_write(shard, user, doc, entry, forward);
        }
    }

    /// Whether a write-path property must see every buffered write (§3),
    /// asked before anything is buffered: a write the space refuses is
    /// neither journaled nor re-queued by every later flush.
    fn forwards_writes(&self, user: UserId, doc: DocumentId) -> Result<bool> {
        let vote = self.space.write_cacheability(user, doc)?;
        Ok(vote.requires_event_forwarding())
    }

    /// The tail every buffered write-back write shares: journals `entry`
    /// (when a journal is configured) and puts it in the dirty map under
    /// the still-held shard lock, releases the lock, counts the write, and
    /// forwards the operation event when `forward` says so.
    fn buffer_write(
        &self,
        mut shard: ShardGuard<'_>,
        user: UserId,
        doc: DocumentId,
        mut entry: DirtyEntry,
        forward: bool,
    ) -> Result<()> {
        // Write-ahead: the record reaches stable storage before the dirty
        // map changes, so a crash between the two loses nothing.
        entry.seq = self.journal.as_ref().map(|journal| {
            AtomicCacheStats::bump(&self.table.stats.journal_appends);
            let (data, ops) = (&entry.data, entry.ops.clone());
            journal.append_op(doc, user, entry.epoch, data, ops, entry.writer_seq)
        });
        shard.put_dirty(doc, user, entry, false);
        drop(shard);
        AtomicCacheStats::bump(&self.table.stats.writes);
        if forward {
            self.space
                .post_cache_event(user, doc, EventKind::CacheWrite)?;
            AtomicCacheStats::bump(&self.table.stats.events_forwarded);
        }
        Ok(())
    }
}
