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
                let deadline = self.origins.config.fetch_deadline_micros;
                self.with_retries(user, doc, Op::Write, deadline, || {
                    self.space.write_document(user, doc, data)
                })?;
                AtomicCacheStats::bump(&self.stats.writes);
                // The source changed: every locally cached version of this
                // document is stale, whatever notifiers may also say.
                self.invalidate_doc(doc);
                Ok(())
            }
            WriteMode::Back => {
                let key = EntryKey::Version(doc, user);
                let shard = self.lock(key);
                // The epoch is the signature of the rendition this writer
                // last saw — recovery and the flush-time merge probe
                // compare it against the origin to detect conflicts. A
                // writer with a buffered write has been served only that
                // write since, so its epoch still stands; otherwise it is
                // the resident rendition.
                let epoch = shard
                    .dirty(doc, user)
                    .map(|entry| entry.epoch)
                    .or_else(|| shard.signature(key))
                    .unwrap_or(NO_EPOCH);
                let seq = self.journal.as_ref().map(|journal| {
                    // Write-ahead: the record reaches stable storage
                    // before the dirty map changes, so a crash between
                    // the two loses nothing.
                    let seq = journal.append(doc, user, epoch, data);
                    AtomicCacheStats::bump(&self.stats.journal_appends);
                    seq
                });
                // A full-body write supersedes any accumulated op
                // delta: the entry reverts to an opaque snapshot.
                let entry = DirtyEntry {
                    data: Bytes::copy_from_slice(data),
                    seq,
                    ops: Vec::new(),
                    epoch,
                    writer_seq: 0,
                };
                self.buffer_write(shard, user, doc, entry)
            }
        }
    }

    /// Applies one typed operation ([`DocOp`]) to a document — the
    /// op-based write API that makes buffered writes *mergeable*.
    ///
    /// In write-through mode the op is applied to the origin's current
    /// content and written immediately ([`DocOp::SetProperty`] attaches
    /// the property directly). In write-back mode the op is folded into
    /// the entry's accumulated delta: the dirty entry keeps both the
    /// materialized view (what a read of the buffered write returns, and
    /// what a binary keep-mine resolution would flush) *and* the op list
    /// since the base epoch, journaled together via
    /// [`WriteJournal::append_op`], so crash recovery and flush can
    /// rebase the delta onto a origin that moved on concurrently — see
    /// [`CacheConfig::merge`].
    pub fn write_op(&self, user: UserId, doc: DocumentId, op: DocOp) -> Result<()> {
        if self.write_mode == WriteMode::Through {
            if let DocOp::SetProperty { name, value } = &op {
                self.space
                    .attach_static(Scope::Personal(user), doc, name, value.clone())?;
                AtomicCacheStats::bump(&self.stats.writes);
                return Ok(());
            }
            let (base, _) = self.space.read_document(user, doc)?;
            return self.write(user, doc, &op.apply(&base));
        }
        let key = EntryKey::Version(doc, user);
        // Resolve the base view without holding the shard lock across a
        // middleware read: if neither a buffered write nor a resident
        // rendition provides the base, read the origin first and re-take
        // the lock (a buffered write that lands in between wins).
        let mut origin_base: Option<(Bytes, Signature)> = None;
        loop {
            let shard = self.lock(key);
            let (base, epoch, mut ops, prior_writer_seq) = if let Some(entry) =
                shard.dirty(doc, user)
            {
                // A pending plain write is an opaque snapshot: represent
                // it as a full-body op so the combined delta stays honest
                // (it pins the body and is therefore unmergeable, exactly
                // like the plain write itself).
                let prior = if entry.ops.is_empty() {
                    vec![DocOp::Replace(entry.data.clone())]
                } else {
                    entry.ops.clone()
                };
                (entry.data.clone(), entry.epoch, prior, entry.writer_seq)
            } else if let Some((bytes, sig)) = shard.content(key).or_else(|| origin_base.take()) {
                (bytes, sig, Vec::new(), 0)
            } else {
                drop(shard);
                origin_base = Some(match self.space.read_document(user, doc) {
                    Ok((bytes, _)) => {
                        let sig = ConcurrentStore::signature_of(&bytes);
                        (bytes, sig)
                    }
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
            let writer_seq = {
                let mut seqs = self.writer_seqs.lock();
                let counter = seqs.entry((doc, user)).or_insert(0);
                // Monotone past both this cache's counter and whatever a
                // recovered entry carried.
                *counter = (*counter).max(prior_writer_seq) + 1;
                *counter
            };
            let seq = self.journal.as_ref().map(|journal| {
                let seq = journal.append_op(doc, user, epoch, &view, ops.clone(), writer_seq);
                AtomicCacheStats::bump(&self.stats.journal_appends);
                seq
            });
            let entry = DirtyEntry {
                data: view,
                seq,
                ops,
                epoch,
                writer_seq,
            };
            return self.buffer_write(shard, user, doc, entry);
        }
    }

    /// The tail every buffered write-back write shares: puts `entry` in
    /// the dirty map under the still-held shard lock, releases the lock,
    /// counts the write, and forwards the operation event when a
    /// write-path property must see every write (§3: write-path
    /// properties register their own cacheability requirements).
    fn buffer_write(
        &self,
        mut shard: ShardGuard<'_>,
        user: UserId,
        doc: DocumentId,
        entry: DirtyEntry,
    ) -> Result<()> {
        shard.put_dirty(doc, user, entry);
        drop(shard);
        AtomicCacheStats::bump(&self.stats.writes);
        let forward = self
            .space
            .write_cacheability(user, doc)?
            .requires_event_forwarding();
        if forward {
            self.space
                .post_cache_event(user, doc, EventKind::CacheWrite)?;
            AtomicCacheStats::bump(&self.stats.events_forwarded);
        }
        Ok(())
    }
}
