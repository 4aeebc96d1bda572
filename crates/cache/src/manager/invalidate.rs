//! Notifier-driven invalidation: the bus subscription, document-scoped
//! invalidation, and the reaction to dropped notifications.

use super::*;

impl DocumentCache {
    /// Records an invalidation-bus sequence number and reacts to gaps.
    ///
    /// Sequence numbers are dense over every bus post; a jump of more
    /// than one means notifications were lost, and *any* resident version
    /// might have been covered by one of them. The notifier consistency
    /// guarantee is void, and demoting to verifier revalidation would not
    /// restore it: a verifier vouches for the provider's bytes and
    /// external inputs, never for a property set or its order. So every
    /// version is dropped.
    fn note_sequence(&self, seq: u64) {
        let prev = self.last_seq.swap(seq, Ordering::AcqRel);
        if seq <= prev + 1 {
            return;
        }
        AtomicCacheStats::bump(&self.table.stats.notifier_gaps);
        for mut shard in self.table.lock_each() {
            shard.drop_versions_after_gap();
        }
    }

    /// Drops every resident version of `doc`, and its lease, visiting the
    /// shards one at a time (no two shard locks are ever held together);
    /// each visit costs the document's versions in that shard. Returns how
    /// many entries went.
    pub(super) fn invalidate_doc(&self, doc: DocumentId) -> u64 {
        self.table
            .lock_each()
            .map(|mut shard| shard.remove_doc(doc))
            .sum()
    }

    fn handle_invalidation(&self, invalidation: &Invalidation) {
        let dropped = match *invalidation {
            // User-scoped invalidations resolve to exactly one key, so
            // only that key's shard is locked.
            Invalidation::UserDocument(doc, user) => {
                let key = EntryKey::Version(doc, user);
                u64::from(self.table.lock(key).remove(key, Removal::Invalidated))
            }
            Invalidation::Document(doc) => self.invalidate_doc(doc),
        };
        AtomicCacheStats::add(&self.table.stats.notifier_invalidations, dropped);
    }
}

/// Bus subscription adapter holding a weak handle so dropping the cache
/// tears down the subscription naturally.
pub(super) struct CacheSink {
    pub(super) cache: Weak<DocumentCache>,
    pub(super) id: CacheId,
}

impl InvalidationSink for CacheSink {
    fn cache_id(&self) -> CacheId {
        self.id
    }

    fn invalidate(&self, invalidation: &Invalidation) {
        if let Some(cache) = self.cache.upgrade() {
            cache.handle_invalidation(invalidation);
        }
    }

    fn invalidate_seq(&self, seq: u64, invalidation: &Invalidation) {
        if let Some(cache) = self.cache.upgrade() {
            cache.note_sequence(seq);
            cache.handle_invalidation(invalidation);
        }
    }

    fn subscribed(&self, posted: u64) {
        if let Some(cache) = self.cache.upgrade() {
            cache.last_seq.store(posted, Ordering::Release);
        }
    }
}
