//! Notifiers and the invalidation bus.
//!
//! "Notifiers are active properties themselves that are used to invalidate
//! cache entries resulting from changes through the Placeless system.
//! Notifiers send a notification to each of the affected caches to
//! invalidate the corresponding entries." They generalize file-system
//! callbacks (AFS) and semantic callbacks: a notifier fires only when its
//! predicate over the triggering event is satisfied.
//!
//! The [`InvalidationBus`] is the delivery fabric: caches subscribe as
//! [`InvalidationSink`]s; notifier properties post [`Invalidation`]s which
//! fan out to every subscribed cache. The bus also counts deliveries, which
//! the notifier-vs-verifier benchmark uses as the "load added to the
//! Placeless system".

use crate::id::{CacheId, DocumentId, UserId};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// What a notifier asks the caches to drop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Invalidation {
    /// Drop every user's cached version of the document (e.g. the source
    /// content changed, so all transformed versions are stale).
    Document(DocumentId),
    /// Drop one user's cached version (e.g. that user's personal property
    /// chain changed).
    UserDocument(DocumentId, UserId),
}

impl Invalidation {}

/// A cache's subscription endpoint.
pub trait InvalidationSink: Send + Sync {
    /// Returns the subscribing cache's id.
    fn cache_id(&self) -> CacheId;

    /// Delivers one invalidation.
    fn invalidate(&self, invalidation: &Invalidation);

    /// Delivers one invalidation together with the bus's sequence number.
    ///
    /// Sequence numbers are dense (1, 2, 3, …) over every *post*, whether
    /// or not it was delivered, so a sink that tracks the last number it
    /// saw detects dropped notifications as gaps and can stop trusting
    /// the affected entries. The default implementation ignores the number.
    fn invalidate_seq(&self, seq: u64, invalidation: &Invalidation) {
        let _ = seq;
        self.invalidate(invalidation);
    }

    /// Called once, as the sink is subscribed, with the number of posts
    /// made so far: its first delivery's sequence number follows it. The
    /// default implementation ignores it.
    fn subscribed(&self, posted: u64) {
        let _ = posted;
    }
}

/// Fan-out delivery of invalidations from notifier properties to caches.
///
/// # Examples
///
/// ```
/// use placeless_core::id::{CacheId, DocumentId};
/// use placeless_core::notifier::{Invalidation, InvalidationBus, InvalidationSink};
/// use std::sync::atomic::{AtomicUsize, Ordering};
/// use std::sync::Arc;
///
/// struct Counting(AtomicUsize);
/// impl InvalidationSink for Counting {
///     fn cache_id(&self) -> CacheId { CacheId(1) }
///     fn invalidate(&self, _: &Invalidation) { self.0.fetch_add(1, Ordering::SeqCst); }
/// }
///
/// let bus = InvalidationBus::new();
/// let sink = Arc::new(Counting(AtomicUsize::new(0)));
/// bus.subscribe(sink.clone());
/// bus.post(Invalidation::Document(DocumentId(9)));
/// assert_eq!(sink.0.load(Ordering::SeqCst), 1);
/// ```
#[derive(Default)]
pub struct InvalidationBus {
    /// A post takes its sequence number and delivers under this one lock,
    /// so each sink sees the numbers in order and a subscription falls
    /// between two posts. A sink must not post from a delivery.
    sinks: Mutex<Vec<Arc<dyn InvalidationSink>>>,
    posted: AtomicU64,
    delivered: AtomicU64,
    drop_next: AtomicU64,
}

impl InvalidationBus {
    /// Creates an empty bus.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Subscribes a cache; it receives every subsequent invalidation.
    pub fn subscribe(&self, sink: Arc<dyn InvalidationSink>) {
        let mut sinks = self.sinks.lock();
        sink.subscribed(self.posted.load(Ordering::Relaxed));
        sinks.push(sink);
    }

    /// Posts an invalidation to every subscribed cache.
    ///
    /// Every post consumes the next sequence number. If a delivery fault
    /// is armed ([`InvalidationBus::drop_next_deliveries`]), the number is
    /// consumed but nothing is delivered — subscribers that track
    /// sequence numbers observe the gap on the next delivery.
    pub fn post(&self, invalidation: Invalidation) {
        let sinks = self.sinks.lock();
        let seq = self.posted.fetch_add(1, Ordering::Relaxed) + 1;
        if self
            .drop_next
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
            .is_ok()
        {
            return;
        }
        for sink in sinks.iter() {
            sink.invalidate_seq(seq, &invalidation);
            self.delivered.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Arms a delivery fault: the next `n` posts are silently dropped
    /// (their sequence numbers are still consumed). Models a lossy
    /// notification channel in resilience experiments.
    pub fn drop_next_deliveries(&self, n: u64) {
        self.drop_next.fetch_add(n, Ordering::Relaxed);
    }

    /// Returns `(invalidations posted, deliveries made)`.
    ///
    /// Each post fans out to every subscriber, so `delivered >= posted` when
    /// caches are attached. The notifier-vs-verifier experiment reads these
    /// as the middleware load notifiers impose.
    pub fn counters(&self) -> (u64, u64) {
        (
            self.posted.load(Ordering::Relaxed),
            self.delivered.load(Ordering::Relaxed),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;

    struct Recording {
        id: CacheId,
        seen: Mutex<Vec<Invalidation>>,
    }

    impl Recording {
        fn new(id: u64) -> Arc<Self> {
            Arc::new(Self {
                id: CacheId(id),
                seen: Mutex::new(Vec::new()),
            })
        }
    }

    impl InvalidationSink for Recording {
        fn cache_id(&self) -> CacheId {
            self.id
        }
        fn invalidate(&self, inv: &Invalidation) {
            self.seen.lock().push(*inv);
        }
    }

    #[test]
    fn post_fans_out_to_all_subscribers() {
        let bus = InvalidationBus::new();
        let a = Recording::new(1);
        let b = Recording::new(2);
        bus.subscribe(a.clone());
        bus.subscribe(b.clone());
        bus.post(Invalidation::Document(DocumentId(7)));
        assert_eq!(a.seen.lock().len(), 1);
        assert_eq!(b.seen.lock().len(), 1);
        assert_eq!(bus.counters(), (1, 2));
    }

    #[test]
    fn sequence_numbers_are_dense_and_survive_drops() {
        struct Seqs {
            seen: Mutex<Vec<u64>>,
        }
        impl InvalidationSink for Seqs {
            fn cache_id(&self) -> CacheId {
                CacheId(9)
            }
            fn invalidate(&self, _: &Invalidation) {}
            fn invalidate_seq(&self, seq: u64, inv: &Invalidation) {
                self.seen.lock().push(seq);
                self.invalidate(inv);
            }
        }
        let bus = InvalidationBus::new();
        let sink = Arc::new(Seqs {
            seen: Mutex::new(Vec::new()),
        });
        bus.subscribe(sink.clone());
        bus.post(Invalidation::Document(DocumentId(1)));
        bus.drop_next_deliveries(2);
        bus.post(Invalidation::Document(DocumentId(2)));
        bus.post(Invalidation::Document(DocumentId(3)));
        bus.post(Invalidation::Document(DocumentId(4)));
        // Seq 2 and 3 were consumed but never delivered: the gap is
        // visible to the subscriber.
        assert_eq!(*sink.seen.lock(), vec![1, 4]);
        assert_eq!(bus.counters(), (4, 2), "4 posted, 2 delivered");
    }

    #[test]
    fn default_sink_ignores_sequence_numbers() {
        let bus = InvalidationBus::new();
        let a = Recording::new(1);
        bus.subscribe(a.clone());
        bus.post(Invalidation::Document(DocumentId(5)));
        assert_eq!(a.seen.lock().len(), 1, "legacy sinks keep working");
    }

    #[test]
    fn posts_without_subscribers_are_counted() {
        let bus = InvalidationBus::new();
        bus.post(Invalidation::UserDocument(DocumentId(1), UserId(2)));
        assert_eq!(bus.counters(), (1, 0));
    }
}
