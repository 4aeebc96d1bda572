//! Concurrent, signature-deduplicated content storage.
//!
//! §3: "content entries could be shared if the cache maps a pair of document
//! and user identifiers to a content signature (e.g., MD5 hash) and in turn
//! these signatures map to the actual content. On a cache miss for an
//! already cached version of the same content, only the document and user
//! identifier mapping to the content signature needs to be established."
//!
//! [`ConcurrentStore`] is the second of those two maps. Content is stored
//! once per MD5 [`Signature`] with a reference count, so identical per-user
//! renditions share physical bytes. The `Signature → content` map is
//! distributed over lock stripes and the physical/logical byte totals are
//! atomic counters, so readers never take a lock to answer
//! [`ConcurrentStore::physical_bytes`].
//!
//! The `(document, user) → Signature` binding does *not* live here: cache
//! shards own their slice of that map (the crate-private `shard` module),
//! because a key's binding must change atomically with its entry metadata.
//! The store only counts references; each bound key holds exactly one.
//!
//! # Lock ordering
//!
//! Stripe locks are leaves in the cache's lock hierarchy: a shard lock may
//! be held when a stripe lock is taken, never the reverse, and no two
//! stripe locks are ever held at once. See the deadlock argument in the
//! `shard` module.

use crate::digest::{md5, Signature};
use bytes::Bytes;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Default number of lock stripes. More stripes than shards so that
/// content operations from different shards rarely contend.
const DEFAULT_STRIPES: usize = 32;

struct Stored {
    content: Bytes,
    refs: u64,
}

/// Error returned by [`ConcurrentStore::try_acquire`] when charging the
/// incoming bytes would push physical residency past the budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NoRoom;

/// A thread-safe refcounted content store with atomic byte accounting.
pub struct ConcurrentStore {
    stripes: Box<[Mutex<HashMap<Signature, Stored>>]>,
    physical: AtomicU64,
    logical: AtomicU64,
}

impl ConcurrentStore {
    /// Creates a store with the default stripe count.
    pub fn new() -> Self {
        Self::with_stripes(DEFAULT_STRIPES)
    }

    /// Creates a store with `stripes` lock stripes (minimum 1).
    pub fn with_stripes(stripes: usize) -> Self {
        let stripes = stripes.max(1);
        Self {
            stripes: (0..stripes).map(|_| Mutex::new(HashMap::new())).collect(),
            physical: AtomicU64::new(0),
            logical: AtomicU64::new(0),
        }
    }

    /// Computes the signature the store would file `bytes` under.
    pub fn signature_of(bytes: &[u8]) -> Signature {
        md5(bytes)
    }

    fn stripe_of(&self, sig: &Signature) -> &Mutex<HashMap<Signature, Stored>> {
        // The signature is an MD5 digest: any byte slice is uniformly
        // distributed, so the first 8 bytes make a fine stripe selector
        // (and a deterministic one — no per-process hasher seeds).
        let mut raw = [0u8; 8];
        raw.copy_from_slice(&sig.0[..8]);
        let index = u64::from_le_bytes(raw) as usize % self.stripes.len();
        &self.stripes[index]
    }

    /// Adds one reference to `bytes` under `sig`, charging physical bytes
    /// only if this signature is new, and failing if that charge would
    /// exceed `budget`. Returns whether the content was already resident
    /// (a shared fill).
    ///
    /// The capacity check and the insert are atomic with respect to other
    /// store operations on the same signature (stripe lock held), and the
    /// physical counter is raised with a compare-and-swap loop, so the
    /// budget can never be overshot by concurrent acquires.
    pub fn try_acquire(&self, sig: Signature, bytes: &Bytes, budget: u64) -> Result<bool, NoRoom> {
        let size = bytes.len() as u64;
        let mut stripe = self.stripe_of(&sig).lock();
        if let Some(stored) = stripe.get_mut(&sig) {
            stored.refs += 1;
            self.logical.fetch_add(size, Ordering::Relaxed);
            return Ok(true);
        }
        // New content: reserve the physical bytes before publishing.
        let mut current = self.physical.load(Ordering::Relaxed);
        loop {
            if current + size > budget {
                return Err(NoRoom);
            }
            match self.physical.compare_exchange_weak(
                current,
                current + size,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(actual) => current = actual,
            }
        }
        self.logical.fetch_add(size, Ordering::Relaxed);
        stripe.insert(
            sig,
            Stored {
                content: bytes.clone(),
                refs: 1,
            },
        );
        Ok(false)
    }

    /// Adds one reference to `bytes` under `sig` without a budget check.
    /// Used by the verifier replace path, which (as in the original
    /// single-lock cache) refreshes content in place and leaves capacity
    /// enforcement to the caller. Returns whether the content was shared.
    pub fn acquire(&self, sig: Signature, bytes: &Bytes) -> bool {
        let size = bytes.len() as u64;
        let mut stripe = self.stripe_of(&sig).lock();
        self.logical.fetch_add(size, Ordering::Relaxed);
        if let Some(stored) = stripe.get_mut(&sig) {
            stored.refs += 1;
            true
        } else {
            self.physical.fetch_add(size, Ordering::Relaxed);
            stripe.insert(
                sig,
                Stored {
                    content: bytes.clone(),
                    refs: 1,
                },
            );
            false
        }
    }

    /// Drops one reference to `sig`; the content is removed (and its
    /// physical bytes uncharged) when the last reference goes.
    pub fn release(&self, sig: Signature) {
        let mut stripe = self.stripe_of(&sig).lock();
        let Some(stored) = stripe.get_mut(&sig) else {
            debug_assert!(false, "release of untracked signature");
            return;
        };
        let size = stored.content.len() as u64;
        self.logical.fetch_sub(size, Ordering::Relaxed);
        stored.refs -= 1;
        if stored.refs == 0 {
            stripe.remove(&sig);
            self.physical.fetch_sub(size, Ordering::Relaxed);
        }
    }

    /// Returns the content filed under `sig`, if resident.
    pub fn get(&self, sig: Signature) -> Option<Bytes> {
        self.stripe_of(&sig)
            .lock()
            .get(&sig)
            .map(|s| s.content.clone())
    }

    /// Returns deduplicated resident bytes.
    pub fn physical_bytes(&self) -> u64 {
        self.physical.load(Ordering::Relaxed)
    }

    /// Returns resident bytes as if nothing were shared.
    pub fn logical_bytes(&self) -> u64 {
        self.logical.load(Ordering::Relaxed)
    }
}

impl Default for ConcurrentStore {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bytes(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    #[test]
    fn dedup_shares_physical_bytes() {
        let store = ConcurrentStore::new();
        let content = bytes("hello world");
        let sig = ConcurrentStore::signature_of(&content);
        assert_eq!(store.try_acquire(sig, &content, 1_000), Ok(false));
        assert_eq!(store.try_acquire(sig, &content, 1_000), Ok(true));
        assert_eq!(store.physical_bytes(), 11);
        assert_eq!(store.logical_bytes(), 22);
        store.release(sig);
        assert_eq!(store.physical_bytes(), 11);
        assert_eq!(store.get(sig).unwrap(), content);
        store.release(sig);
        assert_eq!(store.physical_bytes(), 0);
        assert_eq!(store.logical_bytes(), 0);
        assert!(store.get(sig).is_none());
    }

    #[test]
    fn try_acquire_respects_budget() {
        let store = ConcurrentStore::new();
        let a = bytes("aaaaaaaa");
        let sig_a = ConcurrentStore::signature_of(&a);
        assert_eq!(store.try_acquire(sig_a, &a, 10), Ok(false));
        let b = bytes("bbbbbbbb");
        let sig_b = ConcurrentStore::signature_of(&b);
        assert_eq!(store.try_acquire(sig_b, &b, 10), Err(NoRoom));
        // A shared acquire charges no physical bytes, so it always fits.
        assert_eq!(store.try_acquire(sig_a, &a, 10), Ok(true));
        store.release(sig_a);
        store.release(sig_a);
        assert_eq!(store.try_acquire(sig_b, &b, 10), Ok(false));
    }

    #[test]
    fn concurrent_acquires_never_overshoot() {
        use std::sync::Arc;
        let store = Arc::new(ConcurrentStore::new());
        let budget = 400u64;
        std::thread::scope(|scope| {
            for t in 0..8 {
                let store = Arc::clone(&store);
                scope.spawn(move || {
                    for i in 0..200 {
                        let content = bytes(&format!("content-{t}-{i}-padpadpad"));
                        let sig = ConcurrentStore::signature_of(&content);
                        if store.try_acquire(sig, &content, budget).is_ok() {
                            assert!(store.physical_bytes() <= budget);
                            store.release(sig);
                        }
                    }
                });
            }
        });
        assert_eq!(store.physical_bytes(), 0);
    }

    /// Re-pointing a key the way a shard does — release the old binding's
    /// reference, acquire the new content — must decrement the *old*
    /// signature's refcount, and orphaned bytes must leave the store at
    /// once, not linger until some later release.
    #[test]
    fn repoint_decrements_old_refcount_and_evicts_orphans() {
        let store = ConcurrentStore::new();
        let (v1, v2) = (bytes("v1-bytes"), bytes("v2-bytes!"));
        let (sig1, sig2) = (
            ConcurrentStore::signature_of(&v1),
            ConcurrentStore::signature_of(&v2),
        );
        // Two keys share v1; a third holds v2.
        assert!(!store.acquire(sig1, &v1));
        assert!(store.acquire(sig1, &v1));
        assert!(!store.acquire(sig2, &v2));
        assert_eq!(store.physical_bytes(), 8 + 9);

        // Re-point one v1 holder onto v2: v1 must survive (one ref left)
        // and the fill must report sharing v2's bytes.
        store.release(sig1);
        assert!(store.acquire(sig2, &v2), "v2 bytes were already resident");
        assert!(store.get(sig1).is_some(), "one v1 reference remains");
        assert_eq!(store.logical_bytes(), 8 + 9 + 9);

        // Re-point the last v1 holder: the orphaned v1 bytes must go with
        // the release itself.
        store.release(sig1);
        assert!(store.get(sig1).is_none(), "v1 orphan evicted");
        assert!(store.acquire(sig2, &v2));
        assert_eq!(store.physical_bytes(), 9);

        // And the refcount actually moved: dropping two of the three v2
        // holders keeps the bytes, dropping the last frees them.
        store.release(sig2);
        store.release(sig2);
        assert_eq!(store.physical_bytes(), 9, "still one v2 reference");
        store.release(sig2);
        assert_eq!((store.physical_bytes(), store.logical_bytes()), (0, 0));
    }
}
