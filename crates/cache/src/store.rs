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
//! The store only counts references; each bound key holds exactly one, and
//! with it a clone of the stored [`Bytes`] that taking the reference
//! handed back — every holder of a signature shares the one allocation,
//! and serving the content asks the store nothing.
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
use placeless_core::keymap::KeyMap;
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
    stripes: Box<[Mutex<KeyMap<Signature, Stored>>]>,
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
            stripes: (0..stripes).map(|_| Mutex::default()).collect(),
            physical: AtomicU64::new(0),
            logical: AtomicU64::new(0),
        }
    }

    /// Computes the signature the store would file `bytes` under.
    pub fn signature_of(bytes: &[u8]) -> Signature {
        md5(bytes)
    }

    fn stripe_of(&self, sig: &Signature) -> &Mutex<KeyMap<Signature, Stored>> {
        // The signature is an MD5 digest, so its first 8 bytes are uniform:
        // a stripe selector that is the same in every run.
        let mut raw = [0u8; 8];
        raw.copy_from_slice(&sig.0[..8]);
        let index = u64::from_le_bytes(raw) as usize % self.stripes.len();
        &self.stripes[index]
    }

    /// Adds one reference to `bytes` under `sig`, charging physical bytes
    /// only if this signature is new, and failing if that charge would
    /// exceed `budget`. Returns the stored content — `bytes` itself, or
    /// the identical bytes already filed under `sig` — and whether it was
    /// already resident (a shared fill).
    ///
    /// The capacity check and the insert are atomic with respect to other
    /// store operations on the same signature (stripe lock held), and the
    /// physical counter is raised with a compare-and-swap loop, so the
    /// budget can never be overshot by concurrent acquires.
    pub fn try_acquire(
        &self,
        sig: Signature,
        bytes: &Bytes,
        budget: u64,
    ) -> Result<(Bytes, bool), NoRoom> {
        let size = bytes.len() as u64;
        let mut stripe = self.stripe_of(&sig).lock();
        if let Some(stored) = stripe.get_mut(&sig) {
            stored.refs += 1;
            self.logical.fetch_add(size, Ordering::Relaxed);
            return Ok((stored.content.clone(), true));
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
        let content = bytes.clone();
        stripe.insert(sig, Stored { content, refs: 1 });
        Ok((bytes.clone(), false))
    }

    /// Adds one reference to `bytes` under `sig` without a budget check.
    /// Used by the verifier replace path, which (as in the original
    /// single-lock cache) refreshes content in place and leaves capacity
    /// enforcement to the caller. Returns what [`Self::try_acquire`] does.
    pub fn acquire(&self, sig: Signature, bytes: &Bytes) -> (Bytes, bool) {
        let size = bytes.len() as u64;
        let mut stripe = self.stripe_of(&sig).lock();
        self.logical.fetch_add(size, Ordering::Relaxed);
        if let Some(stored) = stripe.get_mut(&sig) {
            stored.refs += 1;
            (stored.content.clone(), true)
        } else {
            self.physical.fetch_add(size, Ordering::Relaxed);
            let content = bytes.clone();
            stripe.insert(sig, Stored { content, refs: 1 });
            (bytes.clone(), false)
        }
    }

    /// Moves the one reference filed under `from` to `to`, where the same
    /// `bytes` belong by content, charging them once throughout. Returns
    /// what [`Self::try_acquire`] does.
    pub fn refile(&self, from: Signature, to: Signature, bytes: &Bytes) -> (Bytes, bool) {
        let mut stripe = self.stripe_of(&to).lock();
        let content = bytes.clone();
        let stored = stripe.entry(to).or_insert(Stored { content, refs: 0 });
        stored.refs += 1;
        let (stored, shared) = (stored.content.clone(), stored.refs > 1);
        drop(stripe);
        let moved = self.stripe_of(&from).lock().remove(&from);
        debug_assert!(moved.is_some_and(|moved| moved.refs == 1));
        let freed = if shared { bytes.len() as u64 } else { 0 };
        self.physical.fetch_sub(freed, Ordering::Relaxed);
        (stored, shared)
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
