//! A simulated stable-storage medium.
//!
//! The paper's write-back cache holds the only copy of buffered user data
//! while the origin is unreachable; surviving process death therefore
//! requires a medium whose contents outlive the process. [`StableStore`]
//! models one: a flat byte device with append, whole-image rewrite, and
//! truncate operations. Handles are cheap clones sharing one underlying
//! image, so a test or experiment driver keeps a handle across a crash
//! (dropping every in-memory structure) and re-opens the *same* bytes
//! afterwards — exactly how a write-ahead journal file survives a real
//! crash. Nothing in this module interprets the bytes; record framing and
//! checksums belong to the layer above (the cache's write journal).
//!
//! # Persistence model
//!
//! What a crash leaves on the medium:
//!
//! * every operation that returned before the crash, in order;
//! * of an [`append`](StableStore::append) in flight, any prefix of its
//!   bytes — none, some or all. Bytes never land out of order and a torn
//!   append never leaves garbage past what it wrote;
//! * of an [`overwrite`](StableStore::overwrite) or a
//!   [`truncate`](StableStore::truncate) in flight, the image before it
//!   or the image after it, nothing in between. Both are atomic:
//!   `overwrite` models writing a new image beside the old one and
//!   renaming it over the old one, which is how a real file gets the
//!   property.
//!
//! A crash point names one such state: [`CrashPoint`] is *(medium op `n`,
//! how many bytes of op `n` landed)*. A store built with
//! [`StableStore::crashing_at`] applies the operations before `n` and the
//! landed part of op `n`, then dies with [`std::panic::resume_unwind`] —
//! which runs no panic hook and prints nothing — carrying the
//! [`MediumOp`] that op `n` was. A driver catches the unwind where its
//! process ends, so every structure the process held dies with it while
//! the medium and whatever the process had already written elsewhere
//! survive. An unarmed store ([`StableStore::new`]) never dies.

use parking_lot::Mutex;
use std::sync::Arc;

/// A state a crash can leave the medium in: the operations before medium
/// op `op` (counted from zero over the store's lifetime) all landed, and
/// `landed` bytes of op `op` did. For an overwrite or a truncate any
/// `landed` above zero means the whole operation landed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPoint {
    /// The medium operation the crash strikes in.
    pub op: u64,
    /// How many of its bytes reached the medium.
    pub landed: u64,
}

/// A medium operation: the payload an armed store unwinds with, naming
/// the op it died in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MediumOp {
    /// An append of `len` bytes.
    Append {
        /// Bytes the append writes.
        len: u64,
    },
    /// A whole-image rewrite.
    Overwrite,
    /// A truncation.
    Truncate,
}

#[derive(Debug, Default)]
struct StableInner {
    bytes: Vec<u8>,
    appends: u64,
    rewrites: u64,
    bytes_written: u64,
    /// The crash point still ahead, and the medium ops absorbed so far.
    armed: Option<(CrashPoint, u64)>,
}

impl StableInner {
    /// Counts one medium op and, if the armed crash point strikes in it,
    /// disarms the store and returns how many of its bytes land.
    fn strike(&mut self) -> Option<u64> {
        let (point, ops) = self.armed.as_mut()?;
        *ops += 1;
        if *ops - 1 != point.op {
            return None;
        }
        self.armed.take().map(|(point, _)| point.landed)
    }
}

/// Ends the process the crash struck in `op`, unwinding with it.
fn die(op: MediumOp) -> ! {
    std::panic::resume_unwind(Box::new(op))
}

/// A shared, crash-surviving flat byte device.
///
/// Clones share the same image (like two file descriptors on one file).
///
/// # Examples
///
/// ```
/// use placeless_simenv::stable::StableStore;
///
/// let store = StableStore::new();
/// store.append(b"record-1");
/// let survivor = store.clone();
/// drop(store); // the "process" dies; the medium does not
/// assert_eq!(survivor.contents(), b"record-1");
/// ```
#[derive(Debug, Clone, Default)]
pub struct StableStore {
    inner: Arc<Mutex<StableInner>>,
}

impl StableStore {
    /// Creates an empty medium.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty medium that dies at `point` (see the module
    /// docs). After the crash it is an ordinary medium again, holding
    /// what the crash left.
    pub fn crashing_at(point: CrashPoint) -> Self {
        let store = Self::new();
        store.inner.lock().armed = Some((point, 0));
        store
    }

    /// Appends `data`, returning the offset it was written at.
    pub fn append(&self, data: &[u8]) -> u64 {
        let mut inner = self.inner.lock();
        let crash = inner.strike();
        let len = data.len() as u64;
        let kept = crash.map_or(len, |landed| landed.min(len));
        let offset = inner.bytes.len() as u64;
        inner.bytes.extend_from_slice(&data[..kept as usize]);
        inner.appends += 1;
        inner.bytes_written += kept;
        if crash.is_some() {
            drop(inner);
            die(MediumOp::Append { len });
        }
        offset
    }

    /// Replaces the entire image with `data` (journal compaction), as one
    /// atomic step.
    pub fn overwrite(&self, data: &[u8]) {
        let mut inner = self.inner.lock();
        let crash = inner.strike();
        if crash != Some(0) {
            inner.bytes.clear();
            inner.bytes.extend_from_slice(data);
            inner.rewrites += 1;
            inner.bytes_written += data.len() as u64;
        }
        if crash.is_some() {
            drop(inner);
            die(MediumOp::Overwrite);
        }
    }

    /// Truncates the image to `len` bytes (no-op if already shorter).
    /// Recovery uses this to discard a torn tail once detected.
    pub fn truncate(&self, len: u64) {
        let mut inner = self.inner.lock();
        let crash = inner.strike();
        if crash != Some(0) {
            let len = len.min(inner.bytes.len() as u64) as usize;
            inner.bytes.truncate(len);
        }
        if crash.is_some() {
            drop(inner);
            die(MediumOp::Truncate);
        }
    }

    /// Returns a copy of the current image.
    pub fn contents(&self) -> Vec<u8> {
        self.inner.lock().bytes.clone()
    }

    /// Returns the image length in bytes.
    pub fn len(&self) -> u64 {
        self.inner.lock().bytes.len() as u64
    }

    /// Returns `true` if the image is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns how many appends the medium has absorbed.
    pub fn append_count(&self) -> u64 {
        self.inner.lock().appends
    }

    /// Returns how many whole-image rewrites (compactions) it absorbed.
    pub fn rewrite_count(&self) -> u64 {
        self.inner.lock().rewrites
    }

    /// Returns how many bytes appends and rewrites together put on the
    /// medium — the numerator of a journal's write amplification.
    pub fn bytes_written(&self) -> u64 {
        self.inner.lock().bytes_written
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_accumulates_and_reports_offsets() {
        let store = StableStore::new();
        assert!(store.is_empty());
        assert_eq!(store.append(b"abc"), 0);
        assert_eq!(store.append(b"defg"), 3);
        assert_eq!(store.len(), 7);
        assert_eq!(store.contents(), b"abcdefg");
        assert_eq!(store.append_count(), 2);
    }

    #[test]
    fn clones_share_the_image_across_a_crash() {
        let store = StableStore::new();
        store.append(b"live");
        let survivor = store.clone();
        drop(store);
        assert_eq!(survivor.contents(), b"live");
        survivor.append(b"-more");
        assert_eq!(survivor.contents(), b"live-more");
    }

    /// Runs `ops` against a store armed at `point`; returns what it died
    /// in and what the crash left.
    fn crash(point: CrashPoint, ops: impl FnOnce(&StableStore)) -> (MediumOp, Vec<u8>) {
        let store = StableStore::crashing_at(point);
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| ops(&store)));
        let crashed = *unwound
            .expect_err("the armed point is reached")
            .downcast::<MediumOp>()
            .expect("a crash unwinds with its point");
        store.append(b"!"); // disarmed: the medium works again
        (crashed, store.contents())
    }

    #[test]
    fn a_crash_lands_a_prefix_of_an_append_and_keeps_every_op_before_it() {
        let ops = |store: &StableStore| {
            store.append(b"intact");
            store.append(b"torn-record");
        };
        let (crashed, left) = crash(CrashPoint { op: 1, landed: 7 }, ops);
        assert_eq!(crashed, MediumOp::Append { len: 11 });
        assert_eq!(left, b"intacttorn-re!");
        let (_, left) = crash(
            CrashPoint {
                op: 1,
                landed: 1_000,
            },
            ops,
        );
        assert_eq!(left, b"intacttorn-record!", "at most the whole append");
    }

    #[test]
    fn overwrite_and_truncate_land_whole_or_not_at_all() {
        let ops = |store: &StableStore| {
            store.append(b"aaaabbbb");
            store.overwrite(b"bbbb");
            store.truncate(1);
        };
        let at = |op, landed| crash(CrashPoint { op, landed }, ops).1;
        assert_eq!(at(1, 0), b"aaaabbbb!", "the image before the rewrite");
        assert_eq!(at(1, 2), b"bbbb!", "or the image after it");
        assert_eq!(at(2, 0), b"bbbb!");
        assert_eq!(at(2, 1), b"b!");
        let (crashed, _) = crash(CrashPoint { op: 2, landed: 0 }, ops);
        assert_eq!(crashed, MediumOp::Truncate);
    }

    #[test]
    fn tear_tail_models_a_torn_final_write() {
        let store = StableStore::new();
        store.append(b"intact");
        store.append(b"torn-record");
        store.truncate(store.len() - 4);
        assert_eq!(store.contents(), b"intacttorn-re");
        store.truncate(0);
        assert!(store.is_empty());
    }

    #[test]
    fn a_point_past_the_last_op_never_fires() {
        let store = StableStore::crashing_at(CrashPoint { op: 2, landed: 0 });
        store.append(b"a");
        store.truncate(0);
        assert!(store.is_empty());
    }

    #[test]
    fn overwrite_compacts_and_truncate_caps() {
        let store = StableStore::new();
        store.append(b"aaaabbbb");
        store.overwrite(b"bbbb");
        assert_eq!(store.contents(), b"bbbb");
        assert_eq!(store.rewrite_count(), 1);
        assert_eq!(store.bytes_written(), 12, "8 appended + 4 rewritten");
        store.truncate(2);
        assert_eq!(store.contents(), b"bb");
        store.truncate(100);
        assert_eq!(store.contents(), b"bb", "longer truncate is a no-op");
    }
}
