//! A simulated stable-storage medium.
//!
//! The paper's write-back cache holds the only copy of buffered user data
//! while the origin is unreachable; surviving process death therefore
//! requires a medium whose contents outlive the process. [`StableStore`]
//! models one: a flat byte device with append, whole-image rewrite, and
//! truncate operations. Handles are cheap clones sharing one underlying
//! image, so a test or experiment driver keeps a handle across a scripted
//! crash (dropping every in-memory structure) and re-opens the *same*
//! bytes afterwards — exactly how a write-ahead journal file survives a
//! real crash.
//!
//! Crashes in real systems tear the write that was in flight:
//! [`StableStore::tear_tail`] models that by chopping bytes off the end of
//! the image, leaving a torn final record for recovery code to detect and
//! truncate. Nothing in this module interprets the bytes; record framing
//! and checksums belong to the layer above (the cache's write journal).

use parking_lot::Mutex;
use std::sync::Arc;

#[derive(Debug, Default)]
struct StableInner {
    bytes: Vec<u8>,
    appends: u64,
    rewrites: u64,
    bytes_written: u64,
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

    /// Appends `data`, returning the offset it was written at.
    pub fn append(&self, data: &[u8]) -> u64 {
        let mut inner = self.inner.lock();
        let offset = inner.bytes.len() as u64;
        inner.bytes.extend_from_slice(data);
        inner.appends += 1;
        inner.bytes_written += data.len() as u64;
        offset
    }

    /// Replaces the entire image with `data` (journal compaction).
    pub fn overwrite(&self, data: &[u8]) {
        let mut inner = self.inner.lock();
        inner.bytes.clear();
        inner.bytes.extend_from_slice(data);
        inner.rewrites += 1;
        inner.bytes_written += data.len() as u64;
    }

    /// Truncates the image to `len` bytes (no-op if already shorter).
    /// Recovery uses this to discard a torn tail once detected.
    pub fn truncate(&self, len: u64) {
        let mut inner = self.inner.lock();
        let len = len.min(inner.bytes.len() as u64) as usize;
        inner.bytes.truncate(len);
    }

    /// Simulates a crash tearing the in-flight write: chops the last `n`
    /// bytes off the image (all of them if `n` exceeds the image).
    pub fn tear_tail(&self, n: u64) {
        let mut inner = self.inner.lock();
        let keep = (inner.bytes.len() as u64).saturating_sub(n) as usize;
        inner.bytes.truncate(keep);
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

    #[test]
    fn tear_tail_models_a_torn_final_write() {
        let store = StableStore::new();
        store.append(b"intact");
        store.append(b"torn-record");
        store.tear_tail(4);
        assert_eq!(store.contents(), b"intacttorn-re");
        store.tear_tail(1_000);
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
