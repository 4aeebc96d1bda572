//! Bit-providers: the special active property that links a base document to
//! the actual content in its repository.
//!
//! Every base document carries exactly one bit-provider. On the read path it
//! opens the raw input stream from the repository (charging the fetch
//! latency against the virtual clock); on the write path it opens the sink
//! that commits new content. It also initialises the replacement cost with
//! the repository fetch cost and, most importantly for caching, returns a
//! *verifier* appropriate to its repository's consistency mechanism (mtime
//! polling for files, TTL for web pages, nothing for live feeds).

use crate::cacheability::Cacheability;
use crate::error::Result;
use crate::streams::{CollectOutput, InputStream, MemoryInput, OutputStream};
use crate::verifier::{RevisionPin, Verifier};
use bytes::Bytes;
use parking_lot::Mutex;
use placeless_simenv::VirtualClock;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The repository link of a base document.
pub trait BitProvider: Send + Sync {
    /// Returns a short description of the provider and its repository.
    fn describe(&self) -> String;

    /// Returns a key identifying the provider's *origin* (the repository
    /// or server behind it), shared by every document served from that
    /// origin. The cache's per-provider circuit breakers group failures by
    /// this key, so one dead origin trips one breaker rather than one per
    /// document. Defaults to [`BitProvider::describe`] (per-document).
    fn origin_key(&self) -> String {
        self.describe()
    }

    /// Opens the raw content stream, charging fetch latency to the clock.
    fn open_input(&self, clock: &VirtualClock) -> Result<Box<dyn InputStream>>;

    /// Opens the commit sink; implementations charge store latency when the
    /// sink is closed.
    fn open_output(&self, clock: &VirtualClock) -> Result<Box<dyn OutputStream>>;

    /// Commits several already-transformed payloads in one grouped
    /// repository round-trip, returning one result per payload (in
    /// order). `None` — the default — means the provider cannot batch;
    /// callers then fall back to one [`BitProvider::open_output`] commit
    /// per payload, which preserves per-entry fault semantics exactly.
    ///
    /// Implementations must keep failures *per payload*: a fault that
    /// affects the whole round-trip (an unreachable origin) fails every
    /// payload, but one payload's rejection must not poison its
    /// neighbours.
    fn commit_batch(&self, clock: &VirtualClock, payloads: &[Bytes]) -> Option<Vec<Result<()>>> {
        let _ = (clock, payloads);
        None
    }

    /// Returns a verifier implementing this repository's consistency
    /// mechanism, or `None` if the repository offers none.
    fn make_verifier(&self, clock: &VirtualClock) -> Option<Box<dyn Verifier>>;

    /// Returns the cost of (re)fetching the content, used to initialise the
    /// document's replacement cost.
    fn fetch_cost_micros(&self) -> u64;

    /// Returns the current content length, when cheaply known.
    fn content_len_hint(&self) -> Option<u64> {
        None
    }

    /// Returns `true` if the provider accepts writes.
    fn writable(&self) -> bool {
        true
    }

    /// Returns the provider's cacheability vote.
    ///
    /// The bit-provider is itself an active property and participates in
    /// the indicator aggregation; a live-video provider whose content
    /// changes on every read votes [`Cacheability::Uncacheable`].
    fn cacheability_vote(&self) -> Cacheability {
        Cacheability::Unrestricted
    }
}

/// An in-memory bit-provider used by tests and as the simplest repository.
///
/// Content changes through [`BitProvider::open_output`] model updates
/// *through* Placeless; [`MemoryProvider::set_out_of_band`] models updates
/// the middleware cannot see (the paper's dual update model). An epoch
/// counter backs the mtime-style verifier.
pub struct MemoryProvider {
    label: String,
    /// What its verifiers call themselves, `mtime(<label>)`: one
    /// allocation for the provider's lifetime, shared by all of them.
    verifier_label: Arc<str>,
    content: Arc<Mutex<Bytes>>,
    /// The modification epoch, bumped (`Release`) by every writer while
    /// it holds the content lock. Apart from the content, so that a
    /// verifier polls it (`Acquire`) without taking that lock: every hit
    /// of every user of the document runs one.
    epoch: Arc<AtomicU64>,
    fetch_cost: u64,
}

/// Commits `bytes` through the held content lock, then bumps the epoch.
fn commit(content: &mut Bytes, epoch: &AtomicU64, bytes: Bytes) {
    *content = bytes;
    epoch.fetch_add(1, Ordering::Release);
}

impl MemoryProvider {
    /// Creates a provider holding `content` with a given simulated fetch
    /// cost in microseconds.
    pub fn new(label: &str, content: impl Into<Bytes>, fetch_cost: u64) -> Arc<Self> {
        Arc::new(Self {
            label: label.to_owned(),
            verifier_label: format!("mtime({label})").into(),
            content: Arc::new(Mutex::new(content.into())),
            epoch: Arc::default(),
            fetch_cost,
        })
    }

    /// Returns the current content.
    pub fn content(&self) -> Bytes {
        self.content.lock().clone()
    }

    /// Replaces the content *outside* Placeless control: no events fire and
    /// no notifiers run — only the provider's verifier can catch it.
    pub fn set_out_of_band(&self, content: impl Into<Bytes>) {
        commit(&mut self.content.lock(), &self.epoch, content.into());
    }

    /// Returns the provider's modification epoch (its "mtime").
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }
}

impl BitProvider for MemoryProvider {
    fn describe(&self) -> String {
        format!("memory:{}", self.label)
    }

    fn open_input(&self, clock: &VirtualClock) -> Result<Box<dyn InputStream>> {
        clock.advance(self.fetch_cost);
        Ok(Box::new(MemoryInput::new(self.content())))
    }

    fn open_output(&self, clock: &VirtualClock) -> Result<Box<dyn OutputStream>> {
        let clock = clock.clone();
        let cost = self.fetch_cost;
        let (content, epoch) = (self.content.clone(), self.epoch.clone());
        // The sink buffers the new content and commits it (bumping the
        // epoch) on close, charging the store latency then.
        Ok(Box::new(CollectOutput::new(move |bytes| {
            clock.advance(cost);
            commit(&mut content.lock(), &epoch, bytes);
            Ok(())
        })))
    }

    fn commit_batch(&self, clock: &VirtualClock, payloads: &[Bytes]) -> Option<Vec<Result<()>>> {
        // One grouped store round-trip: the latency is charged once for
        // the whole batch, then each payload commits (bumping the epoch)
        // in order, so the last payload is the surviving content.
        clock.advance(self.fetch_cost);
        let mut content = self.content.lock();
        Some(
            payloads
                .iter()
                .map(|bytes| {
                    commit(&mut content, &self.epoch, bytes.clone());
                    Ok(())
                })
                .collect(),
        )
    }

    fn make_verifier(&self, _clock: &VirtualClock) -> Option<Box<dyn Verifier>> {
        let (label, epoch) = (self.verifier_label.clone(), self.epoch.clone());
        let probe = move |_: &VirtualClock| Ok(epoch.load(Ordering::Acquire));
        Some(RevisionPin::pinned(label, 2, self.epoch(), probe))
    }

    fn fetch_cost_micros(&self) -> u64 {
        self.fetch_cost
    }

    fn content_len_hint(&self) -> Option<u64> {
        Some(self.content.lock().len() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::streams::{read_all, write_all};
    use crate::verifier::Validity;

    #[test]
    fn read_charges_fetch_cost() {
        let clock = VirtualClock::new();
        let provider = MemoryProvider::new("t", "hello", 1_234);
        let mut stream = provider.open_input(&clock).unwrap();
        assert_eq!(clock.now().as_micros(), 1_234);
        assert_eq!(read_all(stream.as_mut()).unwrap(), "hello");
    }

    #[test]
    fn write_commits_on_close_and_charges() {
        let clock = VirtualClock::new();
        let provider = MemoryProvider::new("t", "old", 100);
        let mut sink = provider.open_output(&clock).unwrap();
        write_all(sink.as_mut(), b"new content").unwrap();
        assert_eq!(provider.content(), "old", "not committed before close");
        assert_eq!(clock.now().as_micros(), 0, "store latency charged at close");
        sink.close().unwrap();
        assert_eq!(provider.content(), "new content");
        assert_eq!(clock.now().as_micros(), 100);
    }

    #[test]
    fn batch_commit_charges_cost_once_and_applies_in_order() {
        let clock = VirtualClock::new();
        let provider = MemoryProvider::new("t", "old", 100);
        let payloads = [Bytes::from_static(b"v1"), Bytes::from_static(b"v2")];
        let results = provider.commit_batch(&clock, &payloads).unwrap();
        assert_eq!(results.len(), 2);
        assert!(results.iter().all(|r| r.is_ok()));
        assert_eq!(clock.now().as_micros(), 100, "one round-trip for the batch");
        assert_eq!(provider.content(), "v2", "last payload wins");
        assert_eq!(provider.epoch(), 2, "each payload bumps the epoch");
    }

    #[test]
    fn verifier_detects_out_of_band_changes() {
        let clock = VirtualClock::new();
        let provider = MemoryProvider::new("t", "v1", 10);
        let verifier = provider.make_verifier(&clock).unwrap();
        assert_eq!(verifier.describe(), "mtime(t)");
        assert_eq!(verifier.cost_micros(), 2);
        assert_eq!(verifier.check(&clock), Validity::Valid);
        provider.set_out_of_band("v2");
        assert_eq!(verifier.check(&clock), Validity::Invalid);
    }

    #[test]
    fn verifier_detects_in_band_writes_too() {
        let clock = VirtualClock::new();
        let provider = MemoryProvider::new("t", "v1", 10);
        let verifier = provider.make_verifier(&clock).unwrap();
        let mut sink = provider.open_output(&clock).unwrap();
        write_all(sink.as_mut(), b"v2").unwrap();
        sink.close().unwrap();
        assert_eq!(verifier.check(&clock), Validity::Invalid);
    }

    #[test]
    fn fresh_verifier_after_change_is_valid() {
        let clock = VirtualClock::new();
        let provider = MemoryProvider::new("t", "v1", 10);
        provider.set_out_of_band("v2");
        let verifier = provider.make_verifier(&clock).unwrap();
        assert_eq!(verifier.check(&clock), Validity::Valid);
    }

    #[test]
    fn len_hint_tracks_content() {
        let provider = MemoryProvider::new("t", "12345", 0);
        assert_eq!(provider.content_len_hint(), Some(5));
        provider.set_out_of_band("123");
        assert_eq!(provider.content_len_hint(), Some(3));
    }

    #[test]
    fn providers_are_independent() {
        let clock = VirtualClock::new();
        let a = MemoryProvider::new("a", "aaa", 0);
        let b = MemoryProvider::new("b", "bbb", 0);
        let mut sink_a = a.open_output(&clock).unwrap();
        write_all(sink_a.as_mut(), b"AAA").unwrap();
        sink_a.close().unwrap();
        assert_eq!(a.content(), "AAA");
        assert_eq!(b.content(), "bbb", "writing to a must not touch b");
    }
}
