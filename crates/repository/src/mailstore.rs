//! An IMAP-like mail store: folders of append-only messages.
//!
//! Properties can be "attached to documents originating from arbitrary
//! content sources"; mail is the canonical source whose *documents* are
//! derived views (a folder digest, the latest message) over an append-only
//! store. Its natural consistency check is the folder's message count —
//! cheap, monotone, and exactly what the digest provider's verifier polls.

use bytes::Bytes;
use parking_lot::RwLock;
use placeless_core::bitprovider::BitProvider;
use placeless_core::error::{PlacelessError, Result};
use placeless_core::streams::{InputStream, MemoryInput, OutputStream};
use placeless_core::verifier::{RevisionPin, Validity, Verifier};
use placeless_simenv::{Link, VirtualClock};
use std::collections::BTreeMap;
use std::sync::Arc;

/// One stored message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// Sender address.
    pub from: String,
    /// Subject line.
    pub subject: String,
    /// Message body.
    pub body: Bytes,
}

/// The mail store: named folders of append-only messages.
#[derive(Default)]
pub struct MailStore {
    folders: RwLock<BTreeMap<String, Vec<Message>>>,
}

impl MailStore {
    /// Creates an empty store.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Appends a message to a folder, creating the folder if needed.
    /// Returns the message's 1-based sequence number.
    pub fn deliver(&self, folder: &str, from: &str, subject: &str, body: impl Into<Bytes>) -> u64 {
        let mut folders = self.folders.write();
        let messages = folders.entry(folder.to_owned()).or_default();
        messages.push(Message {
            from: from.to_owned(),
            subject: subject.to_owned(),
            body: body.into(),
        });
        messages.len() as u64
    }

    /// Returns the number of messages in a folder.
    pub fn count(&self, folder: &str) -> Result<u64> {
        self.folders
            .read()
            .get(folder)
            .map(|m| m.len() as u64)
            .ok_or_else(|| PlacelessError::Repository(format!("mail: no folder {folder}")))
    }

    /// Fetches one message by 1-based sequence number.
    pub fn fetch(&self, folder: &str, seq: u64) -> Result<Message> {
        self.folders
            .read()
            .get(folder)
            .and_then(|m| m.get(seq.checked_sub(1)? as usize).cloned())
            .ok_or_else(|| PlacelessError::Repository(format!("mail: no message {folder}/{seq}")))
    }

    /// Renders a digest of the newest `limit` messages, newest first.
    pub fn digest(&self, folder: &str, limit: usize) -> Result<Bytes> {
        let folders = self.folders.read();
        let messages = folders
            .get(folder)
            .ok_or_else(|| PlacelessError::Repository(format!("mail: no folder {folder}")))?;
        let mut out = format!("=== {folder} ({} messages) ===\n", messages.len());
        for (i, m) in messages.iter().enumerate().rev().take(limit) {
            out.push_str(&format!("{:>4}  {:<24} {}\n", i + 1, m.from, m.subject));
        }
        Ok(Bytes::from(out))
    }
}

/// Bit-provider rendering a folder digest; read-only, verified by message
/// count.
pub struct MailDigestProvider {
    store: Arc<MailStore>,
    folder: String,
    limit: usize,
    link: Link,
    label: Arc<str>,
}

impl MailDigestProvider {
    /// Creates a digest provider over `folder`, showing the newest
    /// `limit` messages.
    pub fn new(store: Arc<MailStore>, folder: &str, limit: usize, link: Link) -> Arc<Self> {
        Arc::new(Self {
            store,
            folder: folder.to_owned(),
            limit,
            link,
            label: format!("mail-count:{folder}").into(),
        })
    }
}

impl BitProvider for MailDigestProvider {
    fn describe(&self) -> String {
        format!("mail:{}?limit={}", self.folder, self.limit)
    }

    fn open_input(&self, clock: &VirtualClock) -> Result<Box<dyn InputStream>> {
        let digest = self.store.digest(&self.folder, self.limit)?;
        self.link.transfer(clock, digest.len() as u64);
        Ok(Box::new(MemoryInput::new(digest)))
    }

    fn open_output(&self, _clock: &VirtualClock) -> Result<Box<dyn OutputStream>> {
        Err(PlacelessError::Repository(
            "mail digests are read-only".to_owned(),
        ))
    }

    fn make_verifier(&self, _clock: &VirtualClock) -> Option<Box<dyn Verifier>> {
        // New mail bumps the count, which never falls (the store only
        // delivers): a revision. The probe costs one RTT.
        let pinned = self.store.count(&self.folder).ok()?;
        let (store, folder) = (self.store.clone(), self.folder.clone());
        let probe = move |_: &VirtualClock| store.count(&folder).map_err(|_| Validity::Invalid);
        let (label, rtt) = (self.label.clone(), self.link.rtt_micros());
        Some(RevisionPin::pinned(label, rtt, pinned, probe))
    }

    fn fetch_cost_micros(&self) -> u64 {
        let size = self
            .store
            .digest(&self.folder, self.limit)
            .map(|d| d.len() as u64)
            .unwrap_or(0);
        self.link.estimate_micros(size)
    }

    fn writable(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use placeless_core::streams::read_all;

    fn lan() -> Link {
        Link::new(1_000, 1_000_000, 0.0, 21)
    }

    #[test]
    fn deliver_and_fetch() {
        let store = MailStore::new();
        assert_eq!(
            store.deliver("inbox", "doug@parc", "review due", "by 11/30"),
            1
        );
        assert_eq!(
            store.deliver("inbox", "karin@parc", "re: caching", "lgtm"),
            2
        );
        let m = store.fetch("inbox", 1).unwrap();
        assert_eq!(m.from, "doug@parc");
        assert_eq!(m.body, "by 11/30");
        assert!(store.fetch("inbox", 3).is_err());
        assert!(store.fetch("spam", 1).is_err());
        assert_eq!(store.count("inbox").unwrap(), 2);
    }

    #[test]
    fn digest_shows_newest_first_with_limit() {
        let store = MailStore::new();
        for i in 1..=5 {
            store.deliver("inbox", "a@b", &format!("msg {i}"), "");
        }
        let digest = String::from_utf8_lossy(&store.digest("inbox", 3).unwrap()).into_owned();
        assert!(digest.contains("(5 messages)"));
        assert!(digest.contains("msg 5"));
        assert!(digest.contains("msg 3"));
        assert!(!digest.contains("msg 2"), "beyond the limit");
        // Newest first.
        assert!(digest.find("msg 5").unwrap() < digest.find("msg 4").unwrap());
    }

    #[test]
    fn missing_folders_are_errors() {
        let store = MailStore::new();
        assert!(store.count("missing").is_err());
        assert!(store.digest("missing", 5).is_err());
    }

    #[test]
    fn provider_serves_digest_and_detects_new_mail() {
        let clock = VirtualClock::new();
        let store = MailStore::new();
        store.deliver("inbox", "eyal@rice", "draft attached", "see file");
        let provider = MailDigestProvider::new(store.clone(), "inbox", 10, lan());
        let verifier = provider.make_verifier(&clock).unwrap();
        let mut stream = provider.open_input(&clock).unwrap();
        let digest = read_all(stream.as_mut()).unwrap();
        assert!(String::from_utf8_lossy(&digest).contains("draft attached"));
        assert_eq!(verifier.check(&clock), Validity::Valid);
        store.deliver("inbox", "paul@parc", "comments", "inline");
        assert_eq!(
            verifier.check(&clock),
            Validity::Invalid,
            "new mail detected"
        );
    }

    #[test]
    fn provider_is_read_only() {
        let clock = VirtualClock::new();
        let store = MailStore::new();
        let provider = MailDigestProvider::new(store, "inbox", 5, lan());
        assert!(!provider.writable());
        assert!(provider.open_output(&clock).is_err());
    }
}
