//! An in-memory file system with modification times.
//!
//! Models the NFS-mounted PARC file system of the prototype: files are
//! addressed by path, carry an mtime stamped from the virtual clock, and can
//! be modified both *through* Placeless (via the provider's write path) and
//! *directly* ([`MemFs::write_direct`]) — the paper's "applications
//! interacting with files directly through a file system" case that only an
//! mtime-polling verifier can catch.

use bytes::Bytes;
use parking_lot::RwLock;
use placeless_core::error::{PlacelessError, Result};
use placeless_simenv::{Instant, VirtualClock};
use std::collections::BTreeMap;
use std::sync::Arc;

/// One file's metadata and content.
#[derive(Debug, Clone)]
pub struct FileRecord {
    /// Current content.
    pub content: Bytes,
    /// Last modification time.
    pub mtime: Instant,
    /// Number of writes the file has received.
    pub generation: u64,
}

/// A shared in-memory file system.
pub struct MemFs {
    clock: VirtualClock,
    files: RwLock<BTreeMap<String, FileRecord>>,
}

impl MemFs {
    /// Creates an empty file system stamping mtimes from `clock`.
    pub fn new(clock: VirtualClock) -> Arc<Self> {
        Arc::new(Self {
            clock,
            files: RwLock::new(BTreeMap::new()),
        })
    }

    /// Creates (or truncates) a file with `content`.
    pub fn create(&self, path: &str, content: impl Into<Bytes>) {
        let mut files = self.files.write();
        let generation = files.get(path).map(|f| f.generation + 1).unwrap_or(0);
        files.insert(
            path.to_owned(),
            FileRecord {
                content: content.into(),
                mtime: self.clock.now(),
                generation,
            },
        );
    }

    /// Reads a file's content.
    pub fn read(&self, path: &str) -> Result<Bytes> {
        self.files
            .read()
            .get(path)
            .map(|f| f.content.clone())
            .ok_or_else(|| PlacelessError::Repository(format!("no such file: {path}")))
    }

    /// Returns a file's metadata.
    pub fn stat(&self, path: &str) -> Result<FileRecord> {
        self.files
            .read()
            .get(path)
            .cloned()
            .ok_or_else(|| PlacelessError::Repository(format!("no such file: {path}")))
    }

    /// Writes a file *directly*, bypassing Placeless entirely — no events
    /// fire; only mtime-based verifiers can detect the change.
    pub fn write_direct(&self, path: &str, content: impl Into<Bytes>) -> Result<()> {
        let mut files = self.files.write();
        let file = files
            .get_mut(path)
            .ok_or_else(|| PlacelessError::Repository(format!("no such file: {path}")))?;
        file.content = content.into();
        file.mtime = self.clock.now();
        file.generation += 1;
        Ok(())
    }

    /// Removes a file.
    pub fn unlink(&self, path: &str) -> Result<()> {
        self.files
            .write()
            .remove(path)
            .map(|_| ())
            .ok_or_else(|| PlacelessError::Repository(format!("no such file: {path}")))
    }

    /// Returns all paths, sorted.
    pub fn list(&self) -> Vec<String> {
        self.files.read().keys().cloned().collect()
    }

    /// Returns `true` if the file exists.
    pub fn exists(&self, path: &str) -> bool {
        self.files.read().contains_key(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_read_roundtrip() {
        let fs = MemFs::new(VirtualClock::new());
        fs.create("/tilde/edelara/hotos.doc", "draft v1");
        assert_eq!(fs.read("/tilde/edelara/hotos.doc").unwrap(), "draft v1");
        assert!(fs.exists("/tilde/edelara/hotos.doc"));
        assert!(!fs.exists("/other"));
    }

    #[test]
    fn read_missing_fails() {
        let fs = MemFs::new(VirtualClock::new());
        assert!(fs.read("/missing").is_err());
        assert!(fs.stat("/missing").is_err());
        assert!(fs.write_direct("/missing", "x").is_err());
        assert!(fs.unlink("/missing").is_err());
    }

    #[test]
    fn mtime_advances_with_clock() {
        let clock = VirtualClock::new();
        let fs = MemFs::new(clock.clone());
        fs.create("/a", "v1");
        let t1 = fs.stat("/a").unwrap().mtime;
        clock.advance(5_000);
        fs.write_direct("/a", "v2").unwrap();
        let t2 = fs.stat("/a").unwrap().mtime;
        assert!(t2 > t1);
        assert_eq!(t2.since(t1), 5_000);
    }

    #[test]
    fn generation_counts_writes() {
        let fs = MemFs::new(VirtualClock::new());
        fs.create("/a", "v1");
        assert_eq!(fs.stat("/a").unwrap().generation, 0);
        fs.write_direct("/a", "v2").unwrap();
        fs.write_direct("/a", "v3").unwrap();
        assert_eq!(fs.stat("/a").unwrap().generation, 2);
        // Re-creating keeps counting.
        fs.create("/a", "v4");
        assert_eq!(fs.stat("/a").unwrap().generation, 3);
    }

    #[test]
    fn unlink_and_list() {
        let fs = MemFs::new(VirtualClock::new());
        fs.create("/b", "2");
        fs.create("/a", "1");
        assert_eq!(fs.list(), vec!["/a", "/b"]);
        fs.unlink("/a").unwrap();
        assert_eq!(fs.list(), vec!["/b"]);
    }
}
