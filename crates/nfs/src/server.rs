//! The NFS-like file server over Placeless documents.
//!
//! Exports a path namespace mapped to document ids and offers the classic
//! handle-based operations: `lookup`, `open`, `read` (ranged), `write`
//! (ranged, buffered), `getattr`, `close`. Opening for read snapshots the
//! property-transformed content through the backend; closing a write
//! handle pushes the whole buffer through the write path — which is where
//! the spelling corrector, versioning, and every other write-path property
//! run, exactly as in the paper's Figure 2.

use crate::backend::Backend;
use bytes::Bytes;
use parking_lot::Mutex;
use placeless_core::error::{PlacelessError, Result};
use placeless_core::id::{DocumentId, UserId};
use std::collections::BTreeMap;
use std::sync::Arc;

/// An open-file handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FileHandle(pub u64);

/// File open modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpenMode {
    /// Read-only: content snapshotted at open.
    Read,
    /// Write: a fresh buffer, committed on close (truncate semantics).
    Write,
    /// Read-modify-write: buffer seeded with current content.
    ReadWrite,
}

/// Attributes returned by [`NfsServer::getattr`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileAttr {
    /// The backing document.
    pub doc: DocumentId,
    /// Content length as seen by this user, in bytes.
    pub size: u64,
}

struct OpenFile {
    user: UserId,
    doc: DocumentId,
    mode: OpenMode,
    buffer: Vec<u8>,
    dirty: bool,
}

/// The NFS adapter: a path namespace plus handle-based I/O.
pub struct NfsServer {
    backend: Arc<dyn Backend>,
    exports: Mutex<BTreeMap<String, DocumentId>>,
    open_files: Mutex<BTreeMap<FileHandle, OpenFile>>,
    next_handle: Mutex<u64>,
}

impl NfsServer {
    /// Creates a server over `backend` with an empty namespace.
    pub fn new(backend: Arc<dyn Backend>) -> Arc<Self> {
        Arc::new(Self {
            backend,
            exports: Mutex::new(BTreeMap::new()),
            open_files: Mutex::new(BTreeMap::new()),
            next_handle: Mutex::new(1),
        })
    }

    /// Exports `doc` under `path`.
    pub fn export(&self, path: &str, doc: DocumentId) {
        self.exports.lock().insert(path.to_owned(), doc);
    }

    /// Resolves a path to its document.
    pub fn lookup(&self, path: &str) -> Result<DocumentId> {
        self.exports
            .lock()
            .get(path)
            .copied()
            .ok_or_else(|| PlacelessError::Repository(format!("NFS: no export {path}")))
    }

    /// Returns a file's attributes as seen by `user` (runs the read path).
    pub fn getattr(&self, user: UserId, path: &str) -> Result<FileAttr> {
        let doc = self.lookup(path)?;
        let content = self.backend.read(user, doc)?;
        Ok(FileAttr {
            doc,
            size: content.len() as u64,
        })
    }

    /// Opens a file, returning a handle.
    pub fn open(&self, user: UserId, path: &str, mode: OpenMode) -> Result<FileHandle> {
        let doc = self.lookup(path)?;
        let buffer = match mode {
            OpenMode::Write => Vec::new(),
            OpenMode::Read | OpenMode::ReadWrite => self.backend.read(user, doc)?.to_vec(),
        };
        let handle = {
            let mut next = self.next_handle.lock();
            let h = FileHandle(*next);
            *next += 1;
            h
        };
        self.open_files.lock().insert(
            handle,
            OpenFile {
                user,
                doc,
                mode,
                buffer,
                dirty: false,
            },
        );
        Ok(handle)
    }

    /// Reads up to `len` bytes at `offset`.
    pub fn read(&self, handle: FileHandle, offset: u64, len: usize) -> Result<Bytes> {
        let files = self.open_files.lock();
        let file = files.get(&handle).ok_or(PlacelessError::StreamClosed)?;
        if file.mode == OpenMode::Write {
            return Err(PlacelessError::Repository(
                "NFS: handle is write-only".to_owned(),
            ));
        }
        let start = (offset as usize).min(file.buffer.len());
        let end = (start + len).min(file.buffer.len());
        Ok(Bytes::copy_from_slice(&file.buffer[start..end]))
    }

    /// Writes `data` at `offset`, zero-filling any gap.
    pub fn write(&self, handle: FileHandle, offset: u64, data: &[u8]) -> Result<usize> {
        let mut files = self.open_files.lock();
        let file = files.get_mut(&handle).ok_or(PlacelessError::StreamClosed)?;
        if file.mode == OpenMode::Read {
            return Err(PlacelessError::Repository(
                "NFS: handle is read-only".to_owned(),
            ));
        }
        let offset = offset as usize;
        let end = offset + data.len();
        if file.buffer.len() < end {
            file.buffer.resize(end, 0);
        }
        file.buffer[offset..end].copy_from_slice(data);
        file.dirty = true;
        Ok(data.len())
    }

    /// Closes a handle; dirty buffers are committed through the write path.
    pub fn close(&self, handle: FileHandle) -> Result<()> {
        let file = self
            .open_files
            .lock()
            .remove(&handle)
            .ok_or(PlacelessError::StreamClosed)?;
        if file.dirty {
            self.backend.write(file.user, file.doc, &file.buffer)?;
        }
        Ok(())
    }

    /// Returns the number of open handles.
    pub fn open_count(&self) -> usize {
        self.open_files.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::DirectBackend;
    use placeless_core::prelude::*;
    use placeless_simenv::{LatencyModel, VirtualClock};

    const ALICE: UserId = UserId(1);

    fn setup(content: &str) -> (Arc<NfsServer>, Arc<MemoryProvider>, DocumentId) {
        let space = DocumentSpace::with_middleware_cost(VirtualClock::new(), LatencyModel::FREE);
        let provider = MemoryProvider::new("t", content.to_owned(), 0);
        let doc = space.create_document(ALICE, provider.clone());
        let nfs = NfsServer::new(DirectBackend::new(space));
        nfs.export("/docs/file.txt", doc);
        (nfs, provider, doc)
    }

    #[test]
    fn lookup_and_getattr() {
        let (nfs, _provider, doc) = setup("hello nfs");
        assert_eq!(nfs.lookup("/docs/file.txt").unwrap(), doc);
        assert!(nfs.lookup("/missing").is_err());
        let attr = nfs.getattr(ALICE, "/docs/file.txt").unwrap();
        assert_eq!(attr.size, 9);
        assert_eq!(attr.doc, doc);
    }

    #[test]
    fn ranged_reads() {
        let (nfs, _provider, _doc) = setup("0123456789");
        let h = nfs.open(ALICE, "/docs/file.txt", OpenMode::Read).unwrap();
        assert_eq!(nfs.read(h, 0, 4).unwrap(), "0123");
        assert_eq!(nfs.read(h, 4, 4).unwrap(), "4567");
        assert_eq!(nfs.read(h, 8, 100).unwrap(), "89");
        assert_eq!(nfs.read(h, 100, 4).unwrap(), "");
        nfs.close(h).unwrap();
        assert_eq!(nfs.open_count(), 0);
    }

    #[test]
    fn write_truncates_and_commits_on_close() {
        let (nfs, provider, _doc) = setup("old content");
        let h = nfs.open(ALICE, "/docs/file.txt", OpenMode::Write).unwrap();
        nfs.write(h, 0, b"new").unwrap();
        assert_eq!(provider.content(), "old content", "not committed yet");
        nfs.close(h).unwrap();
        assert_eq!(provider.content(), "new");
    }

    #[test]
    fn read_write_mode_edits_in_place() {
        let (nfs, provider, _doc) = setup("hello world");
        let h = nfs
            .open(ALICE, "/docs/file.txt", OpenMode::ReadWrite)
            .unwrap();
        nfs.write(h, 6, b"rust!").unwrap();
        nfs.close(h).unwrap();
        assert_eq!(provider.content(), "hello rust!");
    }

    #[test]
    fn sparse_writes_zero_fill() {
        let (nfs, provider, _doc) = setup("");
        let h = nfs.open(ALICE, "/docs/file.txt", OpenMode::Write).unwrap();
        nfs.write(h, 3, b"x").unwrap();
        nfs.close(h).unwrap();
        assert_eq!(&provider.content()[..], &[0, 0, 0, b'x'][..]);
    }

    #[test]
    fn clean_close_writes_nothing() {
        let (nfs, provider, _doc) = setup("untouched");
        let h = nfs
            .open(ALICE, "/docs/file.txt", OpenMode::ReadWrite)
            .unwrap();
        nfs.close(h).unwrap();
        assert_eq!(provider.content(), "untouched");
        assert_eq!(provider.epoch(), 0, "no write path executed");
    }

    #[test]
    fn mode_violations_are_rejected() {
        let (nfs, _provider, _doc) = setup("data");
        let r = nfs.open(ALICE, "/docs/file.txt", OpenMode::Read).unwrap();
        assert!(nfs.write(r, 0, b"x").is_err());
        let w = nfs.open(ALICE, "/docs/file.txt", OpenMode::Write).unwrap();
        assert!(nfs.read(w, 0, 1).is_err());
    }

    #[test]
    fn stale_handles_fail() {
        let (nfs, _provider, _doc) = setup("data");
        let h = nfs.open(ALICE, "/docs/file.txt", OpenMode::Read).unwrap();
        nfs.close(h).unwrap();
        assert!(nfs.read(h, 0, 1).is_err());
        assert!(nfs.close(h).is_err());
    }

    #[test]
    fn user_without_reference_cannot_open() {
        let (nfs, _provider, _doc) = setup("data");
        assert!(nfs
            .open(UserId(99), "/docs/file.txt", OpenMode::Read)
            .is_err());
    }
}
