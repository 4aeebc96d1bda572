//! A scripted "MS Word"-like client driving the NFS layer.
//!
//! The paper's Figure 2 walks a save from MS Word through the NFS layer,
//! the reference's and base's properties, and the bit-provider. [`Editor`]
//! reproduces that application behaviour for tests and benches: open a
//! document, read it, type, and save — all through file handles, never
//! touching the Placeless API directly.

use crate::server::{NfsServer, OpenMode};
use placeless_core::error::Result;
use placeless_core::id::UserId;
use std::sync::Arc;

/// A scripted word-processor session over one exported file.
pub struct Editor {
    nfs: Arc<NfsServer>,
    user: UserId,
    path: String,
    /// The in-memory document buffer, as the application sees it.
    text: String,
}

impl Editor {
    /// Opens `path` as `user`, loading the current content.
    pub fn open(nfs: Arc<NfsServer>, user: UserId, path: &str) -> Result<Self> {
        let handle = nfs.open(user, path, OpenMode::Read)?;
        // Read the whole file in NFS-sized chunks, as a real client would.
        let mut text = Vec::new();
        let mut offset = 0u64;
        loop {
            let chunk = nfs.read(handle, offset, 8 * 1024)?;
            if chunk.is_empty() {
                break;
            }
            offset += chunk.len() as u64;
            text.extend_from_slice(&chunk);
        }
        nfs.close(handle)?;
        Ok(Self {
            nfs,
            user,
            path: path.to_owned(),
            text: String::from_utf8_lossy(&text).into_owned(),
        })
    }

    /// Returns the buffer as the application sees it.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// Appends text to the buffer (unsaved).
    pub fn type_text(&mut self, text: &str) -> &mut Self {
        self.text.push_str(text);
        self
    }

    /// Saves the buffer: open-for-write, chunked writes, close — the full
    /// Figure 2 path.
    pub fn save(&mut self) -> Result<()> {
        let handle = self.nfs.open(self.user, &self.path, OpenMode::Write)?;
        let bytes = self.text.as_bytes();
        let mut offset = 0usize;
        while offset < bytes.len() {
            let end = (offset + 4 * 1024).min(bytes.len());
            self.nfs.write(handle, offset as u64, &bytes[offset..end])?;
            offset = end;
        }
        if bytes.is_empty() {
            // Truncating save: force the dirty flag with an empty write.
            self.nfs.write(handle, 0, b"")?;
        }
        self.nfs.close(handle)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::DirectBackend;
    use placeless_core::prelude::*;
    use placeless_properties::{SpellCheck, Versioning};
    use placeless_simenv::{LatencyModel, VirtualClock};

    const EYAL: UserId = UserId(1);
    const DOUG: UserId = UserId(2);

    fn setup(content: &str) -> (Arc<DocumentSpace>, Arc<NfsServer>, DocumentId) {
        let space = DocumentSpace::with_middleware_cost(VirtualClock::new(), LatencyModel::FREE);
        let provider = MemoryProvider::new("hotos", content.to_owned(), 0);
        let doc = space.create_document(EYAL, provider);
        let nfs = NfsServer::new(DirectBackend::new(space.clone()));
        nfs.export("/tilde/edelara/hotos.doc", doc);
        (space, nfs, doc)
    }

    #[test]
    fn type_and_save_roundtrip() {
        let (_space, nfs, _doc) = setup("Abstract. ");
        let mut editor = Editor::open(nfs.clone(), EYAL, "/tilde/edelara/hotos.doc").unwrap();
        editor.type_text("Caching in Placeless...");
        editor.save().unwrap();
        let reread = Editor::open(nfs, EYAL, "/tilde/edelara/hotos.doc").unwrap();
        assert_eq!(reread.text(), "Abstract. Caching in Placeless...");
    }

    #[test]
    fn figure2_save_runs_write_path_properties() {
        // Spelling correction at Eyal's reference + versioning at the base,
        // exactly the Figure 2 configuration.
        let (space, nfs, doc) = setup("");
        let versioning = Versioning::new();
        space
            .attach_active(Scope::Universal, doc, versioning.clone())
            .unwrap();
        space
            .attach_active(Scope::Personal(EYAL), doc, SpellCheck::new())
            .unwrap();

        let mut editor = Editor::open(nfs, EYAL, "/tilde/edelara/hotos.doc").unwrap();
        editor.type_text("teh HotOS paper draft");
        editor.save().unwrap();

        // The spelling corrector ran before the bits hit the provider:
        // Doug (no corrector of his own) sees the corrected text...
        space.add_reference(DOUG, doc).unwrap();
        let (bytes, _) = space.read_document(DOUG, doc).unwrap();
        assert_eq!(bytes, "the HotOS paper draft");
        // ...and the versioning property captured the corrected revision.
        assert_eq!(versioning.versions(), vec!["the HotOS paper draft"]);
    }

    #[test]
    fn empty_saves_then_appends() {
        let (_space, nfs, _doc) = setup("");
        let mut editor = Editor::open(nfs.clone(), EYAL, "/tilde/edelara/hotos.doc").unwrap();
        editor.save().unwrap();
        editor.type_text("y");
        editor.save().unwrap();
        let reread = Editor::open(nfs, EYAL, "/tilde/edelara/hotos.doc").unwrap();
        assert_eq!(reread.text(), "y");
    }
}
