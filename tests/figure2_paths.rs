//! Integration test for the paper's Figure 2: the full read/write path
//! through the NFS layer — application → reference properties → base
//! properties → bit-provider — with the exact ordering the paper
//! prescribes.

use placeless::prelude::*;
use placeless_core::event::{EventKind, Interests};
use placeless_core::property::{ActiveProperty, PathCtx, PathReport};
use placeless_core::streams::{InputStream, OutputStream, TransformingInput, TransformingOutput};
use placeless_simenv::LatencyModel;
use std::sync::Arc;

const EYAL: UserId = UserId(1);

/// Tags content with a marker on both paths, to observe ordering.
struct Tag(&'static str);

impl ActiveProperty for Tag {
    fn name(&self) -> &str {
        "tag"
    }
    fn interests(&self) -> Interests {
        Interests::of(&[EventKind::GetInputStream, EventKind::GetOutputStream])
    }
    fn wrap_input(
        &self,
        _ctx: &PathCtx<'_>,
        _report: &mut PathReport,
        inner: Box<dyn InputStream>,
    ) -> placeless_core::error::Result<Box<dyn InputStream>> {
        let tag = self.0;
        Ok(Box::new(TransformingInput::new(
            inner,
            Box::new(move |b| {
                let mut v = b.to_vec();
                v.extend_from_slice(format!("<r:{tag}>").as_bytes());
                Ok(bytes::Bytes::from(v))
            }),
        )))
    }
    fn wrap_output(
        &self,
        _ctx: &PathCtx<'_>,
        _report: &mut PathReport,
        inner: Box<dyn OutputStream>,
    ) -> placeless_core::error::Result<Box<dyn OutputStream>> {
        let tag = self.0;
        Ok(Box::new(TransformingOutput::new(
            inner,
            Box::new(move |b| {
                let mut v = b.to_vec();
                v.extend_from_slice(format!("<w:{tag}>").as_bytes());
                Ok(bytes::Bytes::from(v))
            }),
        )))
    }
}

fn setup() -> (Arc<DocumentSpace>, Arc<MemoryProvider>, DocumentId) {
    let space = DocumentSpace::with_middleware_cost(VirtualClock::new(), LatencyModel::FREE);
    let provider = MemoryProvider::new("f", "", 0);
    let doc = space.create_document(EYAL, provider.clone());
    (space, provider, doc)
}

#[test]
fn read_path_order_is_provider_base_reference() {
    let (space, provider, doc) = setup();
    provider.set_out_of_band("raw");
    space
        .attach_active(Scope::Universal, doc, Arc::new(Tag("base1")))
        .unwrap();
    space
        .attach_active(Scope::Universal, doc, Arc::new(Tag("base2")))
        .unwrap();
    space
        .attach_active(Scope::Personal(EYAL), doc, Arc::new(Tag("ref1")))
        .unwrap();
    let (bytes, report) = space.read_document(EYAL, doc).unwrap();
    // Base properties execute first (in attachment order), then the
    // reference's.
    assert_eq!(bytes, "raw<r:base1><r:base2><r:ref1>");
    assert_eq!(report.stages.len(), 3);
}

#[test]
fn write_path_order_is_reference_base_provider() {
    let (space, provider, doc) = setup();
    space
        .attach_active(Scope::Universal, doc, Arc::new(Tag("base")))
        .unwrap();
    space
        .attach_active(Scope::Personal(EYAL), doc, Arc::new(Tag("ref")))
        .unwrap();
    space.write_document(EYAL, doc, b"saved").unwrap();
    // The reference's custom output stream executes first, then the
    // base's, then the provider stores the result.
    assert_eq!(provider.content(), "saved<w:ref><w:base>");
}

#[test]
fn nfs_save_traverses_the_same_path() {
    let (space, provider, doc) = setup();
    space
        .attach_active(Scope::Universal, doc, Arc::new(Tag("base")))
        .unwrap();
    space
        .attach_active(Scope::Personal(EYAL), doc, Arc::new(Tag("ref")))
        .unwrap();
    let nfs = NfsServer::new(DirectBackend::new(space.clone()));
    nfs.export("/f", doc);
    let handle = nfs.open(EYAL, "/f", OpenMode::Write).unwrap();
    nfs.write(handle, 0, b"from word").unwrap();
    nfs.close(handle).unwrap();
    assert_eq!(provider.content(), "from word<w:ref><w:base>");

    // And the read back through NFS shows the read-path tags on top.
    let attr = nfs.getattr(EYAL, "/f").unwrap();
    let h = nfs.open(EYAL, "/f", OpenMode::Read).unwrap();
    let read = nfs.read(h, 0, attr.size as usize + 64).unwrap();
    nfs.close(h).unwrap();
    assert_eq!(read, "from word<w:ref><w:base><r:base><r:ref>");
}

#[test]
fn chained_properties_within_a_site_hand_streams_in_attachment_order() {
    // Paper: each property "hands the custom stream to the next property
    // in the calling chain" — first-attached is closest to the provider.
    let (space, provider, doc) = setup();
    space
        .attach_active(Scope::Personal(EYAL), doc, Arc::new(Tag("p1")))
        .unwrap();
    space
        .attach_active(Scope::Personal(EYAL), doc, Arc::new(Tag("p2")))
        .unwrap();
    space.write_document(EYAL, doc, b"x").unwrap();
    // Write: app → p2 → p1 → provider.
    assert_eq!(provider.content(), "x<w:p2><w:p1>");
    let (bytes, _) = space.read_document(EYAL, doc).unwrap();
    // Read: provider → p1 → p2 → app.
    assert_eq!(bytes, "x<w:p2><w:p1><r:p1><r:p2>");
}

#[test]
fn reorder_changes_resulting_content() {
    // §3 cause 3: "the result of applying a spell checking property to a
    // document varies whether it is applied before or after a language
    // translation property".
    let (space, provider, doc) = setup();
    provider.set_out_of_band("hello world");
    let spell_first = {
        space
            .attach_active(Scope::Personal(EYAL), doc, SpellCheck::new())
            .unwrap();
        let translate_id = space
            .attach_active(Scope::Personal(EYAL), doc, Translate::to("fr"))
            .unwrap();
        let (bytes, _) = space.read_document(EYAL, doc).unwrap();
        (bytes, translate_id)
    };
    // Move the translator to the front: now translation runs before the
    // spell check (which no longer finds English words to fix).
    space
        .reorder_property(Scope::Personal(EYAL), doc, spell_first.1, 0)
        .unwrap();
    let (reordered, _) = space.read_document(EYAL, doc).unwrap();
    assert_eq!(spell_first.0, "bonjour monde");
    assert_eq!(reordered, "bonjour monde");
    // With content that the spell checker changes, order matters:
    provider.set_out_of_band("teh document");
    let (now, _) = space.read_document(EYAL, doc).unwrap();
    // Translation first: "teh" survives (unknown word), then spellcheck
    // fixes it to "the" — but "document" was already translated.
    assert_eq!(now, "the document");
}
