//! Base documents and per-user document references.
//!
//! "A base document is the link to the actual content of the document...
//! A document reference points to the base document. Each user of the
//! document owns a separate document reference." Universal properties live
//! on the base and are seen by everyone; personal properties live on a
//! reference and are seen only by its owner.

use crate::bitprovider::BitProvider;
use crate::event::Interests;
use crate::id::{DocumentId, UserId};
use crate::property::PropertyList;
use std::collections::BTreeSet;
use std::sync::Arc;

/// The shared anchor of a document: its bit-provider plus universal
/// properties.
pub struct BaseDocument {
    /// The document's id.
    pub id: DocumentId,
    /// The bit-provider retrieving the actual content from its repository.
    pub provider: Arc<dyn BitProvider>,
    /// Universal properties, seen by all users with a reference.
    pub universal: PropertyList,
    /// Monotone counter bumped on every universal property mutation
    /// (attach, remove, modify, reorder). Caches holding a compiled view
    /// of the base half of the chain compare epochs to decide whether the
    /// view is still current without re-walking the property list.
    pub chain_epoch: u64,
    /// The users holding a reference to this document: the per-document
    /// index into the space's `(user, document)` reference table, kept in
    /// step with it by [`crate::space::DocumentSpace`], so reaching every
    /// reference of one document costs its holders, not the table.
    pub(crate) holders: BTreeSet<UserId>,
    /// Every kind a holder's personal property ever registered for (it
    /// only grows), so an event of any other kind skips the walk over
    /// `holders`.
    pub(crate) listening: Interests,
}

impl BaseDocument {
    /// Creates a base document over `provider` with no properties.
    pub fn new(id: DocumentId, provider: Arc<dyn BitProvider>) -> Self {
        Self {
            id,
            provider,
            universal: PropertyList::new(),
            chain_epoch: 0,
            holders: BTreeSet::new(),
            listening: Interests::NONE,
        }
    }
}

/// One user's personalized view of a base document.
pub struct DocumentReference {
    /// The owning user.
    pub owner: UserId,
    /// The base document this reference points at.
    pub doc: DocumentId,
    /// Personal properties, seen only by the owner.
    pub personal: PropertyList,
}

impl DocumentReference {
    /// Creates a reference for `owner` pointing at `doc`, with no
    /// properties.
    pub fn new(owner: UserId, doc: DocumentId) -> Self {
        Self {
            owner,
            doc,
            personal: PropertyList::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitprovider::MemoryProvider;
    use crate::content::PropertyValue;
    use crate::id::PropertyId;
    use crate::property::AttachedProperty;

    #[test]
    fn base_document_carries_provider_and_properties() {
        let provider = MemoryProvider::new("p", "content", 0);
        let mut base = BaseDocument::new(DocumentId(1), provider);
        assert!(base.universal.is_empty());
        base.universal.attach(
            PropertyId(1),
            AttachedProperty::Static {
                name: "versioned".into(),
                value: PropertyValue::Bool(true),
            },
        );
        assert_eq!(base.universal.len(), 1);
        assert!(base.provider.describe().starts_with("memory:"));
    }

    #[test]
    fn references_are_per_user() {
        let r1 = DocumentReference::new(UserId(1), DocumentId(9));
        let r2 = DocumentReference::new(UserId(2), DocumentId(9));
        assert_eq!(r1.doc, r2.doc);
        assert_ne!(r1.owner, r2.owner);
        assert!(r1.personal.is_empty());
    }
}
