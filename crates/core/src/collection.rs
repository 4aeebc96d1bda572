//! Document collections.
//!
//! §5 flags "mechanisms that tailor caching for related documents (e.g.,
//! contained in a collection)" as uninvestigated future work. This module
//! supplies the substrate: named collections of documents, recorded both in
//! a registry (for efficient member enumeration by caches that want to
//! prefetch) and as a `collection` static property on each member's base
//! document (so membership is visible and mutations flow through the normal
//! property-event machinery — adding a document to a collection fires
//! `PropertySet` like any other attach).

use crate::id::DocumentId;
use parking_lot::RwLock;
use std::collections::{BTreeMap, BTreeSet};

/// A registry of named document collections.
#[derive(Debug, Default)]
pub struct Collections {
    by_name: RwLock<BTreeMap<String, BTreeSet<DocumentId>>>,
}

impl Collections {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `doc` to the named collection, creating it if needed.
    /// Returns `true` if the document was newly added.
    pub fn add(&self, name: &str, doc: DocumentId) -> bool {
        self.by_name
            .write()
            .entry(name.to_owned())
            .or_default()
            .insert(doc)
    }

    /// Removes `doc` from the named collection; empty collections vanish.
    /// Returns `true` if the document was a member.
    pub fn remove(&self, name: &str, doc: DocumentId) -> bool {
        let mut by_name = self.by_name.write();
        let Some(members) = by_name.get_mut(name) else {
            return false;
        };
        let removed = members.remove(&doc);
        if members.is_empty() {
            by_name.remove(name);
        }
        removed
    }

    /// Returns the members of a collection, sorted.
    pub fn members(&self, name: &str) -> Vec<DocumentId> {
        self.by_name
            .read()
            .get(name)
            .map(|m| m.iter().copied().collect())
            .unwrap_or_default()
    }

    /// Returns the collections `doc` belongs to, sorted.
    pub fn collections_of(&self, doc: DocumentId) -> Vec<String> {
        self.by_name
            .read()
            .iter()
            .filter(|(_, members)| members.contains(&doc))
            .map(|(name, _)| name.clone())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_enumerate() {
        let collections = Collections::new();
        assert!(collections.add("budget", DocumentId(1)));
        assert!(collections.add("budget", DocumentId(2)));
        assert!(!collections.add("budget", DocumentId(1)), "already there");
        assert_eq!(
            collections.members("budget"),
            vec![DocumentId(1), DocumentId(2)]
        );
        assert!(collections.members("other").is_empty());
    }

    #[test]
    fn membership_is_many_to_many() {
        let collections = Collections::new();
        collections.add("budget", DocumentId(1));
        collections.add("drafts", DocumentId(1));
        collections.add("drafts", DocumentId(2));
        assert_eq!(
            collections.collections_of(DocumentId(1)),
            vec!["budget", "drafts"]
        );
        assert_eq!(collections.collections_of(DocumentId(2)), vec!["drafts"]);
        assert!(collections.collections_of(DocumentId(3)).is_empty());
    }

    #[test]
    fn remove_cleans_up_empty_collections() {
        let collections = Collections::new();
        collections.add("tmp", DocumentId(1));
        assert!(collections.remove("tmp", DocumentId(1)));
        assert!(!collections.remove("tmp", DocumentId(1)));
        assert!(collections.members("tmp").is_empty());
        assert!(!collections.remove("ghost", DocumentId(1)));
    }
}
