//! Identifier newtypes for documents, references, users, and properties.
//!
//! The Placeless middleware keys everything on small copyable ids: base
//! documents are shared across users, document references are per-user, and
//! properties get ids so they can be modified or removed individually
//! (property *modification* is one of the paper's four invalidation causes).

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

macro_rules! define_id {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub u64);

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }
    };
}

define_id!(
    /// Identifies a base document (shared by all users holding references).
    DocumentId,
    "doc-"
);
define_id!(
    /// Identifies a user / document-space owner.
    UserId,
    "user-"
);
define_id!(
    /// Identifies one attached property instance on a document.
    PropertyId,
    "prop-"
);
define_id!(
    /// Identifies a cache instance subscribed to the invalidation bus.
    CacheId,
    "cache-"
);

/// Allocates monotonically increasing ids within one process.
#[derive(Debug, Default)]
pub struct IdAllocator {
    next: AtomicU64,
}

impl IdAllocator {
    /// Creates an allocator starting at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the next raw id.
    pub fn next(&self) -> u64 {
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    /// Returns the next id as a [`DocumentId`].
    pub fn next_document(&self) -> DocumentId {
        DocumentId(self.next())
    }

    /// Returns the next id as a [`PropertyId`].
    pub fn next_property(&self) -> PropertyId {
        PropertyId(self.next())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_format_with_prefix() {
        assert_eq!(format!("{}", DocumentId(3)), "doc-3");
        assert_eq!(format!("{:?}", UserId(7)), "user-7");
        assert_eq!(PropertyId(1).to_string(), "prop-1");
        assert_eq!(CacheId(0).to_string(), "cache-0");
    }

    #[test]
    fn allocator_is_monotonic_and_unique() {
        let alloc = IdAllocator::new();
        let a = alloc.next_document();
        let b = alloc.next_document();
        let c = alloc.next_property();
        assert!(a.0 < b.0 && b.0 < c.0);
    }

    #[test]
    fn ids_are_hashable_keys() {
        use std::collections::HashMap;
        let mut map = HashMap::new();
        map.insert((UserId(1), DocumentId(2)), "entry");
        assert_eq!(map.get(&(UserId(1), DocumentId(2))), Some(&"entry"));
        assert_eq!(map.get(&(UserId(2), DocumentId(2))), None);
    }
}
