//! Document events and property interest sets.
//!
//! Active properties are event driven: they register for the events that can
//! occur on a document (`getInputStream`, `getOutputStream`, property
//! mutations, timers, ...) and are invoked whenever a registered event
//! fires. This module defines the event vocabulary and the compact interest
//! set used for registration.

use crate::id::{DocumentId, PropertyId, UserId};

/// The kinds of events a property can register for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u16)]
pub enum EventKind {
    /// A read path is being assembled (`getInputStream`).
    GetInputStream = 1 << 0,
    /// A write path is being assembled (`getOutputStream`).
    GetOutputStream = 1 << 1,
    /// A property was attached to the document.
    PropertySet = 1 << 2,
    /// A property was removed from the document.
    PropertyRemoved = 1 << 3,
    /// A property instance was modified in place (e.g. upgraded).
    PropertyModified = 1 << 4,
    /// The relative order of the document's properties changed.
    PropertyReordered = 1 << 5,
    /// A periodic timer tick (used by e.g. replication properties).
    Timer = 1 << 6,
    /// A write path completed and new content reached the bit-provider.
    ContentWritten = 1 << 7,
    /// A cache served a read locally and forwarded the operation event
    /// (the `CacheableWithEvents` collaboration mode).
    CacheRead = 1 << 8,
    /// A cache absorbed a write locally (write-back) and forwarded the
    /// operation event.
    CacheWrite = 1 << 9,
}

impl EventKind {
    /// All event kinds, in declaration order.
    pub const ALL: [EventKind; 10] = [
        EventKind::GetInputStream,
        EventKind::GetOutputStream,
        EventKind::PropertySet,
        EventKind::PropertyRemoved,
        EventKind::PropertyModified,
        EventKind::PropertyReordered,
        EventKind::Timer,
        EventKind::ContentWritten,
        EventKind::CacheRead,
        EventKind::CacheWrite,
    ];
}

/// A set of [`EventKind`]s a property is interested in, stored as a bitmask.
///
/// # Examples
///
/// ```
/// use placeless_core::event::{EventKind, Interests};
///
/// let set = Interests::of(&[EventKind::GetInputStream, EventKind::Timer]);
/// assert!(set.contains(EventKind::Timer));
/// assert!(!set.contains(EventKind::GetOutputStream));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Interests(u16);

impl Interests {
    /// The empty interest set.
    pub const NONE: Interests = Interests(0);

    /// Builds an interest set from a slice of kinds.
    pub fn of(kinds: &[EventKind]) -> Self {
        let mut mask = 0;
        for &k in kinds {
            mask |= k as u16;
        }
        Interests(mask)
    }

    /// Returns `true` if `kind` is in the set.
    pub fn contains(self, kind: EventKind) -> bool {
        self.0 & kind as u16 != 0
    }

    /// Returns the union of two interest sets.
    pub fn union(self, other: Interests) -> Interests {
        Interests(self.0 | other.0)
    }

    /// Adds a kind, builder style.
    pub fn and(self, kind: EventKind) -> Interests {
        Interests(self.0 | kind as u16)
    }
}

/// Where on a document an event originated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventSite {
    /// On the base document (universal scope).
    Base,
    /// On a user's document reference (personal scope).
    Reference(UserId),
}

/// A concrete event delivered to registered active properties.
#[derive(Debug, Clone)]
pub struct DocumentEvent {
    /// The kind of event.
    pub kind: EventKind,
    /// The base document the event concerns.
    pub doc: DocumentId,
    /// The user whose operation triggered the event, when applicable.
    pub user: Option<UserId>,
    /// Where the mutated property lives, for property-mutation events.
    pub site: Option<EventSite>,
    /// The property involved, for property-mutation events.
    pub property: Option<PropertyId>,
    /// The name of the property involved, for property-mutation events.
    pub property_name: Option<String>,
}

impl DocumentEvent {
    /// Creates a bare event of `kind` on `doc`.
    pub fn new(kind: EventKind, doc: DocumentId) -> Self {
        Self {
            kind,
            doc,
            user: None,
            site: None,
            property: None,
            property_name: None,
        }
    }

    /// Sets the triggering user, builder style.
    pub fn by(mut self, user: UserId) -> Self {
        self.user = Some(user);
        self
    }

    /// Sets the property-mutation details, builder style.
    pub fn about_property(mut self, site: EventSite, id: PropertyId, name: &str) -> Self {
        self.site = Some(site);
        self.property = Some(id);
        self.property_name = Some(name.to_owned());
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interests_membership() {
        let set = Interests::of(&[EventKind::Timer]);
        assert!(set.contains(EventKind::Timer));
        for k in EventKind::ALL {
            if k != EventKind::Timer {
                assert!(!set.contains(k), "{k:?} should be absent");
            }
        }
    }

    #[test]
    fn interests_union_and_builder() {
        let a = Interests::of(&[EventKind::GetInputStream]);
        let b = Interests::of(&[EventKind::GetOutputStream]);
        let u = a.union(b).and(EventKind::Timer);
        assert!(u.contains(EventKind::GetInputStream));
        assert!(u.contains(EventKind::GetOutputStream));
        assert!(u.contains(EventKind::Timer));
    }

    #[test]
    fn interests_all_and_none() {
        let all = Interests::of(&EventKind::ALL);
        for k in EventKind::ALL {
            assert!(all.contains(k));
            assert!(!Interests::NONE.contains(k));
        }
    }

    #[test]
    fn event_kinds_have_distinct_bits() {
        for (i, a) in EventKind::ALL.iter().enumerate() {
            for b in &EventKind::ALL[i + 1..] {
                assert_eq!(*a as u16 & *b as u16, 0, "{a:?} and {b:?} overlap");
            }
        }
    }

    #[test]
    fn event_builder_fills_fields() {
        let ev = DocumentEvent::new(EventKind::PropertySet, DocumentId(1))
            .by(UserId(2))
            .about_property(EventSite::Reference(UserId(2)), PropertyId(5), "spell");
        assert_eq!(ev.kind, EventKind::PropertySet);
        assert_eq!(ev.user, Some(UserId(2)));
        assert_eq!(ev.property, Some(PropertyId(5)));
        assert_eq!(ev.property_name.as_deref(), Some("spell"));
        assert_eq!(ev.site, Some(EventSite::Reference(UserId(2))));
    }
}
