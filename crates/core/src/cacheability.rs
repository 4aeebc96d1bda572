//! The three-level cacheability indicator.
//!
//! Every active property on the read path votes on how the resulting
//! content may be cached; the votes aggregate to the *most restrictive*
//! value (the meet of a three-element chain lattice), exactly as §3 "Cache
//! Management" describes:
//!
//! * [`Cacheability::Uncacheable`] — the content must not be cached at all
//!   (e.g. a live video bit-provider, or a transform that differs on every
//!   read).
//! * [`Cacheability::CacheableWithEvents`] — the cache may serve the bytes,
//!   but must forward the operation event so registered properties (e.g. a
//!   read-audit trail) still fire; the middleware triggers the properties
//!   without re-executing the full path.
//! * [`Cacheability::Unrestricted`] — normal caching.

/// How a document's content may be cached, ordered from most to least
/// restrictive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Cacheability {
    /// Content must not be cached.
    Uncacheable,
    /// Content may be cached, but operation events must be forwarded to the
    /// middleware so interested properties still trigger.
    CacheableWithEvents,
    /// Content may be cached with no restrictions.
    Unrestricted,
}

impl Cacheability {
    /// Combines two votes, keeping the most restrictive.
    ///
    /// # Examples
    ///
    /// ```
    /// use placeless_core::cacheability::Cacheability::*;
    ///
    /// assert_eq!(Unrestricted.combine(CacheableWithEvents), CacheableWithEvents);
    /// assert_eq!(CacheableWithEvents.combine(Uncacheable), Uncacheable);
    /// ```
    pub fn combine(self, other: Cacheability) -> Cacheability {
        self.min(other)
    }

    /// Returns `true` if the cache must forward operation events.
    pub fn requires_event_forwarding(self) -> bool {
        self == Cacheability::CacheableWithEvents
    }
}

impl Default for Cacheability {
    /// The default vote is [`Cacheability::Unrestricted`]: a property that
    /// says nothing places no restriction.
    fn default() -> Self {
        Cacheability::Unrestricted
    }
}

/// Aggregates an iterator of votes to the most restrictive value.
///
/// An empty iterator yields [`Cacheability::Unrestricted`].
pub fn aggregate<I: IntoIterator<Item = Cacheability>>(votes: I) -> Cacheability {
    votes
        .into_iter()
        .fold(Cacheability::Unrestricted, Cacheability::combine)
}

#[cfg(test)]
mod tests {
    use super::Cacheability::*;
    use super::*;

    const ALL: [Cacheability; 3] = [Uncacheable, CacheableWithEvents, Unrestricted];

    #[test]
    fn combine_picks_most_restrictive() {
        assert_eq!(Unrestricted.combine(Unrestricted), Unrestricted);
        assert_eq!(
            Unrestricted.combine(CacheableWithEvents),
            CacheableWithEvents
        );
        assert_eq!(Unrestricted.combine(Uncacheable), Uncacheable);
        assert_eq!(CacheableWithEvents.combine(Uncacheable), Uncacheable);
    }

    #[test]
    fn combine_is_commutative_and_associative() {
        for a in ALL {
            for b in ALL {
                assert_eq!(a.combine(b), b.combine(a));
                for c in ALL {
                    assert_eq!(a.combine(b).combine(c), a.combine(b.combine(c)));
                }
            }
        }
    }

    #[test]
    fn combine_is_idempotent_with_unrestricted_identity() {
        for a in ALL {
            assert_eq!(a.combine(a), a);
            assert_eq!(a.combine(Unrestricted), a);
        }
    }

    #[test]
    fn aggregate_empty_is_unrestricted() {
        assert_eq!(aggregate(std::iter::empty()), Unrestricted);
    }

    #[test]
    fn aggregate_takes_minimum() {
        assert_eq!(
            aggregate([Unrestricted, CacheableWithEvents, Unrestricted]),
            CacheableWithEvents
        );
        assert_eq!(aggregate([CacheableWithEvents, Uncacheable]), Uncacheable);
    }

    #[test]
    fn predicates() {
        assert!(CacheableWithEvents.requires_event_forwarding());
        assert!(!Unrestricted.requires_event_forwarding());
        assert!(!Uncacheable.requires_event_forwarding());
    }
}
