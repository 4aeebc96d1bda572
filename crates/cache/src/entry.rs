//! Cache entry metadata.
//!
//! The bytes themselves live in the signature-deduplicated
//! [`crate::store::ConcurrentStore`]; an [`EntryMeta`] carries everything
//! else the read path shipped with them: verifiers, the cacheability
//! indicator, the replacement cost, and bookkeeping.

use placeless_core::cacheability::Cacheability;
use placeless_core::verifier::Verifier;
use placeless_simenv::Instant;
use std::ops::Deref;

/// An entry's verifiers, in the order the read path shipped them. A lone
/// verifier — the common case, the provider's — is held in place, so a
/// hit reaches it without loading a buffer first; several sit in a `Vec`.
pub(crate) enum Verifiers {
    One([Box<dyn Verifier>; 1]),
    Many(Vec<Box<dyn Verifier>>),
}

impl Deref for Verifiers {
    type Target = [Box<dyn Verifier>];

    fn deref(&self) -> &Self::Target {
        match self {
            Self::One(one) => one,
            Self::Many(many) => many,
        }
    }
}

/// Metadata for one resident `(document, user)` entry; its size is its bytes' length.
pub(crate) struct EntryMeta {
    /// Verifiers executed on every hit.
    pub(crate) verifiers: Verifiers,
    /// How the entry may be served.
    pub(crate) cacheability: Cacheability,
    /// Effective replacement cost (µs) supplied by the read path.
    pub(crate) cost_micros: f64,
    /// When the entry was filled.
    pub(crate) filled_at: Instant,
    /// Whether a QoS property pinned this entry (never evicted).
    pub(crate) pinned: bool,
    /// Whether the entry was filled by a prefetch rather than a miss.
    pub(crate) prefetched: bool,
}

impl EntryMeta {
    /// Creates entry metadata.
    pub(crate) fn new(
        verifiers: Vec<Box<dyn Verifier>>,
        cacheability: Cacheability,
        cost_micros: f64,
        filled_at: Instant,
    ) -> Self {
        Self {
            verifiers: verifiers
                .try_into()
                .map_or_else(Verifiers::Many, Verifiers::One),
            cacheability,
            cost_micros,
            filled_at,
            pinned: false,
            prefetched: false,
        }
    }
}

impl std::fmt::Debug for EntryMeta {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EntryMeta")
            .field("verifiers", &self.verifiers.len())
            .field("cacheability", &self.cacheability)
            .field("cost_micros", &self.cost_micros)
            .field("filled_at", &self.filled_at)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use placeless_core::verifier::{run_all, ClosureVerifier, Validity};
    use placeless_simenv::VirtualClock;

    #[test]
    fn debug_does_not_require_verifier_debug() {
        let meta = EntryMeta::new(vec![], Cacheability::CacheableWithEvents, 0.0, Instant(0));
        let s = format!("{meta:?}");
        assert!(s.contains("CacheableWithEvents"));
    }

    /// Each verifier's heap object, by address: what must survive the move
    /// into [`Verifiers`] unchanged and in order.
    fn addresses(verifiers: &[Box<dyn Verifier>]) -> Vec<*const ()> {
        verifiers
            .iter()
            .map(|v| &**v as *const dyn Verifier as *const ())
            .collect()
    }

    #[test]
    fn verifiers_deref_to_the_slice_they_were_built_from() {
        let valid = |label| ClosureVerifier::new(label, 1, |_| Validity::Valid);
        for count in 0..3 {
            let shipped: Vec<_> = ["a", "b"].into_iter().take(count).map(valid).collect();
            let before = addresses(&shipped);
            let meta = EntryMeta::new(shipped, Cacheability::Unrestricted, 0.0, Instant(0));
            assert_eq!(addresses(&meta.verifiers), before, "{count} verifiers");
            assert_eq!(matches!(meta.verifiers, Verifiers::One(_)), count == 1);
        }
        assert_eq!(
            std::mem::size_of::<Verifiers>(),
            std::mem::size_of::<Vec<Box<dyn Verifier>>>(),
            "holding one in place costs the entry no bytes"
        );
    }

    #[test]
    fn run_all_over_an_entrys_verifiers_matches_the_vec() {
        let clock = VirtualClock::new();
        let replace = || Validity::Replace(bytes::Bytes::from_static(b"new"));
        let verdicts: [&[fn() -> Validity]; 5] = [
            &[],
            &[|| Validity::Valid],
            &[|| Validity::Unverifiable],
            &[replace, || Validity::Valid],
            &[|| Validity::Valid, || Validity::Invalid, || Validity::Valid],
        ];
        for (case, verdicts) in verdicts.into_iter().enumerate() {
            let shipped: Vec<_> = verdicts
                .iter()
                .zip(1..)
                .map(|(&verdict, cost)| ClosureVerifier::new("v", cost, move |_| verdict()))
                .collect();
            let expected = run_all(&shipped, &clock);
            let meta = EntryMeta::new(shipped, Cacheability::Unrestricted, 0.0, Instant(0));
            assert_eq!(run_all(&meta.verifiers, &clock), expected, "case {case}");
        }
    }
}
