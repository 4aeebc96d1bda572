//! Cache entry metadata.
//!
//! The bytes themselves live in the signature-deduplicated
//! [`crate::store::ConcurrentStore`]; an [`EntryMeta`] carries everything
//! else the read path shipped with them: verifiers, the cacheability
//! indicator, the replacement cost, and bookkeeping.

use placeless_core::cacheability::Cacheability;
use placeless_core::verifier::Verifier;
use placeless_simenv::Instant;

/// Metadata for one resident `(document, user)` entry.
pub struct EntryMeta {
    /// Verifiers executed on every hit.
    pub verifiers: Vec<Box<dyn Verifier>>,
    /// How the entry may be served.
    pub cacheability: Cacheability,
    /// Effective replacement cost (µs) supplied by the read path.
    pub cost_micros: f64,
    /// Content size in bytes.
    pub size: u64,
    /// When the entry was filled.
    pub filled_at: Instant,
    /// Whether a QoS property pinned this entry (never evicted).
    pub pinned: bool,
    /// Whether the entry was filled by a prefetch rather than a miss.
    pub prefetched: bool,
    /// Set when a dropped invalidation may have covered this entry: the
    /// notifier guarantee is void, so verifiers must run on the next hit
    /// even if the cache normally skips them. Cleared once a verification
    /// passes.
    pub force_verify: bool,
}

impl EntryMeta {
    /// Creates entry metadata.
    pub fn new(
        verifiers: Vec<Box<dyn Verifier>>,
        cacheability: Cacheability,
        cost_micros: f64,
        size: u64,
        filled_at: Instant,
    ) -> Self {
        Self {
            verifiers,
            cacheability,
            cost_micros,
            size,
            filled_at,
            pinned: false,
            prefetched: false,
            force_verify: false,
        }
    }
}

impl std::fmt::Debug for EntryMeta {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EntryMeta")
            .field("verifiers", &self.verifiers.len())
            .field("cacheability", &self.cacheability)
            .field("cost_micros", &self.cost_micros)
            .field("size", &self.size)
            .field("filled_at", &self.filled_at)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn debug_does_not_require_verifier_debug() {
        let meta = EntryMeta::new(
            vec![],
            Cacheability::CacheableWithEvents,
            0.0,
            0,
            Instant(0),
        );
        let s = format!("{meta:?}");
        assert!(s.contains("CacheableWithEvents"));
    }
}
