//! Collection prefetching.
//!
//! §5's "mechanisms that tailor caching for related documents (e.g.,
//! contained in a collection)": when a read misses on a document that
//! belongs to a collection, the cache can pull the sibling documents in the
//! same pass, so browsing a collection pays one cold start instead of one
//! per member. [`PrefetchConfig`] bounds how many siblings a single miss
//! may drag in.

/// How the cache handles collection siblings on a miss: prefetch is on
/// exactly when `max_per_miss` is above zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefetchConfig {
    /// Maximum sibling documents fetched per triggering miss.
    pub max_per_miss: usize,
}

impl PrefetchConfig {
    /// Prefetch disabled.
    pub const OFF: PrefetchConfig = PrefetchConfig { max_per_miss: 0 };

    /// Prefetch up to `max_per_miss` siblings per miss.
    pub fn up_to(max_per_miss: usize) -> Self {
        Self { max_per_miss }
    }
}

impl Default for PrefetchConfig {
    fn default() -> Self {
        Self::OFF
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_is_disabled() {
        let off = PrefetchConfig::OFF;
        assert_eq!(off.max_per_miss, 0);
        assert_eq!(PrefetchConfig::default(), off);
    }

    #[test]
    fn up_to_zero_is_disabled() {
        assert_eq!(PrefetchConfig::up_to(0), PrefetchConfig::OFF);
        assert_eq!(PrefetchConfig::up_to(4).max_per_miss, 4);
    }
}
