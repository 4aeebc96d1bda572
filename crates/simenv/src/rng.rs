//! A small deterministic random number generator.
//!
//! Experiments must be reproducible bit-for-bit across runs and machines, so
//! the workspace uses its own seedable xorshift generator ([`SimRng`])
//! rather than OS entropy. The algorithm is `xorshift64*`, which is fast and
//! has no measurable bias for the workload-generation purposes here.

/// A seedable `xorshift64*` pseudo-random generator.
///
/// # Examples
///
/// ```
/// use placeless_simenv::SimRng;
///
/// let mut a = SimRng::seeded(7);
/// let mut b = SimRng::seeded(7);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    state: u64,
}

impl SimRng {
    /// Creates a generator from a seed; a zero seed is remapped to a fixed
    /// non-zero constant because xorshift has an all-zero fixed point.
    pub fn seeded(seed: u64) -> Self {
        Self {
            state: if seed == 0 {
                0x9E37_79B9_7F4A_7C15
            } else {
                seed
            },
        }
    }

    /// Returns the next value in the stream.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Returns a value uniformly distributed in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // Rejection sampling to avoid modulo bias for large bounds.
        let zone = u64::MAX - (u64::MAX % bound);
        loop {
            let v = self.next_u64();
            if v < zone {
                return v % bound;
            }
        }
    }

    /// Returns a value uniformly distributed in `[lo, hi]` (inclusive).
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn next_range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "empty range");
        lo + self.next_below(hi - lo + 1)
    }

    /// Returns a uniform floating point value in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 high bits give a uniform double in [0, 1).
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p.clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_equal_seeds() {
        let mut a = SimRng::seeded(42);
        let mut b = SimRng::seeded(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::seeded(1);
        let mut b = SimRng::seeded(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2);
    }

    #[test]
    fn zero_seed_is_usable() {
        let mut rng = SimRng::seeded(0);
        assert_ne!(rng.next_u64(), 0);
    }

    #[test]
    fn next_below_respects_bound() {
        let mut rng = SimRng::seeded(3);
        for _ in 0..1_000 {
            assert!(rng.next_below(7) < 7);
        }
    }

    #[test]
    fn next_range_inclusive() {
        let mut rng = SimRng::seeded(4);
        let mut seen_lo = false;
        let mut seen_hi = false;
        for _ in 0..2_000 {
            let v = rng.next_range(3, 5);
            assert!((3..=5).contains(&v));
            seen_lo |= v == 3;
            seen_hi |= v == 5;
        }
        assert!(seen_lo && seen_hi, "both endpoints should be reachable");
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut rng = SimRng::seeded(5);
        for _ in 0..1_000 {
            let v = rng.next_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::seeded(6);
        for _ in 0..100 {
            assert!(!rng.chance(0.0));
            assert!(rng.chance(1.0));
        }
    }

    #[test]
    fn chance_roughly_matches_probability() {
        let mut rng = SimRng::seeded(7);
        let hits = (0..10_000).filter(|_| rng.chance(0.3)).count();
        assert!((2_500..3_500).contains(&hits), "got {hits}");
    }
}
