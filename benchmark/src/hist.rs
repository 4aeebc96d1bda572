//! Fixed-bucket log-scale latency histogram.
//!
//! Every percentile the benchmark prints comes from one of these. Values
//! are nanoseconds. Below `2 * SUB` each value has its own bucket; above,
//! every power-of-two octave is split into `SUB` equal buckets, so a
//! bucket is at most `1 / SUB` (1.6 %) of its lower bound wide and a
//! reported percentile is within 2 % of the exact one. Recording is an
//! index computation and an increment: no allocation per sample, and two
//! histograms merge by adding their counts.

const SUB_BITS: u32 = 6;
const SUB: u64 = 1 << SUB_BITS;
/// Octaves `SUB_BITS + 1 ..= 63` plus the two exact octaves below them.
const BUCKETS: usize = ((64 - SUB_BITS) as usize + 1) * SUB as usize;

/// A mergeable histogram of `u64` samples.
#[derive(Clone)]
pub struct Histogram {
    counts: Box<[u64]>,
    total: u64,
    sum: u128,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

fn index_of(value: u64) -> usize {
    if value < 2 * SUB {
        return value as usize;
    }
    let exp = 63 - value.leading_zeros();
    let shift = exp - SUB_BITS;
    ((u64::from(shift) + 1) * SUB + ((value >> shift) - SUB)) as usize
}

/// Returns `(lower bound, width)` of bucket `index`.
fn bounds_of(index: usize) -> (u64, u64) {
    let index = index as u64;
    if index < 2 * SUB {
        return (index, 1);
    }
    let shift = index / SUB - 1;
    ((SUB + index % SUB) << shift, 1 << shift)
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self {
            counts: vec![0; BUCKETS].into_boxed_slice(),
            total: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.counts[index_of(value)] += 1;
        self.total += 1;
        self.sum += u128::from(value);
        self.max = self.max.max(value);
    }

    /// Adds every sample of `other` to `self`.
    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts.iter()) {
            *mine += theirs;
        }
        self.total += other.total;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Arithmetic mean of the samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Largest sample recorded (exact).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The `q`-quantile (`0.0 ..= 1.0`), interpolated by rank inside the
    /// bucket that holds it, so the result moves with the counts rather
    /// than snapping to a bucket edge. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * (self.total - 1) as f64;
        let mut before = 0u64;
        for (index, &count) in self.counts.iter().enumerate() {
            if count == 0 {
                continue;
            }
            if rank < (before + count) as f64 {
                let (lower, width) = bounds_of(index);
                let within = (rank - before as f64 + 0.5) / count as f64;
                return (lower as f64 + width as f64 * within).min(self.max as f64);
            }
            before += count;
        }
        self.max as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use placeless_simenv::SimRng;

    fn exact_quantile(sorted: &[u64], q: f64) -> f64 {
        sorted[(q * (sorted.len() - 1) as f64).round() as usize] as f64
    }

    #[test]
    fn buckets_tile_the_whole_range() {
        let mut expected_lower = 0u64;
        for index in 0..BUCKETS {
            let (lower, width) = bounds_of(index);
            assert_eq!(lower, expected_lower, "bucket {index} leaves a gap");
            assert_eq!(index_of(lower), index);
            assert_eq!(index_of(lower + (width - 1)), index);
            expected_lower = lower.wrapping_add(width);
        }
        assert_eq!(expected_lower, 0, "last bucket must end at 2^64");
        assert_eq!(index_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn bucket_width_is_under_two_percent() {
        for index in (2 * SUB as usize)..BUCKETS {
            let (lower, width) = bounds_of(index);
            assert!(width as f64 / lower as f64 <= 0.02, "bucket {index}");
        }
    }

    #[test]
    fn quantiles_track_a_sorted_vector_reference() {
        // Log-uniform over 100 ns .. 10 ms: the span from a cache hit to a
        // whole flush.
        let mut rng = SimRng::seeded(7);
        let mut hist = Histogram::new();
        let mut values = Vec::new();
        for _ in 0..200_000 {
            let v = (100.0 * 10f64.powf(rng.next_f64() * 5.0)) as u64;
            hist.record(v);
            values.push(v);
        }
        values.sort_unstable();
        for q in [0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let exact = exact_quantile(&values, q);
            let got = hist.quantile(q);
            assert!(
                (got - exact).abs() / exact <= 0.02,
                "q{q}: histogram {got} vs exact {exact}"
            );
        }
        assert_eq!(hist.count(), 200_000);
        assert_eq!(hist.max(), *values.last().unwrap());
        let mean = values.iter().sum::<u64>() as f64 / values.len() as f64;
        assert!((hist.mean() - mean).abs() < 1e-6 * mean);
    }

    #[test]
    fn small_values_are_exact() {
        let mut hist = Histogram::new();
        for v in [3u64, 3, 3, 90, 127] {
            hist.record(v);
        }
        assert_eq!(hist.quantile(0.0).floor(), 3.0);
        assert_eq!(hist.quantile(0.75).floor(), 90.0);
        assert_eq!(hist.quantile(1.0), 127.0);
    }

    #[test]
    fn merge_equals_recording_into_one() {
        let mut rng = SimRng::seeded(9);
        let (mut a, mut b, mut both) = (Histogram::new(), Histogram::new(), Histogram::new());
        for i in 0..10_000 {
            let v = rng.next_below(5_000_000) + 1;
            if i % 3 == 0 { &mut a } else { &mut b }.record(v);
            both.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), both.count());
        assert_eq!(a.max(), both.max());
        assert_eq!(a.mean(), both.mean());
        for q in [0.1, 0.5, 0.99] {
            assert_eq!(a.quantile(q), both.quantile(q));
        }
    }

    #[test]
    fn empty_histogram_reports_zero() {
        let hist = Histogram::new();
        assert_eq!(hist.quantile(0.5), 0.0);
        assert_eq!(hist.mean(), 0.0);
        assert_eq!(hist.count(), 0);
    }
}
