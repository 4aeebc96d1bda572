//! Workload generation for the benchmark harness.
//!
//! The paper evaluates caching under document workloads; its successors
//! (e.g. the Greedy-Dual-Size paper it cites) use Zipf-distributed document
//! popularity and mixed read/write streams. This module produces such
//! streams deterministically from a seed: a [`ZipfSampler`] for popularity,
//! and a [`WorkloadBuilder`] that emits a sequence of [`AccessEvent`]s over a
//! simulated user population.

use crate::rng::SimRng;

/// Samples from a Zipf distribution over ranks `0..n`.
///
/// Rank 0 is the most popular item. Uses the classic inverse-CDF over a
/// precomputed harmonic table, which is exact and fast enough for the corpus
/// sizes used in the benches (≤ tens of thousands).
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    cdf: Vec<f64>,
}

impl ZipfSampler {
    /// Builds a sampler over `n` items with exponent `theta` (typically
    /// 0.6–1.0 for web workloads).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize, theta: f64) -> Self {
        assert!(n > 0, "Zipf over an empty universe");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for rank in 1..=n {
            acc += 1.0 / (rank as f64).powf(theta);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        Self { cdf }
    }

    /// Samples a rank in `0..n`.
    pub fn sample(&self, rng: &mut SimRng) -> usize {
        let u = rng.next_f64();
        match self
            .cdf
            .binary_search_by(|p| p.partial_cmp(&u).expect("CDF is finite"))
        {
            Ok(i) => i,
            Err(i) => i.min(self.cdf.len() - 1),
        }
    }
}

/// One access in a generated workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessEvent {
    /// Index of the user performing the access.
    pub user: usize,
    /// Index (rank) of the document accessed.
    pub doc: usize,
    /// Whether the access is a write (save) rather than a read (open).
    pub is_write: bool,
    /// Microseconds of think time before this access.
    pub think_micros: u64,
}

/// Deterministically generates a stream of [`AccessEvent`]s.
///
/// # Examples
///
/// ```
/// use placeless_simenv::trace::WorkloadBuilder;
///
/// let events = WorkloadBuilder::new(99)
///     .users(4)
///     .documents(100)
///     .zipf_theta(0.8)
///     .write_fraction(0.1)
///     .events(1_000)
///     .build();
/// assert_eq!(events.len(), 1_000);
/// assert!(events.iter().all(|e| e.user < 4 && e.doc < 100));
/// ```
#[derive(Debug, Clone)]
pub struct WorkloadBuilder {
    seed: u64,
    users: usize,
    documents: usize,
    zipf_theta: f64,
    write_fraction: f64,
    events: usize,
    mean_think_micros: u64,
}

impl WorkloadBuilder {
    /// Creates a builder with small defaults (1 user, 10 documents,
    /// theta 0.8, 10 % writes, 100 events, 1 ms mean think time).
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            users: 1,
            documents: 10,
            zipf_theta: 0.8,
            write_fraction: 0.1,
            events: 100,
            mean_think_micros: 1_000,
        }
    }

    /// Sets the number of simulated users.
    pub fn users(mut self, n: usize) -> Self {
        self.users = n.max(1);
        self
    }

    /// Sets the number of documents in the corpus.
    pub fn documents(mut self, n: usize) -> Self {
        self.documents = n.max(1);
        self
    }

    /// Sets the Zipf exponent for document popularity.
    pub fn zipf_theta(mut self, theta: f64) -> Self {
        self.zipf_theta = theta;
        self
    }

    /// Sets the fraction of accesses that are writes.
    pub fn write_fraction(mut self, f: f64) -> Self {
        self.write_fraction = f.clamp(0.0, 1.0);
        self
    }

    /// Sets the number of events to generate.
    pub fn events(mut self, n: usize) -> Self {
        self.events = n;
        self
    }

    /// Sets the mean think time between accesses, in microseconds.
    pub fn mean_think_micros(mut self, micros: u64) -> Self {
        self.mean_think_micros = micros;
        self
    }

    /// Generates the event stream.
    pub fn build(&self) -> Vec<AccessEvent> {
        let mut rng = SimRng::seeded(self.seed);
        let zipf = ZipfSampler::new(self.documents, self.zipf_theta);
        (0..self.events)
            .map(|_| {
                let user = rng.next_below(self.users as u64) as usize;
                let doc = zipf.sample(&mut rng);
                let is_write = rng.chance(self.write_fraction);
                // Geometric-ish think time: uniform in [0, 2 * mean].
                let think_micros = if self.mean_think_micros == 0 {
                    0
                } else {
                    rng.next_below(self.mean_think_micros * 2 + 1)
                };
                AccessEvent {
                    user,
                    doc,
                    is_write,
                    think_micros,
                }
            })
            .collect()
    }
}

/// Builds a [`TraceSampler`]: the million-user workload model behind the
/// E-LOAD experiment.
///
/// [`WorkloadBuilder`] materializes an event vector, which is fine for
/// thousands of events but not for load tests that stream tens of
/// millions of accesses from many threads. A `TraceSampler` instead holds
/// only the distribution tables (two Zipf CDFs) and derives everything
/// per-user *statelessly* from the seed — no per-user allocations, so a
/// 10^6-user population costs two tables, not a million working sets.
///
/// The model, following the Zipf-popularity trace methodology of the
/// Greedy-Dual-Size line of work:
///
/// * **which user** acts next is Zipf-distributed with exponent
///   `user_theta` (a few heavy users, a long tail);
/// * **which document** they touch is, with probability `locality`, drawn
///   uniformly from the user's own `working_set` documents (derived from
///   the user index by a fixed mix hash — the per-user skew), and
///   otherwise from the global Zipf popularity with exponent `doc_theta`;
/// * **whether** the access writes is an independent `write_fraction`
///   coin.
///
/// # Examples
///
/// ```
/// use placeless_simenv::trace::TraceBuilder;
///
/// let sampler = TraceBuilder::new(42).users(1_000).documents(64).build();
/// let mut rng = sampler.stream(0);
/// let event = sampler.next_event(&mut rng);
/// assert!(event.user < 1_000 && event.doc < 64);
/// ```
#[derive(Debug, Clone)]
pub struct TraceBuilder {
    seed: u64,
    users: usize,
    documents: usize,
    doc_theta: f64,
    user_theta: f64,
    locality: f64,
    working_set: usize,
    write_fraction: f64,
}

impl TraceBuilder {
    /// Creates a builder with load-test defaults (1000 users, 256
    /// documents, doc theta 0.9, user theta 0.6, 30 % locality over an
    /// 8-document working set, 2 % writes).
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            users: 1_000,
            documents: 256,
            doc_theta: 0.9,
            user_theta: 0.6,
            locality: 0.3,
            working_set: 8,
            write_fraction: 0.02,
        }
    }

    /// Sets the simulated user population.
    pub fn users(mut self, n: usize) -> Self {
        self.users = n.max(1);
        self
    }

    /// Sets the number of documents in the corpus.
    pub fn documents(mut self, n: usize) -> Self {
        self.documents = n.max(1);
        self
    }

    /// Sets the Zipf exponent for global document popularity.
    pub fn doc_theta(mut self, theta: f64) -> Self {
        self.doc_theta = theta;
        self
    }

    /// Sets the Zipf exponent for user activity skew.
    pub fn user_theta(mut self, theta: f64) -> Self {
        self.user_theta = theta;
        self
    }

    /// Sets the fraction of accesses directed at the acting user's own
    /// working set rather than the global popularity distribution.
    pub fn locality(mut self, fraction: f64) -> Self {
        self.locality = fraction.clamp(0.0, 1.0);
        self
    }

    /// Sets the per-user working-set size, in documents.
    pub fn working_set(mut self, docs: usize) -> Self {
        self.working_set = docs.max(1);
        self
    }

    /// Sets the fraction of accesses that are writes.
    pub fn write_fraction(mut self, fraction: f64) -> Self {
        self.write_fraction = fraction.clamp(0.0, 1.0);
        self
    }

    /// Builds the sampler (precomputes the two Zipf tables).
    pub fn build(&self) -> TraceSampler {
        TraceSampler {
            seed: self.seed,
            users: ZipfSampler::new(self.users, self.user_theta),
            docs: ZipfSampler::new(self.documents, self.doc_theta),
            documents: self.documents,
            locality: self.locality,
            working_set: self.working_set,
            write_fraction: self.write_fraction,
        }
    }
}

/// The immutable, thread-shareable workload model built by
/// [`TraceBuilder`]. All mutable state lives in the per-stream [`SimRng`],
/// so any number of threads can sample one `TraceSampler` concurrently,
/// each on its own deterministic stream.
#[derive(Debug, Clone)]
pub struct TraceSampler {
    seed: u64,
    users: ZipfSampler,
    docs: ZipfSampler,
    documents: usize,
    locality: f64,
    working_set: usize,
    write_fraction: f64,
}

/// SplitMix64 finalizer: the fixed mix hash behind stream seeding and
/// stateless working-set derivation.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl TraceSampler {
    /// Returns the document universe size.
    pub fn documents(&self) -> usize {
        self.documents
    }

    /// Returns the deterministic generator for stream `stream_id`
    /// (typically one stream per worker thread). Streams with distinct
    /// ids diverge; the same `(seed, stream_id)` pair always reproduces
    /// the same event sequence.
    pub fn stream(&self, stream_id: u64) -> SimRng {
        SimRng::seeded(mix64(self.seed ^ mix64(stream_id)) | 1)
    }

    /// Returns the document in `user`'s working set at `slot`
    /// (`slot < working_set`), derived statelessly from the seed — the
    /// same `(user, slot)` always names the same document, with no
    /// per-user table.
    pub fn working_doc(&self, user: usize, slot: usize) -> usize {
        let h =
            mix64(self.seed ^ (user as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F) ^ (slot as u64));
        (h % self.documents as u64) as usize
    }

    /// Samples the next access on `rng`'s stream.
    pub fn next_event(&self, rng: &mut SimRng) -> AccessEvent {
        let user = self.users.sample(rng);
        let doc = if rng.chance(self.locality) {
            self.working_doc(user, rng.next_below(self.working_set as u64) as usize)
        } else {
            self.docs.sample(rng)
        };
        let is_write = rng.chance(self.write_fraction);
        AccessEvent {
            user,
            doc,
            is_write,
            think_micros: 0,
        }
    }
}

/// One phase of a [`BurstSchedule`]: a run of events offered at some
/// multiple of the baseline arrival rate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BurstPhase {
    /// Number of events in this phase (per driving stream).
    pub events: usize,
    /// Offered-load multiplier relative to the baseline rate. `1` is the
    /// calibrated steady state; `10` is a 10× burst.
    pub intensity: u32,
}

/// A piecewise-constant offered-load schedule for trace-driven engines.
///
/// Load experiments need more than a flat arrival rate: overload tests
/// alternate a calibrated steady phase with bursts several times above
/// capacity, and measure how the cache degrades and recovers. A
/// `BurstSchedule` captures that shape declaratively so the engine and
/// the experiment report agree on where each phase starts and ends.
///
/// # Examples
///
/// ```
/// use placeless_simenv::trace::BurstSchedule;
///
/// let schedule = BurstSchedule::steady(1_000).phase(500, 10).phase(250, 1);
/// let intensities: Vec<u32> = schedule.phases().iter().map(|p| p.intensity).collect();
/// assert_eq!(intensities, [1, 10, 1]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BurstSchedule {
    phases: Vec<BurstPhase>,
}

impl BurstSchedule {
    /// Starts a schedule with a steady phase of `events` at intensity 1.
    pub fn steady(events: usize) -> Self {
        Self {
            phases: vec![BurstPhase {
                events,
                intensity: 1,
            }],
        }
    }

    /// Appends a phase of `events` offered at `intensity`× the baseline.
    pub fn phase(mut self, events: usize, intensity: u32) -> Self {
        self.phases.push(BurstPhase {
            events,
            intensity: intensity.max(1),
        });
        self
    }

    /// Returns the phases in order.
    pub fn phases(&self) -> &[BurstPhase] {
        &self.phases
    }
}

/// Generates deterministic pseudo-text of roughly `bytes` length.
///
/// Used by repositories and benches to fill documents with word-like content
/// that transform properties (spell-check, translation, summarization) can
/// operate on meaningfully.
pub fn lorem_bytes(seed: u64, bytes: usize) -> Vec<u8> {
    const WORDS: &[&str] = &[
        "document",
        "property",
        "active",
        "cache",
        "placeless",
        "content",
        "stream",
        "verifier",
        "notifier",
        "replacement",
        "policy",
        "system",
        "server",
        "reference",
        "base",
        "user",
        "teh",
        "recieve",
        "adress",
        "workshop",
        "paper",
        "draft",
        "budget",
        "version",
        "latency",
    ];
    let mut rng = SimRng::seeded(seed);
    let mut out = Vec::with_capacity(bytes + 16);
    while out.len() < bytes {
        let w = WORDS[rng.next_below(WORDS.len() as u64) as usize];
        out.extend_from_slice(w.as_bytes());
        if rng.chance(0.12) {
            out.extend_from_slice(b".\n");
        } else {
            out.push(b' ');
        }
    }
    out.truncate(bytes);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_prefers_low_ranks() {
        let zipf = ZipfSampler::new(100, 0.9);
        let mut rng = SimRng::seeded(11);
        let mut counts = vec![0u32; 100];
        for _ in 0..20_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[50] && counts[0] > counts[99]);
        // Rank 0 should carry several percent of the mass at theta 0.9.
        assert!(counts[0] > 1_000, "rank 0 drew {}", counts[0]);
    }

    #[test]
    fn zipf_theta_zero_is_uniformish() {
        let zipf = ZipfSampler::new(10, 0.0);
        let mut rng = SimRng::seeded(12);
        let mut counts = vec![0u32; 10];
        for _ in 0..20_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        for &c in &counts {
            assert!((1_500..2_500).contains(&c), "count {c} far from uniform");
        }
    }

    #[test]
    fn zipf_single_item() {
        let zipf = ZipfSampler::new(1, 1.0);
        let mut rng = SimRng::seeded(13);
        for _ in 0..100 {
            assert_eq!(zipf.sample(&mut rng), 0);
        }
    }

    #[test]
    fn workload_is_deterministic() {
        let a = WorkloadBuilder::new(5)
            .users(3)
            .documents(50)
            .events(200)
            .build();
        let b = WorkloadBuilder::new(5)
            .users(3)
            .documents(50)
            .events(200)
            .build();
        assert_eq!(a, b);
    }

    #[test]
    fn workload_respects_bounds() {
        let events = WorkloadBuilder::new(6)
            .users(7)
            .documents(13)
            .write_fraction(0.5)
            .events(500)
            .build();
        assert!(events.iter().all(|e| e.user < 7 && e.doc < 13));
        let writes = events.iter().filter(|e| e.is_write).count();
        assert!(
            (150..350).contains(&writes),
            "write mix {writes} off target"
        );
    }

    #[test]
    fn write_fraction_zero_means_reads_only() {
        let events = WorkloadBuilder::new(7)
            .write_fraction(0.0)
            .events(300)
            .build();
        assert!(events.iter().all(|e| !e.is_write));
    }

    #[test]
    fn trace_sampler_streams_are_deterministic_and_independent() {
        let sampler = TraceBuilder::new(11).users(500).documents(64).build();
        let run = |stream: u64| {
            let mut rng = sampler.stream(stream);
            (0..200)
                .map(|_| sampler.next_event(&mut rng))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(0), run(0), "same stream must replay identically");
        assert_ne!(run(0), run(1), "distinct streams must diverge");
    }

    #[test]
    fn trace_sampler_respects_universe_bounds() {
        let sampler = TraceBuilder::new(3)
            .users(9)
            .documents(17)
            .working_set(4)
            .locality(0.5)
            .build();
        let mut rng = sampler.stream(7);
        for _ in 0..1_000 {
            let e = sampler.next_event(&mut rng);
            assert!(e.user < 9 && e.doc < 17);
        }
    }

    #[test]
    fn working_set_is_stable_per_user() {
        let sampler = TraceBuilder::new(5).documents(1_024).working_set(8).build();
        for user in [0usize, 1, 999_999] {
            for slot in 0..8 {
                assert_eq!(
                    sampler.working_doc(user, slot),
                    sampler.working_doc(user, slot)
                );
                assert!(sampler.working_doc(user, slot) < 1_024);
            }
        }
        // Different users should (overwhelmingly) see different sets.
        let a: Vec<_> = (0..8).map(|s| sampler.working_doc(1, s)).collect();
        let b: Vec<_> = (0..8).map(|s| sampler.working_doc(2, s)).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn locality_one_confines_reads_to_working_sets() {
        let sampler = TraceBuilder::new(9)
            .users(50)
            .documents(4_096)
            .working_set(4)
            .locality(1.0)
            .build();
        let mut rng = sampler.stream(0);
        for _ in 0..500 {
            let e = sampler.next_event(&mut rng);
            let set: Vec<_> = (0..4).map(|s| sampler.working_doc(e.user, s)).collect();
            assert!(set.contains(&e.doc), "doc {} outside working set", e.doc);
        }
    }

    #[test]
    fn burst_schedule_maps_indices_to_phases() {
        let schedule = BurstSchedule::steady(100).phase(50, 10).phase(25, 2);
        let phases: Vec<(usize, u32)> = schedule
            .phases()
            .iter()
            .map(|p| (p.events, p.intensity))
            .collect();
        assert_eq!(phases, [(100, 1), (50, 10), (25, 2)]);
    }

    #[test]
    fn burst_schedule_floors_intensity_at_one() {
        let schedule = BurstSchedule::steady(10).phase(10, 0);
        assert_eq!(schedule.phases()[1].intensity, 1);
    }

    #[test]
    fn lorem_bytes_exact_length_and_deterministic() {
        let a = lorem_bytes(1, 1_915);
        let b = lorem_bytes(1, 1_915);
        assert_eq!(a.len(), 1_915);
        assert_eq!(a, b);
        assert_ne!(a, lorem_bytes(2, 1_915));
        assert!(std::str::from_utf8(&a).is_ok());
    }
}
