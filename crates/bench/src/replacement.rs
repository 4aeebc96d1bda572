//! Experiment **E-RP**: cost-aware replacement (§3 Cache Management).
//!
//! "A cache may wish to tailor its replacement policy to favor documents
//! with numerous or complicated active properties to increase the benefit
//! that caching provides." The prototype used Greedy-Dual-Size keyed on the
//! replacement costs properties supply; this experiment reruns the same
//! Zipf workload under GDS and the classic baselines and reports both hit
//! rate and the metric that actually matters here: mean access latency,
//! which only a cost-aware policy optimizes.

use crate::support::DelayProperty;
use placeless_cache::{CacheConfig, DocumentCache, PolicyFactory};
use placeless_core::prelude::*;
use placeless_simenv::trace::{lorem_bytes, WorkloadBuilder};
use placeless_simenv::VirtualClock;

/// The outcome of one `(policy, capacity)` cell.
#[derive(Debug, Clone)]
pub struct ReplacementResult {
    /// Policy name.
    pub policy: String,
    /// Cache capacity as a fraction of the corpus bytes.
    pub capacity_frac: f64,
    /// Cache hit rate.
    pub hit_rate: f64,
    /// Mean access latency in simulated microseconds.
    pub mean_access_micros: u64,
    /// Evictions performed.
    pub evictions: u64,
}

/// Experiment parameters.
#[derive(Debug, Clone, Copy)]
pub struct ReplacementParams {
    /// Number of documents in the corpus.
    pub documents: usize,
    /// Number of reads.
    pub reads: usize,
    /// Zipf exponent for popularity.
    pub zipf_theta: f64,
    /// Workload seed.
    pub seed: u64,
}

impl Default for ReplacementParams {
    fn default() -> Self {
        Self {
            documents: 300,
            reads: 5_000,
            zipf_theta: 0.8,
            seed: 1999,
        }
    }
}

/// Runs one policy at one capacity fraction.
///
/// Corpus construction: document sizes vary 256 B – 16 KiB and property
/// cost varies 0 – 5 delay properties of 2 ms each, both deterministic in
/// the document index, so every policy sees the identical universe and
/// workload.
pub fn run_one(
    policy_name: &str,
    capacity_frac: f64,
    params: ReplacementParams,
) -> ReplacementResult {
    let user = UserId(1);
    let clock = VirtualClock::new();
    let space = DocumentSpace::new(clock.clone());

    let mut docs = Vec::with_capacity(params.documents);
    let mut corpus_bytes = 0u64;
    for i in 0..params.documents {
        // Sizes cycle through 256 B .. 16 KiB; popular (low-index) docs are
        // not systematically small or big.
        let size = 256usize << (i % 7);
        corpus_bytes += size as u64;
        let provider =
            MemoryProvider::new(&format!("doc{i}"), lorem_bytes(i as u64 + 1, size), 1_000);
        let doc = space.create_document(user, provider);
        // Property cost: 0–5 transforms of 2 ms each, cycling with a
        // stride coprime to the size cycle.
        for _ in 0..(i % 6) {
            space
                .attach_active(Scope::Personal(user), doc, DelayProperty::new(2_000))
                .expect("attach");
        }
        docs.push(doc);
    }

    let cache = DocumentCache::new(
        space.clone(),
        CacheConfig {
            capacity_bytes: ((corpus_bytes as f64) * capacity_frac) as u64,
            policy: PolicyFactory::by_name(policy_name).expect("known policy"),
            // The experiment compares policies, not sharding. The default
            // (one shard per CPU) splits each policy into per-shard
            // instances over the one byte budget, so the ranking would
            // depend on the host's core count.
            shards: 1,
            ..CacheConfig::default()
        },
    );

    let workload = WorkloadBuilder::new(params.seed)
        .users(1)
        .documents(params.documents)
        .zipf_theta(params.zipf_theta)
        .write_fraction(0.0)
        .events(params.reads)
        .mean_think_micros(0)
        .build();

    let mut access_micros = 0u64;
    for event in &workload {
        let t0 = clock.now();
        let _ = cache.read(user, docs[event.doc]).expect("read");
        access_micros += clock.now().since(t0);
    }

    let stats = cache.stats();
    ReplacementResult {
        policy: policy_name.to_owned(),
        capacity_frac,
        hit_rate: stats.hit_rate().unwrap_or(0.0),
        mean_access_micros: access_micros / params.reads as u64,
        evictions: stats.evictions,
    }
}

/// Sweeps all policies over the capacity fractions.
pub fn sweep(
    policies: &[&str],
    fracs: &[f64],
    params: ReplacementParams,
) -> Vec<ReplacementResult> {
    let mut results = Vec::new();
    for &frac in fracs {
        for &policy in policies {
            results.push(run_one(policy, frac, params));
        }
    }
    results
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> ReplacementParams {
        ReplacementParams {
            documents: 80,
            reads: 1_200,
            zipf_theta: 0.8,
            seed: 7,
        }
    }

    #[test]
    fn tight_capacity_forces_evictions_and_hurts_hit_rate() {
        let tight = run_one("lru", 0.05, small());
        let roomy = run_one("lru", 0.9, small());
        assert!(tight.evictions > 0);
        assert!(roomy.hit_rate > tight.hit_rate);
    }

    #[test]
    fn gds_beats_cost_blind_policies_on_latency() {
        let params = small();
        let gds = run_one("gds", 0.10, params);
        // The best cost-blind baseline still pays more time per access.
        for baseline in ["lru", "fifo", "gd1"] {
            let other = run_one(baseline, 0.10, params);
            assert!(
                gds.mean_access_micros <= other.mean_access_micros,
                "gds {}µs vs {} {}µs",
                gds.mean_access_micros,
                baseline,
                other.mean_access_micros
            );
        }
    }

    #[test]
    fn identical_setup_is_deterministic() {
        let a = run_one("gds", 0.2, small());
        let b = run_one("gds", 0.2, small());
        assert_eq!(a.hit_rate, b.hit_rate);
        assert_eq!(a.mean_access_micros, b.mean_access_micros);
    }

    #[test]
    fn full_capacity_approaches_compulsory_miss_rate() {
        let result = run_one("gds", 2.0, small());
        assert_eq!(result.evictions, 0);
        // Only first-touch misses: hit rate = 1 - unique/reads, roughly.
        assert!(result.hit_rate > 0.9, "hit rate {}", result.hit_rate);
    }
}
