//! Experiment **E-STAGE**: staged transform plans with intermediate-result
//! caching — the partial hit.
//!
//! The paper's central cost is that active properties force per-user
//! versions: every miss re-executes the full transform chain even when two
//! users share an identical base-property prefix. With stage caching on,
//! the compiled [`placeless_core::plan::TransformPlan`] content-addresses
//! each stage's output, so the first reader pays for the base chain once
//! and every later user's miss replays only its per-user reference suffix.
//!
//! The scenario: one document behind a `fetch_micros` provider, a
//! universal base chain of `base_chain` tagging transforms (each charging
//! `per_stage_micros`), and one per-user tagging transform. Every user's
//! rendition is distinct (the per-user tag defeats whole-version sharing),
//! so any saving must come from the staged prefix.

use crate::fields;
use crate::report::{Report, Value};
use crate::support::TagProperty;
use bytes::Bytes;
use placeless_cache::{CacheConfig, CacheStats, DocumentCache};
use placeless_core::prelude::*;
use placeless_simenv::trace::lorem_bytes;
use placeless_simenv::VirtualClock;

/// Scenario parameters.
#[derive(Debug, Clone, Copy)]
pub struct StageParams {
    /// Number of users reading the document.
    pub users: usize,
    /// Number of universal (user-independent) base transforms.
    pub base_chain: usize,
    /// Provider body size in bytes.
    pub body_bytes: usize,
    /// Execution cost of each base transform.
    pub per_stage_micros: u64,
    /// Execution cost of the per-user transform.
    pub tag_micros: u64,
    /// Provider fetch latency.
    pub fetch_micros: u64,
}

impl Default for StageParams {
    fn default() -> Self {
        Self {
            users: 4,
            base_chain: 3,
            body_bytes: 4_096,
            per_stage_micros: 2_000,
            tag_micros: 500,
            fetch_micros: 1_000,
        }
    }
}

impl StageParams {
    /// Bytes each `[base-i]` / `[user-u]` marker appends (single-digit
    /// indices).
    pub const MARKER_BYTES: usize = 8;

    /// Size of the `i`-th base stage's output (1-based).
    pub fn base_output_bytes(&self, i: usize) -> usize {
        self.body_bytes + i * Self::MARKER_BYTES
    }

    /// Size of one user's final rendition.
    pub fn final_bytes(&self) -> usize {
        self.base_output_bytes(self.base_chain) + Self::MARKER_BYTES
    }
}

/// The outcome of one run (stage caching on or off).
#[derive(Debug, Clone)]
pub struct StageResult {
    /// Whether intermediate stage outputs were retained.
    pub stage_cache: bool,
    /// The parameters the run used.
    pub params: StageParams,
    /// Cost of the very first read (cold everything).
    pub first_user_micros: u64,
    /// Mean cost of each *later* user's first read — the partial-hit
    /// measurement.
    pub later_user_mean_micros: u64,
    /// Cost of a repeat read by the first user (a whole-version hit).
    pub repeat_hit_micros: u64,
    /// Intermediate stage entries resident at the end.
    pub stage_entries: usize,
    /// Deduplicated content bytes resident.
    pub physical_bytes: u64,
    /// Bytes a share-nothing cache would hold.
    pub logical_bytes: u64,
    /// Full counter snapshot.
    pub stats: CacheStats,
}

/// Runs the scenario once with stage caching `on` or off.
pub fn run_one(stage_cache: bool, params: StageParams) -> StageResult {
    assert!(params.users >= 2, "need a second user for the partial hit");
    assert!(params.users < 10 && params.base_chain < 10, "single digits");
    let clock = VirtualClock::new();
    let space = DocumentSpace::new(clock.clone());
    let provider = MemoryProvider::new(
        "doc",
        lorem_bytes(7, params.body_bytes),
        params.fetch_micros,
    );
    let doc = space.create_document(UserId(0), provider);
    for i in 0..params.base_chain {
        space
            .attach_active(
                Scope::Universal,
                doc,
                TagProperty::new(&format!("base-{i}"), params.per_stage_micros),
            )
            .expect("attach base");
    }
    let users: Vec<UserId> = (1..=params.users as u64).map(UserId).collect();
    for &user in &users {
        space.add_reference(user, doc).expect("reference");
        space
            .attach_active(
                Scope::Personal(user),
                doc,
                TagProperty::new(&format!("user-{}", user.0), params.tag_micros),
            )
            .expect("attach tag");
    }

    let cache = DocumentCache::new(
        space,
        CacheConfig::builder()
            .capacity_bytes(u64::MAX)
            .stage_cache(stage_cache)
            .build(),
    );

    let t0 = clock.now();
    let _ = cache.read(users[0], doc).expect("first read");
    let first_user_micros = clock.now().since(t0);

    let t1 = clock.now();
    for &user in &users[1..] {
        let _ = cache.read(user, doc).expect("later read");
    }
    let later_user_mean_micros = clock.now().since(t1) / (params.users as u64 - 1);

    let t2 = clock.now();
    let _ = cache.read(users[0], doc).expect("repeat read");
    let repeat_hit_micros = clock.now().since(t2);

    let (physical_bytes, logical_bytes) = cache.resident_bytes();
    StageResult {
        stage_cache,
        params,
        first_user_micros,
        later_user_mean_micros,
        repeat_hit_micros,
        stage_entries: cache.stage_entry_count(),
        physical_bytes,
        logical_bytes,
        stats: cache.stats(),
    }
}

/// Runs the off/on pair.
pub fn sweep(params: StageParams) -> Vec<StageResult> {
    vec![run_one(false, params), run_one(true, params)]
}

/// The `BENCH_stage.json` artifact of one sweep.
pub fn report(params: StageParams, results: &[StageResult]) -> Report {
    let run = |r: &StageResult| {
        let reads = r.stats.hits + r.stats.misses;
        let read_micros = r.stats.hit_micros + r.stats.miss_micros;
        fields! {
            "stage_cache": r.stage_cache,
            "first_user_micros": r.first_user_micros,
            "later_user_mean_micros": r.later_user_mean_micros,
            "repeat_hit_micros": r.repeat_hit_micros,
            "mean_read_micros": Value::Float(read_micros as f64 / reads.max(1) as f64, 1),
            "stage_hits": r.stats.stage_hits,
            "stage_partial_hits": r.stats.stage_partial_hits,
            "stage_hit_rate": Value::Float(
                r.stats.stage_partial_hits as f64 / r.stats.misses.max(1) as f64,
                4,
            ),
            "stage_entries": r.stage_entries,
            "stage_bytes": r.stats.stage_bytes,
            "physical_bytes": r.physical_bytes,
            "logical_bytes": r.logical_bytes,
        }
    };
    Report {
        experiment: "stage",
        deterministic: true,
        params: fields! {
            "users": params.users,
            "base_chain": params.base_chain,
            "body_bytes": params.body_bytes,
            "per_stage_micros": params.per_stage_micros,
            "tag_micros": params.tag_micros,
            "fetch_micros": params.fetch_micros,
        },
        body: fields! { "runs": Value::rows(results, run) },
    }
}

/// Result of the zero-copy pass-through probe.
#[derive(Debug, Clone, Copy)]
pub struct PassthroughProbe {
    /// Body size driven through the chain.
    pub body_bytes: usize,
    /// Chain depth (all identity stages).
    pub chain: usize,
    /// The final output shares the input allocation: no stage copied.
    pub zero_copy: bool,
}

/// Drives one body through a pass-through (identity) chain with the
/// streaming executor and checks the walk never materializes a copy: the
/// final output *is* the input allocation (same pointer, same length), so
/// peak residency is one body regardless of chain depth — strictly below
/// the chunk-size × depth bound a chunk-buffering executor would need.
pub fn streaming_passthrough_probe(body_bytes: usize, chain: usize) -> PassthroughProbe {
    use placeless_core::plan::StagePipeline;

    let clock = VirtualClock::new();
    let space = DocumentSpace::new(clock.clone());
    let body = lorem_bytes(11, body_bytes);
    let provider = MemoryProvider::new("doc", body.clone(), 0);
    let user = UserId(1);
    let doc = space.create_document(user, provider);
    for i in 0..chain {
        space
            .attach_active(
                Scope::Universal,
                doc,
                crate::support::DelayProperty::new(i as u64),
            )
            .expect("attach identity stage");
    }
    let plan = space.read_plan(user, doc).expect("plan");
    let input = Bytes::from(body);
    let sig = md5(&input);
    let mut report = plan.seed_report(&clock);
    let mut pipeline = StagePipeline::from_root(&plan, input.clone(), sig);
    for index in 0..plan.len() {
        pipeline.execute(&clock, index, &mut report).expect("stage");
    }
    let (out, out_sig) = pipeline.finish();
    let out = out.expect("pipeline bytes");
    let zero_copy =
        out.len() == input.len() && out.as_ptr() == input.as_ptr() && out_sig == Some(sig);
    PassthroughProbe {
        body_bytes,
        chain,
        zero_copy,
    }
}

/// Result of the big-document live-feed smoke.
#[derive(Debug, Clone, Copy)]
pub struct BigDocSmoke {
    /// Live-feed frame size.
    pub frame_bytes: usize,
    /// One rendition's size (frame plus the three stage markers).
    pub out_bytes: usize,
    /// Uncacheable reads counted (both reads must forward to the feed).
    pub uncacheable_reads: u64,
    /// Physical bytes resident afterwards (must be zero).
    pub resident_bytes: u64,
}

/// Streams a multi-MiB live-feed frame through a three-stage tagging
/// chain. The feed votes `Uncacheable` and offers no verifier, so every
/// read must reach the repository, re-run the full chain, and leave
/// nothing resident — the worst case for the streaming executor, which
/// still must not regress correctness: both renditions carry the chain's
/// markers in order, and consecutive frames differ.
pub fn big_doc_smoke(frame_bytes: usize) -> BigDocSmoke {
    use placeless_repository::{LiveFeed, LiveFeedProvider};
    use placeless_simenv::{Link, LinkClass};

    let clock = VirtualClock::new();
    let space = DocumentSpace::new(clock.clone());
    let feed = LiveFeed::new("cam", frame_bytes, 9);
    let provider = LiveFeedProvider::new(feed, Link::of_class(LinkClass::Lan, 0));
    let user = UserId(1);
    let doc = space.create_document(user, provider);
    for i in 0..3 {
        space
            .attach_active(
                Scope::Universal,
                doc,
                TagProperty::new(&format!("big-{i}"), 10),
            )
            .expect("attach tag");
    }
    let cache = DocumentCache::new(
        space,
        CacheConfig::builder()
            .capacity_bytes(u64::MAX)
            .stage_cache(true)
            .build(),
    );
    let first = cache.read(user, doc).expect("first read");
    let second = cache.read(user, doc).expect("second read");
    let markers = b"[big-0][big-1][big-2]";
    for rendition in [&first, &second] {
        assert_eq!(
            rendition.len(),
            frame_bytes + markers.len(),
            "rendition must be the frame plus the three markers"
        );
        assert!(
            rendition.ends_with(markers),
            "stage markers must appear in chain order"
        );
    }
    assert_ne!(first, second, "live frames must differ read to read");
    let stats = cache.stats();
    assert_eq!(stats.uncacheable_reads, 2, "both reads forward to the feed");
    let (resident_bytes, _) = cache.resident_bytes();
    assert_eq!(
        resident_bytes, 0,
        "uncacheable content must not be retained"
    );
    BigDocSmoke {
        frame_bytes,
        out_bytes: frame_bytes + markers.len(),
        uncacheable_reads: stats.uncacheable_reads,
        resident_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The acceptance check: with stage caching on, a later user's
    /// read replays only the per-user suffix, so it costs less than the
    /// full-chain re-execution the plain cache pays.
    #[test]
    fn later_users_pay_only_the_reference_suffix() {
        let params = StageParams::default();
        let off = run_one(false, params);
        let on = run_one(true, params);

        // Plain cache: every user's first read re-executes the whole chain.
        let full_chain = params.fetch_micros + params.base_chain as u64 * params.per_stage_micros;
        assert!(off.later_user_mean_micros > full_chain);

        // Staged cache: later users skip the base chain entirely.
        assert!(
            on.later_user_mean_micros < off.later_user_mean_micros,
            "partial hit {} vs full re-execution {}",
            on.later_user_mean_micros,
            off.later_user_mean_micros
        );
        assert!(
            on.later_user_mean_micros
                < full_chain - (params.base_chain as u64 - 1) * params.per_stage_micros,
            "later read {} did not skip the base stages",
            on.later_user_mean_micros
        );
        // The first read still pays for everything.
        assert!(on.first_user_micros > full_chain);
        // Whole-version hits are unaffected either way.
        assert!(on.repeat_hit_micros < params.fetch_micros);
    }

    /// The other acceptance half: the shared base-stage bytes are resident
    /// exactly once across users.
    #[test]
    fn base_stage_bytes_resident_exactly_once() {
        let params = StageParams::default();
        let off = run_one(false, params);
        let on = run_one(true, params);

        // Every user's rendition is distinct, so the plain cache holds one
        // copy per user and nothing else.
        let finals = params.users as u64 * params.final_bytes() as u64;
        assert_eq!(off.physical_bytes, finals);
        assert_eq!(off.stage_entries, 0);

        // The staged cache adds each base intermediate once — not once per
        // user — and each user's tag-stage output shares bytes with that
        // user's final version entry.
        let base_once: u64 = (1..=params.base_chain)
            .map(|i| params.base_output_bytes(i) as u64)
            .sum();
        assert_eq!(on.physical_bytes, finals + base_once);
        assert_eq!(
            on.stage_entries,
            params.base_chain + params.users,
            "one entry per base stage plus one per user tag stage"
        );
        assert_eq!(on.stats.stage_bytes, base_once + finals);
    }

    /// Stage counters reflect the partial hits.
    #[test]
    fn stage_counters_track_partial_hits() {
        let params = StageParams::default();
        let on = run_one(true, params);
        // Each later user hits every base stage.
        assert_eq!(
            on.stats.stage_hits,
            (params.users as u64 - 1) * params.base_chain as u64
        );
        assert_eq!(on.stats.stage_partial_hits, params.users as u64 - 1);
        // The repeat read was a whole-version hit, not a stage walk.
        assert_eq!(on.stats.hits, 1);
        assert_eq!(on.stats.misses, params.users as u64);
    }

    /// With stage caching off the staged machinery is inert.
    #[test]
    fn stage_cache_off_is_inert() {
        let off = run_one(false, StageParams::default());
        assert_eq!(off.stats.stage_hits, 0);
        assert_eq!(off.stats.stage_partial_hits, 0);
        assert_eq!(off.stats.stage_bytes, 0);
    }
}
