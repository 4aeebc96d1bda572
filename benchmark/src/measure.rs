//! The two runs of one workload: the untraced run that yields the
//! end-to-end metrics, and the traced run that yields the per-layer ones.

use crate::driver::{run_rep, RepMode, RepOutcome};
use crate::env::{peak_rss_mib, reset_peak_rss};
use crate::hist::Histogram;
use crate::metrics::Reading;
use crate::probes;
use crate::span::{Layer, LayerTotals, ThreadTrace};
use crate::workload::{build_world, warm, Spec, Trace, World};
use crate::wrappers::Seam;
use std::time::Instant;

/// What one rep is sized to measure on the reference box, in seconds. A
/// run of `--seconds S` does `S / REP_SECONDS` reps: a count fixed by the
/// arguments, so every run of a commit computes the same statistic.
const REP_SECONDS: f64 = 0.8;
const MIN_REPS: usize = 3;
/// A run on a much slower box stops adding reps at this multiple of the
/// time it was asked to measure.
const OVERRUN: f64 = 2.0;

fn planned_reps(seconds: f64) -> usize {
    ((seconds / REP_SECONDS).ceil() as usize).max(MIN_REPS)
}

/// What a run hands back for printing.
#[derive(Default)]
pub struct Summary {
    pub attempted: u64,
    pub failed: u64,
    pub reps: usize,
    /// The metrics of the run's contract table.
    pub readings: Vec<Reading>,
    /// Shown beside them but not part of the result line.
    pub notes: Vec<Reading>,
    pub messages: Vec<String>,
    pub spans: Vec<ThreadTrace>,
}

impl Summary {
    fn absorb(&mut self, rep: &mut RepOutcome, warm_failed: u64) {
        self.attempted += rep.tally.attempted;
        self.failed += rep.tally.failed + warm_failed;
        self.reps += 1;
        self.messages.append(&mut rep.tally.messages);
        if warm_failed > 0 {
            self.messages
                .push(format!("{warm_failed} warm-up reads failed"));
        }
    }
}

fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

fn median(values: Vec<f64>) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let values = sorted(values);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

fn ops_per_s(rep: &RepOutcome) -> f64 {
    ratio(rep.tally.completed as f64, rep.wall_ns as f64 / 1e9)
}

/// The value a quarter of the way up the sorted `values`.
fn lower_quartile(values: Vec<f64>) -> f64 {
    let values = sorted(values);
    values
        .get(values.len().saturating_sub(1) / 4)
        .copied()
        .unwrap_or(0.0)
}

/// Wall nanoseconds of the undisturbed rep: every client stream is timed
/// in segments, each segment takes its lower-quartile duration over the
/// reps, and the rep lasts as long as its slowest client.
///
/// Whatever else the machine does only ever adds time, in stretches that
/// slow a few segments of some reps. On the reference box the median over
/// reps of whole-rep throughput spread 22 % between ten runs of one
/// commit in a busy half hour, the median per segment the same, the lower
/// quartile per segment 14 %; in quiet periods all three agree within 5 %.
fn typical_wall_ns(reps: &[&[Vec<u64>]]) -> f64 {
    let clients = reps.first().map_or(0, |rep| rep.len());
    (0..clients)
        .map(|client| {
            (0..reps[0][client].len())
                .map(|j| lower_quartile(reps.iter().map(|rep| rep[client][j] as f64).collect()))
                .sum::<f64>()
        })
        .fold(0.0, f64::max)
}

/// One fresh world, warmed, and one rep on it. Returns the set-up time in
/// seconds beside the outcome.
fn fresh_rep(
    spec: &Spec,
    trace: &Trace,
    seed: u64,
    mode: RepMode,
    summary: &mut Summary,
) -> (f64, RepOutcome, World) {
    let traced = mode.traced;
    let started = Instant::now();
    let world = build_world(spec, trace, seed, traced);
    let warm_failed = warm(spec, trace, &world);
    let setup_s = started.elapsed().as_secs_f64();
    let (mut rep, world) = run_rep(spec, trace, world, mode);
    summary.absorb(&mut rep, warm_failed);
    println!(
        "rep {:>2} ({} client{}, {}): set-up {setup_s:.3} s, measured {:.3} s, {:.0} ops/s, read p50 {:.2} us",
        summary.reps,
        trace.streams.len(),
        if trace.streams.len() == 1 { "" } else { "s" },
        if traced { "traced" } else { "untraced" },
        rep.wall_ns as f64 / 1e9,
        ops_per_s(&rep),
        rep.tally.reads.quantile(0.5) / 1e3,
    );
    (setup_s, rep, world)
}

/// The end-to-end quantities only some workloads have, from untraced
/// reps: write latency, flush cost, recovery time, origin fetches, and
/// the failed share.
fn workload_specific(reps: &[RepOutcome]) -> Vec<Reading> {
    let mut writes = Histogram::new();
    let (mut flush_ns, mut flushed, mut fetches, mut reads, mut attempted, mut failed) =
        (0.0, 0u64, 0u64, 0u64, 0u64, 0u64);
    for rep in reps {
        writes.merge(&rep.tally.writes);
        writes.merge(&rep.tally.write_ops);
        flush_ns += rep.tally.flushes.mean() * rep.tally.flushes.count() as f64;
        flushed += rep.tally.flushed_entries;
        fetches += rep.seams.get(Seam::Fetches);
        reads += rep.tally.reads.count();
        attempted += rep.tally.attempted;
        failed += rep.tally.failed;
    }
    vec![
        Reading::of("write_p50_us", writes.quantile(0.5) / 1e3, writes.count()),
        Reading::of("write_p99_us", writes.quantile(0.99) / 1e3, writes.count()),
        Reading::of(
            "flush_us_per_entry",
            ratio(flush_ns / 1e3, flushed as f64),
            flushed,
        ),
        Reading::of(
            "recover_ms",
            median(reps.iter().map(|rep| rep.recover_ms).collect()),
            reps.len() as u64,
        ),
        Reading::new(
            "origin_fetches_per_kread",
            ratio(fetches as f64 * 1e3, reads as f64),
        ),
        Reading::new("failed_ops_frac", ratio(failed as f64, attempted as f64)),
    ]
}

/// The untraced run: `seconds / REP_SECONDS` reps, each on a fresh world.
/// Set-up time, peak RSS and completed operations are medians over reps,
/// throughput is that of the undisturbed rep ([`typical_wall_ns`]), and
/// percentiles come from the reps' merged histogram.
pub fn untraced(spec: &Spec, trace: &Trace, seed: u64, seconds: f64) -> Summary {
    let mut summary = Summary::default();
    let (mut setups, mut peaks, mut reps) = (Vec::new(), Vec::new(), Vec::new());
    let mut measured = 0.0;
    while reps.len() < planned_reps(seconds)
        && (reps.len() < MIN_REPS || measured < OVERRUN * seconds)
    {
        let per_rep_peak = reset_peak_rss();
        let (setup_s, rep, world) = fresh_rep(spec, trace, seed, RepMode::default(), &mut summary);
        if per_rep_peak {
            peaks.push(peak_rss_mib());
        }
        drop(world);
        measured += rep.wall_ns as f64 / 1e9;
        setups.push(setup_s);
        reps.push(rep);
    }
    if peaks.is_empty() {
        peaks.push(peak_rss_mib());
    }
    let completed = median(reps.iter().map(|rep| rep.tally.completed as f64).collect());
    let segments: Vec<&[Vec<u64>]> = reps.iter().map(|rep| &rep.segments[..]).collect();
    let mut reads = Histogram::new();
    let mut classes = [0u64; crate::driver::CLASSES];
    for rep in &reps {
        reads.merge(&rep.tally.reads);
        for (total, class) in classes.iter_mut().zip(rep.tally.by_class.iter()) {
            *total += class.count();
        }
    }
    summary.readings = vec![
        Reading::of("setup_s", median(setups), reps.len() as u64),
        Reading::of(
            "ops_per_s",
            ratio(completed, typical_wall_ns(&segments) / 1e9),
            reps.len() as u64,
        ),
        Reading::of("read_p50_us", reads.quantile(0.5) / 1e3, reads.count()),
        Reading::of("read_p99_us", reads.quantile(0.99) / 1e3, reads.count()),
        Reading::of("peak_rss_mb", median(peaks), reps.len() as u64),
    ];
    summary.notes = workload_specific(&reps);
    let shares = [
        "cache.manager.hit_frac",
        "cache.manager.partial_frac",
        "cache.manager.miss_frac",
        "cache.manager.coalesced_frac",
    ];
    for (name, class) in shares.into_iter().zip(classes) {
        summary.notes.push(Reading::new(
            name,
            ratio(class as f64, reads.count() as f64),
        ));
    }
    summary
}

/// Mean self time of one call into `layer`.
fn per_call(name: &'static str, layers: &LayerTotals, layer: Layer) -> Reading {
    let calls = layers.calls[layer as usize];
    Reading::of(
        name,
        ratio(layers.self_ns[layer as usize] as f64, calls as f64),
        calls,
    )
}

/// The per-layer readings of one traced round: `plain` and `single` are
/// the untraced reps at full and at one client, `traced` the rep with the
/// wrappers installed, `probed` the direct-call results.
fn layer_readings(
    clients: usize,
    plain: &RepOutcome,
    traced: &RepOutcome,
    single: &RepOutcome,
    probed: Vec<(&'static str, f64)>,
) -> Vec<Reading> {
    let layers = traced
        .layers
        .as_ref()
        .expect("the traced rep records layers");
    let reads = traced.tally.reads.count();
    let per_read = |count: u64| ratio(count as f64, reads as f64);
    let class = |index: usize| &traced.tally.by_class[index];
    let percentile = |name, hist: &Histogram, q| Reading::of(name, hist.quantile(q), hist.count());
    // Read path only: time and bytes are both taken under read roots.
    let per_kib = |name, layer: Layer| {
        let kib = layers.read_bytes[layer as usize] as f64 / 1024.0;
        Reading::new(name, ratio(layers.read_self_ns[layer as usize] as f64, kib))
    };
    const PROPERTIES: [Layer; 3] = [Layer::PropRot13, Layer::PropTranslate, Layer::PropScript];
    let stages_run: u64 = PROPERTIES
        .iter()
        .map(|&l| layers.read_streams_run[l as usize])
        .sum();
    const POLICY: [Layer; 4] = [
        Layer::PolicyOnHit,
        Layer::PolicyOnInsert,
        Layer::PolicyEvict,
        Layer::PolicyOnRemove,
    ];
    let mut out = workload_specific(std::slice::from_ref(plain));
    out.extend([
        percentile("cache.manager.read_hit_ns_p50", class(0), 0.5),
        percentile("cache.manager.read_hit_ns_p99", class(0), 0.99),
        percentile("cache.manager.read_partial_ns_p50", class(1), 0.5),
        percentile("cache.manager.read_partial_ns_p99", class(1), 0.99),
        percentile("cache.manager.read_miss_ns_p50", class(2), 0.5),
        percentile("cache.manager.read_miss_ns_p99", class(2), 0.99),
        Reading::new("cache.manager.hit_frac", per_read(class(0).count())),
        Reading::new("cache.manager.partial_frac", per_read(class(1).count())),
        Reading::new("cache.manager.miss_frac", per_read(class(2).count())),
        Reading::new("cache.manager.coalesced_frac", per_read(class(3).count())),
        Reading::of(
            "cache.manager.self_ns_per_read",
            per_read(layers.read_self_ns[Layer::ManagerRead as usize]),
            reads,
        ),
        percentile("cache.manager.write_ns_p50", &traced.tally.writes, 0.5),
        percentile(
            "cache.manager.write_op_ns_p50",
            &traced.tally.write_ops,
            0.5,
        ),
        Reading::of(
            "cache.manager.flush_ms_p50",
            traced.tally.flushes.quantile(0.5) / 1e6,
            traced.tally.flushes.count(),
        ),
        Reading::of(
            "cache.manager.flush_ms_max",
            traced.tally.flushes.max() as f64 / 1e6,
            traced.tally.flushes.count(),
        ),
        Reading::new(
            "cache.manager.bus_invalidate_doc_us_p50",
            plain.bus_invalidate_us,
        ),
        Reading::new(
            "cache.manager.resident_entries",
            traced.resident_entries as f64,
        ),
        Reading::new("cache.manager.stage_entries", traced.stage_entries as f64),
        Reading::new(
            "cache.manager.scaling_eff",
            ratio(ops_per_s(plain), clients as f64 * ops_per_s(single)),
        ),
        per_call("cache.policy.on_hit_ns_mean", layers, Layer::PolicyOnHit),
        per_call(
            "cache.policy.on_insert_ns_mean",
            layers,
            Layer::PolicyOnInsert,
        ),
        per_call("cache.policy.evict_ns_mean", layers, Layer::PolicyEvict),
        Reading::new(
            "cache.policy.evictions_per_read",
            per_read(traced.stats.evictions),
        ),
        Reading::new(
            "cache.policy.busy_share",
            ratio(layers.self_of(&POLICY) as f64, layers.root_total() as f64),
        ),
        Reading::new(
            "cache.store.dedup_ratio",
            ratio(traced.logical_bytes as f64, traced.physical_bytes as f64),
        ),
        Reading::new("cache.store.shared_fills", traced.stats.shared_fills as f64),
        Reading::new(
            "cache.singleflight.coalesced_waits",
            traced.stats.coalesced_waits as f64,
        ),
        Reading::new(
            "cache.singleflight.inflight_peak",
            traced.stats.inflight_peak as f64,
        ),
        Reading::new("core.space.ops_per_read", per_read(traced.space_ops)),
        Reading::new(
            "core.space.ops_per_flushed_entry",
            ratio(
                traced.final_flush_space_ops as f64,
                traced.final_flush_entries as f64,
            ),
        ),
        Reading::new("core.plan.stages_run_per_read", per_read(stages_run)),
        Reading::new(
            "core.plan.stage_hits_per_read",
            per_read(traced.stats.stage_hits),
        ),
        per_call("core.verifier.check_ns_mean", layers, Layer::VerifierCheck),
        Reading::new(
            "core.verifier.checks_per_read",
            per_read(traced.seams.get(Seam::VerifierChecks)),
        ),
        Reading::new(
            "core.verifier.invalid_frac",
            ratio(
                traced.seams.get(Seam::VerifierInvalid) as f64,
                traced.seams.get(Seam::VerifierChecks) as f64,
            ),
        ),
        Reading::of(
            "core.bitprovider.fetch_ns_mean",
            ratio(
                layers.self_of(&[Layer::ProviderFetch]) as f64,
                traced.seams.get(Seam::Fetches) as f64,
            ),
            traced.seams.get(Seam::Fetches),
        ),
        Reading::new(
            "core.bitprovider.fetches",
            traced.seams.get(Seam::Fetches) as f64,
        ),
        Reading::of(
            "core.bitprovider.write_ns_mean",
            ratio(
                layers.self_of(&[Layer::ProviderWrite]) as f64,
                traced.seams.get(Seam::OriginWrites) as f64,
            ),
            traced.seams.get(Seam::OriginWrites),
        ),
        Reading::new(
            "core.bitprovider.writes",
            traced.seams.get(Seam::OriginWrites) as f64,
        ),
        per_kib("properties.rot13_ns_per_kib", Layer::PropRot13),
        per_kib("properties.translate_ns_per_kib", Layer::PropTranslate),
        per_kib("proplang.script_ns_per_kib", Layer::PropScript),
        Reading::new(
            "trace.overhead_frac",
            1.0 - ratio(ops_per_s(traced), ops_per_s(plain)),
        ),
        Reading::new(
            "trace.root_coverage_frac",
            ratio(
                layers.root_total() as f64,
                traced.wall_ns as f64 * clients as f64,
            ),
        ),
    ]);
    out.extend(
        probed
            .into_iter()
            .map(|(name, value)| Reading::new(name, value)),
    );
    out
}

/// The traced run. Each round is three reps on fresh worlds: untraced
/// (the reference for `trace.overhead_frac`, and the world the direct
/// probes run on), traced (wrappers installed, spans recorded), and
/// untraced at one client (for `scaling_eff`). `seconds` buys one round
/// per four rep lengths; each metric is its median over rounds.
pub fn traced(spec: &Spec, trace: &Trace, seed: u64, seconds: f64) -> Summary {
    let mut summary = Summary::default();
    let clients = trace.streams.len();
    let single = trace.interleaved();
    let mut rounds: Vec<Vec<Reading>> = Vec::new();
    let plain_mode = RepMode {
        traced: false,
        probe_bus: true,
    };
    let traced_mode = RepMode {
        traced: true,
        probe_bus: false,
    };
    let planned = ((seconds / (4.0 * REP_SECONDS)) as usize).max(1);
    let mut measured = 0.0;
    while rounds.len() < planned && (rounds.is_empty() || measured < OVERRUN * seconds) {
        let (_, plain, world) = fresh_rep(spec, trace, seed, plain_mode, &mut summary);
        let probed = probes::run(spec, trace, &world, &plain);
        drop(world);
        let (_, mut with_spans, _) = fresh_rep(spec, trace, seed, traced_mode, &mut summary);
        let (_, alone, _) = fresh_rep(spec, &single, seed, RepMode::default(), &mut summary);
        measured += (plain.wall_ns + with_spans.wall_ns + alone.wall_ns) as f64 / 1e9;

        // A layer's self time is its span minus its children, so the
        // layers of a rep must add up to its root spans.
        let layers = with_spans.layers.as_ref().expect("traced rep");
        let (parts, whole) = (layers.self_ns.iter().sum::<u64>(), layers.root_total());
        if parts.abs_diff(whole) as f64 > 0.1 * whole as f64 {
            summary.failed += 1;
            summary.messages.push(format!(
                "layer self times sum to {parts} ns, root spans to {whole} ns"
            ));
        }
        if rounds.is_empty() {
            summary.spans = std::mem::take(&mut with_spans.dumped);
        }
        rounds.push(layer_readings(clients, &plain, &with_spans, &alone, probed));
    }
    summary.readings = rounds[0]
        .iter()
        .enumerate()
        .map(|(i, first)| Reading {
            name: first.name,
            value: median(rounds.iter().map(|round| round[i].value).collect()),
            samples: first
                .samples
                .map(|_| rounds.iter().filter_map(|round| round[i].samples).sum()),
        })
        .collect();
    summary
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{arrange, END_TO_END, PER_LAYER};
    use crate::workload::{find, materialise};

    #[test]
    fn rep_count_follows_the_time_asked_for() {
        assert_eq!(planned_reps(0.0), MIN_REPS);
        assert_eq!(planned_reps(8.0), 10);
        assert_eq!(planned_reps(8.1), 11);
    }

    #[test]
    fn a_disturbed_segment_drops_out_of_the_typical_rep() {
        // Two clients, three segments; two of five reps lost time in one
        // segment of client 0 to something else on the machine.
        let quiet = [vec![100, 100, 100], vec![90, 90, 90]];
        let disturbed = [vec![100, 1000, 100], vec![90, 95, 90]];
        let reps = [
            &quiet[..],
            &disturbed[..],
            &quiet[..],
            &disturbed[..],
            &quiet[..],
        ];
        assert_eq!(typical_wall_ns(&reps), 300.0);
        // The rep lasts as long as its slowest client.
        let slow_second = [vec![100, 100, 100], vec![200, 200, 200]];
        assert_eq!(typical_wall_ns(&[&slow_second[..]]), 600.0);
        assert_eq!(typical_wall_ns(&[]), 0.0);
    }

    #[test]
    fn lower_quartile_picks_the_value_a_quarter_up() {
        assert_eq!(lower_quartile((1..=10).rev().map(f64::from).collect()), 3.0);
        assert_eq!(lower_quartile(vec![5.0, 1.0, 3.0]), 1.0);
        assert_eq!(lower_quartile(vec![7.0]), 7.0);
        assert_eq!(lower_quartile(vec![]), 0.0);
    }

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(vec![]), 0.0);
    }

    #[test]
    fn both_runs_fill_their_tables_on_every_workload() {
        for spec in crate::workload::WORKLOADS {
            let spec = find(spec.name).unwrap().smoke();
            let trace = materialise(&spec, 42, 2);
            let plain = untraced(&spec, &trace, 42, 0.0);
            assert_eq!(plain.failed, 0, "{}: {:?}", spec.name, plain.messages);
            assert_eq!(plain.reps, planned_reps(0.0));
            let readings = arrange(&END_TO_END, plain.readings).unwrap();
            assert!(
                readings.iter().all(|r| r.value > 0.0),
                "{}: {readings:?}",
                spec.name
            );

            let layered = traced(&spec, &trace, 42, 0.0);
            assert_eq!(layered.failed, 0, "{}: {:?}", spec.name, layered.messages);
            arrange(&PER_LAYER, layered.readings).unwrap();
            assert!(!layered.spans.is_empty());
        }
    }
}
