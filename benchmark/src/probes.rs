//! Direct-call probes for the layers the cache never calls back out of
//! (`cache.store`, `cache.journal`, `core.space`, `core.plan`,
//! `core.digest`, `simenv`). They run after a measured phase, on that
//! rep's untraced world and with the workload's own documents, users and
//! sizes, so the numbers are the layer's cost at this workload's shape.

use crate::driver::{write_filler, RepOutcome};
use crate::hist::Histogram;
use crate::workload::{user_id, Spec, Trace, World};
use bytes::Bytes;
use placeless_cache::{ConcurrentStore, WriteJournal, NO_EPOCH};
use placeless_core::digest::md5;
use placeless_core::plan::StagePipeline;
use placeless_core::prelude::*;
use placeless_core::space::BatchWrite;
use placeless_simenv::trace::lorem_bytes;
use placeless_simenv::{StableStore, VirtualClock};
use std::hint::black_box;
use std::time::Instant;

/// Pairs the probes touch: a fixed stride through the trace's pairs.
const SAMPLE_PAIRS: usize = 512;

fn nanos(started: Instant) -> u64 {
    started.elapsed().as_nanos() as u64
}

fn sample_pairs(trace: &Trace) -> Vec<(u32, u32)> {
    let stride = (trace.pairs.len() / SAMPLE_PAIRS).max(1);
    trace.pairs.iter().copied().step_by(stride).collect()
}

/// `cache.store`: acquire, look up and release distinct contents of the
/// workload's document size.
fn store(spec: &Spec, out: &mut Vec<(&'static str, f64)>) {
    const CONTENTS: usize = 4096;
    let contents: Vec<_> = (0..CONTENTS)
        .map(|i| {
            let bytes = Bytes::from(lorem_bytes(0x5701 + i as u64, spec.doc_bytes));
            (ConcurrentStore::signature_of(&bytes), bytes)
        })
        .collect();
    let store = ConcurrentStore::new();
    let started = Instant::now();
    for (sig, bytes) in &contents {
        black_box(store.try_acquire(*sig, bytes, u64::MAX).is_ok());
    }
    out.push((
        "cache.store.try_acquire_ns",
        nanos(started) as f64 / CONTENTS as f64,
    ));
    let started = Instant::now();
    for (sig, _) in &contents {
        black_box(store.get(*sig));
    }
    out.push((
        "cache.store.get_ns",
        nanos(started) as f64 / CONTENTS as f64,
    ));
    let started = Instant::now();
    for (sig, _) in &contents {
        store.release(*sig);
    }
    out.push((
        "cache.store.release_ns",
        nanos(started) as f64 / CONTENTS as f64,
    ));
}

/// `cache.journal`: append as many live records as a flush of this
/// workload finds dirty, then acknowledge them in batches the size of its
/// flush groups, counting every byte that reaches the medium.
fn journal(spec: &Spec, rep: &RepOutcome, out: &mut Vec<(&'static str, f64)>) {
    const NAMES: [&str; 4] = [
        "cache.journal.append_ns_mean",
        "cache.journal.ack_batch_us_mean",
        "cache.journal.bytes_written_per_user_byte",
        "cache.journal.rewrites_per_flush",
    ];
    let flushes = rep.tally.flushes.count();
    let mut values = [0.0; 4];
    if spec.journal && flushes > 0 && rep.tally.flush_batches > 0 {
        let flushed = rep.tally.flushed_entries;
        let live = (flushed / flushes).max(1) as usize;
        let group = (flushed as f64 / rep.tally.flush_batches as f64)
            .round()
            .max(1.0) as usize;
        let medium = StableStore::new();
        let journal = WriteJournal::new(medium.clone());
        let body = write_filler(spec.doc_bytes);
        let started = Instant::now();
        let seqs: Vec<u64> = (0..live)
            .map(|i| journal.append(DocumentId(i as u64), UserId(1), NO_EPOCH, &body))
            .collect();
        let append_ns = nanos(started);
        let mut written = medium.len();
        let batches = seqs.chunks(group);
        let batch_count = batches.len();
        let started = Instant::now();
        for batch in batches {
            journal.ack_batch(batch);
            // Each acknowledged batch rewrites the whole remaining image.
            written += medium.len();
        }
        values = [
            append_ns as f64 / live as f64,
            nanos(started) as f64 / 1e3 / batch_count as f64,
            written as f64 / (live * spec.doc_bytes) as f64,
            rep.journal_rewrites as f64 / flushes as f64,
        ];
    }
    out.extend(NAMES.into_iter().zip(values));
}

/// `core.space`: the uncached read (Table 1's "no cache" row, in wall
/// time), plan compilation with and without a lease, and a grouped write.
fn space(spec: &Spec, world: &World, pairs: &[(u32, u32)], out: &mut Vec<(&'static str, f64)>) {
    let (mut uncached, mut plan, mut leased) =
        (Histogram::new(), Histogram::new(), Histogram::new());
    for &(user, doc) in pairs {
        let (user, doc) = (user_id(user), world.docs[doc as usize]);
        let started = Instant::now();
        black_box(world.space.read_document(user, doc).is_ok());
        uncached.record(nanos(started));
        let started = Instant::now();
        black_box(world.space.read_plan(user, doc).is_ok());
        plan.record(nanos(started));
        if let Ok((_, lease, _)) = world.space.read_plan_cached(user, doc, None) {
            let started = Instant::now();
            black_box(
                world
                    .space
                    .read_plan_cached(user, doc, Some(&lease))
                    .is_ok(),
            );
            leased.record(nanos(started));
        }
    }
    out.push((
        "core.space.read_document_us_p50",
        uncached.quantile(0.5) / 1e3,
    ));
    out.push(("core.space.read_plan_ns_p50", plan.quantile(0.5)));
    out.push(("core.space.read_plan_cached_ns_p50", leased.quantile(0.5)));

    let body = Bytes::from(write_filler(spec.doc_bytes));
    let writes: Vec<BatchWrite> = pairs
        .iter()
        .take(64)
        .map(|&(user, doc)| BatchWrite::new(user_id(user), world.docs[doc as usize], body.clone()))
        .collect();
    let started = Instant::now();
    black_box(world.space.write_documents(&writes));
    out.push((
        "core.space.write_documents_us_per_entry",
        nanos(started) as f64 / 1e3 / writes.len().max(1) as f64,
    ));
}

/// `core.plan`: every stage of the sampled users' chains executed
/// directly through a `StagePipeline`, per KiB of stage output.
fn plan(world: &World, pairs: &[(u32, u32)], out: &mut Vec<(&'static str, f64)>) {
    let clock = VirtualClock::new();
    let (mut total_ns, mut total_bytes) = (0u64, 0u64);
    for &(user, doc) in pairs {
        let Ok(plan) = world
            .space
            .read_plan(user_id(user), world.docs[doc as usize])
        else {
            continue;
        };
        let root = world.origins[doc as usize].content();
        let mut pipeline = StagePipeline::from_root(&plan, root.clone(), md5(&root));
        let mut report = plan.seed_report(&clock);
        for index in 0..plan.len() {
            let started = Instant::now();
            let Ok(stage) = pipeline.execute(&clock, index, &mut report) else {
                break;
            };
            total_ns += nanos(started);
            total_bytes += stage.bytes.len() as u64;
        }
    }
    out.push((
        "core.plan.stage_execute_ns_per_kib",
        total_ns as f64 / (total_bytes as f64 / 1024.0).max(1.0),
    ));
}

/// `core.digest` and `simenv`: the digest at the workload's document size
/// and the harness's own per-operation overheads.
fn primitives(spec: &Spec, trace: &Trace, out: &mut Vec<(&'static str, f64)>) {
    const ROUNDS: usize = 2048;
    let body = lorem_bytes(0xD16E, spec.doc_bytes);
    let started = Instant::now();
    for _ in 0..ROUNDS {
        black_box(md5(black_box(&body)));
    }
    let mib = (ROUNDS * spec.doc_bytes) as f64 / (1 << 20) as f64;
    out.push((
        "core.digest.md5_mib_per_s",
        mib / started.elapsed().as_secs_f64(),
    ));

    out.push(("simenv.trace_next_event_ns", trace.next_event_ns));
    const ADVANCES: u64 = 1 << 20;
    let clock = VirtualClock::new();
    let started = Instant::now();
    for _ in 0..ADVANCES {
        black_box(clock.advance(1));
    }
    out.push((
        "simenv.clock_advance_ns",
        nanos(started) as f64 / ADVANCES as f64,
    ));
}

/// Runs every probe against `world` (the world `rep` just ran on).
pub fn run(
    spec: &Spec,
    trace: &Trace,
    world: &World,
    rep: &RepOutcome,
) -> Vec<(&'static str, f64)> {
    let pairs = sample_pairs(trace);
    let mut out = Vec::new();
    store(spec, &mut out);
    journal(spec, rep, &mut out);
    plan(world, &pairs, &mut out);
    primitives(spec, trace, &mut out);
    space(spec, world, &pairs, &mut out);
    out
}
