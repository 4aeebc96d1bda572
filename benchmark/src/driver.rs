//! One repetition: closed-loop clients replaying their streams against a
//! fresh world, the per-operation timing, and the correctness oracle.
//!
//! Callers are applications blocked on `read`/`write`, so each client
//! thread issues its next operation only when the previous one returned.

use crate::hist::Histogram;
use crate::span::{self, Layer, LayerTotals, ThreadTrace};
use crate::workload::{cache_config, user_id, Op, OpKind, Spec, Trace, World};
#[cfg(test)]
use crate::wrappers::Seam;
use crate::wrappers::SeamCounts;
use bytes::Bytes;
use placeless_cache::{CacheStats, DocumentCache, ReadOptions, WriteJournal};
use placeless_core::notifier::Invalidation;
use placeless_core::op::DocOp;
use placeless_properties::rot13::rot13_byte;
use placeless_simenv::trace::lorem_bytes;
use std::collections::HashMap;
use std::sync::Barrier;
use std::time::Instant;

/// `HitClass` has five variants; histograms are indexed by `class as usize`.
pub const CLASSES: usize = 5;
/// Each client stream is timed in this many consecutive segments, so a
/// run can tell a stretch the machine was busy elsewhere from the rest.
pub const SEGMENTS: usize = 16;
/// Requests each client thread keeps whole for `.spans.jsonl`.
const DUMP_LIMIT: usize = 2000;
const MAX_MESSAGES: usize = 10;

/// Every write carries a 24-byte header at offset 0 naming its kind
/// (`W` full body, `O` typed op), user, document and sequence number, so
/// the oracle can tell whose write a rendition or an origin holds.
pub const HEADER_LEN: usize = 24;
const OWNER_LEN: usize = 16;

fn put_digits(buf: &mut [u8], mut value: u32) {
    for byte in buf.iter_mut().rev() {
        *byte = b'0' + (value % 10) as u8;
        value /= 10;
    }
}

pub fn write_header(kind: u8, user: u32, doc: u32, seq: u32) -> [u8; HEADER_LEN] {
    let mut header = *b"K:0000000:00000:0000000;";
    header[0] = kind;
    put_digits(&mut header[2..9], user);
    put_digits(&mut header[10..15], doc);
    put_digits(&mut header[16..23], seq);
    header
}

/// What everything after the header of a full-body write holds.
pub fn write_filler(doc_bytes: usize) -> Vec<u8> {
    lorem_bytes(0xF111, doc_bytes)
}

/// What the client loop counts and times, per client thread and, merged,
/// per rep. Times are wall-clock nanoseconds.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// Reads and writes that returned `Ok` (flushes are not operations).
    pub completed: u64,
    pub reads: Histogram,
    pub by_class: [Histogram; CLASSES],
    pub writes: Histogram,
    pub write_ops: Histogram,
    pub flushes: Histogram,
    pub flushed_entries: u64,
    pub flush_batches: u64,
    pub oracle_checked: u64,
    /// Comparisons abandoned because a writer changed the origin between
    /// the cached and the uncached read.
    pub oracle_skipped: u64,
    /// What failed, first [`MAX_MESSAGES`] only.
    pub messages: Vec<String>,
}

impl Tally {
    fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.messages.len() < MAX_MESSAGES {
            self.messages.push(message);
        }
    }

    fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.completed += other.completed;
        self.reads.merge(&other.reads);
        for (mine, theirs) in self.by_class.iter_mut().zip(other.by_class.iter()) {
            mine.merge(theirs);
        }
        self.writes.merge(&other.writes);
        self.write_ops.merge(&other.write_ops);
        self.flushes.merge(&other.flushes);
        self.flushed_entries += other.flushed_entries;
        self.flush_batches += other.flush_batches;
        self.oracle_checked += other.oracle_checked;
        self.oracle_skipped += other.oracle_skipped;
        let room = MAX_MESSAGES.saturating_sub(self.messages.len());
        self.messages.extend(other.messages.into_iter().take(room));
    }
}

/// What one rep measured. Times are wall-clock nanoseconds.
pub struct RepOutcome {
    /// Measured phase: first client start to last client end, oracle
    /// time excluded.
    pub wall_ns: u64,
    /// Per client thread, the wall time of each of its [`SEGMENTS`]
    /// consecutive stream segments, oracle time excluded.
    pub segments: Vec<Vec<u64>>,
    /// The client threads' tallies merged, plus what the checks after
    /// the phase found.
    pub tally: Tally,
    /// Journal medium rewrites (ack compactions) during the phase.
    pub journal_rewrites: u64,
    pub recover_ms: f64,
    /// See [`probe_bus_invalidation`]; 0 unless the rep was asked for it.
    pub bus_invalidate_us: f64,
    /// Keys still dirty when the cache was dropped, all of which
    /// recovery must bring back.
    pub unflushed_keys: u64,
    /// Middleware operations and entries of the quiescent final flush.
    pub final_flush_space_ops: u64,
    pub final_flush_entries: u64,
    /// Calls counted at the trait seams during the phase
    /// (`Seam::Fetches` = provider `open_input` calls).
    pub seams: SeamCounts,
    /// Middleware operations charged during the phase.
    pub space_ops: u64,
    pub stats: CacheStats,
    pub resident_entries: usize,
    pub stage_entries: usize,
    pub physical_bytes: u64,
    pub logical_bytes: u64,
    pub layers: Option<LayerTotals>,
    pub dumped: Vec<ThreadTrace>,
}

#[derive(Default)]
struct Client {
    start_ns: u64,
    end_ns: u64,
    segments: Vec<u64>,
    tally: Tally,
    /// The header of the last acknowledged write per `(user, doc)`.
    last_writes: HashMap<(u32, u32), [u8; HEADER_LEN]>,
    /// Sampled reads of a read-only workload, compared after the phase.
    samples: Vec<(u32, u32, Bytes)>,
    trace: Option<ThreadTrace>,
}

enum Verdict {
    Match,
    Skipped,
    Mismatch(String),
}

/// Compares bytes the cache served with what the uncached middleware
/// produces now. The reader's own buffered write is its freshest view and
/// is recognised by its header; `epoch_before` (the origin's modification
/// epoch read before the cached read) tells a raced comparison from a
/// wrong answer.
fn check_read(world: &World, op: Op, served: &Bytes, epoch_before: Option<u64>) -> Verdict {
    let (user, doc) = (user_id(op.user), world.docs[op.doc as usize]);
    let expected = match world.space.read_document(user, doc) {
        Ok((bytes, _)) => bytes,
        Err(error) => return Verdict::Mismatch(format!("oracle read {user:?} {doc:?}: {error}")),
    };
    if expected[..] == served[..] {
        return Verdict::Match;
    }
    let owns = |kind: u8| {
        served.len() >= OWNER_LEN
            && served[..OWNER_LEN] == write_header(kind, op.user, op.doc, 0)[..OWNER_LEN]
    };
    if owns(b'W') || owns(b'O') {
        return Verdict::Match;
    }
    if epoch_before.is_some_and(|before| world.origins[op.doc as usize].epoch() != before) {
        return Verdict::Skipped;
    }
    Verdict::Mismatch(format!(
        "read {user:?} {doc:?}: cache served {} bytes that differ from the uncached {} bytes",
        served.len(),
        expected.len()
    ))
}

/// What every client thread of one rep shares.
struct Rep<'a> {
    spec: &'a Spec,
    world: &'a World,
    traced: bool,
    /// Common time origin of the rep's client threads.
    epoch: Instant,
    barrier: Barrier,
    filler: &'a [u8],
    clients: u32,
}

fn run_client(thread: usize, stream: &[Op], rep: &Rep<'_>) -> Client {
    let Rep {
        spec,
        world,
        traced,
        epoch,
        filler,
        clients,
        ..
    } = *rep;
    let mut out = Client::default();
    let inline_oracle = spec.write_fraction > 0.0;
    // The cadence is in operations of all clients together, so one
    // client replaying the interleaved trace flushes at the same points.
    let flush_every = spec.flush_every / clients as usize;
    let mut payload = filler.to_vec();
    let mut reads_seen = 0usize;
    let mut writes_seen = 0u32;
    let mut oracle_ns = 0u64;
    if traced {
        span::install(epoch, thread as u64, DUMP_LIMIT);
    }
    let segment_len = stream.len().div_ceil(SEGMENTS).max(1);
    rep.barrier.wait();
    out.start_ns = epoch.elapsed().as_nanos() as u64;
    let mut segment_start = out.start_ns;
    for (i, &op) in stream.iter().enumerate() {
        let (user, doc) = (user_id(op.user), world.docs[op.doc as usize]);
        out.tally.attempted += 1;
        match op.kind {
            OpKind::Read => {
                let sampled = reads_seen.is_multiple_of(spec.oracle_every);
                reads_seen += 1;
                let epoch_before =
                    (sampled && inline_oracle).then(|| world.origins[op.doc as usize].epoch());
                let (result, nanos) = span::root(
                    Layer::ManagerRead,
                    || world.cache.read_with(user, doc, ReadOptions::default()),
                    |result| {
                        result
                            .as_ref()
                            .map_or("error", |served| served.class.label())
                    },
                );
                match result {
                    Ok(served) => {
                        out.tally.completed += 1;
                        out.tally.reads.record(nanos);
                        out.tally.by_class[served.class as usize].record(nanos);
                        if !sampled {
                            std::hint::black_box(&served.bytes);
                        } else if inline_oracle {
                            let started = Instant::now();
                            match check_read(world, op, &served.bytes, epoch_before) {
                                Verdict::Match => out.tally.oracle_checked += 1,
                                Verdict::Skipped => out.tally.oracle_skipped += 1,
                                Verdict::Mismatch(message) => out.tally.fail(message),
                            }
                            oracle_ns += started.elapsed().as_nanos() as u64;
                        } else {
                            out.samples.push((op.user, op.doc, served.bytes));
                        }
                    }
                    Err(error) => out.tally.fail(format!("read {user:?} {doc:?}: {error}")),
                }
            }
            OpKind::Write | OpKind::WriteOp => {
                let seq = writes_seen * clients + thread as u32;
                writes_seen += 1;
                let full_body = op.kind == OpKind::Write;
                let header =
                    write_header(if full_body { b'W' } else { b'O' }, op.user, op.doc, seq);
                let (result, nanos) = if full_body {
                    payload[..HEADER_LEN].copy_from_slice(&header);
                    span::root(
                        Layer::ManagerWrite,
                        || world.cache.write(user, doc, &payload),
                        |_| "write",
                    )
                } else {
                    let edit = DocOp::ReplaceRange {
                        start: 0,
                        end: HEADER_LEN as u64,
                        data: Bytes::copy_from_slice(&header),
                    };
                    span::root(
                        Layer::ManagerWriteOp,
                        || world.cache.write_op(user, doc, edit),
                        |_| "write_op",
                    )
                };
                match result {
                    Ok(()) => {
                        out.tally.completed += 1;
                        if full_body {
                            &mut out.tally.writes
                        } else {
                            &mut out.tally.write_ops
                        }
                        .record(nanos);
                        out.last_writes.insert((op.user, op.doc), header);
                    }
                    Err(error) => out
                        .tally
                        .fail(format!("{:?} {user:?} {doc:?}: {error}", op.kind)),
                }
            }
        }
        if thread == 0 && flush_every > 0 && (i + 1) % flush_every == 0 {
            out.tally.attempted += 1;
            let (result, nanos) =
                span::root(Layer::ManagerFlush, || world.cache.flush(), |_| "flush");
            match result {
                Ok(report) if report.is_clean() => {
                    out.tally.flushes.record(nanos);
                    out.tally.flushed_entries += report.flushed;
                    out.tally.flush_batches += report.batches;
                }
                Ok(report) => out
                    .tally
                    .fail(format!("flush left entries behind: {report}")),
                Err(error) => out.tally.fail(format!("flush: {error}")),
            }
        }
        if (i + 1) % segment_len == 0 || i + 1 == stream.len() {
            let now = (epoch.elapsed().as_nanos() as u64).saturating_sub(oracle_ns);
            out.segments.push(now.saturating_sub(segment_start));
            segment_start = now;
        }
    }
    out.end_ns = segment_start;
    if traced {
        out.trace = span::uninstall();
    }
    out
}

/// After the last write has reached the origins: each origin that was
/// written must hold one of the last acknowledged writes for its
/// document. Returns one message per origin that does not.
fn check_origins(
    world: &World,
    last_writes: &HashMap<u32, Vec<[u8; HEADER_LEN]>>,
    filler: &[u8],
) -> Vec<String> {
    let mut wrong = Vec::new();
    let mut docs: Vec<_> = last_writes.keys().copied().collect();
    docs.sort_unstable();
    for doc in docs {
        // Origins hold content scrambled at rest.
        let body: Vec<u8> = world.origins[doc as usize]
            .content()
            .iter()
            .map(|&b| rot13_byte(b))
            .collect();
        let header = body.get(..HEADER_LEN);
        let acknowledged = header.is_some_and(|h| last_writes[&doc].iter().any(|c| c[..] == *h));
        let intact =
            header.is_some_and(|h| h[0] != b'W' || body[HEADER_LEN..] == filler[HEADER_LEN..]);
        if !acknowledged || !intact {
            wrong.push(format!(
                "origin of doc {doc} holds {:?}, not one of its {} last acknowledged writes",
                String::from_utf8_lossy(header.unwrap_or(&body)),
                last_writes[&doc].len()
            ));
        }
    }
    wrong
}

/// After a measured phase: what a doc-wide invalidation delivered over
/// the bus costs at the population the phase left resident (median
/// microseconds over up to 256 documents of the trace). Drops those
/// documents' entries, so it runs once everything else about the phase has
/// been read off the cache.
fn probe_bus_invalidation(world: &World, trace: &Trace) -> f64 {
    let mut docs: Vec<u32> = trace.pairs.iter().map(|&(_, doc)| doc).collect();
    docs.sort_unstable();
    docs.dedup();
    let mut post = Histogram::new();
    for doc in docs.into_iter().take(256) {
        let started = Instant::now();
        world
            .space
            .bus()
            .post(Invalidation::Document(world.docs[doc as usize]));
        post.record(started.elapsed().as_nanos() as u64);
    }
    post.quantile(0.5) / 1e3
}

/// How a rep is run.
#[derive(Debug, Clone, Copy, Default)]
pub struct RepMode {
    /// Install the tracing wrappers' thread tracers and record spans.
    pub traced: bool,
    /// Time bus invalidations after the phase (`bus_invalidate_us`).
    pub probe_bus: bool,
}

/// Runs one rep of `trace` (one client thread per stream) against `world`
/// and checks what it served. For a journaled workload the rep ends by
/// dropping the cache with writes still buffered, recovering from the
/// journal medium, and flushing; the returned world then holds the
/// recovered cache.
pub fn run_rep(spec: &Spec, trace: &Trace, world: World, mode: RepMode) -> (RepOutcome, World) {
    let traced = mode.traced;
    let filler = write_filler(spec.doc_bytes);
    let stats_before = world.cache.stats();
    let seams_before = world.counters.snapshot();
    let space_ops_before = world.space.ops_count();
    let rewrites_before = world.medium.as_ref().map_or(0, |m| m.rewrite_count());

    let rep = Rep {
        spec,
        world: &world,
        traced,
        epoch: Instant::now(),
        barrier: Barrier::new(trace.streams.len()),
        filler: &filler,
        clients: trace.streams.len() as u32,
    };
    let mut clients: Vec<Client> = std::thread::scope(|scope| {
        let handles: Vec<_> = trace
            .streams
            .iter()
            .enumerate()
            .map(|(thread, stream)| {
                let rep = &rep;
                scope.spawn(move || run_client(thread, stream, rep))
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("client thread panicked"))
            .collect()
    });

    let start = clients.iter().map(|c| c.start_ns).min().unwrap_or(0);
    let end = clients.iter().map(|c| c.end_ns).max().unwrap_or(0);
    let (physical_bytes, logical_bytes) = world.cache.resident_bytes();
    let mut out = RepOutcome {
        wall_ns: end.saturating_sub(start),
        segments: clients
            .iter_mut()
            .map(|c| std::mem::take(&mut c.segments))
            .collect(),
        tally: Tally::default(),
        journal_rewrites: world.medium.as_ref().map_or(0, |m| m.rewrite_count()) - rewrites_before,
        recover_ms: 0.0,
        bus_invalidate_us: 0.0,
        unflushed_keys: 0,
        final_flush_space_ops: 0,
        final_flush_entries: 0,
        seams: world.counters.snapshot().since(&seams_before),
        space_ops: world.space.ops_count() - space_ops_before,
        stats: world.cache.stats().delta(&stats_before),
        resident_entries: world.cache.len(),
        stage_entries: world.cache.stage_entry_count(),
        physical_bytes,
        logical_bytes,
        layers: traced.then(LayerTotals::default),
        dumped: Vec::new(),
    };
    let mut last_writes: HashMap<u32, Vec<[u8; HEADER_LEN]>> = HashMap::new();
    let mut samples = Vec::new();
    for client in &mut clients {
        out.tally.merge(std::mem::take(&mut client.tally));
        for (&(_, doc), &header) in &client.last_writes {
            last_writes.entry(doc).or_default().push(header);
        }
        samples.append(&mut client.samples);
        if let Some(trace) = client.trace.take() {
            if let Some(layers) = out.layers.as_mut() {
                layers.merge(&trace.totals);
            }
            out.dumped.push(trace);
        }
    }

    // Read-only workloads: nothing changes the origins, so sampled reads
    // are compared after the phase, off the clock.
    for (user, doc, served) in samples {
        let op = Op {
            user,
            doc,
            kind: OpKind::Read,
        };
        match check_read(&world, op, &served, None) {
            Verdict::Match | Verdict::Skipped => out.tally.oracle_checked += 1,
            Verdict::Mismatch(message) => out.tally.fail(message),
        }
    }

    if mode.probe_bus {
        out.bus_invalidate_us = probe_bus_invalidation(&world, trace);
    }

    let World {
        space,
        cache,
        docs,
        origins,
        counters,
        medium,
    } = world;
    let cache = match &medium {
        None => cache,
        Some(medium) => {
            // The crash: every in-memory structure dies with writes still
            // buffered; only the journal medium survives.
            out.unflushed_keys = cache.dirty_count() as u64;
            drop(cache);
            let started = Instant::now();
            let (journal, _) = WriteJournal::open(medium.clone());
            let (recovered, report) = DocumentCache::recover(
                space.clone(),
                cache_config(spec, Some(journal), traced),
                None,
            );
            out.recover_ms = started.elapsed().as_secs_f64() * 1e3;
            if recovered.dirty_count() as u64 != out.unflushed_keys
                || report.requeued != out.unflushed_keys
            {
                out.tally.fail(format!(
                    "recovery brought back {} dirty keys ({report}), {} were unflushed",
                    recovered.dirty_count(),
                    out.unflushed_keys
                ));
            }
            let ops_before = space.ops_count();
            match recovered.flush() {
                Ok(report) if report.is_clean() && recovered.dirty_count() == 0 => {
                    out.final_flush_entries = report.flushed;
                    out.final_flush_space_ops = space.ops_count() - ops_before;
                }
                Ok(report) => out
                    .tally
                    .fail(format!("final flush left entries behind: {report}")),
                Err(error) => out.tally.fail(format!("final flush: {error}")),
            }
            recovered
        }
    };
    let world = World {
        space,
        cache,
        docs,
        origins,
        counters,
        medium,
    };
    for message in check_origins(&world, &last_writes, &filler) {
        out.tally.fail(message);
    }
    (out, world)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{build_world, find, materialise, warm, WORKLOADS};

    fn one_rep(name: &str, seed: u64, clients: usize, traced: bool) -> RepOutcome {
        let spec = find(name).unwrap().smoke();
        let trace = materialise(&spec, seed, clients);
        let world = build_world(&spec, &trace, seed, traced);
        assert_eq!(warm(&spec, &trace, &world), 0);
        let mode = RepMode {
            traced,
            probe_bus: true,
        };
        run_rep(&spec, &trace, world, mode).0
    }

    #[test]
    fn headers_are_fixed_width_and_name_their_owner() {
        let header = write_header(b'W', 17, 34, 5);
        assert_eq!(&header, b"W:0000017:00034:0000005;");
        assert_eq!(
            header[..OWNER_LEN],
            write_header(b'W', 17, 34, 999)[..OWNER_LEN]
        );
        assert_ne!(
            header[..OWNER_LEN],
            write_header(b'W', 18, 34, 5)[..OWNER_LEN]
        );
    }

    #[test]
    fn every_workload_serves_correct_bytes() {
        for spec in WORKLOADS {
            let rep = one_rep(spec.name, 42, 2, false);
            assert_eq!(
                rep.tally.failed, 0,
                "{}: {:?}",
                spec.name, rep.tally.messages
            );
            assert_eq!(
                rep.tally.completed + rep.tally.flushes.count(),
                rep.tally.attempted
            );
            assert!(
                rep.tally.oracle_checked > 0,
                "{}: oracle never ran",
                spec.name
            );
        }
    }

    /// Same seed, one client: the operation sequence and every cache
    /// counter repeat exactly.
    #[test]
    fn one_client_runs_are_deterministic() {
        for name in ["evict_churn", "write_back_flush"] {
            let spec = find(name).unwrap().smoke();
            assert_eq!(
                materialise(&spec, 11, 1).streams,
                materialise(&spec, 11, 1).streams
            );
            let (a, b) = (one_rep(name, 11, 1, false), one_rep(name, 11, 1, false));
            assert_eq!(a.stats, b.stats, "{name}: CacheStats must repeat");
            assert_eq!(a.seams, b.seams);
            assert_eq!(a.space_ops, b.space_ops);
            assert_eq!(a.unflushed_keys, b.unflushed_keys);
            assert_eq!((a.tally.failed, b.tally.failed), (0, 0));
        }
    }

    #[test]
    fn workloads_do_what_they_were_chosen_for() {
        let class = |rep: &RepOutcome, index: usize| {
            rep.tally.by_class[index].count() as f64 / rep.tally.reads.count() as f64
        };
        let hot = one_rep("hit_hot", 42, 2, false);
        assert_eq!(
            class(&hot, 0),
            1.0,
            "hit_hot must be all whole-version hits"
        );
        assert_eq!(hot.seams.get(Seam::Fetches), 0);

        let churn = one_rep("evict_churn", 42, 2, false);
        assert!(churn.stats.evictions > 0);

        let back = one_rep("write_back_flush", 42, 2, false);
        assert!(
            back.tally.flushes.count() >= 10,
            "only {} flushes",
            back.tally.flushes.count()
        );
        assert!(
            back.unflushed_keys > 0,
            "the rep must end with an unflushed tail"
        );
        assert_eq!(back.final_flush_entries, back.unflushed_keys);
        assert!(back.recover_ms > 0.0);
    }

    #[test]
    fn a_traced_rep_decomposes_into_layers() {
        let rep = one_rep("evict_churn", 42, 2, true);
        assert_eq!(rep.tally.failed, 0, "{:?}", rep.tally.messages);
        let layers = rep.layers.expect("traced rep");
        assert_eq!(layers.self_ns.iter().sum::<u64>(), layers.root_total());
        assert!(layers.calls[Layer::ProviderFetch as usize] > 0);
        assert!(layers.calls[Layer::PropTranslate as usize] > 0);
        assert!(layers.calls[Layer::PolicyEvict as usize] > 0);
        assert_eq!(
            layers.calls[Layer::ManagerRead as usize],
            rep.tally.reads.count()
        );
        assert!(!rep.dumped.is_empty());
    }
}
