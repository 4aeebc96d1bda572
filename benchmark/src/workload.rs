//! The five workloads: their parameters, their traces, and the world
//! (document space, origins, property chains, cache) each rep runs on.

use crate::span::Layer;
use crate::wrappers::{traced_policy, OriginProbe, SeamCounters, TracedProperty};
use placeless_cache::{CacheConfig, DocumentCache, MergePolicy, WriteJournal, WriteMode};
use placeless_core::prelude::*;
use placeless_properties::rot13::rot13_byte;
use placeless_properties::{Rot13AtRest, Translate};
use placeless_proplang::{ExtEnv, ScriptProperty};
use placeless_simenv::trace::{lorem_bytes, TraceBuilder};
use placeless_simenv::{LatencyModel, StableStore, VirtualClock};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// What set-up reads through the cache before the measured phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Warm {
    /// Nothing: the measured phase starts cold.
    Cold,
    /// The warm-up user (`UserId(0)`) reads every document once, so the
    /// shared base stages are resident but no trace user's version is.
    EachDocOnce,
    /// Every `(user, document)` pair of the trace is read once.
    AllPairs,
}

/// One workload's parameters. Everything that shapes the run is here and
/// is printed in the result header.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub users: usize,
    pub docs: usize,
    pub doc_bytes: usize,
    pub doc_theta: f64,
    pub user_theta: f64,
    pub locality: f64,
    pub working_set: usize,
    pub write_fraction: f64,
    /// Every second write is a typed `write_op` instead of a full-body
    /// `write`.
    pub op_writes: bool,
    pub capacity_bytes: u64,
    pub write_mode: WriteMode,
    /// Write-ahead journal on a `StableStore` plus the op-merge policy.
    pub journal: bool,
    /// Client operations per rep, split evenly over the client threads.
    pub ops_per_rep: usize,
    pub warm: Warm,
    /// Client 0 calls `flush()` once per this many operations of all
    /// clients together, i.e. after every `flush_every / clients` of its
    /// own (0 = never).
    pub flush_every: usize,
    /// Every this-many-th read is compared with the uncached middleware.
    pub oracle_every: usize,
}

const BASE: Spec = Spec {
    name: "",
    why: "",
    users: 0,
    docs: 0,
    doc_bytes: 0,
    doc_theta: 0.9,
    user_theta: 0.6,
    locality: 0.3,
    working_set: 8,
    write_fraction: 0.0,
    op_writes: false,
    capacity_bytes: 1 << 30,
    write_mode: WriteMode::Through,
    journal: false,
    ops_per_rep: 0,
    warm: Warm::Cold,
    flush_every: 0,
    oracle_every: 64,
};

/// The workloads, in report order. Names are normative: `BENCHMARK.json`
/// and every later performance claim refer to them.
pub const WORKLOADS: [Spec; 5] = [
    Spec {
        name: "hit_hot",
        why: "every read is a resident whole-version Hit (the paper's headline row): only the shard lock, verifier, policy.on_hit, store.get and stats atomics are on the path",
        users: 128,
        docs: 256,
        doc_bytes: 4096,
        ops_per_rep: 700_000,
        warm: Warm::AllPairs,
        // An uncached 4 KiB read costs ~50 hits; comparing every 64th read
        // would double the rep.
        oracle_every: 1024,
        ..BASE
    },
    Spec {
        name: "cross_user",
        why: "100k users over shared documents: ~88% PartialHit, so plan lease, stage walk, personal suffix, digest and install dominate; no eviction, no writes",
        users: 100_000,
        docs: 2048,
        doc_bytes: 1024,
        ops_per_rep: 120_000,
        warm: Warm::EachDocOnce,
        ..BASE
    },
    Spec {
        name: "evict_churn",
        why: "corpus twice the 4 MiB cache, cold start: ~60% Miss with >1 eviction per read, so origin fetch, full chain, policy.evict and store.release dominate",
        users: 2000,
        docs: 2048,
        doc_bytes: 4096,
        capacity_bytes: 4 << 20,
        ops_per_rep: 17_000,
        ..BASE
    },
    Spec {
        name: "write_through_mix",
        why: "cross_user's read layers beside 5% write-through writes: doc-wide invalidation fan-out, lease drop and refill-after-invalidate",
        users: 20_000,
        docs: 2048,
        doc_bytes: 256,
        write_fraction: 0.05,
        ops_per_rep: 36_000,
        warm: Warm::EachDocOnce,
        ..BASE
    },
    Spec {
        name: "write_back_flush",
        why: "write-back with journal and op merge, 30% writes, periodic flush, then crash and recover: journal append, dirty map, flush groups, ack compaction, recovery",
        users: 2000,
        docs: 256,
        doc_bytes: 1024,
        write_fraction: 0.30,
        op_writes: true,
        write_mode: WriteMode::Back,
        journal: true,
        ops_per_rep: 6_000,
        warm: Warm::EachDocOnce,
        // 11 flushes per rep, and not a divisor of the rep's length, so
        // the rep ends with an unflushed tail for recovery to bring back.
        flush_every: 540,
        ..BASE
    },
];

pub fn find(name: &str) -> Option<Spec> {
    WORKLOADS.iter().copied().find(|spec| spec.name == name)
}

impl Spec {
    /// The `--smoke` size: one fiftieth of the operations (at least 2000, so
    /// the small cache still overflows), same shape.
    pub fn smoke(mut self) -> Self {
        self.ops_per_rep = (self.ops_per_rep / 50).max(2000);
        if self.flush_every > 0 {
            self.flush_every = (self.flush_every / 50).max(64);
        }
        self
    }

    /// The parameters as JSON members (no braces), for result headers.
    pub fn params_json(&self) -> String {
        format!(
            "\"users\": {}, \"docs\": {}, \"doc_bytes\": {}, \"doc_theta\": {}, \"user_theta\": {}, \
             \"locality\": {}, \"working_set\": {}, \"write_fraction\": {}, \"op_writes\": {}, \
             \"capacity_bytes\": {}, \"write_mode\": \"{:?}\", \"journal\": {}, \"ops_per_rep\": {}, \
             \"warm\": \"{:?}\", \"flush_every\": {}, \"oracle_every\": {}",
            self.users,
            self.docs,
            self.doc_bytes,
            self.doc_theta,
            self.user_theta,
            self.locality,
            self.working_set,
            self.write_fraction,
            self.op_writes,
            self.capacity_bytes,
            self.write_mode,
            self.journal,
            self.ops_per_rep,
            self.warm,
            self.flush_every,
            self.oracle_every,
        )
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    Read,
    Write,
    WriteOp,
}

/// One client operation of a materialised trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    pub user: u32,
    pub doc: u32,
    pub kind: OpKind,
}

/// A trace materialised before timing: one stream per client thread.
pub struct Trace {
    pub streams: Vec<Vec<Op>>,
    /// Distinct `(user, doc)` pairs over all streams, sorted.
    pub pairs: Vec<(u32, u32)>,
    /// Wall nanoseconds `TraceSampler::next_event` took per event.
    pub next_event_ns: f64,
}

/// Materialises `clients` streams from `TraceBuilder`; `seed` is the only
/// randomness, and thread `t` gets stream `t`.
pub fn materialise(spec: &Spec, seed: u64, clients: usize) -> Trace {
    let sampler = TraceBuilder::new(seed)
        .users(spec.users)
        .documents(spec.docs)
        .doc_theta(spec.doc_theta)
        .user_theta(spec.user_theta)
        .locality(spec.locality)
        .working_set(spec.working_set)
        .write_fraction(spec.write_fraction)
        .build();
    let per_client = spec.ops_per_rep / clients;
    let started = Instant::now();
    let streams: Vec<Vec<Op>> = (0..clients)
        .map(|t| {
            let mut rng = sampler.stream(t as u64);
            (0..per_client)
                .map(|i| {
                    let event = sampler.next_event(&mut rng);
                    let kind = match (event.is_write, spec.op_writes && i % 2 == 1) {
                        (false, _) => OpKind::Read,
                        (true, false) => OpKind::Write,
                        (true, true) => OpKind::WriteOp,
                    };
                    Op {
                        user: event.user as u32,
                        doc: event.doc as u32,
                        kind,
                    }
                })
                .collect()
        })
        .collect();
    let next_event_ns = started.elapsed().as_nanos() as f64 / (per_client * clients).max(1) as f64;
    let mut pairs: Vec<(u32, u32)> = streams
        .iter()
        .flatten()
        .map(|op| (op.user, op.doc))
        .collect();
    pairs.sort_unstable();
    pairs.dedup();
    Trace {
        streams,
        pairs,
        next_event_ns,
    }
}

impl Trace {
    /// The same operations as one stream, taking turns between the
    /// original streams: what a single client replays for `scaling_eff`.
    pub fn interleaved(&self) -> Trace {
        let longest = self.streams.iter().map(Vec::len).max().unwrap_or(0);
        let merged = (0..longest)
            .flat_map(|i| self.streams.iter().filter_map(move |s| s.get(i).copied()))
            .collect();
        Trace {
            streams: vec![merged],
            pairs: self.pairs.clone(),
            next_event_ns: self.next_event_ns,
        }
    }

    pub fn ops(&self) -> usize {
        self.streams.iter().map(Vec::len).sum()
    }
}

/// The application-side id of trace user `u`; `UserId(0)` owns the
/// documents and does the warm-up reads.
pub fn user_id(user: u32) -> UserId {
    UserId(u64::from(user) + 1)
}

pub const WARM_USER: UserId = UserId(0);

/// One user in four carries a personal PropLang suffix.
pub fn has_personal_suffix(user: u32) -> bool {
    user.is_multiple_of(4)
}

/// Everything one rep runs against, built fresh per rep.
pub struct World {
    pub space: Arc<DocumentSpace>,
    pub cache: Arc<DocumentCache>,
    pub docs: Vec<DocumentId>,
    /// The repo's provider behind each [`OriginProbe`], for the oracle.
    pub origins: Vec<Arc<MemoryProvider>>,
    pub counters: Arc<SeamCounters>,
    /// The journal's stable medium; survives the simulated crash.
    pub medium: Option<StableStore>,
}

/// The production-shaped cache configuration every workload uses.
pub fn cache_config(spec: &Spec, journal: Option<WriteJournal>, traced: bool) -> CacheConfig {
    let mut builder = CacheConfig::builder()
        .capacity_bytes(spec.capacity_bytes)
        .write_mode(spec.write_mode)
        .local_latency(LatencyModel::FREE)
        .shards(0)
        .stage_cache(true)
        .single_flight(true)
        .batched_flush(true);
    if let Some(journal) = journal {
        builder = builder.journal(journal).merge(MergePolicy::new());
    }
    if traced {
        builder = builder.policy(traced_policy());
    }
    builder.build()
}

/// Builds the space (documents, property chains, references) and a cold
/// cache over it. The space is complete before the cache subscribes to
/// its bus, so population never pays for invalidation fan-out.
pub fn build_world(spec: &Spec, trace: &Trace, seed: u64, traced: bool) -> World {
    let counters = Arc::new(SeamCounters::default());
    let space = DocumentSpace::with_middleware_cost(VirtualClock::new(), LatencyModel::FREE);
    let wrap = |prop: Arc<dyn ActiveProperty>, layer: Layer| {
        if traced {
            TracedProperty::wrap(prop, layer)
        } else {
            prop
        }
    };
    let rot13 = wrap(Rot13AtRest::new(), Layer::PropRot13);
    let translate = wrap(Translate::to("fr"), Layer::PropTranslate);

    let mut docs = Vec::with_capacity(spec.docs);
    let mut origins = Vec::with_capacity(spec.docs);
    for d in 0..spec.docs {
        // Stored scrambled, as `Rot13AtRest` leaves content at rest, so
        // the read path yields the English text `Translate` works on.
        let mut body = lorem_bytes(seed.wrapping_add(d as u64), spec.doc_bytes);
        body.iter_mut().for_each(|b| *b = rot13_byte(*b));
        let origin = MemoryProvider::new(&format!("doc{d}"), body, 200);
        let doc = space.create_document(
            WARM_USER,
            OriginProbe::new(origin.clone(), counters.clone(), traced),
        );
        for prop in [&rot13, &translate] {
            space
                .attach_active(Scope::Universal, doc, prop.clone())
                .expect("document was just created");
        }
        docs.push(doc);
        origins.push(origin);
    }

    let mut suffixes: HashMap<u32, Arc<dyn ActiveProperty>> = HashMap::new();
    for &(user, doc) in &trace.pairs {
        let (uid, doc) = (user_id(user), docs[doc as usize]);
        space.add_reference(uid, doc).expect("document exists");
        if has_personal_suffix(user) {
            let suffix = suffixes.entry(user).or_insert_with(|| {
                // User-specific program text gives a user-specific stage
                // signature: the paper's per-user version. The rewrite
                // keeps the length bounded when views are written back.
                let source = format!("replace(\"placeless\", \"u{user}\")");
                let script =
                    ScriptProperty::compile(&format!("suffix-{user}"), &source, ExtEnv::new())
                        .expect("suffix program parses");
                wrap(script, Layer::PropScript)
            });
            space
                .attach_active(Scope::Personal(uid), doc, suffix.clone())
                .expect("reference was just added");
        }
    }

    let medium = spec.journal.then(StableStore::new);
    let journal = medium.clone().map(WriteJournal::new);
    let cache = DocumentCache::new(space.clone(), cache_config(spec, journal, traced));
    World {
        space,
        cache,
        docs,
        origins,
        counters,
        medium,
    }
}

/// Runs the workload's warm-up reads; returns how many failed.
pub fn warm(spec: &Spec, trace: &Trace, world: &World) -> u64 {
    let mut failed = 0;
    let mut read = |user: UserId, doc: DocumentId| {
        if world.cache.read(user, doc).is_err() {
            failed += 1;
        }
    };
    match spec.warm {
        Warm::Cold => {}
        Warm::EachDocOnce => world.docs.iter().for_each(|&doc| read(WARM_USER, doc)),
        Warm::AllPairs => trace
            .pairs
            .iter()
            .for_each(|&(user, doc)| read(user_id(user), world.docs[doc as usize])),
    }
    failed
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_are_unique_and_fit_the_contract() {
        for (i, spec) in WORKLOADS.iter().enumerate() {
            assert!(spec.why.len() <= 200, "{}: why too long", spec.name);
            assert!(!spec.why.contains('\n'));
            assert!(WORKLOADS[..i].iter().all(|other| other.name != spec.name));
            assert_eq!(find(spec.name).map(|s| s.name), Some(spec.name));
        }
        assert!(find("nope").is_none());
    }

    #[test]
    fn same_seed_same_trace_and_streams_differ() {
        let spec = find("write_back_flush").unwrap().smoke();
        let a = materialise(&spec, 42, 2);
        let b = materialise(&spec, 42, 2);
        assert_eq!(a.streams, b.streams);
        assert_eq!(a.pairs, b.pairs);
        assert_ne!(a.streams[0], a.streams[1]);
        assert_ne!(a.streams, materialise(&spec, 43, 2).streams);
        assert!(a.streams[0].iter().any(|op| op.kind == OpKind::Write));
        assert!(a.streams[0].iter().any(|op| op.kind == OpKind::WriteOp));
    }

    #[test]
    fn interleaving_keeps_every_operation() {
        let spec = find("cross_user").unwrap().smoke();
        let trace = materialise(&spec, 7, 2);
        let single = trace.interleaved();
        assert_eq!(single.streams.len(), 1);
        assert_eq!(single.ops(), trace.ops());
        assert_eq!(single.streams[0][0], trace.streams[0][0]);
        assert_eq!(single.streams[0][1], trace.streams[1][0]);
    }
}
