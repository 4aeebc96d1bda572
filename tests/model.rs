//! One oracle for the cache.
//!
//! A cached rendition is valid when its bytes, its property set, their
//! order and their external inputs match what the uncached middleware
//! produces for its user. [`Reference`] says that sequentially, with
//! transforms of its own: `tests/reference`'s rot13 and translation, and
//! `str::replace` and `str::to_uppercase` for PropLang. One seeded op
//! sequence drives it beside a real [`DocumentCache`] at one shard and at
//! four, and after every step [`Machine::check`] holds the cache to it and
//! to a recount of its own books ([`DocumentCache::recount`]).
//!
//! Faults and time are ops too. Document 2 is a page on a web server behind
//! a link [`Op::Dark`] partitions, fresh for a TTL or revalidated on every
//! hit; [`Op::Tick`] moves the clock past the TTL, the staleness bound and
//! the breaker's cool-down; [`Op::DropNext`] loses the bus's next delivery.
//! Each served read has a horizon: its bytes must be a rendition its key
//! had at or after it. That is now for a read nothing excuses, now less the
//! TTL for a hit on a TTL page, now less the bound for stale service, and
//! the lost post's time until the next delivered one reveals the gap. Only
//! document 2's operations may fail, transiently, while its link is dark or
//! its breaker is not closed. Each case runs twice at one shard, and the two
//! runs must keep the same books. The vendored proptest does not shrink: a
//! failure drops every op it does not need and prints a `replay` call to
//! paste into a `#[test]` with `use {Kind::*, Op::*};`.
//!
//! Threads are the same oracle's ([`replay_threaded`]): a case's ops run on
//! a seeded [`Schedule`], a mutator beside two readers and, writing back, a
//! flusher. A read must serve what its key had at some moment while it ran,
//! and the books at quiescence are the sequential mode's.

mod reference;

use bytes::Bytes;
use parking_lot::Mutex as Lock;
use placeless::prelude::*;
use placeless_cache::manager::Recount;
use placeless_cache::{
    md5, BreakerState, EntryKey, FlushReport, MergePolicy, OriginConfig, OverloadControl, Priority,
    Signature, StalenessBound, WindowConfig, WriteJournal, NO_EPOCH,
};
use placeless_core::bitprovider::BitProvider;
use placeless_core::external::SimpleExternal;
use placeless_core::notifier::Invalidation;
use placeless_core::op::{apply_all, rebasable, DocOp};
use placeless_core::property::ActiveProperty;
use placeless_properties::translate::EN_FR;
use placeless_simenv::sched::{self, Schedule};
use placeless_simenv::{FaultPlan, Instant, LatencyModel, StableStore};
use proptest::prelude::*;
use proptest::sample::select;
use proptest::test_runner::TestRng;
use reference::{reference_rot13, reference_translate};
use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A step's verdict: an error says what broke.
type Checked<T = ()> = std::result::Result<T, Box<dyn std::error::Error>>;

/// Fails the step with the formatted reason unless `$holds`.
macro_rules! ensure {
    ($holds:expr, $($why:tt)+) => {
        if !$holds {
            return Err(format!($($why)+).into());
        }
    };
}

const DOCS: usize = 3;
/// The document on the web server; the others are in memory.
const WEB: usize = 2;
const PAGE: &str = "/doc2";
const USERS: [UserId; 2] = [UserId(1), UserId(2)];
/// How long a TTL page is fresh ([`Setup::ttl`]), and how stale a resilient
/// cache may serve one it cannot revalidate ([`Setup::resilient`]).
const TTL: u64 = 20_000;
const BOUND: u64 = 40_000;
/// The steps [`Op::Tick`] draws from: inside the TTL, past it, past the
/// staleness bound, and past the breaker's 50 ms cool-down
/// (`OriginConfig::BREAKER_OPEN_MICROS`).
const TICKS: [u64; 4] = [1_000, 25_000, 45_000, 60_000];
/// About two 4 KiB bodies: well below the working set.
const CAPACITY: u64 = 8 * 1024;
/// Eight times as many in the release build `scripts/check.sh` runs.
const CASES: u32 = if cfg!(debug_assertions) { 48 } else { 384 };
const QUOTES: [&[u8]; 3] = [b"42.50", b"\xff\xfe", b""];
/// The values of the personal static `mode`; PropLang goes loud on one.
const MODES: [&str; 2] = ["loud", "quiet"];

/// The bodies ops draw from: empty, short text, bytes that are not UTF-8,
/// and text around the 4 KiB chunk boundary — a byte short of it, on it
/// (`workshop` cut there), and with an `é` straddling it.
fn body(index: usize) -> Bytes {
    let text = b"Hello world, the paper and the workshop. ";
    let words = |len| text.iter().copied().cycle().take(len).collect::<Vec<u8>>();
    match index % 6 {
        0 => Bytes::new(),
        1 => Bytes::from_static(b"the cat and the hat"),
        2 => Bytes::from_static(b"\x89PNG\xff\xfe\x00 the end"),
        3 => words(4095).into(),
        4 => words(4096).into(),
        _ => [&words(4095)[..], "é the paper".as_bytes()].concat().into(),
    }
}

/// The typed edits `write_op` draws from.
fn edit(index: usize) -> DocOp {
    let range = |start, end, data| DocOp::ReplaceRange { start, end, data };
    match index % 4 {
        0 => DocOp::Append(Bytes::from_static(b" and the end")),
        1 => range(0, 3, Bytes::from_static(b"THE")),
        2 => range(4094, 4098, Bytes::from_static(b"\xff")),
        _ => DocOp::Replace(body(index / 4)),
    }
}

/// The options reads draw from: the defaults, or a deadline and the
/// first class overload control sheds — inert while nothing contends.
fn read_options(index: usize) -> ReadOptions {
    let background = ReadOptions::default().deadline_micros(50_000);
    [
        ReadOptions::default(),
        background.priority(Priority::Prefetch),
    ][index]
}

/// The active properties a chain is made of.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Kind {
    Rot13,
    Replace,
    Fr,
    Loud,
    Quote,
}

/// One step. Fields are indices — a document, a user (`None`: the
/// universal list), then a body, an edit, a list position or a value — so
/// that a printed sequence stays short.
#[derive(Clone, Copy, Debug)]
enum Op {
    /// `(doc, user, options)` of [`read_options`].
    Read(usize, usize, usize),
    Write(usize, usize, usize),
    /// A `write_op` of `(doc, user, edit)`.
    Edit(usize, usize, usize),
    Flush,
    BusDoc(usize),
    BusUser(usize, usize),
    /// A body written at the provider behind Placeless's back.
    OutOfBand(usize, usize),
    Attach(usize, Option<usize>, Kind),
    /// `(doc, user, pick)` of the list's properties.
    Detach(usize, Option<usize>, usize),
    /// `(doc, user, pick, to)`
    Reorder(usize, Option<usize>, usize, usize),
    /// `(doc, user, value)` of [`MODES`].
    SetMode(usize, usize, usize),
    /// The quote source's next value, of [`QUOTES`].
    External(usize),
    /// Moves the clock by one of [`TICKS`].
    Tick(usize),
    /// Partitions document 2's link, or heals it.
    Dark(bool),
    /// Loses the bus's next delivery.
    DropNext,
}

fn op() -> impl Strategy<Value = Op> {
    use Kind::*;
    // Half the ops on the web document, two thirds by user 0: a key's ops
    // meet, and meet its faults and the clock.
    let (doc, user) = (select(vec![0, 0, 1, 2, 2, 2]), select(vec![0, 0, 1]));
    let key = (doc.clone(), user);
    let list = (doc.clone(), select(vec![Some(0), Some(0), Some(1), None]));
    let kinds = [[Rot13, Replace, Rot13, Replace], [Fr, Loud, Quote, Replace]];
    let kind = move |user: Option<usize>, k: usize| kinds[usize::from(user.is_some())][k];
    let read = || (key.clone(), 0..2usize).prop_map(|((d, u), o)| Op::Read(d, u, o));
    let write = || (key.clone(), 0..6usize).prop_map(|((d, u), b)| Op::Write(d, u, b));
    let write_op = || (key.clone(), 0..24usize).prop_map(|((d, u), e)| Op::Edit(d, u, e));
    prop_oneof![
        read(),
        read(),
        read(),
        write(),
        write(),
        write_op(),
        write_op(),
        Just(Op::Flush),
        Just(Op::Flush),
        doc.clone().prop_map(Op::BusDoc),
        key.clone().prop_map(|(d, u)| Op::BusUser(d, u)),
        (doc, 0..6usize).prop_map(|(d, b)| Op::OutOfBand(d, b)),
        (list.clone(), 0..4usize).prop_map(move |((d, u), k)| Op::Attach(d, u, kind(u, k))),
        (list.clone(), 0..8usize).prop_map(|((d, u), p)| Op::Detach(d, u, p)),
        (list, 0..8usize, 0..8usize).prop_map(|((d, u), p, to)| Op::Reorder(d, u, p, to)),
        (key, 0..2usize).prop_map(|((d, u), v)| Op::SetMode(d, u, v)),
        (0..3usize).prop_map(Op::External),
        (0..4usize).prop_map(Op::Tick),
        (0..4usize).prop_map(Op::Tick),
        any::<bool>().prop_map(Op::Dark),
        any::<bool>().prop_map(Op::Dark),
        Just(Op::DropNext),
    ]
}

/// The cache configuration a case runs under, beside its shard count.
#[derive(Clone, Copy, Debug, Default)]
struct Setup {
    back: bool,
    merge: bool,
    stage_cache: bool,
    /// A two-wide origin window under overload control, which a stream of
    /// single-threaded reads must never see.
    window: bool,
    /// Room for everything, instead of [`CAPACITY`].
    roomy: bool,
    /// Document 2's page is fresh for [`TTL`], not revalidated on each hit.
    ttl: bool,
    /// `run_verifiers: false`: notifiers alone keep entries fresh, so the
    /// case draws no out-of-band edit and no external input, which by
    /// definition such a cache cannot see.
    notifier_only: bool,
    /// Two retries, a breaker, and stale service within [`BOUND`].
    resilient: bool,
}

// ---- the sequential reference ------------------------------------------

#[derive(Clone, Debug, PartialEq)]
enum Slot {
    Active(Kind),
    Mode(&'static str),
}

/// A property list as the space holds it, in order, notifiers aside.
type Chain = Vec<(PropertyId, Slot)>;

/// A write-back writer's buffered write: its view, base epoch and ops, and
/// whether a flush parked it.
struct Buffered(Bytes, Signature, Vec<DocOp>, bool);

/// What a `MergeReport` counts: conflicts examined, merged, ops rebased,
/// and kept mine.
type Tally = [u64; 4];

#[derive(Default)]
struct Reference {
    /// Each document's bytes at its provider.
    origin: Vec<Bytes>,
    /// By document and user, `None` the universal list.
    chains: HashMap<(usize, Option<usize>), Chain>,
    quote: Bytes,
    dirty: BTreeMap<(usize, usize), Buffered>,
    /// The renditions each key has had since it was last seen absent, each
    /// from when it was first seen.
    admissible: HashMap<(usize, usize), Vec<(Instant, Bytes)>>,
    /// Since when a lost post may have left a version stale: from the step
    /// the bus dropped it in to the next delivered post.
    unnoticed: Option<Instant>,
    /// When the last step that may have filled each key's version ended: a
    /// read or an edit of it, or a flush, whose probes fill.
    filled: HashMap<(usize, usize), Instant>,
    /// Reads served from a resident version, through the origin, stale, or
    /// not at all; a writer's reads of its buffered write aside.
    served: [u64; 4],
    /// How often a buffered write was parked that was not parked before.
    parks: u64,
    /// What overload control did: sheds, brownout shifts and queue wait.
    /// Nothing, unless threads contended for a window.
    overload: (u64, u64, u64),
}

impl Reference {
    /// What the uncached middleware reads for `user`: the origin's bytes
    /// through the universal list, then the user's own.
    fn render(&self, doc: usize, user: usize) -> Bytes {
        let lists = [None, Some(user)].map(|list| &self.chains[&(doc, list)]);
        render(&self.origin[doc], lists, &[&self.quote])
    }

    /// What a write of `data` leaves at the provider: rot13-at-rest is the
    /// one property with a write side.
    fn at_rest(&self, doc: usize, data: &[u8]) -> Bytes {
        let rot13 = |(_, slot): &&(PropertyId, Slot)| *slot == Slot::Active(Kind::Rot13);
        let odd = self.chains[&(doc, None)].iter().filter(rot13).count() % 2 == 1;
        let at_rest = |b: &u8| if odd { reference_rot13(*b) } else { *b };
        data.iter().map(at_rest).collect()
    }

    /// What flushing `doc`'s buffered writes, in user order and one group,
    /// leaves at its provider, and what a `MergeReport` counts of them.
    /// With a merge policy, a write whose base epoch is not the rendition
    /// its probe read (`probed`, one a write) is a conflict, and a
    /// rebasable delta is applied to the group's previous write or, for the
    /// first, to that rendition.
    fn flush_doc(&self, doc: usize, merge: bool, probed: &[Bytes]) -> (Tally, Bytes) {
        let (mut tally, mut last) = ([0; 4], None::<Bytes>);
        let writes = self
            .dirty
            .range((doc, 0)..=(doc, 1))
            .map(|(_, write)| write);
        for (Buffered(view, epoch, ops, _), now) in writes.zip(probed) {
            let rebases = merge && rebasable(ops);
            if merge && *epoch != NO_EPOCH && md5(now) != *epoch {
                let rebased = if rebases { ops.len() as u64 } else { 0 };
                let counts = [1, u64::from(rebases), rebased, u64::from(!rebases)];
                tally = std::array::from_fn(|i| tally[i] + counts[i]);
            }
            last = Some(match last {
                _ if !rebases => view.clone(),
                base => apply_all(base.as_ref().unwrap_or(now), ops),
            });
        }
        (tally, self.at_rest(doc, &last.unwrap_or_default()))
    }

    /// Whether `bytes` is a rendition `key` had at or after `horizon`, or
    /// without one, the rendition it has now.
    fn admits(&self, key: (usize, usize), horizon: Option<Instant>, bytes: &[u8]) -> bool {
        let Some(horizon) = horizon else {
            return self.render(key.0, key.1) == bytes;
        };
        let seen = &self.admissible[&key];
        let ends = seen
            .iter()
            .skip(1)
            .map(|(from, _)| *from)
            .chain([Instant(u64::MAX)]);
        let mut spans = seen.iter().zip(ends);
        spans.any(|((_, had), end)| end >= horizon && had == bytes)
    }
}

/// What the uncached middleware reads from `origin` through `lists`, the
/// universal one, then a user's own, the `i`th quote stage reading the
/// quote source's `quotes[i]`, or the last.
fn render(origin: &[u8], lists: [&Chain; 2], quotes: &[&Bytes]) -> Bytes {
    let lossy = |bytes: &[u8]| String::from_utf8_lossy(bytes).into_owned();
    let translate = |pairs: &[(&str, &str)], bytes: &[u8]| {
        let table = pairs.iter().map(|&(k, v)| (k.into(), v.into()));
        reference_translate(&table.collect(), bytes)
    };
    let (mut bytes, mut quotes) = (origin.to_vec(), quotes.iter());
    let loud = lists[1].iter().any(|(_, slot)| *slot == Slot::Mode("loud"));
    let mut quote = quotes.next().unwrap();
    for (_, slot) in lists.iter().flat_map(|list| list.iter()) {
        let Slot::Active(kind) = slot else { continue };
        bytes = match kind {
            Kind::Rot13 => bytes.iter().map(|&b| reference_rot13(b)).collect(),
            Kind::Replace => lossy(&bytes).replace("the", "le").into_bytes(),
            Kind::Fr => translate(EN_FR, &bytes),
            Kind::Loud if loud => lossy(&bytes).to_uppercase().into_bytes(),
            Kind::Loud => bytes,
            Kind::Quote => {
                let read = lossy(quote);
                quote = quotes.next().unwrap_or(quote);
                (lossy(&bytes) + &read).into_bytes()
            }
        };
    }
    bytes.into()
}

// ---- the machine -------------------------------------------------------

struct Machine {
    setup: Setup,
    space: Arc<DocumentSpace>,
    cache: Arc<DocumentCache>,
    docs: Vec<DocumentId>,
    /// Documents 0 and 1's providers, and document 2's server.
    memory: Vec<Arc<MemoryProvider>>,
    server: Arc<WebServer>,
    /// Document 2's link's fault plan, and whether it is partitioned.
    plan: FaultPlan,
    dark: bool,
    quote: Arc<SimpleExternal>,
    reference: Reference,
    /// The recount after the previous step.
    last: Recount,
    /// The bus's `(posted, delivered)` after the previous step, and the
    /// deliveries [`Op::DropNext`] armed that no post has used up.
    bus: (u64, u64),
    armed: u64,
    /// What a threaded case's threads saw.
    seen: Seen,
    /// Quiescent reads of a revalidated page that anchored on its leased root.
    web_root_reuses: u64,
}

impl Machine {
    /// Three documents, each held by both users, notified of content and
    /// property changes; user 0 reads through PropLang that runs no stage
    /// until `mode` is `loud`, user 1 through French. The cache comes
    /// last: the first op finds it having seen no post.
    fn new(setup: Setup, shards: usize) -> Self {
        let space = DocumentSpace::with_middleware_cost(VirtualClock::new(), LatencyModel::FREE);
        let (quote, universal) = (SimpleExternal::new("quote", QUOTES[0]), Scope::Universal);
        let memory: Vec<_> = (0..WEB)
            .map(|d| MemoryProvider::new(&format!("doc{d}"), body([2, 5][d]), 100))
            .collect();
        let (server, plan) = (WebServer::new("web"), FaultPlan::builder(7).build());
        server.publish(PAGE, body(3), TTL);
        let link = Link::new(500, 100_000_000, 0.0, 7);
        link.set_fault_plan(plan.clone());
        let web = [WebProvider::with_revalidation, WebProvider::new][usize::from(setup.ttl)];
        let web = web(server.clone(), PAGE, link);
        let providers = memory.iter().map(|p| p.clone() as Arc<dyn BitProvider>);
        let (mut reference, mut docs) = (Reference::default(), Vec::new());
        for (d, provider) in providers.chain([web as Arc<dyn BitProvider>]).enumerate() {
            let doc = space.create_document(USERS[0], provider);
            space.add_reference(USERS[1], doc).unwrap();
            let notifiers: [Arc<dyn ActiveProperty>; 2] =
                [ContentWriteNotifier::any(), PropertyChangeNotifier::any()];
            for notifier in notifiers {
                space.attach_active(universal, doc, notifier).unwrap();
            }
            reference.chains.insert((d, None), Vec::new());
            for (user, kind) in [(0, Kind::Loud), (1, Kind::Fr)] {
                let (scope, property) = (Scope::Personal(USERS[user]), property(&quote, kind));
                let id = space.attach_active(scope, doc, property).unwrap();
                reference
                    .chains
                    .insert((d, Some(user)), vec![(id, Slot::Active(kind))]);
            }
            docs.push(doc);
        }
        let control = setup.window.then(OverloadControl::default);
        let mut origin = OriginConfig::default().window(WindowConfig { width: 2, control });
        if setup.resilient {
            let bound = StalenessBound::micros(BOUND);
            origin = origin.max_retries(2).breaker(true).serve_stale(bound);
        }
        let config = CacheConfig {
            capacity_bytes: if setup.roomy { 1 << 20 } else { CAPACITY },
            local_latency: LatencyModel::FREE,
            shards,
            run_verifiers: !setup.notifier_only,
            stage_cache: setup.stage_cache,
            write_mode: [WriteMode::Through, WriteMode::Back][usize::from(setup.back)],
            journal: setup.back.then(|| WriteJournal::open(StableStore::new()).0),
            merge: setup.merge.then(MergePolicy::new),
            origin,
            ..CacheConfig::default()
        };
        let cache = DocumentCache::new(space.clone(), config);
        reference.quote = Bytes::from_static(QUOTES[0]);
        let mut machine = Self {
            setup,
            space,
            cache,
            docs,
            memory,
            server,
            plan,
            dark: false,
            quote,
            reference,
            last: Recount::default(),
            bus: (0, 0),
            armed: 0,
            seen: Seen::default(),
            web_root_reuses: 0,
        };
        machine.reference.origin = (0..DOCS).map(|d| machine.origin(d)).collect();
        machine.bus = machine.space.bus().counters();
        machine
    }

    /// `(doc, user)`'s resident version as the last recount found it.
    fn resident(&self, doc: usize, user: usize) -> Option<&Bytes> {
        let key = EntryKey::Version(self.docs[doc], USERS[user]);
        let mut entries = self.last.entries.iter();
        entries.find_map(|(k, _, bytes)| (*k == key).then_some(bytes))
    }

    fn index(&self, doc: DocumentId) -> usize {
        self.docs.iter().position(|&d| d == doc).unwrap()
    }

    /// What `doc`'s provider holds.
    fn origin(&self, doc: usize) -> Bytes {
        match self.memory.get(doc) {
            Some(provider) => provider.content(),
            None => self.server.get(PAGE).unwrap().body,
        }
    }

    /// Whether an operation on `doc` may fail: only document 2's, while its
    /// link is dark or its breaker is not closed.
    fn faulted(&self, doc: usize) -> bool {
        let origin = || self.space.origin_of(self.docs[WEB]).unwrap();
        doc == WEB && (self.dark || self.cache.breaker_state(&origin()) != BreakerState::Closed)
    }

    /// `Some` of what `result` holds, or `None` if it failed as it may:
    /// transiently, on a `faulted` origin.
    fn allowed<T>(faulted: bool, result: Result<T>) -> Checked<Option<T>> {
        match result {
            Ok(value) => Ok(Some(value)),
            Err(error) if error.is_transient() && faulted => Ok(None),
            Err(error) => Err(format!("failed: {error}").into()),
        }
    }

    /// The renditions a probe of `(doc, user)`'s current rendition may
    /// read: the one it has now, or while a lost post is unnoticed, its
    /// resident version, which a verifier may vouch for. A write on no
    /// epoch rebases onto the origin without a probe.
    fn probed(&self, doc: usize, user: usize, epoch: Signature) -> Vec<Bytes> {
        let now = self.reference.render(doc, user);
        let unnoticed = self.reference.unnoticed.is_some() && epoch != NO_EPOCH;
        let resident = self
            .resident(doc, user)
            .filter(|bytes| unnoticed && **bytes != now);
        [now].into_iter().chain(resident.cloned()).collect()
    }

    /// Applies `op`, then notes which versions it may have filled, and what
    /// the bus did meanwhile. Armed drops take the first posts: a dropped
    /// one opens a window in which a version may be as stale as that post
    /// left it, and the next delivered one closes it, the cache seeing the
    /// gap.
    fn step(&mut self, op: &Op) -> Checked {
        let start = self.space.clock().now();
        self.apply(op)?;
        let (end, reference) = (self.space.clock().now(), &mut self.reference);
        let filled: Vec<_> = match *op {
            Op::Flush => (0..DOCS).flat_map(|doc| [(doc, 0), (doc, 1)]).collect(),
            Op::Read(doc, user, _) | Op::Edit(doc, user, _) => vec![(doc, user)],
            _ => Vec::new(),
        };
        reference
            .filled
            .extend(filled.into_iter().map(|key| (key, end)));
        let (posted, delivered) = self.space.bus().counters();
        let dropped = (posted - self.bus.0) - (delivered - self.bus.1);
        self.armed -= dropped;
        if delivered > self.bus.1 {
            reference.unnoticed = None;
        } else if dropped > 0 {
            reference.unnoticed.get_or_insert(start);
        }
        self.bus = (posted, delivered);
        Ok(())
    }

    /// Applies `op` to the cache, or the world under it, and to the
    /// reference, checking what the op itself returns.
    fn apply(&mut self, op: &Op) -> Checked {
        let (cache, space, docs) = (self.cache.clone(), self.space.clone(), self.docs.clone());
        let at = |doc: usize| docs[doc];
        let scope = |u: Option<usize>| u.map_or(Scope::Universal, |u| Scope::Personal(USERS[u]));
        let reference = &mut self.reference;
        match *op {
            Op::Read(doc, user, options) => return self.read(doc, user, read_options(options)),
            Op::Write(doc, user, b) if !self.setup.back => {
                let written = cache.write(USERS[user], at(doc), &body(b));
                if Self::allowed(self.faulted(doc), written)?.is_some() {
                    self.reference.origin[doc] = self.reference.at_rest(doc, &body(b));
                }
            }
            Op::Write(doc, user, b) => {
                // Based on what its writer last saw: its buffered write, else
                // the resident version. A parked key stays parked.
                let buffered = self.reference.dirty.get(&(doc, user));
                let (epoch, parked) = (buffered.map(|w| w.1), buffered.is_some_and(|w| w.3));
                let epoch = epoch.or_else(|| self.resident(doc, user).map(|r| md5(r)));
                cache.write(USERS[user], at(doc), &body(b))?;
                let write = Buffered(body(b), epoch.unwrap_or(NO_EPOCH), Vec::new(), parked);
                self.reference.dirty.insert((doc, user), write);
            }
            Op::Edit(doc, user, e) if !self.setup.back => {
                let (bases, faulted) = (self.probed(doc, user, md5(b"")), self.faulted(doc));
                let written = cache.write_op(USERS[user], at(doc), edit(e));
                if Self::allowed(faulted, written)?.is_none() {
                    return Ok(());
                }
                // Applied to a rendition its probe may have read.
                let stored = self.origin(doc);
                let made = |base| self.reference.at_rest(doc, &edit(e).apply(base)) == stored;
                ensure!(bases.iter().any(made), "edited into {stored:?}");
                self.reference.origin[doc] = stored;
            }
            Op::Edit(doc, user, e) => {
                let resident = self.resident(doc, user).cloned();
                let dark = doc == WEB && self.dark;
                cache.write_op(USERS[user], at(doc), edit(e))?;
                let reference = &mut self.reference;
                // A buffered plain write is a delta of one full-body op. With
                // nothing buffered or resident, the base is the rendition now,
                // or with the origin out of reach, nothing, on no epoch.
                let Buffered(base, epoch, mut ops, parked) =
                    match reference.dirty.remove(&(doc, user)) {
                        Some(Buffered(view, epoch, ops, parked)) if ops.is_empty() => {
                            Buffered(view.clone(), epoch, vec![DocOp::Replace(view)], parked)
                        }
                        Some(write) => write,
                        None if resident.is_none() && dark => {
                            Buffered(Bytes::new(), NO_EPOCH, Vec::new(), false)
                        }
                        None => {
                            let base = resident.unwrap_or_else(|| reference.render(doc, user));
                            Buffered(base.clone(), md5(&base), Vec::new(), false)
                        }
                    };
                ops.push(edit(e));
                let write = Buffered(edit(e).apply(&base), epoch, ops, parked);
                reference.dirty.insert((doc, user), write);
            }
            Op::Flush => return self.flush(),
            Op::BusDoc(doc) => return self.post(at(doc), None),
            Op::BusUser(doc, user) => return self.post(at(doc), Some(USERS[user])),
            Op::OutOfBand(..) | Op::External(_) if self.setup.notifier_only => {}
            Op::OutOfBand(doc, b) => {
                match self.memory.get(doc) {
                    Some(provider) => provider.set_out_of_band(body(b)),
                    None => self.server.edit_origin(PAGE, body(b))?,
                }
                reference.origin[doc] = body(b);
            }
            Op::Attach(doc, user, kind) => {
                let id = space.attach_active(scope(user), at(doc), property(&self.quote, kind))?;
                let chain = self.reference.chains.get_mut(&(doc, user)).unwrap();
                chain.push((id, Slot::Active(kind)));
            }
            Op::Detach(doc, user, pick) | Op::Reorder(doc, user, pick, _) => {
                let chain = reference.chains.get_mut(&(doc, user)).unwrap();
                if chain.is_empty() {
                    return Ok(());
                }
                let (id, slot) = chain.remove(pick % chain.len());
                if let Op::Reorder(.., to) = *op {
                    let to = to % (chain.len() + 1);
                    chain.insert(to, (id, slot));
                    // The universal list starts with the two notifiers.
                    let to = to + 2 * usize::from(user.is_none());
                    space.reorder_property(scope(user), at(doc), id, to)?;
                } else {
                    space.remove_property(scope(user), at(doc), id)?;
                }
            }
            Op::SetMode(doc, user, value) => {
                let (value, scope) = (MODES[value], scope(Some(user)));
                let chain = reference.chains.get_mut(&(doc, Some(user))).unwrap();
                let set = |(_, slot): &(_, Slot)| matches!(slot, Slot::Mode(_));
                if let Some(i) = chain.iter().position(set) {
                    space.remove_property(scope, at(doc), chain.remove(i).0)?;
                }
                let id = space.attach_static(scope, at(doc), "mode", value)?;
                chain.push((id, Slot::Mode(value)));
            }
            Op::External(value) => {
                self.quote.set(QUOTES[value]);
                reference.quote = Bytes::from_static(QUOTES[value]);
            }
            Op::Tick(step) => drop(space.clock().advance(TICKS[step])),
            Op::Dark(dark) => {
                self.plan.set_partitioned(dark);
                self.dark = dark;
            }
            Op::DropNext => {
                space.bus().drop_next_deliveries(1);
                self.armed += 1;
            }
        }
        Ok(())
    }

    fn read(&mut self, doc: usize, user: usize, options: ReadOptions) -> Checked {
        let (at, by, start) = (self.docs[doc], USERS[user], self.space.clock().now());
        let buffered = self.reference.dirty.get(&(doc, user)).map(|w| w.0.clone());
        let cold = buffered.is_none() && self.resident(doc, user).is_none();
        let (dark, faulted) = (doc == WEB && self.dark, self.faulted(doc));
        let read = self.cache.read_with(by, at, options);
        let Some(outcome) = Self::allowed(faulted, read)? else {
            // Only a TTL or an external input refutes a version of a page
            // that cannot be revalidated: it stays for the origin's return.
            let chains = [None, Some(user)].map(|list| self.reference.chains[&(doc, list)].clone());
            let quoted = chains
                .concat()
                .iter()
                .any(|(_, s)| *s == Slot::Active(Kind::Quote));
            let kept = cold || self.setup.ttl || quoted || self.cache.contains(by, at);
            ensure!(buffered.is_none() && kept, "a failed read lost its entry");
            self.reference.served[3] += 1;
            return Ok(());
        };
        ensure!(!(cold && dark), "served through a dark link");
        let (class, bytes) = (outcome.class, &outcome.bytes);
        match (&buffered, class) {
            (Some(view), HitClass::Hit) => {
                same("served", bytes, view)?;
                self.reference.served[0] += 1;
            }
            (Some(_), class) => ensure!(false, "a buffered write served as {class:?}"),
            (None, class) => {
                let stale = class == HitClass::StaleServed;
                // Hits, fetches, then stale serves.
                let served = usize::from(class != HitClass::Hit) + usize::from(stale);
                self.reference.served[served] += 1;
                // A version served stale, or on a TTL, was filled within the
                // bound, or the TTL, of this read; its bytes are a rendition
                // its key had since.
                let ttl = class == HitClass::Hit && doc == WEB && self.setup.ttl;
                let age = [TTL, BOUND][usize::from(stale)];
                let filled = self.reference.filled.get(&(doc, user));
                let fresh = filled.is_some_and(|at| at.0 + age >= start.0);
                let aged = (stale || ttl && !self.setup.notifier_only) && !fresh;
                ensure!(!aged, "served as {class:?} past its age");
                let back = (stale || ttl).then(|| Instant(start.0.saturating_sub(age)));
                let horizon = [back, self.reference.unnoticed].into_iter().flatten().min();
                let reference = &self.reference;
                if horizon.is_none() {
                    same("served", bytes, &reference.render(doc, user))?;
                }
                let admitted = reference.admits((doc, user), horizon, bytes);
                ensure!(admitted, "served as {class:?} from before {horizon:?}");
            }
        }
        let kept = !self.setup.roomy || buffered.is_some() || self.cache.contains(by, at);
        ensure!(kept, "a read with room to spare left nothing resident");
        let rendition = self.reference.render(doc, user);
        match self.space.read_document(by, at) {
            Ok((uncached, _)) => same("uncached", &uncached, &rendition),
            Err(error) if error.is_transient() && dark => Ok(()),
            Err(error) => Err(format!("uncached: {error}").into()),
        }
    }

    /// Flushes, and holds the report to the reference: every write is
    /// written, or parked with the rest of its document's on a faulted
    /// origin, and some rendition each probe may have read explains what
    /// the origins hold and what the merge policy counted.
    fn flush(&mut self) -> Checked {
        let faulted = self.faulted(WEB);
        let report = self.cache.flush()?;
        let key = |&(doc, user): &(DocumentId, UserId)| (self.index(doc), user.0 as usize - 1);
        let parked: BTreeSet<_> = report.parked.iter().map(key).collect();
        let dirty: BTreeSet<_> = self.reference.dirty.keys().copied().collect();
        let web: BTreeSet<_> = dirty.iter().copied().filter(|k| k.0 == WEB).collect();
        let settled = report.flushed + parked.len() as u64;
        let settled = settled + (report.requeued.len() + report.dropped.len()) as u64;
        let whole = report.attempted == settled && settled == dirty.len() as u64;
        // With a journal, a transient failure parks; no policy keeps theirs.
        let kept = report.requeued.is_empty() && report.dropped.is_empty();
        let failed = !parked.is_empty();
        let faults = !failed || (parked == web && faulted);
        ensure!(whole && kept && faults, "{report}, {dirty:?} dirty");
        let mut outcomes = Vec::new();
        for doc in (0..DOCS).filter(|doc| dirty.iter().any(|k| k.0 == *doc)) {
            let writes = self.reference.dirty.range((doc, 0)..=(doc, 1));
            let probes: Vec<_> = writes.map(|(&(d, u), w)| self.probed(d, u, w.1)).collect();
            let (written, reached) = (doc != WEB || !failed, doc != WEB || !self.dark);
            let stored = self.origin(doc);
            let mut tallies = Vec::new();
            for probed in choices(&probes) {
                let (tally, content) = self.reference.flush_doc(doc, self.setup.merge, &probed);
                if !written || content == stored {
                    tallies.push(if reached { tally } else { [0; 4] });
                }
            }
            ensure!(!tallies.is_empty(), "no write made {doc}'s {stored:?}");
            outcomes.push(tallies);
            if written {
                self.reference.origin[doc] = stored;
            }
        }
        let m = &report.merge;
        let merged = [m.examined, m.merged, m.rebases, m.kept_mine];
        let add = |a: Tally, t: &Tally| std::array::from_fn(|i| a[i] + t[i]);
        let sums = choices(&outcomes)
            .into_iter()
            .map(|t| t.iter().fold([0; 4], add));
        ensure!(sums.into_iter().any(|sum| sum == merged), "merged {m}");
        let reference = &mut self.reference;
        reference.dirty.retain(|key, _| parked.contains(key));
        for write in reference.dirty.values_mut() {
            reference.parks += u64::from(!write.3);
            write.3 = true;
        }
        Ok(())
    }

    /// Invalidates `doc`'s versions on the bus, or `user`'s: the post must
    /// remove exactly the resident versions it covers, and count them,
    /// unless the bus drops it or it reveals a gap.
    fn post(&mut self, doc: DocumentId, user: Option<UserId>) -> Checked {
        let covered = |(key, ..): &&(EntryKey, Signature, Bytes)| match *key {
            EntryKey::Version(d, u) => d == doc && user.is_none_or(|user| u == user),
            EntryKey::Stage(_) => false,
        };
        let held = self.last.entries.iter().filter(covered).count() as u64;
        let before = self.cache.stats().notifier_invalidations;
        let one = |user| Invalidation::UserDocument(doc, user);
        let invalidation = user.map_or(Invalidation::Document(doc), one);
        self.space.bus().post(invalidation);
        let counted = self.cache.stats().notifier_invalidations - before;
        let quiet = self.armed > 0 || self.reference.unnoticed.is_some();
        ensure!(quiet || counted == held, "{user:?}: {counted} of {held}");
        Ok(())
    }

    /// Holds the cache's state to the reference and to its own books.
    fn check(&mut self) -> Checked {
        let recount = self.cache.recount();
        let mismatches = &recount.mismatches;
        ensure!(mismatches.is_empty(), "disagreeing: {mismatches:?}");
        // Every entry is filed under its digest (a stage output maybe under
        // its name, but never with room to spare: an alias adds a name, not
        // bytes), one allocation a signature, and the store counts them.
        let (mut filed, mut physical, mut logical, mut staged) = (HashMap::new(), 0, 0, 0);
        for (key, sig, bytes) in &recount.entries {
            let name = *key == EntryKey::Stage(*sig) && !self.setup.roomy;
            ensure!(md5(bytes) == *sig || name, "{key:?} filed as {sig}");
            logical += bytes.len() as u64;
            staged += bytes.len() as u64 * u64::from(key.is_stage());
            let first: &Bytes = filed.entry(*sig).or_insert_with(|| {
                physical += bytes.len() as u64;
                bytes
            });
            let shared = first == bytes && (bytes.is_empty() || first.as_ptr() == bytes.as_ptr());
            ensure!(shared, "{key:?} holds a copy of its own of {sig}");
        }
        let (store, books) = (self.cache.resident_bytes(), (physical, logical));
        let within = physical <= CAPACITY || self.setup.roomy;
        ensure!(within && store == books, "{store:?}, not {books:?}");
        self.last = recount;
        // A resident version holds a rendition its key had since it was
        // last absent: stale only as a verifier, a TTL, an unreachable
        // origin or a lost post excuses, never a delivered notifier.
        let now = self.space.clock().now();
        for (doc, user) in (0..DOCS).flat_map(|doc| [(doc, 0), (doc, 1)]) {
            let rendition = self.reference.render(doc, user);
            let resident = self.resident(doc, user).cloned();
            let seen = self.reference.admissible.entry((doc, user)).or_default();
            if resident.is_none() {
                seen.clear();
            }
            if seen.last().map(|(_, had)| had) != Some(&rendition) {
                seen.push((now, rendition));
            }
            let admissible = resident.is_none_or(|bytes| seen.iter().any(|(_, had)| *had == bytes));
            ensure!(admissible, "({doc}, {user}) holds no rendition it had");
        }
        // A lease's root digests the origin's bytes while its verifier passes.
        for &(doc, root) in &self.last.leases {
            let origin = md5(&self.reference.origin[self.index(doc)]);
            let rooted = root.is_none_or(|root| root == origin);
            ensure!(rooted, "{doc:?}'s lease roots another rendition");
        }
        let brief = |view: &Bytes, epoch: Signature, parked: bool| {
            let (size, digest, epoch) = (view.len(), md5(view).to_hex(), epoch.to_hex());
            let parked = if parked { ", parked" } else { "" };
            format!("{size} bytes {} on {}{parked}", &digest[..8], &epoch[..8])
        };
        let (mut expected, mut buffered, mut parked) = (Vec::new(), Vec::new(), 0);
        for (&key, Buffered(view, epoch, _, mark)) in &self.reference.dirty {
            expected.push((key, brief(view, *epoch, *mark)));
            parked += u64::from(*mark);
        }
        for (doc, user, view, epoch, parked) in &self.last.dirty {
            let key = (self.index(*doc), user.0 as usize - 1);
            buffered.push((key, brief(view, *epoch, *parked)));
        }
        buffered.sort();
        ensure!(buffered == expected, "{buffered:?}, not {expected:?}");
        // The gauges, the stage bytes, what overload control did, how reads
        // were served and how often writes parked, against their recounts:
        // an uncontended cache sheds, shifts, queues and runs nothing
        // between steps, every read it was asked is counted once, and the
        // journal holds one live record a buffered write.
        let (s, dirty) = (self.cache.stats(), expected.len() as u64);
        let overload = (s.sheds_total(), s.brownout_shifts, s.queue_wait_micros);
        let running = (self.cache.inflight_fetches(), self.cache.queued_fetches());
        let served = [s.hits, s.misses, s.stale_served, s.degraded_errors];
        let issued = served.iter().sum::<u64>() + s.uncacheable_reads + overload.0;
        let journaled = self
            .cache
            .journal()
            .map_or(0, |journal| journal.len() as u64);
        let books = ([dirty, parked], journaled, s.writes_parked, issued);
        let counted = (
            self.last.gauges,
            s.stage_bytes,
            overload,
            running,
            served,
            books,
        );
        let reference = &self.reference;
        let reads = reference.served.iter().sum::<u64>() + reference.overload.0;
        let books = ([dirty, parked], dirty, reference.parks, reads);
        let recounted = (
            [dirty, parked],
            staged,
            reference.overload,
            (0, 0),
            reference.served,
            books,
        );
        ensure!(counted == recounted, "{counted:?}, not {recounted:?}");
        Ok(())
    }
}

/// An active property of `kind`, its PropLang reading `quote`.
fn property(quote: &Arc<SimpleExternal>, kind: Kind) -> Arc<dyn ActiveProperty> {
    let env = ExtEnv::new();
    env.add(quote.clone());
    let script = |name, source| ScriptProperty::compile(name, source, env.clone()).unwrap();
    match kind {
        Kind::Rot13 => Rot13AtRest::new(),
        Kind::Replace => script("replace", "replace(\"the\", \"le\")"),
        Kind::Fr => Translate::to("fr"),
        Kind::Loud => script("loud", "if(prop(\"mode\") == \"loud\", upper)"),
        Kind::Quote => script("quote", "@watch_ext(\"quote\")\nappend_ext(\"quote\")"),
    }
}

/// Every way to pick one item of each list.
fn choices<T: Clone>(lists: &[Vec<T>]) -> Vec<Vec<T>> {
    let mut picked = vec![Vec::new()];
    for list in lists {
        let with = |prefix: Vec<T>| {
            list.iter()
                .map(move |item| [&prefix[..], std::slice::from_ref(item)].concat())
        };
        picked = picked.into_iter().flat_map(with).collect();
    }
    picked
}

/// `Ok` if `got` is `want`; else where they part.
fn same(what: &str, got: &[u8], want: &[u8]) -> Checked {
    let at = got.iter().zip(want).take_while(|(a, b)| a == b).count();
    let near = |b: &[u8]| -> String {
        let tail = b[at.min(b.len())..].escape_ascii();
        tail.take(48).map(char::from).collect()
    };
    let (got, want) = (near(got), near(want));
    ensure!(got == want, "{what}: b\"{got}\", not b\"{want}\", at {at}");
    Ok(())
}

/// Drops one op at a time, last first, for as long as `fails` still says
/// why the rest fail, until none can go.
fn shrink(ops: &mut Vec<Op>, why: &mut String, fails: impl Fn(&[Op]) -> Option<String>) {
    loop {
        let before = ops.len();
        for i in (0..before).rev() {
            let mut fewer = ops.clone();
            fewer.remove(i);
            if let Some(failure) = fails(&fewer) {
                (*ops, *why) = (fewer, failure);
            }
        }
        if ops.len() == before {
            break;
        }
    }
}

/// Runs `ops` over a fresh world: the cache's books at the end, or the step
/// that broke an invariant, and why.
fn replay(setup: Setup, shards: usize, ops: &[Op]) -> std::result::Result<String, (usize, String)> {
    let step = Cell::new(0);
    let run = || -> Checked<String> {
        let mut machine = Machine::new(setup, shards);
        machine.check()?;
        for (i, op) in ops.iter().enumerate() {
            step.set(i);
            machine.step(op)?;
            machine.check()?;
        }
        Ok(format!("{:?}\n{:?}", machine.cache.stats(), machine.last))
    };
    unwound(run).map_err(|why| (step.get(), why))
}

/// What `run` returns, or why it failed or panicked.
fn unwound<T>(run: impl FnOnce() -> Checked<T>) -> std::result::Result<T, String> {
    let outcome = catch_unwind(AssertUnwindSafe(run)).unwrap_or_else(|panic| {
        let message = panic.downcast_ref::<String>().cloned();
        let message = message.or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()));
        Err(message.unwrap_or_default().into())
    });
    outcome.map_err(|why| why.to_string())
}

/// Two cases in three write back, half of them with a merge policy; one in
/// four trusts its notifiers alone.
fn setups() -> impl Strategy<Value = Setup> {
    let modes = select(vec![(false, false), (true, false), (true, true)]);
    let faults = (
        any::<bool>(),
        select(vec![false, false, false, true]),
        any::<bool>(),
    );
    let setup = (modes, any::<bool>(), any::<bool>(), any::<bool>(), faults);
    setup.prop_map(
        |((back, merge), stage_cache, window, roomy, faults)| Setup {
            back,
            merge,
            stage_cache,
            window,
            roomy,
            ttl: faults.0,
            notifier_only: faults.1,
            resilient: faults.2,
        },
    )
}

#[test]
fn the_cache_agrees_with_the_reference() {
    let (setup, ops) = (setups(), proptest::collection::vec(op(), 1..64));
    for case in 0..CASES {
        let mut rng = TestRng::for_case("model", case);
        let (setup, mut ops) = (setup.generate(&mut rng), ops.generate(&mut rng));
        let mut books = Vec::new();
        for shards in [1, 1, 4] {
            let (step, mut why) = match replay(setup, shards, &ops) {
                Ok(kept) => {
                    books.push(kept);
                    continue;
                }
                Err(failure) => failure,
            };
            ops.truncate(step + 1);
            shrink(&mut ops, &mut why, |ops| {
                replay(setup, shards, ops).err().map(|e| e.1)
            });
            let replay = format!("replay({setup:?}, {shards}, &{ops:?})");
            panic!("case {case} at {shards} shard(s), step {step}: {why}\n{replay}");
        }
        let replay = format!("replay({setup:?}, 1, &{ops:?})");
        assert_eq!(
            books[0], books[1],
            "case {case}: two runs at one shard differ\n{replay}"
        );
    }
}

// ---- the threaded mode -------------------------------------------------

/// Threaded cases: the release build `scripts/check.sh` runs reaches
/// races a few cases in ten thousand meet.
const THREADED_CASES: u32 = if cfg!(debug_assertions) { 64 } else { 12_000 };
/// What a read must overlap on its document in some case: a write, a flush
/// racing a write, a bus post, an out-of-band edit, an attach or detach.
const RACES: [&str; 5] = ["write", "flush", "bus", "out-of-band", "property"];

/// When something happened: the virtual clock, then a sequence number for
/// what the clock does not tell apart. A schedule runs one thread at a
/// time, so moments are in the order things happened.
type Moment = (Instant, u64);
type Key = (usize, usize);

/// The values an input had, or the views a writer's reads got, each from
/// the start of the op that made it until the end of the one that undid it.
type Spans<T> = Vec<(Moment, Option<Moment>, T)>;

/// Closes the open span `now` unless it holds `value`, which opens `from`.
fn note<T: Clone + PartialEq>(spans: &mut Spans<T>, value: Option<&T>, from: Moment, now: Moment) {
    match spans.last_mut() {
        Some((_, None, open)) if Some(&*open) == value => return,
        Some((_, until @ None, _)) => *until = Some(now),
        _ => {}
    }
    spans.extend(value.map(|value| (from, None, value.clone())));
}

/// The values `spans` had at some moment from `since` to `to`.
fn during<T>(spans: Option<&Spans<T>>, (since, to): (Moment, Moment)) -> Vec<&T> {
    let spans = spans.into_iter().flatten();
    let had = spans.filter(|(from, until, _)| *from <= to && until.is_none_or(|u| u >= since));
    had.map(|(.., value)| value).collect()
}

/// How many reads met each race and reused a revalidated page's leased
/// root, or why the run failed.
type Replayed = std::result::Result<([u64; 5], u64), String>;
/// A read of a key from one moment to another, and what it got.
type Served = (Key, Moment, Moment, Result<ReadOutcome>);

/// What a threaded case's threads saw.
#[derive(Default)]
struct Seen {
    /// The next moment's sequence number, shared with the readers.
    sequence: Arc<AtomicU64>,
    /// The inputs a rendition is made of: each document's origin bytes,
    /// each property list, the quote; and each key's buffered views.
    origins: HashMap<usize, Spans<Bytes>>,
    chains: HashMap<(usize, Option<usize>), Spans<Chain>>,
    quotes: Spans<Bytes>,
    views: HashMap<Key, Spans<Bytes>>,
    /// Each lost post's window: from the [`Op::DropNext`] that armed it
    /// until a delivery after it was seen.
    gaps: Spans<()>,
    /// When document 2's link first went dark.
    darkened: Option<Moment>,
    /// Each op's race and document (a flush's: none), and when it ran.
    touched: Vec<(usize, Option<usize>, Moment, Moment)>,
    reads: Vec<Served>,
}

/// Every `(doc, user)`.
fn keys() -> impl Iterator<Item = Key> {
    (0..DOCS).flat_map(|doc| [(doc, 0), (doc, 1)])
}

/// The next moment of `clock`'s run.
fn moment(clock: &VirtualClock, sequence: &AtomicU64) -> Moment {
    (clock.now(), sequence.fetch_add(1, Ordering::Relaxed))
}

impl Seen {
    /// `start`, or the start of a lost post's window open meanwhile.
    fn horizon(&self, start: Moment, end: Moment) -> Moment {
        let gaps = self.gaps.iter();
        let lost = gaps.filter(|(from, until, _)| *from <= end && until.is_none_or(|u| u >= start));
        lost.fold(start, |horizon, gap| horizon.min(gap.0))
    }

    /// Whether `holds` some rendition of `key` made of inputs each of which
    /// it had at some moment of `span`: a read takes the property lists,
    /// the origin's bytes and, stage by stage, the quote one after another,
    /// so one that overlapped changes of two may see the new of one beside
    /// the old of the other.
    fn rendered(&self, key: Key, span: (Moment, Moment), holds: impl Fn(&Bytes) -> bool) -> bool {
        let lists = [None, Some(key.1)].map(|list| during(self.chains.get(&(key.0, list)), span));
        let ([all, own], quotes) = (&lists, during(Some(&self.quotes), span));
        let quoted = |list: &&Chain| {
            list.iter()
                .filter(|p| p.1 == Slot::Active(Kind::Quote))
                .count()
        };
        for origin in during(self.origins.get(&key.0), span) {
            for lists in all
                .iter()
                .flat_map(|all| own.iter().map(move |own| [*all, *own]))
            {
                let stages = lists.iter().map(quoted).sum::<usize>().max(1);
                let mut picks = choices(&vec![quotes.clone(); stages]).into_iter();
                if picks.any(|quotes| holds(&render(origin, lists, &quotes))) {
                    return true;
                }
            }
        }
        false
    }

    /// Opens a span from `from` for each input whose value is not its open
    /// one's, which closes `now`.
    fn record(&mut self, reference: &Reference, from: Moment, now: Moment) {
        for (doc, origin) in reference.origin.iter().enumerate() {
            let spans = self.origins.entry(doc).or_default();
            note(spans, Some(origin), from, now);
        }
        for (&list, chain) in &reference.chains {
            note(self.chains.entry(list).or_default(), Some(chain), from, now);
        }
        note(&mut self.quotes, Some(&reference.quote), from, now);
    }

    /// How many reads overlapped each of [`RACES`] on their document.
    fn races(&self) -> [u64; 5] {
        let overlap = |a: (Moment, Moment), b: (Moment, Moment)| a.0 <= b.1 && b.0 <= a.1;
        let mut races = [0; 5];
        for &((doc, _), start, end, _) in &self.reads {
            for &(race, on, s, e) in &self.touched {
                let mut writes = self.touched.iter().filter(|t| t.0 == 0 && t.1 == Some(doc));
                let flush = on.is_none() && writes.any(|w| overlap((w.2, w.3), (s, e)));
                let met = (on == Some(doc) || flush) && overlap((start, end), (s, e));
                races[race] += u64::from(met);
            }
        }
        races
    }
}

impl Machine {
    fn now(&self) -> Moment {
        moment(self.space.clock(), &self.seen.sequence)
    }

    /// `Some` of what `result` holds, or `None` if it failed as it may:
    /// transiently on document 2 once its link has gone dark (its breaker
    /// may stay open after), or on any document a window may queue past
    /// its deadline; shed, and counted, only by overload control.
    fn excused<T>(&mut self, doc: usize, end: Moment, result: Result<T>) -> Checked<Option<T>> {
        let dark = doc == WEB && self.seen.darkened.is_some_and(|at| at <= end);
        match result {
            Ok(value) => return Ok(Some(value)),
            Err(PlacelessError::Overloaded { .. }) if self.setup.window => {
                self.reference.overload.0 += 1;
            }
            Err(error) if error.is_transient() && (dark || self.setup.window) => {}
            Err(error) => return Err(format!("doc {doc} failed: {error}").into()),
        }
        Ok(None)
    }

    /// Holds a read to the renditions and views its key had while it ran,
    /// or since its horizon: a TTL hit's or a stale service's, or a lost
    /// post's. The bytes it served, if it did.
    fn judge(&mut self, (key, start, end, read): Served) -> Checked<Option<Bytes>> {
        let failed = read.as_ref().is_err_and(|e| e.is_transient());
        let Some(outcome) = self.excused(key.0, end, read)? else {
            self.reference.served[3] += u64::from(failed);
            return Ok(None);
        };
        let (class, bytes, seen) = (outcome.class, outcome.bytes, &self.seen);
        let counted = match class {
            HitClass::Hit | HitClass::CoalescedWait => 0,
            HitClass::StaleServed => 2,
            _ => 1,
        };
        self.reference.served[counted] += 1;
        // A waiter is served what its flight's leader fetched, as a hit is.
        let (stale, ttl) = (counted == 2, counted == 0 && key.0 == WEB && self.setup.ttl);
        let age = [TTL, BOUND][usize::from(stale)];
        let back = (stale || ttl).then(|| (Instant(start.0 .0.saturating_sub(age)), 0));
        let span = (seen.horizon(start, end).min(back.unwrap_or(start)), end);
        let viewed = during(seen.views.get(&key), span).contains(&&bytes);
        let had = viewed || seen.rendered(key, span, |had| *had == bytes);
        ensure!(
            had,
            "{key:?} served as {class:?} bytes it had at no moment of {span:?}"
        );
        Ok(Some(bytes))
    }

    /// Reads the bus's counters, as [`Machine::step`] does, while no post
    /// is in flight. A window closes at a delivery after every armed drop
    /// was used up, unless it saw a drop too: posts the threads raced for
    /// may have come in either order.
    fn observe(&mut self, now: Moment) {
        let (posted, delivered) = self.space.bus().counters();
        let dropped = (posted - self.bus.0) - (delivered - self.bus.1);
        self.armed -= dropped;
        if self.armed == 0 && dropped == 0 && delivered > self.bus.1 {
            note(&mut self.seen.gaps, None, now, now);
        }
        self.bus = (posted, delivered);
    }

    /// Applies a non-read `op` to the cache, or the world under it, and to
    /// the reference, checking what can be known of it while reads and a
    /// flush run beside it; then records it.
    fn mutate(&mut self, op: Op) -> Checked {
        let (start, cache, at) = (self.now(), self.cache.clone(), |doc: usize| self.docs[doc]);
        match op {
            Op::Write(doc, user, b) if !self.setup.back => {
                let written = cache.write(USERS[user], at(doc), &body(b));
                if self.excused(doc, self.now(), written)?.is_some() {
                    let stored = self.origin(doc);
                    same("written", &stored, &self.reference.at_rest(doc, &body(b)))?;
                    self.reference.origin[doc] = stored;
                }
            }
            Op::Write(doc, user, b) => {
                cache.write(USERS[user], at(doc), &body(b))?;
                // Its epoch is the recount's, at the next flush.
                let parked = self.reference.dirty.get(&(doc, user)).is_some_and(|w| w.3);
                let write = Buffered(body(b), NO_EPOCH, Vec::new(), parked);
                self.reference.dirty.insert((doc, user), write);
                self.view((doc, user), Some(&body(b)), start);
            }
            Op::Edit(doc, user, e) if !self.setup.back => {
                let written = cache.write_op(USERS[user], at(doc), edit(e));
                let end = self.now();
                if self.excused(doc, end, written)?.is_some() {
                    // Applied to a rendition its probe may have read.
                    let (stored, reference) = (self.origin(doc), &self.reference);
                    let made = |base: &Bytes| reference.at_rest(doc, &edit(e).apply(base));
                    let span = (self.seen.horizon(start, end), end);
                    let probed = self.seen.rendered((doc, user), span, |b| made(b) == stored);
                    ensure!(probed, "edited into {stored:?}");
                    self.reference.origin[doc] = stored;
                }
            }
            Op::Edit(doc, user, e) => self.edit((doc, user), e, start)?,
            Op::Flush => {
                let report = cache.flush()?;
                self.flushed(&report, start)?;
            }
            Op::BusDoc(doc) => self.space.bus().post(Invalidation::Document(at(doc))),
            Op::BusUser(doc, u) => {
                let invalidation = Invalidation::UserDocument(at(doc), USERS[u]);
                self.space.bus().post(invalidation);
            }
            Op::Read(..) => unreachable!("readers read"),
            op => self.apply(&op)?,
        }
        let end = self.now();
        let seen = &mut self.seen;
        match op {
            Op::Dark(true) => drop(seen.darkened.get_or_insert(start)),
            Op::DropNext if seen.gaps.last().is_none_or(|gap| gap.1.is_some()) => {
                seen.gaps.push((start, None, ()));
            }
            Op::SetMode(doc, user, _) => {
                // It detaches the old value before it attaches the new one:
                // a read between sees neither.
                let list = (doc, Some(user));
                let mut unset = self.reference.chains[&list].clone();
                unset.retain(|(_, slot)| !matches!(slot, Slot::Mode(_)));
                let spans = seen.chains.get_mut(&list).unwrap();
                note(spans, Some(&unset), start, end);
            }
            _ => {}
        }
        seen.record(&self.reference, start, end);
        let race = match op {
            Op::Write(doc, ..) | Op::Edit(doc, ..) => Some((0, doc)),
            Op::BusDoc(doc) | Op::BusUser(doc, _) => Some((2, doc)),
            Op::OutOfBand(doc, _) => Some((3, doc)),
            Op::Attach(doc, ..) | Op::Detach(doc, ..) => Some((4, doc)),
            _ => None,
        };
        let touched = race.map(|(race, doc)| (race, Some(doc), start, end));
        seen.touched.extend(touched);
        Ok(())
    }

    /// Closes `key`'s open view now, and opens `view` from `start`.
    fn view(&mut self, key: Key, view: Option<&Bytes>, start: Moment) {
        let now = self.now();
        note(self.seen.views.entry(key).or_default(), view, start, now);
    }

    /// A write-back `write_op`, with no flush beside it: a buffered write
    /// gains the edit; else the edit applies to a rendition the key had, on
    /// its epoch, or with the origin out of reach, to nothing on none.
    fn edit(&mut self, key: Key, e: usize, start: Moment) -> Checked {
        let (doc, user) = (self.docs[key.0], USERS[key.1]);
        let before = self.reference.dirty.remove(&key);
        self.cache.write_op(user, doc, edit(e))?;
        let mut buffered = self.cache.recount().dirty.into_iter();
        let Some((.., view, epoch, parked)) = buffered.find(|w| (w.0, w.1) == (doc, user)) else {
            return Err(format!("an edit of {key:?} buffered nothing").into());
        };
        let ops = match before {
            Some(Buffered(base, _, ops, was)) => {
                same("edited", &view, &edit(e).apply(&base))?;
                ensure!(parked == was, "an edit of {key:?} moved its parked mark");
                let replaced = ops.is_empty().then_some(DocOp::Replace(base));
                replaced.into_iter().chain(ops).chain([edit(e)]).collect()
            }
            None => {
                let on = |base: &Bytes| epoch == md5(base) || base.is_empty() && epoch == NO_EPOCH;
                let based = |base: &Bytes| edit(e).apply(base) == view && on(base);
                let dark = key.0 == WEB && self.seen.darkened.is_some() && based(&Bytes::new());
                let ever = ((Instant(0), 0), self.now());
                let had = dark || self.seen.rendered(key, ever, based);
                ensure!(!parked && had, "an edit of {key:?} on no rendition it had");
                vec![edit(e)]
            }
        };
        self.view(key, Some(&view), start);
        let write = Buffered(view, epoch, ops, parked);
        self.reference.dirty.insert(key, write);
        Ok(())
    }

    /// Records a flush that ran from `start`: what the origins hold now,
    /// and which writes stay buffered, and parked, as the cache recounts
    /// them. With a journal no write is requeued or dropped, and only
    /// document 2's park, once dark.
    fn flushed(&mut self, report: &FlushReport, start: Moment) -> Checked {
        let (now, reference) = (self.now(), &self.reference);
        let kept = report.requeued.is_empty() && report.dropped.is_empty();
        let parked = report.parked.is_empty() || self.seen.darkened.is_some();
        let web = report.parked.iter().all(|write| write.0 == self.docs[WEB]);
        ensure!(kept && parked && web, "{report}");
        // A flush writes a document's writes in user order: a read between
        // the two may see the first written alone, as its view, or rebased
        // on the rendition its probe read.
        let both = |doc| reference.dirty.range((doc, 0)..=(doc, 1)).count() == 2;
        for doc in (0..DOCS).filter(|&doc| both(doc)) {
            let ops = &reference.dirty[&(doc, 0)].2;
            let rebase = self.setup.merge && rebasable(ops);
            let rebased = rebase.then(|| apply_all(&reference.render(doc, 0), ops));
            let views = during(self.seen.views.get(&(doc, 0)), (start, now));
            for first in views.into_iter().cloned().chain(rebased) {
                let (written, spans) = (reference.at_rest(doc, &first), &mut self.seen.origins);
                note(spans.get_mut(&doc).unwrap(), Some(&written), start, now);
            }
        }
        let mut left = HashMap::new();
        for (doc, user, view, epoch, parked) in self.cache.recount().dirty {
            let key = (self.index(doc), user.0 as usize - 1);
            left.insert(key, (view, epoch, parked));
        }
        for key in keys() {
            match (left.get(&key), self.reference.dirty.get_mut(&key)) {
                (None, _) => {
                    self.reference.dirty.remove(&key);
                    self.view(key, None, start);
                }
                (Some((view, epoch, parked)), Some(write)) => {
                    same("left buffered", view, &write.0)?;
                    self.reference.parks += u64::from(*parked && !write.3);
                    (write.1, write.3) = (*epoch, *parked);
                }
                (Some(_), None) => return Err(format!("{key:?} buffered an unmade write").into()),
            }
        }
        self.reference.origin = (0..DOCS).map(|doc| self.origin(doc)).collect();
        self.seen.record(&self.reference, start, now);
        Ok(())
    }

    /// With every thread done: judges the reads; heals the link, waits out
    /// the breaker and flushes as the sequential mode does, which checks
    /// what each origin then holds; reads every key once more; and holds
    /// the books to the reference as [`Machine::check`] does, each resident
    /// version to what the last read of it served.
    fn quiesce(&mut self) -> Checked<([u64; 5], u64)> {
        let races = self.seen.races();
        for read in std::mem::take(&mut self.seen.reads) {
            self.judge(read)?;
        }
        let start = self.now();
        for op in [Op::Dark(false), Op::Tick(3)] {
            self.apply(&op)?;
        }
        let recount = self.cache.recount();
        for (doc, user, _, epoch, _) in &recount.dirty {
            let key = (self.index(*doc), user.0 as usize - 1);
            self.reference.dirty.get_mut(&key).unwrap().1 = *epoch;
        }
        let gap = self.seen.gaps.last().filter(|gap| gap.1.is_none());
        (self.reference.unnoticed, self.last) = (gap.map(|gap| gap.0 .0), recount);
        self.flush()?;
        for (doc, written) in self.reference.origin.iter().enumerate() {
            same("at the origin", &self.origin(doc), written)?;
        }
        keys().for_each(|key| self.view(key, None, start));
        let end = self.now();
        self.seen.record(&self.reference, start, end);
        for (doc, user) in keys() {
            let start = self.now();
            let reuses = self.cache.stats().root_reuses;
            let read = self
                .cache
                .read_with(USERS[user], self.docs[doc], Default::default());
            if doc == WEB && !self.setup.ttl {
                self.web_root_reuses += self.cache.stats().root_reuses - reuses;
            }
            let last = self.judge(((doc, user), start, self.now(), read))?;
            let admissible = last.map(|bytes| (end.0, bytes)).into_iter().collect();
            self.reference.admissible.insert((doc, user), admissible);
        }
        let (s, sheds) = (self.cache.stats(), self.reference.overload.0);
        self.reference.overload = (sheds, s.brownout_shifts, s.queue_wait_micros);
        self.check()?;
        Ok((races, self.web_root_reuses))
    }
}

/// Runs `ops` on threads under `seed`'s schedule: a mutator runs the ops
/// that are not reads in order, each under the reference's lock, which it
/// records before it lets go; two readers each run every read, in order,
/// so that they meet on keys, the budget holding after each, and the
/// reference judges them once every op is recorded; a write-back case's
/// flusher flushes four times beside them.
/// How many reads met each race, or why the run failed.
fn replay_threaded(setup: Setup, shards: usize, seed: u64, ops: &[Op]) -> Replayed {
    unwound(|| {
        let mut machine = Machine::new(setup, shards);
        let origin = machine.now();
        machine.seen.record(&machine.reference, origin, origin);
        let (cache, docs) = (machine.cache.clone(), machine.docs.clone());
        let (clock, sequence) = (machine.space.clock().clone(), machine.seen.sequence.clone());
        let capacity = [CAPACITY, 1 << 20][usize::from(setup.roomy)];
        let shared = Lock::new(machine);
        // Held across every flush and every op but a plain write, a bus
        // post or a fault, taken before `shared`: a flush races reads and
        // those, so what it wrote back and took is what the origins and the
        // cache hold after it, under the lists they had.
        let renditions = Lock::new(());
        let read = |op: &&Op| matches!(op, Op::Read(..));
        let (reads, writes): (Vec<Op>, Vec<Op>) = ops.iter().partition(read);
        let fail = |checked: Checked| checked.unwrap_or_else(|why| panic!("{why}"));
        let mut schedule = Schedule::new(seed, &clock);
        schedule.spawn(|| {
            for &op in &writes {
                let quiet = matches!(op, Op::Write(..) | Op::BusDoc(_) | Op::BusUser(..));
                let quiet = quiet || matches!(op, Op::Tick(_) | Op::Dark(_) | Op::DropNext);
                let exclusive = setup.back && !quiet;
                let _renditions = exclusive.then(|| renditions.lock());
                let machine = &mut *shared.lock();
                fail(machine.mutate(op));
                if exclusive || !setup.back {
                    let now = machine.now();
                    machine.observe(now);
                }
            }
        });
        for _ in 0..2 {
            let (reads, cache, docs, clock) = (&reads, &cache, &docs, &clock);
            let (shared, sequence) = (&shared, &sequence);
            schedule.spawn(move || {
                let mut served = Vec::new();
                for &op in reads {
                    let Op::Read(doc, user, options) = op else {
                        continue;
                    };
                    let start = moment(clock, sequence);
                    let read = cache.read_with(USERS[user], docs[doc], read_options(options));
                    let end = moment(clock, sequence);
                    let (physical, logical) = cache.resident_bytes();
                    let within = physical <= capacity.min(logical);
                    assert!(within, "({physical}, {logical}) bytes resident mid-run");
                    served.push(((doc, user), start, end, read));
                }
                shared.lock().seen.reads.extend(served);
            });
        }
        if setup.back {
            schedule.spawn(|| {
                for _ in 0..4 {
                    sched::yield_now();
                    let _renditions = renditions.lock();
                    let start = moment(&clock, &sequence);
                    let report = cache.flush().unwrap_or_else(|why| panic!("{why}"));
                    let machine = &mut *shared.lock();
                    fail(machine.flushed(&report, start));
                    let end = machine.now();
                    machine.observe(end);
                    machine.seen.touched.push((1, None, start, end));
                }
            });
        }
        schedule.run();
        shared.into_inner().quiesce()
    })
}

/// The drawn ops, as many reads again and half as many out-of-band edits:
/// a race needs reads to meet, and the edits only verifiers see.
fn threaded_op() -> impl Strategy<Value = Op> {
    let doc = || select(vec![0, 0, 1, 2, 2, 2]);
    let read = || (doc(), select(vec![0, 0, 1]), 0..2usize).prop_map(|(d, u, o)| Op::Read(d, u, o));
    let edit = (doc(), 0..6usize).prop_map(|(d, b)| Op::OutOfBand(d, b));
    prop_oneof![op(), op(), read(), read(), edit]
}

#[test]
fn the_cache_agrees_with_the_reference_on_threads() {
    let (setup, shards) = (setups(), select(vec![1, 4]));
    let (seed, ops) = (
        any::<u64>(),
        proptest::collection::vec(threaded_op(), 1..64),
    );
    let (mut met, mut web_root_reuses) = ([0; 5], 0);
    for case in 0..THREADED_CASES {
        let mut rng = TestRng::for_case("threads", case);
        let (setup, shards) = (setup.generate(&mut rng), shards.generate(&mut rng));
        let (seed, mut ops) = (seed.generate(&mut rng), ops.generate(&mut rng));
        match replay_threaded(setup, shards, seed, &ops) {
            Ok((races, reused)) => {
                met = std::array::from_fn(|i| met[i] + races[i]);
                web_root_reuses += reused;
            }
            Err(mut why) => {
                let fails = |ops: &[Op]| replay_threaded(setup, shards, seed, ops).err();
                shrink(&mut ops, &mut why, fails);
                let replay = format!("replay_threaded({setup:?}, {shards}, {seed}, &{ops:?})");
                panic!("threaded case {case}: {why}\n{replay}");
            }
        }
    }
    let met: Vec<_> = RACES.iter().zip(met).collect();
    assert!(met.iter().all(|(_, reads)| *reads > 0), "{met:?}");
    // A pinned revision attests content, so a revalidated page's root is
    // leased, and a later walk anchors on it without refetching.
    assert!(web_root_reuses > 0, "no revalidated page's root was reused");
}

/// A staged walk anchored on a leased root whose verifier, a TTL, attests
/// nothing, and filed its version under a verifier made at the walk: an
/// edit inside the root's TTL was served on that version past the TTL. A
/// TTL root is not leased.
#[test]
fn a_ttl_root_is_not_leased() {
    let (stage_cache, roomy, ttl) = (true, true, true);
    let setup = Setup {
        stage_cache,
        roomy,
        ttl,
        ..Setup::default()
    };
    let ops = [Op::Read(2, 1, 0), Op::OutOfBand(2, 0)];
    assert_eq!(replay(setup, 1, &ops).map(drop), Ok(()));
}

/// A resilient fetch retried past a dark link installed its version when
/// the retries ended, and stale service measured the bound from there: the
/// bytes it served were older than the bound allows. A fill is stamped when
/// its attempt began.
#[test]
fn stale_service_is_aged_from_the_origin_read() {
    use Op::*;
    let setup = Setup {
        roomy: true,
        resilient: true,
        ..Setup::default()
    };
    let ops = [
        Flush,
        Flush,
        Write(1, 0, 2),
        Read(1, 0, 0),
        OutOfBand(2, 4),
        OutOfBand(0, 2),
        Read(1, 0, 1),
        Dark(false),
        Read(2, 0, 1),
        Write(2, 0, 2),
        Read(2, 1, 0),
        OutOfBand(2, 1),
        Read(0, 1, 1),
        Read(1, 0, 1),
        OutOfBand(2, 4),
        Dark(false),
        Read(2, 1, 0),
        OutOfBand(0, 1),
        BusUser(0, 1),
        OutOfBand(0, 0),
        OutOfBand(2, 3),
        Dark(true),
        Tick(2),
    ];
    let replayed = replay_threaded(setup, 1, 14729549260014158017, &ops);
    assert!(replayed.is_ok(), "{replayed:?}");
}

/// The same on the staged walk, behind a window: a version filled by the
/// walk was served stale past the bound measured from its origin read.
#[test]
fn a_staged_fill_is_aged_from_the_origin_read() {
    use Op::*;
    let setup = Setup {
        stage_cache: true,
        window: true,
        resilient: true,
        ..Setup::default()
    };
    let ops = [
        SetMode(2, 0, 0),
        Read(2, 0, 0),
        Read(2, 0, 1),
        SetMode(0, 0, 1),
        Flush,
        Dark(true),
        OutOfBand(2, 0),
        Tick(3),
    ];
    let replayed = replay_threaded(setup, 1, 17181185319537030385, &ops);
    assert!(replayed.is_ok(), "{replayed:?}");
}

/// A waiter joined a flight on a TTL page whose leader fetched before an
/// out-of-band edit: the TTL still passed, yet attests nothing, so only
/// the leader's re-check of every verifier while a thread waits keeps it
/// from sharing bytes the page no longer held.
#[test]
fn a_waited_flight_rechecks_a_ttl() {
    use Op::*;
    let setup = Setup {
        stage_cache: true,
        ttl: true,
        resilient: true,
        ..Setup::default()
    };
    let ops = [
        Read(0, 0, 1),
        Read(2, 0, 1),
        Edit(2, 1, 7),
        Write(1, 0, 5),
        OutOfBand(2, 0),
        Read(2, 1, 1),
        OutOfBand(2, 3),
        Tick(3),
        OutOfBand(2, 3),
        External(0),
    ];
    let replayed = replay_threaded(setup, 4, 8282150156609486354, &ops);
    assert!(replayed.is_ok(), "{replayed:?}");
}

/// A lost post of a property change, then a delivered one, the cache's
/// first: the gap was not seen (the first delivery was a baseline), and
/// once seen only demoted versions to their verifiers, which vouch for
/// the provider's bytes and not the property list. Either way the flush's
/// conflict probe rebased user 1's edit on a version without rot13.
#[test]
fn a_gap_drops_the_versions_a_lost_post_left_stale() {
    use {Kind::*, Op::*};
    let setup = Setup {
        back: true,
        merge: true,
        ..Setup::default()
    };
    let ops = [
        Edit(0, 1, 17),
        DropNext,
        Attach(0, None, Rot13),
        SetMode(2, 0, 1),
        Flush,
    ];
    assert_eq!(replay(setup, 1, &ops).map(drop), Ok(()));
}
