//! One oracle for the cache.
//!
//! A cached rendition is valid when its bytes, its property set, their
//! order and their external inputs match what the uncached middleware
//! produces for its user. [`Reference`] says that sequentially, with
//! transforms of its own: `tests/reference`'s rot13 and translation, and
//! `str::replace` and `str::to_uppercase` for PropLang. One seeded op
//! sequence drives it beside a real [`DocumentCache`] at one shard and at
//! four, and after every step [`Machine::check`] holds the cache to it and
//! to a recount of its own books ([`DocumentCache::recount`]). The vendored
//! proptest does not shrink: a failure drops every op it does not need and
//! prints a `replay` call to paste into a `#[test]` with `use {Kind::*, Op::*};`.

mod reference;

use bytes::Bytes;
use placeless::prelude::*;
use placeless_cache::manager::Recount;
use placeless_cache::{
    md5, EntryKey, MergePolicy, MergeReport, OriginConfig, OverloadControl, Priority, Signature,
    WindowConfig, WriteJournal, NO_EPOCH,
};
use placeless_core::external::SimpleExternal;
use placeless_core::notifier::Invalidation;
use placeless_core::op::{apply_all, rebasable, DocOp};
use placeless_core::property::ActiveProperty;
use placeless_properties::translate::EN_FR;
use placeless_simenv::{LatencyModel, StableStore};
use proptest::prelude::*;
use proptest::sample::select;
use proptest::test_runner::TestRng;
use reference::{reference_rot13, reference_translate};
use std::cell::Cell;
use std::collections::{BTreeMap, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
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
const USERS: [UserId; 2] = [UserId(1), UserId(2)];
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
    let background = ReadOptions::new().deadline_micros(50_000);
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
#[derive(Clone, Debug)]
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
}

fn op() -> impl Strategy<Value = Op> {
    use Kind::*;
    // Half the ops on document 0, two thirds by user 0: a key's ops meet.
    let (doc, user) = (select(vec![0, 0, 1, 2]), select(vec![0, 0, 1]));
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
        doc.clone().prop_map(Op::BusDoc),
        key.clone().prop_map(|(d, u)| Op::BusUser(d, u)),
        (doc, 0..6usize).prop_map(|(d, b)| Op::OutOfBand(d, b)),
        (list.clone(), 0..4usize).prop_map(move |((d, u), k)| Op::Attach(d, u, kind(u, k))),
        (list.clone(), 0..8usize).prop_map(|((d, u), p)| Op::Detach(d, u, p)),
        (list, 0..8usize, 0..8usize).prop_map(|((d, u), p, to)| Op::Reorder(d, u, p, to)),
        (key, 0..2usize).prop_map(|((d, u), v)| Op::SetMode(d, u, v)),
        (0..3usize).prop_map(Op::External),
    ]
}

/// The cache configuration a case runs under, beside its shard count.
#[derive(Clone, Copy, Debug)]
struct Setup {
    back: bool,
    merge: bool,
    stage_cache: bool,
    /// A two-wide origin window under overload control, which a stream of
    /// single-threaded reads must never see.
    window: bool,
    /// Room for everything, instead of [`CAPACITY`].
    roomy: bool,
}

// ---- the sequential reference ------------------------------------------

#[derive(Clone, Debug, PartialEq)]
enum Slot {
    Active(Kind),
    Mode(&'static str),
}

/// A property list as the space holds it, in order, notifiers aside.
type Chain = Vec<(PropertyId, Slot)>;

/// A write-back writer's buffered write: its view, base epoch and ops.
struct Buffered(Bytes, Signature, Vec<DocOp>);

#[derive(Default)]
struct Reference {
    /// Each document's bytes at its provider.
    origin: Vec<Bytes>,
    /// By document and user, `None` the universal list.
    chains: HashMap<(usize, Option<usize>), Chain>,
    quote: Bytes,
    dirty: BTreeMap<(usize, usize), Buffered>,
    /// The renditions each key has had since it was last seen absent.
    admissible: HashMap<(usize, usize), Vec<Bytes>>,
    /// Reads served from a resident version, and through the origin.
    served: [u64; 2],
}

impl Reference {
    /// What the uncached middleware reads for `user`: the origin's bytes
    /// through the universal list, then the user's own.
    fn render(&self, doc: usize, user: usize) -> Bytes {
        let lossy = |bytes: &[u8]| String::from_utf8_lossy(bytes).into_owned();
        let translate = |pairs: &[(&str, &str)], bytes: &[u8]| {
            let table = pairs.iter().map(|&(k, v)| (k.into(), v.into()));
            reference_translate(&table.collect(), bytes)
        };
        let (mut bytes, lists) = (self.origin[doc].to_vec(), [None, Some(user)]);
        let personal = &self.chains[&(doc, Some(user))];
        let loud = personal.iter().any(|(_, slot)| *slot == Slot::Mode("loud"));
        for (_, slot) in lists.iter().flat_map(|&list| &self.chains[&(doc, list)]) {
            let Slot::Active(kind) = slot else { continue };
            bytes = match kind {
                Kind::Rot13 => bytes.iter().map(|&b| reference_rot13(b)).collect(),
                Kind::Replace => lossy(&bytes).replace("the", "le").into_bytes(),
                Kind::Fr => translate(EN_FR, &bytes),
                Kind::Loud if loud => lossy(&bytes).to_uppercase().into_bytes(),
                Kind::Loud => bytes,
                Kind::Quote => (lossy(&bytes) + &lossy(&self.quote)).into_bytes(),
            };
        }
        bytes.into()
    }

    /// What a write of `data` leaves at the provider: rot13-at-rest is the
    /// one property with a write side.
    fn at_rest(&self, doc: usize, data: &[u8]) -> Bytes {
        let rot13 = |(_, slot): &&(PropertyId, Slot)| *slot == Slot::Active(Kind::Rot13);
        let odd = self.chains[&(doc, None)].iter().filter(rot13).count() % 2 == 1;
        let at_rest = |b: &u8| if odd { reference_rot13(*b) } else { *b };
        data.iter().map(at_rest).collect()
    }

    /// Writes every buffered write in `(document, user)` order, a
    /// document's writes one group. With a merge policy, a write whose base
    /// epoch is not its writer's rendition now is a conflict, and a
    /// rebasable delta is applied to the group's previous write or, for
    /// the first, to the writer's rendition. Returns how many writes there
    /// were and what a [`MergeReport`] counts of them.
    fn flush(&mut self, merge: bool) -> (u64, MergeReport) {
        let (dirty, mut tally) = (std::mem::take(&mut self.dirty), MergeReport::default());
        let mut last: BTreeMap<usize, Bytes> = BTreeMap::new();
        for (&(doc, user), Buffered(view, epoch, ops)) in &dirty {
            let (now, rebases) = (self.render(doc, user), merge && rebasable(ops));
            if merge && *epoch != NO_EPOCH && md5(&now) != *epoch {
                tally.examined += 1;
                tally.merged += u64::from(rebases);
                tally.rebases += if rebases { ops.len() as u64 } else { 0 };
                tally.kept_mine += u64::from(!rebases);
            }
            let content = match last.get(&doc) {
                _ if !rebases => view.clone(),
                base => apply_all(base.unwrap_or(&now), ops),
            };
            last.insert(doc, content);
        }
        for (doc, content) in last {
            self.origin[doc] = self.at_rest(doc, &content);
        }
        (dirty.len() as u64, tally)
    }
}

// ---- the machine -------------------------------------------------------

struct Machine {
    setup: Setup,
    space: Arc<DocumentSpace>,
    cache: Arc<DocumentCache>,
    /// Each document and its provider.
    docs: Vec<(DocumentId, Arc<MemoryProvider>)>,
    quote: Arc<SimpleExternal>,
    reference: Reference,
    /// The recount after the previous step.
    last: Recount,
}

impl Machine {
    /// Three documents, each held by both users, notified of content and
    /// property changes; user 0 reads through PropLang that runs no stage
    /// until `mode` is `loud`, user 1 through French.
    fn new(setup: Setup, shards: usize) -> Self {
        let space = DocumentSpace::with_middleware_cost(VirtualClock::new(), LatencyModel::FREE);
        let (quote, universal) = (SimpleExternal::new("quote", QUOTES[0]), Scope::Universal);
        let (mut reference, mut docs) = (Reference::default(), Vec::new());
        reference.quote = Bytes::from_static(QUOTES[0]);
        for d in 0..DOCS {
            let provider = MemoryProvider::new(&format!("doc{d}"), body([2, 5, 3][d]), 100);
            let doc = space.create_document(USERS[0], provider.clone());
            space.add_reference(USERS[1], doc).unwrap();
            let notifiers: [Arc<dyn ActiveProperty>; 2] =
                [ContentWriteNotifier::any(), PropertyChangeNotifier::any()];
            for notifier in notifiers {
                space.attach_active(universal, doc, notifier).unwrap();
            }
            for list in [None, Some(0), Some(1)] {
                reference.chains.insert((d, list), Vec::new());
            }
            reference.origin.push(provider.content());
            docs.push((doc, provider));
        }
        let control = setup.window.then(OverloadControl::default);
        let config = CacheConfig {
            capacity_bytes: if setup.roomy { 1 << 20 } else { CAPACITY },
            local_latency: LatencyModel::FREE,
            shards,
            stage_cache: setup.stage_cache,
            write_mode: [WriteMode::Through, WriteMode::Back][usize::from(setup.back)],
            journal: setup.back.then(|| WriteJournal::open(StableStore::new()).0),
            merge: setup.merge.then(MergePolicy::new),
            origin: OriginConfig::default().window(WindowConfig { width: 2, control }),
            ..CacheConfig::default()
        };
        let cache = DocumentCache::new(space.clone(), config);
        let mut machine = Self {
            setup,
            space,
            cache,
            docs,
            quote,
            reference,
            last: Recount::default(),
        };
        for d in 0..DOCS {
            machine.apply(&Op::Attach(d, Some(0), Kind::Loud)).unwrap();
            machine.apply(&Op::Attach(d, Some(1), Kind::Fr)).unwrap();
        }
        machine
    }

    fn property(&self, kind: Kind) -> Arc<dyn ActiveProperty> {
        let env = ExtEnv::new();
        env.add(self.quote.clone());
        let script = |name, source| ScriptProperty::compile(name, source, env.clone()).unwrap();
        match kind {
            Kind::Rot13 => Rot13AtRest::new(),
            Kind::Replace => script("replace", "replace(\"the\", \"le\")"),
            Kind::Fr => Translate::to("fr"),
            Kind::Loud => script("loud", "if(prop(\"mode\") == \"loud\", upper)"),
            Kind::Quote => script("quote", "@watch_ext(\"quote\")\nappend_ext(\"quote\")"),
        }
    }

    /// `(doc, user)`'s resident version as the last recount found it.
    fn resident(&self, doc: usize, user: usize) -> Option<&Bytes> {
        let key = EntryKey::Version(self.docs[doc].0, USERS[user]);
        let mut entries = self.last.entries.iter();
        entries.find_map(|(k, _, bytes)| (*k == key).then_some(bytes))
    }

    fn index(&self, doc: DocumentId) -> usize {
        self.docs.iter().position(|&(d, _)| d == doc).unwrap()
    }

    /// Applies `op` to the cache, or the world under it, and to the
    /// reference, checking what the op itself returns.
    fn apply(&mut self, op: &Op) -> Checked {
        let (cache, space, docs) = (self.cache.clone(), self.space.clone(), self.docs.clone());
        let at = |doc: usize| docs[doc].0;
        let scope = |u: Option<usize>| u.map_or(Scope::Universal, |u| Scope::Personal(USERS[u]));
        let reference = &mut self.reference;
        match *op {
            Op::Read(doc, user, options) => return self.read(doc, user, read_options(options)),
            Op::Write(doc, user, b) if !self.setup.back => {
                cache.write(USERS[user], at(doc), &body(b))?;
                reference.origin[doc] = reference.at_rest(doc, &body(b));
            }
            Op::Write(doc, user, b) => {
                // Based on what its writer last saw: its buffered write, else
                // the resident version.
                let buffered = self.reference.dirty.get(&(doc, user)).map(|w| w.1);
                let epoch = buffered.or_else(|| self.resident(doc, user).map(|r| md5(r)));
                cache.write(USERS[user], at(doc), &body(b))?;
                let write = Buffered(body(b), epoch.unwrap_or(NO_EPOCH), Vec::new());
                self.reference.dirty.insert((doc, user), write);
            }
            Op::Edit(doc, user, e) if !self.setup.back => {
                let view = edit(e).apply(&reference.render(doc, user));
                cache.write_op(USERS[user], at(doc), edit(e))?;
                reference.origin[doc] = reference.at_rest(doc, &view);
            }
            Op::Edit(doc, user, e) => {
                let resident = self.resident(doc, user).cloned();
                cache.write_op(USERS[user], at(doc), edit(e))?;
                let reference = &mut self.reference;
                // A buffered plain write is a delta of one full-body op.
                let Buffered(base, epoch, mut ops) = match reference.dirty.remove(&(doc, user)) {
                    Some(Buffered(view, epoch, ops)) if ops.is_empty() => {
                        Buffered(view.clone(), epoch, vec![DocOp::Replace(view)])
                    }
                    Some(buffered) => buffered,
                    None => {
                        let base = resident.unwrap_or_else(|| reference.render(doc, user));
                        Buffered(base.clone(), md5(&base), Vec::new())
                    }
                };
                ops.push(edit(e));
                let write = Buffered(edit(e).apply(&base), epoch, ops);
                reference.dirty.insert((doc, user), write);
            }
            Op::Flush => {
                let report = cache.flush()?;
                let (written, merge) = reference.flush(self.setup.merge);
                let done = (report.attempted, report.flushed);
                let clean = report.is_clean() && report.dropped.is_empty();
                let clean = clean && done == (written, written);
                ensure!(clean, "flush of {written} writes: {report}");
                let merged = &report.merge;
                ensure!(*merged == merge, "merged {merged}, not {merge}");
            }
            Op::BusDoc(doc) => return self.post(at(doc), None),
            Op::BusUser(doc, user) => return self.post(at(doc), Some(USERS[user])),
            Op::OutOfBand(doc, b) => {
                self.docs[doc].1.set_out_of_band(body(b));
                reference.origin[doc] = body(b);
            }
            Op::Attach(doc, user, kind) => {
                let id = space.attach_active(scope(user), at(doc), self.property(kind))?;
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
        }
        Ok(())
    }

    fn read(&mut self, doc: usize, user: usize, options: ReadOptions) -> Checked {
        let (at, by) = (self.docs[doc].0, USERS[user]);
        let outcome = self.cache.read_with(by, at, options)?;
        let rendition = self.reference.render(doc, user);
        let buffered = self.reference.dirty.get(&(doc, user)).map(|w| &w.0);
        match (buffered, outcome.class) {
            (None, class) => self.reference.served[usize::from(class != HitClass::Hit)] += 1,
            (Some(_), HitClass::Hit) => {}
            (Some(_), class) => ensure!(false, "a buffered write served as {class:?}"),
        }
        same("served", &outcome.bytes, buffered.unwrap_or(&rendition))?;
        let kept = !self.setup.roomy || buffered.is_some() || self.cache.contains(by, at);
        ensure!(kept, "a read with room to spare left nothing resident");
        same("uncached", &self.space.read_document(by, at)?.0, &rendition)
    }

    /// Invalidates `doc`'s versions on the bus, or `user`'s: the post must
    /// remove exactly the resident versions it covers, and count them.
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
        ensure!(counted == held, "{doc:?}, {user:?}: {counted} of {held}");
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
        // last absent: stale only as a verifier can catch, never a notifier.
        for (doc, user) in (0..DOCS).flat_map(|doc| [(doc, 0), (doc, 1)]) {
            let now = self.reference.render(doc, user);
            let resident = self.resident(doc, user).cloned();
            let seen = self.reference.admissible.entry((doc, user)).or_default();
            if resident.is_none() {
                seen.clear();
            }
            if seen.last() != Some(&now) {
                seen.push(now);
            }
            let admissible = resident.is_none_or(|bytes| seen.contains(&bytes));
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
        let (mut expected, mut buffered) = (Vec::new(), Vec::new());
        for (&key, Buffered(view, epoch, _)) in &self.reference.dirty {
            expected.push((key, brief(view, *epoch, false)));
        }
        for (doc, user, view, epoch, parked) in &self.last.dirty {
            let key = (self.index(*doc), user.0 as usize - 1);
            buffered.push((key, brief(view, *epoch, *parked)));
        }
        buffered.sort();
        ensure!(buffered == expected, "{buffered:?}, not {expected:?}");
        // The gauges, the stage bytes, what overload control did, and the
        // hits and misses, against their recounts: an uncontended cache
        // sheds, shifts and queues nothing.
        let (stats, dirty) = (self.cache.stats(), expected.len() as u64);
        let shed = stats.sheds_total();
        let overload = (shed, stats.brownout_shifts, stats.queue_wait_micros);
        let served = [stats.hits, stats.misses];
        let counted = (self.last.gauges, stats.stage_bytes, overload, served);
        let recounted = ([dirty, 0], staged, (0, 0, 0), self.reference.served);
        ensure!(counted == recounted, "{counted:?}, not {recounted:?}");
        Ok(())
    }
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

/// Runs `ops` over a fresh world: the step that broke an invariant, and
/// why, if one did.
fn replay(setup: Setup, shards: usize, ops: &[Op]) -> std::result::Result<(), (usize, String)> {
    let step = Cell::new(0);
    let run = || -> Checked {
        let mut machine = Machine::new(setup, shards);
        machine.check()?;
        for (i, op) in ops.iter().enumerate() {
            step.set(i);
            machine.apply(op)?;
            machine.check()?;
        }
        Ok(())
    };
    let outcome = catch_unwind(AssertUnwindSafe(run)).unwrap_or_else(|panic| {
        let message = panic.downcast_ref::<String>().cloned();
        let message = message.or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()));
        Err(message.unwrap_or_default().into())
    });
    outcome.map_err(|why| (step.get(), why.to_string()))
}

#[test]
fn the_cache_agrees_with_the_reference() {
    // Two cases in three write back, half of them with a merge policy.
    let modes = select(vec![(false, false), (true, false), (true, true)]);
    let setup = (modes, any::<bool>(), any::<bool>(), any::<bool>());
    let setup = setup.prop_map(|((back, merge), stage_cache, window, roomy)| Setup {
        back,
        merge,
        stage_cache,
        window,
        roomy,
    });
    let ops = proptest::collection::vec(op(), 1..32);
    for case in 0..CASES {
        let mut rng = TestRng::for_case("model", case);
        let (setup, mut ops) = (setup.generate(&mut rng), ops.generate(&mut rng));
        for shards in [1, 4] {
            let Err((step, mut why)) = replay(setup, shards, &ops) else {
                continue;
            };
            ops.truncate(step + 1);
            for i in (0..ops.len()).rev() {
                let mut fewer = ops.clone();
                fewer.remove(i);
                if let Err((_, failure)) = replay(setup, shards, &fewer) {
                    (ops, why) = (fewer, failure);
                }
            }
            let replay = format!("replay({setup:?}, {shards}, &{ops:?})");
            panic!("case {case} at {shards} shard(s), step {step}: {why}\n{replay}");
        }
    }
}
