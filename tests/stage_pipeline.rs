//! End-to-end tests of the staged read path: byte parity with the plain
//! path (opaque stages included), content-addressed invalidation via
//! external epochs, cacheability enforcement during the staged walk, the
//! walk's starting point — the deepest resident stage — which outputs are
//! worth a name, what a full cache admits and hashes, and what all that
//! does under churn.

use bytes::Bytes;
use placeless::prelude::*;
use placeless_cache::policy::{EntryAttrs, EntryKey, PolicyFactory, ReplacementPolicy};
use placeless_cache::WriteJournal;
use placeless_core::cacheability::Cacheability;
use placeless_core::digest::{md5, Signature};
use placeless_core::error::Result as CoreResult;
use placeless_core::event::{EventKind, Interests};
use placeless_core::external::SimpleExternal;
use placeless_core::property::{ActiveProperty, PathCtx, PathReport};
use placeless_core::streams::{InputStream, OutputStream, TransformingInput};
use placeless_core::verifier::{ClosureVerifier, Validity, Verifier};
use placeless_proplang::{ExtEnv, ScriptProperty};
use placeless_simenv::trace::{lorem_bytes, TraceBuilder};
use placeless_simenv::{LatencyModel, StableStore};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Appends a fixed marker; staged (tokened) or opaque on demand. Counts
/// the times its transform actually ran.
struct Suffix {
    name: String,
    marker: Vec<u8>,
    tokened: bool,
    cost: u64,
    runs: Arc<AtomicU64>,
}

impl Suffix {
    fn new(name: String, label: &str, tokened: bool, cost: u64) -> Arc<Self> {
        Arc::new(Self {
            name,
            marker: format!("[{label}]").into_bytes(),
            tokened,
            cost,
            runs: Arc::default(),
        })
    }

    fn staged(label: &str) -> Arc<Self> {
        Self::new(format!("suffix-{label}"), label, true, 100)
    }

    fn opaque(label: &str) -> Arc<Self> {
        Self::new(format!("opaque-{label}"), label, false, 100)
    }

    fn runs(&self) -> u64 {
        self.runs.load(Ordering::Relaxed)
    }
}

impl ActiveProperty for Suffix {
    fn name(&self) -> &str {
        &self.name
    }
    fn interests(&self) -> Interests {
        Interests::of(&[EventKind::GetInputStream])
    }
    fn execution_cost_micros(&self) -> u64 {
        self.cost
    }
    fn wrap_input(
        &self,
        _ctx: &PathCtx<'_>,
        _report: &mut PathReport,
        inner: Box<dyn InputStream>,
    ) -> CoreResult<Box<dyn InputStream>> {
        let (marker, runs) = (self.marker.clone(), self.runs.clone());
        Ok(Box::new(TransformingInput::new(
            inner,
            Box::new(move |bytes| {
                runs.fetch_add(1, Ordering::Relaxed);
                let mut out = bytes.to_vec();
                out.extend_from_slice(&marker);
                Ok(Bytes::from(out))
            }),
        )))
    }
    fn transform_token(&self, _ctx: &PathCtx<'_>) -> Option<Vec<u8>> {
        self.tokened.then(|| self.marker.clone())
    }
}

/// A tokened property that nevertheless votes its path uncacheable, on
/// execution and on every stage hit alike.
struct NoStore {
    cost: u64,
}

impl ActiveProperty for NoStore {
    fn name(&self) -> &str {
        "no-store"
    }
    fn interests(&self) -> Interests {
        Interests::of(&[EventKind::GetInputStream])
    }
    fn execution_cost_micros(&self) -> u64 {
        self.cost
    }
    fn wrap_input(
        &self,
        _ctx: &PathCtx<'_>,
        report: &mut PathReport,
        inner: Box<dyn InputStream>,
    ) -> CoreResult<Box<dyn InputStream>> {
        report.vote(Cacheability::Uncacheable);
        Ok(inner)
    }
    fn transform_token(&self, _ctx: &PathCtx<'_>) -> Option<Vec<u8>> {
        Some(b"no-store".to_vec())
    }
}

const USERS: usize = 3;

/// Builds a document with a mixed universal chain (staged, staged, opaque)
/// and one staged per-user suffix, behind a cache with stage caching
/// `stage_cache`.
fn mixed_world(stage_cache: bool) -> (Arc<DocumentCache>, DocumentId, Vec<UserId>) {
    let clock = VirtualClock::new();
    let space = DocumentSpace::new(clock.clone());
    let provider = MemoryProvider::new("doc", "the draft and the paper\nsecond line", 1_000);
    let doc = space.create_document(UserId(0), provider);
    space
        .attach_active(
            Scope::Universal,
            doc,
            ScriptProperty::compile("up", "upper", ExtEnv::new()).unwrap(),
        )
        .unwrap();
    space
        .attach_active(
            Scope::Universal,
            doc,
            ScriptProperty::compile("head", "take_lines(1)", ExtEnv::new()).unwrap(),
        )
        .unwrap();
    space
        .attach_active(Scope::Universal, doc, Suffix::opaque("!"))
        .unwrap();
    let users: Vec<UserId> = (1..=USERS as u64).map(UserId).collect();
    for &user in &users {
        space.add_reference(user, doc).unwrap();
        space
            .attach_active(
                Scope::Personal(user),
                doc,
                Suffix::staged(&format!("u{}", user.0)),
            )
            .unwrap();
    }
    let cache = DocumentCache::new(
        space,
        CacheConfig::builder().stage_cache(stage_cache).build(),
    );
    (cache, doc, users)
}

/// Every user's first and second read, in order.
fn render_all(cache: &DocumentCache, doc: DocumentId, users: &[UserId]) -> Vec<Bytes> {
    let mut out = Vec::new();
    for &user in users {
        out.push(cache.read(user, doc).unwrap());
    }
    for &user in users {
        out.push(cache.read(user, doc).unwrap());
    }
    out
}

#[test]
fn staged_path_is_byte_identical_to_plain_path() {
    let (plain, doc, users) = mixed_world(false);
    let (staged, sdoc, susers) = mixed_world(true);
    let expected = render_all(&plain, doc, &users);
    let got = render_all(&staged, sdoc, &susers);
    assert_eq!(got, expected);

    // The opaque stage ran (its marker is in the output) and the staged
    // walk genuinely engaged: later users partial-hit the tokened prefix.
    assert!(got[0].ends_with(b"[!][u1]"));
    let stats = staged.stats();
    assert_eq!(stats.stage_partial_hits, USERS as u64 - 1);
    // Two universal tokened stages hit per later user; the opaque stage
    // re-executes every miss and never gets an entry.
    assert_eq!(stats.stage_hits, 2 * (USERS as u64 - 1));
    assert_eq!(staged.stage_entry_count(), 2 + USERS);

    // The plain world saw none of this.
    assert_eq!(plain.stats().stage_hits, 0);
    assert_eq!(plain.stats().stage_bytes, 0);
    assert_eq!(plain.stage_entry_count(), 0);
}

#[test]
fn external_epoch_change_rekeys_the_chain() {
    let clock = VirtualClock::new();
    let space = DocumentSpace::new(clock.clone());
    let provider = MemoryProvider::new("doc", "price: ", 1_000);
    let doc = space.create_document(UserId(0), provider);
    let env = ExtEnv::new();
    let quote = SimpleExternal::new("quote", "v1");
    env.add(quote.clone());
    space
        .attach_active(
            Scope::Universal,
            doc,
            ScriptProperty::compile("q", "append_ext(\"quote\")", env).unwrap(),
        )
        .unwrap();
    let users: Vec<UserId> = (1..=3).map(UserId).collect();
    for &user in &users {
        space.add_reference(user, doc).unwrap();
        space
            .attach_active(
                Scope::Personal(user),
                doc,
                Suffix::staged(&format!("u{}", user.0)),
            )
            .unwrap();
    }
    let cache = DocumentCache::new(space, CacheConfig::builder().stage_cache(true).build());

    // Two users populate and share the external-bearing stage.
    assert_eq!(
        cache.read(users[0], doc).unwrap(),
        Bytes::from_static(b"price: v1[u1]")
    );
    assert_eq!(
        cache.read(users[1], doc).unwrap(),
        Bytes::from_static(b"price: v1[u2]")
    );
    let before = cache.stats();
    assert_eq!(before.stage_hits, 1);

    // The external changes. A cold reader must see the new value even
    // though the v1 stage entries are still resident: the changed epoch
    // changes the token, so the old entries simply stop being addressed.
    quote.set("v2");
    assert_eq!(
        cache.read(users[2], doc).unwrap(),
        Bytes::from_static(b"price: v2[u3]")
    );
    let after = cache.stats();
    assert_eq!(after.stage_hits, before.stage_hits, "no stale stage served");
    assert_eq!(after.stage_partial_hits, before.stage_partial_hits);
}

#[test]
fn uncacheable_vote_blocks_stage_fills() {
    let clock = VirtualClock::new();
    let space = DocumentSpace::new(clock.clone());
    let provider = MemoryProvider::new("doc", "secret", 1_000);
    let doc = space.create_document(UserId(0), provider);
    space
        .attach_active(Scope::Universal, doc, Arc::new(NoStore { cost: 0 }))
        .unwrap();
    let user = UserId(1);
    space.add_reference(user, doc).unwrap();
    let cache = DocumentCache::new(space, CacheConfig::builder().stage_cache(true).build());

    assert_eq!(
        cache.read(user, doc).unwrap(),
        Bytes::from_static(b"secret")
    );
    assert_eq!(
        cache.read(user, doc).unwrap(),
        Bytes::from_static(b"secret")
    );
    let stats = cache.stats();
    assert_eq!(stats.uncacheable_reads, 2, "every read forwarded");
    assert_eq!(stats.stage_hits, 0);
    assert_eq!(
        cache.stage_entry_count(),
        0,
        "a token does not override the cacheability vote"
    );
    assert_eq!(stats.stage_bytes, 0);
}

// ---- Where a walk starts, and what that does under churn ---------------

/// What a [`SpyPolicy`] has seen go by.
#[derive(Default)]
struct Spy {
    /// The keys the shard policies track: the resident unpinned entries,
    /// whenever no install is in progress.
    resident: HashSet<EntryKey>,
    /// What every key that ever entered a policy was last priced at.
    prices: HashMap<EntryKey, f64>,
    /// Per stage signature, the versions that are that stage's output
    /// under another name (the test fills this in).
    aliases: HashMap<Signature, HashSet<EntryKey>>,
    evictions: u64,
    /// Evictions of a stage name while one of its aliases was resident:
    /// the name goes, the bytes stay, nobody else can reach them.
    names_dropped_over_held_content: u64,
}

/// The default policy, reporting to a [`Spy`].
struct SpyPolicy {
    inner: Box<dyn ReplacementPolicy>,
    spy: Arc<Mutex<Spy>>,
}

impl ReplacementPolicy for SpyPolicy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn on_insert(&mut self, key: EntryKey, attrs: &EntryAttrs) {
        let mut spy = self.spy.lock().unwrap();
        spy.resident.insert(key);
        spy.prices.insert(key, attrs.cost);
        drop(spy);
        self.inner.on_insert(key, attrs);
    }
    fn on_hit(&mut self, key: EntryKey) {
        self.inner.on_hit(key);
    }
    fn on_remove(&mut self, key: EntryKey) {
        self.spy.lock().unwrap().resident.remove(&key);
        self.inner.on_remove(key);
    }
    fn evict(&mut self) -> Option<EntryKey> {
        let victim = self.inner.evict()?;
        let mut spy = self.spy.lock().unwrap();
        spy.resident.remove(&victim);
        spy.evictions += 1;
        if let EntryKey::Stage(sig) = victim {
            let held = spy.aliases.get(&sig);
            if held.is_some_and(|held| held.iter().any(|alias| spy.resident.contains(alias))) {
                spy.names_dropped_over_held_content += 1;
            }
        }
        Some(victim)
    }
    fn len(&self) -> usize {
        self.inner.len()
    }
}

fn spied(spy: &Arc<Mutex<Spy>>) -> PolicyFactory {
    let spy = spy.clone();
    PolicyFactory::new("spied", move || {
        Box::new(SpyPolicy {
            inner: PolicyFactory::default().build(),
            spy: spy.clone(),
        })
    })
}

/// A [`MemoryProvider`] that counts the streams opened on it. `late` makes
/// its verifiers vouch for anything and attest nothing: a root lease over
/// such a provider would lose its race with every out-of-band writer, so
/// none is taken.
struct CountingProvider {
    inner: Arc<MemoryProvider>,
    opens: AtomicU64,
    late: bool,
}

impl CountingProvider {
    fn new(body: impl Into<Bytes>, fetch_cost: u64, late: bool) -> Arc<Self> {
        Arc::new(Self {
            inner: MemoryProvider::new("counted", body, fetch_cost),
            opens: AtomicU64::new(0),
            late,
        })
    }

    fn opens(&self) -> u64 {
        self.opens.load(Ordering::Relaxed)
    }
}

impl BitProvider for CountingProvider {
    fn describe(&self) -> String {
        self.inner.describe()
    }
    fn open_input(&self, clock: &VirtualClock) -> CoreResult<Box<dyn InputStream>> {
        self.opens.fetch_add(1, Ordering::Relaxed);
        self.inner.open_input(clock)
    }
    fn open_output(&self, clock: &VirtualClock) -> CoreResult<Box<dyn OutputStream>> {
        self.inner.open_output(clock)
    }
    fn make_verifier(&self, clock: &VirtualClock) -> Option<Box<dyn Verifier>> {
        if self.late {
            return Some(ClosureVerifier::new("late", 0, |_| Validity::Valid));
        }
        self.inner.make_verifier(clock)
    }
    fn fetch_cost_micros(&self) -> u64 {
        self.inner.fetch_cost_micros()
    }
}

const READERS: [UserId; 3] = [UserId(1), UserId(2), UserId(3)];

/// One 100-byte document under `[first, second]` — both signed, three
/// bytes of marker each, `first` cheap and `second` dear — in a one-shard
/// cache that holds the two outputs and ten bytes more. `READERS[0]` has
/// read the document and then a chainless filler of `filler_bytes`, dear
/// enough to stay, which pushed out the cheapest of the document's
/// entries until it fitted.
struct SkipWorld {
    space: Arc<DocumentSpace>,
    cache: Arc<DocumentCache>,
    doc: DocumentId,
    filler: DocumentId,
    provider: Arc<CountingProvider>,
    second: Arc<Suffix>,
    spy: Arc<Mutex<Spy>>,
}

impl SkipWorld {
    fn new(first: Arc<dyn ActiveProperty>, filler_bytes: usize, late: bool) -> Self {
        let space = DocumentSpace::with_middleware_cost(VirtualClock::new(), LatencyModel::FREE);
        let provider = CountingProvider::new(vec![b'x'; 100], 10, late);
        let doc = space.create_document(UserId(0), provider.clone());
        let second = Suffix::new("second".into(), "b", true, 10_000);
        for prop in [first, second.clone() as Arc<dyn ActiveProperty>] {
            space.attach_active(Scope::Universal, doc, prop).unwrap();
        }
        let filler = space.create_document(
            UserId(0),
            MemoryProvider::new("filler", vec![b'f'; filler_bytes], 100_000),
        );
        for user in READERS {
            space.add_reference(user, doc).unwrap();
        }
        space.add_reference(READERS[0], filler).unwrap();
        let spy = Arc::new(Mutex::new(Spy::default()));
        let config = CacheConfig::builder()
            .capacity_bytes(103 + 106 + 10)
            .local_latency(LatencyModel::FREE)
            .stage_cache(true)
            .shards(1)
            .policy(spied(&spy));
        let cache = DocumentCache::new(space.clone(), config.build());
        cache.read(READERS[0], doc).unwrap();
        cache.read(READERS[0], filler).unwrap();
        Self {
            space,
            cache,
            doc,
            filler,
            provider,
            second,
            spy,
        }
    }

    /// Which of the chain's two outputs over `root` are resident.
    fn stages_resident(&self, root: &[u8]) -> [bool; 2] {
        let plan = self.space.read_plan(READERS[1], self.doc).unwrap();
        let sigs = plan.signed_prefix(md5(root));
        let spy = self.spy.lock().unwrap();
        [0, 1].map(|index| spy.resident.contains(&EntryKey::Stage(sigs[index])))
    }

    /// What the uncached middleware serves `user`.
    fn oracle(&self, user: UserId) -> Bytes {
        self.space.read_document(user, self.doc).unwrap().0
    }
}

#[test]
fn walk_adopts_the_deepest_resident_stage_and_runs_nothing_before_it() {
    let first = Suffix::new("first".into(), "a", true, 10);
    let world = SkipWorld::new(first.clone(), 100, false);
    assert_eq!(
        world.stages_resident(&[b'x'; 100]),
        [false, true],
        "only the last signed stage is resident"
    );
    let (opens, runs) = (world.provider.opens(), first.runs() + world.second.runs());
    let before = world.cache.stats();

    let outcome = world
        .cache
        .read_with(READERS[1], world.doc, ReadOptions::default())
        .unwrap();
    assert_eq!(outcome.class, HitClass::PartialHit);
    assert_eq!(first.runs() + world.second.runs(), runs, "no property ran");
    assert_eq!(world.provider.opens(), opens, "no provider stream opened");
    let stats = world.cache.stats().delta(&before);
    assert_eq!(stats.root_reuses, 1);
    assert_eq!(stats.stage_hits, 2, "the skipped stage counts as a hit");
    assert_eq!(stats.evictions, 0, "nothing was stored, so nothing left");
    assert_eq!(outcome.bytes, world.oracle(READERS[1]));
}

/// Votes `CacheableWithEvents`, ships a verifier it can turn against the
/// entry, pins, and appends `[g]`.
struct Guarded {
    valid: Arc<AtomicBool>,
    runs: Arc<AtomicU64>,
}

impl ActiveProperty for Guarded {
    fn name(&self) -> &str {
        "guarded"
    }
    fn interests(&self) -> Interests {
        Interests::of(&[EventKind::GetInputStream])
    }
    fn execution_cost_micros(&self) -> u64 {
        10
    }
    fn wrap_input(
        &self,
        _ctx: &PathCtx<'_>,
        report: &mut PathReport,
        inner: Box<dyn InputStream>,
    ) -> CoreResult<Box<dyn InputStream>> {
        report.vote(Cacheability::CacheableWithEvents);
        let valid = self.valid.clone();
        report.add_verifier(ClosureVerifier::new("guard", 1, move |_| {
            if valid.load(Ordering::Relaxed) {
                Validity::Valid
            } else {
                Validity::Invalid
            }
        }));
        report.pin();
        let runs = self.runs.clone();
        Ok(Box::new(TransformingInput::new(
            inner,
            Box::new(move |bytes| {
                runs.fetch_add(1, Ordering::Relaxed);
                Ok(Bytes::from([&bytes[..], b"[g]"].concat()))
            }),
        )))
    }
    fn transform_token(&self, _ctx: &PathCtx<'_>) -> Option<Vec<u8>> {
        Some(b"guarded".to_vec())
    }
}

#[test]
fn skipped_stage_still_votes_verifies_and_pins() {
    let guarded = Arc::new(Guarded {
        valid: Arc::new(AtomicBool::new(true)),
        runs: Arc::default(),
    });
    let world = SkipWorld::new(guarded.clone(), 100, false);
    assert_eq!(world.stages_resident(&[b'x'; 100]), [false, true]);
    let runs = guarded.runs.load(Ordering::Relaxed);
    let read = |user| {
        let before = world.cache.stats();
        let outcome = world
            .cache
            .read_with(user, world.doc, ReadOptions::default())
            .unwrap();
        (outcome, world.cache.stats().delta(&before))
    };

    // The guarded stage is skipped, not executed — and its pin still
    // reaches the version this read installs.
    let (outcome, stats) = read(READERS[1]);
    assert_eq!(outcome.class, HitClass::PartialHit);
    assert_eq!(guarded.runs.load(Ordering::Relaxed), runs);
    assert_eq!(stats.pinned_fills, 1);
    assert_eq!(stats.events_forwarded, 0, "a fill is not a cache read");
    // So does its vote: every hit forwards one event.
    for _ in 0..2 {
        let (outcome, stats) = read(READERS[1]);
        assert_eq!(outcome.class, HitClass::Hit);
        assert_eq!(stats.events_forwarded, 1);
    }
    // And its verifier: once it turns, the entry is refuted.
    guarded.valid.store(false, Ordering::Relaxed);
    let (outcome, stats) = read(READERS[1]);
    assert_eq!(stats.verifier_invalidations, 1);
    assert_eq!(outcome.class, HitClass::PartialHit);
    assert_eq!(outcome.bytes, world.oracle(READERS[1]));
}

#[test]
fn probing_stops_at_the_first_opaque_stage() {
    let space = DocumentSpace::with_middleware_cost(VirtualClock::new(), LatencyModel::FREE);
    let doc = space.create_document(UserId(0), MemoryProvider::new("doc", "body", 1_000));
    let chain = [
        Suffix::staged("head"),
        Suffix::opaque("mid"),
        Suffix::staged("tail"),
    ];
    for prop in &chain {
        space
            .attach_active(Scope::Universal, doc, prop.clone())
            .unwrap();
    }
    for user in READERS {
        space.add_reference(user, doc).unwrap();
    }
    let cache = DocumentCache::new(
        space.clone(),
        CacheConfig::builder().stage_cache(true).build(),
    );
    assert_eq!(
        cache.read(READERS[0], doc).unwrap(),
        "body[head][mid][tail]"
    );
    let before = cache.stats();
    let outcome = cache
        .read_with(READERS[1], doc, ReadOptions::default())
        .unwrap();
    assert_eq!(outcome.bytes, "body[head][mid][tail]");
    assert_eq!(outcome.class, HitClass::PartialHit);
    // `head` is the whole signed prefix and is adopted from it; `mid`
    // runs on every read; `tail` is addressed by what `mid` put out and
    // found by the forward walk.
    let runs = chain.each_ref().map(|prop| prop.runs());
    assert_eq!(runs, [1, 2, 1]);
    assert_eq!(cache.stats().delta(&before).stage_hits, 2);
    assert_eq!(cache.stage_entry_count(), 2);
}

#[test]
fn lease_that_lost_its_race_rebases_a_walk_that_found_nothing_resident() {
    let first = Suffix::new("first".into(), "a", true, 10);
    // A filler the size of the cache pushes all of the document out; then
    // it goes too. The document's lease outlives both.
    let world = SkipWorld::new(first.clone(), 215, true);
    world.space.bus().post(Invalidation::Document(world.filler));
    assert!(world.cache.is_empty());
    let (old, new) = ([b'x'; 100], [b'y'; 100]);
    world.provider.inner.set_out_of_band(new.to_vec());

    // The late verifier would vouch for the old root, but it attests
    // nothing, so no lease holds a root: the walk fetches the new one,
    // finds nothing resident under it, and executes the chain head.
    let before = world.cache.stats();
    let outcome = world
        .cache
        .read_with(READERS[1], world.doc, ReadOptions::default())
        .unwrap();
    assert_eq!(outcome.class, HitClass::Miss);
    assert_eq!(outcome.bytes, [&new[..], b"[a][b]"].concat());
    assert_eq!(outcome.bytes, world.oracle(READERS[1]));
    assert_eq!(world.cache.stats().delta(&before).root_reuses, 0);
    assert_eq!(world.stages_resident(&old), [false, false]);
    // `first` (fetch 10 + 10) is worth no name under `second` (10 000).
    assert_eq!(
        world.stages_resident(&new),
        [false, true],
        "the named output is stored under the root it was computed from"
    );
    // The next user fetches the root again and adopts what it names.
    let (opens, runs) = (world.provider.opens(), first.runs() + world.second.runs());
    assert_eq!(
        world.cache.read(READERS[2], world.doc).unwrap(),
        outcome.bytes
    );
    assert_eq!(world.provider.opens(), opens + 1);
    assert_eq!(first.runs() + world.second.runs(), runs);
}

// ---- What is worth a name, and what a full cache admits -----------------

/// One 100-byte document (fetch cost 200) that every reader sees through
/// `chain` — signed stages appending `[0]`, `[1]`, … at the given costs,
/// universal until a test attaches more — in a one-shard cache with room
/// for everything.
struct ChainWorld {
    space: Arc<DocumentSpace>,
    cache: Arc<DocumentCache>,
    doc: DocumentId,
    provider: Arc<CountingProvider>,
    chain: Vec<Arc<Suffix>>,
    spy: Arc<Mutex<Spy>>,
}

/// How a [`ChainWorld::read`] was served, and what it ran of the world's
/// `chain` and opened of its provider.
#[derive(Debug, PartialEq)]
struct Read {
    class: HitClass,
    runs: u64,
    opens: u64,
}

impl ChainWorld {
    fn new(costs: &[u64]) -> Self {
        let space = DocumentSpace::with_middleware_cost(VirtualClock::new(), LatencyModel::FREE);
        let provider = CountingProvider::new(vec![b'x'; 100], 200, false);
        let doc = space.create_document(UserId(0), provider.clone());
        for user in READERS {
            space.add_reference(user, doc).unwrap();
        }
        let spy = Arc::new(Mutex::new(Spy::default()));
        let config = CacheConfig::builder()
            .local_latency(LatencyModel::FREE)
            .stage_cache(true)
            .shards(1)
            .policy(spied(&spy));
        let mut world = Self {
            cache: DocumentCache::new(space.clone(), config.build()),
            space,
            doc,
            provider,
            chain: Vec::new(),
            spy,
        };
        for (i, &cost) in costs.iter().enumerate() {
            let stage = Suffix::new(format!("stage-{i}"), &i.to_string(), true, cost);
            world.attach(Scope::Universal, stage.clone());
            world.chain.push(stage);
        }
        world
    }

    fn attach(&self, scope: Scope, prop: Arc<dyn ActiveProperty>) {
        self.space.attach_active(scope, self.doc, prop).unwrap();
    }

    /// The signature addressing each stage of `user`'s signed prefix.
    fn sigs(&self, user: UserId) -> Vec<Signature> {
        let plan = self.space.read_plan(user, self.doc).unwrap();
        plan.signed_prefix(md5(&self.provider.inner.content()))
    }

    /// What each output of `user`'s signed prefix was stored at, if ever.
    fn prices(&self, user: UserId) -> Vec<Option<f64>> {
        let spy = self.spy.lock().unwrap();
        let price = |sig| spy.prices.get(&EntryKey::Stage(sig)).copied();
        self.sigs(user).into_iter().map(price).collect()
    }

    /// Reads through the cache, counts what that ran, and only then asks
    /// the uncached middleware (which runs the chain itself).
    fn read(&self, user: UserId) -> Read {
        let chain_runs = || self.chain.iter().map(|stage| stage.runs()).sum::<u64>();
        let (runs, opens) = (chain_runs(), self.provider.opens());
        let outcome = self
            .cache
            .read_with(user, self.doc, ReadOptions::default())
            .unwrap();
        let (runs, opens) = (chain_runs() - runs, self.provider.opens() - opens);
        let oracle = self.space.read_document(user, self.doc).unwrap().0;
        assert_eq!(outcome.bytes, oracle);
        Read {
            class: outcome.class,
            runs,
            opens,
        }
    }
}

const fn served(class: HitClass, runs: u64, opens: u64) -> Read {
    Read { class, runs, opens }
}

#[test]
fn ascending_costs_name_only_the_last_base_output() {
    // 200 + 50 < 400 and 250 + 400 < 2 000: neither intermediate would
    // outlive its successor under a cost-aware policy.
    let world = ChainWorld::new(&[50, 400, 2_000]);
    assert_eq!(world.read(READERS[0]), served(HitClass::Miss, 3, 1));
    assert_eq!(
        world.prices(READERS[0]),
        [None, None, Some(2_650.0)],
        "the named output is priced at everything a walk redoes without it"
    );
    assert_eq!(world.cache.stage_entry_count(), 1);
    assert_eq!(world.cache.stats().stage_bytes, 109);
    assert_eq!(world.read(READERS[1]), served(HitClass::PartialHit, 0, 0));
}

#[test]
fn dearer_or_equal_intermediates_keep_their_names() {
    // E-STAGE's shape: a 3 000 head over two 2 000s. No successor costs
    // strictly more than redoing its input, so every output is stored, each
    // at its own stage (the head with the fetch), and the model stands.
    let world = ChainWorld::new(&[3_000, 2_000, 2_000]);
    assert_eq!(world.read(READERS[0]), served(HitClass::Miss, 3, 1));
    assert_eq!(
        world.prices(READERS[0]),
        [Some(3_200.0), Some(2_000.0), Some(2_000.0)]
    );
    assert_eq!(world.cache.stage_entry_count(), 3);
}

#[test]
fn cheap_universal_output_under_a_dear_personal_stage_is_kept() {
    // The chains fan out after the last base output: it is every user's,
    // its successor one user's, so it is named however dear that is.
    let mut world = ChainWorld::new(&[50]);
    for user in READERS {
        let own = Suffix::new(format!("own-{}", user.0), "u", true, 5_000);
        world.attach(Scope::Personal(user), own.clone());
        world.chain.push(own);
    }
    assert_eq!(world.read(READERS[0]), served(HitClass::Miss, 2, 1));
    assert_eq!(
        world.prices(READERS[0]),
        [Some(250.0), Some(5_000.0)],
        "the shared output is stored, and its successor priced past it"
    );
    // The second user's walk executes one stage and fetches nothing.
    assert_eq!(world.read(READERS[1]), served(HitClass::PartialHit, 1, 0));
}

#[test]
fn successor_that_votes_uncacheable_leaves_the_intermediate_stored() {
    // The vote is cast when the successor executes: by then the walk holds
    // an unnamed output it computed while the path was still cacheable.
    let world = ChainWorld::new(&[50]);
    world.attach(Scope::Universal, Arc::new(NoStore { cost: 2_000 }));
    assert_eq!(world.read(READERS[0]), served(HitClass::Miss, 1, 1));
    assert_eq!(world.prices(READERS[0]), [Some(250.0), None]);
    assert_eq!(world.cache.stage_entry_count(), 1);
    assert_eq!(world.cache.stats().stage_bytes, 103);
    // And the next walk finds it: no fetch, no second run of the head.
    assert_eq!(world.read(READERS[1]), served(HitClass::Miss, 0, 0));
    assert_eq!(world.cache.stats().uncacheable_reads, 2);
}

/// Appends `[w]` once `release` is set, and not before.
struct Waits {
    release: Arc<AtomicBool>,
    runs: Arc<AtomicU64>,
}

impl ActiveProperty for Waits {
    fn name(&self) -> &str {
        "waits"
    }
    fn interests(&self) -> Interests {
        Interests::of(&[EventKind::GetInputStream])
    }
    fn execution_cost_micros(&self) -> u64 {
        2_000
    }
    fn wrap_input(
        &self,
        _ctx: &PathCtx<'_>,
        _report: &mut PathReport,
        inner: Box<dyn InputStream>,
    ) -> CoreResult<Box<dyn InputStream>> {
        let (release, runs) = (self.release.clone(), self.runs.clone());
        Ok(Box::new(TransformingInput::new(
            inner,
            Box::new(move |bytes| {
                runs.fetch_add(1, Ordering::Relaxed);
                while !release.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
                Ok(Bytes::from([&bytes[..], b"[w]"].concat()))
            }),
        )))
    }
    fn transform_token(&self, _ctx: &PathCtx<'_>) -> Option<Vec<u8>> {
        Some(b"waits".to_vec())
    }
}

#[test]
fn two_threads_missing_one_document_run_each_stage_once() {
    let world = ChainWorld::new(&[50]);
    let tail = Arc::new(Waits {
        release: Arc::default(),
        runs: Arc::default(),
    });
    world.attach(Scope::Universal, tail.clone());
    let (cache, doc) = (&world.cache, world.doc);
    std::thread::scope(|scope| {
        let readers: Vec<_> = READERS[..2]
            .iter()
            .map(|&user| scope.spawn(move || cache.read(user, doc).unwrap()))
            .collect();
        // One reader leads the segment's flight and is held inside its last
        // stage; the other has nothing to do but wait on that flight.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
        while cache.waiting_reads() < 1 {
            assert!(std::time::Instant::now() < deadline, "nobody coalesced");
            std::thread::yield_now();
        }
        tail.release.store(true, Ordering::Release);
        for reader in readers {
            let expected = [&[b'x'; 100][..], b"[0][w]"].concat();
            assert_eq!(reader.join().unwrap(), expected);
        }
    });
    let runs = (world.chain[0].runs(), tail.runs.load(Ordering::Relaxed));
    assert_eq!(runs, (1, 1));
    let stats = cache.stats();
    assert_eq!(stats.coalesced_waits, 1, "one flight for the segment");
    assert_eq!(
        stats.stage_hits, 2,
        "the waiter skipped a stage, adopted one"
    );
    assert_eq!(cache.stage_entry_count(), 1);
}

/// What a walk recorded of one stage: `(cached, signature, bytes)`.
type Recorded = (bool, Option<Signature>, u64);

/// Changes nothing; keeps the stage records the walk had written when
/// this stage was reached.
#[derive(Default)]
struct Recorder {
    seen: Mutex<Vec<Vec<Recorded>>>,
}

impl ActiveProperty for Recorder {
    fn name(&self) -> &str {
        "recorder"
    }
    fn interests(&self) -> Interests {
        Interests::of(&[EventKind::GetInputStream])
    }
    fn wrap_input(
        &self,
        _ctx: &PathCtx<'_>,
        report: &mut PathReport,
        inner: Box<dyn InputStream>,
    ) -> CoreResult<Box<dyn InputStream>> {
        let stages = report.stages.iter();
        let records = stages.map(|stage| (stage.cached, stage.signature, stage.bytes));
        self.seen.lock().unwrap().push(records.collect());
        Ok(inner)
    }
}

#[test]
fn unnamed_output_is_executed_and_handed_on_and_nothing_more() {
    let world = ChainWorld::new(&[50, 2_000]);
    // An opaque pass-through at the end of each user's chain sees what
    // the walk recorded of the two stages before it.
    let recorder = Arc::new(Recorder::default());
    for user in READERS {
        world.attach(Scope::Personal(user), recorder.clone());
    }
    let sigs = world.sigs(READERS[0]);
    assert_eq!(world.read(READERS[0]), served(HitClass::Miss, 2, 1));
    assert_eq!(world.read(READERS[1]), served(HitClass::PartialHit, 0, 0));
    // The cold walk executed both stages, and each is *addressed* by its
    // signature, named or not; the next walk adopted the named output and
    // skipped the other. (The uncached oracle reads pass through the
    // recorder too, unsigned.)
    let cold = vec![(false, Some(sigs[0]), 103), (false, Some(sigs[1]), 106)];
    let warm = vec![(true, Some(sigs[0]), 0), (true, Some(sigs[1]), 106)];
    let seen = recorder.seen.lock().unwrap();
    let walks: Vec<_> = seen.iter().filter(|w| w[0].1.is_some()).collect();
    assert_eq!(walks, [&cold, &warm]);
    // Nothing was ever stored under the unnamed signature: one stage entry,
    // its bytes alone, and no policy ever heard of the other key. (Every
    // entry that *is* stored still has its signature checked against
    // `md5(bytes)` by `install`'s debug assertion, which this build runs.)
    assert_eq!(world.prices(READERS[0]), [None, Some(2_250.0)]);
    assert_eq!(world.cache.stage_entry_count(), 1);
    assert_eq!(world.cache.stats().stage_bytes, 106);
}

#[test]
fn full_cache_admits_no_free_alias() {
    let first = Suffix::new("first".into(), "a", true, 10);
    let world = SkipWorld::new(first.clone(), 100, false);
    assert_eq!(world.stages_resident(&[b'x'; 100]), [false, true]);
    // 206 of 219 bytes are held by the chain's named output and the filler:
    // the cache could not take a 106-byte entry without evicting.
    let read = |user| {
        let (opens, runs) = (world.provider.opens(), first.runs() + world.second.runs());
        let before = world.cache.stats();
        let outcome = world
            .cache
            .read_with(user, world.doc, ReadOptions::default())
            .unwrap();
        assert_eq!(first.runs() + world.second.runs(), runs, "no stage ran");
        assert_eq!(world.provider.opens(), opens, "no provider stream opened");
        assert_eq!(world.cache.stats().delta(&before).evictions, 0);
        assert_eq!(outcome.bytes, world.oracle(user));
        outcome.class
    };
    // The version would be the resident output under a second name, free
    // to lose: every read is the one lookup that re-derives it.
    for _ in 0..3 {
        assert_eq!(read(READERS[1]), HitClass::PartialHit);
        assert!(!world.cache.contains(READERS[1], world.doc));
    }
    // The versions there are: the filler's, with bytes of its own, and
    // the alias `READERS[0]` was granted while the cache had room.
    assert_eq!(world.cache.len(), world.cache.stage_entry_count() + 2);
    // An invalidation frees room, and aliases are admitted again.
    world.space.bus().post(Invalidation::Document(world.filler));
    assert_eq!(read(READERS[1]), HitClass::PartialHit);
    assert_eq!(read(READERS[1]), HitClass::Hit);
    assert!(world.cache.contains(READERS[1], world.doc));
}

// ---- What a full cache hashes ----------------------------------------------

/// Hands its input on unchanged: the very buffer, or (`copy`) an equal one.
struct Echo {
    copy: bool,
}

impl ActiveProperty for Echo {
    fn name(&self) -> &str {
        if self.copy {
            "echo-copy"
        } else {
            "echo"
        }
    }
    fn interests(&self) -> Interests {
        Interests::of(&[EventKind::GetInputStream])
    }
    fn execution_cost_micros(&self) -> u64 {
        1
    }
    fn wrap_input(
        &self,
        _ctx: &PathCtx<'_>,
        _report: &mut PathReport,
        inner: Box<dyn InputStream>,
    ) -> CoreResult<Box<dyn InputStream>> {
        if !self.copy {
            return Ok(inner);
        }
        let copy = |bytes: Bytes| Ok(Bytes::copy_from_slice(&bytes));
        Ok(Box::new(TransformingInput::new(inner, Box::new(copy))))
    }
    fn transform_token(&self, _ctx: &PathCtx<'_>) -> Option<Vec<u8>> {
        Some(self.name().as_bytes().to_vec())
    }
}

/// One 100-byte document (fetch cost 10) per chain, universal and read by
/// every reader, and chainless fillers of `(bytes, fetch cost)` that
/// `READERS[0]` has read into a one-shard cache of `capacity` bytes: a dear
/// filler stays, cheap ones make room for the next fills.
struct Pressure {
    space: Arc<DocumentSpace>,
    cache: Arc<DocumentCache>,
    fillers: Vec<DocumentId>,
    docs: Vec<DocumentId>,
}

type Chain = Vec<Arc<dyn ActiveProperty>>;

impl Pressure {
    fn new(capacity: u64, fillers: &[(usize, u64)], chains: Vec<Chain>) -> Self {
        let space = DocumentSpace::with_middleware_cost(VirtualClock::new(), LatencyModel::FREE);
        let create = |body: Vec<u8>, cost| {
            space.create_document(UserId(0), MemoryProvider::new("m", body, cost))
        };
        let docs = chains
            .into_iter()
            .map(|chain| {
                let doc = create(vec![b'x'; 100], 10);
                for prop in chain {
                    space.attach_active(Scope::Universal, doc, prop).unwrap();
                }
                for user in READERS {
                    space.add_reference(user, doc).unwrap();
                }
                doc
            })
            .collect();
        // Distinct bodies: fillers share no bytes.
        let fillers: Vec<_> = (0..)
            .zip(fillers)
            .map(|(i, &(size, cost))| create(vec![b'a' + i; size], cost))
            .collect();
        let config = CacheConfig::builder()
            .capacity_bytes(capacity)
            .local_latency(LatencyModel::FREE)
            .stage_cache(true)
            .shards(1);
        let cache = DocumentCache::new(space.clone(), config.build());
        for &filler in &fillers {
            space.add_reference(READERS[0], filler).unwrap();
            cache.read(READERS[0], filler).unwrap();
        }
        Self {
            space,
            cache,
            fillers,
            docs,
        }
    }

    /// Two documents whose chains — one stage each, `left` and `right` —
    /// append the same marker: two names, identical bytes. 310 of 400 bytes
    /// are held by a dear filler and two cheap ones.
    fn twins() -> Self {
        let stage =
            |name: &str| vec![Suffix::new(name.into(), "a", true, 10) as Arc<dyn ActiveProperty>];
        Self::new(
            400,
            &[(150, 100_000), (80, 1), (80, 1)],
            vec![stage("left"), stage("right")],
        )
    }

    /// Reads through the cache, checked against the uncached middleware.
    fn read(&self, user: UserId, doc: DocumentId) -> HitClass {
        let outcome = self
            .cache
            .read_with(user, doc, ReadOptions::default())
            .unwrap();
        assert_eq!(
            outcome.bytes,
            self.space.read_document(user, doc).unwrap().0
        );
        outcome.class
    }
}

#[test]
fn under_pressure_a_miss_files_its_outputs_under_their_stage_names() {
    let world = Pressure::twins();
    // Neither 103-byte output fits without a cheap filler going, nor does a
    // version that would alias it afterwards.
    for &doc in &world.docs {
        assert_eq!(world.read(READERS[0], doc), HitClass::Miss);
        assert!(!world.cache.contains(READERS[0], doc));
    }
    assert_eq!(world.cache.stage_entry_count(), 2);
    // Filed by name, the two outputs share nothing (by content they would
    // share one copy, and the second cheap filler would have stayed).
    assert_eq!(world.cache.resident_bytes(), (150 + 2 * 103, 150 + 2 * 103));
    assert_eq!(world.cache.stats().shared_fills, 0);
}

#[test]
fn under_pressure_the_first_alias_admitted_refiles_the_output() {
    let world = Pressure::twins();
    for &doc in &world.docs {
        world.read(READERS[0], doc);
    }
    // The dear filler goes: a 103-byte alias fits again.
    let cache = &world.cache;
    world
        .space
        .bus()
        .post(Invalidation::Document(world.fillers[0]));
    assert_eq!(cache.resident_bytes(), (206, 206));
    // The alias takes the output's digest and its bytes: one name more,
    // not one byte more.
    assert_eq!(world.read(READERS[1], world.docs[0]), HitClass::PartialHit);
    assert!(cache.contains(READERS[1], world.docs[0]));
    assert_eq!(cache.resident_bytes(), (206, 309));
    // The twin is re-filed onto the same digest: its copy goes.
    assert_eq!(world.read(READERS[1], world.docs[1]), HitClass::PartialHit);
    assert_eq!(cache.resident_bytes(), (103, 412));
    let served: Vec<_> = world
        .docs
        .iter()
        .map(|&doc| cache.read(READERS[1], doc).unwrap())
        .collect();
    assert_eq!(
        served[0].as_ptr(),
        served[1].as_ptr(),
        "one allocation serves both"
    );
}

#[test]
fn under_pressure_an_output_equal_to_its_unhashed_input_shares_its_key() {
    for copy in [false, true] {
        let head = Suffix::new("head".into(), "h", true, 10);
        let chain: Chain = vec![head, Arc::new(Echo { copy })];
        // 250 of 300 bytes held: the head's output goes in by name, a cheap
        // filler out; the echo's output equals it, so both are hashed and
        // hold one store key, and it needs no room of its own.
        let world = Pressure::new(300, &[(150, 100_000), (100, 1)], vec![chain]);
        assert_eq!(world.read(READERS[0], world.docs[0]), HitClass::Miss);
        assert_eq!(world.cache.stage_entry_count(), 2, "copy: {copy}");
        let held = (150 + 103, 150 + 2 * 103);
        assert_eq!(world.cache.resident_bytes(), held, "copy: {copy}");
    }
}

/// Steps [`resident_versions_are_filed_by_their_md5`] drives.
#[derive(Debug, Clone)]
enum PressureOp {
    Read(usize, usize),
    DropUser(usize, usize),
    DropDoc(usize),
    Edit(usize, u8),
}

fn pressure_op() -> impl Strategy<Value = PressureOp> {
    prop_oneof![
        (0..4usize, 0..3usize).prop_map(|(d, u)| PressureOp::Read(d, u)),
        (0..4usize, 0..3usize).prop_map(|(d, u)| PressureOp::Read(d, u)),
        (0..4usize, 0..3usize).prop_map(|(d, u)| PressureOp::DropUser(d, u)),
        (0..4usize).prop_map(PressureOp::DropDoc),
        (0..4usize, any::<u8>()).prop_map(|(d, v)| PressureOp::Edit(d, v)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Whatever a full cache filed by name, every resident version stays
    /// filed by the MD5 of its bytes — observed where the cache hands it
    /// out, as the epoch a write-back write is journaled against — the
    /// budget holds, and every version invalidated leaves exactly the stage
    /// entries' references.
    #[test]
    fn resident_versions_are_filed_by_their_md5(
        capacity in proptest::sample::select(vec![300u64, 1 << 20]),
        ops in proptest::collection::vec(pressure_op(), 0..60),
    ) {
        let stage = |name: &str, label| Suffix::new(name.into(), label, true, 10) as Arc<dyn ActiveProperty>;
        let chains: Vec<Chain> = vec![
            vec![stage("left", "a")],
            vec![stage("right", "a")],
            vec![stage("head", "h"), Arc::new(Echo { copy: false })],
            vec![stage("tail", "t"), Arc::new(Echo { copy: true })],
        ];
        let space = DocumentSpace::with_middleware_cost(VirtualClock::new(), LatencyModel::FREE);
        let mut providers = Vec::new();
        let docs: Vec<DocumentId> = chains.into_iter().map(|chain| {
            let provider = MemoryProvider::new("m", vec![b'x'; 100], 10);
            let doc = space.create_document(UserId(0), provider.clone());
            providers.push(provider);
            for prop in chain {
                space.attach_active(Scope::Universal, doc, prop).unwrap();
            }
            for user in READERS {
                space.add_reference(user, doc).unwrap();
            }
            doc
        }).collect();
        // One reader sees the first twin through a suffix of their own.
        space.attach_active(Scope::Personal(READERS[2]), docs[0], stage("own", "o")).unwrap();
        let journal = WriteJournal::new(StableStore::new());
        let config = CacheConfig::builder()
            .capacity_bytes(capacity)
            .local_latency(LatencyModel::FREE)
            .stage_cache(true)
            .shards(1)
            .write_mode(WriteMode::Back)
            .journal(journal);
        let cache = DocumentCache::new(space.clone(), config.build());
        for op in ops {
            match op {
                PressureOp::Read(d, u) => {
                    let bytes = cache.read(READERS[u], docs[d]).unwrap();
                    prop_assert_eq!(bytes, space.read_document(READERS[u], docs[d]).unwrap().0);
                }
                PressureOp::DropUser(d, u) => {
                    space.bus().post(Invalidation::UserDocument(docs[d], READERS[u]));
                }
                PressureOp::DropDoc(d) => space.bus().post(Invalidation::Document(docs[d])),
                PressureOp::Edit(d, v) => providers[d].set_out_of_band(vec![v; 100]),
            }
            let (physical, logical) = cache.resident_bytes();
            prop_assert!(physical <= capacity && physical <= logical);
        }
        for (d, &doc) in docs.iter().enumerate() {
            for user in READERS.into_iter().filter(|&user| cache.contains(user, doc)) {
                let outcome = cache.read_with(user, doc, ReadOptions::default()).unwrap();
                if outcome.class != HitClass::Hit {
                    continue; // an out-of-band edit refuted it
                }
                cache.write(user, doc, b"probe").unwrap();
                let journal = cache.journal().unwrap().live_records();
                let record = journal.iter().find(|r| (r.doc, r.user) == (doc, user)).unwrap();
                prop_assert_eq!(record.epoch, md5(&outcome.bytes), "doc {} of {:?}", d, user);
            }
        }
        for &doc in &docs {
            space.bus().post(Invalidation::Document(doc));
        }
        prop_assert_eq!(cache.len(), cache.stage_entry_count());
        prop_assert_eq!(cache.resident_bytes().1, cache.stats().stage_bytes);
    }
}

/// What the replay below cost per read at the parent commit (`99d46a2`,
/// the same test file run there): every signed output named, every alias
/// admitted. Two evictions in three freed no bytes.
const PARENT_STAGE_RUNS_PER_READ: f64 = 1.1055;
const PARENT_FETCHES_PER_READ: f64 = 0.3950;
const PARENT_EVICTIONS_PER_READ: f64 = 2.0960;

/// A seeded Zipf replay against a cache half the size of the corpus, one
/// thread, judged by counts alone: the `evict_churn` shape of the repo
/// benchmark, small enough to run everywhere. Documents differ in size, as
/// documents do, so credits rarely tie; and there is one shard, so a stage
/// entry and its aliases answer to one policy (across shards a name can
/// still go while a sibling shard holds its bytes: ROADMAP, churn item).
#[test]
fn churn_replay_never_redoes_what_it_holds() {
    const DOCS: usize = 64;
    const USERS: usize = 32;
    const BODY: usize = 1_024;
    const READS: usize = 6_000;
    let space = DocumentSpace::with_middleware_cost(VirtualClock::new(), LatencyModel::FREE);
    let universal = [
        Suffix::new("scramble".into(), "s", true, 300),
        Suffix::new("render".into(), "r", true, 2_000),
    ];
    // One user in four reads through a personal suffix of their own.
    let personal: Vec<Option<Arc<Suffix>>> = (0..USERS)
        .map(|u| (u % 4 == 0).then(|| Suffix::new(format!("own-{u}"), &format!("u{u}"), true, 100)))
        .collect();
    let users: Vec<UserId> = (1..=USERS as u64).map(UserId).collect();
    let mut providers = Vec::new();
    let docs: Vec<DocumentId> = (0..DOCS)
        .map(|d| {
            let provider = CountingProvider::new(lorem_bytes(d as u64, BODY - 32 + d), 200, false);
            let doc = space.create_document(UserId(0), provider.clone());
            providers.push(provider);
            for prop in &universal {
                space
                    .attach_active(Scope::Universal, doc, prop.clone())
                    .unwrap();
            }
            for (&user, own) in users.iter().zip(&personal) {
                space.add_reference(user, doc).unwrap();
                if let Some(own) = own {
                    space
                        .attach_active(Scope::Personal(user), doc, own.clone())
                        .unwrap();
                }
            }
            doc
        })
        .collect();
    let spy = Arc::new(Mutex::new(Spy::default()));
    let config = CacheConfig::builder()
        .capacity_bytes((DOCS * BODY / 2) as u64)
        .local_latency(LatencyModel::FREE)
        .stage_cache(true)
        .shards(1)
        .policy(spied(&spy));
    let cache = DocumentCache::new(space.clone(), config.build());

    let stage_runs = || -> Vec<u64> {
        let personal = personal.iter().flatten();
        universal.iter().chain(personal).map(|p| p.runs()).collect()
    };
    let sampler = TraceBuilder::new(0x5EED)
        .users(USERS)
        .documents(DOCS)
        .doc_theta(0.9)
        .user_theta(0.6)
        .locality(0.3)
        .working_set(8)
        .build();
    let mut rng = sampler.stream(0);
    let total_runs = || stage_runs().iter().sum::<u64>();
    let fetches = || providers.iter().map(|p| p.opens()).sum::<u64>();
    let (mut oracle_runs, mut oracle_fetches) = (0, 0);
    let mut redone_under_a_resident_stage = 0u64;
    for read in 0..READS {
        let event = sampler.next_event(&mut rng);
        let (user, doc) = (users[event.user], docs[event.doc]);
        let version = EntryKey::Version(doc, user);
        // Where the cache already is for this pair, before the read.
        let plan = space.read_plan(user, doc).unwrap();
        let sigs = plan.signed_prefix(md5(&providers[event.doc].inner.content()));
        let deepest = {
            let mut spy = spy.lock().unwrap();
            let last = *sigs.last().unwrap();
            spy.aliases.entry(last).or_default().insert(version);
            let resident = |sig: &Signature| spy.resident.contains(&EntryKey::Stage(*sig));
            (!spy.resident.contains(&version))
                .then(|| sigs.iter().rposition(resident))
                .flatten()
        };
        let runs = stage_runs();
        let bytes = cache.read(user, doc).unwrap();
        if let Some(deepest) = deepest {
            // The chain's stages in `stage_runs` order: the two universal
            // ones, then (at most) this user's own.
            let own = personal[..event.user].iter().flatten().count();
            let slots = [0, 1, universal.len() + own];
            let after = stage_runs();
            if slots[..=deepest]
                .iter()
                .any(|&slot| after[slot] != runs[slot])
            {
                redone_under_a_resident_stage += 1;
            }
        }
        if read % 64 == 0 {
            // The oracle runs the chain itself; that is not the cache's.
            let before = (total_runs(), fetches());
            assert_eq!(bytes, space.read_document(user, doc).unwrap().0);
            oracle_runs += total_runs() - before.0;
            oracle_fetches += fetches() - before.1;
        }
    }
    let spy = spy.lock().unwrap();
    let stats = cache.stats();
    let (runs, fetches) = (total_runs() - oracle_runs, fetches() - oracle_fetches);
    let (runs_per_read, fetches_per_read) =
        (runs as f64 / READS as f64, fetches as f64 / READS as f64);
    println!(
        "churn replay: {runs_per_read:.4} stage runs and {fetches_per_read:.4} fetches per read, \
         {} evictions, {} stage names dropped over held content, {} reads redid a stage, \
         {} hits / {} partial of {READS}",
        spy.evictions,
        spy.names_dropped_over_held_content,
        redone_under_a_resident_stage,
        stats.hits,
        stats.stage_partial_hits,
    );
    assert!(spy.evictions > READS as u64 / 2, "the budget never bit");
    assert_eq!(redone_under_a_resident_stage, 0);
    assert_eq!(spy.names_dropped_over_held_content, 0);
    // Naming fewer outputs and admitting no free alias must not cost a
    // stage execution or a fetch, and halves the evictions: what is left
    // of them frees bytes.
    assert!(runs_per_read <= PARENT_STAGE_RUNS_PER_READ);
    assert!(fetches_per_read <= PARENT_FETCHES_PER_READ);
    assert!(spy.evictions as f64 / READS as f64 <= 0.5 * PARENT_EVICTIONS_PER_READ);
}
