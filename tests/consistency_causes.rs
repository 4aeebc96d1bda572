//! Integration tests for §3's four causes of cached-content invalidation,
//! each exercised end to end through a real cache.

use placeless::prelude::*;
use placeless_cache::{md5, WriteJournal};
use placeless_simenv::{LatencyModel, StableStore};
use std::sync::Arc;

const USER: UserId = UserId(1);
const OTHER: UserId = UserId(2);

struct Rig {
    space: Arc<DocumentSpace>,
    cache: Arc<DocumentCache>,
    provider: Arc<MemoryProvider>,
    doc: DocumentId,
}

fn rig(content: &str) -> Rig {
    let space = DocumentSpace::with_middleware_cost(VirtualClock::new(), LatencyModel::FREE);
    let provider = MemoryProvider::new("doc", content.to_owned(), 500);
    let doc = space.create_document(USER, provider.clone());
    space.add_reference(OTHER, doc).unwrap();
    space
        .attach_active(Scope::Universal, doc, ContentWriteNotifier::any())
        .unwrap();
    space
        .attach_active(Scope::Universal, doc, PropertyChangeNotifier::any())
        .unwrap();
    let cache = DocumentCache::new(
        space.clone(),
        CacheConfig {
            local_latency: LatencyModel::FREE,
            ..CacheConfig::default()
        },
    );
    Rig {
        space,
        cache,
        provider,
        doc,
    }
}

#[test]
fn cause1_source_modified_through_placeless() {
    let r = rig("v1");
    assert_eq!(r.cache.read(USER, r.doc).unwrap(), "v1");
    // Another user writes through the middleware; the base notifier fires.
    r.space.write_document(OTHER, r.doc, b"v2").unwrap();
    assert_eq!(r.cache.read(USER, r.doc).unwrap(), "v2");
    assert!(r.cache.stats().notifier_invalidations >= 1);
}

#[test]
fn cause1_source_modified_outside_placeless() {
    let r = rig("v1");
    assert_eq!(r.cache.read(USER, r.doc).unwrap(), "v1");
    // Out-of-band edit: no event fires — only the provider's verifier
    // (mtime poll) can catch this.
    r.provider.set_out_of_band("v2");
    assert_eq!(r.cache.read(USER, r.doc).unwrap(), "v2");
    let stats = r.cache.stats();
    assert_eq!(stats.verifier_invalidations, 1);
    assert_eq!(stats.notifier_invalidations, 0);
}

/// The mtime verifier polls the provider's epoch without the content lock;
/// every kind of write must still reach it. A verifier made before an
/// out-of-band edit, a sink commit or a batch commit reads `Invalid` after
/// it and one made after reads `Valid` — polled from a second thread as
/// well, where only the epoch's release/acquire pairing carries the write.
#[test]
fn cause1_every_kind_of_write_reaches_the_lock_free_verifier() {
    let clock = VirtualClock::new();
    let provider = MemoryProvider::new("doc", "v0", 0);
    type Write = fn(&MemoryProvider, &VirtualClock);
    let writes: [(&str, Write); 3] = [
        ("out of band", |provider, _| provider.set_out_of_band("oob")),
        ("sink", |provider, clock| {
            let mut sink = provider.open_output(clock).unwrap();
            write_all(sink.as_mut(), b"sunk").unwrap();
            sink.close().unwrap();
        }),
        ("batch", |provider, clock| {
            let payloads = ["b1".into(), "b2".into()];
            let results = provider.commit_batch(clock, &payloads).unwrap();
            assert!(results.iter().all(|result| result.is_ok()));
        }),
    ];
    for (kind, write) in writes {
        let (before, epoch) = (provider.make_verifier(&clock).unwrap(), provider.epoch());
        assert_eq!(before.check(&clock), Validity::Valid, "{kind}: nothing yet");
        write(&provider, &clock);
        assert!(provider.epoch() > epoch, "{kind}: the epoch moved");
        let after = provider.make_verifier(&clock).unwrap();
        let verdicts = || (before.check(&clock), after.check(&clock));
        assert_eq!(verdicts(), (Validity::Invalid, Validity::Valid), "{kind}");
        let elsewhere = std::thread::scope(|scope| scope.spawn(verdicts).join().unwrap());
        assert_eq!(elsewhere, (Validity::Invalid, Validity::Valid), "{kind}");
        assert_eq!(
            (before.describe(), before.cost_micros()),
            ("mtime(doc)".into(), 2)
        );
    }
    assert_eq!((provider.content(), provider.epoch()), ("b2".into(), 4));
}

#[test]
fn cause2_property_added_removed_modified() {
    let r = rig("hello world");
    assert_eq!(r.cache.read(USER, r.doc).unwrap(), "hello world");

    // Added: the cached untranslated version must go.
    let id = r
        .space
        .attach_active(Scope::Personal(USER), r.doc, Translate::to("fr"))
        .unwrap();
    assert_eq!(r.cache.read(USER, r.doc).unwrap(), "bonjour monde");

    // Modified: upgrade to Spanish in place.
    r.space
        .modify_property(
            Scope::Personal(USER),
            r.doc,
            id,
            AttachedProperty::Active(Translate::to("es")),
        )
        .unwrap();
    assert_eq!(r.cache.read(USER, r.doc).unwrap(), "hola mundo");

    // Removed: back to the original.
    r.space
        .remove_property(Scope::Personal(USER), r.doc, id)
        .unwrap();
    assert_eq!(r.cache.read(USER, r.doc).unwrap(), "hello world");

    assert!(r.cache.stats().notifier_invalidations >= 3);
}

#[test]
fn cause2_personal_change_spares_other_users_entries() {
    let r = rig("hello world");
    r.cache.read(USER, r.doc).unwrap();
    r.cache.read(OTHER, r.doc).unwrap();
    // USER's personal property change invalidates only USER's entry.
    r.space
        .attach_active(Scope::Personal(USER), r.doc, Translate::to("fr"))
        .unwrap();
    assert!(!r.cache.contains(USER, r.doc));
    assert!(r.cache.contains(OTHER, r.doc));
}

#[test]
fn cause3_property_order_changed() {
    let r = rig("teh document");
    r.space
        .attach_active(Scope::Personal(USER), r.doc, SpellCheck::new())
        .unwrap();
    let translate_id = r
        .space
        .attach_active(Scope::Personal(USER), r.doc, Translate::to("fr"))
        .unwrap();
    // spell → translate: "teh"→"the"→"le".
    assert_eq!(r.cache.read(USER, r.doc).unwrap(), "le document");
    // Reorder: translate first, spell second: "teh" survives translation,
    // then gets corrected — different bytes, so the entry must have been
    // invalidated.
    r.space
        .reorder_property(Scope::Personal(USER), r.doc, translate_id, 0)
        .unwrap();
    assert_eq!(r.cache.read(USER, r.doc).unwrap(), "the document");
    assert!(r.cache.stats().notifier_invalidations >= 1);
}

#[test]
fn cause4_external_information_changed() {
    let r = rig("price: ");
    let quotes = SimpleExternal::new("stock:XRX", "42.50");
    let env = ExtEnv::new();
    env.add(quotes.clone());
    let ticker = ScriptProperty::compile(
        "ticker",
        "@watch_ext(\"stock:XRX\")\nappend_ext(\"stock:XRX\")",
        env,
    )
    .unwrap();
    r.space
        .attach_active(Scope::Personal(USER), r.doc, ticker)
        .unwrap();
    assert_eq!(r.cache.read(USER, r.doc).unwrap(), "price: 42.50");
    quotes.set("43.25");
    assert_eq!(r.cache.read(USER, r.doc).unwrap(), "price: 43.25");
    assert!(r.cache.stats().verifier_invalidations >= 1);
}

#[test]
fn web_ttl_bounds_staleness_for_unannounced_origin_edits() {
    // The WWW case: within the TTL even an origin edit goes unseen; after
    // expiry the verifier forces a refill.
    let clock = VirtualClock::new();
    let space = DocumentSpace::with_middleware_cost(clock.clone(), LatencyModel::FREE);
    let server = WebServer::new("news.com");
    server.publish("/front", "headline v1", 10_000);
    let provider = WebProvider::new(
        server.clone(),
        "/front",
        Link::new(1_000, 1_000_000, 0.0, 5),
    );
    let doc = space.create_document(USER, provider);
    let cache = DocumentCache::new(
        space,
        CacheConfig {
            local_latency: LatencyModel::FREE,
            ..CacheConfig::default()
        },
    );
    assert_eq!(cache.read(USER, doc).unwrap(), "headline v1");
    server.edit_origin("/front", "headline v2").unwrap();
    // Still within the TTL: stale by design.
    assert_eq!(cache.read(USER, doc).unwrap(), "headline v1");
    clock.advance(10_001);
    assert_eq!(cache.read(USER, doc).unwrap(), "headline v2");
}

/// A [`MemoryProvider`] whose next stream open commits an out-of-band edit
/// first, so the stream hands back bytes no verifier made before it has
/// seen; `ttl` swaps its mtime verifier for a TTL, which attests nothing.
/// `verify_edit` lands its edit in the next verifier made instead.
struct RacingProvider {
    inner: Arc<MemoryProvider>,
    edit: std::sync::Mutex<Option<&'static str>>,
    verify_edit: std::sync::Mutex<Option<&'static str>>,
    ttl: bool,
}

impl BitProvider for RacingProvider {
    fn describe(&self) -> String {
        self.inner.describe()
    }
    fn open_input(&self, clock: &VirtualClock) -> Result<Box<dyn InputStream>> {
        if let Some(edit) = self.edit.lock().unwrap().take() {
            self.inner.set_out_of_band(edit);
        }
        self.inner.open_input(clock)
    }
    fn open_output(&self, clock: &VirtualClock) -> Result<Box<dyn OutputStream>> {
        self.inner.open_output(clock)
    }
    fn make_verifier(&self, clock: &VirtualClock) -> Option<Box<dyn Verifier>> {
        if let Some(edit) = self.verify_edit.lock().unwrap().take() {
            self.inner.set_out_of_band(edit);
        }
        if self.ttl {
            return Some(TtlVerifier::for_ttl(clock.now(), 1_000_000));
        }
        self.inner.make_verifier(clock)
    }
    fn fetch_cost_micros(&self) -> u64 {
        self.inner.fetch_cost_micros()
    }
}

/// Cause 1 racing the staged walk's root lease: the lease's verifier
/// vouches for the root at the probe, and an edit lands between the probe
/// and the fetch the walk then needs. An mtime verifier attests content, so
/// the walk re-checks it once the bytes are in: it reads `Invalid`, the
/// bytes are hashed and the walk rebases on them. A TTL verifier attests
/// nothing, so the bytes are hashed anyway. Either way the read is what the
/// uncached middleware serves, and the version it fills is filed by the
/// digest of those bytes: the epoch a write-back write is journaled with.
fn lease_raced_by_an_edit(ttl: bool) {
    let space = DocumentSpace::with_middleware_cost(VirtualClock::new(), LatencyModel::FREE);
    let provider = Arc::new(RacingProvider {
        inner: MemoryProvider::new("doc", "v1", 500),
        edit: Default::default(),
        verify_edit: Default::default(),
        ttl,
    });
    let doc = space.create_document(USER, provider.clone());
    space.add_reference(OTHER, doc).unwrap();
    let config = CacheConfig::builder()
        .local_latency(LatencyModel::FREE)
        .stage_cache(true)
        .write_mode(WriteMode::Back)
        .journal(WriteJournal::new(StableStore::new()))
        .build();
    let cache = DocumentCache::new(space.clone(), config);
    assert_eq!(cache.read(USER, doc).unwrap(), "v1");
    *provider.edit.lock().unwrap() = Some("v2");
    let before = cache.stats();
    let served = cache.read(OTHER, doc).unwrap();
    assert_eq!(
        cache.stats().delta(&before).root_reuses,
        1,
        "the walk was leased"
    );
    assert_eq!(served, "v2");
    assert_eq!(served, space.read_document(OTHER, doc).unwrap().0);
    cache.write(OTHER, doc, b"mine").unwrap();
    let records = cache.journal().unwrap().live_records();
    assert_eq!(records[0].epoch, md5(b"v2"));
}

#[test]
fn cause1_edit_racing_an_attested_root_lease_is_caught_by_its_recheck() {
    lease_raced_by_an_edit(false);
}

#[test]
fn cause1_edit_racing_a_ttl_root_lease_is_served_fresh() {
    lease_raced_by_an_edit(true);
}

/// The edit lands after the lease probe but before the walk makes the
/// verifier its version is filed under, and no stream open follows: the
/// walk adopts the resident stage output of the leased root. A version
/// filed from the old root under a verifier that has seen the edit would
/// be served on every later hit, so the walk must not anchor on the lease.
#[test]
fn cause1_edit_between_lease_probe_and_walk_verifier_is_not_filed_as_fresh() {
    let space = DocumentSpace::with_middleware_cost(VirtualClock::new(), LatencyModel::FREE);
    let provider = Arc::new(RacingProvider {
        inner: MemoryProvider::new("doc", "v1", 500),
        edit: Default::default(),
        verify_edit: Default::default(),
        ttl: false,
    });
    let doc = space.create_document(USER, provider.clone());
    space.add_reference(OTHER, doc).unwrap();
    space
        .attach_active(Scope::Universal, doc, Rot13AtRest::new())
        .unwrap();
    let cache = DocumentCache::new(
        space.clone(),
        CacheConfig {
            local_latency: LatencyModel::FREE,
            stage_cache: true,
            ..CacheConfig::default()
        },
    );
    assert_eq!(cache.read(USER, doc).unwrap(), "i1");
    *provider.verify_edit.lock().unwrap() = Some("v2");
    cache.read(OTHER, doc).unwrap();
    assert_eq!(cache.read(OTHER, doc).unwrap(), "i2");
}

#[test]
fn dms_callbacks_invalidate_without_polling() {
    let clock = VirtualClock::new();
    let space = DocumentSpace::with_middleware_cost(clock, LatencyModel::FREE);
    let dms = Dms::new();
    dms.import("spec", "spec v1");
    let provider = DmsProvider::new(
        dms.clone(),
        "spec",
        "placeless",
        Link::new(500, 1_000_000, 0.0, 6),
    );
    let doc = space.create_document(USER, provider.clone());
    // Wire the DMS's native change callback to the invalidation bus and
    // run the cache with verifiers off: the callback alone keeps it fresh.
    provider.wire_invalidations(space.bus().clone(), doc);
    let cache = DocumentCache::new(
        space,
        CacheConfig {
            run_verifiers: false,
            local_latency: LatencyModel::FREE,
            ..CacheConfig::default()
        },
    );
    assert_eq!(cache.read(USER, doc).unwrap(), "spec v1");
    dms.check_out("spec", "someone").unwrap();
    dms.check_in("spec", "someone", "spec v2").unwrap();
    assert_eq!(cache.read(USER, doc).unwrap(), "spec v2");
    assert_eq!(cache.stats().notifier_invalidations, 1);
}
