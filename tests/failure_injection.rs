//! Failure injection: broken properties, failing repositories, and
//! mid-chain errors must surface as `Err` without poisoning the space or
//! the cache.

use placeless::prelude::*;
use placeless_core::event::{EventKind, Interests};
use placeless_core::property::{ActiveProperty, EventCtx, PathCtx, PathReport};
use placeless_core::streams::{InputStream, OutputStream};
use placeless_core::verifier::Verifier;
use placeless_simenv::LatencyModel;
use std::sync::Arc;

const USER: UserId = UserId(1);

/// A property whose read-path wrapper always fails.
struct BrokenReader;

impl ActiveProperty for BrokenReader {
    fn name(&self) -> &str {
        "broken-reader"
    }
    fn interests(&self) -> Interests {
        Interests::of(&[EventKind::GetInputStream])
    }
    fn wrap_input(
        &self,
        _ctx: &PathCtx<'_>,
        _report: &mut PathReport,
        _inner: Box<dyn InputStream>,
    ) -> Result<Box<dyn InputStream>> {
        Err(PlacelessError::Property {
            name: "broken-reader".into(),
            reason: "injected failure".into(),
        })
    }
}

/// A property whose write-path wrapper always fails.
struct BrokenWriter;

impl ActiveProperty for BrokenWriter {
    fn name(&self) -> &str {
        "broken-writer"
    }
    fn interests(&self) -> Interests {
        Interests::of(&[EventKind::GetOutputStream])
    }
    fn wrap_output(
        &self,
        _ctx: &PathCtx<'_>,
        _report: &mut PathReport,
        _inner: Box<dyn OutputStream>,
    ) -> Result<Box<dyn OutputStream>> {
        Err(PlacelessError::Property {
            name: "broken-writer".into(),
            reason: "injected failure".into(),
        })
    }
}

/// An event handler that always fails.
struct BrokenHandler;

impl ActiveProperty for BrokenHandler {
    fn name(&self) -> &str {
        "broken-handler"
    }
    fn interests(&self) -> Interests {
        Interests::of(&[EventKind::ContentWritten])
    }
    fn on_event(&self, _ctx: &EventCtx<'_>, _event: &DocumentEvent) -> Result<()> {
        Err(PlacelessError::Property {
            name: "broken-handler".into(),
            reason: "injected failure".into(),
        })
    }
}

/// A provider that fails every open.
struct DeadProvider;

impl BitProvider for DeadProvider {
    fn describe(&self) -> String {
        "dead".into()
    }
    fn open_input(&self, _clock: &VirtualClock) -> Result<Box<dyn InputStream>> {
        Err(PlacelessError::Repository("disk on fire".into()))
    }
    fn open_output(&self, _clock: &VirtualClock) -> Result<Box<dyn OutputStream>> {
        Err(PlacelessError::Repository("disk on fire".into()))
    }
    fn make_verifier(&self, _clock: &VirtualClock) -> Option<Box<dyn Verifier>> {
        None
    }
    fn fetch_cost_micros(&self) -> u64 {
        0
    }
}

fn space() -> Arc<DocumentSpace> {
    DocumentSpace::with_middleware_cost(VirtualClock::new(), LatencyModel::FREE)
}

#[test]
fn broken_read_property_fails_the_read_not_the_space() {
    let space = space();
    let doc = space.create_document(USER, MemoryProvider::new("d", "ok", 0));
    let id = space
        .attach_active(Scope::Personal(USER), doc, Arc::new(BrokenReader))
        .unwrap();
    let err = space.read_document(USER, doc).err().unwrap();
    assert!(matches!(err, PlacelessError::Property { .. }));
    // Removing the property heals the document.
    space
        .remove_property(Scope::Personal(USER), doc, id)
        .unwrap();
    assert_eq!(space.read_document(USER, doc).unwrap().0, "ok");
}

#[test]
fn broken_write_property_preserves_old_content() {
    let space = space();
    let provider = MemoryProvider::new("d", "original", 0);
    let doc = space.create_document(USER, provider.clone());
    space
        .attach_active(Scope::Personal(USER), doc, Arc::new(BrokenWriter))
        .unwrap();
    assert!(space.write_document(USER, doc, b"lost").is_err());
    assert_eq!(provider.content(), "original", "no partial commit");
}

#[test]
fn broken_event_handler_surfaces_from_the_triggering_write() {
    let space = space();
    let provider = MemoryProvider::new("d", "v1", 0);
    let doc = space.create_document(USER, provider.clone());
    space
        .attach_active(Scope::Universal, doc, Arc::new(BrokenHandler))
        .unwrap();
    let err = space.write_document(USER, doc, b"v2").err().unwrap();
    assert!(matches!(err, PlacelessError::Property { .. }));
    // The provider commit happened before event dispatch — the content is
    // durable even though the handler failed.
    assert_eq!(provider.content(), "v2");
}

#[test]
fn dead_repository_fails_cleanly_through_the_cache() {
    let space = space();
    let doc = space.create_document(USER, Arc::new(DeadProvider));
    let good = space.create_document(USER, MemoryProvider::new("g", "alive", 0));
    let cache = DocumentCache::new(
        space,
        CacheConfig {
            local_latency: LatencyModel::FREE,
            ..CacheConfig::default()
        },
    );
    for _ in 0..3 {
        let err = cache.read(USER, doc).err().unwrap();
        assert!(matches!(err, PlacelessError::Repository(_)));
    }
    // The cache is not poisoned: other documents still work.
    assert_eq!(cache.read(USER, good).unwrap(), "alive");
    assert!(!cache.contains(USER, doc));
}

#[test]
fn failing_verifier_source_degrades_to_refill() {
    // A verifier that says Invalid forever forces a refill on every read —
    // correct (if wasteful), never wedged.
    let space = space();
    let provider = MemoryProvider::new("d", "steady", 0);
    let doc = space.create_document(USER, provider.clone());
    let cache = DocumentCache::new(
        space.clone(),
        CacheConfig {
            local_latency: LatencyModel::FREE,
            ..CacheConfig::default()
        },
    );
    cache.read(USER, doc).unwrap();
    // Thrash the provider epoch so the mtime verifier always fails.
    for _ in 0..5 {
        provider.set_out_of_band("steady");
        assert_eq!(cache.read(USER, doc).unwrap(), "steady");
    }
    let stats = cache.stats();
    assert_eq!(stats.verifier_invalidations, 5);
    assert_eq!(stats.misses, 6);
}

#[test]
fn nfs_failures_release_handles() {
    let space = space();
    let doc = space.create_document(USER, Arc::new(DeadProvider));
    let nfs = NfsServer::new(DirectBackend::new(space));
    nfs.export("/dead", doc);
    assert!(nfs.open(USER, "/dead", OpenMode::Read).is_err());
    assert_eq!(nfs.open_count(), 0);
    // Write handles open lazily and fail at close.
    let h = nfs.open(USER, "/dead", OpenMode::Write).unwrap();
    nfs.write(h, 0, b"x").unwrap();
    assert!(nfs.close(h).is_err());
    assert_eq!(
        nfs.open_count(),
        0,
        "failed close still releases the handle"
    );
}

/// Four clients open, read and close one export at once: every handle is
/// released.
#[test]
fn concurrent_nfs_clients() {
    let space = space();
    let doc = space.create_document(USER, MemoryProvider::new("d0", "content 0", 100));
    for user in 2..=4 {
        space.add_reference(UserId(user), doc).unwrap();
    }
    let nfs = NfsServer::new(DirectBackend::new(space));
    nfs.export("/shared.txt", doc);
    std::thread::scope(|scope| {
        for user in 1..=4u64 {
            let nfs = nfs.clone();
            scope.spawn(move || {
                for _ in 0..50 {
                    let h = nfs
                        .open(UserId(user), "/shared.txt", OpenMode::Read)
                        .unwrap();
                    let _ = nfs.read(h, 0, 64).unwrap();
                    nfs.close(h).unwrap();
                }
            });
        }
    });
    assert_eq!(nfs.open_count(), 0, "every handle closed");
}

#[test]
fn proplang_runtime_errors_propagate() {
    let space = space();
    let doc = space.create_document(USER, MemoryProvider::new("d", "x", 0));
    // `append_ext` of a source the environment does not know fails at read
    // time (the program parsed fine).
    let prop = ScriptProperty::compile("bad", "append_ext(\"ghost\")", ExtEnv::new()).unwrap();
    space
        .attach_active(Scope::Personal(USER), doc, prop)
        .unwrap();
    let err = space.read_document(USER, doc).err().unwrap();
    assert!(matches!(err, PlacelessError::Script(_)));
}

#[test]
fn error_messages_identify_the_failing_property() {
    let space = space();
    let doc = space.create_document(USER, MemoryProvider::new("d", "x", 0));
    space
        .attach_active(Scope::Universal, doc, Arc::new(BrokenHandler))
        .unwrap();
    let err = space.write_document(USER, doc, b"y").err().unwrap();
    assert!(err.to_string().contains("broken-handler"), "{err}");
}
