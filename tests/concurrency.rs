//! Concurrency tests: the middleware and the cache are shared-state
//! services; readers, writers, property mutators, and invalidators must be
//! able to run from multiple threads without deadlock or corruption.

use placeless::prelude::*;
use placeless_simenv::LatencyModel;
use std::sync::Arc;

fn setup(docs: usize) -> (Arc<DocumentSpace>, Arc<DocumentCache>, Vec<DocumentId>) {
    let space = DocumentSpace::with_middleware_cost(VirtualClock::new(), LatencyModel::FREE);
    let ids = (0..docs)
        .map(|i| {
            let provider = MemoryProvider::new(&format!("d{i}"), format!("content {i}"), 100);
            let doc = space.create_document(UserId(1), provider);
            for u in 2..=4 {
                space.add_reference(UserId(u), doc).unwrap();
            }
            doc
        })
        .collect::<Vec<_>>();
    for &doc in &ids {
        space
            .attach_active(Scope::Universal, doc, ContentWriteNotifier::any())
            .unwrap();
    }
    let cache = DocumentCache::new(
        space.clone(),
        CacheConfig {
            local_latency: LatencyModel::FREE,
            ..CacheConfig::default()
        },
    );
    (space, cache, ids)
}

#[test]
fn concurrent_readers_converge() {
    let (_space, cache, docs) = setup(8);
    std::thread::scope(|scope| {
        for user in 1..=4u64 {
            let cache = &cache;
            let docs = &docs;
            scope.spawn(move || {
                for round in 0..200 {
                    let doc = docs[(round + user as usize) % docs.len()];
                    let bytes = cache.read(UserId(user), doc).unwrap();
                    assert!(bytes.starts_with(b"content "));
                }
            });
        }
    });
    let stats = cache.stats();
    assert_eq!(stats.hits + stats.misses, 800);
    assert!(stats.hit_rate().unwrap() > 0.9);
}

#[test]
fn readers_and_writers_race_without_corruption() {
    let (space, cache, docs) = setup(4);
    std::thread::scope(|scope| {
        // Three reader threads.
        for user in 2..=4u64 {
            let cache = &cache;
            let docs = &docs;
            scope.spawn(move || {
                for round in 0..150 {
                    let doc = docs[round % docs.len()];
                    let bytes = cache.read(UserId(user), doc).unwrap();
                    // Every observed value is either the original or some
                    // complete write — never a torn mixture.
                    let text = String::from_utf8_lossy(&bytes);
                    assert!(
                        text.starts_with("content ") || text.starts_with("rev "),
                        "torn read: {text}"
                    );
                }
            });
        }
        // One writer thread mutating through the middleware.
        let space = &space;
        let docs = &docs;
        scope.spawn(move || {
            for round in 0..100 {
                let doc = docs[round % docs.len()];
                space
                    .write_document(UserId(1), doc, format!("rev {round}").as_bytes())
                    .unwrap();
            }
        });
    });
    // After the dust settles, a fresh read sees the final write.
    let last = cache.read(UserId(2), docs[3]).unwrap();
    let text = String::from_utf8_lossy(&last);
    assert!(text.starts_with("rev ") || text.starts_with("content "));
}

#[test]
fn property_mutations_race_with_reads() {
    let (space, cache, docs) = setup(2);
    space
        .attach_active(Scope::Universal, docs[0], PropertyChangeNotifier::any())
        .unwrap();
    std::thread::scope(|scope| {
        let cache = &cache;
        let doc = docs[0];
        scope.spawn(move || {
            for _ in 0..150 {
                let _ = cache.read(UserId(2), doc).unwrap();
            }
        });
        let space = &space;
        scope.spawn(move || {
            for i in 0..50 {
                let id = space
                    .attach_active(Scope::Personal(UserId(2)), doc, Translate::to("fr"))
                    .unwrap();
                let _ = i;
                space
                    .remove_property(Scope::Personal(UserId(2)), doc, id)
                    .unwrap();
            }
        });
    });
    // Terminal state: no translator attached, original text served.
    let bytes = cache.read(UserId(2), docs[0]).unwrap();
    assert_eq!(bytes, "content 0");
}

#[test]
fn invalidations_race_with_hits() {
    let (space, cache, docs) = setup(4);
    for &doc in &docs {
        cache.read(UserId(1), doc).unwrap();
    }
    std::thread::scope(|scope| {
        let cache = &cache;
        let docs = &docs;
        scope.spawn(move || {
            for round in 0..300 {
                let _ = cache.read(UserId(1), docs[round % docs.len()]).unwrap();
            }
        });
        let space = &space;
        scope.spawn(move || {
            for round in 0..300 {
                space
                    .bus()
                    .post(Invalidation::Document(docs[round % docs.len()]));
            }
        });
    });
    let stats = cache.stats();
    assert!(stats.notifier_invalidations > 0);
    assert_eq!(stats.hits + stats.misses, 300 + 4);
}

#[test]
fn concurrent_nfs_clients() {
    let (space, _cache, docs) = setup(1);
    let nfs = NfsServer::new(DirectBackend::new(space));
    nfs.export("/shared.txt", docs[0]);
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
