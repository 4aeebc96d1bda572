//! Integration tests for the §5 future-work mechanisms implemented here:
//! collection-aware prefetching and QoS pinning.

use placeless::prelude::*;
use placeless_cache::PrefetchConfig;
use placeless_simenv::LatencyModel;
use std::sync::Arc;

const USER: UserId = UserId(1);

fn space_with_docs(n: usize, body: &str) -> (Arc<DocumentSpace>, Vec<DocumentId>) {
    let space = DocumentSpace::with_middleware_cost(VirtualClock::new(), LatencyModel::FREE);
    let docs = (0..n)
        .map(|i| {
            let provider = MemoryProvider::new(&format!("d{i}"), format!("{body} #{i}"), 10_000);
            space.create_document(USER, provider)
        })
        .collect();
    (space, docs)
}

#[test]
fn collection_membership_round_trips() {
    let (space, docs) = space_with_docs(3, "report");
    space.add_to_collection("budget", docs[0]).unwrap();
    space.add_to_collection("budget", docs[1]).unwrap();
    space.add_to_collection("drafts", docs[1]).unwrap();
    assert_eq!(space.collection_members("budget"), vec![docs[0], docs[1]]);
    assert_eq!(space.collections_of(docs[1]), vec!["budget", "drafts"]);
    // Membership is visible as a normal static property.
    assert_eq!(
        space
            .property_value(USER, docs[0], "collection")
            .unwrap()
            .as_str(),
        Some("budget")
    );
}

#[test]
fn prefetch_warms_collection_siblings() {
    let (space, docs) = space_with_docs(5, "chapter");
    for &doc in &docs {
        space.add_to_collection("book", doc).unwrap();
    }
    let cache = DocumentCache::new(
        space.clone(),
        CacheConfig {
            prefetch: PrefetchConfig::up_to(16),
            local_latency: LatencyModel::FREE,
            ..CacheConfig::default()
        },
    );
    // One demand miss on the first chapter...
    cache.read(USER, docs[0]).unwrap();
    let stats = cache.stats();
    assert_eq!(stats.misses, 1);
    assert_eq!(stats.prefetches, 4, "siblings pulled in the same pass");
    // ...and the rest of the book is already resident.
    for &doc in &docs[1..] {
        assert!(cache.contains(USER, doc));
    }
    let clock = space.clock();
    let t0 = clock.now();
    cache.read(USER, docs[3]).unwrap();
    assert!(clock.now().since(t0) < 1_000, "served locally");
    assert_eq!(cache.stats().prefetch_hits, 1);
    assert_eq!(cache.stats().hits, 1);
}

#[test]
fn prefetch_budget_bounds_the_drag() {
    let (space, docs) = space_with_docs(10, "page");
    for &doc in &docs {
        space.add_to_collection("site", doc).unwrap();
    }
    let cache = DocumentCache::new(
        space,
        CacheConfig {
            prefetch: PrefetchConfig::up_to(3),
            local_latency: LatencyModel::FREE,
            ..CacheConfig::default()
        },
    );
    cache.read(USER, docs[0]).unwrap();
    assert_eq!(cache.stats().prefetches, 3);
    assert_eq!(cache.len(), 4);
}

#[test]
fn prefetch_off_touches_nothing_extra() {
    let (space, docs) = space_with_docs(5, "chapter");
    for &doc in &docs {
        space.add_to_collection("book", doc).unwrap();
    }
    let cache = DocumentCache::new(
        space,
        CacheConfig {
            local_latency: LatencyModel::FREE,
            ..CacheConfig::default()
        },
    );
    cache.read(USER, docs[0]).unwrap();
    assert_eq!(cache.stats().prefetches, 0);
    assert_eq!(cache.len(), 1);
}

#[test]
fn prefetch_skips_users_without_references() {
    let (space, docs) = space_with_docs(3, "memo");
    for &doc in &docs {
        space.add_to_collection("memos", doc).unwrap();
    }
    let bob = UserId(2);
    // Bob only has a reference to the first memo.
    space.add_reference(bob, docs[0]).unwrap();
    let cache = DocumentCache::new(
        space,
        CacheConfig {
            prefetch: PrefetchConfig::up_to(16),
            local_latency: LatencyModel::FREE,
            ..CacheConfig::default()
        },
    );
    cache.read(bob, docs[0]).unwrap();
    assert_eq!(cache.stats().prefetches, 0, "no references, no prefetch");
}

#[test]
fn pinned_entries_survive_any_eviction_pressure() {
    let space = DocumentSpace::with_middleware_cost(VirtualClock::new(), LatencyModel::FREE);
    // One pinned document plus many fillers, under a tiny capacity.
    let pinned_provider = MemoryProvider::new("pinned", vec![b'p'; 512], 10_000);
    let pinned_doc = space.create_document(USER, pinned_provider);
    space
        .attach_active(
            Scope::Personal(USER),
            pinned_doc,
            QosProperty::always_available(),
        )
        .unwrap();
    let mut fillers = Vec::new();
    for i in 0..20u8 {
        let mut body = vec![b'f'; 512];
        body[0] = i;
        fillers
            .push(space.create_document(USER, MemoryProvider::new(&format!("f{i}"), body, 1_000)));
    }
    let cache = DocumentCache::new(
        space,
        CacheConfig {
            capacity_bytes: 2_048,
            local_latency: LatencyModel::FREE,
            ..CacheConfig::default()
        },
    );
    cache.read(USER, pinned_doc).unwrap();
    assert_eq!(cache.stats().pinned_fills, 1);
    for &doc in &fillers {
        cache.read(USER, doc).unwrap();
    }
    assert!(cache.stats().evictions > 0, "fillers churned");
    assert!(
        cache.contains(USER, pinned_doc),
        "the always-available entry was never evicted"
    );
    // And it still serves hits.
    let t0 = cache.stats().hits;
    cache.read(USER, pinned_doc).unwrap();
    assert_eq!(cache.stats().hits, t0 + 1);
}

#[test]
fn pinned_entries_still_honor_invalidations() {
    // Pinning protects from *eviction*, not from *staleness*.
    let space = DocumentSpace::with_middleware_cost(VirtualClock::new(), LatencyModel::FREE);
    let provider = MemoryProvider::new("pinned", "v1", 1_000);
    let doc = space.create_document(USER, provider.clone());
    space
        .attach_active(Scope::Personal(USER), doc, QosProperty::always_available())
        .unwrap();
    let cache = DocumentCache::new(
        space,
        CacheConfig {
            local_latency: LatencyModel::FREE,
            ..CacheConfig::default()
        },
    );
    assert_eq!(cache.read(USER, doc).unwrap(), "v1");
    provider.set_out_of_band("v2");
    assert_eq!(cache.read(USER, doc).unwrap(), "v2", "verifier still runs");
}

#[test]
fn adding_to_collection_does_not_invalidate_content_caches() {
    let (space, docs) = space_with_docs(2, "doc");
    space
        .attach_active(Scope::Universal, docs[0], PropertyChangeNotifier::any())
        .unwrap();
    let cache = DocumentCache::new(
        space.clone(),
        CacheConfig {
            local_latency: LatencyModel::FREE,
            ..CacheConfig::default()
        },
    );
    cache.read(USER, docs[0]).unwrap();
    space.add_to_collection("team", docs[0]).unwrap();
    assert!(
        cache.contains(USER, docs[0]),
        "membership labels do not change content"
    );
}
