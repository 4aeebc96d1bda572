//! Experiment **Table 1**: document content access times for an
//! application-level cache.
//!
//! The paper measures three web origins — `parcweb` (1,915 bytes, on the
//! PARC LAN) and two remote WWW sites (10,883 and 1,104 bytes) — under
//! three configurations: no cache, cache miss (fill overhead: a minimum
//! set of notifiers plus one TTL verifier), and cache hit. No active
//! properties are attached. We reproduce the setup on simulated 1999 links
//! and report simulated milliseconds; the paper's *shape* to match is
//! `hit ≪ no-cache`, `miss ≈ no-cache + small overhead`, and remote
//! origins an order of magnitude slower than the local one.

use placeless_cache::{CacheConfig, DocumentCache};
use placeless_core::prelude::*;
use placeless_properties::{ContentWriteNotifier, PropertyChangeNotifier};
use placeless_repository::{table1_origins, WebProvider};
use placeless_simenv::{Link, LinkClass, VirtualClock};

/// One row of the reproduced Table 1.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Origin label.
    pub origin: String,
    /// Page size in bytes.
    pub size: u64,
    /// Mean access time without any cache, in microseconds.
    pub no_cache_micros: u64,
    /// Mean access time on a cache miss (fill included), in microseconds.
    pub miss_micros: u64,
    /// Mean access time on a cache hit (verifiers included), in
    /// microseconds.
    pub hit_micros: u64,
}

/// Runs the Table 1 experiment with `iters` repetitions per cell.
pub fn run(iters: u32) -> Vec<Table1Row> {
    let user = UserId(1);
    let clock = VirtualClock::new();
    let origins = table1_origins(&clock);
    let links = [
        Link::of_class(LinkClass::Lan, 11),
        Link::of_class(LinkClass::Wan, 12),
        Link::of_class(LinkClass::Wan, 13),
    ];

    let space = DocumentSpace::new(clock.clone());
    let mut rows = Vec::new();
    for (origin, link) in origins.into_iter().zip(links) {
        let size = origin.body_len("/index.html").expect("published");
        let provider = WebProvider::new(origin.clone(), "/index.html", link);
        let doc = space.create_document(user, provider);
        // The paper's miss overhead: creating the minimum set of notifiers
        // (tracking property additions/deletions) and one TTL verifier.
        space
            .attach_active(Scope::Universal, doc, PropertyChangeNotifier::any())
            .expect("attach");
        space
            .attach_active(Scope::Universal, doc, ContentWriteNotifier::any())
            .expect("attach");

        // No cache: straight through the middleware every time.
        let no_cache_micros = mean_micros(iters, || {
            let t0 = clock.now();
            let _ = space.read_document(user, doc).expect("read");
            clock.now().since(t0)
        });

        // Cache miss: fill a cold cache each iteration.
        let cache = DocumentCache::new(space.clone(), CacheConfig::default());
        let miss_micros = mean_micros(iters, || {
            // Cold: drop the entry via the bus, then time the fill.
            space.bus().post(Invalidation::Document(doc));
            let t0 = clock.now();
            let _ = cache.read(user, doc).expect("read");
            clock.now().since(t0)
        });

        // Cache hit: the entry stays warm (TTL is 60 s of virtual time).
        let _ = cache.read(user, doc).expect("warm");
        let hit_micros = mean_micros(iters, || {
            let t0 = clock.now();
            let _ = cache.read(user, doc).expect("read");
            clock.now().since(t0)
        });

        rows.push(Table1Row {
            origin: origin.host().to_owned(),
            size,
            no_cache_micros,
            miss_micros,
            hit_micros,
        });
    }
    rows
}

fn mean_micros(iters: u32, mut once: impl FnMut() -> u64) -> u64 {
    let total: u64 = (0..iters).map(|_| once()).sum();
    total / iters as u64
}

/// Checks the paper's qualitative claims against a run.
pub fn shape_holds(rows: &[Table1Row]) -> bool {
    rows.iter().all(|r| {
        // Hits are at least an order of magnitude faster than no-cache.
        r.hit_micros * 10 <= r.no_cache_micros
            // Miss overhead over no-cache is small (< 25 %).
            && r.miss_micros as f64 <= r.no_cache_micros as f64 * 1.25
    }) && {
        // The local origin is much faster than the remote ones (no cache).
        let local = rows[0].no_cache_micros;
        rows[1..].iter().all(|r| r.no_cache_micros > local * 5)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_shape_matches_the_paper() {
        let rows = run(5);
        assert_eq!(rows.len(), 3);
        assert!(shape_holds(&rows), "shape violated: {rows:#?}");
    }

    #[test]
    fn sizes_match_the_paper() {
        let rows = run(1);
        assert_eq!(rows[0].size, 1_915);
        assert_eq!(rows[1].size, 10_883);
        assert_eq!(rows[2].size, 1_104);
    }
}
