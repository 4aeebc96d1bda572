//! Bit-providers over the simulated repositories.
//!
//! Each provider pairs a repository with a network [`Link`] and implements
//! the consistency mechanism that repository actually offers:
//!
//! | Provider | Repository | Consistency mechanism |
//! |---|---|---|
//! | [`FsProvider`] | [`MemFs`] | mtime-polling verifier |
//! | [`WebProvider`] | [`WebServer`] | TTL verifier from the HTTP response |
//! | [`DmsProvider`] | [`Dms`] | version pin + optional server callback that posts invalidations |
//! | [`LiveFeedProvider`] | [`LiveFeed`] | none — votes `Uncacheable` |
//!
//! The diversity is the point: "the consistency mechanisms used by the
//! original repositories can vary dramatically", and notifiers/verifiers
//! let one cache absorb all of them.

use crate::dms::Dms;
use crate::livefeed::LiveFeed;
use crate::memfs::MemFs;
use crate::webserver::WebServer;
use bytes::Bytes;
use placeless_core::bitprovider::BitProvider;
use placeless_core::cacheability::Cacheability;
use placeless_core::error::{PlacelessError, Result};
use placeless_core::id::DocumentId;
use placeless_core::notifier::{Invalidation, InvalidationBus};
use placeless_core::streams::{CollectOutput, InputStream, MemoryInput, OutputStream};
use placeless_core::verifier::{ClosureVerifier, TtlVerifier, Validity, Verifier};
use placeless_simenv::{Link, VirtualClock};
use std::sync::Arc;

/// Consults the link's fault plan before an origin operation, mapping an
/// injected fault into the middleware error space. The failed attempt's
/// wire time has already been charged by [`Link::faulted_op`].
fn check_link(link: &Link, clock: &VirtualClock, source: &str) -> Result<()> {
    let t0 = clock.now();
    link.faulted_op(clock)
        .map_err(|fault| PlacelessError::from_fault(source, fault, clock.now().since(t0)))
}

/// Consults the link's fault plan inside a verifier probe: an unreachable
/// origin makes the probe [`Validity::Unverifiable`], never a panic or a
/// false `Invalid`.
fn probe_link(link: &Link, clock: &VirtualClock) -> std::result::Result<(), Validity> {
    match link.faulted_op(clock) {
        Ok(()) => Ok(()),
        Err(_) => Err(Validity::Unverifiable),
    }
}

/// Bit-provider over a path in a [`MemFs`].
pub struct FsProvider {
    fs: Arc<MemFs>,
    path: String,
    link: Link,
}

impl FsProvider {
    /// Creates a provider for `path`, reached over `link`.
    pub fn new(fs: Arc<MemFs>, path: &str, link: Link) -> Arc<Self> {
        Arc::new(Self {
            fs,
            path: path.to_owned(),
            link,
        })
    }
}

impl BitProvider for FsProvider {
    fn describe(&self) -> String {
        format!("fs:{}", self.path)
    }

    fn origin_key(&self) -> String {
        "fs".to_owned()
    }

    fn open_input(&self, clock: &VirtualClock) -> Result<Box<dyn InputStream>> {
        check_link(&self.link, clock, &self.describe())?;
        let content = self.fs.read(&self.path)?;
        self.link.transfer(clock, content.len() as u64);
        Ok(Box::new(MemoryInput::new(content)))
    }

    fn open_output(&self, clock: &VirtualClock) -> Result<Box<dyn OutputStream>> {
        let fs = self.fs.clone();
        let path = self.path.clone();
        let link = self.link.clone();
        let clock = clock.clone();
        Ok(Box::new(CollectOutput::new(move |bytes| {
            check_link(&link, &clock, &format!("fs:{path}"))?;
            link.transfer(&clock, bytes.len() as u64);
            if fs.exists(&path) {
                fs.write_direct(&path, bytes)
            } else {
                fs.create(&path, bytes);
                Ok(())
            }
        })))
    }

    fn commit_batch(&self, clock: &VirtualClock, payloads: &[Bytes]) -> Option<Vec<Result<()>>> {
        // One link probe and one combined transfer cover the whole
        // batch; a dark link fails every payload with the same fault.
        if let Err(error) = check_link(&self.link, clock, &self.describe()) {
            return Some(payloads.iter().map(|_| Err(error.clone())).collect());
        }
        let total: u64 = payloads.iter().map(|bytes| bytes.len() as u64).sum();
        self.link.transfer(clock, total);
        Some(
            payloads
                .iter()
                .map(|bytes| {
                    if self.fs.exists(&self.path) {
                        self.fs.write_direct(&self.path, bytes.clone())
                    } else {
                        self.fs.create(&self.path, bytes.clone());
                        Ok(())
                    }
                })
                .collect(),
        )
    }

    fn make_verifier(&self, _clock: &VirtualClock) -> Option<Box<dyn Verifier>> {
        // Poll the file's mtime/generation; the probe costs one RTT.
        let pinned = self.fs.stat(&self.path).ok()?.generation;
        let fs = self.fs.clone();
        let path = self.path.clone();
        let link = self.link.clone();
        let rtt = self.link.rtt_micros();
        Some(ClosureVerifier::new(
            &format!("fs-mtime:{path}"),
            rtt,
            move |clock| {
                if let Err(unverifiable) = probe_link(&link, clock) {
                    return unverifiable;
                }
                match fs.stat(&path) {
                    Ok(stat) if stat.generation == pinned => Validity::Valid,
                    _ => Validity::Invalid,
                }
            },
        ))
    }

    fn fetch_cost_micros(&self) -> u64 {
        let size = self
            .fs
            .stat(&self.path)
            .map(|s| s.content.len())
            .unwrap_or(0);
        self.link.estimate_micros(size as u64)
    }

    fn content_len_hint(&self) -> Option<u64> {
        self.fs
            .stat(&self.path)
            .ok()
            .map(|s| s.content.len() as u64)
    }
}

/// Bit-provider over a page on a [`WebServer`].
pub struct WebProvider {
    server: Arc<WebServer>,
    path: String,
    link: Link,
    revalidate: bool,
}

impl WebProvider {
    /// Creates a provider for `path` on `server`, reached over `link`,
    /// with classic TTL-only consistency.
    pub fn new(server: Arc<WebServer>, path: &str, link: Link) -> Arc<Self> {
        Arc::new(Self {
            server,
            path: path.to_owned(),
            link,
            revalidate: false,
        })
    }

    /// Creates a provider whose verifier *revalidates* with a conditional
    /// GET on every hit (HTTP/1.1 `If-None-Match` semantics): origin edits
    /// are caught immediately, at the price of one RTT per hit, instead of
    /// being hidden until the TTL expires.
    pub fn with_revalidation(server: Arc<WebServer>, path: &str, link: Link) -> Arc<Self> {
        Arc::new(Self {
            server,
            path: path.to_owned(),
            link,
            revalidate: true,
        })
    }
}

impl BitProvider for WebProvider {
    fn describe(&self) -> String {
        format!("http://{}{}", self.server.host(), self.path)
    }

    fn origin_key(&self) -> String {
        format!("http://{}", self.server.host())
    }

    fn open_input(&self, clock: &VirtualClock) -> Result<Box<dyn InputStream>> {
        check_link(&self.link, clock, &self.describe())?;
        let resp = self.server.get(&self.path)?;
        self.link.transfer(clock, resp.body.len() as u64);
        Ok(Box::new(MemoryInput::new(resp.body)))
    }

    fn open_output(&self, clock: &VirtualClock) -> Result<Box<dyn OutputStream>> {
        let server = self.server.clone();
        let path = self.path.clone();
        let link = self.link.clone();
        let clock = clock.clone();
        let source = self.describe();
        Ok(Box::new(CollectOutput::new(move |bytes| {
            check_link(&link, &clock, &source)?;
            link.transfer(&clock, bytes.len() as u64);
            server.put(&path, bytes)
        })))
    }

    fn make_verifier(&self, clock: &VirtualClock) -> Option<Box<dyn Verifier>> {
        if self.revalidate {
            // Conditional GET pinned to the current revision: a 304 keeps
            // the entry, anything newer forces a refill through the full
            // property path. The probe costs one round trip.
            let pinned = self.server.revision(&self.path)?;
            let server = self.server.clone();
            let path = self.path.clone();
            let link = self.link.clone();
            let rtt = self.link.rtt_micros();
            return Some(ClosureVerifier::new(
                &format!("http-revalidate:{path}"),
                rtt,
                move |clock| {
                    if let Err(unverifiable) = probe_link(&link, clock) {
                        return unverifiable;
                    }
                    match server.conditional_get(&path, pinned) {
                        Ok(None) => Validity::Valid,
                        _ => Validity::Invalid,
                    }
                },
            ));
        }
        // The only consistency a 1999 web server grants otherwise is the
        // response TTL; the check itself is free (a clock comparison).
        let ttl = self.server.get_ttl(&self.path)?;
        Some(TtlVerifier::for_ttl(clock.now(), ttl))
    }

    fn fetch_cost_micros(&self) -> u64 {
        let size = self.server.body_len(&self.path).unwrap_or(0);
        self.link.estimate_micros(size)
    }

    fn content_len_hint(&self) -> Option<u64> {
        self.server.body_len(&self.path)
    }
}

/// Bit-provider over an item in a [`Dms`].
pub struct DmsProvider {
    dms: Arc<Dms>,
    key: String,
    holder: String,
    link: Link,
}

impl DmsProvider {
    /// Creates a provider for `key`; writes check in as `holder`.
    pub fn new(dms: Arc<Dms>, key: &str, holder: &str, link: Link) -> Arc<Self> {
        Arc::new(Self {
            dms,
            key: key.to_owned(),
            holder: holder.to_owned(),
            link,
        })
    }

    /// Wires the DMS's native change callback to the invalidation bus: any
    /// check-in of this item invalidates every cached version of `doc`.
    /// This is the repository-specific *notifier* of §3 — no polling
    /// verifier needed.
    pub fn wire_invalidations(&self, bus: Arc<InvalidationBus>, doc: DocumentId) {
        let key = self.key.clone();
        self.dms.subscribe(move |changed, _version| {
            if changed == key {
                bus.post(Invalidation::Document(doc));
            }
        });
    }
}

impl BitProvider for DmsProvider {
    fn describe(&self) -> String {
        format!("dms:{}", self.key)
    }

    fn origin_key(&self) -> String {
        "dms".to_owned()
    }

    fn open_input(&self, clock: &VirtualClock) -> Result<Box<dyn InputStream>> {
        check_link(&self.link, clock, &self.describe())?;
        let content = self.dms.fetch_latest(&self.key)?;
        self.link.transfer(clock, content.len() as u64);
        Ok(Box::new(MemoryInput::new(content)))
    }

    fn open_output(&self, clock: &VirtualClock) -> Result<Box<dyn OutputStream>> {
        // Model a full check-out/check-in cycle on close.
        let dms = self.dms.clone();
        let key = self.key.clone();
        let holder = self.holder.clone();
        let link = self.link.clone();
        let clock = clock.clone();
        Ok(Box::new(CollectOutput::new(move |bytes| {
            check_link(&link, &clock, &format!("dms:{key}"))?;
            link.transfer(&clock, bytes.len() as u64);
            dms.check_out(&key, &holder)?;
            dms.check_in(&key, &holder, bytes)?;
            Ok(())
        })))
    }

    fn make_verifier(&self, _clock: &VirtualClock) -> Option<Box<dyn Verifier>> {
        // Pin the current version; the probe costs one RTT. When
        // `wire_invalidations` is used instead, callers may drop this.
        let pinned = self.dms.latest_version(&self.key).ok()?;
        let dms = self.dms.clone();
        let key = self.key.clone();
        let link = self.link.clone();
        let rtt = self.link.rtt_micros();
        Some(ClosureVerifier::new(
            &format!("dms-version:{key}"),
            rtt,
            move |clock| {
                if let Err(unverifiable) = probe_link(&link, clock) {
                    return unverifiable;
                }
                match dms.latest_version(&key) {
                    Ok(v) if v == pinned => Validity::Valid,
                    _ => Validity::Invalid,
                }
            },
        ))
    }

    fn fetch_cost_micros(&self) -> u64 {
        let size = self
            .dms
            .fetch_latest(&self.key)
            .map(|c| c.len())
            .unwrap_or(0);
        self.link.estimate_micros(size as u64)
    }
}

/// Bit-provider over a [`LiveFeed`]: uncacheable, read-only.
pub struct LiveFeedProvider {
    feed: Arc<LiveFeed>,
    link: Link,
}

impl LiveFeedProvider {
    /// Creates a provider over `feed`, reached over `link`.
    pub fn new(feed: Arc<LiveFeed>, link: Link) -> Arc<Self> {
        Arc::new(Self { feed, link })
    }
}

impl BitProvider for LiveFeedProvider {
    fn describe(&self) -> String {
        format!("live:{}", self.feed.name())
    }

    fn origin_key(&self) -> String {
        self.describe()
    }

    fn open_input(&self, clock: &VirtualClock) -> Result<Box<dyn InputStream>> {
        check_link(&self.link, clock, &self.describe())?;
        let frame = self.feed.next_frame(clock);
        self.link.transfer(clock, frame.len() as u64);
        Ok(Box::new(MemoryInput::new(frame)))
    }

    fn open_output(&self, _clock: &VirtualClock) -> Result<Box<dyn OutputStream>> {
        Err(PlacelessError::Repository(
            "live feeds are read-only".to_owned(),
        ))
    }

    fn make_verifier(&self, _clock: &VirtualClock) -> Option<Box<dyn Verifier>> {
        None
    }

    fn fetch_cost_micros(&self) -> u64 {
        self.link.estimate_micros(0)
    }

    fn writable(&self) -> bool {
        false
    }

    fn cacheability_vote(&self) -> Cacheability {
        Cacheability::Uncacheable
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use placeless_core::streams::{read_all, write_all};
    use placeless_simenv::LinkClass;

    fn lan() -> Link {
        Link::new(1_000, 1_000_000, 0.0, 1)
    }

    #[test]
    fn fs_provider_reads_and_charges_link() {
        let clock = VirtualClock::new();
        let fs = MemFs::new(clock.clone());
        fs.create("/doc", "file body");
        let provider = FsProvider::new(fs, "/doc", lan());
        let t0 = clock.now();
        let mut stream = provider.open_input(&clock).unwrap();
        assert!(clock.now().since(t0) >= 1_000, "link RTT charged");
        assert_eq!(read_all(stream.as_mut()).unwrap(), "file body");
    }

    #[test]
    fn fs_provider_writes_through() {
        let clock = VirtualClock::new();
        let fs = MemFs::new(clock.clone());
        fs.create("/doc", "old");
        let provider = FsProvider::new(fs.clone(), "/doc", lan());
        let mut sink = provider.open_output(&clock).unwrap();
        write_all(sink.as_mut(), b"new body").unwrap();
        sink.close().unwrap();
        assert_eq!(fs.read("/doc").unwrap(), "new body");
    }

    #[test]
    fn fs_verifier_catches_direct_writes() {
        let clock = VirtualClock::new();
        let fs = MemFs::new(clock.clone());
        fs.create("/doc", "v1");
        let provider = FsProvider::new(fs.clone(), "/doc", lan());
        let verifier = provider.make_verifier(&clock).unwrap();
        assert_eq!(verifier.check(&clock), Validity::Valid);
        fs.write_direct("/doc", "v2").unwrap();
        assert_eq!(verifier.check(&clock), Validity::Invalid);
        assert_eq!(verifier.cost_micros(), 1_000, "probe costs one RTT");
    }

    #[test]
    fn web_provider_grants_ttl_verifier() {
        let clock = VirtualClock::new();
        let server = WebServer::new("parcweb");
        server.publish("/p", "page", 10_000);
        let provider = WebProvider::new(server.clone(), "/p", lan());
        let verifier = provider.make_verifier(&clock).unwrap();
        // Within the TTL the verifier cannot see even an origin edit.
        server.edit_origin("/p", "changed").unwrap();
        assert_eq!(verifier.check(&clock), Validity::Valid);
        clock.advance(10_001);
        assert_eq!(verifier.check(&clock), Validity::Invalid);
    }

    #[test]
    fn revalidating_provider_catches_origin_edits_immediately() {
        let clock = VirtualClock::new();
        let server = WebServer::new("news");
        server.publish("/p", "v0", 60_000_000);
        let provider = WebProvider::with_revalidation(server.clone(), "/p", lan());
        let verifier = provider.make_verifier(&clock).unwrap();
        assert_eq!(verifier.check(&clock), Validity::Valid, "304");
        assert_eq!(verifier.cost_micros(), 1_000, "probe costs one RTT");
        server.edit_origin("/p", "v1").unwrap();
        assert_eq!(
            verifier.check(&clock),
            Validity::Invalid,
            "no TTL blind spot"
        );
    }

    #[test]
    fn web_provider_put_goes_through_server() {
        let clock = VirtualClock::new();
        let server = WebServer::new("h");
        server.publish("/p", "v0", 10);
        let provider = WebProvider::new(server.clone(), "/p", lan());
        let mut sink = provider.open_output(&clock).unwrap();
        write_all(sink.as_mut(), b"v1").unwrap();
        sink.close().unwrap();
        assert_eq!(server.get("/p").unwrap().body, "v1");
        assert_eq!(server.counters().1, 1, "one PUT");
    }

    #[test]
    fn dms_provider_roundtrip_and_version_pin() {
        let clock = VirtualClock::new();
        let dms = Dms::new();
        dms.import("spec", "v1");
        let provider = DmsProvider::new(dms.clone(), "spec", "placeless", lan());
        let verifier = provider.make_verifier(&clock).unwrap();
        let mut stream = provider.open_input(&clock).unwrap();
        assert_eq!(read_all(stream.as_mut()).unwrap(), "v1");
        // Write through the provider: checkout + checkin.
        let mut sink = provider.open_output(&clock).unwrap();
        write_all(sink.as_mut(), b"v2").unwrap();
        sink.close().unwrap();
        assert_eq!(dms.fetch_latest("spec").unwrap(), "v2");
        assert_eq!(verifier.check(&clock), Validity::Invalid, "version moved");
    }

    #[test]
    fn dms_callback_posts_invalidations() {
        let clock = VirtualClock::new();
        let dms = Dms::new();
        dms.import("spec", "v1");
        let provider = DmsProvider::new(dms.clone(), "spec", "someone", lan());
        let bus = InvalidationBus::new();
        provider.wire_invalidations(bus.clone(), DocumentId(42));
        dms.check_out("spec", "doug").unwrap();
        dms.check_in("spec", "doug", "v2").unwrap();
        assert_eq!(bus.counters().0, 1, "check-in posted an invalidation");
        let _ = clock;
    }

    #[test]
    fn fs_batch_commit_charges_one_probe_and_applies_in_order() {
        let clock = VirtualClock::new();
        let fs = MemFs::new(clock.clone());
        fs.create("/doc", "old");
        let provider = FsProvider::new(fs.clone(), "/doc", lan());
        let t0 = clock.now();
        let payloads = [Bytes::from_static(b"v1"), Bytes::from_static(b"v2")];
        let results = provider.commit_batch(&clock, &payloads).unwrap();
        assert!(results.iter().all(|r| r.is_ok()));
        assert_eq!(fs.read("/doc").unwrap(), "v2", "last payload wins");
        let batched = clock.now().since(t0);
        // The per-payload path pays the probe RTT per commit; the batch
        // pays it once, so two payloads must cost less than two commits.
        let single = provider.link.estimate_micros(2);
        assert!(batched < 2 * single, "{batched} vs 2x{single}");
    }

    #[test]
    fn fs_batch_commit_on_dark_link_fails_every_payload() {
        use placeless_simenv::FaultPlan;
        let clock = VirtualClock::new();
        let fs = MemFs::new(clock.clone());
        fs.create("/doc", "old");
        let link = lan();
        link.set_fault_plan(FaultPlan::builder(5).outage(0, 10_000).build());
        let provider = FsProvider::new(fs.clone(), "/doc", link);
        let payloads = [Bytes::from_static(b"v1"), Bytes::from_static(b"v2")];
        let results = provider.commit_batch(&clock, &payloads).unwrap();
        assert_eq!(results.len(), 2);
        for result in &results {
            let err = result.as_ref().unwrap_err();
            assert!(matches!(err, PlacelessError::Unavailable { .. }), "{err}");
            assert!(err.is_transient());
        }
        assert_eq!(fs.read("/doc").unwrap(), "old", "nothing committed");
    }

    #[test]
    fn faulted_link_surfaces_unavailable_from_open_input() {
        use placeless_simenv::FaultPlan;
        let clock = VirtualClock::new();
        let fs = MemFs::new(clock.clone());
        fs.create("/doc", "body");
        let link = lan();
        let plan = FaultPlan::builder(3).outage(0, 10_000).build();
        link.set_fault_plan(plan);
        let provider = FsProvider::new(fs, "/doc", link);
        let err = match provider.open_input(&clock) {
            Err(err) => err,
            Ok(_) => panic!("open_input must fail inside the outage window"),
        };
        assert!(matches!(err, PlacelessError::Unavailable { .. }), "{err}");
        assert!(err.is_transient());
        assert!(
            clock.now().as_micros() >= 1_000,
            "the failed attempt still cost a round trip"
        );
        // Past the window the provider recovers.
        clock.advance_to(placeless_simenv::Instant(10_000));
        assert!(provider.open_input(&clock).is_ok());
    }

    #[test]
    fn timeout_window_surfaces_timeout_and_charges_the_hang() {
        use placeless_simenv::FaultPlan;
        let clock = VirtualClock::new();
        let server = WebServer::new("slow");
        server.publish("/p", "page", 60_000_000);
        let link = lan();
        link.set_fault_plan(FaultPlan::builder(4).timeout(0, 50_000).build());
        let provider = WebProvider::new(server, "/p", link);
        let err = match provider.open_input(&clock) {
            Err(err) => err,
            Ok(_) => panic!("open_input must fail inside the timeout window"),
        };
        assert!(matches!(err, PlacelessError::Timeout { .. }), "{err}");
        assert!(
            clock.now().as_micros() >= 50_000,
            "a timeout hangs until the window closes, got {}µs",
            clock.now().as_micros()
        );
    }

    #[test]
    fn faulted_probe_is_unverifiable_not_invalid() {
        use placeless_simenv::FaultPlan;
        let clock = VirtualClock::new();
        let fs = MemFs::new(clock.clone());
        fs.create("/doc", "v1");
        let link = lan();
        let plan = FaultPlan::builder(0).build();
        link.set_fault_plan(plan.clone());
        let provider = FsProvider::new(fs.clone(), "/doc", link);
        let verifier = provider.make_verifier(&clock).unwrap();
        assert_eq!(verifier.check(&clock), Validity::Valid);
        plan.set_partitioned(true);
        assert_eq!(
            verifier.check(&clock),
            Validity::Unverifiable,
            "an unreachable origin is unknown freshness, not staleness"
        );
        plan.set_partitioned(false);
        fs.write_direct("/doc", "v2").unwrap();
        assert_eq!(
            verifier.check(&clock),
            Validity::Invalid,
            "back online, real staleness is still caught"
        );
    }

    #[test]
    fn drop_next_fails_writes_too() {
        use placeless_simenv::FaultPlan;
        let clock = VirtualClock::new();
        let dms = Dms::new();
        dms.import("spec", "v1");
        let link = lan();
        let plan = FaultPlan::builder(0).build();
        link.set_fault_plan(plan.clone());
        let provider = DmsProvider::new(dms.clone(), "spec", "placeless", link);
        plan.drop_next(1);
        let mut sink = provider.open_output(&clock).unwrap();
        write_all(sink.as_mut(), b"v2").unwrap();
        assert!(sink.close().is_err(), "commit hits the dropped op");
        assert_eq!(dms.fetch_latest("spec").unwrap(), "v1", "nothing committed");
        // The next attempt goes through.
        let mut sink = provider.open_output(&clock).unwrap();
        write_all(sink.as_mut(), b"v2").unwrap();
        sink.close().unwrap();
        assert_eq!(dms.fetch_latest("spec").unwrap(), "v2");
    }

    #[test]
    fn origin_keys_group_documents_by_origin() {
        let clock = VirtualClock::new();
        let server = WebServer::new("parcweb");
        server.publish("/a", "a", 10);
        server.publish("/b", "b", 10);
        let p1 = WebProvider::new(server.clone(), "/a", lan());
        let p2 = WebProvider::new(server, "/b", lan());
        assert_eq!(p1.origin_key(), p2.origin_key(), "same server, one origin");
        assert_ne!(p1.describe(), p2.describe(), "but distinct documents");
        let fs = MemFs::new(clock.clone());
        fs.create("/x", "x");
        assert_eq!(FsProvider::new(fs, "/x", lan()).origin_key(), "fs");
    }

    #[test]
    fn live_feed_provider_is_uncacheable_and_readonly() {
        let clock = VirtualClock::new();
        let feed = LiveFeed::new("cam", 64, 1);
        let provider = LiveFeedProvider::new(feed, Link::of_class(LinkClass::Lan, 0));
        assert_eq!(provider.cacheability_vote(), Cacheability::Uncacheable);
        assert!(provider.make_verifier(&clock).is_none());
        assert!(!provider.writable());
        assert!(provider.open_output(&clock).is_err());
        let mut a = provider.open_input(&clock).unwrap();
        let mut b = provider.open_input(&clock).unwrap();
        assert_ne!(read_all(a.as_mut()).unwrap(), read_all(b.as_mut()).unwrap());
    }
}
