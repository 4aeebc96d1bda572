//! The "keep a copy at PARC and at Rice" replication property.
//!
//! Eyal's personal property maintains a copy of the content at a second
//! site, driven by timer events ("assuming that Eyal's replication between
//! PARC and Rice occurs only once at the end of the day"). The property
//! captures each revision as it flows through the write path and, on the
//! next timer tick, copies the latest revision to the remote file system
//! over its (slow) link.

use bytes::Bytes;
use parking_lot::Mutex;
use placeless_core::error::{PlacelessError, Result};
use placeless_core::event::{DocumentEvent, EventKind, Interests};
use placeless_core::property::{ActiveProperty, EventCtx, PathCtx, PathReport};
use placeless_core::streams::OutputStream;
use placeless_repository::MemFs;
use placeless_simenv::Link;
use std::sync::Arc;

/// Timer-driven replication of the latest written revision to a remote
/// path.
pub struct ReplicateTo {
    target_fs: Arc<MemFs>,
    target_path: String,
    link: Link,
    pending: Arc<Mutex<Option<Bytes>>>,
    copies_made: Mutex<u64>,
}

impl ReplicateTo {
    /// Creates a replicator writing to `path` on `target_fs` over `link`.
    pub fn new(target_fs: Arc<MemFs>, path: &str, link: Link) -> Arc<Self> {
        Arc::new(Self {
            target_fs,
            target_path: path.to_owned(),
            link,
            pending: Arc::new(Mutex::new(None)),
            copies_made: Mutex::new(0),
        })
    }

    /// Returns how many copies have been shipped.
    pub fn copies_made(&self) -> u64 {
        *self.copies_made.lock()
    }
}

impl ActiveProperty for ReplicateTo {
    fn name(&self) -> &str {
        "replicate-to"
    }

    fn interests(&self) -> Interests {
        Interests::of(&[EventKind::GetOutputStream, EventKind::Timer])
    }

    fn execution_cost_micros(&self) -> u64 {
        100
    }

    fn wrap_output(
        &self,
        _ctx: &PathCtx<'_>,
        _report: &mut PathReport,
        inner: Box<dyn OutputStream>,
    ) -> Result<Box<dyn OutputStream>> {
        Ok(Box::new(CaptureTee {
            inner: Some(inner),
            buf: Vec::new(),
            pending: self.pending.clone(),
        }))
    }

    fn on_event(&self, ctx: &EventCtx<'_>, event: &DocumentEvent) -> Result<()> {
        if event.kind != EventKind::Timer {
            return Ok(());
        }
        let Some(content) = self.pending.lock().take() else {
            return Ok(());
        };
        // Ship the bytes over the (typically WAN) link, then store.
        self.link.transfer(ctx.clock, content.len() as u64);
        if self.target_fs.exists(&self.target_path) {
            self.target_fs.write_direct(&self.target_path, content)?;
        } else {
            self.target_fs.create(&self.target_path, content);
        }
        *self.copies_made.lock() += 1;
        Ok(())
    }
}

/// Pass-through output that stores the final content into `pending`.
struct CaptureTee {
    inner: Option<Box<dyn OutputStream>>,
    buf: Vec<u8>,
    pending: Arc<Mutex<Option<Bytes>>>,
}

impl OutputStream for CaptureTee {
    fn write(&mut self, buf: &[u8]) -> Result<usize> {
        let inner = self.inner.as_mut().ok_or(PlacelessError::StreamClosed)?;
        placeless_core::streams::write_all(inner.as_mut(), buf)?;
        self.buf.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn close(&mut self) -> Result<()> {
        let mut inner = self.inner.take().ok_or(PlacelessError::StreamClosed)?;
        *self.pending.lock() = Some(Bytes::from(std::mem::take(&mut self.buf)));
        inner.close()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use placeless_core::prelude::*;
    use placeless_simenv::{LatencyModel, VirtualClock};

    const EYAL: UserId = UserId(1);

    fn wan() -> Link {
        Link::new(80_000, 125_000, 0.0, 9)
    }

    #[test]
    fn replication_waits_for_the_timer() {
        let clock = VirtualClock::new();
        let space = DocumentSpace::with_middleware_cost(clock.clone(), LatencyModel::FREE);
        let provider = MemoryProvider::new("parc", "draft", 0);
        let doc = space.create_document(EYAL, provider);
        let rice = MemFs::new(clock.clone());
        let replicate = ReplicateTo::new(rice.clone(), "/rice/hotos.doc", wan());
        space
            .attach_active(Scope::Personal(EYAL), doc, replicate.clone())
            .unwrap();

        space.write_document(EYAL, doc, b"draft v2").unwrap();
        assert!(!rice.exists("/rice/hotos.doc"), "not yet shipped");

        space.timer_tick().unwrap();
        assert_eq!(rice.read("/rice/hotos.doc").unwrap(), "draft v2");
        assert_eq!(replicate.copies_made(), 1);
    }

    #[test]
    fn idle_ticks_ship_nothing() {
        let clock = VirtualClock::new();
        let space = DocumentSpace::with_middleware_cost(clock.clone(), LatencyModel::FREE);
        let provider = MemoryProvider::new("parc", "draft", 0);
        let doc = space.create_document(EYAL, provider);
        let rice = MemFs::new(clock.clone());
        let replicate = ReplicateTo::new(rice.clone(), "/rice/x", wan());
        space
            .attach_active(Scope::Personal(EYAL), doc, replicate.clone())
            .unwrap();
        space.timer_tick().unwrap();
        space.timer_tick().unwrap();
        assert_eq!(replicate.copies_made(), 0);
    }

    #[test]
    fn only_latest_revision_ships() {
        let clock = VirtualClock::new();
        let space = DocumentSpace::with_middleware_cost(clock.clone(), LatencyModel::FREE);
        let provider = MemoryProvider::new("parc", "draft", 0);
        let doc = space.create_document(EYAL, provider);
        let rice = MemFs::new(clock.clone());
        let replicate = ReplicateTo::new(rice.clone(), "/rice/x", wan());
        space
            .attach_active(Scope::Personal(EYAL), doc, replicate.clone())
            .unwrap();
        space.write_document(EYAL, doc, b"v1").unwrap();
        space.write_document(EYAL, doc, b"v2").unwrap();
        space.timer_tick().unwrap();
        assert_eq!(rice.read("/rice/x").unwrap(), "v2");
        assert_eq!(replicate.copies_made(), 1, "coalesced into one copy");
    }

    #[test]
    fn shipping_charges_the_wan_link() {
        let clock = VirtualClock::new();
        let space = DocumentSpace::with_middleware_cost(clock.clone(), LatencyModel::FREE);
        let provider = MemoryProvider::new("parc", "draft", 0);
        let doc = space.create_document(EYAL, provider);
        let rice = MemFs::new(clock.clone());
        let replicate = ReplicateTo::new(rice, "/rice/x", wan());
        space
            .attach_active(Scope::Personal(EYAL), doc, replicate)
            .unwrap();
        space.write_document(EYAL, doc, b"payload").unwrap();
        let t0 = clock.now();
        space.timer_tick().unwrap();
        assert!(clock.now().since(t0) >= 80_000, "WAN RTT charged");
    }
}
