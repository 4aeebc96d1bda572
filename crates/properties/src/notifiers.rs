//! The standard notifier properties.
//!
//! "Notifiers are active properties themselves": they register for the
//! mutation events under Placeless control and post invalidations to the
//! bus the caches subscribe to. The three from the paper's HotOS-draft
//! walkthrough are here:
//!
//! * [`ContentWriteNotifier`] — at the base, "invalidate the cache if the
//!   file is opened for writing by another user";
//! * [`PropertyChangeNotifier`] — at the base or a reference, "tracks any
//!   additions or deletions of active properties that could modify the
//!   content" (plus modifications and reorders, causes 2 and 3);
//! * [`ExternalChangeNotifier`] — timer-polls external sources a property
//!   depends on (cause 4, handled notifier-side instead of verifier-side —
//!   the §5 trade-off).

use parking_lot::Mutex;
use placeless_core::error::Result;
use placeless_core::event::{DocumentEvent, EventKind, EventSite, Interests};
use placeless_core::external::ExternalSource;
use placeless_core::id::UserId;
use placeless_core::notifier::Invalidation;
use placeless_core::property::{ActiveProperty, EventCtx};
use std::sync::Arc;

/// Invalidates all cached versions of a document when its content is
/// written through Placeless.
pub struct ContentWriteNotifier {
    /// When set, writes *by this user* do not notify (their own cache
    /// handles their writes locally).
    except: Option<UserId>,
}

impl ContentWriteNotifier {
    /// Notifies on every write.
    pub fn any() -> Arc<Self> {
        Arc::new(Self { except: None })
    }

    /// Notifies on writes by anyone except `user`.
    pub fn except(user: UserId) -> Arc<Self> {
        Arc::new(Self { except: Some(user) })
    }
}

impl ActiveProperty for ContentWriteNotifier {
    fn name(&self) -> &str {
        "notify-on-write"
    }

    fn interests(&self) -> Interests {
        Interests::of(&[EventKind::ContentWritten])
    }

    fn on_event(&self, ctx: &EventCtx<'_>, event: &DocumentEvent) -> Result<()> {
        if event.kind != EventKind::ContentWritten {
            return Ok(());
        }
        // Semantic-callback predicate: skip the excepted writer.
        if self.except.is_some() && event.user == self.except {
            return Ok(());
        }
        ctx.bus.post(Invalidation::Document(event.doc));
        Ok(())
    }
}

/// Invalidates cached versions when properties that could change content
/// are added, removed, modified, or reordered.
///
/// Scope-aware: a base-site mutation affects every user's version; a
/// reference-site mutation affects only that user's version.
pub struct PropertyChangeNotifier;

/// Properties whose mutations a [`PropertyChangeNotifier`] ignores: the
/// notifiers, and collection membership, which labels documents but never
/// changes their content.
const IGNORED: [&str; 4] = [
    "notify-on-write",
    "notify-on-property-change",
    "notify-on-external-change",
    "collection",
];

impl PropertyChangeNotifier {
    /// Notifies on any property mutation (except other notifiers).
    pub fn any() -> Arc<Self> {
        Arc::new(Self)
    }
}

impl ActiveProperty for PropertyChangeNotifier {
    fn name(&self) -> &str {
        "notify-on-property-change"
    }

    fn interests(&self) -> Interests {
        Interests::of(&[
            EventKind::PropertySet,
            EventKind::PropertyRemoved,
            EventKind::PropertyModified,
            EventKind::PropertyReordered,
        ])
    }

    fn on_event(&self, ctx: &EventCtx<'_>, event: &DocumentEvent) -> Result<()> {
        let name = event.property_name.as_deref().unwrap_or("");
        if IGNORED.contains(&name) {
            return Ok(());
        }
        let invalidation = match event.site {
            Some(EventSite::Reference(user)) => Invalidation::UserDocument(event.doc, user),
            _ => Invalidation::Document(event.doc),
        };
        ctx.bus.post(invalidation);
        Ok(())
    }
}

/// Timer-polls external sources and invalidates the document when any of
/// them changed — the notifier-side answer to cause 4.
pub struct ExternalChangeNotifier {
    sources: Vec<Arc<dyn ExternalSource>>,
    seen: Mutex<Vec<u64>>,
}

impl ExternalChangeNotifier {
    /// Creates a notifier over `sources`, pinned to their current epochs.
    pub fn over(sources: Vec<Arc<dyn ExternalSource>>) -> Arc<Self> {
        let seen = sources.iter().map(|s| s.epoch()).collect();
        Arc::new(Self {
            sources,
            seen: Mutex::new(seen),
        })
    }
}

impl ActiveProperty for ExternalChangeNotifier {
    fn name(&self) -> &str {
        "notify-on-external-change"
    }

    fn interests(&self) -> Interests {
        Interests::of(&[EventKind::Timer])
    }

    fn execution_cost_micros(&self) -> u64 {
        // Each poll of the external sources costs something on the
        // middleware side; this is the "load" half of the trade-off.
        50 * self.sources.len() as u64
    }

    fn on_event(&self, ctx: &EventCtx<'_>, event: &DocumentEvent) -> Result<()> {
        if event.kind != EventKind::Timer {
            return Ok(());
        }
        let mut seen = self.seen.lock();
        let mut changed = false;
        for (pinned, source) in seen.iter_mut().zip(&self.sources) {
            let now = source.epoch();
            if now != *pinned {
                *pinned = now;
                changed = true;
            }
        }
        if changed {
            ctx.bus.post(Invalidation::Document(event.doc));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use placeless_core::prelude::*;
    use placeless_simenv::{LatencyModel, VirtualClock};

    const ALICE: UserId = UserId(1);
    const BOB: UserId = UserId(2);

    fn setup() -> (Arc<DocumentSpace>, DocumentId) {
        let space = DocumentSpace::with_middleware_cost(VirtualClock::new(), LatencyModel::FREE);
        let provider = MemoryProvider::new("t", "content", 0);
        let doc = space.create_document(ALICE, provider);
        space.add_reference(BOB, doc).unwrap();
        (space, doc)
    }

    #[test]
    fn write_notifier_fires_on_any_write() {
        let (space, doc) = setup();
        space
            .attach_active(Scope::Universal, doc, ContentWriteNotifier::any())
            .unwrap();
        space.write_document(ALICE, doc, b"new").unwrap();
        assert_eq!(space.bus().counters().0, 1);
    }

    #[test]
    fn write_notifier_except_skips_owner() {
        let (space, doc) = setup();
        space
            .attach_active(Scope::Universal, doc, ContentWriteNotifier::except(ALICE))
            .unwrap();
        space.write_document(ALICE, doc, b"own write").unwrap();
        assert_eq!(space.bus().counters().0, 0, "owner's write is silent");
        space.write_document(BOB, doc, b"other write").unwrap();
        assert_eq!(space.bus().counters().0, 1, "other user's write notifies");
    }

    #[test]
    fn property_change_notifier_scopes_invalidations() {
        use parking_lot::Mutex as PMutex;
        struct Capture(PMutex<Vec<Invalidation>>);
        impl placeless_core::notifier::InvalidationSink for Capture {
            fn cache_id(&self) -> CacheId {
                CacheId(99)
            }
            fn invalidate(&self, inv: &Invalidation) {
                self.0.lock().push(*inv);
            }
        }
        let (space, doc) = setup();
        let sink = Arc::new(Capture(PMutex::new(Vec::new())));
        space.bus().subscribe(sink.clone());
        space
            .attach_active(Scope::Universal, doc, PropertyChangeNotifier::any())
            .unwrap();
        // Personal attach: user-scoped invalidation.
        space
            .attach_static(Scope::Personal(BOB), doc, "label", "x")
            .unwrap();
        // Universal attach: document-wide invalidation.
        space
            .attach_static(Scope::Universal, doc, "public", "y")
            .unwrap();
        let seen = sink.0.lock().clone();
        assert_eq!(
            seen,
            vec![
                Invalidation::UserDocument(doc, BOB),
                Invalidation::Document(doc),
            ]
        );
    }

    #[test]
    fn property_change_notifier_ignores_other_notifiers() {
        let (space, doc) = setup();
        space
            .attach_active(Scope::Universal, doc, PropertyChangeNotifier::any())
            .unwrap();
        space
            .attach_active(Scope::Universal, doc, ContentWriteNotifier::any())
            .unwrap();
        assert_eq!(
            space.bus().counters().0,
            0,
            "attaching a notifier must not invalidate"
        );
    }

    #[test]
    fn external_change_notifier_polls_on_timer() {
        let (space, doc) = setup();
        let quotes = SimpleExternal::new("stock:XRX", "42.50");
        space
            .attach_active(
                Scope::Universal,
                doc,
                ExternalChangeNotifier::over(vec![quotes.clone()]),
            )
            .unwrap();
        space.timer_tick().unwrap();
        assert_eq!(space.bus().counters().0, 0, "no change, no invalidation");
        quotes.set("43.00");
        space.timer_tick().unwrap();
        assert_eq!(space.bus().counters().0, 1);
        space.timer_tick().unwrap();
        assert_eq!(space.bus().counters().0, 1, "epoch re-pinned after firing");
    }
}
