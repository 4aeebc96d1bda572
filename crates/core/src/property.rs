//! Properties — static labels and active behaviours attached to documents.
//!
//! Properties are the paper's core abstraction: "statements about the
//! context of a document or the intended behavior for the document". Static
//! properties are name/value labels (`budget related`,
//! `1999 workshop submission`); active properties are executable objects
//! that register for document events and may interpose custom streams on the
//! read and write paths, vote on cacheability, contribute replacement
//! costs, and ship verifiers to caches.
//!
//! Properties attached to a *base document* are **universal** (seen by every
//! user holding a reference); properties attached to a *document reference*
//! are **personal** (seen only by the reference's owner). Both live in an
//! ordered [`PropertyList`] — order matters, because transform chains
//! compose in attachment order and reordering is one of the paper's four
//! invalidation causes.

use crate::cacheability::Cacheability;
use crate::content::PropertyValue;
use crate::cost::ReplacementCost;
use crate::digest::Signature;
use crate::error::{PlacelessError, Result};
use crate::event::{DocumentEvent, EventSite, Interests};
use crate::id::{DocumentId, PropertyId, UserId};
use crate::notifier::InvalidationBus;
use crate::streams::{InputStream, OutputStream};
use crate::verifier::Verifier;
use parking_lot::Mutex;
use placeless_simenv::VirtualClock;
use std::sync::Arc;

/// A snapshot of the static property values visible on a read/write path,
/// personal (reference) values shadowing universal (base) ones.
#[derive(Debug, Clone, Default)]
pub struct PropsSnapshot {
    pairs: Vec<(String, PropertyValue)>,
}

impl PropsSnapshot {
    /// Builds a snapshot; earlier pairs shadow later ones, so callers push
    /// reference-scope values before base-scope values.
    pub fn from_pairs(pairs: Vec<(String, PropertyValue)>) -> Self {
        Self { pairs }
    }

    /// Looks up the first (most personal) value under `name`.
    pub fn get(&self, name: &str) -> Option<&PropertyValue> {
        self.pairs.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }

    /// Returns the number of visible static properties.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Returns `true` if no static properties are visible.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }
}

/// Context handed to a property while a read or write path is assembled.
pub struct PathCtx<'a> {
    /// The shared virtual clock; properties charge their execution time
    /// against it.
    pub clock: &'a VirtualClock,
    /// The base document the path is for.
    pub doc: DocumentId,
    /// The user whose reference initiated the path.
    pub user: UserId,
    /// Where the executing property is attached.
    pub site: EventSite,
    /// Static property values visible on this path (personal shadowing
    /// universal), so properties can depend on e.g. `preferredLanguage`.
    pub props: &'a PropsSnapshot,
}

/// Per-stage record of one property's contribution to a read path.
///
/// Produced by the staged transform plan ([`crate::plan::TransformPlan`])
/// so callers can see *where* a read spent its time and which stages were
/// satisfied from the cache's intermediate-result store.
#[derive(Debug, Clone)]
pub struct StageRecord {
    /// The property's name.
    pub name: String,
    /// Where the property is attached (base or a user's reference).
    pub site: EventSite,
    /// The stage's declared execution cost in microseconds. Recorded even
    /// when the stage was served from cache (it still contributes to the
    /// entry's replacement cost — the cost to reproduce without a cache).
    pub cost_micros: u64,
    /// `true` if the stage output came from the intermediate-result cache
    /// instead of executing the transform.
    pub cached: bool,
    /// The stage signature, when the stage is content-addressable
    /// (`None` for opaque stages that declared no transform token).
    pub signature: Option<Signature>,
    /// How many bytes the stage produced (its output length). Zero when
    /// unknown — stream-wrapped replays observe no byte count, and cache
    /// hits adopt the stored entry's length instead.
    pub bytes: u64,
}

/// What the read path reports back alongside the content stream.
///
/// As the bit-provider and each property execute, they accumulate the three
/// things the cache needs: the cacheability indicator, the replacement cost,
/// and the verifier set.
pub struct PathReport {
    /// Aggregated (most restrictive) cacheability vote.
    pub cacheability: Cacheability,
    /// Accumulated replacement cost.
    pub cost: ReplacementCost,
    /// Verifiers the cache must run on every hit.
    pub verifiers: Vec<Box<dyn Verifier>>,
    /// Names of the properties that executed, in execution order.
    pub executed: Vec<String>,
    /// Per-stage cost/hit breakdown, in execution order (one record per
    /// chain stage when the path was driven by a [`crate::plan::TransformPlan`]).
    pub stages: Vec<StageRecord>,
    /// Whether a QoS property demanded the entry be pinned (never
    /// evicted) — the `always available` requirement.
    pub pinned: bool,
}

impl PathReport {
    /// Creates a report with an initial fetch cost from the bit-provider.
    pub fn new(fetch_cost_micros: u64) -> Self {
        Self {
            cacheability: Cacheability::Unrestricted,
            cost: ReplacementCost::from_fetch(fetch_cost_micros),
            verifiers: Vec::new(),
            executed: Vec::new(),
            stages: Vec::new(),
            pinned: false,
        }
    }

    /// Registers a cacheability vote (kept if more restrictive).
    pub fn vote(&mut self, vote: Cacheability) {
        self.cacheability = self.cacheability.combine(vote);
    }

    /// Adds a property execution cost.
    pub fn add_cost(&mut self, micros: u64) {
        self.cost.add_micros(micros);
    }

    /// Applies a QoS cost-inflation factor.
    pub fn inflate_cost(&mut self, factor: f64) {
        self.cost.inflate(factor);
    }

    /// Ships a verifier to the cache.
    pub fn add_verifier(&mut self, verifier: Box<dyn Verifier>) {
        self.verifiers.push(verifier);
    }

    /// Requests that the cache pin the entry (never evict it).
    pub fn pin(&mut self) {
        self.pinned = true;
    }

    /// Records a per-stage breakdown entry.
    pub fn record_stage(&mut self, record: StageRecord) {
        self.stages.push(record);
    }

    /// Returns how many stages were served from the intermediate cache.
    pub fn stage_hits(&self) -> usize {
        self.stages.iter().filter(|s| s.cached).count()
    }
}

impl Default for PathReport {
    fn default() -> Self {
        Self::new(0)
    }
}

impl std::fmt::Debug for PathReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PathReport")
            .field("cacheability", &self.cacheability)
            .field("cost", &self.cost)
            .field("verifiers", &self.verifiers.len())
            .field("executed", &self.executed)
            .field("stages", &self.stages)
            .field("pinned", &self.pinned)
            .finish()
    }
}

/// A deferred mutation requested by a property during event handling.
///
/// Properties may not mutate the document they are attached to while the
/// middleware holds its locks; instead they queue follow-ups which the
/// document space applies after dispatch completes. The versioning property
/// uses this to add its `version:N` links to the base document.
#[derive(Debug, Clone)]
pub enum FollowUp {
    /// Attach a static property.
    AttachStatic {
        /// Document to attach to.
        doc: DocumentId,
        /// Base or a user's reference.
        site: EventSite,
        /// Property name.
        name: String,
        /// Property value.
        value: PropertyValue,
    },
}

/// Context handed to a property when a registered event fires.
pub struct EventCtx<'a> {
    /// The shared virtual clock.
    pub clock: &'a VirtualClock,
    /// The invalidation bus; notifier properties post here.
    pub bus: &'a InvalidationBus,
    followups: Mutex<Vec<FollowUp>>,
}

impl<'a> EventCtx<'a> {
    /// Creates an event context.
    pub fn new(clock: &'a VirtualClock, bus: &'a InvalidationBus) -> Self {
        Self {
            clock,
            bus,
            followups: Mutex::new(Vec::new()),
        }
    }

    /// Queues a deferred mutation to apply after dispatch.
    pub fn request(&self, followup: FollowUp) {
        self.followups.lock().push(followup);
    }

    /// Drains the queued follow-ups (used by the document space).
    pub fn take_followups(&self) -> Vec<FollowUp> {
        std::mem::take(&mut self.followups.lock())
    }
}

/// An executable behaviour attached to a document.
///
/// Implementations override the hooks for the events they register for in
/// [`ActiveProperty::interests`]:
///
/// * `wrap_input` runs while a `GetInputStream` path is assembled and may
///   interpose a custom input stream;
/// * `wrap_output` is the write-path mirror;
/// * `on_event` handles non-stream events (property mutations, timers,
///   content-written, forwarded cache events).
///
/// The default hook implementations do nothing, so a label-like property
/// only implements what it needs.
pub trait ActiveProperty: Send + Sync {
    /// Returns the property's name (unique per document is conventional,
    /// not enforced).
    fn name(&self) -> &str;

    /// Returns the events this property registers for. The space reads a
    /// personal property's set when it is attached or replaced, not per
    /// event, and a document event of a kind none of the document's
    /// personal properties registered for skips its references, so the set
    /// must stay constant for the life of the instance: a property that
    /// wants other events is replaced.
    fn interests(&self) -> Interests;

    /// Returns the simulated execution cost charged each time the property
    /// runs on a path, in microseconds. This is also the value added to the
    /// document's replacement cost, following the prototype ("the cost
    /// values used in the implementation are the execution times of each of
    /// the active properties").
    fn execution_cost_micros(&self) -> u64 {
        0
    }

    /// Interposes on the read path. The default passes `inner` through.
    fn wrap_input(
        &self,
        _ctx: &PathCtx<'_>,
        _report: &mut PathReport,
        inner: Box<dyn InputStream>,
    ) -> Result<Box<dyn InputStream>> {
        Ok(inner)
    }

    /// Interposes on the write path. The default passes `inner` through.
    fn wrap_output(
        &self,
        _ctx: &PathCtx<'_>,
        _report: &mut PathReport,
        inner: Box<dyn OutputStream>,
    ) -> Result<Box<dyn OutputStream>> {
        Ok(inner)
    }

    /// Handles a non-stream event. The default ignores it.
    fn on_event(&self, _ctx: &EventCtx<'_>, _event: &DocumentEvent) -> Result<()> {
        Ok(())
    }

    /// The property's cacheability requirement for *writes* (§3: "With a
    /// write-back cache, active properties on the write-path may need to
    /// register their cacheability requirements as well"). Most properties
    /// are content to execute on the write-back flush
    /// ([`Cacheability::Unrestricted`]); a property that must "know exactly
    /// when each write-operation occurs" returns
    /// [`Cacheability::CacheableWithEvents`] so the cache forwards
    /// `CacheWrite` events per buffered write.
    fn write_cacheability(&self) -> Cacheability {
        Cacheability::Unrestricted
    }

    /// Declares the property's read-path transform as content-addressable.
    ///
    /// The returned token must change whenever the transform *function*
    /// changes: it should fold in the property's parameters, any static
    /// property values the transform reads from [`PathCtx::props`], and a
    /// `(name, epoch)` pair for every external input. The plan compiler
    /// hashes `(input signature, property name, token)` into a *stage
    /// signature* under which the cache may retain the stage's output; a
    /// stale token would therefore serve stale bytes.
    ///
    /// The default (`None`) marks the stage *opaque*: its output is never
    /// cached, it executes on every read, and the signature chain restarts
    /// from a digest of its actual output so downstream stages remain
    /// cacheable. Properties whose `wrap_input` has side effects beyond the
    /// pure byte transform (or that cannot enumerate their inputs) must
    /// keep the default.
    fn transform_token(&self, _ctx: &PathCtx<'_>) -> Option<Vec<u8>> {
        None
    }
}

/// A property attached to a document: either a static label or an active
/// behaviour.
#[derive(Clone)]
pub enum AttachedProperty {
    /// A static name/value label.
    Static {
        /// Property name.
        name: String,
        /// Property value.
        value: PropertyValue,
    },
    /// An active property object.
    Active(Arc<dyn ActiveProperty>),
}

impl AttachedProperty {
    /// Returns the property's name.
    pub fn name(&self) -> &str {
        match self {
            AttachedProperty::Static { name, .. } => name,
            AttachedProperty::Active(p) => p.name(),
        }
    }

    /// Returns the active property, if this is one.
    pub fn as_active(&self) -> Option<&Arc<dyn ActiveProperty>> {
        match self {
            AttachedProperty::Active(p) => Some(p),
            AttachedProperty::Static { .. } => None,
        }
    }

    /// Returns the static value, if this is a static property.
    pub fn as_static(&self) -> Option<&PropertyValue> {
        match self {
            AttachedProperty::Static { value, .. } => Some(value),
            AttachedProperty::Active(_) => None,
        }
    }
}

impl std::fmt::Debug for AttachedProperty {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AttachedProperty::Static { name, value } => {
                write!(f, "Static({name}={value})")
            }
            AttachedProperty::Active(p) => write!(f, "Active({})", p.name()),
        }
    }
}

/// One attached property with its identity.
#[derive(Debug, Clone)]
pub struct PropertySlot {
    /// The property's id within its document space.
    pub id: PropertyId,
    /// The property itself.
    pub prop: AttachedProperty,
}

/// An ordered collection of properties attached to a base document or to a
/// document reference.
#[derive(Debug, Default)]
pub struct PropertyList {
    slots: Vec<PropertySlot>,
}

impl PropertyList {
    /// Creates an empty list.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a property under the given id.
    pub fn attach(&mut self, id: PropertyId, prop: AttachedProperty) {
        self.slots.push(PropertySlot { id, prop });
    }

    /// Removes a property by id, returning it.
    pub fn remove(&mut self, id: PropertyId) -> Result<AttachedProperty> {
        match self.slots.iter().position(|s| s.id == id) {
            Some(i) => Ok(self.slots.remove(i).prop),
            None => Err(PlacelessError::NoSuchProperty(id)),
        }
    }

    /// Replaces a property in place (a *modification*, e.g. upgrading the
    /// spelling corrector to a new release), preserving its position.
    pub fn replace(&mut self, id: PropertyId, prop: AttachedProperty) -> Result<()> {
        match self.slots.iter_mut().find(|s| s.id == id) {
            Some(slot) => {
                slot.prop = prop;
                Ok(())
            }
            None => Err(PlacelessError::NoSuchProperty(id)),
        }
    }

    /// Moves a property to a new index (a *reorder*; clamped to the end).
    pub fn move_to(&mut self, id: PropertyId, index: usize) -> Result<()> {
        let from = self
            .slots
            .iter()
            .position(|s| s.id == id)
            .ok_or(PlacelessError::NoSuchProperty(id))?;
        let slot = self.slots.remove(from);
        let index = index.min(self.slots.len());
        self.slots.insert(index, slot);
        Ok(())
    }

    /// Looks up a property by id.
    pub fn get(&self, id: PropertyId) -> Option<&PropertySlot> {
        self.slots.iter().find(|s| s.id == id)
    }

    /// Looks up the first property with the given name.
    pub fn find_by_name(&self, name: &str) -> Option<&PropertySlot> {
        self.slots.iter().find(|s| s.prop.name() == name)
    }

    /// Returns the value of the first *static* property with this name.
    pub fn static_value(&self, name: &str) -> Option<&PropertyValue> {
        self.slots
            .iter()
            .filter(|s| s.prop.name() == name)
            .find_map(|s| s.prop.as_static())
    }

    /// Iterates over all slots in order.
    pub fn iter(&self) -> impl Iterator<Item = &PropertySlot> {
        self.slots.iter()
    }

    /// Iterates over the active properties in order.
    pub fn actives(&self) -> impl Iterator<Item = &Arc<dyn ActiveProperty>> {
        self.slots.iter().filter_map(|s| s.prop.as_active())
    }

    /// Returns the active properties interested in `kind`, in order.
    pub fn interested(&self, kind: crate::event::EventKind) -> Vec<Arc<dyn ActiveProperty>> {
        self.actives()
            .filter(|p| p.interests().contains(kind))
            .cloned()
            .collect()
    }

    /// Returns the union of its active properties' interests.
    pub fn interests(&self) -> Interests {
        self.actives()
            .fold(Interests::NONE, |all, p| all.union(p.interests()))
    }

    /// Collects `(name, value)` pairs of all static properties, in order.
    pub fn static_pairs(&self) -> Vec<(String, PropertyValue)> {
        self.slots
            .iter()
            .filter_map(|s| match &s.prop {
                AttachedProperty::Static { name, value } => Some((name.clone(), value.clone())),
                AttachedProperty::Active(_) => None,
            })
            .collect()
    }

    /// Returns the number of attached properties.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Returns `true` if no properties are attached.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    struct Dummy {
        name: String,
        interests: Interests,
    }

    impl Dummy {
        fn arc(name: &str, interests: Interests) -> Arc<dyn ActiveProperty> {
            Arc::new(Self {
                name: name.to_owned(),
                interests,
            })
        }
    }

    impl ActiveProperty for Dummy {
        fn name(&self) -> &str {
            &self.name
        }
        fn interests(&self) -> Interests {
            self.interests
        }
    }

    fn stat(name: &str, value: &str) -> AttachedProperty {
        AttachedProperty::Static {
            name: name.to_owned(),
            value: value.into(),
        }
    }

    #[test]
    fn attach_remove_roundtrip() {
        let mut list = PropertyList::new();
        list.attach(PropertyId(1), stat("budget related", "yes"));
        assert_eq!(list.len(), 1);
        let removed = list.remove(PropertyId(1)).unwrap();
        assert_eq!(removed.name(), "budget related");
        assert!(list.is_empty());
        assert_eq!(
            list.remove(PropertyId(1)).unwrap_err(),
            PlacelessError::NoSuchProperty(PropertyId(1))
        );
    }

    #[test]
    fn replace_preserves_position() {
        let mut list = PropertyList::new();
        list.attach(PropertyId(1), stat("a", "1"));
        list.attach(PropertyId(2), stat("b", "2"));
        list.attach(PropertyId(3), stat("c", "3"));
        list.replace(PropertyId(2), stat("b2", "2.1")).unwrap();
        let names: Vec<&str> = list.iter().map(|s| s.prop.name()).collect();
        assert_eq!(names, vec!["a", "b2", "c"]);
        assert!(list.replace(PropertyId(9), stat("x", "x")).is_err());
    }

    #[test]
    fn move_to_reorders() {
        let mut list = PropertyList::new();
        list.attach(PropertyId(1), stat("a", ""));
        list.attach(PropertyId(2), stat("b", ""));
        list.attach(PropertyId(3), stat("c", ""));
        list.move_to(PropertyId(3), 0).unwrap();
        let names: Vec<&str> = list.iter().map(|s| s.prop.name()).collect();
        assert_eq!(names, vec!["c", "a", "b"]);
        // Clamped past the end.
        list.move_to(PropertyId(3), 99).unwrap();
        let names: Vec<&str> = list.iter().map(|s| s.prop.name()).collect();
        assert_eq!(names, vec!["a", "b", "c"]);
    }

    #[test]
    fn interested_filters_by_kind_in_order() {
        let mut list = PropertyList::new();
        list.attach(
            PropertyId(1),
            AttachedProperty::Active(Dummy::arc(
                "reader",
                Interests::of(&[EventKind::GetInputStream]),
            )),
        );
        list.attach(PropertyId(2), stat("label", "x"));
        list.attach(
            PropertyId(3),
            AttachedProperty::Active(Dummy::arc(
                "both",
                Interests::of(&[EventKind::GetInputStream, EventKind::Timer]),
            )),
        );
        let on_read = list.interested(EventKind::GetInputStream);
        assert_eq!(
            on_read.iter().map(|p| p.name()).collect::<Vec<_>>(),
            vec!["reader", "both"]
        );
        let on_timer = list.interested(EventKind::Timer);
        assert_eq!(on_timer.len(), 1);
        assert_eq!(on_timer[0].name(), "both");
        assert!(list.interested(EventKind::ContentWritten).is_empty());
    }

    #[test]
    fn static_value_skips_actives_with_same_name() {
        let mut list = PropertyList::new();
        list.attach(
            PropertyId(1),
            AttachedProperty::Active(Dummy::arc("lang", Interests::NONE)),
        );
        list.attach(PropertyId(2), stat("lang", "fr"));
        assert_eq!(list.static_value("lang").unwrap().as_str(), Some("fr"));
        assert_eq!(list.static_value("missing"), None);
    }

    #[test]
    fn snapshot_personal_shadows_universal() {
        let snap = PropsSnapshot::from_pairs(vec![
            ("lang".into(), "fr".into()),
            ("lang".into(), "en".into()),
            ("site".into(), "parc".into()),
        ]);
        assert_eq!(snap.get("lang").unwrap().as_str(), Some("fr"));
        assert_eq!(snap.get("site").unwrap().as_str(), Some("parc"));
        assert!(snap.get("other").is_none());
        assert_eq!(snap.len(), 3);
    }

    #[test]
    fn report_aggregates_votes_and_costs() {
        let mut report = PathReport::new(1_000);
        report.vote(Cacheability::Unrestricted);
        report.vote(Cacheability::CacheableWithEvents);
        report.add_cost(500);
        report.inflate_cost(2.0);
        assert_eq!(report.cacheability, Cacheability::CacheableWithEvents);
        assert_eq!(report.cost.raw_micros(), 1_500.0);
        assert_eq!(report.cost.effective_micros(), 3_000.0);
    }

    #[test]
    fn event_ctx_collects_followups() {
        let clock = VirtualClock::new();
        let bus = InvalidationBus::new();
        let ctx = EventCtx::new(&clock, &bus);
        ctx.request(FollowUp::AttachStatic {
            doc: DocumentId(1),
            site: EventSite::Base,
            name: "version:1".into(),
            value: "snapshot".into(),
        });
        let taken = ctx.take_followups();
        assert_eq!(taken.len(), 1);
        assert!(ctx.take_followups().is_empty(), "drained");
    }

    #[test]
    fn default_hooks_pass_through() {
        let prop = Dummy::arc("noop", Interests::NONE);
        let clock = VirtualClock::new();
        let snap = PropsSnapshot::default();
        let ctx = PathCtx {
            clock: &clock,
            doc: DocumentId(1),
            user: UserId(1),
            site: EventSite::Base,
            props: &snap,
        };
        let mut report = PathReport::default();
        let inner: Box<dyn InputStream> = Box::new(crate::streams::MemoryInput::new(
            bytes::Bytes::from_static(b"data"),
        ));
        let mut wrapped = prop.wrap_input(&ctx, &mut report, inner).unwrap();
        assert_eq!(crate::streams::read_all(wrapped.as_mut()).unwrap(), "data");
    }
}
