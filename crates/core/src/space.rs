//! The document space: the Placeless middleware API.
//!
//! A [`DocumentSpace`] manages base documents and per-user references,
//! dispatches document events to registered active properties, assembles the
//! read and write paths (interposing each property's custom streams in the
//! order the paper prescribes), and applies the follow-up mutations
//! properties request.
//!
//! Path order (§2):
//! * **read** — bit-provider → base properties (attachment order) →
//!   reference properties → application;
//! * **write** — application → reference properties → base properties →
//!   bit-provider (the mirror image).

use crate::bitprovider::BitProvider;
use crate::collection::Collections;
use crate::content::{Params, PropertyValue};
use crate::describe::{DocumentDescription, PropertyInfo};
use crate::document::{BaseDocument, DocumentReference};
use crate::error::{PlacelessError, Result};
use crate::event::{DocumentEvent, EventKind, EventSite};
use crate::id::{DocumentId, IdAllocator, PropertyId, UserId};
use crate::keymap::KeyMap;
use crate::notifier::InvalidationBus;
use crate::plan::TransformPlan;
use crate::property::{
    ActiveProperty, AttachedProperty, EventCtx, FollowUp, PathReport, PropsSnapshot,
};
use crate::registry::PropertyRegistry;
use crate::streams::{read_all, write_all_bytes, CollectOutput, OutputStream};
use bytes::Bytes;
use parking_lot::{Mutex, RwLock};
use placeless_simenv::{LatencyModel, VirtualClock};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A snapshot of one document's *base half* of the read chain, issued by
/// [`DocumentSpace::read_plan_cached`] and held by a cache across reads.
///
/// The lease carries the user-independent inputs of plan compilation — the
/// bit-provider handle, the universal properties interested in the read
/// path, and the universal static pairs — stamped with the base document's
/// chain epoch at capture. While the epoch still matches, the space can
/// compile a user's read plan from the lease plus a fresh personal half in
/// a single middleware hop. Any universal property mutation bumps the
/// epoch and silently retires every outstanding lease; nothing else about
/// a document can invalidate one, because everything else (personal
/// properties, static shadowing, transform tokens) is re-read on every
/// compile.
pub struct BaseChainLease {
    /// The document the lease covers.
    pub doc: DocumentId,
    /// The base chain epoch at capture time.
    pub epoch: u64,
    provider: Arc<dyn BitProvider>,
    base_props: Vec<Arc<dyn ActiveProperty>>,
    universal_pairs: Vec<(String, PropertyValue)>,
}

impl std::fmt::Debug for BaseChainLease {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BaseChainLease")
            .field("doc", &self.doc)
            .field("epoch", &self.epoch)
            .field("base_props", &self.base_props.len())
            .field("universal_pairs", &self.universal_pairs.len())
            .finish()
    }
}

/// What [`DocumentSpace::compile_plan`] compiles, and where it takes the
/// base half of the chain from.
#[derive(Clone, Copy)]
enum Compile<'a> {
    /// A write path's chain, uncharged: the caller charges its hops.
    Write,
    /// A read path's chain, from the space: two hops.
    Read,
    /// A read path's chain, its base half from the lease while that is
    /// current (one hop), else from the space with a lease issued (two).
    Leased(Option<&'a Arc<BaseChainLease>>),
}

/// Where a property operation targets: the base (universal) or a user's
/// reference (personal).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// The base document — universal properties.
    Universal,
    /// A user's reference — personal properties.
    Personal(UserId),
}

impl Scope {
    fn site(self) -> EventSite {
        match self {
            Scope::Universal => EventSite::Base,
            Scope::Personal(u) => EventSite::Reference(u),
        }
    }
}

struct Inner {
    bases: KeyMap<DocumentId, BaseDocument>,
    /// Keyed by `(user, document)` for the read path's single lookup. The
    /// per-document view is [`BaseDocument::holders`]: `(u, d)` is a key
    /// here exactly when `u` is in `bases[d].holders`, and only the three
    /// functions below change either side.
    refs: KeyMap<(UserId, DocumentId), DocumentReference>,
}

impl Inner {
    /// Gives `user` a reference to `doc` unless one exists. `false` when
    /// the document does not.
    fn add_reference(&mut self, user: UserId, doc: DocumentId) -> bool {
        let Some(base) = self.bases.get_mut(&doc) else {
            return false;
        };
        if base.holders.insert(user) {
            self.refs
                .insert((user, doc), DocumentReference::new(user, doc));
        }
        true
    }

    /// Drops `user`'s reference to `doc`. `false` when there was none.
    fn remove_reference(&mut self, user: UserId, doc: DocumentId) -> bool {
        if self.refs.remove(&(user, doc)).is_none() {
            return false;
        }
        if let Some(base) = self.bases.get_mut(&doc) {
            base.holders.remove(&user);
        }
        true
    }

    /// Removes `doc`'s base and the references of exactly its holders.
    /// `false` when the document does not exist.
    fn delete_document(&mut self, doc: DocumentId) -> bool {
        let Some(base) = self.bases.remove(&doc) else {
            return false;
        };
        for user in base.holders {
            self.refs.remove(&(user, doc));
        }
        true
    }
}

/// The Placeless Documents middleware.
///
/// Construct with [`DocumentSpace::new`] and keep behind an [`Arc`]; the
/// write path captures a handle so it can fire `ContentWritten` when the
/// application closes its stream.
pub struct DocumentSpace {
    clock: VirtualClock,
    bus: Arc<InvalidationBus>,
    ids: IdAllocator,
    registry: PropertyRegistry,
    middleware: LatencyModel,
    inner: RwLock<Inner>,
    collections: Collections,
    ops: AtomicU64,
}

impl DocumentSpace {
    /// Creates a space over `clock` with the default middleware service
    /// cost (300 µs per operation + 50 µs per KB, modelling the two
    /// Placeless server hops of the prototype).
    pub fn new(clock: VirtualClock) -> Arc<Self> {
        Self::with_middleware_cost(clock, LatencyModel::new(300, 50))
    }

    /// Creates a space with an explicit middleware cost model.
    pub fn with_middleware_cost(clock: VirtualClock, middleware: LatencyModel) -> Arc<Self> {
        Arc::new(Self {
            clock,
            bus: InvalidationBus::new(),
            ids: IdAllocator::new(),
            registry: PropertyRegistry::new(),
            middleware,
            inner: RwLock::new(Inner {
                bases: KeyMap::default(),
                refs: KeyMap::default(),
            }),
            collections: Collections::new(),
            ops: AtomicU64::new(0),
        })
    }

    /// Returns the space's virtual clock.
    pub fn clock(&self) -> &VirtualClock {
        &self.clock
    }

    /// Returns the invalidation bus caches subscribe to.
    pub fn bus(&self) -> &Arc<InvalidationBus> {
        &self.bus
    }

    /// Returns the property registry (for attach-by-name).
    pub fn registry(&self) -> &PropertyRegistry {
        &self.registry
    }

    /// Returns how many middleware operations have executed — the "load on
    /// the Placeless system" measured by the notifier-vs-verifier
    /// experiment.
    pub fn ops_count(&self) -> u64 {
        self.ops.load(Ordering::Relaxed)
    }

    fn charge_op(&self, bytes: u64) {
        self.ops.fetch_add(1, Ordering::Relaxed);
        self.middleware.charge(&self.clock, bytes);
    }

    /// Records what a property mutation changed: a universal one advances
    /// `doc`'s chain epoch, a personal one adds its list's interests to
    /// the document's `listening`. Must run under the `inner` write lock,
    /// in the same critical section as the mutation itself.
    fn record_mutation(inner: &mut Inner, scope: Scope, doc: DocumentId) {
        let base = inner.bases.get_mut(&doc).expect("the mutation found it");
        match scope {
            Scope::Universal => base.chain_epoch += 1,
            Scope::Personal(user) => {
                let registered = inner.refs[&(user, doc)].personal.interests();
                base.listening = base.listening.union(registered);
            }
        }
    }

    // ------------------------------------------------------------------
    // Document management
    // ------------------------------------------------------------------

    /// Creates a base document over `provider`; the creator automatically
    /// receives a reference.
    pub fn create_document(&self, owner: UserId, provider: Arc<dyn BitProvider>) -> DocumentId {
        let id = self.ids.next_document();
        let mut inner = self.inner.write();
        inner.bases.insert(id, BaseDocument::new(id, provider));
        inner.add_reference(owner, id);
        id
    }

    /// Gives `user` a reference to an existing document.
    pub fn add_reference(&self, user: UserId, doc: DocumentId) -> Result<()> {
        if !self.inner.write().add_reference(user, doc) {
            return Err(PlacelessError::NoSuchDocument(doc));
        }
        Ok(())
    }

    /// Returns `true` if `user` holds a reference to `doc`.
    pub fn has_reference(&self, user: UserId, doc: DocumentId) -> bool {
        self.inner.read().refs.contains_key(&(user, doc))
    }

    /// Returns the ids of all documents in the space.
    pub fn documents(&self) -> Vec<DocumentId> {
        let mut ids: Vec<DocumentId> = self.inner.read().bases.keys().copied().collect();
        ids.sort();
        ids
    }

    /// Returns the users holding references to `doc`.
    pub fn users_of(&self, doc: DocumentId) -> Vec<UserId> {
        let inner = self.inner.read();
        inner
            .bases
            .get(&doc)
            .map_or_else(Vec::new, |base| base.holders.iter().copied().collect())
    }

    /// Drops `user`'s reference to `doc` (personal properties included).
    /// The user's cached versions are invalidated through the bus.
    pub fn remove_reference(&self, user: UserId, doc: DocumentId) -> Result<()> {
        if !self.inner.write().remove_reference(user, doc) {
            return Err(PlacelessError::NoSuchReference(user, doc));
        }
        self.bus
            .post(crate::notifier::Invalidation::UserDocument(doc, user));
        Ok(())
    }

    /// Deletes a document entirely: base, every reference, and collection
    /// memberships. Every cached version is invalidated through the bus.
    pub fn delete_document(&self, doc: DocumentId) -> Result<()> {
        if !self.inner.write().delete_document(doc) {
            return Err(PlacelessError::NoSuchDocument(doc));
        }
        for name in self.collections.collections_of(doc) {
            self.collections.remove(&name, doc);
        }
        self.bus.post(crate::notifier::Invalidation::Document(doc));
        Ok(())
    }

    /// Describes a document as `user` sees it: provider, users, property
    /// chains, and collections.
    pub fn describe(&self, user: UserId, doc: DocumentId) -> Result<DocumentDescription> {
        let inner = self.inner.read();
        let base = inner
            .bases
            .get(&doc)
            .ok_or(PlacelessError::NoSuchDocument(doc))?;
        let reference = inner
            .refs
            .get(&(user, doc))
            .ok_or(PlacelessError::NoSuchReference(user, doc))?;
        let info = |slot: &crate::property::PropertySlot| PropertyInfo {
            id: slot.id,
            name: slot.prop.name().to_owned(),
            active: slot.prop.as_active().is_some(),
            value: slot.prop.as_static().map(|v| v.to_string()),
        };
        Ok(DocumentDescription {
            doc,
            user,
            provider: base.provider.describe(),
            users: base.holders.iter().copied().collect(),
            universal: base.universal.iter().map(info).collect(),
            personal: reference.personal.iter().map(info).collect(),
            collections: self.collections.collections_of(doc),
        })
    }

    // ------------------------------------------------------------------
    // Collections (§5: caching for related documents)
    // ------------------------------------------------------------------

    /// Adds `doc` to the named collection. Membership is also recorded as
    /// a universal `collection` static property, so the mutation flows
    /// through the normal property-event machinery.
    pub fn add_to_collection(self: &Arc<Self>, name: &str, doc: DocumentId) -> Result<()> {
        if !self.inner.read().bases.contains_key(&doc) {
            return Err(PlacelessError::NoSuchDocument(doc));
        }
        if self.collections.add(name, doc) {
            self.attach_static(Scope::Universal, doc, "collection", name)?;
        }
        Ok(())
    }

    /// Returns the members of a collection, sorted.
    pub fn collection_members(&self, name: &str) -> Vec<DocumentId> {
        self.collections.members(name)
    }

    /// Returns the collections `doc` belongs to, sorted.
    pub fn collections_of(&self, doc: DocumentId) -> Vec<String> {
        self.collections.collections_of(doc)
    }

    // ------------------------------------------------------------------
    // Property management
    // ------------------------------------------------------------------

    /// Attaches a static property, firing `PropertySet`.
    pub fn attach_static(
        self: &Arc<Self>,
        scope: Scope,
        doc: DocumentId,
        name: &str,
        value: impl Into<PropertyValue>,
    ) -> Result<PropertyId> {
        self.attach(
            scope,
            doc,
            AttachedProperty::Static {
                name: name.to_owned(),
                value: value.into(),
            },
        )
    }

    /// Attaches an active property, firing `PropertySet`.
    pub fn attach_active(
        self: &Arc<Self>,
        scope: Scope,
        doc: DocumentId,
        prop: Arc<dyn ActiveProperty>,
    ) -> Result<PropertyId> {
        self.attach(scope, doc, AttachedProperty::Active(prop))
    }

    /// Instantiates a registered property kind and attaches it.
    pub fn attach_by_name(
        self: &Arc<Self>,
        scope: Scope,
        doc: DocumentId,
        kind: &str,
        params: &Params,
    ) -> Result<PropertyId> {
        let prop = self.registry.instantiate(kind, params)?;
        self.attach_active(scope, doc, prop)
    }

    fn attach(
        self: &Arc<Self>,
        scope: Scope,
        doc: DocumentId,
        prop: AttachedProperty,
    ) -> Result<PropertyId> {
        self.charge_op(0);
        let id = self.ids.next_property();
        let name = prop.name().to_owned();
        {
            let mut inner = self.inner.write();
            self.list_mut(&mut inner, scope, doc)?.attach(id, prop);
            Self::record_mutation(&mut inner, scope, doc);
        }
        self.dispatch(
            DocumentEvent::new(EventKind::PropertySet, doc).about_property(scope.site(), id, &name),
        )?;
        Ok(id)
    }

    /// Removes a property, firing `PropertyRemoved`.
    pub fn remove_property(
        self: &Arc<Self>,
        scope: Scope,
        doc: DocumentId,
        id: PropertyId,
    ) -> Result<()> {
        self.charge_op(0);
        let removed = {
            let mut inner = self.inner.write();
            let removed = self.list_mut(&mut inner, scope, doc)?.remove(id)?;
            Self::record_mutation(&mut inner, scope, doc);
            removed
        };
        self.dispatch(
            DocumentEvent::new(EventKind::PropertyRemoved, doc).about_property(
                scope.site(),
                id,
                removed.name(),
            ),
        )
    }

    /// Replaces a property in place (a *modification*), firing
    /// `PropertyModified`.
    pub fn modify_property(
        self: &Arc<Self>,
        scope: Scope,
        doc: DocumentId,
        id: PropertyId,
        replacement: AttachedProperty,
    ) -> Result<()> {
        self.charge_op(0);
        let name = replacement.name().to_owned();
        {
            let mut inner = self.inner.write();
            self.list_mut(&mut inner, scope, doc)?
                .replace(id, replacement)?;
            Self::record_mutation(&mut inner, scope, doc);
        }
        self.dispatch(
            DocumentEvent::new(EventKind::PropertyModified, doc).about_property(
                scope.site(),
                id,
                &name,
            ),
        )
    }

    /// Moves a property to a new position, firing `PropertyReordered`.
    pub fn reorder_property(
        self: &Arc<Self>,
        scope: Scope,
        doc: DocumentId,
        id: PropertyId,
        index: usize,
    ) -> Result<()> {
        self.charge_op(0);
        let name = {
            let mut inner = self.inner.write();
            let list = self.list_mut(&mut inner, scope, doc)?;
            let name = list
                .get(id)
                .ok_or(PlacelessError::NoSuchProperty(id))?
                .prop
                .name()
                .to_owned();
            list.move_to(id, index)?;
            Self::record_mutation(&mut inner, scope, doc);
            name
        };
        self.dispatch(
            DocumentEvent::new(EventKind::PropertyReordered, doc).about_property(
                scope.site(),
                id,
                &name,
            ),
        )
    }

    /// Returns the value of the named static property, personal scope
    /// shadowing universal.
    pub fn property_value(
        &self,
        user: UserId,
        doc: DocumentId,
        name: &str,
    ) -> Option<PropertyValue> {
        let inner = self.inner.read();
        if let Some(r) = inner.refs.get(&(user, doc)) {
            if let Some(v) = r.personal.static_value(name) {
                return Some(v.clone());
            }
        }
        inner
            .bases
            .get(&doc)
            .and_then(|b| b.universal.static_value(name).cloned())
    }

    /// Lists `(id, name)` of the properties visible at a scope, in order.
    pub fn list_properties(
        &self,
        scope: Scope,
        doc: DocumentId,
    ) -> Result<Vec<(PropertyId, String)>> {
        let inner = self.inner.read();
        let list = match scope {
            Scope::Universal => {
                &inner
                    .bases
                    .get(&doc)
                    .ok_or(PlacelessError::NoSuchDocument(doc))?
                    .universal
            }
            Scope::Personal(u) => {
                &inner
                    .refs
                    .get(&(u, doc))
                    .ok_or(PlacelessError::NoSuchReference(u, doc))?
                    .personal
            }
        };
        Ok(list
            .iter()
            .map(|s| (s.id, s.prop.name().to_owned()))
            .collect())
    }

    fn list_mut<'a>(
        &self,
        inner: &'a mut Inner,
        scope: Scope,
        doc: DocumentId,
    ) -> Result<&'a mut crate::property::PropertyList> {
        match scope {
            Scope::Universal => Ok(&mut inner
                .bases
                .get_mut(&doc)
                .ok_or(PlacelessError::NoSuchDocument(doc))?
                .universal),
            Scope::Personal(user) => Ok(&mut inner
                .refs
                .get_mut(&(user, doc))
                .ok_or(PlacelessError::NoSuchReference(user, doc))?
                .personal),
        }
    }

    // ------------------------------------------------------------------
    // Read path
    // ------------------------------------------------------------------

    /// Compiles the read-path [`TransformPlan`] for `user` on `doc`,
    /// charging two middleware hops: the user's reference server and the
    /// base document's.
    ///
    /// Caches use this to walk the chain stage-by-stage with
    /// intermediate-result lookups.
    pub fn read_plan(&self, user: UserId, doc: DocumentId) -> Result<TransformPlan> {
        Ok(self.compile_plan(user, doc, Compile::Read)?.0)
    }

    /// Compiles the read-path plan, reusing a previously issued
    /// [`BaseChainLease`] when it is still current.
    ///
    /// With a valid lease the base half of the chain (provider handle,
    /// universal properties, universal statics) comes from the lease and
    /// only **one** middleware hop is charged — the user's reference
    /// server, which tracks base-chain epochs through the same event
    /// machinery that feeds notifiers and validates the lease as part of
    /// admitting the request. The personal half (reference properties and
    /// personal statics) is always read fresh, and transform tokens are
    /// always recaptured at compile time, so per-user state and
    /// external-input epochs can never go stale through a lease.
    ///
    /// A missing, foreign, or out-of-epoch lease falls back to the full
    /// two-hop compile of [`Self::read_plan`] and returns a fresh lease.
    ///
    /// Returns `(plan, lease, reused)` where `reused` says whether the
    /// passed lease was honoured.
    pub fn read_plan_cached(
        &self,
        user: UserId,
        doc: DocumentId,
        lease: Option<&Arc<BaseChainLease>>,
    ) -> Result<(TransformPlan, Arc<BaseChainLease>, bool)> {
        let (plan, used) = self.compile_plan(user, doc, Compile::Leased(lease))?;
        let used = used.expect("a leased compile returns its lease");
        let reused = lease.is_some_and(|lease| Arc::ptr_eq(lease, &used));
        Ok((plan, used, reused))
    }

    /// Returns the origin key of `doc`'s bit-provider — the grouping key
    /// the cache's per-provider circuit breakers use.
    pub fn origin_of(&self, doc: DocumentId) -> Option<String> {
        self.inner
            .read()
            .bases
            .get(&doc)
            .map(|base| base.provider.origin_key())
    }

    /// Reads a document to completion through the full property path: the
    /// plan's seeded report, the provider's bytes, then every stage through
    /// [`TransformPlan::run_stage_streaming`], the executor the cache's
    /// staged walk runs too.
    pub fn read_document(&self, user: UserId, doc: DocumentId) -> Result<(Bytes, PathReport)> {
        let plan = self.read_plan(user, doc)?;
        let mut report = plan.seed_report(&self.clock);
        let mut bytes = read_all(plan.provider.open_input(&self.clock)?.as_mut())?;
        for index in 0..plan.len() {
            (bytes, _) =
                plan.run_stage_streaming(&self.clock, index, &mut report, bytes, None, None)?;
        }
        Ok((bytes, report))
    }

    // ------------------------------------------------------------------
    // Write path
    // ------------------------------------------------------------------

    /// Aggregates the write-path cacheability requirements for `user` on
    /// `doc`: the most restrictive vote of every property registered for
    /// `GetOutputStream`, plus the provider's vote. Write-back caches
    /// consult this to decide whether buffered writes must forward
    /// `CacheWrite` events.
    pub fn write_cacheability(
        &self,
        user: UserId,
        doc: DocumentId,
    ) -> Result<crate::cacheability::Cacheability> {
        let plan = self.compile_plan(user, doc, Compile::Write)?.0;
        Ok(plan.write_cacheability())
    }

    /// Writes a complete document through the full property path: the
    /// reference's properties first, then the base's, then the
    /// bit-provider; `ContentWritten` fires once the provider committed.
    /// A group of [`Self::write_documents`] with one entry.
    pub fn write_document(
        self: &Arc<Self>,
        user: UserId,
        doc: DocumentId,
        data: &[u8],
    ) -> Result<()> {
        let write = BatchWrite::new(user, doc, Bytes::copy_from_slice(data));
        let mut results = self.write_documents(std::slice::from_ref(&write));
        results.pop().unwrap_or(Err(PlacelessError::StreamClosed))
    }

    /// Writes several complete documents as one *grouped origin
    /// operation*, returning one result per entry, in entry order.
    ///
    /// The two middleware hops are charged once for the whole group — the
    /// amortization the write-back cache's batched flush scheduler
    /// exists to collect. Every entry still runs its own full property
    /// chain, and runs of consecutive entries sharing a bit-provider
    /// commit through [`BitProvider::commit_batch`] in a single
    /// repository round-trip when the provider supports it (per-entry
    /// [`BitProvider::open_output`] commits otherwise). Per-entry
    /// semantics are unchanged: a chain or commit failure fails only
    /// that entry, and `ContentWritten` fires for each entry whose
    /// commit succeeded.
    pub fn write_documents(self: &Arc<Self>, writes: &[BatchWrite]) -> Vec<Result<()>> {
        enum Slot {
            Ready(TransformPlan, Bytes),
            Failed(PlacelessError),
        }
        if writes.is_empty() {
            return Vec::new();
        }
        // Two middleware hops cover the whole group.
        self.charge_op(0);
        self.charge_op(0);
        // Run each entry's property chain into a collector first, so the
        // provider sees the post-transform payload. Op-carrying entries
        // resolve their content against a batch-local view map: the first
        // op entry for a document applies onto its `base`, or reads the
        // origin's current rendition when it carries none, and every later
        // same-document entry composes on the batch's accumulated view, so
        // entries in one group never clobber each other.
        let mut batch_view: KeyMap<DocumentId, Bytes> = KeyMap::default();
        let mut slots: Vec<Slot> = Vec::with_capacity(writes.len());
        for w in writes {
            let plan = match self.compile_plan(w.user, w.doc, Compile::Write) {
                Ok((plan, _)) => plan,
                Err(error) => {
                    slots.push(Slot::Failed(error));
                    continue;
                }
            };
            if !plan.provider.writable() {
                slots.push(Slot::Failed(PlacelessError::ReadOnly(w.doc)));
                continue;
            }
            let content = if w.ops.is_empty() {
                w.data.clone()
            } else {
                let base = match batch_view.get(&w.doc).or(w.base.as_ref()) {
                    Some(view) => view.clone(),
                    None => match self.read_document(w.user, w.doc) {
                        Ok((bytes, _)) => bytes,
                        Err(error) => {
                            slots.push(Slot::Failed(error));
                            continue;
                        }
                    },
                };
                crate::op::apply_all(&base, &w.ops)
            };
            batch_view.insert(w.doc, content.clone());
            match self.run_write_chain(&plan, content) {
                Ok(payload) => slots.push(Slot::Ready(plan, payload)),
                Err(error) => slots.push(Slot::Failed(error)),
            }
        }
        let mut results: Vec<Result<()>> = slots.iter().map(|_| Ok(())).collect();
        let mut i = 0;
        while i < slots.len() {
            let Slot::Ready(plan, _) = &slots[i] else {
                if let Slot::Failed(error) = &slots[i] {
                    results[i] = Err(error.clone());
                }
                i += 1;
                continue;
            };
            // Extend the run over consecutive ready entries that share
            // this provider instance; entry order within the run is
            // preserved, so same-document writes land newest-last.
            let provider = Arc::clone(&plan.provider);
            let mut payloads: Vec<Bytes> = Vec::new();
            let mut j = i;
            while j < slots.len() {
                match &slots[j] {
                    Slot::Ready(p, bytes) if Arc::ptr_eq(&p.provider, &provider) => {
                        payloads.push(bytes.clone());
                        j += 1;
                    }
                    _ => break,
                }
            }
            let committed = match provider.commit_batch(&self.clock, &payloads) {
                Some(committed) => committed,
                // The provider cannot batch: fall back to one sink
                // round-trip per payload, each failing independently.
                None => payloads
                    .iter()
                    .map(|bytes| {
                        let mut sink = provider.open_output(&self.clock)?;
                        write_all_bytes(sink.as_mut(), bytes.clone())?;
                        sink.close()
                    })
                    .collect(),
            };
            debug_assert_eq!(committed.len(), payloads.len());
            for offset in 0..payloads.len() {
                let w = &writes[i + offset];
                let result = committed
                    .get(offset)
                    .cloned()
                    .unwrap_or(Err(PlacelessError::StreamClosed));
                results[i + offset] = result.and_then(|()| {
                    // Property ops ride the content commit: attached only
                    // once the bits are durably at the origin, so a failed
                    // entry never half-applies.
                    for op in &w.ops {
                        if let crate::op::DocOp::SetProperty { name, value } = op {
                            self.attach_static(
                                Scope::Personal(w.user),
                                w.doc,
                                name,
                                value.clone(),
                            )?;
                        }
                    }
                    self.dispatch(DocumentEvent::new(EventKind::ContentWritten, w.doc).by(w.user))
                });
            }
            i = j;
        }
        results
    }

    /// Runs one entry's write-path property chain to completion into a
    /// collector, returning the provider-ready payload.
    fn run_write_chain(&self, plan: &TransformPlan, data: Bytes) -> Result<Bytes> {
        let captured: Arc<Mutex<Option<Bytes>>> = Arc::new(Mutex::new(None));
        let sink = {
            let captured = Arc::clone(&captured);
            Box::new(CollectOutput::new(move |bytes| {
                *captured.lock() = Some(bytes);
                Ok(())
            }))
        };
        // The write-path stages wrap the collector base properties first,
        // then reference properties, each handing its custom stream
        // outward, so the payload enters the outermost (reference-side)
        // wrapper.
        let mut stream: Box<dyn OutputStream> = sink;
        let mut report = PathReport::default();
        for index in 0..plan.len() {
            stream = plan.wrap_output_stage(&self.clock, index, &mut report, stream)?;
        }
        // The chunk path: a chain with no transforming stages hands the
        // caller's refcounted buffer straight to the collector, so
        // identity write chains never copy the payload.
        write_all_bytes(stream.as_mut(), data)?;
        stream.close()?;
        let bytes = captured.lock().take();
        debug_assert!(
            bytes.is_some(),
            "the collector closes before the chain returns"
        );
        Ok(bytes.unwrap_or_default())
    }

    /// The one chain compiler: snapshots the base and reference halves of
    /// the property chain under the space lock — the base half from a
    /// current lease when `how` offers one — then compiles them into a
    /// [`TransformPlan`] (base stages first, then the user's reference
    /// stages). Every read and write path derives its chain here. A read
    /// compile charges its middleware hops before the plan captures tokens;
    /// a write path charges its own. A [`Compile::Leased`] compile returns
    /// the lease it used: the one offered, or a fresh one.
    fn compile_plan(
        &self,
        user: UserId,
        doc: DocumentId,
        how: Compile<'_>,
    ) -> Result<(TransformPlan, Option<Arc<BaseChainLease>>)> {
        let kind = match how {
            Compile::Write => EventKind::GetOutputStream,
            Compile::Read | Compile::Leased(_) => EventKind::GetInputStream,
        };
        if let Compile::Read = how {
            // Two middleware hops: the reference's server and the base's.
            self.charge_op(0);
            self.charge_op(0);
        }
        let (provider, base_props, ref_props, pairs, leased) = {
            let inner = self.inner.read();
            let base = inner
                .bases
                .get(&doc)
                .ok_or(PlacelessError::NoSuchDocument(doc))?;
            let reference = inner
                .refs
                .get(&(user, doc))
                .ok_or(PlacelessError::NoSuchReference(user, doc))?;
            // One hop (the reference server) on lease reuse; the usual two
            // when the base server has to re-send its half of the chain.
            let leased = match how {
                Compile::Leased(Some(l)) if l.doc == doc && l.epoch == base.chain_epoch => {
                    Some((Arc::clone(l), 1))
                }
                Compile::Leased(_) => Some((
                    Arc::new(BaseChainLease {
                        doc,
                        epoch: base.chain_epoch,
                        provider: base.provider.clone(),
                        base_props: base.universal.interested(kind),
                        universal_pairs: base.universal.static_pairs(),
                    }),
                    2,
                )),
                Compile::Read | Compile::Write => None,
            };
            // Personal values shadow universal ones, so they come first.
            let mut pairs = reference.personal.static_pairs();
            let (provider, base_props) = match &leased {
                Some((l, _)) => {
                    pairs.extend(l.universal_pairs.iter().cloned());
                    (l.provider.clone(), l.base_props.clone())
                }
                None => {
                    pairs.extend(base.universal.static_pairs());
                    (base.provider.clone(), base.universal.interested(kind))
                }
            };
            let ref_props = reference.personal.interested(kind);
            (provider, base_props, ref_props, pairs, leased)
        };
        for _ in 0..leased.as_ref().map_or(0, |(_, hops)| *hops) {
            self.charge_op(0);
        }
        // Tokens are captured outside the space lock: a transform token may
        // consult external sources, and properties must never run under it.
        let plan = TransformPlan::compile(
            &self.clock,
            doc,
            user,
            provider,
            base_props,
            ref_props,
            PropsSnapshot::from_pairs(pairs),
        );
        Ok((plan, leased.map(|(lease, _)| lease)))
    }

    // ------------------------------------------------------------------
    // Event dispatch
    // ------------------------------------------------------------------

    /// Dispatches a timer tick to every property registered for `Timer`.
    pub fn timer_tick(self: &Arc<Self>) -> Result<()> {
        let docs = self.documents();
        for doc in docs {
            self.dispatch(DocumentEvent::new(EventKind::Timer, doc))?;
        }
        Ok(())
    }

    /// Forwards a cache-served operation event (the `CacheableWithEvents`
    /// collaboration). The middleware triggers the registered properties
    /// without executing the full path.
    pub fn post_cache_event(
        self: &Arc<Self>,
        user: UserId,
        doc: DocumentId,
        kind: EventKind,
    ) -> Result<()> {
        debug_assert!(
            matches!(kind, EventKind::CacheRead | EventKind::CacheWrite),
            "only cache events may be posted"
        );
        self.charge_op(0);
        self.dispatch(DocumentEvent::new(kind, doc).by(user))
    }

    /// Delivers `event` to every interested property on the base and on the
    /// relevant references, then applies requested follow-ups.
    fn dispatch(self: &Arc<Self>, event: DocumentEvent) -> Result<()> {
        self.ops.fetch_add(1, Ordering::Relaxed);
        let targets: Vec<Arc<dyn ActiveProperty>> = {
            let inner = self.inner.read();
            let Some(base) = inner.bases.get(&event.doc) else {
                return Ok(());
            };
            let mut targets = base.universal.interested(event.kind);
            match event.site {
                // A personal-property mutation is visible to the base and
                // to that reference only.
                Some(EventSite::Reference(owner)) => {
                    if let Some(r) = inner.refs.get(&(owner, event.doc)) {
                        targets.extend(r.personal.interested(event.kind));
                    }
                }
                // Base-site and site-less events reach every reference
                // to this document, unless none ever registered for
                // their kind.
                _ if !base.listening.contains(event.kind) => {}
                _ => {
                    for user in &base.holders {
                        if let Some(r) = inner.refs.get(&(*user, event.doc)) {
                            targets.extend(r.personal.interested(event.kind));
                        }
                    }
                }
            }
            targets
        };

        let ctx = EventCtx::new(&self.clock, &self.bus);
        for prop in targets {
            prop.on_event(&ctx, &event).map_err(|e| match e {
                PlacelessError::Property { .. } => e,
                other => PlacelessError::Property {
                    name: prop.name().to_owned(),
                    reason: other.to_string(),
                },
            })?;
        }
        let followups = ctx.take_followups();
        drop(ctx);
        for followup in followups {
            match followup {
                FollowUp::AttachStatic {
                    doc,
                    site,
                    name,
                    value,
                } => {
                    let scope = match site {
                        EventSite::Base => Scope::Universal,
                        EventSite::Reference(u) => Scope::Personal(u),
                    };
                    self.attach_static(scope, doc, &name, value)?;
                }
            }
        }
        Ok(())
    }
}

/// One entry of a grouped origin write; see
/// [`DocumentSpace::write_documents`].
#[derive(Debug, Clone)]
pub struct BatchWrite {
    /// The writing user (selects the reference-side property chain).
    pub user: UserId,
    /// The target document.
    pub doc: DocumentId,
    /// The complete new content, pre-transform. Ignored as content when
    /// `ops` is non-empty (it then documents the writer's own view, for
    /// observability only).
    pub data: Bytes,
    /// Typed operations to apply *server-side* onto the origin's current
    /// content instead of committing `data` verbatim — the op-based merge
    /// path: the effective content is the origin's rendition (as the
    /// writing user sees it) with every content op folded in, so a write
    /// rebased over a concurrent writer preserves both sides' edits.
    /// [`crate::op::DocOp::SetProperty`] ops attach their property after
    /// the content commit succeeds. Empty (the default) commits `data`
    /// verbatim.
    pub ops: Vec<crate::op::DocOp>,
    /// The writing user's current rendition, when the caller has just read
    /// it: `ops` apply onto it instead of a fresh read through the full
    /// chain. An earlier entry of the same group for the same document
    /// still wins. `None` (the default) reads the rendition.
    pub base: Option<Bytes>,
}

impl BatchWrite {
    /// A plain full-body batch entry (no server-side ops).
    pub fn new(user: UserId, doc: DocumentId, data: Bytes) -> Self {
        Self {
            user,
            doc,
            data,
            ops: Vec::new(),
            base: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitprovider::MemoryProvider;
    use crate::cacheability::Cacheability;
    use crate::event::Interests;
    use crate::notifier::Invalidation;
    use crate::property::PathCtx;
    use crate::streams::{InputStream, TransformingInput, TransformingOutput};
    use parking_lot::Mutex;

    const ALICE: UserId = UserId(1);
    const BOB: UserId = UserId(2);

    /// Uppercases content on the read path.
    struct Upper;
    impl ActiveProperty for Upper {
        fn name(&self) -> &str {
            "upper"
        }
        fn interests(&self) -> Interests {
            Interests::of(&[EventKind::GetInputStream])
        }
        fn execution_cost_micros(&self) -> u64 {
            100
        }
        fn wrap_input(
            &self,
            _ctx: &PathCtx<'_>,
            _report: &mut PathReport,
            inner: Box<dyn InputStream>,
        ) -> Result<Box<dyn InputStream>> {
            Ok(Box::new(TransformingInput::new(
                inner,
                Box::new(|b| Ok(Bytes::from(b.to_ascii_uppercase()))),
            )))
        }
    }

    /// Appends a suffix on the read path, to observe ordering.
    struct Suffix(&'static str);
    impl ActiveProperty for Suffix {
        fn name(&self) -> &str {
            "suffix"
        }
        fn interests(&self) -> Interests {
            Interests::of(&[EventKind::GetInputStream, EventKind::GetOutputStream])
        }
        fn wrap_input(
            &self,
            _ctx: &PathCtx<'_>,
            _report: &mut PathReport,
            inner: Box<dyn InputStream>,
        ) -> Result<Box<dyn InputStream>> {
            let tag = self.0;
            Ok(Box::new(TransformingInput::new(
                inner,
                Box::new(move |b| {
                    let mut v = b.to_vec();
                    v.extend_from_slice(tag.as_bytes());
                    Ok(Bytes::from(v))
                }),
            )))
        }
        fn wrap_output(
            &self,
            _ctx: &PathCtx<'_>,
            _report: &mut PathReport,
            inner: Box<dyn OutputStream>,
        ) -> Result<Box<dyn OutputStream>> {
            let tag = self.0;
            Ok(Box::new(TransformingOutput::new(
                inner,
                Box::new(move |b| {
                    let mut v = b.to_vec();
                    v.extend_from_slice(tag.as_bytes());
                    Ok(Bytes::from(v))
                }),
            )))
        }
    }

    /// Records the events it receives, and signs its name into `log` for
    /// each, so recorders sharing a log show the order they were reached in.
    struct Recorder {
        name: String,
        interests: Interests,
        seen: Mutex<Vec<EventKind>>,
        log: Arc<Mutex<Vec<String>>>,
    }
    impl Recorder {
        fn new(name: &str, interests: Interests) -> Arc<Self> {
            Self::signing(name, interests, &Arc::default())
        }
        fn signing(name: &str, interests: Interests, log: &Arc<Mutex<Vec<String>>>) -> Arc<Self> {
            Arc::new(Self {
                name: name.to_owned(),
                interests,
                seen: Mutex::new(Vec::new()),
                log: log.clone(),
            })
        }
    }
    impl ActiveProperty for Recorder {
        fn name(&self) -> &str {
            &self.name
        }
        fn interests(&self) -> Interests {
            self.interests
        }
        fn on_event(&self, _ctx: &EventCtx<'_>, event: &DocumentEvent) -> Result<()> {
            self.seen.lock().push(event.kind);
            self.log.lock().push(self.name.clone());
            Ok(())
        }
    }

    /// `doc`'s chain epoch, the counter behind [`BaseChainLease`]
    /// validation.
    fn chain_epoch(space: &DocumentSpace, doc: DocumentId) -> Option<u64> {
        space.inner.read().bases.get(&doc).map(|b| b.chain_epoch)
    }

    fn setup(content: &str) -> (Arc<DocumentSpace>, DocumentId) {
        let clock = VirtualClock::new();
        let space = DocumentSpace::with_middleware_cost(clock, LatencyModel::FREE);
        let provider = MemoryProvider::new("test", content.to_owned(), 0);
        let doc = space.create_document(ALICE, provider);
        (space, doc)
    }

    #[test]
    fn plain_read_returns_raw_content() {
        let (space, doc) = setup("hello");
        let (bytes, report) = space.read_document(ALICE, doc).unwrap();
        assert_eq!(bytes, "hello");
        assert_eq!(report.cacheability, Cacheability::Unrestricted);
        assert_eq!(report.verifiers.len(), 1, "provider verifier only");
        assert!(report.stages.is_empty());
    }

    #[test]
    fn read_without_reference_fails() {
        let (space, doc) = setup("x");
        assert_eq!(
            space.read_document(BOB, doc).unwrap_err(),
            PlacelessError::NoSuchReference(BOB, doc)
        );
        space.add_reference(BOB, doc).unwrap();
        assert!(space.read_document(BOB, doc).is_ok());
    }

    #[test]
    fn personal_properties_only_affect_their_owner() {
        let (space, doc) = setup("hello");
        space.add_reference(BOB, doc).unwrap();
        space
            .attach_active(Scope::Personal(ALICE), doc, Arc::new(Upper))
            .unwrap();
        let (alice_view, _) = space.read_document(ALICE, doc).unwrap();
        let (bob_view, _) = space.read_document(BOB, doc).unwrap();
        assert_eq!(alice_view, "HELLO");
        assert_eq!(bob_view, "hello");
    }

    #[test]
    fn universal_properties_affect_everyone() {
        let (space, doc) = setup("hello");
        space.add_reference(BOB, doc).unwrap();
        space
            .attach_active(Scope::Universal, doc, Arc::new(Upper))
            .unwrap();
        let (alice_view, _) = space.read_document(ALICE, doc).unwrap();
        let (bob_view, _) = space.read_document(BOB, doc).unwrap();
        assert_eq!(alice_view, "HELLO");
        assert_eq!(bob_view, "HELLO");
    }

    #[test]
    fn read_path_runs_base_before_reference() {
        let (space, doc) = setup("x");
        space
            .attach_active(Scope::Universal, doc, Arc::new(Suffix("-base")))
            .unwrap();
        space
            .attach_active(Scope::Personal(ALICE), doc, Arc::new(Suffix("-ref")))
            .unwrap();
        let (bytes, report) = space.read_document(ALICE, doc).unwrap();
        assert_eq!(bytes, "x-base-ref");
        // Each stage ran, and recorded the length of what it produced.
        let stages: Vec<_> = report
            .stages
            .iter()
            .map(|s| (s.name.as_str(), s.cached, s.bytes))
            .collect();
        assert_eq!(stages, vec![("suffix", false, 6), ("suffix", false, 10)]);
    }

    #[test]
    fn write_path_runs_reference_before_base() {
        let (space, doc) = setup("");
        space
            .attach_active(Scope::Universal, doc, Arc::new(Suffix("-base")))
            .unwrap();
        space
            .attach_active(Scope::Personal(ALICE), doc, Arc::new(Suffix("-ref")))
            .unwrap();
        space.write_document(ALICE, doc, b"w").unwrap();
        // Reference transform applies first, then base: w-ref-base.
        let (bytes, _) = space.read_document(ALICE, doc).unwrap();
        assert_eq!(bytes, "w-ref-base-base-ref");
    }

    #[test]
    fn write_fires_content_written_everywhere() {
        let (space, doc) = setup("x");
        space.add_reference(BOB, doc).unwrap();
        let base_rec = Recorder::new("base-rec", Interests::of(&[EventKind::ContentWritten]));
        let bob_rec = Recorder::new("bob-rec", Interests::of(&[EventKind::ContentWritten]));
        space
            .attach_active(Scope::Universal, doc, base_rec.clone())
            .unwrap();
        space
            .attach_active(Scope::Personal(BOB), doc, bob_rec.clone())
            .unwrap();
        space.write_document(ALICE, doc, b"new").unwrap();
        assert_eq!(base_rec.seen.lock().len(), 1);
        assert_eq!(
            bob_rec.seen.lock().len(),
            1,
            "other users' notifiers hear about the write"
        );
    }

    #[test]
    fn property_mutations_fire_events() {
        let (space, doc) = setup("x");
        let rec = Recorder::new(
            "rec",
            Interests::of(&[
                EventKind::PropertySet,
                EventKind::PropertyRemoved,
                EventKind::PropertyModified,
                EventKind::PropertyReordered,
            ]),
        );
        space
            .attach_active(Scope::Universal, doc, rec.clone())
            .unwrap();
        // The recorder hears its own attachment; discard that event.
        rec.seen.lock().clear();
        let id = space
            .attach_static(Scope::Universal, doc, "label", "v1")
            .unwrap();
        space
            .modify_property(
                Scope::Universal,
                doc,
                id,
                AttachedProperty::Static {
                    name: "label".into(),
                    value: "v2".into(),
                },
            )
            .unwrap();
        space
            .reorder_property(Scope::Universal, doc, id, 0)
            .unwrap();
        space.remove_property(Scope::Universal, doc, id).unwrap();
        assert_eq!(
            *rec.seen.lock(),
            vec![
                EventKind::PropertySet,
                EventKind::PropertyModified,
                EventKind::PropertyReordered,
                EventKind::PropertyRemoved,
            ]
        );
    }

    #[test]
    fn personal_mutation_not_visible_to_other_references() {
        let (space, doc) = setup("x");
        space.add_reference(BOB, doc).unwrap();
        let bob_rec = Recorder::new("bob-rec", Interests::of(&[EventKind::PropertySet]));
        space
            .attach_active(Scope::Personal(BOB), doc, bob_rec.clone())
            .unwrap();
        bob_rec.seen.lock().clear();
        // Alice attaches a personal property: Bob's recorder must not see it.
        space
            .attach_static(Scope::Personal(ALICE), doc, "private", "yes")
            .unwrap();
        assert!(bob_rec.seen.lock().is_empty());
        // But a universal attach reaches Bob.
        space
            .attach_static(Scope::Universal, doc, "public", "yes")
            .unwrap();
        assert_eq!(bob_rec.seen.lock().len(), 1);
    }

    #[test]
    fn property_value_personal_shadows_universal() {
        let (space, doc) = setup("x");
        space
            .attach_static(Scope::Universal, doc, "lang", "en")
            .unwrap();
        assert_eq!(
            space.property_value(ALICE, doc, "lang").unwrap().as_str(),
            Some("en")
        );
        space
            .attach_static(Scope::Personal(ALICE), doc, "lang", "fr")
            .unwrap();
        assert_eq!(
            space.property_value(ALICE, doc, "lang").unwrap().as_str(),
            Some("fr")
        );
    }

    #[test]
    fn timer_tick_reaches_registered_properties() {
        let (space, doc) = setup("x");
        let rec = Recorder::new("timer-rec", Interests::of(&[EventKind::Timer]));
        space
            .attach_active(Scope::Personal(ALICE), doc, rec.clone())
            .unwrap();
        space.timer_tick().unwrap();
        space.timer_tick().unwrap();
        assert_eq!(*rec.seen.lock(), vec![EventKind::Timer, EventKind::Timer]);
    }

    #[test]
    fn cache_events_are_forwarded() {
        let (space, doc) = setup("x");
        let rec = Recorder::new("audit", Interests::of(&[EventKind::CacheRead]));
        space
            .attach_active(Scope::Universal, doc, rec.clone())
            .unwrap();
        space
            .post_cache_event(ALICE, doc, EventKind::CacheRead)
            .unwrap();
        assert_eq!(rec.seen.lock().len(), 1);
    }

    #[test]
    fn notifier_property_posts_invalidations() {
        struct WriteNotifier;
        impl ActiveProperty for WriteNotifier {
            fn name(&self) -> &str {
                "notify-on-write"
            }
            fn interests(&self) -> Interests {
                Interests::of(&[EventKind::ContentWritten])
            }
            fn on_event(&self, ctx: &EventCtx<'_>, event: &DocumentEvent) -> Result<()> {
                ctx.bus.post(Invalidation::Document(event.doc));
                Ok(())
            }
        }
        let (space, doc) = setup("x");
        space
            .attach_active(Scope::Universal, doc, Arc::new(WriteNotifier))
            .unwrap();
        space.write_document(ALICE, doc, b"y").unwrap();
        assert_eq!(space.bus().counters().0, 1);
    }

    #[test]
    fn followups_attach_static_properties() {
        struct VersionLinker;
        impl ActiveProperty for VersionLinker {
            fn name(&self) -> &str {
                "version-linker"
            }
            fn interests(&self) -> Interests {
                Interests::of(&[EventKind::ContentWritten])
            }
            fn on_event(&self, ctx: &EventCtx<'_>, event: &DocumentEvent) -> Result<()> {
                ctx.request(FollowUp::AttachStatic {
                    doc: event.doc,
                    site: EventSite::Base,
                    name: "version:1".into(),
                    value: "snapshot".into(),
                });
                Ok(())
            }
        }
        let (space, doc) = setup("x");
        space
            .attach_active(Scope::Universal, doc, Arc::new(VersionLinker))
            .unwrap();
        space.write_document(ALICE, doc, b"y").unwrap();
        assert!(space.property_value(ALICE, doc, "version:1").is_some());
    }

    #[test]
    fn execution_costs_accumulate_in_report_and_clock() {
        let (space, doc) = setup("abc");
        space
            .attach_active(Scope::Personal(ALICE), doc, Arc::new(Upper))
            .unwrap();
        let t0 = space.clock().now();
        let (_, report) = space.read_document(ALICE, doc).unwrap();
        assert_eq!(report.cost.raw_micros(), 100.0);
        assert!(space.clock().now().since(t0) >= 100);
    }

    #[test]
    fn ops_counter_tracks_middleware_load() {
        let (space, doc) = setup("x");
        let before = space.ops_count();
        let _ = space.read_document(ALICE, doc).unwrap();
        assert!(space.ops_count() > before);
    }

    #[test]
    fn middleware_cost_is_charged() {
        let clock = VirtualClock::new();
        let space = DocumentSpace::with_middleware_cost(clock.clone(), LatencyModel::new(500, 0));
        let provider = MemoryProvider::new("t", "x", 0);
        let doc = space.create_document(ALICE, provider);
        let t0 = clock.now();
        let _ = space.read_document(ALICE, doc).unwrap();
        // Two hops at 500 µs each.
        assert!(clock.now().since(t0) >= 1_000);
    }

    #[test]
    fn attach_by_name_uses_registry() {
        let (space, doc) = setup("hello");
        space.registry().register("upper", |_| Ok(Arc::new(Upper)));
        space
            .attach_by_name(Scope::Personal(ALICE), doc, "upper", &Params::new())
            .unwrap();
        let (bytes, _) = space.read_document(ALICE, doc).unwrap();
        assert_eq!(bytes, "HELLO");
        assert!(space
            .attach_by_name(Scope::Personal(ALICE), doc, "ghost", &Params::new())
            .is_err());
    }

    #[test]
    fn remove_reference_drops_personal_state_and_invalidates() {
        let (space, doc) = setup("x");
        space.add_reference(BOB, doc).unwrap();
        space
            .attach_static(Scope::Personal(BOB), doc, "label", "y")
            .unwrap();
        space.remove_reference(BOB, doc).unwrap();
        assert!(!space.has_reference(BOB, doc));
        assert!(space.read_document(BOB, doc).is_err());
        assert_eq!(space.bus().counters().0, 1, "user-scoped invalidation");
        // Re-adding yields a clean reference.
        space.add_reference(BOB, doc).unwrap();
        assert!(space.property_value(BOB, doc, "label").is_none());
        assert!(space.remove_reference(UserId(9), doc).is_err());
    }

    #[test]
    fn delete_document_removes_everything() {
        let (space, doc) = setup("x");
        space.add_reference(BOB, doc).unwrap();
        space.add_to_collection("drafts", doc).unwrap();
        space.delete_document(doc).unwrap();
        assert!(space.documents().is_empty());
        assert!(space.read_document(ALICE, doc).is_err());
        assert!(space.collection_members("drafts").is_empty());
        assert!(space.delete_document(doc).is_err(), "already gone");
        // A document-wide invalidation reached the bus.
        assert!(space.bus().counters().0 >= 1);
    }

    #[test]
    fn describe_reports_the_full_structure() {
        let (space, doc) = setup("x");
        space.add_reference(BOB, doc).unwrap();
        space
            .attach_active(Scope::Universal, doc, Arc::new(Upper))
            .unwrap();
        space
            .attach_static(Scope::Personal(ALICE), doc, "deadline", "11/30")
            .unwrap();
        space.add_to_collection("drafts", doc).unwrap();
        let description = space.describe(ALICE, doc).unwrap();
        assert_eq!(description.provider, "memory:test");
        assert_eq!(description.users, vec![ALICE, BOB]);
        assert_eq!(description.collections, vec!["drafts"]);
        // Universal: the Upper property plus the collection label.
        assert_eq!(description.universal.len(), 2);
        assert!(description.universal[0].active);
        assert_eq!(description.personal.len(), 1);
        assert_eq!(description.personal[0].name, "deadline");
        assert_eq!(description.personal[0].value.as_deref(), Some("11/30"));
        // Bob has no personal properties.
        let bob_view = space.describe(BOB, doc).unwrap();
        assert!(bob_view.personal.is_empty());
        assert!(space.describe(UserId(9), doc).is_err());
    }

    #[test]
    fn users_and_documents_listing() {
        let (space, doc) = setup("x");
        space.add_reference(BOB, doc).unwrap();
        assert_eq!(space.users_of(doc), vec![ALICE, BOB]);
        assert_eq!(space.documents(), vec![doc]);
        assert!(space.has_reference(ALICE, doc));
        assert!(!space.has_reference(UserId(9), doc));
    }

    proptest::proptest! {
        /// `BaseDocument::holders` follows the reference table and the
        /// personal lists: after any sequence of creates, reference
        /// changes, deletions and personal attaches, removals,
        /// modifications and reorders, the holders of every document ever
        /// created are the users a walk over `has_reference` finds,
        /// `describe` lists the same, and a site-less event of every kind
        /// reaches, in order, the properties a walk over `users_of` ×
        /// `personal.interested(kind)` finds.
        #[test]
        fn holders_match_a_walk_over_the_reference_table(
            steps in proptest::collection::vec(
                (0u8..8, 0u64..6, 0usize..6, 0u16..1 << EventKind::ALL.len()),
                0..120,
            ),
        ) {
            let space = DocumentSpace::with_middleware_cost(VirtualClock::new(), LatencyModel::FREE);
            let log: Arc<Mutex<Vec<String>>> = Arc::default();
            let mut docs: Vec<DocumentId> = Vec::new();
            let mut attached = 0;
            for (kind, user, pick, mask) in steps {
                let user = UserId(user);
                let doc = docs.get(pick % docs.len().max(1)).copied();
                let interests: Vec<EventKind> =
                    EventKind::ALL.into_iter().filter(|&k| mask & k as u16 != 0).collect();
                let mut recorder = || {
                    attached += 1;
                    Recorder::signing(&format!("rec-{attached}"), Interests::of(&interests), &log)
                };
                // The `pick`th of `user`'s personal properties on `doc`.
                let picked = |doc| {
                    let props = space.list_properties(Scope::Personal(user), doc).ok()?;
                    props.get(pick % props.len().max(1)).map(|(id, _)| *id)
                };
                match (kind, doc) {
                    (0, _) | (_, None) => {
                        docs.push(space.create_document(user, MemoryProvider::new("t", "x", 0)));
                    }
                    // Errors are part of the sequence: a reference added
                    // to a deleted document, or removed twice.
                    (1, Some(doc)) => drop(space.add_reference(user, doc)),
                    (2, Some(doc)) => drop(space.remove_reference(user, doc)),
                    (3, Some(doc)) => drop(space.delete_document(doc)),
                    (4, Some(doc)) => {
                        drop(space.attach_active(Scope::Personal(user), doc, recorder()));
                    }
                    (kind, Some(doc)) => {
                        let Some(id) = picked(doc) else { continue };
                        let scope = Scope::Personal(user);
                        match kind {
                            5 => space.remove_property(scope, doc, id).unwrap(),
                            6 => space
                                .modify_property(scope, doc, id, AttachedProperty::Active(recorder()))
                                .unwrap(),
                            _ => space.reorder_property(scope, doc, id, pick).unwrap(),
                        }
                    }
                }
                for &doc in &docs {
                    let walked: Vec<UserId> =
                        (0..6).map(UserId).filter(|&u| space.has_reference(u, doc)).collect();
                    proptest::prop_assert_eq!(&space.users_of(doc), &walked);
                    if let Some(&holder) = walked.first() {
                        proptest::prop_assert_eq!(space.describe(holder, doc).unwrap().users, walked.clone());
                    }
                    for kind in EventKind::ALL {
                        let expected: Vec<String> = {
                            let inner = space.inner.read();
                            walked
                                .iter()
                                .flat_map(|&u| inner.refs[&(u, doc)].personal.interested(kind))
                                .map(|p| p.name().to_owned())
                                .collect()
                        };
                        log.lock().clear();
                        space.dispatch(DocumentEvent::new(kind, doc)).unwrap();
                        proptest::prop_assert_eq!(&*log.lock(), &expected, "{:?}", kind);
                    }
                }
            }
        }
    }

    #[test]
    fn content_written_reaches_exactly_the_written_documents_holders() {
        let (space, doc) = setup("x");
        let other = space.create_document(ALICE, MemoryProvider::new("other", "y", 0));
        let holders = [ALICE, BOB, UserId(3)];
        let recorders: Vec<Arc<Recorder>> = holders
            .iter()
            .map(|&user| {
                let rec = Recorder::new("rec", Interests::of(&[EventKind::ContentWritten]));
                for target in [doc, other] {
                    space.add_reference(user, target).unwrap();
                }
                space
                    .attach_active(Scope::Personal(user), doc, rec.clone())
                    .unwrap();
                rec
            })
            .collect();
        let heard = || -> Vec<usize> { recorders.iter().map(|r| r.seen.lock().len()).collect() };

        for &writer in &holders {
            space.write_document(writer, doc, b"new").unwrap();
        }
        assert_eq!(heard(), [3, 3, 3], "one event per write, whoever wrote");

        space.write_document(BOB, other, b"elsewhere").unwrap();
        assert_eq!(heard(), [3, 3, 3], "another document's write is not heard");

        space.remove_reference(BOB, doc).unwrap();
        space.write_document(ALICE, doc, b"newer").unwrap();
        assert_eq!(heard(), [4, 3, 4], "a dropped reference hears nothing more");
    }

    #[test]
    fn registration_is_read_on_attach_and_modify_not_per_event() {
        /// Registers for reads, counting how often it is asked.
        struct Counting(AtomicU64);
        impl ActiveProperty for Counting {
            fn name(&self) -> &str {
                "counting"
            }
            fn interests(&self) -> Interests {
                self.0.fetch_add(1, Ordering::Relaxed);
                Interests::of(&[EventKind::GetInputStream])
            }
        }
        let (space, doc) = setup("x");
        space.add_reference(BOB, doc).unwrap();
        let counting = Arc::new(Counting(AtomicU64::new(0)));
        let asked = || counting.0.load(Ordering::Relaxed);

        let id = space
            .attach_active(Scope::Personal(BOB), doc, counting.clone())
            .unwrap();
        let on_attach = asked();
        assert!(on_attach > 0, "attaching registers the property");
        space
            .modify_property(
                Scope::Personal(BOB),
                doc,
                id,
                AttachedProperty::Active(counting.clone()),
            )
            .unwrap();
        assert!(asked() > on_attach, "replacing registers it again");

        let registered = asked();
        space.write_document(ALICE, doc, b"new").unwrap();
        assert_eq!(asked(), registered, "a write to its document does not ask");
    }

    #[test]
    fn chain_epoch_bumps_on_universal_mutations_only() {
        let (space, doc) = setup("x");
        assert_eq!(chain_epoch(&space, doc), Some(0));

        let id = space
            .attach_static(Scope::Universal, doc, "versioned", true)
            .unwrap();
        assert_eq!(chain_epoch(&space, doc), Some(1));

        // Personal mutations never touch the base half.
        let personal = space
            .attach_static(Scope::Personal(ALICE), doc, "color", "red")
            .unwrap();
        space
            .remove_property(Scope::Personal(ALICE), doc, personal)
            .unwrap();
        assert_eq!(chain_epoch(&space, doc), Some(1));

        space
            .modify_property(
                Scope::Universal,
                doc,
                id,
                AttachedProperty::Static {
                    name: "versioned".into(),
                    value: false.into(),
                },
            )
            .unwrap();
        assert_eq!(chain_epoch(&space, doc), Some(2));

        space
            .attach_active(Scope::Universal, doc, Arc::new(Upper))
            .unwrap();
        assert_eq!(chain_epoch(&space, doc), Some(3));
        space
            .reorder_property(Scope::Universal, doc, id, 1)
            .unwrap();
        assert_eq!(chain_epoch(&space, doc), Some(4));
        space.remove_property(Scope::Universal, doc, id).unwrap();
        assert_eq!(chain_epoch(&space, doc), Some(5));
    }

    #[test]
    fn read_plan_cached_reuses_the_base_half_and_saves_a_hop() {
        let clock = VirtualClock::new();
        let space = DocumentSpace::with_middleware_cost(clock.clone(), LatencyModel::new(300, 0));
        let provider = MemoryProvider::new("test", "hello", 0);
        let doc = space.create_document(ALICE, provider);
        space
            .attach_active(Scope::Universal, doc, Arc::new(Suffix("-base")))
            .unwrap();
        space
            .attach_active(Scope::Personal(ALICE), doc, Arc::new(Upper))
            .unwrap();

        let t0 = clock.now();
        let (fresh_plan, lease, reused) = space.read_plan_cached(ALICE, doc, None).unwrap();
        assert!(!reused);
        assert_eq!(clock.now().since(t0), 600, "cold compile costs two hops");

        let t1 = clock.now();
        let (cached_plan, lease2, reused) =
            space.read_plan_cached(ALICE, doc, Some(&lease)).unwrap();
        assert!(reused);
        assert_eq!(clock.now().since(t1), 300, "lease reuse costs one hop");
        assert!(
            Arc::ptr_eq(&lease, &lease2),
            "valid lease is returned as-is"
        );

        // Same chain either way: same stage count and same signatures
        // rooted at the same digest.
        assert_eq!(fresh_plan.len(), cached_plan.len());
        let root = crate::digest::md5(b"hello");
        for index in 0..fresh_plan.len() {
            assert_eq!(
                fresh_plan.stage_signature(index, root),
                cached_plan.stage_signature(index, root)
            );
        }
    }

    #[test]
    fn stale_chain_lease_falls_back_to_a_fresh_compile() {
        let (space, doc) = setup("hello");
        space
            .attach_active(Scope::Universal, doc, Arc::new(Suffix("-v1")))
            .unwrap();
        let (plan, lease, _) = space.read_plan_cached(ALICE, doc, None).unwrap();
        assert_eq!(plan.len(), 1);

        // A universal mutation bumps the epoch under the lease.
        space
            .attach_active(Scope::Universal, doc, Arc::new(Upper))
            .unwrap();
        let (plan, lease2, reused) = space.read_plan_cached(ALICE, doc, Some(&lease)).unwrap();
        assert!(!reused, "stale lease must not be reused");
        assert_eq!(plan.len(), 2, "fresh compile sees the new base stage");
        assert_eq!(lease2.epoch, chain_epoch(&space, doc).unwrap());

        let (bytes, _) = space.read_document(ALICE, doc).unwrap();
        assert_eq!(bytes, "HELLO-V1");
    }

    #[test]
    fn chain_lease_reuse_still_sees_fresh_personal_properties() {
        let (space, doc) = setup("hello");
        space
            .attach_active(Scope::Universal, doc, Arc::new(Suffix("-base")))
            .unwrap();
        let (plan, lease, _) = space.read_plan_cached(ALICE, doc, None).unwrap();
        assert_eq!(plan.len(), 1);

        // Personal attach leaves the lease valid, yet the compiled plan
        // must include the new reference stage: only the base half is
        // cached.
        space
            .attach_active(Scope::Personal(ALICE), doc, Arc::new(Upper))
            .unwrap();
        let (plan, _, reused) = space.read_plan_cached(ALICE, doc, Some(&lease)).unwrap();
        assert!(reused);
        assert_eq!(plan.len(), 2, "personal half recompiled fresh");
    }
}
