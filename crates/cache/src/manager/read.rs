//! The read path: hit, stale service, miss coalescing, the origin fetch
//! through the retry driver, and collection prefetch.

use super::*;

/// How a [`DocumentCache::read_with`] was served.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HitClass {
    /// Served from a resident entry (verifiers passed, or a verifier
    /// replaced the content in place), or from the reader's own buffered
    /// write-back data.
    Hit,
    /// A miss whose chain walk reused at least one cached intermediate
    /// stage (the paper's per-user suffix over a shared base prefix).
    PartialHit,
    /// Fetched through the full read path, including uncacheable reads.
    Miss,
    /// Joined another thread's in-flight miss on the same key and shared
    /// its bytes without fetching (counted under both `hits` and
    /// `coalesced_waits` in [`CacheStats`]).
    CoalescedWait,
    /// Resident bytes of unknown freshness served in place of an
    /// unreachable origin, within the staleness bound.
    StaleServed,
}

impl HitClass {
    /// A stable lowercase label for reports and JSON artifacts.
    pub fn label(&self) -> &'static str {
        match self {
            HitClass::Hit => "hit",
            HitClass::PartialHit => "partial_hit",
            HitClass::Miss => "miss",
            HitClass::CoalescedWait => "coalesced_wait",
            HitClass::StaleServed => "stale_served",
        }
    }
}

/// What [`DocumentCache::read_with`] returned: the bytes plus how they
/// were obtained, so callers classify service quality per read instead of
/// re-deriving it from [`CacheStats`] deltas. `#[must_use]`: dropping an
/// outcome unexamined silently discards the degraded/stale service
/// classification.
#[must_use = "inspect the outcome's class: it may be stale or degraded service"]
#[non_exhaustive]
#[derive(Debug, Clone)]
pub struct ReadOutcome {
    /// The document content.
    pub bytes: Bytes,
    /// How the read was served.
    pub class: HitClass,
    /// Virtual-clock microseconds this read observed, as charged by the
    /// latency models along its path. Under concurrent load the virtual
    /// clock advances globally, so per-read wall-clock timing belongs to
    /// the caller (the load engine times reads with a wall stopwatch).
    pub latency_micros: u64,
}

/// How long a resident entry may be served past a freshness check that
/// could not run ([`OriginConfig::serve_stale`]).
///
/// Age counts from the filling fetch's start. `StalenessBound::ZERO`
/// permits nothing; use [`StalenessBound::micros`] for a window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StalenessBound {
    /// Maximum entry age, in virtual microseconds, at which stale service
    /// is still acceptable.
    pub max_age_micros: u64,
}

impl StalenessBound {
    /// No stale service at all.
    pub const ZERO: Self = Self { max_age_micros: 0 };

    /// Allows serving entries up to `max_age_micros` old.
    pub fn micros(max_age_micros: u64) -> Self {
        Self { max_age_micros }
    }

    /// Returns `true` if an entry filled at `filled_at` may still be
    /// served at `now`.
    pub fn permits(&self, filled_at: Instant, now: Instant) -> bool {
        now.since(filled_at) <= self.max_age_micros
    }
}

/// What one origin fetch produced.
pub(super) struct Fetched {
    pub(super) bytes: Bytes,
    pub(super) report: PathReport,
    /// Whether the chain walk reused at least one cached stage.
    pub(super) stage_partial: bool,
    /// The content digest, when the walk already knows it (spares the
    /// install a full re-hash).
    pub(super) content_sig: Option<Signature>,
    /// Else the stage whose output they are (filed, maybe, by its name).
    pub(super) stage: Option<Signature>,
    /// The entry's price: the whole path on the opaque read, the marginal
    /// replacement cost on the staged walk.
    pub(super) cost_micros: f64,
    /// Its document's [`ShardTable::invalidations`] before the fetch began.
    pub(super) seen: u64,
    /// When the attempt began, before it read the origin or a lease vouched.
    pub(super) began: Instant,
}

/// A document's origin record, resolved — one space lookup for the key,
/// one table lookup for the record — at most once, and only when a
/// breaker, a window or a lapsed deadline asks for it: the default
/// configuration asks for nothing, so a miss under it pays for neither.
pub(super) struct DocOrigin<'a> {
    cache: &'a DocumentCache,
    doc: DocumentId,
    record: OnceCell<Arc<Origin>>,
}

impl DocOrigin<'_> {
    pub(super) fn get(&self) -> &Origin {
        self.record.get_or_init(|| {
            let key = self.cache.origin_key(self.doc);
            self.cache.origins.get(key)
        })
    }
}

/// What one [`DocumentCache::read_with`] call carries through its steps.
struct ReadCtx<'a> {
    user: UserId,
    doc: DocumentId,
    opts: ReadOptions,
    clock: &'a VirtualClock,
    started: Instant,
}

impl ReadCtx<'_> {
    /// Virtual microseconds since the read began.
    fn elapsed_micros(&self) -> u64 {
        self.clock.now().since(self.started)
    }

    fn outcome(&self, bytes: Bytes, class: HitClass) -> ReadOutcome {
        ReadOutcome {
            bytes,
            class,
            latency_micros: self.elapsed_micros(),
        }
    }
}

/// What the shard held for a read.
enum Lookup {
    /// The reader's own buffered write-back data.
    Dirty(Bytes),
    /// A resident entry that passed (or was refreshed by) its verifiers,
    /// and whether its cacheability demands a forwarded read event.
    Serve(Bytes, bool),
    /// Go to the origin.
    Miss(Option<Stale>),
}

impl DocumentCache {
    /// Reads a document for `user`, serving from the cache when possible.
    ///
    /// Equivalent to [`Self::read_with`] with default [`ReadOptions`],
    /// discarding the [`ReadOutcome`] classification.
    pub fn read(&self, user: UserId, doc: DocumentId) -> Result<Bytes> {
        self.read_with(user, doc, ReadOptions::default())
            .map(|outcome| outcome.bytes)
    }

    /// Reads a document for `user` under per-read [`ReadOptions`],
    /// reporting how the read was served.
    pub fn read_with(
        &self,
        user: UserId,
        doc: DocumentId,
        opts: ReadOptions,
    ) -> Result<ReadOutcome> {
        let key = EntryKey::Version(doc, user);
        let clock = self.space.clock();
        let read = ReadCtx {
            user,
            doc,
            opts,
            clock,
            started: clock.now(),
        };
        let stale = match self.lookup(key, &read) {
            Lookup::Dirty(bytes) => return Ok(read.outcome(bytes, HitClass::Hit)),
            Lookup::Serve(bytes, forward) => {
                return self.deliver(&read, bytes, HitClass::Hit, forward)
            }
            Lookup::Miss(stale) => stale,
        };
        // One pressure sample per miss feeds the brownout ladder. From its
        // first rung a resident copy within the staleness bound is served
        // without fetching: a hit the origin never sees is capacity
        // reclaimed.
        let rung = self
            .origins
            .sample(|| self.version_flights.waiting(), &self.table.stats);
        let widened = rung >= Rung::WidenStale;
        if let (true, Some(stale), Some(bound)) = (widened, &stale, self.origins.config.serve_stale)
        {
            if bound.permits(stale.filled_at, clock.now()) {
                return self.serve_stale_candidate(&read, stale.bytes.clone(), stale.forward);
            }
        }

        // Miss path. Coalesce concurrent misses on this key into one
        // flight: the first thread fetches, the rest wait (holding no
        // cache lock) and share its outcome.
        let guard = match self.version_flights.join(key) {
            Join::Leader(guard) => Some(guard),
            Join::Waited(Some(FlightResult::Shared { bytes, forward })) => {
                // Another thread's miss computed these bytes while we
                // waited; the read was served locally without touching
                // the origin, so it counts as a hit — plus the
                // coalescing counter that explains *why* it hit.
                AtomicCacheStats::bump(&self.table.stats.hits);
                AtomicCacheStats::bump(&self.table.stats.coalesced_waits);
                self.local_latency.charge(read.clock, bytes.len() as u64);
                AtomicCacheStats::add(&self.table.stats.hit_micros, read.elapsed_micros());
                // `CacheableWithEvents` demands an event per read: every
                // waiter posts its own.
                return self.deliver(&read, bytes, HitClass::CoalescedWait, forward);
            }
            Join::Waited(Some(FlightResult::Failed(error))) => {
                // The flight's one fetch failed; every waiter shares
                // the error (and its own stale fallback, if any), and a
                // shed is counted for each.
                AtomicCacheStats::bump(&self.table.stats.coalesced_waits);
                if let PlacelessError::Overloaded { .. } = error {
                    return Err(self.origins.shed(read.opts.priority, &self.table.stats));
                }
                return self.stale_or_degraded(&read, error, stale);
            }
            // The leader's result may not be shared (uncacheable
            // content must reach the origin per read) or the leader
            // unwound without publishing: fetch independently.
            Join::Waited(Some(FlightResult::Unshared)) | Join::Waited(None) => None,
        };

        // Execute the full read path with no shard lock held — the path
        // may dispatch events that invalidate entries in this cache
        // (lock-order rule: no cache lock across middleware calls).
        let fetched = self.fetch_with_resilience(&read);
        if let Some(guard) = guard {
            // A waiter may have joined after a write, an out-of-band edit or
            // an invalidation this fetch missed: the bytes are shared only if
            // no invalidation began since and the verifiers still vouch for
            // them (those that attest content always, any other while a
            // thread waits), now that nobody can join.
            let fresh = |fetched: &Fetched| {
                let waits = self.version_flights.waiting() > 0;
                let mut verifiers = fetched.report.verifiers.iter();
                self.table.invalidations(doc) == fetched.seen
                    && verifiers.all(|v| still_attests(&**v, read.clock, waits))
            };
            guard.complete(|| match &fetched {
                Ok(fetched) if fetched.report.cacheability == Cacheability::Uncacheable => {
                    FlightResult::Unshared
                }
                Ok(fetched) if !fresh(fetched) => FlightResult::Unshared,
                Ok(fetched) => FlightResult::Shared {
                    bytes: fetched.bytes.clone(),
                    forward: fetched.report.cacheability.requires_event_forwarding(),
                },
                Err(error) => FlightResult::Failed(error.clone()),
            });
        }
        let fetched = match fetched {
            Ok(fetched) => fetched,
            Err(error) => return self.stale_or_degraded(&read, error, stale),
        };
        if fetched.report.cacheability == Cacheability::Uncacheable {
            AtomicCacheStats::bump(&self.table.stats.uncacheable_reads);
            return Ok(read.outcome(fetched.bytes, HitClass::Miss));
        }
        AtomicCacheStats::bump(&self.table.stats.misses);
        let class = if fetched.stage_partial {
            HitClass::PartialHit
        } else {
            HitClass::Miss
        };
        let bytes = fetched.bytes.clone();
        self.fill(key, fetched, false);
        AtomicCacheStats::add(&self.table.stats.miss_micros, read.elapsed_micros());
        if self.prefetch.max_per_miss > 0 {
            self.prefetch_collection_siblings(user, doc);
        }
        self.deliver(&read, bytes, class, false)
    }

    /// Looks `key` up under its shard lock, held shared: buffered
    /// write-back data first (the freshest view for its writer), then the
    /// resident entry, whose verifiers run here and decide what becomes
    /// of it.
    fn lookup(&self, key: EntryKey, read: &ReadCtx) -> Lookup {
        let clock = read.clock;
        let shard = self.table.share(key);
        // This thread's block of the counters, looked up once.
        let stats = &*self.table.stats;
        if let Some(dirty) = shard.dirty(read.doc, read.user) {
            AtomicCacheStats::bump(&stats.hits);
            return Lookup::Dirty(dirty.data.clone());
        }
        let verify = |meta: &EntryMeta| {
            if !self.run_verifiers {
                return Validity::Valid;
            }
            let (verdict, probe_cost) = run_all(&meta.verifiers, clock);
            clock.advance(probe_cost);
            AtomicCacheStats::add(&stats.verify_micros, probe_cost);
            verdict
        };
        match shard.probe(key, clock, verify) {
            Some(Probe::Fresh {
                bytes,
                forward,
                was_prefetched,
                replaced,
                ..
            }) => {
                if replaced {
                    AtomicCacheStats::bump(&stats.verifier_replacements);
                } else if was_prefetched {
                    AtomicCacheStats::bump(&stats.prefetch_hits);
                }
                self.local_latency.charge(clock, bytes.len() as u64);
                AtomicCacheStats::bump(&stats.hits);
                AtomicCacheStats::add(&stats.hit_micros, read.elapsed_micros());
                Lookup::Serve(bytes, forward)
            }
            Some(Probe::Invalid) => {
                AtomicCacheStats::bump(&self.table.stats.verifier_invalidations);
                Lookup::Miss(None)
            }
            // Neither fresh nor refuted. The entry stays; the miss path
            // decides whether the staleness bound lets it stand in for an
            // unreachable origin.
            Some(Probe::Unverifiable(stale)) => Lookup::Miss(Some(stale)),
            None => Lookup::Miss(None),
        }
    }

    /// The shared tail of every read served through the cache: forwards
    /// the read event when the entry's cacheability demands one per read,
    /// charges the access link, and stamps the latency.
    fn deliver(
        &self,
        read: &ReadCtx,
        bytes: Bytes,
        class: HitClass,
        forward: bool,
    ) -> Result<ReadOutcome> {
        if forward {
            self.space
                .post_cache_event(read.user, read.doc, EventKind::CacheRead)?;
            AtomicCacheStats::bump(&self.table.stats.events_forwarded);
        }
        if let Some(link) = &self.access_link {
            link.transfer(read.clock, bytes.len() as u64);
        }
        Ok(read.outcome(bytes, class))
    }

    /// Terminal miss-path failure handling: a transient error may still
    /// be served stale — resident bytes whose freshness is merely
    /// *unknown* stand in for the unreachable origin within the configured
    /// staleness bound, [`OriginConfig::serve_stale`].
    /// Verifier-rejected entries were dropped before the fetch and can
    /// never be served here. Everything else propagates the error.
    fn stale_or_degraded(
        &self,
        read: &ReadCtx,
        error: PlacelessError,
        stale: Option<Stale>,
    ) -> Result<ReadOutcome> {
        if error.is_transient() {
            if let (Some(bound), Some(stale)) = (self.origins.config.serve_stale, stale) {
                if bound.permits(stale.filled_at, read.clock.now()) {
                    return self.serve_stale_candidate(read, stale.bytes, stale.forward);
                }
            }
            AtomicCacheStats::bump(&self.table.stats.degraded_errors);
        }
        Err(error)
    }

    /// Serves resident stale bytes in place of a fetch: counts the stale
    /// service and charges local latency. Callers have already checked
    /// the applicable staleness bound.
    fn serve_stale_candidate(
        &self,
        read: &ReadCtx,
        bytes: Bytes,
        forward: bool,
    ) -> Result<ReadOutcome> {
        AtomicCacheStats::bump(&self.table.stats.stale_served);
        self.local_latency.charge(read.clock, bytes.len() as u64);
        self.deliver(read, bytes, HitClass::StaleServed, forward)
    }

    /// Executes the middleware read through the retry driver
    /// ([`RetryDriver::run`]), bounded by the read's deadline if it has
    /// one. Runs with no cache lock held (the middleware path may re-enter
    /// this cache through the invalidation bus).
    fn fetch_with_resilience(&self, read: &ReadCtx) -> Result<Fetched> {
        let deadline = read.opts.deadline_micros;
        let ctx = self.origins.fetch_ctx(read.opts.priority, deadline);
        self.with_retries(read.user, read.doc, Op::Fetch(ctx), deadline, || {
            self.fetch_once(read.user, read.doc, read.clock, ctx)
        })
    }

    /// Runs a single-key origin operation — a miss fetch, a write-through
    /// write — through the retry driver, `doc`'s origin record resolved
    /// only if admission asks for it.
    pub(super) fn with_retries<T>(
        &self,
        user: UserId,
        doc: DocumentId,
        op: Op,
        deadline: Option<u64>,
        mut attempt: impl FnMut() -> Result<T>,
    ) -> Result<T> {
        let origin = self.doc_origin(doc);
        let driver = RetryDriver {
            origins: &self.origins,
            stats: &self.table.stats,
            op,
            deadline,
        };
        // Salting the jitter stream with the key keeps concurrent
        // operations from sharing one schedule while staying
        // deterministic per key.
        let salt = doc.0 ^ user.0.rotate_left(32);
        driver
            .run(|| origin.get(), Some(salt), || attempt().map_err(|e| [e]))
            .map_err(GaveUp::into_error)
    }

    /// `doc`'s origin record, not yet resolved.
    fn doc_origin(&self, doc: DocumentId) -> DocOrigin<'_> {
        DocOrigin {
            cache: self,
            doc,
            record: OnceCell::new(),
        }
    }

    /// The key `doc`'s origin goes by in the origin table and the flush
    /// groups.
    pub(super) fn origin_key(&self, doc: DocumentId) -> String {
        self.space
            .origin_of(doc)
            .unwrap_or_else(|| format!("doc:{}", doc.0))
    }

    /// Executes one middleware read attempt, inside the slot admission
    /// gave it: the compiled-plan walk with intermediate-result lookups
    /// when stage caching is on, the plain opaque-stream read otherwise.
    /// Runs with no cache lock held.
    fn fetch_once(
        &self,
        user: UserId,
        doc: DocumentId,
        clock: &VirtualClock,
        ctx: FetchCtx,
    ) -> Result<Fetched> {
        if self.stage_cache {
            self.read_through_stages(user, doc, clock, ctx)
        } else {
            let (seen, began) = (self.table.invalidations(doc), clock.now());
            self.space
                .read_document(user, doc)
                .map(|(bytes, report)| Fetched {
                    seen,
                    began,
                    bytes,
                    cost_micros: report.cost.effective_micros(),
                    report,
                    stage_partial: false,
                    content_sig: None,
                    stage: None,
                })
        }
    }

    /// `user`'s rendition of `doc` as this cache would serve it, and its
    /// digest, the writer's own buffered write aside. A resident version
    /// answers only if a verifier of it attests content and all pass now —
    /// run whatever `run_verifiers` says, as the root lease's are. Else one
    /// [`Self::fetch_once`], without admission or retry, installed as a
    /// miss's fetch is and hashed only if the walk knows no digest.
    pub(super) fn current_rendition(
        &self,
        user: UserId,
        doc: DocumentId,
    ) -> Result<(Bytes, Signature)> {
        let (key, clock) = (EntryKey::Version(doc, user), self.space.clock());
        let attested = |meta: &EntryMeta| {
            meta.verifiers.iter().any(|v| v.attests_content()) && {
                let (verdict, probe_cost) = run_all(&meta.verifiers, clock);
                clock.advance(probe_cost);
                AtomicCacheStats::add(&self.table.stats.verify_micros, probe_cost);
                verdict == Validity::Valid
            }
        };
        if let Some(resident) = self.table.share(key).content(key, attested) {
            return Ok(resident);
        }
        let ctx = self.origins.fetch_ctx(Priority::Foreground, None);
        let fetched = self.fetch_once(user, doc, clock, ctx)?;
        let bytes = fetched.bytes.clone();
        let cacheable = fetched.report.cacheability != Cacheability::Uncacheable;
        let sig = cacheable.then(|| self.fill(key, fetched, false)).flatten();
        let sig = sig.unwrap_or_else(|| ConcurrentStore::signature_of(&bytes));
        Ok((bytes, sig))
    }

    /// Installs a fetched version under `key` and returns its digest, taken
    /// with no lock held — `None` if the alias rule ([`ShardGuard::install`]) turns it away.
    fn fill(&self, key: EntryKey, fetched: Fetched, prefetched: bool) -> Option<Signature> {
        let Fetched {
            bytes,
            report,
            content_sig,
            stage,
            cost_micros,
            seen,
            began,
            ..
        } = fetched;
        let free = cost_micros == 0.0 && !report.pinned;
        if content_sig.is_none() && free && self.table.scarce(bytes.len() as u64) {
            // Turned away as `install` would, the old binding with it.
            self.table.lock(key).remove(key, Removal::Invalidated);
            return None;
        }
        // What this version aliases is found by content from now on.
        let sig = content_sig
            .unwrap_or_else(|| self.refile(stage, ConcurrentStore::signature_of(&bytes)));
        let mut meta = EntryMeta::new(report.verifiers, report.cacheability, cost_micros, began);
        meta.pinned = report.pinned;
        meta.prefetched = prefetched;
        let mut shard = self.table.lock(key);
        let EntryKey::Version(doc, _) = key else {
            unreachable!("a fill is a version's")
        };
        // An invalidation begun since the fetch may have removed its bytes.
        if self.table.invalidations(doc) == seen {
            shard.install(key, bytes, meta, sig);
        }
        Some(sig)
    }

    /// Pulls collection siblings of `doc` into the cache after a miss.
    ///
    /// Each sibling is one admission ([`Op::Prefetch`]), one attempt and
    /// no retry. Under overload control a prefetch is the first work the
    /// brownout ladder sheds, and one `Overloaded` verdict abandons the
    /// rest of the batch rather than hammering a window that just refused
    /// speculative work. A sibling
    /// whose origin's breaker is not `Closed` is skipped: an open breaker
    /// means the origin is not to be contacted, and speculative work never
    /// spends a half-open probe.
    fn prefetch_collection_siblings(&self, user: UserId, doc: DocumentId) {
        let clock = self.space.clock();
        let ctx = self.origins.fetch_ctx(Priority::Prefetch, None);
        let mut budget = self.prefetch.max_per_miss;
        for collection in self.space.collections_of(doc) {
            for sibling in self.space.collection_members(&collection) {
                if budget == 0 {
                    return;
                }
                if sibling == doc
                    || self.contains(user, sibling)
                    || !self.space.has_reference(user, sibling)
                {
                    continue;
                }
                let origin = self.doc_origin(sibling);
                let admitted =
                    self.origins
                        .admit(|| origin.get(), Op::Prefetch(ctx), &self.table.stats);
                // Fetch through the full property path, as a miss would.
                let fetched = admitted.and_then(|slot| {
                    let fetched = self.fetch_once(user, sibling, clock, ctx);
                    slot.settle(&fetched.as_ref().map_err(std::slice::from_ref));
                    fetched
                });
                let fetched = match fetched {
                    Ok(fetched) => fetched,
                    Err(PlacelessError::Overloaded { .. }) => return,
                    Err(_) => continue,
                };
                if fetched.report.cacheability == Cacheability::Uncacheable {
                    continue;
                }
                self.fill(EntryKey::Version(sibling, user), fetched, true);
                AtomicCacheStats::bump(&self.table.stats.prefetches);
                budget -= 1;
            }
        }
    }
}
