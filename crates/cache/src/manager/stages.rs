//! The staged miss walk: plan and root leases, stage lookups and fills.

use super::*;

/// Fast-path state for one document's staged read walk (see
/// [`DocumentCache::read_through_stages`]).
pub(super) struct PlanLease {
    /// The space-issued compiled view of the base half of the property
    /// chain, validated against the base document's chain epoch on every
    /// use — reusing it saves one middleware hop per walk.
    chain: Arc<BaseChainLease>,
    /// The provider rendition last fetched through this lease, when the
    /// provider could hand out a verifier for it.
    root: Option<RootLease>,
}

/// A verifier-guarded root content signature: "the provider bytes still
/// digest to `sig`", as attested by `verifier`. The verifier is captured
/// *before* the bytes it covers are fetched, so a write landing between
/// capture and fetch reads as `Invalid` (a wasted refetch) — never as
/// `Valid` over stale bytes.
struct RootLease {
    sig: Signature,
    verifier: Box<dyn Verifier>,
}

/// One staged walk in progress: the pipeline, the report it accrues, and
/// what the walk has learned about the provider root.
struct Walk<'p> {
    plan: &'p TransformPlan,
    pipeline: StagePipeline<'p>,
    report: PathReport,
    /// Set once this walk fetched the provider bytes.
    fetched_root: Option<FetchedRoot>,
    /// Whether any stage was adopted (resident or coalesced) instead of
    /// executed.
    any_hit: bool,
}

/// What a provider fetch leaves behind besides the bytes: their digest,
/// and the provider's verifier over them when it hands one out. The
/// verifier is captured *before* the fetch: a write landing in between
/// reads as `Invalid` next time (a wasted refetch), never as `Valid` over
/// stale bytes.
struct FetchedRoot {
    sig: Signature,
    verifier: Option<Box<dyn Verifier>>,
}

impl FetchedRoot {
    /// Fetches the provider bytes, folding their digest in the same pass.
    fn fetch(plan: &TransformPlan, clock: &VirtualClock) -> Result<(Bytes, Self)> {
        let verifier = plan.provider.make_verifier(clock);
        let mut stream = plan.provider.open_input(clock)?;
        let (bytes, sig) = read_all_digest(stream.as_mut())?;
        Ok((bytes, Self { sig, verifier }))
    }
}

impl Walk<'_> {
    /// Ensures the pipeline holds real bytes, fetching the provider root
    /// when a lease-anchored walk reaches a point that needs content. The
    /// pipeline can only be byteless at the chain head (every processed
    /// stage leaves bytes behind), so when the fetched digest contradicts
    /// the leased signature — the lease lost its race with a writer
    /// between the verifier probe and this fetch — rebasing the pipeline
    /// on the real root is a clean restart of the walk, not a mid-chain
    /// splice.
    fn materialize_root(&mut self, clock: &VirtualClock) -> Result<()> {
        if self.pipeline.has_bytes() {
            return Ok(());
        }
        let (bytes, root) = FetchedRoot::fetch(self.plan, clock)?;
        if root.sig == self.pipeline.chain_signature() {
            self.pipeline.supply_root(bytes);
        } else {
            self.pipeline = StagePipeline::from_root(self.plan, bytes, root.sig);
        }
        self.fetched_root = Some(root);
        Ok(())
    }
}

impl DocumentCache {
    /// Budget check before each expensive stage step (fires only when
    /// overload control supplied a deadline instant): a walk whose
    /// budget already lapsed is shed instead of computing doomed stages.
    fn check_stage_budget(&self, ctx: FetchCtx, clock: &VirtualClock) -> Result<()> {
        if ctx
            .deadline_at
            .is_some_and(|deadline| clock.now() >= deadline)
        {
            return Err(self.shed(ctx.priority));
        }
        Ok(())
    }

    /// Walks the compiled [`TransformPlan`] through a
    /// [`StagePipeline`], streaming each executed stage in one chunked
    /// pass (output digest folded as the chunks flow) and skipping stages
    /// whose output is already resident under its stage signature.
    ///
    /// Two leases make the repeat walk cheap. The **chain lease** is the
    /// space's compiled view of the base half of the property chain,
    /// validated against the base document's chain epoch inside
    /// [`DocumentSpace::read_plan_cached`] — reusing it saves one
    /// middleware hop. The **root lease** is the provider content
    /// signature captured at the last fetch, guarded by the provider's
    /// own verifier: the verifier runs on *every* use (this is the
    /// lease's soundness condition, not `run_verifiers` freshness
    /// policy), and only `Valid` lets the walk anchor its signature chain
    /// on the leased digest without refetching the provider bytes at all.
    /// A walk that never executes a stage — every signed stage hits —
    /// then never materializes the root. Stale intermediates are never
    /// served either way: a stage hit is *proof* that the resident
    /// intermediate was derived from exactly the attested source bytes by
    /// exactly this transform prefix. Skipped stages do not charge the
    /// virtual clock (that is the saving) but still accrue their
    /// replacement cost and still register their path metadata (votes,
    /// verifiers, pins) via a lazy dummy wrap.
    ///
    /// A stage that is neither resident nor being computed opens a
    /// **stage flight** keyed by its signature; threads
    /// that miss the same `(doc, stage)` signature while it is open wait
    /// for the leader and account the shared output as a stage hit plus a
    /// coalesced wait. Identical signatures imply identical input bytes
    /// and transform prefix, so the leader's output is byte-for-byte what
    /// every waiter's walk would have computed.
    ///
    /// Returns the bytes, the report, whether any stage hit (resident or
    /// coalesced), and the final content digest when the walk knows it
    /// (spares the install path a full re-hash).
    pub(super) fn read_through_stages(
        &self,
        user: UserId,
        doc: DocumentId,
        clock: &VirtualClock,
        ctx: FetchCtx,
    ) -> Result<Fetched> {
        // Lease probe. The root half is consumed only if its verifier —
        // charged to this walk — still vouches for the leased signature.
        let (chain_lease, root_sig) = {
            let mut leases = self.leases.lock();
            match leases.get_mut(&doc) {
                Some(lease) => {
                    let chain = Arc::clone(&lease.chain);
                    let root = lease.root.as_ref().and_then(|root| {
                        let cost = root.verifier.cost_micros();
                        clock.advance(cost);
                        let cell = self.cell(EntryKey::Version(doc, user));
                        AtomicCacheStats::add(&cell.verify_micros, cost);
                        (root.verifier.check(clock) == Validity::Valid).then_some(root.sig)
                    });
                    if root.is_none() {
                        lease.root = None;
                    }
                    (Some(chain), root)
                }
                None => (None, None),
            }
        };
        let (plan, chain_lease, _chain_reused) =
            self.space
                .read_plan_cached(user, doc, chain_lease.as_ref())?;
        let report = plan.seed_report(clock);
        // The walk anchors either on the verified root signature (no
        // fetch, no bytes until a stage actually needs them) or on freshly
        // fetched provider bytes.
        let (pipeline, fetched_root) = match root_sig {
            Some(sig) => {
                AtomicCacheStats::bump(&self.stats.root_reuses);
                (StagePipeline::from_signature(&plan, sig), None)
            }
            None => {
                let (bytes, root) = FetchedRoot::fetch(&plan, clock)?;
                (StagePipeline::from_root(&plan, bytes, root.sig), Some(root))
            }
        };
        let mut walk = Walk {
            plan: &plan,
            pipeline,
            report,
            fetched_root,
            any_hit: false,
        };
        for index in 0..plan.len() {
            // Every expensive step checks remaining budget first: a walk
            // whose deadline lapsed mid-chain is shed before executing
            // (or even looking up) the next stage.
            self.check_stage_budget(ctx, clock)?;
            self.walk_stage(&mut walk, clock, index)?;
        }
        if walk.any_hit {
            AtomicCacheStats::bump(&self.stats.stage_partial_hits);
        }
        // A walk whose every stage hit never needed the root — until now:
        // the caller wants the final content.
        walk.materialize_root(clock)?;
        let (bytes, content_sig) = walk.pipeline.finish();
        let bytes = bytes.expect("pipeline bytes materialized after the walk");
        // Refresh the lease for the next walk: the chain half always (it
        // is epoch-validated on use), the root half only when this walk
        // fetched the provider bytes and could capture a verifier over
        // them (a fetch with no verifier clears any stale root lease).
        {
            let mut leases = self.leases.lock();
            let lease = leases.entry(doc).or_insert_with(|| PlanLease {
                chain: Arc::clone(&chain_lease),
                root: None,
            });
            lease.chain = chain_lease;
            if let Some(FetchedRoot { sig, verifier }) = walk.fetched_root {
                lease.root = verifier.map(|verifier| RootLease { sig, verifier });
            }
        }
        Ok(Fetched {
            bytes,
            report: walk.report,
            stage_partial: walk.any_hit,
            content_sig,
        })
    }

    /// Advances the walk over stage `index`: adopts its output when it is
    /// resident or another thread is computing it, executes it otherwise.
    fn walk_stage(&self, walk: &mut Walk<'_>, clock: &VirtualClock, index: usize) -> Result<()> {
        let Some(stage_sig) = walk.pipeline.stage_signature(index) else {
            // Opaque stage: executes on every read; the pipeline restarts
            // the signature chain from its actual output digest, so
            // downstream stages stay cacheable.
            walk.materialize_root(clock)?;
            walk.pipeline.execute(clock, index, &mut walk.report)?;
            return Ok(());
        };
        if let Some((cached, content_sig)) = self.stage_lookup(stage_sig) {
            return self.adopt_stage(walk, clock, index, stage_sig, cached, Some(content_sig));
        }
        match self.stage_flights.join(EntryKey::Stage(stage_sig)) {
            Join::Leader(guard) => {
                // Re-check residency under leadership: a previous flight
                // may have filled this signature between our lookup and
                // now.
                if let Some((cached, content_sig)) = self.stage_lookup(stage_sig) {
                    let shared = cached.clone();
                    self.adopt_stage(walk, clock, index, stage_sig, cached, Some(content_sig))?;
                    guard.complete(FlightResult::Shared {
                        bytes: shared,
                        forward: false,
                    });
                    return Ok(());
                }
                match self.run_and_fill_stage(walk, clock, index) {
                    Ok((output, executed_sig)) => {
                        // Uncacheable content must execute per read; a
                        // rebased walk (stale root lease) computed
                        // something else than this flight promised.
                        // Either way waiters run their own.
                        let unshared = walk.report.cacheability == Cacheability::Uncacheable
                            || executed_sig != stage_sig;
                        guard.complete(if unshared {
                            FlightResult::Unshared
                        } else {
                            FlightResult::Shared {
                                bytes: output,
                                forward: false,
                            }
                        });
                        Ok(())
                    }
                    Err(error) => {
                        guard.complete(FlightResult::Failed(error.clone()));
                        Err(error)
                    }
                }
            }
            Join::Waited(Some(FlightResult::Shared { bytes, .. })) => {
                self.adopt_stage(walk, clock, index, stage_sig, bytes, None)?;
                AtomicCacheStats::bump(&self.stats.coalesced_waits);
                Ok(())
            }
            Join::Waited(Some(FlightResult::Failed(error))) => {
                // Same signature, same computation: the leader's failure
                // is this walk's failure (the retry driver above may
                // retry it).
                AtomicCacheStats::bump(&self.stats.coalesced_waits);
                Err(error)
            }
            Join::Waited(Some(FlightResult::Unshared)) | Join::Waited(None) => {
                self.run_and_fill_stage(walk, clock, index).map(|_| ())
            }
        }
    }

    /// Adopts `bytes` as stage `index`'s output without executing it and
    /// counts the stage hit.
    fn adopt_stage(
        &self,
        walk: &mut Walk<'_>,
        clock: &VirtualClock,
        index: usize,
        stage_sig: Signature,
        bytes: Bytes,
        content_sig: Option<Signature>,
    ) -> Result<()> {
        walk.pipeline.adopt_hit(
            clock,
            index,
            &mut walk.report,
            stage_sig,
            bytes,
            content_sig,
        )?;
        AtomicCacheStats::bump(&self.stats.stage_hits);
        walk.any_hit = true;
        Ok(())
    }

    /// Executes one signed stage through the pipeline and retains its
    /// output — the plain, uncoalesced stage miss path. Returns the bytes
    /// and the signature the stage actually executed under; the latter
    /// differs from the caller's expectation only when materializing the
    /// root rebased the walk onto a newer provider rendition.
    fn run_and_fill_stage(
        &self,
        walk: &mut Walk<'_>,
        clock: &VirtualClock,
        index: usize,
    ) -> Result<(Bytes, Signature)> {
        walk.materialize_root(clock)?;
        let stage_sig = walk
            .pipeline
            .stage_signature(index)
            .expect("run_and_fill_stage is only called for signed stages");
        let output = walk.pipeline.execute(clock, index, &mut walk.report)?;
        if walk.report.cacheability != Cacheability::Uncacheable {
            // Replacement cost = everything it would take to rebuild this
            // intermediate: provider fetch plus the chain prefix up to and
            // including this stage.
            self.fill_stage(
                stage_sig,
                output.bytes.clone(),
                output.content_sig,
                walk.report.cost.effective_micros(),
            );
        }
        Ok((output.bytes, stage_sig))
    }

    /// Looks up an intermediate stage entry, registering the hit with the
    /// entry's shard policy. Briefly shares one shard lock. Returns the
    /// bytes together with their stored content digest, so the pipeline
    /// can carry the digest forward without re-hashing.
    fn stage_lookup(&self, sig: Signature) -> Option<(Bytes, Signature)> {
        let key = EntryKey::Stage(sig);
        // Stage entries are content-addressed and carry no verifiers:
        // a resident one is valid by construction.
        match self
            .share(key)
            .probe(key, self.space.clock(), |_| Validity::Valid)?
        {
            Probe::Fresh { bytes, sig, .. } => Some((bytes, sig)),
            _ => None,
        }
    }

    /// Inserts an intermediate stage output under its stage signature,
    /// competing for residency like any other entry but tagged
    /// [`STAGE_PIN_LEVEL`] so cost-aware policies discount it.
    /// `content_sig` is the output's already-computed digest (the
    /// streaming executor folds it as the chunks flow), sparing the
    /// install a second full pass over the bytes.
    fn fill_stage(&self, sig: Signature, bytes: Bytes, content_sig: Signature, cost: f64) {
        // Brownout rung 2: under sustained pressure the output is still
        // computed and served, but not persisted — stage-cache churn is
        // pure overhead when the cache is fighting for its life.
        if self.brownout_level().skips_stage_fills() {
            return;
        }
        let key = EntryKey::Stage(sig);
        let mut shard = self.lock(key);
        // Content-addressed: an existing binding is already this content.
        if shard.contains(key) {
            return;
        }
        let meta = EntryMeta::new(
            Vec::new(),
            Cacheability::Unrestricted,
            cost,
            bytes.len() as u64,
            self.space.clock().now(),
        );
        shard.install(key, bytes, meta, STAGE_PIN_LEVEL, Some(content_sig));
    }
}
