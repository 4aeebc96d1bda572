//! The staged miss walk: plan and root leases, stage lookups and fills.

use super::*;

/// Fast-path state for one document's staged read walk (see
/// [`DocumentCache::read_through_stages`]).
pub(super) struct PlanLease {
    /// The space-issued compiled view of the base half of the property
    /// chain, validated against the base document's chain epoch on every
    /// use — reusing it saves one middleware hop per walk.
    chain: Arc<BaseChainLease>,
    /// The provider rendition last fetched through this lease.
    root: Option<Root>,
}

/// A provider rendition as a walk knows it: the digest of its bytes and
/// the provider's verifier over them, when it hands one out — "the
/// provider bytes still digest to `sig`". The verifier is captured
/// *before* the fetch, so a write landing in between reads as `Invalid`
/// next time (a wasted refetch), never as `Valid` over stale bytes.
struct Root {
    sig: Signature,
    verifier: Option<Box<dyn Verifier>>,
}

impl Root {
    /// Fetches the provider bytes, folding their digest in the same pass.
    fn fetch(plan: &TransformPlan, clock: &VirtualClock) -> Result<(Bytes, Self)> {
        let verifier = plan.provider.make_verifier(clock);
        let mut stream = plan.provider.open_input(clock)?;
        let (bytes, sig) = read_all_digest(stream.as_mut())?;
        Ok((bytes, Self { sig, verifier }))
    }
}

/// One staged walk in progress: the pipeline, the report it accrues, and
/// what the walk has learned about the provider root.
struct Walk<'p> {
    plan: &'p TransformPlan,
    pipeline: StagePipeline<'p>,
    report: PathReport,
    /// The signatures of the signed prefix ([`TransformPlan::signed_prefix`]),
    /// chained on the root the pipeline is anchored on.
    sigs: Vec<Signature>,
    /// Set once this walk fetched the provider bytes.
    fetched_root: Option<Root>,
    /// Whether any stage was adopted (resident or coalesced) instead of
    /// executed.
    any_hit: bool,
    /// The marginal replacement cost of the output the pipeline holds:
    /// what a walk would redo were it missing — every stage since the last
    /// output left resident, and the provider fetch while there is none.
    redo_micros: u64,
}

impl Walk<'_> {
    /// Ensures the pipeline holds real bytes, fetching the provider root
    /// when a lease-anchored walk reaches a point that needs content. The
    /// pipeline can only be byteless at the chain head, so when the
    /// fetched digest contradicts the leased signature — the lease lost
    /// its race with a writer between the verifier probe and this fetch —
    /// rebasing on the real root is a clean restart of the walk, prefix
    /// signatures included, not a mid-chain splice.
    fn materialize_root(&mut self, clock: &VirtualClock) -> Result<()> {
        if self.pipeline.has_bytes() {
            return Ok(());
        }
        let (bytes, root) = Root::fetch(self.plan, clock)?;
        if root.sig == self.pipeline.chain_signature() {
            self.pipeline.supply_root(bytes);
        } else {
            self.pipeline = StagePipeline::from_root(self.plan, bytes, root.sig);
            self.sigs = self.plan.signed_prefix(root.sig);
        }
        self.fetched_root = Some(root);
        Ok(())
    }

    /// Stage `index`'s addressing signature: read off the prefix, or — past
    /// the first opaque stage — chained on what the pipeline holds. `None`
    /// for an opaque stage.
    fn stage_sig(&self, index: usize) -> Option<Signature> {
        let known = self.sigs.get(index).copied();
        known.or_else(|| self.pipeline.stage_signature(index))
    }
}

impl DocumentCache {
    /// Budget check before each expensive stage step (fires only when
    /// overload control supplied a deadline instant): a walk whose
    /// budget already lapsed is shed instead of computing doomed stages.
    fn check_stage_budget(&self, ctx: FetchCtx, clock: &VirtualClock) -> Result<()> {
        match ctx.deadline_at {
            Some(deadline) if clock.now() >= deadline => Err(self.shed(ctx.priority)),
            _ => Ok(()),
        }
    }

    /// Walks the compiled [`TransformPlan`] through a [`StagePipeline`],
    /// starting **where the cache already is**: stage signatures chain on
    /// signatures, not bytes, so the walk knows the signed prefix's up
    /// front, adopts the deepest stage whose output is resident
    /// ([`Self::adopt_deepest`]) and executes only what lies after it.
    ///
    /// Two leases make the repeat walk cheap. The **chain lease** is the
    /// space's compiled view of the base half of the chain, validated
    /// against the document's chain epoch inside
    /// [`DocumentSpace::read_plan_cached`]. The **root lease** is the
    /// provider content signature captured at the last fetch; the
    /// provider's own verifier runs on *every* use (the lease's soundness
    /// condition, not `run_verifiers` freshness policy), and only `Valid`
    /// lets the walk anchor on the leased digest without refetching. A
    /// walk that never executes the chain head never materializes the
    /// root. Stale intermediates are never served either way: a stage hit
    /// is *proof* that the resident output was derived from exactly the
    /// attested source bytes by exactly this transform prefix.
    ///
    /// A stage that is neither resident nor being computed opens a **stage
    /// flight** keyed by its signature; threads that miss the same
    /// signature meanwhile wait for the leader and adopt its output, which
    /// is byte for byte what their own walk would have computed.
    pub(super) fn read_through_stages(
        &self,
        user: UserId,
        doc: DocumentId,
        clock: &VirtualClock,
        ctx: FetchCtx,
    ) -> Result<Fetched> {
        let (chain_lease, root_sig) = self.probe_lease(user, doc, clock);
        let (plan, chain_lease, _chain_reused) =
            self.space
                .read_plan_cached(user, doc, chain_lease.as_ref())?;
        let mut walk = self.anchor(&plan, root_sig, clock)?;
        // Every expensive step checks remaining budget first: a walk
        // whose deadline lapsed is shed before executing (or even
        // looking up) the next stage.
        self.check_stage_budget(ctx, clock)?;
        let resume = self.adopt_deepest(&mut walk, clock)?;
        for index in resume..plan.len() {
            self.check_stage_budget(ctx, clock)?;
            self.walk_stage(&mut walk, clock, index)?;
        }
        if walk.any_hit {
            AtomicCacheStats::bump(&self.stats.stage_partial_hits);
        }
        // A walk whose every stage hit never needed the root — until now:
        // the caller wants the final content.
        walk.materialize_root(clock)?;
        // Priced like every output of the walk. A chain that ends on a
        // stage left resident makes the rendition an alias of that entry,
        // free to lose; a chain with none costs its whole path.
        let cost_micros = walk.redo_micros as f64 * walk.report.cost.inflation();
        let (bytes, content_sig) = walk.pipeline.finish();
        self.refresh_lease(doc, chain_lease, walk.fetched_root);
        Ok(Fetched {
            bytes: bytes.expect("pipeline bytes materialized after the walk"),
            report: walk.report,
            stage_partial: walk.any_hit,
            content_sig,
            cost_micros,
        })
    }

    /// Lease probe: `doc`'s chain lease, and its leased root signature if
    /// the root's verifier — charged to this walk — still vouches for it.
    /// A root nothing vouches for is dropped.
    fn probe_lease(
        &self,
        user: UserId,
        doc: DocumentId,
        clock: &VirtualClock,
    ) -> (Option<Arc<BaseChainLease>>, Option<Signature>) {
        let mut leases = self.leases.lock();
        let Some(lease) = leases.get_mut(&doc) else {
            return (None, None);
        };
        let root = lease.root.as_ref().and_then(|root| {
            let verifier = root.verifier.as_ref()?;
            let cost = verifier.cost_micros();
            clock.advance(cost);
            let cell = self.cell(EntryKey::Version(doc, user));
            AtomicCacheStats::add(&cell.verify_micros, cost);
            (verifier.check(clock) == Validity::Valid).then_some(root.sig)
        });
        if root.is_none() {
            lease.root = None;
        }
        (Some(Arc::clone(&lease.chain)), root)
    }

    /// Anchors a walk either on the verified root signature (no fetch, no
    /// bytes until a stage actually needs them) or on freshly fetched
    /// provider bytes, with the prefix signatures chained on that root.
    fn anchor<'p>(
        &self,
        plan: &'p TransformPlan,
        root_sig: Option<Signature>,
        clock: &VirtualClock,
    ) -> Result<Walk<'p>> {
        let report = plan.seed_report(clock);
        let (pipeline, fetched_root) = match root_sig {
            Some(sig) => {
                AtomicCacheStats::bump(&self.stats.root_reuses);
                (StagePipeline::from_signature(plan, sig), None)
            }
            None => {
                let (bytes, root) = Root::fetch(plan, clock)?;
                (StagePipeline::from_root(plan, bytes, root.sig), Some(root))
            }
        };
        Ok(Walk {
            plan,
            sigs: plan.signed_prefix(pipeline.chain_signature()),
            pipeline,
            report,
            fetched_root,
            any_hit: false,
            redo_micros: plan.provider.fetch_cost_micros(),
        })
    }

    /// Probes the signed prefix for residency **deepest stage first** and
    /// adopts the first output found, so nothing before it is fetched,
    /// executed, digested or stored only to be thrown away by a hit
    /// further down. The stages skipped over register their path metadata
    /// exactly as a hit does ([`TransformPlan::note_stage_hit`]) and count
    /// as stage hits, but touch no shard, policy or clock: only the
    /// adopted entry's credit is refreshed. Returns the index the forward
    /// walk resumes at (0 when nothing is resident).
    fn adopt_deepest(&self, walk: &mut Walk<'_>, clock: &VirtualClock) -> Result<usize> {
        let Some((depth, bytes, content_sig)) = (0..walk.sigs.len()).rev().find_map(|depth| {
            let (bytes, content_sig) = self.stage_lookup(walk.sigs[depth])?;
            Some((depth, bytes, content_sig))
        }) else {
            return Ok(0);
        };
        for skipped in 0..depth {
            walk.plan
                .note_stage_hit(clock, skipped, &mut walk.report, walk.sigs[skipped], 0)?;
            AtomicCacheStats::bump(&self.stats.stage_hits);
        }
        let sig = walk.sigs[depth];
        self.adopt_stage(walk, clock, depth, sig, bytes, Some(content_sig))?;
        Ok(depth + 1)
    }

    /// Refreshes `doc`'s lease for the next walk: the chain half always
    /// (it is epoch-validated on use), the root half when this walk
    /// fetched the provider bytes (a fetch the provider gave no verifier
    /// for replaces a stale root with one the next probe drops).
    fn refresh_lease(&self, doc: DocumentId, chain: Arc<BaseChainLease>, root: Option<Root>) {
        let mut leases = self.leases.lock();
        if let Some(lease) = leases.get_mut(&doc) {
            lease.chain = chain;
            lease.root = root.or(lease.root.take());
        } else {
            leases.insert(doc, PlanLease { chain, root });
        }
    }

    /// Advances the walk over stage `index`: adopts its output when it is
    /// resident or another thread is computing it, executes it otherwise.
    fn walk_stage(&self, walk: &mut Walk<'_>, clock: &VirtualClock, index: usize) -> Result<()> {
        let Some(stage_sig) = walk.stage_sig(index) else {
            // Opaque stage: executes on every read; the pipeline restarts
            // the signature chain from its actual output digest, so
            // downstream stages stay cacheable.
            walk.materialize_root(clock)?;
            walk.redo_micros += walk.plan.stages[index].cost_micros;
            let (pipeline, report) = (&mut walk.pipeline, &mut walk.report);
            return pipeline
                .execute_signed(clock, index, report, None)
                .map(drop);
        };
        if let Some((cached, content_sig)) = self.stage_lookup(stage_sig) {
            return self.adopt_stage(walk, clock, index, stage_sig, cached, Some(content_sig));
        }
        match self.stage_flights.join(EntryKey::Stage(stage_sig)) {
            Join::Leader(guard) => {
                // Re-check residency under leadership: a previous flight
                // may have filled this signature between our lookup and
                // now.
                let led = match self.stage_lookup(stage_sig) {
                    Some((cached, sig)) => self
                        .adopt_stage(walk, clock, index, stage_sig, cached.clone(), Some(sig))
                        .map(|()| Some(cached)),
                    None => self.run_and_fill_stage(walk, clock, index, stage_sig),
                };
                guard.complete(match &led {
                    Ok(Some(bytes)) => FlightResult::Shared {
                        bytes: bytes.clone(),
                        forward: false,
                    },
                    Ok(None) => FlightResult::Unshared,
                    Err(error) => FlightResult::Failed(error.clone()),
                });
                led.map(|_| ())
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
            Join::Waited(Some(FlightResult::Unshared)) | Join::Waited(None) => self
                .run_and_fill_stage(walk, clock, index, stage_sig)
                .map(|_| ()),
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
        let (pipeline, report) = (&mut walk.pipeline, &mut walk.report);
        pipeline.adopt_hit(clock, index, report, stage_sig, bytes, content_sig)?;
        AtomicCacheStats::bump(&self.stats.stage_hits);
        walk.any_hit = true;
        walk.redo_micros = 0;
        Ok(())
    }

    /// Executes one signed stage through the pipeline and retains its
    /// output — the plain, uncoalesced stage miss path. Returns the output
    /// when it is what a flight on `stage_sig` may share: not when the
    /// content is uncacheable (it must execute per read), nor when
    /// materializing the root rebased the walk onto a newer provider
    /// rendition, so that the stage ran under another signature.
    fn run_and_fill_stage(
        &self,
        walk: &mut Walk<'_>,
        clock: &VirtualClock,
        index: usize,
        stage_sig: Signature,
    ) -> Result<Option<Bytes>> {
        walk.materialize_root(clock)?;
        // Only a walk still at the chain head can have been rebased, and
        // the head of a signed chain lies in the prefix.
        let executed_sig = walk.sigs.get(index).copied().unwrap_or(stage_sig);
        let (pipeline, report) = (&mut walk.pipeline, &mut walk.report);
        let output = pipeline.execute_signed(clock, index, report, Some(executed_sig))?;
        walk.redo_micros += walk.plan.stages[index].cost_micros;
        if report.cacheability == Cacheability::Uncacheable {
            return Ok(None);
        }
        // With its input resident, losing this output makes a walk redo
        // this stage alone (and the fetch, when the input is the root).
        let cost = walk.redo_micros as f64 * report.cost.inflation();
        if self.fill_stage(executed_sig, output.bytes.clone(), output.content_sig, cost) {
            walk.redo_micros = 0;
        }
        Ok((executed_sig == stage_sig).then_some(output.bytes))
    }

    /// Looks up an intermediate stage entry, registering the hit with the
    /// entry's shard policy. Briefly shares one shard lock. Returns the
    /// bytes with their stored content digest, for the pipeline to carry.
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
    /// competing for residency like any other entry at `cost`, its
    /// marginal replacement cost. `content_sig` is the digest the
    /// streaming executor folded as the chunks flowed. Returns whether the
    /// output is resident afterwards.
    fn fill_stage(&self, sig: Signature, bytes: Bytes, content_sig: Signature, cost: f64) -> bool {
        // Brownout rung 2: under sustained pressure the output is still
        // computed and served, but not persisted.
        if self.brownout_level().skips_stage_fills() {
            return false;
        }
        let key = EntryKey::Stage(sig);
        let mut shard = self.lock(key);
        // Content-addressed: an existing binding is already this content.
        if shard.contains(key) {
            return true;
        }
        let meta = EntryMeta::new(
            Vec::new(),
            Cacheability::Unrestricted,
            cost,
            bytes.len() as u64,
            self.space.clock().now(),
        );
        shard.install(key, bytes, meta, Some(content_sig));
        shard.contains(key)
    }
}
