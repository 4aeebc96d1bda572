//! The staged miss walk: plan and root leases, stage lookups and fills.

use super::*;

impl Root {
    /// Fetches the provider bytes and digests them — or takes the `held`
    /// lease's digest when it still vouches for them ([`Self::vouches`]).
    fn fetch(
        plan: &TransformPlan,
        clock: &VirtualClock,
        held: Option<&Self>,
    ) -> Result<(Bytes, Self)> {
        let verifier = plan.provider.make_verifier(clock).map(Arc::from);
        let bytes = read_all(plan.provider.open_input(clock)?.as_mut())?;
        let sig = match held {
            Some(lease) if lease.vouches(clock) => lease.sig,
            _ => ConcurrentStore::signature_of(&bytes),
        };
        Ok((bytes, Self { sig, verifier }))
    }

    /// Whether the provider's bytes still digest to `sig`: the verifier
    /// attests content and, re-checked (uncharged: the probe paid), passes.
    /// A TTL passing says nothing of what the provider holds now.
    fn vouches(&self, clock: &VirtualClock) -> bool {
        self.verifier
            .as_ref()
            .is_some_and(|v| v.attests_content() && v.check(clock) == Validity::Valid)
    }
}

/// One staged walk in progress: the pipeline, the report it accrues, and
/// what the walk has learned about the provider root.
struct Walk<'p> {
    plan: &'p TransformPlan,
    clock: &'p VirtualClock,
    ctx: FetchCtx,
    pipeline: StagePipeline<'p>,
    report: PathReport,
    /// The chain signature after each stage: the signed prefix
    /// ([`TransformPlan::signed_prefix`]) on the root the pipeline is
    /// anchored on, then — once the opaque stage that ends it has run —
    /// that stage's output digest and the signed run after it.
    sigs: Vec<Signature>,
    /// Which outputs are worth a name ([`TransformPlan::named_outputs`]).
    named: Vec<bool>,
    /// The leased root the walk anchored on, if it did.
    leased: Option<Root>,
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
    fn materialize_root(&mut self) -> Result<()> {
        if self.pipeline.has_bytes() {
            return Ok(());
        }
        let (bytes, root) = Root::fetch(self.plan, self.clock, self.leased.as_ref())?;
        if root.sig == self.pipeline.chain_signature() {
            self.pipeline.supply_root(bytes);
        } else {
            self.pipeline = StagePipeline::from_root(self.plan, bytes, root.sig);
            self.sigs = self.plan.signed_prefix(root.sig);
        }
        self.fetched_root = Some(root);
        Ok(())
    }
}

impl DocumentCache {
    /// Budget check before each expensive stage step (fires only when
    /// overload control supplied a deadline instant): a walk whose
    /// budget already lapsed is shed instead of computing doomed stages.
    fn check_stage_budget(&self, walk: &Walk<'_>) -> Result<()> {
        match walk.ctx.deadline_at {
            Some(deadline) if walk.clock.now() >= deadline => {
                Err(self.origins.shed(walk.ctx.priority, &self.table.stats))
            }
            _ => Ok(()),
        }
    }

    /// Walks the compiled [`TransformPlan`] through a [`StagePipeline`],
    /// starting **where the cache already is**: stage signatures chain on
    /// signatures, not bytes, so the walk knows the signed prefix's up
    /// front, adopts the deepest stage whose output is resident
    /// ([`Self::adopt_deepest`]) and executes only what lies after it.
    ///
    /// It works in **segments that end on a named output**
    /// ([`TransformPlan::named_outputs`]): only an output a later walk
    /// would look for, and lose by not finding, is digested, stored or
    /// given a flight. A cheap intermediate under a dearer successor is
    /// handed on, its cost accruing to the price of the named output.
    ///
    /// The document's [`PlanLease`] makes the repeat walk cheap: its root's
    /// verifier runs on *every* use (the lease's soundness condition, not
    /// `run_verifiers` policy), and only `Valid` lets the walk anchor on the
    /// leased digest without refetching. Stale intermediates are never
    /// served either way: a stage hit is *proof* that the resident output
    /// was derived from exactly the attested source bytes by exactly this
    /// transform prefix.
    ///
    /// A segment whose named output is neither resident nor being computed
    /// opens a **stage flight** keyed by that output's signature; threads
    /// that miss it meanwhile wait for the leader and adopt its output,
    /// byte for byte what their own walk would have computed.
    pub(super) fn read_through_stages(
        &self,
        user: UserId,
        doc: DocumentId,
        clock: &VirtualClock,
        ctx: FetchCtx,
    ) -> Result<Fetched> {
        let (chain_lease, root) = self.probe_lease(doc, clock);
        let (plan, chain_lease, chain_reused) =
            self.space
                .read_plan_cached(user, doc, chain_lease.as_ref())?;
        let mut walk = self.anchor(&plan, root, clock, ctx)?;
        // Every expensive step checks remaining budget first: a walk
        // whose deadline lapsed is shed before executing (or even
        // looking up) the next stage.
        self.check_stage_budget(&walk)?;
        let mut index = self.adopt_deepest(&mut walk, 0)?;
        while index < plan.len() {
            self.check_stage_budget(&walk)?;
            index = self.walk_segment(&mut walk, index)?;
        }
        if walk.any_hit {
            AtomicCacheStats::bump(&self.table.stats.stage_partial_hits);
        }
        // A walk whose every stage hit never needed the root — until now:
        // the caller wants the final content.
        walk.materialize_root()?;
        // Priced like every output of the walk. A chain that ends on a
        // stage left resident makes the rendition an alias of that entry,
        // free to lose; a chain with none costs its whole path.
        let cost_micros = walk.redo_micros as f64 * walk.report.cost.inflation();
        let stage = walk.pipeline.chain_signature();
        let (bytes, content_sig) = walk.pipeline.finish();
        // Lease what this walk learned: a new chain half, or the root it
        // fetched. A root whose verifier attests nothing is not leased: a
        // walk anchored on it would file its version under a verifier made
        // now, over bytes as old as the root.
        let root = walk.fetched_root.filter(|root| {
            let verifier = root.verifier.as_ref();
            verifier.is_some_and(|v| v.attests_content())
        });
        if !chain_reused || root.is_some() {
            let lease = PlanLease {
                chain: chain_lease,
                root,
            };
            self.table.guard(self.table.home(doc)).put_lease(doc, lease);
        }
        Ok(Fetched {
            bytes: bytes.expect("pipeline bytes materialized after the walk"),
            report: walk.report,
            stage_partial: walk.any_hit,
            stage: content_sig.is_none().then_some(stage),
            content_sig,
            cost_micros,
        })
    }

    /// Lease probe, under the shared guard of `doc`'s home shard, as a hit
    /// runs its verifiers: `doc`'s chain lease, and its leased root if the
    /// root's verifier — charged to this walk — still vouches for it. A
    /// root nothing vouches for is dropped under the exclusive guard.
    fn probe_lease(
        &self,
        doc: DocumentId,
        clock: &VirtualClock,
    ) -> (Option<Arc<BaseChainLease>>, Option<Root>) {
        let home = self.table.shared(self.table.home(doc));
        let Some(lease) = home.lease(doc) else {
            return (None, None);
        };
        let (chain, root) = (Some(Arc::clone(&lease.chain)), lease.root.clone());
        let verifier = root.as_ref().and_then(|root| root.verifier.as_ref());
        let vouched = verifier.is_some_and(|verifier| {
            let cost = verifier.cost_micros();
            clock.advance(cost);
            AtomicCacheStats::add(&self.table.stats.verify_micros, cost);
            verifier.check(clock) == Validity::Valid
        });
        match root {
            Some(stale) if !vouched => {
                drop(home);
                self.table
                    .guard(self.table.home(doc))
                    .drop_root(doc, stale.sig);
                (chain, None)
            }
            root => (chain, root),
        }
    }

    /// Anchors a walk either on the verified root's signature (no fetch, no
    /// bytes until a stage actually needs them) or on freshly fetched
    /// provider bytes, with the prefix signatures chained on that root.
    fn anchor<'p>(
        &self,
        plan: &'p TransformPlan,
        leased: Option<Root>,
        clock: &'p VirtualClock,
        ctx: FetchCtx,
    ) -> Result<Walk<'p>> {
        let report = plan.seed_report(clock);
        // The walk's version is filed under the verifier just made: a write
        // that landed since the lease probe is in its epoch but not in the
        // leased root, so the root must still stand, or the walk fetches.
        let leased = leased.filter(|root| root.vouches(clock));
        let (pipeline, fetched_root) = match &leased {
            Some(root) => {
                AtomicCacheStats::bump(&self.table.stats.root_reuses);
                (StagePipeline::from_signature(plan, root.sig), None)
            }
            None => {
                let (bytes, root) = Root::fetch(plan, clock, None)?;
                (StagePipeline::from_root(plan, bytes, root.sig), Some(root))
            }
        };
        Ok(Walk {
            plan,
            clock,
            ctx,
            sigs: plan.signed_prefix(pipeline.chain_signature()),
            named: plan.named_outputs(),
            pipeline,
            report,
            leased,
            fetched_root,
            any_hit: false,
            redo_micros: plan.provider.fetch_cost_micros(),
        })
    }

    /// Probes the signatures of `from..` for residency **deepest first**
    /// and adopts the first output found, so nothing before it is fetched,
    /// executed or stored only to be thrown away by a hit further down.
    /// The walk's one lookup per signature (an unnamed output is there only
    /// if a walk fell back on it, [`Self::run_segment`]). Returns the index
    /// to resume at (`from` when nothing is resident).
    fn adopt_deepest(&self, walk: &mut Walk<'_>, from: usize) -> Result<usize> {
        let probe = |depth: usize| Some((depth, self.stage_lookup(walk.sigs[depth])?));
        let Some((depth, (bytes, digest))) = (from..walk.sigs.len()).rev().find_map(probe) else {
            return Ok(from);
        };
        self.adopt_through(walk, from, depth, bytes, digest)?;
        Ok(depth + 1)
    }

    /// Advances the walk over the segment starting at stage `start` — up
    /// to and including the next named output, or one opaque stage — and
    /// returns the index after it: adopts the named output when another
    /// thread is computing it, executes the segment otherwise.
    fn walk_segment(&self, walk: &mut Walk<'_>, start: usize) -> Result<usize> {
        if start == walk.sigs.len() {
            // Opaque stage: executes on every read; the pipeline restarts
            // the signature chain from its actual output digest, so the
            // run after it stays cacheable, and is probed like the prefix.
            walk.materialize_root()?;
            walk.redo_micros += walk.plan.stages[start].cost_micros;
            let (pipeline, report) = (&mut walk.pipeline, &mut walk.report);
            pipeline.execute_signed(walk.clock, start, report, None)?;
            let restart = pipeline.chain_signature();
            walk.sigs.push(restart);
            walk.sigs.extend(walk.plan.signed_run(start + 1, restart));
            return self.adopt_deepest(walk, start + 1);
        }
        let unnamed = walk.named[start..].iter().take_while(|named| !**named);
        let end = start + unnamed.count();
        let flight_sig = walk.sigs[end];
        match self.stage_flights.join(EntryKey::Stage(flight_sig)) {
            Join::Leader(guard) => {
                let led = self.run_segment(walk, start, end);
                guard.complete(|| match &led {
                    // Not a walk rebased onto a newer root: other signatures.
                    Ok(Some(bytes)) if walk.sigs[end] == flight_sig => FlightResult::Shared {
                        bytes: bytes.clone(),
                        forward: false,
                    },
                    Ok(_) => FlightResult::Unshared,
                    Err(error) => FlightResult::Failed(error.clone()),
                });
                led?;
            }
            Join::Waited(Some(FlightResult::Shared { bytes, .. })) => {
                self.adopt_through(walk, start, end, bytes, None)?;
                AtomicCacheStats::bump(&self.table.stats.coalesced_waits);
            }
            Join::Waited(Some(FlightResult::Failed(error))) => {
                // Same signature, same computation: the leader's failure
                // is this walk's failure (the retry driver above may
                // retry it).
                AtomicCacheStats::bump(&self.table.stats.coalesced_waits);
                return Err(error);
            }
            Join::Waited(Some(FlightResult::Unshared)) | Join::Waited(None) => {
                self.run_segment(walk, start, end)?;
            }
        }
        Ok(end + 1)
    }

    /// Adopts `bytes` as stage `depth`'s output without executing it or
    /// the stages `from..depth` skipped over, and counts the stage hits.
    /// The skipped ones register their path metadata exactly as a hit does
    /// ([`TransformPlan::note_stage_hit`]) but touch no shard or policy.
    fn adopt_through(
        &self,
        walk: &mut Walk<'_>,
        from: usize,
        depth: usize,
        bytes: Bytes,
        content_sig: Option<Signature>,
    ) -> Result<()> {
        let (plan, clock, sigs, report) = (walk.plan, walk.clock, &walk.sigs, &mut walk.report);
        for (skipped, &sig) in sigs.iter().enumerate().take(depth).skip(from) {
            plan.note_stage_hit(clock, skipped, report, sig, 0)?;
        }
        let pipeline = &mut walk.pipeline;
        pipeline.adopt_hit(clock, depth, report, sigs[depth], bytes, content_sig)?;
        AtomicCacheStats::add(&self.table.stats.stage_hits, (depth + 1 - from) as u64);
        walk.any_hit = true;
        walk.redo_micros = 0;
        Ok(())
    }

    /// Executes the segment `start..=end` — the plain, uncoalesced miss
    /// path — and retains its named output, priced at everything since the
    /// last output left resident. Should that not be stored (its stage made
    /// the path uncacheable, a brownout skips fills, it was its own shard's
    /// victim), the unnamed output before it is ([`Self::file_under`]): a
    /// walk never leaves behind less than the deepest cacheable output it
    /// computed. Returns the named output when a flight may share it: not
    /// when the content is uncacheable (it must execute per read).
    fn run_segment(&self, walk: &mut Walk<'_>, start: usize, end: usize) -> Result<Option<Bytes>> {
        // Only a walk still at the chain head can be rebased, `sigs` too.
        walk.materialize_root()?;
        let (mut held, mut output) = (None, None);
        for index in start..=end {
            if index > start {
                self.check_stage_budget(walk)?;
            }
            let (pipeline, report) = (&mut walk.pipeline, &mut walk.report);
            let sig = walk.sigs[index];
            // An input the walk knows no digest for may be filed by name.
            let input = (pipeline.chain_signature(), pipeline.unhashed().cloned());
            let bytes = pipeline.execute_signed(walk.clock, index, report, Some(sig))?;
            let own_micros = walk.plan.stages[index].cost_micros;
            walk.redo_micros += own_micros;
            // With its input resident, losing an output makes a walk redo
            // its stage alone (and the fetch, when the input is the root).
            let cost = walk.redo_micros as f64 * report.cost.inflation();
            let storable = report.cacheability != Cacheability::Uncacheable;
            let hashed = pipeline.unhashed().is_none();
            let filed = storable && index == end && {
                let key = self.file_under(&bytes, hashed, &input, || pipeline.content_signature());
                self.fill_stage(sig, bytes.clone(), key, cost)
            };
            if storable && index < end {
                held = Some((sig, bytes.clone(), cost, input));
            } else if filed {
                walk.redo_micros = 0;
            } else if let Some((sig, bytes, cost, input)) = held.take() {
                let digest = || ConcurrentStore::signature_of(&bytes);
                let key = self.file_under(&bytes, false, &input, digest);
                if self.fill_stage(sig, bytes, key, cost) {
                    walk.redo_micros = own_micros;
                }
            }
            output = storable.then_some(bytes);
        }
        Ok(output)
    }

    /// Where a stage output is filed: under its digest if `hashed` or if an
    /// alias may share it (room to spare, [`ShardTable::scarce`]), else
    /// (`None`) its own name. An output equal to an unhashed `input` is
    /// hashed, and the input re-filed with it.
    fn file_under(
        &self,
        output: &Bytes,
        hashed: bool,
        (name, input): &(Signature, Option<Bytes>),
        digest: impl FnOnce() -> Signature,
    ) -> Option<Signature> {
        if hashed || input.as_ref() != Some(output) {
            return (hashed || !self.table.scarce(output.len() as u64)).then(digest);
        }
        Some(self.refile(Some(*name), digest()))
    }

    /// Re-files under `digest` what stage `name` may hold by name; returns it.
    pub(super) fn refile(&self, name: Option<Signature>, digest: Signature) -> Signature {
        if let Some(name) = name {
            self.table.lock(EntryKey::Stage(name)).refile(name, digest);
        }
        digest
    }

    /// Looks up an intermediate stage entry, registering the hit with the
    /// entry's shard policy. Briefly shares one shard lock. Returns the
    /// bytes with their content digest, unless filed under `name`.
    fn stage_lookup(&self, name: Signature) -> Option<(Bytes, Option<Signature>)> {
        let key = EntryKey::Stage(name);
        // Stage entries are content-addressed and carry no verifiers:
        // a resident one is valid by construction.
        match self
            .table
            .share(key)
            .probe(key, self.space.clock(), |_| Validity::Valid)?
        {
            Probe::Fresh { bytes, sig, .. } => Some((bytes, (sig != name).then_some(sig))),
            _ => None,
        }
    }

    /// Inserts an intermediate stage output under its stage signature,
    /// competing for residency like any other entry at `cost`, its
    /// marginal replacement cost, filed under `digest` (or its name if
    /// `None`). Returns whether the output is resident afterwards.
    fn fill_stage(
        &self,
        sig: Signature,
        bytes: Bytes,
        digest: Option<Signature>,
        cost: f64,
    ) -> bool {
        // Brownout rung 2: under sustained pressure the output is still
        // computed and served, but not persisted.
        if self.origins.rung() >= Rung::SkipStageFills {
            return false;
        }
        let key = EntryKey::Stage(sig);
        let mut shard = self.table.lock(key);
        // Content-addressed: an existing binding is already this content.
        if shard.contains(key) {
            return true;
        }
        let meta = EntryMeta::new(
            Vec::new(),
            Cacheability::Unrestricted,
            cost,
            self.space.clock().now(),
        );
        shard.install(key, bytes, meta, digest.unwrap_or(sig));
        shard.contains(key)
    }
}
