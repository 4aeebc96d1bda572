//! Compiled transform plans — the explicit form of a property chain.
//!
//! A read or write path is the base-then-reference property chain, each
//! property's stream wrapper folded over the previous one. A
//! [`TransformPlan`] makes that chain a first-class value: an ordered
//! list of [`PlanStage`]s compiled once per path, which the space replays
//! for plain reads/writes and which a cache can *walk* — executing one
//! stage at a time, content-addressing each stage's output by a **stage
//! signature**, and skipping stages whose output it already holds.
//!
//! ## Stage signatures
//!
//! A stage's signature is `md5(input signature ‖ property name ‖ transform
//! token)`, where the token is the property's own declaration of everything
//! its transform depends on (parameters, resolved static properties,
//! external-input epochs — see
//! [`ActiveProperty::transform_token`]). Because the *input* signature is
//! folded in, the signatures form a chain rooted at the digest of the
//! provider bytes: any change to the source content, to a property's
//! parameters or program text, to an external input's epoch, or to the
//! chain order changes every downstream signature. Stale intermediate
//! entries are therefore never *served* — they simply stop being looked up
//! and age out — which is how the staged cache inherits the paper's four
//! invalidation causes by construction.
//!
//! A stage whose property declines to produce a token (`None`) is *opaque*:
//! it executes on every read, and the chain restarts from a digest of its
//! actual output, so stages downstream of an opaque stage remain cacheable.
//!
//! A signature *addresses* a stage whether or not a cache keeps its output
//! under it: an output is worth that name (a digest, an entry, a lookup) only
//! where a later walk would miss it ([`TransformPlan::named_outputs`]).

use crate::bitprovider::BitProvider;
use crate::cacheability::Cacheability;
use crate::digest::{md5, Md5, Signature};
use crate::error::Result;
use crate::event::EventSite;
use crate::id::{DocumentId, UserId};
use crate::property::{ActiveProperty, PathCtx, PathReport, PropsSnapshot, StageRecord};
use crate::streams::{InputStream, MemoryInput, OutputStream};
use bytes::Bytes;
use placeless_simenv::VirtualClock;
use std::sync::Arc;

/// One compiled stage of a transform plan: a property, where it is
/// attached, and its (optional) transform token.
pub struct PlanStage {
    /// The property that runs at this stage.
    pub prop: Arc<dyn ActiveProperty>,
    /// Where the property is attached (base or the user's reference).
    pub site: EventSite,
    /// The property's declared execution cost, captured at compile time.
    pub cost_micros: u64,
    /// The transform token, or `None` for an opaque stage.
    pub token: Option<Vec<u8>>,
}

impl std::fmt::Debug for PlanStage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlanStage")
            .field("prop", &self.prop.name())
            .field("site", &self.site)
            .field("cost_micros", &self.cost_micros)
            .field("token", &self.token.as_ref().map(|t| t.len()))
            .finish()
    }
}

/// An explicit, compiled property chain for one `(user, document)` path.
///
/// Compiled by [`crate::space::DocumentSpace`] (which owns the chain
/// assembly) and consumed either by the space itself — replaying the
/// stages as nested stream wrappers over the provider's stream — or by a
/// cache walking the stages one at a time with intermediate-result
/// lookups.
pub struct TransformPlan {
    /// The base document the plan reads or writes.
    pub doc: DocumentId,
    /// The user whose reference initiated the path.
    pub user: UserId,
    /// The base document's bit-provider.
    pub provider: Arc<dyn BitProvider>,
    /// Static property values visible on the path (personal shadowing
    /// universal).
    pub snapshot: PropsSnapshot,
    /// The stages in execution order: base properties first, then the
    /// user's reference properties.
    pub stages: Vec<PlanStage>,
    /// How many leading stages come from the base document. Stages
    /// `0..base_len` are user-independent; `base_len..` are the per-user
    /// reference suffix.
    pub base_len: usize,
}

impl TransformPlan {
    /// Compiles a plan from the already-assembled chain halves. Transform
    /// tokens are captured here, so the plan is a point-in-time snapshot of
    /// the chain *and* of every input the chain's transforms declared.
    pub fn compile(
        clock: &VirtualClock,
        doc: DocumentId,
        user: UserId,
        provider: Arc<dyn BitProvider>,
        base_props: Vec<Arc<dyn ActiveProperty>>,
        ref_props: Vec<Arc<dyn ActiveProperty>>,
        snapshot: PropsSnapshot,
    ) -> Self {
        let base_len = base_props.len();
        let stages = base_props
            .into_iter()
            .map(|p| (p, EventSite::Base))
            .chain(
                ref_props
                    .into_iter()
                    .map(|p| (p, EventSite::Reference(user))),
            )
            .map(|(prop, site)| {
                let ctx = PathCtx {
                    clock,
                    doc,
                    user,
                    site,
                    props: &snapshot,
                };
                let token = prop.transform_token(&ctx);
                let cost_micros = prop.execution_cost_micros();
                PlanStage {
                    prop,
                    site,
                    cost_micros,
                    token,
                }
            })
            .collect();
        Self {
            doc,
            user,
            provider,
            snapshot,
            stages,
            base_len,
        }
    }

    /// Returns the number of stages.
    pub fn len(&self) -> usize {
        self.stages.len()
    }

    /// Returns `true` if the chain has no stages.
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }

    /// Builds the path context for stage `index`.
    fn ctx<'a>(&'a self, clock: &'a VirtualClock, index: usize) -> PathCtx<'a> {
        PathCtx {
            clock,
            doc: self.doc,
            user: self.user,
            site: self.stages[index].site,
            props: &self.snapshot,
        }
    }

    /// Seeds a [`PathReport`] with the provider's fetch cost, cacheability
    /// vote, and (if any) verifier — the pre-chain state of a read path.
    pub fn seed_report(&self, clock: &VirtualClock) -> PathReport {
        let mut report = PathReport::new(self.provider.fetch_cost_micros());
        report.vote(self.provider.cacheability_vote());
        if let Some(v) = self.provider.make_verifier(clock) {
            report.add_verifier(v);
        }
        report
    }

    /// Computes stage `index`'s signature given its input's signature, or
    /// `None` if the stage is opaque.
    ///
    /// The signature chains: callers thread the previous stage's signature
    /// (or a digest of the opaque stage's actual output) in as `input`.
    pub fn stage_signature(&self, index: usize, input: Signature) -> Option<Signature> {
        let stage = &self.stages[index];
        let token = stage.token.as_ref()?;
        let name = stage.prop.name().as_bytes();
        let mut ctx = Md5::new();
        ctx.update(b"stage-v1");
        ctx.update(&input.0);
        ctx.update(&(name.len() as u64).to_le_bytes());
        ctx.update(name);
        ctx.update(&(token.len() as u64).to_le_bytes());
        ctx.update(token);
        Some(ctx.finalize())
    }

    /// The stage signatures of the *signed prefix* chained on `root`: one
    /// per leading stage, stopping at the first opaque one (whose successor
    /// is addressed by its actual output, which only executing it yields).
    /// The signatures chain on signatures, not on bytes, so a walk knows
    /// where every stage of the prefix would be resident before it fetches
    /// or executes anything.
    pub fn signed_prefix(&self, root: Signature) -> Vec<Signature> {
        self.signed_run(0, root)
    }

    /// [`Self::signed_prefix`] from stage `start` on, chained on `input`:
    /// the run a walk resumes after executing the opaque stage before it.
    pub fn signed_run(&self, start: usize, mut input: Signature) -> Vec<Signature> {
        (start..self.stages.len())
            .map_while(|index| {
                input = self.stage_signature(index, input)?;
                Some(input)
            })
            .collect()
    }

    /// Which stage outputs are **named**: worth a digest, an entry and a
    /// lookup of their own. A signed stage's output is not when its
    /// successor is signed, as widely shared (the last base output, where
    /// chains fan out, is always named) and alone dearer than redoing all
    /// since the last named output, the fetch included while there is none:
    /// a cost-aware policy evicts it first, so no walk finds it deepest.
    pub fn named_outputs(&self) -> Vec<bool> {
        let mut redo = self.provider.fetch_cost_micros();
        let named = |(index, stage): (usize, &PlanStage)| {
            redo += stage.cost_micros;
            let next = self.stages.get(index + 1);
            let dearer = next.is_some_and(|next| next.token.is_some() && next.cost_micros > redo);
            let named = stage.token.is_some() && (index + 1 == self.base_len || !dearer);
            if named {
                redo = 0;
            }
            named
        };
        self.stages.iter().enumerate().map(named).collect()
    }

    /// Replays stage `index` as a read-path stream wrapper: charge the
    /// clock, accumulate the replacement cost, interpose the property's
    /// stream, record the execution.
    pub fn wrap_input_stage(
        &self,
        clock: &VirtualClock,
        index: usize,
        report: &mut PathReport,
        stream: Box<dyn InputStream>,
    ) -> Result<Box<dyn InputStream>> {
        let ctx = self.ctx(clock, index);
        let stage = &self.stages[index];
        clock.advance(stage.cost_micros);
        report.add_cost(stage.cost_micros);
        let stream = stage.prop.wrap_input(&ctx, report, stream)?;
        report.executed.push(stage.prop.name().to_owned());
        report.record_stage(StageRecord {
            name: stage.prop.name().to_owned(),
            site: stage.site,
            cost_micros: stage.cost_micros,
            cached: false,
            signature: None,
            bytes: 0,
        });
        Ok(stream)
    }

    /// Replays stage `index` as a write-path stream wrapper (clock charge
    /// plus `wrap_output`).
    pub fn wrap_output_stage(
        &self,
        clock: &VirtualClock,
        index: usize,
        report: &mut PathReport,
        stream: Box<dyn OutputStream>,
    ) -> Result<Box<dyn OutputStream>> {
        let ctx = self.ctx(clock, index);
        let stage = &self.stages[index];
        clock.advance(stage.cost_micros);
        stage.prop.wrap_output(&ctx, report, stream)
    }

    /// Executes stage `index` over `input` through the chunked streaming
    /// path. Cost accounting and report entries match
    /// [`Self::wrap_input_stage`] (plus the stage's signature and output
    /// size), and the output is what draining that wrapper to the end
    /// would collect — `tests/streaming_parity.rs` holds the buffered
    /// reference walk. A pass-through stage (a wrapper that forwards the
    /// input slice unchanged) returns the input `Bytes` itself.
    ///
    /// No MD5 pass runs here: the output's content digest comes back only
    /// where a pass-through carried `input_sig`, the digest of `input`,
    /// forward. Whoever *stores* an output digests it
    /// ([`StagePipeline::content_signature`]). `signature` is the stage's
    /// *addressing* signature (recorded for observability, `None` for
    /// opaque stages).
    pub fn run_stage_streaming(
        &self,
        clock: &VirtualClock,
        index: usize,
        report: &mut PathReport,
        input: Bytes,
        input_sig: Option<Signature>,
        signature: Option<Signature>,
    ) -> Result<(Bytes, Option<Signature>)> {
        let ctx = self.ctx(clock, index);
        let stage = &self.stages[index];
        clock.advance(stage.cost_micros);
        report.add_cost(stage.cost_micros);
        let inner: Box<dyn InputStream> = Box::new(MemoryInput::new(input.clone()));
        let mut wrapped = stage.prop.wrap_input(&ctx, report, inner)?;
        // Drain chunkwise. `input` stays alive for the whole drain, so a
        // chunk aliasing its allocation proves the stage is pass-through.
        let mut chunks: Vec<Bytes> = Vec::new();
        while let Some(chunk) = wrapped.read_chunk()? {
            chunks.push(chunk);
        }
        let bytes = match chunks.len() {
            0 | 1 => chunks.pop().unwrap_or_default(),
            _ => Bytes::from(chunks.concat()),
        };
        let passthrough =
            bytes.len() == input.len() && (bytes.is_empty() || bytes.as_ptr() == input.as_ptr());
        report.executed.push(stage.prop.name().to_owned());
        report.record_stage(StageRecord {
            name: stage.prop.name().to_owned(),
            site: stage.site,
            cost_micros: stage.cost_micros,
            cached: false,
            signature,
            bytes: bytes.len() as u64,
        });
        Ok((bytes, input_sig.filter(|_| passthrough)))
    }

    /// Registers stage `index`'s path-metadata without executing its
    /// transform — the cache calls this when it serves the stage's output
    /// from the intermediate store.
    ///
    /// The property's `wrap_input` still runs (over an empty stream that is
    /// dropped unread) so cacheability votes, verifiers, and pins register
    /// exactly as on a real execution; transforming streams are lazy, so
    /// the transform itself never fires. The stage's cost still accrues to
    /// the replacement cost — it is the cost to reproduce the entry without
    /// a cache — but the clock is *not* charged: that is the saving.
    pub fn note_stage_hit(
        &self,
        clock: &VirtualClock,
        index: usize,
        report: &mut PathReport,
        signature: Signature,
        bytes: u64,
    ) -> Result<()> {
        let ctx = self.ctx(clock, index);
        let stage = &self.stages[index];
        report.add_cost(stage.cost_micros);
        let inner: Box<dyn InputStream> = Box::new(MemoryInput::new(Bytes::new()));
        let _unread = stage.prop.wrap_input(&ctx, report, inner)?;
        report.record_stage(StageRecord {
            name: stage.prop.name().to_owned(),
            site: stage.site,
            cost_micros: stage.cost_micros,
            cached: true,
            signature: Some(signature),
            bytes,
        });
        Ok(())
    }

    /// Aggregates the write-path cacheability requirement: the provider's
    /// vote combined with every stage property's `write_cacheability`.
    pub fn write_cacheability(&self) -> Cacheability {
        crate::cacheability::aggregate(
            std::iter::once(self.provider.cacheability_vote())
                .chain(self.stages.iter().map(|s| s.prop.write_cacheability())),
        )
    }
}

impl std::fmt::Debug for TransformPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TransformPlan")
            .field("doc", &self.doc)
            .field("user", &self.user)
            .field("base_len", &self.base_len)
            .field("stages", &self.stages)
            .finish()
    }
}

/// One stage execution's result: the output bytes and their MD5 (see
/// [`StagePipeline::execute`]).
#[derive(Debug, Clone)]
pub struct StageOutput {
    /// The stage's output content.
    pub bytes: Bytes,
    /// Content digest of `bytes`.
    pub content_sig: Signature,
}

/// Streaming walk state for executing a [`TransformPlan`] stage by stage.
///
/// The pipeline threads three things through the chain in one pass:
///
/// - the resident chain bytes (shared [`Bytes`], handed from stage to stage
///   without copying);
/// - the **chain signature** addressing the next stage — the previous
///   stage's stage signature, or the content digest where the chain
///   (re)starts (at the root, and after every opaque stage);
/// - the **content digest** of the resident bytes, when known, so
///   pass-through stages and cache installs never re-hash content the
///   pipeline already digested.
///
/// Callers (the document space's plain path, and the cache's staged miss
/// walk) interleave [`StagePipeline::execute`] with
/// [`StagePipeline::adopt_hit`] for stages whose output they already hold.
/// A pipeline may also start from a known root *signature* without the
/// bytes ([`StagePipeline::from_signature`]): as long as every stage hits,
/// the root content is never materialized, and the first stage that needs
/// to execute asks for it via [`StagePipeline::has_bytes`] /
/// [`StagePipeline::supply_root`].
pub struct StagePipeline<'p> {
    plan: &'p TransformPlan,
    bytes: Option<Bytes>,
    chain_sig: Signature,
    content_sig: Option<Signature>,
}

impl<'p> StagePipeline<'p> {
    /// Starts a pipeline from materialized root bytes whose digest is
    /// `root_sig` (the chain's anchor signature).
    pub fn from_root(plan: &'p TransformPlan, bytes: Bytes, root_sig: Signature) -> Self {
        Self {
            plan,
            bytes: Some(bytes),
            chain_sig: root_sig,
            content_sig: Some(root_sig),
        }
    }

    /// Starts a pipeline from a known root signature *without* the root
    /// bytes — the cache's lease fast path. The bytes are only required if
    /// a stage must execute before any cached output was adopted; probe
    /// [`Self::has_bytes`] and call [`Self::supply_root`] then.
    pub fn from_signature(plan: &'p TransformPlan, root_sig: Signature) -> Self {
        Self {
            plan,
            bytes: None,
            chain_sig: root_sig,
            content_sig: Some(root_sig),
        }
    }

    /// Returns `true` once the pipeline holds resident bytes for its
    /// current position.
    pub fn has_bytes(&self) -> bool {
        self.bytes.is_some()
    }

    /// Supplies the root content for a pipeline started from a signature.
    /// The caller asserts `bytes` digest to the pipeline's root signature.
    pub fn supply_root(&mut self, bytes: Bytes) {
        debug_assert!(self.bytes.is_none(), "root already materialized");
        debug_assert_eq!(
            md5(&bytes),
            self.chain_sig,
            "supplied root must match the leased root signature"
        );
        self.bytes = Some(bytes);
    }

    /// The signature addressing the next stage (root digest, previous stage
    /// signature, or post-opaque content digest).
    pub fn chain_signature(&self) -> Signature {
        self.chain_sig
    }

    /// Stage `index`'s addressing signature given the current chain
    /// position, or `None` if the stage is opaque.
    pub fn stage_signature(&self, index: usize) -> Option<Signature> {
        self.plan.stage_signature(index, self.chain_sig)
    }

    /// Executes stage `index` through the streaming path and advances the
    /// chain. Returns the stage's output with its content digest.
    ///
    /// # Panics
    ///
    /// Panics if the root bytes were never materialized (see
    /// [`Self::supply_root`]).
    pub fn execute(
        &mut self,
        clock: &VirtualClock,
        index: usize,
        report: &mut PathReport,
    ) -> Result<StageOutput> {
        let bytes = self.execute_signed(clock, index, report, self.stage_signature(index))?;
        let content_sig = self.content_signature();
        Ok(StageOutput { bytes, content_sig })
    }

    /// [`Self::execute`] for a caller that already holds the stage's
    /// addressing signature (`None` for an opaque stage) and digests only
    /// what it stores: the cache's walk. Only an opaque stage's output is
    /// hashed here (its digest addresses the next stage).
    pub fn execute_signed(
        &mut self,
        clock: &VirtualClock,
        index: usize,
        report: &mut PathReport,
        stage_sig: Option<Signature>,
    ) -> Result<Bytes> {
        debug_assert_eq!(stage_sig, self.stage_signature(index));
        let input = self
            .bytes
            .clone()
            .expect("pipeline bytes materialized before execute");
        let (bytes, carried) = self.plan.run_stage_streaming(
            clock,
            index,
            report,
            input,
            self.content_sig,
            stage_sig,
        )?;
        self.content_sig = carried;
        self.bytes = Some(bytes.clone());
        // Signed stages chain on their stage signature; opaque stages
        // restart the chain from their actual output digest.
        self.chain_sig = stage_sig.unwrap_or_else(|| self.content_signature());
        Ok(bytes)
    }

    /// The content digest of the bytes the pipeline holds, computed at
    /// most once per output and only when somebody asks. Panics on a
    /// pipeline that holds neither bytes nor their digest.
    pub fn content_signature(&mut self) -> Signature {
        let digest = || md5(self.bytes.as_ref().expect("pipeline holds bytes"));
        *self.content_sig.get_or_insert_with(digest)
    }

    /// Adopts a cached output for stage `index` (a stage-store hit):
    /// registers the hit's path metadata and advances the chain without
    /// executing the transform. `content_sig` is the stored entry's content
    /// digest when the store tracked it.
    pub fn adopt_hit(
        &mut self,
        clock: &VirtualClock,
        index: usize,
        report: &mut PathReport,
        stage_sig: Signature,
        bytes: Bytes,
        content_sig: Option<Signature>,
    ) -> Result<()> {
        self.plan
            .note_stage_hit(clock, index, report, stage_sig, bytes.len() as u64)?;
        self.chain_sig = stage_sig;
        self.content_sig = content_sig;
        self.bytes = Some(bytes);
        Ok(())
    }

    /// Finishes the walk, returning the final bytes and (when known) their
    /// content digest.
    pub fn finish(self) -> (Option<Bytes>, Option<Signature>) {
        (self.bytes, self.content_sig)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digest::md5;
    use crate::event::{EventKind, Interests};
    use crate::streams::TransformingInput;

    struct Suffix {
        name: String,
        token: Option<Vec<u8>>,
        cost: u64,
    }

    impl ActiveProperty for Suffix {
        fn name(&self) -> &str {
            &self.name
        }
        fn interests(&self) -> Interests {
            Interests::of(&[EventKind::GetInputStream])
        }
        fn execution_cost_micros(&self) -> u64 {
            self.cost
        }
        fn wrap_input(
            &self,
            _ctx: &PathCtx<'_>,
            _report: &mut PathReport,
            inner: Box<dyn InputStream>,
        ) -> Result<Box<dyn InputStream>> {
            let suffix = self.name.clone();
            Ok(Box::new(TransformingInput::new(
                inner,
                Box::new(move |bytes| {
                    let mut out = bytes.to_vec();
                    out.extend_from_slice(suffix.as_bytes());
                    Ok(Bytes::from(out))
                }),
            )))
        }
        fn transform_token(&self, _ctx: &PathCtx<'_>) -> Option<Vec<u8>> {
            self.token.clone()
        }
    }

    fn plan_of(stages: Vec<(&str, Option<&[u8]>)>) -> TransformPlan {
        let clock = VirtualClock::new();
        let provider = crate::bitprovider::MemoryProvider::new("p", "body", 0);
        let props: Vec<Arc<dyn ActiveProperty>> = stages
            .into_iter()
            .map(|(name, token)| {
                Arc::new(Suffix {
                    name: name.to_owned(),
                    token: token.map(|t| t.to_vec()),
                    cost: 10,
                }) as Arc<dyn ActiveProperty>
            })
            .collect();
        TransformPlan::compile(
            &clock,
            DocumentId(1),
            UserId(1),
            provider,
            props,
            Vec::new(),
            PropsSnapshot::default(),
        )
    }

    #[test]
    fn signatures_chain_and_separate() {
        let plan = plan_of(vec![("a", Some(b"t1")), ("b", Some(b"t2"))]);
        let root = md5(b"body");
        let s0 = plan.stage_signature(0, root).unwrap();
        let s1 = plan.stage_signature(1, s0).unwrap();
        assert_ne!(s0, s1);
        // Deterministic.
        assert_eq!(plan.stage_signature(0, root).unwrap(), s0);
        // Different input signature shifts the whole chain.
        let other_root = md5(b"body2");
        assert_ne!(plan.stage_signature(0, other_root).unwrap(), s0);
    }

    #[test]
    fn token_and_name_both_disambiguate() {
        let root = md5(b"body");
        let a = plan_of(vec![("p", Some(b"t1"))]);
        let b = plan_of(vec![("p", Some(b"t2"))]);
        let c = plan_of(vec![("q", Some(b"t1"))]);
        let sa = a.stage_signature(0, root).unwrap();
        assert_ne!(sa, b.stage_signature(0, root).unwrap());
        assert_ne!(sa, c.stage_signature(0, root).unwrap());
    }

    #[test]
    fn length_prefixing_prevents_concatenation_collisions() {
        let root = md5(b"body");
        // ("ab", "c") vs ("a", "bc"): same concatenation, distinct stages.
        let a = plan_of(vec![("ab", Some(b"c"))]);
        let b = plan_of(vec![("a", Some(b"bc"))]);
        assert_ne!(
            a.stage_signature(0, root).unwrap(),
            b.stage_signature(0, root).unwrap()
        );
    }

    #[test]
    fn opaque_stage_has_no_signature() {
        let plan = plan_of(vec![("a", None)]);
        assert!(plan.stage_signature(0, md5(b"body")).is_none());
    }

    #[test]
    fn note_stage_hit_registers_metadata_without_clock_charge() {
        let plan = plan_of(vec![("a", Some(b"t"))]);
        let clock = VirtualClock::new();
        let mut report = PathReport::default();
        let sig = md5(b"whatever");
        plan.note_stage_hit(&clock, 0, &mut report, sig, 5).unwrap();
        assert_eq!(clock.now().0, 0, "hit must not charge execution time");
        assert_eq!(
            report.cost.raw_micros(),
            10.0,
            "replacement cost still counts the stage"
        );
        assert!(report.executed.is_empty(), "transform did not execute");
        assert_eq!(report.stage_hits(), 1);
        assert_eq!(report.stages[0].signature, Some(sig));
        assert_eq!(report.stages[0].bytes, 5);
    }

    /// A pass-through property: wraps without changing the stream.
    struct Identity;

    impl ActiveProperty for Identity {
        fn name(&self) -> &str {
            "identity"
        }
        fn interests(&self) -> Interests {
            Interests::of(&[EventKind::GetInputStream])
        }
        fn execution_cost_micros(&self) -> u64 {
            7
        }
        fn wrap_input(
            &self,
            _ctx: &PathCtx<'_>,
            _report: &mut PathReport,
            inner: Box<dyn InputStream>,
        ) -> Result<Box<dyn InputStream>> {
            Ok(inner)
        }
        fn transform_token(&self, _ctx: &PathCtx<'_>) -> Option<Vec<u8>> {
            Some(b"id".to_vec())
        }
    }

    #[test]
    fn run_stage_streaming_passthrough_forwards_slice_and_digest() {
        let clock = VirtualClock::new();
        let provider = crate::bitprovider::MemoryProvider::new("p", "body", 0);
        let plan = TransformPlan::compile(
            &clock,
            DocumentId(1),
            UserId(1),
            provider,
            vec![Arc::new(Identity) as Arc<dyn ActiveProperty>],
            Vec::new(),
            PropsSnapshot::default(),
        );
        let body = Bytes::from_static(b"pass through body");
        let root = md5(&body);
        let mut report = PathReport::default();
        let sig = plan.stage_signature(0, root);
        let (bytes, content_sig) = plan
            .run_stage_streaming(&clock, 0, &mut report, body.clone(), Some(root), sig)
            .unwrap();
        assert!(
            std::ptr::eq(bytes.as_ptr(), body.as_ptr()),
            "identity stage must forward the input slice"
        );
        assert_eq!(
            content_sig,
            Some(root),
            "digest carried forward, not rehashed"
        );
        assert_eq!(clock.now().0, 7, "execution cost still charged");
    }

    #[test]
    fn stage_pipeline_chains_executions_and_hits() {
        let plan = plan_of(vec![("a", Some(b"t1")), ("b", Some(b"t2"))]);
        let body = Bytes::from_static(b"body");
        let root = md5(&body);
        let clock = VirtualClock::new();
        let mut report = PathReport::default();

        let mut pipe = StagePipeline::from_root(&plan, body, root);
        assert_eq!(pipe.chain_signature(), root);
        let s0 = pipe.stage_signature(0).unwrap();
        let out0 = pipe.execute(&clock, 0, &mut report).unwrap();
        assert_eq!(out0.bytes, "bodya");
        assert_eq!(out0.content_sig, md5(b"bodya"));
        assert_eq!(
            pipe.chain_signature(),
            s0,
            "signed stage chains on its signature"
        );

        // Adopt stage 1 from a hypothetical cache instead of executing.
        let s1 = pipe.stage_signature(1).unwrap();
        assert_eq!(s1, plan.stage_signature(1, s0).unwrap());
        pipe.adopt_hit(
            &clock,
            1,
            &mut report,
            s1,
            Bytes::from_static(b"bodyab"),
            Some(md5(b"bodyab")),
        )
        .unwrap();
        let (bytes, content) = pipe.finish();
        assert_eq!(bytes.unwrap(), "bodyab");
        assert_eq!(content.unwrap(), md5(b"bodyab"));
        assert_eq!(report.stage_hits(), 1);
    }

    #[test]
    fn stage_pipeline_opaque_stage_restarts_chain_at_output_digest() {
        let plan = plan_of(vec![("a", None), ("b", Some(b"t"))]);
        let body = Bytes::from_static(b"body");
        let clock = VirtualClock::new();
        let mut report = PathReport::default();
        let mut pipe = StagePipeline::from_root(&plan, body.clone(), md5(&body));
        assert!(
            pipe.stage_signature(0).is_none(),
            "opaque stage unaddressable"
        );
        let out = pipe.execute(&clock, 0, &mut report).unwrap();
        assert_eq!(out.bytes, "bodya");
        assert_eq!(
            pipe.chain_signature(),
            md5(b"bodya"),
            "chain restarts from the opaque output digest"
        );
        assert_eq!(
            pipe.stage_signature(1).unwrap(),
            plan.stage_signature(1, md5(b"bodya")).unwrap()
        );
    }

    #[test]
    fn stage_pipeline_from_signature_defers_root_materialization() {
        let plan = plan_of(vec![("a", Some(b"t"))]);
        let body = Bytes::from_static(b"body");
        let root = md5(&body);
        let mut pipe = StagePipeline::from_signature(&plan, root);
        assert!(!pipe.has_bytes());
        assert_eq!(
            pipe.stage_signature(0).unwrap(),
            plan.stage_signature(0, root).unwrap(),
            "addressing works without the bytes"
        );
        pipe.supply_root(body);
        assert!(pipe.has_bytes());
        let clock = VirtualClock::new();
        let mut report = PathReport::default();
        let out = pipe.execute(&clock, 0, &mut report).unwrap();
        assert_eq!(out.bytes, "bodya");
    }
}
