//! Streaming/buffered parity: the chunked zero-copy walk
//! ([`StagePipeline`]) must be observationally identical to the buffered
//! reference walk ([`run_stage_buffered`] below, with manual
//! chain-signature threading). Property-based
//! over chain shapes (pass-through, appending, opaque, length-preserving
//! transforms) and body sizes that straddle the 4 KiB chunk boundary.

use bytes::Bytes;
use placeless_core::digest::{md5, Signature};
use placeless_core::error::Result as CoreResult;
use placeless_core::event::{EventKind, Interests};
use placeless_core::id::{DocumentId, UserId};
use placeless_core::plan::{StagePipeline, TransformPlan};
use placeless_core::prelude::MemoryProvider;
use placeless_core::property::{ActiveProperty, PathCtx, PathReport, PropsSnapshot, StageRecord};
use placeless_core::streams::{read_all, InputStream, MemoryInput, TransformingInput};
use placeless_simenv::VirtualClock;
use proptest::prelude::*;
use std::sync::Arc;

/// The chain shapes the parity suite mixes freely.
#[derive(Clone, Copy, Debug, PartialEq)]
enum StageKind {
    /// Pass-through with a transform token: the zero-copy fast path.
    IdentitySigned,
    /// Appends a marker, signed: output longer than input.
    AppendSigned,
    /// Appends a marker, opaque (no token): restarts the signature chain
    /// from the actual output digest.
    AppendOpaque,
    /// Length-preserving byte transform (ASCII uppercase), signed.
    UpperSigned,
}

/// One configurable stage covering every [`StageKind`].
struct ParityStage {
    name: String,
    kind: StageKind,
    marker: u8,
    cost: u64,
}

impl ActiveProperty for ParityStage {
    fn name(&self) -> &str {
        &self.name
    }
    fn interests(&self) -> Interests {
        Interests::of(&[EventKind::GetInputStream])
    }
    fn wrap_input(
        &self,
        _ctx: &PathCtx<'_>,
        _report: &mut PathReport,
        inner: Box<dyn InputStream>,
    ) -> CoreResult<Box<dyn InputStream>> {
        match self.kind {
            StageKind::IdentitySigned => Ok(inner),
            StageKind::AppendSigned | StageKind::AppendOpaque => {
                let marker = self.marker;
                Ok(Box::new(TransformingInput::new(
                    inner,
                    Box::new(move |bytes: Bytes| {
                        let mut out = Vec::with_capacity(bytes.len() + 3);
                        out.extend_from_slice(&bytes);
                        out.extend_from_slice(&[b'[', marker, b']']);
                        Ok(Bytes::from(out))
                    }),
                )))
            }
            StageKind::UpperSigned => Ok(Box::new(TransformingInput::new(
                inner,
                Box::new(|bytes: Bytes| {
                    Ok(Bytes::from(
                        bytes
                            .iter()
                            .map(|b| b.to_ascii_uppercase())
                            .collect::<Vec<_>>(),
                    ))
                }),
            ))),
        }
    }
    fn transform_token(&self, _ctx: &PathCtx<'_>) -> Option<Vec<u8>> {
        match self.kind {
            StageKind::AppendOpaque => None,
            _ => Some(vec![b'k', self.marker]),
        }
    }
    fn execution_cost_micros(&self) -> u64 {
        self.cost
    }
}

fn compile(clock: &VirtualClock, body: &[u8], kinds: &[StageKind]) -> TransformPlan {
    let stages: Vec<Arc<dyn ActiveProperty>> = kinds
        .iter()
        .enumerate()
        .map(|(i, &kind)| {
            Arc::new(ParityStage {
                name: format!("parity-{i}-{kind:?}"),
                kind,
                marker: b'a' + (i as u8 % 26),
                cost: 10 + 7 * i as u64,
            }) as Arc<dyn ActiveProperty>
        })
        .collect();
    TransformPlan::compile(
        clock,
        DocumentId(1),
        UserId(1),
        MemoryProvider::new("parity", body.to_vec(), 100),
        stages,
        Vec::new(),
        PropsSnapshot::default(),
    )
}

/// The reference execution of one stage: wraps buffered `input` in the
/// stage's stream, drains it to the end in one `read_all`, and accounts
/// for it the way `TransformPlan::wrap_input_stage` does (`signature`, if
/// the stage has one, is recorded for observability). The streaming walk
/// must be indistinguishable from a chain of these.
fn run_stage_buffered(
    plan: &TransformPlan,
    clock: &VirtualClock,
    index: usize,
    report: &mut PathReport,
    input: Bytes,
    signature: Option<Signature>,
) -> CoreResult<Bytes> {
    let stage = &plan.stages[index];
    let ctx = PathCtx {
        clock,
        doc: plan.doc,
        user: plan.user,
        site: stage.site,
        props: &plan.snapshot,
    };
    clock.advance(stage.cost_micros);
    report.add_cost(stage.cost_micros);
    let inner: Box<dyn InputStream> = Box::new(MemoryInput::new(input));
    let mut wrapped = stage.prop.wrap_input(&ctx, report, inner)?;
    let out = read_all(wrapped.as_mut())?;
    report.executed.push(stage.prop.name().to_owned());
    report.record_stage(StageRecord {
        name: stage.prop.name().to_owned(),
        site: stage.site,
        cost_micros: stage.cost_micros,
        cached: false,
        signature,
        bytes: out.len() as u64,
    });
    Ok(out)
}

#[test]
fn run_stage_buffered_matches_wrapping_and_charges_clock() {
    let clock = VirtualClock::new();
    let plan = compile(&clock, b"body", &[StageKind::AppendSigned]);
    let mut report = PathReport::default();
    let out = run_stage_buffered(
        &plan,
        &clock,
        0,
        &mut report,
        Bytes::from_static(b"body"),
        None,
    )
    .unwrap();
    assert_eq!(out, Bytes::from_static(b"body[a]"));
    assert_eq!(clock.now().0, 10);
    assert_eq!(report.cost.raw_micros(), 10.0);
    assert_eq!(report.executed, vec!["parity-0-AppendSigned"]);
    assert_eq!(report.stages.len(), 1);
    assert!(!report.stages[0].cached);
}

#[test]
fn run_stage_streaming_matches_buffered_output_cost_and_records() {
    let body = Bytes::from_static(b"body");
    let root = md5(&body);
    let plan = compile(&VirtualClock::new(), &body, &[StageKind::AppendSigned]);

    let clock_b = VirtualClock::new();
    let mut report_b = PathReport::default();
    let sig = plan.stage_signature(0, root);
    let buffered =
        run_stage_buffered(&plan, &clock_b, 0, &mut report_b, body.clone(), sig).unwrap();

    let clock_s = VirtualClock::new();
    let mut report_s = PathReport::default();
    let mut pipeline = StagePipeline::from_root(&plan, body, root);
    let streamed = pipeline.execute(&clock_s, 0, &mut report_s).unwrap();

    assert_eq!(streamed.bytes, buffered);
    assert_eq!(streamed.content_sig, md5(&buffered));
    assert_eq!(clock_s.now(), clock_b.now());
    assert_eq!(report_s.cost.raw_micros(), report_b.cost.raw_micros());
    assert_eq!(report_s.executed, report_b.executed);
    assert_eq!(report_s.stages.len(), 1);
    assert_eq!(report_s.stages[0].signature, sig);
    assert_eq!(report_s.stages[0].bytes, buffered.len() as u64);
}

/// Body sizes: zero-length, tiny, and chunk-boundary-straddling (the
/// streaming chunk size is 4096).
fn body_strategy() -> impl Strategy<Value = Vec<u8>> {
    (
        proptest::sample::select(vec![0usize, 1, 7, 63, 4095, 4096, 4097, 8205]),
        any::<u8>(),
    )
        .prop_map(|(len, seed)| {
            (0..len)
                .map(|i| seed.wrapping_add((i as u8).wrapping_mul(31)))
                .collect()
        })
}

fn chain_strategy() -> impl Strategy<Value = Vec<StageKind>> {
    proptest::collection::vec(
        proptest::sample::select(vec![
            StageKind::IdentitySigned,
            StageKind::AppendSigned,
            StageKind::AppendOpaque,
            StageKind::UpperSigned,
        ]),
        0..5,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn streaming_walk_matches_buffered_walk(
        body in body_strategy(),
        kinds in chain_strategy(),
    ) {
        let compile_clock = VirtualClock::new();
        let plan = compile(&compile_clock, &body, &kinds);
        let root_sig = md5(&body);

        // Buffered reference walk: thread the chain signature by hand.
        let clock_b = VirtualClock::new();
        let mut report_b = plan.seed_report(&clock_b);
        let mut bytes_b = Bytes::from(body.clone());
        let mut chain_b = root_sig;
        let mut sigs_b = Vec::new();
        for index in 0..plan.len() {
            let stage_sig = plan.stage_signature(index, chain_b);
            bytes_b =
                run_stage_buffered(&plan, &clock_b, index, &mut report_b, bytes_b, stage_sig)
                    .expect("buffered stage");
            chain_b = stage_sig.unwrap_or_else(|| md5(&bytes_b));
            sigs_b.push(stage_sig);
        }

        // Streaming walk: one pass through the chunked pipeline.
        let clock_s = VirtualClock::new();
        let mut report_s = plan.seed_report(&clock_s);
        let mut pipeline = StagePipeline::from_root(&plan, Bytes::from(body.clone()), root_sig);
        let mut sigs_s = Vec::new();
        for index in 0..plan.len() {
            sigs_s.push(pipeline.stage_signature(index));
            pipeline.execute(&clock_s, index, &mut report_s).expect("streaming stage");
        }
        let final_chain_s = pipeline.chain_signature();
        let (bytes_s, content_sig_s) = pipeline.finish();
        let bytes_s = bytes_s.expect("streaming walk leaves bytes");

        // Identical output bytes, and the one-pass incremental digest must
        // equal a from-scratch hash of the buffered output.
        prop_assert_eq!(&bytes_s[..], &bytes_b[..]);
        prop_assert_eq!(content_sig_s, Some(md5(&bytes_b)));

        // Identical signature chains: every stage's addressing signature
        // and the final chain position (opaque stages restart the chain).
        prop_assert_eq!(&sigs_s, &sigs_b);
        prop_assert_eq!(final_chain_s, chain_b);

        // Identical cost accounting: virtual-clock time, replacement cost,
        // execution log, and per-stage records.
        prop_assert_eq!(clock_s.now().as_micros(), clock_b.now().as_micros());
        prop_assert_eq!(
            report_s.cost.effective_micros(),
            report_b.cost.effective_micros()
        );
        prop_assert_eq!(&report_s.executed, &report_b.executed);
        prop_assert_eq!(report_s.stages.len(), report_b.stages.len());
        for (s, b) in report_s.stages.iter().zip(report_b.stages.iter()) {
            prop_assert_eq!(&s.name, &b.name);
            prop_assert_eq!(s.cost_micros, b.cost_micros);
            prop_assert_eq!(s.cached, b.cached);
            prop_assert_eq!(s.signature, b.signature);
            prop_assert_eq!(s.bytes, b.bytes);
        }
    }

    /// A pure pass-through chain must forward the provider's refcounted
    /// slice untouched: same allocation, no copies, digest carried through
    /// without re-hashing (checked via pointer identity on the output).
    #[test]
    fn passthrough_chains_are_zero_copy(
        body in body_strategy(),
        chain_len in proptest::sample::select(vec![1usize, 2, 4]),
    ) {
        let kinds = vec![StageKind::IdentitySigned; chain_len];
        let clock = VirtualClock::new();
        let plan = compile(&clock, &body, &kinds);
        let input = Bytes::from(body.clone());
        let root_sig = md5(&input);
        let mut report = plan.seed_report(&clock);
        let mut pipeline = StagePipeline::from_root(&plan, input.clone(), root_sig);
        for index in 0..plan.len() {
            pipeline.execute(&clock, index, &mut report).expect("stage");
        }
        let (out, sig) = pipeline.finish();
        let out = out.expect("bytes");
        prop_assert_eq!(out.len(), input.len());
        if !input.is_empty() {
            prop_assert!(std::ptr::eq(out.as_ptr(), input.as_ptr()));
        }
        // The root digest rode the whole chain: no stage re-hashed.
        prop_assert_eq!(sig, Some(root_sig));
    }
}
