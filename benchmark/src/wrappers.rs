//! Benchmark-owned implementations of the public traits the cache calls
//! back into: `BitProvider`, `Verifier`, `ActiveProperty` and
//! `ReplacementPolicy`. Each delegates to the repo's real implementation
//! and, in the traced run, records a child span around the call.
//!
//! [`OriginProbe`] is installed in both runs because the origin-fetch
//! count is an end-to-end quantity; untraced it adds two relaxed counter
//! increments and nothing else. The other wrappers exist only in the
//! traced run.

use crate::span::{self, Layer};
use bytes::Bytes;
use placeless_cache::{EntryAttrs, EntryKey, PolicyFactory, ReplacementPolicy};
use placeless_core::cacheability::Cacheability;
use placeless_core::error::Result;
use placeless_core::event::{DocumentEvent, Interests};
use placeless_core::prelude::{
    ActiveProperty, BitProvider, EventCtx, InputStream, MemoryProvider, OutputStream, PathCtx,
    PathReport, Validity, Verifier,
};
use placeless_simenv::VirtualClock;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// What is counted at the trait seams. The verifier counts are taken in
/// the traced run only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Seam {
    /// `open_input` calls on any origin.
    Fetches,
    /// Payloads committed to any origin (`open_output` + batch entries).
    OriginWrites,
    /// Verifier checks the cache ran.
    VerifierChecks,
    /// Checks that did not answer `Valid`.
    VerifierInvalid,
}

const SEAMS: usize = Seam::VerifierInvalid as usize + 1;

/// Live counters shared by every wrapper of one world.
#[derive(Default)]
pub struct SeamCounters([AtomicU64; SEAMS]);

/// The counters at one moment, or the difference between two moments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SeamCounts([u64; SEAMS]);

impl SeamCounters {
    fn add(&self, seam: Seam, by: u64) {
        self.0[seam as usize].fetch_add(by, Ordering::Relaxed);
    }

    pub fn snapshot(&self) -> SeamCounts {
        SeamCounts(std::array::from_fn(|i| self.0[i].load(Ordering::Relaxed)))
    }
}

impl SeamCounts {
    pub fn get(&self, seam: Seam) -> u64 {
        self.0[seam as usize]
    }

    pub fn since(&self, earlier: &SeamCounts) -> SeamCounts {
        SeamCounts(std::array::from_fn(|i| self.0[i] - earlier.0[i]))
    }
}

/// The origin of one document: the repo's `MemoryProvider` behind fetch
/// and write counters, plus spans when `traced`.
pub struct OriginProbe {
    inner: Arc<MemoryProvider>,
    counters: Arc<SeamCounters>,
    traced: bool,
}

impl OriginProbe {
    pub fn new(inner: Arc<MemoryProvider>, counters: Arc<SeamCounters>, traced: bool) -> Arc<Self> {
        Arc::new(Self {
            inner,
            counters,
            traced,
        })
    }
}

impl BitProvider for OriginProbe {
    fn describe(&self) -> String {
        self.inner.describe()
    }

    fn origin_key(&self) -> String {
        self.inner.origin_key()
    }

    fn open_input(&self, clock: &VirtualClock) -> Result<Box<dyn InputStream>> {
        self.counters.add(Seam::Fetches, 1);
        if !self.traced {
            return self.inner.open_input(clock);
        }
        let stream = {
            let _span = span::enter(Layer::ProviderFetch);
            self.inner.open_input(clock)?
        };
        Ok(Box::new(TimedInput::new(stream, Layer::ProviderFetch)))
    }

    fn open_output(&self, clock: &VirtualClock) -> Result<Box<dyn OutputStream>> {
        self.counters.add(Seam::OriginWrites, 1);
        if !self.traced {
            return self.inner.open_output(clock);
        }
        let stream = {
            let _span = span::enter(Layer::ProviderWrite);
            self.inner.open_output(clock)?
        };
        Ok(Box::new(TimedOutput {
            inner: stream,
            layer: Layer::ProviderWrite,
        }))
    }

    fn commit_batch(&self, clock: &VirtualClock, payloads: &[Bytes]) -> Option<Vec<Result<()>>> {
        self.counters.add(Seam::OriginWrites, payloads.len() as u64);
        let _span = span::enter(Layer::ProviderWrite);
        self.inner.commit_batch(clock, payloads)
    }

    fn make_verifier(&self, clock: &VirtualClock) -> Option<Box<dyn Verifier>> {
        if !self.traced {
            return self.inner.make_verifier(clock);
        }
        let _span = span::enter(Layer::ProviderMakeVerifier);
        let inner = self.inner.make_verifier(clock)?;
        Some(Box::new(TracedVerifier {
            inner,
            counters: self.counters.clone(),
        }))
    }

    fn fetch_cost_micros(&self) -> u64 {
        self.inner.fetch_cost_micros()
    }

    fn content_len_hint(&self) -> Option<u64> {
        self.inner.content_len_hint()
    }

    fn writable(&self) -> bool {
        self.inner.writable()
    }

    fn cacheability_vote(&self) -> Cacheability {
        self.inner.cacheability_vote()
    }
}

struct TracedVerifier {
    inner: Box<dyn Verifier>,
    counters: Arc<SeamCounters>,
}

impl Verifier for TracedVerifier {
    fn check(&self, clock: &VirtualClock) -> Validity {
        let _span = span::enter(Layer::VerifierCheck);
        let verdict = self.inner.check(clock);
        self.counters.add(Seam::VerifierChecks, 1);
        if verdict != Validity::Valid {
            self.counters.add(Seam::VerifierInvalid, 1);
        }
        verdict
    }

    fn cost_micros(&self) -> u64 {
        self.inner.cost_micros()
    }

    fn describe(&self) -> String {
        self.inner.describe()
    }
}

/// Times every pull through a stream a layer handed out, so lazily run
/// transforms are charged to the layer that runs them.
struct TimedInput {
    inner: Box<dyn InputStream>,
    layer: Layer,
    pulled: bool,
}

impl TimedInput {
    fn new(inner: Box<dyn InputStream>, layer: Layer) -> Self {
        Self {
            inner,
            layer,
            pulled: false,
        }
    }

    fn note(&mut self, bytes: usize) {
        span::produced(self.layer, bytes, !self.pulled);
        self.pulled = true;
    }
}

impl InputStream for TimedInput {
    fn read(&mut self, buf: &mut [u8]) -> Result<usize> {
        let n = {
            let _span = span::enter(self.layer);
            self.inner.read(buf)?
        };
        self.note(n);
        Ok(n)
    }

    fn size_hint(&self) -> Option<u64> {
        self.inner.size_hint()
    }

    fn read_chunk(&mut self) -> Result<Option<Bytes>> {
        let chunk = {
            let _span = span::enter(self.layer);
            self.inner.read_chunk()?
        };
        self.note(chunk.as_ref().map_or(0, Bytes::len));
        Ok(chunk)
    }
}

struct TimedOutput {
    inner: Box<dyn OutputStream>,
    layer: Layer,
}

impl OutputStream for TimedOutput {
    fn write(&mut self, buf: &[u8]) -> Result<usize> {
        let _span = span::enter(self.layer);
        self.inner.write(buf)
    }

    fn close(&mut self) -> Result<()> {
        let _span = span::enter(self.layer);
        self.inner.close()
    }

    fn write_bytes(&mut self, chunk: Bytes) -> Result<()> {
        let _span = span::enter(self.layer);
        self.inner.write_bytes(chunk)
    }
}

/// A real property behind spans: the calls the middleware makes into it
/// and every pull through the streams it hands back.
pub struct TracedProperty {
    inner: Arc<dyn ActiveProperty>,
    layer: Layer,
}

impl TracedProperty {
    pub fn wrap(inner: Arc<dyn ActiveProperty>, layer: Layer) -> Arc<dyn ActiveProperty> {
        Arc::new(Self { inner, layer })
    }
}

impl ActiveProperty for TracedProperty {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn interests(&self) -> Interests {
        self.inner.interests()
    }

    fn execution_cost_micros(&self) -> u64 {
        self.inner.execution_cost_micros()
    }

    fn wrap_input(
        &self,
        ctx: &PathCtx<'_>,
        report: &mut PathReport,
        inner: Box<dyn InputStream>,
    ) -> Result<Box<dyn InputStream>> {
        let stream = {
            let _span = span::enter(self.layer);
            self.inner.wrap_input(ctx, report, inner)?
        };
        Ok(Box::new(TimedInput::new(stream, self.layer)))
    }

    fn wrap_output(
        &self,
        ctx: &PathCtx<'_>,
        report: &mut PathReport,
        inner: Box<dyn OutputStream>,
    ) -> Result<Box<dyn OutputStream>> {
        let stream = {
            let _span = span::enter(self.layer);
            self.inner.wrap_output(ctx, report, inner)?
        };
        Ok(Box::new(TimedOutput {
            inner: stream,
            layer: self.layer,
        }))
    }

    fn on_event(&self, ctx: &EventCtx<'_>, event: &DocumentEvent) -> Result<()> {
        let _span = span::enter(self.layer);
        self.inner.on_event(ctx, event)
    }

    fn write_cacheability(&self) -> Cacheability {
        self.inner.write_cacheability()
    }

    fn transform_token(&self, ctx: &PathCtx<'_>) -> Option<Vec<u8>> {
        let _span = span::enter(self.layer);
        self.inner.transform_token(ctx)
    }
}

struct TracedPolicy {
    inner: Box<dyn ReplacementPolicy>,
}

impl ReplacementPolicy for TracedPolicy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_insert(&mut self, key: EntryKey, attrs: &EntryAttrs) {
        let _span = span::enter(Layer::PolicyOnInsert);
        self.inner.on_insert(key, attrs);
    }

    fn on_hit(&mut self, key: EntryKey) {
        let _span = span::enter(Layer::PolicyOnHit);
        self.inner.on_hit(key);
    }

    fn on_remove(&mut self, key: EntryKey) {
        let _span = span::enter(Layer::PolicyOnRemove);
        self.inner.on_remove(key);
    }

    fn evict(&mut self) -> Option<EntryKey> {
        let _span = span::enter(Layer::PolicyEvict);
        self.inner.evict()
    }

    fn len(&self) -> usize {
        self.inner.len()
    }
}

/// The cache's default policy (Greedy-Dual-Size) behind spans.
pub fn traced_policy() -> PolicyFactory {
    let default = PolicyFactory::default();
    PolicyFactory::new(&format!("traced-{}", default.name()), move || {
        Box::new(TracedPolicy {
            inner: default.build(),
        })
    })
}
