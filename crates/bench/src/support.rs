//! Shared helpers for the experiment scenarios.

use bytes::Bytes;
use placeless_core::error::Result;
use placeless_core::event::{EventKind, Interests};
use placeless_core::property::{ActiveProperty, PathCtx, PathReport};
use placeless_core::streams::{InputStream, TransformingInput};
use std::sync::Arc;

/// A property that models an expensive transform: it charges a fixed
/// execution cost (clock + replacement cost) but passes content through.
///
/// The replacement experiments need documents whose *costs* differ by
/// orders of magnitude while their bytes stay comparable; this property is
/// that knob.
pub struct DelayProperty {
    name: String,
    cost_micros: u64,
}

impl DelayProperty {
    /// Creates a delay property charging `cost_micros` per read.
    pub fn new(cost_micros: u64) -> Arc<Self> {
        Arc::new(Self {
            name: format!("delay-{cost_micros}us"),
            cost_micros,
        })
    }
}

impl ActiveProperty for DelayProperty {
    fn name(&self) -> &str {
        &self.name
    }

    fn interests(&self) -> Interests {
        Interests::of(&[EventKind::GetInputStream])
    }

    fn execution_cost_micros(&self) -> u64 {
        self.cost_micros
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
        // Identity transform parameterized only by its cost (already part
        // of the name), so the name is the whole token.
        Some(self.name.clone().into_bytes())
    }
}

/// A property that appends a fixed `[label]` marker to the content and
/// charges a fixed execution cost.
///
/// The staged-caching experiment needs transforms whose outputs are
/// *distinct at every stage* (so intermediate entries don't trivially
/// dedupe) and content-addressable (so they can be staged): the marker
/// makes each stage's output unique and the token declares it.
pub struct TagProperty {
    name: String,
    marker: Vec<u8>,
    cost_micros: u64,
}

impl TagProperty {
    /// Creates a tagger appending `[label]`, charging `cost_micros` per
    /// read.
    pub fn new(label: &str, cost_micros: u64) -> Arc<Self> {
        Arc::new(Self {
            name: format!("tag-{label}"),
            marker: format!("[{label}]").into_bytes(),
            cost_micros,
        })
    }
}

impl ActiveProperty for TagProperty {
    fn name(&self) -> &str {
        &self.name
    }

    fn interests(&self) -> Interests {
        Interests::of(&[EventKind::GetInputStream])
    }

    fn execution_cost_micros(&self) -> u64 {
        self.cost_micros
    }

    fn wrap_input(
        &self,
        _ctx: &PathCtx<'_>,
        _report: &mut PathReport,
        inner: Box<dyn InputStream>,
    ) -> Result<Box<dyn InputStream>> {
        let marker = self.marker.clone();
        Ok(Box::new(TransformingInput::new(
            inner,
            Box::new(move |bytes| {
                let mut out = bytes.to_vec();
                out.extend_from_slice(&marker);
                Ok(Bytes::from(out))
            }),
        )))
    }

    fn transform_token(&self, _ctx: &PathCtx<'_>) -> Option<Vec<u8>> {
        Some(self.marker.clone())
    }
}
