//! Quality-of-Service properties.
//!
//! §5: "Quality of Service (QoS) properties, like `always available` or
//! `access time < .25 seconds`, may need to specify caching requirements to
//! tailor cache replacement policies. One possibility for QoS properties to
//! influence cache replacement is to inflate replacement costs." This module
//! implements that possibility: a [`QosProperty`] on the read path
//! multiplies the document's replacement cost so cost-aware policies (GDS)
//! keep it resident longer.

use crate::error::Result;
use crate::event::{EventKind, Interests};
use crate::property::{ActiveProperty, PathCtx, PathReport};
use crate::streams::InputStream;
use std::sync::Arc;

/// A QoS requirement expressed as a replacement-cost inflation.
pub struct QosProperty {
    name: String,
    factor: f64,
    pin: bool,
}

impl QosProperty {
    /// Creates a QoS property that multiplies replacement cost by `factor`.
    pub fn with_factor(name: &str, factor: f64) -> Arc<Self> {
        Arc::new(Self {
            name: name.to_owned(),
            factor: factor.max(1.0),
            pin: false,
        })
    }

    /// Creates an `access time < bound` property.
    ///
    /// The inflation is derived from how badly a miss would violate the
    /// bound: a document whose re-fetch takes 10× the bound gets 10× cost.
    /// A document that can be re-fetched within the bound needs no
    /// inflation.
    pub fn access_time_bound(bound_micros: u64, estimated_refetch_micros: u64) -> Arc<Self> {
        let factor = if bound_micros == 0 {
            f64::MAX
        } else {
            estimated_refetch_micros as f64 / bound_micros as f64
        };
        Arc::new(Self {
            name: format!("qos:access-time<{}ms", bound_micros as f64 / 1_000.0),
            factor: factor.max(1.0),
            pin: false,
        })
    }

    /// Creates an `always available` property: a large cost inflation plus
    /// a pin request, the "more flexible mechanism" §5 calls for — the
    /// cache keeps the entry resident regardless of replacement pressure.
    pub fn always_available() -> Arc<Self> {
        Arc::new(Self {
            name: "qos:always-available".to_owned(),
            factor: 1_000.0,
            pin: true,
        })
    }
}

impl ActiveProperty for QosProperty {
    fn name(&self) -> &str {
        &self.name
    }

    fn interests(&self) -> Interests {
        Interests::of(&[EventKind::GetInputStream])
    }

    fn wrap_input(
        &self,
        _ctx: &PathCtx<'_>,
        report: &mut PathReport,
        inner: Box<dyn InputStream>,
    ) -> Result<Box<dyn InputStream>> {
        report.inflate_cost(self.factor);
        if self.pin {
            report.pin();
        }
        Ok(inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventSite;
    use crate::id::{DocumentId, UserId};
    use crate::property::PropsSnapshot;
    use crate::streams::MemoryInput;
    use placeless_simenv::VirtualClock;

    fn run_through(prop: &dyn ActiveProperty) -> PathReport {
        let clock = VirtualClock::new();
        let snap = PropsSnapshot::default();
        let ctx = PathCtx {
            clock: &clock,
            doc: DocumentId(1),
            user: UserId(1),
            site: EventSite::Base,
            props: &snap,
        };
        let mut report = PathReport::new(100);
        let inner: Box<dyn InputStream> =
            Box::new(MemoryInput::new(bytes::Bytes::from_static(b"x")));
        prop.wrap_input(&ctx, &mut report, inner).unwrap();
        report
    }

    #[test]
    fn factor_inflates_cost_on_read_path() {
        let prop = QosProperty::with_factor("qos:test", 4.0);
        let report = run_through(prop.as_ref());
        assert_eq!(report.cost.effective_micros(), 400.0);
        assert_eq!(report.cost.raw_micros(), 100.0);
    }

    #[test]
    fn access_time_bound_scales_with_violation() {
        // Re-fetch takes 250 ms, bound is 25 ms: 10x inflation.
        let prop = QosProperty::access_time_bound(25_000, 250_000);
        assert_eq!(run_through(prop.as_ref()).cost.effective_micros(), 1_000.0);
        // Re-fetch already within bound: no inflation.
        let cheap = QosProperty::access_time_bound(25_000, 1_000);
        assert_eq!(run_through(cheap.as_ref()).cost.effective_micros(), 100.0);
    }

    #[test]
    fn always_available_has_large_factor_and_pins() {
        let prop = QosProperty::always_available();
        assert!(prop.name().contains("always-available"));
        let report = run_through(prop.as_ref());
        assert!(report.cost.effective_micros() >= 100.0 * 100.0);
        assert!(report.pinned);
        let unpinned = run_through(QosProperty::with_factor("q", 2.0).as_ref());
        assert!(!unpinned.pinned);
    }

    #[test]
    fn factors_below_one_are_clamped() {
        let prop = QosProperty::with_factor("weak", 0.5);
        assert_eq!(run_through(prop.as_ref()).cost.effective_micros(), 100.0);
    }

    #[test]
    fn registers_only_for_read_path() {
        let prop = QosProperty::with_factor("q", 2.0);
        assert!(prop.interests().contains(EventKind::GetInputStream));
        assert!(!prop.interests().contains(EventKind::GetOutputStream));
    }
}
