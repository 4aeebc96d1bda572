//! Information sources *outside Placeless control* that active properties
//! depend on.
//!
//! The paper's fourth invalidation cause: "Information used by active
//! properties changes. Active properties may rely on information that is
//! completely external to the Placeless system, for example current time,
//! data stored in databases and other on-line sources." An
//! [`ExternalSource`] exposes an *epoch* counter that bumps on every change,
//! so verifiers can cheaply detect staleness without re-reading the value,
//! and a current value for properties that embed it in content.

use bytes::Bytes;
use parking_lot::Mutex;
use std::sync::Arc;

/// A named external information source with change detection.
pub trait ExternalSource: Send + Sync {
    /// Returns the source's name (e.g. `"stock:XRX"`).
    fn name(&self) -> &str;

    /// Returns a counter that increases every time the value changes.
    fn epoch(&self) -> u64;

    /// Returns the current value.
    fn read(&self) -> Bytes;
}

/// A simple in-memory [`ExternalSource`] that can be mutated by tests,
/// benches, and repository simulations.
///
/// # Examples
///
/// ```
/// use placeless_core::external::{ExternalSource, SimpleExternal};
///
/// let src = SimpleExternal::new("stock:XRX", "42.50");
/// let e0 = src.epoch();
/// src.set("41.75");
/// assert!(src.epoch() > e0);
/// assert_eq!(&src.read()[..], b"41.75");
/// ```
pub struct SimpleExternal {
    name: String,
    state: Mutex<(u64, Bytes)>,
}

impl SimpleExternal {
    /// Creates a source with an initial value at epoch zero.
    pub fn new(name: &str, value: impl Into<Bytes>) -> Arc<Self> {
        Arc::new(Self {
            name: name.to_owned(),
            state: Mutex::new((0, value.into())),
        })
    }

    /// Replaces the value, bumping the epoch.
    pub fn set(&self, value: impl Into<Bytes>) {
        let mut state = self.state.lock();
        state.0 += 1;
        state.1 = value.into();
    }
}

impl ExternalSource for SimpleExternal {
    fn name(&self) -> &str {
        &self.name
    }

    fn epoch(&self) -> u64 {
        self.state.lock().0
    }

    fn read(&self) -> Bytes {
        self.state.lock().1.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_bumps_epoch_and_replaces_value() {
        let src = SimpleExternal::new("clock", "9:00");
        assert_eq!(src.epoch(), 0);
        assert_eq!(&src.read()[..], b"9:00");
        src.set("9:01");
        assert_eq!(src.epoch(), 1);
        assert_eq!(&src.read()[..], b"9:01");
    }

    #[test]
    fn usable_as_trait_object() {
        let src: Arc<dyn ExternalSource> = SimpleExternal::new("s", "v");
        assert_eq!(src.name(), "s");
        assert_eq!(src.epoch(), 0);
    }
}
