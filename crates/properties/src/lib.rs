//! # Standard active-property library
//!
//! The concrete properties from the paper's examples, ready to attach:
//!
//! * content transforms — [`spellcheck::SpellCheck`],
//!   [`translate::Translate`], [`summarize::Summarize`],
//!   [`rot13::Rot13AtRest`], [`compress::CompressAtRest`],
//!   [`markers::Watermark`];
//! * behaviours — [`versioning::Versioning`] (save a version per write),
//!   [`replication::ReplicateTo`] (timer-driven site copies),
//!   [`audit::AuditTrail`] (read trail with `CacheableWithEvents`);
//! * caching collaborators — the [`notifiers`] family,
//!   [`markers::TtlProperty`], [`markers::UncacheableMarker`],
//!   [`portfolio::Portfolio`] (smart threshold verifier with in-place
//!   replacement);
//! * [`register::register_standard`] — attach-by-name registration.

pub mod audit;
pub mod compress;
pub mod deadline;
pub mod markers;
pub mod notifiers;
pub mod portfolio;
pub mod register;
pub mod replication;
pub mod rot13;
pub mod spellcheck;
pub mod summarize;
pub mod translate;
pub mod versioning;
pub mod wordmap;

#[cfg(test)]
pub(crate) mod testutil;

pub use audit::AuditTrail;
pub use compress::CompressAtRest;
pub use deadline::Deadline;
pub use markers::{TtlProperty, UncacheableMarker, Watermark};
pub use notifiers::{ContentWriteNotifier, ExternalChangeNotifier, PropertyChangeNotifier};
pub use portfolio::Portfolio;
pub use register::register_standard;
pub use replication::ReplicateTo;
pub use rot13::Rot13AtRest;
pub use spellcheck::SpellCheck;
pub use summarize::Summarize;
pub use translate::Translate;
pub use versioning::Versioning;
