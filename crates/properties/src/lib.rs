//! # Standard active-property library
//!
//! The concrete properties from the paper's examples, ready to attach:
//!
//! * content transforms — [`spellcheck::SpellCheck`],
//!   [`translate::Translate`], [`summarize::Summarize`],
//!   [`rot13::Rot13AtRest`], [`compress::CompressAtRest`],
//!   [`markers::Watermark`];
//! * behaviours — [`versioning::Versioning`] (save a version per write),
//!   [`replication::ReplicateTo`] (timer-driven site copies);
//! * caching collaborators — the [`notifiers`] family,
//!   [`markers::TtlProperty`], [`markers::UncacheableMarker`],
//!   [`portfolio::Portfolio`] (smart threshold verifier with in-place
//!   replacement);
//! * [`register::register_standard`] — attach-by-name registration.

pub mod compress;
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

pub use compress::CompressAtRest;
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
