//! # Placeless Documents core middleware
//!
//! A from-scratch Rust implementation of the Placeless Documents system as
//! described in *Caching Documents with Active Properties* (de Lara et al.,
//! HotOS VII, 1999): documents with personalized, possibly *active*
//! properties that transform content on the read and write paths, plus the
//! mechanisms the paper introduces so such properties can collaborate with
//! content caches — cacheability indicators, replacement costs, notifiers,
//! and verifiers.
//!
//! ## Architecture
//!
//! * [`space::DocumentSpace`] — the middleware API: create base documents
//!   over [`bitprovider::BitProvider`]s, hand out per-user references,
//!   attach [`property::ActiveProperty`]s, and open read/write paths.
//! * [`streams`] — the custom input/output stream chains properties build.
//! * [`cacheability`], [`cost`], [`verifier`], [`notifier`] — everything a
//!   cache needs: the three-level cacheability indicator, accumulated
//!   replacement costs, hit-time verifiers, and the invalidation bus
//!   notifier properties post to.
//! * [`registry`] — attach-by-name property factories (runtime dynamism
//!   under a static compilation model).
//!
//! ## Quickstart
//!
//! ```
//! use placeless_core::prelude::*;
//! use placeless_simenv::VirtualClock;
//!
//! let clock = VirtualClock::new();
//! let space = DocumentSpace::new(clock);
//! let alice = UserId(1);
//!
//! // A base document whose bits live in an in-memory repository.
//! let provider = MemoryProvider::new("notes", "hello placeless", 500);
//! let doc = space.create_document(alice, provider);
//!
//! // Read through the (empty) property path.
//! let (bytes, report) = space.read_document(alice, doc).unwrap();
//! assert_eq!(bytes, "hello placeless");
//! assert_eq!(report.cacheability, Cacheability::Unrestricted);
//! ```

pub mod bitprovider;
pub mod cacheability;
pub mod collection;
pub mod content;
pub mod cost;
pub mod describe;
pub mod digest;
pub mod document;
pub mod error;
pub mod event;
pub mod external;
pub mod id;
pub mod keymap;
pub mod notifier;
pub mod op;
pub mod plan;
pub mod profile;
pub mod property;
pub mod qos;
pub mod registry;
pub mod space;
pub mod streams;
pub mod verifier;

/// The most commonly used items, re-exported for convenience.
pub mod prelude {
    pub use crate::bitprovider::{BitProvider, MemoryProvider};
    pub use crate::cacheability::Cacheability;
    pub use crate::collection::Collections;
    pub use crate::content::{Content, Params, PropertyValue};
    pub use crate::cost::ReplacementCost;
    pub use crate::describe::{DocumentDescription, PropertyInfo};
    pub use crate::digest::{md5, Md5, Signature};
    pub use crate::error::{PlacelessError, Result};
    pub use crate::event::{DocumentEvent, EventKind, EventSite, Interests};
    pub use crate::external::{ExternalSource, SimpleExternal};
    pub use crate::id::{CacheId, DocumentId, PropertyId, UserId};
    pub use crate::notifier::{Invalidation, InvalidationBus, InvalidationSink};
    pub use crate::op::{apply_all, rebasable, DocOp};
    pub use crate::plan::{PlanStage, TransformPlan};
    pub use crate::profile::{apply_profile, format_profile, parse_profile, PropertySpec};
    pub use crate::property::{
        ActiveProperty, AttachedProperty, EventCtx, FollowUp, PathCtx, PathReport, StageRecord,
    };
    pub use crate::qos::QosProperty;
    pub use crate::registry::PropertyRegistry;
    pub use crate::space::{DocumentSpace, Scope};
    pub use crate::streams::{
        read_all, write_all, InputStream, MemoryInput, OutputStream, TransformingInput,
        TransformingOutput,
    };
    pub use crate::verifier::{ClosureVerifier, EpochVerifier, TtlVerifier, Validity, Verifier};
}
