//! Cache replacement policies.
//!
//! The prototype's policy is "a version of the Greedy-Dual-Size algorithm
//! [Cao & Irani 1997], based on the replacement cost supplied by the
//! properties and bit-provider, as well as on the size of the document and
//! the access frequency of the document at that cache" — implemented here
//! as [`gdsf::GdsFrequency`] (the full cost+size+frequency form) and
//! [`gds::GreedyDualSize`] (the frequency-free original). The classic
//! baselines (LRU, LFU, SIZE, FIFO, and cost-blind GD(1)) let the
//! replacement benchmark show what cost-awareness buys.

pub mod fifo;
pub mod gds;
pub mod gdsf;
pub mod lfu;
pub mod lru;
pub mod size;

pub use fifo::Fifo;
pub use gds::GreedyDualSize;
pub use gdsf::GdsFrequency;
pub use lfu::Lfu;
pub use lru::Lru;
pub use size::SizePolicy;

use parking_lot::Mutex;
use placeless_core::digest::Signature;
use placeless_core::id::{DocumentId, UserId};
use std::sync::Arc;

/// The key a cache entry is stored under.
///
/// Final renditions are per-`(document, user)` pairs, because active
/// properties make content per-user. Intermediate stage outputs from the
/// staged transform pipeline are content-addressed by their stage
/// signature: user-independent by construction, so one entry serves every
/// user whose chain shares the prefix that produced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum EntryKey {
    /// A final per-user rendition of a document.
    Version(DocumentId, UserId),
    /// An intermediate stage output, keyed by its stage signature.
    Stage(Signature),
}

impl EntryKey {
    /// Returns `true` for intermediate stage entries.
    pub fn is_stage(&self) -> bool {
        matches!(self, EntryKey::Stage(_))
    }
}

/// Attributes of an entry at insert time, as seen by a replacement policy.
///
/// Marked `#[non_exhaustive]` so new signals can be added without
/// breaking policy implementations: construct via [`EntryAttrs::new`] and
/// read the fields you care about.
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EntryAttrs {
    /// Content size in bytes.
    pub size: u64,
    /// Replacement cost: simulated microseconds to re-produce the content
    /// were this entry alone missing (bit-provider fetch plus
    /// active-property work on the opaque path; the stages a walk would
    /// redo on the staged one).
    pub cost: f64,
}

impl EntryAttrs {
    /// Attributes for an entry of `size` bytes costing `cost` simulated
    /// microseconds to reproduce.
    pub fn new(size: u64, cost: f64) -> Self {
        Self { size, cost }
    }
}

/// A replacement policy tracks entry metadata and chooses eviction victims.
///
/// The cache manager drives it: `on_insert` when an entry is filled, a hit
/// on every hit, `on_remove` when an entry is invalidated, and `evict`
/// when space must be reclaimed. Each shard owns one instance and reaches
/// it through its own lock: `&mut` under the exclusive guard, `&` under
/// the shared one — which is why the trait asks for `Sync` — where hits
/// of one shard run side by side and are offered to
/// [`on_hit_shared`](Self::on_hit_shared) first.
pub trait ReplacementPolicy: Send + Sync {
    /// Returns the policy's display name.
    fn name(&self) -> &'static str;

    /// Records a newly inserted entry with its attributes (size, cost, …).
    fn on_insert(&mut self, key: EntryKey, attrs: &EntryAttrs);

    /// Records a hit on an existing entry.
    fn on_hit(&mut self, key: EntryKey);

    /// Records a hit on an existing entry while other threads may be
    /// recording hits too, and returns `true`; or records nothing and
    /// returns `false`, and the cache takes the shard exclusively and
    /// calls [`on_hit`](Self::on_hit) (the default). An implementation
    /// must leave what serial `on_hit`s would have left, and should write
    /// only what a hit on the same key writes: a hit that writes nothing
    /// else is what lets a second core serve hits at all.
    ///
    /// A policy handed to [`PolicyFactory::new`] need not implement this:
    /// the factory serialises its hits on a mutex of their own.
    fn on_hit_shared(&self, _key: EntryKey) -> bool {
        false
    }

    /// Records that an entry left the cache for a non-eviction reason
    /// (invalidation).
    fn on_remove(&mut self, key: EntryKey);

    /// Chooses and removes a victim, or `None` if the policy is empty.
    fn evict(&mut self) -> Option<EntryKey>;

    /// Returns the number of tracked entries.
    fn len(&self) -> usize;

    /// Returns `true` if no entries are tracked.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Error returned by [`by_name`] for an unrecognised policy name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownPolicy {
    /// The name that failed to resolve.
    pub requested: String,
}

impl std::fmt::Display for UnknownPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown replacement policy `{}`; known policies: {}",
            self.requested,
            ALL_POLICIES.join(", ")
        )
    }
}

impl std::error::Error for UnknownPolicy {}

/// Builds a policy by name (case-insensitive); the bench harness sweeps
/// these. The error lists every known policy.
pub fn by_name(name: &str) -> Result<Box<dyn ReplacementPolicy>, UnknownPolicy> {
    match name.to_ascii_lowercase().as_str() {
        "gds" => Ok(Box::new(GreedyDualSize::new())),
        "gdsf" => Ok(Box::new(GdsFrequency::new())),
        "gd1" => Ok(Box::new(GreedyDualSize::cost_blind())),
        "lru" => Ok(Box::new(Lru::new())),
        "lfu" => Ok(Box::new(Lfu::new())),
        "size" => Ok(Box::new(SizePolicy::new())),
        "fifo" => Ok(Box::new(Fifo::new())),
        _ => Err(UnknownPolicy {
            requested: name.to_string(),
        }),
    }
}

/// All policy names, for sweeps.
pub const ALL_POLICIES: [&str; 7] = ["gdsf", "gds", "gd1", "lru", "lfu", "size", "fifo"];

/// A caller's policy, its hits serialised on a leaf mutex: a policy that
/// knows `on_hit` only still takes every hit under the shared shard lock,
/// exactly once, and hits of one shard queue here instead of escalating
/// to the exclusive guard one by one. Of the cache's own policies only
/// `lru` and `lfu`, which reorder a list on every hit, are built behind it.
struct HitsSerialised(Mutex<Box<dyn ReplacementPolicy>>);

impl ReplacementPolicy for HitsSerialised {
    fn name(&self) -> &'static str {
        self.0.lock().name()
    }

    fn on_insert(&mut self, key: EntryKey, attrs: &EntryAttrs) {
        self.0.get_mut().on_insert(key, attrs);
    }

    fn on_hit(&mut self, key: EntryKey) {
        self.0.get_mut().on_hit(key);
    }

    fn on_hit_shared(&self, key: EntryKey) -> bool {
        self.0.lock().on_hit(key);
        true
    }

    fn on_remove(&mut self, key: EntryKey) {
        self.0.get_mut().on_remove(key);
    }

    fn evict(&mut self) -> Option<EntryKey> {
        self.0.get_mut().evict()
    }

    fn len(&self) -> usize {
        self.0.lock().len()
    }
}

/// A cloneable recipe for constructing [`ReplacementPolicy`] instances.
///
/// The sharded cache needs one policy instance per shard; a bare
/// `Box<dyn ReplacementPolicy>` can describe only one. A factory captures
/// the construction itself, so configuration stays a single value while
/// every shard gets an independent policy.
#[derive(Clone)]
pub struct PolicyFactory {
    name: Arc<str>,
    make: Arc<dyn Fn() -> Box<dyn ReplacementPolicy> + Send + Sync>,
}

impl PolicyFactory {
    /// Creates a factory from a display name and a constructor closure.
    /// What `make` builds has its hits serialised (it may predate
    /// [`ReplacementPolicy::on_hit_shared`], or forward to a policy that
    /// does), so implementing `on_hit` is enough.
    pub fn new<F>(name: &str, make: F) -> Self
    where
        F: Fn() -> Box<dyn ReplacementPolicy> + Send + Sync + 'static,
    {
        Self::native(name, move || Box::new(HitsSerialised(Mutex::new(make()))))
    }

    /// A factory for one of this crate's policies, handed out as built.
    fn native<F>(name: &str, make: F) -> Self
    where
        F: Fn() -> Box<dyn ReplacementPolicy> + Send + Sync + 'static,
    {
        Self {
            name: Arc::from(name),
            make: Arc::new(make),
        }
    }

    /// Resolves a factory by policy name (case-insensitive).
    pub fn by_name(name: &str) -> Result<Self, UnknownPolicy> {
        // Validate eagerly so the error surfaces at configuration time.
        by_name(name)?;
        let canonical = name.to_ascii_lowercase();
        let captured = canonical.clone();
        let make = move || by_name(&captured).expect("validated above");
        Ok(match canonical.as_str() {
            // The two that keep the default `on_hit_shared`: serialised
            // like a caller's policy, so their hits stay shared too.
            "lru" | "lfu" => Self::new(&canonical, make),
            _ => Self::native(&canonical, make),
        })
    }

    /// Constructs a fresh policy instance.
    pub fn build(&self) -> Box<dyn ReplacementPolicy> {
        (self.make)()
    }

    /// Returns the factory's display name.
    pub fn name(&self) -> &str {
        &self.name
    }
}

impl std::fmt::Debug for PolicyFactory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PolicyFactory")
            .field("name", &self.name)
            .finish()
    }
}

impl Default for PolicyFactory {
    /// The paper's choice: Greedy-Dual-Size over replacement cost.
    fn default() -> Self {
        Self::native("gds", || Box::new(GreedyDualSize::new()))
    }
}
