//! # Caching architecture for Placeless Documents
//!
//! Implements the paper's §3 caching design in full:
//!
//! * [`manager::DocumentCache`] — the application-level cache: hit/miss
//!   paths, verifier execution on hits, notifier-driven invalidation,
//!   cacheability enforcement with operation-event forwarding, and
//!   write-through / write-back modes. Sharded for concurrent readers
//!   (see the module docs for the lock-ordering argument); configured via
//!   [`manager::CacheConfig::builder`].
//! * [`store::ConcurrentStore`] — striped, refcounted
//!   `signature → content` storage with atomic byte accounting, so
//!   identical renditions share bytes across shards and users. It is the
//!   second level of the paper's `(document, user) → signature → content`
//!   map; the first level is the cache's sharded entry table (the
//!   crate-private `shard` module).
//! * the crate-private `origin` module — origin health: one record per
//!   origin (its circuit breaker, its window of running operations, its
//!   AIMD state), the retry loop, and the brownout ladder, configured by
//!   one [`OriginConfig`] and all off by default. An origin operation is
//!   one admission and one settlement of the slot it was admitted to.
//! * [`digest`] — in-tree MD5 (RFC 1321) content signatures (re-exported
//!   from `placeless_core`, where the plan compiler also derives per-stage
//!   signatures from them).
//! * [`policy`] — Greedy-Dual-Size driven by property-supplied replacement
//!   costs, plus LRU / LFU / SIZE / FIFO / GD(1) baselines; policies are
//!   built per shard from a cloneable [`policy::PolicyFactory`] and fed
//!   [`policy::EntryAttrs`] at insert time.
//! * [`stats::CacheStats`] — the counters every experiment reports
//!   (accumulated lock-free in [`stats::AtomicCacheStats`]).

pub use placeless_core::digest;

mod entry;
pub mod journal;
pub mod manager;
pub mod merge;
mod origin;
pub mod policy;
pub mod prefetch;
mod shard;
pub mod singleflight;
pub mod stats;
pub mod store;

pub use digest::{md5, Md5, Signature};
pub use journal::{JournalRecord, ReplayOutcome, WriteJournal, NO_EPOCH};
pub use manager::{
    default_shard_count, CacheConfig, CacheConfigBuilder, ConflictHook, ConflictResolution,
    DocumentCache, FlushReport, HitClass, ReadOptions, ReadOutcome, RecoveryReport, StalenessBound,
    WriteConflict, WriteMode,
};
pub use merge::{MergePolicy, MergeReport};
pub use origin::{BreakerState, OriginConfig, OverloadControl, Priority, WindowConfig};
pub use policy::{
    by_name, EntryAttrs, EntryKey, GdsFrequency, GreedyDualSize, PolicyFactory, ReplacementPolicy,
    UnknownPolicy, ALL_POLICIES,
};
pub use prefetch::PrefetchConfig;
pub use stats::CacheStats;
pub use store::ConcurrentStore;
