//! Operation-based merge policy for concurrent write-back writes.
//!
//! Without a policy, conflict resolution is binary: when a journaled
//! write's base epoch no longer matches the origin, a [`ConflictHook`]
//! picks `KeepMine` (clobber the origin) or `KeepTheirs` (drop the write)
//! — either way one side's edit is lost. A [`MergePolicy`] is the third
//! way the paper's collaborative workloads need: when the journal recorded
//! *typed operations* ([`placeless_core::op::DocOp`]) rather than an
//! opaque snapshot, a conflicted write is **rebased** — its ops re-applied
//! onto the origin's *current* content — so both sides' edits survive.
//!
//! The rebase itself is [`placeless_core::op::apply_all`]: recovery folds
//! a conflicted record's ops onto the origin's rendition, and a flush
//! sends rebasable ops to be applied server-side by `write_documents`.
//! Determinism comes from the flush order: one flush writes its entries
//! in ascending `(document, user)` order and each writer's ops in the
//! order it issued them, so the bytes it produces do not depend on the
//! order the writes arrived in (the reference model and its proptest live
//! in `tests/fault_matrix.rs`).
//!
//! A full-body `Replace` op (or an op-less v1 record) pins the entire
//! document, so it cannot be rebased; those conflicts still drop to the
//! binary hook via [`MergePolicy::on_unmergeable`].

use crate::manager::{ConflictHook, ConflictResolution, WriteConflict};
use std::fmt;

/// How the cache resolves write conflicts when typed ops are available.
///
/// Set on [`crate::CacheConfig::merge`]; with `None` (the default) every
/// conflict goes to the binary hooks — no origin probes, no rebases.
#[derive(Clone, Default)]
pub struct MergePolicy {
    /// Consulted for conflicts that cannot be rebased (op-less records,
    /// or op lists containing a full-body `Replace`). `None` falls back
    /// to [`ConflictResolution::KeepMine`], the binary hooks' own default.
    pub on_unmergeable: Option<ConflictHook>,
}

impl MergePolicy {
    /// A merge policy with the default keep-mine fallback.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the binary fallback hook for unmergeable conflicts.
    pub fn on_unmergeable(mut self, hook: ConflictHook) -> Self {
        self.on_unmergeable = Some(hook);
        self
    }

    /// Resolves a conflict that could not be rebased: the configured
    /// fallback hook, or keep-mine.
    pub fn resolve_unmergeable(&self, conflict: &WriteConflict) -> ConflictResolution {
        match &self.on_unmergeable {
            Some(hook) => hook(conflict),
            None => ConflictResolution::KeepMine,
        }
    }
}

impl fmt::Debug for MergePolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MergePolicy")
            .field(
                "on_unmergeable",
                &self.on_unmergeable.as_ref().map(|_| "<hook>"),
            )
            .finish()
    }
}

/// What the merge machinery did during one recovery or flush.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MergeReport {
    /// Conflicts routed through the merge policy.
    pub examined: u64,
    /// Conflicts resolved by rebasing ops onto the origin's content.
    pub merged: u64,
    /// Individual ops re-applied across all merges.
    pub rebases: u64,
    /// Unmergeable conflicts resolved by keeping the journaled write.
    pub kept_mine: u64,
    /// Unmergeable conflicts resolved by keeping the origin's version
    /// (the journaled write was dropped and acknowledged).
    pub kept_theirs: u64,
}

impl MergeReport {
    /// True when no conflict was routed through the policy.
    pub fn is_empty(&self) -> bool {
        self == &Self::default()
    }
}

impl fmt::Display for MergeReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} conflict(s) examined: {} merged ({} op(s) rebased), {} kept mine, {} kept theirs",
            self.examined, self.merged, self.rebases, self.kept_mine, self.kept_theirs
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use placeless_core::id::{DocumentId, UserId};

    #[test]
    fn unmergeable_resolution_defaults_to_keep_mine() {
        let conflict = WriteConflict {
            doc: DocumentId(1),
            user: UserId(1),
            journal_epoch: crate::journal::NO_EPOCH,
            origin_signature: crate::digest::md5(b"x"),
        };
        assert_eq!(
            MergePolicy::new().resolve_unmergeable(&conflict),
            ConflictResolution::KeepMine
        );
        let theirs = MergePolicy::new()
            .on_unmergeable(std::sync::Arc::new(|_| ConflictResolution::KeepTheirs));
        assert_eq!(
            theirs.resolve_unmergeable(&conflict),
            ConflictResolution::KeepTheirs
        );
    }

    #[test]
    fn report_display_and_emptiness() {
        let a = MergeReport {
            examined: 3,
            merged: 1,
            rebases: 3,
            kept_mine: 1,
            kept_theirs: 1,
        };
        assert_eq!(
            a.to_string(),
            "3 conflict(s) examined: 1 merged (3 op(s) rebased), 1 kept mine, 1 kept theirs"
        );
        assert!(MergeReport::default().is_empty());
        assert!(!a.is_empty());
    }
}
