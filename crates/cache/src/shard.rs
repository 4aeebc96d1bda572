//! The cache's entry table: the first level of the paper's two-level map.
//!
//! §3 asks for `(document, user) → signature → content`. The second level
//! is the cache-wide [`ConcurrentStore`]; this module is the first. A
//! [`ShardTable`] splits the entries over N [`Shard`]s, each behind its own
//! reader-writer lock, with the shard chosen by a *fixed* multiplicative
//! hash of the key, so placement is the same in every run. A shard keeps
//! **one** map from key to [`Resident`] — the content signature the key is
//! bound to, the store's bytes for it, and the entry's metadata — so "a
//! resident entry has content" holds by construction, beside its
//! replacement-policy instance and its buffered write-back data.
//!
//! A document's versions are spread over the shards by user, so a
//! document-scoped invalidation visits every shard. Each shard therefore
//! also keeps, per document, the set of users with a version resident
//! *there*, moved by the same two private functions that move the table:
//! a visit costs the versions of that document in that shard (one lock,
//! one lookup when there are none), never the shard's population.
//!
//! Everything that must change together with that map happens here and
//! nowhere else: taking and dropping content-store references, telling
//! the replacement policy, and moving the `stage_bytes`, dirty and parked
//! gauges. So does the cache's other per-key state: a key's buffered
//! write, parked mark and writer sequence, and a document's [`PlanLease`]
//! in its *home* shard ([`ShardTable::home`]). The rest of the cache works
//! through [`ShardGuard`]'s methods, and a shard lock is held exactly as
//! long as a guard is alive.
//!
//! # What a hit hashes, reads and writes
//!
//! A hit hashes its key by the fixed mixer for its shard, then by the seeded
//! [`KeyMap`] hasher once per map it probes: the dirty map (if not empty),
//! the entries, the policy's record. It reads its entry in place, from the
//! slot the probe found: signature, bytes handle and metadata, a lone
//! verifier's pointer among them, so the first object past the slot is the
//! verifier itself. It writes only what hits of the same key or thread
//! write, so cores do not trade lines: the entry carries its bytes (no
//! store stripe locked, no signature hashed), the policy takes the hit
//! through `&self` into the key's record
//! ([`ReplacementPolicy::on_hit_shared`]), the counters are striped by
//! thread. Still shared: the lock word, the generation counter, the clock.
//!
//! # Lock ordering (deadlock freedom)
//!
//! 1. A shard lock is held **shared** ([`ShardTable::share`]: a hit, the
//!    read-only accessors) or **exclusive** ([`ShardTable::lock`]:
//!    whatever changes the table or the dirty map). Two shared holders of
//!    one shard run side by side.
//! 2. A thread **blocks** on at most one shard lock, in either mode,
//!    while holding no other cache lock. A thread holding one, in either
//!    mode, never blocks on another: sibling shards are probed with
//!    `try_write` only (`ShardGuard::steal_one`).
//! 3. **No upgrade.** A shared holder that finds the table must change
//!    drops its guard, blocks for the exclusive one, and re-checks what
//!    it saw ([`ShardGuard::probe`]); two would-be upgraders would
//!    otherwise wait for each other.
//! 4. The content-store stripe locks are **leaves**: taken under an
//!    exclusive shard lock (a fill, a release; never by a hit), released
//!    before the method returns, never two at once. Nothing else is
//!    locked under a shard lock: the policy is a plain field, `&` through
//!    the shared guard and `&mut` through the exclusive one. (A caller's
//!    own policy, and `lru`/`lfu` by name, serialise their shared hits on
//!    a mutex inside themselves, [`PolicyFactory::new`], a leaf by the
//!    same argument.) The cache's
//!    other leaf locks (the journal, the flight tables, the origin locks)
//!    are never taken by this module.
//!
//! Every blocking edge therefore points from "holding nothing" to a shard
//! lock, or from a shard lock to a leaf; the wait-for graph is acyclic.

use crate::digest::Signature;
use crate::entry::EntryMeta;
use crate::manager::Recount;
use crate::policy::{EntryAttrs, EntryKey, PolicyFactory, ReplacementPolicy};
use crate::stats::AtomicCacheStats;
use crate::store::ConcurrentStore;
use bytes::Bytes;
use parking_lot::{RwLock, RwLockReadGuard, RwLockWriteGuard};
use placeless_core::id::{DocumentId, UserId};
use placeless_core::keymap::{KeyMap, KeySet};
use placeless_core::op::DocOp;
use placeless_core::space::BaseChainLease;
use placeless_core::verifier::{Validity, Verifier};
use placeless_simenv::{Instant, VirtualClock};
use std::collections::hash_map::Entry;
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One buffered write-back write: the data plus (journal configured) the
/// sequence number of its journal record, so a flush acknowledges exactly
/// the record it pushed — never a newer one that superseded it while the
/// flush held no lock.
#[derive(Debug, Clone)]
pub(crate) struct DirtyEntry {
    pub(crate) data: Bytes,
    pub(crate) seq: Option<u64>,
    /// Typed ops accumulated since `epoch`, oldest first — the delta a
    /// merge can rebase. Empty for plain full-body writes.
    pub(crate) ops: Vec<DocOp>,
    /// Content signature of the base rendition the buffered write was
    /// authored against ([`crate::NO_EPOCH`] when unknown). The flush-time
    /// conflict probe compares it against the writer's current rendition.
    pub(crate) epoch: Signature,
    /// Per-`(doc, user)` causal sequence; `0` for plain writes.
    pub(crate) writer_seq: u64,
    /// A flush of the key exhausted its retries; it waits in the journal
    /// for a breaker probe. Bookkeeping only (stats and reports).
    pub(crate) parked: bool,
}

impl DirtyEntry {
    /// A write not yet journaled nor parked.
    pub(crate) fn new(data: Bytes, epoch: Signature, ops: Vec<DocOp>, writer_seq: u64) -> Self {
        Self {
            data,
            seq: None,
            ops,
            epoch,
            writer_seq,
            parked: false,
        }
    }
}

/// One document's staged-read fast path: the space's compiled base half of
/// the chain (epoch-checked on use; reusing it saves a middleware hop) and
/// the provider rendition last fetched through it.
pub(crate) struct PlanLease {
    pub(crate) chain: Arc<BaseChainLease>,
    pub(crate) root: Option<Root>,
}

/// A provider rendition as a walk knows it: its digest, and the provider's
/// verifier that the bytes still digest to `sig`, captured *before* the
/// fetch, so a write landing in between reads as `Invalid` next time (a
/// wasted refetch), never as `Valid` over stale bytes.
#[derive(Clone)]
pub(crate) struct Root {
    pub(crate) sig: Signature,
    pub(crate) verifier: Option<Arc<dyn Verifier>>,
}

/// A resident entry: the content it is bound to, and everything else the
/// read path shipped with it. `sig` is the content's digest, or a stage
/// output's own name ([`ShardGuard::refile`]). Holds one content-store
/// reference on `sig` for as long as it sits in a shard's table, and
/// `bytes` is what that reference returned: the store's own allocation for
/// `sig`, 32 bytes an entry, so that serving it takes no stripe lock.
struct Resident {
    sig: Signature,
    bytes: Bytes,
    meta: EntryMeta,
}

impl Resident {
    fn forward(&self) -> bool {
        self.meta.cacheability.requires_event_forwarding()
    }

    /// The verdict on an entry whose freshness could not be checked.
    fn unverifiable(&self) -> Probe {
        Probe::Unverifiable(Stale {
            bytes: self.bytes.clone(),
            filled_at: self.meta.filled_at,
            forward: self.forward(),
        })
    }

    /// The verdict on an entry that is good to serve.
    fn fresh(&self, replaced: bool) -> Probe {
        Probe::Fresh {
            bytes: self.bytes.clone(),
            sig: self.sig,
            forward: self.forward(),
            was_prefetched: self.meta.prefetched,
            replaced,
        }
    }
}

/// One lock-striped slice of the entry table. Aligned to a cache line, so
/// wherever its `RwLock` lays the lock word, that word (a hit writes it)
/// shares no line with the maps' headers (every hit reads them).
#[repr(align(64))]
pub(crate) struct Shard {
    /// Held in place, so a hit reads its entry from the slot its probe
    /// found (DESIGN.md §4.5): 120 bytes a slot.
    entries: KeyMap<EntryKey, Resident>,
    /// The users with a resident version of each document *in this
    /// shard*: `user ∈ versions[doc]` exactly when `Version(doc, user)` is
    /// a key of `entries`, and a document with none has no set. Only
    /// [`Shard::insert`] and [`Shard::take`] change either map. Stage
    /// entries belong to no document ([`EntryKey::Stage`]) and are not
    /// indexed, only counted.
    versions: KeyMap<DocumentId, KeySet<UserId>>,
    /// How many keys of `entries` are stages; moved by the same two.
    stages: usize,
    /// Told of a hit through `&`, under the *shared* shard lock; of
    /// everything else through `&mut`, under the exclusive one.
    policy: Box<dyn ReplacementPolicy>,
    /// Buffered write-back writes. Keyed by `(document, user)`, not by
    /// [`EntryKey`]: only versions are ever written.
    dirty: KeyMap<(DocumentId, UserId), DirtyEntry>,
    /// The last writer sequence of each key's op-based writes, seeded from
    /// replayed journal records on recovery.
    writer_seqs: KeyMap<(DocumentId, UserId), u64>,
    /// The staged-read leases of the documents whose home this shard is.
    leases: KeyMap<DocumentId, PlanLease>,
}

impl Shard {
    /// Puts `entry` in the table under `key`, which must not be resident.
    fn insert(&mut self, key: EntryKey, entry: Resident) {
        match key {
            EntryKey::Version(doc, user) => {
                self.versions.entry(doc).or_default().insert(user);
            }
            EntryKey::Stage(_) => self.stages += 1,
        }
        let displaced = self.entries.insert(key, entry);
        debug_assert!(displaced.is_none(), "{key:?} was already resident");
    }

    /// Takes `key`'s entry out of the table. One set removal, whatever the
    /// number of resident versions of the document.
    fn take(&mut self, key: EntryKey) -> Option<Resident> {
        let entry = self.entries.remove(&key)?;
        match key {
            EntryKey::Version(doc, user) => {
                if let Entry::Occupied(mut users) = self.versions.entry(doc) {
                    users.get_mut().remove(&user);
                    if users.get().is_empty() {
                        users.remove();
                    }
                }
            }
            EntryKey::Stage(_) => self.stages -= 1,
        }
        Some(entry)
    }
}

/// Why an entry leaves the table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Removal {
    /// An invalidation or a verifier rejection: the policy still tracks
    /// the key and must be told.
    Invalidated,
    /// The policy nominated the key as an eviction victim and has already
    /// forgotten it.
    Evicted,
}

/// Why [`ShardGuard::make_room`] could make no more room.
enum Spared {
    /// The policy nominated the spared entry, and no sibling shard had a
    /// victim: the spared entry is out of the policy.
    Nominated,
    /// Nothing was evictable anywhere (everything pinned).
    Stuck,
}

/// What [`ShardGuard::probe`] found out about a resident entry.
pub(crate) enum Probe {
    /// The entry is good to serve: its verifiers passed, or one of them
    /// supplied fresh content that now replaces the old (`replaced`).
    Fresh {
        bytes: Bytes,
        sig: Signature,
        forward: bool,
        was_prefetched: bool,
        replaced: bool,
    },
    /// A verifier refuted the entry; it has been removed.
    Invalid,
    /// Neither fresh nor refuted (origin unreachable). The entry stays.
    Unverifiable(Stale),
}

/// Resident bytes whose freshness could not be checked: the
/// stale-service candidate a miss keeps in hand.
pub(crate) struct Stale {
    pub(crate) bytes: Bytes,
    pub(crate) filled_at: Instant,
    pub(crate) forward: bool,
}

/// The sharded entry table plus what its bookkeeping needs: the content
/// store the entries reference, the byte budget, and the dirty and parked
/// gauges.
pub(crate) struct ShardTable {
    shards: Box<[RwLock<Shard>]>,
    store: ConcurrentStore,
    capacity_bytes: u64,
    /// Buffered write-back writes across all shards, so counting them
    /// sweeps no shard lock.
    pub(crate) dirty_gauge: AtomicU64,
    /// Parked marks across all shards, drained or in a flush's hands.
    pub(crate) parked_gauge: AtomicU64,
    /// The cache's counters, this table's bookkeeping among them.
    pub(crate) stats: AtomicCacheStats,
}

impl ShardTable {
    /// Creates `shards` empty shards, each with its own policy instance.
    pub(crate) fn new(shards: usize, policy: &PolicyFactory, capacity_bytes: u64) -> Self {
        Self {
            shards: (0..shards)
                .map(|_| {
                    RwLock::new(Shard {
                        entries: KeyMap::default(),
                        versions: KeyMap::default(),
                        stages: 0,
                        policy: policy.build(),
                        dirty: KeyMap::default(),
                        writer_seqs: KeyMap::default(),
                        leases: KeyMap::default(),
                    })
                })
                .collect(),
            store: ConcurrentStore::new(),
            capacity_bytes,
            dirty_gauge: AtomicU64::new(0),
            parked_gauge: AtomicU64::new(0),
            stats: AtomicCacheStats::default(),
        }
    }

    pub(crate) fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Picks the shard for a key with a fixed multiplicative hash, so
    /// placement is identical across runs and machines (std's default
    /// hasher is randomly seeded and would break reproducibility).
    pub(crate) fn shard_index(&self, key: EntryKey) -> usize {
        let mixed = match key {
            EntryKey::Version(DocumentId(doc), UserId(user)) => {
                doc.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ user.wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
            }
            // A stage signature is an MD5 digest: hash its two halves with
            // the same mixers for identical distribution properties.
            EntryKey::Stage(sig) => {
                let lo = u64::from_le_bytes(sig.0[..8].try_into().expect("8 bytes"));
                let hi = u64::from_le_bytes(sig.0[8..].try_into().expect("8 bytes"));
                lo.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ hi.wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
            }
        };
        // Use the high bits: multiplicative hashing mixes upward.
        (mixed >> 32) as usize % self.shards.len()
    }

    /// The home shard of `doc`, where its lease lives: user 0's, whose
    /// term of the hash vanishes, so the document alone places it.
    pub(crate) fn home(&self, doc: DocumentId) -> usize {
        self.shard_index(EntryKey::Version(doc, UserId(0)))
    }

    /// Blocks on shard `index`'s lock, exclusively.
    pub(crate) fn guard(&self, index: usize) -> ShardGuard<'_> {
        ShardGuard {
            shard: self.shards[index].write(),
            index,
            table: self,
        }
    }

    /// Blocks on `key`'s shard lock, exclusively (the caller holds no
    /// other cache lock).
    pub(crate) fn lock(&self, key: EntryKey) -> ShardGuard<'_> {
        self.guard(self.shard_index(key))
    }

    /// Blocks on shard `index`'s lock, shared.
    pub(crate) fn shared(&self, index: usize) -> ShardRead<'_> {
        ShardGuard {
            shard: self.shards[index].read(),
            index,
            table: self,
        }
    }

    /// Blocks on `key`'s shard lock, shared (the caller holds no other
    /// cache lock).
    pub(crate) fn share(&self, key: EntryKey) -> ShardRead<'_> {
        self.shared(self.shard_index(key))
    }

    /// Locks the shards one at a time: each guard is released before the
    /// iterator blocks on the next lock, so no two are ever held together.
    pub(crate) fn lock_each(&self) -> impl Iterator<Item = ShardGuard<'_>> {
        (0..self.shards.len()).map(|index| self.guard(index))
    }

    /// [`Self::lock_each`] with shared guards.
    pub(crate) fn share_each(&self) -> impl Iterator<Item = ShardRead<'_>> {
        (0..self.shards.len()).map(|index| self.shared(index))
    }

    /// Returns `(physical, logical)` resident bytes. Lock-free.
    pub(crate) fn resident_bytes(&self) -> (u64, u64) {
        (self.store.physical_bytes(), self.store.logical_bytes())
    }

    /// The alias rule's predicate: the store has no room for `size` bytes.
    pub(crate) fn scarce(&self, size: u64) -> bool {
        self.store.physical_bytes() + size > self.capacity_bytes
    }

    /// Sets a write's parked mark, or clears it as the write leaves the queue
    /// for good (flushed, or dropped by `KeepTheirs`); returns if it changed.
    pub(crate) fn mark(&self, entry: &mut DirtyEntry, parked: bool) -> bool {
        let changed = std::mem::replace(&mut entry.parked, parked) != parked;
        match (changed, parked) {
            (true, true) => self.parked_gauge.fetch_add(1, Ordering::Relaxed),
            (true, false) => self.parked_gauge.fetch_sub(1, Ordering::Relaxed),
            (false, _) => 0,
        };
        changed
    }
}

/// A held shard lock, exclusive unless `G` says otherwise. Every method
/// runs under that lock; dropping the guard releases it.
pub(crate) struct ShardGuard<'a, G = RwLockWriteGuard<'a, Shard>> {
    shard: G,
    index: usize,
    table: &'a ShardTable,
}

/// A shard lock held shared.
pub(crate) type ShardRead<'a> = ShardGuard<'a, RwLockReadGuard<'a, Shard>>;

/// What either mode allows: looking.
impl<'a, G: Deref<Target = Shard>> ShardGuard<'a, G> {
    /// Returns the number of resident entries in this shard.
    pub(crate) fn len(&self) -> usize {
        self.shard.entries.len()
    }

    /// Returns the number of resident intermediate stage entries.
    pub(crate) fn stage_len(&self) -> usize {
        self.shard.stages
    }

    pub(crate) fn contains(&self, key: EntryKey) -> bool {
        self.shard.entries.contains_key(&key)
    }

    /// Returns `key`'s resident content and its signature, if `keep`
    /// accepts the entry's metadata, without registering a hit.
    pub(crate) fn content(
        &self,
        key: EntryKey,
        keep: impl FnOnce(&EntryMeta) -> bool,
    ) -> Option<(Bytes, Signature)> {
        let entry = self.shard.entries.get(&key).filter(|e| keep(&e.meta))?;
        Some((entry.bytes.clone(), entry.sig))
    }

    /// Returns `user`'s buffered write-back write to `doc`, if any.
    pub(crate) fn dirty(&self, doc: DocumentId, user: UserId) -> Option<&DirtyEntry> {
        self.shard.dirty.get(&(doc, user))
    }

    /// Returns `doc`'s lease, if this is its home shard and holds one.
    pub(crate) fn lease(&self, doc: DocumentId) -> Option<&PlanLease> {
        self.shard.leases.get(&doc)
    }

    /// Adds this shard's entries, buffered writes and leases to `into`,
    /// with each piece of bookkeeping that disagrees with a recount of them.
    pub(crate) fn recount(&self, clock: &VirtualClock, into: &mut Recount) {
        let (shard, index) = (&*self.shard, self.index);
        let mut versions: KeyMap<DocumentId, KeySet<UserId>> = KeyMap::default();
        let (mut stages, mut tracked) = (0, 0);
        for (&key, entry) in &shard.entries {
            match key {
                EntryKey::Version(doc, user) => versions.entry(doc).or_default().extend([user]),
                EntryKey::Stage(_) => stages += 1,
            }
            tracked += usize::from(!entry.meta.pinned);
            into.entries.push((key, entry.sig, entry.bytes.clone()));
        }
        let homed = |doc: &DocumentId| self.table.home(*doc) == index;
        for (item, agrees) in [
            ("versions", versions == shard.versions),
            ("stages", stages == shard.stages),
            ("policy", tracked == shard.policy.len()),
            ("leases", shard.leases.keys().all(homed)),
        ] {
            into.mismatches.extend((!agrees).then_some((index, item)));
        }
        for (&(doc, user), e) in &shard.dirty {
            into.dirty
                .push((doc, user, e.data.clone(), e.epoch, e.parked));
        }
        let passes = |v: &Arc<dyn Verifier>| v.check(clock) == Validity::Valid;
        for (&doc, PlanLease { root, .. }) in &shard.leases {
            let root = root.as_ref().filter(|r| r.verifier.iter().all(passes));
            into.leases.push((doc, root.map(|root| root.sig)));
        }
    }
}

impl ShardRead<'_> {
    /// The hit path: asks `verify` for a verdict on `key`'s resident entry
    /// (it sees the entry's metadata) and applies it — registers the hit,
    /// replaces the content in place, drops the entry, or leaves it alone.
    /// `None` when `key` is not resident.
    ///
    /// A verdict that leaves the table alone — a plain hit, an absent
    /// key, `Unverifiable` — is settled under this shared guard. One that
    /// changes it, or a hit the policy will not take through `&`, gives
    /// the guard up for the exclusive one (lock-order rule 3) and carries
    /// the verdict across, so `verify` runs once per read; only if `key`
    /// was re-bound to other content in between does it run again, on the
    /// new entry.
    pub(crate) fn probe(
        self,
        key: EntryKey,
        clock: &VirtualClock,
        verify: impl Fn(&EntryMeta) -> Validity,
    ) -> Option<Probe> {
        let entry = self.shard.entries.get(&key)?;
        let verdict = match verify(&entry.meta) {
            Validity::Valid => {
                if self.shard.policy.on_hit_shared(key) {
                    return Some(entry.fresh(false));
                }
                Validity::Valid
            }
            Validity::Unverifiable => return Some(entry.unverifiable()),
            verdict => verdict,
        };
        let (sig, index, table) = (entry.sig, self.index, self.table);
        drop(self);
        // Between the guards: no MD5 pass under the exclusive one.
        let digest = match &verdict {
            Validity::Replace(bytes) => Some(ConcurrentStore::signature_of(bytes)),
            _ => None,
        };
        table
            .guard(index)
            .settle(key, clock, sig, verdict, digest, verify)
    }
}

impl ShardGuard<'_> {
    /// Applies `verdict` (and a replacement's `digest`), reached on `key`
    /// while it was bound to `sig` and before this lock was taken; an entry
    /// bound to anything else by now is verified afresh.
    fn settle(
        &mut self,
        key: EntryKey,
        clock: &VirtualClock,
        sig: Signature,
        verdict: Validity,
        digest: Option<Signature>,
        verify: impl Fn(&EntryMeta) -> Validity,
    ) -> Option<Probe> {
        let table = self.table;
        let store = &table.store;
        let shard = &mut *self.shard;
        let entry = shard.entries.get_mut(&key)?;
        let (verdict, digest) = if entry.sig == sig {
            (verdict, digest)
        } else {
            (verify(&entry.meta), None)
        };
        let replaced = match verdict {
            Validity::Valid => false,
            Validity::Replace(bytes) => {
                store.release(entry.sig);
                entry.sig = digest.unwrap_or_else(|| ConcurrentStore::signature_of(&bytes));
                let (stored, shared) = store.acquire(entry.sig, &bytes);
                if shared {
                    AtomicCacheStats::bump(&self.table.stats.shared_fills);
                }
                entry.bytes = stored;
                entry.meta.filled_at = clock.now();
                true
            }
            Validity::Invalid => {
                self.remove(key, Removal::Invalidated);
                return Some(Probe::Invalid);
            }
            Validity::Unverifiable => return Some(entry.unverifiable()),
        };
        let fresh = entry.fresh(replaced);
        let grown =
            replaced.then(|| EntryAttrs::new(entry.bytes.len() as u64, entry.meta.cost_micros));
        shard.policy.on_hit(key);
        if let Some(attrs) = grown {
            // The replacement may have grown the content past the budget;
            // reclaim, sparing the fresh entry, which stays resident (and
            // in the policy) even if nothing else could go.
            let fits = || (store.physical_bytes() <= table.capacity_bytes).then_some(());
            if let Err(Spared::Nominated) = self.make_room(key, &attrs, fits) {
                self.shard.policy.on_insert(key, &attrs);
            }
        }
        Some(fresh)
    }

    /// Inserts a filled entry, updating sharing stats, pinning, the
    /// policy, and enforcing the global byte budget.
    ///
    /// Room is *reserved* before the content is published
    /// ([`ConcurrentStore::try_acquire`], a compare-and-swap bounded by
    /// the budget), evicting until the reservation succeeds — concurrent
    /// fills can never overshoot the budget. The one deliberate exception
    /// is a verifier's in-place replacement ([`ShardGuard::probe`]), which
    /// refreshes the content first and reclaims any overshoot immediately
    /// afterwards.
    ///
    /// Victim order matches the classic insert-then-evict loop: the
    /// incoming entry enters the shard's policy first, so it competes for
    /// residency like any other entry; if the policy nominates *it*, the
    /// fill tries to steal room from a sibling shard and otherwise gives
    /// the entry up (with one shard that is "evict the entry just
    /// inserted", statistics included).
    ///
    /// **A free alias is not admitted while bytes are scarce.** A version
    /// that costs nothing to lose — its chain ended on an output the walk
    /// left resident: that entry under a second name — is installed only
    /// while the store could take an entry of its size without evicting.
    /// Past that, the next fill that needs bytes would evict it and every
    /// alias beside it before freeing any. A pin is honoured regardless.
    ///
    /// `sig` is the content digest (or a stage output's own name), computed
    /// before this shard was locked; a wrong digest would corrupt sharing —
    /// debug builds re-hash and compare.
    pub(crate) fn install(&mut self, key: EntryKey, bytes: Bytes, meta: EntryMeta, sig: Signature) {
        debug_assert!(
            key == EntryKey::Stage(sig) || sig == ConcurrentStore::signature_of(&bytes),
            "the content signature must match the bytes being installed"
        );
        // A re-fill over an existing binding releases the old content;
        // the policy keeps the key, and `on_insert` below refreshes it.
        self.remove(key, Removal::Evicted);
        let size = bytes.len() as u64;
        let attrs = EntryAttrs::new(size, meta.cost_micros);
        let table = self.table;
        if meta.pinned {
            // Pinned entries never enter the policy, so they can never be
            // chosen as eviction victims.
            AtomicCacheStats::bump(&self.table.stats.pinned_fills);
        } else if table.scarce(size) && meta.cost_micros == 0.0 && !key.is_stage() {
            self.shard.policy.on_remove(key);
            return;
        } else {
            self.shard.policy.on_insert(key, &attrs);
        }
        let reserve = || {
            table
                .store
                .try_acquire(sig, &bytes, table.capacity_bytes)
                .ok()
        };
        match self.make_room(key, &attrs, reserve) {
            Ok((bytes, shared)) => {
                if shared {
                    AtomicCacheStats::bump(&self.table.stats.shared_fills);
                }
                if key.is_stage() {
                    AtomicCacheStats::add(&self.table.stats.stage_bytes, size);
                }
                self.shard.insert(key, Resident { sig, bytes, meta });
            }
            // The incoming entry lost to the shard's other entries: it was
            // evicted on arrival.
            Err(Spared::Nominated) => AtomicCacheStats::bump(&self.table.stats.evictions),
            // Nothing evictable anywhere (everything pinned): serve without
            // caching rather than overshoot.
            Err(Spared::Stuck) => {}
        }
    }

    /// Re-files the stage output filed under its own name under `digest`,
    /// the MD5 of its bytes ([`ConcurrentStore::refile`]), for an alias to
    /// share. A no-op on an output filed by content, or gone.
    pub(crate) fn refile(&mut self, name: Signature, digest: Signature) {
        let (store, stats) = (&self.table.store, &self.table.stats);
        let entry = self.shard.entries.get_mut(&EntryKey::Stage(name));
        if let Some(entry) = entry.filter(|entry| entry.sig == name) {
            debug_assert_eq!(digest, ConcurrentStore::signature_of(&entry.bytes));
            let (bytes, shared) = store.refile(name, digest, &entry.bytes);
            AtomicCacheStats::add(&stats.shared_fills, u64::from(shared));
            (entry.sig, entry.bytes) = (digest, bytes);
        }
    }

    /// Removes `key`'s entry, dropping its content reference. Returns
    /// `true` if the entry existed.
    pub(crate) fn remove(&mut self, key: EntryKey, why: Removal) -> bool {
        if why == Removal::Invalidated {
            self.shard.policy.on_remove(key);
        }
        let Some(entry) = self.shard.take(key) else {
            return false;
        };
        self.table.store.release(entry.sig);
        if key.is_stage() {
            self.table
                .stats
                .stage_bytes
                .fetch_sub(entry.bytes.len() as u64, Ordering::Relaxed);
        }
        true
    }

    /// Invalidates every resident version of `doc` in this shard,
    /// returning how many there were. Costs those versions, not the
    /// shard's population.
    pub(crate) fn remove_doc(&mut self, doc: DocumentId) -> u64 {
        // Hygiene: a lease self-validates on use, but rarely would again.
        if self.index == self.table.home(doc) {
            self.shard.leases.remove(&doc);
        }
        let Some(users) = self.shard.versions.get(&doc) else {
            return 0;
        };
        let users: Vec<UserId> = users.iter().copied().collect();
        for &user in &users {
            self.remove(EntryKey::Version(doc, user), Removal::Invalidated);
        }
        users.len() as u64
    }

    /// Drops every version entry after an invalidation gap: a lost post
    /// may have covered any of them, and no verifier vouches for the
    /// property set or order a version was rendered through. Stage entries
    /// are exempt: they are content-addressed, so a lost invalidation can
    /// never make one serve stale data — the lookup key itself stops
    /// resolving.
    pub(crate) fn drop_versions_after_gap(&mut self) {
        let entries = self.shard.entries.keys();
        let versions: Vec<EntryKey> = entries.filter(|key| !key.is_stage()).copied().collect();
        for key in versions {
            self.remove(key, Removal::Invalidated);
        }
    }

    /// Queues `entry` as `user`'s write to `doc`. Of it and one queued, the
    /// newer stays (`entry`, unless a drained write is put back: `requeue`)
    /// with either's parked mark. Returns the write that stays.
    pub(crate) fn put_dirty(
        &mut self,
        doc: DocumentId,
        user: UserId,
        mut entry: DirtyEntry,
        requeue: bool,
    ) -> &mut DirtyEntry {
        let table = self.table;
        let queued = match self.shard.dirty.entry((doc, user)) {
            Entry::Occupied(slot) => slot.into_mut(),
            Entry::Vacant(slot) => {
                table.dirty_gauge.fetch_add(1, Ordering::Relaxed);
                return slot.insert(entry);
            }
        };
        if !requeue {
            std::mem::swap(queued, &mut entry);
        }
        // `entry` is the older write now: its mark, if any, passes on.
        if table.mark(&mut entry, false) {
            table.mark(queued, true);
        }
        queued
    }

    /// The last writer sequence of `user`'s op-based writes to `doc`.
    pub(crate) fn writer_seq(&mut self, doc: DocumentId, user: UserId) -> &mut u64 {
        self.shard.writer_seqs.entry((doc, user)).or_default()
    }

    /// Refreshes `doc`'s lease in its home shard: the chain half always,
    /// the root half when `lease` has one.
    pub(crate) fn put_lease(&mut self, doc: DocumentId, mut lease: PlanLease) {
        let held = self.shard.leases.remove(&doc);
        lease.root = lease.root.or(held.and_then(|held| held.root));
        self.shard.leases.insert(doc, lease);
    }

    /// Drops `doc`'s leased root if it still digests to `stale`: a walk may
    /// have leased a newer one since a shared guard found this one refuted.
    pub(crate) fn drop_root(&mut self, doc: DocumentId, stale: Signature) {
        if let Some(lease) = self.shard.leases.get_mut(&doc) {
            lease.root = lease.root.take().filter(|root| root.sig != stale);
        }
    }

    /// Moves every buffered write of this shard into `into`.
    pub(crate) fn drain_dirty(&mut self, into: &mut Vec<(DocumentId, UserId, DirtyEntry)>) {
        let drained = self.shard.dirty.len() as u64;
        into.extend(
            self.shard
                .dirty
                .drain()
                .map(|((doc, user), entry)| (doc, user, entry)),
        );
        self.table.dirty_gauge.fetch_sub(drained, Ordering::Relaxed);
    }

    /// Evicts one entry from some *other* shard to make room, probing
    /// with `try_write` only (lock-order rule 2: a blocking acquisition
    /// here could deadlock with a concurrent steal in the opposite
    /// direction). Returns `true` if an entry was evicted.
    fn steal_one(&self) -> bool {
        let shards = &self.table.shards;
        for offset in 1..shards.len() {
            let index = (self.index + offset) % shards.len();
            let Some(shard) = shards[index].try_write() else {
                continue;
            };
            let mut sibling = ShardGuard {
                shard,
                index,
                table: self.table,
            };
            if let Some(victim) = sibling.shard.policy.evict() {
                sibling.remove(victim, Removal::Evicted);
                AtomicCacheStats::bump(&self.table.stats.evictions);
                return true;
            }
        }
        false
    }

    /// The one make-room loop, for a fill and for a verifier's in-place
    /// replacement (the one path that can overshoot the budget): evicts
    /// this shard's victims until `room` succeeds. When the policy nominates
    /// `spare` — the entry room is being made for — or has nothing left,
    /// one entry from a sibling shard goes instead (a nominated `spare`
    /// re-enters the policy with `attrs`). Fails when no sibling had a
    /// victim either.
    fn make_room<T>(
        &mut self,
        spare: EntryKey,
        attrs: &EntryAttrs,
        mut room: impl FnMut() -> Option<T>,
    ) -> Result<T, Spared> {
        loop {
            if let Some(made) = room() {
                return Ok(made);
            }
            match self.shard.policy.evict() {
                Some(victim) if victim == spare => {
                    if !self.steal_one() {
                        return Err(Spared::Nominated);
                    }
                    self.shard.policy.on_insert(spare, attrs);
                }
                Some(victim) => {
                    self.remove(victim, Removal::Evicted);
                    AtomicCacheStats::bump(&self.table.stats.evictions);
                }
                None if self.steal_one() => {}
                None => return Err(Spared::Stuck),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_placement_is_deterministic() {
        let table = |shards| ShardTable::new(shards, &PolicyFactory::default(), 1_024);
        let (a, b) = (table(8), table(8));
        for d in 0..64u64 {
            for u in 1..4u64 {
                let key = EntryKey::Version(DocumentId(d), UserId(u));
                assert_eq!(a.shard_index(key), b.shard_index(key));
            }
        }
        let spread: std::collections::HashSet<usize> = (0..64u64)
            .map(|d| a.shard_index(EntryKey::Version(DocumentId(d), UserId(1))))
            .collect();
        assert!(
            spread.len() >= 4,
            "64 docs hit only {} of 8 shards",
            spread.len()
        );
    }

    /// The one hit a policy of this crate declines through `&` (GDSF, a
    /// negative cost: the credit falls) is carried to the exclusive guard
    /// and told there exactly once, the verifier having run once.
    #[test]
    fn a_declined_hit_is_settled_exclusively_and_once() {
        use placeless_core::cacheability::Cacheability::Unrestricted;
        let policy = PolicyFactory::by_name("gdsf").expect("known");
        let table = ShardTable::new(1, &policy, 1_024);
        let clock = VirtualClock::new();
        let key = |doc| EntryKey::Version(DocumentId(doc), UserId(1));
        // Credits −1 000, −1 500, −2 500: one hit on the first makes it
        // −2 000 (second out), none leaves it last, two would put it first.
        for (doc, cost) in [(1, -1_000.0), (2, -1_500.0), (3, -2_500.0)] {
            let meta = EntryMeta::new(Vec::new(), Unrestricted, cost, clock.now());
            let body = Bytes::from(vec![doc as u8]);
            let sig = ConcurrentStore::signature_of(&body);
            table.lock(key(doc)).install(key(doc), body, meta, sig);
        }
        let verified = AtomicU64::new(0);
        let verify = |_: &EntryMeta| {
            verified.fetch_add(1, Ordering::Relaxed);
            Validity::Valid
        };
        let probe = table.share(key(1)).probe(key(1), &clock, verify);
        assert!(matches!(
            probe,
            Some(Probe::Fresh {
                replaced: false,
                ..
            })
        ));
        assert_eq!(verified.into_inner(), 1);
        let mut guard = table.guard(0);
        let victims: Vec<_> = std::iter::from_fn(|| guard.shard.policy.evict()).collect();
        assert_eq!(victims, [key(3), key(1), key(2)]);
    }

    /// A hit on an entry holding its one verifier in place runs that
    /// verifier exactly once, and the entry sits in its slot unboxed.
    #[test]
    fn a_hit_runs_its_entrys_one_verifier_once() {
        use placeless_core::cacheability::Cacheability::Unrestricted;
        use placeless_core::verifier::{run_all, ClosureVerifier};
        assert_eq!(std::mem::size_of::<(EntryKey, Resident)>(), 120);
        let table = ShardTable::new(1, &PolicyFactory::default(), 1_024);
        let clock = VirtualClock::new();
        let key = EntryKey::Version(DocumentId(1), UserId(1));
        let verified = Arc::new(AtomicU64::new(0));
        let counter = Arc::clone(&verified);
        let verifier = ClosureVerifier::new("counted", 0, move |_| {
            counter.fetch_add(1, Ordering::Relaxed);
            Validity::Valid
        });
        let meta = EntryMeta::new(vec![verifier], Unrestricted, 1.0, clock.now());
        let body = Bytes::from_static(b"v");
        let sig = ConcurrentStore::signature_of(&body);
        table.lock(key).install(key, body, meta, sig);
        let verify = |meta: &EntryMeta| run_all(&meta.verifiers, &clock).0;
        let probe = table.share(key).probe(key, &clock, verify);
        assert!(matches!(
            probe,
            Some(Probe::Fresh {
                replaced: false,
                ..
            })
        ));
        assert_eq!(verified.load(Ordering::Relaxed), 1);
    }

    /// Every user's walk finds a document's lease in the one home shard,
    /// and `remove_doc` drops it there — only there, and even when that
    /// shard holds none of the document's versions.
    #[test]
    fn a_lease_lives_in_its_documents_home_shard() {
        use placeless_core::bitprovider::MemoryProvider;
        use placeless_core::cacheability::Cacheability::Unrestricted;
        use placeless_core::space::DocumentSpace;
        let table = ShardTable::new(8, &PolicyFactory::default(), 1 << 20);
        let space = DocumentSpace::new(VirtualClock::new());
        let owner = UserId(1);
        let doc = space.create_document(owner, MemoryProvider::new("t", "body", 0));
        let (_, chain, _) = space.read_plan_cached(owner, doc, None).expect("plan");
        let home = table.home(doc);
        table
            .guard(home)
            .put_lease(doc, PlanLease { chain, root: None });
        // Sixteen users' versions, none in the home shard.
        let away = |user: &UserId| table.shard_index(EntryKey::Version(doc, *user)) != home;
        let users: Vec<UserId> = (1..256).map(UserId).filter(away).take(16).collect();
        for &user in &users {
            let (key, body) = (EntryKey::Version(doc, user), Bytes::from_static(b"v"));
            let meta = EntryMeta::new(Vec::new(), Unrestricted, 1.0, Instant(0));
            let sig = ConcurrentStore::signature_of(&body);
            table.lock(key).install(key, body, meta, sig);
        }
        let holders = |table: &ShardTable| -> Vec<usize> {
            (0..8)
                .filter(|&index| table.shared(index).lease(doc).is_some())
                .collect()
        };
        assert_eq!(holders(&table), [home]);
        let mut dropped = 0;
        for index in (0..8).filter(|&index| index != home) {
            dropped += table.guard(index).remove_doc(doc);
        }
        assert_eq!(dropped, users.len() as u64);
        assert_eq!(holders(&table), [home], "only the home shard drops it");
        assert_eq!(table.guard(home).remove_doc(doc), 0);
        assert!(holders(&table).is_empty());
    }
}
