//! Core store types: versions, cached-order sibling sets and the
//! per-replica sharded data plane.
//!
//! Each key holds a **sibling set** — a DVV-style antichain of
//! `(clock, value)` pairs, one per causally-concurrent write — plus the
//! replica's *element*, the per-`(key, replica)` handle in the backend's
//! fork/join/update lifecycle. The sibling-merge rule is the classic one:
//! an incoming version is discarded when a stored clock strictly dominates
//! it, it evicts every stored version its clock dominates, and clock-equal
//! versions deduplicate with a deterministic value tie-break so concurrent
//! merges converge.
//!
//! # Cached order
//!
//! Stored versions are shared ([`StoredVersion`] wraps an
//! `Arc<Version>` plus its canonical clock bytes), and the sibling set
//! memoizes everything the hot paths used to re-derive per call:
//!
//! * the **joined context clock** (what `get` returns and what a follow-up
//!   `put` carries) is maintained incrementally — one clock join per
//!   insertion — instead of a fold over the whole set per read; an
//!   eviction cannot be subtracted back out of a join, so it marks the
//!   context stale for one k-way rebuild when the edit closes;
//! * each version's **canonical clock bytes** are encoded exactly once;
//!   digests, deltas and the convergence snapshot borrow them;
//! * the per-set **order-independent hash** of those bytes is maintained
//!   in O(1) per mutation, making the anti-entropy fingerprint a constant
//!   amount of hashing per key instead of a re-encode of every sibling;
//! * the **pairwise partial order** of stored siblings is an invariant,
//!   not a cache: the merge rule keeps the set an antichain (all pairs
//!   concurrent), so the dominance matrix degenerates to two memoized
//!   fast paths — byte-equal clocks short-circuit to `Equal` with all
//!   other relations known (`Concurrent`), and a `put` whose context
//!   equals the cached set context supersedes every sibling with **zero**
//!   relation checks (its fresh dot makes the domination strict);
//! * the whole set is published as an **`Arc`-swapped `KeySnapshot`**,
//!   so a causal `get` under concurrency is one `Arc` clone under a
//!   briefly-held shard read lock — contention-free against writers on
//!   other keys of the shard and copy-free always.
//!
//! # One upkeep point
//!
//! A shard hands out `&mut` access to a key only through its one mutation
//! helper, `Shard::edit`. Sibling merges inside the edit only mark the
//! cached context and snapshot stale; when the edit returns, the shard
//! closes the set: at most one k-way context rebuild (only after an
//! eviction) and at most one snapshot publish (only if the set changed),
//! however many versions the edit merged. A client write, one key of a
//! delta, a compaction re-mint — every caller pays the same.
//!
//! # Maintained convergence state
//!
//! `Shard::edit` also compares the key's fingerprint before and after the
//! mutation. When it moved, the same critical section updates the two
//! things a gossip round asks for, so neither is ever recomputed:
//!
//! * the shard's **root** — a wrapping sum of one mixed term per
//!   `(key, fingerprint)`, order-insensitive by construction; a replica's
//!   digest root is the sum of its shard roots;
//! * the key's **change sequence number** — drawn from a per-replica
//!   monotone counter under the shard write lock — and the shard's
//!   `seq → digest line` index, which holds every key exactly once, in
//!   the order of its latest change. "What changed after `since`" is a
//!   walk back from the newest end of that index.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;
use vstamp_core::Relation;

use crate::backend::StoreBackend;
use crate::wire::DigestEntry;

/// Per-thread counts of the structural costs an edit, a batched apply and
/// a node's gossip round amortize, so a test can pin how often one call
/// pays them. Test builds only.
#[cfg(test)]
pub(crate) mod counted {
    use std::cell::Cell;

    thread_local! {
        /// k-way context rebuilds (in `SiblingSet::close`).
        pub(crate) static CTX_REBUILDS: Cell<u64> = const { Cell::new(0) };
        /// (clock-plane, data-shard) lock pairs a `Cluster` took.
        pub(crate) static LOCK_PAIRS: Cell<u64> = const { Cell::new(0) };
    }
}

/// Key type of the store.
pub type Key = String;

/// Value type of the store (opaque bytes).
pub type Value = Vec<u8>;

/// One stored version: its causal clock and its value (`None` marks a
/// tombstone left by a delete).
#[derive(Debug)]
pub struct Version<B: StoreBackend> {
    /// The causal history of the write that produced this version.
    pub clock: B::Clock,
    /// The written value; `None` is a delete tombstone.
    pub value: Option<Value>,
}

// Manual impls: derive would demand `B: Clone`/`B: PartialEq` although only
// the associated types appear in the fields.
impl<B: StoreBackend> Clone for Version<B> {
    fn clone(&self) -> Self {
        Version { clock: self.clock.clone(), value: self.value.clone() }
    }
}

impl<B: StoreBackend> PartialEq for Version<B> {
    fn eq(&self, other: &Self) -> bool {
        self.clock == other.clock && self.value == other.value
    }
}

/// Delta provenance of a stored version: the encoded dot it was minted
/// from and the fingerprint of the context it was minted against (the
/// writing replica's sibling-set hash at mint time). Versions carrying an
/// origin can ride the wire as delta frames — dot plus fingerprint — and be
/// reconstructed as `context ⊔ dot` by any receiver whose sibling set
/// matches the fingerprint. Versions without one (stale-context writes,
/// merged/reminted survivors, full-frame decodes) always ship full clocks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaOrigin {
    /// Canonical encoded bytes of the minting dot (a standalone clock).
    pub dot_bytes: Arc<[u8]>,
    /// Sibling-set fingerprint of the mint-time context (the sibling
    /// set's `versions_hash`, order-independent and O(1)-maintained).
    pub ctx_fp: u64,
}

/// A shared stored version: the version behind an `Arc` (shipping a
/// sibling set in a delta bumps refcounts instead of deep-copying values)
/// plus its canonical clock bytes and content hash, both computed exactly
/// once when the version enters the cluster (local write or wire decode),
/// and — when the version was minted against a known context — its delta
/// origin for adaptive wire encoding.
#[derive(Debug)]
pub struct StoredVersion<B: StoreBackend> {
    version: Arc<Version<B>>,
    clock_bytes: Arc<[u8]>,
    hash: u64,
    origin: Option<DeltaOrigin>,
}

impl<B: StoreBackend> StoredVersion<B> {
    /// Wraps a locally-created version, encoding its clock with the
    /// backend codec.
    pub fn new(backend: &B, version: Version<B>) -> Self {
        Self::new_with_origin(backend, version, None)
    }

    /// Wraps a locally-created version together with its delta origin.
    pub fn new_with_origin(backend: &B, version: Version<B>, origin: Option<DeltaOrigin>) -> Self {
        let mut bytes = Vec::new();
        backend.encode_clock(&version.clock, &mut bytes);
        Self::with_clock_bytes(version, bytes.into(), origin)
    }

    /// Wraps a version decoded from the wire, reusing the already-validated
    /// clock frame instead of re-encoding (the codec is canonical, so the
    /// frame equals the local encoding byte for byte).
    pub(crate) fn with_clock_bytes(
        version: Version<B>,
        clock_bytes: Arc<[u8]>,
        origin: Option<DeltaOrigin>,
    ) -> Self {
        let hash = version_hash(&clock_bytes, version.value.as_deref());
        StoredVersion { version: Arc::new(version), clock_bytes, hash, origin }
    }

    /// The version's delta origin, if it is delta-eligible.
    #[must_use]
    pub fn origin(&self) -> Option<&DeltaOrigin> {
        self.origin.as_ref()
    }

    /// The stored version.
    #[must_use]
    pub fn version(&self) -> &Version<B> {
        &self.version
    }

    /// The version's clock.
    #[must_use]
    pub fn clock(&self) -> &B::Clock {
        &self.version.clock
    }

    /// The canonical wire bytes of the clock (encoded once, borrowed by
    /// digests, deltas and fingerprints).
    #[must_use]
    pub fn clock_bytes(&self) -> &[u8] {
        &self.clock_bytes
    }

    /// Content hash of this version (clock bytes plus value), the unit the
    /// sibling-set hash sums and the per-version digest entries ship.
    #[must_use]
    pub fn content_hash(&self) -> u64 {
        self.hash
    }

    /// Canonical byte form of the whole version (clock bytes, tombstone
    /// flag, value) — the convergence-snapshot unit.
    pub(crate) fn canonical_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.clock_bytes.len() + 10);
        out.extend_from_slice(&(self.clock_bytes.len() as u64).to_le_bytes());
        out.extend_from_slice(&self.clock_bytes);
        out.push(u8::from(self.version.value.is_some()));
        if let Some(value) = &self.version.value {
            out.extend_from_slice(value);
        }
        out
    }
}

impl<B: StoreBackend> Clone for StoredVersion<B> {
    fn clone(&self) -> Self {
        StoredVersion {
            version: Arc::clone(&self.version),
            clock_bytes: Arc::clone(&self.clock_bytes),
            hash: self.hash,
            origin: self.origin.clone(),
        }
    }
}

impl<B: StoreBackend> PartialEq for StoredVersion<B> {
    fn eq(&self, other: &Self) -> bool {
        self.hash == other.hash && *self.version == *other.version
    }
}

/// Content hash of one version, combined order-independently into the
/// sibling-set fingerprint (so the fingerprint never needs a sort).
fn version_hash(clock_bytes: &[u8], value: Option<&[u8]>) -> u64 {
    let mut hash = fnv1a_extend(FNV_OFFSET, &(clock_bytes.len() as u64).to_le_bytes());
    hash = fnv1a_extend(hash, clock_bytes);
    match value {
        Some(value) => fnv1a_extend(fnv1a_extend(hash, &[1]), value),
        None => fnv1a_extend(hash, &[0]),
    }
}

/// An immutable point-in-time view of one key's sibling set: the stored
/// versions (shared `Arc` handles, no copies) plus the set's joined
/// context clock.
///
/// The sibling set maintains one of these behind an `Arc` and swaps it at
/// the close of every edit that changed the set, so a causal `get` is a
/// single `Arc` clone under a briefly-held shard read lock — it never
/// takes a write lock, folds a context, or clones a version, and the view
/// it returns stays coherent however many writes land afterwards.
#[derive(Debug)]
pub(crate) struct KeySnapshot<B: StoreBackend> {
    versions: Vec<StoredVersion<B>>,
    context: B::Clock,
}

/// The outcome of a causal `get`: a shared snapshot of the sibling set,
/// or nothing when the key is absent at this replica.
#[derive(Debug)]
pub struct GetResult<B: StoreBackend> {
    snapshot: Option<Arc<KeySnapshot<B>>>,
}

impl<B: StoreBackend> GetResult<B> {
    pub(crate) fn new(snapshot: Option<Arc<KeySnapshot<B>>>) -> Self {
        GetResult { snapshot }
    }

    /// Live (non-tombstone) sibling values, one per concurrent write.
    /// Allocates a fresh vector; the borrow-based
    /// [`GetResult::iter_values`] is the hot-path accessor.
    #[must_use]
    pub fn values(&self) -> Vec<Value> {
        self.iter_values().map(<[u8]>::to_vec).collect()
    }

    /// Borrowing iterator over the live sibling values.
    pub fn iter_values(&self) -> impl Iterator<Item = &[u8]> {
        self.snapshot
            .iter()
            .flat_map(|snapshot| snapshot.versions.iter())
            .filter_map(|version| version.version().value.as_deref())
    }

    /// Number of live (non-tombstone) siblings.
    #[must_use]
    pub fn live_len(&self) -> usize {
        self.iter_values().count()
    }

    /// Join of every stored sibling clock (tombstones included), or `None`
    /// when the key is absent at this replica — the causal context a
    /// follow-up `put` should carry.
    #[must_use]
    pub fn context(&self) -> Option<&B::Clock> {
        self.snapshot.as_ref().map(|snapshot| &snapshot.context)
    }
}

impl<B: StoreBackend> Clone for GetResult<B> {
    fn clone(&self) -> Self {
        GetResult { snapshot: self.snapshot.clone() }
    }
}

/// The sibling set of one key at one replica, with the cached order state
/// described in the [module docs](self).
#[derive(Debug)]
pub(crate) struct SiblingSet<B: StoreBackend> {
    versions: Vec<StoredVersion<B>>,
    /// Cached join of every stored clock; `None` iff the set is empty.
    /// Exact whenever `context_stale` is clear.
    context: Option<B::Clock>,
    /// Order-independent combination of the version hashes.
    versions_hash: u64,
    /// The shared read-path view: `get` hands out an `Arc` clone of this
    /// and touches nothing else.
    snapshot: Option<Arc<KeySnapshot<B>>>,
    /// Set by an eviction, whose join contribution cannot be subtracted
    /// back out of `context`; [`SiblingSet::close`] pays the one k-way
    /// rebuild iff this is set. Stores keep the context exact
    /// incrementally, so an eviction-free edit closes without a rebuild.
    context_stale: bool,
    /// Set by any change to `versions`; [`SiblingSet::close`] publishes
    /// the one snapshot iff this is set.
    snapshot_stale: bool,
}

impl<B: StoreBackend> SiblingSet<B> {
    fn new() -> Self {
        SiblingSet {
            versions: Vec::new(),
            context: None,
            versions_hash: 0,
            snapshot: None,
            context_stale: false,
            snapshot_stale: false,
        }
    }

    /// The shared point-in-time view (`None` iff the set is empty).
    pub(crate) fn snapshot(&self) -> Option<Arc<KeySnapshot<B>>> {
        self.snapshot.clone()
    }

    /// Closes one `Shard::edit`: the context rebuild if an eviction
    /// invalidated it, then the snapshot publish if the set changed —
    /// `Arc` bumps of the stored versions plus one context clone, paid by
    /// the edit so every read pays nothing.
    fn close(&mut self, backend: &B) {
        if std::mem::take(&mut self.context_stale) {
            #[cfg(test)]
            counted::CTX_REBUILDS.with(|rebuilds| rebuilds.set(rebuilds.get() + 1));
            self.context = backend.join_clock_set(self.versions.iter().map(StoredVersion::clock));
        }
        if std::mem::take(&mut self.snapshot_stale) {
            self.snapshot = self.context.as_ref().map(|context| {
                Arc::new(KeySnapshot { versions: self.versions.clone(), context: context.clone() })
            });
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.versions.len()
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = &StoredVersion<B>> {
        self.versions.iter()
    }

    /// The cached causal context of the whole set (tombstones included).
    /// The serving read path reads it off the snapshot; delta-frame
    /// reconstruction reads it here, under the shard lock, as the base
    /// clock that matching incoming dots join against. Read it before the
    /// edit's first merge: an eviction leaves it stale until the close.
    pub(crate) fn context(&self) -> Option<&B::Clock> {
        debug_assert!(!self.context_stale, "context read between an eviction and the close");
        self.context.as_ref()
    }

    /// Whether `context` covers exactly this set: the caller read the set
    /// as it stands, so a write carrying it supersedes every sibling.
    pub(crate) fn matches_context(&self, context: Option<&B::Clock>) -> bool {
        match (context, self.context()) {
            (Some(provided), Some(cached)) => provided == cached,
            (None, None) => true,
            _ => false,
        }
    }

    /// Live sibling values, in stored order (test accessor; the serving
    /// read path goes through [`SiblingSet::snapshot`]).
    #[cfg(test)]
    pub(crate) fn live_values(&self) -> Vec<Value> {
        self.versions.iter().filter_map(|v| v.version.value.clone()).collect()
    }

    /// Sorted canonical byte forms (convergence snapshot).
    pub(crate) fn canonical_versions(&self) -> Vec<Vec<u8>> {
        let mut encoded: Vec<Vec<u8>> =
            self.versions.iter().map(StoredVersion::canonical_bytes).collect();
        encoded.sort();
        encoded
    }

    /// Order-independent hash of the stored versions, maintained in O(1)
    /// per mutation; the anti-entropy fingerprint is read off it.
    pub(crate) fn versions_hash(&self) -> u64 {
        self.versions_hash
    }

    /// Stores `incoming`. While the cached context is exact one join
    /// keeps it exact; once an eviction made it stale there is no point
    /// joining into a context the close rebuilds anyway.
    fn push(&mut self, backend: &B, incoming: StoredVersion<B>) {
        self.versions_hash = self.versions_hash.wrapping_add(incoming.hash);
        if !self.context_stale {
            self.context = Some(match self.context.take() {
                Some(context) => backend.join_clocks(&context, incoming.clock()),
                None => incoming.clock().clone(),
            });
        }
        self.versions.push(incoming);
        self.snapshot_stale = true;
    }

    fn remove(&mut self, index: usize) -> StoredVersion<B> {
        let version = self.versions.swap_remove(index);
        self.versions_hash = self.versions_hash.wrapping_sub(version.hash);
        self.snapshot_stale = true;
        version
    }

    /// Evicts every stored sibling and stores `incoming`, whose clock is
    /// then the exact context — the matched-context fast path of a `put`.
    /// Sound because every stored clock is ≤ the set context the caller
    /// proved it read, and the incoming clock is that context joined with
    /// a *fresh* dot, so the domination is strict for every sibling.
    pub(crate) fn replace_all(&mut self, backend: &B, incoming: StoredVersion<B>) {
        self.versions.clear();
        self.versions_hash = 0;
        self.context = None;
        self.context_stale = false;
        self.push(backend, incoming);
    }

    /// Merges `incoming` into the sibling set.
    ///
    /// `local_write` selects the tie-break for clock-equal versions: a
    /// local client write replaces outright (the replica serializes its own
    /// sessions), while anti-entropy resolves deterministically by value so
    /// concurrent merges at different replicas converge to the same set.
    pub(crate) fn merge_version(
        &mut self,
        backend: &B,
        incoming: StoredVersion<B>,
        local_write: bool,
    ) {
        // Memoized fast path: byte-identical clock bytes mean the same
        // causal position (the codec is canonical), and the antichain
        // invariant pins its relation to every *other* sibling at
        // `Concurrent` — no further relation checks needed.
        if let Some(index) =
            self.versions.iter().position(|v| v.clock_bytes == incoming.clock_bytes)
        {
            return self.resolve_equal(backend, incoming, index, local_write);
        }
        let mut evicted = false;
        let mut index = 0;
        while index < self.versions.len() {
            match backend.relation(self.versions[index].clock(), incoming.clock()) {
                // The stored version is causally included in the incoming
                // write: evict it.
                Relation::Dominated => {
                    self.remove(index);
                    self.context_stale = true;
                    evicted = true;
                }
                Relation::Equal => {
                    // Same causal position reached through different wire
                    // forms (identifier backends): resolve like the
                    // byte-equal fast path. No eviction can have preceded
                    // this (a sibling dominated by `incoming` would be
                    // comparable with its equal).
                    debug_assert!(!evicted, "antichain rules out prior evictions");
                    return self.resolve_equal(backend, incoming, index, local_write);
                }
                Relation::Dominates => {
                    // A stored dominator: the antichain invariant rules out
                    // any stored sibling being dominated by `incoming`
                    // (it would be comparable with the dominator).
                    return;
                }
                Relation::Concurrent => index += 1,
            }
        }
        self.push(backend, incoming);
    }

    /// Resolves an incoming version against the clock-equal stored sibling
    /// at `index`.
    fn resolve_equal(
        &mut self,
        backend: &B,
        incoming: StoredVersion<B>,
        index: usize,
        local_write: bool,
    ) {
        if local_write || incoming.version.value > self.versions[index].version.value {
            let evicted = self.remove(index);
            // Byte-identical clocks leave the cached context exact; an
            // Equal clock in a different wire form (possible only for
            // identifier backends) conservatively marks it for a rebuild.
            self.context_stale |= evicted.clock_bytes != incoming.clock_bytes;
            self.push(backend, incoming);
        }
    }

    /// Rewrites the single surviving version after a quiescent re-mint.
    pub(crate) fn remint(&mut self, backend: &B, fresh_clock: B::Clock) {
        debug_assert_eq!(self.versions.len(), 1, "re-mint requires a settled key");
        let value = self.versions[0].version.value.clone();
        self.replace_all(
            backend,
            StoredVersion::new(backend, Version { clock: fresh_clock, value }),
        );
    }
}

/// Per-key state held by one replica's data plane.
#[derive(Debug)]
pub(crate) struct KeyData<B: StoreBackend> {
    /// The replica's element in this key's fork/join/update universe.
    element: B::Element,
    /// The sibling set: pairwise-concurrent versions.
    pub(crate) siblings: SiblingSet<B>,
}

impl<B: StoreBackend> KeyData<B> {
    pub(crate) fn new(element: B::Element) -> Self {
        KeyData { element, siblings: SiblingSet::new() }
    }

    pub(crate) fn element(&self) -> &B::Element {
        &self.element
    }

    pub(crate) fn set_element(&mut self, element: B::Element) {
        self.element = element;
    }

    /// Fingerprint of this key's state: a hash of the order-independent
    /// sibling hash alone — the per-version work was paid once, when each
    /// version entered the set. Identical fingerprints let an exchange skip
    /// the key. The element stays out: it is this replica's identity, not
    /// knowledge, and no exchange ever changes a held key's element.
    pub(crate) fn fingerprint(&self) -> u64 {
        fnv1a_extend(FNV_OFFSET, &self.siblings.versions_hash().to_le_bytes())
    }
}

/// A key's state plus what the shard maintains about it: the fingerprint
/// its root term was built from and its place in the change order.
#[derive(Debug)]
struct Tracked<B: StoreBackend> {
    data: KeyData<B>,
    fingerprint: u64,
    /// This key's link in the shard's [`ChangeOrder`].
    slot: u32,
}

/// One key's term of a shard root. The sum over keys must not cancel when
/// two keys trade fingerprints or one fingerprint moves by what another
/// moved back, so the pair is hashed together and run through the
/// splitmix64 finalizer before it is added.
pub(crate) fn root_term(key_hash: u64, fingerprint: u64) -> u64 {
    let mut z = fnv1a_extend(key_hash, &fingerprint.to_le_bytes());
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// "No link": the end of the change order in either direction.
const NIL: u32 = u32::MAX;

/// One key in a [`ChangeOrder`].
#[derive(Debug)]
struct Link {
    /// The neighbour that changed just before this key, or [`NIL`].
    older: u32,
    /// The neighbour that changed just after, or [`NIL`].
    newer: u32,
    /// The sequence number of the key's latest change.
    seq: u64,
    /// The key's digest line as of that change.
    line: DigestEntry,
}

/// The `seq → digest line` index of a shard: every key exactly once, in
/// the order of its latest change. Sequence numbers only grow, so a changed
/// key always moves to the newest end — a doubly-linked list over a slab
/// does that in O(1) with no allocation, where an ordered map paid a cold
/// tree walk per write. "Changed after `since`" walks back from the newest
/// end and stops at the first link that is old enough.
#[derive(Debug)]
struct ChangeOrder {
    links: Vec<Link>,
    newest: u32,
    /// Slots of removed keys, reused before the slab grows.
    free: Vec<u32>,
}

impl ChangeOrder {
    fn new() -> Self {
        ChangeOrder { links: Vec::new(), newest: NIL, free: Vec::new() }
    }

    /// Appends a key that just changed for the first time.
    fn push(&mut self, seq: u64, line: DigestEntry) -> u32 {
        let link = Link { older: self.newest, newer: NIL, seq, line };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.links[slot as usize] = link;
                slot
            }
            None => {
                self.links.push(link);
                u32::try_from(self.links.len() - 1).expect("fewer than 2^32 keys per shard")
            }
        };
        if let Some(previous) = self.links.get_mut(self.newest as usize) {
            previous.newer = slot;
        }
        self.newest = slot;
        slot
    }

    fn unlink(&mut self, slot: u32) {
        let Link { older, newer, .. } = self.links[slot as usize];
        if let Some(link) = self.links.get_mut(older as usize) {
            link.newer = newer;
        }
        match self.links.get_mut(newer as usize) {
            Some(link) => link.older = older,
            None => self.newest = older,
        }
    }

    /// Records that the key at `slot` changed again: new numbers, newest
    /// place.
    fn touch(&mut self, slot: u32, seq: u64, fingerprint: u64, ctx_fp: u64) {
        if self.newest != slot {
            self.unlink(slot);
            self.links[self.newest as usize].newer = slot;
            let newest = std::mem::replace(&mut self.newest, slot);
            let link = &mut self.links[slot as usize];
            (link.older, link.newer) = (newest, NIL);
        }
        let link = &mut self.links[slot as usize];
        (link.seq, link.line.fingerprint, link.line.ctx_fp) = (seq, fingerprint, ctx_fp);
    }

    fn remove(&mut self, slot: u32) {
        self.unlink(slot);
        self.links[slot as usize].line.key = Key::new();
        self.free.push(slot);
    }

    /// The links whose latest change is after `since`, newest first.
    fn after(&self, since: u64) -> impl Iterator<Item = &Link> {
        std::iter::successors(self.links.get(self.newest as usize), |link| {
            self.links.get(link.older as usize)
        })
        .take_while(move |link| link.seq > since)
    }
}

/// The next change sequence number. Called only with the shard write lock
/// held, which is what lets a reader that loaded the counter and *then* took
/// the shard lock see every change up to the loaded value.
fn next_seq(seqs: &AtomicU64) -> u64 {
    seqs.fetch_add(1, Ordering::SeqCst) + 1
}

/// One independently-locked partition of a replica's keys, with the
/// maintained convergence state of the [module docs](self).
#[derive(Debug)]
pub(crate) struct Shard<B: StoreBackend> {
    keys: HashMap<Key, Tracked<B>>,
    /// Wrapping sum of [`root_term`] over `keys`.
    root: u64,
    changes: ChangeOrder,
    /// The replica's change counter, shared by its shards.
    seqs: Arc<AtomicU64>,
}

impl<B: StoreBackend> Shard<B> {
    fn new(seqs: Arc<AtomicU64>) -> Self {
        Shard { keys: HashMap::new(), root: 0, changes: ChangeOrder::new(), seqs }
    }

    pub(crate) fn get(&self, key: &str) -> Option<&KeyData<B>> {
        self.keys.get(key).map(|tracked| &tracked.data)
    }

    pub(crate) fn contains_key(&self, key: &str) -> bool {
        self.keys.contains_key(key)
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = (&Key, &KeyData<B>)> {
        self.keys.iter().map(|(key, tracked)| (key, &tracked.data))
    }

    /// Adds a key the shard does not hold yet. A key with no versions
    /// still has a fingerprint (the empty set's), so it counts into the
    /// root and the change order from here on.
    pub(crate) fn insert(&mut self, key: Key, data: KeyData<B>) {
        debug_assert!(!self.keys.contains_key(&key), "insert is for absent keys");
        let fingerprint = data.fingerprint();
        self.root = self.root.wrapping_add(root_term(fnv1a(key.as_bytes()), fingerprint));
        let line =
            DigestEntry { key: key.clone(), fingerprint, ctx_fp: data.siblings.versions_hash() };
        let slot = self.changes.push(next_seq(&self.seqs), line);
        self.keys.insert(key, Tracked { data, fingerprint, slot });
    }

    /// The one way to mutate a stored key: runs `edit` on it, closes the
    /// sibling set's read cache (see the [module docs](self)) and, when the
    /// key's fingerprint moved, swaps its root term and moves it to the
    /// newest end of the change order under a fresh sequence number.
    /// `None` when the shard lacks the key.
    pub(crate) fn edit<R>(
        &mut self,
        backend: &B,
        key: &str,
        edit: impl FnOnce(&mut KeyData<B>) -> R,
    ) -> Option<R> {
        let tracked = self.keys.get_mut(key)?;
        let result = edit(&mut tracked.data);
        tracked.data.siblings.close(backend);
        let fingerprint = tracked.data.fingerprint();
        if fingerprint != tracked.fingerprint {
            let key_hash = fnv1a(key.as_bytes());
            self.root = self
                .root
                .wrapping_sub(root_term(key_hash, tracked.fingerprint))
                .wrapping_add(root_term(key_hash, fingerprint));
            tracked.fingerprint = fingerprint;
            let ctx_fp = tracked.data.siblings.versions_hash();
            self.changes.touch(tracked.slot, next_seq(&self.seqs), fingerprint, ctx_fp);
        }
        Some(result)
    }

    /// Drops a key (compaction of a settled tombstone).
    pub(crate) fn remove(&mut self, key: &str) {
        if let Some(tracked) = self.keys.remove(key) {
            self.root =
                self.root.wrapping_sub(root_term(fnv1a(key.as_bytes()), tracked.fingerprint));
            self.changes.remove(tracked.slot);
        }
    }

    /// Digest lines of the keys whose latest change is after `since`,
    /// newest first; `since == 0` lists every key.
    fn changed_since(&self, since: u64) -> impl Iterator<Item = DigestEntry> + '_ {
        self.changes.after(since).map(|link| link.line.clone())
    }

    /// The sequence number of `key`'s latest change.
    #[cfg(test)]
    pub(crate) fn seq_of(&self, key: &str) -> Option<u64> {
        self.keys.get(key).map(|tracked| self.changes.links[tracked.slot as usize].seq)
    }
}

/// One replica's data plane: hash-partitioned shards, each an
/// independently-locked [`Shard`]. Client gets take a shard read lock;
/// writes and anti-entropy merges take the write lock of a single shard.
#[derive(Debug)]
pub(crate) struct DataPlane<B: StoreBackend> {
    shards: Vec<RwLock<Shard<B>>>,
    seqs: Arc<AtomicU64>,
    instance: u64,
}

impl<B: StoreBackend> DataPlane<B> {
    /// An empty plane. `instance` names this incarnation of the replica to
    /// peers that remember how far into its change sequence they pulled.
    pub(crate) fn new(shard_count: usize, instance: u64) -> Self {
        let seqs = Arc::new(AtomicU64::new(0));
        DataPlane {
            shards: (0..shard_count.max(1))
                .map(|_| RwLock::new(Shard::new(Arc::clone(&seqs))))
                .collect(),
            seqs,
            instance,
        }
    }

    pub(crate) fn shard(&self, index: usize) -> &RwLock<Shard<B>> {
        &self.shards[index]
    }

    pub(crate) fn instance(&self) -> u64 {
        self.instance
    }

    /// The order-insensitive root over every `(key, fingerprint)` of the
    /// replica: the sum of the shard roots.
    pub(crate) fn root(&self) -> u64 {
        self.shards.iter().fold(0, |root, shard| root.wrapping_add(shard.read().root))
    }

    /// The latest change sequence number handed out.
    pub(crate) fn seq(&self) -> u64 {
        self.seqs.load(Ordering::SeqCst)
    }

    /// Digest lines of every key changed after `since`. A caller that
    /// wants a high-water mark to go with them reads [`DataPlane::seq`]
    /// *first*: a change numbered at or below that mark was numbered under
    /// its shard's write lock, so the scan — which takes each shard lock
    /// afterwards — finds it (or a later change of the same key).
    pub(crate) fn changed_since(&self, since: u64) -> Vec<DigestEntry> {
        let mut lines = Vec::new();
        for shard in &self.shards {
            lines.extend(shard.read().changed_since(since));
        }
        lines
    }
}

/// FNV-1a offset basis — every store hash (sharding, version hashes,
/// fingerprints) is the same hash family, built on [`fnv1a_extend`].
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Streams `bytes` into a running FNV-1a state.
#[must_use]
pub(crate) fn fnv1a_extend(mut hash: u64, bytes: &[u8]) -> u64 {
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// FNV-1a — the stable hash used for shard selection and anti-entropy
/// digests (must agree across replicas and runs, unlike `DefaultHasher`).
#[must_use]
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(FNV_OFFSET, bytes)
}

/// Shard index dispatch: hash-partitions keys across a fixed shard count,
/// resolved once at cluster construction. Power-of-two counts (the
/// [`ClusterConfig`](crate::ClusterConfig) default) dispatch with a single
/// mask instead of a 64-bit modulo on every key touch.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ShardIndexer {
    count: usize,
    /// `count − 1` when `count` is a power of two; `u64::MAX` marks the
    /// general modulo path.
    mask: u64,
}

impl ShardIndexer {
    pub(crate) fn new(count: usize) -> Self {
        let count = count.max(1);
        let mask = if count.is_power_of_two() { count as u64 - 1 } else { u64::MAX };
        ShardIndexer { count, mask }
    }

    /// The shard count the indexer dispatches over.
    pub(crate) fn count(&self) -> usize {
        self.count
    }

    /// Shard index of a key.
    #[inline]
    pub(crate) fn index(&self, key: &str) -> usize {
        let hash = fnv1a(key.as_bytes());
        if self.mask == u64::MAX {
            (hash % self.count as u64) as usize
        } else {
            (hash & self.mask) as usize
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{DynamicVvBackend, VstampBackend};
    use proptest::prelude::*;
    use std::cell::Cell;

    fn stored(
        backend: &VstampBackend,
        clock: <VstampBackend as StoreBackend>::Clock,
        value: Option<&[u8]>,
    ) -> StoredVersion<VstampBackend> {
        StoredVersion::new(backend, Version { clock, value: value.map(<[u8]>::to_vec) })
    }

    #[test]
    fn merge_keeps_concurrent_and_evicts_dominated() {
        let backend = VstampBackend::gc();
        let (mut state, elements) = backend.new_key(2);
        let mut data = KeyData::<VstampBackend>::new(elements[0].clone());
        let (e0, c0, _) = backend.write(&mut state, &elements[0], None);
        data.siblings.merge_version(&backend, stored(&backend, c0.clone(), Some(b"v0")), true);
        assert_eq!(data.siblings.len(), 1);
        data.set_element(e0);

        // A concurrent write from the other replica becomes a sibling.
        let (_, c1, _) = backend.write(&mut state, &elements[1], None);
        data.siblings.merge_version(&backend, stored(&backend, c1.clone(), Some(b"v1")), false);
        assert_eq!(data.siblings.len(), 2);
        assert_eq!(data.siblings.live_values().len(), 2);

        // A write with the joined context evicts both.
        let context = data.siblings.context().cloned().unwrap();
        let (_, c2, _) = backend.write(&mut state, data.element(), Some(&context));
        data.siblings.merge_version(&backend, stored(&backend, c2, Some(b"merged")), true);
        assert_eq!(data.siblings.live_values(), vec![b"merged".to_vec()]);
    }

    #[test]
    fn equal_clock_merges_converge_on_the_larger_value() {
        let backend = VstampBackend::gc();
        let (mut state, elements) = backend.new_key(1);
        let (_, clock, _) = backend.write(&mut state, &elements[0], None);
        let mut left = KeyData::<VstampBackend>::new(elements[0].clone());
        let mut right = KeyData::<VstampBackend>::new(elements[0].clone());
        let a = stored(&backend, clock.clone(), Some(b"aaa"));
        let b = stored(&backend, clock, Some(b"zzz"));
        left.siblings.merge_version(&backend, a.clone(), false);
        left.siblings.merge_version(&backend, b.clone(), false);
        right.siblings.merge_version(&backend, b, false);
        right.siblings.merge_version(&backend, a, false);
        assert_eq!(left.siblings.live_values(), right.siblings.live_values());
        assert_eq!(left.siblings.live_values(), vec![b"zzz".to_vec()]);
        assert_eq!(left.fingerprint(), right.fingerprint());
    }

    #[test]
    fn obsolete_incoming_is_dropped() {
        let backend = VstampBackend::gc();
        let (mut state, elements) = backend.new_key(2);
        // Replica 0 writes, replica 1 writes causally after it (context):
        // the second clock strictly dominates the first.
        let (_, c1, _) = backend.write(&mut state, &elements[0], None);
        let (e2, c2, _) = backend.write(&mut state, &elements[1], Some(&c1));
        assert_eq!(backend.relation(&c1, &c2), Relation::Dominated);
        let mut data = KeyData::<VstampBackend>::new(e2);
        data.siblings.merge_version(&backend, stored(&backend, c2, Some(b"new")), true);
        data.siblings.merge_version(&backend, stored(&backend, c1, Some(b"old")), false);
        assert_eq!(data.siblings.live_values(), vec![b"new".to_vec()]);
    }

    fn siblings<B: StoreBackend>(shard: &Shard<B>) -> &SiblingSet<B> {
        &shard.get("k").expect("inserted").siblings
    }

    #[test]
    fn cached_context_tracks_merges_and_evictions() {
        let backend = VstampBackend::gc();
        let (mut state, elements) = backend.new_key(2);
        let mut shard = Shard::new(Arc::default());
        shard.insert("k".into(), KeyData::new(elements[0].clone()));
        assert!(siblings(&shard).matches_context(None));
        let (_, c0, _) = backend.write(&mut state, &elements[0], None);
        let (_, c1, _) = backend.write(&mut state, &elements[1], None);
        shard.edit(&backend, "k", |data| {
            data.siblings.merge_version(&backend, stored(&backend, c0.clone(), Some(b"a")), true);
            data.siblings.merge_version(&backend, stored(&backend, c1.clone(), Some(b"b")), false);
        });
        // Cached context equals the explicit fold.
        let expected = backend.join_clocks(&c0, &c1);
        assert_eq!(siblings(&shard).context(), Some(&expected));
        assert!(siblings(&shard).matches_context(Some(&expected)));
        assert!(!siblings(&shard).matches_context(Some(&c0)));
        // The matched-context fast path supersedes everything.
        let (element, c2, _) = backend.write(&mut state, &elements[0], Some(&expected));
        assert_eq!(siblings(&shard).len(), 2);
        shard.edit(&backend, "k", |data| {
            data.siblings.replace_all(&backend, stored(&backend, c2.clone(), Some(b"m")));
        });
        assert_eq!(siblings(&shard).context(), Some(&c2));
        assert_eq!(siblings(&shard).live_values(), vec![b"m".to_vec()]);
        // Eviction through the slow path: the edit's close rebuilds the
        // context once and publishes it.
        let (_, c3, _) = backend.write(&mut state, &element, Some(&c2));
        assert_eq!(backend.relation(&c2, &c3), Relation::Dominated);
        let rebuilds = counted::CTX_REBUILDS.with(Cell::get);
        shard.edit(&backend, "k", |data| {
            data.siblings.merge_version(&backend, stored(&backend, c3.clone(), Some(b"n")), false);
        });
        assert_eq!(counted::CTX_REBUILDS.with(Cell::get) - rebuilds, 1);
        assert_eq!(siblings(&shard).context(), Some(&c3));
        assert_eq!(siblings(&shard).snapshot().map(|snapshot| snapshot.context.clone()), Some(c3));
    }

    /// One step of the upkeep property: `(what, replica, pick, value)`.
    type Step = (u8, usize, usize, u8);

    /// Drives one key of one shard through `steps`, each inside one
    /// `Shard::edit`, and holds the closed read cache against a
    /// recomputation after every step.
    fn run_upkeep_steps<B: StoreBackend>(backend: B, steps: &[Step]) {
        let (mut state, mut elements) = backend.new_key(3);
        let mut shard = Shard::new(Arc::default());
        shard.insert("k".into(), KeyData::new(elements[0].clone()));
        // Every version ever written, for stale contexts and re-deliveries.
        let mut history: Vec<Version<B>> = Vec::new();
        for (step, &(what, replica, pick, value)) in steps.iter().enumerate() {
            let current = siblings(&shard).context().cloned();
            let picked = |len: usize| (len > 0).then(|| pick % len);
            let (incoming, local_write, replace) = match what {
                // A fresh write (context = the set as it stands), merged or
                // through the matched-context fast path; or a stale one.
                0..=2 => {
                    let context = match what {
                        2 => picked(history.len()).map(|index| history[index].clock.clone()),
                        _ => current,
                    };
                    let (advanced, clock, _) =
                        backend.write(&mut state, &elements[replica], context.as_ref());
                    elements[replica] = advanced;
                    let version = Version { clock, value: Some(vec![value]) };
                    history.push(version.clone());
                    (version, replica == 0, what == 1)
                }
                // A clock-equal merge: a stored clock under another value.
                3 => {
                    let versions: Vec<StoredVersion<B>> =
                        siblings(&shard).iter().cloned().collect();
                    let Some(index) = picked(versions.len()) else { continue };
                    let clock = versions[index].clock().clone();
                    (Version { clock, value: Some(vec![value]) }, false, false)
                }
                // A re-delivered old version: dominated by, or equal to,
                // something stored.
                _ => {
                    let Some(index) = picked(history.len()) else { continue };
                    (history[index].clone(), false, false)
                }
            };
            let rebuilds = counted::CTX_REBUILDS.with(Cell::get);
            shard.edit(&backend, "k", |data| {
                let incoming = StoredVersion::new(&backend, incoming);
                if replace {
                    data.siblings.replace_all(&backend, incoming);
                } else {
                    data.siblings.merge_version(&backend, incoming, local_write);
                }
            });
            assert!(counted::CTX_REBUILDS.with(Cell::get) - rebuilds <= 1, "step {step}");

            let data = shard.get("k").expect("inserted");
            let versions: Vec<_> = data.siblings.iter().cloned().collect();
            let snapshot = data.siblings.snapshot().expect("a step stores a version");
            assert!(snapshot.versions == versions, "step {step}: snapshot versions");
            assert_eq!(data.siblings.context(), Some(&snapshot.context), "step {step}: context");
            // Compared in joined form: a dynamic-VV write clock joined with
            // itself changes form (its dot folds into the vector), not
            // meaning.
            let joined = backend.join_clock_set(versions.iter().map(StoredVersion::clock));
            let joined = joined.expect("non-empty");
            assert_eq!(
                backend.join_clocks(&snapshot.context, &snapshot.context),
                backend.join_clocks(&joined, &joined),
                "step {step}: context against the join"
            );
            let hash = versions.iter().fold(0u64, |hash, version| {
                let mut bytes = Vec::new();
                backend.encode_clock(version.clock(), &mut bytes);
                hash.wrapping_add(version_hash(&bytes, version.version().value.as_deref()))
            });
            let fingerprint = fnv1a_extend(FNV_OFFSET, &hash.to_le_bytes());
            let lines: Vec<DigestEntry> = shard.changed_since(0).collect();
            assert_eq!(
                lines,
                vec![DigestEntry { key: "k".into(), fingerprint, ctx_fp: hash }],
                "step {step}: change-order line"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Whatever one edit merges — fresh or stale writes, clock-equal
        /// values, re-delivered old versions, a matched-context
        /// replacement — its close leaves the published snapshot, the
        /// cached context and the change-order line equal to a
        /// recomputation, after at most one context rebuild.
        #[test]
        fn one_edit_closes_the_read_cache_exactly(
            steps in prop::collection::vec((0u8..5, 0usize..3, any::<usize>(), any::<u8>()), 1..40),
        ) {
            run_upkeep_steps(VstampBackend::gc(), &steps);
            run_upkeep_steps(DynamicVvBackend::new(), &steps);
        }
    }

    #[test]
    fn fnv_and_sharding_are_stable() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        let pow2 = ShardIndexer::new(8);
        assert_eq!(pow2.index("cart:alice"), pow2.index("cart:alice"));
        assert!(pow2.index("x") < 8);
        assert_eq!(pow2.count(), 8);
        // The mask dispatch must agree with the generic modulo: a power of
        // two makes `hash & (n − 1)` and `hash % n` identical.
        for key in ["a", "cart:alice", "π-keys", "", "key-42"] {
            let hash = fnv1a(key.as_bytes());
            assert_eq!(pow2.index(key), (hash % 8) as usize, "mask/modulo split for {key:?}");
        }
        let odd = ShardIndexer::new(7);
        for key in ["a", "b", "key-3"] {
            assert_eq!(odd.index(key), (fnv1a(key.as_bytes()) % 7) as usize);
            assert!(odd.index(key) < 7);
        }
        assert_eq!(ShardIndexer::new(0).count(), 1);
    }
}
