//! The replicated store cluster: N replicas, each a sharded data plane,
//! plus the cluster-shared clock plane (per-key coordination state of the
//! backend), the pull-exchange engine and quiescent-point compaction.
//!
//! # The exchange engine
//!
//! Anti-entropy is one protocol, written once: Probe → Ack | Offer → Want
//! → Delta → bounded NAK rounds. Every step is a request/reply pair, so
//! the engine is two functions and a closure:
//!
//! * [`Cluster::pull`] is the requester. It builds each request
//!   [`Envelope`], hands it to the caller's `request` closure — the whole
//!   transport — and applies what comes back.
//! * [`Cluster::serve`] is the responder: one request envelope in, one
//!   reply envelope out. It keeps nothing about who asked.
//!
//! Neither end recomputes what a round needs. The data plane maintains,
//! where a key is mutated, an order-insensitive **root** over every
//! `(key, fingerprint)` and a per-replica **change sequence** with an
//! index of each key's latest change (see [`crate::store`]). The Probe
//! carries the requester's root and its [`PullCursor`] for this responder;
//! equal roots end the exchange in ~16 bytes, otherwise the Offer lists
//! the digest lines of the keys the responder changed after the cursor —
//! all of them at cursor 0, which is first contact, a restarted peer and a
//! late joiner alike — and the requester Wants the ones it lacks or holds
//! under another fingerprint. Keys only the *requester* changed are never
//! listed, so nothing is shipped back to the side that is ahead.
//!
//! The cursor is the one piece of state between pulls, and the requester
//! owns it: it moves to the Offer's `upto` only when that pull proved it
//! holds everything up to there — the Offer answered the cursor that was
//! sent (or started from 0) under the instance the cursor was taken from,
//! `upto` was read before the responder listed its changes, the Delta
//! covered every wanted key, and no fingerprint miss was left open. Any
//! other outcome leaves it where it was (an unknown instance resets it to
//! 0), so a lost, cut or replayed message costs a repeat, never a skip.
//!
//! [`Cluster::anti_entropy`] is `pull` whose closure calls `serve` on
//! another replica of the same process; a [`Node`](crate::Node) passes a
//! closure that writes the envelope to a TCP link. Both ends decode
//! whatever arrives defensively: an undecodable or out-of-order frame
//! fails the exchange (`Err` / `None`), it never panics, and because every
//! version merge is idempotent a failed exchange cannot damage the store —
//! the next pull simply starts over. One thing is *not* idempotent: a Delta
//! reply carries a part split off the responder's element, good for one
//! join. A transport must not hand `pull` a Delta from an earlier exchange;
//! nothing on the wire lets the engine tell (ROADMAP item 2a).
//!
//! Each end counts its half of an exchange in one [`ExchangeStats`], and
//! the cluster keeps one running sum of every half it recorded
//! ([`Cluster::gossip_stats`]).
//!
//! # Concurrency
//!
//! Every lock is per shard. An operation touching a key takes at most two
//! locks, always in the same order — the clock-plane shard first, then one
//! data-plane shard — so client traffic and concurrent exchanges never
//! deadlock. Reads (`get`, the root, listing changes) take only a data
//! shard read lock, and `get` has one path: the key's published snapshot at
//! the asked replica. Every mutation of a key — write, one key of a delta,
//! a shipped fork, a compaction step — is one `Shard::edit`, which closes
//! the key's read cache once before the write lock drops (see
//! [`crate::store`]).
//!
//! # Coordination caveat
//!
//! The clock plane is shared cluster state: for the version-stamp backend
//! it carries the per-key GC evidence pins, for the baseline the per-key
//! identifier allocator. A real deployment would piggyback the evidence on
//! the anti-entropy protocol itself (and the baseline would need a real
//! identifier service); the in-process plane stands in for both, exactly
//! as the `FrontierGc` mirror does in `vstamp-core` (see its module docs).

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hasher};
use std::io;

use parking_lot::{Mutex, MutexGuard, RwLockWriteGuard};
use vstamp_core::Relation;

use crate::backend::StoreBackend;
#[cfg(test)]
use crate::store::counted;
use crate::store::{
    DataPlane, DeltaOrigin, GetResult, Key, KeyData, Shard, ShardIndexer, StoredVersion, Value,
    Version,
};
use crate::wire::{
    decode_delta, decode_nak, decode_offer, decode_probe, decode_want, encode_delta, encode_nak,
    encode_offer, encode_probe, encode_want, envelope_len, rebuild_wire_version, DeltaEncodeStats,
    DeltaPolicy, DigestEntry, Envelope, KeyDelta, MessageKind, Offer, WireKeyDelta, WireVersion,
    PERTURB_MASK,
};

/// Per-key entry of the clock plane: the backend's coordination state plus
/// the initial elements replicas have not yet claimed.
#[derive(Debug)]
struct KeyPlane<B: StoreBackend> {
    state: B::KeyState,
    unclaimed: Vec<Option<B::Element>>,
}

/// One stripe of the clock plane: the keys of one shard index.
type PlaneStripe<B> = HashMap<Key, KeyPlane<B>>;

/// Bound on NAK rounds within one pull. A refetch ships full frames, which
/// cannot miss, so an honest responder needs one round; the bound stops a
/// peer that keeps answering NAKs with delta frames.
const MAX_NAK_ROUNDS: usize = 3;

pub(crate) fn invalid(context: &'static str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, context)
}

/// How far into one responder's change sequence a requester has provably
/// pulled: the state a link keeps between [`Cluster::pull`]s so the next
/// one is offered only what changed since. It belongs to the requester and
/// to one link — the responder keeps nothing per peer — and it is not an
/// identity: it names no replica, orders no events and is never compared
/// across links. `Default` is "never pulled", which makes the next exchange
/// a full one; dropping a cursor is always safe.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PullCursor {
    /// The responder incarnation `seq` counts in.
    peer_instance: u64,
    /// Every change the responder numbered at or below this is held here.
    seq: u64,
}

/// Volume and coverage counters of one anti-entropy exchange — or of one
/// side's half of it: [`Cluster::pull`] returns what the requester sent and
/// observed (probe, want, NAKs, the probe outcome),
/// [`Cluster::serve`] what the responder sent (probe answer, deltas,
/// refetches), and [`Cluster::anti_entropy`] the sum of the two. Every byte
/// is counted once, by its sender.
///
/// Byte counts are end-to-end: payload plus the serialized envelope
/// header ([`envelope_len`]), so they count what a real transport carries,
/// not just encoded bodies.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExchangeStats {
    /// Keys the responder shipped (fingerprint mismatch or missing).
    pub keys_shipped: usize,
    /// Bytes of everything that is not a delta — probe, probe answer
    /// (ack or offer), want — envelopes included.
    pub digest_bytes: usize,
    /// Bytes of the delta direction, envelope included: the delta
    /// response plus any NAK and full-frame refetch round.
    pub delta_bytes: usize,
    /// Versions shipped as delta frames (dot + context fingerprint).
    pub delta_frames: usize,
    /// Versions shipped as full clock frames (refetches included).
    pub full_frames: usize,
    /// Keys whose delta frames missed the receiver's context fingerprint
    /// and were refetched as full frames.
    pub nak_refetches: usize,
    /// Bytes the delta frames saved versus full clock frames.
    pub wire_bytes_saved: usize,
    /// Total bytes of the clock frames shipped (full and delta) —
    /// `frame_bytes / (delta_frames + full_frames)` is the mean clock
    /// bytes per replicated version.
    pub frame_bytes: usize,
    /// The delta frames' share of `frame_bytes`.
    pub delta_frame_bytes: usize,
    /// Versions the responder did not ship because the requester's digest
    /// proved it already held them.
    pub versions_skipped: usize,
    /// Exchanges opened with the O(1) digest-root probe: 1 per pull, so
    /// in a sum it counts the pulls.
    pub root_probes: usize,
    /// Probes that hit — the peers were already converged and the whole
    /// offer/delta flow was skipped.
    pub root_matches: usize,
    /// Digest lines the responder listed in its offer.
    pub offered_keys: usize,
    /// Offered keys the requester asked for.
    pub wanted_keys: usize,
    /// Pulls offered everything from sequence 0: first contact, a
    /// restarted responder, or a cursor the requester had to drop. Steady
    /// state adds none: one per link, plus one per peer restart.
    pub cursor_resets: usize,
}

impl ExchangeStats {
    /// Adds another exchange, or the other half of one.
    fn absorb(&mut self, other: &ExchangeStats) {
        self.keys_shipped += other.keys_shipped;
        self.digest_bytes += other.digest_bytes;
        self.delta_bytes += other.delta_bytes;
        self.delta_frames += other.delta_frames;
        self.full_frames += other.full_frames;
        self.nak_refetches += other.nak_refetches;
        self.wire_bytes_saved += other.wire_bytes_saved;
        self.frame_bytes += other.frame_bytes;
        self.delta_frame_bytes += other.delta_frame_bytes;
        self.versions_skipped += other.versions_skipped;
        self.root_probes += other.root_probes;
        self.root_matches += other.root_matches;
        self.offered_keys += other.offered_keys;
        self.wanted_keys += other.wanted_keys;
        self.cursor_resets += other.cursor_resets;
    }

    /// Counts one encoded delta payload sent by `sender`.
    fn add_delta_payload(&mut self, sender: usize, payload: &[u8], frames: DeltaEncodeStats) {
        self.delta_bytes += envelope_len(sender, payload.len());
        self.delta_frames += frames.delta_frames;
        self.full_frames += frames.full_frames;
        self.wire_bytes_saved += frames.bytes_saved;
        self.frame_bytes += frames.frame_bytes;
        self.delta_frame_bytes += frames.delta_frame_bytes;
    }
}

/// Space metrics of the whole cluster: what its clocks and elements cost
/// per key.
#[derive(Debug, Clone, PartialEq)]
pub struct StoreMetrics {
    /// Backend label.
    pub label: &'static str,
    /// Distinct keys present on at least one replica.
    pub keys: usize,
    /// Stored versions summed over replicas.
    pub total_versions: usize,
    /// Largest sibling set anywhere.
    pub max_siblings: usize,
    /// Wire bits of every stored clock summed over replicas.
    pub clock_bits_total: usize,
    /// Wire bits of every replica element summed over replicas.
    pub element_bits_total: usize,
    /// Mean per-`(replica, key)` metadata footprint (element + clocks), in
    /// bits.
    pub mean_key_metadata_bits: f64,
    /// Largest per-`(replica, key)` metadata footprint, in bits.
    pub max_key_metadata_bits: usize,
}

/// Counters of one [`Cluster::compact`] sweep.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompactionStats {
    /// Keys whose identity universe was re-minted.
    pub keys_recycled: usize,
    /// Fully-deleted keys dropped from every replica.
    pub keys_dropped: usize,
    /// `(key, replica)` elements rewritten by the forced GC pass.
    pub elements_flushed: usize,
}

/// Construction parameters of a [`Cluster`]: replica count and the data/
/// clock-plane shard count.
///
/// The shard count is the concurrency grain of the whole store — every
/// data-shard lock *and* every clock-plane stripe is per shard — so it
/// should comfortably exceed the expected number of concurrently-writing
/// threads. The default (16, a power of two) keeps the key→shard dispatch
/// on the mask fast path; non-power-of-two counts work and fall back to a
/// modulo.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterConfig {
    /// Number of replicas (at least 1).
    pub replicas: usize,
    /// Number of hash-partitioned shards per replica, also the stripe
    /// count of the cluster-shared clock plane (at least 1).
    pub shards: usize,
    /// Deliberately perturb emitted delta-frame fingerprints so every
    /// delta frame misses and takes the NAK/refetch fallback — a
    /// correctness-stress knob, never on by default.
    pub perturb_fingerprints: bool,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig::new(3, 16)
    }
}

impl ClusterConfig {
    /// A config with explicit replica and shard counts (fingerprints
    /// honest).
    #[must_use]
    pub fn new(replicas: usize, shards: usize) -> Self {
        ClusterConfig { replicas, shards, perturb_fingerprints: false }
    }

    /// Perturbs every emitted delta-frame fingerprint (forces the
    /// miss→NAK fallback path).
    #[must_use]
    pub fn with_perturbed_fingerprints(mut self) -> Self {
        self.perturb_fingerprints = true;
        self
    }

    fn policy(&self) -> DeltaPolicy {
        DeltaPolicy { perturb_fingerprints: self.perturb_fingerprints, ..DeltaPolicy::ADAPTIVE }
    }
}

/// A replicated KV cluster over one [`StoreBackend`]. See the
/// [module docs](self) and the crate docs for the data model.
#[derive(Debug)]
pub struct Cluster<B: StoreBackend> {
    backend: B,
    replicas: Vec<DataPlane<B>>,
    plane: Vec<Mutex<PlaneStripe<B>>>,
    shards: ShardIndexer,
    policy: DeltaPolicy,
    /// Every exchange half this cluster recorded, summed.
    wire: Mutex<ExchangeStats>,
    /// [`Cluster::anti_entropy`]'s cursor per ordered (requester,
    /// responder) pair, at `requester * replicas + responder`.
    cursors: Vec<Mutex<PullCursor>>,
}

/// A fresh store-incarnation id from the standard library's per-process
/// random source. The value is only ever compared for equality.
fn fresh_instance() -> u64 {
    std::collections::hash_map::RandomState::new().build_hasher().finish()
}

/// Infers which of the responder's sibling versions the requester already
/// holds, given nothing but the requester's set hash: that hash is the
/// wrapping sum of its versions' content hashes, so whenever the
/// requester's set is a subset of the responder's — the common case, since
/// anti-entropy pulls make sets grow toward each other — exactly one
/// subset of the responder's hashes sums to it (up to 64-bit collisions,
/// the trust model the whole-key fingerprint skip already accepts).
/// Sibling sets are small, so the `2^n` scan is trivial; oversized sets
/// and the empty-set hash (`0`) skip dedup and ship everything. Returns
/// the matched subset as a bitmask over `hashes`, preferring the largest.
fn known_subset(hashes: &[u64], ctx_fp: u64) -> u32 {
    if ctx_fp == 0 || hashes.is_empty() || hashes.len() > 16 {
        return 0;
    }
    let mut best = 0u32;
    for mask in 1u32..(1u32 << hashes.len()) {
        let sum = hashes
            .iter()
            .enumerate()
            .filter(|(index, _)| mask & (1 << index) != 0)
            .fold(0u64, |acc, (_, hash)| acc.wrapping_add(*hash));
        if sum == ctx_fp && mask.count_ones() > best.count_ones() {
            best = mask;
        }
    }
    best
}

impl<B: StoreBackend> Cluster<B> {
    /// Builds a cluster of `replicas` nodes, each with `shard_count`
    /// hash-partitioned shards.
    #[must_use]
    pub fn new(backend: B, replicas: usize, shard_count: usize) -> Self {
        Self::with_config(backend, ClusterConfig::new(replicas, shard_count))
    }

    /// Builds a cluster from a [`ClusterConfig`].
    #[must_use]
    pub fn with_config(backend: B, config: ClusterConfig) -> Self {
        let replicas = config.replicas.max(1);
        let shards = ShardIndexer::new(config.shards);
        Cluster {
            backend,
            replicas: (0..replicas)
                .map(|_| DataPlane::new(shards.count(), fresh_instance()))
                .collect(),
            plane: (0..shards.count()).map(|_| Mutex::new(HashMap::new())).collect(),
            shards,
            policy: config.policy(),
            wire: Mutex::new(ExchangeStats::default()),
            cursors: (0..replicas * replicas).map(|_| Mutex::new(PullCursor::default())).collect(),
        }
    }

    /// Cumulative wire counters since construction: the sum of the
    /// [`ExchangeStats`] half every [`Cluster::pull`] and [`Cluster::serve`]
    /// of this cluster recorded, failed pulls included. A
    /// [`Node`](crate::Node) pulls and serves, so its counters hold what
    /// *it* put on the wire. Snapshot and diff for per-epoch curves.
    #[must_use]
    pub fn gossip_stats(&self) -> ExchangeStats {
        *self.wire.lock()
    }

    /// The backend in force.
    #[must_use]
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// Number of replicas.
    #[must_use]
    pub fn replica_count(&self) -> usize {
        self.replicas.len()
    }

    /// Number of shards per replica.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.count()
    }

    /// Causal read at one replica: a shared snapshot of the sibling set
    /// (live values plus the context a follow-up [`Cluster::put`] should
    /// carry).
    ///
    /// Contention-free read path: the write path publishes each key's
    /// sibling set as an `Arc`-swapped snapshot, so a get is one hash
    /// lookup and one `Arc` clone under a shard read lock held for
    /// nanoseconds — no write lock, no context fold, no version clones,
    /// and gossip or GC bookkeeping on *other* shards never touches it.
    #[must_use]
    pub fn get(&self, replica: usize, key: &str) -> GetResult<B> {
        let shard = self.replicas[replica].shard(self.shards.index(key)).read();
        GetResult::new(shard.get(key).and_then(|data| data.siblings.snapshot()))
    }

    /// The two locks of every mutation, in the one order the module docs
    /// fix: the clock-plane stripe, then `replica`'s data shard.
    fn lock_pair(
        &self,
        replica: usize,
        shard_index: usize,
    ) -> (MutexGuard<'_, PlaneStripe<B>>, RwLockWriteGuard<'_, Shard<B>>) {
        #[cfg(test)]
        counted::LOCK_PAIRS.with(|pairs| pairs.set(pairs.get() + 1));
        (self.plane[shard_index].lock(), self.replicas[replica].shard(shard_index).write())
    }

    /// Causal write at one replica. The new version's clock dominates
    /// everything in `context` (plus the writing element's own knowledge);
    /// stored siblings the context covers are evicted, the rest remain
    /// concurrent siblings. Returns the written version's clock.
    pub fn put(
        &self,
        replica: usize,
        key: &str,
        value: Value,
        context: Option<&B::Clock>,
    ) -> B::Clock {
        self.write(replica, key, Some(value), context)
    }

    /// Causal delete at one replica: a tombstone write. The key is fully
    /// dropped later, by [`Cluster::compact`], once the tombstone is the
    /// sole version everywhere.
    pub fn delete(&self, replica: usize, key: &str, context: Option<&B::Clock>) -> B::Clock {
        self.write(replica, key, None, context)
    }

    fn write(
        &self,
        replica: usize,
        key: &str,
        value: Option<Value>,
        context: Option<&B::Clock>,
    ) -> B::Clock {
        let shard_index = self.shards.index(key);
        let (mut plane, mut shard) = self.lock_pair(replica, shard_index);
        // The common case is an already-known key: probe before allocating
        // an owned copy for the map entry.
        if !plane.contains_key(key) {
            let (state, elements) = self.backend.new_key(self.replicas.len());
            plane.insert(
                key.to_owned(),
                KeyPlane { state, unclaimed: elements.into_iter().map(Some).collect() },
            );
        }
        let entry = plane.get_mut(key).expect("inserted above");
        if !shard.contains_key(key) {
            let element =
                entry.unclaimed[replica].take().expect("initial element claimed exactly once");
            shard.insert(key.to_owned(), KeyData::new(&self.backend, element));
        }
        shard
            .edit(&self.backend, key, |data| {
                let (advanced, clock, dot) =
                    self.backend.write(&mut entry.state, data.element(), context);
                data.set_element(&self.backend, advanced);
                // Memoized-order fast path: a context that equals the
                // sibling set's cached context supersedes every sibling
                // without a single relation check (the fresh dot makes each
                // domination strict). Exactly these writes are
                // delta-eligible: the mint-time context is the set itself,
                // whose identity the O(1)-maintained sibling hash pins —
                // record `(dot, hash)` as the version's origin so
                // anti-entropy can ship it as dot + fingerprint.
                let matched = data.siblings.matches_context(context);
                let origin = matched.then(|| {
                    let mut dot_bytes = Vec::new();
                    self.backend.encode_clock(&dot, &mut dot_bytes);
                    DeltaOrigin {
                        dot_bytes: dot_bytes.into(),
                        ctx_fp: data.siblings.versions_hash(),
                    }
                });
                let incoming = StoredVersion::new_with_origin(
                    &self.backend,
                    Version { clock: clock.clone(), value },
                    origin,
                );
                let (stored, evicted) = if matched {
                    (true, data.siblings.replace_all(&self.backend, incoming))
                } else {
                    let outcome = data.siblings.merge_version(&self.backend, incoming, true);
                    (outcome.stored, outcome.evicted)
                };
                if stored {
                    self.backend.retain_clock(&mut entry.state, &clock);
                }
                for evicted in &evicted {
                    self.backend.release_clock(&mut entry.state, evicted.clock());
                }
                clock
            })
            .expect("inserted above")
    }

    /// Whether `key`'s universe exists anywhere in the cluster's clock
    /// plane.
    #[must_use]
    pub fn has_key(&self, key: &str) -> bool {
        self.plane[self.shards.index(key)].lock().contains_key(key)
    }

    /// Creates `key`'s universe rooted at `root` — the decentralized
    /// creation path. Multi-process nodes call this with their rooting
    /// lend, one fork half of their membership stamp, before their first
    /// write of an unknown key. Returns `false` (leaving the plane
    /// untouched) when the key already exists or the backend cannot root
    /// universes without coordination.
    ///
    /// Two stores may root one key at disjoint roots: the backend's root
    /// floor keeps every collapse below the root, so both first writes
    /// mint disjoint dots.
    pub fn create_key_rooted(&self, key: &str, root: &B::Element) -> bool {
        let shard_index = self.shards.index(key);
        let mut plane = self.plane[shard_index].lock();
        if plane.contains_key(key) {
            return false;
        }
        let Some((state, elements)) = self.backend.new_key_rooted(self.replicas.len(), root) else {
            return false;
        };
        plane.insert(
            key.to_owned(),
            KeyPlane { state, unclaimed: elements.into_iter().map(Some).collect() },
        );
        true
    }

    /// The digest of one replica's whole data plane, sorted by key: every
    /// key "changed since 0", read off the fingerprints the shards maintain
    /// — nothing is hashed or encoded here.
    #[must_use]
    pub fn build_digest(&self, replica: usize) -> Vec<DigestEntry> {
        let mut entries = self.replicas[replica].changed_since(0);
        entries.sort_by(|a, b| a.key.cmp(&b.key));
        entries
    }

    /// An O(1)-sized root fingerprint of one replica's whole digest: the
    /// order-insensitive sum of one mixed term per `(key, fingerprint)`,
    /// which each shard keeps current where a key is mutated — reading it
    /// is one addition per shard, whatever the key count. Equal roots mean
    /// equal digests mean nothing to exchange — the adaptive wire opens
    /// every exchange with this 8-byte probe and skips the offer/delta flow
    /// entirely on a hit. Correctness never depends on it: a miss just
    /// runs the exchange, and a 64-bit collision is the same trust model as
    /// the per-key fingerprint skip.
    #[must_use]
    pub fn digest_root(&self, replica: usize) -> u64 {
        self.replicas[replica].root()
    }

    /// Builds the responder's delta for a requester digest: every key the
    /// responder holds whose fingerprint differs (or which the requester
    /// lacks) is shipped — forked element plus the shared sibling set
    /// (`Arc` bumps, no value copies).
    #[must_use]
    pub fn respond_delta(
        &self,
        responder: usize,
        digest: &[DigestEntry],
    ) -> (Vec<KeyDelta<B>>, usize) {
        let requested: HashMap<&str, u64> =
            digest.iter().map(|entry| (entry.key.as_str(), entry.fingerprint)).collect();
        let assumed: HashMap<&str, u64> =
            digest.iter().map(|entry| (entry.key.as_str(), entry.ctx_fp)).collect();
        let mut deltas = Vec::new();
        let mut skipped = 0usize;
        for shard_index in 0..self.shards.count() {
            let keys: Vec<(Key, u64)> = {
                let shard = self.replicas[responder].shard(shard_index).read();
                shard
                    .iter()
                    .filter_map(|(key, data)| match requested.get(key.as_str()) {
                        Some(fingerprint) if *fingerprint == data.fingerprint() => None,
                        Some(_) => Some((key.clone(), assumed[key.as_str()])),
                        // The requester lacks the key: its sibling set is
                        // empty, whose hash is 0.
                        None => Some((key.clone(), 0)),
                    })
                    .collect()
            };
            for (key, assumed_fp) in keys {
                if let Some((delta, skips)) =
                    self.ship_key(responder, shard_index, &key, assumed_fp)
                {
                    skipped += skips;
                    deltas.push(delta);
                }
            }
        }
        deltas.sort_by(|a, b| a.key.cmp(&b.key));
        (deltas, skipped)
    }

    /// Forks the responder's element for `key` and ships its sibling set
    /// (`Arc` bumps, no value copies), minus any version the requester
    /// provably already holds — reshipping those would be pure redundancy.
    /// Which versions those are is inferred from `assumed_fp` alone (see
    /// [`known_subset`]), so dedup costs zero extra digest bytes. Returns
    /// the delta plus the number of versions skipped that way. The element
    /// always ships (fingerprint mismatches can be element-only).
    fn ship_key(
        &self,
        responder: usize,
        shard_index: usize,
        key: &Key,
        assumed_fp: u64,
    ) -> Option<(KeyDelta<B>, usize)> {
        let (mut plane, mut shard) = self.lock_pair(responder, shard_index);
        let entry = plane.get_mut(key)?;
        shard.edit(&self.backend, key, |data| {
            let (kept, shipped) = self.backend.detach(&mut entry.state, data.element());
            data.set_element(&self.backend, kept);
            let hashes: Vec<u64> = data.siblings.iter().map(StoredVersion::content_hash).collect();
            let known = known_subset(&hashes, assumed_fp);
            let versions: Vec<_> = data
                .siblings
                .iter()
                .enumerate()
                .filter(|(index, _)| *index >= 32 || known & (1 << index) == 0)
                .map(|(_, version)| version.clone())
                .collect();
            let skipped = known.count_ones() as usize;
            (KeyDelta { key: key.clone(), element: shipped, versions, assumed_fp }, skipped)
        })
    }

    /// Ships exactly the named keys, each against the requester's
    /// sibling-set hash for it; returns the deltas (sorted by key) and the
    /// number of versions the subset-sum dedup left out.
    fn ship_keys<'k>(
        &self,
        responder: usize,
        wanted: impl Iterator<Item = (&'k Key, u64)>,
    ) -> (Vec<KeyDelta<B>>, usize) {
        let mut skipped = 0;
        let mut deltas: Vec<KeyDelta<B>> = wanted
            .filter_map(|(key, assumed_fp)| {
                let (delta, skips) =
                    self.ship_key(responder, self.shards.index(key), key, assumed_fp)?;
                skipped += skips;
                Some(delta)
            })
            .collect();
        deltas.sort_by(|a, b| a.key.cmp(&b.key));
        (deltas, skipped)
    }

    /// Builds the full-frames refetch for a NAK: the responder re-ships
    /// exactly the missed keys (`assumed_fp` of 0 is irrelevant — the
    /// refetch is encoded with [`DeltaPolicy::FULL_ONLY`]).
    #[must_use]
    pub fn respond_nak(&self, responder: usize, keys: &[Key]) -> Vec<KeyDelta<B>> {
        self.ship_keys(responder, keys.iter().map(|key| (key, 0))).0
    }

    /// Applies a delta at the requester, one lock pair per key — the
    /// per-key reference that [`Cluster::apply_delta_batch`] (what
    /// exchanges use) is tested and benchmarked against; the two differ in
    /// nothing else. Element `join` (with the backend's merge-time GC) plus
    /// sibling merges. Delta-frame versions whose context fingerprint
    /// matches the local sibling set are reconstructed as `context ⊔ dot`;
    /// the rest are **missed** — the returned keys need a NAK/full-frame
    /// refetch round.
    pub fn apply_delta(&self, requester: usize, deltas: Vec<WireKeyDelta<B>>) -> Vec<Key> {
        let mut misses = Vec::new();
        for delta in deltas {
            let shard_index = self.shards.index(&delta.key);
            let (mut plane, mut shard) = self.lock_pair(requester, shard_index);
            if let Some(miss) = self.apply_key_delta(requester, &mut plane, &mut shard, delta) {
                misses.push(miss);
            }
        }
        misses
    }

    /// The batched form of [`Cluster::apply_delta`]: frames are grouped by
    /// destination shard and the (clock-plane, data-shard) lock pair is
    /// taken **once per shard** instead of once per key. Each key is one
    /// `Shard::edit`, so its sibling cache closes once after all of its
    /// versions merged, as on every other mutation path. This is the apply
    /// path of [`Cluster::pull`], in process and on a node alike.
    pub fn apply_delta_batch(&self, requester: usize, deltas: Vec<WireKeyDelta<B>>) -> Vec<Key> {
        let mut misses = Vec::new();
        if deltas.is_empty() {
            return misses;
        }
        let mut grouped: Vec<(usize, WireKeyDelta<B>)> =
            deltas.into_iter().map(|delta| (self.shards.index(&delta.key), delta)).collect();
        grouped.sort_by_key(|(shard_index, _)| *shard_index);
        let mut grouped = grouped.into_iter().peekable();
        while let Some(&(shard_index, _)) = grouped.peek() {
            let (mut plane, mut shard) = self.lock_pair(requester, shard_index);
            while let Some((_, delta)) =
                grouped.next_if(|&(next_shard, _)| next_shard == shard_index)
            {
                if let Some(miss) = self.apply_key_delta(requester, &mut plane, &mut shard, delta) {
                    misses.push(miss);
                }
            }
        }
        misses
    }

    /// Applies one key's wire delta under already-held shard locks, in one
    /// `Shard::edit`: element absorb (one watermark-gated collapse check),
    /// then every version merge. Returns the key on a delta-frame
    /// fingerprint miss (it needs a NAK/full-frame refetch).
    fn apply_key_delta(
        &self,
        requester: usize,
        plane: &mut PlaneStripe<B>,
        shard: &mut Shard<B>,
        delta: WireKeyDelta<B>,
    ) -> Option<Key> {
        let WireKeyDelta { key, element, versions } = delta;
        // A key this cluster has never seen: a multi-process node learning
        // it from a peer. Adopt the shipped element as the local replica's
        // first element — never mint a fresh universe here, that would
        // collide with the sender's. Single-replica clusters only (the
        // node topology); elsewhere, and for backends that cannot adopt
        // foreign elements, the key is skipped as before.
        let adopted = if plane.contains_key(&key) {
            false
        } else {
            if self.replicas.len() != 1 {
                return None;
            }
            let state = self.backend.adopt_key(&element)?;
            plane.insert(key.clone(), KeyPlane { state, unclaimed: vec![None] });
            shard.insert(key.clone(), KeyData::new(&self.backend, element.clone()));
            true
        };
        let entry = plane.get_mut(&key).expect("present or just adopted");
        if !shard.contains_key(&key) {
            let claimed =
                entry.unclaimed[requester].take().expect("initial element claimed exactly once");
            shard.insert(key.clone(), KeyData::new(&self.backend, claimed));
        }
        let key_missed = shard
            .edit(&self.backend, &key, |data| {
                // An adopted element was consumed as the local element;
                // there is nothing separate to absorb.
                if !adopted {
                    let absorbed = self.backend.absorb(&mut entry.state, data.element(), &element);
                    data.set_element(&self.backend, absorbed);
                }
                // Every delta frame of this batch was minted against one
                // sibling-set state, so the base context and its hash are
                // captured once, *before* any merge of the batch mutates
                // the set — merges of earlier versions must not invalidate
                // the reconstruction base of later ones.
                let base_fp = data.siblings.versions_hash();
                let base_ctx = versions
                    .iter()
                    .any(|version| matches!(version, WireVersion::Delta { .. }))
                    .then(|| data.siblings.context().cloned())
                    .flatten();
                let mut key_missed = false;
                for version in versions {
                    let incoming = match version {
                        WireVersion::Full(stored) => stored,
                        WireVersion::Delta { dot, dot_bytes, ctx_fp, value } => {
                            if ctx_fp != base_fp {
                                key_missed = true;
                                continue;
                            }
                            rebuild_wire_version(
                                &self.backend,
                                base_ctx.as_ref(),
                                &dot,
                                dot_bytes,
                                ctx_fp,
                                value,
                            )
                        }
                    };
                    let clock = incoming.clock().clone();
                    let outcome = data.siblings.merge_version(&self.backend, incoming, false);
                    if outcome.stored {
                        self.backend.retain_clock(&mut entry.state, &clock);
                    }
                    for evicted in &outcome.evicted {
                        self.backend.release_clock(&mut entry.state, evicted.clock());
                    }
                }
                key_missed
            })
            .expect("inserted above");
        key_missed.then_some(key)
    }

    /// The requester half of one pull exchange, over any transport: opens
    /// with the probe — digest root plus `cursor` — which a converged peer
    /// answers in two tiny messages; otherwise picks what it lacks from
    /// the offer, applies the adaptively-framed delta through
    /// [`Cluster::apply_delta_batch`], and refetches fingerprint misses as
    /// full frames in at most `MAX_NAK_ROUNDS` NAK rounds. `request`
    /// carries one envelope to the peer and returns its reply —
    /// [`Cluster::serve`] on another replica, or a socket round trip.
    ///
    /// `cursor` is this link's memory of the peer (see [`PullCursor`]):
    /// pass the same one to every pull from the same peer, a
    /// `PullCursor::default()` the first time. It advances only when the
    /// exchange proved everything up to the new position arrived.
    ///
    /// Returns the requester's half of the exchange's [`ExchangeStats`]
    /// (also recorded into [`Cluster::gossip_stats`], failed exchanges
    /// included — what was sent was sent).
    ///
    /// # Errors
    ///
    /// Whatever `request` fails with, or `InvalidData` when a reply is of
    /// the wrong kind or does not decode. Every merge is idempotent, so a
    /// failed exchange leaves the store valid and the next pull starts
    /// over from the unmoved cursor.
    pub fn pull(
        &self,
        replica: usize,
        cursor: &mut PullCursor,
        request: impl FnMut(Envelope) -> io::Result<Envelope>,
    ) -> io::Result<ExchangeStats> {
        let mut stats = ExchangeStats::default();
        let outcome = self.pull_rounds(replica, cursor, request, &mut stats);
        self.wire.lock().absorb(&stats);
        outcome.map(|()| stats)
    }

    fn pull_rounds(
        &self,
        replica: usize,
        cursor: &mut PullCursor,
        mut request: impl FnMut(Envelope) -> io::Result<Envelope>,
        stats: &mut ExchangeStats,
    ) -> io::Result<()> {
        let mut send = |kind: MessageKind, payload: Vec<u8>, sent: &mut usize| {
            *sent += envelope_len(replica, payload.len());
            request(Envelope { from: replica, kind, payload })
        };
        // The perturb knob forces misses so benches and tests exercise the
        // fallback.
        let mask = if self.policy.perturb_fingerprints { PERTURB_MASK } else { 0 };
        let probe = encode_probe(self.digest_root(replica) ^ mask, cursor.seq);
        stats.root_probes = 1;
        let reply = send(MessageKind::Probe, probe, &mut stats.digest_bytes)?;
        let offer = match reply.kind {
            MessageKind::Ack => {
                stats.root_matches = 1;
                return Ok(());
            }
            MessageKind::Offer => {
                decode_offer(&reply.payload).map_err(|_| invalid("offer payload did not decode"))?
            }
            _ => return Err(invalid("probe reply was neither Ack nor Offer")),
        };
        if offer.since == 0 {
            stats.cursor_resets = 1;
        }
        // What the cursor moves to once this exchange has proved it.
        let mut proven = None;
        if offer.since == 0 || (offer.since == cursor.seq && offer.instance == cursor.peer_instance)
        {
            proven = Some(PullCursor { peer_instance: offer.instance, seq: offer.upto });
        } else if offer.instance != cursor.peer_instance {
            // The peer is not the incarnation this cursor counted in.
            *cursor = PullCursor::default();
        }
        let wanted = self.pick_wanted(replica, &offer.lines);
        stats.wanted_keys = wanted.len();
        let mut reply = if wanted.is_empty() {
            None
        } else {
            Some(send(MessageKind::Want, encode_want(&wanted), &mut stats.digest_bytes)?)
        };
        // The wanted keys that proof is still waiting for.
        let mut outstanding: HashSet<Key> = wanted.into_iter().map(|(key, _)| key).collect();
        let mut nak_rounds = 0;
        while let Some(delta) = reply.take() {
            if delta.kind != MessageKind::Delta {
                return Err(invalid("want or NAK reply was not a Delta"));
            }
            let deltas = decode_delta(&self.backend, &delta.payload)
                .map_err(|_| invalid("delta payload did not decode"))?;
            for delta in &deltas {
                outstanding.remove(&delta.key);
            }
            let misses = self.apply_delta_batch(replica, deltas);
            if misses.is_empty() {
                break;
            }
            if nak_rounds == MAX_NAK_ROUNDS {
                return Err(invalid("peer kept answering NAKs with frames that miss"));
            }
            nak_rounds += 1;
            stats.nak_refetches += misses.len();
            let nak = encode_nak(&misses);
            outstanding.extend(misses);
            reply = Some(send(MessageKind::Nak, nak, &mut stats.delta_bytes)?);
        }
        if let Some(proven) = proven.filter(|_| outstanding.is_empty()) {
            *cursor = proven;
        }
        Ok(())
    }

    /// The offered keys this replica lacks or holds under another
    /// fingerprint, each with its own sibling-set hash (`0` when lacking).
    fn pick_wanted(&self, replica: usize, offered: &[DigestEntry]) -> Vec<(Key, u64)> {
        offered
            .iter()
            .filter_map(|line| {
                let shard = self.replicas[replica].shard(self.shards.index(&line.key)).read();
                match shard.get(&line.key) {
                    Some(data) if data.fingerprint() == line.fingerprint => None,
                    Some(data) => Some((line.key.clone(), data.siblings.versions_hash())),
                    None => Some((line.key.clone(), 0)),
                }
            })
            .collect()
    }

    /// The responder half of the exchange: answers one Probe, Want or NAK
    /// envelope addressed to `replica` with the reply envelope and
    /// the responder's half of the [`ExchangeStats`] (also recorded into
    /// [`Cluster::gossip_stats`]). `None` — and nothing else happens — for
    /// any other kind and for a payload that does not decode: the caller
    /// drops the frame or the connection.
    pub fn serve(&self, replica: usize, request: &Envelope) -> Option<(Envelope, ExchangeStats)> {
        let mut stats = ExchangeStats::default();
        let (kind, payload) = match request.kind {
            MessageKind::Probe => {
                let (root, since) = decode_probe(&request.payload).ok()?;
                let plane = &self.replicas[replica];
                let (kind, payload) = if root == plane.root() {
                    (MessageKind::Ack, Vec::new())
                } else {
                    // Read before the shards are: see `DataPlane::changed_since`.
                    let upto = plane.seq();
                    // A cursor beyond this store's sequence counted in an
                    // earlier incarnation: list everything.
                    let since = if since > upto { 0 } else { since };
                    let lines = plane.changed_since(since);
                    stats.offered_keys = lines.len();
                    let offer = Offer { instance: plane.instance(), since, upto, lines };
                    (MessageKind::Offer, encode_offer(&offer))
                };
                stats.digest_bytes = envelope_len(replica, payload.len());
                (kind, payload)
            }
            MessageKind::Want => {
                let wanted = decode_want(&request.payload).ok()?;
                let (deltas, skipped) =
                    self.ship_keys(replica, wanted.iter().map(|(key, ctx_fp)| (key, *ctx_fp)));
                let (payload, frames) = encode_delta(&self.backend, &deltas, self.policy);
                stats.keys_shipped = deltas.len();
                stats.versions_skipped = skipped;
                stats.add_delta_payload(replica, &payload, frames);
                (MessageKind::Delta, payload)
            }
            MessageKind::Nak => {
                let keys = decode_nak(&request.payload).ok()?;
                let refetch = self.respond_nak(replica, &keys);
                let (payload, frames) =
                    encode_delta(&self.backend, &refetch, DeltaPolicy::FULL_ONLY);
                stats.add_delta_payload(replica, &payload, frames);
                (MessageKind::Delta, payload)
            }
            _ => return None,
        };
        self.wire.lock().absorb(&stats);
        Some((Envelope { from: replica, kind, payload }, stats))
    }

    /// One pull exchange between two replicas of this cluster:
    /// [`Cluster::pull`] at `requester` with [`Cluster::serve`] at
    /// `responder` as its transport, under the cluster's own cursor for
    /// that ordered pair. Every message round-trips through the wire codec
    /// exactly as it does between nodes, and the returned stats are the two
    /// halves summed — byte counts include the serialized envelope headers.
    pub fn anti_entropy(&self, requester: usize, responder: usize) -> ExchangeStats {
        let mut served = ExchangeStats::default();
        let mut cursor = self.cursors[requester * self.replicas.len() + responder].lock();
        let pulled = self.pull(requester, &mut cursor, |request| {
            let (reply, half) = self
                .serve(responder, &request)
                .ok_or_else(|| invalid("responder refused a locally-encoded request"))?;
            served.absorb(&half);
            Ok(reply)
        });
        debug_assert!(pulled.is_ok(), "in-process exchange failed: {pulled:?}");
        let mut stats = pulled.unwrap_or_default();
        stats.absorb(&served);
        stats
    }

    /// Whether every replica holds the identical sibling set for every key
    /// (values and clocks; element identities are allowed to differ).
    #[must_use]
    pub fn converged(&self) -> bool {
        let reference: HashMap<Key, Vec<Vec<u8>>> = self.sibling_snapshot(0);
        (1..self.replicas.len()).all(|replica| self.sibling_snapshot(replica) == reference)
    }

    fn sibling_snapshot(&self, replica: usize) -> HashMap<Key, Vec<Vec<u8>>> {
        let mut snapshot = HashMap::new();
        for shard_index in 0..self.shards.count() {
            let shard = self.replicas[replica].shard(shard_index).read();
            for (key, data) in shard.iter() {
                snapshot.insert(key.clone(), data.siblings.canonical_versions());
            }
        }
        snapshot
    }

    /// Quiescent-point compaction, shard by shard. Two passes per key:
    ///
    /// 1. a **forced GC flush** of every replica element — the amortized
    ///    GC's deferred collapses all land here, so a compaction boundary
    ///    leaves no watermark debt behind;
    /// 2. for every key whose sibling set has converged to a single
    ///    version on every replica and whose elements have reached equal
    ///    knowledge, the backend re-mints the whole per-key identity
    ///    universe; keys whose sole surviving version is a tombstone are
    ///    dropped outright.
    ///
    /// Takes `&mut self`: compaction rewrites clocks wholesale, so it must
    /// run at a true quiescent point (no concurrent clients or gossip) —
    /// the exclusive borrow enforces exactly that.
    pub fn compact(&mut self) -> CompactionStats {
        let mut stats = CompactionStats::default();
        for shard_index in 0..self.shards.count() {
            let plane = self.plane[shard_index].get_mut();
            let keys: Vec<Key> = plane.keys().cloned().collect();
            for key in keys {
                let entry = plane.get_mut(&key).expect("listed key");
                // Forced GC pass: clear any deferred collapse debt.
                for replica in &self.replicas {
                    let flushed =
                        replica.shard(shard_index).write().edit(&self.backend, &key, |data| {
                            let flushed =
                                self.backend.flush_gc(&mut entry.state, data.element())?;
                            data.set_element(&self.backend, flushed);
                            Some(())
                        });
                    if flushed.flatten().is_some() {
                        stats.elements_flushed += 1;
                    }
                }
                // Gather every replica's element and its single version.
                let mut elements = Vec::with_capacity(self.replicas.len());
                let mut versions: Vec<StoredVersion<B>> = Vec::with_capacity(self.replicas.len());
                let mut eligible = true;
                for replica in &self.replicas {
                    let shard = replica.shard(shard_index).read();
                    match shard.get(&key) {
                        Some(data) if data.siblings.len() == 1 => {
                            elements.push(data.element().clone());
                            versions
                                .push(data.siblings.iter().next().expect("length checked").clone());
                        }
                        _ => {
                            eligible = false;
                            break;
                        }
                    }
                }
                if !eligible || versions.is_empty() {
                    continue;
                }
                let same = versions[1..].iter().all(|version| {
                    version.version().value == versions[0].version().value
                        && self.backend.relation(version.clock(), versions[0].clock())
                            == Relation::Equal
                });
                if !same {
                    continue;
                }
                if versions[0].version().value.is_none() {
                    // A fully-settled tombstone: drop the key everywhere.
                    // This needs no clock recycling, only the quiescence
                    // the checks above established, so it applies to every
                    // backend alike (identifier-based ones included).
                    for replica in &self.replicas {
                        replica.shard(shard_index).write().remove(&key);
                    }
                    plane.remove(&key);
                    stats.keys_dropped += 1;
                    continue;
                }
                if let Some((fresh_elements, fresh_clock)) = self.backend.compact_quiescent(
                    &mut entry.state,
                    &elements,
                    std::slice::from_ref(versions[0].clock()),
                ) {
                    for (replica, fresh) in self.replicas.iter().zip(fresh_elements) {
                        replica
                            .shard(shard_index)
                            .write()
                            .edit(&self.backend, &key, |data| {
                                data.set_element(&self.backend, fresh);
                                data.siblings.remint(&self.backend, fresh_clock.clone());
                            })
                            .expect("eligibility checked");
                    }
                    stats.keys_recycled += 1;
                }
            }
        }
        stats
    }

    /// Space metrics over the whole cluster.
    #[must_use]
    pub fn metrics(&self) -> StoreMetrics {
        let mut keys = std::collections::HashSet::new();
        let mut total_versions = 0usize;
        let mut max_siblings = 0usize;
        let mut clock_bits_total = 0usize;
        let mut element_bits_total = 0usize;
        let mut per_key_samples = 0usize;
        let mut per_key_total = 0usize;
        let mut max_key_metadata_bits = 0usize;
        for replica in &self.replicas {
            for shard_index in 0..self.shards.count() {
                let shard = replica.shard(shard_index).read();
                for (key, data) in shard.iter() {
                    keys.insert(key.clone());
                    total_versions += data.siblings.len();
                    max_siblings = max_siblings.max(data.siblings.len());
                    let clocks: usize =
                        data.siblings.iter().map(|v| self.backend.clock_bits(v.clock())).sum();
                    let element = self.backend.element_bits(data.element());
                    clock_bits_total += clocks;
                    element_bits_total += element;
                    per_key_samples += 1;
                    per_key_total += clocks + element;
                    max_key_metadata_bits = max_key_metadata_bits.max(clocks + element);
                }
            }
        }
        StoreMetrics {
            label: self.backend.label(),
            keys: keys.len(),
            total_versions,
            max_siblings,
            clock_bits_total,
            element_bits_total,
            mean_key_metadata_bits: if per_key_samples == 0 {
                0.0
            } else {
                per_key_total as f64 / per_key_samples as f64
            },
            max_key_metadata_bits,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{DynamicVvBackend, GcWatermarks, VstampBackend};
    use crate::store::{fnv1a, fnv1a_extend, root_term};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::cell::Cell;
    use vstamp_core::{BitString, PackedName, VersionStamp};

    fn full_sweep<B: StoreBackend>(cluster: &Cluster<B>) {
        let n = cluster.replica_count();
        for _ in 0..n {
            for requester in 0..n {
                for responder in 0..n {
                    if requester != responder {
                        cluster.anti_entropy(requester, responder);
                    }
                }
            }
        }
    }

    #[test]
    fn put_get_roundtrip_and_context_supersedes() {
        let cluster = Cluster::new(VstampBackend::gc(), 3, 4);
        cluster.put(0, "cart", b"milk".to_vec(), None);
        let read = cluster.get(0, "cart");
        assert_eq!(read.values(), vec![b"milk".to_vec()]);
        let context = read.context().cloned().expect("key present");
        cluster.put(0, "cart", b"milk+bread".to_vec(), Some(&context));
        let read = cluster.get(0, "cart");
        assert_eq!(read.values(), vec![b"milk+bread".to_vec()]);
        // Another replica sees nothing until anti-entropy runs.
        assert!(cluster.get(1, "cart").values().is_empty());
        cluster.anti_entropy(1, 0);
        assert_eq!(cluster.get(1, "cart").values(), vec![b"milk+bread".to_vec()]);
    }

    #[test]
    fn concurrent_writes_surface_as_siblings_and_merge() {
        let cluster = Cluster::new(VstampBackend::gc(), 2, 2);
        cluster.put(0, "k", b"left".to_vec(), None);
        cluster.put(1, "k", b"right".to_vec(), None);
        cluster.anti_entropy(0, 1);
        let read = cluster.get(0, "k");
        assert_eq!(read.values().len(), 2, "concurrent writes must both survive");
        // A context-carrying resolution collapses the siblings.
        let context = read.context().cloned().unwrap();
        cluster.put(0, "k", b"merged".to_vec(), Some(&context));
        assert_eq!(cluster.get(0, "k").values(), vec![b"merged".to_vec()]);
        full_sweep(&cluster);
        assert!(cluster.converged());
        assert_eq!(cluster.get(1, "k").values(), vec![b"merged".to_vec()]);
    }

    #[test]
    fn a_key_with_more_siblings_than_the_dedup_mask_has_bits_ships_them_all() {
        let cluster = Cluster::new(VstampBackend::gc(), 2, 4);
        for value in 0..33u8 {
            cluster.put(0, "k", vec![value], None);
        }
        cluster.anti_entropy(1, 0);
        assert_eq!(cluster.get(1, "k").live_len(), 33);
    }

    #[test]
    fn get_snapshots_are_point_in_time_stable() {
        let cluster = Cluster::new(VstampBackend::gc(), 2, 4);
        cluster.put(0, "k", b"v1".to_vec(), None);
        let before = cluster.get(0, "k");
        // A later write swaps the published snapshot but must not disturb
        // a handle a reader already holds.
        cluster.put(0, "k", b"v2".to_vec(), before.context());
        assert_eq!(before.values(), vec![b"v1".to_vec()]);
        let after = cluster.get(0, "k");
        assert_eq!(after.values(), vec![b"v2".to_vec()]);
        // Absent keys stay snapshot-free; tombstoned keys keep a context.
        assert!(cluster.get(0, "missing").context().is_none());
        cluster.delete(0, "k", after.context());
        let tombstoned = cluster.get(0, "k");
        assert_eq!(tombstoned.live_len(), 0);
        assert!(tombstoned.context().is_some());
    }

    #[test]
    fn cluster_config_controls_sharding() {
        let cluster = Cluster::with_config(VstampBackend::gc(), ClusterConfig::default());
        assert_eq!(cluster.shard_count(), 16);
        assert_eq!(cluster.replica_count(), 3);
        // Non-power-of-two shard counts take the modulo path and still
        // round-trip traffic correctly.
        let odd = Cluster::with_config(DynamicVvBackend::new(), ClusterConfig::new(2, 7));
        assert_eq!(odd.shard_count(), 7);
        for i in 0..24 {
            odd.put(i % 2, &format!("key-{i}"), vec![i as u8], None);
        }
        for _ in 0..2 {
            odd.anti_entropy(0, 1);
            odd.anti_entropy(1, 0);
        }
        assert!(odd.converged());
        for i in 0..24 {
            assert_eq!(odd.get(1, &format!("key-{i}")).values(), vec![vec![i as u8]]);
        }
        // Degenerate configs clamp instead of panicking.
        let tiny = Cluster::with_config(VstampBackend::eager(), ClusterConfig::new(0, 0));
        assert_eq!(tiny.replica_count(), 1);
        assert_eq!(tiny.shard_count(), 1);
    }

    #[test]
    fn exchanges_skip_in_sync_keys() {
        let cluster = Cluster::new(VstampBackend::gc(), 2, 2);
        cluster.put(0, "a", b"1".to_vec(), None);
        full_sweep(&cluster);
        // Everything in sync: a further exchange ships nothing.
        let stats = cluster.anti_entropy(1, 0);
        assert_eq!(stats.keys_shipped, 0);
        assert!(stats.digest_bytes > 0);
    }

    #[test]
    fn delete_then_compact_drops_the_key() {
        let mut cluster = Cluster::new(VstampBackend::gc(), 2, 2);
        cluster.put(0, "gone", b"v".to_vec(), None);
        full_sweep(&cluster);
        let context = cluster.get(1, "gone").context().cloned().unwrap();
        cluster.delete(1, "gone", Some(&context));
        full_sweep(&cluster);
        assert!(cluster.get(0, "gone").values().is_empty());
        let stats = cluster.compact();
        assert_eq!(stats.keys_dropped, 1);
        assert!(cluster.get(0, "gone").context().is_none());
        assert_eq!(cluster.metrics().keys, 0);
    }

    #[test]
    fn compaction_recycles_quiescent_keys_and_preserves_causality() {
        let mut cluster = Cluster::new(VstampBackend::gc(), 3, 2);
        let context = cluster.put(0, "k", b"v1".to_vec(), None);
        cluster.put(0, "k", b"v2".to_vec(), Some(&context));
        full_sweep(&cluster);
        assert!(cluster.converged());
        let before = cluster.metrics();
        let stats = cluster.compact();
        assert_eq!(stats.keys_recycled, 1);
        let after = cluster.metrics();
        assert!(
            after.clock_bits_total + after.element_bits_total
                <= before.clock_bits_total + before.element_bits_total
        );
        // Causality still works after the re-mint: a new write dominates.
        let read = cluster.get(2, "k");
        assert_eq!(read.values(), vec![b"v2".to_vec()]);
        cluster.put(2, "k", b"v3".to_vec(), read.context());
        full_sweep(&cluster);
        assert_eq!(cluster.get(0, "k").values(), vec![b"v3".to_vec()]);
    }

    #[test]
    fn a_blind_put_after_compaction_replaces_the_survivor() {
        // The re-minted survivor's clock is the empty clock, the bottom of
        // the cover order: a write that read nothing still dominates it.
        // (`{ε}`, the top, would rank every later write below it.)
        let mut cluster = Cluster::new(VstampBackend::gc(), 3, 2);
        let context = cluster.put(0, "k", b"v1".to_vec(), None);
        cluster.put(1, "k", b"v2".to_vec(), Some(&context));
        full_sweep(&cluster);
        assert_eq!(cluster.compact().keys_recycled, 1);
        assert!(cluster.get(0, "k").context().is_some_and(PackedName::is_empty));
        cluster.put(2, "k", b"blind".to_vec(), None);
        full_sweep(&cluster);
        for replica in 0..3 {
            assert_eq!(cluster.get(replica, "k").values(), vec![b"blind".to_vec()]);
        }
    }

    #[test]
    fn deferred_gc_debt_is_flushed_at_the_compaction_boundary() {
        // Watermarks that never fire on their own: every collapse is debt
        // owed to the forced pass in `compact`.
        let never = GcWatermarks { merge_interval: u32::MAX, element_bits: u32::MAX };
        let mut cluster = Cluster::new(VstampBackend::gc_with(never), 3, 2);
        for round in 0..30u8 {
            for replica in 0..3 {
                let read = cluster.get(replica, "k");
                cluster.put(replica, "k", vec![round, replica as u8], read.context());
            }
            cluster.anti_entropy(usize::from(round) % 3, (usize::from(round) + 1) % 3);
        }
        // Leave genuine siblings behind so the key cannot re-mint and the
        // flush pass is the only collapse route.
        cluster.put(0, "k", b"left".to_vec(), None);
        cluster.put(1, "k", b"right".to_vec(), None);
        full_sweep(&cluster);
        let before = cluster.metrics().element_bits_total;
        let stats = cluster.compact();
        assert_eq!(stats.keys_recycled, 0);
        assert!(stats.elements_flushed > 0, "deferred collapse debt must flush");
        assert!(cluster.metrics().element_bits_total < before);
        // Causality is intact afterwards.
        let read = cluster.get(0, "k");
        cluster.put(0, "k", b"final".to_vec(), read.context());
        full_sweep(&cluster);
        assert_eq!(cluster.get(2, "k").values(), vec![b"final".to_vec()]);
    }

    #[test]
    fn dynamic_vv_backend_supports_the_same_protocol() {
        let cluster = Cluster::new(DynamicVvBackend::new(), 3, 2);
        cluster.put(0, "k", b"a".to_vec(), None);
        cluster.put(1, "k", b"b".to_vec(), None);
        full_sweep(&cluster);
        assert!(cluster.converged());
        let read = cluster.get(2, "k");
        assert_eq!(read.values().len(), 2);
        let context = read.context().cloned().unwrap();
        cluster.put(2, "k", b"resolved".to_vec(), Some(&context));
        full_sweep(&cluster);
        assert_eq!(cluster.get(0, "k").values(), vec![b"resolved".to_vec()]);
        assert_eq!(cluster.metrics().label, "dynamic-vv");
    }

    #[test]
    fn shard_indexer_modulo_dispatch_is_uniform_and_roundtrips() {
        // Non-power-of-two counts take ShardIndexer's modulo path; FNV
        // dispatch must still spread keys evenly and serve traffic.
        for shards in [3usize, 7] {
            let indexer = ShardIndexer::new(shards);
            let keys = 3000usize;
            let mut counts = vec![0usize; shards];
            for i in 0..keys {
                counts[indexer.index(&format!("key-{i}"))] += 1;
            }
            let expected = keys / shards;
            for (shard, &count) in counts.iter().enumerate() {
                assert!(
                    count > expected / 2 && count < expected * 2,
                    "shards={shards}: shard {shard} got {count} of {keys} (expected ≈{expected})"
                );
            }
            let cluster = Cluster::new(VstampBackend::gc(), 2, shards);
            assert_eq!(cluster.shard_count(), shards);
            for i in 0..40usize {
                cluster.put(i % 2, &format!("key-{i}"), vec![i as u8], None);
            }
            for _ in 0..2 {
                cluster.anti_entropy(0, 1);
                cluster.anti_entropy(1, 0);
            }
            assert!(cluster.converged());
            for i in 0..40usize {
                assert_eq!(cluster.get(0, &format!("key-{i}")).values(), vec![vec![i as u8]]);
            }
        }
    }

    #[test]
    fn delta_frames_flow_and_perturbed_fingerprints_fall_back() {
        // One replica writes, the other pulls after every write, so the
        // receiver is always exactly one version behind the writer — the
        // delta-frame sweet spot. The dynamic-vv clock grows a vector
        // entry per write, so full frames quickly outgrow dot +
        // fingerprint and the adaptive encoder switches over.
        let run = |config: ClusterConfig| {
            let cluster = Cluster::with_config(DynamicVvBackend::new(), config);
            cluster.put(0, "hot", b"seed".to_vec(), None);
            cluster.anti_entropy(1, 0);
            for round in 0..12u8 {
                let read = cluster.get(0, "hot");
                cluster.put(0, "hot", vec![round], read.context());
                cluster.anti_entropy(1, 0);
            }
            full_sweep(&cluster);
            assert!(cluster.converged(), "workload must converge");
            assert_eq!(
                cluster.get(1, "hot").values(),
                vec![vec![11u8]],
                "the last write must win everywhere"
            );
            cluster.gossip_stats()
        };
        let adaptive = run(ClusterConfig::new(2, 4));
        assert!(adaptive.delta_frames > 0, "one-behind pulls must ship delta frames");
        assert!(adaptive.wire_bytes_saved > 0, "delta frames must undercut their full frames");
        assert_eq!(adaptive.nak_refetches, 0, "serial exchanges never miss");

        // Perturbed fingerprints force every delta frame to miss: the
        // NAK/full-frame fallback carries the exchange and the cluster
        // still converges to the same state (asserted inside `run`).
        let perturbed = run(ClusterConfig::new(2, 4).with_perturbed_fingerprints());
        assert!(perturbed.nak_refetches > 0, "perturbation must exercise the NAK path");
        assert!(perturbed.delta_bytes > adaptive.delta_bytes, "misses cost an extra round");
    }

    /// One adaptive pull exchange written out step by step against
    /// [`Cluster::serve`], applying through the per-key reference path.
    /// In process nothing is lost, so the pair's cursor always advances.
    fn per_key_exchange<B: StoreBackend>(cluster: &Cluster<B>, requester: usize, responder: usize) {
        let ask = |kind: MessageKind, payload: Vec<u8>| {
            let request = Envelope { from: requester, kind, payload };
            cluster.serve(responder, &request).expect("honest request").0
        };
        let apply = |reply: Envelope| {
            let decoded = decode_delta(cluster.backend(), &reply.payload).expect("decodes");
            cluster.apply_delta(requester, decoded)
        };
        let mut cursor = cluster.cursors[requester * cluster.replica_count() + responder].lock();
        let reply =
            ask(MessageKind::Probe, encode_probe(cluster.digest_root(requester), cursor.seq));
        if reply.kind == MessageKind::Ack {
            return;
        }
        let offer = decode_offer(&reply.payload).expect("decodes");
        let wanted = cluster.pick_wanted(requester, &offer.lines);
        if !wanted.is_empty() {
            let misses = apply(ask(MessageKind::Want, encode_want(&wanted)));
            if !misses.is_empty() {
                let refetch = apply(ask(MessageKind::Nak, encode_nak(&misses)));
                assert!(refetch.is_empty(), "full frames cannot miss");
            }
        }
        *cursor = PullCursor { peer_instance: offer.instance, seq: offer.upto };
    }

    #[test]
    fn batched_and_per_key_apply_converge_identically() {
        // Same write pattern, exchanged by the engine (batched apply) and
        // by hand through the per-key reference: the batched path must
        // land every replica on the exact reference state.
        let run = |exchange: fn(&Cluster<VstampBackend>, usize, usize)| {
            let cluster = Cluster::new(VstampBackend::gc(), 3, 4);
            for round in 0u8..6 {
                for replica in 0..3 {
                    let key = format!("k{}", (round as usize + replica) % 5);
                    let read = cluster.get(replica, &key);
                    cluster.put(replica, &key, vec![round, replica as u8], read.context());
                }
                exchange(&cluster, round as usize % 3, (round as usize + 1) % 3);
            }
            for _ in 0..3 {
                for (requester, responder) in [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)] {
                    exchange(&cluster, requester, responder);
                }
            }
            assert!(cluster.converged());
            cluster.sibling_snapshot(0)
        };
        let batched = run(|cluster, a, b| {
            cluster.anti_entropy(a, b);
        });
        let reference = run(per_key_exchange);
        assert_eq!(batched, reference, "batched apply must not change the merged state");
    }

    #[test]
    fn apply_delta_batch_counts_one_lock_section_per_shard() {
        let cluster = Cluster::with_config(VstampBackend::gc(), ClusterConfig::new(2, 4));
        for key in ["a", "b", "c", "d", "e", "f"] {
            cluster.put(0, key, key.as_bytes().to_vec(), None);
        }
        let digest = cluster.build_digest(1);
        let (deltas, _) = cluster.respond_delta(0, &digest);
        let shards_touched: std::collections::HashSet<usize> =
            deltas.iter().map(|delta| cluster.shards.index(&delta.key)).collect();
        let (payload, _) = encode_delta(cluster.backend(), &deltas, DeltaPolicy::FULL_ONLY);
        let decoded = decode_delta(cluster.backend(), &payload).expect("decodes");
        // Counted on this test's thread only: nothing else runs on it
        // between the two readings.
        let read = || (counted::LOCK_PAIRS.with(Cell::get), counted::CTX_REBUILDS.with(Cell::get));
        let (locks_before, rebuilds_before) = read();
        let misses = cluster.apply_delta_batch(1, decoded);
        assert!(misses.is_empty());
        let (locks_after, rebuilds_after) = read();
        // One lock pair per touched shard — not one per key — plus at
        // most one context rebuild per key.
        assert_eq!(locks_after - locks_before, shards_touched.len() as u64);
        assert!(rebuilds_after - rebuilds_before <= deltas.len() as u64);
        assert_eq!(cluster.get(1, "a").values(), vec![b"a".to_vec()]);
    }

    #[test]
    fn vstamp_metadata_stays_bounded_under_churn() {
        let mut cluster = Cluster::new(VstampBackend::gc(), 3, 2);
        for round in 0..30 {
            for replica in 0..3 {
                let read = cluster.get(replica, "hot");
                cluster.put(replica, "hot", vec![round as u8, replica as u8], read.context());
            }
            cluster.anti_entropy(round % 3, (round + 1) % 3);
        }
        full_sweep(&cluster);
        cluster.compact();
        let metrics = cluster.metrics();
        assert!(
            metrics.max_key_metadata_bits < 4096,
            "stamp metadata exploded: {} bits",
            metrics.max_key_metadata_bits
        );
    }

    /// The root as it was computed before the shards maintained it: clone
    /// every key, sort, hash the lines. Kept as the reference the
    /// maintained root must agree with on *which replicas are equal*.
    fn sorted_lines_root<B: StoreBackend>(cluster: &Cluster<B>, replica: usize) -> u64 {
        let mut lines: Vec<(Key, u64)> = Vec::new();
        for shard_index in 0..cluster.shards.count() {
            let shard = cluster.replicas[replica].shard(shard_index).read();
            for (key, data) in shard.iter() {
                lines.push((key.clone(), data.fingerprint()));
            }
        }
        lines.sort_by(|a, b| a.0.cmp(&b.0));
        let mut root = fnv1a(b"digest-root");
        for (key, fingerprint) in &lines {
            root = fnv1a_extend(root, &(key.len() as u64).to_le_bytes());
            root = fnv1a_extend(root, key.as_bytes());
            root = fnv1a_extend(root, &fingerprint.to_le_bytes());
        }
        root
    }

    /// Holds the maintained root and change index of every replica against
    /// what a walk over the keys computes from scratch.
    fn assert_maintained_state_is_exact<B: StoreBackend>(cluster: &Cluster<B>, step: usize) {
        for replica in 0..cluster.replica_count() {
            let mut expected_root = 0u64;
            let mut expected_lines = Vec::new();
            for shard_index in 0..cluster.shards.count() {
                let shard = cluster.replicas[replica].shard(shard_index).read();
                for (key, data) in shard.iter() {
                    let fingerprint = data.fingerprint();
                    expected_root =
                        expected_root.wrapping_add(root_term(fnv1a(key.as_bytes()), fingerprint));
                    expected_lines.push(DigestEntry {
                        key: key.clone(),
                        fingerprint,
                        ctx_fp: data.siblings.versions_hash(),
                    });
                }
            }
            expected_lines.sort_by(|a, b| a.key.cmp(&b.key));
            assert_eq!(
                cluster.digest_root(replica),
                expected_root,
                "step {step}, replica {replica}"
            );
            assert_eq!(
                cluster.build_digest(replica),
                expected_lines,
                "step {step}: changes since 0 at replica {replica} are not the keys it holds"
            );
        }
        for (a, b) in [(0, 1), (0, 2), (1, 2)] {
            assert_eq!(
                cluster.digest_root(a) == cluster.digest_root(b),
                sorted_lines_root(cluster, a) == sorted_lines_root(cluster, b),
                "step {step}: replicas {a} and {b}"
            );
        }
    }

    /// One step of the maintained-state property: `((what, causal), a, b,
    /// key)`.
    type Step = ((u8, bool), usize, usize, usize);

    fn run_maintained_state_steps<B: StoreBackend>(backend: B, steps: &[Step]) {
        let mut cluster = Cluster::new(backend, 3, 4);
        for (step, &((what, causal), a, b, key)) in steps.iter().enumerate() {
            let name = format!("k{key}");
            match what {
                0..=2 => {
                    let read = cluster.get(a, &name);
                    cluster.put(a, &name, vec![step as u8], read.context().filter(|_| causal));
                }
                3 => {
                    let read = cluster.get(a, &name);
                    cluster.delete(a, &name, read.context().filter(|_| causal));
                }
                4 | 5 if a != b => {
                    cluster.anti_entropy(a, b);
                }
                6 if a != b => {
                    // The hand-walked full-digest exchange the benchmark
                    // times, applied per key.
                    let (deltas, _) = cluster.respond_delta(b, &cluster.build_digest(a));
                    let (payload, _) =
                        encode_delta(cluster.backend(), &deltas, DeltaPolicy::ADAPTIVE);
                    let decoded = decode_delta(cluster.backend(), &payload).expect("decodes");
                    let misses = cluster.apply_delta(a, decoded);
                    let refetch = cluster.respond_nak(b, &misses);
                    let (payload, _) =
                        encode_delta(cluster.backend(), &refetch, DeltaPolicy::FULL_ONLY);
                    let decoded = decode_delta(cluster.backend(), &payload).expect("decodes");
                    assert!(cluster.apply_delta_batch(a, decoded).is_empty());
                }
                7 => {
                    cluster.compact();
                }
                _ => {}
            }
            assert_maintained_state_is_exact(&cluster, step);
        }
        full_sweep(&cluster);
        cluster.compact();
        assert_maintained_state_is_exact(&cluster, steps.len());
        assert!(cluster.converged());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Whatever mutates a key — writes, deletes, exchanges through the
        /// engine or by hand, compaction — the root and the change index
        /// the shards maintain equal a from-scratch recomputation.
        #[test]
        fn maintained_root_and_change_index_match_a_recomputation(
            steps in prop::collection::vec(
                ((0u8..8, any::<bool>()), 0usize..3, 0usize..3, 0usize..6),
                1..48,
            ),
        ) {
            run_maintained_state_steps(VstampBackend::gc(), &steps);
            run_maintained_state_steps(DynamicVvBackend::new(), &steps);
        }
    }

    #[test]
    fn an_offer_lists_every_change_at_or_below_its_upto() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Barrier;

        const WRITERS: usize = 2;
        const WRITES: usize = 1500;
        let cluster = Cluster::new(VstampBackend::gc(), 2, 4);
        // Writers and puller start together and meet once more half way,
        // so offers are made before, between and after writes whatever the
        // scheduler does.
        let meet = Barrier::new(WRITERS + 1);
        let finished = AtomicUsize::new(0);
        // Every offer replica 0 made while it was being written to: the
        // position it was asked from, its `upto`, the keys it listed.
        let mut offers: Vec<(u64, u64, HashSet<Key>)> = Vec::new();
        std::thread::scope(|scope| {
            for writer in 0..WRITERS {
                let (cluster, meet, finished) = (&cluster, &meet, &finished);
                scope.spawn(move || {
                    meet.wait();
                    for write in 0..WRITES {
                        if write == WRITES / 2 {
                            meet.wait();
                        }
                        cluster.put(0, &format!("w{writer}-{write}"), vec![1], None);
                    }
                    finished.fetch_add(1, Ordering::SeqCst);
                });
            }
            meet.wait();
            let mut since = 0;
            for pull in 0.. {
                if pull == 1 {
                    meet.wait();
                }
                let last = finished.load(Ordering::SeqCst) == WRITERS;
                let probe = Envelope {
                    from: 1,
                    kind: MessageKind::Probe,
                    payload: encode_probe(cluster.digest_root(1), since),
                };
                let (reply, _) = cluster.serve(0, &probe).expect("honest probe");
                if reply.kind == MessageKind::Offer {
                    let offer = decode_offer(&reply.payload).expect("decodes");
                    assert_eq!(offer.since, since);
                    offers.push((
                        since,
                        offer.upto,
                        offer.lines.into_iter().map(|line| line.key).collect(),
                    ));
                    since = offer.upto;
                }
                if last {
                    break;
                }
            }
        });
        assert!(offers.len() >= 2, "one offer half way, one at the end");
        // Each key was written once, so the number it ended up under is the
        // number of its one visible change.
        for writer in 0..WRITERS {
            for write in 0..WRITES {
                let key = format!("w{writer}-{write}");
                let shard = cluster.replicas[0].shard(cluster.shards.index(&key)).read();
                let seq = shard.seq_of(&key).expect("written");
                for (since, upto, listed) in &offers {
                    assert!(
                        !(*since < seq && seq <= *upto) || listed.contains(&key),
                        "{key} changed at {seq}, inside ({since}, {upto}], and was not offered"
                    );
                }
            }
        }
        let (_, last_upto, _) = offers.last().expect("non-empty");
        assert_eq!(*last_upto, cluster.replicas[0].seq(), "the last offer saw everything");
    }

    /// One exchange between two single-replica stores, the node topology:
    /// `to` pulls, `from` serves, over a closure instead of a socket.
    fn node_pull(
        to: &Cluster<VstampBackend>,
        from: &Cluster<VstampBackend>,
        cursor: &mut PullCursor,
    ) {
        to.pull(0, cursor, |request| Ok(from.serve(0, &request).expect("honest request").0))
            .expect("honest transport");
    }

    /// Every `(key, element)` a single-replica store holds.
    fn node_elements(node: &Cluster<VstampBackend>) -> Vec<(Key, PackedName)> {
        let mut elements = Vec::new();
        for shard_index in 0..node.shards.count() {
            let shard = node.replicas[0].shard(shard_index).read();
            elements.extend(shard.iter().map(|(key, data)| (key.clone(), data.element().clone())));
        }
        elements
    }

    #[test]
    fn node_rooted_keys_keep_every_write_and_elements_within_the_mint_bound() {
        const NODES: usize = 3;
        const KEYS: usize = 6;

        /// Per write: the writes its context covered (transitively), and
        /// the node and key that took it. A write's value is its index.
        #[derive(Default)]
        struct Oracle {
            covers: Vec<HashSet<u32>>,
            origin: Vec<(usize, usize)>,
        }

        fn visible(node: &Cluster<VstampBackend>, key: usize) -> Vec<u32> {
            let read = node.get(0, &format!("k{key}"));
            let mut ids: Vec<u32> = read
                .iter_values()
                .map(|value| u32::from_le_bytes(value.try_into().expect("4-byte ids")))
                .collect();
            ids.sort_unstable();
            ids
        }

        impl Oracle {
            fn write(
                &mut self,
                node: &Cluster<VstampBackend>,
                at: usize,
                key: usize,
                causal: bool,
            ) {
                let id = self.covers.len() as u32;
                let name = format!("k{key}");
                let read = node.get(0, &name);
                let mut covered = HashSet::new();
                if causal {
                    for seen in visible(node, key) {
                        covered.insert(seen);
                        covered.extend(&self.covers[seen as usize]);
                    }
                }
                node.put(0, &name, id.to_le_bytes().to_vec(), read.context().filter(|_| causal));
                self.covers.push(covered);
                self.origin.push((at, key));
            }

            /// Every element holds no more strings than its deepest string
            /// has bits below the key's floor (the dot mint's bound; at
            /// least one), no node shows a write next to one that covers it
            /// or loses a write it took, and once `settled`, every node
            /// shows exactly the uncovered writes.
            fn check(&self, nodes: &[Cluster<VstampBackend>], step: usize, settled: bool) {
                let covered: HashSet<u32> = self.covers.iter().flatten().copied().collect();
                for (at, node) in nodes.iter().enumerate() {
                    for (key, id) in node_elements(node) {
                        let floor =
                            node.plane[node.shards.index(&key)].lock()[&key].state.floor().len();
                        let below = id.depth().saturating_sub(floor).max(1);
                        assert!(
                            id.string_count() <= below,
                            "step {step}: node {at} has {id} at {key}, floor {floor}"
                        );
                    }
                    for key in 0..KEYS {
                        let shown = visible(node, key);
                        for &a in &shown {
                            assert!(
                                shown.iter().all(|b| !self.covers[a as usize].contains(b)),
                                "step {step}: node {at} shows a write {a} covers, k{key}"
                            );
                        }
                        let writes = (0..self.covers.len() as u32)
                            .filter(|&id| self.origin[id as usize].1 == key);
                        for id in writes.clone().filter(|&id| self.origin[id as usize].0 == at) {
                            let kept = shown.contains(&id)
                                || shown.iter().any(|&o| self.covers[o as usize].contains(&id));
                            assert!(kept, "step {step}: node {at} lost its write {id} of k{key}");
                        }
                        if settled {
                            let expected: Vec<u32> =
                                writes.filter(|id| !covered.contains(id)).collect();
                            assert_eq!(shown, expected, "settled: node {at}, k{key}");
                        }
                    }
                }
            }
        }

        let nodes: Vec<_> = (0..NODES).map(|_| Cluster::new(VstampBackend::gc(), 1, 4)).collect();
        // Node 0 roots every key at a fork half of its membership stamp.
        // The last two come off a fragmented stamp, so their lends have
        // two strings.
        let mut membership = VersionStamp::seed();
        for key in 0..KEYS {
            if key == KEYS - 2 {
                let fragmented = "{00, 1}".parse().expect("a name");
                membership = VersionStamp::from_parts(PackedName::epsilon(), fragmented)
                    .expect("{ε} ⊑ {00, 1}");
            }
            let (keep, lend) = membership.fork();
            assert!(nodes[0].create_key_rooted(&format!("k{key}"), lend.id_name()));
            membership = keep;
        }
        let mut oracle = Oracle::default();
        for key in 0..KEYS {
            oracle.write(&nodes[0], 0, key, false);
        }
        oracle.check(&nodes, 0, false);
        // Nodes 1 and 2 write a key only once they adopted it: a node that
        // writes a key it lacks roots it a second time, which
        // `a_double_rooted_key_keeps_both_first_writes` covers.
        let mut cursors = [[PullCursor::default(); NODES]; NODES];
        let mut rng = StdRng::seed_from_u64(29);
        for step in 1..=240 {
            let at = rng.gen_range(0..NODES);
            let key = rng.gen_range(0..KEYS);
            if rng.gen_bool(0.5) {
                if nodes[at].has_key(&format!("k{key}")) {
                    oracle.write(&nodes[at], at, key, rng.gen_range(0..10u32) < 7);
                }
            } else {
                let from = (at + 1 + rng.gen_range(0..NODES - 1)) % NODES;
                node_pull(&nodes[at], &nodes[from], &mut cursors[at][from]);
            }
            oracle.check(&nodes, step, false);
        }
        for sweep in 0.. {
            let root = nodes[0].digest_root(0);
            if nodes.iter().all(|node| node.digest_root(0) == root) {
                break;
            }
            assert!(sweep < 8, "no common root after {sweep} sweeps");
            for (at, links) in cursors.iter_mut().enumerate() {
                for (from, cursor) in links.iter_mut().enumerate() {
                    if from != at {
                        node_pull(&nodes[at], &nodes[from], cursor);
                    }
                }
            }
        }
        oracle.check(&nodes, usize::MAX, true);
        for at in 0..NODES {
            assert!(oracle.origin.iter().any(|&(node, _)| node == at), "node {at} never wrote");
        }
    }

    #[test]
    fn a_multi_string_foreign_element_is_adopted_then_absorbed_into_one_string() {
        let node = Cluster::new(VstampBackend::gc(), 1, 4);
        let delta = |element: &str| {
            let element = element.parse().expect("a name");
            let deltas =
                [KeyDelta { key: "k".into(), element, versions: Vec::new(), assumed_fp: 0 }];
            let (payload, _) = encode_delta(node.backend(), &deltas, DeltaPolicy::ADAPTIVE);
            decode_delta(node.backend(), &payload).expect("a two-string id decodes")
        };
        assert!(node.apply_delta_batch(0, delta("{001, 11}")).is_empty());
        assert_eq!(node_elements(&node)[0].1.string_count(), 2, "adopted as shipped");
        node.put(0, "k", vec![1], None);
        assert!(node.apply_delta_batch(0, delta("{0001, 101}")).is_empty());
        assert_eq!(node_elements(&node)[0].1.string_count(), 1, "{:?}", node_elements(&node));
        assert_eq!(node.get(0, "k").values(), vec![vec![1]]);
    }

    #[test]
    fn a_double_rooted_key_keeps_both_first_writes() {
        // Two nodes root the same key at once, each from its own half of
        // the seed, deepened `depth` times. From depth 4 on the roots pass
        // the 16-bit watermark: without the root floor, the write-side
        // collapse takes each node's un-shipped root to {ε}, both writes
        // mint the same dot and the exchange keeps one value.
        let (left, right) = VersionStamp::seed().fork();
        for depth in [0usize, 4, 8, 16, 64] {
            let nodes = [(left.clone(), b"left"), (right.clone(), b"rght")].map(
                |(mut membership, value)| {
                    for _ in 0..depth {
                        membership = membership.fork().0;
                    }
                    let node = Cluster::new(VstampBackend::gc(), 1, 4);
                    assert!(node.create_key_rooted("k", membership.fork().1.id_name()));
                    node.put(0, "k", value.to_vec(), None);
                    node
                },
            );
            let mut cursors = [PullCursor::default(); 2];
            for _ in 0..3 {
                node_pull(&nodes[0], &nodes[1], &mut cursors[0]);
                node_pull(&nodes[1], &nodes[0], &mut cursors[1]);
            }
            for node in &nodes {
                assert_eq!(node.get(0, "k").values().len(), 2, "roots {depth} forks deep");
            }
        }
    }

    #[test]
    fn the_root_floor_follows_an_element_into_another_root() {
        // One key rooted at a 2-bit string on `shallow` and at a 30-bit one
        // on `deep`, as when two nodes first-touch it at once. A causal
        // chain of writes deepens the shallow-rooted element's shallowest
        // string to 33 bits (the dot mint deepens it one bit per run of
        // leaves), so the first pull moves it into the 32-bit half `deep`
        // grants.
        // That half is all `shallow` knows of `deep`'s root: a collapse
        // above it would take in `deep`'s own element and re-mint its dots.
        // Over this exchange the granted half is not in `shallow`'s pin
        // pool, so the move degrades the key and no collapse runs after it;
        // `backend::tests::the_floor_follows_an_element_into_a_granted_half`
        // runs the collapse with that evidence in the pool.
        let deep_root: BitString = "10".repeat(15).parse().expect("a bit string");
        let stores = ["01".parse().expect("a bit string"), deep_root.clone()].map(|root| {
            let store = Cluster::new(VstampBackend::gc(), 1, 4);
            assert!(store.create_key_rooted("k", &PackedName::singleton(&root)));
            store
        });
        let [shallow, deep] = &stores;
        let element = |store: &Cluster<VstampBackend>| {
            node_elements(store)[0].1.shallowest_string().expect("a live element")
        };
        // The two elements stay disjoint, and `shallow`'s never rises above
        // the last region it moved into.
        let check = |region: &mut BitString, step: &str| {
            let (ours, theirs) = (element(shallow), element(deep));
            assert!(ours.is_incomparable_with(&theirs), "{step}: {ours} and {theirs} overlap");
            assert!(!ours.is_strict_prefix_of(region), "{step}: {ours} rose above {region}");
            if !region.is_prefix_of(&ours) {
                *region = ours;
            }
        };
        let mut context = None;
        let mut id = 1000u32;
        loop {
            context = Some(shallow.put(0, "k", id.to_le_bytes().to_vec(), context.as_ref()));
            id += 1;
            if element(shallow).len() > 32 {
                break;
            }
        }
        assert_eq!(element(shallow).len(), 33);
        let mut live = vec![id - 1];
        let mut dots: Vec<BitString> = Vec::new();
        let mut blind_write = |store: &Cluster<VstampBackend>| {
            let id = live.len() as u32;
            let dot = store.put(0, "k", id.to_le_bytes().to_vec(), None);
            dots.push(dot.shallowest_string().expect("a dot"));
            live.push(id);
        };
        blind_write(deep);
        let mut cursors = [PullCursor::default(); 2];
        node_pull(shallow, deep, &mut cursors[0]);
        let mut region = element(shallow);
        assert!(deep_root.is_prefix_of(&region) && region.len() == 32, "moved to {region}");
        assert!(shallow.plane[shallow.shards.index("k")].lock()["k"].state.is_degraded());
        node_pull(deep, shallow, &mut cursors[1]);
        check(&mut region, "after the move");
        for step in 0..12 {
            blind_write(if step % 2 == 0 { shallow } else { deep });
            check(&mut region, &format!("write {step}"));
            if step % 3 == 2 {
                node_pull(shallow, deep, &mut cursors[0]);
                check(&mut region, &format!("pull {step}"));
                node_pull(deep, shallow, &mut cursors[1]);
                check(&mut region, &format!("push {step}"));
            }
        }
        for (i, dot) in dots.iter().enumerate() {
            for other in &dots[i + 1..] {
                assert!(dot.is_incomparable_with(other), "dots {dot} and {other} overlap");
            }
        }
        for sweep in 0.. {
            if shallow.digest_root(0) == deep.digest_root(0) {
                break;
            }
            assert!(sweep < 8, "no common root after {sweep} sweeps");
            node_pull(shallow, deep, &mut cursors[0]);
            node_pull(deep, shallow, &mut cursors[1]);
        }
        live.sort_unstable();
        for store in &stores {
            let mut shown: Vec<u32> = store
                .get(0, "k")
                .iter_values()
                .map(|value| u32::from_le_bytes(value.try_into().expect("4-byte ids")))
                .collect();
            shown.sort_unstable();
            assert_eq!(shown, live);
        }
    }
}
