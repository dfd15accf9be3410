//! The replicated store cluster: N replicas, each a sharded data plane
//! with its own rooting lend, plus the pull-exchange engine and
//! quiescent-point compaction.
//!
//! A replica roots a key it first-touches at its lend and a key it learns
//! at the element part the holder shipped for it (see
//! [`crate::backend`]), in process exactly as on a [`Node`](crate::Node):
//! no state is shared between replicas, and a key's backend state lives
//! in each replica's data shard beside its sibling set.
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
//! `(key, sibling-set hash)` and a per-replica **change sequence** with an
//! index of each key's latest change (see [`crate::store`]). The Probe
//! carries the requester's root and its [`PullCursor`] for this responder;
//! equal roots end the exchange in ~16 bytes, otherwise the Offer lists
//! the digest lines of the keys the responder changed after the cursor —
//! all of them at cursor 0, which is first contact, a restarted peer and a
//! late joiner alike — and the requester Wants the ones it lacks or holds
//! under another sibling-set hash. Keys only the *requester* changed are
//! never listed, so nothing is shipped back to the side that is ahead.
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
//! the next pull simply starts over. A Delta from an earlier exchange —
//! duplicated, late or replayed — is harmless too. Its versions re-merge
//! idempotently, and its only other content, an element part, is cut only
//! for a Want line saying the requester lacks the key (`ctx_fp` 0) and is
//! used only while the requester still lacks it: the first copy to arrive
//! roots the key, and every later copy meets a held key and is ignored.
//! The responder never uses a part it cut again, so no part is ever used
//! twice.
//!
//! Each end counts its half of an exchange in one [`ExchangeStats`], and
//! the cluster keeps one running sum of every half it recorded
//! ([`Cluster::gossip_stats`]).
//!
//! # Concurrency
//!
//! Every lock is per shard. A mutation of a key takes one lock, the write
//! lock of one data shard of one replica, so client traffic and concurrent
//! exchanges never deadlock. Reads (`get`, the root, listing changes) take
//! only a data shard read lock, and `get` has one path: the key's
//! published snapshot at the asked replica. Every mutation of a key —
//! write, one key of a delta, a shipped part, a compaction step — is one
//! `Shard::edit`, which closes the key's read cache once before the write
//! lock drops (see [`crate::store`]).

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hasher};
use std::io;

use parking_lot::{Mutex, RwLockWriteGuard};
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
    /// Keys the responder shipped (sibling-set hash mismatch or missing).
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
}

/// Construction parameters of a [`Cluster`]: replica count and the
/// per-replica shard count.
///
/// The shard count is the concurrency grain of the whole store — every
/// lock is one data shard's — so it should comfortably exceed the expected
/// number of concurrently-writing threads. The default (16, a power of two) keeps the key→shard dispatch
/// on the mask fast path; non-power-of-two counts work and fall back to a
/// modulo.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterConfig {
    /// Number of replicas (at least 1).
    pub replicas: usize,
    /// Number of hash-partitioned shards per replica (at least 1).
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
    /// Each replica's rooting lend, at its index.
    lends: Vec<B::Lend>,
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
/// the trust model the whole-key hash skip already accepts).
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
    /// hash-partitioned shards and its own rooting lend, split once off the
    /// whole id space ([`StoreBackend::lends`]).
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
            replicas: (0..replicas)
                .map(|_| DataPlane::new(shards.count(), fresh_instance()))
                .collect(),
            lends: backend.lends(replicas),
            shards,
            policy: config.policy(),
            wire: Mutex::new(ExchangeStats::default()),
            cursors: (0..replicas * replicas).map(|_| Mutex::new(PullCursor::default())).collect(),
            backend,
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

    /// Whether `replica` holds `key`.
    pub(crate) fn holds(&self, replica: usize, key: &str) -> bool {
        self.replicas[replica].shard(self.shards.index(key)).read().contains_key(key)
    }

    /// The one lock of every mutation: `replica`'s data shard.
    fn lock_shard(&self, replica: usize, shard_index: usize) -> RwLockWriteGuard<'_, Shard<B>> {
        #[cfg(test)]
        counted::SHARD_LOCKS.with(|locks| locks.set(locks.get() + 1));
        self.replicas[replica].shard(shard_index).write()
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
        self.write(replica, key, Some(value), context, &self.lends[replica])
    }

    /// [`Cluster::put`], rooting a key `replica` lacks at `lend` instead of
    /// at the replica's own lend: a node roots the keys it first-touches at
    /// a fork half of its membership stamp.
    pub(crate) fn put_rooted(
        &self,
        replica: usize,
        key: &str,
        value: Value,
        context: Option<&B::Clock>,
        lend: &B::Lend,
    ) -> B::Clock {
        self.write(replica, key, Some(value), context, lend)
    }

    /// Causal delete at one replica: a tombstone write. The key is fully
    /// dropped later, by [`Cluster::compact`], once the tombstone is the
    /// sole version everywhere.
    pub fn delete(&self, replica: usize, key: &str, context: Option<&B::Clock>) -> B::Clock {
        self.write(replica, key, None, context, &self.lends[replica])
    }

    fn write(
        &self,
        replica: usize,
        key: &str,
        value: Option<Value>,
        context: Option<&B::Clock>,
        lend: &B::Lend,
    ) -> B::Clock {
        let mut shard = self.lock_shard(replica, self.shards.index(key));
        // A first touch roots the key at `lend`, in the same lock section
        // as its first write.
        if !shard.contains_key(key) {
            shard.insert(key.to_owned(), KeyData::new(self.backend.new_key(lend)));
        }
        shard
            .edit(&self.backend, key, |data| {
                let (clock, dot) = data.mint(&self.backend, context);
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
                if matched {
                    data.siblings.replace_all(&self.backend, incoming);
                } else {
                    data.siblings.merge_version(&self.backend, incoming, true);
                }
                clock
            })
            .expect("inserted above")
    }

    /// The digest of one replica's whole data plane, sorted by key: every
    /// key "changed since 0" with its sibling-set hash, read off the lines
    /// the shards maintain — nothing is hashed or encoded here.
    #[must_use]
    pub fn build_digest(&self, replica: usize) -> Vec<DigestEntry> {
        let mut entries = self.replicas[replica].changed_since(0);
        entries.sort_by(|a, b| a.key.cmp(&b.key));
        entries
    }

    /// An O(1)-sized root fingerprint of one replica's whole digest: the
    /// order-insensitive sum of one mixed term per `(key, sibling-set hash)`,
    /// which each shard keeps current where a key is mutated — reading it
    /// is one addition per shard, whatever the key count. Equal roots mean
    /// equal digests mean nothing to exchange — the adaptive wire opens
    /// every exchange with this 8-byte probe and skips the offer/delta flow
    /// entirely on a hit. Correctness never depends on it: a miss just
    /// runs the exchange, and a 64-bit collision is the same trust model as
    /// the per-key hash skip.
    #[must_use]
    pub fn digest_root(&self, replica: usize) -> u64 {
        self.replicas[replica].root()
    }

    /// Builds the responder's delta for a requester digest: every key the
    /// responder holds whose sibling-set hash differs (or which the
    /// requester lacks) is shipped — the shared sibling set (`Arc` bumps, no
    /// value copies), plus an element part for a key the requester lacks.
    #[must_use]
    pub fn respond_delta(
        &self,
        responder: usize,
        digest: &[DigestEntry],
    ) -> (Vec<KeyDelta<B>>, usize) {
        let requested: HashMap<&str, u64> =
            digest.iter().map(|entry| (entry.key.as_str(), entry.ctx_fp)).collect();
        let mut deltas = Vec::new();
        let mut skipped = 0usize;
        for shard_index in 0..self.shards.count() {
            let keys: Vec<(Key, Option<u64>)> = {
                let shard = self.replicas[responder].shard(shard_index).read();
                shard
                    .iter()
                    .filter_map(|(key, data)| match requested.get(key.as_str()) {
                        Some(&hash) if hash == data.siblings.versions_hash() => None,
                        Some(&hash) => Some((key.clone(), Some(hash))),
                        // The requester lacks the key: its sibling set is
                        // empty, whose hash is 0.
                        None => Some((key.clone(), Some(0))),
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

    /// Ships `key`'s sibling set (`Arc` bumps, no value copies) minus any
    /// version the requester provably already holds — reshipping those
    /// would be pure redundancy. Which versions those are is inferred from
    /// the requester's sibling-set hash `assumed_fp` alone (see
    /// [`known_subset`]), so dedup costs zero extra digest bytes. A hash of
    /// `Some(0)` says the requester lacks the key: only then is a part
    /// split off the responder's element and shipped too, for the requester
    /// to root its copy of the key at. `None` is a NAK refetch, which ships
    /// versions only. Returns the delta plus the number of versions
    /// skipped.
    fn ship_key(
        &self,
        responder: usize,
        shard_index: usize,
        key: &Key,
        assumed_fp: Option<u64>,
    ) -> Option<(KeyDelta<B>, usize)> {
        let ship = |data: &KeyData<B>, element| {
            let assumed_fp = assumed_fp.unwrap_or(0);
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
            (KeyDelta { key: key.clone(), element, versions, assumed_fp }, skipped)
        };
        if assumed_fp != Some(0) {
            let shard = self.replicas[responder].shard(shard_index).read();
            return Some(ship(shard.get(key)?, None));
        }
        self.lock_shard(responder, shard_index).edit(&self.backend, key, |data| {
            let shipped = data.detach(&self.backend);
            ship(data, Some(shipped))
        })
    }

    /// Ships exactly the named keys, each against the requester's
    /// sibling-set hash for it (`None` for a refetch, see
    /// [`Cluster::ship_key`]); returns the deltas (sorted by key) and the
    /// number of versions the subset-sum dedup left out.
    fn ship_keys<'k>(
        &self,
        responder: usize,
        wanted: impl Iterator<Item = (&'k Key, Option<u64>)>,
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
    /// exactly the missed keys' versions (the refetch is encoded with
    /// [`DeltaPolicy::FULL_ONLY`]). A missed key is one the requester
    /// holds, so no element part ships.
    #[must_use]
    pub fn respond_nak(&self, responder: usize, keys: &[Key]) -> Vec<KeyDelta<B>> {
        self.ship_keys(responder, keys.iter().map(|key| (key, None))).0
    }

    /// Applies a delta at the requester, one shard lock per key — the
    /// per-key reference that [`Cluster::apply_delta_batch`] (what
    /// exchanges use) is tested and benchmarked against; the two differ in
    /// nothing else. Sibling merges, after rooting a key the requester
    /// lacked at its shipped element part. Delta-frame
    /// versions whose context fingerprint matches the local sibling set
    /// are reconstructed as `context ⊔ dot`; the rest are **missed** — the
    /// returned keys need a NAK/full-frame refetch round.
    pub fn apply_delta(&self, requester: usize, deltas: Vec<WireKeyDelta<B>>) -> Vec<Key> {
        let mut misses = Vec::new();
        for delta in deltas {
            let mut shard = self.lock_shard(requester, self.shards.index(&delta.key));
            if let Some(miss) = self.apply_key_delta(requester, &mut shard, delta) {
                misses.push(miss);
            }
        }
        misses
    }

    /// The batched form of [`Cluster::apply_delta`]: frames are grouped by
    /// destination shard and the shard's lock is taken **once per shard**
    /// instead of once per key. Each key is one
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
            let mut shard = self.lock_shard(requester, shard_index);
            while let Some((_, delta)) =
                grouped.next_if(|&(next_shard, _)| next_shard == shard_index)
            {
                if let Some(miss) = self.apply_key_delta(requester, &mut shard, delta) {
                    misses.push(miss);
                }
            }
        }
        misses
    }

    /// Applies one key's wire delta under the already-held shard lock, in
    /// one `Shard::edit` of every version merge. Returns the key on a
    /// delta-frame fingerprint miss (it needs a NAK/full-frame refetch).
    fn apply_key_delta(
        &self,
        requester: usize,
        shard: &mut Shard<B>,
        delta: WireKeyDelta<B>,
    ) -> Option<Key> {
        let WireKeyDelta { key, element, versions } = delta;
        // A key the requester lacks is rooted at the part the holder split
        // off its own element for it, which no other replica mints from.
        // Without a part, or with a part that owns nothing, the key is
        // skipped. For a key the requester holds, a shipped part is
        // ignored: its element only ever shrinks, and nothing the peer's
        // id could teach lives in it.
        if !shard.contains_key(&key) {
            let rooted = self.backend.new_key_rooted(&self.lends[requester], &element?)?;
            shard.insert(key.clone(), KeyData::new(rooted));
        }
        let key_missed = shard
            .edit(&self.backend, &key, |data| {
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
                    data.siblings.merge_version(&self.backend, incoming, false);
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
    /// sibling-set hash, each with its own (`0` when lacking).
    fn pick_wanted(&self, replica: usize, offered: &[DigestEntry]) -> Vec<(Key, u64)> {
        offered
            .iter()
            .filter_map(|line| {
                let shard = self.replicas[replica].shard(self.shards.index(&line.key)).read();
                match shard.get(&line.key) {
                    Some(data) if data.siblings.versions_hash() == line.ctx_fp => None,
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
                let (deltas, skipped) = self
                    .ship_keys(replica, wanted.iter().map(|(key, ctx_fp)| (key, Some(*ctx_fp))));
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

    /// Quiescent-point compaction, shard by shard: for every key whose
    /// sibling set has converged to a single version on every replica, the
    /// backend re-mints the surviving version's clock and every replica's
    /// element is re-rooted at its lend; keys whose sole surviving version
    /// is a tombstone are dropped outright.
    ///
    /// Takes `&mut self`: compaction rewrites clocks wholesale, so it must
    /// run at a true quiescent point (no concurrent clients or gossip) —
    /// the exclusive borrow enforces exactly that. It also needs this
    /// cluster's replicas to be the key's only holders: a store that
    /// exchanges with other stores (a [`Node`](crate::Node)) never
    /// compacts.
    pub fn compact(&mut self) -> CompactionStats {
        let mut stats = CompactionStats::default();
        for shard_index in 0..self.shards.count() {
            // A key every replica holds is one replica 0 holds.
            let keys: Vec<Key> = self.replicas[0]
                .shard(shard_index)
                .read()
                .iter()
                .map(|(key, _)| key.clone())
                .collect();
            for key in keys {
                // Gather every replica's single version.
                let mut versions: Vec<StoredVersion<B>> = Vec::with_capacity(self.replicas.len());
                for replica in &self.replicas {
                    let shard = replica.shard(shard_index).read();
                    match shard.get(&key) {
                        Some(data) if data.siblings.len() == 1 => versions
                            .push(data.siblings.iter().next().expect("length checked").clone()),
                        _ => break,
                    }
                }
                if versions.len() != self.replicas.len() {
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
                    stats.keys_dropped += 1;
                    continue;
                }
                let Some(fresh_clock) = self.backend.compact_quiescent() else { continue };
                for (replica, lend) in self.replicas.iter().zip(&self.lends) {
                    replica
                        .shard(shard_index)
                        .write()
                        .edit(&self.backend, &key, |data| {
                            data.reroot(self.backend.new_key(lend));
                            data.siblings.remint(&self.backend, fresh_clock.clone());
                        })
                        .expect("eligibility checked");
                }
                stats.keys_recycled += 1;
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
    use crate::backend::{DynamicVvBackend, VstampBackend};
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
        let left = cluster.put(0, "k", b"left".to_vec(), None);
        let right = cluster.put(1, "k", b"right".to_vec(), None);
        // A first write's clock is its dot, which lies under its own
        // replica's lend (`{0}` and `{1}`) and outside the other's.
        for (replica, dot) in [&left, &right].into_iter().enumerate() {
            assert!(dot.cover_leq(&cluster.lends[replica]), "{dot} left lend {replica}");
            assert!(!dot.cover_leq(&cluster.lends[1 - replica]), "{dot} in lend {}", 1 - replica);
        }
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
    fn a_replica_that_learns_a_key_roots_it_at_the_shipped_part() {
        let cluster = Cluster::new(VstampBackend::gc(), 3, 4);
        cluster.put(0, "k", b"v".to_vec(), None);
        let element = |replica: usize| {
            let shard = cluster.replicas[replica].shard(cluster.shards.index("k")).read();
            shard.get("k").map(|data| data.element().clone())
        };
        let held = element(0).expect("replica 0 wrote k");
        // The split the responder's detach makes, computed on a copy.
        let (kept, part) = cluster.backend().detach(&mut (), &held);
        cluster.anti_entropy(1, 0);
        assert_eq!(cluster.get(1, "k").values(), vec![b"v".to_vec()]);
        assert_eq!(element(1), Some(part.clone()), "the learner roots k at the shipped part");
        assert_eq!(element(0), Some(kept.clone()), "the holder keeps the rest");
        // As regions: kept and part are disjoint and together the old id.
        assert_eq!(kept.cover_join(&part), held, "the holder lost exactly the shipped part");
        for (s, t) in
            kept.strings().iter().flat_map(|s| part.strings().into_iter().map(move |t| (s, t)))
        {
            assert!(s.is_incomparable_with(&t), "{s} and {t} overlap");
        }
        assert_eq!(element(2), None, "nothing is cut for a replica that never asked");
        // A second adopting delta — replica 0 splits again for a requester
        // it believes lacks the key — meets a held key and is ignored.
        let (deltas, _) = cluster.respond_delta(0, &[]);
        assert!(deltas[0].element.is_some());
        let (payload, _) = encode_delta(cluster.backend(), &deltas, DeltaPolicy::FULL_ONLY);
        let root = cluster.digest_root(1);
        let decoded = decode_delta(cluster.backend(), &payload).expect("decodes");
        assert!(cluster.apply_delta_batch(1, decoded).is_empty());
        assert_eq!((element(1), cluster.digest_root(1)), (Some(part), root));
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
        let tiny = Cluster::with_config(VstampBackend::gc(), ClusterConfig::new(0, 0));
        assert_eq!(tiny.replica_count(), 1);
        assert_eq!(tiny.shard_count(), 1);
    }

    #[test]
    fn exchanges_skip_in_sync_keys() {
        let cluster = Cluster::new(VstampBackend::gc(), 2, 2);
        let hash = |replica: usize, key: &str| {
            let shard = cluster.replicas[replica].shard(cluster.shards.index(key)).read();
            shard.get(key).map(|data| data.siblings.versions_hash())
        };
        cluster.put(0, "a", b"1".to_vec(), None);
        let context = cluster.put(0, "b", b"1".to_vec(), None);
        full_sweep(&cluster);
        // `a` stays in sync, `b` moves on at replica 0, `c` is new there
        // and `d` exists only at replica 1.
        cluster.put(0, "b", b"2".to_vec(), Some(&context));
        cluster.put(0, "c", b"1".to_vec(), None);
        cluster.put(1, "d", b"1".to_vec(), None);
        let probe = Envelope { from: 1, kind: MessageKind::Probe, payload: encode_probe(0, 0) };
        let (reply, _) = cluster.serve(0, &probe).expect("an honest probe");
        let offer = decode_offer(&reply.payload).expect("an offer");
        // Each line carries the responder's sibling-set hash and nothing
        // else of the key's state.
        let mut offered: Vec<&str> = offer.lines.iter().map(|line| line.key.as_str()).collect();
        offered.sort_unstable();
        assert_eq!(offered, ["a", "b", "c"]);
        for line in &offer.lines {
            assert_eq!(Some(line.ctx_fp), hash(0, &line.key), "{}", line.key);
        }
        // The Want lists exactly the keys whose hash differs, each with the
        // requester's own hash, and 0 for the one it lacks.
        let mut wanted = cluster.pick_wanted(1, &offer.lines);
        wanted.sort();
        let b_hash = hash(1, "b").expect("held");
        assert_ne!(Some(b_hash), hash(0, "b"));
        assert_eq!(wanted, [("b".to_owned(), b_hash), ("c".to_owned(), 0)]);
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
        // Every replica in turn writes over the set it read, and every
        // other replica then pulls from the writer, so each pull is exactly
        // one version behind — the delta-frame sweet spot. Once all eight
        // incarnations wrote, a dynamic-vv clock carries eight vector
        // entries, full frames outgrow dot + fingerprint and the adaptive
        // encoder switches over.
        const REPLICAS: usize = 8;
        let run = |config: ClusterConfig| {
            let cluster = Cluster::with_config(DynamicVvBackend::new(), config);
            for round in 0..24u8 {
                let writer = usize::from(round) % REPLICAS;
                let read = cluster.get(writer, "hot");
                cluster.put(writer, "hot", vec![round], read.context());
                for requester in (0..REPLICAS).filter(|&requester| requester != writer) {
                    cluster.anti_entropy(requester, writer);
                }
            }
            full_sweep(&cluster);
            assert!(cluster.converged(), "workload must converge");
            assert_eq!(
                cluster.get(1, "hot").values(),
                vec![vec![23u8]],
                "the last write must win everywhere"
            );
            cluster.gossip_stats()
        };
        let adaptive = run(ClusterConfig::new(REPLICAS, 4));
        assert!(adaptive.delta_frames > 0, "one-behind pulls must ship delta frames");
        assert!(adaptive.wire_bytes_saved > 0, "delta frames must undercut their full frames");
        assert_eq!(adaptive.nak_refetches, 0, "serial exchanges never miss");

        // Perturbed fingerprints force every delta frame to miss: the
        // NAK/full-frame fallback carries the exchange and the cluster
        // still converges to the same state (asserted inside `run`).
        let perturbed = run(ClusterConfig::new(REPLICAS, 4).with_perturbed_fingerprints());
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
        let read = || (counted::SHARD_LOCKS.with(Cell::get), counted::CTX_REBUILDS.with(Cell::get));
        let (locks_before, rebuilds_before) = read();
        let misses = cluster.apply_delta_batch(1, decoded);
        assert!(misses.is_empty());
        let (locks_after, rebuilds_after) = read();
        // One data-shard lock per touched shard — not one per key, and no
        // other lock — plus at most one context rebuild per key.
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
                lines.push((key.clone(), data.siblings.versions_hash()));
            }
        }
        lines.sort_by(|a, b| a.0.cmp(&b.0));
        let mut root = fnv1a(b"digest-root");
        for (key, hash) in &lines {
            root = fnv1a_extend(root, &(key.len() as u64).to_le_bytes());
            root = fnv1a_extend(root, key.as_bytes());
            root = fnv1a_extend(root, &hash.to_le_bytes());
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
                    let ctx_fp = data.siblings.versions_hash();
                    expected_root =
                        expected_root.wrapping_add(root_term(fnv1a(key.as_bytes()), ctx_fp));
                    expected_lines.push(DigestEntry { key: key.clone(), ctx_fp });
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
            /// The length of the string each node rooted each key at.
            roots: HashMap<(usize, Key), usize>,
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
            /// A write at node `at`, rooting a key it lacks at `lend`.
            fn write(
                &mut self,
                node: &Cluster<VstampBackend>,
                at: usize,
                key: usize,
                causal: bool,
                lend: &PackedName,
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
                let value = id.to_le_bytes().to_vec();
                node.put_rooted(0, &name, value, read.context().filter(|_| causal), lend);
                self.covers.push(covered);
                self.origin.push((at, key));
            }

            /// Every element holds no more strings than its deepest string
            /// has bits below the key's root (the dot mint's bound; at
            /// least one), no node shows a write next to one that covers it
            /// or loses a write it took, and once `settled`, every node
            /// shows exactly the uncovered writes. A node that adopted a
            /// key is first seen holding the one string it rooted it at.
            fn check(&mut self, nodes: &[Cluster<VstampBackend>], step: usize, settled: bool) {
                let covered: HashSet<u32> = self.covers.iter().flatten().copied().collect();
                for (at, node) in nodes.iter().enumerate() {
                    for (key, id) in node_elements(node) {
                        let root = *self.roots.entry((at, key.clone())).or_insert(id.depth());
                        let below = id.depth().saturating_sub(root).max(1);
                        assert!(
                            id.string_count() <= below,
                            "step {step}: node {at} has {id} at {key}, root {root}"
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
        let mut oracle = Oracle::default();
        let mut membership = VersionStamp::seed();
        for key in 0..KEYS {
            if key == KEYS - 2 {
                let fragmented = "{00, 1}".parse().expect("a name");
                membership = VersionStamp::from_parts(PackedName::epsilon(), fragmented)
                    .expect("{ε} ⊑ {00, 1}");
            }
            let (keep, lend) = membership.fork();
            let root = lend.id_name().shallowest_string().expect("a lend owns id space");
            oracle.roots.insert((0, format!("k{key}")), root.len());
            oracle.write(&nodes[0], 0, key, false, lend.id_name());
            membership = keep;
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
                if nodes[at].holds(0, &format!("k{key}")) {
                    let causal = rng.gen_range(0..10u32) < 7;
                    oracle.write(&nodes[at], at, key, causal, &PackedName::empty());
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

    /// One key's delta as a requester decodes it: `element` as the
    /// shipped part, `versions` as full frames.
    fn wire_delta(
        node: &Cluster<VstampBackend>,
        element: Option<&str>,
        versions: Vec<StoredVersion<VstampBackend>>,
    ) -> Vec<WireKeyDelta<VstampBackend>> {
        let element = element.map(|element| element.parse().expect("a name"));
        let deltas = [KeyDelta { key: "k".into(), element, versions, assumed_fp: 0 }];
        let (payload, _) = encode_delta(node.backend(), &deltas, DeltaPolicy::FULL_ONLY);
        decode_delta(node.backend(), &payload).expect("decodes")
    }

    #[test]
    fn a_multi_string_foreign_element_roots_the_key_once_and_a_second_is_ignored() {
        let node = Cluster::new(VstampBackend::gc(), 1, 4);
        assert!(node.apply_delta_batch(0, wire_delta(&node, None, Vec::new())).is_empty());
        assert!(!node.holds(0, "k"), "a key is never rooted without a shipped part");
        // A two-string part roots the key at its shallowest string.
        assert!(node
            .apply_delta_batch(0, wire_delta(&node, Some("{001, 11}"), Vec::new()))
            .is_empty());
        assert_eq!(node_elements(&node)[0].1.to_string(), "{11}");
        node.put(0, "k", vec![1], None);
        let element = node_elements(&node)[0].1.clone();
        // A second adopting delta for the key — another peer's part, or a
        // late copy of the first — meets a held key and is ignored.
        for part in ["{0001, 101}", "{001, 11}"] {
            assert!(node
                .apply_delta_batch(0, wire_delta(&node, Some(part), Vec::new()))
                .is_empty());
            assert_eq!(node_elements(&node)[0].1, element, "{part} reached the element");
        }
        assert_eq!(node.get(0, "k").values(), vec![vec![1]]);
    }

    #[test]
    fn a_want_for_a_held_key_gets_an_empty_element_frame() {
        // Two nodes; `b` adopts the key on its first pull, and from then on
        // every Delta `a` sends it carries an empty element frame, neither
        // end's element moves, and the versions still flow.
        let a = Cluster::new(VstampBackend::gc(), 1, 4);
        let b = Cluster::new(VstampBackend::gc(), 1, 4);
        let (_, lend) = VersionStamp::seed().fork();
        a.put_rooted(0, "k", b"v1".to_vec(), None, lend.id_name());
        node_pull(&b, &a, &mut PullCursor::default());
        assert_eq!(b.get(0, "k").values(), vec![b"v1".to_vec()]);
        let (a_element, b_element) = (node_elements(&a), node_elements(&b));
        let read = a.get(0, "k");
        a.put(0, "k", b"v2".to_vec(), read.context());
        // The want `b`'s engine would send: the key, held under its own
        // sibling-set hash.
        let wanted = b.pick_wanted(0, &a.build_digest(0));
        assert!(wanted.iter().all(|(_, ctx_fp)| *ctx_fp != 0), "{wanted:?}");
        let request = Envelope { from: 0, kind: MessageKind::Want, payload: encode_want(&wanted) };
        let (reply, _) = a.serve(0, &request).expect("an honest want");
        let decoded = decode_delta(b.backend(), &reply.payload).expect("decodes");
        assert!(decoded.iter().all(|delta| delta.element.is_none()), "a held key got a part");
        assert!(b.apply_delta_batch(0, decoded).is_empty());
        assert_eq!(b.get(0, "k").values(), vec![b"v2".to_vec()]);
        // The responder's element only spent the write's dot: nothing was
        // split off it for a requester that holds the key.
        assert_eq!(node_elements(&a)[0].1, a_element[0].1.mint_dot().0);
        assert_eq!(node_elements(&b), b_element, "the requester's element moved");
    }

    #[test]
    fn a_forged_or_late_element_for_a_held_key_changes_nothing() {
        let node = Cluster::new(VstampBackend::gc(), 1, 4);
        let (_, lend) = VersionStamp::seed().fork();
        node.put_rooted(0, "k", b"mine".to_vec(), None, lend.id_name());
        let elements = node_elements(&node);
        let (root, digest) = (node.digest_root(0), node.build_digest(0));
        // A part covering the whole space (forged), and one inside the
        // node's own element (a replay of a part it was once granted).
        for part in ["{ε}", "{1}", "{11}"] {
            assert!(node
                .apply_delta_batch(0, wire_delta(&node, Some(part), Vec::new()))
                .is_empty());
            assert_eq!(node_elements(&node), elements, "{part}");
            assert_eq!((node.digest_root(0), node.build_digest(0)), (root, digest.clone()));
        }
        assert_eq!(node.get(0, "k").values(), vec![b"mine".to_vec()]);
    }

    #[test]
    fn a_double_rooted_key_keeps_both_first_writes() {
        // Two nodes root the same key at once, each from its own half of
        // the seed, deepened `depth` times. Nothing ever joins space into
        // an element, so each node's first write mints a dot under its own
        // root and the exchange keeps both values.
        let (left, right) = VersionStamp::seed().fork();
        for depth in [0usize, 4, 8, 16, 64] {
            let nodes = [(left.clone(), b"left"), (right.clone(), b"rght")].map(
                |(mut membership, value)| {
                    for _ in 0..depth {
                        membership = membership.fork().0;
                    }
                    let node = Cluster::new(VstampBackend::gc(), 1, 4);
                    node.put_rooted(0, "k", value.to_vec(), None, membership.fork().1.id_name());
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
    fn two_roots_of_one_key_keep_disjoint_elements_and_every_write() {
        // One key rooted at a 2-bit string on `shallow` and at a 30-bit one
        // on `deep`, as when two nodes first-touch it at once. A causal
        // chain of writes deepens `shallow`'s element past 32 bits, below
        // `deep`'s root depth; then both write blind and exchange. Each
        // element stays under its own root, the two stay disjoint, every
        // dot is disjoint from every other, and no write is lost.
        let roots: [BitString; 2] =
            ["01".parse().expect("a bit string"), "10".repeat(15).parse().expect("a bit string")];
        let lends = roots.clone().map(|root| PackedName::singleton(&root));
        let stores = [(); 2].map(|()| Cluster::new(VstampBackend::gc(), 1, 4));
        // A write at store `which`, rooting the key there at its lend first.
        let put = |which: usize, id: u32, context: Option<&PackedName>| {
            stores[which].put_rooted(0, "k", id.to_le_bytes().to_vec(), context, &lends[which])
        };
        let [shallow, deep] = &stores;
        let element = |store: &Cluster<VstampBackend>| node_elements(store)[0].1.clone();
        let check = |step: &str| {
            for (store, root) in stores.iter().zip(&roots) {
                for s in element(store).strings() {
                    assert!(root.is_prefix_of(&s), "{step}: {s} left its root {root}");
                }
            }
            for s in element(shallow).strings() {
                for t in element(deep).strings() {
                    assert!(s.is_incomparable_with(&t), "{step}: {s} and {t} overlap");
                }
            }
        };
        let mut context = None;
        let mut id = 1000u32;
        for writes in 1.. {
            context = Some(put(0, id, context.as_ref()));
            id += 1;
            let depth = element(shallow).depth();
            if depth > 32 {
                break;
            }
            // 121 writes reach 33 bits; a cap far above that fails, not spins.
            assert!(writes < 1_000, "{writes} causal writes left the element {depth} bits deep");
        }
        let mut live = vec![id - 1];
        let mut dots: Vec<BitString> = Vec::new();
        let mut blind_write = |which: usize| {
            let id = live.len() as u32;
            let dot = put(which, id, None);
            dots.push(dot.shallowest_string().expect("a dot"));
            live.push(id);
        };
        blind_write(1);
        let mut cursors = [PullCursor::default(); 2];
        node_pull(shallow, deep, &mut cursors[0]);
        node_pull(deep, shallow, &mut cursors[1]);
        check("after the first exchange");
        for step in 0..12 {
            blind_write(step % 2);
            check(&format!("write {step}"));
            if step % 3 == 2 {
                node_pull(shallow, deep, &mut cursors[0]);
                node_pull(deep, shallow, &mut cursors[1]);
                check(&format!("exchange {step}"));
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
