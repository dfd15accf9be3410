//! Anti-entropy wire protocol: probe, offer, want, delta and NAK messages,
//! chunked into the length-prefixed frames of [`vstamp_core::codec`].
//!
//! The exchange is pull-based and batched:
//!
//! 1. the requester sends a **probe** — its digest root and how far into
//!    the responder's change sequence its last proven pull reached;
//! 2. the responder answers **ack** when the roots match, otherwise an
//!    **offer** — one digest line `(key, fingerprint, ctx_fp)` per key it
//!    changed after that point, where `ctx_fp` is the sibling set's
//!    order-independent hash and the fingerprint a hash of `ctx_fp`;
//! 3. the requester answers with a **want** — the offered keys it lacks or
//!    holds under another fingerprint, each with its own `ctx_fp` (the
//!    context fingerprint delta frames are gated on);
//! 4. the responder ships a **delta** — for every wanted key the sibling
//!    versions the requester does not provably hold, and, only for a key
//!    the requester lacks (`ctx_fp` 0), an element part split off the
//!    responder's own; for a held key the element frame is empty. Each
//!    version rides either a *full* clock frame (the canonical encoding)
//!    or, when the version's mint-time context fingerprint equals the
//!    requester's `ctx_fp`, a *delta* frame: just the minting dot plus
//!    that fingerprint ([`DeltaFrame`]);
//! 5. the requester merges the versions into its sibling sets. A key it
//!    lacked is first rooted at the shipped element part (a single-replica
//!    store; a multi-replica one claims the key's initial element); a
//!    shipped element for a key it holds is ignored, so a duplicated,
//!    late or replayed delta only re-merges versions, which is idempotent.
//!    A delta frame whose fingerprint still matches the local sibling set
//!    reconstructs its clock as `context ⊔ dot` — one join instead of a
//!    full clock on the wire. A mismatch (the set changed between want and
//!    apply, or a deliberately perturbed fingerprint) marks the key
//!    **missed**;
//! 6. missed keys go back in a **NAK**, answered with full frames only —
//!    correctness never depends on the fingerprint, only the fast path.
//!
//! All message payloads are self-contained byte buffers, so the same
//! encoding serves the in-process exchange and the TCP nodes (one engine,
//! [`Cluster::pull`](crate::Cluster::pull) and
//! [`Cluster::serve`](crate::Cluster::serve), drives both). Byte accounting is envelope-inclusive via
//! [`envelope_len`] — the honest end-to-end cost of a message, not just
//! its payload.
//!
//! Delta assembly *borrows*: a shipped sibling set is a vector of
//! [`StoredVersion`]s (`Arc` bumps, no value copies), each full clock
//! rides its already-cached canonical bytes, each delta frame its cached
//! dot bytes, and the decoder hands validated full-clock frames straight
//! back to the stored-version cache instead of re-encoding.

use std::sync::Arc;

use vstamp_core::codec::{
    read_delta_frame, read_frame, read_varint, varint_len, write_delta_frame, write_frame,
    write_varint, DeltaFrame,
};
use vstamp_core::DecodeError;

use crate::backend::StoreBackend;
use crate::store::{DeltaOrigin, Key, StoredVersion, Value, Version};

/// One digest line: a key and the fingerprints of the sender's state for
/// it — the requester's in a digest, the responder's in an offer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DigestEntry {
    /// The key.
    pub key: Key,
    /// FNV-1a over the sibling-set hash, so a function of `ctx_fp`; equal
    /// fingerprints mean the exchange can skip the key.
    pub fingerprint: u64,
    /// The sibling set's order-independent hash on its own — the wrapping
    /// sum of the sender's per-version content hashes. Given the
    /// requester's (in a digest or a want), the responder gates delta
    /// frames on it (a version whose mint-time context hash equals this can
    /// ship as dot + fingerprint) and runs subset-sum over its own
    /// versions' hashes against it to infer which versions the requester
    /// already holds, skipping those.
    pub ctx_fp: u64,
}

/// The per-key payload of a delta message.
#[derive(Debug)]
pub struct KeyDelta<B: StoreBackend> {
    /// The key being shipped.
    pub key: Key,
    /// The part of the responder's element split off for a requester that
    /// lacks the key, which roots its copy of the key at it; `None` (an
    /// empty frame on the wire) for a requester that holds the key.
    pub element: Option<B::Element>,
    /// The responder's full sibling set for the key (shared, not copied).
    pub versions: Vec<StoredVersion<B>>,
    /// The requester's context fingerprint from its want or digest (`0`,
    /// the empty-set hash, when the requester lacks the key) — the gate
    /// for shipping a version as a delta frame.
    pub assumed_fp: u64,
}

impl<B: StoreBackend> Clone for KeyDelta<B> {
    fn clone(&self) -> Self {
        KeyDelta {
            key: self.key.clone(),
            element: self.element.clone(),
            versions: self.versions.clone(),
            assumed_fp: self.assumed_fp,
        }
    }
}

impl<B: StoreBackend> PartialEq for KeyDelta<B> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
            && self.element == other.element
            && self.versions == other.versions
            && self.assumed_fp == other.assumed_fp
    }
}

/// One decoded version off the wire: either a complete stored version
/// (full clock frame) or a delta frame awaiting reconstruction against the
/// receiver's sibling-set context.
#[derive(Debug)]
pub enum WireVersion<B: StoreBackend> {
    /// A full frame: clock decoded and cached, ready to merge.
    Full(StoredVersion<B>),
    /// A delta frame: the minting dot (decoded and validated) plus the
    /// fingerprint of the context it must be joined with.
    Delta {
        /// The minting dot as a standalone clock.
        dot: B::Clock,
        /// The dot's canonical wire bytes (retained as the reconstructed
        /// version's origin, so it can be forwarded as a delta again).
        dot_bytes: Arc<[u8]>,
        /// Mint-time context fingerprint; must equal the receiving sibling
        /// set's hash for reconstruction to be sound.
        ctx_fp: u64,
        /// The version's value (`None` is a tombstone).
        value: Option<Value>,
    },
}

impl<B: StoreBackend> PartialEq for WireVersion<B> {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (WireVersion::Full(a), WireVersion::Full(b)) => a == b,
            (
                WireVersion::Delta { dot: a, ctx_fp: fa, value: va, .. },
                WireVersion::Delta { dot: b, ctx_fp: fb, value: vb, .. },
            ) => a == b && fa == fb && va == vb,
            _ => false,
        }
    }
}

/// The per-key unit of a decoded delta message.
#[derive(Debug)]
pub struct WireKeyDelta<B: StoreBackend> {
    /// The key being shipped.
    pub key: Key,
    /// The shipped element part, `None` when the frame was empty (see
    /// [`KeyDelta::element`]).
    pub element: Option<B::Element>,
    /// The shipped versions, full or delta.
    pub versions: Vec<WireVersion<B>>,
}

impl<B: StoreBackend> PartialEq for WireKeyDelta<B> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key && self.element == other.element && self.versions == other.versions
    }
}

/// Message kind tag carried by a gossip envelope.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MessageKind {
    /// An O(1) convergence probe (payload: the requester's digest root —
    /// the order-insensitive sum over its per-key fingerprints — and the
    /// sequence number its pull cursor for this responder stands at, `0`
    /// on first contact). Answered with [`MessageKind::Ack`] when the
    /// responder's root matches (nothing to exchange) or
    /// [`MessageKind::Offer`] when it does not.
    Probe,
    /// A probe hit: the peers' digest roots match, the exchange is over.
    Ack,
    /// A probe miss (payload: an encoded [`Offer`]): the responder's
    /// instance, the cursor position it served from, its change sequence
    /// number from before it looked, and one digest line per key changed
    /// in between. The requester follows up with [`MessageKind::Want`], or
    /// with nothing when it already holds every offered state.
    Offer,
    /// A delta response (payload: encoded key deltas).
    Delta,
    /// A fingerprint-miss report (payload: encoded key list); answered
    /// with a full-frames-only delta.
    Nak,
    /// The requester's pick from an offer (payload: `(key, ctx_fp)` per
    /// offered key it lacks or holds under another fingerprint, `ctx_fp`
    /// being its own sibling-set hash, `0` for a key it lacks). Answered
    /// with [`MessageKind::Delta`].
    Want,
    /// A membership join request (payload: the joiner's advertised
    /// address). Answered with [`MessageKind::JoinAck`] carrying a forked
    /// half of the sponsor's membership stamp — decentralized creation.
    Join,
    /// A join grant: the encoded identity stamp plus a member-table
    /// snapshot for peer discovery.
    JoinAck,
    /// A client read (payload: the key). Answered with
    /// [`MessageKind::GetOk`].
    Get,
    /// A client read response: sibling values plus an opaque causal
    /// context.
    GetOk,
    /// A client write (payload: key, value, optional causal context).
    /// Answered with [`MessageKind::PutOk`].
    Put,
    /// A client write acknowledgement.
    PutOk,
    /// A status probe (empty payload). Answered with
    /// [`MessageKind::StatusOk`].
    Status,
    /// A status report: digest root, member counts, membership-id size,
    /// retirement and eviction counts, member table.
    StatusOk,
}

impl MessageKind {
    /// The kind's one-byte wire tag. Tag 3 was the requester-sent whole
    /// digest; it is retired, not reused.
    #[must_use]
    pub fn tag(self) -> u8 {
        match self {
            MessageKind::Probe => 0,
            MessageKind::Ack => 1,
            MessageKind::Offer => 2,
            MessageKind::Delta => 4,
            MessageKind::Nak => 5,
            MessageKind::Join => 6,
            MessageKind::JoinAck => 7,
            MessageKind::Get => 8,
            MessageKind::GetOk => 9,
            MessageKind::Put => 10,
            MessageKind::PutOk => 11,
            MessageKind::Status => 12,
            MessageKind::StatusOk => 13,
            MessageKind::Want => 14,
        }
    }

    /// The kind for a wire tag, or `None` for an unknown tag.
    #[must_use]
    pub fn from_tag(tag: u8) -> Option<MessageKind> {
        Some(match tag {
            0 => MessageKind::Probe,
            1 => MessageKind::Ack,
            2 => MessageKind::Offer,
            4 => MessageKind::Delta,
            5 => MessageKind::Nak,
            6 => MessageKind::Join,
            7 => MessageKind::JoinAck,
            8 => MessageKind::Get,
            9 => MessageKind::GetOk,
            10 => MessageKind::Put,
            11 => MessageKind::PutOk,
            12 => MessageKind::Status,
            13 => MessageKind::StatusOk,
            14 => MessageKind::Want,
            _ => return None,
        })
    }
}

/// A routed gossip message: sender index, kind, and the encoded payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope {
    /// Index of the sending replica.
    pub from: usize,
    /// What the payload encodes.
    pub kind: MessageKind,
    /// The encoded digest, delta or NAK.
    pub payload: Vec<u8>,
}

/// End-to-end wire size of one message: kind byte, varint sender index,
/// varint-framed payload. The in-process exchange hands [`Envelope`]
/// structs over directly, but every byte count the store reports uses this
/// serialized form, so the counts are honest about header overhead.
#[must_use]
pub fn envelope_len(from: usize, payload_len: usize) -> usize {
    1 + varint_len(from as u64) + varint_len(payload_len as u64) + payload_len
}

/// Serializes an envelope into exactly the [`envelope_len`] form the store
/// has always *accounted* in: kind tag byte, varint sender, varint-framed
/// payload. This is the unit the TCP transport length-prefixes onto the
/// socket — promoting the modeled wire cost to the actual one.
#[must_use]
pub fn encode_envelope(envelope: &Envelope) -> Vec<u8> {
    let mut out = Vec::with_capacity(envelope_len(envelope.from, envelope.payload.len()));
    write_envelope(&mut out, envelope);
    out
}

/// Appends the [`encode_envelope`] form of `envelope` to `out` — the one
/// envelope encoder, shared with the socket framing, which writes it
/// behind a reserved length prefix.
pub(crate) fn write_envelope(out: &mut Vec<u8>, envelope: &Envelope) {
    out.push(envelope.kind.tag());
    write_varint(out, envelope.from as u64);
    write_frame(out, &envelope.payload);
}

/// Deserializes an envelope produced by [`encode_envelope`].
///
/// # Errors
///
/// Returns a [`DecodeError`] on an unknown kind tag, truncation, or
/// trailing bytes.
pub fn decode_envelope(bytes: &[u8]) -> Result<Envelope, DecodeError> {
    let (tag, mut input) = bytes.split_first().ok_or(DecodeError::UnexpectedEnd)?;
    let kind =
        MessageKind::from_tag(*tag).ok_or(DecodeError::Malformed("unknown envelope kind tag"))?;
    let from = read_varint(&mut input)? as usize;
    let payload = read_frame(&mut input)?.to_vec();
    if !input.is_empty() {
        return Err(DecodeError::TrailingData);
    }
    Ok(Envelope { from, kind, payload })
}

/// Encoding policy for [`encode_delta`]: whether delta frames may be
/// emitted at all, and whether their fingerprints are deliberately
/// perturbed (a test/bench knob that forces the miss→NAK fallback while
/// leaving every correctness property intact).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeltaPolicy {
    /// Emit delta frames when a version's origin matches the assumed
    /// context (otherwise every version ships full).
    pub delta_frames: bool,
    /// XOR a mask into every emitted delta-frame fingerprint so the
    /// receiver's genuine comparison misses.
    pub perturb_fingerprints: bool,
}

impl DeltaPolicy {
    /// The adaptive default: delta frames on, honest fingerprints.
    pub const ADAPTIVE: DeltaPolicy =
        DeltaPolicy { delta_frames: true, perturb_fingerprints: false };
    /// Full frames only — the NAK-refetch response policy: a full frame
    /// cannot miss.
    pub const FULL_ONLY: DeltaPolicy =
        DeltaPolicy { delta_frames: false, perturb_fingerprints: false };
}

/// The mask [`DeltaPolicy::perturb_fingerprints`] XORs into emitted
/// fingerprints.
pub(crate) const PERTURB_MASK: u64 = 0x5A5A_5A5A_5A5A_5A5A;

/// Frame counters of one [`encode_delta`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeltaEncodeStats {
    /// Versions emitted as delta frames (dot + fingerprint).
    pub delta_frames: usize,
    /// Versions emitted as full clock frames.
    pub full_frames: usize,
    /// Bytes the delta frames saved versus shipping their full clock
    /// frames (the adaptive check keeps every term non-negative).
    pub bytes_saved: usize,
    /// Total bytes of the clock frames actually emitted (full and delta),
    /// kind bytes and length prefixes included — `frame_bytes /
    /// (delta_frames + full_frames)` is the mean clock bytes shipped per
    /// replicated version.
    pub frame_bytes: usize,
    /// The delta frames' share of `frame_bytes` — `delta_frame_bytes /
    /// delta_frames` is the mean size of a delta frame (the O(1) figure),
    /// and adding `bytes_saved` recovers their full-frame cost.
    pub delta_frame_bytes: usize,
}

/// Splits a length-prefixed UTF-8 key off the front of `input`.
fn read_key(input: &mut &[u8]) -> Result<Key, DecodeError> {
    String::from_utf8(read_frame(input)?.to_vec())
        .map_err(|_| DecodeError::Malformed("key is not valid UTF-8"))
}

/// Splits a fixed-width little-endian `u64` off the front of `input`.
fn read_u64(input: &mut &[u8]) -> Result<u64, DecodeError> {
    if input.len() < 8 {
        return Err(DecodeError::UnexpectedEnd);
    }
    let (bytes, rest) = input.split_at(8);
    *input = rest;
    Ok(u64::from_le_bytes(bytes.try_into().expect("split_at(8) yields 8")))
}

/// Encodes a probe payload: the 8-byte root fingerprint, then the
/// requester's cursor position in the responder's change sequence.
#[must_use]
pub fn encode_probe(root: u64, since: u64) -> Vec<u8> {
    let mut out = root.to_le_bytes().to_vec();
    write_varint(&mut out, since);
    out
}

/// Decodes a probe payload into `(root, since)`.
///
/// # Errors
///
/// Returns a [`DecodeError`] on truncated input or trailing bytes.
pub fn decode_probe(bytes: &[u8]) -> Result<(u64, u64), DecodeError> {
    let mut input = bytes;
    let root = read_u64(&mut input)?;
    let since = read_varint(&mut input)?;
    if !input.is_empty() {
        return Err(DecodeError::TrailingData);
    }
    Ok((root, since))
}

/// The answer to a probe whose root missed: what the responder changed
/// after the requester's cursor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Offer {
    /// Names this incarnation of the responder's store. Drawn at random
    /// when the store is built and fixed-width on the wire, so no byte
    /// count depends on its value.
    pub instance: u64,
    /// The cursor position the lines were listed from: the probe's, or `0`
    /// when the responder's sequence has not reached that far (it
    /// restarted) and it listed every key instead.
    pub since: u64,
    /// The responder's change sequence number, read before it listed the
    /// lines: no change numbered `since < n <= upto` is missing from them.
    pub upto: u64,
    /// One digest line per listed key, the responder's state of it.
    pub lines: Vec<DigestEntry>,
}

/// Encodes an offer payload.
#[must_use]
pub fn encode_offer(offer: &Offer) -> Vec<u8> {
    let mut out = offer.instance.to_le_bytes().to_vec();
    write_varint(&mut out, offer.since);
    write_varint(&mut out, offer.upto);
    out.extend_from_slice(&encode_digest(&offer.lines));
    out
}

/// Decodes an offer payload.
///
/// # Errors
///
/// Returns a [`DecodeError`] on truncated or malformed input.
pub fn decode_offer(bytes: &[u8]) -> Result<Offer, DecodeError> {
    let mut input = bytes;
    let instance = read_u64(&mut input)?;
    let since = read_varint(&mut input)?;
    let upto = read_varint(&mut input)?;
    Ok(Offer { instance, since, upto, lines: decode_digest(input)? })
}

/// Encodes a want payload: each wanted key with the requester's sibling-set
/// hash for it.
#[must_use]
pub fn encode_want(wanted: &[(Key, u64)]) -> Vec<u8> {
    let mut out = Vec::new();
    write_varint(&mut out, wanted.len() as u64);
    for (key, ctx_fp) in wanted {
        write_frame(&mut out, key.as_bytes());
        out.extend_from_slice(&ctx_fp.to_le_bytes());
    }
    out
}

/// Decodes a want payload.
///
/// # Errors
///
/// Returns a [`DecodeError`] on truncated or malformed input.
pub fn decode_want(bytes: &[u8]) -> Result<Vec<(Key, u64)>, DecodeError> {
    let mut input = bytes;
    let count = read_varint(&mut input)?;
    let mut wanted = Vec::with_capacity(count.min(1 << 16) as usize);
    for _ in 0..count {
        let key = read_key(&mut input)?;
        wanted.push((key, read_u64(&mut input)?));
    }
    if !input.is_empty() {
        return Err(DecodeError::TrailingData);
    }
    Ok(wanted)
}

/// Encodes a digest message payload.
#[must_use]
pub fn encode_digest(entries: &[DigestEntry]) -> Vec<u8> {
    let mut out = Vec::new();
    write_varint(&mut out, entries.len() as u64);
    for entry in entries {
        write_frame(&mut out, entry.key.as_bytes());
        write_varint(&mut out, entry.fingerprint);
        out.extend_from_slice(&entry.ctx_fp.to_le_bytes());
    }
    out
}

/// Decodes a digest message payload.
///
/// # Errors
///
/// Returns a [`DecodeError`] on truncated or malformed input.
pub fn decode_digest(bytes: &[u8]) -> Result<Vec<DigestEntry>, DecodeError> {
    let mut input = bytes;
    let count = read_varint(&mut input)?;
    let mut entries = Vec::with_capacity(count.min(1 << 16) as usize);
    for _ in 0..count {
        let key = read_key(&mut input)?;
        let fingerprint = read_varint(&mut input)?;
        let ctx_fp = read_u64(&mut input)?;
        entries.push(DigestEntry { key, fingerprint, ctx_fp });
    }
    if !input.is_empty() {
        return Err(DecodeError::TrailingData);
    }
    Ok(entries)
}

/// Encodes a NAK payload: the keys whose delta frames missed.
#[must_use]
pub fn encode_nak(keys: &[Key]) -> Vec<u8> {
    let mut out = Vec::new();
    write_varint(&mut out, keys.len() as u64);
    for key in keys {
        write_frame(&mut out, key.as_bytes());
    }
    out
}

/// Decodes a NAK payload.
///
/// # Errors
///
/// Returns a [`DecodeError`] on truncated or malformed input.
pub fn decode_nak(bytes: &[u8]) -> Result<Vec<Key>, DecodeError> {
    let mut input = bytes;
    let count = read_varint(&mut input)?;
    let mut keys = Vec::with_capacity(count.min(1 << 16) as usize);
    for _ in 0..count {
        keys.push(read_key(&mut input)?);
    }
    if !input.is_empty() {
        return Err(DecodeError::TrailingData);
    }
    Ok(keys)
}

/// Encodes a delta message payload with the backend's codec, picking full
/// versus delta per version: a version ships as a delta frame when the
/// policy allows it, its mint-time context fingerprint equals the key's
/// `assumed_fp`, *and* the delta frame is actually smaller. Full clock
/// frames reuse each version's cached canonical bytes, delta frames its
/// cached dot bytes — nothing is re-encoded.
#[must_use]
pub fn encode_delta<B: StoreBackend>(
    backend: &B,
    deltas: &[KeyDelta<B>],
    policy: DeltaPolicy,
) -> (Vec<u8>, DeltaEncodeStats) {
    let mut out = Vec::new();
    let mut scratch = Vec::new();
    let mut stats = DeltaEncodeStats::default();
    let fp_mask = if policy.perturb_fingerprints { PERTURB_MASK } else { 0 };
    write_varint(&mut out, deltas.len() as u64);
    for delta in deltas {
        write_frame(&mut out, delta.key.as_bytes());
        scratch.clear();
        if let Some(element) = &delta.element {
            backend.encode_element(element, &mut scratch);
        }
        write_frame(&mut out, &scratch);
        write_varint(&mut out, delta.versions.len() as u64);
        for version in &delta.versions {
            let full = DeltaFrame::Full { clock: version.clock_bytes() };
            let slim = policy
                .delta_frames
                .then(|| version.origin())
                .flatten()
                .filter(|origin| origin.ctx_fp == delta.assumed_fp)
                .map(|origin| DeltaFrame::Delta {
                    dot: &origin.dot_bytes,
                    ctx_fp: origin.ctx_fp ^ fp_mask,
                })
                .filter(|frame| frame.encoded_len() < full.encoded_len());
            match slim {
                Some(frame) => {
                    stats.delta_frames += 1;
                    stats.bytes_saved += full.encoded_len() - frame.encoded_len();
                    stats.frame_bytes += frame.encoded_len();
                    stats.delta_frame_bytes += frame.encoded_len();
                    write_delta_frame(&mut out, &frame);
                }
                None => {
                    stats.full_frames += 1;
                    stats.frame_bytes += full.encoded_len();
                    write_delta_frame(&mut out, &full);
                }
            }
            match &version.version().value {
                Some(value) => {
                    out.push(1);
                    write_frame(&mut out, value);
                }
                None => out.push(0),
            }
        }
    }
    (out, stats)
}

/// Decodes a delta message payload with the backend's codec. Full frames
/// come back as ready [`StoredVersion`]s (the validated clock frame is
/// retained as the cached canonical bytes — the receive path never
/// re-encodes a clock); delta frames come back as decoded dots awaiting
/// context reconstruction in the store's apply path.
///
/// # Errors
///
/// Returns a [`DecodeError`] on truncated or malformed input (including
/// malformed embedded clocks, dots or elements).
pub fn decode_delta<B: StoreBackend>(
    backend: &B,
    bytes: &[u8],
) -> Result<Vec<WireKeyDelta<B>>, DecodeError> {
    let mut input = bytes;
    let count = read_varint(&mut input)?;
    let mut deltas = Vec::with_capacity(count.min(1 << 16) as usize);
    for _ in 0..count {
        let key = read_key(&mut input)?;
        let element = match read_frame(&mut input)? {
            [] => None,
            frame => Some(backend.decode_element(frame)?),
        };
        let version_count = read_varint(&mut input)?;
        let mut versions = Vec::with_capacity(version_count.min(1 << 16) as usize);
        for _ in 0..version_count {
            let frame = read_delta_frame(&mut input)?;
            let version = match frame {
                DeltaFrame::Full { clock: clock_frame } => {
                    let clock = backend.decode_clock(clock_frame)?;
                    let value = decode_value_flag(&mut input)?;
                    WireVersion::Full(StoredVersion::with_clock_bytes(
                        Version { clock, value },
                        Arc::from(clock_frame),
                        None,
                    ))
                }
                DeltaFrame::Delta { dot: dot_frame, ctx_fp } => {
                    let dot = backend.decode_clock(dot_frame)?;
                    let value = decode_value_flag(&mut input)?;
                    WireVersion::Delta { dot, dot_bytes: Arc::from(dot_frame), ctx_fp, value }
                }
            };
            versions.push(version);
        }
        deltas.push(WireKeyDelta { key, element, versions });
    }
    if !input.is_empty() {
        return Err(DecodeError::TrailingData);
    }
    Ok(deltas)
}

fn decode_value_flag(input: &mut &[u8]) -> Result<Option<Value>, DecodeError> {
    let (flag, rest) = input.split_first().ok_or(DecodeError::UnexpectedEnd)?;
    let flag = *flag;
    *input = rest;
    match flag {
        0 => Ok(None),
        1 => Ok(Some(read_frame(input)?.to_vec())),
        _ => Err(DecodeError::Malformed("unknown version flag")),
    }
}

/// Reconstructs a delta-frame version against the receiver's sibling-set
/// context: `clock = context ⊔ dot`, with the dot bytes and fingerprint
/// retained as the version's [`DeltaOrigin`] so it can ride the wire as a
/// delta again on the next hop.
#[must_use]
pub fn rebuild_wire_version<B: StoreBackend>(
    backend: &B,
    context: Option<&B::Clock>,
    dot: &B::Clock,
    dot_bytes: Arc<[u8]>,
    ctx_fp: u64,
    value: Option<Value>,
) -> StoredVersion<B> {
    let clock = backend.rebuild_clock(context, dot);
    StoredVersion::new_with_origin(
        backend,
        Version { clock, value },
        Some(DeltaOrigin { dot_bytes, ctx_fp }),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{DynamicVvBackend, VstampBackend};

    #[test]
    fn digest_roundtrip_and_rejections() {
        let entries = vec![
            DigestEntry { key: "cart:alice".into(), fingerprint: 0xDEAD_BEEF, ctx_fp: 42 },
            DigestEntry { key: "π-keys".into(), fingerprint: u64::MAX, ctx_fp: u64::MAX },
            DigestEntry { key: String::new(), fingerprint: 0, ctx_fp: 0 },
        ];
        let bytes = encode_digest(&entries);
        assert_eq!(decode_digest(&bytes).unwrap(), entries);
        assert!(decode_digest(&bytes[..bytes.len() - 1]).is_err());
        let mut trailing = bytes.clone();
        trailing.push(9);
        assert_eq!(decode_digest(&trailing), Err(DecodeError::TrailingData));
        assert_eq!(decode_digest(&[]), Err(DecodeError::UnexpectedEnd));
    }

    #[test]
    fn envelope_roundtrip_matches_modeled_length() {
        let kinds = [
            MessageKind::Probe,
            MessageKind::Ack,
            MessageKind::Offer,
            MessageKind::Delta,
            MessageKind::Nak,
            MessageKind::Want,
            MessageKind::Join,
            MessageKind::JoinAck,
            MessageKind::Get,
            MessageKind::GetOk,
            MessageKind::Put,
            MessageKind::PutOk,
            MessageKind::Status,
            MessageKind::StatusOk,
        ];
        assert_eq!(MessageKind::from_tag(3), None, "the retired Digest tag stays unassigned");
        for (i, kind) in kinds.into_iter().enumerate() {
            assert_eq!(MessageKind::from_tag(kind.tag()), Some(kind));
            let envelope = Envelope { from: i * 131, kind, payload: vec![0xAB; i * 37] };
            let bytes = encode_envelope(&envelope);
            assert_eq!(bytes.len(), envelope_len(envelope.from, envelope.payload.len()));
            let decoded = decode_envelope(&bytes).unwrap();
            assert_eq!(decoded.from, envelope.from);
            assert_eq!(decoded.kind, envelope.kind);
            assert_eq!(decoded.payload, envelope.payload);
            assert!(decode_envelope(&bytes[..bytes.len() - 1]).is_err());
        }
        assert_eq!(MessageKind::from_tag(15), None);
        assert!(decode_envelope(&[]).is_err());
        assert!(decode_envelope(&[200, 0, 0]).is_err(), "unknown tag must be rejected");
        let mut trailing =
            encode_envelope(&Envelope { from: 0, kind: MessageKind::Ack, payload: Vec::new() });
        trailing.push(0);
        assert_eq!(decode_envelope(&trailing), Err(DecodeError::TrailingData));
    }

    #[test]
    fn probe_offer_and_want_roundtrip_and_reject_short_input() {
        let probe = encode_probe(0xFEED_F00D, 300);
        assert_eq!(probe.len(), 10, "8-byte root plus a 2-byte varint cursor");
        assert_eq!(decode_probe(&probe).unwrap(), (0xFEED_F00D, 300));
        assert!(decode_probe(&probe[..9]).is_err());
        assert!(decode_probe(&probe[..7]).is_err());

        let offer = Offer {
            instance: u64::MAX - 5,
            since: 17,
            upto: 1 << 40,
            lines: vec![
                DigestEntry { key: "a".into(), fingerprint: 1, ctx_fp: 2 },
                DigestEntry { key: "π".into(), fingerprint: u64::MAX, ctx_fp: 0 },
            ],
        };
        let bytes = encode_offer(&offer);
        assert_eq!(decode_offer(&bytes).unwrap(), offer);
        // The instance is fixed-width: its value never moves a byte count.
        let small = Offer { instance: 1, ..offer.clone() };
        assert_eq!(encode_offer(&small).len(), bytes.len());
        for cut in 0..bytes.len() {
            assert!(decode_offer(&bytes[..cut]).is_err(), "truncation at {cut} must not decode");
        }

        let wanted: Vec<(Key, u64)> = vec![("a".into(), 7), (String::new(), u64::MAX)];
        let bytes = encode_want(&wanted);
        assert_eq!(decode_want(&bytes).unwrap(), wanted);
        for cut in 0..bytes.len() {
            assert!(decode_want(&bytes[..cut]).is_err(), "truncation at {cut} must not decode");
        }
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert_eq!(decode_want(&trailing), Err(DecodeError::TrailingData));
    }

    #[test]
    fn nak_roundtrip_and_rejections() {
        let keys: Vec<Key> = vec!["a".into(), "π".into(), String::new()];
        let bytes = encode_nak(&keys);
        assert_eq!(decode_nak(&bytes).unwrap(), keys);
        assert!(decode_nak(&bytes[..bytes.len() - 2]).is_err());
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert_eq!(decode_nak(&trailing), Err(DecodeError::TrailingData));
    }

    #[test]
    fn delta_roundtrip_both_backends_full_frames() {
        let backend = VstampBackend::gc();
        let (mut state, elements) = backend.new_key(2);
        let (element, clock, _) = backend.write(&mut state, &elements[0], None);
        let deltas = vec![KeyDelta::<VstampBackend> {
            key: "k".into(),
            element: Some(element),
            versions: vec![
                StoredVersion::new(
                    &backend,
                    Version { clock: clock.clone(), value: Some(b"hello".to_vec()) },
                ),
                StoredVersion::new(&backend, Version { clock, value: None }),
            ],
            assumed_fp: 0,
        }];
        let (bytes, stats) = encode_delta(&backend, &deltas, DeltaPolicy::ADAPTIVE);
        // No origins on hand-built versions: everything ships full.
        assert_eq!((stats.delta_frames, stats.full_frames, stats.bytes_saved), (0, 2, 0));
        assert!(stats.frame_bytes > 0);
        let decoded = decode_delta(&backend, &bytes).unwrap();
        assert_eq!(decoded.len(), 1);
        assert_eq!(decoded[0].key, deltas[0].key);
        assert_eq!(decoded[0].element, deltas[0].element);
        for (wire, sent) in decoded[0].versions.iter().zip(&deltas[0].versions) {
            assert_eq!(*wire, WireVersion::Full(sent.clone()));
        }
        for cut in 1..bytes.len() {
            assert!(
                decode_delta(&backend, &bytes[..cut]).is_err(),
                "truncation at {cut} must not decode"
            );
        }

        let dv = DynamicVvBackend::new();
        let (mut state, elements) = dv.new_key(2);
        let (element, clock, _) = dv.write(&mut state, &elements[1], None);
        let deltas = vec![KeyDelta::<DynamicVvBackend> {
            key: "vv".into(),
            element: Some(element),
            versions: vec![StoredVersion::new(&dv, Version { clock, value: Some(vec![1, 2, 3]) })],
            assumed_fp: 0,
        }];
        let (bytes, _) = encode_delta(&dv, &deltas, DeltaPolicy::ADAPTIVE);
        let decoded = decode_delta(&dv, &bytes).unwrap();
        assert_eq!(decoded.len(), 1);
        assert_eq!(decoded[0].versions[0], WireVersion::Full(deltas[0].versions[0].clone()));
    }

    #[test]
    fn a_delta_with_an_empty_element_does_not_decode() {
        // An adopted empty id would mint empty, non-unique dots.
        let backend = VstampBackend::gc();
        let deltas = [KeyDelta::<VstampBackend> {
            key: "k".into(),
            element: Some(vstamp_core::PackedName::empty()),
            versions: Vec::new(),
            assumed_fp: 0,
        }];
        let (bytes, _) = encode_delta(&backend, &deltas, DeltaPolicy::ADAPTIVE);
        assert!(decode_delta(&backend, &bytes).is_err());
    }

    #[test]
    fn a_two_key_delta_payload_has_pinned_bytes() {
        // Key `a` is one the requester lacks: it carries the element part
        // `{1}` it will root its copy at. Key `b` it holds: an empty
        // element frame. Each ships one full-frame version.
        let backend = VstampBackend::gc();
        let version = |clock: &str, value: Option<&[u8]>| {
            let clock = clock.parse().expect("a name");
            StoredVersion::new(&backend, Version { clock, value: value.map(<[u8]>::to_vec) })
        };
        let deltas = [
            KeyDelta {
                key: "a".into(),
                element: Some("{1}".parse().expect("a name")),
                versions: vec![version("{0}", Some(b"x"))],
                assumed_fp: 0,
            },
            KeyDelta {
                key: "b".into(),
                element: None,
                versions: vec![version("{01}", None)],
                assumed_fp: 5,
            },
        ];
        let (bytes, _) = encode_delta(&backend, &deltas, DeltaPolicy::ADAPTIVE);
        #[rustfmt::skip]
        let golden = [
            0x02, // two keys
            0x01, b'a', // key `a`
            0x02, 0x03, 0x12, // element frame: the id `{1}`
            0x01, // one version
            0x00, 0x02, 0x03, 0x06, // full clock frame: `{0}`
            0x01, 0x01, b'x', // a value
            0x01, b'b', // key `b`
            0x00, // empty element frame: the requester holds `b`
            0x01, // one version
            0x00, 0x03, 0x05, 0x4a, 0x00, // full clock frame: `{01}`
            0x00, // a tombstone
        ];
        assert_eq!(bytes, golden);
        let decoded = decode_delta(&backend, &bytes).expect("decodes");
        assert_eq!(decoded[0].element, deltas[0].element);
        assert_eq!(decoded[1].element, None);
    }

    #[test]
    fn delta_frames_ride_when_fingerprints_match_and_rebuild_byte_equal() {
        let (label, backend) = ("stamps", VstampBackend::gc());
        let (mut state, elements) = backend.new_key(2);
        // Seed version minted against an empty (None) context.
        let (_, c0, d0) = backend.write(&mut state, &elements[0], None);
        let mut d0_bytes = Vec::new();
        backend.encode_clock(&d0, &mut d0_bytes);
        let v0 = StoredVersion::new_with_origin(
            &backend,
            Version { clock: c0.clone(), value: Some(b"x".to_vec()) },
            Some(DeltaOrigin { dot_bytes: d0_bytes.into(), ctx_fp: 7 }),
        );
        let deltas = vec![KeyDelta {
            key: "k".into(),
            element: None,
            versions: vec![v0.clone()],
            assumed_fp: 7,
        }];
        let (bytes, stats) = encode_delta(&backend, &deltas, DeltaPolicy::ADAPTIVE);
        // A singleton dot equals its clock here, so the delta frame (dot
        // + 8-byte fp) is *larger* than the full frame and the adaptive
        // size check keeps the full form — verify that, then check the
        // genuinely-smaller case below with a joined clock.
        assert_eq!(stats.delta_frames + stats.full_frames, 1, "{label}");
        let decoded = decode_delta(&backend, &bytes).unwrap();
        assert_eq!(decoded[0].versions.len(), 1, "{label}");

        // Second write against the first as context: the clock is a
        // join, the dot a singleton — delta frame strictly smaller once
        // the clock outgrows dot + fingerprint.
        let (_, c1, d1) = backend.write(&mut state, &elements[0], Some(&c0));
        let mut d1_bytes = Vec::new();
        backend.encode_clock(&d1, &mut d1_bytes);
        let v1 = StoredVersion::new_with_origin(
            &backend,
            Version { clock: c1.clone(), value: Some(b"y".to_vec()) },
            Some(DeltaOrigin { dot_bytes: d1_bytes.into(), ctx_fp: 9 }),
        );
        let deltas = vec![KeyDelta {
            key: "k".into(),
            element: None,
            versions: vec![v1.clone()],
            assumed_fp: 9,
        }];
        let (bytes, stats) = encode_delta(&backend, &deltas, DeltaPolicy::ADAPTIVE);
        if stats.delta_frames == 1 {
            assert!(stats.bytes_saved > 0, "{label}: adaptive check implies savings");
            let decoded = decode_delta(&backend, &bytes).unwrap();
            let WireVersion::Delta { dot, dot_bytes, ctx_fp, value } = &decoded[0].versions[0]
            else {
                panic!("{label}: expected delta frame");
            };
            assert_eq!(*ctx_fp, 9, "{label}");
            // Reconstruction against the mint context is byte-equal.
            let rebuilt = rebuild_wire_version(
                &backend,
                Some(&c0),
                dot,
                Arc::clone(dot_bytes),
                *ctx_fp,
                value.clone(),
            );
            assert_eq!(rebuilt.clock_bytes(), v1.clock_bytes(), "{label}");
            assert_eq!(rebuilt.clock(), &c1, "{label}");
        }

        // Mismatched assumed_fp: falls back to a full frame.
        let mut missed = deltas.clone();
        missed[0].assumed_fp = 8;
        let (_, missed_stats) = encode_delta(&backend, &missed, DeltaPolicy::ADAPTIVE);
        assert_eq!(missed_stats.delta_frames, 0, "{label}");
        assert_eq!(missed_stats.full_frames, 1, "{label}");

        // FULL_ONLY policy: never a delta frame.
        let (_, full_stats) = encode_delta(&backend, &deltas, DeltaPolicy::FULL_ONLY);
        assert_eq!(full_stats.delta_frames, 0, "{label}");

        // Perturbed fingerprints still emit delta frames (when the size
        // check allows), but carry a flipped fp the receiver will miss.
        let (bytes, perturbed_stats) = encode_delta(
            &backend,
            &deltas,
            DeltaPolicy { delta_frames: true, perturb_fingerprints: true },
        );
        if perturbed_stats.delta_frames == 1 {
            let decoded = decode_delta(&backend, &bytes).unwrap();
            let WireVersion::Delta { ctx_fp, .. } = &decoded[0].versions[0] else {
                panic!("{label}: expected delta frame");
            };
            assert_ne!(*ctx_fp, 9, "{label}: perturbation must change the fp");
        }
    }

    #[test]
    fn dvv_delta_frames_rebuild_value_equal() {
        let dv = DynamicVvBackend::new();
        let (mut state, elements) = dv.new_key(8);
        // Grow the context across distinct actors so the full clock (dot +
        // multi-entry vector) is strictly larger than dot + fingerprint.
        let (_, mut c0, _) = dv.write(&mut state, &elements[0], None);
        for element in &elements[1..7] {
            let (_, next, _) = dv.write(&mut state, element, Some(&c0));
            c0 = next;
        }
        let (_, c1, d1) = dv.write(&mut state, &elements[7], Some(&c0));
        let mut d1_bytes = Vec::new();
        dv.encode_clock(&d1, &mut d1_bytes);
        let v1 = StoredVersion::new_with_origin(
            &dv,
            Version { clock: c1.clone(), value: Some(b"y".to_vec()) },
            Some(DeltaOrigin { dot_bytes: d1_bytes.into(), ctx_fp: 3 }),
        );
        let deltas = vec![KeyDelta {
            key: "k".into(),
            element: None,
            versions: vec![v1.clone()],
            assumed_fp: 3,
        }];
        let (bytes, stats) = encode_delta(&dv, &deltas, DeltaPolicy::ADAPTIVE);
        assert_eq!(stats.delta_frames, 1);
        let decoded = decode_delta(&dv, &bytes).unwrap();
        let WireVersion::Delta { dot, dot_bytes, ctx_fp, value } = &decoded[0].versions[0] else {
            panic!("expected delta frame");
        };
        let rebuilt = rebuild_wire_version(
            &dv,
            Some(&c0),
            dot,
            Arc::clone(dot_bytes),
            *ctx_fp,
            value.clone(),
        );
        assert_eq!(rebuilt.clock(), &c1);
        assert_eq!(rebuilt.clock_bytes(), v1.clock_bytes());
    }

    #[test]
    fn a_full_frame_with_a_non_canonical_clock_is_refused() {
        // `{00, 01}` is the region `{0}` written the long way: a receiver
        // holding `{0}` would rank it differently, so it is malformed.
        let vs = VstampBackend::gc();
        let frame = |clock: &str| {
            let version =
                Version { clock: clock.parse().expect("a name"), value: Some(b"v".to_vec()) };
            let deltas = vec![KeyDelta {
                key: "k".into(),
                element: None,
                versions: vec![StoredVersion::new(&vs, version)],
                assumed_fp: 0,
            }];
            encode_delta(&vs, &deltas, DeltaPolicy::ADAPTIVE).0
        };
        assert!(decode_delta(&vs, &frame("{0}")).is_ok());
        assert!(matches!(decode_delta(&vs, &frame("{00, 01}")), Err(DecodeError::Malformed(_))));
    }
}
