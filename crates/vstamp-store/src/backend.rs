//! The clock seam of the store: a [`StoreBackend`] supplies per-key causal
//! machinery — replica elements, per-version clocks, merge and compaction —
//! while the store itself only manages shards, sibling sets and transport.
//!
//! Every replica roots the keys it first-touches at its own *rooting lend*
//! ([`StoreBackend::Lend`]), an id space no other replica mints from: in
//! one process the lends are split once per [`Cluster`](crate::Cluster)
//! ([`StoreBackend::lends`]); on a [`Node`](crate::Node) the lend is a fork
//! half of its membership stamp. A replica that learns a key from a peer
//! roots its copy at the part the holder split off its own element for it
//! ([`StoreBackend::detach`]). No state is shared between replicas: a
//! key's backend state is one `(state, element)` pair per replica, kept in
//! that replica's data shard.
//!
//! Two backends ship, selected by mechanism label exactly as in the
//! simulator's comparison tables:
//!
//! * [`VstampBackend`] (`version-stamps`) — the paper's mechanism. Each
//!   key is its own identity universe, and a replica element is an **id**
//!   ([`PackedName`]): a part of its replica's lend, or of a part a holder
//!   shipped. A write spends one string of the id as the version's dot
//!   ([`PackedName::mint_dot`]) — the decentralized encoding of fork in
//!   the fork/join/update transition system, with **no identifiers and no
//!   counters anywhere**. Causal knowledge lives only in the version clocks
//!   (context ⊔ dot, as in Dotted Version Vectors), so an element never
//!   carries an update component, and a replica that already holds a key
//!   has nothing to learn from a peer's id: elements are never joined.
//!   They only shrink — a write spends a dot, a detach gives a part away —
//!   so no dot lies inside a live element and dots are pairwise disjoint
//!   (Invariant I2) without any evidence bookkeeping or GC.
//!
//!   A clock is the set of dots it has seen, and dots are pairwise
//!   disjoint regions (subtrees), so a clock is ordered by region
//!   inclusion — the *cover order* of [`PackedName::cover_leq`], not
//!   Definition 4.1's order on names — and kept in cover-canonical form,
//!   where two sibling dots merge into their parent. The mint is
//!   counter-shaped: one writer's successive dots fill a left-to-right run
//!   of leaves, so their union stays a few strings, the way a version
//!   vector entry folds a replica's contiguous counters into one number.
//!   Because no exchange cuts an element that a peer already holds, the
//!   run is cut only when a peer adopts the key. Canonical clocks are
//!   unique, so equal clocks are byte-equal, and
//!   [`StoreBackend::decode_clock`] refuses any other form.
//! * [`DynamicVvBackend`] (`dynamic-vv`) — dotted-version-vector-style
//!   sibling resolution over dynamic version vectors: every incarnation
//!   takes a fresh identifier, which its replica mints from its own
//!   stripe of the key's id space ([`DynamicVvKeyState`]). This is the
//!   mechanism the paper positions version stamps against;
//!   [`Cluster::metrics`](crate::Cluster::metrics) reports the per-key
//!   metadata of either.
//!
//! Version clocks are *names* (for stamps) or *vectors* (for the baseline):
//! a written version's clock is the join of the client's read context with
//! the write's dot, so causal chains across replicas dominate exactly the
//! versions the client had seen.

use core::fmt;

use vstamp_core::codec::{self, StampCodec, VarintCodec};
use vstamp_core::{Bit, DecodeError, PackedName, Relation};

use vstamp_baselines::{DynamicVvElement, ReplicaId, VersionVector};

use crate::wire::read_count;

/// Per-key causal machinery the store is generic over. See the
/// [module docs](self) for the two shipped implementations.
pub trait StoreBackend: Send + Sync + 'static {
    /// A replica's rooting lend: the id space it roots the keys it
    /// first-touches at. Lends of different replicas never overlap.
    type Lend: Clone + Send + Sync + fmt::Debug;
    /// Per-`(key, replica)` state kept beside the element in the replica's
    /// data shard (the baseline's id counter; nothing for stamps).
    type KeyState: Send + Sync + fmt::Debug;
    /// Per-`(key, replica)` element driving the fork/join/update lifecycle:
    /// the replica's identity in the key's universe (an id for stamps, an
    /// incarnation plus its vector for the baseline).
    type Element: Clone + PartialEq + Send + Sync + fmt::Debug;
    /// Per-stored-version causal clock.
    type Clock: Clone + PartialEq + Send + Sync + fmt::Debug;

    /// Mechanism label used to select and report the backend
    /// (`version-stamps`, `dynamic-vv`).
    fn label(&self) -> &'static str;

    /// Splits the whole id space into the disjoint lends of `replicas`
    /// replicas (at least one) — once, when a cluster is built.
    fn lends(&self, replicas: usize) -> Vec<Self::Lend>;

    /// Roots a key the replica holding `lend` first-touches: its state and
    /// its element, cut from the lend alone, so first writes of one key at
    /// two replicas never share identity space.
    fn new_key(&self, lend: &Self::Lend) -> (Self::KeyState, Self::Element);

    /// Roots a key the replica holding `lend` learns from a peer at `part`,
    /// the element part the holder split off for it
    /// ([`StoreBackend::detach`]). `None` when the part owns nothing to
    /// mint from.
    fn new_key_rooted(
        &self,
        lend: &Self::Lend,
        part: &Self::Element,
    ) -> Option<(Self::KeyState, Self::Element)>;

    /// A local write: advances the replica's element and mints the clock of
    /// the written version from the client's read context plus a fresh dot
    /// the element spends. Returns `(element, clock, dot)` — the
    /// advanced element, the minted clock, and the write's *dot* as a
    /// standalone clock, such that
    /// `clock == rebuild_clock(context, dot)`. The dot is what delta
    /// frames ship in place of the full clock.
    fn write(
        &self,
        state: &mut Self::KeyState,
        element: &Self::Element,
        context: Option<&Self::Clock>,
    ) -> (Self::Element, Self::Clock, Self::Clock);

    /// Reconstructs a written version's clock from its dot and the context
    /// it was minted against — the receive half of a delta frame. Must
    /// mirror [`StoreBackend::write`]'s clock construction exactly, so that
    /// a reconstructed clock is value-equal (and, with a canonical codec,
    /// byte-equal) to the one the writer minted.
    fn rebuild_clock(&self, context: Option<&Self::Clock>, dot: &Self::Clock) -> Self::Clock;

    /// Splits the element for a requester that lacks the key:
    /// `(kept, shipped)`. The shipped part rides the delta, and the
    /// requester roots its copy of the key at it
    /// ([`StoreBackend::new_key_rooted`]). Nothing ever joins it back:
    /// elements only shrink.
    fn detach(
        &self,
        state: &mut Self::KeyState,
        element: &Self::Element,
    ) -> (Self::Element, Self::Element);

    /// Classifies two version clocks.
    fn relation(&self, left: &Self::Clock, right: &Self::Clock) -> Relation;

    /// Joins two clocks into one causal context.
    fn join_clocks(&self, left: &Self::Clock, right: &Self::Clock) -> Self::Clock;

    /// Joins any number of clocks into one causal context (`None` for an
    /// empty set) — the k-way form a sibling-set context rebuild uses.
    /// The default folds [`StoreBackend::join_clocks`] pairwise; backends
    /// with a native one-pass merge should override it.
    fn join_clock_set<'a, I>(&self, clocks: I) -> Option<Self::Clock>
    where
        I: IntoIterator<Item = &'a Self::Clock>,
        Self::Clock: 'a,
    {
        let mut clocks = clocks.into_iter();
        let first = clocks.next()?.clone();
        Some(clocks.fold(first, |acc, clock| self.join_clocks(&acc, clock)))
    }

    /// Quiescent-point compaction of a key whose one surviving version is
    /// identical on every replica: the clock that version is re-minted at,
    /// while every replica's element is re-rooted at its lend
    /// ([`StoreBackend::new_key`]). `None` when the backend cannot recycle
    /// a key's identity space.
    fn compact_quiescent(&self) -> Option<Self::Clock>;

    /// Appends the wire encoding of a clock to `out`.
    fn encode_clock(&self, clock: &Self::Clock, out: &mut Vec<u8>);

    /// Decodes a clock occupying the whole of `bytes`.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] on truncated, malformed or trailing input.
    fn decode_clock(&self, bytes: &[u8]) -> Result<Self::Clock, DecodeError>;

    /// Appends the wire encoding of an element to `out`.
    fn encode_element(&self, element: &Self::Element, out: &mut Vec<u8>);

    /// Decodes an element occupying the whole of `bytes`.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] on truncated, malformed or trailing input.
    fn decode_element(&self, bytes: &[u8]) -> Result<Self::Element, DecodeError>;

    /// Wire size of a clock, in bits — the per-key metadata metric of the
    /// store benchmark.
    fn clock_bits(&self, clock: &Self::Clock) -> usize;

    /// Wire size of an element, in bits.
    fn element_bits(&self, element: &Self::Element) -> usize;
}

/// The balanced fork tree of `{ε}` whose leaves are the rooting lends of
/// an in-process cluster's replicas. Lends are ids only — causal
/// knowledge lives in the version clocks.
fn fork_tree(replicas: usize) -> Vec<PackedName> {
    let mut lends = vec![PackedName::epsilon()];
    while lends.len() < replicas.max(1) {
        let victim = lends.remove(0);
        lends.push(victim.append(Bit::Zero));
        lends.push(victim.append(Bit::One));
    }
    lends
}

/// The element a key is rooted at inside `id`: its shallowest string, so
/// every element of a key is one string from the start. A several-string
/// id is a lend off a fragmented membership stamp or a shipped part of a
/// several-string element; dropping id strings is sound because an id
/// carries no event markers. The empty id owns nothing to mint from.
fn rooted_at(id: &PackedName) -> Option<PackedName> {
    id.shallowest_string().map(|root| PackedName::singleton(&root))
}

/// The version-stamp backend; see the [module docs](self). Clocks and
/// elements ride the wire in the byte-aligned [`VarintCodec`].
#[derive(Debug, Clone, Default)]
pub struct VstampBackend;

impl VstampBackend {
    /// The version-stamp backend. It has no configuration; the name stays
    /// because the benchmark package, outside this workspace, calls it.
    #[must_use]
    pub fn gc() -> Self {
        VstampBackend
    }
}

impl StoreBackend for VstampBackend {
    type Lend = PackedName;
    type KeyState = ();
    type Element = PackedName;
    type Clock = PackedName;

    fn label(&self) -> &'static str {
        "version-stamps"
    }

    fn lends(&self, replicas: usize) -> Vec<Self::Lend> {
        fork_tree(replicas)
    }

    fn new_key(&self, lend: &Self::Lend) -> (Self::KeyState, Self::Element) {
        ((), rooted_at(lend).expect("a lend owns id space"))
    }

    fn new_key_rooted(
        &self,
        _lend: &Self::Lend,
        part: &Self::Element,
    ) -> Option<(Self::KeyState, Self::Element)> {
        Some(((), rooted_at(part)?))
    }

    fn write(
        &self,
        _state: &mut Self::KeyState,
        element: &Self::Element,
        context: Option<&Self::Clock>,
    ) -> (Self::Element, Self::Clock, Self::Clock) {
        // Every write *spends* one string of the element's identity on the
        // version: the dot is globally unique (no two writes ever mint the
        // same one, Invariant I2) because nothing ever joins spent space
        // back into an element, and the version's clock is the client's
        // read context joined with the dot — identity lending instead of
        // counters. The mint is counter-shaped (the decentralized stand-in
        // for DVV's `(replica, counter)` pair): a writer's successive dots
        // fill a left-to-right run of leaves, so in the clock they merge
        // into O(depth) strings, the way a version vector entry folds
        // contiguous counters into one number.
        let (kept, marker) = element.mint_dot();
        let clock = self.rebuild_clock(context, &marker);
        (kept, clock, marker)
    }

    fn rebuild_clock(&self, context: Option<&Self::Clock>, dot: &Self::Clock) -> Self::Clock {
        match context {
            Some(context) => context.cover_join(dot),
            None => dot.clone(),
        }
    }

    fn detach(
        &self,
        _state: &mut Self::KeyState,
        element: &Self::Element,
    ) -> (Self::Element, Self::Element) {
        // A several-string element is a run the dot mint spends from the
        // left: ship its rightmost (shallowest) string, the one farthest
        // from the spent dots, so what stays is still one run next to them
        // and their clock strings can still merge. Halving every string
        // instead would leave shipped space between every pair of future
        // dots. A one-string element forks in halves.
        element
            .split_last()
            .unwrap_or_else(|| (element.append(Bit::Zero), element.append(Bit::One)))
    }

    /// Clocks are ordered by the cover order (region inclusion), not by
    /// Definition 4.1: merged sibling dots must rank above each half.
    fn relation(&self, left: &Self::Clock, right: &Self::Clock) -> Relation {
        left.cover_relation(right)
    }

    fn join_clocks(&self, left: &Self::Clock, right: &Self::Clock) -> Self::Clock {
        left.cover_join(right)
    }

    fn join_clock_set<'a, I>(&self, clocks: I) -> Option<Self::Clock>
    where
        I: IntoIterator<Item = &'a Self::Clock>,
    {
        // One-pass k-way tag merge: a context rebuild over j siblings is a
        // single output build instead of j − 1 intermediate names.
        let mut clocks = clocks.into_iter().peekable();
        clocks.peek()?;
        Some(PackedName::cover_join_many(clocks))
    }

    /// The survivor's clock becomes the empty clock, the bottom of the
    /// cover order, which every future write strictly dominates — the
    /// bounded-timestamp recycling discipline, per key. (`{ε}` is the top:
    /// it would dominate every later write.)
    fn compact_quiescent(&self) -> Option<Self::Clock> {
        Some(PackedName::empty())
    }

    fn encode_clock(&self, clock: &Self::Clock, out: &mut Vec<u8>) {
        VarintCodec.encode_name_into(clock, out);
    }

    /// Refuses a clock that is not cover-canonical: a peer's `{s·0, s·1}`
    /// where this process holds `{s}` would compare as a different clock.
    fn decode_clock(&self, bytes: &[u8]) -> Result<Self::Clock, DecodeError> {
        let clock: PackedName = VarintCodec.decode_name(bytes)?;
        if !clock.is_cover_canonical() {
            return Err(DecodeError::Malformed("a clock leaves two sibling strings unmerged"));
        }
        Ok(clock)
    }

    fn encode_element(&self, element: &Self::Element, out: &mut Vec<u8>) {
        VarintCodec.encode_name_into(element, out);
    }

    /// Refuses the empty name: an element adopted from a peer must own
    /// identity, or every dot it mints would be empty and not unique.
    fn decode_element(&self, bytes: &[u8]) -> Result<Self::Element, DecodeError> {
        let id: PackedName = VarintCodec.decode_name(bytes)?;
        if id.is_empty() {
            return Err(DecodeError::Malformed("an element owns at least one id string"));
        }
        Ok(id)
    }

    fn clock_bits(&self, clock: &Self::Clock) -> usize {
        clock.encoded_bits()
    }

    fn element_bits(&self, element: &Self::Element) -> usize {
        element.encoded_bits()
    }
}

/// A replica's stripe of one key's incarnation ids, the lend and the
/// per-`(key, replica)` state of [`DynamicVvBackend`]: replica r of N mints
/// r, r + N, r + 2N, … for each key it holds, so ids stay unique per key
/// and about as small as one shared allocator's, with no allocator shared
/// between replicas.
#[derive(Debug, Clone)]
pub struct DynamicVvKeyState {
    next: u64,
    stride: u64,
}

impl DynamicVvKeyState {
    fn fresh(&mut self) -> ReplicaId {
        let id = ReplicaId::new(self.next);
        self.next += self.stride;
        id
    }
}

/// A dotted per-version clock for the baseline backend: the write's unique
/// `(incarnation, counter)` dot plus the causal context it was written
/// against.
///
/// Comparison is **dot containment**, exactly as in Dotted Version Vectors:
/// a version is dominated when its dot is inside the other side's effective
/// context — never merely because the same incarnation wrote again (which
/// is what makes naive effective-vector comparison lose concurrent writes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DvvClock {
    /// The write's identifying dot; `None` for pure contexts (joins).
    pub dot: Option<(ReplicaId, u64)>,
    /// The causal context of the write.
    pub ctx: VersionVector,
}

impl DvvClock {
    /// The dot folded into the context: everything this clock covers.
    #[must_use]
    pub fn effective(&self) -> VersionVector {
        let mut vector = self.ctx.clone();
        if let Some((replica, counter)) = self.dot {
            vector.set(replica, vector.get(replica).max(counter));
        }
        vector
    }

    /// Whether everything this clock identifies is covered by `other`.
    ///
    /// Only `other`'s *context* covers — its own dot does not: a later
    /// write by the same incarnation must not silently dominate an earlier
    /// one it never read (dot containment, the defining DVV rule).
    fn covered_by(&self, other: &DvvClock) -> bool {
        match self.dot {
            Some((replica, counter)) => counter <= other.ctx.get(replica),
            None => self.ctx.leq(&other.ctx),
        }
    }
}

/// The dynamic version-vector baseline backend; see the [module docs](self).
#[derive(Debug, Clone, Copy, Default)]
pub struct DynamicVvBackend;

impl DynamicVvBackend {
    /// The baseline backend.
    #[must_use]
    pub fn new() -> Self {
        DynamicVvBackend
    }
}

fn encode_vector(vector: &VersionVector, out: &mut Vec<u8>) {
    codec::write_varint(out, vector.len() as u64);
    for (replica, counter) in vector.iter() {
        codec::write_varint(out, replica.raw());
        codec::write_varint(out, *counter);
    }
}

/// Refuses a width the remaining bytes cannot hold (an entry takes at
/// least two) before anything is allocated for it.
fn decode_vector(input: &mut &[u8]) -> Result<VersionVector, DecodeError> {
    let entries = read_count(input, 2)?;
    let mut pairs = Vec::with_capacity(entries);
    for _ in 0..entries {
        let replica = codec::read_varint(input)?;
        let counter = codec::read_varint(input)?;
        pairs.push((ReplicaId::new(replica), counter));
    }
    Ok(VersionVector::from_entries(pairs))
}

impl StoreBackend for DynamicVvBackend {
    type Lend = DynamicVvKeyState;
    type KeyState = DynamicVvKeyState;
    type Element = DynamicVvElement;
    type Clock = DvvClock;

    fn label(&self) -> &'static str {
        "dynamic-vv"
    }

    fn lends(&self, replicas: usize) -> Vec<Self::Lend> {
        let stride = replicas.max(1) as u64;
        (0..stride).map(|next| DynamicVvKeyState { next, stride }).collect()
    }

    fn new_key(&self, lend: &Self::Lend) -> (Self::KeyState, Self::Element) {
        let mut state = lend.clone();
        let incarnation = state.fresh();
        (state, DynamicVvElement { incarnation, vector: VersionVector::new() })
    }

    fn new_key_rooted(
        &self,
        lend: &Self::Lend,
        part: &Self::Element,
    ) -> Option<(Self::KeyState, Self::Element)> {
        Some((lend.clone(), part.clone()))
    }

    fn write(
        &self,
        _state: &mut Self::KeyState,
        element: &Self::Element,
        context: Option<&Self::Clock>,
    ) -> (Self::Element, Self::Clock, Self::Clock) {
        let mut vector = element.vector.clone();
        let counter = vector.increment(element.incarnation);
        let dot = (element.incarnation, counter);
        let clock =
            DvvClock { dot: Some(dot), ctx: context.map(DvvClock::effective).unwrap_or_default() };
        let dot_clock = DvvClock { dot: Some(dot), ctx: VersionVector::default() };
        (DynamicVvElement { incarnation: element.incarnation, vector }, clock, dot_clock)
    }

    fn rebuild_clock(&self, context: Option<&Self::Clock>, dot: &Self::Clock) -> Self::Clock {
        DvvClock { dot: dot.dot, ctx: context.map(DvvClock::effective).unwrap_or_default() }
    }

    /// Both halves are new incarnations, minted from the holder's stripe.
    fn detach(
        &self,
        state: &mut Self::KeyState,
        element: &Self::Element,
    ) -> (Self::Element, Self::Element) {
        let mut half =
            || DynamicVvElement { incarnation: state.fresh(), vector: element.vector.clone() };
        (half(), half())
    }

    fn relation(&self, left: &Self::Clock, right: &Self::Clock) -> Relation {
        // Identical dots identify the same write (replicated copies).
        if left.dot.is_some() && left.dot == right.dot {
            return Relation::Equal;
        }
        Relation::from_leq(left.covered_by(right), right.covered_by(left))
    }

    fn join_clocks(&self, left: &Self::Clock, right: &Self::Clock) -> Self::Clock {
        DvvClock { dot: None, ctx: left.effective().merged(&right.effective()) }
    }

    /// Identifier-based vectors never shed retired incarnations — this is
    /// precisely the contrast the benchmark measures.
    fn compact_quiescent(&self) -> Option<Self::Clock> {
        None
    }

    fn encode_clock(&self, clock: &Self::Clock, out: &mut Vec<u8>) {
        match clock.dot {
            Some((replica, counter)) => {
                out.push(1);
                codec::write_varint(out, replica.raw());
                codec::write_varint(out, counter);
            }
            None => out.push(0),
        }
        encode_vector(&clock.ctx, out);
    }

    fn decode_clock(&self, bytes: &[u8]) -> Result<Self::Clock, DecodeError> {
        let mut input = bytes;
        let (flag, rest) = input.split_first().ok_or(DecodeError::UnexpectedEnd)?;
        input = rest;
        let dot = match flag {
            0 => None,
            1 => {
                let replica = ReplicaId::new(codec::read_varint(&mut input)?);
                let counter = codec::read_varint(&mut input)?;
                Some((replica, counter))
            }
            _ => return Err(DecodeError::Malformed("unknown dot flag")),
        };
        let ctx = decode_vector(&mut input)?;
        if !input.is_empty() {
            return Err(DecodeError::TrailingData);
        }
        Ok(DvvClock { dot, ctx })
    }

    fn encode_element(&self, element: &Self::Element, out: &mut Vec<u8>) {
        codec::write_varint(out, element.incarnation.raw());
        encode_vector(&element.vector, out);
    }

    fn decode_element(&self, bytes: &[u8]) -> Result<Self::Element, DecodeError> {
        let mut input = bytes;
        let incarnation = ReplicaId::new(codec::read_varint(&mut input)?);
        let vector = decode_vector(&mut input)?;
        if !input.is_empty() {
            return Err(DecodeError::TrailingData);
        }
        Ok(DynamicVvElement { incarnation, vector })
    }

    fn clock_bits(&self, clock: &Self::Clock) -> usize {
        clock.ctx.size_bits() + if clock.dot.is_some() { 128 } else { 0 }
    }

    fn element_bits(&self, element: &Self::Element) -> usize {
        64 + element.vector.size_bits()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Cluster;
    use std::collections::HashSet;
    use vstamp_core::{BitString, VersionStamp};

    /// The elements each replica of a fresh `replicas`-replica cluster
    /// roots a key it first-touches at: its lend.
    fn first_touches<B: StoreBackend>(
        backend: &B,
        replicas: usize,
    ) -> Vec<(B::KeyState, B::Element)> {
        backend.lends(replicas).iter().map(|lend| backend.new_key(lend)).collect()
    }

    #[test]
    fn vstamp_backend_write_chain_dominates_context() {
        let backend = VstampBackend::gc();
        let elements = backend.lends(3);
        let (_, clock_a, _) = backend.write(&mut (), &elements[0], None);
        let (_, clock_b, _) = backend.write(&mut (), &elements[1], Some(&clock_a));
        assert_eq!(backend.relation(&clock_b, &clock_a), Relation::Dominates);
        let (_, clock_c, _) = backend.write(&mut (), &elements[2], None);
        assert_eq!(backend.relation(&clock_c, &clock_a), Relation::Concurrent);
    }

    #[test]
    fn detach_ships_the_rightmost_string_of_a_several_string_element() {
        let backend = VstampBackend::gc();
        let root: PackedName = "{11}".parse().expect("a name");
        let ((), element) = backend.new_key(&root);
        // `11` ends in two one bits: the write splits it two levels deep.
        let (element, _, dot) = backend.write(&mut (), &element, None);
        assert_eq!((element.to_string(), dot.to_string()), ("{1101, 111}".into(), "{1100}".into()));
        // The kept part stays next to the spent dot; one string forks.
        let (kept, shipped) = backend.detach(&mut (), &element);
        assert_eq!((kept.to_string(), shipped.to_string()), ("{1101}".into(), "{111}".into()));
        let (kept, shipped) = backend.detach(&mut (), &kept);
        assert_eq!((kept.to_string(), shipped.to_string()), ("{11010}".into(), "{11011}".into()));
    }

    #[test]
    fn adopted_key_state_never_collapses_on_one_sided_evidence() {
        // Three replicas. A roots the key at its lend and ships parts to B
        // and C, which root their copies at them; neither hears of the
        // other's writes. No clock C mints may dominate (or equal) B's:
        // that would evict B's sibling sight-unseen during anti-entropy.
        let backend = VstampBackend::gc();
        let lends = backend.lends(3);
        let ((), element_a) = backend.new_key(&lends[0]);
        let (element_a, clock_root, _) = backend.write(&mut (), &element_a, None);
        let adopt = |lend: &PackedName, shipped: &PackedName| {
            backend.new_key_rooted(lend, shipped).expect("vstamp adopts").1
        };
        let (element_a, to_b) = backend.detach(&mut (), &element_a);
        let element_b = adopt(&lends[1], &to_b);
        let (_, clock_b, _) = backend.write(&mut (), &element_b, Some(&clock_root));
        let (_, to_c) = backend.detach(&mut (), &element_a);
        let mut element_c = adopt(&lends[2], &to_c);
        let mut context = clock_root;
        for _ in 0..24 {
            let (next_c, clock_c, _) = backend.write(&mut (), &element_c, Some(&context));
            assert_eq!(
                backend.relation(&clock_b, &clock_c),
                Relation::Concurrent,
                "an unseen remote sibling must stay concurrent"
            );
            element_c = next_c;
            context = clock_c;
        }
    }

    #[test]
    fn rooting_key_state_never_collapses_into_a_shipped_half() {
        // The rooting side of the test above: A roots the key at a fork
        // half of its membership stamp, ships a part to B and never hears
        // back. A's blind writes stay outside the shipped part, so none of
        // them is dominated by B's write.
        let backend = VstampBackend::gc();
        let (_, lend) = VersionStamp::seed().fork();
        let ((), element_a) = backend.new_key(lend.id_name());
        let (element_a, clock_root, _) = backend.write(&mut (), &element_a, None);
        let (mut element_a, to_b) = backend.detach(&mut (), &element_a);
        let (_, element_b) = backend.new_key_rooted(lend.id_name(), &to_b).expect("vstamp adopts");
        let (_, clock_b, _) = backend.write(&mut (), &element_b, Some(&clock_root));
        for _ in 0..24 {
            let (next_a, clock_a, _) = backend.write(&mut (), &element_a, None);
            assert_eq!(
                backend.relation(&clock_b, &clock_a),
                Relation::Concurrent,
                "a write inside a shipped half must stay concurrent"
            );
            element_a = next_a;
        }
    }

    /// A xorshift stream of indices below `bound`.
    fn picker(mut rng: u64) -> impl FnMut(usize) -> usize {
        move |bound: usize| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            (rng % bound as u64) as usize
        }
    }

    #[test]
    fn dots_and_live_elements_stay_pairwise_disjoint() {
        // Elements only shrink: a write spends a dot off one, a detach
        // splits one and the shipped part roots a new holder. Over any
        // such history every dot and every live element string is disjoint
        // from every other (Invariant I2), with no bookkeeping at all.
        let backend = VstampBackend::gc();
        let mut next = picker(0x2545_F491_4F6C_DD1D);
        let mut live = backend.lends(2);
        let mut dots: Vec<BitString> = Vec::new();
        for step in 0..400 {
            let at = next(live.len());
            if next(4) == 0 && live.len() < 12 {
                let (kept, shipped) = backend.detach(&mut (), &live[at]);
                live[at] = kept;
                let (_, adopted) = backend.new_key_rooted(&live[0], &shipped).expect("a live part");
                live.push(adopted);
            } else {
                let (kept, _, dot) = backend.write(&mut (), &live[at], None);
                live[at] = kept;
                dots.extend(dot.strings());
            }
            if step % 50 != 49 {
                continue;
            }
            let strings: Vec<BitString> =
                live.iter().flat_map(PackedName::strings).chain(dots.iter().cloned()).collect();
            for (i, s) in strings.iter().enumerate() {
                for t in &strings[i + 1..] {
                    assert!(s.is_incomparable_with(t), "step {step}: {s} and {t} overlap");
                }
            }
        }
    }

    #[test]
    fn dvv_incarnations_stay_pairwise_distinct_per_key() {
        // The baseline twin of the test above. Per key, three replicas
        // each either first-touch it at their own stripe or adopt a part
        // a holder detached for them, and write at random. Every
        // incarnation any of them ever holds is born once, and so is every
        // dot, with no allocator shared between the replicas.
        let backend = DynamicVvBackend::new();
        let lends = backend.lends(3);
        let mut next = picker(0x9E37_79B9_7F4A_7C15);
        for key in 0..200 {
            let mut holders: Vec<Option<(DynamicVvKeyState, DynamicVvElement)>> = vec![None; 3];
            let mut born: HashSet<ReplicaId> = HashSet::new();
            let mut dots: HashSet<(ReplicaId, u64)> = HashSet::new();
            let birth = |element: &DynamicVvElement, born: &mut HashSet<ReplicaId>| {
                assert!(born.insert(element.incarnation), "key {key}: {element} born twice");
            };
            for _ in 0..24 {
                let at = next(3);
                let held: Vec<usize> = (0..3).filter(|&r| holders[r].is_some()).collect();
                match holders[at].take() {
                    Some((mut state, element)) if next(3) > 0 || held.len() == 3 => {
                        let (element, _, dot) = backend.write(&mut state, &element, None);
                        let dot = dot.dot.expect("a write's dot");
                        assert!(dots.insert(dot), "key {key}: dot {dot:?} minted twice");
                        holders[at] = Some((state, element));
                    }
                    Some(holder) => {
                        // Detach a part for a replica that lacks the key.
                        let (mut state, element) = holder;
                        let to = (0..3).find(|r| holders[*r].is_none() && *r != at).expect("one");
                        let (kept, shipped) = backend.detach(&mut state, &element);
                        birth(&kept, &mut born);
                        birth(&shipped, &mut born);
                        holders[at] = Some((state, kept));
                        holders[to] = backend.new_key_rooted(&lends[to], &shipped);
                    }
                    None => {
                        let (state, element) = backend.new_key(&lends[at]);
                        birth(&element, &mut born);
                        holders[at] = Some((state, element));
                    }
                }
            }
        }
    }

    #[test]
    fn vstamp_compaction_requires_quiescence() {
        let mut cluster = Cluster::new(VstampBackend::gc(), 2, 1);
        cluster.put(0, "k", b"v".to_vec(), None);
        // Concurrent siblings block compaction.
        cluster.put(1, "k", b"w".to_vec(), None);
        cluster.anti_entropy(0, 1);
        cluster.anti_entropy(1, 0);
        assert_eq!(cluster.compact().keys_recycled, 0);
        // One surviving version cluster-wide: the universe recycles.
        let read = cluster.get(0, "k");
        cluster.put(0, "k", b"x".to_vec(), read.context());
        cluster.anti_entropy(1, 0);
        assert_eq!(cluster.compact().keys_recycled, 1);
        // The empty clock is the bottom: every later write dominates it.
        let fresh = cluster.get(1, "k").context().cloned().expect("a survivor");
        assert!(fresh.is_empty());
        let later = cluster.put(1, "k", b"y".to_vec(), None);
        assert_eq!(cluster.backend().relation(&later, &fresh), Relation::Dominates);
        assert_eq!(DynamicVvBackend::new().compact_quiescent(), None);
    }

    #[test]
    fn dynamic_vv_backend_allocates_identifiers_forever() {
        // Every detach mints two incarnations from the holder's stripe, and
        // the stripe never hands one out again.
        let backend = DynamicVvBackend::new();
        let mut roots = first_touches(&backend, 2);
        let (state, element) = &mut roots[1];
        let mut seen = HashSet::from([element.incarnation]);
        for _ in 0..8 {
            let (kept, shipped) = backend.detach(state, element);
            assert!(seen.insert(kept.incarnation) && seen.insert(shipped.incarnation));
            assert!(kept.incarnation.raw() % 2 == 1 && shipped.incarnation.raw() % 2 == 1);
            *element = kept;
        }
    }

    #[test]
    fn both_backends_roundtrip_wire_encodings() {
        let vs = VstampBackend::gc();
        let (element, clock, _) = vs.write(&mut (), &vs.lends(3)[2], None);
        let mut bytes = Vec::new();
        vs.encode_clock(&clock, &mut bytes);
        assert_eq!(vs.decode_clock(&bytes).unwrap(), clock);
        bytes.clear();
        vs.encode_element(&element, &mut bytes);
        assert_eq!(vs.decode_element(&bytes).unwrap(), element);
        bytes.clear();
        vs.encode_element(&PackedName::empty(), &mut bytes);
        assert!(vs.decode_element(&bytes).is_err(), "an element owns identity");
        assert!(vs.clock_bits(&clock) > 0);
        assert!(vs.element_bits(&element) > 0);

        let dv = DynamicVvBackend::new();
        let (mut state, element) = first_touches(&dv, 3).swap_remove(1);
        let (element, clock, _) = dv.write(&mut state, &element, None);
        bytes.clear();
        dv.encode_clock(&clock, &mut bytes);
        assert_eq!(dv.decode_clock(&bytes).unwrap(), clock);
        bytes.clear();
        dv.encode_element(&element, &mut bytes);
        assert_eq!(dv.decode_element(&bytes).unwrap(), element);
        assert!(dv.decode_element(&bytes[..bytes.len() - 1]).is_err());
        assert!(dv.clock_bits(&clock) > 0);
    }

    #[test]
    fn a_vector_width_its_bytes_cannot_hold_is_refused() {
        // A varint claiming 2^20 or 2^40 entries, with nothing after it:
        // the decoders refuse it before reserving room for a single entry.
        let dv = DynamicVvBackend::new();
        for claim in [1 << 20, 1 << 40] {
            // The clock's "no dot" flag, or the element's incarnation 0,
            // then the claim.
            let mut bytes = vec![0x00];
            codec::write_varint(&mut bytes, claim);
            assert!(matches!(dv.decode_clock(&bytes), Err(DecodeError::Malformed(_))));
            assert!(matches!(dv.decode_element(&bytes), Err(DecodeError::Malformed(_))));
        }
        // A width the bytes do hold still decodes.
        let mut bytes = vec![0x00];
        encode_vector(&VersionVector::from_entries([(ReplicaId::new(1), 2)]), &mut bytes);
        assert!(dv.decode_element(&bytes).is_ok());
    }
}
