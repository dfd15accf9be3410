//! The clock seam of the store: a [`StoreBackend`] supplies per-key causal
//! machinery — replica elements, per-version clocks, merge and compaction —
//! while the store itself only manages shards, sibling sets and transport.
//!
//! Two backends ship, selected by mechanism label exactly as in the
//! simulator's comparison tables:
//!
//! * [`VstampBackend`] (`version-stamps`) — the paper's mechanism. Each
//!   key is its own identity universe, and a replica element is an **id**
//!   ([`PackedName`]): a leaf of a fork tree of `{ε}`, or of a root id a
//!   node cut from its membership stamp. A write spends one string of the
//!   id as the version's dot ([`PackedName::mint_dot`]), and a replica
//!   that lacks a key gets its own id for it as a part split off a
//!   holder's element ([`StoreBackend::detach`]), which it roots its copy
//!   of the key at — the decentralized encoding of fork in the
//!   fork/join/update transition system, with **no identifiers and no
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
//!   sibling resolution over the dynamic version-vector baseline: every
//!   incarnation takes a fresh globally-unique identifier from a per-key
//!   allocator. This is the mechanism the paper positions version stamps
//!   against; [`Cluster::metrics`](crate::Cluster::metrics) reports the
//!   per-key metadata of either.
//!
//! Version clocks are *names* (for stamps) or *vectors* (for the baseline):
//! a written version's clock is the join of the client's read context with
//! the write's dot, so causal chains across replicas dominate exactly the
//! versions the client had seen.

use core::fmt;

use vstamp_core::codec::{self, StampCodec, VarintCodec};
use vstamp_core::{Bit, BitString, DecodeError, PackedName, Relation};

use vstamp_baselines::{DynamicVersionVectorMechanism, DynamicVvElement, ReplicaId, VersionVector};
use vstamp_core::Mechanism as _;

/// Per-key causal machinery the store is generic over. See the
/// [module docs](self) for the two shipped implementations.
pub trait StoreBackend: Send + Sync + 'static {
    /// Cluster-shared per-key coordination state (a key's root, id
    /// allocators). Lives in the cluster's clock plane, one per key.
    type KeyState: Send + fmt::Debug;
    /// Per-`(key, replica)` element driving the fork/join/update lifecycle:
    /// the replica's identity in the key's universe (an id for stamps, an
    /// incarnation plus its vector for the baseline).
    type Element: Clone + PartialEq + Send + Sync + fmt::Debug;
    /// Per-stored-version causal clock.
    type Clock: Clone + PartialEq + Send + Sync + fmt::Debug;

    /// Mechanism label used to select and report the backend
    /// (`version-stamps`, `dynamic-vv`).
    fn label(&self) -> &'static str;

    /// Creates a fresh key universe: the coordination state plus one
    /// element per replica.
    fn new_key(&self, replicas: usize) -> (Self::KeyState, Vec<Self::Element>);

    /// Creates a key universe rooted at a caller-supplied element instead
    /// of the seed — the *decentralized creation* path of multi-process
    /// serving, where a node's first write of a key anchors the key's
    /// identity space under an id cut from the node's own membership
    /// stamp, so first-writes of different keys at different nodes never
    /// share identity space. A node that learns a key from a peer roots
    /// it the same way, at the element half the peer shipped for it.
    ///
    /// Returns `None` when the backend cannot root a universe without
    /// coordination (identifier-allocating backends would need their
    /// central allocator consulted — exactly the dependency the paper's
    /// mechanism removes).
    fn new_key_rooted(
        &self,
        _replicas: usize,
        _root: &Self::Element,
    ) -> Option<(Self::KeyState, Vec<Self::Element>)> {
        None
    }

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

    /// Attempts quiescent-point compaction of the key universe: when
    /// exactly one version clock is stored cluster-wide, re-mints the
    /// whole identity space. Returns the
    /// fresh elements (one per entry of `elements`) and the fresh clock for
    /// the surviving version, or `None` when compaction does not apply.
    fn compact_quiescent(
        &self,
        state: &mut Self::KeyState,
        elements: &[Self::Element],
        stored_clocks: &[Self::Clock],
    ) -> Option<(Vec<Self::Element>, Self::Clock)>;

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

/// Builds the balanced fork tree under `root` whose leaves are the initial
/// replica elements of a key: `{ε}` for a fresh universe or the quiescent
/// re-mint, an id cut from a node's membership stamp for a rooted key, a
/// peer's shipped part for an adopted one. Elements are ids only — causal
/// knowledge lives in the version clocks.
fn fork_tree(root: PackedName, replicas: usize) -> Vec<PackedName> {
    let mut elements = vec![root];
    while elements.len() < replicas.max(1) {
        let victim = elements.remove(0);
        elements.push(victim.append(Bit::Zero));
        elements.push(victim.append(Bit::One));
    }
    elements
}

/// Per-key coordination state of [`VstampBackend`]: the string the key's
/// universe is rooted at, which [`StoreBackend::compact_quiescent`]
/// re-mints under. Elements only ever shrink (a write spends a dot, a
/// detach gives a part away), so the key needs no evidence of who holds
/// what.
#[derive(Debug, Default)]
pub struct VstampKeyState {
    root: BitString,
}

impl VstampKeyState {
    /// The string the key is rooted at.
    #[cfg(test)]
    pub(crate) fn root(&self) -> &BitString {
        &self.root
    }
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
    type KeyState = VstampKeyState;
    type Element = PackedName;
    type Clock = PackedName;

    fn label(&self) -> &'static str {
        "version-stamps"
    }

    fn new_key(&self, replicas: usize) -> (Self::KeyState, Vec<Self::Element>) {
        self.new_key_rooted(replicas, &PackedName::epsilon()).expect("{ε} is a live id")
    }

    /// A root with several strings (a lend off a fragmented membership id,
    /// or a shipped half of a several-string element) is shrunk to its
    /// shallowest string first, so every element of the key is one string
    /// from the start. Dropping id strings is sound: an id carries no event
    /// markers. The empty id owns nothing to mint from and roots nothing.
    fn new_key_rooted(
        &self,
        replicas: usize,
        root: &Self::Element,
    ) -> Option<(Self::KeyState, Vec<Self::Element>)> {
        let root = root.shallowest_string()?;
        let elements = fork_tree(PackedName::singleton(&root), replicas);
        Some((VstampKeyState { root }, elements))
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

    fn compact_quiescent(
        &self,
        state: &mut Self::KeyState,
        elements: &[Self::Element],
        stored_clocks: &[Self::Clock],
    ) -> Option<(Vec<Self::Element>, Self::Clock)> {
        // Only the fully-settled shape recycles: a single surviving version
        // cluster-wide (the caller has verified it is identical on every
        // replica). The fresh universe re-mints the elements as a fork tree
        // under the key's root and the surviving version's clock as the
        // empty clock, the bottom of the cover order, which every future
        // write strictly dominates — the bounded-timestamp recycling
        // discipline, per key. (`{ε}` is the top: it would dominate every
        // later write.)
        if stored_clocks.len() != 1 {
            return None;
        }
        let root = PackedName::singleton(&state.root);
        let (fresh_state, fresh) =
            self.new_key_rooted(elements.len(), &root).expect("a root is a live id");
        *state = fresh_state;
        Some((fresh, PackedName::empty()))
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

/// Per-key coordination state of [`DynamicVvBackend`]: the per-key
/// incarnation-identifier allocator (the global service the paper removes).
#[derive(Debug, Default)]
pub struct DynamicVvKeyState {
    mechanism: DynamicVersionVectorMechanism,
}

impl DynamicVvKeyState {
    /// Incarnation identifiers handed out for this key so far — the
    /// unbounded quantity the version-stamp backend does without.
    #[must_use]
    pub fn incarnations_allocated(&self) -> u64 {
        self.mechanism.incarnations_allocated()
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

fn decode_vector(input: &mut &[u8]) -> Result<VersionVector, DecodeError> {
    let entries = codec::read_varint(input)?;
    if entries > 1 << 20 {
        return Err(DecodeError::Malformed("implausible vector width"));
    }
    let mut pairs = Vec::with_capacity(entries as usize);
    for _ in 0..entries {
        let replica = codec::read_varint(input)?;
        let counter = codec::read_varint(input)?;
        pairs.push((ReplicaId::new(replica), counter));
    }
    Ok(VersionVector::from_entries(pairs))
}

impl StoreBackend for DynamicVvBackend {
    type KeyState = DynamicVvKeyState;
    type Element = DynamicVvElement;
    type Clock = DvvClock;

    fn label(&self) -> &'static str {
        "dynamic-vv"
    }

    fn new_key(&self, replicas: usize) -> (Self::KeyState, Vec<Self::Element>) {
        let mut state = DynamicVvKeyState::default();
        let mut elements = vec![state.mechanism.initial()];
        while elements.len() < replicas.max(1) {
            let victim = elements.remove(0);
            let (left, right) = state.mechanism.fork(&victim);
            elements.push(left);
            elements.push(right);
        }
        (state, elements)
    }

    fn write(
        &self,
        state: &mut Self::KeyState,
        element: &Self::Element,
        context: Option<&Self::Clock>,
    ) -> (Self::Element, Self::Clock, Self::Clock) {
        let advanced = state.mechanism.update(element);
        let dot = (advanced.incarnation, advanced.vector.get(advanced.incarnation));
        let clock =
            DvvClock { dot: Some(dot), ctx: context.map(DvvClock::effective).unwrap_or_default() };
        let dot_clock = DvvClock { dot: Some(dot), ctx: VersionVector::default() };
        (advanced, clock, dot_clock)
    }

    fn rebuild_clock(&self, context: Option<&Self::Clock>, dot: &Self::Clock) -> Self::Clock {
        DvvClock { dot: dot.dot, ctx: context.map(DvvClock::effective).unwrap_or_default() }
    }

    fn detach(
        &self,
        state: &mut Self::KeyState,
        element: &Self::Element,
    ) -> (Self::Element, Self::Element) {
        state.mechanism.fork(element)
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

    fn compact_quiescent(
        &self,
        _state: &mut Self::KeyState,
        _elements: &[Self::Element],
        _stored_clocks: &[Self::Clock],
    ) -> Option<(Vec<Self::Element>, Self::Clock)> {
        // Identifier-based vectors never shed retired incarnations — this
        // is precisely the contrast the benchmark measures.
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
    use vstamp_core::VersionStamp;

    #[test]
    fn vstamp_backend_write_chain_dominates_context() {
        let backend = VstampBackend::gc();
        let (mut state, elements) = backend.new_key(3);
        let (_, clock_a, _) = backend.write(&mut state, &elements[0], None);
        let (_, clock_b, _) = backend.write(&mut state, &elements[1], Some(&clock_a));
        assert_eq!(backend.relation(&clock_b, &clock_a), Relation::Dominates);
        let (_, clock_c, _) = backend.write(&mut state, &elements[2], None);
        assert_eq!(backend.relation(&clock_c, &clock_a), Relation::Concurrent);
    }

    #[test]
    fn detach_ships_the_rightmost_string_of_a_several_string_element() {
        let backend = VstampBackend::gc();
        let root: PackedName = "{11}".parse().expect("a name");
        let (mut state, elements) = backend.new_key_rooted(1, &root).expect("vstamp roots keys");
        // `11` ends in two one bits: the write splits it two levels deep.
        let (element, _, dot) = backend.write(&mut state, &elements[0], None);
        assert_eq!((element.to_string(), dot.to_string()), ("{1101, 111}".into(), "{1100}".into()));
        // The kept part stays next to the spent dot; one string forks.
        let (kept, shipped) = backend.detach(&mut state, &element);
        assert_eq!((kept.to_string(), shipped.to_string()), ("{1101}".into(), "{111}".into()));
        let (kept, shipped) = backend.detach(&mut state, &kept);
        assert_eq!((kept.to_string(), shipped.to_string()), ("{11010}".into(), "{11011}".into()));
    }

    #[test]
    fn adopted_key_state_never_collapses_on_one_sided_evidence() {
        // Three separate processes. A roots the key and ships parts to B
        // and C, which root their copies at them; neither hears of the
        // other's writes. No clock C mints may dominate (or equal) B's:
        // that would evict B's sibling sight-unseen during anti-entropy.
        let backend = VstampBackend::gc();
        let (mut state_a, elements) = backend.new_key(1);
        let (element_a, clock_root, _) = backend.write(&mut state_a, &elements[0], None);
        let adopt = |shipped: &PackedName| {
            let (state, elements) = backend.new_key_rooted(1, shipped).expect("vstamp adopts");
            (state, elements[0].clone())
        };
        let (element_a, to_b) = backend.detach(&mut state_a, &element_a);
        let (mut state_b, element_b) = adopt(&to_b);
        let (_, clock_b, _) = backend.write(&mut state_b, &element_b, Some(&clock_root));
        let (_, to_c) = backend.detach(&mut state_a, &element_a);
        let (mut state_c, mut element_c) = adopt(&to_c);
        let mut context = clock_root;
        for _ in 0..24 {
            let (next_c, clock_c, _) = backend.write(&mut state_c, &element_c, Some(&context));
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
        let (mut state_a, elements) =
            backend.new_key_rooted(1, lend.id_name()).expect("vstamp roots keys");
        let (element_a, clock_root, _) = backend.write(&mut state_a, &elements[0], None);
        let (mut element_a, to_b) = backend.detach(&mut state_a, &element_a);
        let (mut state_b, elements_b) = backend.new_key_rooted(1, &to_b).expect("vstamp adopts");
        let (_, clock_b, _) = backend.write(&mut state_b, &elements_b[0], Some(&clock_root));
        for _ in 0..24 {
            let (next_a, clock_a, _) = backend.write(&mut state_a, &element_a, None);
            assert_eq!(
                backend.relation(&clock_b, &clock_a),
                Relation::Concurrent,
                "a write inside a shipped half must stay concurrent"
            );
            element_a = next_a;
        }
    }

    #[test]
    fn dots_and_live_elements_stay_pairwise_disjoint() {
        // Elements only shrink: a write spends a dot off one, a detach
        // splits one and the shipped part roots a new holder. Over any
        // such history every dot and every live element string is disjoint
        // from every other (Invariant I2), with no bookkeeping at all.
        let backend = VstampBackend::gc();
        let mut rng = 0x2545_F491_4F6C_DD1Du64;
        let mut next = |bound: usize| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            (rng % bound as u64) as usize
        };
        let (mut state, mut live) = backend.new_key(2);
        let mut dots: Vec<BitString> = Vec::new();
        for step in 0..400 {
            let at = next(live.len());
            if next(4) == 0 && live.len() < 12 {
                let (kept, shipped) = backend.detach(&mut state, &live[at]);
                live[at] = kept;
                let (_, adopted) = backend.new_key_rooted(1, &shipped).expect("a live part");
                live.extend(adopted);
            } else {
                let (kept, _, dot) = backend.write(&mut state, &live[at], None);
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
    fn vstamp_compaction_requires_quiescence() {
        let backend = VstampBackend::gc();
        let (mut state, elements) = backend.new_key(2);
        let (_, clock, _) = backend.write(&mut state, &elements[0], None);
        // One surviving version cluster-wide: the universe recycles.
        let compacted =
            backend.compact_quiescent(&mut state, &elements, std::slice::from_ref(&clock));
        let (fresh, fresh_clock) = compacted.expect("quiescent key compacts");
        assert_eq!(fresh.len(), 2);
        // The empty clock is the bottom: every later write dominates it.
        assert!(fresh_clock.is_empty());
        // Concurrent siblings block compaction.
        let (mut state, elements) = backend.new_key(2);
        let (_, c0, _) = backend.write(&mut state, &elements[0], None);
        let (_, c1, _) = backend.write(&mut state, &elements[1], None);
        assert!(backend.compact_quiescent(&mut state, &elements, &[c0, c1]).is_none());
    }

    #[test]
    fn dynamic_vv_backend_allocates_identifiers_forever() {
        let backend = DynamicVvBackend::new();
        let (mut state, elements) = backend.new_key(2);
        let before = state.incarnations_allocated();
        let _ = backend.detach(&mut state, &elements[0]);
        assert!(state.incarnations_allocated() > before);
    }

    #[test]
    fn both_backends_roundtrip_wire_encodings() {
        let vs = VstampBackend::gc();
        let (mut state, elements) = vs.new_key(3);
        let (element, clock, _) = vs.write(&mut state, &elements[2], None);
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
        let (mut state, elements) = dv.new_key(3);
        let (element, clock, _) = dv.write(&mut state, &elements[1], None);
        bytes.clear();
        dv.encode_clock(&clock, &mut bytes);
        assert_eq!(dv.decode_clock(&bytes).unwrap(), clock);
        bytes.clear();
        dv.encode_element(&element, &mut bytes);
        assert_eq!(dv.decode_element(&bytes).unwrap(), element);
        assert!(dv.decode_element(&bytes[..bytes.len() - 1]).is_err());
        assert!(dv.clock_bits(&clock) > 0);
    }
}
