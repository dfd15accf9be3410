//! The clock seam of the store: a [`StoreBackend`] supplies per-key causal
//! machinery — replica elements, per-version clocks, merge and compaction —
//! while the store itself only manages shards, sibling sets and transport.
//!
//! Two backends ship, selected by mechanism label exactly as in the
//! simulator's comparison tables:
//!
//! * [`VstampBackend`] (`version-stamps` / `version-stamps-gc`) — the
//!   paper's mechanism. Each key is its own identity universe, and a
//!   replica element is an **id** ([`PackedName`]): the leaves of a fork
//!   tree of `{ε}` (or of a root id a node cut from its membership stamp).
//!   A write spends one string of the id as the version's dot
//!   ([`PackedName::mint_dot`]), shipping state in anti-entropy splits the
//!   id (sender keeps one part, the other rides the delta) and merging is
//!   a `join` of ids — the decentralized encoding of gossip in the
//!   fork/join/update transition system, with **no identifiers and no
//!   counters anywhere**. Causal knowledge lives only in the version clocks
//!   (context ⊔ dot, as in Dotted Version Vectors), so an element never
//!   carries an update component.
//!
//!   A clock is the set of dots it has seen, and dots are pairwise
//!   disjoint regions (subtrees), so a clock is ordered by region
//!   inclusion — the *cover order* of [`PackedName::cover_leq`], not
//!   Definition 4.1's order on names — and kept in cover-canonical form,
//!   where two sibling dots merge into their parent. The mint is
//!   counter-shaped: one writer's successive dots fill a left-to-right run
//!   of leaves, so their union stays a few strings, the way a version
//!   vector entry folds a replica's contiguous counters into one number.
//!   Canonical clocks are unique, so equal clocks are byte-equal, and
//!   [`StoreBackend::decode_clock`] refuses any other form. With GC
//!   enabled, merges apply the frontier-evidence collapse **amortized
//!   behind [`GcWatermarks`]**: every merge still shrinks the element to
//!   one string (bounded size), but the evidence-gated collapse that
//!   re-anchors identity to a shallower subtree runs only when a key's
//!   merge count or element size crosses its watermark, plus a forced pass
//!   at the compaction boundary. The evidence pins every live element
//!   *and* every stored version clock (a stored sibling is a live
//!   reference to its event markers, so its subtree must not be re-minted
//!   while it can still be compared); pins are packed names, so
//!   maintaining them costs a hash and a byte-compare.
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
    /// Cluster-shared per-key coordination state (GC evidence pins, id
    /// allocators). Lives in the cluster's clock plane, one per key.
    type KeyState: Send + fmt::Debug;
    /// Per-`(key, replica)` element driving the fork/join/update lifecycle:
    /// the replica's identity in the key's universe (an id for stamps, an
    /// incarnation plus its vector for the baseline).
    type Element: Clone + PartialEq + Send + Sync + fmt::Debug;
    /// Per-stored-version causal clock.
    type Clock: Clone + PartialEq + Send + Sync + fmt::Debug;

    /// Mechanism label used to select and report the backend
    /// (`version-stamps-gc`, `version-stamps`, `dynamic-vv`).
    fn label(&self) -> &'static str;

    /// Creates a fresh key universe: the coordination state plus one
    /// element per replica.
    fn new_key(&self, replicas: usize) -> (Self::KeyState, Vec<Self::Element>);

    /// Creates a key universe rooted at a caller-supplied element instead
    /// of the seed — the *decentralized creation* path of multi-process
    /// serving, where a node's first write of a key anchors the key's
    /// identity space under an id cut from the node's own membership
    /// stamp, so first-writes of different keys at different nodes never
    /// share identity space.
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

    /// Adopts a peer's shipped element as this process's first element for
    /// a previously-unknown key: builds the coordination state with the
    /// shipped element pinned, so the follow-up merge traffic balances.
    /// Multi-process nodes use this when anti-entropy teaches them a key
    /// they have never written.
    ///
    /// Returns `None` when the backend cannot adopt foreign elements.
    fn adopt_key(&self, _element: &Self::Element) -> Option<Self::KeyState> {
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

    /// Splits the element for an anti-entropy send: `(kept, shipped)`. The
    /// shipped half rides the delta and is consumed by the receiver's
    /// [`StoreBackend::absorb`].
    fn detach(
        &self,
        state: &mut Self::KeyState,
        element: &Self::Element,
    ) -> (Self::Element, Self::Element);

    /// Merges a shipped element into the local one (the `join` transition),
    /// applying whatever compaction the backend's policy allows.
    fn absorb(
        &self,
        state: &mut Self::KeyState,
        local: &Self::Element,
        shipped: &Self::Element,
    ) -> Self::Element;

    /// A deferred-maintenance pass over one replica's element: backends
    /// with amortized GC run their full collapse here regardless of
    /// watermarks (the store calls it at the compaction boundary). Returns
    /// the rewritten element, or `None` when nothing changed.
    fn flush_gc(
        &self,
        _state: &mut Self::KeyState,
        _element: &Self::Element,
    ) -> Option<Self::Element> {
        None
    }

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

    /// Records that a version carrying `clock` is now stored somewhere in
    /// the cluster (GC evidence pin; no-op for identifier-based backends).
    fn retain_clock(&self, state: &mut Self::KeyState, clock: &Self::Clock);

    /// Records that a stored version carrying `clock` was discarded.
    fn release_clock(&self, state: &mut Self::KeyState, clock: &Self::Clock);

    /// Attempts quiescent-point compaction of the key universe: when every
    /// replica element is pairwise `Equal` and exactly one version clock is
    /// stored cluster-wide, re-mints the whole identity space. Returns the
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

    /// Appends a stable encoding of the element's *knowledge* (what it has
    /// seen, not its identity) — the digest ingredient that decides whether
    /// an exchange still has something to teach this replica. Identity
    /// components are excluded on purpose: they churn with every
    /// detach/absorb even when no knowledge moves.
    fn encode_element_knowledge(&self, element: &Self::Element, out: &mut Vec<u8>);

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
/// re-mint, an id cut from a node's membership stamp for a rooted key.
/// Elements are ids only — causal knowledge lives in the version clocks,
/// where eviction can release it — so Section-6 reduction and the
/// frontier GC are free to collapse and re-anchor identities the moment
/// no stored clock pins them.
fn fork_tree(root: PackedName, replicas: usize) -> Vec<PackedName> {
    let mut elements = vec![root];
    while elements.len() < replicas.max(1) {
        let victim = elements.remove(0);
        elements.push(victim.append(Bit::Zero));
        elements.push(victim.append(Bit::One));
    }
    elements
}

/// Cost-model knobs of the amortized frontier GC: a key runs the full
/// evidence-gated collapse when **either** watermark is crossed — after
/// `merge_interval` element merges since the last collapse, or as soon as
/// the element's wire size reaches `element_bits`. Between collapses every
/// merge still shrinks the element to one identity string (which writes
/// split again), so only the element's *depth* drifts until the next
/// collapse re-anchors it.
///
/// Lower watermarks spend CPU to keep dots shallow (smaller clocks);
/// higher watermarks trade a few bits of per-key metadata for write/merge
/// throughput. See the README "Performance" section for measured guidance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GcWatermarks {
    /// Collapse after this many merges since the last collapse.
    pub merge_interval: u32,
    /// Collapse as soon as the element's encoded size reaches this many
    /// bits.
    pub element_bits: u32,
}

impl Default for GcWatermarks {
    /// The store default: collapse every fourth merge, sooner when the
    /// element outgrows 16 wire bits (≈ identity depth 5, which directly
    /// bounds the depth of freshly-minted dots). Per-key metadata lands
    /// *below* collapse-every-merge on the simulation grids — the
    /// write-side bits check collapses more proactively than absorb-only
    /// GC does — at roughly double its partition-heal throughput.
    fn default() -> Self {
        GcWatermarks { merge_interval: 4, element_bits: 16 }
    }
}

impl GcWatermarks {
    /// Collapse at every merge and never on the write path (the bits
    /// watermark is disabled) — exactly the PR 3 behaviour, the reference
    /// point of the amortization tests and A/B runs.
    #[must_use]
    pub fn aggressive() -> Self {
        GcWatermarks { merge_interval: 1, element_bits: u32::MAX }
    }

    /// Defer aggressively: collapse only every 32nd merge or past 512
    /// element bits. Used by the oracle tests to show deferral never
    /// trades causal exactness.
    #[must_use]
    pub fn lazy() -> Self {
        GcWatermarks { merge_interval: 32, element_bits: 512 }
    }
}

/// Per-key coordination state of [`VstampBackend`]: a refcounted multiset
/// of pinned names — the id of every live element (replica-held or in
/// flight) and every stored version clock — which is exactly the frontier
/// evidence the collapse needs. Pins stay packed: pin/unpin is a hashed
/// byte-compare scan, and a collapse descends each pin once.
#[derive(Debug, Default)]
pub struct VstampKeyState {
    /// `(quick_hash, name, refcount)` — the hash prefilter turns the
    /// per-transition scan into 64-bit compares, with the byte-equality
    /// check only on hash hits.
    pins: Vec<(u64, PackedName, u32)>,
    merges_since_gc: u32,
    /// The root floor: a prefix of the element that no collapse truncates
    /// above. `ε` for a key born in process, the root string for a key a
    /// node rooted — the pins see only this process's share of the key, so
    /// a second root of the key (another node's first touch) is outside
    /// the evidence and must stay outside the element. It follows the
    /// element into a half granted from another root ([`absorb`]). It is a
    /// prefix, not a length: a length would let an element that moved into
    /// a deeper foreign root truncate above that root.
    ///
    /// [`absorb`]: StoreBackend::absorb
    floor: BitString,
    degraded: bool,
}

impl VstampKeyState {
    /// Wire bits of `element` below the floor — what the bits watermark
    /// counts, so a floored key collapses on the schedule of an `ε`-rooted
    /// one. Every string of the element counts; the floor's path is shared
    /// by all of them and counted once: each floor bit is a `Node` tag (two
    /// wire bits) and its `Empty` sibling (one).
    fn bits_below_floor(&self, element: &PackedName) -> u32 {
        element.encoded_bits().saturating_sub(3 * self.floor.len()) as u32
    }

    /// Pins a name by reference; the owned copy is made only when a new
    /// table entry is actually inserted (refcount bumps are clone-free).
    fn pin(&mut self, name: &PackedName) {
        let hash = name.quick_hash();
        match self
            .pins
            .iter_mut()
            .find(|(pinned_hash, pinned, _)| *pinned_hash == hash && pinned == name)
        {
            Some((_, _, count)) => *count += 1,
            None => self.pins.push((hash, name.clone(), 1)),
        }
    }

    fn unpin(&mut self, name: &PackedName) {
        let hash = name.quick_hash();
        match self
            .pins
            .iter()
            .position(|(pinned_hash, pinned, _)| *pinned_hash == hash && pinned == name)
        {
            Some(index) => {
                self.pins[index].2 -= 1;
                if self.pins[index].2 == 0 {
                    // Ordered removal (not swap_remove): the collapse's
                    // reverse scan relies on the newest pins staying at the
                    // back, and the table is a few dozen entries at most.
                    self.pins.remove(index);
                }
            }
            // A transition the state never saw: evidence is unreliable from
            // here on — degrade to plain eager reduction, never collapse on
            // bad evidence (mirrors `FrontierGc::is_degraded`).
            None => self.degraded = true,
        }
    }

    /// The key's root floor (see the field).
    #[cfg(test)]
    pub(crate) fn floor(&self) -> &BitString {
        &self.floor
    }

    /// Whether evidence tracking lost sync and GC is disabled for this key.
    #[must_use]
    pub fn is_degraded(&self) -> bool {
        self.degraded
    }
}

/// The version-stamp backend; see the [module docs](self). `gc` selects
/// whether (and how often, via [`GcWatermarks`]) merges apply the
/// frontier-evidence collapse on top of eager Section-6 reduction. Clocks
/// and elements ride the wire in the byte-aligned [`VarintCodec`].
#[derive(Debug, Clone, Default)]
pub struct VstampBackend {
    gc: Option<GcWatermarks>,
}

impl VstampBackend {
    /// Eager reduction only — the Section-6 mechanism verbatim.
    #[must_use]
    pub fn eager() -> Self {
        VstampBackend { gc: None }
    }

    /// Eager reduction plus amortized frontier-evidence GC at the default
    /// [`GcWatermarks`] (the store default).
    #[must_use]
    pub fn gc() -> Self {
        Self::gc_with(GcWatermarks::default())
    }

    /// Eager reduction plus frontier-evidence GC at explicit watermarks.
    #[must_use]
    pub fn gc_with(watermarks: GcWatermarks) -> Self {
        VstampBackend { gc: Some(watermarks) }
    }

    /// Runs the evidence-gated collapse on an element: the frontier-
    /// evidence collapse of `vstamp_core::gc` reduces, per id string `s`,
    /// to *truncating `s` at the shallowest prefix that no pinned name and
    /// no other string of the element dominates* — one trie descent per
    /// pin, no set-form conversion — and never above the key's floor.
    ///
    /// An absorb leaves a one-string element; writes split it into several
    /// (the dot mint keeps the right siblings of the spent leaf). The
    /// truncated strings stay pairwise disjoint, and their union is
    /// brought back to canonical form, so sibling strings merge.
    fn collapse_element(&self, state: &mut VstampKeyState, element: &PackedName) -> PackedName {
        state.merges_since_gc = 0;
        let strings = element.strings();
        // Strings come in preorder, which is lexicographic for an antichain,
        // so the longest prefix a string shares with any other string of
        // the element is the one it shares with a neighbour.
        let shared = |at: usize, with: Option<&BitString>| {
            with.map(|other| {
                strings[at].iter().zip(other.iter()).take_while(|(a, b)| a == b).count()
            })
        };
        let lens: Vec<usize> = strings
            .iter()
            .enumerate()
            .map(|(at, s)| {
                // Longest prefix of `s` the rest of the frontier still pins;
                // one deeper is the shallowest legal re-anchor point.
                // Scanned in reverse: the most recently pinned names (the
                // latest spent dots, which block at depth − 1 until their
                // version is superseded everywhere) sit at the back, so a
                // futile attempt — re-anchor point at or below the current
                // depth — is proven by a single descent instead of a full
                // pin sweep.
                let before = at.checked_sub(1).map(|before| &strings[before]);
                let mut blocked = shared(at, before).max(shared(at, strings.get(at + 1)));
                for (_, pin, _) in state.pins.iter().rev() {
                    if blocked.is_some_and(|len| len + 1 >= s.len()) {
                        break;
                    }
                    if let Some(len) = pin.dominated_prefix_len(s) {
                        blocked = Some(blocked.map_or(len, |b| b.max(len)));
                    }
                }
                blocked.map_or(0, |len| len + 1).max(state.floor.len()).min(s.len())
            })
            .collect();
        if strings.iter().zip(&lens).all(|(s, &len)| len == s.len()) {
            return element.clone();
        }
        let truncated: Vec<PackedName> = strings
            .iter()
            .zip(lens)
            .map(|(s, len)| PackedName::singleton(&BitString::from_bits(s.iter().take(len))))
            .collect();
        PackedName::cover_join_many(&truncated)
    }

    /// Whether the amortized-GC cost model says this key is due a collapse.
    fn collapse_due(&self, state: &VstampKeyState, element: &PackedName) -> Option<()> {
        let watermarks = self.gc.as_ref()?;
        if state.degraded {
            return None;
        }
        (state.merges_since_gc >= watermarks.merge_interval
            || state.bits_below_floor(element) >= watermarks.element_bits)
            .then_some(())
    }
}

impl StoreBackend for VstampBackend {
    type KeyState = VstampKeyState;
    type Element = PackedName;
    type Clock = PackedName;

    fn label(&self) -> &'static str {
        if self.gc.is_some() {
            "version-stamps-gc"
        } else {
            "version-stamps"
        }
    }

    fn new_key(&self, replicas: usize) -> (Self::KeyState, Vec<Self::Element>) {
        self.new_key_rooted(replicas, &PackedName::epsilon()).expect("{ε} is a live id")
    }

    /// A root with several strings (a lend off a fragmented membership id)
    /// is shrunk to its shallowest string first, so every element of the
    /// key is one string from the start. Dropping id strings is sound: an
    /// id carries no event markers. The empty id owns nothing to mint from
    /// and roots nothing. The root string is the key's floor.
    fn new_key_rooted(
        &self,
        replicas: usize,
        root: &Self::Element,
    ) -> Option<(Self::KeyState, Vec<Self::Element>)> {
        let floor = root.shallowest_string()?;
        let elements = fork_tree(PackedName::singleton(&floor), replicas);
        let mut state = VstampKeyState { floor, ..VstampKeyState::default() };
        for element in &elements {
            state.pin(element);
        }
        Some((state, elements))
    }

    fn adopt_key(&self, element: &Self::Element) -> Option<Self::KeyState> {
        // An adopted key's evidence pool is incomplete by construction:
        // the pins here can only ever cover *this* process's elements and
        // stored clocks, while the universe's other fork halves live in
        // the pools of remote processes. Collapsing on such one-sided
        // evidence can absorb a sibling subtree a remote replica still
        // owns and then mint a dot inside it, whose clock would falsely
        // dominate (and silently evict) the remote replica's unseen
        // sibling writes. Mark the state degraded so every collapse path
        // stays off; eager Section-6 reduction still runs, and the
        // *membership* identity retirement is unaffected (it is gated on
        // member-table evidence, not this pool).
        let mut state = VstampKeyState { degraded: true, ..VstampKeyState::default() };
        state.pin(element);
        Some(state)
    }

    fn write(
        &self,
        state: &mut Self::KeyState,
        element: &Self::Element,
        context: Option<&Self::Clock>,
    ) -> (Self::Element, Self::Clock, Self::Clock) {
        // Bits-watermark check *before* minting: a deep element would mint
        // an equally deep dot into the version's clock, where deferred
        // depth becomes persistent metadata. Collapsing here is sound —
        // the element has not minted yet, so no in-flight marker of this
        // write exists for the collapse to re-mint (the absorb-side
        // collapse has the same property: it runs before the result is
        // pinned and never touches unpinned markers' subtrees only when
        // evidence frees them).
        let collapsed;
        let element =
            if self.gc.as_ref().is_some_and(|w| state.bits_below_floor(element) >= w.element_bits)
                && !state.degraded
            {
                state.unpin(element);
                collapsed = self.collapse_element(state, element);
                state.pin(&collapsed);
                &collapsed
            } else {
                element
            };
        // Every write *spends* one string of the element's identity on the
        // version: the dot is globally unique (no two writes ever mint the
        // same one, Invariant I2), the version's clock is the client's read
        // context joined with the dot, and evicting the version later
        // releases its pin so the collapse pool reclaims the spent space —
        // identity lending instead of counters. The mint is counter-shaped
        // (the decentralized stand-in for DVV's `(replica, counter)` pair):
        // a writer's successive dots fill a left-to-right run of leaves, so
        // in the clock they merge into O(depth) strings, the way a version
        // vector entry folds contiguous counters into one number.
        let (kept, marker) = element.mint_dot();
        let clock = self.rebuild_clock(context, &marker);
        state.unpin(element);
        state.pin(&kept);
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
        state: &mut Self::KeyState,
        element: &Self::Element,
    ) -> (Self::Element, Self::Element) {
        // A several-string element is a run the dot mint spends from the
        // left: ship its rightmost (shallowest) string, the one farthest
        // from the spent dots, so what stays is still one run next to them
        // and their clock strings can still merge. Halving every string
        // instead would leave shipped space between every pair of future
        // dots. A one-string element forks in halves.
        let (kept, shipped) = element
            .split_last()
            .unwrap_or_else(|| (element.append(Bit::Zero), element.append(Bit::One)));
        state.unpin(element);
        state.pin(&kept);
        state.pin(&shipped);
        (kept, shipped)
    }

    fn absorb(
        &self,
        state: &mut Self::KeyState,
        local: &Self::Element,
        shipped: &Self::Element,
    ) -> Self::Element {
        state.unpin(local);
        state.unpin(shipped);
        // Join the ids, then keep only the shallowest string of the
        // *reduced* join, read straight off the joined tags (full sibling
        // subtrees collapse to their roots) — one linear scan for join,
        // Section-6 reduction and shrink. Dropping strings is sound for
        // ids: they carry no markers, and every re-minting path is
        // evidence-gated. Without the shrink the absorbed fork halves
        // accumulate one string per exchange — the measured fragmentation
        // wall. It runs at *every* merge; only the evidence-gated collapse
        // below is amortized.
        let joined = local.join(shipped);
        let s = joined.collapsed_shallowest().expect("joined live ids are non-empty");
        // A string off the floor lies in a half granted from another root
        // of the key: the element moved there, and the floor follows it.
        if !state.floor.is_prefix_of(&s) {
            state.floor = s.clone();
        }
        let mut result = PackedName::singleton(&s);
        state.merges_since_gc += 1;
        if self.collapse_due(state, &result).is_some() {
            result = self.collapse_element(state, &result);
        }
        state.pin(&result);
        result
    }

    fn flush_gc(
        &self,
        state: &mut Self::KeyState,
        element: &Self::Element,
    ) -> Option<Self::Element> {
        if self.gc.is_none() || state.degraded {
            return None;
        }
        state.unpin(element);
        let rewritten = self.collapse_element(state, element);
        state.pin(&rewritten);
        (&rewritten != element).then_some(rewritten)
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

    fn retain_clock(&self, state: &mut Self::KeyState, clock: &Self::Clock) {
        state.pin(clock);
    }

    fn release_clock(&self, state: &mut Self::KeyState, clock: &Self::Clock) {
        state.unpin(clock);
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
        // and the surviving version's clock as the empty clock, the bottom
        // of the cover order, which every future write strictly dominates —
        // the bounded-timestamp recycling discipline, per key. (`{ε}` is
        // the top: it would dominate every later write.) The re-mint stays
        // under the key's floor.
        if stored_clocks.len() != 1 {
            return None;
        }
        let (fresh_state, fresh) = self
            .new_key_rooted(elements.len(), &PackedName::singleton(&state.floor))
            .expect("a floor is a live id");
        *state = fresh_state;
        let fresh_clock = PackedName::empty();
        // One pin per replica storing the surviving version.
        for _ in elements {
            state.pin(&fresh_clock);
        }
        Some((fresh, fresh_clock))
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

    /// An id carries no knowledge: nothing to write.
    fn encode_element_knowledge(&self, _element: &Self::Element, _out: &mut Vec<u8>) {}

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

    fn absorb(
        &self,
        state: &mut Self::KeyState,
        local: &Self::Element,
        shipped: &Self::Element,
    ) -> Self::Element {
        state.mechanism.join(local, shipped)
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

    fn retain_clock(&self, _state: &mut Self::KeyState, _clock: &Self::Clock) {}

    fn release_clock(&self, _state: &mut Self::KeyState, _clock: &Self::Clock) {}

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

    fn encode_element_knowledge(&self, element: &Self::Element, out: &mut Vec<u8>) {
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
        let (a1, clock_a, _) = backend.write(&mut state, &elements[0], None);
        let (_, clock_b, _) = backend.write(&mut state, &elements[1], Some(&clock_a));
        assert_eq!(backend.relation(&clock_b, &clock_a), Relation::Dominates);
        let (_, clock_c, _) = backend.write(&mut state, &elements[2], None);
        assert_eq!(backend.relation(&clock_c, &clock_a), Relation::Concurrent);
        assert!(!state.is_degraded());
        let _ = a1;
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
        assert!(!state.is_degraded());
    }

    #[test]
    fn vstamp_backend_detach_absorb_roundtrip_reduces() {
        let backend = VstampBackend::gc();
        let (mut state, elements) = backend.new_key(2);
        let (kept, shipped) = backend.detach(&mut state, &elements[1]);
        let merged = backend.absorb(&mut state, &elements[0], &shipped);
        assert_eq!(merged.string_count(), 1);
        assert!(!state.is_degraded());
        let _ = kept;
    }

    #[test]
    fn adopted_key_state_never_collapses_on_one_sided_evidence() {
        // Three separate processes (three pin pools). A roots the key and
        // lends halves to B and C; each of B and C sees only its own pins,
        // so a collapse at C could absorb B's subtree and mint a dot whose
        // clock falsely dominates B's unseen write. Adoption must disable
        // the collapse outright.
        let backend = VstampBackend::gc_with(GcWatermarks::aggressive());
        let (mut state_a, elements) = backend.new_key(1);
        let mut element_a = elements[0].clone();
        let (next_a, clock_root, _) = backend.write(&mut state_a, &element_a, None);
        element_a = next_a;

        let (kept_a, to_b) = backend.detach(&mut state_a, &element_a);
        element_a = kept_a;
        let mut state_b = backend.adopt_key(&to_b).expect("vstamp adopts");
        assert!(state_b.is_degraded(), "adopted evidence is one-sided by construction");
        let (_, clock_b, _) = backend.write(&mut state_b, &to_b, Some(&clock_root));

        let (_, to_c) = backend.detach(&mut state_a, &element_a);
        let mut state_c = backend.adopt_key(&to_c).expect("vstamp adopts");
        let mut element_c = to_c;
        let mut context = clock_root;
        // C writes many times without ever learning of B's write; no clock
        // it mints may dominate (or equal) B's — that would evict B's
        // sibling sight-unseen during anti-entropy.
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
        // half of its membership stamp, ships a half to B and never hears
        // back. A's pool still pins the shipped half, so no collapse at A
        // may re-anchor over it. Under the default watermarks A's writes
        // cross the bits watermark and do collapse. They are blind: a dot
        // minted over the shipped half would be dominated by B's write.
        for watermarks in [GcWatermarks::aggressive(), GcWatermarks::default()] {
            let backend = VstampBackend::gc_with(watermarks);
            let (_, lend) = VersionStamp::seed().fork();
            let (mut state_a, elements) =
                backend.new_key_rooted(1, lend.id_name()).expect("vstamp roots keys");
            let (element_a, clock_root, _) = backend.write(&mut state_a, &elements[0], None);
            let (mut element_a, to_b) = backend.detach(&mut state_a, &element_a);
            let mut state_b = backend.adopt_key(&to_b).expect("vstamp adopts");
            let (_, clock_b, _) = backend.write(&mut state_b, &to_b, Some(&clock_root));
            let mut deepest = 0;
            for _ in 0..24 {
                let (next_a, clock_a, _) = backend.write(&mut state_a, &element_a, None);
                assert_eq!(
                    backend.relation(&clock_b, &clock_a),
                    Relation::Concurrent,
                    "{watermarks:?}: a write inside a shipped half must stay concurrent"
                );
                element_a = next_a;
                deepest = deepest.max(element_a.bit_size());
            }
            assert!(!state_a.is_degraded());
            if watermarks == GcWatermarks::default() {
                assert!(deepest < 16, "the bits watermark never collapsed: depth {deepest}");
            }
        }
    }

    #[test]
    fn the_floor_follows_an_element_into_a_granted_half() {
        /// One process's share of the key: its pin pool and its element.
        type Share = (VstampKeyState, PackedName);

        /// `from` ships a fork half to `to`, whose pool learns of the half
        /// first, as it would if exchanges carried pin evidence. Over
        /// today's exchange the absorb misses that pin and degrades the
        /// key, so no collapse runs after a move at all.
        fn grant(backend: &VstampBackend, from: &mut Share, to: &mut Share) {
            let (kept, shipped) = backend.detach(&mut from.0, &from.1);
            from.1 = kept;
            to.0.pin(&shipped);
            to.1 = backend.absorb(&mut to.0, &to.1, &shipped);
        }

        /// A write whose version stays stored; returns its clock and dot.
        fn write(
            backend: &VstampBackend,
            at: &mut Share,
            context: Option<&PackedName>,
        ) -> (PackedName, PackedName) {
            let (next, clock, dot) = backend.write(&mut at.0, &at.1, context);
            backend.retain_clock(&mut at.0, &clock);
            at.1 = next;
            (clock, dot)
        }

        // One key rooted at once by two processes: `shallow` at a 2-bit
        // string, `deep` at a 30-bit one. A causal chain of writes deepens
        // `shallow`'s shallowest element string to 33 bits, so `deep`'s
        // grant, 32 bits deep, becomes its element. From then on a
        // collapse at `shallow` must stay inside that half: a length floor
        // would take it to 2 bits, above `deep`'s root, and re-mint `deep`'s
        // dots.
        let backend = VstampBackend::gc();
        let deep_root: BitString = "10".repeat(15).parse().expect("a bit string");
        let [mut shallow, mut deep] =
            ["01".parse().expect("a bit string"), deep_root.clone()].map(|root| {
                let root = PackedName::singleton(&root);
                let (state, elements) = backend.new_key_rooted(1, &root).expect("roots");
                (state, elements[0].clone())
            });
        let string = |share: &Share| share.1.shallowest_string().expect("a live element");
        let mut dots = Vec::new();
        let mut context: Option<PackedName> = None;
        while string(&shallow).len() <= 32 {
            let (clock, dot) = write(&backend, &mut shallow, context.as_ref());
            if let Some(superseded) = context.replace(clock) {
                backend.release_clock(&mut shallow.0, &superseded);
            }
            dots.push(dot);
        }
        assert_eq!(string(&shallow).len(), 33);
        dots.push(write(&backend, &mut deep, None).1);
        grant(&backend, &mut deep, &mut shallow);
        let mut region = string(&shallow);
        assert!(deep_root.is_prefix_of(&region) && region.len() == 32, "moved to {region}");
        for step in 0..16 {
            match step % 4 {
                0 => grant(&backend, &mut shallow, &mut deep),
                1 => dots.push(write(&backend, &mut shallow, None).1),
                2 => dots.push(write(&backend, &mut deep, None).1),
                _ => grant(&backend, &mut deep, &mut shallow),
            }
            let ours = string(&shallow);
            let overlap = shallow
                .1
                .strings()
                .iter()
                .any(|s| deep.1.strings().iter().any(|t| !s.is_incomparable_with(t)));
            assert!(!overlap, "step {step}: {} and {} overlap", shallow.1, deep.1);
            assert!(!ours.is_strict_prefix_of(&region), "step {step}: {ours} rose above {region}");
            if !region.is_prefix_of(&ours) {
                region = ours;
            }
        }
        assert!(!shallow.0.is_degraded() && !deep.0.is_degraded());
        let dots: Vec<BitString> =
            dots.iter().map(|dot| dot.shallowest_string().expect("a dot")).collect();
        for (i, dot) in dots.iter().enumerate() {
            for other in &dots[i + 1..] {
                assert!(dot.is_incomparable_with(other), "dots {dot} and {other} overlap");
            }
        }
    }

    #[test]
    fn amortized_gc_defers_then_collapses_at_the_watermark() {
        // merge_interval 3, element_bits effectively off: the first two
        // absorbs only cover-shrink, the third runs the collapse.
        let backend =
            VstampBackend::gc_with(GcWatermarks { merge_interval: 3, element_bits: u32::MAX });
        let (mut state, elements) = backend.new_key(2);
        let mut local = elements[0].clone();
        let mut depths = Vec::new();
        for _ in 0..6 {
            let (kept, shipped) = backend.detach(&mut state, &local);
            local = backend.absorb(&mut state, &kept, &shipped);
            depths.push(local.bit_size());
        }
        assert!(!state.is_degraded());
        // Depth must not grow monotonically: the watermark collapse
        // re-anchors the identity every third merge.
        let max = depths.iter().copied().max().unwrap();
        assert!(max < 16, "watermark collapse failed to bound identity depth: {depths:?}");
        let eager = VstampBackend::gc_with(GcWatermarks::aggressive());
        let (mut estate, eelements) = eager.new_key(2);
        let mut elocal = eelements[0].clone();
        for _ in 0..6 {
            let (kept, shipped) = eager.detach(&mut estate, &elocal);
            elocal = eager.absorb(&mut estate, &kept, &shipped);
        }
        // The deferred run never exceeds the eager run by more than the
        // watermark-worth of uncollapsed forks.
        assert!(local.bit_size() <= elocal.bit_size() + 3 * 2);
    }

    #[test]
    fn flush_gc_collapses_regardless_of_watermark() {
        let backend = VstampBackend::gc_with(GcWatermarks::lazy());
        let (mut state, elements) = backend.new_key(1);
        let mut element = elements[0].clone();
        // Deepen the identity with writes whose versions are then dropped.
        let mut clocks = Vec::new();
        for _ in 0..8 {
            let (next, clock, _) = backend.write(&mut state, &element, None);
            backend.retain_clock(&mut state, &clock);
            clocks.push(clock);
            element = next;
        }
        for clock in &clocks {
            backend.release_clock(&mut state, clock);
        }
        let before = element.bit_size();
        let flushed = backend.flush_gc(&mut state, &element).expect("lazy key must collapse");
        assert!(flushed.bit_size() < before);
        assert!(!state.is_degraded());
        // Eager backend has no GC to flush.
        let eager = VstampBackend::eager();
        let (mut estate, eelements) = eager.new_key(1);
        assert!(eager.flush_gc(&mut estate, &eelements[0]).is_none());
    }

    #[test]
    fn vstamp_compaction_requires_quiescence() {
        let backend = VstampBackend::gc();
        let (mut state, elements) = backend.new_key(2);
        let (_, clock, _) = backend.write(&mut state, &elements[0], None);
        backend.retain_clock(&mut state, &clock);
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
        let (kept, shipped) = backend.detach(&mut state, &elements[0]);
        let _ = backend.absorb(&mut state, &elements[1], &shipped);
        assert!(state.incarnations_allocated() > before);
        let _ = kept;
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
