//! The clock seam of the store: a [`StoreBackend`] supplies per-key causal
//! machinery — replica elements, per-version clocks, merge and compaction —
//! while the store itself only manages shards, sibling sets and transport.
//!
//! Two backends ship, selected by mechanism label exactly as in the
//! simulator's comparison tables:
//!
//! * [`VstampBackend`] (`version-stamps` / `version-stamps-gc`) — the
//!   paper's mechanism. Each key is its own stamp universe: replica
//!   elements are the leaves of a fork tree of the seed, a write is the
//!   `update` transition, shipping state in anti-entropy is a `fork`
//!   (sender keeps one half, the other rides the delta) and merging is a
//!   `join` — the decentralized encoding of gossip in the fork/join/update
//!   transition system, with **no identifiers and no counters anywhere**.
//!   With GC enabled, merges apply the PR 2 frontier-evidence collapse
//!   **amortized behind [`GcWatermarks`]**: every merge still shrinks the
//!   element to its cover (bounded size), but the evidence-gated collapse
//!   that re-anchors identity to a shallower subtree runs only when a
//!   key's merge count or element size crosses its watermark, plus a
//!   forced pass at the compaction boundary. The evidence pins every live
//!   element *and* every stored version clock (a stored sibling is a live
//!   reference to its event markers, so its subtree must not be re-minted
//!   while it can still be compared); pins are kept in the packed
//!   representation so maintaining them costs a byte-compare and a packed
//!   join, not a set conversion.
//! * [`DynamicVvBackend`] (`dynamic-vv`) — dotted-version-vector-style
//!   sibling resolution over the dynamic version-vector baseline: every
//!   incarnation takes a fresh globally-unique identifier from a per-key
//!   allocator. This is the mechanism the paper positions version stamps
//!   against; [`Cluster::metrics`](crate::Cluster::metrics) reports the
//!   per-key metadata of either.
//!
//! Version clocks are *names* (for stamps) or *vectors* (for the baseline):
//! a written version's clock is the join of the client's read context with
//! the writer element's update knowledge, so causal chains across replicas
//! dominate exactly the versions the client had seen.

use core::fmt;

use vstamp_core::codec::{self, StampCodec, VarintCodec};
use vstamp_core::gc::{collapse, shrink_to_covers, FrontierEvidence};
use vstamp_core::{DecodeError, PackedName, Relation, Stamp, VersionStamp};

use vstamp_baselines::{DynamicVersionVectorMechanism, DynamicVvElement, ReplicaId, VersionVector};
use vstamp_core::Mechanism as _;

/// Per-key causal machinery the store is generic over. See the
/// [module docs](self) for the two shipped implementations.
pub trait StoreBackend: Send + Sync + 'static {
    /// Cluster-shared per-key coordination state (GC evidence pins, id
    /// allocators). Lives in the cluster's clock plane, one per key.
    type KeyState: Send + fmt::Debug;
    /// Per-`(key, replica)` element driving the fork/join/update lifecycle.
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
    /// identity space under a fork half of the node's own membership
    /// stamp, so independent first-writes of the same key at different
    /// nodes mint disjoint subtrees and later merge as ordinary siblings.
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
    /// the written version from the client's read context plus the
    /// element's own knowledge. Returns `(element, clock, dot)` — the
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

/// Builds the balanced fork tree the initial replica elements of a key (or
/// the quiescent re-mint) are the leaves of. Store elements are pure
/// *identity carriers*: their update component stays empty — causal
/// knowledge lives in the version clocks, where eviction can release it —
/// so Section-6 reduction and the frontier GC are free to collapse and
/// re-anchor identities the moment no stored clock pins them.
fn fork_tree(replicas: usize) -> Vec<VersionStamp> {
    let seed = VersionStamp::from_parts(PackedName::empty(), PackedName::epsilon())
        .expect("empty update below any id");
    fork_tree_from(seed, replicas)
}

/// [`fork_tree`] rooted at an arbitrary stamp: the decentralized-creation
/// variant, where the root is a fork half of a node's membership identity
/// rather than the whole universe.
fn fork_tree_from(seed: VersionStamp, replicas: usize) -> Vec<VersionStamp> {
    let mut elements = vec![seed];
    while elements.len() < replicas.max(1) {
        let victim = elements.remove(0);
        let (zero, one) = victim.fork();
        elements.push(zero);
        elements.push(one);
    }
    elements
}

/// The evidence footprint of one stamp, in the packed representation: the
/// join of its update and id components (for the store's identity-carrier
/// elements the update is empty, so this is the id itself).
fn packed_footprint(stamp: &VersionStamp) -> PackedName {
    if stamp.update_name().is_empty() {
        stamp.id_name().clone()
    } else {
        stamp.update_name().join(stamp.id_name())
    }
}

/// Discards surplus identity of an identity-carrier element: the packed
/// fast path of [`shrink_to_covers`]. With an empty update the cover set is
/// empty and the shrink keeps exactly the shallowest id string (the seed of
/// future identity); stamps with a non-empty update take the generic path.
fn shrink_identity(stamp: &VersionStamp) -> VersionStamp {
    if !stamp.update_name().is_empty() {
        return shrink_to_covers(stamp);
    }
    if stamp.id_name().string_count() <= 1 {
        return stamp.clone();
    }
    let shallowest = stamp.id_name().shallowest_string().expect("live ids are non-empty");
    Stamp::from_parts_unchecked(PackedName::empty(), PackedName::singleton(&shallowest))
}

/// Cost-model knobs of the amortized frontier GC: a key runs the full
/// evidence-gated collapse when **either** watermark is crossed — after
/// `merge_interval` element merges since the last collapse, or as soon as
/// the element's wire size reaches `element_bits`. Between collapses every
/// merge still cover-shrinks the element (one identity string), so only
/// the string's *depth* drifts until the next collapse re-anchors it.
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
/// of pinned footprints — one per live element (replica-held or in flight)
/// and one per stored version clock — which is exactly the frontier
/// evidence the PR 2 collapse needs. Footprints stay in the packed
/// representation: pin/unpin is a byte-compare scan, and the set-form
/// conversion happens once per *collapse*, not once per transition.
#[derive(Debug, Default)]
pub struct VstampKeyState {
    /// `(quick_hash, footprint, refcount)` — the hash prefilter turns the
    /// per-transition scan into 64-bit compares, with the byte-equality
    /// check only on hash hits.
    pins: Vec<(u64, PackedName, u32)>,
    merges_since_gc: u32,
    degraded: bool,
}

impl VstampKeyState {
    /// Pins a footprint by reference; the owned copy is made only when a
    /// new table entry is actually inserted (refcount bumps are clone-free).
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

    /// Pins the footprint of a whole stamp without materialising it: the
    /// store's identity carriers have empty updates, so the footprint *is*
    /// the id component.
    fn pin_stamp(&mut self, stamp: &VersionStamp) {
        if stamp.update_name().is_empty() {
            self.pin(stamp.id_name());
        } else {
            self.pin(&packed_footprint(stamp));
        }
    }

    /// [`VstampKeyState::unpin`] for a whole stamp, clone-free for
    /// identity carriers.
    fn unpin_stamp(&mut self, stamp: &VersionStamp) {
        if stamp.update_name().is_empty() {
            self.unpin(stamp.id_name());
        } else {
            self.unpin(&packed_footprint(stamp));
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

    /// Evidence footprint of everything currently pinned. Called with the
    /// element under collapse *not* pinned, so the pins are exactly the
    /// rest of the frontier: the other live elements, every in-flight fork
    /// half, and every stored version clock.
    fn evidence(&self) -> FrontierEvidence {
        FrontierEvidence::from_packed_footprints(self.pins.iter().map(|(_, name, _)| name))
    }

    /// Whether evidence tracking lost sync and GC is disabled for this key.
    #[must_use]
    pub fn is_degraded(&self) -> bool {
        self.degraded
    }
}

/// The version-stamp backend; see the [module docs](self). `gc` selects
/// whether (and how often, via [`GcWatermarks`]) merges apply the
/// frontier-evidence collapse on top of eager Section-6 reduction.
#[derive(Debug, Clone, Default)]
pub struct VstampBackend<C = VarintCodec> {
    codec: C,
    gc: Option<GcWatermarks>,
}

impl VstampBackend<VarintCodec> {
    /// Eager reduction only — the Section-6 mechanism verbatim.
    #[must_use]
    pub fn eager() -> Self {
        VstampBackend { codec: VarintCodec, gc: None }
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
        VstampBackend { codec: VarintCodec, gc: Some(watermarks) }
    }
}

impl<C: StampCodec<PackedName> + Clone + Send + Sync + 'static> VstampBackend<C> {
    /// A GC-enabled backend over an explicit codec (the codec seam: any
    /// [`StampCodec`] implementation frames the replication traffic).
    #[must_use]
    pub fn with_codec(codec: C) -> Self {
        VstampBackend { codec, gc: Some(GcWatermarks::default()) }
    }

    /// Runs the evidence-gated collapse on a freshly cover-shrunk element.
    ///
    /// The store's identity carriers (empty update, single-string id after
    /// cover shrinking) take a packed-native fast path: for a one-string id
    /// `{s}`, the generic [`collapse`] reduces to *truncating `s` at the
    /// shallowest prefix no pinned footprint dominates* — computable with
    /// one trie descent per pin and zero set-representation conversions.
    /// Non-carrier shapes fall back to the generic evidence collapse.
    fn collapse_element(&self, state: &mut VstampKeyState, element: &VersionStamp) -> VersionStamp {
        state.merges_since_gc = 0;
        if element.update_name().is_empty() && element.id_name().string_count() == 1 {
            let s = element
                .id_name()
                .shallowest_string()
                .expect("live elements own at least one identity string");
            // Longest prefix of `s` the rest of the frontier still pins;
            // one deeper is the shallowest legal re-anchor point. Scanned
            // in reverse: the most recently pinned footprints (the latest
            // spent dots, which block at depth − 1 until their version is
            // superseded everywhere) sit at the back, so a futile attempt
            // — re-anchor point at or below the current depth — is proven
            // by a single descent instead of a full pin sweep.
            let mut blocked: Option<usize> = None;
            for (_, pin, _) in state.pins.iter().rev() {
                if let Some(len) = pin.dominated_prefix_len(&s) {
                    blocked = Some(blocked.map_or(len, |b| b.max(len)));
                    if len + 1 >= s.len() {
                        break;
                    }
                }
            }
            let new_len = blocked.map_or(0, |len| len + 1);
            if new_len >= s.len() {
                return element.clone();
            }
            let truncated = vstamp_core::BitString::from_bits(s.iter().take(new_len));
            return Stamp::from_parts_unchecked(
                PackedName::empty(),
                PackedName::singleton(&truncated),
            );
        }
        let evidence = state.evidence();
        shrink_identity(&collapse(element, &evidence))
    }

    /// Whether the amortized-GC cost model says this key is due a collapse.
    fn collapse_due(&self, state: &VstampKeyState, element: &VersionStamp) -> Option<()> {
        let watermarks = self.gc.as_ref()?;
        if state.degraded {
            return None;
        }
        (state.merges_since_gc >= watermarks.merge_interval
            || element.id_name().encoded_bits() as u32 >= watermarks.element_bits)
            .then_some(())
    }
}

impl<C: StampCodec<PackedName> + Clone + Send + Sync + 'static> StoreBackend for VstampBackend<C> {
    type KeyState = VstampKeyState;
    type Element = VersionStamp;
    type Clock = PackedName;

    fn label(&self) -> &'static str {
        if self.gc.is_some() {
            "version-stamps-gc"
        } else {
            "version-stamps"
        }
    }

    fn new_key(&self, replicas: usize) -> (Self::KeyState, Vec<Self::Element>) {
        let elements = fork_tree(replicas);
        let mut state = VstampKeyState::default();
        for element in &elements {
            state.pin_stamp(element);
        }
        (state, elements)
    }

    fn new_key_rooted(
        &self,
        replicas: usize,
        root: &Self::Element,
    ) -> Option<(Self::KeyState, Vec<Self::Element>)> {
        let elements = fork_tree_from(root.clone(), replicas);
        let mut state = VstampKeyState::default();
        for element in &elements {
            state.pin_stamp(element);
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
        state.pin_stamp(element);
        Some(state)
    }

    fn write(
        &self,
        state: &mut Self::KeyState,
        element: &Self::Element,
        context: Option<&Self::Clock>,
    ) -> (Self::Element, Self::Clock, Self::Clock) {
        // Bits-watermark check *before* forking: a deep element would mint
        // an equally deep dot into the version's clock, where deferred
        // depth becomes persistent metadata. Collapsing here is sound —
        // the element has not forked yet, so no in-flight marker of this
        // write exists for the collapse to re-mint (the absorb-side
        // collapse has the same property: it runs before the result is
        // pinned and never touches unpinned markers' subtrees only when
        // evidence frees them).
        let collapsed;
        let element = if self
            .gc
            .as_ref()
            .is_some_and(|w| element.id_name().encoded_bits() as u32 >= w.element_bits)
            && !state.degraded
        {
            state.unpin_stamp(element);
            collapsed = self.collapse_element(state, element);
            state.pin_stamp(&collapsed);
            &collapsed
        } else {
            element
        };
        // Every write *spends* one fork half of the element's identity on
        // the version: the dot is globally unique (no two writes ever mint
        // the same one, Invariant I2), the version's clock is the client's
        // read context joined with the dot, and evicting the version later
        // releases its pin so the collapse pool reclaims the spent half —
        // identity lending instead of counters. The fused mint produces
        // the spent half directly in dot form (the decentralized stand-in
        // for DVV's `(replica, counter)` pair): one tag pass builds the
        // kept id and tracks the shallowest string, so the spent full name
        // is never materialised.
        let (kept_id, marker) = element.id_name().fork_dot();
        let kept = Stamp::from_parts_unchecked(element.update_name().clone(), kept_id);
        let clock = match context {
            Some(context) => context.join(&marker),
            None => marker.clone(),
        };
        state.unpin_stamp(element);
        state.pin_stamp(&kept);
        (kept, clock, marker)
    }

    fn rebuild_clock(&self, context: Option<&Self::Clock>, dot: &Self::Clock) -> Self::Clock {
        match context {
            Some(context) => context.join(dot),
            None => dot.clone(),
        }
    }

    fn detach(
        &self,
        state: &mut Self::KeyState,
        element: &Self::Element,
    ) -> (Self::Element, Self::Element) {
        let (kept, shipped) = element.fork();
        state.unpin_stamp(element);
        state.pin_stamp(&kept);
        state.pin_stamp(&shipped);
        (kept, shipped)
    }

    fn absorb(
        &self,
        state: &mut Self::KeyState,
        local: &Self::Element,
        shipped: &Self::Element,
    ) -> Self::Element {
        state.unpin_stamp(local);
        state.unpin_stamp(shipped);
        // Cover shrinking is unconditionally sound for identity-carrier
        // elements (empty update): the dropped strings carry no markers,
        // and every re-minting path is evidence-gated. Without it the
        // absorbed fork halves accumulate one string per exchange — the
        // measured fragmentation wall. It runs at *every* merge; only the
        // evidence-gated collapse below is amortized.
        let mut result = if local.update_name().is_empty() && shipped.update_name().is_empty() {
            // Identity carriers take the fused path: join the ids, then
            // read the shallowest string of the *reduced* join straight
            // off the joined tags (full sibling subtrees collapse to their
            // roots) — one linear scan instead of the general reduction
            // stack machine followed by a shrink pass.
            let joined = local.id_name().join(shipped.id_name());
            let s = joined.collapsed_shallowest().expect("joined live ids are non-empty");
            Stamp::from_parts_unchecked(PackedName::empty(), PackedName::singleton(&s))
        } else {
            shrink_identity(&local.join(shipped))
        };
        state.merges_since_gc += 1;
        if self.collapse_due(state, &result).is_some() {
            result = self.collapse_element(state, &result);
        }
        state.pin_stamp(&result);
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
        state.unpin_stamp(element);
        let rewritten = self.collapse_element(state, &shrink_identity(element));
        state.pin_stamp(&rewritten);
        (&rewritten != element).then_some(rewritten)
    }

    fn relation(&self, left: &Self::Clock, right: &Self::Clock) -> Relation {
        left.relation(right)
    }

    fn join_clocks(&self, left: &Self::Clock, right: &Self::Clock) -> Self::Clock {
        left.join(right)
    }

    fn join_clock_set<'a, I>(&self, clocks: I) -> Option<Self::Clock>
    where
        I: IntoIterator<Item = &'a Self::Clock>,
    {
        // One-pass k-way tag merge: a context rebuild over j siblings is a
        // single output build instead of j − 1 intermediate names.
        let mut clocks = clocks.into_iter().peekable();
        clocks.peek()?;
        Some(PackedName::join_many(clocks))
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
        // and the surviving version's clock as {ε}, which every future
        // write strictly dominates — the bounded-timestamp recycling
        // discipline, per key.
        if stored_clocks.len() != 1 {
            return None;
        }
        let fresh = fork_tree(elements.len());
        *state = VstampKeyState::default();
        for element in &fresh {
            state.pin_stamp(element);
        }
        let fresh_clock = PackedName::epsilon();
        // One pin per replica storing the surviving version.
        for _ in elements {
            state.pin(&fresh_clock);
        }
        Some((fresh, fresh_clock))
    }

    fn encode_clock(&self, clock: &Self::Clock, out: &mut Vec<u8>) {
        self.codec.encode_name_into(clock, out);
    }

    fn decode_clock(&self, bytes: &[u8]) -> Result<Self::Clock, DecodeError> {
        self.codec.decode_name(bytes)
    }

    fn encode_element(&self, element: &Self::Element, out: &mut Vec<u8>) {
        self.codec.encode_stamp_into(element, out);
    }

    fn encode_element_knowledge(&self, element: &Self::Element, out: &mut Vec<u8>) {
        self.codec.encode_name_into(element.update_name(), out);
    }

    fn decode_element(&self, bytes: &[u8]) -> Result<Self::Element, DecodeError> {
        self.codec.decode_stamp(bytes)
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
    fn vstamp_backend_detach_absorb_roundtrip_reduces() {
        let backend = VstampBackend::gc();
        let (mut state, elements) = backend.new_key(2);
        let (kept, shipped) = backend.detach(&mut state, &elements[1]);
        let merged = backend.absorb(&mut state, &elements[0], &shipped);
        assert!(merged.validate().is_ok());
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
            depths.push(local.id_name().bit_size());
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
        assert!(local.id_name().bit_size() <= elocal.id_name().bit_size() + 3 * 2);
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
        let before = element.id_name().bit_size();
        let flushed = backend.flush_gc(&mut state, &element).expect("lazy key must collapse");
        assert!(flushed.id_name().bit_size() < before);
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
        assert!(fresh_clock.is_epsilon());
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
