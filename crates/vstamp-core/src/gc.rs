//! Frontier-evidence identity garbage collection.
//!
//! **The problem.** Even with the Section-6 rewriting rule, long
//! partition/heal runs fragment identities: ownership of the binary-string
//! namespace ends up interleaved between replicas, so no *single* stamp ever
//! holds a sibling pair `s·0, s·1` and the rule cannot fire. The measured
//! wall (see ROADMAP): a 230-operation partition/heal trace reaches ~10⁵
//! identity strings under eager reduction. Within one stamp, eager reduction
//! already computes the unique normal form — the fragmentation is a
//! *frontier-level* phenomenon and needs frontier-level evidence to undo.
//!
//! **The idea.** Following Dotted Version Vectors (bounded metadata comes
//! from structuring *when and what* you compact) and bounded concurrent
//! timestamp systems (bounded space needs a recycling discipline), this
//! module collapses a stamp's fragmented identity below a string `s`
//! whenever the rest of the frontier provides *evidence* that the whole
//! subtree under `s` is free for this element:
//!
//! > no other live element's id **or update** contains a string extending
//! > `s` (the subtree under `s` is dominated by this element alone on the
//! > current event frontier).
//!
//! When that holds, the stamp `(u, i)` may be rewritten to own `s`
//! outright: every string of `i` under `s` is replaced by `s` itself, and —
//! if `u` had any event marker under `s` — the markers under `s` are
//! replaced by `s` too. The sibling rule of Section 6 is the special case
//! where the evidence is *local* (`s·0` and `s·1` both owned by the stamp
//! itself).
//!
//! **Why it is sound.** Write `restr(n, s)` for the strings of `n`
//! extending `s`. The rewrite preserves every invariant and every pairwise
//! frontier relation:
//!
//! * **I1** (`u ⊑ i`): any update string whose only id extensions were in
//!   `restr(i, s)` is a prefix of `s` (comparability through a common
//!   extension) and `s` joins the id; collapsed update strings map to `s`
//!   itself.
//! * **I2**: no other id may contain a string comparable with `s` — an
//!   extension is excluded by the evidence, and a strict prefix would have
//!   been comparable with the strings of `restr(i, s)` already, violating
//!   I2 beforehand.
//! * **Frontier order** (Corollary 5.2): for any other live update `u_y`,
//!   (a) `u_y` contains no extension of `s` (evidence), so a string of
//!   `u_y` gains no new dominator except via prefixes of `s`, which were
//!   already dominated through `restr(u, s)`; (b) conversely `s ∈ u′` is
//!   dominated by `u_y` exactly when some string of `restr(u, s)` was —
//!   never, by the evidence. Both directions of every `⊑` test are
//!   unchanged. If some element causally knew *all* of this element's
//!   events under `s`, its update would have to dominate them
//!   (Corollary 5.2 for the pre-collapse frontier) and the evidence check
//!   would fail — the collapse is blocked precisely when it could lose
//!   information.
//!
//! The `policy_properties` suite replays thousands of random traces and
//! checks, after **every** operation, that GC'd frontiers classify exactly
//! like the causal-history oracle and satisfy I1–I3.
//!
//! **What is traded.** The evidence is frontier-wide, so this is a
//! *coordinated* policy: [`FrontierGc`] mirrors the live frontier inside
//! the mechanism (allowed by [`Mechanism`](crate::Mechanism) — baselines
//! keep global state too), where the paper's mechanism is fully
//! decentralized. A deployment would piggyback the evidence on its
//! anti-entropy protocol; the simulator uses the mirror. The payoff: the
//! 10⁵-string fragmentation wall becomes a bounded curve on the same
//! traces.

use crate::bitstring::{Bit, BitString};
use crate::name::Name;
use crate::name_like::NameLike;
use crate::policy::ReductionPolicy;
use crate::stamp::{Reduction, Stamp};

/// Evidence about the rest of the frontier: the joined footprint of every
/// *other* live element's update and id components.
///
/// A string `s` is a legal collapse root for a stamp exactly when the
/// footprint does not dominate it (no other element has a string extending
/// `s`) — see the [module docs](self) for the soundness argument.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FrontierEvidence {
    footprint: Name,
}

impl FrontierEvidence {
    /// Evidence of an empty rest-of-frontier (the element is alone; every
    /// subtree it touches may collapse, ultimately to `{ε}`).
    #[must_use]
    pub fn empty() -> Self {
        FrontierEvidence { footprint: Name::empty() }
    }

    /// Builds the evidence from the stamps of every *other* live element.
    pub fn from_stamps<'a, N, I>(others: I) -> Self
    where
        N: NameLike + 'a,
        I: IntoIterator<Item = &'a Stamp<N>>,
    {
        let mut footprint = Name::empty();
        for stamp in others {
            footprint = footprint.join(&stamp.update_name().to_name());
            footprint = footprint.join(&stamp.id_name().to_name());
        }
        FrontierEvidence { footprint }
    }

    /// Builds the evidence from per-element footprints computed earlier
    /// with [`stamp_footprint`].
    ///
    /// This is the incremental path [`FrontierGc`] uses: each element's
    /// footprint is converted and joined **once**, when the element enters
    /// the frontier, instead of twice per element on *every* join as
    /// [`FrontierEvidence::from_stamps`] does (the `gc-evidence` criterion
    /// group in `vstamp-bench` records the delta).
    pub fn from_footprints<'a, I>(others: I) -> Self
    where
        I: IntoIterator<Item = &'a Name>,
    {
        let mut footprint = Name::empty();
        for other in others {
            footprint = footprint.join(other);
        }
        FrontierEvidence { footprint }
    }

    /// Builds the evidence from per-element footprints kept in the packed
    /// representation.
    ///
    /// The join is the one-pass k-way merge of
    /// [`PackedName::join_many`](crate::PackedName::join_many) — a single
    /// output build over all pins instead of a pairwise fold — and the
    /// single conversion to the set representation happens once per
    /// *evidence build* instead of once per footprint. This is the path
    /// `vstamp-store` uses: its per-key pin table stores packed footprints
    /// (one packed join per element transition), and the amortized GC joins
    /// them only when a collapse is actually due.
    pub fn from_packed_footprints<'a, I>(others: I) -> Self
    where
        I: IntoIterator<Item = &'a crate::PackedName>,
    {
        let joined = crate::PackedName::join_many(others);
        FrontierEvidence { footprint: joined.to_name() }
    }

    /// Returns `true` when the rest of the frontier blocks a collapse at
    /// `s`: some other element holds a string extending `s`.
    ///
    /// The footprint is the semilattice join of the others' names; joins
    /// keep maximal strings, which preserves exactly the domination queries
    /// this check needs.
    #[must_use]
    pub fn blocks(&self, s: &BitString) -> bool {
        self.footprint.dominates_string(s)
    }

    /// The joined footprint itself (diagnostics and reports).
    #[must_use]
    pub fn footprint(&self) -> &Name {
        &self.footprint
    }
}

/// The maximal antichain of collapse roots for `id` under `evidence`:
/// shallowest strings `s` with something of `id` below them and nothing of
/// anyone else (walking down from `ε`, stopping at the first unblocked
/// prefix).
#[must_use]
pub fn collapse_roots(id: &Name, evidence: &FrontierEvidence) -> Vec<BitString> {
    let mut roots = Vec::new();
    let mut stack = vec![BitString::empty()];
    while let Some(s) = stack.pop() {
        if !id.dominates_string(&s) {
            continue;
        }
        if !evidence.blocks(&s) {
            roots.push(s);
            continue;
        }
        // Blocked here; ownership may still be exclusive deeper down.
        stack.push(s.child(Bit::One));
        stack.push(s.child(Bit::Zero));
    }
    roots
}

/// Replaces every string of `name` that extends a root by the root itself.
fn rewrite_under_roots(name: &Name, roots: &[BitString]) -> Name {
    let mut out = Name::empty();
    for root in roots {
        out.insert(root.clone());
    }
    for s in name.iter() {
        if !roots.iter().any(|root| root.is_prefix_of(s)) {
            out.insert(s.clone());
        }
    }
    out
}

/// Collapses the fragmented identity (and the event markers underneath) of
/// `stamp`, given evidence about the rest of the frontier. Returns the
/// stamp unchanged when no collapse applies.
///
/// # Examples
///
/// A lone element's fragmented identity collapses back to the seed:
///
/// ```
/// use vstamp_core::gc::{collapse, FrontierEvidence};
/// use vstamp_core::{Name, SetStamp};
///
/// let update: Name = "{010}".parse().unwrap();
/// let id: Name = "{010, 00, 110}".parse().unwrap();
/// let stamp = SetStamp::from_parts(update, id).unwrap();
/// let collapsed = collapse(&stamp, &FrontierEvidence::empty());
/// assert_eq!(collapsed.to_string(), "[{ε} | {ε}]");
/// ```
#[must_use]
pub fn collapse<N: NameLike>(stamp: &Stamp<N>, evidence: &FrontierEvidence) -> Stamp<N> {
    let id = stamp.id_name().to_name();
    if id.is_empty() {
        return stamp.clone();
    }
    let roots = collapse_roots(&id, evidence);
    // No-op detection: a collapse only changes the id when some root is a
    // strict prefix of an owned string (i.e. is not itself a member).
    if roots.iter().all(|s| id.contains(s)) {
        return stamp.clone();
    }
    let update = stamp.update_name().to_name();
    let new_id = rewrite_under_roots(&id, &roots);
    let update_roots: Vec<BitString> =
        roots.iter().filter(|s| update.dominates_string(s)).cloned().collect();
    let new_update = rewrite_under_roots(&update, &update_roots);
    debug_assert!(new_update.leq(&new_id), "collapse preserves I1");
    Stamp::from_parts_unchecked(N::from_name(&new_update), N::from_name(&new_id))
}

/// Discards surplus identity: keeps, for every update string, one covering
/// id string (plus the shallowest string when the update is empty), and
/// drops the rest of the id.
///
/// **Why this is sound.** Frontier relations never consult ids, so only the
/// invariants are at stake. I1 survives because every update string keeps a
/// cover. I2 survives because strings are only removed. For a dropped
/// string `t`, the subtree under `t` holds **no live event marker**: a
/// marker strictly under `t` in this element's own update would force an
/// id cover deeper than `t` (contradicting the antichain), and a marker
/// under `t` in any other update would force that element's id to extend
/// into `t`'s subtree (I1), contradicting I2 — so the dropped space can be
/// re-claimed later by a neighbour's [`collapse`] and re-minted without
/// ever colliding with a marker some live element still compares against.
///
/// This is the "identity lending" discipline of bounded-timestamp systems:
/// ownership is returned to the (implicit) pool as soon as no recorded
/// event needs it, instead of deepening forever. Combined with
/// [`collapse`], it bounds the id size of every element by its update
/// size.
#[must_use]
pub fn shrink_to_covers<N: NameLike>(stamp: &Stamp<N>) -> Stamp<N> {
    let id = stamp.id_name().to_name();
    if id.len() <= 1 {
        return stamp.clone();
    }
    let update = stamp.update_name().to_name();
    let mut keep = Name::empty();
    for w in update.iter() {
        let cover = id.iter().find(|t| w.is_prefix_of(t)).expect("I1: update ⊑ id");
        keep.insert(cover.clone());
    }
    if keep.is_empty() {
        // Never-updated element: keep the shallowest string as the seed of
        // future identity.
        let shallowest = id.iter().min_by_key(|s| s.len()).expect("live ids are non-empty").clone();
        keep.insert(shallowest);
    }
    if keep.len() == id.len() {
        return stamp.clone();
    }
    Stamp::from_parts_unchecked(N::from_name(&update), N::from_name(&keep))
}

/// The joined update-and-id footprint of one stamp — the quantity
/// [`FrontierEvidence`] aggregates over the rest of the frontier.
///
/// For a well-formed stamp (I1: `update ⊑ id`) this equals the id's name
/// alone, but the join is kept so evidence stays conservative even for
/// unchecked stamps.
#[must_use]
pub fn stamp_footprint<N: NameLike>(stamp: &Stamp<N>) -> Name {
    stamp.update_name().to_name().join(&stamp.id_name().to_name())
}

/// Retires identity space no longer defended by any live member: collapses
/// `stamp` against the joined footprints of the *surviving* frontier and
/// then shrinks the result to its covers.
///
/// This is the membership-eviction entry point. When a cluster member is
/// evicted, every survivor calls this with its own membership stamp and the
/// footprints of the members it still considers live (the evicted member's
/// id is deliberately absent, so the space that member occupied stops
/// blocking [`collapse`]). A survivor adjacent to the evicted subtree —
/// one holding the sibling half of the fork that created the evicted
/// identity — re-anchors onto the common prefix, and the evicted subtree is
/// reabsorbed: id strings shrink back toward their pre-join depth.
///
/// **Why concurrent retirement is safe.** A collapse root `r` chosen by
/// member X requires X to dominate `r` and the evidence to leave `r`
/// unblocked — in particular no *other* live footprint reaches into `r`'s
/// subtree. Two live members therefore never pick comparable roots, so
/// independent, unsynchronized calls at different members keep identities
/// pairwise disjoint. Stale member tables only make the evidence *larger*
/// (an entry not yet marked evicted still contributes its footprint), which
/// blocks more and retires less — conservative, never unsound.
///
/// `others` must carry the footprints of every *other* member still
/// considered live — their identities plus any space they have lent out
/// (spent fork halves recorded in the member table). The caller's own
/// lent-out halves are deliberately *not* evidence: space the caller lent
/// (say, to root a key universe) sits adjacent to its own id, so keeping
/// it as evidence would permanently wall off every upward merge. Callers
/// that lend from reclaimed space must tolerate lends that overlap their
/// earlier ones — sound wherever lent subtrees are only ever compared
/// within disjoint namespaces (see `vstamp-store`'s membership register
/// for the per-key argument).
#[must_use]
pub fn retire_identity<'a, N, I>(stamp: &Stamp<N>, others: I) -> Stamp<N>
where
    N: NameLike,
    I: IntoIterator<Item = &'a Name>,
{
    let evidence = FrontierEvidence::from_footprints(others);
    shrink_to_covers(&collapse(stamp, &evidence))
}

/// One mirrored frontier element of [`FrontierGc`]: the stamp plus its
/// cached [`stamp_footprint`], computed once when the element entered the
/// frontier.
#[derive(Debug, Clone, PartialEq, Eq)]
struct LiveStamp<N: NameLike> {
    stamp: Stamp<N>,
    footprint: Name,
}

impl<N: NameLike> LiveStamp<N> {
    fn new(stamp: &Stamp<N>) -> Self {
        LiveStamp { footprint: stamp_footprint(stamp), stamp: stamp.clone() }
    }
}

/// The frontier-evidence GC policy: eager Section-6 reduction after every
/// join, followed by an identity [`collapse`] justified by a mirror of the
/// live frontier, followed by [`shrink_to_covers`].
///
/// The mirror is maintained through the
/// [`ReductionPolicy`] lifecycle hooks, so
/// the policy is exact when the mechanism is driven through a
/// [`Configuration`](crate::Configuration) (every element passes through
/// `initial`/`update`/`fork`/`join`). If the mechanism is fed elements it
/// never produced, the mirror cannot match; the policy then *degrades* to
/// plain eager reduction rather than collapse on bad evidence.
///
/// The mirror caches each element's evidence footprint incrementally (one
/// representation conversion and join per element *lifetime*); a join only
/// joins the cached footprints of the surviving elements instead of
/// rebuilding the evidence from raw stamps (the ROADMAP
/// `FrontierEvidence::from_stamps`-per-join hot spot).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrontierGc<N: NameLike> {
    live: Vec<LiveStamp<N>>,
    degraded: bool,
}

impl<N: NameLike> Default for FrontierGc<N> {
    fn default() -> Self {
        FrontierGc::new()
    }
}

impl<N: NameLike> FrontierGc<N> {
    /// A fresh GC policy with an empty frontier mirror.
    #[must_use]
    pub fn new() -> Self {
        FrontierGc { live: Vec::new(), degraded: false }
    }

    /// The mirrored live frontier (diagnostics and tests).
    pub fn live(&self) -> impl ExactSizeIterator<Item = &Stamp<N>> {
        self.live.iter().map(|entry| &entry.stamp)
    }

    /// Returns `true` when the mirror lost track of the frontier and the
    /// policy fell back to plain eager reduction.
    #[must_use]
    pub fn is_degraded(&self) -> bool {
        self.degraded
    }

    /// Removes one occurrence of `stamp` from the mirror; degrades the
    /// policy if it is not there. Live stamps are pairwise distinct (their
    /// ids are non-empty and disjoint by I2), so value identity is exact.
    fn retire(&mut self, stamp: &Stamp<N>) {
        match self.live.iter().position(|entry| &entry.stamp == stamp) {
            Some(index) => {
                self.live.swap_remove(index);
            }
            None => self.degraded = true,
        }
    }
}

impl<N: NameLike> ReductionPolicy<N> for FrontierGc<N> {
    fn policy_name(&self) -> &'static str {
        "frontier-gc"
    }

    fn on_initial(&mut self, seed: &Stamp<N>) {
        self.live.clear();
        self.live.push(LiveStamp::new(seed));
        self.degraded = false;
    }

    fn on_update(&mut self, old: &Stamp<N>, new: &Stamp<N>) {
        self.retire(old);
        self.live.push(LiveStamp::new(new));
    }

    fn on_fork(&mut self, old: &Stamp<N>, left: &Stamp<N>, right: &Stamp<N>) {
        self.retire(old);
        self.live.push(LiveStamp::new(left));
        self.live.push(LiveStamp::new(right));
    }

    fn join(&mut self, left: &Stamp<N>, right: &Stamp<N>) -> Stamp<N> {
        let joined = left.join_with(right, Reduction::Reducing);
        self.retire(left);
        self.retire(right);
        let result = if self.degraded {
            joined
        } else {
            let evidence =
                FrontierEvidence::from_footprints(self.live.iter().map(|entry| &entry.footprint));
            shrink_to_covers(&collapse(&joined, &evidence))
        };
        self.live.push(LiveStamp::new(&result));
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stamp::SetStamp;

    fn name(s: &str) -> Name {
        s.parse().expect("valid name literal")
    }

    fn stamp(update: &str, id: &str) -> SetStamp {
        SetStamp::from_parts(name(update), name(id)).expect("well-formed stamp")
    }

    #[test]
    fn lone_element_collapses_to_seed() {
        let fragmented = stamp("{010}", "{010, 00, 110}");
        let collapsed = collapse(&fragmented, &FrontierEvidence::empty());
        assert_eq!(collapsed, stamp("{ε}", "{ε}"));
    }

    #[test]
    fn evidence_blocks_foreign_subtrees() {
        // The other element owns {1}: only the 0-subtree may collapse.
        let other = stamp("{}", "{1}");
        let evidence = FrontierEvidence::from_stamps([&other]);
        assert!(evidence.blocks(&"1".parse().unwrap()));
        assert!(evidence.blocks(&"ε".parse().unwrap()));
        assert!(!evidence.blocks(&"0".parse().unwrap()));
        assert_eq!(evidence.footprint(), &name("{1}"));

        let fragmented = stamp("{001}", "{001, 010}");
        let collapsed = collapse(&fragmented, &evidence);
        assert_eq!(collapsed, stamp("{0}", "{0}"));
    }

    #[test]
    fn foreign_fragments_block_collapse_selectively() {
        // The other element knows event 010 and owns identity below it; by
        // I1 its id extends every one of its update markers, so the id
        // footprint alone carries all the blocking evidence.
        let other = stamp("{010}", "{0100}");
        let evidence = FrontierEvidence::from_stamps([&other]);
        let fragmented = stamp("{}", "{0110, 0111, 000, 001}");
        let collapsed = collapse(&fragmented, &evidence);
        // 00 and 011 collapse (nothing foreign below), 01 does not (the
        // foreign fragment 0100 extends 01): the collapse subsumes the
        // sibling-pair rule under each root but stops at blocked prefixes.
        assert_eq!(collapsed.id_name(), &name("{00, 011}"));
    }

    #[test]
    fn collapse_is_identity_when_nothing_applies() {
        let other = stamp("{}", "{11}");
        let evidence = FrontierEvidence::from_stamps([&other]);
        let tight = stamp("{10}", "{10}");
        // The only root is {10} itself, already a member: no change.
        assert_eq!(collapse(&tight, &evidence), tight);
    }

    #[test]
    fn collapse_roots_walks_past_blocked_prefixes() {
        let other = stamp("{}", "{00}");
        let evidence = FrontierEvidence::from_stamps([&other]);
        let id = name("{010, 011, 10, 11}");
        let mut roots = collapse_roots(&id, &evidence);
        roots.sort();
        let expected: Vec<BitString> = vec!["01".parse().unwrap(), "1".parse().unwrap()];
        assert_eq!(roots, expected);
    }

    #[test]
    fn packed_footprints_build_the_same_evidence() {
        use crate::PackedName;
        let names = [name("{010, 00}"), name("{110}"), name("{}")];
        let packed: Vec<PackedName> = names.iter().map(PackedName::from_name).collect();
        assert_eq!(
            FrontierEvidence::from_packed_footprints(packed.iter()),
            FrontierEvidence::from_footprints(names.iter())
        );
        assert_eq!(
            FrontierEvidence::from_packed_footprints(std::iter::empty()),
            FrontierEvidence::empty()
        );
    }

    #[test]
    fn retire_identity_reclaims_an_evicted_sibling_subtree() {
        // A={0}, B={1}; a newcomer N joined by forking B: B={10}, N={11}.
        // N is evicted. B retires against the survivors' footprints (A
        // only): root 1 is unblocked, so B re-anchors to {1} — the id
        // depth returns to its pre-join level.
        let a = stamp("{}", "{0}");
        let b = stamp("{}", "{10}");
        let retired = retire_identity(&b, [a.id_name()]);
        assert_eq!(retired, stamp("{}", "{1}"));
        // A is unchanged by its own retirement pass: B's surviving
        // footprint still blocks everything A could grow into.
        let a_retired = retire_identity(&a, [b.id_name()]);
        assert_eq!(a_retired, a);
    }

    #[test]
    fn retire_identity_is_blocked_by_live_footprints() {
        // Same topology, but N={11} is still live: B must not move.
        let a = stamp("{}", "{0}");
        let b = stamp("{}", "{10}");
        let n = stamp("{}", "{11}");
        let retired = retire_identity(&b, [a.id_name(), n.id_name()]);
        assert_eq!(retired, b);
    }

    #[test]
    fn retire_identity_respects_spent_fork_halves() {
        // B={10} lent {11} out as a key-universe root (recorded as spent
        // identity in the evidence). Even with the evicted member gone, B
        // may not swallow the lent half.
        let b = stamp("{}", "{10}");
        let spent = name("{11}");
        let retired = retire_identity(&b, [&name("{0}"), &spent]);
        assert_eq!(retired, b);
    }

    #[test]
    fn concurrent_retirement_keeps_survivors_disjoint() {
        // Three-way split {00, 01, 1}; the member at {01} is evicted.
        // {00} may claim {0}; {1} must stay put — their retired ids stay
        // disjoint without any synchronization.
        let x = stamp("{}", "{00}");
        let y = stamp("{}", "{1}");
        let x2 = retire_identity(&x, [y.id_name()]);
        let y2 = retire_identity(&y, [x.id_name()]);
        assert_eq!(x2, stamp("{}", "{0}"));
        assert_eq!(y2, y);
        let overlap = stamp_footprint(&x2)
            .iter()
            .any(|s| stamp_footprint(&y2).iter().any(|t| s.is_prefix_of(t) || t.is_prefix_of(s)));
        assert!(!overlap, "retired ids must remain disjoint");
    }

    #[test]
    fn gc_policy_tracks_lifecycle_and_collapses_final_join() {
        let mut gc: FrontierGc<Name> = FrontierGc::new();
        let seed = SetStamp::seed();
        gc.on_initial(&seed);
        let (a, b) = seed.fork();
        gc.on_fork(&seed, &a, &b);
        let a1 = a.update();
        gc.on_update(&a, &a1);
        assert_eq!(gc.live().len(), 2);
        let joined = ReductionPolicy::join(&mut gc, &a1, &b);
        assert!(joined.is_seed_identity());
        assert_eq!(gc.live().len(), 1);
        assert!(!gc.is_degraded());
    }

    #[test]
    fn gc_policy_degrades_on_untracked_elements() {
        let mut gc: FrontierGc<Name> = FrontierGc::new();
        gc.on_initial(&SetStamp::seed());
        let (a, b) = stamp("{}", "{0}").fork();
        // a and b never passed through the policy: it must degrade, not
        // collapse on bogus evidence.
        let joined = ReductionPolicy::join(&mut gc, &a, &b);
        assert!(gc.is_degraded());
        assert_eq!(joined, a.join(&b));
        assert_eq!(ReductionPolicy::<Name>::policy_name(&gc), "frontier-gc");
    }
}
