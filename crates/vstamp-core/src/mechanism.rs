//! The common interface every causality-tracking mechanism implements.
//!
//! The paper compares version stamps with causal histories (the global-view
//! specification) and positions them as a replacement for version vectors in
//! dynamic settings. To drive all of these — plus the baselines and the
//! Interval Tree Clock extension — over identical fork/join/update traces,
//! every mechanism implements [`Mechanism`]. The replicated-system simulator
//! and every experiment in the benchmark harness are generic over it.
//!
//! The version-stamp mechanism itself, [`StampMechanism`], is generic over
//! two seams: the name representation ([`NameLike`]) and the stamp lifecycle
//! ([`ReductionPolicy`]) — every (representation × policy) cell of the
//! ablation grid is one concrete instantiation.

use core::fmt;

use crate::name::Name;
use crate::name_like::NameLike;
use crate::packed::PackedName;
use crate::policy::{Deferred, Eager, NoReduce, ReductionPolicy};
use crate::relation::Relation;
use crate::stamp::{Reduction, Stamp};

/// A causality-tracking mechanism driven by fork/join/update transitions.
///
/// Implementations may keep private global state (`&mut self`) — the
/// causal-history oracle allocates globally unique event identifiers, the
/// version-vector baselines allocate replica identifiers, the frontier-GC
/// policy mirrors the live frontier. The plain version-stamp policies need
/// none, which is the paper's point.
pub trait Mechanism {
    /// The per-element payload (a stamp, a version vector, a causal
    /// history…).
    type Element: Clone + fmt::Debug;

    /// A short human-readable identifier used in reports and benchmarks.
    fn mechanism_name(&self) -> &'static str;

    /// The element of the initial single-replica configuration.
    fn initial(&mut self) -> Self::Element;

    /// The `update` transition: records a new update on the element.
    fn update(&mut self, element: &Self::Element) -> Self::Element;

    /// The `fork` transition: splits one element into two.
    fn fork(&mut self, element: &Self::Element) -> (Self::Element, Self::Element);

    /// The `join` transition: merges two elements into one.
    fn join(&mut self, left: &Self::Element, right: &Self::Element) -> Self::Element;

    /// Classifies two coexisting elements.
    fn relation(&self, left: &Self::Element, right: &Self::Element) -> Relation;

    /// An approximate wire size of the element, in bits; the space metric of
    /// experiment E7.
    fn size_bits(&self, element: &Self::Element) -> usize;

    /// Convenience: synchronization as join followed by fork.
    fn sync(
        &mut self,
        left: &Self::Element,
        right: &Self::Element,
    ) -> (Self::Element, Self::Element) {
        let joined = self.join(left, right);
        self.fork(&joined)
    }
}

/// The version-stamp mechanism of the paper, generic over the name
/// representation `N` and the lifecycle [`ReductionPolicy`] `P`.
///
/// # Examples
///
/// ```
/// use vstamp_core::{Mechanism, Relation, VersionStampMechanism};
///
/// let mut mech = VersionStampMechanism::reducing();
/// let root = mech.initial();
/// let (a, b) = mech.fork(&root);
/// let a = mech.update(&a);
/// assert_eq!(mech.relation(&a, &b), Relation::Dominates);
/// assert_eq!(mech.mechanism_name(), "version-stamps");
/// ```
///
/// Selecting a policy:
///
/// ```
/// use vstamp_core::gc::FrontierGc;
/// use vstamp_core::{Mechanism, PackedName, StampMechanism};
///
/// let mut gc = StampMechanism::<PackedName, FrontierGc<PackedName>>::new();
/// assert_eq!(gc.mechanism_name(), "version-stamps-gc");
/// let root = gc.initial();
/// let (a, b) = gc.fork(&root);
/// assert!(gc.join(&a, &b).is_seed_identity());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StampMechanism<N = PackedName, P = Eager> {
    policy: P,
    _marker: core::marker::PhantomData<N>,
}

impl<N: NameLike, P: ReductionPolicy<N>> StampMechanism<N, P> {
    /// A mechanism with the policy's default configuration.
    #[must_use]
    pub fn new() -> Self
    where
        P: Default,
    {
        StampMechanism { policy: P::default(), _marker: core::marker::PhantomData }
    }

    /// A mechanism with an explicit policy value.
    #[must_use]
    pub fn with_policy(policy: P) -> Self {
        StampMechanism { policy, _marker: core::marker::PhantomData }
    }

    /// The policy in force.
    #[must_use]
    pub fn policy(&self) -> &P {
        &self.policy
    }
}

impl<N: NameLike> StampMechanism<N, Eager> {
    /// A mechanism that simplifies after every join (Section 6) — the
    /// practical configuration.
    #[must_use]
    pub fn reducing() -> Self {
        StampMechanism::with_policy(Eager)
    }

    /// The non-reducing model of Section 4, used as the proof baseline and
    /// in the E9 ablation.
    ///
    /// Note the policy is part of the type: this constructor is callable
    /// through any `StampMechanism<N, _>` alias but returns the
    /// [`NoReduce`]-typed mechanism.
    #[must_use]
    pub fn non_reducing() -> StampMechanism<N, NoReduce> {
        StampMechanism::with_policy(NoReduce)
    }

    /// Batched reduction with the given id-string threshold (see
    /// [`Deferred`]).
    #[must_use]
    pub fn deferred(max_id_strings: usize) -> StampMechanism<N, Deferred> {
        StampMechanism::with_policy(Deferred::new(max_id_strings))
    }

    /// Frontier-evidence identity GC (see [`crate::gc`]).
    #[must_use]
    pub fn frontier_gc() -> StampMechanism<N, crate::gc::FrontierGc<N>> {
        StampMechanism::with_policy(crate::gc::FrontierGc::new())
    }

    /// A mechanism selecting reducing/non-reducing from a runtime
    /// [`Reduction`] flag (one mechanism type for both).
    #[must_use]
    pub fn with_reduction(reduction: Reduction) -> StampMechanism<N, Reduction> {
        StampMechanism::with_policy(reduction)
    }
}

impl<N: NameLike> StampMechanism<N, Reduction> {
    /// The reduction flag in force.
    #[must_use]
    pub fn reduction(&self) -> Reduction {
        self.policy
    }
}

impl<N: NameLike, P: ReductionPolicy<N>> Mechanism for StampMechanism<N, P> {
    type Element = Stamp<N>;

    fn mechanism_name(&self) -> &'static str {
        // The default representation (packed) keeps the unsuffixed names;
        // the set-backed specification is labelled so reports stay
        // unambiguous.
        match (N::REPR_NAME, self.policy.policy_name()) {
            ("packed", "eager") => "version-stamps",
            ("packed", "none") => "version-stamps-nonreducing",
            ("packed", "deferred") => "version-stamps-deferred",
            ("packed", "frontier-gc") => "version-stamps-gc",
            ("set", "eager") => "version-stamps-set",
            ("set", "none") => "version-stamps-set-nonreducing",
            ("set", "deferred") => "version-stamps-set-deferred",
            ("set", "frontier-gc") => "version-stamps-set-gc",
            _ => unreachable!("NameLike and the shipped policies are a closed set"),
        }
    }

    fn initial(&mut self) -> Self::Element {
        let seed = Stamp::seed();
        self.policy.on_initial(&seed);
        seed
    }

    fn update(&mut self, element: &Self::Element) -> Self::Element {
        let updated = element.update();
        self.policy.on_update(element, &updated);
        updated
    }

    fn fork(&mut self, element: &Self::Element) -> (Self::Element, Self::Element) {
        let (left, right) = element.fork();
        self.policy.on_fork(element, &left, &right);
        (left, right)
    }

    fn join(&mut self, left: &Self::Element, right: &Self::Element) -> Self::Element {
        self.policy.join(left, right)
    }

    fn relation(&self, left: &Self::Element, right: &Self::Element) -> Relation {
        left.relation(right)
    }

    fn size_bits(&self, element: &Self::Element) -> usize {
        // Computed directly on the backing representation: no trie is
        // built per sample.
        element.encoded_bits()
    }
}

/// Version-stamp mechanism over the flat tag-array representation with
/// eager reduction — the workspace default.
pub type VersionStampMechanism = StampMechanism<PackedName, Eager>;

/// Version-stamp mechanism over the literal antichain representation, the
/// executable specification the reference checks run against.
pub type SetStampMechanism = StampMechanism<Name, Eager>;

/// The default mechanism with the frontier-evidence GC policy.
pub type GcStampMechanism = StampMechanism<PackedName, crate::gc::FrontierGc<PackedName>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamp_mechanism_constructors() {
        let reducing: SetStampMechanism = StampMechanism::reducing();
        assert_eq!(reducing.mechanism_name(), "version-stamps-set");
        assert_eq!(ReductionPolicy::<Name>::policy_name(reducing.policy()), "eager");

        let packed: VersionStampMechanism = StampMechanism::reducing();
        assert_eq!(packed.mechanism_name(), "version-stamps");
        assert_eq!(
            VersionStampMechanism::non_reducing().mechanism_name(),
            "version-stamps-nonreducing"
        );
        assert_eq!(VersionStampMechanism::deferred(8).mechanism_name(), "version-stamps-deferred");
        assert_eq!(VersionStampMechanism::frontier_gc().mechanism_name(), "version-stamps-gc");
        assert_eq!(SetStampMechanism::reducing().mechanism_name(), "version-stamps-set");
        assert_eq!(
            SetStampMechanism::non_reducing().mechanism_name(),
            "version-stamps-set-nonreducing"
        );
        assert_eq!(SetStampMechanism::deferred(4).mechanism_name(), "version-stamps-set-deferred");
        assert_eq!(SetStampMechanism::frontier_gc().mechanism_name(), "version-stamps-set-gc");

        let explicit = SetStampMechanism::with_reduction(Reduction::Reducing);
        assert_eq!(explicit.reduction(), Reduction::Reducing);
        assert_eq!(explicit.mechanism_name(), "version-stamps-set");
        let flag = VersionStampMechanism::with_reduction(Reduction::NonReducing);
        assert_eq!(flag.reduction(), Reduction::NonReducing);
        assert_eq!(flag.mechanism_name(), "version-stamps-nonreducing");

        let default: VersionStampMechanism = StampMechanism::default();
        assert_eq!(default, StampMechanism::new());
        assert_eq!(default.mechanism_name(), "version-stamps");
    }

    #[test]
    fn stamp_mechanism_behaves_like_direct_stamp_calls() {
        let mut mech: VersionStampMechanism = StampMechanism::reducing();
        let root = mech.initial();
        assert_eq!(root, Stamp::seed());

        let (a, b) = mech.fork(&root);
        assert_eq!((a.clone(), b.clone()), root.fork());

        let a1 = mech.update(&a);
        assert_eq!(a1, a.update());

        let joined = mech.join(&a1, &b);
        assert_eq!(joined, a1.join(&b));
        assert_eq!(mech.relation(&a1, &b), a1.relation(&b));
        assert!(mech.size_bits(&joined) > 0);
    }

    #[test]
    fn non_reducing_mechanism_skips_simplification() {
        let mut mech = VersionStampMechanism::non_reducing();
        let root = mech.initial();
        let (a, b) = mech.fork(&root);
        let joined = mech.join(&a, &b);
        assert_eq!(joined, a.join_non_reducing(&b));
        assert_ne!(joined, root);
    }

    #[test]
    fn deferred_mechanism_reduces_past_threshold() {
        let mut lazy = VersionStampMechanism::deferred(2);
        let root = lazy.initial();
        let (a, rest) = lazy.fork(&root);
        let (a0, a1) = lazy.fork(&a);
        // id strings after joining the two sub-forks: {00, 01} — exactly at
        // the threshold, the sibling pair stays unreduced.
        let ab = lazy.join(&a0, &a1);
        assert!(!ab.is_reduced());
        // joining in the sibling crosses the threshold: one batched pass
        // collapses everything back to the seed.
        let all = lazy.join(&ab, &rest);
        assert!(all.is_seed_identity());
    }

    #[test]
    fn gc_mechanism_replays_like_eager_on_relations() {
        let mut gc = VersionStampMechanism::frontier_gc();
        let mut eager: VersionStampMechanism = StampMechanism::reducing();
        let g0 = gc.initial();
        let e0 = eager.initial();
        let (ga, gb) = gc.fork(&g0);
        let (ea, eb) = eager.fork(&e0);
        let ga = gc.update(&ga);
        let ea = eager.update(&ea);
        assert_eq!(gc.relation(&ga, &gb), eager.relation(&ea, &eb));
        let gj = gc.join(&ga, &gb);
        let ej = eager.join(&ea, &eb);
        // The GC'd stamp is never larger than the eagerly reduced one.
        assert!(gc.size_bits(&gj) <= eager.size_bits(&ej));
        assert!(!gc.policy().is_degraded());
    }

    #[test]
    fn default_sync_is_join_then_fork() {
        let mut mech: VersionStampMechanism = StampMechanism::reducing();
        let root = mech.initial();
        let (a, b) = mech.fork(&root);
        let a = mech.update(&a);
        let (x, y) = mech.sync(&a, &b);
        let expected = a.join(&b).fork();
        assert_eq!((x, y), expected);
    }
}
