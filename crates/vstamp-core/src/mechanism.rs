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
//! the name representation ([`NameLike`]) and holds the paper's one
//! lifecycle choice, a [`Reduction`]: the four (representation × reduction)
//! cells are its four names. The frontier-evidence GC, which keeps a mirror
//! of the live frontier, implements [`Mechanism`] on its own
//! ([`FrontierGc`](crate::gc::FrontierGc)).

use core::fmt;

use crate::name::Name;
use crate::name_like::NameLike;
use crate::packed::PackedName;
use crate::relation::Relation;
use crate::stamp::{Reduction, Stamp};

/// A causality-tracking mechanism driven by fork/join/update transitions.
///
/// Implementations may keep private global state (`&mut self`) — the
/// causal-history oracle allocates globally unique event identifiers, the
/// version-vector baselines allocate replica identifiers, the frontier GC
/// mirrors the live frontier. The plain version-stamp mechanism needs none,
/// which is the paper's point.
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
/// representation `N`: the stamp operations themselves, joined under the
/// [`Reduction`] it holds (Section 4's non-reducing model or Section 6's
/// reduce-after-every-join).
///
/// It keeps no other state. The coordinated frontier GC, which mirrors the
/// live frontier, is a mechanism of its own:
/// [`FrontierGc`](crate::gc::FrontierGc).
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
///
/// let mut plain = VersionStampMechanism::non_reducing();
/// assert_eq!(plain.mechanism_name(), "version-stamps-nonreducing");
/// assert!(!plain.join(&a, &b).is_reduced());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StampMechanism<N = PackedName> {
    reduction: Reduction,
    _marker: core::marker::PhantomData<N>,
}

impl<N: NameLike> StampMechanism<N> {
    /// A mechanism that simplifies after every join (Section 6) — the
    /// practical configuration, and the [`Default`].
    #[must_use]
    pub fn reducing() -> Self {
        StampMechanism { reduction: Reduction::Reducing, _marker: core::marker::PhantomData }
    }

    /// The non-reducing model of Section 4, used as the proof baseline and
    /// in the E9 ablation.
    #[must_use]
    pub fn non_reducing() -> Self {
        StampMechanism { reduction: Reduction::NonReducing, _marker: core::marker::PhantomData }
    }
}

impl<N: NameLike> Default for StampMechanism<N> {
    fn default() -> Self {
        StampMechanism::reducing()
    }
}

impl<N: NameLike> Mechanism for StampMechanism<N> {
    type Element = Stamp<N>;

    fn mechanism_name(&self) -> &'static str {
        // The default representation (packed) keeps the unsuffixed names;
        // the set-backed specification is labelled so reports stay
        // unambiguous.
        match (N::REPR_NAME == "set", self.reduction) {
            (false, Reduction::Reducing) => "version-stamps",
            (false, Reduction::NonReducing) => "version-stamps-nonreducing",
            (true, Reduction::Reducing) => "version-stamps-set",
            (true, Reduction::NonReducing) => "version-stamps-set-nonreducing",
        }
    }

    fn initial(&mut self) -> Self::Element {
        Stamp::seed()
    }

    fn update(&mut self, element: &Self::Element) -> Self::Element {
        element.update()
    }

    fn fork(&mut self, element: &Self::Element) -> (Self::Element, Self::Element) {
        element.fork()
    }

    fn join(&mut self, left: &Self::Element, right: &Self::Element) -> Self::Element {
        left.join_with(right, self.reduction)
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
pub type VersionStampMechanism = StampMechanism<PackedName>;

/// Version-stamp mechanism over the literal antichain representation, the
/// executable specification the reference checks run against.
pub type SetStampMechanism = StampMechanism<Name>;

/// The frontier-evidence GC mechanism over the default representation.
pub type GcStampMechanism = crate::gc::FrontierGc<PackedName>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gc::FrontierGc;
    use crate::stamp::VersionStamp;

    #[test]
    fn stamp_mechanism_constructors() {
        let reducing: SetStampMechanism = StampMechanism::reducing();
        assert_eq!(reducing.mechanism_name(), "version-stamps-set");
        assert_eq!(reducing.reduction, Reduction::Reducing);

        let packed: VersionStampMechanism = StampMechanism::reducing();
        assert_eq!(packed.mechanism_name(), "version-stamps");
        assert_eq!(
            VersionStampMechanism::non_reducing().mechanism_name(),
            "version-stamps-nonreducing"
        );
        assert_eq!(GcStampMechanism::new().mechanism_name(), "version-stamps-gc");
        assert_eq!(SetStampMechanism::reducing().mechanism_name(), "version-stamps-set");
        assert_eq!(
            SetStampMechanism::non_reducing().mechanism_name(),
            "version-stamps-set-nonreducing"
        );
        assert_eq!(FrontierGc::<Name>::new().mechanism_name(), "version-stamps-set-gc");

        let explicit = SetStampMechanism::reducing();
        assert_eq!(explicit.reduction, Reduction::Reducing);
        assert_eq!(explicit.mechanism_name(), "version-stamps-set");
        let flag = VersionStampMechanism::non_reducing();
        assert_eq!(flag.reduction, Reduction::NonReducing);
        assert_eq!(flag.mechanism_name(), "version-stamps-nonreducing");

        let default: VersionStampMechanism = StampMechanism::default();
        assert_eq!(default, StampMechanism::reducing());
        assert_eq!(default.mechanism_name(), "version-stamps");
    }

    #[test]
    fn eager_reduces_and_none_does_not() {
        let (a, b) = VersionStamp::seed().fork();
        let mut eager = VersionStampMechanism::reducing();
        let mut none = VersionStampMechanism::non_reducing();
        assert_eq!(eager.join(&a, &b), VersionStamp::seed());
        let raw = none.join(&a, &b);
        assert_ne!(raw, VersionStamp::seed());
        assert_eq!(raw.reduce(), VersionStamp::seed());
        assert_eq!(eager.mechanism_name(), "version-stamps");
        assert_eq!(none.mechanism_name(), "version-stamps-nonreducing");
    }

    #[test]
    fn reduction_flag_acts_as_runtime_policy() {
        let (a, b) = VersionStamp::seed().fork();
        let mut reducing = VersionStampMechanism::reducing();
        let mut plain = VersionStampMechanism::non_reducing();
        assert_eq!(reducing.join(&a, &b), a.join(&b));
        assert_eq!(plain.join(&a, &b), a.join_non_reducing(&b));
        assert_eq!(reducing.join(&a, &b), a.join_with(&b, reducing.reduction));
        assert_eq!(plain.join(&a, &b), a.join_with(&b, plain.reduction));
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
    fn gc_mechanism_replays_like_eager_on_relations() {
        let mut gc = GcStampMechanism::new();
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
        assert!(!gc.is_degraded());
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
