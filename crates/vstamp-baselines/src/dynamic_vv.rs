//! Dynamic version vectors (Ratner et al. 1997 style).
//!
//! In a dynamic replica population every replica *incarnation* receives its
//! own identifier: forks hand a fresh identifier to **both** descendants and
//! joins allocate yet another for the merged element. Comparison is still
//! the pointwise order on vectors, so the mechanism remains exact — but the
//! number of identifiers (and therefore the vector width) grows with the
//! total number of fork/join operations ever performed, not with the current
//! frontier width. The space experiments (E7) contrast this growth with the
//! self-adapting identities of version stamps.
//!
//! Identifier allocation is again a global service — the assumption the
//! paper removes.

use core::fmt;

use vstamp_core::{Mechanism, Relation};

use crate::replica::{ReplicaAllocator, ReplicaId};
use crate::version_vector::VersionVector;

/// One frontier element of the dynamic version-vector mechanism: the
/// incarnation's identifier plus its vector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DynamicVvElement {
    /// Identifier of this incarnation of the replica.
    pub incarnation: ReplicaId,
    /// The element's version vector.
    pub vector: VersionVector,
}

impl fmt::Display for DynamicVvElement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}", self.incarnation, self.vector)
    }
}

/// Version vectors with per-incarnation identifiers (dynamic creation and
/// retirement of replicas).
///
/// # Examples
///
/// ```
/// use vstamp_baselines::DynamicVersionVectorMechanism;
/// use vstamp_core::{Mechanism, Relation};
///
/// let mut mech = DynamicVersionVectorMechanism::new();
/// let root = mech.initial();
/// let (a, b) = mech.fork(&root);
/// let a = mech.update(&a);
/// assert_eq!(mech.relation(&a, &b), Relation::Dominates);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DynamicVersionVectorMechanism {
    allocator: ReplicaAllocator,
    retired: u64,
}

impl DynamicVersionVectorMechanism {
    /// Creates the mechanism with an empty identifier pool.
    #[must_use]
    pub fn new() -> Self {
        DynamicVersionVectorMechanism::default()
    }

    /// Number of incarnation identifiers handed out so far.
    #[must_use]
    pub fn incarnations_allocated(&self) -> u64 {
        self.allocator.allocated()
    }

    /// Number of incarnations retired by joins so far.
    #[must_use]
    pub fn incarnations_retired(&self) -> u64 {
        self.retired
    }
}

impl Mechanism for DynamicVersionVectorMechanism {
    type Element = DynamicVvElement;

    fn mechanism_name(&self) -> &'static str {
        "dynamic-version-vectors"
    }

    fn initial(&mut self) -> Self::Element {
        DynamicVvElement { incarnation: self.allocator.fresh(), vector: VersionVector::new() }
    }

    fn update(&mut self, element: &Self::Element) -> Self::Element {
        let mut vector = element.vector.clone();
        vector.increment(element.incarnation);
        DynamicVvElement { incarnation: element.incarnation, vector }
    }

    fn fork(&mut self, element: &Self::Element) -> (Self::Element, Self::Element) {
        // Both descendants are new incarnations.
        self.retired += 1;
        (
            DynamicVvElement {
                incarnation: self.allocator.fresh(),
                vector: element.vector.clone(),
            },
            DynamicVvElement {
                incarnation: self.allocator.fresh(),
                vector: element.vector.clone(),
            },
        )
    }

    fn join(&mut self, left: &Self::Element, right: &Self::Element) -> Self::Element {
        self.retired += 2;
        DynamicVvElement {
            incarnation: self.allocator.fresh(),
            vector: left.vector.merged(&right.vector),
        }
    }

    fn relation(&self, left: &Self::Element, right: &Self::Element) -> Relation {
        left.vector.relation(&right.vector)
    }

    fn size_bits(&self, element: &Self::Element) -> usize {
        64 + element.vector.size_bits()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_incarnation_is_fresh() {
        let mut mech = DynamicVersionVectorMechanism::new();
        let root = mech.initial();
        let (a, b) = mech.fork(&root);
        assert_ne!(a.incarnation, b.incarnation);
        assert_ne!(a.incarnation, root.incarnation);
        let joined = mech.join(&a, &b);
        assert_ne!(joined.incarnation, a.incarnation);
        assert_ne!(joined.incarnation, b.incarnation);
        assert_eq!(mech.incarnations_allocated(), 4);
        assert_eq!(mech.incarnations_retired(), 3);
        assert_eq!(mech.mechanism_name(), "dynamic-version-vectors");
        assert!(format!("{joined}").starts_with('r'));
    }

    #[test]
    fn relations_track_updates() {
        let mut mech = DynamicVersionVectorMechanism::new();
        let root = mech.initial();
        let (a, b) = mech.fork(&root);
        assert_eq!(mech.relation(&a, &b), Relation::Equal);
        let a1 = mech.update(&a);
        assert_eq!(mech.relation(&a1, &b), Relation::Dominates);
        let b1 = mech.update(&b);
        assert_eq!(mech.relation(&a1, &b1), Relation::Concurrent);
        let joined = mech.join(&a1, &b1);
        assert_eq!(mech.relation(&joined, &a1), Relation::Dominates);
        assert!(mech.size_bits(&joined) > 64);
    }

    #[test]
    fn vector_width_grows_with_incarnations() {
        let mut mech = DynamicVersionVectorMechanism::new();
        let mut current = mech.initial();
        // repeated update + self-fork-join churn grows the vector width
        for _ in 0..8 {
            current = mech.update(&current);
            let (left, right) = mech.fork(&current);
            let left = mech.update(&left);
            current = mech.join(&left, &right);
        }
        assert!(
            current.vector.len() >= 8,
            "vector width {} should grow with churn",
            current.vector.len()
        );
    }

    #[test]
    fn agrees_with_stamps_on_a_trace() {
        use vstamp_core::{Configuration, ElementId, Operation, Trace, VersionStampMechanism};
        let trace: Trace = [
            Operation::Fork(ElementId::new(0)),
            Operation::Update(ElementId::new(1)),
            Operation::Fork(ElementId::new(2)),
            Operation::Update(ElementId::new(4)),
            Operation::Join(ElementId::new(3), ElementId::new(5)),
            Operation::Fork(ElementId::new(6)),
            Operation::Update(ElementId::new(7)),
        ]
        .into_iter()
        .collect();
        let mut dvv = Configuration::new(DynamicVersionVectorMechanism::new());
        let mut stamps = Configuration::new(VersionStampMechanism::reducing());
        dvv.apply_trace(&trace).unwrap();
        stamps.apply_trace(&trace).unwrap();
        for (a, b, relation) in stamps.pairwise_relations() {
            assert_eq!(dvv.relation(a, b).unwrap(), relation, "mismatch at ({a}, {b})");
        }
    }
}
