//! Identity trees of Interval Tree Clocks.
//!
//! An ITC identity describes which part of the unit interval a replica owns,
//! as a binary tree whose leaves are either owned (`One`) or not owned
//! (`Zero`). The seed replica owns the whole interval; `split` halves the
//! ownership of some owned region between the two descendants of a fork and
//! `sum` merges ownership on joins — the direct descendant of the version
//! stamps idea of appending bits to identity strings and collapsing sibling
//! pairs.

use core::fmt;

/// An ITC identity tree.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum IdTree {
    /// This whole subtree of the interval is not owned.
    Zero,
    /// This whole subtree of the interval is owned.
    One,
    /// Ownership differs between the two halves.
    Node(Box<IdTree>, Box<IdTree>),
}

impl IdTree {
    /// The identity owning the entire interval (the seed replica).
    #[must_use]
    pub fn one() -> Self {
        IdTree::One
    }

    /// The identity owning nothing (an anonymous stamp).
    #[must_use]
    pub fn zero() -> Self {
        IdTree::Zero
    }

    /// Smart constructor that keeps trees in normal form:
    /// `Node(Zero, Zero) → Zero`, `Node(One, One) → One`.
    #[must_use]
    pub fn node(left: IdTree, right: IdTree) -> Self {
        match (&left, &right) {
            (IdTree::Zero, IdTree::Zero) => IdTree::Zero,
            (IdTree::One, IdTree::One) => IdTree::One,
            _ => IdTree::Node(Box::new(left), Box::new(right)),
        }
    }

    /// Returns `true` when the identity owns nothing.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        matches!(self, IdTree::Zero)
    }

    /// Returns `true` when the identity owns the whole interval.
    #[must_use]
    pub fn is_one(&self) -> bool {
        matches!(self, IdTree::One)
    }

    /// Returns `true` when the tree contains no `Node(Zero, Zero)` or
    /// `Node(One, One)` pattern.
    #[must_use]
    pub fn is_normalized(&self) -> bool {
        match self {
            IdTree::Zero | IdTree::One => true,
            IdTree::Node(l, r) => {
                !matches!(
                    (l.as_ref(), r.as_ref()),
                    (IdTree::Zero, IdTree::Zero) | (IdTree::One, IdTree::One)
                ) && l.is_normalized()
                    && r.is_normalized()
            }
        }
    }

    /// Rebuilds the tree in normal form.
    #[must_use]
    pub fn normalized(&self) -> IdTree {
        match self {
            IdTree::Zero => IdTree::Zero,
            IdTree::One => IdTree::One,
            IdTree::Node(l, r) => IdTree::node(l.normalized(), r.normalized()),
        }
    }

    /// Splits the identity into two disjoint identities whose sum is the
    /// original — the identity half of a fork.
    #[must_use]
    pub fn split(&self) -> (IdTree, IdTree) {
        match self {
            IdTree::Zero => (IdTree::Zero, IdTree::Zero),
            IdTree::One => {
                (IdTree::node(IdTree::One, IdTree::Zero), IdTree::node(IdTree::Zero, IdTree::One))
            }
            IdTree::Node(l, r) => match (l.as_ref(), r.as_ref()) {
                (IdTree::Zero, right) => {
                    let (r1, r2) = right.split();
                    (IdTree::node(IdTree::Zero, r1), IdTree::node(IdTree::Zero, r2))
                }
                (left, IdTree::Zero) => {
                    let (l1, l2) = left.split();
                    (IdTree::node(l1, IdTree::Zero), IdTree::node(l2, IdTree::Zero))
                }
                (left, right) => (
                    IdTree::node(left.clone(), IdTree::Zero),
                    IdTree::node(IdTree::Zero, right.clone()),
                ),
            },
        }
    }

    /// Merges two disjoint identities — the identity half of a join.
    ///
    /// # Panics
    ///
    /// Panics if the identities overlap (both own some region), which cannot
    /// happen for identities produced by `split` from a common ancestor.
    #[must_use]
    pub fn sum(&self, other: &IdTree) -> IdTree {
        match (self, other) {
            (IdTree::Zero, o) => o.clone(),
            (s, IdTree::Zero) => s.clone(),
            (IdTree::Node(l1, r1), IdTree::Node(l2, r2)) => IdTree::node(l1.sum(l2), r1.sum(r2)),
            _ => panic!("cannot sum overlapping ITC identities"),
        }
    }

    /// Returns `true` when the two identities own no common region.
    #[must_use]
    pub fn is_disjoint_with(&self, other: &IdTree) -> bool {
        match (self, other) {
            (IdTree::Zero, _) | (_, IdTree::Zero) => true,
            (IdTree::One, o) => o.is_zero(),
            (s, IdTree::One) => s.is_zero(),
            (IdTree::Node(l1, r1), IdTree::Node(l2, r2)) => {
                l1.is_disjoint_with(l2) && r1.is_disjoint_with(r2)
            }
        }
    }

    /// Number of nodes in the tree (a space metric).
    #[must_use]
    pub fn node_count(&self) -> usize {
        match self {
            IdTree::Zero | IdTree::One => 1,
            IdTree::Node(l, r) => 1 + l.node_count() + r.node_count(),
        }
    }
}

impl Default for IdTree {
    /// The default identity is the seed (`One`).
    fn default() -> Self {
        IdTree::One
    }
}

impl fmt::Display for IdTree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IdTree::Zero => f.write_str("0"),
            IdTree::One => f.write_str("1"),
            IdTree::Node(l, r) => write!(f, "({l}, {r})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_and_anonymous() {
        assert!(IdTree::one().is_one());
        assert!(IdTree::zero().is_zero());
        assert_eq!(IdTree::default(), IdTree::One);
        assert_eq!(IdTree::one().to_string(), "1");
        assert_eq!(IdTree::zero().node_count(), 1);
    }

    #[test]
    fn node_constructor_normalizes() {
        assert_eq!(IdTree::node(IdTree::Zero, IdTree::Zero), IdTree::Zero);
        assert_eq!(IdTree::node(IdTree::One, IdTree::One), IdTree::One);
        let mixed = IdTree::node(IdTree::One, IdTree::Zero);
        assert!(matches!(mixed, IdTree::Node(_, _)));
        assert!(mixed.is_normalized());
        assert_eq!(mixed.to_string(), "(1, 0)");
    }

    #[test]
    fn normalized_rebuilds_raw_trees() {
        let raw = IdTree::Node(
            Box::new(IdTree::Node(Box::new(IdTree::One), Box::new(IdTree::One))),
            Box::new(IdTree::Zero),
        );
        assert!(!raw.is_normalized());
        let norm = raw.normalized();
        assert!(norm.is_normalized());
        assert_eq!(norm, IdTree::node(IdTree::One, IdTree::Zero));
    }

    #[test]
    fn split_of_seed_gives_halves() {
        let (a, b) = IdTree::one().split();
        assert_eq!(a, IdTree::node(IdTree::One, IdTree::Zero));
        assert_eq!(b, IdTree::node(IdTree::Zero, IdTree::One));
        assert!(a.is_disjoint_with(&b));
        assert_eq!(a.sum(&b), IdTree::One);
    }

    #[test]
    fn split_is_disjoint_and_sums_back_recursively() {
        // Repeatedly split the left piece and check disjointness + sum.
        let mut pieces = vec![IdTree::one()];
        for _ in 0..6 {
            let piece = pieces.remove(0);
            let (a, b) = piece.split();
            for other in &pieces {
                assert!(a.is_disjoint_with(other));
                assert!(b.is_disjoint_with(other));
            }
            assert!(a.is_disjoint_with(&b));
            pieces.push(a);
            pieces.push(b);
        }
        // Summing every piece back recovers the seed.
        let total = pieces.iter().fold(IdTree::zero(), |acc, p| acc.sum(p));
        assert_eq!(total, IdTree::One);
        for p in &pieces {
            assert!(p.is_normalized());
        }
    }

    #[test]
    fn split_of_zero_is_zero() {
        let (a, b) = IdTree::zero().split();
        assert!(a.is_zero() && b.is_zero());
    }

    #[test]
    fn split_descends_into_owned_half() {
        let (left_half, right_half) = IdTree::one().split();
        let (a, b) = left_half.split();
        // both descendants still own only parts of the left half
        assert!(a.is_disjoint_with(&right_half));
        assert!(b.is_disjoint_with(&right_half));
        assert_eq!(a.sum(&b), left_half);
        let (c, d) = right_half.split();
        assert_eq!(c.sum(&d), right_half);
        assert!(c.is_disjoint_with(&a));
    }

    #[test]
    #[should_panic(expected = "overlapping")]
    fn sum_of_overlapping_identities_panics() {
        let _ = IdTree::one().sum(&IdTree::one());
    }

    #[test]
    fn disjointness_checks() {
        let (a, b) = IdTree::one().split();
        assert!(a.is_disjoint_with(&b));
        assert!(!a.is_disjoint_with(&IdTree::one()));
        assert!(IdTree::zero().is_disjoint_with(&IdTree::one()));
        assert!(!IdTree::one().is_disjoint_with(&a));
        assert!(IdTree::one().is_disjoint_with(&IdTree::zero()));
    }
}
