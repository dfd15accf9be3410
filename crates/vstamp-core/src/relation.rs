//! The three-way (plus equality) classification of frontier elements.
//!
//! Section 2 of the paper distinguishes, for two coexisting elements:
//! *equivalence* (same set of known updates), *obsolescence* (one element has
//! seen strictly more) and *mutual inconsistency* (each has seen an update
//! the other has not). [`Relation`] captures the classification, with
//! obsolescence split into the two directions.

use core::cmp::Ordering;
use core::fmt;

/// How two coexisting replicas relate under the frontier pre-order.
///
/// Produced by comparing causal histories (`⊆` on event sets), version-stamp
/// update components (`⊑` on names) or any of the baseline mechanisms.
///
/// # Examples
///
/// ```
/// use vstamp_core::{Relation, VersionStamp};
///
/// let seed = VersionStamp::seed();
/// let (a, b) = seed.fork();
/// let a1 = a.update();
///
/// assert_eq!(a1.relation(&b), Relation::Dominates);     // b is obsolete
/// assert_eq!(b.relation(&a1), Relation::Dominated);
/// let b1 = b.update();
/// assert_eq!(a1.relation(&b1), Relation::Concurrent);    // mutually inconsistent
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Relation {
    /// Both elements have seen exactly the same updates ("equivalent").
    Equal,
    /// The left element has seen every update the right one has, plus at
    /// least one more: the right element is obsolete relative to the left.
    Dominates,
    /// The left element is obsolete relative to the right one.
    Dominated,
    /// Each element has seen an update the other has not ("mutually
    /// inconsistent"); reconciliation requires a join.
    Concurrent,
}

impl Relation {
    /// Builds a relation from the two directions of a pre-order test
    /// (`left ≤ right`, `right ≤ left`).
    #[must_use]
    pub fn from_leq(left_le_right: bool, right_le_left: bool) -> Relation {
        match (left_le_right, right_le_left) {
            (true, true) => Relation::Equal,
            (true, false) => Relation::Dominated,
            (false, true) => Relation::Dominates,
            (false, false) => Relation::Concurrent,
        }
    }

    /// The relation seen from the other element's point of view.
    #[must_use]
    pub fn reverse(self) -> Relation {
        match self {
            Relation::Dominates => Relation::Dominated,
            Relation::Dominated => Relation::Dominates,
            other => other,
        }
    }

    /// Converts to a partial [`Ordering`] (`None` for concurrent elements),
    /// matching the `PartialOrd` convention used by the stamp types.
    #[must_use]
    pub fn to_ordering(self) -> Option<Ordering> {
        match self {
            Relation::Equal => Some(Ordering::Equal),
            Relation::Dominates => Some(Ordering::Greater),
            Relation::Dominated => Some(Ordering::Less),
            Relation::Concurrent => None,
        }
    }

    /// Builds a relation from a partial [`Ordering`].
    #[must_use]
    pub fn from_ordering(ordering: Option<Ordering>) -> Relation {
        match ordering {
            Some(Ordering::Equal) => Relation::Equal,
            Some(Ordering::Greater) => Relation::Dominates,
            Some(Ordering::Less) => Relation::Dominated,
            None => Relation::Concurrent,
        }
    }

    /// `true` when the elements have seen the same updates.
    #[must_use]
    pub fn is_equal(self) -> bool {
        matches!(self, Relation::Equal)
    }

    /// `true` when the left element dominates (right is obsolete).
    #[must_use]
    pub fn is_dominates(self) -> bool {
        matches!(self, Relation::Dominates)
    }

    /// `true` when the left element is obsolete.
    #[must_use]
    pub fn is_dominated(self) -> bool {
        matches!(self, Relation::Dominated)
    }

    /// `true` when the elements are mutually inconsistent.
    #[must_use]
    pub fn is_concurrent(self) -> bool {
        matches!(self, Relation::Concurrent)
    }

    /// `true` when the left element has seen at least the updates of the
    /// right one (i.e. `Equal` or `Dominates`).
    #[must_use]
    pub fn includes_right(self) -> bool {
        matches!(self, Relation::Equal | Relation::Dominates)
    }

    /// `true` when the right element has seen at least the updates of the
    /// left one (i.e. `Equal` or `Dominated`).
    #[must_use]
    pub fn includes_left(self) -> bool {
        matches!(self, Relation::Equal | Relation::Dominated)
    }
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Relation::Equal => "equivalent",
            Relation::Dominates => "dominates",
            Relation::Dominated => "obsolete",
            Relation::Concurrent => "concurrent",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_leq_covers_all_cases() {
        assert_eq!(Relation::from_leq(true, true), Relation::Equal);
        assert_eq!(Relation::from_leq(true, false), Relation::Dominated);
        assert_eq!(Relation::from_leq(false, true), Relation::Dominates);
        assert_eq!(Relation::from_leq(false, false), Relation::Concurrent);
    }

    #[test]
    fn reverse_is_involutive() {
        for r in [Relation::Equal, Relation::Dominates, Relation::Dominated, Relation::Concurrent] {
            assert_eq!(r.reverse().reverse(), r);
        }
        assert_eq!(Relation::Dominates.reverse(), Relation::Dominated);
        assert_eq!(Relation::Equal.reverse(), Relation::Equal);
        assert_eq!(Relation::Concurrent.reverse(), Relation::Concurrent);
    }

    #[test]
    fn ordering_roundtrip() {
        for r in [Relation::Equal, Relation::Dominates, Relation::Dominated, Relation::Concurrent] {
            assert_eq!(Relation::from_ordering(r.to_ordering()), r);
        }
        assert_eq!(Relation::Dominates.to_ordering(), Some(Ordering::Greater));
        assert_eq!(Relation::Concurrent.to_ordering(), None);
    }

    #[test]
    fn predicates() {
        assert!(Relation::Equal.is_equal());
        assert!(Relation::Dominates.is_dominates());
        assert!(Relation::Dominated.is_dominated());
        assert!(Relation::Concurrent.is_concurrent());
        assert!(Relation::Equal.includes_right());
        assert!(Relation::Dominates.includes_right());
        assert!(!Relation::Dominated.includes_right());
        assert!(Relation::Dominated.includes_left());
        assert!(Relation::Equal.includes_left());
        assert!(!Relation::Concurrent.includes_left());
    }

    #[test]
    fn display_names_match_paper_vocabulary() {
        assert_eq!(Relation::Equal.to_string(), "equivalent");
        assert_eq!(Relation::Dominated.to_string(), "obsolete");
        assert_eq!(Relation::Concurrent.to_string(), "concurrent");
        assert_eq!(Relation::Dominates.to_string(), "dominates");
    }
}
