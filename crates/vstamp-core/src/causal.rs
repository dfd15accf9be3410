//! The causal-history reference model of Section 2.
//!
//! Causal histories map every element of the current frontier to the set of
//! update events in its past. The model assumes a *global view*: every
//! update event receives a globally unique identity, something the paper
//! argues is not implementable under arbitrary partitions — which is exactly
//! why version stamps exist. The model is nevertheless indispensable: it is
//! the specification against which version stamps are proved (and, here,
//! property-tested) equivalent for frontier ordering (Proposition 5.1,
//! Corollary 5.2).
//!
//! # Examples
//!
//! ```
//! use vstamp_core::causal::{CausalHistory, CausalMechanism};
//! use vstamp_core::{Mechanism, Relation};
//!
//! let mut mech = CausalMechanism::new();
//! let root = mech.initial();
//! let (a, b) = mech.fork(&root);
//! let a = mech.update(&a);
//! assert_eq!(mech.relation(&a, &b), Relation::Dominates);
//! let joined = mech.join(&a, &b);
//! assert_eq!(mech.relation(&joined, &a), Relation::Equal);
//! ```

use core::fmt;
use std::collections::btree_set;
use std::collections::BTreeSet;

use crate::mechanism::Mechanism;
use crate::relation::Relation;

/// Globally unique identity of an update event.
///
/// The global uniqueness is provided by [`CausalMechanism`], which plays the
/// role of the paper's omniscient observer. The decentralized mechanism
/// (version stamps) never sees these values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventId(u64);

impl EventId {
    /// Wraps a raw event number.
    #[must_use]
    pub fn new(raw: u64) -> Self {
        EventId(raw)
    }

    /// The raw event number.
    #[must_use]
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for EventId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// The set of update events known to one element — `C(a)` in the paper.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct CausalHistory {
    events: BTreeSet<EventId>,
}

impl CausalHistory {
    /// The empty history of the initial element.
    #[must_use]
    pub fn new() -> Self {
        CausalHistory::default()
    }

    /// Builds a history from an iterator of events.
    pub fn from_events<I: IntoIterator<Item = EventId>>(events: I) -> Self {
        CausalHistory { events: events.into_iter().collect() }
    }

    /// Number of update events in the history.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Returns `true` when no update has been observed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Returns `true` when the history contains the given event.
    #[must_use]
    pub fn contains(&self, event: EventId) -> bool {
        self.events.contains(&event)
    }

    /// Adds an event, returning `true` if it was new.
    pub fn insert(&mut self, event: EventId) -> bool {
        self.events.insert(event)
    }

    /// Returns a new history extended with `event` — the `update` transition
    /// of Definition 2.1.
    #[must_use]
    pub fn with_event(&self, event: EventId) -> Self {
        let mut out = self.clone();
        out.insert(event);
        out
    }

    /// Set union — the `join` transition of Definition 2.1.
    #[must_use]
    pub fn union(&self, other: &CausalHistory) -> Self {
        CausalHistory { events: self.events.union(&other.events).copied().collect() }
    }

    /// Set inclusion — the pre-order `≤_C` used for frontier comparison.
    #[must_use]
    pub fn is_subset_of(&self, other: &CausalHistory) -> bool {
        self.events.is_subset(&other.events)
    }

    /// Classifies two histories (equivalent / obsolete / concurrent).
    #[must_use]
    pub fn relation(&self, other: &CausalHistory) -> Relation {
        Relation::from_leq(self.is_subset_of(other), other.is_subset_of(self))
    }

    /// Iterates over the events of the history in increasing order.
    pub fn iter(&self) -> Iter<'_> {
        Iter { inner: self.events.iter() }
    }
}

impl fmt::Display for CausalHistory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("{")?;
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{e}")?;
        }
        f.write_str("}")
    }
}

impl FromIterator<EventId> for CausalHistory {
    fn from_iter<I: IntoIterator<Item = EventId>>(iter: I) -> Self {
        CausalHistory::from_events(iter)
    }
}

impl Extend<EventId> for CausalHistory {
    fn extend<I: IntoIterator<Item = EventId>>(&mut self, iter: I) {
        self.events.extend(iter);
    }
}

impl<'a> IntoIterator for &'a CausalHistory {
    type Item = EventId;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Iterator over the events of a [`CausalHistory`], produced by
/// [`CausalHistory::iter`].
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    inner: btree_set::Iter<'a, EventId>,
}

impl Iterator for Iter<'_> {
    type Item = EventId;

    fn next(&mut self) -> Option<Self::Item> {
        self.inner.next().copied()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

impl ExactSizeIterator for Iter<'_> {}

/// The causal-history mechanism: the global-view oracle of Definition 2.1,
/// exposed through the common [`Mechanism`] interface so the same traces can
/// drive it and every decentralized mechanism side by side.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CausalMechanism {
    next_event: u64,
}

impl CausalMechanism {
    /// Creates a fresh oracle with no allocated events.
    #[must_use]
    pub fn new() -> Self {
        CausalMechanism::default()
    }

    /// Number of update events allocated so far.
    #[must_use]
    pub fn events_allocated(&self) -> u64 {
        self.next_event
    }

    fn fresh_event(&mut self) -> EventId {
        let id = EventId(self.next_event);
        self.next_event += 1;
        id
    }
}

impl Mechanism for CausalMechanism {
    type Element = CausalHistory;

    fn mechanism_name(&self) -> &'static str {
        "causal-histories"
    }

    fn initial(&mut self) -> Self::Element {
        CausalHistory::new()
    }

    fn update(&mut self, element: &Self::Element) -> Self::Element {
        let event = self.fresh_event();
        element.with_event(event)
    }

    fn fork(&mut self, element: &Self::Element) -> (Self::Element, Self::Element) {
        (element.clone(), element.clone())
    }

    fn join(&mut self, left: &Self::Element, right: &Self::Element) -> Self::Element {
        left.union(right)
    }

    fn relation(&self, left: &Self::Element, right: &Self::Element) -> Relation {
        left.relation(right)
    }

    fn size_bits(&self, element: &Self::Element) -> usize {
        // 64 bits per globally unique event identifier.
        element.len() * 64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_history() {
        let h = CausalHistory::new();
        assert!(h.is_empty());
        assert_eq!(h.len(), 0);
        assert_eq!(h.to_string(), "{}");
        assert_eq!(h, CausalHistory::default());
    }

    #[test]
    fn insert_and_contains() {
        let mut h = CausalHistory::new();
        assert!(h.insert(EventId::new(3)));
        assert!(!h.insert(EventId::new(3)));
        assert!(h.contains(EventId::new(3)));
        assert!(!h.contains(EventId::new(4)));
        assert_eq!(h.len(), 1);
        assert_eq!(h.to_string(), "{e3}");
    }

    #[test]
    fn with_event_is_persistent() {
        let h = CausalHistory::new();
        let h1 = h.with_event(EventId::new(1));
        assert!(h.is_empty());
        assert!(h1.contains(EventId::new(1)));
    }

    #[test]
    fn union_and_subset() {
        let a = CausalHistory::from_events([EventId::new(1), EventId::new(2)]);
        let b = CausalHistory::from_events([EventId::new(2), EventId::new(3)]);
        let u = a.union(&b);
        assert_eq!(u.len(), 3);
        assert!(a.is_subset_of(&u));
        assert!(b.is_subset_of(&u));
        assert!(!a.is_subset_of(&b));
        assert_eq!(a.relation(&b), Relation::Concurrent);
        assert_eq!(a.relation(&u), Relation::Dominated);
        assert_eq!(u.relation(&b), Relation::Dominates);
        assert_eq!(u.relation(&u.clone()), Relation::Equal);
    }

    #[test]
    fn iteration_is_ordered() {
        let h = CausalHistory::from_events([EventId::new(5), EventId::new(1), EventId::new(3)]);
        let events: Vec<u64> = h.iter().map(EventId::raw).collect();
        assert_eq!(events, vec![1, 3, 5]);
        assert_eq!(h.iter().len(), 3);
        let collected: CausalHistory = h.iter().collect();
        assert_eq!(collected, h);
        let mut extended = CausalHistory::new();
        extended.extend(&h);
        assert_eq!(extended, h);
    }

    #[test]
    fn mechanism_follows_definition_2_1() {
        let mut mech = CausalMechanism::new();
        assert_eq!(mech.mechanism_name(), "causal-histories");
        let root = mech.initial();
        assert!(root.is_empty());

        // update introduces a globally fresh event
        let updated = mech.update(&root);
        assert_eq!(updated.len(), 1);
        let updated_again = mech.update(&updated);
        assert_eq!(updated_again.len(), 2);
        assert_eq!(mech.events_allocated(), 2);

        // fork duplicates the history
        let (left, right) = mech.fork(&updated_again);
        assert_eq!(left, right);
        assert_eq!(left, updated_again);

        // join unions the histories
        let left_updated = mech.update(&left);
        let joined = mech.join(&left_updated, &right);
        assert_eq!(joined, left_updated);
        assert_eq!(mech.relation(&joined, &right), Relation::Dominates);
        assert_eq!(mech.relation(&right, &joined), Relation::Dominated);

        // size metric: 64 bits per event
        assert_eq!(mech.size_bits(&joined), 3 * 64);
        assert_eq!(mech.size_bits(&CausalHistory::new()), 0);
    }

    #[test]
    fn event_id_accessors() {
        let e = EventId::new(42);
        assert_eq!(e.raw(), 42);
        assert_eq!(e.to_string(), "e42");
    }
}
