//! Interval Tree Clock stamps: an identity tree plus an event tree.
//!
//! The fork–event–join model of ITC is the same transition system as the
//! paper's fork–update–join; the `event` operation records an update by
//! inflating the event tree only inside the region the identity owns,
//! preferring to *fill* (raise owned regions up to the level of the
//! surroundings, which keeps the tree small) and *growing* (adding a new
//! node) only when filling changes nothing.

use core::fmt;

use vstamp_core::{Mechanism, Relation};

use crate::event::EventTree;
use crate::id::IdTree;

/// An Interval Tree Clock stamp `(id, event)`.
///
/// # Examples
///
/// ```
/// use vstamp_itc::ItcStamp;
/// use vstamp_core::Relation;
///
/// let seed = ItcStamp::seed();
/// let (a, b) = seed.fork();
/// let a = a.event();
/// assert_eq!(a.relation(&b), Relation::Dominates);
/// let b = b.event();
/// assert_eq!(a.relation(&b), Relation::Concurrent);
/// let merged = a.join(&b);
/// assert_eq!(merged.relation(&a), Relation::Dominates);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ItcStamp {
    id: IdTree,
    event: EventTree,
}

impl ItcStamp {
    /// The seed stamp: the whole identity interval, zero events.
    #[must_use]
    pub fn seed() -> Self {
        ItcStamp { id: IdTree::one(), event: EventTree::zero() }
    }

    /// Builds a stamp from explicit components.
    #[must_use]
    pub fn from_parts(id: IdTree, event: EventTree) -> Self {
        ItcStamp { id: id.normalized(), event: event.normalized() }
    }

    /// The identity component.
    #[must_use]
    pub fn id(&self) -> &IdTree {
        &self.id
    }

    /// The event component.
    #[must_use]
    pub fn event_tree(&self) -> &EventTree {
        &self.event
    }

    /// Returns `true` when this stamp owns no identity (a read-only
    /// "anonymous" stamp).
    #[must_use]
    pub fn is_anonymous(&self) -> bool {
        self.id.is_zero()
    }

    /// The fork operation: splits the identity, duplicates the event tree.
    #[must_use]
    pub fn fork(&self) -> (ItcStamp, ItcStamp) {
        let (left, right) = self.id.split();
        (
            ItcStamp { id: left, event: self.event.clone() },
            ItcStamp { id: right, event: self.event.clone() },
        )
    }

    /// An anonymous copy of the stamp (`peek`): no identity, same knowledge.
    #[must_use]
    pub fn peek(&self) -> ItcStamp {
        ItcStamp { id: IdTree::zero(), event: self.event.clone() }
    }

    /// The join operation: sums identities, joins event trees.
    ///
    /// # Panics
    ///
    /// Panics if the identities overlap, which cannot happen for stamps
    /// forked from a common ancestor.
    #[must_use]
    pub fn join(&self, other: &ItcStamp) -> ItcStamp {
        ItcStamp { id: self.id.sum(&other.id), event: self.event.join(&other.event) }
    }

    /// The event (update) operation: records one new event in the region the
    /// identity owns, by filling if possible and growing otherwise.
    ///
    /// # Panics
    ///
    /// Panics on an anonymous stamp (no identity to record the event under),
    /// mirroring ITC's precondition.
    #[must_use]
    pub fn event(&self) -> ItcStamp {
        assert!(!self.id.is_zero(), "cannot record an event on an anonymous stamp");
        let filled = fill(&self.id, &self.event);
        let event = if filled != self.event {
            filled
        } else {
            let (grown, _cost) = grow(&self.id, &self.event);
            grown
        };
        ItcStamp { id: self.id.clone(), event }
    }

    /// Synchronization: join followed by fork.
    #[must_use]
    pub fn sync(&self, other: &ItcStamp) -> (ItcStamp, ItcStamp) {
        self.join(other).fork()
    }

    /// Whether this stamp's knowledge is included in `other`'s.
    #[must_use]
    pub fn leq(&self, other: &ItcStamp) -> bool {
        self.event.leq(&other.event)
    }

    /// Classifies two coexisting stamps.
    #[must_use]
    pub fn relation(&self, other: &ItcStamp) -> Relation {
        Relation::from_leq(self.leq(other), other.leq(self))
    }

    /// A space metric: total nodes across both trees, at roughly 2 bits of
    /// structure per identity node and 2 bits plus a counter per event node.
    #[must_use]
    pub fn size_bits(&self) -> usize {
        self.id.node_count() * 2 + self.event.node_count() * (2 + 8)
    }
}

impl Default for ItcStamp {
    fn default() -> Self {
        ItcStamp::seed()
    }
}

impl fmt::Display for ItcStamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({} ; {})", self.id, self.event)
    }
}

/// The fill operation of ITC: raise the parts of the event tree owned by the
/// identity up to the level of their surroundings (never inventing events
/// beyond the current maximum), which simplifies the tree.
fn fill(id: &IdTree, event: &EventTree) -> EventTree {
    match (id, event) {
        (IdTree::Zero, e) => e.clone(),
        (IdTree::One, e) => EventTree::leaf(e.max_value()),
        (_, EventTree::Leaf(n)) => EventTree::Leaf(*n),
        (IdTree::Node(il, ir), EventTree::Node(n, el, er)) => match (il.as_ref(), ir.as_ref()) {
            (IdTree::One, _) => {
                let er_filled = fill(ir, er);
                let left_level = el.max_value().max(er_filled.min_value());
                EventTree::node(*n, EventTree::leaf(left_level), er_filled)
            }
            (_, IdTree::One) => {
                let el_filled = fill(il, el);
                let right_level = er.max_value().max(el_filled.min_value());
                EventTree::node(*n, el_filled, EventTree::leaf(right_level))
            }
            _ => EventTree::node(*n, fill(il, el), fill(ir, er)),
        },
    }
}

/// The grow operation of ITC: add one event somewhere inside the owned
/// region, choosing the cheapest place (fewest new nodes, shallowest).
/// Returns the new tree and the cost of the chosen growth.
fn grow(id: &IdTree, event: &EventTree) -> (EventTree, u64) {
    const EXPAND_COST: u64 = 1000;
    match (id, event) {
        (IdTree::One, EventTree::Leaf(n)) => (EventTree::Leaf(n + 1), 0),
        (_, EventTree::Leaf(n)) => {
            let expanded =
                EventTree::Node(*n, Box::new(EventTree::Leaf(0)), Box::new(EventTree::Leaf(0)));
            let (grown, cost) = grow(id, &expanded);
            (grown, cost + EXPAND_COST)
        }
        (IdTree::Node(il, ir), EventTree::Node(n, el, er)) => match (il.as_ref(), ir.as_ref()) {
            (IdTree::Zero, _) => {
                let (er_grown, cost) = grow(ir, er);
                (EventTree::node(*n, el.as_ref().clone(), er_grown), cost + 1)
            }
            (_, IdTree::Zero) => {
                let (el_grown, cost) = grow(il, el);
                (EventTree::node(*n, el_grown, er.as_ref().clone()), cost + 1)
            }
            _ => {
                let (el_grown, left_cost) = grow(il, el);
                let (er_grown, right_cost) = grow(ir, er);
                if left_cost <= right_cost {
                    (EventTree::node(*n, el_grown, er.as_ref().clone()), left_cost + 1)
                } else {
                    (EventTree::node(*n, el.as_ref().clone(), er_grown), right_cost + 1)
                }
            }
        },
        (IdTree::Zero, _) | (IdTree::One, _) => {
            unreachable!("grow is only called with an owning identity over a node")
        }
    }
}

/// The Interval Tree Clock mechanism, driven by the same fork/join/update
/// traces as every other mechanism in this reproduction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ItcMechanism;

impl ItcMechanism {
    /// Creates the mechanism (stateless: ITC needs no global services).
    #[must_use]
    pub fn new() -> Self {
        ItcMechanism
    }
}

impl Mechanism for ItcMechanism {
    type Element = ItcStamp;

    fn mechanism_name(&self) -> &'static str {
        "interval-tree-clocks"
    }

    fn initial(&mut self) -> Self::Element {
        ItcStamp::seed()
    }

    fn update(&mut self, element: &Self::Element) -> Self::Element {
        element.event()
    }

    fn fork(&mut self, element: &Self::Element) -> (Self::Element, Self::Element) {
        element.fork()
    }

    fn join(&mut self, left: &Self::Element, right: &Self::Element) -> Self::Element {
        left.join(right)
    }

    fn relation(&self, left: &Self::Element, right: &Self::Element) -> Relation {
        left.relation(right)
    }

    fn size_bits(&self, element: &Self::Element) -> usize {
        element.size_bits()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_and_accessors() {
        let seed = ItcStamp::seed();
        assert_eq!(seed, ItcStamp::default());
        assert!(seed.id().is_one());
        assert_eq!(seed.event_tree(), &EventTree::zero());
        assert!(!seed.is_anonymous());
        assert!(seed.peek().is_anonymous());
        assert_eq!(seed.to_string(), "(1 ; 0)");
        assert!(seed.size_bits() > 0);
        let rebuilt = ItcStamp::from_parts(IdTree::one(), EventTree::zero());
        assert_eq!(rebuilt, seed);
    }

    #[test]
    fn event_on_seed_increments_leaf() {
        let seed = ItcStamp::seed();
        let once = seed.event();
        assert_eq!(once.event_tree(), &EventTree::leaf(1));
        let twice = once.event();
        assert_eq!(twice.event_tree(), &EventTree::leaf(2));
        assert_eq!(seed.relation(&twice), Relation::Dominated);
    }

    #[test]
    #[should_panic(expected = "anonymous")]
    fn event_on_anonymous_stamp_panics() {
        let _ = ItcStamp::seed().peek().event();
    }

    #[test]
    fn fork_event_join_tracks_causality() {
        let seed = ItcStamp::seed();
        let (a, b) = seed.fork();
        assert_eq!(a.relation(&b), Relation::Equal);
        assert!(a.id().is_disjoint_with(b.id()));

        let a1 = a.event();
        assert_eq!(a1.relation(&b), Relation::Dominates);
        assert_eq!(b.relation(&a1), Relation::Dominated);

        let b1 = b.event();
        assert_eq!(a1.relation(&b1), Relation::Concurrent);

        let joined = a1.join(&b1);
        assert_eq!(joined.relation(&a1), Relation::Dominates);
        assert_eq!(joined.relation(&b1), Relation::Dominates);
        // joining the two halves recovers full ownership
        assert!(joined.id().is_one());
    }

    #[test]
    fn join_of_untouched_fork_recovers_seed() {
        let seed = ItcStamp::seed();
        let (a, b) = seed.fork();
        assert_eq!(a.join(&b), seed);
        let (aa, ab) = a.fork();
        assert_eq!(aa.join(&ab).join(&b), seed);
    }

    #[test]
    fn sync_produces_equivalent_replicas() {
        let (a, b) = ItcStamp::seed().fork();
        let a = a.event().event();
        let (a2, b2) = a.sync(&b);
        assert_eq!(a2.relation(&b2), Relation::Equal);
        assert!(a2.id().is_disjoint_with(b2.id()));
    }

    #[test]
    fn fill_simplifies_after_sync() {
        // The classic ITC example: fork, update both sides unevenly, join,
        // and check the event tree collapses back towards a leaf.
        let (a, b) = ItcStamp::seed().fork();
        let a = a.event().event();
        let b = b.event();
        let joined = a.join(&b);
        // after the join the owner of everything can fill to a single leaf
        let filled = joined.event();
        assert!(filled.event_tree().node_count() <= joined.event_tree().node_count() + 1);
        assert_eq!(filled.relation(&joined), Relation::Dominates);
    }

    #[test]
    fn deep_fork_chains_stay_consistent() {
        // Build eight replicas, update some, merge everything, and compare
        // against the expectation that the final stamp dominates them all.
        let mut replicas = vec![ItcStamp::seed()];
        for _ in 0..3 {
            let mut next = Vec::new();
            for r in replicas {
                let (x, y) = r.fork();
                next.push(x);
                next.push(y);
            }
            replicas = next;
        }
        assert_eq!(replicas.len(), 8);
        let updated: Vec<ItcStamp> = replicas
            .iter()
            .enumerate()
            .map(|(i, r)| if i % 2 == 0 { r.event() } else { r.clone() })
            .collect();
        let merged = updated.iter().skip(1).fold(updated[0].clone(), |acc, r| acc.join(r));
        assert!(merged.id().is_one());
        for r in &updated {
            assert!(r.leq(&merged), "{r} should be ≤ the total merge {merged}");
        }
    }

    #[test]
    fn mechanism_agrees_with_stamps_and_causal_histories() {
        use vstamp_core::causal::CausalMechanism;
        use vstamp_core::{Configuration, ElementId, Operation, Trace, VersionStampMechanism};
        let trace: Trace = [
            Operation::Fork(ElementId::new(0)),
            Operation::Update(ElementId::new(1)),
            Operation::Fork(ElementId::new(2)),
            Operation::Update(ElementId::new(4)),
            Operation::Update(ElementId::new(3)),
            Operation::Join(ElementId::new(6), ElementId::new(7)),
            Operation::Fork(ElementId::new(8)),
            Operation::Update(ElementId::new(9)),
        ]
        .into_iter()
        .collect();
        let mut itc = Configuration::new(ItcMechanism::new());
        let mut stamps = Configuration::new(VersionStampMechanism::reducing());
        let mut causal = Configuration::new(CausalMechanism::new());
        itc.apply_trace(&trace).unwrap();
        stamps.apply_trace(&trace).unwrap();
        causal.apply_trace(&trace).unwrap();
        for (a, b, expected) in causal.pairwise_relations() {
            assert_eq!(itc.relation(a, b).unwrap(), expected, "ITC mismatch at ({a}, {b})");
            assert_eq!(stamps.relation(a, b).unwrap(), expected);
        }
        assert_eq!(ItcMechanism::new().mechanism_name(), "interval-tree-clocks");
    }
}
