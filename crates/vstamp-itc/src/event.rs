//! Event trees of Interval Tree Clocks.
//!
//! An event tree maps the unit interval to a number of observed events,
//! piecewise: a leaf `n` means "the whole subinterval has seen `n` events";
//! a node `(n, l, r)` adds `n` to whatever its two halves record. Event
//! trees form a join semilattice under pointwise maximum, with a pointwise
//! `≤` — the ITC counterpart of the update component of a version stamp.

use core::fmt;

/// An ITC event tree.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum EventTree {
    /// The whole subinterval has observed this many events.
    Leaf(u64),
    /// `base` events everywhere in the subinterval, plus what the two halves
    /// record.
    Node(u64, Box<EventTree>, Box<EventTree>),
}

impl EventTree {
    /// The event tree of a fresh system: zero events everywhere.
    #[must_use]
    pub fn zero() -> Self {
        EventTree::Leaf(0)
    }

    /// A constant tree (`n` events everywhere).
    #[must_use]
    pub fn leaf(n: u64) -> Self {
        EventTree::Leaf(n)
    }

    /// Smart constructor that keeps trees in normal form: two equal leaf
    /// children collapse into their parent and the minimum of the children
    /// is lifted into the base.
    #[must_use]
    pub fn node(base: u64, left: EventTree, right: EventTree) -> Self {
        match (&left, &right) {
            (EventTree::Leaf(l), EventTree::Leaf(r)) if l == r => EventTree::Leaf(base + l),
            _ => {
                let m = left.min_value().min(right.min_value());
                EventTree::Node(base + m, Box::new(left.sunk(m)), Box::new(right.sunk(m)))
            }
        }
    }

    /// The base value at the root.
    #[must_use]
    pub fn base(&self) -> u64 {
        match self {
            EventTree::Leaf(n) | EventTree::Node(n, _, _) => *n,
        }
    }

    /// Adds `n` to the root value ("lift").
    #[must_use]
    pub fn lifted(&self, n: u64) -> EventTree {
        match self {
            EventTree::Leaf(m) => EventTree::Leaf(m + n),
            EventTree::Node(m, l, r) => EventTree::Node(m + n, l.clone(), r.clone()),
        }
    }

    /// Subtracts `n` from the root value ("sink").
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds the root value.
    #[must_use]
    pub fn sunk(&self, n: u64) -> EventTree {
        match self {
            EventTree::Leaf(m) => EventTree::Leaf(m.checked_sub(n).expect("sink below zero")),
            EventTree::Node(m, l, r) => {
                EventTree::Node(m.checked_sub(n).expect("sink below zero"), l.clone(), r.clone())
            }
        }
    }

    /// The smallest number of events observed anywhere in the interval.
    #[must_use]
    pub fn min_value(&self) -> u64 {
        match self {
            EventTree::Leaf(n) => *n,
            EventTree::Node(n, l, r) => n + l.min_value().min(r.min_value()),
        }
    }

    /// The largest number of events observed anywhere in the interval.
    #[must_use]
    pub fn max_value(&self) -> u64 {
        match self {
            EventTree::Leaf(n) => *n,
            EventTree::Node(n, l, r) => n + l.max_value().max(r.max_value()),
        }
    }

    /// Returns `true` when the tree is in normal form (no collapsible node
    /// and every node's children have a zero minimum).
    #[must_use]
    pub fn is_normalized(&self) -> bool {
        match self {
            EventTree::Leaf(_) => true,
            EventTree::Node(_, l, r) => {
                let collapsible = matches!((l.as_ref(), r.as_ref()), (EventTree::Leaf(a), EventTree::Leaf(b)) if a == b);
                !collapsible
                    && l.min_value().min(r.min_value()) == 0
                    && l.is_normalized()
                    && r.is_normalized()
            }
        }
    }

    /// Rebuilds the tree in normal form.
    #[must_use]
    pub fn normalized(&self) -> EventTree {
        match self {
            EventTree::Leaf(n) => EventTree::Leaf(*n),
            EventTree::Node(n, l, r) => EventTree::node(*n, l.normalized(), r.normalized()),
        }
    }

    /// Pointwise `≤` — "every part of the interval has seen at most as many
    /// events as in `other`".
    #[must_use]
    pub fn leq(&self, other: &EventTree) -> bool {
        match (self, other) {
            (EventTree::Leaf(a), EventTree::Leaf(b)) => a <= b,
            (EventTree::Leaf(a), EventTree::Node(b, _, _)) => a <= b,
            (EventTree::Node(a, l, r), EventTree::Leaf(b)) => {
                a <= b
                    && l.lifted(*a).leq(&EventTree::Leaf(*b))
                    && r.lifted(*a).leq(&EventTree::Leaf(*b))
            }
            (EventTree::Node(a, l1, r1), EventTree::Node(b, l2, r2)) => {
                a <= b && l1.lifted(*a).leq(&l2.lifted(*b)) && r1.lifted(*a).leq(&r2.lifted(*b))
            }
        }
    }

    /// Pointwise maximum — the join of knowledge.
    #[must_use]
    pub fn join(&self, other: &EventTree) -> EventTree {
        match (self, other) {
            (EventTree::Leaf(a), EventTree::Leaf(b)) => EventTree::Leaf(*a.max(b)),
            (EventTree::Leaf(a), node) => {
                // Expand the leaf into an equivalent (non-normal) node so the
                // structural case below applies; the smart constructor cannot
                // be used here because it would collapse straight back.
                let expanded =
                    EventTree::Node(*a, Box::new(EventTree::Leaf(0)), Box::new(EventTree::Leaf(0)));
                expanded.join(node)
            }
            (node, EventTree::Leaf(b)) => {
                let expanded =
                    EventTree::Node(*b, Box::new(EventTree::Leaf(0)), Box::new(EventTree::Leaf(0)));
                node.join(&expanded)
            }
            (EventTree::Node(a, l1, r1), EventTree::Node(b, l2, r2)) => {
                if a > b {
                    return other.join(self);
                }
                let shift = b - a;
                EventTree::node(*a, l1.join(&l2.lifted(shift)), r1.join(&r2.lifted(shift)))
            }
        }
    }

    /// Number of nodes in the tree (a space metric).
    #[must_use]
    pub fn node_count(&self) -> usize {
        match self {
            EventTree::Leaf(_) => 1,
            EventTree::Node(_, l, r) => 1 + l.node_count() + r.node_count(),
        }
    }
}

impl Default for EventTree {
    fn default() -> Self {
        EventTree::zero()
    }
}

impl fmt::Display for EventTree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EventTree::Leaf(n) => write!(f, "{n}"),
            EventTree::Node(n, l, r) => write!(f, "({n}, {l}, {r})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(base: u64, l: EventTree, r: EventTree) -> EventTree {
        EventTree::node(base, l, r)
    }

    #[test]
    fn leaves_and_constructors() {
        assert_eq!(EventTree::zero(), EventTree::Leaf(0));
        assert_eq!(EventTree::default(), EventTree::zero());
        assert_eq!(EventTree::leaf(4).base(), 4);
        assert_eq!(EventTree::leaf(4).to_string(), "4");
        assert_eq!(EventTree::leaf(3).min_value(), 3);
        assert_eq!(EventTree::leaf(3).max_value(), 3);
        assert_eq!(EventTree::leaf(3).node_count(), 1);
    }

    #[test]
    fn node_constructor_normalizes() {
        // equal leaf children collapse
        assert_eq!(node(2, EventTree::leaf(1), EventTree::leaf(1)), EventTree::Leaf(3));
        // minima are lifted into the base
        let n = node(1, EventTree::leaf(2), EventTree::leaf(5));
        assert_eq!(
            n,
            EventTree::Node(3, Box::new(EventTree::Leaf(0)), Box::new(EventTree::Leaf(3)))
        );
        assert!(n.is_normalized());
        assert_eq!(n.min_value(), 3);
        assert_eq!(n.max_value(), 6);
        assert_eq!(n.to_string(), "(3, 0, 3)");
    }

    #[test]
    fn lift_and_sink() {
        let n = node(0, EventTree::leaf(0), EventTree::leaf(2));
        assert_eq!(n.lifted(3).base(), 3);
        assert_eq!(n.lifted(3).sunk(3), n);
        assert_eq!(EventTree::leaf(5).sunk(2), EventTree::leaf(3));
    }

    #[test]
    #[should_panic(expected = "sink below zero")]
    fn sink_below_zero_panics() {
        let _ = EventTree::leaf(1).sunk(2);
    }

    #[test]
    fn normalized_rebuilds_raw_trees() {
        let raw = EventTree::Node(
            1,
            Box::new(EventTree::Node(
                0,
                Box::new(EventTree::Leaf(2)),
                Box::new(EventTree::Leaf(2)),
            )),
            Box::new(EventTree::Leaf(3)),
        );
        assert!(!raw.is_normalized());
        let norm = raw.normalized();
        assert!(norm.is_normalized());
        assert_eq!(norm.min_value(), raw.min_value());
        assert_eq!(norm.max_value(), raw.max_value());
        // normalization is idempotent
        assert_eq!(norm.normalized(), norm);
    }

    #[test]
    fn leq_is_pointwise() {
        let a = node(0, EventTree::leaf(0), EventTree::leaf(2));
        let b = node(0, EventTree::leaf(1), EventTree::leaf(2));
        assert!(a.leq(&b));
        assert!(!b.leq(&a));
        assert!(a.leq(&a));
        assert!(!EventTree::leaf(2).leq(&a));
        assert!(EventTree::leaf(0).leq(&a));
        // leaf vs node comparisons in both directions
        assert!(a.leq(&EventTree::leaf(2)));
        assert!(!a.leq(&EventTree::leaf(1)));
        let concurrent = node(0, EventTree::leaf(3), EventTree::leaf(0));
        assert!(!a.leq(&concurrent) && !concurrent.leq(&a));
    }

    #[test]
    fn join_is_pointwise_max() {
        let a = node(0, EventTree::leaf(0), EventTree::leaf(2));
        let b = node(0, EventTree::leaf(3), EventTree::leaf(0));
        let j = a.join(&b);
        assert!(a.leq(&j) && b.leq(&j));
        assert_eq!(j, node(0, EventTree::leaf(3), EventTree::leaf(2)));
        // join with leaves
        assert_eq!(EventTree::leaf(1).join(&EventTree::leaf(4)), EventTree::leaf(4));
        assert_eq!(a.join(&EventTree::leaf(3)), EventTree::leaf(3));
        assert_eq!(EventTree::leaf(3).join(&a), EventTree::leaf(3));
        // commutative, associative, idempotent
        let c = node(1, EventTree::leaf(0), EventTree::leaf(5));
        assert_eq!(a.join(&b), b.join(&a));
        assert_eq!(a.join(&b).join(&c), a.join(&b.join(&c)));
        assert_eq!(a.join(&a), a);
        // results are normalized
        assert!(j.is_normalized());
        assert!(a.join(&c).is_normalized());
    }

    #[test]
    fn join_with_different_bases() {
        let a = EventTree::Node(2, Box::new(EventTree::Leaf(0)), Box::new(EventTree::Leaf(1)));
        let b = EventTree::Node(1, Box::new(EventTree::Leaf(4)), Box::new(EventTree::Leaf(0)));
        let j = a.join(&b);
        assert!(a.leq(&j) && b.leq(&j));
        assert_eq!(j.max_value(), 5);
        assert!(j.min_value() >= 2, "pointwise max cannot fall below either minimum");
        assert!(j.is_normalized());
    }

    #[test]
    fn leq_iff_join_absorbs() {
        let samples = [
            EventTree::leaf(0),
            EventTree::leaf(2),
            node(0, EventTree::leaf(0), EventTree::leaf(2)),
            node(1, EventTree::leaf(0), EventTree::leaf(3)),
            node(0, EventTree::leaf(4), EventTree::leaf(0)),
            node(0, node(0, EventTree::leaf(0), EventTree::leaf(1)), EventTree::leaf(2)),
        ];
        for a in &samples {
            for b in &samples {
                assert_eq!(a.leq(b), a.join(b) == b.normalized(), "a={a} b={b}");
            }
        }
    }
}
