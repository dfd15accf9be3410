//! The simplification rewriting rule of Section 6, on the literal antichain
//! representation.
//!
//! After a join, a stamp `(u, {i, s·0, s·1})` may be rewritten into
//! `(u′, {i, s})` where
//!
//! ```text
//! u′ = u \ {s0, s1} ∪ {s}   if s0 ∈ u or s1 ∈ u
//! u′ = u                     otherwise
//! ```
//!
//! The rule is applied repeatedly until no sibling pair remains in the id.
//! It is terminating (each step strictly decreases the id in the
//! well-founded order on names) and confluent, so every stamp has a unique
//! normal form; [`reduce_name_pair`] computes it. [`rewrite_step`] exposes a
//! single step so the property tests can check confluence and the
//! invariant-preservation argument of the paper directly.
//!
//! The packed representation has its own linear-time implementation of the
//! same rule ([`crate::PackedName::reduce_pair`]); the two are
//! property-tested against each other.

use crate::bitstring::{Bit, BitString};
use crate::name::Name;

/// A single candidate application of the rewriting rule: the id contains both
/// `parent·0` and `parent·1`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiblingPair {
    /// The common parent `s` that will replace the pair.
    pub parent: BitString,
    /// `s·0`, a member of the id.
    pub zero: BitString,
    /// `s·1`, a member of the id.
    pub one: BitString,
}

/// Finds every sibling pair `s·0, s·1` currently present in `id`, in
/// deterministic (sorted-by-parent) order.
///
/// # Examples
///
/// ```
/// use vstamp_core::{simplify, Name};
/// let id: Name = "{00, 01, 1}".parse().unwrap();
/// let pairs = simplify::sibling_pairs(&id);
/// assert_eq!(pairs.len(), 1);
/// assert_eq!(pairs[0].parent.to_string(), "0");
/// ```
#[must_use]
pub fn sibling_pairs(id: &Name) -> Vec<SiblingPair> {
    // In the sorted order of an antichain, `s·0` and `s·1` are always
    // adjacent: any string strictly between them would have to extend `s·0`
    // or equal a prefix of `s·1`, both of which the antichain property
    // forbids. One linear scan over consecutive members therefore finds
    // every pair — no per-element membership lookups.
    let mut pairs = Vec::new();
    let mut iter = id.iter();
    let Some(mut prev) = iter.next() else {
        return pairs;
    };
    for next in iter {
        if prev.last() == Some(Bit::Zero) && prev.len() == next.len() {
            let parent = prev.parent().expect("non-empty string has a parent");
            if next.last() == Some(Bit::One) && parent.is_prefix_of(next) {
                pairs.push(SiblingPair { parent, zero: prev.clone(), one: next.clone() });
            }
        }
        prev = next;
    }
    pairs
}

/// Returns `true` when no rewriting step applies to the stamp's id, i.e. the
/// stamp is in normal form.
#[must_use]
pub fn is_reduced(id: &Name) -> bool {
    sibling_pairs(id).is_empty()
}

/// Applies exactly one rewriting step for the given sibling pair, returning
/// the new `(update, id)`.
///
/// This is the literal rule of Section 6. The update component changes only
/// when one of the collapsed siblings is itself a member of the update.
///
/// # Examples
///
/// ```
/// use vstamp_core::{simplify, Name};
/// let update: Name = "{01}".parse().unwrap();
/// let id: Name = "{00, 01}".parse().unwrap();
/// let pair = &simplify::sibling_pairs(&id)[0];
/// let (u, i) = simplify::rewrite_step(&update, &id, pair);
/// assert_eq!(i.to_string(), "{0}");
/// assert_eq!(u.to_string(), "{0}");
/// ```
#[must_use]
pub fn rewrite_step(update: &Name, id: &Name, pair: &SiblingPair) -> (Name, Name) {
    debug_assert!(id.contains(&pair.zero) && id.contains(&pair.one), "pair must be present in id");
    let mut new_id = id.clone();
    new_id.remove(&pair.zero);
    new_id.remove(&pair.one);
    new_id.insert(pair.parent.clone());

    let mut new_update = update.clone();
    if update.contains(&pair.zero) || update.contains(&pair.one) {
        new_update.remove(&pair.zero);
        new_update.remove(&pair.one);
        new_update.insert(pair.parent.clone());
    }
    (new_update, new_id)
}

/// Applies the rewriting rule repeatedly until no sibling pair remains,
/// returning the unique normal form of the stamp.
///
/// The rule assumes Invariant I1 (`update ⊑ id`), which holds for every
/// reachable stamp; on arbitrary pairs the result is still an antichain but
/// may not match the paper's definition.
///
/// # Examples
///
/// A cascade: joining all descendants of a fork tree recovers `{ε}`.
///
/// ```
/// use vstamp_core::{simplify, Name};
/// let update: Name = "{001}".parse().unwrap();
/// let id: Name = "{000, 001, 01, 1}".parse().unwrap();
/// let (u, i) = simplify::reduce_name_pair(&update, &id);
/// assert_eq!(i, Name::epsilon());
/// assert_eq!(u, Name::epsilon());
/// ```
#[must_use]
pub fn reduce_name_pair(update: &Name, id: &Name) -> (Name, Name) {
    let mut update = update.clone();
    let mut id = id.clone();
    loop {
        let pairs = sibling_pairs(&id);
        let Some(pair) = pairs.first() else {
            return (update, id);
        };
        let (u, i) = rewrite_step(&update, &id, pair);
        update = u;
        id = i;
    }
}

/// Number of rewriting steps needed to reach the normal form; used by the
/// simplification-effectiveness experiment (E9).
#[must_use]
pub fn reduction_steps(update: &Name, id: &Name) -> usize {
    let mut update = update.clone();
    let mut id = id.clone();
    let mut steps = 0;
    loop {
        let pairs = sibling_pairs(&id);
        let Some(pair) = pairs.first() else {
            return steps;
        };
        let (u, i) = rewrite_step(&update, &id, pair);
        update = u;
        id = i;
        steps += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packed::PackedName;

    fn name(s: &str) -> Name {
        s.parse().expect("valid name literal")
    }

    #[test]
    fn detects_sibling_pairs() {
        assert!(sibling_pairs(&name("{}")).is_empty());
        assert!(sibling_pairs(&name("{ε}")).is_empty());
        assert!(sibling_pairs(&name("{00, 1}")).is_empty());
        assert!(sibling_pairs(&name("{00, 011}")).is_empty());
        let pairs = sibling_pairs(&name("{0, 1}"));
        assert_eq!(pairs.len(), 1);
        assert_eq!(pairs[0].parent, BitString::empty());
        let pairs = sibling_pairs(&name("{000, 001, 010, 011}"));
        assert_eq!(pairs.len(), 2);
        assert!(is_reduced(&name("{00, 1}")));
        assert!(!is_reduced(&name("{0, 1}")));
    }

    #[test]
    fn single_step_matches_paper_rule() {
        // (u, {i, s0, s1}) → (u', {i, s})
        let update = name("{10}");
        let id = name("{10, 110, 111}");
        let pairs = sibling_pairs(&id);
        assert_eq!(pairs.len(), 1);
        let (u, i) = rewrite_step(&update, &id, &pairs[0]);
        assert_eq!(i, name("{10, 11}"));
        // neither 110 nor 111 is in u, so u is unchanged
        assert_eq!(u, update);

        let update = name("{110}");
        let (u, i) = rewrite_step(&update, &id, &pairs[0]);
        assert_eq!(i, name("{10, 11}"));
        assert_eq!(u, name("{11}"));
    }

    #[test]
    fn full_reduction_reaches_normal_form() {
        let (u, i) = reduce_name_pair(&name("{001}"), &name("{000, 001, 01, 1}"));
        assert_eq!(i, Name::epsilon());
        assert_eq!(u, Name::epsilon());
        assert!(is_reduced(&i));

        let (u, i) = reduce_name_pair(&name("{}"), &name("{000, 001, 01, 1}"));
        assert_eq!(i, Name::epsilon());
        assert_eq!(u, Name::empty());

        // nothing reducible: untouched
        let (u, i) = reduce_name_pair(&name("{00}"), &name("{00, 011}"));
        assert_eq!(i, name("{00, 011}"));
        assert_eq!(u, name("{00}"));
    }

    #[test]
    fn reduction_steps_counts_rewrites() {
        assert_eq!(reduction_steps(&name("{}"), &name("{00, 1}")), 0);
        assert_eq!(reduction_steps(&name("{}"), &name("{0, 1}")), 1);
        assert_eq!(reduction_steps(&name("{}"), &name("{000, 001, 01, 1}")), 3);
    }

    #[test]
    fn reduction_is_confluent_on_exhaustive_small_cases() {
        // Apply the rule with every possible choice order and check the final
        // normal form is identical (confluence, which the paper states
        // without proof).
        fn all_normal_forms(update: &Name, id: &Name, out: &mut Vec<(Name, Name)>) {
            let pairs = sibling_pairs(id);
            if pairs.is_empty() {
                out.push((update.clone(), id.clone()));
                return;
            }
            for pair in &pairs {
                let (u, i) = rewrite_step(update, id, pair);
                all_normal_forms(&u, &i, out);
            }
        }

        let cases = [
            ("{001}", "{000, 001, 01, 1}"),
            ("{}", "{000, 001, 010, 011}"),
            ("{010}", "{000, 001, 010, 011}"),
            ("{00, 01}", "{00, 01, 10, 11}"),
            ("{0110}", "{0110, 0111, 010, 011}"),
        ];
        for (u, i) in cases {
            let mut forms = Vec::new();
            all_normal_forms(&name(u), &name(i), &mut forms);
            assert!(!forms.is_empty());
            for form in &forms {
                assert_eq!(form, &forms[0], "non-confluent reduction for ({u}, {i})");
            }
        }
    }

    #[test]
    fn agrees_with_packed_reduction() {
        let cases = [
            ("{}", "{ε}"),
            ("{ε}", "{ε}"),
            ("{01}", "{00, 01}"),
            ("{1}", "{0, 1}"),
            ("{}", "{0, 1}"),
            ("{001}", "{000, 001, 01, 1}"),
            ("{00}", "{00, 011}"),
            ("{00, 01}", "{00, 01, 10, 11}"),
            ("{0110, 010}", "{0110, 0111, 010, 011}"),
        ];
        for (u, i) in cases {
            let (nu, ni) = reduce_name_pair(&name(u), &name(i));
            let (pu, pi) = PackedName::reduce_pair(
                &PackedName::from_name(&name(u)),
                &PackedName::from_name(&name(i)),
            );
            assert_eq!(pu.to_name(), nu, "update mismatch for ({u}, {i})");
            assert_eq!(pi.to_name(), ni, "id mismatch for ({u}, {i})");
            assert_eq!(reduce_name_pair(&nu, &ni), (nu, ni), "not idempotent on ({u}, {i})");
        }
    }

    #[test]
    fn reduction_preserves_antichains_and_i1() {
        let cases = [
            ("{01}", "{00, 01}"),
            ("{001}", "{000, 001, 01, 1}"),
            ("{00, 01}", "{00, 01, 10, 11}"),
        ];
        for (u, i) in cases {
            let (ru, ri) = reduce_name_pair(&name(u), &name(i));
            assert!(ru.is_antichain());
            assert!(ri.is_antichain());
            assert!(ru.leq(&ri), "I1 broken after reduction of ({u}, {i})");
            assert!(ru.leq(&name(u)), "update must not grow");
            assert!(ri.leq(&name(i)), "id must not grow");
        }
    }
}
