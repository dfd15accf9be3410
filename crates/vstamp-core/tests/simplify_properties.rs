//! Property tests for the simplification rule of Section 6: termination,
//! confluence, idempotence, agreement between the two implementations and
//! preservation of the stamp invariants.

use proptest::prelude::*;
use vstamp_core::{simplify, Bit, BitString, Name, SetStamp};

/// Builds a random valid id: take a full binary "fork tree" shape by
/// repeatedly replacing a string with its two children, so the result is
/// always an antichain that can arise from forks.
fn fork_shaped_id(splits: usize, choices: Vec<u8>) -> Name {
    let mut id = Name::epsilon();
    for (i, choice) in choices.into_iter().take(splits).enumerate() {
        let strings: Vec<BitString> = id.iter().cloned().collect();
        let victim = strings[choice as usize % strings.len()].clone();
        id.remove(&victim);
        id.insert(victim.child(Bit::Zero));
        id.insert(victim.child(Bit::One));
        let _ = i;
    }
    id
}

/// Builds an update component dominated by the id (Invariant I1): for each
/// id string, either omit it, include it, or include one of its prefixes —
/// then normalize to an antichain.
fn dominated_update(id: &Name, picks: Vec<u8>) -> Name {
    let mut update = Name::empty();
    for (string, pick) in id.iter().zip(picks) {
        match pick % 4 {
            0 => {}
            1 => {
                update.insert(string.clone());
            }
            2 => {
                if let Some(parent) = string.parent() {
                    update.insert(parent);
                } else {
                    update.insert(string.clone());
                }
            }
            _ => {
                update.insert(BitString::empty());
            }
        }
    }
    // Keep only strings dominated by the id so the stamp satisfies I1; the
    // `{ε}` case above is dominated by construction only when the id is
    // {ε}, so filter it out otherwise.
    Name::from_strings(update.into_iter().filter(|s| id.dominates_string(s)))
}

prop_compose! {
    fn stamp_strategy()(splits in 0usize..7, choices in prop::collection::vec(any::<u8>(), 0..7), picks in prop::collection::vec(any::<u8>(), 0..16)) -> SetStamp {
        let id = fork_shaped_id(splits, choices);
        let update = dominated_update(&id, picks);
        SetStamp::from_parts(update, id).expect("constructed stamps satisfy I1")
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The set-based and packed reductions compute the same normal form.
    #[test]
    fn reductions_agree_across_representations(stamp in stamp_strategy()) {
        let set_reduced = stamp.reduce();
        let packed_reduced = stamp.to_packed_stamp().reduce();
        prop_assert_eq!(packed_reduced.to_set_stamp(), set_reduced);
    }

    /// Reduction terminates at a normal form, is idempotent, and the number
    /// of steps equals the drop in identity strings.
    #[test]
    fn reduction_reaches_a_fixed_point(stamp in stamp_strategy()) {
        let reduced = stamp.reduce();
        prop_assert!(reduced.is_reduced());
        prop_assert_eq!(reduced.reduce(), reduced.clone());
        prop_assert!(simplify::is_reduced(reduced.id_name()));
        let steps = simplify::reduction_steps(stamp.update_name(), stamp.id_name());
        prop_assert_eq!(
            stamp.id_name().len() - reduced.id_name().len(),
            steps,
            "each rewriting step removes exactly one identity string"
        );
    }

    /// Reduction never grows either component and preserves I1 and
    /// antichain well-formedness.
    #[test]
    fn reduction_preserves_stamp_validity(stamp in stamp_strategy()) {
        let reduced = stamp.reduce();
        prop_assert!(reduced.validate().is_ok());
        prop_assert!(reduced.update_name().leq(stamp.update_name()) || reduced.update_name().leq(reduced.id_name()));
        prop_assert!(reduced.id_name().leq(stamp.id_name()));
        prop_assert!(reduced.bit_size() <= stamp.bit_size());
        prop_assert!(reduced.update_name().is_antichain());
        prop_assert!(reduced.id_name().is_antichain());
    }

    /// Confluence: applying the rewriting rule in any (randomly chosen)
    /// order reaches the same normal form as the deterministic strategy.
    #[test]
    fn reduction_is_confluent(stamp in stamp_strategy(), order in prop::collection::vec(any::<u8>(), 0..32)) {
        let expected = stamp.reduce();
        let mut update = stamp.update_name().clone();
        let mut id = stamp.id_name().clone();
        let mut order = order.into_iter();
        loop {
            let pairs = simplify::sibling_pairs(&id);
            if pairs.is_empty() {
                break;
            }
            let pick = order.next().unwrap_or(0) as usize % pairs.len();
            let (u, i) = simplify::rewrite_step(&update, &id, &pairs[pick]);
            update = u;
            id = i;
        }
        prop_assert_eq!(update, expected.update_name().clone());
        prop_assert_eq!(id, expected.id_name().clone());
    }

    /// A fork followed by joining the two halves is the identity on stamps
    /// (the motivating example of Section 3).
    #[test]
    fn fork_then_join_is_identity(stamp in stamp_strategy()) {
        let (left, right) = stamp.fork();
        prop_assert_eq!(left.join(&right), stamp.reduce());
    }

    /// The generated stamps satisfy the invariants they claim to.
    #[test]
    fn generated_stamps_are_valid(stamp in stamp_strategy()) {
        prop_assert!(stamp.validate().is_ok());
        prop_assert!(stamp.update_name().is_antichain());
        prop_assert!(stamp.id_name().is_antichain());
    }
}
