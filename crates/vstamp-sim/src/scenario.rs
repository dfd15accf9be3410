//! The worked examples of the paper, as executable scenarios.
//!
//! Each figure of the paper is encoded as a concrete trace plus the values
//! the paper shows, so `vstamp-bench`'s `figure1`–`figure4` bins can
//! regenerate each figure and check the values the paper shows:
//!
//! * [`figure1`] — fixed version vectors tracking updates among three
//!   replicas A, B, C;
//! * [`figure2`] — the fork/join/update evolution with two possible
//!   frontiers (causal histories view);
//! * [`figure3`] — the encoding of a fixed number of replicas under
//!   fork-and-join dynamics;
//! * [`figure4`] — the same evolution as Figure 2 tracked with version
//!   stamps, including the simplification at the final join.

use vstamp_core::causal::CausalMechanism;
use vstamp_core::{
    Applied, Configuration, ElementId, Mechanism, Operation, Relation, Trace, VersionStamp,
    VersionStampMechanism,
};

use vstamp_baselines::FixedVersionVectorMechanism;

/// A replayable scenario: a named trace plus the identifiers of the named
/// elements of the figure (so reports can refer to "a₂", "c₃" etc.).
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Human-readable scenario name ("Figure 1", …).
    pub name: &'static str,
    /// The operations of the scenario, in order.
    pub trace: Trace,
    /// Named elements of the final frontier: `(label, element id)`.
    pub labels: Vec<(&'static str, ElementId)>,
}

impl Scenario {
    /// Replays the scenario against a mechanism, returning the final
    /// configuration.
    pub fn replay<M: Mechanism>(&self, mechanism: M) -> Configuration<M> {
        let mut config = Configuration::new(mechanism);
        config.apply_trace(&self.trace).expect("scenario traces are well formed");
        config
    }

    /// The element id associated with a label of the final frontier.
    ///
    /// # Panics
    ///
    /// Panics if the label is unknown; scenario labels are fixed constants.
    #[must_use]
    pub fn element(&self, label: &str) -> ElementId {
        self.labels
            .iter()
            .find(|(l, _)| *l == label)
            .map(|(_, id)| *id)
            .unwrap_or_else(|| panic!("unknown scenario label {label}"))
    }
}

/// Figure 1: three replicas A, B and C tracked by fixed version vectors.
///
/// The run: A updates; B pulls from A; C updates; C pulls from B (getting
/// A's update); A updates again. The final frontier has A = `[2,0,0]` and
/// B = C = `[1,0,1]`, mutually inconsistent with A — exactly the last
/// column of Figure 1.
#[must_use]
pub fn figure1() -> Scenario {
    let mut config = Configuration::new(VersionStampMechanism::reducing());
    let mut trace = Trace::new();
    let apply = |config: &mut Configuration<VersionStampMechanism>, trace: &mut Trace, op| {
        let applied = config.apply(op).expect("figure 1 operations are valid");
        trace.push(op);
        applied
    };

    // Create the three replica lines A, B, C from the initial element.
    let root = config.ids()[0];
    let (a, rest) = match apply(&mut config, &mut trace, Operation::Fork(root)) {
        Applied::Forked(a, rest) => (a, rest),
        _ => unreachable!(),
    };
    let (b, c) = match apply(&mut config, &mut trace, Operation::Fork(rest)) {
        Applied::Forked(b, c) => (b, c),
        _ => unreachable!(),
    };

    // A records its first update (A = [1,0,0]).
    let a = match apply(&mut config, &mut trace, Operation::Update(a)) {
        Applied::Updated(id) => id,
        _ => unreachable!(),
    };
    // B synchronizes with A (both now know [1,0,0]).
    let joined = match apply(&mut config, &mut trace, Operation::Join(a, b)) {
        Applied::Joined(id) => id,
        _ => unreachable!(),
    };
    let (a, b) = match apply(&mut config, &mut trace, Operation::Fork(joined)) {
        Applied::Forked(a, b) => (a, b),
        _ => unreachable!(),
    };
    // C records its update ([0,0,1]).
    let c = match apply(&mut config, &mut trace, Operation::Update(c)) {
        Applied::Updated(id) => id,
        _ => unreachable!(),
    };
    // C synchronizes with B ([1,0,1] on both).
    let joined = match apply(&mut config, &mut trace, Operation::Join(b, c)) {
        Applied::Joined(id) => id,
        _ => unreachable!(),
    };
    let (b, c) = match apply(&mut config, &mut trace, Operation::Fork(joined)) {
        Applied::Forked(b, c) => (b, c),
        _ => unreachable!(),
    };
    // A records a second update ([2,0,0]).
    let a = match apply(&mut config, &mut trace, Operation::Update(a)) {
        Applied::Updated(id) => id,
        _ => unreachable!(),
    };

    Scenario { name: "Figure 1", trace, labels: vec![("A", a), ("B", b), ("C", c)] }
}

/// Figure 2 / Figure 4: the fork/join/update evolution with elements
/// a₁ … g₁ and the final frontier `{d₁, (the join of e/f lineage), c₃}`.
///
/// The concrete run follows the arrows of Figure 2 (and the stamps of
/// Figure 4): `a₁` updates into `a₂`; `a₂` forks into `b₁` and `e₁`;
/// `b₁` forks into `d₁` and the element that joins `e`'s lineage; the `c`
/// lineage updates twice more; finally the middle elements join into `g₁`.
#[must_use]
pub fn figure2() -> Scenario {
    let mut config = Configuration::new(VersionStampMechanism::reducing());
    let mut trace = Trace::new();
    let apply = |config: &mut Configuration<VersionStampMechanism>, trace: &mut Trace, op| {
        let applied = config.apply(op).expect("figure 2 operations are valid");
        trace.push(op);
        applied
    };

    // a1 —update→ a2   (the paper's c lineage is the bottom row: a1 is also
    // labelled c1 in the bottom row; we follow the top half first).
    let a1 = config.ids()[0];
    // The bottom row: c1 —update→ c2 —update→ c3 happens on the same initial
    // element's sibling after the first fork, so fork first.
    let a2 = match apply(&mut config, &mut trace, Operation::Update(a1)) {
        Applied::Updated(id) => id,
        _ => unreachable!(),
    };
    // a2 forks into b1 (top) and e1 (middle).
    let (b1, e1) = match apply(&mut config, &mut trace, Operation::Fork(a2)) {
        Applied::Forked(x, y) => (x, y),
        _ => unreachable!(),
    };
    // b1 forks into d1 and the branch that will meet f1.
    let (d1, b2) = match apply(&mut config, &mut trace, Operation::Fork(b1)) {
        Applied::Forked(x, y) => (x, y),
        _ => unreachable!(),
    };
    // e1 updates into f1's predecessor and forks: one branch stays (f1), the
    // other is the c lineage that keeps updating (c2, c3 in the figure's
    // bottom row).
    let (f1, c1) = match apply(&mut config, &mut trace, Operation::Fork(e1)) {
        Applied::Forked(x, y) => (x, y),
        _ => unreachable!(),
    };
    let c2 = match apply(&mut config, &mut trace, Operation::Update(c1)) {
        Applied::Updated(id) => id,
        _ => unreachable!(),
    };
    let c3 = match apply(&mut config, &mut trace, Operation::Update(c2)) {
        Applied::Updated(id) => id,
        _ => unreachable!(),
    };
    // b2 and f1 join into g1.
    let g1 = match apply(&mut config, &mut trace, Operation::Join(b2, f1)) {
        Applied::Joined(id) => id,
        _ => unreachable!(),
    };

    Scenario { name: "Figure 2", trace, labels: vec![("d1", d1), ("g1", g1), ("c3", c3)] }
}

/// Figure 3: the fixed three-replica system of Figure 1 re-expressed under
/// fork-and-join dynamics. Returns the same trace as [`figure1`]; the
/// regeneration binary replays it against both the version-vector mechanism
/// and version stamps and checks the orderings coincide.
#[must_use]
pub fn figure3() -> Scenario {
    let mut scenario = figure1();
    scenario.name = "Figure 3";
    scenario
}

/// Figure 4: the evolution of Figure 2 tracked with version stamps. Returns
/// the same trace as [`figure2`]; the regeneration binary prints the stamps
/// step by step in the paper's `[update | id]` notation.
#[must_use]
pub fn figure4() -> Scenario {
    let mut scenario = figure2();
    scenario.name = "Figure 4";
    scenario
}

/// One row of a step-by-step stamp walkthrough: the operation applied and
/// the stamps of the frontier after it.
#[derive(Debug, Clone)]
pub struct WalkthroughStep {
    /// The operation applied at this step (`None` for the initial state).
    pub operation: Option<Operation>,
    /// The frontier after the operation: `(element, stamp)` pairs.
    pub frontier: Vec<(ElementId, VersionStamp)>,
}

/// Replays a scenario against version stamps, recording the whole frontier
/// after every operation — the data behind the Figure 4 regeneration.
#[must_use]
pub fn stamp_walkthrough(scenario: &Scenario) -> Vec<WalkthroughStep> {
    let mut config = Configuration::new(VersionStampMechanism::reducing());
    let mut steps = vec![WalkthroughStep {
        operation: None,
        frontier: config.iter().map(|(id, s)| (id, s.clone())).collect(),
    }];
    for op in &scenario.trace {
        config.apply(*op).expect("scenario traces are well formed");
        steps.push(WalkthroughStep {
            operation: Some(*op),
            frontier: config.iter().map(|(id, s)| (id, s.clone())).collect(),
        });
    }
    steps
}

/// The relations of the final frontier of Figure 1 as the paper presents
/// them, verified against any mechanism.
pub fn verify_figure1_relations<M: Mechanism>(mechanism: M) -> Result<(), String> {
    let scenario = figure1();
    let config = scenario.replay(mechanism);
    let a = scenario.element("A");
    let b = scenario.element("B");
    let c = scenario.element("C");
    let expect = |left: ElementId, right: ElementId, expected: Relation| -> Result<(), String> {
        let actual = config.relation(left, right).expect("labelled elements are live");
        if actual == expected {
            Ok(())
        } else {
            Err(format!("expected {left} vs {right} to be {expected}, got {actual}"))
        }
    };
    // B and C have both seen exactly A's first update and C's update.
    expect(b, c, Relation::Equal)?;
    // A has its own second update but has not seen C's update.
    expect(a, b, Relation::Concurrent)?;
    expect(a, c, Relation::Concurrent)?;
    Ok(())
}

/// The relations of the final frontier of Figure 2/4: `c₃` and `g₁` have
/// seen every update; `d₁` has only seen the first one.
pub fn verify_figure2_relations<M: Mechanism>(mechanism: M) -> Result<(), String> {
    let scenario = figure2();
    let config = scenario.replay(mechanism);
    let d1 = scenario.element("d1");
    let g1 = scenario.element("g1");
    let c3 = scenario.element("c3");
    let expect = |left: ElementId, right: ElementId, expected: Relation| -> Result<(), String> {
        let actual = config.relation(left, right).expect("labelled elements are live");
        if actual == expected {
            Ok(())
        } else {
            Err(format!("expected {left} vs {right} to be {expected}, got {actual}"))
        }
    };
    // d1 and g1 have both seen only the first update (g1's join added no new
    // updates), so they are equivalent; c3 has seen two more.
    expect(d1, g1, Relation::Equal)?;
    expect(d1, c3, Relation::Dominated)?;
    expect(g1, c3, Relation::Dominated)?;
    Ok(())
}

/// Convenience: replays Figure 1 against the classic version-vector
/// mechanism and returns the three vectors in A, B, C order (used by the
/// `figure1` regeneration binary to print the same columns as the paper).
#[must_use]
pub fn figure1_version_vectors() -> Vec<(String, String)> {
    let scenario = figure1();
    let config = scenario.replay(FixedVersionVectorMechanism::new());
    ["A", "B", "C"]
        .iter()
        .map(|label| {
            let id = scenario.element(label);
            let element = config.get(id).expect("labelled element");
            ((*label).to_owned(), element.vector.to_string())
        })
        .collect()
}

/// Convenience: the final causal histories of Figure 2, labelled.
#[must_use]
pub fn figure2_causal_histories() -> Vec<(String, String)> {
    let scenario = figure2();
    let config = scenario.replay(CausalMechanism::new());
    ["d1", "g1", "c3"]
        .iter()
        .map(|label| {
            let id = scenario.element(label);
            let element = config.get(id).expect("labelled element");
            ((*label).to_owned(), element.to_string())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use vstamp_baselines::DynamicVersionVectorMechanism;
    use vstamp_core::{GcStampMechanism, SetStampMechanism};
    use vstamp_itc::ItcMechanism;

    #[test]
    fn figure1_final_vectors_match_the_paper() {
        let vectors = figure1_version_vectors();
        let by_label: std::collections::BTreeMap<_, _> = vectors.into_iter().collect();
        // Final column of Figure 1: A = [2,0,0], B = C = [1,0,1].
        // Replica identifiers are allocated in creation order: A=r1? The
        // mapping of identifiers to columns is an artefact of allocation, so
        // check update totals instead of the exact labels.
        let a = &by_label["A"];
        let b = &by_label["B"];
        let c = &by_label["C"];
        assert_eq!(b, c, "B and C end with identical vectors");
        assert!(a.contains(":2"), "A has two updates of its own, got {a}");
        assert!(b.matches(":1").count() == 2, "B has seen two distinct updates, got {b}");
    }

    #[test]
    fn figure1_relations_hold_for_every_mechanism() {
        verify_figure1_relations(VersionStampMechanism::reducing()).unwrap();
        verify_figure1_relations(VersionStampMechanism::non_reducing()).unwrap();
        verify_figure1_relations(GcStampMechanism::new()).unwrap();
        verify_figure1_relations(SetStampMechanism::reducing()).unwrap();
        verify_figure1_relations(FixedVersionVectorMechanism::new()).unwrap();
        verify_figure1_relations(DynamicVersionVectorMechanism::new()).unwrap();
        verify_figure1_relations(CausalMechanism::new()).unwrap();
        verify_figure1_relations(ItcMechanism::new()).unwrap();
    }

    #[test]
    fn figure2_relations_hold_for_every_mechanism() {
        verify_figure2_relations(VersionStampMechanism::reducing()).unwrap();
        verify_figure2_relations(VersionStampMechanism::non_reducing()).unwrap();
        verify_figure2_relations(GcStampMechanism::new()).unwrap();
        verify_figure2_relations(SetStampMechanism::reducing()).unwrap();
        verify_figure2_relations(FixedVersionVectorMechanism::new()).unwrap();
        verify_figure2_relations(CausalMechanism::new()).unwrap();
        verify_figure2_relations(ItcMechanism::new()).unwrap();
    }

    #[test]
    fn figure2_causal_histories_have_expected_sizes() {
        let histories = figure2_causal_histories();
        let by_label: std::collections::BTreeMap<_, _> = histories.into_iter().collect();
        // d1 and g1 know only the first update; c3 knows all three.
        assert_eq!(by_label["d1"].matches('e').count(), 1);
        assert_eq!(by_label["g1"].matches('e').count(), 1);
        assert_eq!(by_label["c3"].matches('e').count(), 3);
    }

    #[test]
    fn figure3_and_figure4_share_traces_with_their_sources() {
        assert_eq!(figure3().trace, figure1().trace);
        assert_eq!(figure4().trace, figure2().trace);
        assert_eq!(figure3().name, "Figure 3");
        assert_eq!(figure4().name, "Figure 4");
    }

    #[test]
    fn figure4_walkthrough_records_every_frontier() {
        let scenario = figure4();
        let steps = stamp_walkthrough(&scenario);
        assert_eq!(steps.len(), scenario.trace.len() + 1);
        assert!(steps[0].operation.is_none());
        assert_eq!(steps[0].frontier.len(), 1);
        let last = steps.last().expect("non-empty walkthrough");
        assert!(matches!(last.operation, Some(Operation::Join(_, _))));
        for (_, stamp) in &last.frontier {
            assert!(stamp.is_reduced());
            stamp.validate().expect("reachable stamps are valid");
        }
        // The frontier of Figure 2's final configuration has three elements.
        assert_eq!(last.frontier.len(), 3);
    }

    #[test]
    fn joining_the_figure4_frontier_back_triggers_the_rewriting_rule() {
        // Continue the Figure 4 run: joining the whole frontier back into a
        // single element exercises the simplification of Section 6 and
        // recovers the seed identity {ε}.
        let scenario = figure4();
        let mut config = scenario.replay(VersionStampMechanism::reducing());
        let mut non_reducing = scenario.replay(VersionStampMechanism::non_reducing());
        while config.len() > 1 {
            let ids = config.ids();
            config.apply(Operation::Join(ids[0], ids[1])).unwrap();
            non_reducing.apply(Operation::Join(ids[0], ids[1])).unwrap();
        }
        let only = config.ids()[0];
        let reduced = config.get(only).unwrap();
        let plain = non_reducing.get(only).unwrap();
        assert!(reduced.is_seed_identity());
        assert!(!plain.is_seed_identity(), "non-reducing join keeps the split identity {plain}");
        assert!(reduced.bit_size() < plain.bit_size());
    }

    #[test]
    fn scenario_label_lookup() {
        let scenario = figure1();
        assert_eq!(scenario.labels.len(), 3);
        let a = scenario.element("A");
        assert!(scenario.replay(VersionStampMechanism::reducing()).contains(a));
    }

    #[test]
    #[should_panic(expected = "unknown scenario label")]
    fn unknown_label_panics() {
        let _ = figure1().element("Z");
    }
}
