//! Property tests for the stamp lifecycles: over random fork/join/update
//! traces, **every** stamp mechanism — eager (Section 6), non-reducing
//! (Section 4) and frontier-evidence GC — yields stamps whose pairwise
//! `relation()` classifications are identical to the causal-history oracle
//! and to each other, after every single operation; and the GC'd frontiers
//! still satisfy the invariants I1–I3.
//!
//! This is the executable form of the soundness argument in the
//! [`gc`](vstamp_core::gc) module docs, and the acceptance gate for
//! replacing eager reduction by the GC mechanism in the space experiments.

use proptest::prelude::*;
use vstamp_core::causal::CausalMechanism;
use vstamp_core::{
    audit_configuration, Configuration, GcStampMechanism, Mechanism, NameLike, Operation, Stamp,
    Trace, VersionStampMechanism,
};

/// A raw "script" of choices interpreted against the evolving frontier, so
/// every generated operation is applicable by construction.
type Script = Vec<(u8, u8, u8)>;

fn script(max_len: usize) -> impl Strategy<Value = Script> {
    prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 0..=max_len)
}

/// Turns the script into a concrete trace by interpreting it against a
/// throw-away configuration of the default mechanism.
fn concretize(script: &Script) -> Trace {
    let mut config = Configuration::new(VersionStampMechanism::reducing());
    let mut trace = Trace::new();
    for &(kind, x, y) in script {
        let ids = config.ids();
        let pick = |sel: u8| ids[sel as usize % ids.len()];
        let op = match kind % 3 {
            0 => Operation::Update(pick(x)),
            1 => Operation::Fork(pick(x)),
            _ if ids.len() >= 2 => {
                let a = pick(x);
                let b = pick(y);
                if a == b {
                    Operation::Join(a, *ids.iter().find(|&&i| i != a).expect("len >= 2"))
                } else {
                    Operation::Join(a, b)
                }
            }
            _ => Operation::Fork(pick(x)),
        };
        config.apply(op).expect("scripted operation applies");
        trace.push(op);
    }
    trace
}

/// Replays `trace` against a stamp mechanism and the causal oracle in
/// lockstep, asserting after **every** operation that all pairwise
/// relations agree. Returns the final configuration.
fn assert_oracle_lockstep<N, M>(mechanism: M, trace: &Trace) -> Configuration<M>
where
    N: NameLike,
    M: Mechanism<Element = Stamp<N>>,
{
    let mut subject = Configuration::new(mechanism);
    let mut oracle = Configuration::new(CausalMechanism::new());
    for op in trace {
        subject.apply(*op).expect("trace replays against the subject");
        oracle.apply(*op).expect("trace replays against the oracle");
        assert_eq!(subject.ids(), oracle.ids());
        for (a, b, expected) in oracle.pairwise_relations() {
            let actual = subject.relation(a, b).expect("same ids");
            assert_eq!(
                actual,
                expected,
                "mechanism {} disagrees with the oracle on ({a}, {b}) after {op}",
                subject.mechanism().mechanism_name()
            );
        }
    }
    subject
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The frontier-GC mechanism classifies exactly like the causal oracle
    /// after every operation, and its frontiers satisfy I1–I3 throughout.
    #[test]
    fn frontier_gc_matches_oracle_and_invariants(script in script(45)) {
        let trace = concretize(&script);
        let mut subject = Configuration::new(GcStampMechanism::new());
        let mut oracle = Configuration::new(CausalMechanism::new());
        for op in &trace {
            subject.apply(*op).expect("replays");
            oracle.apply(*op).expect("replays");
            for (a, b, expected) in oracle.pairwise_relations() {
                prop_assert_eq!(subject.relation(a, b).expect("same ids"), expected,
                    "GC mechanism disagrees with the oracle on ({}, {}) after {}", a, b, op);
            }
            let report = audit_configuration(&subject);
            prop_assert!(report.is_ok(), "invariant violation after {}: {}", op, report);
        }
        prop_assert!(!subject.mechanism().is_degraded(),
            "configuration-driven lifecycles must keep the mirror exact");
    }

    /// The eager and non-reducing mechanisms classify exactly like the
    /// oracle (Corollary 5.2 and its Section-6 extension), on the packed
    /// default.
    #[test]
    fn eager_and_none_match_oracle(script in script(35)) {
        let trace = concretize(&script);
        assert_oracle_lockstep(VersionStampMechanism::reducing(), &trace);
        assert_oracle_lockstep(VersionStampMechanism::non_reducing(), &trace);
    }

    /// All stamp mechanisms agree with each other on every frontier of the
    /// trace (they all induce the same classification, so pairwise agreement
    /// follows from oracle agreement — this checks it directly, including
    /// on frontiers where the oracle comparison might be coarse).
    #[test]
    fn policies_agree_pairwise(script in script(40)) {
        let trace = concretize(&script);
        let mut eager = Configuration::new(VersionStampMechanism::reducing());
        let mut none = Configuration::new(VersionStampMechanism::non_reducing());
        let mut gc = Configuration::new(GcStampMechanism::new());
        for op in &trace {
            eager.apply(*op).expect("replays");
            none.apply(*op).expect("replays");
            gc.apply(*op).expect("replays");
            for (a, b, expected) in eager.pairwise_relations() {
                prop_assert_eq!(none.relation(a, b).expect("same ids"), expected);
                prop_assert_eq!(gc.relation(a, b).expect("same ids"), expected);
            }
        }
    }

    /// GC'd stamps are never larger than their eagerly reduced
    /// counterparts — the collapse only removes strings or replaces them by
    /// prefixes.
    #[test]
    fn gc_never_costs_space(script in script(40)) {
        let trace = concretize(&script);
        let mut eager = Configuration::new(VersionStampMechanism::reducing());
        let mut gc = Configuration::new(GcStampMechanism::new());
        for op in &trace {
            eager.apply(*op).expect("replays");
            gc.apply(*op).expect("replays");
        }
        for id in eager.ids() {
            let plain = eager.get(id).expect("listed id");
            let collapsed = gc.get(id).expect("listed id");
            prop_assert!(
                collapsed.string_count() <= plain.string_count(),
                "GC'd stamp has more strings for {}: {} vs {}",
                id, collapsed.string_count(), plain.string_count()
            );
        }
    }

    /// GC frontiers of one element always collapse to the seed stamp.
    #[test]
    fn gc_total_join_recovers_seed(script in script(30)) {
        let trace = concretize(&script);
        let mut gc = Configuration::new(GcStampMechanism::new());
        gc.apply_trace(&trace).expect("replays");
        while gc.len() > 1 {
            let ids = gc.ids();
            gc.apply(Operation::Join(ids[0], ids[1])).expect("live ids");
        }
        let only = gc.ids()[0];
        let stamp = gc.get(only).expect("single element");
        prop_assert!(stamp.is_seed_identity());
        // Stronger than eager reduction: the GC also collapses the *update*
        // of the lone element, so the whole stamp returns to the seed.
        prop_assert_eq!(stamp, &Stamp::seed());
    }
}
