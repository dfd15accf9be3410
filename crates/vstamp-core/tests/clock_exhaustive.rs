//! Exhaustive small-scope check of the clock algebra the store runs on:
//! [`PackedName::mint_dot`] spends dots, [`PackedName::cover_join`] builds
//! clocks and [`PackedName::cover_relation`] orders them.
//!
//! Every trace up to a bound is enumerated, not sampled. A trace is a
//! sequence of writes, element forks and element joins over at most three
//! elements. A write picks an element and a context: none, an earlier
//! clock, or the join of two earlier clocks. Its clock is `context ⊔ dot`,
//! and the write ids it covers are the context's plus its own. After
//! every write, each pair of clocks — and the k-way join of all of them —
//! must classify exactly as their sets of write ids do, equal sets must
//! give equal bytes, and every dot must be disjoint from every other dot
//! and from every live element (I2).

use vstamp_core::{Bit, PackedName, Relation};

/// A bound on the enumeration.
#[derive(Clone, Copy)]
struct Bound {
    writes: usize,
    /// Element forks plus element joins.
    reshapes: usize,
    /// No element may be deeper than this (traces that go deeper stop).
    depth: usize,
}

#[derive(Clone, Default)]
struct State {
    elements: Vec<PackedName>,
    /// Every write's clock and the write ids it covers (a bit per write).
    clocks: Vec<(PackedName, u32)>,
    dots: Vec<PackedName>,
    reshapes: usize,
}

fn set_relation(a: u32, b: u32) -> Relation {
    Relation::from_leq(a & !b == 0, b & !a == 0)
}

fn disjoint(a: &PackedName, b: &PackedName) -> bool {
    let theirs = b.strings();
    a.strings().iter().all(|s| theirs.iter().all(|t| s.is_incomparable_with(t)))
}

/// Checks `clock` (covering `ids`) against every clock of `others`.
fn check_against(clock: &PackedName, ids: u32, others: &[(PackedName, u32)], trace: &[String]) {
    assert!(clock.is_cover_canonical(), "{clock} is not canonical after {trace:?}");
    for (other, other_ids) in others {
        assert_eq!(
            clock.cover_relation(other),
            set_relation(ids, *other_ids),
            "{clock} ({ids:b}) vs {other} ({other_ids:b}) after {trace:?}"
        );
        assert_eq!(clock.cover_leq(other), ids & !other_ids == 0);
        assert_eq!(ids == *other_ids, clock == other, "{clock} vs {other} after {trace:?}");
    }
}

/// Depth-first enumeration from `state`; returns the number of states.
fn explore(state: &State, bound: Bound, trace: &mut Vec<String>) -> u64 {
    let mut visited = 1;
    let mut step = |next: State, label: String, trace: &mut Vec<String>| {
        if next.elements.iter().any(|e| e.depth() > bound.depth) {
            return;
        }
        trace.push(label);
        visited += explore(&next, bound, trace);
        trace.pop();
    };
    if state.clocks.len() < bound.writes {
        // Contexts: none, each clock, and each join of two clocks.
        let mut contexts: Vec<(PackedName, u32)> = vec![(PackedName::empty(), 0)];
        for (i, (a, a_ids)) in state.clocks.iter().enumerate() {
            contexts.push((a.clone(), *a_ids));
            for (b, b_ids) in &state.clocks[i + 1..] {
                let joined = a.cover_join(b);
                check_against(&joined, a_ids | b_ids, &state.clocks, trace);
                contexts.push((joined, a_ids | b_ids));
            }
        }
        contexts.sort_by_key(|(_, ids)| *ids);
        contexts.dedup_by_key(|(_, ids)| *ids);
        for at in 0..state.elements.len() {
            let (kept, dot) = state.elements[at].mint_dot();
            let id = 1u32 << state.clocks.len();
            for (context, context_ids) in &contexts {
                let mut next = state.clone();
                next.elements[at] = kept.clone();
                let clock = context.cover_join(&dot);
                assert_eq!(clock, PackedName::cover_join_many([context, &dot]));
                check_against(&clock, context_ids | id, &state.clocks, trace);
                assert!(next.dots.iter().all(|d| disjoint(d, &dot)), "dot {dot} reused {trace:?}");
                assert!(next.elements.iter().all(|e| disjoint(e, &dot)), "dot {dot} is live");
                next.dots.push(dot.clone());
                next.clocks.push((clock, context_ids | id));
                // A sibling set's context: the k-way join of every clock.
                let all = PackedName::cover_join_many(next.clocks.iter().map(|(clock, _)| clock));
                let all_ids = next.clocks.iter().fold(0, |ids, (_, clock_ids)| ids | clock_ids);
                check_against(&all, all_ids, &next.clocks, trace);
                step(next, format!("write e{at} ctx {context_ids:b}"), trace);
            }
        }
    }
    if state.reshapes < bound.reshapes {
        if state.elements.len() < 3 {
            for at in 0..state.elements.len() {
                let mut next = state.clone();
                next.reshapes += 1;
                let element = next.elements[at].clone();
                next.elements[at] = element.append(Bit::Zero);
                next.elements.push(element.append(Bit::One));
                step(next, format!("fork e{at}"), trace);
            }
        }
        for a in 0..state.elements.len() {
            for b in a + 1..state.elements.len() {
                let mut next = state.clone();
                next.reshapes += 1;
                let other = next.elements.remove(b);
                next.elements[a] = next.elements[a].join(&other);
                step(next, format!("join e{a} e{b}"), trace);
            }
        }
    }
    visited
}

fn run(bound: Bound) -> u64 {
    let seed = State { elements: vec![PackedName::epsilon()], ..State::default() };
    let visited = explore(&seed, bound, &mut Vec::new());
    println!(
        "{} writes, {} reshapes, depth {}: {visited} states, no counterexample",
        bound.writes, bound.reshapes, bound.depth
    );
    visited
}

#[test]
fn every_small_trace_classifies_clocks_like_write_id_sets() {
    let visited = run(Bound { writes: 4, reshapes: 2, depth: 7 });
    assert!(visited > 10_000, "the bound explores {visited} states");
}

/// The larger bound, for release builds (CI runs it).
#[test]
#[ignore = "release-only: the larger exhaustive bound"]
fn every_trace_at_the_larger_bound_classifies_clocks_like_write_id_sets() {
    run(Bound { writes: 5, reshapes: 3, depth: 8 });
}
