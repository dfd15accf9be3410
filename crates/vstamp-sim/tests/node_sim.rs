//! The harness scenario (`vstamp_sim::driver::harness`) on `NodeCore`s:
//! the fault plan, workload and gates `cluster_harness` runs on node
//! processes, with no sockets, threads or sleeps, and on fault seeds the
//! driver's link faults too, from the workload's start through the verify
//! phase. Every key is first-touched at two cores at once — the four at
//! setup, and a fresh one every 500 ms until a crash. A seed replays bit
//! for bit.
//!
//! `cargo test -p vstamp-sim --test node_sim` runs 100 fault seeds and 100
//! control seeds; `cargo test --release -p vstamp-sim --test node_sim --
//! --ignored` runs 500 of each.

use vstamp_sim::driver::{harness, node_addr, node_config, Dial, Outcome};
use vstamp_sim::nemesis::{fault_plan, FaultAction};
use vstamp_store::NodeCore;

/// One run of the harness scenario on `NodeCore`s.
fn run(seed: u64, timeline: &[(u64, FaultAction)], faulty: bool) -> Outcome {
    let spawn = |index, config, dial: &mut Dial<'_>| {
        if index == 0 {
            return NodeCore::bootstrap(config, node_addr(0));
        }
        NodeCore::join(config, node_addr(index), &node_addr(0), |_, request| dial(0, request))
            .expect("the bootstrap core sponsors every join")
    };
    harness(seed, timeline, faulty, spawn, NodeCore::status)
}

/// Runs every seed under its `fault_plan` (`faulty`) or none.
fn sweep(seeds: std::ops::Range<u64>, faulty: bool) {
    let failed: Vec<String> = seeds
        .flat_map(|seed| {
            let timeline = if faulty { fault_plan(seed, 3) } else { Vec::new() };
            run(seed, &timeline, faulty)
                .failures
                .into_iter()
                .map(move |failure| format!("seed {seed}: {failure}"))
        })
        .collect();
    assert!(failed.is_empty(), "{failed:#?}");
}

#[test]
fn fault_seeds_pass_every_harness_gate() {
    sweep(0..100, true);
}

#[test]
fn control_seeds_never_suspect_anyone() {
    sweep(0..100, false);
}

/// A partitioned core keeps dialing out, and each frame it sends is its
/// heartbeat, so a directed partition four grace periods long evicts no
/// one — pulls alone would never hear from the partitioned core.
#[test]
fn a_directed_partition_past_the_grace_evicts_no_one() {
    let grace = node_config(0).eviction_grace.as_millis() as u64;
    for seed in 0..8 {
        let victim = 1 + seed as usize % 2;
        let timeline =
            [(200, FaultAction::Block(victim)), (200 + 4 * grace, FaultAction::Unblock(victim))];
        let failures = run(seed, &timeline, true).failures;
        assert!(failures.is_empty(), "seed {seed}: {failures:?}");
    }
}

#[test]
fn a_seed_replays_to_equal_statuses() {
    let timeline = fault_plan(7, 3);
    let first = run(7, &timeline, true);
    assert!(first.failures.is_empty(), "{:?}", first.failures);
    assert_eq!(first.statuses.len(), 3, "the killed core is gone, its replacement live");
    assert_eq!(first.statuses, run(7, &timeline, true).statuses);
}

#[test]
#[ignore = "release sweep: cargo test --release -p vstamp-sim --test node_sim -- --ignored"]
fn sweep_500_fault_and_500_control_seeds() {
    sweep(0..500, true);
    sweep(0..500, false);
}
