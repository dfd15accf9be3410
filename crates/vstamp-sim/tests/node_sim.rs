//! A whole cluster of `NodeCore`s on the seeded driver
//! (`vstamp_sim::driver`): the socket harness's fault plan, workload and
//! gates (`cluster_harness`) with no sockets, threads or sleeps, and on
//! fault seeds the driver's link faults too, from the workload's start
//! through the verify phase. Unlike the harness, every key
//! is first-touched at two cores at once — the four at setup, and a fresh
//! one every 500 ms until a crash. A seed replays bit for bit.
//!
//! `cargo test -p vstamp-sim --test node_sim` runs 100 fault seeds and 100
//! control seeds; `cargo test --release -p vstamp-sim --test node_sim --
//! --ignored` runs 500 of each.

use std::collections::HashMap;
use std::time::Duration;

use vstamp_sim::driver::{node_addr, Driver, Event, Schedule, EPOCH_MS, GOSSIP_MS};
use vstamp_sim::nemesis::{FaultAction, FaultPlan};
use vstamp_store::{MemberStatus, NodeConfig, NodeCore, NodeStatus, PhiConfig};

/// The harness's eviction grace, and its key count.
const GRACE_MS: u64 = 1_200;
const KEYS: usize = 4;
const FRESH_MS: u64 = 500;
/// The link-fault rate of fault seeds, per mille of messages between cores.
const FAULT_PER_MILLE: u16 = 100;
/// Virtual time a run may take to settle after setup, and after the
/// last fault.
const SETTLE_MS: u64 = 30_000;
const VERIFY_MS: u64 = 60_000;

fn config(seed: u64) -> NodeConfig {
    NodeConfig {
        gossip_interval: Duration::from_millis(GOSSIP_MS),
        eviction_grace: Duration::from_millis(GRACE_MS),
        phi: PhiConfig { threshold: 8.0, ..PhiConfig::default() },
        seed,
        ..NodeConfig::default()
    }
}

fn epochs(ms: u64) -> usize {
    (ms / EPOCH_MS) as usize
}

fn statuses(driver: &Driver<NodeCore>) -> Vec<NodeStatus> {
    driver.members().map(NodeCore::status).collect()
}

/// The gates that failed on one run, and every live core's final status.
struct Outcome {
    failures: Vec<String>,
    statuses: Vec<NodeStatus>,
}

/// One harness run: a bootstrap core and two joiners, set up, run the
/// workload through `timeline` (empty for a control run), heal, and check
/// the gates; `faulty` adds the link faults, which stay on to the end.
fn run(seed: u64, timeline: &[(Duration, FaultAction)], faulty: bool) -> Outcome {
    let ms = |offset: &Duration| offset.as_millis() as u64;
    let end = timeline.last().map_or(2_500, |(last, _)| ms(last) + 1_500);
    // No fresh key once a core drains for its crash: a survivor that
    // retires and then first-touches a key lends again, which would hide
    // the shrink the retirement gate measures.
    let drain = timeline.iter().find(|(_, action)| matches!(action, FaultAction::Drain(_)));
    let mut events: Vec<_> =
        timeline.iter().map(|(at, action)| (ms(at), Event::Fault(*action))).collect();
    let fresh = (0..drain.map_or(end, |(at, _)| ms(at))).step_by(FRESH_MS as usize);
    events.extend(fresh.map(|at| (at, Event::FreshKey)));
    if faulty {
        events.push((0, Event::LinkFaults(FAULT_PER_MILLE)));
    }
    events.sort_by_key(|(at, _)| *at);
    let schedule = Schedule {
        seed,
        epochs: epochs(end),
        sessions: 1,
        timeline: events,
        ..Schedule::default()
    };
    let mut driver = Driver::new(schedule, 3, move |index, dial| {
        let config = config(seed.wrapping_add(index as u64 * 1000 + 7));
        if index == 0 {
            return NodeCore::bootstrap(config, node_addr(0));
        }
        NodeCore::join(config, node_addr(index), &node_addr(0), |_, request| dial(0, request))
            .expect("the bootstrap core sponsors every join")
    });
    for _ in 0..KEYS {
        driver.fresh_key();
    }
    let setup = |d: &Driver<NodeCore>| {
        d.converged() && statuses(d).iter().all(|status| status.active_members == 3)
    };
    assert!(driver.settle(epochs(SETTLE_MS), setup), "seed {seed}: the setup never converged");

    let mut peaks = HashMap::new();
    driver.workload(|d| {
        for status in statuses(d) {
            let peak = peaks.entry(status.addr).or_insert(0);
            *peak = status.id_bits.max(*peak);
        }
    });
    let mut failures = Vec::new();
    let dead = timeline.iter().find_map(|(_, action)| match action {
        FaultAction::Kill(index) => Some(node_addr(*index)),
        _ => None,
    });
    match dead {
        None => {
            if !driver.settle(epochs(VERIFY_MS), Driver::converged) {
                failures.push("live cores never reached one digest root".to_owned());
            }
            for status in statuses(&driver) {
                if status.evicted_members != 0 || status.retirements != 0 {
                    failures.push(format!(
                        "false suspicion at {}: {} evicted, {} retirements",
                        status.addr, status.evicted_members, status.retirements
                    ));
                }
            }
        }
        Some(dead) => {
            let evicted = |d: &Driver<NodeCore>| {
                statuses(d).iter().all(|s| {
                    s.table.entry(&dead).is_some_and(|e| e.status == MemberStatus::Evicted)
                })
            };
            let retired = |d: &Driver<NodeCore>| {
                statuses(d).iter().map(|status| status.retirements).sum::<usize>() >= 1
            };
            let shrunk = |d: &Driver<NodeCore>| {
                statuses(d).iter().any(|s| peaks.get(&s.addr).is_some_and(|&p| s.id_bits < p))
            };
            let all = |d: &Driver<NodeCore>| evicted(d) && retired(d) && shrunk(d) && d.converged();
            if !driver.settle(epochs(VERIFY_MS), all) {
                for (gate, held) in [
                    ("killed incarnation evicted on every live core", evicted(&driver)),
                    ("at least one retirement", retired(&driver)),
                    ("id bits below their peak", shrunk(&driver)),
                    ("one digest root after heal", driver.converged()),
                ] {
                    if !held {
                        failures.push(format!("{gate}: never held ({dead} killed)"));
                    }
                }
            }
        }
    }

    let verdict = driver.verdict();
    if !verdict.converged {
        failures.push("live cores read different sibling sets".to_owned());
    }
    for (count, what) in [
        (verdict.lost_updates, "lost acked writes"),
        (verdict.resurrections, "resurrections"),
        (verdict.false_concurrency, "false concurrency"),
        (verdict.own_writes_lost, "own writes lost mid-fault"),
    ] {
        if count != 0 {
            failures.push(format!("{count} {what}"));
        }
    }
    Outcome { failures, statuses: statuses(&driver) }
}

/// Runs every seed under its `FaultPlan` (`faulty`) or none.
fn sweep(seeds: std::ops::Range<u64>, faulty: bool) {
    let failed: Vec<String> = seeds
        .flat_map(|seed| {
            let timeline =
                if faulty { FaultPlan::generate(seed, 3).timeline() } else { Vec::new() };
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
    for seed in 0..8 {
        let victim = 1 + seed as usize % 2;
        let timeline = [
            (Duration::from_millis(200), FaultAction::Block(victim)),
            (Duration::from_millis(200 + 4 * GRACE_MS), FaultAction::Unblock(victim)),
        ];
        let failures = run(seed, &timeline, true).failures;
        assert!(failures.is_empty(), "seed {seed}: {failures:?}");
    }
}

#[test]
fn a_seed_replays_to_equal_statuses() {
    let timeline = FaultPlan::generate(7, 3).timeline();
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
