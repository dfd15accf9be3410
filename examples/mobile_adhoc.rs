//! Mobile ad-hoc scenario: replica creation under partitions, island
//! synchronization and healing — the deployment the paper motivates.
//!
//! Run with `cargo run --example mobile_adhoc`.
//!
//! A fleet of mobile nodes is split into isolated islands. Within an island
//! nodes can synchronize opportunistically; islands cannot talk to each
//! other until they heal. Replicas are created (forked) inside islands at
//! will — something version vectors cannot support without a global naming
//! service. At the end the islands merge and every node converges.

use vstamp::sim::workload::generate_partition_heal;
use vstamp::sim::{check_against_oracle, compare_mechanisms, MechanismSet};
use vstamp::{Configuration, Operation, Relation};
use vstamp_core::VersionStampMechanism;

fn main() {
    let seed = 20020310;
    // 3 islands x 3 replicas, 3 epochs of local activity, healing between
    // epochs. Longer partition/heal runs fragment stamp identities beyond
    // practicality — the very scaling wall tracked in ROADMAP "Open items".
    let trace = generate_partition_heal(3, 3, 3, 24, seed);
    println!("generated partition/heal trace: {} operations (seed {seed})", trace.len());

    // 1. Correctness: version stamps agree with the causal-history oracle on
    //    every intermediate comparison, despite the partitions.
    let report = check_against_oracle(VersionStampMechanism::reducing(), &trace);
    println!(
        "oracle agreement: {}/{} pairwise comparisons exact",
        report.comparisons - report.disagreements.len(),
        report.comparisons
    );
    assert!(report.is_exact());

    // 2. Space: how large do the stamps get, compared with the baselines
    //    that need global identifiers?
    println!("\nper-mechanism space over the same trace:");
    print!("{}", compare_mechanisms(MechanismSet::All, &trace));

    // 3. Convergence: merge whatever replicas remain and show the final
    //    frontier collapses to a single, seed-identity element.
    let mut config = Configuration::new(VersionStampMechanism::reducing());
    config.apply_trace(&trace).expect("trace replays");
    println!("\nfinal frontier width before healing everything: {}", config.len());
    while config.len() > 1 {
        let ids = config.ids();
        config.apply(Operation::Join(ids[0], ids[1])).expect("join live replicas");
    }
    let last = config.ids()[0];
    let stamp = config.get(last).expect("one element left");
    println!("after merging every replica: {stamp}");
    assert!(stamp.is_seed_identity());
    assert_eq!(config.relation(last, last).expect("live"), Relation::Equal);
    println!("\nall replicas converged; identities collapsed back to {{ε}}.");
}
