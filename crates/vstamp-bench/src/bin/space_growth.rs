//! Experiment E7 — stamp size versus version-vector size under dynamic
//! replica populations: churn, partition/heal and fixed-population
//! workloads, swept over the target replica count.

use vstamp_bench::{header, seed_from_args, smoke_mode};
use vstamp_sim::runner::{compare_mechanisms, MechanismSet};
use vstamp_sim::workload::{generate, generate_partition_heal, OperationMix, WorkloadSpec};

fn main() {
    let seed = seed_from_args();
    let smoke = smoke_mode();
    println!("seed = {seed}{}", if smoke { " (smoke grid)" } else { "" });

    // The sweeps use `AllReducing`: the non-reducing stamps cannot replay
    // traces of this length (their identities grow exponentially with sync
    // cycles — the `simplification` binary quantifies that on short traces).
    // Paper-scale grids, restored: the wider replica bounds and the larger
    // partition/heal islands had been cut while eager reduction was the
    // only policy; the frontier-GC row (also in `AllReducing`) now keeps
    // the fragmented regimes replayable, and the eager row rides along on
    // the same traces for the before/after comparison.
    header("E7a — churn-heavy workload, sweeping the replica bound");
    let churn_bounds: &[usize] = if smoke { &[4] } else { &[2, 4, 8, 16] };
    for &max_replicas in churn_bounds {
        let ops = if smoke { 120 } else { 800 };
        let spec = WorkloadSpec::new(ops, max_replicas, seed).with_mix(OperationMix::churn_heavy());
        let trace = generate(&spec);
        println!("\n-- max replicas = {max_replicas} ({} operations) --", trace.len());
        print!("{}", compare_mechanisms(MechanismSet::AllReducing, &trace));
    }

    header("E7b — update-heavy workload (mostly disconnected editing)");
    let update_bounds: &[usize] = if smoke { &[16] } else { &[4, 16, 64] };
    for &max_replicas in update_bounds {
        let ops = if smoke { 120 } else { 800 };
        let spec =
            WorkloadSpec::new(ops, max_replicas, seed).with_mix(OperationMix::update_heavy());
        let trace = generate(&spec);
        println!("\n-- max replicas = {max_replicas} --");
        print!("{}", compare_mechanisms(MechanismSet::AllReducing, &trace));
    }

    header("E7c — partition / heal workload (islands synchronizing internally)");
    let islands_grid: &[(usize, usize, usize)] =
        if smoke { &[(2, 3, 12)] } else { &[(2, 4, 30), (4, 4, 30), (5, 4, 50), (4, 4, 70)] };
    for &(islands, per_island, updates) in islands_grid {
        let trace = generate_partition_heal(islands, per_island, 3, updates, seed);
        println!("\n-- {islands} islands x {per_island} replicas ({} operations) --", trace.len());
        print!("{}", compare_mechanisms(MechanismSet::AllReducing, &trace));
    }

    println!("\nRESULT: version-stamp identities adapt to the live frontier, so their size tracks");
    println!("the frontier width; per-incarnation mechanisms (dynamic version vectors, random-id");
    println!("causal sets) grow with the total number of operations ever performed.");
}
