//! Experiment E9 — effectiveness of the simplification rule of Section 6:
//! non-reducing versus eager reduction versus frontier-GC across workload
//! mixes.

use vstamp_bench::{header, seed_from_args, NON_REDUCING_OPS};
use vstamp_core::{GcStampMechanism, VersionStampMechanism};
use vstamp_sim::metrics::measure_space;
use vstamp_sim::workload::{generate, OperationMix, WorkloadSpec};

fn main() {
    let seed = seed_from_args();
    println!("seed = {seed}");
    header("E9 — non-reducing vs eager reduction vs frontier-GC");
    println!(
        "{:<16} {:>14} {:>16} {:>20} {:>14} {:>10}",
        "workload", "max replicas", "eager mean bits", "non-reducing bits", "gc mean bits", "ratio"
    );
    let mixes = [
        ("balanced", OperationMix::balanced()),
        ("update-heavy", OperationMix::update_heavy()),
        ("churn-heavy", OperationMix::churn_heavy()),
        ("sync-heavy", OperationMix::sync_heavy()),
    ];
    // Short traces by necessity: the non-reducing side grows its identities
    // exponentially with sync cycles (the point this experiment
    // quantifies). The per-mix lengths scale with the non-reducing cap.
    let base = NON_REDUCING_OPS;
    for (name, mix) in mixes {
        for max_replicas in [4usize, 8] {
            let ops = match name {
                "update-heavy" => base * 5 / 2,
                "balanced" => base,
                _ => base * 2 / 3,
            };
            let trace = generate(&WorkloadSpec::new(ops, max_replicas, seed).with_mix(mix));
            let reducing = measure_space(VersionStampMechanism::reducing(), &trace);
            let plain = measure_space(VersionStampMechanism::non_reducing(), &trace);
            let gc = measure_space(GcStampMechanism::new(), &trace);
            let ratio = if reducing.mean_element_bits > 0.0 {
                plain.mean_element_bits / reducing.mean_element_bits
            } else {
                1.0
            };
            println!(
                "{name:<16} {max_replicas:>14} {:>16.1} {:>20.1} {:>14.1} {ratio:>9.2}x",
                reducing.mean_element_bits, plain.mean_element_bits, gc.mean_element_bits
            );
        }
    }
    println!("\nRESULT: the rewriting rule keeps stamps bounded by the live frontier; without it,");
    println!("identities accumulate one string per fork ever performed (sync-heavy shows the largest gap).");
    println!(
        "The frontier-GC policy tightens the bound further by collapsing fragmented identities."
    );
}
