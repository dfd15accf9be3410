//! Experiment E3 — regenerates Figure 3: encoding a fixed number of replicas
//! under fork-and-join dynamics. The same trace is replayed against the
//! classic version-vector mechanism and against version stamps, and every
//! intermediate pairwise relation is compared.

use vstamp_baselines::FixedVersionVectorMechanism;
use vstamp_bench::header;
use vstamp_core::VersionStampMechanism;
use vstamp_sim::oracle::check_against_oracle;
use vstamp_sim::scenario::figure3;
use vstamp_sim::workload::generate_fixed_population;

fn main() {
    header("Figure 3 — fixed replicas encoded under fork-and-join dynamics");
    let scenario = figure3();
    println!("figure trace: {} operations", scenario.trace.len());

    let vv = check_against_oracle(FixedVersionVectorMechanism::new(), &scenario.trace);
    let stamps = check_against_oracle(VersionStampMechanism::reducing(), &scenario.trace);
    println!(
        "  version vectors vs causal histories: {}/{} comparisons agree",
        vv.comparisons - vv.disagreements.len(),
        vv.comparisons
    );
    println!(
        "  version stamps  vs causal histories: {}/{} comparisons agree",
        stamps.comparisons - stamps.disagreements.len(),
        stamps.comparisons
    );

    header("generalization: N fixed replicas, repeated update+sync rounds");
    for replicas in [2usize, 3, 5, 8] {
        let trace = generate_fixed_population(replicas, 30, vstamp_bench::DEFAULT_SEED);
        let vv = check_against_oracle(FixedVersionVectorMechanism::new(), &trace);
        let stamps = check_against_oracle(VersionStampMechanism::reducing(), &trace);
        println!(
            "  {replicas} replicas: version vectors exact = {}, version stamps exact = {} ({} comparisons)",
            vv.is_exact(),
            stamps.is_exact(),
            stamps.comparisons
        );
    }
    println!(
        "\nRESULT: fork-and-join dynamics encode the fixed setting without losing any ordering."
    );
}
