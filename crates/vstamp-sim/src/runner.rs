//! Parallel experiment runner: measures several mechanisms over the same
//! trace, one thread per mechanism.
//!
//! `vstamp-bench`'s `space_growth` bin uses this to print the comparison
//! tables of experiments E7/E9/E10; results are deterministic because each
//! mechanism replays the identical trace regardless of scheduling.

use vstamp_baselines::{
    DottedMechanism, DynamicVersionVectorMechanism, FixedVersionVectorMechanism,
    RandomIdCausalMechanism, VectorClockMechanism,
};
use vstamp_core::causal::CausalMechanism;
use vstamp_core::{GcStampMechanism, SetStampMechanism, Trace, VersionStampMechanism};
use vstamp_itc::ItcMechanism;

use crate::metrics::{measure_space, ComparisonTable, SpaceReport};

/// The set of mechanisms a comparison run measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MechanismSet {
    /// Version stamps only (reducing and non-reducing) — the E9 ablation.
    StampsOnly,
    /// The two name representations (set specification / packed tags),
    /// both reducing.
    Representations,
    /// Version stamps (eager, non-reducing and GC), every baseline, and ITC —
    /// the full E7/E10 table.
    All,
    /// [`MechanismSet::All`] without the non-reducing stamps, for long
    /// traces the non-reducing mechanism cannot replay (its identities
    /// grow exponentially with sync cycles).
    AllReducing,
}

/// One measurement: a mechanism replaying the shared trace.
type Job = fn(&Trace) -> SpaceReport;

fn measurement_jobs(set: MechanismSet) -> Vec<Job> {
    let mut jobs: Vec<Job> = Vec::new();
    jobs.push(|t| measure_space(VersionStampMechanism::reducing(), t));
    match set {
        MechanismSet::StampsOnly => {
            jobs.push(|t| measure_space(VersionStampMechanism::non_reducing(), t));
        }
        MechanismSet::Representations => {
            jobs.push(|t| measure_space(SetStampMechanism::reducing(), t));
        }
        MechanismSet::All | MechanismSet::AllReducing => {
            if set == MechanismSet::All {
                jobs.push(|t| measure_space(VersionStampMechanism::non_reducing(), t));
            }
            let rest: [Job; 8] = [
                |t| measure_space(GcStampMechanism::new(), t),
                |t| measure_space(FixedVersionVectorMechanism::new(), t),
                |t| measure_space(DynamicVersionVectorMechanism::new(), t),
                |t| measure_space(VectorClockMechanism::new(), t),
                |t| measure_space(DottedMechanism::new(), t),
                |t| measure_space(CausalMechanism::new(), t),
                |t| measure_space(RandomIdCausalMechanism::with_seed(0), t),
                |t| measure_space(ItcMechanism::new(), t),
            ];
            jobs.extend(rest);
        }
    }
    jobs
}

/// Measures the space behaviour of the selected mechanisms over `trace`,
/// running one worker thread per mechanism.
#[must_use]
pub fn compare_mechanisms(set: MechanismSet, trace: &Trace) -> ComparisonTable {
    let mut table = ComparisonTable::new();
    std::thread::scope(|scope| {
        let workers: Vec<_> =
            measurement_jobs(set).into_iter().map(|job| scope.spawn(move || job(trace))).collect();
        for worker in workers {
            table.push(worker.join().expect("measurement workers do not panic"));
        }
    });
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{generate, generate_partition_heal, OperationMix, WorkloadSpec};
    use vstamp_core::{FrontierGc, Name};

    // Trace sizes here are deliberately modest: the non-reducing mechanism's
    // identities grow exponentially with the number of sync (join + fork)
    // cycles, so longer traces make its replay infeasible (see ROADMAP).

    #[test]
    fn stamps_only_comparison_has_two_rows() {
        let trace = generate(&WorkloadSpec::new(60, 5, 4).with_mix(OperationMix::update_heavy()));
        let table = compare_mechanisms(MechanismSet::StampsOnly, &trace);
        assert_eq!(table.rows().len(), 2);
        assert!(table.row("version-stamps").is_some());
        assert!(table.row("version-stamps-nonreducing").is_some());
    }

    #[test]
    fn representation_comparison_agrees_on_sizes() {
        let trace = generate(&WorkloadSpec::new(150, 8, 6).with_mix(OperationMix::churn_heavy()));
        let table = compare_mechanisms(MechanismSet::Representations, &trace);
        assert_eq!(table.rows().len(), 2);
        let packed = table.row("version-stamps").expect("packed (default) row");
        let set = table.row("version-stamps-set").expect("set row");
        // Both representations encode the same names, so every space
        // statistic must agree bit-for-bit.
        assert_eq!(packed.mean_element_bits, set.mean_element_bits);
        assert_eq!(packed.max_element_bits, set.max_element_bits);
        assert_eq!(packed.final_frontier_bits, set.final_frontier_bits);
    }

    #[test]
    fn policy_comparison_keeps_gc_at_or_below_eager() {
        let trace = generate(&WorkloadSpec::new(120, 6, 6).with_mix(OperationMix::churn_heavy()));
        let table = compare_mechanisms(MechanismSet::AllReducing, &trace);
        assert_eq!(table.rows().len(), 9);
        let eager = table.row("version-stamps").expect("eager row");
        let gc = table.row("version-stamps-gc").expect("gc row");
        assert!(gc.max_element_bits <= eager.max_element_bits);
        assert!(gc.final_frontier_bits <= eager.final_frontier_bits);
    }

    #[test]
    fn full_comparison_covers_every_mechanism_and_is_deterministic() {
        let trace = generate(&WorkloadSpec::new(80, 6, 6).with_mix(OperationMix::update_heavy()));
        let table = compare_mechanisms(MechanismSet::All, &trace);
        assert_eq!(table.rows().len(), 10);
        for name in [
            "version-stamps",
            "version-stamps-nonreducing",
            "version-stamps-gc",
            "version-vectors",
            "dynamic-version-vectors",
            "vector-clocks",
            "dotted-version-vectors",
            "causal-histories",
            "random-id-causal-histories",
            "interval-tree-clocks",
        ] {
            assert!(table.row(name).is_some(), "missing row for {name}");
        }
        // deterministic: a second run produces identical numbers
        let again = compare_mechanisms(MechanismSet::All, &trace);
        for (a, b) in table.rows().iter().zip(again.rows()) {
            assert_eq!(a, b);
        }
    }

    /// One stamp row's space figures, exactly: mean element bits (as the
    /// `f64`'s bit pattern), max element bits, final frontier bits and max
    /// frontier width.
    type Figures = (u64, usize, usize, usize);

    fn figures(report: &SpaceReport) -> Figures {
        (
            report.mean_element_bits.to_bits(),
            report.max_element_bits,
            report.final_frontier_bits,
            report.max_frontier,
        )
    }

    #[test]
    fn stamp_rows_match_their_golden_figures() {
        // Golden figures of the packed rows, which the set representation
        // must repeat bit for bit. On the update-heavy trace the GC finds
        // nothing to collapse and repeats the eager row; the partition/heal
        // trace fragments identities, and there it does collapse.
        const EAGER: Figures = (0x4046_0d73_03b5_cc0f, 169, 646, 5);
        const NON_REDUCING: Figures = (0x4067_0f6b_981d_ae60, 688, 2644, 5);
        const HEAL_EAGER: Figures = (0x4060_23cb_7cb7_cb7d, 688, 2794, 6);
        const HEAL_GC: Figures = (0x404a_b9d8_9d89_d89e, 262, 1107, 6);

        let trace = generate(&WorkloadSpec::new(80, 6, 6).with_mix(OperationMix::update_heavy()));
        let table = compare_mechanisms(MechanismSet::All, &trace);
        let heal = generate_partition_heal(2, 3, 3, 12, 6);
        let healed = compare_mechanisms(MechanismSet::AllReducing, &heal);
        let row = |table: &ComparisonTable, name: &str| {
            figures(table.row(name).unwrap_or_else(|| panic!("missing row for {name}")))
        };
        assert_eq!(row(&table, "version-stamps"), EAGER);
        assert_eq!(row(&table, "version-stamps-nonreducing"), NON_REDUCING);
        assert_eq!(row(&table, "version-stamps-gc"), EAGER);
        assert_eq!(row(&healed, "version-stamps"), HEAL_EAGER);
        assert_eq!(row(&healed, "version-stamps-gc"), HEAL_GC);

        let set_gc = FrontierGc::<Name>::new;
        assert_eq!(figures(&measure_space(SetStampMechanism::reducing(), &trace)), EAGER);
        assert_eq!(
            figures(&measure_space(SetStampMechanism::non_reducing(), &trace)),
            NON_REDUCING
        );
        assert_eq!(figures(&measure_space(set_gc(), &trace)), EAGER);
        assert_eq!(figures(&measure_space(SetStampMechanism::reducing(), &heal)), HEAL_EAGER);
        assert_eq!(figures(&measure_space(set_gc(), &heal)), HEAL_GC);
    }
}
