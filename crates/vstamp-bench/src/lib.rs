//! # vstamp-bench — figure-regeneration and report binaries
//!
//! Every artefact of the paper's presentation (Figures 1–4) and every
//! quantitative experiment added by this reproduction (E5–E10, listed in
//! the README's "Experiments" section) has a regeneration target here or
//! in the benchmark:
//!
//! | Experiment | Regenerate with |
//! |------------|-----------------|
//! | E1 / Figure 1 | `cargo run -p vstamp-bench --bin figure1` |
//! | E2 / Figure 2 | `cargo run -p vstamp-bench --bin figure2` |
//! | E3 / Figure 3 | `cargo run -p vstamp-bench --bin figure3` |
//! | E4 / Figure 4 | `cargo run -p vstamp-bench --bin figure4` |
//! | E5 invariants | `cargo run -p vstamp-bench --bin invariants_report` |
//! | E6 equivalence | `cargo run -p vstamp-bench --bin equivalence_report` |
//! | E7 space growth | `cargo run -p vstamp-bench --bin space_growth` |
//! | E8 operation latency | the benchmark's `core.*` and `wire.clock_codec_ns` rows (`benchmark/README.md`) |
//! | E9 simplification | `cargo run -p vstamp-bench --bin simplification` |
//! | E10 ITC comparison | `cargo run -p vstamp-bench --bin itc_comparison` |
//!
//! The library part holds the small amount of shared code the binaries use
//! (deterministic seeds and table formatting), so their output is stable
//! across runs and machines.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use vstamp_core::{Configuration, Mechanism, Trace};

/// The seed used by every binary unless overridden on the command line;
/// printed in every report so results are reproducible.
pub const DEFAULT_SEED: u64 = 20020310; // the paper's date: 2002-03-10

/// Parses an optional `--seed N` / first positional argument as the seed.
#[must_use]
pub fn seed_from_args() -> u64 {
    let args: Vec<String> = std::env::args().skip(1).collect();
    for (i, arg) in args.iter().enumerate() {
        if arg == "--seed" {
            if let Some(value) = args.get(i + 1).and_then(|v| v.parse().ok()) {
                return value;
            }
        }
    }
    args.first().and_then(|v| v.parse().ok()).unwrap_or(DEFAULT_SEED)
}

/// Prints a section header in a consistent style.
pub fn header(title: &str) {
    println!("\n=== {title} ===");
}

/// Longest trace the non-reducing mechanism is given in reports by
/// default: without the Section-6 rule its identities gain one
/// string per fork *forever*, so sync-heavy traces grow them exponentially
/// (a 120-op trace already reaches ~10⁷ strings — see ROADMAP "Open
/// items").
pub const NON_REDUCING_OPS: usize = 60;

/// `true` when `VSTAMP_BENCH_SMOKE` is set (non-empty, not `0`): report
/// binaries shrink their grids to seconds-scale so CI can smoke-test them
/// on every push without paying for the paper-scale sweeps.
#[must_use]
pub fn smoke_mode() -> bool {
    std::env::var("VSTAMP_BENCH_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// The first `ops` operations of a trace (used to cap what the
/// non-reducing mechanism replays).
#[must_use]
pub fn truncated(trace: &Trace, ops: usize) -> Trace {
    let mut out = Trace::new();
    for op in trace.iter().take(ops) {
        out.push(*op);
    }
    out
}

/// Replays a trace against a mechanism and renders every pairwise relation
/// of the final frontier as `a <rel> b` lines (sorted, deterministic).
#[must_use]
pub fn render_final_relations<M: Mechanism>(mechanism: M, trace: &Trace) -> Vec<String> {
    let mut config = Configuration::new(mechanism);
    config.apply_trace(trace).expect("trace replays cleanly");
    config.pairwise_relations().into_iter().map(|(a, b, rel)| format!("{a} {rel} {b}")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use vstamp_core::VersionStampMechanism;
    use vstamp_sim::figure1;

    #[test]
    fn default_seed_is_the_paper_date() {
        assert_eq!(DEFAULT_SEED, 20_020_310);
    }

    #[test]
    fn smoke_mode_follows_its_env_var() {
        // No other test touches this variable, so mutating the process
        // environment here is race-free. Clear it first: the suite must
        // pass even when the invoking shell exports it.
        std::env::remove_var("VSTAMP_BENCH_SMOKE");
        assert!(!smoke_mode());
        std::env::set_var("VSTAMP_BENCH_SMOKE", "1");
        assert!(smoke_mode());
        std::env::set_var("VSTAMP_BENCH_SMOKE", "0");
        assert!(!smoke_mode());
        std::env::remove_var("VSTAMP_BENCH_SMOKE");
    }

    #[test]
    fn final_relations_render_deterministically() {
        let scenario = figure1();
        let lines = render_final_relations(VersionStampMechanism::reducing(), &scenario.trace);
        assert_eq!(lines.len(), 3);
        let again = render_final_relations(VersionStampMechanism::reducing(), &scenario.trace);
        assert_eq!(lines, again);
        assert!(lines.iter().any(|l| l.contains("equivalent")));
    }
}
