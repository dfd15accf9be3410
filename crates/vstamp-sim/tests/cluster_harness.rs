//! The harness scenario on node processes (`cluster_harness`), in tier-1:
//! fault seed 42 joins by fork over sockets, converges, evicts the killed
//! member, retires its identity, shrinks the survivors' id bits and
//! converges writes made after the eviction — every gate the run checks.

use std::process::{Command, Output};

fn harness(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cluster_harness")).args(args).output().expect("harness runs")
}

#[test]
fn fault_seed_42_passes_every_gate() {
    let output = harness(&["--seed", "42"]);
    let report = String::from_utf8_lossy(&output.stdout);
    assert!(output.status.success(), "{report}{}", String::from_utf8_lossy(&output.stderr));
    assert!(report.contains("\"pass\":true"), "{report}");
}

/// A stale flag (such as the removed `--smoke`) or a malformed seed must
/// not quietly run another mode or seed: the harness refuses it before
/// it spawns a node, so there is no report.
#[test]
fn an_unknown_or_malformed_argument_is_refused_before_any_node_starts() {
    for args in [&["--bogus"][..], &["--smoke"], &["--seed", "x"], &["--seed"], &["--sponsor", "a"]]
    {
        let output = harness(args);
        assert_eq!(output.status.code(), Some(2), "{args:?}");
        assert!(output.stdout.is_empty(), "{args:?} ran: {:?}", output.stdout);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.starts_with("usage:") && !stderr.contains("fault plan"),
            "{args:?}: {stderr}"
        );
    }
}
