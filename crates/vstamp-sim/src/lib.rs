//! # vstamp-sim — replicated-system simulator and experiment substrate
//!
//! The paper motivates version stamps with mobile / ad-hoc deployments in
//! which replicas fork, update and merge under arbitrary partitions, but it
//! reports no measurements — its evaluation is the worked figures and the
//! proofs. This crate is the executable substitute for that deployment and
//! the substrate every experiment in the reproduction runs on:
//!
//! * [`workload`] — seeded random trace generators (balanced, update-heavy,
//!   churn-heavy, sync-heavy, partition/heal, fixed-population);
//! * [`scenario`] — the concrete traces of Figures 1–4, with labelled
//!   elements and expected relations;
//! * [`oracle`] — replay-and-compare against the causal-history
//!   specification (experiments E5/E6);
//! * [`metrics`] — per-element space accounting over whole traces
//!   (experiments E7/E9/E10);
//! * [`runner`] — a parallel comparison runner covering every mechanism in
//!   the workspace;
//! * [`driver`] — one seeded cluster driver: `NodeCore`s, the replicas
//!   of an in-process `Cluster`, or node processes behind one `Member`
//!   seam, under one schedule loop, fault vocabulary (partitions, drains,
//!   kills and restarts, plus lost, cut, flipped, shortened and replayed
//!   messages) and causal-oracle glue; serial and bit-for-bit replayable,
//!   or threaded. Its `harness` scenario (join by fork, eviction and
//!   identity retirement under a seeded fault plan) runs on `NodeCore`s
//!   in `tests/node_sim.rs` and on processes in the `cluster_harness`
//!   binary;
//! * [`store_sim`] — the `vstamp-store` scenarios on that driver: N store
//!   replicas under partition/heal and churn, checked against a causal
//!   oracle built from the session structure (lost updates, false
//!   concurrency), and the oracle itself ([`KeyOracle`]);
//! * [`nemesis`] — socket-level fault injection for the real-TCP cluster:
//!   frame-parsing proxies that drop/delay/duplicate frames or black-hole
//!   a node's inbound side, the seeded fault plan (a timeline of actions
//!   the driver applies to any node substrate), and the crate's one
//!   random stream, [`Dice`](nemesis::Dice).
//!
//! ```
//! use vstamp_sim::workload::{generate, WorkloadSpec};
//! use vstamp_sim::oracle::check_against_oracle;
//! use vstamp_core::VersionStampMechanism;
//!
//! let trace = generate(&WorkloadSpec::new(100, 8, 42));
//! let report = check_against_oracle(VersionStampMechanism::reducing(), &trace);
//! assert!(report.is_exact());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod driver;
pub mod metrics;
pub mod nemesis;
pub mod oracle;
pub mod runner;
pub mod scenario;
pub mod store_sim;
pub mod workload;

pub use metrics::{measure_space, ComparisonTable, SpaceReport};
pub use nemesis::{fault_plan, NemesisConfig, Proxy};
pub use oracle::{check_against_oracle, AgreementReport, Disagreement};
pub use runner::{compare_mechanisms, MechanismSet};
pub use scenario::{figure1, figure2, figure3, figure4, stamp_walkthrough, Scenario};
pub use store_sim::{decode_id, encode_id, run_store_sim, KeyOracle, StoreSimReport, StoreSimSpec};
pub use workload::{
    generate, generate_fixed_population, generate_partition_heal, OperationMix, WorkloadSpec,
};
