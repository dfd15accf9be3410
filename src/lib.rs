//! # vstamp — Version Stamps: decentralized version vectors
//!
//! Facade crate for the reproduction of *Version Stamps — Decentralized
//! Version Vectors* (Almeida, Baquero, Fonte — ICDCS 2002). It re-exports
//! the member crates of the workspace so applications can depend on a
//! single crate:
//!
//! * [`core`] (`vstamp-core`) — the version-stamp mechanism itself: names,
//!   stamps, causal histories, frontier ordering, invariants, encoding;
//! * [`baselines`] (`vstamp-baselines`) — version vectors (fixed and
//!   dynamic), vector clocks, dotted version vectors, random-id causal sets;
//! * [`itc`] (`vstamp-itc`) — Interval Tree Clocks, the successor mechanism;
//! * [`store`] (`vstamp-store`) — the causally-consistent replicated KV
//!   subsystem: sibling sets resolved by version-stamp (or dynamic-VV)
//!   clocks, batched anti-entropy over the codec seam;
//! * [`sim`] (`vstamp-sim`) — workload generators, figure scenarios, the
//!   causal oracle, the store simulation and the space metrics used by the
//!   experiments;
//! * [`panasync`] (`vstamp-panasync`) — dependency tracking among file
//!   copies, the paper's reported application.
//!
//! The most commonly used types are re-exported at the crate root.
//!
//! ```
//! use vstamp::{Relation, VersionStamp};
//!
//! let (a, rest) = VersionStamp::seed().fork();
//! let (b, c) = rest.fork();
//! let a = a.update();
//! assert_eq!(a.relation(&c), Relation::Dominates);
//! assert_eq!(b.relation(&c), Relation::Equal);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use vstamp_baselines as baselines;
pub use vstamp_core as core;
pub use vstamp_itc as itc;
pub use vstamp_panasync as panasync;
pub use vstamp_sim as sim;
pub use vstamp_store as store;

pub use vstamp_baselines::{DottedVersionVector, ReplicaId, VectorClock, VersionVector};
pub use vstamp_core::{
    Bit, BitString, CausalHistory, Configuration, Deferred, Eager, ElementId, FrontierEvidence,
    FrontierGc, GcStampMechanism, Mechanism, Name, NameTree, NoReduce, Operation, PackedName,
    PackedStamp, PackedStampMechanism, Reduction, ReductionPolicy, Relation, SetStamp,
    SetStampMechanism, Stamp, StampMechanism, Trace, TreeStamp, TreeStampMechanism, VersionStamp,
    VersionStampMechanism,
};
pub use vstamp_core::{BitTrieCodec, StampCodec, VarintCodec};
pub use vstamp_itc::ItcStamp;
pub use vstamp_panasync::{FileCopy, Reconciliation, Workspace};
pub use vstamp_store::{
    Cluster, DynamicVvBackend, GcWatermarks, Node, NodeClient, NodeConfig, NodeStatus, PhiConfig,
    StoreBackend, StoredVersion, TransportConfig, VstampBackend,
};
