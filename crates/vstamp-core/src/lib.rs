//! # vstamp-core — Version Stamps: decentralized version vectors
//!
//! A faithful, production-quality implementation of
//! *Version Stamps — Decentralized Version Vectors*
//! (Almeida, Baquero, Fonte — ICDCS 2002).
//!
//! Version stamps track update causality between replicas of a data element
//! under **fork / join / update** dynamics. Unlike version vectors they need
//! **no globally unique replica identifiers and no counters**: every
//! operation uses only the local stamp, so replicas can be created, updated
//! and merged under arbitrary network partitions — the mode of operation of
//! mobile and ad-hoc systems that motivates the paper.
//!
//! ## Quick start
//!
//! ```
//! use vstamp_core::{Relation, VersionStamp};
//!
//! // One initial replica…
//! let seed = VersionStamp::seed();
//! // …forked into three, with no coordination whatsoever.
//! let (a, rest) = seed.fork();
//! let (b, c) = rest.fork();
//!
//! // Writes are recorded locally.
//! let a = a.update();
//! let b = b.update();
//!
//! // Comparison classifies coexisting replicas.
//! assert_eq!(a.relation(&c), Relation::Dominates);   // c is obsolete
//! assert_eq!(a.relation(&b), Relation::Concurrent);  // a real conflict: both wrote
//!
//! // Joins merge knowledge (and shrink identities again).
//! let merged = a.join(&b);
//! assert_eq!(merged.relation(&c), Relation::Dominates);
//! ```
//!
//! ## What is in this crate
//!
//! | Module | Paper section | Contents |
//! |--------|---------------|----------|
//! | [`bitstring`] | §4 | binary strings under the prefix order |
//! | [`name`] | §4 (Def. 4.1) | names: finite antichains, `⊑`, `⊔` |
//! | [`packed`] | §4/§6 | flat preorder tag-array representation (hot paths) |
//! | [`stamp`] | §4 (Def. 4.3), §6 | version stamps and their operations |
//! | [`simplify`] | §6 | the rewriting rule, normal forms, confluence helpers |
//! | [`gc`] | beyond §6 | frontier-evidence identity garbage collection, the GC mechanism |
//! | [`causal`] | §2 (Def. 2.1) | causal-history reference model (global view) |
//! | [`mechanism`], [`config`] | §2/§4 | the transition system and the mechanism seam; the stamp mechanism under a §4 or §6 [`Reduction`] |
//! | [`invariants`] | §4 (I1–I3) | executable invariants and the frontier auditor |
//! | [`relation`] | §2 | equivalent / obsolete / concurrent classification |
//! | [`codec`] | §4/§6 | the paper's bit-trie encoding + the byte-aligned varint wire format, framing |
//!
//! The companion crates build on this one: `vstamp-baselines` (version
//! vectors, vector clocks, dotted version vectors), `vstamp-itc` (Interval
//! Tree Clocks, the successor mechanism), `vstamp-sim` (trace generators,
//! scenarios and the causal oracle used by the experiments),
//! `vstamp-panasync` (file-copy dependency tracking) and `vstamp-bench`
//! (the figure/experiment regeneration harness).
//!
//! ## Frontier ordering
//!
//! Version stamps order elements of the same *frontier* (coexisting
//! replicas). This is exactly the guarantee update tracking needs, and it is
//! what allows stamps to stay small: information that can no longer matter
//! to any coexisting element is discarded by the simplification rule.
//! Comparisons against stamps that are no longer live are unspecified.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bitstring;
pub mod causal;
pub mod codec;
pub mod config;
pub mod error;
pub mod gc;
pub mod invariants;
pub mod mechanism;
pub mod name;
pub mod name_like;
pub mod packed;
pub mod relation;
pub mod simplify;
pub mod stamp;

pub use bitstring::{Bit, BitString, ParseBitStringError, PrefixOrdering};
pub use causal::{CausalHistory, CausalMechanism, EventId};
pub use codec::{BitTrieCodec, StampCodec, VarintCodec};
pub use config::{Applied, Configuration, ElementId, Operation, Trace};
pub use error::{ConfigError, DecodeError, StampError};
pub use gc::{retire_identity, FrontierEvidence, FrontierGc};
pub use invariants::{audit_configuration, audit_frontier, InvariantReport, Violation};
pub use mechanism::{
    GcStampMechanism, Mechanism, SetStampMechanism, StampMechanism, VersionStampMechanism,
};
pub use name::{Name, ParseNameError};
pub use name_like::NameLike;
pub use packed::PackedName;
pub use relation::Relation;
pub use stamp::{Reduction, SetStamp, Stamp, VersionStamp};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn public_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<BitString>();
        assert_send_sync::<Name>();
        assert_send_sync::<PackedName>();
        assert_send_sync::<VersionStamp>();
        assert_send_sync::<SetStamp>();
        assert_send_sync::<VersionStampMechanism>();
        assert_send_sync::<GcStampMechanism>();
        assert_send_sync::<CausalHistory>();
        assert_send_sync::<Relation>();
        assert_send_sync::<Trace>();
        assert_send_sync::<StampError>();
        assert_send_sync::<ConfigError>();
        assert_send_sync::<DecodeError>();
    }

    #[test]
    fn crate_level_quickstart_compiles_and_runs() {
        let seed = VersionStamp::seed();
        let (a, rest) = seed.fork();
        let (b, c) = rest.fork();
        let a = a.update();
        let b = b.update();
        assert_eq!(a.relation(&c), Relation::Dominates);
        assert_eq!(a.relation(&b), Relation::Concurrent);
        let merged = a.join(&b);
        assert_eq!(merged.relation(&c), Relation::Dominates);
    }
}
