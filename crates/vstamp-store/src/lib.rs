//! # vstamp-store — a causally-consistent replicated KV subsystem
//!
//! The first *serving* component of the reproduction: an in-memory,
//! sharded, concurrent key-value store in the mould of Dotted Version
//! Vectors (Preguiça et al., see PAPERS.md) — each key holds a **sibling
//! set** of causally-concurrent `(clock, value)` versions, clients use
//! causal `get` / `put`-with-context / `delete`, and replicas reconcile by
//! batched anti-entropy — with the clock mechanism swapped behind a seam:
//!
//! * [`VstampBackend`] — **version stamps**. Each key is its own
//!   fork/join/update universe: no replica identifiers, no counters, and
//!   (with [`VstampBackend::gc`]) the PR 2 frontier-evidence GC amortized
//!   behind [`GcWatermarks`] — every merge cover-shrinks the element, the
//!   evidence-gated collapse runs when a key's merge count or element
//!   size crosses its watermark (plus a forced pass at the compaction
//!   boundary) — and quiescent-point compaction per shard, so per-key
//!   metadata adapts to the live frontier instead of the operation
//!   history.
//! * [`DynamicVvBackend`] — the dynamic version-vector baseline the paper
//!   argues against: exact, but every incarnation burns a fresh
//!   globally-allocated identifier and retired entries accumulate.
//!
//! Replication traffic flows through the codec seam of
//! [`vstamp_core::codec`]: digests and missing-key deltas are
//! length-prefixed frames, clocks and elements ride the byte-aligned
//! varint codec (decoding straight into packed tag arrays). The exchange
//! protocol itself is written once, as a requester and a responder over a
//! request closure — [`Cluster::pull`] and [`Cluster::serve`] — with two
//! transports: [`Cluster::anti_entropy`] calls one from the other inside a
//! process, and a [`Node`] carries the same envelopes over TCP.
//!
//! The `vstamp-sim` crate drives clusters of both backends through
//! partition/heal and churn workloads against a causal oracle (lost
//! updates, false concurrency); the benchmark package under `benchmark/`
//! measures throughput, latency, wire bytes and per-key metadata.
//!
//! ## Quick start
//!
//! ```
//! use vstamp_store::{Cluster, VstampBackend};
//!
//! // Three replicas, four shards each, version-stamp clocks with GC.
//! let cluster = Cluster::new(VstampBackend::gc(), 3, 4);
//!
//! // Concurrent writes at different replicas become siblings…
//! cluster.put(0, "cart", b"milk".to_vec(), None);
//! cluster.put(1, "cart", b"bread".to_vec(), None);
//! cluster.anti_entropy(0, 1); // replica 0 pulls from replica 1
//! let read = cluster.get(0, "cart");
//! assert_eq!(read.values().len(), 2); // both writes survived
//!
//! // …and a context-carrying write resolves them.
//! cluster.put(0, "cart", b"milk+bread".to_vec(), read.context());
//! assert_eq!(cluster.get(0, "cart").values(), vec![b"milk+bread".to_vec()]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod backend;
pub mod cluster;
pub mod failure;
pub mod membership;
pub mod node;
pub mod store;
pub mod transport;
pub mod wire;

pub use backend::{DvvClock, DynamicVvBackend, GcWatermarks, StoreBackend, VstampBackend};
pub use cluster::{
    Cluster, ClusterConfig, CompactionStats, ExchangeStats, GossipStats, PullCursor, StoreMetrics,
};
pub use failure::{PhiAccrual, PhiConfig};
pub use membership::{MemberEntry, MemberStatus, MemberTable, MEMBERS_KEY};
pub use node::{Node, NodeClient, NodeConfig, NodeStatus};
pub use store::{DeltaOrigin, GetResult, Key, KeySnapshot, StoredVersion, Value, Version};
pub use transport::{recv_envelope, send_envelope, Backoff, PeerLink, TransportConfig};
pub use wire::{
    decode_envelope, encode_envelope, envelope_len, DeltaEncodeStats, DeltaPolicy, DigestEntry,
    Envelope, KeyDelta, MessageKind, Offer, WireKeyDelta, WireVersion,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_quickstart_runs() {
        let cluster = Cluster::new(VstampBackend::gc(), 3, 4);
        cluster.put(0, "cart", b"milk".to_vec(), None);
        cluster.put(1, "cart", b"bread".to_vec(), None);
        cluster.anti_entropy(0, 1);
        let read = cluster.get(0, "cart");
        assert_eq!(read.values().len(), 2);
        cluster.put(0, "cart", b"milk+bread".to_vec(), read.context());
        assert_eq!(cluster.get(0, "cart").values(), vec![b"milk+bread".to_vec()]);
    }

    #[test]
    fn public_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Cluster<VstampBackend>>();
        assert_send_sync::<Cluster<DynamicVvBackend>>();
        assert_send_sync::<StoreMetrics>();
        assert_send_sync::<Envelope>();
    }
}
