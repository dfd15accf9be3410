//! Store-level simulation: an N-replica `vstamp-store` cluster through
//! partition/heal and churn workloads on the [`driver`](crate::driver),
//! both backends under the identical seeded schedule, and the **causal
//! oracle** the driver checks them against. Every simulated write stores
//! its unique put id as the value and records the ids it causally follows
//! (the sibling values its session read), so the oracle is the exact
//! happens-before DAG of the run, independent of any clock mechanism. It
//! counts **false concurrency** (a read returns two siblings of which one
//! covers the other), **lost updates** (a causally maximal write missing
//! once the cluster settled) and **resurrections** (an obsolete write
//! still there).

use std::collections::{BTreeMap, BTreeSet};

use vstamp_store::{Cluster, ClusterConfig, ExchangeStats, StoreBackend, StoreMetrics};

use crate::driver::{Driver, Event, Replica, Schedule, Verdict, EPOCH_MS};

/// Parameters of a store simulation run.
#[derive(Debug, Clone)]
pub struct StoreSimSpec {
    /// The cluster's replicas, shards and fingerprint policy.
    pub cluster: ClusterConfig,
    /// The driver's schedule; partitions are its [`Event::Islands`].
    pub schedule: Schedule,
}

impl StoreSimSpec {
    /// The partition/heal scenario: up to three islands; after every
    /// `rounds / islands` epochs the highest merges into the next, until
    /// the cluster is whole.
    #[must_use]
    pub fn partition_heal(replicas: usize, rounds: usize, seed: u64) -> Self {
        let islands = replicas.clamp(1, 3);
        let mut island_of: Vec<usize> = (0..replicas).map(|r| r % islands).collect();
        let mut timeline = vec![(0, Event::Islands(island_of.clone()))];
        let heal_every = (rounds / islands).max(1);
        for round in (heal_every..=rounds).step_by(heal_every) {
            let highest = island_of.iter().copied().max().unwrap_or(0);
            if highest > 0 {
                island_of.iter_mut().filter(|i| **i == highest).for_each(|i| *i -= 1);
                timeline.push((round as u64 * EPOCH_MS, Event::Islands(island_of.clone())));
            }
        }
        StoreSimSpec {
            cluster: ClusterConfig::new(replicas, 4),
            schedule: Schedule {
                seed,
                keys: 12,
                epochs: rounds,
                sessions: 24,
                stale_percent: 20,
                delete_percent: 5,
                timeline,
                ..Schedule::default()
            },
        }
    }

    /// The churn scenario: no partitions, constant all-to-all gossip, many
    /// concurrent writers per key.
    #[must_use]
    pub fn churn(replicas: usize, rounds: usize, seed: u64) -> Self {
        StoreSimSpec {
            cluster: ClusterConfig::new(replicas, 4),
            schedule: Schedule {
                seed,
                keys: 6,
                epochs: rounds,
                sessions: 30,
                stale_percent: 35,
                delete_percent: 10,
                ..Schedule::default()
            },
        }
    }
}

/// The outcome of one simulated run.
#[derive(Debug, Clone, PartialEq)]
pub struct StoreSimReport {
    /// Backend label.
    pub backend: &'static str,
    /// The oracle's verdict; `converged` also requires one sibling set per
    /// key on every replica, kept by the final compaction.
    pub verdict: Verdict,
    /// Keys recycled by the final quiescent compaction.
    pub keys_recycled: usize,
    /// Cluster metrics after convergence and compaction.
    pub final_metrics: StoreMetrics,
    /// Mean per-`(replica, key)` metadata bits, sampled once per epoch.
    pub metadata_curve: Vec<f64>,
    /// [`Cluster::gossip_stats`] at the end of the run (epochs plus settle
    /// epochs); `root_probes` counts the exchanges. Byte counts include
    /// the envelope (kind byte, sender id, length prefix).
    pub wire: ExchangeStats,
    /// Mean payload bytes (digest + delta) per exchange, one per epoch.
    pub bytes_per_exchange_curve: Vec<f64>,
    /// Mean payload bytes per exchange across the post-heal converged
    /// epochs, when an exchange costs only the root probe and its ack.
    pub converged_bytes_per_exchange: f64,
}

/// Epochs a run may take to settle after the workload.
const SETTLE_EPOCHS: usize = 200;
/// Epochs run after convergence to measure the steady-state wire.
const CONVERGED_EPOCHS: usize = 4;

/// Mean payload bytes per exchange between two cumulative snapshots.
fn bytes_per_exchange(before: ExchangeStats, after: ExchangeStats) -> f64 {
    let bytes = (after.digest_bytes + after.delta_bytes)
        .saturating_sub(before.digest_bytes + before.delta_bytes);
    let exchanges = after.root_probes.saturating_sub(before.root_probes);
    bytes as f64 / exchanges.max(1) as f64
}

/// The happens-before DAG of one key: per put id, the transitive closure
/// of the put ids its session had read. Sessions read and write a single
/// key, so causal chains never cross keys and the oracle shards cleanly —
/// which is what lets the driver stripe it (one mutex per key) across
/// threads without a global serialization point.
///
/// Public as the *oracle sampling hook*: external drivers (the repository
/// benchmark) keep one `KeyOracle` per sampled key, record their
/// sessions through it, and gate their run on
/// [`KeyOracle::false_concurrency`] / [`KeyOracle::expected_live`] exactly
/// as the driver here does. Values must be
/// [`encode_id`]-encoded put ids for the final live-set diff to work.
#[derive(Debug, Default)]
pub struct KeyOracle {
    /// `closure[id]` = every id causally before `id` (transitively).
    closure: BTreeMap<u64, BTreeSet<u64>>,
    /// Put ids that were deletes.
    deletes: BTreeSet<u64>,
    /// Puts on this key, in record order.
    ids: Vec<u64>,
}

impl KeyOracle {
    /// Records a session's write: `id` causally follows everything in
    /// `read_ids` (transitively).
    pub fn record_write(&mut self, id: u64, read_ids: &[u64], delete: bool) {
        let mut closure = BTreeSet::new();
        for &seen in read_ids {
            closure.insert(seen);
            if let Some(upstream) = self.closure.get(&seen) {
                closure.extend(upstream.iter().copied());
            }
        }
        self.closure.insert(id, closure);
        if delete {
            self.deletes.insert(id);
        }
        self.ids.push(id);
    }

    /// Whether write `later` causally covers (happens after) write
    /// `earlier`.
    pub fn covers(&self, later: u64, earlier: u64) -> bool {
        self.closure.get(&later).is_some_and(|closure| closure.contains(&earlier))
    }

    /// Sibling pairs in `read_ids` where one causally covers the other —
    /// the false-concurrency count of one read.
    pub fn false_concurrency(&self, read_ids: &[u64]) -> usize {
        let mut violations = 0;
        for (i, &a) in read_ids.iter().enumerate() {
            for &b in &read_ids[i + 1..] {
                if self.covers(a, b) || self.covers(b, a) {
                    violations += 1;
                }
            }
        }
        violations
    }

    /// Causally maximal writes on the key (nothing covers them).
    pub fn maximal(&self) -> BTreeSet<u64> {
        self.ids
            .iter()
            .copied()
            .filter(|&candidate| !self.ids.iter().any(|&other| self.covers(other, candidate)))
            .collect()
    }

    /// Expected live values after convergence: maximal writes that are not
    /// deletes.
    pub fn expected_live(&self) -> BTreeSet<u64> {
        self.maximal().into_iter().filter(|id| !self.deletes.contains(id)).collect()
    }

    /// Whether a member that shows `shown` still keeps write `id`: it
    /// shows `id` or a write that covers it, or a delete (`id` itself, or
    /// one that covers it) hides it from reads.
    pub(crate) fn kept(&self, id: u64, shown: &[u64]) -> bool {
        shown.iter().any(|&other| other == id || self.covers(other, id))
            || self.deletes.iter().any(|&delete| delete == id || self.covers(delete, id))
    }
}

/// Encodes a put id as the 8-byte little-endian value the oracle drivers
/// store; [`decode_id`] inverts it.
pub fn encode_id(id: u64) -> Vec<u8> {
    id.to_le_bytes().to_vec()
}

/// Decodes a value written via [`encode_id`] back into its put id.
///
/// # Panics
///
/// Panics if `value` is not exactly 8 bytes — oracle-driven workloads only
/// ever store encoded ids.
pub fn decode_id(value: &[u8]) -> u64 {
    u64::from_le_bytes(value.try_into().expect("sim values are 8-byte put ids"))
}

/// Runs a store simulation against the given backend, returning the oracle
/// report: one [`Replica`] member per replica of one shared cluster, under
/// the spec's schedule, settled, then compacted at the quiescent point.
/// With one thread the run is fully determined by `spec`, so runs are
/// reproducible and backend reports comparable.
pub fn run_store_sim<B: StoreBackend>(backend: B, spec: &StoreSimSpec) -> StoreSimReport {
    let backend_label = backend.label();
    let mut cluster = Cluster::with_config(backend, spec.cluster);
    let (mut metadata_curve, mut wire_curve) = (Vec::new(), Vec::new());
    let reads = |cluster: &Cluster<B>| -> Vec<_> {
        (0..spec.schedule.keys).map(|key| cluster.get(0, &format!("key-{key}")).values()).collect()
    };
    let (mut verdict, converged_bytes, settled_reads) = {
        let (cluster, seed) = (&cluster, spec.schedule.seed);
        let mut driver = Driver::new(spec.schedule.clone(), cluster.replica_count(), |index, _| {
            Replica::new(cluster, index, seed)
        });
        let mut wire_mark = cluster.gossip_stats();
        driver.workload(|_| {
            metadata_curve.push(cluster.metrics().mean_key_metadata_bits);
            let wire_now = cluster.gossip_stats();
            wire_curve.push(bytes_per_exchange(wire_mark, wire_now));
            wire_mark = wire_now;
        });
        driver.settle(SETTLE_EPOCHS, Driver::converged);
        // Gossip keeps running after convergence; what those idle
        // exchanges cost is the protocol's steady-state wire overhead.
        let settled = cluster.gossip_stats();
        driver.settle(CONVERGED_EPOCHS, |_| false);
        let converged = bytes_per_exchange(settled, cluster.gossip_stats());
        (driver.verdict(), converged, reads(cluster))
    };
    verdict.converged &= cluster.converged();
    let compaction = cluster.compact();
    verdict.converged &= reads(&cluster) == settled_reads;
    StoreSimReport {
        backend: backend_label,
        verdict,
        keys_recycled: compaction.keys_recycled + compaction.keys_dropped,
        final_metrics: cluster.metrics(),
        metadata_curve,
        wire: cluster.gossip_stats(),
        bytes_per_exchange_curve: wire_curve,
        converged_bytes_per_exchange: converged_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vstamp_store::{DynamicVvBackend, VstampBackend};

    /// Seeds every exactness scenario runs in tier-1.
    const SEEDS: std::ops::Range<u64> = 0..10;

    /// Runs `spec` under both backends and asserts each run exact.
    fn assert_exact_for_every_backend(spec: &StoreSimSpec) -> [StoreSimReport; 2] {
        let reports = [
            run_store_sim(VstampBackend::gc(), spec),
            run_store_sim(DynamicVvBackend::new(), spec),
        ];
        for report in &reports {
            let seed = spec.schedule.seed;
            assert!(
                report.verdict.is_exact(),
                "{} (seed {seed}): {:?}",
                report.backend,
                report.verdict
            );
        }
        reports
    }

    #[test]
    fn partition_heal_is_exact_for_every_backend() {
        for seed in SEEDS {
            for report in assert_exact_for_every_backend(&StoreSimSpec::partition_heal(6, 10, seed))
            {
                assert!(report.verdict.writes > 0);
                assert_eq!(report.metadata_curve.len(), 10);
            }
        }
    }

    #[test]
    fn churn_is_exact_for_every_backend() {
        for seed in SEEDS {
            assert_exact_for_every_backend(&StoreSimSpec::churn(4, 12, seed));
        }
    }

    /// The two scenarios above over 1 000 seeds each, both backends, honest
    /// fingerprints (~20 s in release).
    #[test]
    #[ignore = "release: cargo test --release -p vstamp-sim --lib -- --ignored exact_over_a_thousand_seeds"]
    fn every_scenario_is_exact_over_a_thousand_seeds() {
        for seed in 0..1000 {
            assert_exact_for_every_backend(&StoreSimSpec::partition_heal(6, 10, seed));
            assert_exact_for_every_backend(&StoreSimSpec::churn(4, 12, seed));
        }
    }

    #[test]
    fn gc_backend_keeps_metadata_below_the_baseline_growth() {
        // The headline store claim: version-stamp metadata adapts to the
        // frontier while dynamic-VV vectors grow with retired incarnations.
        let spec = StoreSimSpec::churn(4, 16, 3);
        let stamps = run_store_sim(VstampBackend::gc(), &spec);
        let dynamic = run_store_sim(DynamicVvBackend::new(), &spec);
        assert!(stamps.verdict.is_exact() && dynamic.verdict.is_exact());
        let stamp_final = stamps.metadata_curve.last().copied().unwrap_or(0.0);
        let dynamic_final = dynamic.metadata_curve.last().copied().unwrap_or(0.0);
        assert!(
            stamp_final < dynamic_final,
            "stamps {stamp_final:.0} bits vs dynamic-vv {dynamic_final:.0} bits"
        );
    }

    #[test]
    fn delta_frames_cut_wire_bytes_and_forced_misses_stay_exact() {
        // Every lever of the adaptive wire must be exercised on every
        // backend and grid: delta frames shipped and cheaper than their
        // full frames, the root probe hit, known versions skipped; forced
        // misses fall back through the NAK refetch and never match a probe.
        const SEED: u64 = 20020310;
        fn exact<B: StoreBackend>(backend: B, spec: &StoreSimSpec, what: &str) -> StoreSimReport {
            let report = run_store_sim(backend, spec);
            assert!(report.verdict.is_exact(), "{what}: {:?}", report.verdict);
            report
        }
        fn gate<B: StoreBackend + Clone>(backend: B, spec: &StoreSimSpec) {
            let label = backend.label();
            let adaptive = exact(backend.clone(), spec, label);
            assert!(adaptive.wire.delta_frames > 0, "{label}: adaptive run must ship deltas");
            assert!(adaptive.wire.wire_bytes_saved > 0, "{label}: delta frames must save bytes");
            assert!(adaptive.wire.root_matches > 0, "{label}: the root probe never hit");
            assert!(adaptive.wire.versions_skipped > 0, "{label}: dedup never skipped a version");
            // 5x under the smallest whole-digest steady state on record
            // (149 B per converged exchange, CHANGES.md PR 21).
            assert!(
                adaptive.converged_bytes_per_exchange <= 29.0,
                "{label}: a converged exchange costs {:.1} B",
                adaptive.converged_bytes_per_exchange
            );
            assert_eq!(spec.schedule.epochs, adaptive.bytes_per_exchange_curve.len());
            let cluster = spec.cluster.with_perturbed_fingerprints();
            let perturbed = exact(backend, &StoreSimSpec { cluster, ..spec.clone() }, label);
            assert!(perturbed.wire.nak_refetches > 0, "{label}: forced misses must NAK");
            assert_eq!(perturbed.wire.root_matches, 0, "{label}: a perturbed probe matched");
        }
        // Six writing replicas: clocks must be wide enough that a delta
        // frame (dot + 8-byte fingerprint) undercuts its full frame, and a
        // stamp element is cut only when a replica first gets a key, so a
        // writer's dots stay one run and its clock strings few.
        for spec in [StoreSimSpec::partition_heal(6, 12, SEED), StoreSimSpec::churn(6, 8, SEED)] {
            gate(VstampBackend::gc(), &spec);
            gate(DynamicVvBackend::new(), &spec);
        }
    }

    #[test]
    fn runs_are_deterministic_per_seed() {
        let spec = StoreSimSpec::partition_heal(4, 6, 11);
        let a = run_store_sim(VstampBackend::gc(), &spec);
        let b = run_store_sim(VstampBackend::gc(), &spec);
        assert_eq!(a, b);
    }
}
