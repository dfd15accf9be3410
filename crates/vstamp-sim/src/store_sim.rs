//! Store-level simulation: drives an N-replica `vstamp-store` cluster
//! through partition/heal and churn workloads and checks every read and the
//! converged end state against a **causal oracle** built from the actual
//! session structure.
//!
//! Every simulated write stores its unique put id as the value and records
//! the ids it causally follows (the sibling values its session read). The
//! oracle is thus the exact happens-before DAG of the run, independent of
//! any clock mechanism, and two violation classes are counted:
//!
//! * **false concurrency** — a read returns two sibling values where one
//!   causally covers the other (the clock failed to supersede);
//! * **lost updates** — after healing and full anti-entropy, a causally
//!   maximal write is missing from the converged sibling set (the clock
//!   superseded something it should not have), plus the dual
//!   **resurrections** (an obsolete version survived).
//!
//! Both backends — version stamps (eager or GC) and the dynamic-VV
//! baseline — are driven through the identical deterministic schedule, so
//! the reports are directly comparable.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use vstamp_store::{Cluster, ClusterConfig, ExchangeStats, StoreBackend, StoreMetrics};

/// Parameters of a store simulation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StoreSimSpec {
    /// Number of store replicas.
    pub replicas: usize,
    /// Number of shards per replica.
    pub shards: usize,
    /// Number of distinct keys the workload touches.
    pub keys: usize,
    /// Number of epochs.
    pub rounds: usize,
    /// Client sessions (get → put) per epoch.
    pub ops_per_round: usize,
    /// Initial partition islands; one heals into another after every
    /// `rounds / islands` epochs until the cluster is whole.
    pub islands: usize,
    /// Probability (percent) that a session deletes instead of writing.
    pub delete_percent: u32,
    /// Probability (percent) that a session uses a stale context (an
    /// earlier read at the same replica), creating genuine siblings.
    pub stale_percent: u32,
    /// Random seed.
    pub seed: u64,
    /// Client threads driving sessions concurrently over the shared
    /// cluster. `1` (the default) runs the fully deterministic serial
    /// schedule; above that each epoch's sessions and anti-entropy pulls
    /// are split across OS threads, each with an independent causal
    /// session stream, and the causal oracle is enforced under the real
    /// interleavings.
    pub threads: usize,
    /// Deliberately flips every shipped context fingerprint so each delta
    /// frame misses at the receiver and the NAK/full-frame fallback
    /// carries the exchange — the forced-miss correctness drill.
    pub perturb_fingerprints: bool,
}

impl StoreSimSpec {
    /// The partition/heal scenario: islands that merge over time.
    #[must_use]
    pub fn partition_heal(replicas: usize, rounds: usize, seed: u64) -> Self {
        StoreSimSpec {
            replicas,
            shards: 4,
            keys: 12,
            rounds,
            ops_per_round: 24,
            islands: replicas.clamp(1, 3),
            delete_percent: 5,
            stale_percent: 20,
            seed,
            threads: 1,
            perturb_fingerprints: false,
        }
    }

    /// The same spec driven by `threads` concurrent client threads.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// The same spec with every shipped fingerprint deliberately flipped,
    /// forcing the NAK/full-frame fallback on every would-be delta frame.
    #[must_use]
    pub fn with_perturbed_fingerprints(mut self) -> Self {
        self.perturb_fingerprints = true;
        self
    }

    /// The cluster wiring this spec asks for.
    fn cluster_config(&self) -> ClusterConfig {
        let mut config = ClusterConfig::new(self.replicas, self.shards);
        if self.perturb_fingerprints {
            config = config.with_perturbed_fingerprints();
        }
        config
    }

    /// The churn scenario: no partitions, constant all-to-all gossip, many
    /// concurrent writers per key.
    #[must_use]
    pub fn churn(replicas: usize, rounds: usize, seed: u64) -> Self {
        StoreSimSpec {
            replicas,
            shards: 4,
            keys: 6,
            rounds,
            ops_per_round: 30,
            islands: 1,
            delete_percent: 10,
            stale_percent: 35,
            seed,
            threads: 1,
            perturb_fingerprints: false,
        }
    }
}

/// The outcome of one simulated run.
#[derive(Debug, Clone, PartialEq)]
pub struct StoreSimReport {
    /// Backend label.
    pub backend: &'static str,
    /// Total client sessions performed.
    pub sessions: usize,
    /// Total writes (puts + deletes).
    pub writes: usize,
    /// Sibling pairs returned by reads where one causally covers the other.
    pub false_concurrency: usize,
    /// Causally maximal live writes missing after convergence.
    pub lost_updates: usize,
    /// Obsolete writes still present after convergence.
    pub resurrections: usize,
    /// Whether the cluster converged after healing plus full sweeps.
    pub converged: bool,
    /// Keys recycled by the final quiescent compaction.
    pub keys_recycled: usize,
    /// Cluster metrics after convergence and compaction.
    pub final_metrics: StoreMetrics,
    /// Mean per-`(replica, key)` metadata bits, sampled once per epoch.
    pub metadata_curve: Vec<f64>,
    /// Bytes-on-wire accounting for the whole run.
    pub wire: WireReport,
}

/// Bytes-on-wire accounting of one run: the cluster's cumulative
/// exchange counters plus the per-epoch bytes-per-exchange curve. All byte
/// counts are envelope-inclusive (kind byte, sender id, length prefix).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WireReport {
    /// [`Cluster::gossip_stats`] at the end of the run (epochs plus settle
    /// sweeps); `root_probes` counts the exchanges.
    pub totals: ExchangeStats,
    /// Mean payload bytes (digest + delta) per exchange, one entry per
    /// epoch.
    pub bytes_per_exchange_curve: Vec<f64>,
    /// Mean payload bytes per exchange across the post-heal converged
    /// epochs: full sweeps run after the cluster has converged, when an
    /// exchange costs only the root probe and its ack.
    pub converged_bytes_per_exchange: f64,
}

/// Full sweeps run after convergence to measure the steady-state wire.
const CONVERGED_EPOCH_SWEEPS: usize = 4;

/// Mean payload bytes per exchange between two cumulative snapshots.
fn bytes_per_exchange(before: ExchangeStats, after: ExchangeStats) -> f64 {
    let bytes = (after.digest_bytes + after.delta_bytes)
        .saturating_sub(before.digest_bytes + before.delta_bytes);
    let exchanges = after.root_probes.saturating_sub(before.root_probes);
    bytes as f64 / exchanges.max(1) as f64
}

impl StoreSimReport {
    /// `true` when the run had no causal violations and converged.
    #[must_use]
    pub fn is_exact(&self) -> bool {
        self.false_concurrency == 0
            && self.lost_updates == 0
            && self.resurrections == 0
            && self.converged
    }
}

/// The happens-before DAG of one key: per put id, the transitive closure
/// of the put ids its session had read. Sessions read and write a single
/// key, so causal chains never cross keys and the oracle shards cleanly —
/// which is what lets the concurrent driver stripe it (one mutex per key)
/// without a global serialization point.
///
/// Public as the *oracle sampling hook*: external drivers (the repository
/// benchmark) keep one `KeyOracle` per sampled key, record their
/// sessions through it, and gate their run on
/// [`KeyOracle::false_concurrency`] / [`KeyOracle::expected_live`] exactly
/// as the simulation drivers here do. Values must be
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
}

/// The serial driver's oracle: one [`KeyOracle`] per key.
#[derive(Debug, Default)]
struct Oracle {
    by_key: BTreeMap<String, KeyOracle>,
}

impl Oracle {
    fn record_write(&mut self, id: u64, key: &str, read_ids: &[u64], delete: bool) {
        self.by_key.entry(key.to_owned()).or_default().record_write(id, read_ids, delete);
    }

    fn false_concurrency(&self, key: &str, read_ids: &[u64]) -> usize {
        self.by_key.get(key).map_or(0, |oracle| oracle.false_concurrency(read_ids))
    }

    fn expected_live(&self, key: &str) -> BTreeSet<u64> {
        self.by_key.get(key).map_or_else(BTreeSet::new, KeyOracle::expected_live)
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

/// A remembered read a later (stale-context) session can write against.
struct Snapshot<B: StoreBackend> {
    replica: usize,
    key: String,
    read_ids: Vec<u64>,
    context: Option<B::Clock>,
}

/// Runs a store simulation against the given backend, returning the oracle
/// report. With `spec.threads == 1` the schedule is fully determined by
/// `spec` (seeded), so runs are reproducible and backend reports
/// comparable; above that the run dispatches to the concurrent driver —
/// genuinely parallel interleavings, still oracle-exact.
pub fn run_store_sim<B: StoreBackend>(backend: B, spec: &StoreSimSpec) -> StoreSimReport {
    if spec.threads > 1 {
        return run_store_sim_concurrent(backend, spec);
    }
    let backend_label = backend.label();
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let mut cluster = Cluster::with_config(backend, spec.cluster_config());
    let mut oracle = Oracle::default();
    let mut next_id = 1u64;
    let mut sessions = 0usize;
    let mut false_concurrency = 0usize;
    let mut snapshots: Vec<Snapshot<B>> = Vec::new();
    let mut metadata_curve = Vec::with_capacity(spec.rounds);
    let mut wire_curve = Vec::with_capacity(spec.rounds);
    let mut wire_mark = cluster.gossip_stats();

    // Replica → island assignment; islands merge as rounds progress.
    let mut island_of: Vec<usize> = (0..spec.replicas).map(|r| r % spec.islands.max(1)).collect();
    let heal_every = (spec.rounds / spec.islands.max(1)).max(1);

    let keys: Vec<String> = (0..spec.keys.max(1)).map(|k| format!("key-{k}")).collect();

    for round in 0..spec.rounds {
        // Client sessions. A session either reads fresh (get → put) or
        // replays a remembered earlier read (stale context), which is what
        // manufactures genuine siblings.
        for _ in 0..spec.ops_per_round {
            sessions += 1;
            let use_stale = !snapshots.is_empty() && rng.gen_range(0..100u32) < spec.stale_percent;
            let (replica, key, read_ids, context) = if use_stale {
                let snapshot = snapshots.remove(rng.gen_range(0..snapshots.len()));
                (snapshot.replica, snapshot.key, snapshot.read_ids, snapshot.context)
            } else {
                let replica = rng.gen_range(0..spec.replicas);
                let key = keys[rng.gen_range(0..keys.len())].clone();
                let read = cluster.get(replica, &key);
                let ids: Vec<u64> = read.iter_values().map(decode_id).collect();
                // Oracle check: returned siblings must be pairwise
                // causally incomparable.
                false_concurrency += oracle.false_concurrency(&key, &ids);
                if rng.gen_range(0..100u32) < 30 {
                    snapshots.push(Snapshot {
                        replica,
                        key: key.clone(),
                        read_ids: ids.clone(),
                        context: read.context().cloned(),
                    });
                    if snapshots.len() > 32 {
                        snapshots.remove(0);
                    }
                }
                (replica, key, ids, read.context().cloned())
            };
            let id = next_id;
            next_id += 1;
            let delete = rng.gen_range(0..100u32) < spec.delete_percent;
            if delete {
                cluster.delete(replica, &key, context.as_ref());
            } else {
                cluster.put(replica, &key, encode_id(id), context.as_ref());
            }
            oracle.record_write(id, &key, &read_ids, delete);
        }

        // Island-local anti-entropy: a few random intra-island pulls.
        for _ in 0..spec.replicas {
            let a = rng.gen_range(0..spec.replicas);
            let peers: Vec<usize> =
                (0..spec.replicas).filter(|&r| r != a && island_of[r] == island_of[a]).collect();
            if peers.is_empty() {
                continue;
            }
            let b = peers[rng.gen_range(0..peers.len())];
            cluster.anti_entropy(a, b);
            cluster.anti_entropy(b, a);
        }

        // Heal: merge the highest island into the lowest remaining one.
        if (round + 1) % heal_every == 0 {
            if let Some(&highest) = island_of.iter().max() {
                if highest > 0 {
                    for island in island_of.iter_mut() {
                        if *island == highest {
                            *island = highest - 1;
                        }
                    }
                }
            }
        }

        metadata_curve.push(cluster.metrics().mean_key_metadata_bits);
        let wire_now = cluster.gossip_stats();
        wire_curve.push(bytes_per_exchange(wire_mark, wire_now));
        wire_mark = wire_now;
    }

    // Heal everything and run sweeps until converged (bounded).
    for island in island_of.iter_mut() {
        *island = 0;
    }
    let mut converged = false;
    for _ in 0..spec.replicas * 2 + 4 {
        for a in 0..spec.replicas {
            for b in 0..spec.replicas {
                if a != b {
                    cluster.anti_entropy(a, b);
                }
            }
        }
        if cluster.converged() {
            converged = true;
            break;
        }
    }

    // Converged epochs: anti-entropy keeps running after convergence, and
    // what those idle exchanges cost is the protocol's steady-state wire
    // overhead — the root probe and its ack.
    let settle_totals = cluster.gossip_stats();
    for _ in 0..CONVERGED_EPOCH_SWEEPS {
        for a in 0..spec.replicas {
            for b in 0..spec.replicas {
                if a != b {
                    cluster.anti_entropy(a, b);
                }
            }
        }
    }
    let converged_bytes = bytes_per_exchange(settle_totals, cluster.gossip_stats());

    // Quiescent-point compaction (snapshots are dead by now).
    snapshots.clear();
    let compaction = cluster.compact();

    // Compare the converged state with the oracle's maximal frontier.
    let mut lost_updates = 0usize;
    let mut resurrections = 0usize;
    for key in &keys {
        let expected = oracle.expected_live(key);
        let got: BTreeSet<u64> =
            cluster.get(0, key).values().iter().map(|v| decode_id(v)).collect();
        lost_updates += expected.difference(&got).count();
        resurrections += got.difference(&expected).count();
    }

    StoreSimReport {
        backend: backend_label,
        sessions,
        writes: (next_id - 1) as usize,
        false_concurrency,
        lost_updates,
        resurrections,
        converged,
        keys_recycled: compaction.keys_recycled + compaction.keys_dropped,
        final_metrics: cluster.metrics(),
        metadata_curve,
        wire: WireReport {
            totals: cluster.gossip_stats(),
            bytes_per_exchange_curve: wire_curve,
            converged_bytes_per_exchange: converged_bytes,
        },
    }
}

/// A remembered read of the concurrent driver (key by index, so the
/// oracle stripe resolves without hashing).
struct ThreadSnapshot<B: StoreBackend> {
    replica: usize,
    key_index: usize,
    read_ids: Vec<u64>,
    context: Option<B::Clock>,
}

/// The concurrent driver behind [`run_store_sim`] for `spec.threads > 1`:
/// every epoch splits its client sessions *and* its intra-island
/// anti-entropy pulls across OS threads over the one shared cluster, so
/// writes, reads and gossip genuinely interleave. Each thread runs
/// independent causal sessions — its own RNG stream and its own
/// stale-context pool — and the oracle is striped per key (sessions never
/// cross keys, so the happens-before DAG shards cleanly and recording is
/// not a global serialization point).
///
/// A write is recorded in its key's oracle stripe *before* the put lands
/// in the cluster, so any concurrent reader that observes the value finds
/// its causal record already in place; the stripe mutex provides the
/// ordering. Schedules are intentionally nondeterministic; the oracle
/// verdict (no lost updates, no false concurrency, no resurrections,
/// convergence) must still be exact.
fn run_store_sim_concurrent<B: StoreBackend>(backend: B, spec: &StoreSimSpec) -> StoreSimReport {
    let threads = spec.threads;
    let backend_label = backend.label();
    let mut cluster = Cluster::with_config(backend, spec.cluster_config());
    let keys: Vec<String> = (0..spec.keys.max(1)).map(|k| format!("key-{k}")).collect();
    let oracle: Vec<Mutex<KeyOracle>> =
        keys.iter().map(|_| Mutex::new(KeyOracle::default())).collect();
    let next_id = AtomicU64::new(1);
    let sessions = AtomicUsize::new(0);
    let false_concurrency = AtomicUsize::new(0);
    let mut pools: Vec<Vec<ThreadSnapshot<B>>> = (0..threads).map(|_| Vec::new()).collect();
    let mut island_of: Vec<usize> = (0..spec.replicas).map(|r| r % spec.islands.max(1)).collect();
    let heal_every = (spec.rounds / spec.islands.max(1)).max(1);
    let mut metadata_curve = Vec::with_capacity(spec.rounds);
    let mut wire_curve = Vec::with_capacity(spec.rounds);
    let mut wire_mark = cluster.gossip_stats();

    for round in 0..spec.rounds {
        let islands = island_of.clone();
        std::thread::scope(|scope| {
            for (t, pool) in pools.iter_mut().enumerate() {
                let (cluster, keys, oracle) = (&cluster, &keys, &oracle);
                let (next_id, sessions, false_concurrency) =
                    (&next_id, &sessions, &false_concurrency);
                let islands = &islands;
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(
                        spec.seed
                            ^ (round as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                            ^ ((t as u64 + 1) << 40),
                    );
                    let share = spec.ops_per_round / threads
                        + usize::from(t < spec.ops_per_round % threads);
                    for _ in 0..share {
                        let use_stale =
                            !pool.is_empty() && rng.gen_range(0..100u32) < spec.stale_percent;
                        let (replica, key_index, read_ids, context) = if use_stale {
                            let snapshot = pool.remove(rng.gen_range(0..pool.len()));
                            (
                                snapshot.replica,
                                snapshot.key_index,
                                snapshot.read_ids,
                                snapshot.context,
                            )
                        } else {
                            let replica = rng.gen_range(0..spec.replicas);
                            let key_index = rng.gen_range(0..keys.len());
                            let read = cluster.get(replica, &keys[key_index]);
                            let ids: Vec<u64> = read.iter_values().map(decode_id).collect();
                            let violations = oracle[key_index].lock().false_concurrency(&ids);
                            if violations > 0 {
                                false_concurrency.fetch_add(violations, Ordering::Relaxed);
                            }
                            if rng.gen_range(0..100u32) < 30 {
                                pool.push(ThreadSnapshot {
                                    replica,
                                    key_index,
                                    read_ids: ids.clone(),
                                    context: read.context().cloned(),
                                });
                                if pool.len() > 32 {
                                    pool.remove(0);
                                }
                            }
                            (replica, key_index, ids, read.context().cloned())
                        };
                        let id = next_id.fetch_add(1, Ordering::Relaxed);
                        let delete = rng.gen_range(0..100u32) < spec.delete_percent;
                        // Record before the write lands: a reader that sees
                        // the value finds its record already in place.
                        oracle[key_index].lock().record_write(id, &read_ids, delete);
                        if delete {
                            cluster.delete(replica, &keys[key_index], context.as_ref());
                        } else {
                            cluster.put(replica, &keys[key_index], encode_id(id), context.as_ref());
                        }
                        sessions.fetch_add(1, Ordering::Relaxed);
                    }
                    // This thread's share of the epoch's intra-island pulls,
                    // interleaved with the other threads' sessions.
                    let pulls = spec.replicas / threads + usize::from(t < spec.replicas % threads);
                    for _ in 0..pulls {
                        let a = rng.gen_range(0..spec.replicas);
                        let peers: Vec<usize> = (0..spec.replicas)
                            .filter(|&r| r != a && islands[r] == islands[a])
                            .collect();
                        if peers.is_empty() {
                            continue;
                        }
                        let b = peers[rng.gen_range(0..peers.len())];
                        cluster.anti_entropy(a, b);
                        cluster.anti_entropy(b, a);
                    }
                });
            }
        });
        // Heal: merge the highest island into the lowest remaining one.
        if (round + 1) % heal_every == 0 {
            if let Some(&highest) = island_of.iter().max() {
                if highest > 0 {
                    for island in island_of.iter_mut() {
                        if *island == highest {
                            *island = highest - 1;
                        }
                    }
                }
            }
        }
        metadata_curve.push(cluster.metrics().mean_key_metadata_bits);
        let wire_now = cluster.gossip_stats();
        wire_curve.push(bytes_per_exchange(wire_mark, wire_now));
        wire_mark = wire_now;
    }

    // Heal everything and settle serially, exactly like the serial driver.
    let mut converged = false;
    for _ in 0..spec.replicas * 2 + 4 {
        for a in 0..spec.replicas {
            for b in 0..spec.replicas {
                if a != b {
                    cluster.anti_entropy(a, b);
                }
            }
        }
        if cluster.converged() {
            converged = true;
            break;
        }
    }
    let settle_totals = cluster.gossip_stats();
    for _ in 0..CONVERGED_EPOCH_SWEEPS {
        for a in 0..spec.replicas {
            for b in 0..spec.replicas {
                if a != b {
                    cluster.anti_entropy(a, b);
                }
            }
        }
    }
    let converged_bytes = bytes_per_exchange(settle_totals, cluster.gossip_stats());
    pools.clear();
    let compaction = cluster.compact();

    let mut lost_updates = 0usize;
    let mut resurrections = 0usize;
    for (key, stripe) in keys.iter().zip(&oracle) {
        let expected = stripe.lock().expected_live();
        let got: BTreeSet<u64> = cluster.get(0, key).iter_values().map(decode_id).collect();
        lost_updates += expected.difference(&got).count();
        resurrections += got.difference(&expected).count();
    }

    StoreSimReport {
        backend: backend_label,
        sessions: sessions.into_inner(),
        writes: (next_id.into_inner() - 1) as usize,
        false_concurrency: false_concurrency.into_inner(),
        lost_updates,
        resurrections,
        converged,
        keys_recycled: compaction.keys_recycled + compaction.keys_dropped,
        final_metrics: cluster.metrics(),
        metadata_curve,
        wire: WireReport {
            totals: cluster.gossip_stats(),
            bytes_per_exchange_curve: wire_curve,
            converged_bytes_per_exchange: converged_bytes,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vstamp_store::{DynamicVvBackend, VstampBackend};

    #[test]
    fn partition_heal_is_exact_for_every_backend() {
        let spec = StoreSimSpec::partition_heal(6, 10, 42);
        for report in [
            run_store_sim(VstampBackend::gc(), &spec),
            run_store_sim(DynamicVvBackend::new(), &spec),
        ] {
            assert!(
                report.is_exact(),
                "{}: lost={} false_conc={} resurrect={} converged={}",
                report.backend,
                report.lost_updates,
                report.false_concurrency,
                report.resurrections,
                report.converged
            );
            assert!(report.writes > 0);
            assert_eq!(report.metadata_curve.len(), 10);
        }
    }

    #[test]
    fn churn_is_exact_for_every_backend() {
        let spec = StoreSimSpec::churn(4, 12, 7);
        for report in [
            run_store_sim(VstampBackend::gc(), &spec),
            run_store_sim(DynamicVvBackend::new(), &spec),
        ] {
            assert!(
                report.is_exact(),
                "{}: lost={} false_conc={} resurrect={} converged={}",
                report.backend,
                report.lost_updates,
                report.false_concurrency,
                report.resurrections,
                report.converged
            );
        }
    }

    #[test]
    fn gc_backend_keeps_metadata_below_the_baseline_growth() {
        // The headline store claim: version-stamp metadata adapts to the
        // frontier while dynamic-VV vectors grow with retired incarnations.
        let spec = StoreSimSpec::churn(4, 16, 3);
        let stamps = run_store_sim(VstampBackend::gc(), &spec);
        let dynamic = run_store_sim(DynamicVvBackend::new(), &spec);
        assert!(stamps.is_exact() && dynamic.is_exact());
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
        fn exact<B: StoreBackend>(backend: B, spec: &StoreSimSpec, what: &str) -> WireReport {
            let report = run_store_sim(backend, spec);
            assert!(
                report.is_exact(),
                "{what}: lost={} false_conc={} resurrect={} converged={}",
                report.lost_updates,
                report.false_concurrency,
                report.resurrections,
                report.converged
            );
            report.wire
        }
        fn gate<B: StoreBackend + Clone>(backend: B, spec: &StoreSimSpec) {
            let label = backend.label();
            let adaptive = exact(backend.clone(), spec, label);
            assert!(adaptive.totals.delta_frames > 0, "{label}: adaptive run must ship deltas");
            assert!(adaptive.totals.wire_bytes_saved > 0, "{label}: delta frames must save bytes");
            assert!(adaptive.totals.root_matches > 0, "{label}: the root probe never hit");
            assert!(adaptive.totals.versions_skipped > 0, "{label}: dedup never skipped a version");
            // 5x under the smallest whole-digest steady state on record
            // (149 B per converged exchange, CHANGES.md PR 21).
            assert!(
                adaptive.converged_bytes_per_exchange <= 29.0,
                "{label}: a converged exchange costs {:.1} B",
                adaptive.converged_bytes_per_exchange
            );
            assert_eq!(spec.rounds, adaptive.bytes_per_exchange_curve.len());
            let perturbed = exact(backend, &spec.with_perturbed_fingerprints(), label);
            assert!(perturbed.totals.nak_refetches > 0, "{label}: forced misses must NAK");
            assert_eq!(perturbed.totals.root_matches, 0, "{label}: a perturbed probe matched");
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
