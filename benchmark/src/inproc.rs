//! The in-process driver: one `Cluster`, one thread, no sockets. It is the
//! `store-inproc` workload, and — replaying a node workload's schedule on
//! either backend — the source of every `backend.*` figure.
//!
//! Replication is driven by the session count, as a node's is by its
//! gossip timer: every [`exchange_every`] sessions one replica pulls from its
//! ring neighbour. After the sessions, on the settled store, marker writes
//! time what it takes to carry one version to the other replicas
//! ([`measure_lag`]) and to heal a replica that was cut off
//! ([`measure_heal`]) — the node driver's replication phase, with the
//! exchanges called back to back instead of on a timer.

use std::time::Instant;

use vstamp_store::wire::{decode_delta, decode_nak, encode_delta, encode_nak};
use vstamp_store::{Cluster, DeltaPolicy, ExchangeStats, StoreBackend, VstampBackend};

use crate::layers::Sampled;
use crate::oracle::{self, Event, Oracle, ORACLE_KEYS};
use crate::spec::{id_of, key_name, value_for, Kind, Session};
use crate::trace::{Open, Tracer};
use crate::util::{ns_since, Failures, Rng};

pub const REPLICAS: usize = 3;
pub const SHARDS: usize = 16;
/// Lag markers per run, one at a time.
pub const LAG_MARKERS: usize = 36;
/// Versions written while a replica is cut off, a third of them behind
/// the cut (the exchange probe's divergence, `layers::EXCHANGE_WRITES`).
const CUT_WRITES: usize = 256;
/// Dedicated marker keys.
pub const PROBE_KEYS: usize = 12;
/// Remembered reads a stale write can pick its context from.
const REMEMBERED: usize = 64;
/// Share of the run, at its end, whose contexts are sized and harvested.
pub const TAIL_SHARE: usize = 10;
const HARVEST_CAP: usize = 512;

/// Sessions between two ring exchanges. An exchange costs a digest over
/// every key whatever changed, so the cadence scales with the key count
/// and replication takes a steady share of the run, not all of it.
pub fn exchange_every(keys: usize) -> usize {
    keys / 2
}

pub fn probe_key_name(index: usize) -> String {
    format!("probe-{index}")
}

/// Id of the write that roots `key` in set-up; markers root after the keys.
pub fn root_id(key: u32) -> u64 {
    u64::from(key) + 1
}

/// Builds the cluster and roots every key round-robin across the
/// replicas, then sweeps until the replicas agree. Returns the seconds
/// that took — the in-process `setup_s`.
pub fn build<B: StoreBackend>(backend: B, keys: usize) -> (Cluster<B>, f64) {
    let started = Instant::now();
    let cluster = Cluster::new(backend, REPLICAS, SHARDS);
    for key in 0..keys {
        cluster.put(key % REPLICAS, &key_name(key as u32), value_for(root_id(key as u32)), None);
    }
    for probe in 0..PROBE_KEYS {
        let id = (keys + probe) as u64 + 1;
        cluster.put(probe % REPLICAS, &probe_key_name(probe), value_for(id), None);
    }
    settle(&cluster);
    (cluster, started.elapsed().as_secs_f64())
}

pub fn roots_agree<B: StoreBackend>(cluster: &Cluster<B>) -> bool {
    let root = cluster.digest_root(0);
    (1..REPLICAS).all(|replica| cluster.digest_root(replica) == root)
}

/// Full pull sweeps until every replica reports one digest root; returns
/// the exchanges' summed stats.
pub fn settle<B: StoreBackend>(cluster: &Cluster<B>) -> Vec<ExchangeStats> {
    let mut stats = Vec::new();
    // Two sweeps converge any divergence; the bound only stops a store
    // that cannot converge from hanging the run (the caller then fails on
    // `roots_agree`).
    for _ in 0..8 {
        if roots_agree(cluster) {
            break;
        }
        for requester in 0..REPLICAS {
            for responder in (0..REPLICAS).filter(|&r| r != requester) {
                stats.push(cluster.anti_entropy(requester, responder));
            }
        }
    }
    stats
}

/// What a drive hands every sampled session to (the layer probes).
pub type Sampler<'s, B> =
    dyn FnMut(&mut Tracer, Open, u32, Sampled<'_, <B as StoreBackend>::Clock>) + 's;

/// What one drive over a schedule measured.
pub struct Driven<B: StoreBackend> {
    pub window_s: f64,
    pub get_ns: Vec<f64>,
    pub put_ns: Vec<f64>,
    pub delete_ns: Vec<f64>,
    pub anti_entropy_us: Vec<f64>,
    pub ctx_tail_bytes: Vec<f64>,
    pub tail_contexts: Vec<B::Clock>,
    pub exchanges: Vec<ExchangeStats>,
    /// Versions written: puts and deletes.
    pub versions: u64,
    pub attempted: u64,
    pub failures: Failures,
    pub log: Vec<Event>,
    pub next_id: u64,
}

struct Remembered<B: StoreBackend> {
    key: u32,
    ctx: Option<B::Clock>,
    ids: Vec<u64>,
}

/// Runs `sessions` against `cluster`, one ring exchange every
/// [`exchange_every`] sessions. `follow` logs the followed keys' reads and
/// writes for the oracle.
pub fn drive<B: StoreBackend>(
    cluster: &Cluster<B>,
    keys: usize,
    sessions: &[Session],
    follow: bool,
    tracer: &mut Tracer,
    sampler: &mut Sampler<'_, B>,
) -> Driven<B> {
    let epoch = Instant::now();
    let exchange_every = exchange_every(keys);
    let probe_every = crate::layers::probe_every(sessions.len());
    let backend = cluster.backend();
    let mut out = Driven {
        window_s: 0.0,
        get_ns: Vec::with_capacity(sessions.len()),
        put_ns: Vec::new(),
        delete_ns: Vec::new(),
        anti_entropy_us: Vec::new(),
        ctx_tail_bytes: Vec::new(),
        tail_contexts: Vec::new(),
        exchanges: Vec::new(),
        versions: 0,
        attempted: 0,
        failures: Failures::default(),
        log: Vec::new(),
        next_id: (keys + PROBE_KEYS) as u64 + 1,
    };
    let key_names: Vec<String> = (0..keys as u32).map(key_name).collect();
    let mut remembered: Vec<Remembered<B>> = Vec::new();
    let mut scratch = Vec::new();
    let tail_from = sessions.len() - sessions.len() / TAIL_SHARE;

    for (index, session) in sessions.iter().enumerate() {
        let sid = index as u32;
        if index % exchange_every == 0 && index > 0 {
            let step = index / exchange_every;
            let (stats, ns) = tracer.time("cluster.anti_entropy", Open::NONE, sid, || {
                cluster.anti_entropy(step % REPLICAS, (step + 1) % REPLICAS)
            });
            out.anti_entropy_us.push(ns as f64 / 1e3);
            out.exchanges.push(stats);
        }

        // The session itself.
        let replica = session.node as usize;
        let hot = follow && oracle::follows(session.key);
        let root = tracer.open("session", Open::NONE, sid);
        let stale = (session.kind == Kind::StaleRmw && !remembered.is_empty())
            .then(|| session.aux as usize % remembered.len());
        let key = stale.map_or(session.key, |slot| remembered[slot].key);
        let name = &key_names[key as usize];

        if session.kind == Kind::Blind {
            let id = out.next_id;
            out.next_id += 1;
            if hot {
                out.log.push(Event::Write {
                    at_ns: ns_since(epoch),
                    key,
                    id,
                    read: Vec::new(),
                    delete: false,
                });
            }
            let (_, ns) = tracer
                .time("cluster.put", root, sid, || cluster.put(replica, name, value_for(id), None));
            out.put_ns.push(ns as f64);
            out.attempted += 1;
            out.versions += 1;
        } else if let Some(slot) = stale {
            let id = out.next_id;
            out.next_id += 1;
            let memory = &remembered[slot];
            if follow && oracle::follows(key) {
                out.log.push(Event::Write {
                    at_ns: ns_since(epoch),
                    key,
                    id,
                    read: memory.ids.clone(),
                    delete: false,
                });
            }
            let (_, ns) = tracer.time("cluster.put", root, sid, || {
                cluster.put(replica, name, value_for(id), memory.ctx.as_ref())
            });
            out.put_ns.push(ns as f64);
            out.attempted += 1;
            out.versions += 1;
        } else {
            let (read, ns) = tracer.time("cluster.get", root, sid, || cluster.get(replica, name));
            out.get_ns.push(ns as f64);
            out.attempted += 1;
            let mut ids = Vec::new();
            for value in read.iter_values() {
                match id_of(value) {
                    Some(id) => ids.push(id),
                    None => {
                        out.failures.fail(format!("{name}: a value this benchmark never wrote"))
                    }
                }
            }
            if hot {
                out.log.push(Event::Read { at_ns: ns_since(epoch), key, ids: ids.clone() });
            }
            if index >= tail_from {
                scratch.clear();
                if let Some(ctx) = read.context() {
                    backend.encode_clock(ctx, &mut scratch);
                    if out.tail_contexts.len() < HARVEST_CAP {
                        out.tail_contexts.push(ctx.clone());
                    }
                }
                out.ctx_tail_bytes.push(scratch.len() as f64);
            }
            if session.aux & 7 == 0 {
                let memory = Remembered { key, ctx: read.context().cloned(), ids: ids.clone() };
                if remembered.len() < REMEMBERED {
                    remembered.push(memory);
                } else {
                    remembered[(session.aux >> 3) as usize % REMEMBERED] = memory;
                }
            }
            let wrote = session.kind != Kind::Get;
            let delete = session.kind == Kind::Delete;
            if wrote {
                let id = out.next_id;
                out.next_id += 1;
                if hot {
                    out.log.push(Event::Write {
                        at_ns: ns_since(epoch),
                        key,
                        id,
                        read: ids,
                        delete,
                    });
                }
                if delete {
                    let (_, ns) = tracer.time("cluster.delete", root, sid, || {
                        cluster.delete(replica, name, read.context())
                    });
                    out.delete_ns.push(ns as f64);
                } else {
                    let (_, ns) = tracer.time("cluster.put", root, sid, || {
                        cluster.put(replica, name, value_for(id), read.context())
                    });
                    out.put_ns.push(ns as f64);
                }
                out.attempted += 1;
                out.versions += 1;
            }
            if tracer.enabled() && sid.is_multiple_of(probe_every) {
                let op = Sampled {
                    key: name,
                    siblings: read.live_len(),
                    ctx: read.context(),
                    wrote,
                    delete,
                };
                sampler(tracer, root, sid, op);
            }
        }
        tracer.close(root);
    }
    out.window_s = epoch.elapsed().as_secs_f64();
    out
}

/// What the replication phase measured.
#[derive(Default)]
pub struct Replication {
    pub lag_ms: Vec<f64>,
    pub heal_ms: Vec<f64>,
    pub attempted: u64,
    pub failures: Failures,
}

/// A marker on one of the dedicated keys: read, then written with the
/// context read, as the node driver's markers are.
fn write_marker<B: StoreBackend>(
    cluster: &Cluster<B>,
    out: &mut Replication,
    (probe, writer, id): (usize, usize, u64),
) {
    let name = probe_key_name(probe);
    let read = cluster.get(writer, &name);
    if read.live_len() != 1 {
        out.failures.fail(format!("{name}: {} siblings under one writer", read.live_len()));
    }
    cluster.put(writer, &name, value_for(id), read.context());
    out.attempted += 2;
}

fn marker_everywhere<B: StoreBackend>(cluster: &Cluster<B>, probe: usize, id: u64) -> bool {
    let name = probe_key_name(probe);
    (0..REPLICAS).all(|replica| {
        let read = cluster.get(replica, &name);
        read.live_len() == 1 && read.iter_values().all(|value| id_of(value) == Some(id))
    })
}

/// Replication lag without a gossip timer: a marker is written at one
/// replica and the ring pulls it round — the neighbour from the writer,
/// the third replica from the neighbour. Each arrival is one lag sample:
/// what one exchange takes, and what two do, digests over every key
/// included. Ids are drawn from `next_id`.
pub fn measure_lag<B: StoreBackend>(
    cluster: &Cluster<B>,
    seed: u64,
    next_id: &mut u64,
    out: &mut Replication,
) {
    let mut rng = Rng::stream(seed, "inproc-markers", 0);
    for marker in 0..LAG_MARKERS {
        let (probe, writer, id) =
            (marker % PROBE_KEYS, rng.below(REPLICAS as u64) as usize, *next_id);
        *next_id += 1;
        write_marker(cluster, out, (probe, writer, id));
        let written = Instant::now();
        let (second, third) = ((writer + 2) % REPLICAS, (writer + 1) % REPLICAS);
        cluster.anti_entropy(second, writer);
        out.lag_ms.push(written.elapsed().as_secs_f64() * 1e3);
        cluster.anti_entropy(third, second);
        out.lag_ms.push(written.elapsed().as_secs_f64() * 1e3);
        out.attempted += REPLICAS as u64;
        if !marker_everywhere(cluster, probe, id) {
            out.failures.fail(format!("probe-{probe}: marker {id} did not go round the ring"));
        }
    }
}

/// Heals after a cut: while nobody exchanges, `CUT_WRITES` causal writes
/// land on keys the oracle does not follow — a third of them, and a marker,
/// at the victim — and the heal is the time full pull sweeps then take
/// until every replica reports one digest root.
pub fn measure_heal<B: StoreBackend>(
    cluster: &Cluster<B>,
    keys: usize,
    cycles: usize,
    seed: u64,
    next_id: &mut u64,
    out: &mut Replication,
) {
    let mut rng = Rng::stream(seed, "inproc-cuts", 0);
    let cold = u64::from(ORACLE_KEYS)..keys as u64;
    for cycle in 0..cycles {
        let victim = cycle % REPLICAS;
        for _ in 0..CUT_WRITES {
            let name = key_name((cold.start + rng.below(cold.end - cold.start)) as u32);
            let replica = match rng.below(3) {
                0 => victim,
                _ => (victim + 1 + rng.below(2) as usize) % REPLICAS,
            };
            let read = cluster.get(replica, &name);
            cluster.put(replica, &name, value_for(*next_id), read.context());
            *next_id += 1;
        }
        let probe = cycle % PROBE_KEYS;
        let marker = *next_id;
        *next_id += 1;
        write_marker(cluster, out, (probe, victim, marker));
        let unblocked = Instant::now();
        settle(cluster);
        out.heal_ms.push(unblocked.elapsed().as_secs_f64() * 1e3);
        out.attempted += REPLICAS as u64;
        if !roots_agree(cluster) || !marker_everywhere(cluster, probe, marker) {
            out.failures.fail(format!("cut {cycle}: replica {victim} did not heal"));
        }
    }
}

/// What the compaction boundary did and how long it took.
#[derive(Debug, Clone, Copy)]
pub struct Compacted {
    pub ms: f64,
    pub keys_recycled: usize,
}

pub fn compact<B: StoreBackend>(cluster: &mut Cluster<B>) -> Compacted {
    let started = Instant::now();
    let stats = cluster.compact();
    Compacted { ms: started.elapsed().as_secs_f64() * 1e3, keys_recycled: stats.keys_recycled }
}

/// The in-process late joiner: an empty single-replica store sends its
/// (empty) digest, and everything replica 0 answers crosses the wire codec
/// and is adopted — what a joining node does on its first exchange.
/// Returns the milliseconds it took and whether every key arrived.
pub fn catch_up(cluster: &Cluster<VstampBackend>) -> (f64, bool) {
    let started = Instant::now();
    let joiner = Cluster::new(VstampBackend::gc(), 1, SHARDS);
    let (deltas, _) = cluster.respond_delta(0, &joiner.build_digest(0));
    let (payload, _) = encode_delta(cluster.backend(), &deltas, DeltaPolicy::ADAPTIVE);
    let Ok(decoded) = decode_delta(joiner.backend(), &payload) else { return (0.0, false) };
    let misses = joiner.apply_delta_batch(0, decoded);
    let mut complete = true;
    if !misses.is_empty() {
        let Ok(wanted) = decode_nak(&encode_nak(&misses)) else { return (0.0, false) };
        let refetch = cluster.respond_nak(0, &wanted);
        let (payload, _) = encode_delta(cluster.backend(), &refetch, DeltaPolicy::FULL_ONLY);
        let Ok(decoded) = decode_delta(joiner.backend(), &payload) else { return (0.0, false) };
        complete = joiner.apply_delta_batch(0, decoded).is_empty();
    }
    let ms = started.elapsed().as_secs_f64() * 1e3;
    (ms, complete && joiner.build_digest(0).len() == cluster.build_digest(0).len())
}

/// Reads every followed key at every replica and holds the result against
/// the replayed oracle.
pub fn check_final<B: StoreBackend>(cluster: &Cluster<B>, oracle: &mut Oracle) -> u64 {
    let mut reads = 0;
    for key in 0..ORACLE_KEYS {
        let name = key_name(key);
        for replica in 0..REPLICAS {
            let ids: Vec<u64> =
                cluster.get(replica, &name).iter_values().filter_map(id_of).collect();
            oracle.check_final(key, replica, &ids);
            reads += 1;
        }
    }
    reads
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{schedule, workload};
    use vstamp_store::{DynamicVvBackend, VstampBackend};

    fn drive_small<B: StoreBackend>(backend: B, seed: u64) -> (Cluster<B>, Driven<B>) {
        let mut spec = *workload("store-inproc").unwrap();
        spec.keys = 600;
        let sessions = schedule(&spec, seed, 0, 45_000);
        let (cluster, _) = build(backend, spec.keys);
        let mut tracer = Tracer::new(false, Instant::now(), 0);
        let driven = drive(&cluster, spec.keys, &sessions, true, &mut tracer, &mut |_, _, _, _| {});
        (cluster, driven)
    }

    #[test]
    fn a_drive_passes_the_oracle_and_measures_every_phase() {
        let (cluster, driven) = drive_small(VstampBackend::gc(), 3);
        assert_eq!(driven.failures.count, 0, "{:?}", driven.failures.notes);
        assert!(!driven.delete_ns.is_empty() && !driven.put_ns.is_empty());
        assert!(!driven.ctx_tail_bytes.is_empty() && !driven.tail_contexts.is_empty());
        assert_eq!(driven.exchanges.len(), 45_000 / exchange_every(600) - 1);
        settle(&cluster);
        assert!(roots_agree(&cluster) && cluster.converged());

        let mut replication = Replication::default();
        let mut next_id = driven.next_id;
        measure_lag(&cluster, 3, &mut next_id, &mut replication);
        measure_heal(&cluster, 600, 4, 3, &mut next_id, &mut replication);
        assert_eq!(replication.failures.count, 0, "{:?}", replication.failures.notes);
        assert_eq!((replication.lag_ms.len(), replication.heal_ms.len()), (2 * LAG_MARKERS, 4));
        assert!(roots_agree(&cluster) && cluster.converged());

        // Rank 0 included: the oracle follows the hottest keys.
        let mut oracle = Oracle::rooted(root_id);
        oracle.replay(vec![driven.log]);
        check_final(&cluster, &mut oracle);
        assert_eq!(oracle.violations, 0, "{:?}", oracle.notes);
        assert!(oracle.reads_checked > 1000);
    }

    #[test]
    fn counts_repeat_exactly_and_the_baseline_replays_the_same_schedule() {
        let (a_cluster, a) = drive_small(VstampBackend::gc(), 4);
        let (b_cluster, b) = drive_small(VstampBackend::gc(), 4);
        let bytes = |d: &Driven<VstampBackend>| -> usize {
            d.exchanges.iter().map(|s| s.digest_bytes + s.delta_bytes).sum()
        };
        assert_eq!(bytes(&a), bytes(&b));
        assert_eq!(a.versions, b.versions);
        assert_eq!(
            a_cluster.metrics().mean_key_metadata_bits,
            b_cluster.metrics().mean_key_metadata_bits
        );
        let (dvv_cluster, dvv) = drive_small(DynamicVvBackend::new(), 4);
        assert_eq!(dvv.failures.count, 0, "{:?}", dvv.failures.notes);
        assert_eq!(dvv.versions, a.versions);
        settle(&dvv_cluster);
        assert!(dvv_cluster.converged());
    }
}
