//! Multi-threaded store stress: the causal oracle must stay exact when
//! sessions, reads and gossip genuinely interleave on OS threads.
//!
//! Two layers of stress, both sized to stay within a few seconds:
//!
//! * the sim's concurrent driver (`StoreSimSpec::with_threads`) over
//!   reduced partition/heal and churn grids, for all three backends —
//!   the first time the PR 3/4 store stack runs against real parallel
//!   interleavings with the oracle watching every read;
//! * a raw writer/reader/gossip scope test with its own independent
//!   mini-oracle, so the check does not share code with the sim driver.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use vstamp_sim::store_sim::{run_store_sim, StoreSimSpec};
use vstamp_store::{Cluster, ClusterConfig, DynamicVvBackend, VstampBackend};

fn assert_exact(report: &vstamp_sim::store_sim::StoreSimReport, what: &str) {
    assert!(
        report.is_exact(),
        "{what} [{}]: lost={} false_conc={} resurrect={} converged={}",
        report.backend,
        report.lost_updates,
        report.false_concurrency,
        report.resurrections,
        report.converged
    );
}

#[test]
fn concurrent_partition_heal_is_exact_for_every_backend() {
    let spec = StoreSimSpec::partition_heal(6, 6, 2026).with_threads(4);
    assert_exact(&run_store_sim(VstampBackend::gc(), &spec), "partition-heal");
    assert_exact(&run_store_sim(DynamicVvBackend::new(), &spec), "partition-heal");
}

#[test]
fn concurrent_churn_is_exact_for_every_backend() {
    let spec = StoreSimSpec::churn(4, 8, 77).with_threads(3);
    assert_exact(&run_store_sim(VstampBackend::gc(), &spec), "churn");
    assert_exact(&run_store_sim(DynamicVvBackend::new(), &spec), "churn");
}

#[test]
fn concurrent_runs_report_sessions_and_stay_exact() {
    let spec = StoreSimSpec::churn(4, 6, 9).with_threads(4);
    let report = run_store_sim(VstampBackend::gc(), &spec);
    assert_exact(&report, "churn");
    assert_eq!(report.sessions, spec.rounds * spec.ops_per_round);
    assert_eq!(report.writes, report.sessions);
    assert_eq!(report.metadata_curve.len(), spec.rounds);
}

/// N writer threads + M reader threads + a gossip worker over a small key
/// space, against an oracle maintained independently of the sim driver:
/// per key, the set of `(id, reads-it-covered)` records under a mutex.
#[test]
fn raw_writer_reader_gossip_scope_is_causally_sound() {
    const KEYS: usize = 4;
    const WRITERS: usize = 3;
    const READERS: usize = 2;
    const WRITES_PER_WRITER: usize = 120;

    let cluster = Cluster::with_config(VstampBackend::gc(), ClusterConfig::new(3, 8));
    let keys: Vec<String> = (0..KEYS).map(|k| format!("stress-{k}")).collect();
    // Mini-oracle: per key, id → transitive causal closure.
    let oracle: Vec<Mutex<BTreeMap<u64, BTreeSet<u64>>>> =
        (0..KEYS).map(|_| Mutex::new(BTreeMap::new())).collect();
    let next_id = AtomicU64::new(1);
    let violations = AtomicUsize::new(0);
    let done = AtomicBool::new(false);

    let decode = |v: &[u8]| u64::from_le_bytes(v.try_into().expect("8-byte ids"));
    let check_read = |key_index: usize, ids: &[u64]| {
        let closures = oracle[key_index].lock().expect("oracle lock");
        for (i, a) in ids.iter().enumerate() {
            for b in &ids[i + 1..] {
                let covers =
                    |x: &u64, y: &u64| closures.get(x).is_some_and(|closure| closure.contains(y));
                if covers(a, b) || covers(b, a) {
                    violations.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    };

    std::thread::scope(|scope| {
        for w in 0..WRITERS {
            let (cluster, keys, oracle, next_id) = (&cluster, &keys, &oracle, &next_id);
            let check_read = &check_read;
            scope.spawn(move || {
                let mut state = 0x1234_5678_9abc_def0u64 ^ (w as u64) << 17;
                for _ in 0..WRITES_PER_WRITER {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    let key_index = (state >> 8) as usize % KEYS;
                    let replica = (state >> 24) as usize % 3;
                    let read = cluster.get(replica, &keys[key_index]);
                    let ids: Vec<u64> = read.iter_values().map(decode).collect();
                    check_read(key_index, &ids);
                    let id = next_id.fetch_add(1, Ordering::Relaxed);
                    {
                        // Record (with closure) before the put lands.
                        let mut closures = oracle[key_index].lock().expect("oracle lock");
                        let mut closure: BTreeSet<u64> = ids.iter().copied().collect();
                        for seen in &ids {
                            if let Some(upstream) = closures.get(seen) {
                                closure.extend(upstream.iter().copied());
                            }
                        }
                        closures.insert(id, closure);
                    }
                    cluster.put(
                        replica,
                        &keys[key_index],
                        id.to_le_bytes().to_vec(),
                        read.context(),
                    );
                }
            });
        }
        for r in 0..READERS {
            let (cluster, keys, done) = (&cluster, &keys, &done);
            let check_read = &check_read;
            scope.spawn(move || {
                let mut state = 0xfeed_face_cafe_beefu64 ^ (r as u64) << 29;
                while !done.load(Ordering::Acquire) {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    let key_index = (state >> 11) as usize % KEYS;
                    let replica = (state >> 31) as usize % 3;
                    let read = cluster.get(replica, &keys[key_index]);
                    let ids: Vec<u64> = read.iter_values().map(decode).collect();
                    check_read(key_index, &ids);
                    // Keep the reader preemptible on single-core hosts.
                    std::thread::yield_now();
                }
            });
        }
        // One gossip worker pulling pairs until the writers finish.
        {
            let (cluster, done) = (&cluster, &done);
            scope.spawn(move || {
                let mut round = 0usize;
                while !done.load(Ordering::Acquire) {
                    let a = round % 3;
                    let b = (round + 1) % 3;
                    cluster.anti_entropy(a, b);
                    cluster.anti_entropy(b, a);
                    round += 1;
                }
            });
        }
        // Watchdog: flip `done` once every writer id has been allocated,
        // so the readers and the gossip worker stop and the scope joins.
        scope.spawn(|| {
            // Busy-wait until every writer id has been allocated, then give
            // in-flight puts a moment and stop the readers and gossip.
            let total = (WRITERS * WRITES_PER_WRITER) as u64;
            while next_id.load(Ordering::Relaxed) <= total {
                std::thread::yield_now();
            }
            std::thread::sleep(std::time::Duration::from_millis(50));
            done.store(true, Ordering::Release);
        });
    });

    assert_eq!(violations.load(Ordering::Relaxed), 0, "false concurrency observed");

    // Settle: full sweeps until converged, then every maximal write must
    // survive somewhere (no lost updates at the top of the DAG).
    let mut converged = false;
    for _ in 0..10 {
        for a in 0..3 {
            for b in 0..3 {
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
    assert!(converged, "stress cluster failed to converge");
    for (key_index, key) in keys.iter().enumerate() {
        let closures = oracle[key_index].lock().expect("oracle lock");
        let all: Vec<u64> = closures.keys().copied().collect();
        let maximal: BTreeSet<u64> = all
            .iter()
            .copied()
            .filter(|id| !all.iter().any(|other| closures[other].contains(id)))
            .collect();
        let got: BTreeSet<u64> = cluster.get(0, key).iter_values().map(decode).collect();
        for id in &maximal {
            assert!(got.contains(id), "lost update {id} on {key}");
        }
        for id in &got {
            assert!(maximal.contains(id), "resurrected {id} on {key}");
        }
    }
}
