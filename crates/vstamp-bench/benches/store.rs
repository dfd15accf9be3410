//! Store read/write-path microbenchmarks per backend at 1 / 4 / 16
//! siblings, without the full simulation around it — so a regression in
//! the backend write, sibling merge or read-snapshot path is visible
//! directly.
//!
//! Two groups:
//!
//! * `store-write` — one steady-state put-with-context session cycle (see
//!   below);
//! * `store-read` — `get` against a key holding k siblings: the
//!   contention-free snapshot path (`Cluster::get`, one `Arc` clone under
//!   the read lock).
//!
//! Each measured iteration is one steady-state **session cycle** on a
//! single-replica cluster that starts with one settled (re-minted)
//! version:
//!
//! 1. `k` stale (`None`-context) puts — the first supersedes the settled
//!    version, the rest become concurrent siblings, leaving exactly `k`;
//! 2. `get` — read the `k` siblings and the cached context;
//! 3. `put` with that context — the write path under measurement: it mints
//!    a clock and evicts all `k` siblings (matched-context fast path);
//! 4. `compact` — re-mints the now-settled key so identity depth cannot
//!    drift across iterations (one key, O(1) work).
//!
//! The cycle returns the cluster to its starting shape, so criterion can
//! iterate indefinitely; the reported time covers `k + 1` puts and a get,
//! with the context-carrying put at sibling count `k` as the headline.
//!
//! Run with `cargo bench -p vstamp-bench --bench store`; CI smoke-runs it
//! under `VSTAMP_BENCH_SMOKE=1` (fewer samples, same coverage).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use vstamp_store::{Cluster, DynamicVvBackend, StoreBackend, VstampBackend};

const KEY: &str = "bench-key";

/// One steady-state session cycle at sibling count `k`.
fn session_cycle<B: StoreBackend>(cluster: &mut Cluster<B>, k: usize) {
    // The first put supersedes the settled base version (works for both
    // the re-minted ε clock of stamps and the dotted clock of the
    // baseline); the remaining k − 1 are stale and become siblings.
    let base = cluster.get(0, KEY);
    cluster.put(0, KEY, vec![0], base.context());
    for i in 1..k {
        cluster.put(0, KEY, vec![i as u8], None);
    }
    let read = cluster.get(0, KEY);
    debug_assert_eq!(read.values().len(), k);
    cluster.put(0, KEY, b"resolved".to_vec(), read.context());
    cluster.compact();
}

/// Prepares a single-replica cluster whose key holds exactly `k` siblings.
fn cluster_with_siblings<B: StoreBackend>(backend: B, k: usize) -> Cluster<B> {
    let cluster = Cluster::new(backend, 1, 1);
    cluster.put(0, KEY, vec![0], None);
    for i in 1..k {
        cluster.put(0, KEY, vec![i as u8], None);
    }
    debug_assert_eq!(cluster.get(0, KEY).values().len(), k);
    cluster
}

fn bench_read_backend<B: StoreBackend>(
    group: &mut criterion::BenchmarkGroup<'_>,
    label: &str,
    backend: B,
    siblings: usize,
) {
    let cluster = cluster_with_siblings(backend, siblings);
    group.bench_with_input(
        BenchmarkId::new(format!("{label}/snapshot"), siblings),
        &siblings,
        |bench, _| {
            bench.iter(|| {
                let read = cluster.get(0, KEY);
                black_box(read.live_len());
            });
        },
    );
}

fn bench_get(c: &mut Criterion) {
    let smoke = std::env::var("VSTAMP_BENCH_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0");
    let mut group = c.benchmark_group("store-read");
    group.sample_size(if smoke { 5 } else { 15 });
    for siblings in [1usize, 4, 16] {
        bench_read_backend(&mut group, "version-stamps", VstampBackend::gc(), siblings);
        bench_read_backend(&mut group, "dynamic-vv", DynamicVvBackend::new(), siblings);
    }
    group.finish();
}

fn bench_backend<B: StoreBackend>(
    group: &mut criterion::BenchmarkGroup<'_>,
    label: &str,
    backend: B,
    siblings: usize,
) {
    let mut cluster = Cluster::new(backend, 1, 1);
    // Reach the steady-state starting shape: one settled version.
    cluster.put(0, KEY, b"seed".to_vec(), None);
    let read = cluster.get(0, KEY);
    cluster.put(0, KEY, b"base".to_vec(), read.context());
    cluster.compact();
    group.bench_with_input(BenchmarkId::new(label, siblings), &siblings, |bench, &k| {
        bench.iter(|| {
            session_cycle(&mut cluster, k);
            black_box(());
        });
    });
}

fn bench_put_with_context(c: &mut Criterion) {
    let smoke = std::env::var("VSTAMP_BENCH_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0");
    let mut group = c.benchmark_group("store-write");
    group.sample_size(if smoke { 5 } else { 15 });
    for siblings in [1usize, 4, 16] {
        bench_backend(&mut group, "version-stamps", VstampBackend::gc(), siblings);
        bench_backend(&mut group, "dynamic-vv", DynamicVvBackend::new(), siblings);
    }
    group.finish();
}

criterion_group!(store_write, bench_put_with_context);
criterion_group!(store_read, bench_get);
criterion_main!(store_write, store_read);
