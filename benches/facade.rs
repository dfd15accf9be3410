//! Facade-level criterion bench: the end-to-end quickstart path (fork,
//! update, compare, join, encode) exercised through the `vstamp` facade
//! crate, so downstream users can gauge the cost of the public API as they
//! would consume it. The full experiment harness lives in `vstamp-bench`.

use criterion::{criterion_group, criterion_main, Criterion};
use vstamp::{BitTrieCodec, PackedName, StampCodec, VersionStamp};

fn bench_facade_roundtrip(c: &mut Criterion) {
    c.bench_function("facade/fork-update-compare-join", |b| {
        b.iter(|| {
            let (a, rest) = VersionStamp::seed().fork();
            let (x, y) = rest.fork();
            let a = a.update();
            let x = x.update();
            let relation = a.relation(&x);
            let merged = a.join(&x).join(&y);
            (relation, merged)
        })
    });

    let (a, b) = VersionStamp::seed().fork();
    let stamp = a.update().join_non_reducing(&b);
    c.bench_function("facade/encode-decode", |bench| {
        bench.iter(|| {
            let bytes = BitTrieCodec.encode_stamp(&stamp);
            StampCodec::<PackedName>::decode_stamp(&BitTrieCodec, &bytes).expect("valid encoding")
        })
    });
}

criterion_group!(benches, bench_facade_roundtrip);
criterion_main!(benches);
