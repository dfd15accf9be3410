//! Experiments E1–E4 (bench form) — replaying the figure scenarios against
//! every mechanism; mostly a regression guard that the scenarios stay cheap
//! and deterministic.

use criterion::{criterion_group, criterion_main, Criterion};
use vstamp_baselines::FixedVersionVectorMechanism;
use vstamp_core::causal::CausalMechanism;
use vstamp_core::VersionStampMechanism;
use vstamp_sim::scenario::{figure1, figure2, stamp_walkthrough};

fn bench_figures(c: &mut Criterion) {
    let fig1 = figure1();
    let fig2 = figure2();

    c.bench_function("figure1/version-vectors", |b| {
        b.iter(|| fig1.replay(FixedVersionVectorMechanism::new()))
    });
    c.bench_function("figure1/version-stamps", |b| {
        b.iter(|| fig1.replay(VersionStampMechanism::reducing()))
    });
    c.bench_function("figure2/causal-histories", |b| {
        b.iter(|| fig2.replay(CausalMechanism::new()))
    });
    c.bench_function("figure4/stamp-walkthrough", |b| b.iter(|| stamp_walkthrough(&fig2)));
}

criterion_group!(benches, bench_figures);
criterion_main!(benches);
