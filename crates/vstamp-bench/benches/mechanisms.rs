//! Experiment E8 (bench form) — end-to-end trace replay throughput per
//! mechanism: how fast each mechanism can process the same fork/join/update
//! workload.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use vstamp_baselines::{
    DottedMechanism, DynamicVersionVectorMechanism, FixedVersionVectorMechanism,
    VectorClockMechanism,
};
use vstamp_core::causal::CausalMechanism;
use vstamp_core::{Configuration, Mechanism, Trace, VersionStampMechanism};
use vstamp_itc::ItcMechanism;
use vstamp_sim::workload::{generate, OperationMix, WorkloadSpec};

fn replay<M: Mechanism>(mechanism: M, trace: &Trace) -> usize {
    let mut config = Configuration::new(mechanism);
    config.apply_trace(trace).expect("trace replays cleanly");
    config.len()
}

fn bench_replay(c: &mut Criterion) {
    // Kept at a scale every mechanism can replay: stamp identities fragment
    // superlinearly at wider replica bounds (see ROADMAP "Open items").
    let trace = generate(
        &WorkloadSpec::new(800, 8, vstamp_bench::DEFAULT_SEED).with_mix(OperationMix::balanced()),
    );
    let mut group = c.benchmark_group("trace-replay");
    group.throughput(Throughput::Elements(trace.len() as u64));
    group.sample_size(20);

    group.bench_with_input(BenchmarkId::from_parameter("version-stamps"), &trace, |b, t| {
        b.iter(|| replay(VersionStampMechanism::reducing(), t))
    });
    // The non-reducing mechanism replays a short prefix only: without the
    // Section-6 rule its identities grow exponentially with sync cycles.
    let nonreducing_prefix = vstamp_bench::truncated(&trace, vstamp_bench::NON_REDUCING_OPS);
    group.bench_with_input(
        BenchmarkId::from_parameter(format!(
            "version-stamps-nonreducing-{}op-prefix",
            vstamp_bench::NON_REDUCING_OPS
        )),
        &nonreducing_prefix,
        |b, t| b.iter(|| replay(VersionStampMechanism::non_reducing(), t)),
    );
    group.bench_with_input(BenchmarkId::from_parameter("version-vectors"), &trace, |b, t| {
        b.iter(|| replay(FixedVersionVectorMechanism::new(), t))
    });
    group.bench_with_input(
        BenchmarkId::from_parameter("dynamic-version-vectors"),
        &trace,
        |b, t| b.iter(|| replay(DynamicVersionVectorMechanism::new(), t)),
    );
    group.bench_with_input(BenchmarkId::from_parameter("vector-clocks"), &trace, |b, t| {
        b.iter(|| replay(VectorClockMechanism::new(), t))
    });
    group.bench_with_input(
        BenchmarkId::from_parameter("dotted-version-vectors"),
        &trace,
        |b, t| b.iter(|| replay(DottedMechanism::new(), t)),
    );
    group.bench_with_input(BenchmarkId::from_parameter("causal-histories"), &trace, |b, t| {
        b.iter(|| replay(CausalMechanism::new(), t))
    });
    group.bench_with_input(BenchmarkId::from_parameter("interval-tree-clocks"), &trace, |b, t| {
        b.iter(|| replay(ItcMechanism::new(), t))
    });
    group.finish();
}

criterion_group!(benches, bench_replay);
criterion_main!(benches);
