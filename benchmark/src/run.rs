//! One run of one workload: set-up (several times, for a steady
//! `setup_s`), the measured window, the correctness gate, and — in the
//! traced pass — the layer probes. Produces the named metrics.

use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::sync::Barrier;
use std::thread;
use std::time::{Duration, Instant};

use vstamp_core::PackedName;
use vstamp_store::{DynamicVvBackend, NodeStatus, StoreBackend, StoreMetrics, VstampBackend};

use crate::inproc::{self, Driven};
use crate::layers::{
    self, AlgebraSamples, EchoServer, ExchangeSamples, LayerSamples, MembershipSamples,
    SessionProbe,
};
use crate::node_run::{self, ClientJob, NodeCluster};
use crate::nodes::{NodeProc, LIVE_CHILDREN};
use crate::oracle::Oracle;
use crate::procfs::ProcSample;
use crate::spec::{
    schedule, schedule_digest, Mode, Session, Spec, END_TO_END, NODE_KEYS, PER_LAYER,
};
use crate::trace::{self, Span, Tracer};
use crate::util::{mean, median, quantile, sliced, Failures, SLICES};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Length of the traced pass's idle window.
const IDLE_WINDOW: Duration = Duration::from_millis(1500);
/// Cuts the traced pass heals after the window.
const HEAL_CUTS: usize = 8;
/// Exchanges the traced pass decomposes step by step.
const EXCHANGE_ROUNDS: usize = 12;
const MEMBERSHIP_ROUNDS: usize = 32;

/// The result of a run, as the driver's contract wants it printed.
#[derive(Debug)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in table order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub digest: u64,
    pub notes: Vec<String>,
}

/// Everything a run collects before it is boiled down to metrics.
#[derive(Default)]
struct Collected {
    setup_s: Vec<f64>,
    sessions: u64,
    window_s: f64,
    get_ns: Vec<f64>,
    put_ns: Vec<f64>,
    ctx_tail_bytes: Vec<f64>,
    lag_ms: Vec<f64>,
    /// Slices the lag samples are cut into (`util::sliced`).
    lag_slices: usize,
    heal_ms: Vec<f64>,
    repl_bytes: u64,
    versions: u64,
    attempted: u64,
    failures: Failures,
    /// Per-layer values by metric name (traced pass).
    layer: BTreeMap<&'static str, f64>,
}

impl Collected {
    fn fail(&mut self, note: impl Into<String>) {
        self.failures.fail(note);
    }

    fn absorb_oracle(&mut self, oracle: Oracle) {
        self.failures.absorb(Failures { count: oracle.violations, notes: oracle.notes });
        self.layer.insert("client.oracle_reads_checked", oracle.reads_checked as f64);
    }

    /// Sets a per-layer metric, if there is a measurement to set it from.
    /// One left unset fails the run when the metrics are printed: a
    /// made-up 0 would read as a measurement.
    fn set(&mut self, name: &'static str, value: Option<f64>) {
        if let Some(value) = value.filter(|v| v.is_finite()) {
            self.layer.insert(name, value);
        }
    }
}

pub fn run(spec: &Spec, seed: u64, seconds: u64, traced: bool) -> Outcome {
    let per_thread = spec.sessions_per_second * seconds as usize;
    let schedules: Vec<Vec<Session>> =
        (0..spec.threads).map(|thread| schedule(spec, seed, thread, per_thread)).collect();
    let digest = schedule_digest(&schedules);
    let mut spans = Vec::new();
    let mut got = Collected::default();
    let result = match spec.mode {
        Mode::Node => run_node(spec, seed, &schedules, traced, &mut got, &mut spans),
        Mode::Inproc => run_inproc(spec, seed, &schedules[0], traced, &mut got, &mut spans),
    };
    if let Err(reason) = result {
        got.fail(reason);
    }
    if LIVE_CHILDREN.load(Ordering::SeqCst) != 0 {
        got.fail("node processes outlived the run");
    }
    if traced {
        got.set(
            "client.span_cover_share",
            trace::cover_share(&spans, "session").map(|s| s * 100.0),
        );
        // Where the traced time went, by span name: self time is a span
        // minus what its children cover.
        let mut self_ms: Vec<(&str, f64)> = trace::self_times(&spans)
            .into_iter()
            .map(|(name, ns)| (name, ns as f64 / 1e6))
            .collect();
        self_ms.sort_by(|a, b| b.1.total_cmp(&a.1));
        for (name, ms) in self_ms.iter().take(12) {
            got.failures.note(format!("self time {name}: {ms:.1} ms"));
        }
        let path = trace::trace_path(spec.name);
        if let Err(error) = trace::write_jsonl(&path, &spans) {
            got.fail(format!("write {}: {error}", path.display()));
        }
    }
    let metrics = if traced { per_layer(&mut got) } else { end_to_end(&mut got) };
    Outcome {
        correct: got.failures.count == 0,
        attempted: got.attempted.max(1),
        failed: got.failures.count,
        metrics,
        digest,
        notes: got.failures.notes,
    }
}

/// The p99 of a window's latencies in µs: each slice's own, and over the
/// slices the midmean (`util::SLICES` says why).
fn p99_us(ns: &mut [f64]) -> Option<f64> {
    sliced(ns, SLICES, |slice| quantile(slice, 0.99)).map(|ns| ns / 1e3)
}

fn us(ns: &mut [f64], q: f64) -> Option<f64> {
    quantile(ns, q).map(|ns| ns / 1e3)
}

fn end_to_end(got: &mut Collected) -> Vec<(&'static str, f64, &'static str)> {
    let mut values: BTreeMap<&str, Option<f64>> = BTreeMap::new();
    values.insert("setup_s", median(&mut got.setup_s));
    values.insert("ops_per_s", (got.window_s > 0.0).then(|| got.sessions as f64 / got.window_s));
    values.insert("get_p50_us", us(&mut got.get_ns, 0.50));
    values.insert("put_p50_us", us(&mut got.put_ns, 0.50));
    values.insert("ctx_bytes_mean", mean(&got.ctx_tail_bytes));
    values.insert("repl_lag_mean_ms", sliced(&mut got.lag_ms, got.lag_slices, |slice| mean(slice)));
    values.insert(
        "repl_bytes_per_version",
        (got.versions > 0).then(|| got.repl_bytes as f64 / got.versions as f64),
    );
    END_TO_END
        .iter()
        .map(|metric| {
            let value = values.get(metric.name).copied().flatten().filter(|v| v.is_finite());
            if value.is_none() {
                got.fail(format!("{}: nothing was measured", metric.name));
            }
            (metric.name, value.unwrap_or(0.0), metric.unit)
        })
        .collect()
}

fn per_layer(got: &mut Collected) -> Vec<(&'static str, f64, &'static str)> {
    PER_LAYER
        .iter()
        .map(|metric| {
            let value = got.layer.get(metric.name).copied();
            if value.is_none() {
                got.fail(format!("{}: nothing was measured", metric.name));
            }
            (metric.name, value.unwrap_or(0.0), metric.unit)
        })
        .collect()
}

// ---------------------------------------------------------------------
// Layer figures shared by both drivers.
// ---------------------------------------------------------------------

fn set_session_layers(got: &mut Collected, mut layers: LayerSamples) {
    got.failures.count += layers.errors;
    got.set("transport.echo_rtt_get_p50_us", us(&mut layers.echo_get_ns, 0.5));
    got.set("transport.echo_rtt_put_p50_us", us(&mut layers.echo_put_ns, 0.5));
    got.set("transport.client_bytes_per_op", mean(&layers.wire_bytes));
    got.set("wire.envelope_codec_ns", quantile(&mut layers.envelope_ns, 0.5));
    // An RMW carries its context twice: back from the get, out with the put.
    got.set("wire.clock_codec_ns", quantile(&mut layers.clock_pair_ns, 0.5).map(|pair| pair * 2.0));
    got.set("cluster.get_ns_p50", quantile(&mut layers.cluster_get_ns, 0.5));
    got.set("cluster.put_ns_p50", quantile(&mut layers.cluster_put_ns, 0.5));
    got.set("cluster.delete_ns_p50", quantile(&mut layers.cluster_delete_ns, 0.5));
    got.set("cluster.siblings_mean", mean(&layers.siblings));
}

/// What the measured window itself yields for the traced pass: sample
/// counts, the heal times, the session probes' layer figures and the
/// residuals. `busy_s` is the window without the time spent in probes.
fn set_window_layers(got: &mut Collected, layers: LayerSamples, busy_s: f64, on_path: bool) {
    got.set("client.traced_ops_per_s", (busy_s > 0.0).then(|| got.sessions as f64 / busy_s));
    got.set("client.get_samples", Some(got.get_ns.len() as f64));
    got.set("client.put_samples", Some(got.put_ns.len() as f64));
    got.set("client.lag_samples", Some(got.lag_ms.len() as f64));
    got.set("client.heal_samples", Some(got.heal_ms.len() as f64));
    let (lag_p50, lag_p95) = (quantile(&mut got.lag_ms, 0.5), quantile(&mut got.lag_ms, 0.95));
    got.set("node.repl_lag_p50_ms", lag_p50);
    got.set("node.repl_lag_p95_ms", lag_p95);
    let heal_p50 = quantile(&mut got.heal_ms, 0.5);
    got.set("node.heal_p50_ms", heal_p50);
    got.set("node.heal_max_ms", got.heal_ms.iter().copied().reduce(f64::max));
    set_session_layers(got, layers);
    // The p99s first: they want the samples in the order they were taken.
    let (get_p99, put_p99) = (p99_us(&mut got.get_ns), p99_us(&mut got.put_ns));
    got.set("client.get_p99_us", get_p99);
    got.set("client.put_p99_us", put_p99);
    let (get_p50, put_p50) = (us(&mut got.get_ns, 0.5), us(&mut got.put_ns, 0.5));
    set_residuals(got, get_p50, put_p50, on_path);
}

/// The residual: a round trip minus its replayed parts (transport echo,
/// envelope codec, clock codec, cluster op) — what dispatch, wake-ups and
/// queueing cost. `on_path` says whether transport and wire are on this
/// workload's path at all.
fn set_residuals(
    got: &mut Collected,
    get_p50_us: Option<f64>,
    put_p50_us: Option<f64>,
    on_path: bool,
) {
    let layer = |got: &Collected, name: &str| got.layer.get(name).copied().unwrap_or(0.0);
    let pair_us = layer(got, "wire.clock_codec_ns") / 2.0 / 1e3;
    let envelope_us = layer(got, "wire.envelope_codec_ns") / 1e3;
    let wire = |echo: &str, clock_pairs: f64| {
        if on_path {
            layer(got, echo) + envelope_us + clock_pairs * pair_us
        } else {
            0.0
        }
    };
    let get_parts =
        wire("transport.echo_rtt_get_p50_us", 1.0) + layer(got, "cluster.get_ns_p50") / 1e3;
    let put_parts =
        wire("transport.echo_rtt_put_p50_us", 2.0) + layer(got, "cluster.put_ns_p50") / 1e3;
    got.set("client.get_p50_us", get_p50_us);
    got.set("client.put_p50_us", put_p50_us);
    got.set("node.residual_get_us", get_p50_us.map(|total| total - get_parts));
    got.set("node.residual_put_us", put_p50_us.map(|total| total - put_parts));
}

fn set_algebra(got: &mut Collected, mut samples: AlgebraSamples) {
    got.set("core.leq_ns", quantile(&mut samples.leq_ns, 0.5));
    got.set("core.join_ns", quantile(&mut samples.join_ns, 0.5));
    got.set("core.relation_ns", quantile(&mut samples.relation_ns, 0.5));
    got.set("core.fork_dot_ns", quantile(&mut samples.fork_dot_ns, 0.5));
    got.set("core.ctx_strings_p50", quantile(&mut samples.strings, 0.5));
}

fn share(part: u64, rest: u64) -> Option<f64> {
    (part + rest > 0).then(|| part as f64 * 100.0 / (part + rest) as f64)
}

fn set_exchange(got: &mut Collected, mut samples: ExchangeSamples) {
    got.failures.count += samples.errors;
    got.set("cluster.digest_root_us", quantile(&mut samples.digest_root_us, 0.5));
    got.set("cluster.build_digest_us", quantile(&mut samples.build_digest_us, 0.5));
    got.set("cluster.respond_delta_us", quantile(&mut samples.respond_delta_us, 0.5));
    got.set("wire.encode_delta_us", quantile(&mut samples.encode_delta_us, 0.5));
    got.set("wire.decode_delta_us", quantile(&mut samples.decode_delta_us, 0.5));
    got.set("cluster.apply_delta_us", quantile(&mut samples.apply_delta_us, 0.5));
    got.set("cluster.apply_delta_batch_us", quantile(&mut samples.apply_delta_batch_us, 0.5));
}

/// The wire counters of a set of exchanges: the in-process workload's own
/// ring steps, or the exchange probe's on a node workload.
struct WireCounts {
    delta_frames: u64,
    full_frames: u64,
    versions_skipped: u64,
    nak_refetches: u64,
    bytes: u64,
    exchanges: u64,
}

fn set_wire_counts(got: &mut Collected, counts: &WireCounts) {
    got.set("wire.delta_frame_share", share(counts.delta_frames, counts.full_frames));
    got.set(
        "wire.versions_skipped_share",
        share(counts.versions_skipped, counts.delta_frames + counts.full_frames),
    );
    got.set("wire.nak_refetches", Some(counts.nak_refetches as f64));
    got.set(
        "wire.bytes_per_exchange",
        (counts.exchanges > 0).then(|| counts.bytes as f64 / counts.exchanges as f64),
    );
}

fn set_membership(got: &mut Collected, mut samples: MembershipSamples, id_bits: f64) {
    got.failures.count += samples.errors;
    got.set("membership.table_bytes", Some(samples.table_bytes));
    got.set("membership.table_codec_us", quantile(&mut samples.codec_us, 0.5));
    got.set("membership.member_id_bits", Some(id_bits));
}

fn set_store_metrics(got: &mut Collected, metrics: &StoreMetrics) {
    got.set("backend.meta_bits_per_key", Some(metrics.mean_key_metadata_bits));
    got.set("backend.meta_bits_per_key_max", Some(metrics.max_key_metadata_bits as f64));
    got.set(
        "backend.element_bits_share",
        share(metrics.element_bits_total as u64, metrics.clock_bits_total as u64),
    );
}

/// Replays a schedule on an in-process cluster of backend `B` and returns
/// `(sessions per second, metadata before compaction)` — the `backend.*`
/// comparison of the paper: the same trace on stamps and on dynamic
/// version vectors.
fn replay<B: StoreBackend>(
    backend: B,
    keys: usize,
    sessions: &[Session],
    got: &mut Collected,
) -> (f64, StoreMetrics, inproc::Compacted) {
    let (mut cluster, _) = inproc::build(backend, keys);
    let mut tracer = Tracer::new(false, Instant::now(), 0);
    // The schedule's own run has already been through the oracle.
    let driven = inproc::drive(&cluster, keys, sessions, false, &mut tracer, &mut |_, _, _, _| {});
    got.failures.absorb(driven.failures);
    inproc::settle(&cluster);
    if !cluster.converged() {
        got.fail(format!("{} replay did not converge", cluster.backend().label()));
    }
    let metrics = cluster.metrics();
    let compacted = inproc::compact(&mut cluster);
    (sessions.len() as f64 / driven.window_s, metrics, compacted)
}

// ---------------------------------------------------------------------
// The node driver.
// ---------------------------------------------------------------------

/// Nothing is being written: what the nodes burn and send during this
/// window is what a converged cluster costs just to stay converged.
fn idle_window(got: &mut Collected, cluster: &NodeCluster) {
    let (cpu, bytes) = (ProcSample::read_all(&cluster.pids()), cluster.tap_bytes());
    thread::sleep(IDLE_WINDOW);
    let idle_s = IDLE_WINDOW.as_secs_f64();
    let cpu_us = ProcSample::read_all(&cluster.pids()).cpu_us - cpu.cpu_us;
    got.set("node.idle_cpu_ms_per_s", Some(cpu_us / 1e3 / idle_s));
    got.set("node.idle_gossip_bytes_per_s", Some((cluster.tap_bytes() - bytes) as f64 / idle_s));
}

/// `membership.*` from the member table the nodes themselves report.
fn membership_layers(
    got: &mut Collected,
    statuses: &[NodeStatus],
    epoch: Instant,
    spans: &mut Vec<Span>,
) {
    let mut tracer = Tracer::new(true, epoch, 30);
    let id_bits = statuses.iter().map(|s| s.id_bits as f64).fold(0.0, f64::max);
    let membership = layers::membership_probe(&mut tracer, &statuses[0].table, MEMBERSHIP_ROUNDS);
    set_membership(got, membership, id_bits);
    spans.extend(tracer.into_spans());
}

fn run_node(
    spec: &Spec,
    seed: u64,
    schedules: &[Vec<Session>],
    traced: bool,
    got: &mut Collected,
    spans: &mut Vec<Span>,
) -> Result<(), String> {
    let epoch = Instant::now();
    let mut cluster = NodeCluster::start(seed, spec.keys)?;
    got.setup_s.push(cluster.setup_s);
    for round in 1..SETUPS {
        drop(cluster);
        cluster = NodeCluster::start(seed.wrapping_add(round as u64), spec.keys)?;
        got.setup_s.push(cluster.setup_s);
    }
    let echo = if traced {
        Some(EchoServer::start().map_err(|e| format!("echo server: {e}"))?)
    } else {
        None
    };
    if traced {
        idle_window(got, &cluster);
    }

    // The measured window: the client threads and nothing else.
    let start = Barrier::new(spec.threads + 1);
    let jobs: Vec<ClientJob<'_>> = schedules
        .iter()
        .enumerate()
        .map(|(thread, sessions)| ClientJob {
            thread,
            spec,
            sessions,
            seed,
            epoch,
            trace: traced,
            echo: echo.as_ref(),
        })
        .collect();
    let (nodes_before, self_before, bytes_before) =
        (ProcSample::read_all(&cluster.pids()), ProcSample::read_self(), cluster.tap_bytes());
    let (clients, window_s) = thread::scope(|scope| {
        let handles: Vec<_> = jobs
            .iter()
            .map(|job| scope.spawn(|| node_run::client_thread(job, &cluster, &start)))
            .collect();
        start.wait();
        let started = Instant::now();
        let clients: Vec<_> =
            handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect();
        (clients, started.elapsed().as_secs_f64())
    });
    let nodes_used = ProcSample::read_all(&cluster.pids()).since(nodes_before);
    let self_used =
        self_before.zip(ProcSample::read_self()).map(|(before, after)| after.since(before));
    got.repl_bytes = cluster.tap_bytes() - bytes_before;

    let mut logs = Vec::new();
    let mut layers = LayerSamples::default();
    let mut tail_contexts: Vec<PackedName> = Vec::new();
    let mut busy_s: f64 = 0.0;
    for client in clients {
        got.sessions += client.sessions;
        got.attempted += client.attempted;
        got.versions += client.versions;
        got.failures.absorb(client.failures);
        got.get_ns.extend(client.get_ns);
        got.put_ns.extend(client.put_ns);
        got.ctx_tail_bytes.extend(client.ctx_tail_bytes);
        tail_contexts.extend(client.tail_contexts);
        logs.push(client.log);
        // Probe replays are the tracer's work, not the client's: they stay
        // out of the traced throughput.
        busy_s = busy_s.max(client.elapsed_s - client.layers.probe_ns as f64 / 1e9);
        layers.merge(client.layers);
        spans.extend(client.spans);
    }
    got.window_s = window_s;
    let window_ops = got.attempted as f64;

    // Replication, timed once the window's backlog has drained, and the
    // correctness gate on what the window left behind.
    let (settle_ms, statuses) = node_run::settle(&cluster, node_run::NODES, seed)?;
    let cuts = if traced { HEAL_CUTS } else { 0 };
    let replication = node_run::measure_replication(&cluster, spec.keys, seed, cuts);
    got.attempted += replication.attempted;
    got.failures.absorb(replication.failures);
    got.lag_ms = replication.lag_ms;
    got.lag_slices = SLICES;
    got.heal_ms = replication.heal_ms;
    let mut oracle = Oracle::rooted(inproc::root_id);
    oracle.replay(logs);
    got.attempted += node_run::verify(&cluster, &mut oracle, seed)?;

    if traced {
        got.set("node.settle_ms", Some(settle_ms));
        got.set("node.cpu_us_per_op", Some(nodes_used.cpu_us / window_ops));
        got.set("node.ctx_switches_per_op", Some(nodes_used.ctx_switches as f64 / window_ops));
        got.set("node.rss_kib_max", Some(nodes_used.rss_peak_kib as f64));
        got.set("client.cpu_us_per_op", self_used.map(|used| used.cpu_us / window_ops));
        set_window_layers(got, layers, busy_s, true);
        membership_layers(got, &statuses, epoch, spans);

        // A late joiner: a fourth process forks its identity off a live
        // member and pulls everything.
        let joined = Instant::now();
        let sponsor = cluster.procs[0].advertised();
        let joiner = NodeProc::spawn(seed ^ 0x4A01, Some(&sponsor))
            .map_err(|e| format!("late joiner: {e}"))?;
        cluster.procs.push(joiner);
        match node_run::settle(&cluster, node_run::NODES + 1, seed ^ 0x4A02) {
            Ok(_) => got.set("node.catchup_ms", Some(joined.elapsed().as_secs_f64() * 1e3)),
            Err(_) => got.fail("late joiner never caught up"),
        }
    }
    got.absorb_oracle(oracle);
    drop(echo);
    drop(cluster);

    if traced {
        // With the nodes gone the host is quiet: the CPU-only probes run now.
        let mut tracer = Tracer::new(true, epoch, 31);
        set_algebra(got, layers::algebra_probe(&mut tracer, &tail_contexts));
        let exchange = layers::exchange_probe(&mut tracer, EXCHANGE_ROUNDS, seed);
        set_wire_counts(
            got,
            &WireCounts {
                delta_frames: exchange.delta_frames,
                full_frames: exchange.full_frames,
                versions_skipped: exchange.versions_skipped,
                nak_refetches: exchange.nak_refetches,
                bytes: exchange.exchange_bytes,
                exchanges: exchange.exchanges,
            },
        );
        let mut anti_entropy_us = exchange.anti_entropy_us.clone();
        got.set("cluster.anti_entropy_us_p50", quantile(&mut anti_entropy_us, 0.5));
        set_exchange(got, exchange);
        spans.extend(tracer.into_spans());

        // The same schedule, all keys rooted locally, on both backends.
        let merged = interleave(schedules);
        let (ops_per_s, metrics, compacted) = replay(VstampBackend::gc(), spec.keys, &merged, got);
        got.set("backend.replay_ops_per_s", Some(ops_per_s));
        set_store_metrics(got, &metrics);
        got.set("backend.compact_ms", Some(compacted.ms));
        got.set("backend.keys_recycled", Some(compacted.keys_recycled as f64));
        let (ops_per_s, metrics, _) = replay(DynamicVvBackend::new(), spec.keys, &merged, got);
        got.set("backend.dvv_ops_per_s", Some(ops_per_s));
        got.set("backend.dvv_meta_bits_per_key", Some(metrics.mean_key_metadata_bits));
    }
    Ok(())
}

/// Round-robin merge of the client threads' schedules — the order a
/// single-threaded replay runs them in.
fn interleave(schedules: &[Vec<Session>]) -> Vec<Session> {
    let longest = schedules.iter().map(Vec::len).max().unwrap_or(0);
    (0..longest).flat_map(|i| schedules.iter().filter_map(move |s| s.get(i).copied())).collect()
}

// ---------------------------------------------------------------------
// The in-process driver.
// ---------------------------------------------------------------------

fn run_inproc(
    spec: &Spec,
    seed: u64,
    sessions: &[Session],
    traced: bool,
    got: &mut Collected,
    spans: &mut Vec<Span>,
) -> Result<(), String> {
    let epoch = Instant::now();
    let (mut cluster, setup_s) = inproc::build(VstampBackend::gc(), spec.keys);
    got.setup_s.push(setup_s);
    for _ in 1..SETUPS {
        drop(cluster);
        let (next, setup_s) = inproc::build(VstampBackend::gc(), spec.keys);
        cluster = next;
        got.setup_s.push(setup_s);
    }
    if !inproc::roots_agree(&cluster) {
        return Err("replicas did not converge during set-up".into());
    }
    let echo = if traced {
        Some(EchoServer::start().map_err(|e| format!("echo server: {e}"))?)
    } else {
        None
    };
    let mut probe = echo.as_ref().map(|echo| SessionProbe::new(echo, seed, spec.keys));
    let mut tracer = Tracer::new(traced, epoch, 0);
    let self_before = ProcSample::read_self();

    let driven: Driven<VstampBackend> = inproc::drive(
        &cluster,
        spec.keys,
        sessions,
        true,
        &mut tracer,
        &mut |tracer, parent, sid, op| {
            if let Some(probe) = probe.as_mut() {
                probe.replay(tracer, parent, sid, op);
            }
        },
    );
    let self_used =
        self_before.zip(ProcSample::read_self()).map(|(before, after)| after.since(before));

    got.sessions = sessions.len() as u64;
    got.window_s = driven.window_s;
    got.attempted = driven.attempted;
    got.versions = driven.versions;
    got.failures.absorb(driven.failures);
    got.repl_bytes = driven.exchanges.iter().map(|s| (s.digest_bytes + s.delta_bytes) as u64).sum();
    got.get_ns = driven.get_ns;
    got.put_ns = driven.put_ns;
    got.ctx_tail_bytes = driven.ctx_tail_bytes;
    let window_ops = got.attempted as f64;

    // Converge; the exact counts are taken here, before the replication
    // phase writes its own versions.
    let settling = Instant::now();
    inproc::settle(&cluster);
    let settle_ms = settling.elapsed().as_secs_f64() * 1e3;
    if !inproc::roots_agree(&cluster) || !cluster.converged() {
        got.fail("replicas did not converge after the run");
    }
    let metrics = cluster.metrics();

    let mut replication = inproc::Replication::default();
    let mut next_id = driven.next_id;
    inproc::measure_lag(&cluster, seed, &mut next_id, &mut replication);
    if traced {
        inproc::measure_heal(&cluster, spec.keys, HEAL_CUTS, seed, &mut next_id, &mut replication);
    }
    got.attempted += replication.attempted;
    got.failures.absorb(replication.failures);
    got.lag_ms = replication.lag_ms;
    // A marker's two arrivals are a slice.
    got.lag_slices = inproc::LAG_MARKERS;
    got.heal_ms = replication.heal_ms;

    // Correctness: every replica's final read of every followed key equals
    // the oracle's live set — before and after compaction.
    if !inproc::roots_agree(&cluster) || !cluster.converged() {
        got.fail("replicas did not converge after the replication phase");
    }
    let mut oracle = Oracle::rooted(inproc::root_id);
    oracle.replay(vec![driven.log]);
    got.attempted += inproc::check_final(&cluster, &mut oracle);

    if traced {
        let layers = probe.take().map(|p| p.samples).unwrap_or_default();
        let probe_s = layers.probe_ns as f64 / 1e9;
        got.set("node.settle_ms", Some(settle_ms));
        // The store lives in this process: "node" and "client" are one.
        got.set("node.cpu_us_per_op", self_used.map(|used| used.cpu_us / window_ops));
        got.set(
            "node.ctx_switches_per_op",
            self_used.map(|used| used.ctx_switches as f64 / window_ops),
        );
        got.set("node.rss_kib_max", self_used.map(|used| used.rss_peak_kib as f64));
        got.set("client.cpu_us_per_op", self_used.map(|used| used.cpu_us / window_ops));
        set_window_layers(got, layers, got.window_s - probe_s, false);
        let mut anti_entropy_us = driven.anti_entropy_us;
        got.set("cluster.anti_entropy_us_p50", quantile(&mut anti_entropy_us, 0.5));
        let sum = |field: fn(&vstamp_store::ExchangeStats) -> usize| -> u64 {
            driven.exchanges.iter().map(|s| field(s) as u64).sum()
        };
        set_wire_counts(
            got,
            &WireCounts {
                delta_frames: sum(|s| s.delta_frames),
                full_frames: sum(|s| s.full_frames),
                versions_skipped: sum(|s| s.versions_skipped),
                nak_refetches: sum(|s| s.nak_refetches),
                bytes: got.repl_bytes,
                exchanges: driven.exchanges.len() as u64,
            },
        );
        set_store_metrics(got, &metrics);
        // This workload *is* the replay: its own traced rate stands in.
        got.set("backend.replay_ops_per_s", got.layer.get("client.traced_ops_per_s").copied());

        // A late joiner, in process: an empty store pulls everything
        // through the wire codec and adopts every key.
        let (catchup_ms, caught_up) = inproc::catch_up(&cluster);
        got.set("node.catchup_ms", Some(catchup_ms));
        if !caught_up {
            got.fail("in-process late joiner did not end up with every key");
        }

        // What an in-process store has no instance of — a member table, a
        // gossip timer — is measured where it exists: on the idle cluster
        // the node workloads start from, set up for this alone.
        let idle = NodeCluster::start(seed, NODE_KEYS)?;
        idle_window(got, &idle);
        let (_, statuses) = node_run::settle(&idle, node_run::NODES, seed)?;
        membership_layers(got, &statuses, epoch, spans);
        drop(idle);

        let mut post = Tracer::new(true, epoch, 31);
        set_algebra(got, layers::algebra_probe(&mut post, &driven.tail_contexts));
        set_exchange(got, layers::exchange_probe(&mut post, EXCHANGE_ROUNDS, seed));
        spans.extend(post.into_spans());
    }

    let compacted = inproc::compact(&mut cluster);
    got.attempted += inproc::check_final(&cluster, &mut oracle);
    if traced {
        got.set("backend.compact_ms", Some(compacted.ms));
        got.set("backend.keys_recycled", Some(compacted.keys_recycled as f64));
        let (ops_per_s, dvv, _) = replay(DynamicVvBackend::new(), spec.keys, sessions, got);
        got.set("backend.dvv_ops_per_s", Some(ops_per_s));
        got.set("backend.dvv_meta_bits_per_key", Some(dvv.mean_key_metadata_bits));
    }
    got.absorb_oracle(oracle);
    spans.extend(tracer.into_spans());
    Ok(())
}
