//! What the benchmark runs and what it reports: the three workloads with
//! their frozen sizes, the seeded session schedule, and the metric tables
//! `BENCHMARK.json` must agree with (a unit test holds the two together).

use crate::json::Json;
use crate::util::{fnv1a, Rng, Zipf, FNV_OFFSET};

/// How the driver starts the benchmark, from the root of a checkout.
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];
/// How long one run measures: the `--seconds` the sizes were calibrated for.
pub const RUN_SECONDS: u64 = 15;

/// Zipfian skew of key popularity (YCSB's default).
pub const ZIPF_S: f64 = 0.99;
/// Bytes per value: an 8-byte oracle id plus filler.
pub const VALUE_LEN: usize = 64;
/// Client threads of the saturating node workloads. Fixed, not `nproc`:
/// the reference host has 2 cores, and a bigger host must run the same
/// load shape to be comparable (README, load shape).
pub const CLIENT_THREADS: usize = 4;
/// Keys of the node workloads. Rooting is quadratic in this (README,
/// defects), which is what keeps it from being larger.
pub const NODE_KEYS: usize = 4096;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Three `Node` processes on loopback TCP, driven through `NodeClient`.
    Node,
    /// One in-process `Cluster`, no sockets.
    Inproc,
}

/// Session mix in per-mille; the five shares sum to 1000.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    pub get: u32,
    /// Causal read-modify-write: `get`, then `put` with the returned context.
    pub rmw: u32,
    /// Read-modify-write against a remembered, possibly superseded context.
    pub stale: u32,
    /// `put` without a context — concurrent with whatever is stored.
    pub blind: u32,
    /// `get`, then `delete` with the returned context.
    pub delete: u32,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Get,
    Rmw,
    StaleRmw,
    Blind,
    Delete,
}

/// One generated client session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Session {
    pub key: u32,
    /// Node (or replica) the session runs against.
    pub node: u8,
    pub kind: Kind,
    /// A spare seeded draw (which remembered context a stale write uses).
    pub aux: u16,
}

#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub mode: Mode,
    pub keys: usize,
    pub threads: usize,
    pub mix: Mix,
    /// Sessions per client thread for each second of `--seconds`. Work is
    /// fixed by this count, never by a clock, and every thread runs its
    /// sessions back to back (closed loop): metadata grows with writes,
    /// so a fixed duration would let faster code write more, grow more and
    /// look slower. Calibrated once on the reference host so the measured
    /// window comes out near `--seconds`; frozen since.
    pub sessions_per_second: usize,
}

pub const WORKLOADS: [Spec; 3] = [
    Spec {
        name: "node-read",
        why: "3 node processes, 4096 zipfian keys, 95% get / 5% causal RMW: transport, envelope codec, dispatch and the snapshot read do the work; algebra and GC almost none. Fits in cache.",
        mode: Mode::Node,
        keys: NODE_KEYS,
        threads: CLIENT_THREADS,
        mix: Mix { get: 950, rmw: 50, stale: 0, blind: 0, delete: 0 },
        sessions_per_second: 6_000,
    },
    Spec {
        name: "node-write",
        why: "Same cluster and keys, 45% get / 45% causal RMW / 10% blind put: backend mint/join/GC, sibling sets, context codec and delta gossip dominate; context growth on adopted keys shows.",
        mode: Mode::Node,
        keys: NODE_KEYS,
        threads: CLIENT_THREADS,
        mix: Mix { get: 450, rmw: 450, stale: 0, blind: 100, delete: 0 },
        sessions_per_second: 2_200,
    },
    Spec {
        name: "store-inproc",
        why: "No sockets: one in-process 3-replica Cluster, 16384 keys (beyond L2), one thread: packed algebra, backend GC, sibling sets and shard locks do everything, transport nothing.",
        mode: Mode::Inproc,
        keys: 16_384,
        threads: 1,
        mix: Mix { get: 700, rmw: 200, stale: 50, blind: 0, delete: 50 },
        sessions_per_second: 36_000,
    },
];

pub fn workload(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|spec| spec.name == name)
}

/// The sessions of one client thread, from the run's seed alone.
pub fn schedule(spec: &Spec, seed: u64, thread: usize, count: usize) -> Vec<Session> {
    let zipf = Zipf::new(spec.keys, ZIPF_S);
    let mut rng = Rng::stream(seed, spec.name, thread as u64);
    let mix = spec.mix;
    debug_assert_eq!(mix.get + mix.rmw + mix.stale + mix.blind + mix.delete, 1000);
    (0..count)
        .map(|_| {
            let key = zipf.sample(&mut rng) as u32;
            let node = rng.below(3) as u8;
            let roll = rng.below(1000) as u32;
            let kind = if roll < mix.get {
                Kind::Get
            } else if roll < mix.get + mix.rmw {
                Kind::Rmw
            } else if roll < mix.get + mix.rmw + mix.stale {
                Kind::StaleRmw
            } else if roll < mix.get + mix.rmw + mix.stale + mix.blind {
                Kind::Blind
            } else {
                Kind::Delete
            };
            Session { key, node, kind, aux: rng.below(1 << 16) as u16 }
        })
        .collect()
}

/// FNV-1a over every generated session, thread by thread: two runs with
/// one digest replayed the identical inputs.
pub fn schedule_digest(threads: &[Vec<Session>]) -> u64 {
    let mut hash = FNV_OFFSET;
    for sessions in threads {
        hash = fnv1a(hash, &(sessions.len() as u64).to_le_bytes());
        for session in sessions {
            hash = fnv1a(hash, &session.key.to_le_bytes());
            hash = fnv1a(hash, &[session.node, session.kind as u8]);
            hash = fnv1a(hash, &session.aux.to_le_bytes());
        }
    }
    hash
}

pub fn key_name(key: u32) -> String {
    format!("key-{key}")
}

/// The 64-byte value carrying oracle id `id`.
pub fn value_for(id: u64) -> Vec<u8> {
    let mut value = vstamp_sim::encode_id(id);
    value.resize(VALUE_LEN, (id % 251) as u8);
    value
}

/// The oracle id a stored value carries, or `None` for a value this
/// benchmark never wrote.
pub fn id_of(value: &[u8]) -> Option<u64> {
    (value.len() == VALUE_LEN).then(|| vstamp_sim::decode_id(&value[..8]))
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd { name, unit, better, bound }
}

/// What a user of the store sees; printed by the untraced pass. The bounds
/// are wide because the reference host is noisy (README, host): a bound is
/// only usable at about three times the run-to-run spread.
pub const END_TO_END: [EndToEnd; 7] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("ops_per_s", "1/s", Better::Higher, 0.25),
    e2e("get_p50_us", "us", Better::Lower, 0.25),
    e2e("put_p50_us", "us", Better::Lower, 0.25),
    e2e("ctx_bytes_mean", "B", Better::Lower, 0.25),
    e2e("repl_lag_mean_ms", "ms", Better::Lower, 0.25),
    e2e("repl_bytes_per_version", "B", Better::Lower, 0.25),
];

#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

/// What single layers cost; printed by the traced pass. The layer is the
/// name's prefix, a module of the repository (or `client`, the benchmark).
pub const PER_LAYER: [PerLayer; 62] = [
    layer("transport.echo_rtt_get_p50_us", "us", Better::Lower),
    layer("transport.echo_rtt_put_p50_us", "us", Better::Lower),
    layer("transport.client_bytes_per_op", "B", Better::Lower),
    layer("wire.envelope_codec_ns", "ns", Better::Lower),
    layer("wire.clock_codec_ns", "ns", Better::Lower),
    layer("wire.encode_delta_us", "us", Better::Lower),
    layer("wire.decode_delta_us", "us", Better::Lower),
    layer("wire.delta_frame_share", "%", Better::Higher),
    layer("wire.nak_refetches", "count", Better::Lower),
    layer("wire.versions_skipped_share", "%", Better::Higher),
    layer("wire.bytes_per_exchange", "B", Better::Lower),
    layer("cluster.get_ns_p50", "ns", Better::Lower),
    layer("cluster.put_ns_p50", "ns", Better::Lower),
    layer("cluster.delete_ns_p50", "ns", Better::Lower),
    layer("cluster.anti_entropy_us_p50", "us", Better::Lower),
    layer("cluster.digest_root_us", "us", Better::Lower),
    layer("cluster.build_digest_us", "us", Better::Lower),
    layer("cluster.respond_delta_us", "us", Better::Lower),
    layer("cluster.apply_delta_us", "us", Better::Lower),
    layer("cluster.apply_delta_batch_us", "us", Better::Lower),
    layer("cluster.siblings_mean", "count", Better::Lower),
    layer("backend.meta_bits_per_key", "bit", Better::Lower),
    layer("backend.meta_bits_per_key_max", "bit", Better::Lower),
    layer("backend.element_bits_share", "%", Better::Lower),
    layer("backend.replay_ops_per_s", "1/s", Better::Higher),
    layer("backend.compact_ms", "ms", Better::Lower),
    layer("backend.keys_recycled", "count", Better::Higher),
    layer("backend.dvv_ops_per_s", "1/s", Better::Higher),
    layer("backend.dvv_meta_bits_per_key", "bit", Better::Lower),
    layer("core.leq_ns", "ns", Better::Lower),
    layer("core.join_ns", "ns", Better::Lower),
    layer("core.relation_ns", "ns", Better::Lower),
    layer("core.fork_dot_ns", "ns", Better::Lower),
    layer("core.ctx_strings_p50", "count", Better::Lower),
    layer("membership.table_bytes", "B", Better::Lower),
    layer("membership.table_codec_us", "us", Better::Lower),
    layer("membership.member_id_bits", "bit", Better::Lower),
    layer("node.cpu_us_per_op", "us", Better::Lower),
    layer("node.ctx_switches_per_op", "count", Better::Lower),
    layer("node.rss_kib_max", "KiB", Better::Lower),
    layer("node.idle_cpu_ms_per_s", "ms/s", Better::Lower),
    layer("node.idle_gossip_bytes_per_s", "B/s", Better::Lower),
    layer("node.catchup_ms", "ms", Better::Lower),
    layer("node.settle_ms", "ms", Better::Lower),
    layer("node.repl_lag_p50_ms", "ms", Better::Lower),
    layer("node.repl_lag_p95_ms", "ms", Better::Lower),
    layer("node.heal_p50_ms", "ms", Better::Lower),
    layer("node.heal_max_ms", "ms", Better::Lower),
    layer("node.residual_get_us", "us", Better::Lower),
    layer("node.residual_put_us", "us", Better::Lower),
    layer("client.cpu_us_per_op", "us", Better::Lower),
    layer("client.traced_ops_per_s", "1/s", Better::Higher),
    layer("client.span_cover_share", "%", Better::Higher),
    layer("client.get_p50_us", "us", Better::Lower),
    layer("client.put_p50_us", "us", Better::Lower),
    layer("client.get_p99_us", "us", Better::Lower),
    layer("client.put_p99_us", "us", Better::Lower),
    layer("client.get_samples", "count", Better::Higher),
    layer("client.put_samples", "count", Better::Higher),
    layer("client.lag_samples", "count", Better::Higher),
    layer("client.heal_samples", "count", Better::Higher),
    layer("client.oracle_reads_checked", "count", Better::Higher),
];

/// The per-layer figures that are counts of what the program did, not
/// times: they come from single-threaded, seeded replays (the in-process
/// workload itself, a node workload's schedule replayed in process, the
/// exchange probe), so one seed reproduces them to the last bit.
/// `--selfcheck` holds them to that; `--compare` judges them run against
/// run, and no worse than [`EXACT_BOUND`].
pub const EXACT: [&str; 9] = [
    "wire.delta_frame_share",
    "wire.nak_refetches",
    "wire.versions_skipped_share",
    "wire.bytes_per_exchange",
    "backend.meta_bits_per_key",
    "backend.meta_bits_per_key_max",
    "backend.element_bits_share",
    "backend.keys_recycled",
    "backend.dvv_meta_bits_per_key",
];
/// Share by which an exact count may worsen: the issue's bound for
/// `meta_bits_per_key` and `wire_bytes_per_exchange`.
pub const EXACT_BOUND: f64 = 0.02;

fn better_str(better: Better) -> &'static str {
    match better {
        Better::Lower => "lower",
        Better::Higher => "higher",
    }
}

/// `BENCHMARK.json` as these tables define it (`benchmark --describe`):
/// the file at the repository root is this document, and a unit test
/// keeps the two from drifting apart.
pub fn contract() -> Json {
    let text = |s: &str| Json::Str(s.to_owned());
    Json::obj([
        ("command", Json::Arr(COMMAND.iter().map(|part| text(part)).collect())),
        ("paths", Json::Arr(vec![text("benchmark")])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", text(w.name)), ("why", text(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", text(m.name)),
                            ("unit", text(m.unit)),
                            ("better", text(better_str(m.better))),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", text(m.name)),
                            ("unit", text(m.unit)),
                            ("better", text(better_str(m.better))),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn schedules_are_seeded() {
        let spec = workload("node-write").unwrap();
        let digest =
            |seed| schedule_digest(&[schedule(spec, seed, 0, 500), schedule(spec, seed, 1, 500)]);
        assert_eq!(digest(1), digest(1));
        assert_ne!(digest(1), digest(2));
        assert_ne!(schedule(spec, 1, 0, 500), schedule(spec, 1, 1, 500));
        // The same seed under another workload is another schedule.
        let other = workload("node-read").unwrap();
        assert_ne!(schedule(spec, 1, 0, 500), schedule(other, 1, 0, 500));
    }

    #[test]
    fn mixes_sum_to_one_thousand_and_are_honoured() {
        for spec in &WORKLOADS {
            let mix = spec.mix;
            assert_eq!(
                mix.get + mix.rmw + mix.stale + mix.blind + mix.delete,
                1000,
                "{}",
                spec.name
            );
            // The node driver has no stale-context or delete session
            // (`node_run::client_thread` refuses them).
            assert!(spec.mode == Mode::Inproc || mix.stale + mix.delete == 0, "{}", spec.name);
        }
        let spec = workload("node-read").unwrap();
        let sessions = schedule(spec, 9, 0, 20_000);
        let gets = sessions.iter().filter(|s| s.kind == Kind::Get).count();
        assert!((18_700..19_300).contains(&gets), "{gets} gets of 20000");
        assert!(sessions.iter().all(|s| (s.key as usize) < spec.keys && s.node < 3));
    }

    #[test]
    fn values_carry_their_id() {
        let value = value_for(0xABCD_EF01_2345);
        assert_eq!(value.len(), VALUE_LEN);
        assert_eq!(id_of(&value), Some(0xABCD_EF01_2345));
        assert_eq!(id_of(b"short"), None);
    }

    /// `BENCHMARK.json` is the contract the driver reads; the tables are
    /// what the binary prints. They may not drift apart.
    #[test]
    fn benchmark_json_is_the_contract_these_tables_define() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(json::parse(&text).expect("BENCHMARK.json parses"), contract());
    }

    #[test]
    fn the_contract_stays_inside_the_drivers_limits() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!(WORKLOADS.iter().all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
        assert!(PER_LAYER.len() <= 128);
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        let valid = |name: &str| {
            name.len() <= 64
                && name.starts_with(|c: char| c.is_ascii_alphanumeric())
                && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        assert!(names.iter().all(|name| valid(name)));
        let unique: std::collections::BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len(), "a name is used once");
        let units = END_TO_END.iter().map(|m| m.unit).chain(PER_LAYER.iter().map(|m| m.unit));
        for unit in units {
            assert!(
                unit.len() <= 16
                    && unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
        }
    }
}
