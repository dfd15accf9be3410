//! Layer probes: the traced pass replays sampled operations through each
//! layer's public functions, one layer at a time, so a client round trip
//! can be split into transport, wire codec, cluster operation and the
//! residual nobody's function accounts for (dispatch, wake-ups, queueing).
//!
//! Everything here calls only the pinned API surface (README): items at the
//! `vstamp_store` / `vstamp_core` crate roots and `vstamp_store::wire`'s
//! probe/digest/delta/nak codecs.

use std::hint::black_box;
use std::io;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use vstamp_core::PackedName;
use vstamp_store::wire::{
    decode_delta, decode_digest, decode_nak, encode_delta, encode_digest, encode_nak,
};
use vstamp_store::{
    decode_envelope, encode_envelope, envelope_len, recv_envelope, send_envelope, Cluster,
    DeltaPolicy, Envelope, MemberTable, MessageKind, PeerLink, StoreBackend, TransportConfig,
    VstampBackend,
};

use crate::spec::{key_name, value_for, VALUE_LEN, ZIPF_S};
use crate::trace::{Open, Tracer};
use crate::util::{Rng, Zipf};

/// Calls expected to take under a microsecond are timed this many at a
/// time, one span per batch, so the clock read does not swamp them.
pub const BATCH: u32 = 64;
/// How many of a thread's sessions pass between two probe replays: one in
/// sixteen on a short schedule, and never more than about `PROBES_PER_THREAD`
/// replays in all — each costs two echo round trips, which would otherwise
/// come to dominate the traced window of a long, fast schedule.
pub fn probe_every(sessions: usize) -> u32 {
    (sessions / PROBES_PER_THREAD).max(16) as u32
}

const PROBES_PER_THREAD: usize = 1024;

/// A listener that answers every envelope with one of a requested size —
/// the transport and nothing else. The first four payload bytes of a
/// request are the reply's payload length.
pub struct EchoServer {
    addr: String,
    port: u16,
    stopped: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
}

impl EchoServer {
    pub fn start() -> io::Result<EchoServer> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let local = listener.local_addr()?;
        let stopped = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stopped);
        let port = local.port();
        let acceptor = thread::spawn(move || {
            let mut handlers = Vec::new();
            for stream in listener.incoming() {
                if flag.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                let flag = Arc::clone(&flag);
                handlers.push(thread::spawn(move || echo_connection(stream, port, &flag)));
            }
            for handler in handlers {
                let _ = handler.join();
            }
        });
        Ok(EchoServer { addr: local.to_string(), port, stopped, acceptor: Some(acceptor) })
    }

    pub fn addr(&self) -> &str {
        &self.addr
    }

    pub fn port(&self) -> u16 {
        self.port
    }
}

impl Drop for EchoServer {
    fn drop(&mut self) {
        self.stopped.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(&self.addr); // wakes the acceptor
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
    }
}

fn echo_connection(mut stream: TcpStream, port: u16, stopped: &AtomicBool) {
    let _ = stream.set_nodelay(true);
    // The timeout only bounds how long a handler outlives `stop`.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    while !stopped.load(Ordering::SeqCst) {
        let request = match recv_envelope(&mut stream) {
            Ok(request) => request,
            Err(error)
                if matches!(error.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) =>
            {
                continue;
            }
            Err(_) => return,
        };
        let Some(len) = request.payload.get(..4) else { return };
        let len = u32::from_le_bytes(len.try_into().expect("four bytes")) as usize;
        // Sizes come from this benchmark's own probes; anything larger is
        // not one of them.
        if len > 1 << 20 {
            return;
        }
        let reply = Envelope { from: port as usize, kind: MessageKind::Ack, payload: vec![0; len] };
        if send_envelope(&mut stream, &reply).is_err() {
            return;
        }
    }
}

/// LEB128 length of `value` — the framing `NodeClient` puts around keys,
/// values and clocks.
fn varint_len(mut value: usize) -> usize {
    let mut len = 1;
    while value >= 0x80 {
        value >>= 7;
        len += 1;
    }
    len
}

fn frame_len(payload: usize) -> usize {
    varint_len(payload) + payload
}

/// Payload sizes of the four messages of one causal session, as
/// `NodeClient` and `Node::handle` frame them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MessageSizes {
    pub get_request: usize,
    pub get_reply: usize,
    pub put_request: usize,
    pub put_reply: usize,
}

impl MessageSizes {
    pub fn of(key: &str, siblings: usize, ctx_bytes: Option<usize>, clock_bytes: usize) -> Self {
        let ctx = ctx_bytes.map_or(0, frame_len);
        MessageSizes {
            get_request: frame_len(key.len()),
            get_reply: varint_len(siblings) + siblings * frame_len(VALUE_LEN) + 1 + ctx,
            put_request: frame_len(key.len()) + frame_len(VALUE_LEN) + 1 + ctx,
            put_reply: frame_len(clock_bytes),
        }
    }

    /// Bytes on the socket for a request/reply pair: two envelopes, each
    /// behind the transport's 4-byte length prefix.
    pub fn on_wire(request: usize, reply: usize, node_port: u16) -> usize {
        8 + envelope_len(0, request) + envelope_len(node_port as usize, reply)
    }
}

/// A sampled client session, as the probes replay it; `C` is the
/// backend's clock type.
#[derive(Debug, Clone, Copy)]
pub struct Sampled<'a, C> {
    pub key: &'a str,
    /// Sibling values the `get` returned.
    pub siblings: usize,
    /// The context the `get` returned.
    pub ctx: Option<&'a C>,
    /// Whether the session went on to write (`put` or `delete`).
    pub wrote: bool,
    pub delete: bool,
}

/// Raw probe samples of one thread, in ns unless named otherwise.
#[derive(Debug, Default)]
pub struct LayerSamples {
    pub echo_get_ns: Vec<f64>,
    pub echo_put_ns: Vec<f64>,
    pub envelope_ns: Vec<f64>,
    /// One `encode_clock` + `decode_clock` pair.
    pub clock_pair_ns: Vec<f64>,
    pub cluster_get_ns: Vec<f64>,
    pub cluster_put_ns: Vec<f64>,
    pub cluster_delete_ns: Vec<f64>,
    pub wire_bytes: Vec<f64>,
    pub siblings: Vec<f64>,
    /// Time this thread spent inside probes (kept out of its throughput).
    pub probe_ns: u64,
    pub errors: u64,
}

impl LayerSamples {
    pub fn merge(&mut self, other: LayerSamples) {
        self.echo_get_ns.extend(other.echo_get_ns);
        self.echo_put_ns.extend(other.echo_put_ns);
        self.envelope_ns.extend(other.envelope_ns);
        self.clock_pair_ns.extend(other.clock_pair_ns);
        self.cluster_get_ns.extend(other.cluster_get_ns);
        self.cluster_put_ns.extend(other.cluster_put_ns);
        self.cluster_delete_ns.extend(other.cluster_delete_ns);
        self.wire_bytes.extend(other.wire_bytes);
        self.siblings.extend(other.siblings);
        self.probe_ns += other.probe_ns;
        self.errors += other.errors;
    }
}

/// One client thread's in-session probe kit.
pub struct SessionProbe {
    backend: VstampBackend,
    echo: PeerLink,
    echo_port: u16,
    /// A single-replica store shaped like a node's (`NodeConfig::default`
    /// has 4 shards), rooted with the workload's keys, that receives every
    /// sampled session.
    shadow: Cluster<VstampBackend>,
    delete_seq: u64,
    pub samples: LayerSamples,
}

const DELETE_PROBE_KEY: &str = "probe-delete";

impl SessionProbe {
    pub fn new(echo: &EchoServer, seed: u64, keys: usize) -> SessionProbe {
        let shadow = Cluster::new(VstampBackend::gc(), 1, 4);
        for key in 0..keys as u32 {
            shadow.put(0, &key_name(key), value_for(u64::from(key) + 1), None);
        }
        SessionProbe {
            backend: VstampBackend::gc(),
            echo: PeerLink::new(echo.addr(), TransportConfig::default(), seed),
            echo_port: echo.port(),
            shadow,
            delete_seq: 0,
            samples: LayerSamples::default(),
        }
    }

    fn echo_round_trip(&mut self, request: usize, reply: usize) -> io::Result<()> {
        let mut payload = vec![0u8; request.max(4)];
        payload[..4].copy_from_slice(&(reply as u32).to_le_bytes());
        let envelope = Envelope { from: 0, kind: MessageKind::Get, payload };
        let answer = self.echo.request(&envelope)?;
        (answer.payload.len() == reply).then_some(()).ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidData, "echo reply has the wrong size")
        })
    }

    /// One timed echo round trip, after an untimed one. A node's connection
    /// thread serves its client every few sessions and is warm; the echo
    /// thread is called once per probe and is not — unwarmed, the echo came
    /// out *slower* than the real `get` it stands in for.
    fn timed_echo(
        &mut self,
        tracer: &mut Tracer,
        name: &'static str,
        parent: Open,
        session: u32,
        (request, reply): (usize, usize),
    ) -> Option<f64> {
        let warm = self.echo_round_trip(request, reply);
        let (timed, ns) =
            tracer.time(name, parent, session, || self.echo_round_trip(request, reply));
        if warm.and(timed).is_err() {
            self.samples.errors += 1;
            return None;
        }
        Some(ns as f64)
    }

    /// Replays one sampled session layer by layer, a span per layer under
    /// `parent`.
    pub fn replay(
        &mut self,
        tracer: &mut Tracer,
        parent: Open,
        session: u32,
        op: Sampled<'_, PackedName>,
    ) {
        let started = Instant::now();
        let probe = tracer.open("probe", parent, session);
        let mut ctx_bytes = Vec::new();
        if let Some(ctx) = op.ctx {
            self.backend.encode_clock(ctx, &mut ctx_bytes);
        }
        // A put's returned clock is its context plus one dot: the context
        // size stands in for it.
        let sizes =
            MessageSizes::of(op.key, op.siblings, op.ctx.map(|_| ctx_bytes.len()), ctx_bytes.len());
        self.samples.siblings.push(op.siblings as f64);
        let mut wire = MessageSizes::on_wire(sizes.get_request, sizes.get_reply, self.echo_port);
        if op.wrote {
            wire += MessageSizes::on_wire(sizes.put_request, sizes.put_reply, self.echo_port);
        }
        self.samples.wire_bytes.push(wire as f64 / if op.wrote { 2.0 } else { 1.0 });

        // transport: the same bytes against a listener that does nothing.
        let sized = (sizes.get_request, sizes.get_reply);
        let ns = self.timed_echo(tracer, "probe.transport.echo_get", probe, session, sized);
        self.samples.echo_get_ns.extend(ns);
        if op.wrote {
            let sized = (sizes.put_request, sizes.put_reply);
            let ns = self.timed_echo(tracer, "probe.transport.echo_put", probe, session, sized);
            self.samples.echo_put_ns.extend(ns);
        }

        // wire: the envelope codec at both ends of a request/reply pair.
        let request =
            Envelope { from: 0, kind: MessageKind::Get, payload: vec![0; sizes.get_request] };
        let reply = Envelope {
            from: self.echo_port as usize,
            kind: MessageKind::GetOk,
            payload: vec![0; sizes.get_reply],
        };
        let ((), ns) = tracer.time("probe.wire.envelope_codec", probe, session, || {
            for _ in 0..BATCH {
                for envelope in [&request, &reply] {
                    let bytes = encode_envelope(black_box(envelope));
                    black_box(decode_envelope(black_box(&bytes)).expect("own envelope decodes"));
                }
            }
        });
        self.samples.envelope_ns.push(ns as f64 / f64::from(BATCH));

        // wire: the clock codec on the context this session carried.
        if let Some(ctx) = op.ctx {
            let backend = &self.backend;
            let ((), ns) = tracer.time("probe.wire.clock_codec", probe, session, || {
                let mut scratch = Vec::with_capacity(ctx_bytes.len());
                for _ in 0..BATCH {
                    scratch.clear();
                    backend.encode_clock(black_box(ctx), &mut scratch);
                    black_box(
                        backend.decode_clock(black_box(&scratch)).expect("own clock decodes"),
                    );
                }
            });
            self.samples.clock_pair_ns.push(ns as f64 / f64::from(BATCH));
        }

        // cluster: the same operation on the shadow store.
        let shadow = &self.shadow;
        let ((), ns) = tracer.time("probe.cluster.get", probe, session, || {
            for _ in 0..BATCH {
                black_box(shadow.get(0, black_box(op.key)));
            }
        });
        self.samples.cluster_get_ns.push(ns as f64 / f64::from(BATCH));
        if op.wrote {
            let read = shadow.get(0, op.key);
            let value = value_for(u64::from(session));
            let (_, ns) = tracer.time("probe.cluster.put", probe, session, || {
                shadow.put(0, op.key, value, read.context())
            });
            self.samples.cluster_put_ns.push(ns as f64);
        }
        if op.wrote && (op.delete || self.samples.cluster_put_ns.len().is_multiple_of(8)) {
            // Node workloads never delete; a scratch key keeps the delete
            // path in every workload's budget all the same.
            self.delete_seq += 1;
            let read = shadow.get(0, DELETE_PROBE_KEY);
            shadow.put(0, DELETE_PROBE_KEY, value_for(self.delete_seq), read.context());
            let read = shadow.get(0, DELETE_PROBE_KEY);
            let (_, ns) = tracer.time("probe.cluster.delete", probe, session, || {
                shadow.delete(0, DELETE_PROBE_KEY, read.context())
            });
            self.samples.cluster_delete_ns.push(ns as f64);
        }
        tracer.close(probe);
        self.samples.probe_ns += started.elapsed().as_nanos() as u64;
    }

    #[cfg(test)]
    pub fn shadow(&self) -> &Cluster<VstampBackend> {
        &self.shadow
    }
}

/// `core.*`: the packed algebra on contexts harvested from the run's tail.
#[derive(Debug, Default)]
pub struct AlgebraSamples {
    pub leq_ns: Vec<f64>,
    pub join_ns: Vec<f64>,
    pub relation_ns: Vec<f64>,
    pub fork_dot_ns: Vec<f64>,
    pub strings: Vec<f64>,
}

pub fn algebra_probe(tracer: &mut Tracer, contexts: &[PackedName]) -> AlgebraSamples {
    let mut samples = AlgebraSamples::default();
    let root = tracer.open("probe.core", Open::NONE, 0);
    for (index, pair) in contexts.windows(2).enumerate() {
        let (a, b) = (&pair[0], &pair[1]);
        let session = index as u32;
        samples.strings.push(a.string_count() as f64);
        let batch = |tracer: &mut Tracer, name, work: &dyn Fn()| {
            let ((), ns) = tracer.time(name, root, session, || (0..BATCH).for_each(|_| work()));
            ns as f64 / f64::from(BATCH)
        };
        samples.leq_ns.push(batch(tracer, "probe.core.leq", &|| {
            black_box(black_box(a).leq(black_box(b)));
        }));
        samples.join_ns.push(batch(tracer, "probe.core.join", &|| {
            black_box(black_box(a).join(black_box(b)));
        }));
        samples.relation_ns.push(batch(tracer, "probe.core.relation", &|| {
            black_box(black_box(a).relation(black_box(b)));
        }));
        samples.fork_dot_ns.push(batch(tracer, "probe.core.fork_dot", &|| {
            black_box(black_box(a).fork_dot());
        }));
    }
    tracer.close(root);
    samples
}

/// `cluster.*` / `wire.*` of one anti-entropy exchange, step by step.
#[derive(Debug, Default)]
pub struct ExchangeSamples {
    pub digest_root_us: Vec<f64>,
    pub build_digest_us: Vec<f64>,
    pub respond_delta_us: Vec<f64>,
    pub encode_delta_us: Vec<f64>,
    pub decode_delta_us: Vec<f64>,
    pub apply_delta_us: Vec<f64>,
    pub apply_delta_batch_us: Vec<f64>,
    pub anti_entropy_us: Vec<f64>,
    pub delta_frames: u64,
    pub full_frames: u64,
    pub versions_skipped: u64,
    pub nak_refetches: u64,
    pub exchange_bytes: u64,
    pub exchanges: u64,
    pub errors: u64,
}

/// Keys of the exchange probe's two-replica store, and the writes that
/// diverge it before each exchange: a node's key count and one partition
/// window's worth of versions, fixed so the figures compare across
/// workloads and commits.
pub const EXCHANGE_KEYS: usize = 4096;
pub const EXCHANGE_WRITES: usize = 256;

/// Diverges a 2-replica store (a third of the writes on replica 1, the cut
/// side) and heals it: replica 0 pulls step by step — digest, respond,
/// encode, decode, apply, NAK — each step a span; replica 1 then pulls
/// with the one-call `anti_entropy`.
pub fn exchange_probe(tracer: &mut Tracer, rounds: usize, seed: u64) -> ExchangeSamples {
    let us = |ns: u64| ns as f64 / 1e3;
    let mut samples = ExchangeSamples::default();
    let backend = VstampBackend::gc();
    let cluster = Cluster::new(VstampBackend::gc(), 2, 4);
    let keys: Vec<String> = (0..EXCHANGE_KEYS).map(|k| format!("key-{k}")).collect();
    for (k, key) in keys.iter().enumerate() {
        cluster.put(0, key, value_for(k as u64 + 1), None);
    }
    cluster.anti_entropy(1, 0);
    let zipf = Zipf::new(EXCHANGE_KEYS, ZIPF_S);
    let mut rng = Rng::stream(seed, "exchange-probe", 0);
    let mut next_id = EXCHANGE_KEYS as u64;
    for round in 0..rounds {
        for _ in 0..EXCHANGE_WRITES {
            let key = &keys[zipf.sample(&mut rng)];
            let replica = usize::from(rng.below(3) == 0);
            next_id += 1;
            let read = cluster.get(replica, key);
            cluster.put(replica, key, value_for(next_id), read.context());
        }
        let session = round as u32;
        let root = tracer.open("probe.exchange", Open::NONE, session);
        let (_, ns) = tracer
            .time("probe.cluster.digest_root", root, session, || black_box(cluster.digest_root(0)));
        samples.digest_root_us.push(us(ns));
        let (digest, ns) =
            tracer.time("probe.cluster.build_digest", root, session, || cluster.build_digest(0));
        samples.build_digest_us.push(us(ns));
        let ((digest, digest_len), _) =
            tracer.time("probe.wire.digest_codec", root, session, || {
                let bytes = encode_digest(&digest);
                (decode_digest(&bytes).expect("own digest decodes"), bytes.len())
            });
        let ((deltas, skipped), ns) =
            tracer.time("probe.cluster.respond_delta", root, session, || {
                cluster.respond_delta(1, &digest)
            });
        samples.respond_delta_us.push(us(ns));
        samples.versions_skipped += skipped as u64;
        let ((payload, stats), ns) = tracer.time("probe.wire.encode_delta", root, session, || {
            encode_delta(&backend, &deltas, DeltaPolicy::ADAPTIVE)
        });
        samples.encode_delta_us.push(us(ns));
        samples.delta_frames += stats.delta_frames as u64;
        samples.full_frames += stats.full_frames as u64;
        let (decoded, ns) = tracer.time("probe.wire.decode_delta", root, session, || {
            decode_delta(&backend, &payload).expect("own delta decodes")
        });
        samples.decode_delta_us.push(us(ns));
        // The node applies per key, the in-process gossip per shard; the
        // two take turns so both see the same spread of exchanges.
        let misses = if round % 2 == 0 {
            let (misses, ns) = tracer.time("probe.cluster.apply_delta", root, session, || {
                cluster.apply_delta(0, decoded)
            });
            samples.apply_delta_us.push(us(ns));
            misses
        } else {
            let (misses, ns) =
                tracer.time("probe.cluster.apply_delta_batch", root, session, || {
                    cluster.apply_delta_batch(0, decoded)
                });
            samples.apply_delta_batch_us.push(us(ns));
            misses
        };
        let mut bytes = envelope_len(0, digest_len) + envelope_len(1, payload.len());
        if !misses.is_empty() {
            let ((), _) = tracer.time("probe.wire.nak_round", root, session, || {
                let nak = encode_nak(&misses);
                let wanted = decode_nak(&nak).expect("own nak decodes");
                let refetch = cluster.respond_nak(1, &wanted);
                let (payload, stats) = encode_delta(&backend, &refetch, DeltaPolicy::FULL_ONLY);
                bytes += envelope_len(0, nak.len()) + envelope_len(1, payload.len());
                samples.full_frames += stats.full_frames as u64;
                let decoded = decode_delta(&backend, &payload).expect("own refetch decodes");
                if !cluster.apply_delta(0, decoded).is_empty() {
                    samples.errors += 1; // full frames cannot miss
                }
            });
            samples.nak_refetches += misses.len() as u64;
        }
        samples.exchange_bytes += bytes as u64;
        samples.exchanges += 1;
        tracer.close(root);

        let (stats, ns) = tracer
            .time("probe.cluster.anti_entropy", Open::NONE, session, || cluster.anti_entropy(1, 0));
        samples.anti_entropy_us.push(us(ns));
        samples.delta_frames += stats.delta_frames as u64;
        samples.full_frames += stats.full_frames as u64;
        samples.versions_skipped += stats.versions_skipped as u64;
        samples.nak_refetches += stats.nak_refetches as u64;
        samples.exchange_bytes += (stats.digest_bytes + stats.delta_bytes) as u64;
        samples.exchanges += 1;
        if cluster.digest_root(0) != cluster.digest_root(1) {
            samples.errors += 1; // one pull each way must converge two replicas
        }
    }
    samples
}

/// `membership.*`: the member-table codec and merge on `table`.
#[derive(Debug, Default)]
pub struct MembershipSamples {
    pub table_bytes: f64,
    pub codec_us: Vec<f64>,
    pub errors: u64,
}

pub fn membership_probe(
    tracer: &mut Tracer,
    table: &MemberTable,
    rounds: usize,
) -> MembershipSamples {
    let mut samples =
        MembershipSamples { table_bytes: table.encode().len() as f64, ..Default::default() };
    for round in 0..rounds {
        let (ok, ns) =
            tracer.time("probe.membership.table_codec", Open::NONE, round as u32, || {
                let bytes = table.encode();
                let Ok(decoded) = MemberTable::decode(black_box(&bytes)) else { return false };
                let mut merged = table.clone();
                merged.merge(&decoded);
                black_box(&merged) == table
            });
        samples.codec_us.push(ns as f64 / 1e3);
        if !ok {
            samples.errors += 1;
        }
    }
    samples
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;
    use vstamp_store::MemberEntry;

    #[test]
    fn message_sizes_follow_the_client_framing() {
        // key-7: 1-byte length + 5; one 64-byte value: 1 + 64; a 300-byte
        // context needs a 2-byte length.
        let sizes = MessageSizes::of("key-7", 1, Some(300), 300);
        assert_eq!(sizes.get_request, 6);
        assert_eq!(sizes.get_reply, 1 + 65 + 1 + 302);
        assert_eq!(sizes.put_request, 6 + 65 + 1 + 302);
        assert_eq!(sizes.put_reply, 302);
        let blind = MessageSizes::of("key-7", 0, None, 3);
        assert_eq!(blind.get_reply, 2);
        assert_eq!(blind.put_request, 6 + 65 + 1);
        assert_eq!(varint_len(127), 1);
        assert_eq!(varint_len(128), 2);
        assert_eq!(varint_len(16_384), 3);
    }

    #[test]
    fn echo_server_answers_with_the_requested_size() {
        let echo = EchoServer::start().unwrap();
        let mut probe = SessionProbe::new(&echo, 1, 8);
        probe.echo_round_trip(6, 370).unwrap();
        probe.echo_round_trip(400, 0).unwrap();
        drop(probe);
        drop(echo); // joins the acceptor and its handlers
    }

    #[test]
    fn session_probe_fills_every_layer() {
        let echo = EchoServer::start().unwrap();
        let mut probe = SessionProbe::new(&echo, 1, 8);
        let mut tracer = Tracer::new(true, Instant::now(), 0);
        let ctx = PackedName::epsilon();
        for session in 0..3 {
            let op = Sampled {
                key: "key-1",
                siblings: 1,
                ctx: Some(&ctx),
                wrote: true,
                delete: session == 2,
            };
            probe.replay(&mut tracer, Open::NONE, session, op);
        }
        let samples = &probe.samples;
        assert_eq!(samples.errors, 0);
        assert_eq!(samples.echo_get_ns.len(), 3);
        assert_eq!(samples.echo_put_ns.len(), 3);
        assert_eq!(samples.cluster_put_ns.len(), 3);
        assert!(!samples.cluster_delete_ns.is_empty());
        assert!(samples.probe_ns > 0);
        assert_eq!(probe.shadow().get(0, "key-1").values().len(), 1);
        assert_eq!(probe.shadow().get(0, "key-7").values().len(), 1, "the shadow is rooted");
        let spans = tracer.into_spans();
        assert!(spans.iter().any(|s| s.name == "probe.transport.echo_put"));
        assert!(spans.iter().filter(|s| s.name != "probe").all(|s| s.parent != 0));
    }

    #[test]
    fn exchange_probe_converges_and_counts() {
        let mut tracer = Tracer::new(false, Instant::now(), 0);
        let samples = exchange_probe(&mut tracer, 2, 5);
        assert_eq!(samples.errors, 0);
        assert_eq!(samples.exchanges, 4);
        assert_eq!(samples.apply_delta_us.len() + samples.apply_delta_batch_us.len(), 2);
        assert!(samples.delta_frames + samples.full_frames > 0);
        assert!(samples.exchange_bytes > 0);
    }

    #[test]
    fn membership_probe_round_trips_a_table() {
        let (a, b) = PackedName::epsilon().fork_dot();
        let mut table = MemberTable::new();
        table.put_entry(MemberEntry::active("127.0.0.1:7000".to_owned(), a));
        table.put_entry(MemberEntry::active("127.0.0.1:7001".to_owned(), b));
        let mut tracer = Tracer::new(false, Instant::now(), 0);
        let samples = membership_probe(&mut tracer, &table, 3);
        assert_eq!(samples.errors, 0);
        assert_eq!(samples.codec_us.len(), 3);
        assert!(samples.table_bytes > 0.0);
    }
}
