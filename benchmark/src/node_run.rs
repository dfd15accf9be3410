//! The node driver: three `Node` processes behind taps, closed-loop client
//! threads through `NodeClient`, and — after the clients, on the settled
//! cluster — replication timed from outside with marker writes.

use std::sync::Barrier;
use std::thread;
use std::time::{Duration, Instant};

use vstamp_core::PackedName;
use vstamp_store::{NodeClient, NodeStatus, StoreBackend, VstampBackend};

use crate::inproc::{probe_key_name, root_id, Replication, TAIL_SHARE};
use crate::layers::{probe_every, EchoServer, LayerSamples, Sampled, SessionProbe};
use crate::nodes::{await_agreement, stop_all, NodeProc};
use crate::oracle::{self, Event, Oracle, ORACLE_KEYS};
use crate::spec::{id_of, key_name, value_for, Kind, Session, Spec};
use crate::trace::{Open, Span, Tracer};
use crate::util::{ns_since, Failures, Rng};

pub const NODES: usize = 3;
/// Dedicated keys the markers are written to; one marker in flight each.
const PROBE_KEYS: usize = 12;
/// Lag markers per run: a fixed count, like the sessions. What bounds the
/// run-to-run spread of their mean is not this count but the ~6 s it takes
/// to write them: markers in flight together ride the same gossip rounds
/// and peer choices, so the independent draws are the rounds (~110 a node).
const LAG_MARKERS: usize = 720;
/// How often the markers in flight are looked for on the other nodes.
const POLL: Duration = Duration::from_millis(4);
/// A freed marker key rests for a seeded share of this before its next
/// write. A key is freed the moment the slowest node's gossip round has
/// delivered its marker; written again at once, every marker would start
/// at the same phase of that node's 50 ms gossip timer, and the mean lag of
/// a run would depend on where that phase happened to sit.
const REST: Duration = Duration::from_millis(50);
/// How long a cut lasts, and the pause between a heal and the next cut.
const CUT: Duration = Duration::from_millis(150);
const GAP: Duration = Duration::from_millis(100);
/// A marker not visible everywhere after this long is a lost write.
const MARKER_TIMEOUT: Duration = Duration::from_secs(15);
const AGREEMENT_TIMEOUT: Duration = Duration::from_secs(60);
const HARVEST_CAP: usize = 256;

/// A running cluster and how long it took to bring up.
pub struct NodeCluster {
    pub procs: Vec<NodeProc>,
    pub setup_s: f64,
}

impl NodeCluster {
    /// Spawns the bootstrap node and two joiners, roots every key
    /// round-robin across them (a key is rooted exactly once, by one node)
    /// and waits until the three agree on membership and content.
    pub fn start(seed: u64, keys: usize) -> Result<NodeCluster, String> {
        let started = Instant::now();
        let mut seeds = Rng::stream(seed, "node-seeds", 0);
        let io = |what: &str, error: std::io::Error| format!("{what}: {error}");
        let bootstrap =
            NodeProc::spawn(seeds.next_u64(), None).map_err(|e| io("spawn bootstrap node", e))?;
        let sponsor = bootstrap.advertised();
        let mut procs = vec![bootstrap];
        for _ in 1..NODES {
            procs.push(
                NodeProc::spawn(seeds.next_u64(), Some(&sponsor))
                    .map_err(|e| io("spawn joiner", e))?,
            );
        }
        let mut clients: Vec<NodeClient> =
            procs.iter().map(|p| p.client(seeds.next_u64())).collect();
        for key in 0..keys {
            clients[key % NODES]
                .put(&key_name(key as u32), value_for(root_id(key as u32)), None)
                .map_err(|e| io("root a key", e))?;
        }
        for probe in 0..PROBE_KEYS {
            clients[probe % NODES]
                .put(&probe_key_name(probe), value_for((keys + probe) as u64 + 1), None)
                .map_err(|e| io("root a marker key", e))?;
        }
        await_agreement(&mut clients, NODES, AGREEMENT_TIMEOUT)
            .ok_or("nodes did not converge during set-up")?;
        Ok(NodeCluster { procs, setup_s: started.elapsed().as_secs_f64() })
    }

    pub fn pids(&self) -> Vec<u32> {
        self.procs.iter().map(NodeProc::pid).collect()
    }

    pub fn tap_bytes(&self) -> u64 {
        self.procs.iter().map(|p| p.tap.bytes()).sum()
    }

    pub fn clients(&self, seed: u64) -> Vec<NodeClient> {
        self.procs.iter().enumerate().map(|(i, p)| p.client(seed ^ i as u64)).collect()
    }
}

impl Drop for NodeCluster {
    fn drop(&mut self) {
        stop_all(std::mem::take(&mut self.procs));
    }
}

/// What one client thread measured.
#[derive(Default)]
pub struct ClientOut {
    pub sessions: u64,
    pub elapsed_s: f64,
    pub get_ns: Vec<f64>,
    pub put_ns: Vec<f64>,
    pub ctx_tail_bytes: Vec<f64>,
    pub tail_contexts: Vec<PackedName>,
    pub log: Vec<Event>,
    pub attempted: u64,
    pub versions: u64,
    pub failures: Failures,
    pub layers: LayerSamples,
    pub spans: Vec<Span>,
}

pub struct ClientJob<'a> {
    pub thread: usize,
    pub spec: &'a Spec,
    pub sessions: &'a [Session],
    pub seed: u64,
    pub epoch: Instant,
    pub trace: bool,
    pub echo: Option<&'a EchoServer>,
}

/// One closed-loop client: a `NodeClient` per node, the next session only
/// after the previous one completed.
pub fn client_thread(job: &ClientJob<'_>, cluster: &NodeCluster, start: &Barrier) -> ClientOut {
    let mut out = ClientOut::default();
    let mut clients = cluster.clients(job.seed ^ ((job.thread as u64 + 1) << 32));
    let mut tracer = Tracer::new(job.trace, job.epoch, job.thread as u32);
    let mut probe =
        job.echo.map(|echo| SessionProbe::new(echo, job.seed ^ job.thread as u64, job.spec.keys));
    let backend = VstampBackend::gc();
    let key_names: Vec<String> = (0..job.spec.keys as u32).map(key_name).collect();
    let mut next_id = (job.thread as u64 + 1) << 40;
    let tail_from = job.sessions.len() - job.sessions.len() / TAIL_SHARE;
    let mix = job.spec.mix;
    assert!(mix.stale + mix.delete == 0, "the node driver has no stale or delete session");
    let probe_every = probe_every(job.sessions.len());
    let mut scratch = Vec::new();
    // Connect before the clock starts: dialing is set-up, not a session.
    for client in &mut clients {
        if client.status().is_err() {
            out.failures.fail("client could not reach its node".to_owned());
        }
    }
    start.wait();
    let started = Instant::now();
    for (index, session) in job.sessions.iter().enumerate() {
        let sid = index as u32;
        let name = &key_names[session.key as usize];
        let client = &mut clients[session.node as usize];
        let hot = oracle::follows(session.key);
        let root = tracer.open("session", Open::NONE, sid);
        let mut read_ids = Vec::new();
        let mut context = None;
        let mut siblings = 0;
        if session.kind != Kind::Blind {
            let (result, ns) = tracer.time("client.get", root, sid, || client.get(name));
            out.attempted += 1;
            match result {
                Ok((values, ctx)) => {
                    out.get_ns.push(ns as f64);
                    siblings = values.len();
                    for value in &values {
                        match id_of(value) {
                            Some(id) => read_ids.push(id),
                            None => out
                                .failures
                                .fail(format!("{name}: a value this benchmark never wrote")),
                        }
                    }
                    if values.is_empty() {
                        out.failures.fail(format!("{name}: rooted key read back empty"));
                    }
                    context = ctx;
                }
                Err(error) => {
                    out.failures.fail(format!("get {name}: {error}"));
                    tracer.close(root);
                    continue;
                }
            }
            if hot {
                out.log.push(Event::Read {
                    at_ns: ns_since(job.epoch),
                    key: session.key,
                    ids: read_ids.clone(),
                });
            }
            if index >= tail_from {
                scratch.clear();
                if let Some(ctx) = &context {
                    backend.encode_clock(ctx, &mut scratch);
                    if out.tail_contexts.len() < HARVEST_CAP {
                        out.tail_contexts.push(ctx.clone());
                    }
                }
                out.ctx_tail_bytes.push(scratch.len() as f64);
            }
        }
        let wrote = session.kind != Kind::Get;
        if wrote {
            next_id += 1;
            if hot {
                out.log.push(Event::Write {
                    at_ns: ns_since(job.epoch),
                    key: session.key,
                    id: next_id,
                    read: read_ids,
                    delete: false,
                });
            }
            let value = value_for(next_id);
            let (result, ns) =
                tracer.time("client.put", root, sid, || client.put(name, value, context.as_ref()));
            out.attempted += 1;
            match result {
                Ok(_) => {
                    out.put_ns.push(ns as f64);
                    out.versions += 1;
                }
                Err(error) => out.failures.fail(format!("put {name}: {error}")),
            }
        }
        if let Some(probe) = probe.as_mut().filter(|_| sid.is_multiple_of(probe_every)) {
            let op = Sampled { key: name, siblings, ctx: context.as_ref(), wrote, delete: false };
            probe.replay(&mut tracer, root, sid, op);
        }
        tracer.close(root);
        out.sessions += 1;
    }
    out.elapsed_s = started.elapsed().as_secs_f64();
    if let Some(probe) = probe {
        out.layers = probe.samples;
    }
    out.spans = tracer.into_spans();
    out
}

struct Marker {
    key: usize,
    id: u64,
    /// The value the key held before this marker; the only other thing a
    /// poll may legitimately see.
    previous: u64,
    written: Instant,
    /// When each node first showed the marker, in ms after the write.
    arrived_ms: [Option<f64>; NODES],
}

/// The one writer of the marker keys: each write is confirmed on every
/// node before its key is reused, so a key only ever holds its last marker
/// or the one before.
struct Markers {
    clients: Vec<NodeClient>,
    names: Vec<String>,
    last_id: Vec<u64>,
    next_id: u64,
    out: Replication,
}

impl Markers {
    fn write(&mut self, key: usize, writer: usize) -> Option<Marker> {
        let (name, expected) = (&self.names[key], self.last_id[key]);
        self.next_id += 1;
        self.out.attempted += 2;
        let client = &mut self.clients[writer];
        let written = client.get(name).and_then(|(values, ctx)| {
            let ids: Vec<Option<u64>> = values.iter().map(|v| id_of(v)).collect();
            if ids != [Some(expected)] {
                return Ok(Err(format!("{name}: expected [{expected}], read {ids:?}")));
            }
            client.put(name, value_for(self.next_id), ctx.as_ref()).map(Ok)
        });
        match written {
            Ok(Ok(_)) => {
                let mut arrived_ms = [None; NODES];
                arrived_ms[writer] = Some(0.0);
                self.last_id[key] = self.next_id;
                let (id, written) = (self.next_id, Instant::now());
                Some(Marker { key, id, previous: expected, written, arrived_ms })
            }
            Ok(Err(note)) => {
                self.out.failures.fail(note);
                None
            }
            Err(error) => {
                self.out.failures.fail(format!("marker write: {error}"));
                None
            }
        }
    }

    /// Looks for `marker` on the nodes that have not shown it yet; true
    /// once all have.
    fn visible_everywhere(&mut self, marker: &mut Marker) -> bool {
        let name = &self.names[marker.key];
        for (client, arrived_ms) in self.clients.iter_mut().zip(&mut marker.arrived_ms) {
            if arrived_ms.is_some() {
                continue;
            }
            self.out.attempted += 1;
            match client.get(name) {
                Ok((values, _)) => {
                    let ids: Vec<Option<u64>> = values.iter().map(|v| id_of(v)).collect();
                    if ids == [Some(marker.id)] {
                        *arrived_ms = Some(marker.written.elapsed().as_secs_f64() * 1e3);
                    } else if ids != [Some(marker.previous)] {
                        self.out.failures.fail(format!("{name}: polled {ids:?}"));
                    }
                }
                Err(error) => self.out.failures.fail(format!("marker poll: {error}")),
            }
        }
        marker.arrived_ms.iter().all(Option::is_some)
    }
}

/// Times replication on the cluster the window left behind, once it has
/// settled and with no client running — so the client figures of the
/// window are the clients' alone, and these are gossip's alone.
///
/// * lag: `LAG_MARKERS` writes on dedicated keys, each at a random node,
///   one in flight per key; the time until each of the other two nodes
///   shows it is one sample. (Not the time until both do: the nodes' 50 ms
///   gossip timers keep their offsets for the few seconds a phase lasts,
///   and the mean of that maximum moved up to 17 % from run to run with
///   where the offsets happened to sit.)
/// * heal (`cuts` > 0, the traced pass): the victim's tap is blocked for
///   `CUT` (rotating victim, connections closed), a marker is written at
///   the victim behind the cut, and the heal is the time from unblocking
///   until that marker is visible on both other nodes. The cut is
///   directed, as in `cluster_harness`: the victim still pulls.
pub fn measure_replication(
    cluster: &NodeCluster,
    keys: usize,
    seed: u64,
    cuts: usize,
) -> Replication {
    let mut markers = Markers {
        clients: cluster.clients(seed ^ 0x0B5E),
        names: (0..PROBE_KEYS).map(probe_key_name).collect(),
        last_id: (0..PROBE_KEYS).map(|p| (keys + p) as u64 + 1).collect(),
        next_id: 7u64 << 40,
        out: Replication::default(),
    };
    let mut rng = Rng::stream(seed, "markers", 0);
    let rest = |rng: &mut Rng| Instant::now() + REST.mul_f64(rng.unit());
    // Free marker keys and when each may be written again.
    let mut free: Vec<(usize, Instant)> =
        (0..PROBE_KEYS).map(|key| (key, rest(&mut rng))).collect();
    let mut pending: Vec<Marker> = Vec::new();
    let mut written = 0;
    while written < LAG_MARKERS || !pending.is_empty() {
        let now = Instant::now();
        while written < LAG_MARKERS {
            let Some(slot) = free.iter().position(|&(_, ready)| ready <= now) else { break };
            let (key, _) = free.swap_remove(slot);
            written += 1;
            match markers.write(key, rng.below(NODES as u64) as usize) {
                Some(marker) => pending.push(marker),
                // The failure is counted; the rest of the phase would only
                // repeat it.
                None => return markers.out,
            }
        }
        pending.retain_mut(|marker| {
            if markers.visible_everywhere(marker) {
                // One sample per other node; the writer's own 0 is none.
                markers
                    .out
                    .lag_ms
                    .extend(marker.arrived_ms.iter().flatten().filter(|&&ms| ms > 0.0));
                free.push((marker.key, rest(&mut rng)));
                return false;
            }
            if marker.written.elapsed() > MARKER_TIMEOUT {
                let note = format!("probe-{}: marker {} never replicated", marker.key, marker.id);
                markers.out.failures.fail(note);
                return false;
            }
            true
        });
        thread::sleep(POLL);
    }

    for cycle in 0..cuts {
        let victim = cycle % NODES;
        let tap = &cluster.procs[victim].tap;
        tap.set_blocked(true);
        let marker = markers.write(cycle % PROBE_KEYS, victim);
        thread::sleep(CUT);
        tap.set_blocked(false);
        let unblocked = Instant::now();
        let Some(mut marker) = marker else { break };
        loop {
            if markers.visible_everywhere(&mut marker) {
                markers.out.heal_ms.push(unblocked.elapsed().as_secs_f64() * 1e3);
                break;
            }
            if unblocked.elapsed() > MARKER_TIMEOUT {
                markers.out.failures.fail(format!("cut {cycle}: node {victim} never healed"));
                break;
            }
            thread::sleep(POLL);
        }
        thread::sleep(GAP);
    }
    markers.out
}

/// Waits until every node reports `members` active members and one digest
/// root; returns the milliseconds that took and the statuses.
pub fn settle(
    cluster: &NodeCluster,
    members: usize,
    seed: u64,
) -> Result<(f64, Vec<NodeStatus>), String> {
    let started = Instant::now();
    let mut clients = cluster.clients(seed ^ 0x5E77);
    let statuses = await_agreement(&mut clients, members, AGREEMENT_TIMEOUT)
        .ok_or("nodes did not converge after the run")?;
    Ok((started.elapsed().as_secs_f64() * 1e3, statuses))
}

/// Reads every followed key at every node against the replayed oracle;
/// the cluster must have settled. Returns the reads made.
pub fn verify(cluster: &NodeCluster, oracle: &mut Oracle, seed: u64) -> Result<u64, String> {
    let mut clients = cluster.clients(seed ^ 0x7E57);
    let mut reads = 0;
    for key in 0..ORACLE_KEYS {
        let name = key_name(key);
        for (node, client) in clients.iter_mut().enumerate() {
            let (values, _) =
                client.get(&name).map_err(|e| format!("final read of {name}: {e}"))?;
            let ids: Vec<u64> = values.iter().filter_map(|v| id_of(v)).collect();
            oracle.check_final(key, node, &ids);
            reads += 1;
        }
    }
    Ok(reads)
}
