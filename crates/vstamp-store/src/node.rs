//! A real serving process: one OS process, one TCP listener, one
//! single-replica store, gossiping with peers over loopback TCP.
//!
//! A node is two layers. [`NodeCore`] makes every decision and does no
//! I/O: it learns the time only as a `now_ms` argument and reaches a peer
//! only through a `dial(peer, envelope) -> reply` closure, so `vstamp-sim`'s
//! seeded cluster driver (`vstamp_sim::driver`, run by its `node_sim`
//! test) runs whole clusters of cores under a virtual clock.
//! [`Node`] is the socket shell: it owns the listener, the threads, one
//! [`PeerLink`] per peer and the clock, and its loops are `recv → handle →
//! send` per connection and `sleep → gossip_round`.
//!
//! A core owns a `Cluster<VstampBackend>` with one replica. Each gossip
//! round is a [`Cluster::pull`] from one live peer under that member's
//! [`PullCursor`], with `dial` as the transport, and the core hands every
//! Probe, Want and NAK frame it receives to [`Cluster::serve`]: protocol,
//! batched apply and wire counters ([`Cluster::gossip_stats`]) are those of
//! the in-process [`Cluster::anti_entropy`]. This module adds membership,
//! failure detection and the client operations; [`transport`](crate::transport)
//! frames the envelopes.
//!
//! ## Identity discipline
//!
//! Every node carries a *membership stamp* and nothing else — no node id,
//! no counter, no configuration epoch:
//!
//! * The bootstrap node starts from the seed stamp.
//! * A joiner dials any live member with [`MessageKind::Join`]; the
//!   sponsor **forks its own membership stamp** and hands one half back —
//!   the paper's decentralized creation. No allocator exists anywhere.
//! * A key universe root is **never** the membership id itself. The
//!   node's first first touch forks the membership stamp **once**, keeps
//!   one half and records the *id* of the other — its *rooting lend* — in
//!   the member entry's `spent` footprint; every key the node first-touches
//!   is rooted at that one lend (key elements are ids, never stamps).
//!   Rooting a key therefore costs no fork, no `spent` growth and no
//!   member-table change. Sharing one root is sound because clocks are
//!   only ever compared within one key: two keys rooted at the same string
//!   never meet in a comparison. What must stay disjoint are the roots of
//!   *one* key at *two* nodes, and each lend is a fork half of its owner's
//!   membership stamp, so it is disjoint from every other member's id and
//!   `spent` (I1). Later joiners likewise land *outside* every lend.
//! * When the failure detector evicts a member,
//!   [`vstamp_core::retire_identity`] collapses the
//!   survivor's membership stamp against the table's evidence: every
//!   *other live* member defends its id plus its spent roots; the
//!   caller's own lends and the evicted member's entire footprint are
//!   reclaimed. The evicted identity subtree is reabsorbed and id
//!   strings shrink back toward the pre-join shape. Reclaiming key roots
//!   is sound because clocks are only ever compared *within* one key's
//!   universe — a dead member's keys live on through adopted elements,
//!   and overlap between reclaimed membership space and those universes
//!   is never observed by any comparison. A retirement that changes the
//!   identity drops the rooting lend (it may have been reabsorbed); the
//!   next first touch forks a fresh one off the retired identity.
//!
//! A key the node learns from a peer is rooted at the element part the
//! peer split off for it (the Delta carries one only for a key the
//! requester lacks), and a key it already holds never takes a peer's
//! part: an element only shrinks. Two nodes may first-touch the *same* key
//! before either has gossiped it. Their roots are disjoint lends, and
//! nothing ever joins space into an element, so the two first writes mint
//! disjoint dots and both survive as siblings. One exposure remains:
//! retirement reclaims the survivor's own lends and the evicted member's,
//! and a joiner sponsored from that space can still first-touch a key
//! rooted there before the key has reached the joiner.
//!
//! ## The member table rides the Probe
//!
//! The [`MemberTable`] lives beside the store. A node appends its table's
//! 8-byte digest to the engine's Probe; the reply opens with a frame that
//! is empty when the digests match and holds the responder's table
//! otherwise, which the requester merges. The engine sees neither. The
//! table is a join semilattice ([`MemberTable::merge`]): any two tables
//! merge, so it needs no causal versioning, siblings or write-back. The
//! owner rewrites its own entry where it changes (first lend, sponsored
//! fork, retirement); only [`NodeCore::gossip_round`] merges and retires.
//!
//! ## Failure model
//!
//! Every inbound envelope from a member doubles as a heartbeat into that
//! peer's [`PhiAccrual`] estimator. A peer whose phi stays above the
//! threshold for [`NodeConfig::eviction_grace`] is marked
//! [`MemberStatus::Evicted`] in the table (evicted-wins merge spreads the
//! mark), and retirement follows. A transient partition produces
//! suspicion that clears on heal — the grace period is the knob that
//! separates "slow" from "dead".

use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use vstamp_core::codec::{read_frame, read_varint, write_frame, write_varint};
use vstamp_core::{
    retire_identity, DecodeError, PackedName, StampCodec, VarintCodec, VersionStamp,
};

use crate::backend::{StoreBackend, VstampBackend};
use crate::cluster::{invalid, Cluster, PullCursor};
use crate::failure::{PhiAccrual, PhiConfig};
use crate::membership::{MemberEntry, MemberStatus, MemberTable};
use crate::store::Value;
use crate::transport::{recv_envelope, send_envelope, splitmix64, PeerLink, TransportConfig};
use crate::wire::{read_count, Envelope, MessageKind};

/// Tuning of one [`Node`].
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// Address the listener binds; port 0 picks a free port.
    pub bind_addr: String,
    /// Address written into the member table and announced to peers —
    /// set it to a proxy address to route inter-node traffic through a
    /// nemesis. Defaults to the bound address.
    pub advertise_addr: Option<String>,
    /// Store shards per node.
    pub shards: usize,
    /// Pause between gossip rounds.
    pub gossip_interval: Duration,
    /// Socket timeouts and dial budget.
    pub transport: TransportConfig,
    /// Failure-detector tuning.
    pub phi: PhiConfig,
    /// How long a peer must *stay* suspected before it is evicted.
    pub eviction_grace: Duration,
    /// Seed for peer selection and reconnect jitter.
    pub seed: u64,
}

impl Default for NodeConfig {
    fn default() -> Self {
        NodeConfig {
            bind_addr: "127.0.0.1:0".to_owned(),
            advertise_addr: None,
            shards: 4,
            gossip_interval: Duration::from_millis(50),
            transport: TransportConfig::default(),
            phi: PhiConfig::default(),
            eviction_grace: Duration::from_millis(1500),
            seed: 0,
        }
    }
}

/// A point-in-time snapshot of one node, served over
/// [`MessageKind::Status`] and used by the harness gates.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeStatus {
    /// The node's advertised address.
    pub addr: String,
    /// The store's order-insensitive digest root XOR the member table's
    /// digest — equal roots on two nodes mean their stores and their
    /// member tables converged.
    pub digest_root: u64,
    /// Active members in this node's view.
    pub active_members: usize,
    /// Evicted members in this node's view.
    pub evicted_members: usize,
    /// Bit-strings in the membership id — the quantity eviction-driven
    /// retirement shrinks back.
    pub id_strings: usize,
    /// Encoded size of the whole membership stamp, in bits.
    pub id_bits: usize,
    /// Completed retirement passes that changed the membership stamp.
    pub retirements: usize,
    /// Evictions this node itself initiated.
    pub evictions: usize,
    /// The node's current member table.
    pub table: MemberTable,
}

impl NodeStatus {
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        write_frame(&mut out, self.addr.as_bytes());
        write_varint(&mut out, self.digest_root);
        write_varint(&mut out, self.active_members as u64);
        write_varint(&mut out, self.evicted_members as u64);
        write_varint(&mut out, self.id_strings as u64);
        write_varint(&mut out, self.id_bits as u64);
        write_varint(&mut out, self.retirements as u64);
        write_varint(&mut out, self.evictions as u64);
        write_frame(&mut out, &self.table.encode());
        out
    }

    fn decode(bytes: &[u8]) -> Result<NodeStatus, DecodeError> {
        let mut input = bytes;
        let addr = String::from_utf8(read_frame(&mut input)?.to_vec())
            .map_err(|_| DecodeError::Malformed("status addr is not valid UTF-8"))?;
        let digest_root = read_varint(&mut input)?;
        let active_members = read_varint(&mut input)? as usize;
        let evicted_members = read_varint(&mut input)? as usize;
        let id_strings = read_varint(&mut input)? as usize;
        let id_bits = read_varint(&mut input)? as usize;
        let retirements = read_varint(&mut input)? as usize;
        let evictions = read_varint(&mut input)? as usize;
        let table = MemberTable::decode(read_frame(&mut input)?)?;
        if !input.is_empty() {
            return Err(DecodeError::TrailingData);
        }
        Ok(NodeStatus {
            addr,
            digest_root,
            active_members,
            evicted_members,
            id_strings,
            id_bits,
            retirements,
            evictions,
            table,
        })
    }
}

/// Mutable node state behind one coarse lock: the membership stamp, the
/// spent-root footprint, the member table and the failure detectors.
#[derive(Debug, Default)]
struct NodeState {
    identity: VersionStamp,
    spent: PackedName,
    /// The id every key this node first-touches is rooted at: one fork
    /// half of the identity, lent once and cleared by a retirement.
    rooting: Option<PackedName>,
    table: MemberTable,
    detectors: HashMap<String, PhiAccrual>,
    suspected_since: HashMap<String, u64>,
    gen: u64,
    retirements: usize,
    evictions: usize,
}

/// What only [`NodeCore::gossip_round`] touches — the peer-selection
/// stream and a pull cursor per active member; its lock also keeps rounds
/// from overlapping.
#[derive(Debug, Default)]
struct Gossip {
    rng: u64,
    cursors: HashMap<String, PullCursor>,
}

/// Everything one cluster member decides, with no sockets, threads or
/// clock: time arrives as `now_ms` and peers are reached through a `dial`
/// closure. [`Node`] runs one behind real sockets.
#[derive(Debug)]
pub struct NodeCore {
    config: NodeConfig,
    addr: String,
    port: u16,
    cluster: Cluster<VstampBackend>,
    state: Mutex<NodeState>,
    gossip: Mutex<Gossip>,
}

fn port_of(addr: &str) -> u16 {
    addr.rsplit(':').next().and_then(|p| p.parse().ok()).unwrap_or(0)
}

impl NodeCore {
    /// The first member of a fresh cluster, advertised as `addr`: its
    /// identity is the seed stamp and its table holds itself alone.
    #[must_use]
    pub fn bootstrap(config: NodeConfig, addr: String) -> NodeCore {
        let identity = VersionStamp::seed();
        let mut table = MemberTable::new();
        table.put_entry(MemberEntry::active(addr.clone(), identity.id_name().clone()));
        NodeCore::new(config, addr, identity, table)
    }

    /// Joins as `addr` by a [`MessageKind::Join`] to `sponsor` over `dial`:
    /// the sponsor forks its membership stamp and this core adopts the
    /// returned half as its identity, and the sponsor's table as its own.
    /// Later table changes and all data arrive through ordinary gossip.
    ///
    /// # Errors
    ///
    /// Whatever `dial` fails with, or `InvalidData` for a bad `JoinAck`.
    pub fn join(
        config: NodeConfig,
        addr: String,
        sponsor: &str,
        mut dial: impl FnMut(&str, Envelope) -> io::Result<Envelope>,
    ) -> io::Result<NodeCore> {
        let mut payload = Vec::new();
        write_frame(&mut payload, addr.as_bytes());
        let request = Envelope { kind: MessageKind::Join, from: port_of(&addr) as usize, payload };
        let reply = dial(sponsor, request)?;
        if reply.kind != MessageKind::JoinAck {
            return Err(invalid("sponsor sent a non-JoinAck reply"));
        }
        let mut input = reply.payload.as_slice();
        let identity = VarintCodec
            .decode_stamp(read_frame(&mut input).map_err(|_| invalid("short JoinAck"))?)
            .map_err(|_| invalid("JoinAck identity did not decode"))?;
        let table =
            MemberTable::decode(read_frame(&mut input).map_err(|_| invalid("short JoinAck"))?)
                .map_err(|_| invalid("JoinAck table did not decode"))?;
        Ok(NodeCore::new(config, addr, identity, table))
    }

    fn new(config: NodeConfig, addr: String, identity: VersionStamp, table: MemberTable) -> Self {
        NodeCore {
            port: port_of(&addr),
            cluster: Cluster::new(VstampBackend::gc(), 1, config.shards.max(1)),
            state: Mutex::new(NodeState { identity, table, ..NodeState::default() }),
            gossip: Mutex::new(Gossip {
                rng: config.seed ^ 0x9E37_79B9_7F4A_7C15,
                ..Gossip::default()
            }),
            config,
            addr,
        }
    }

    /// The core's store (replica 0), read directly by in-process checks.
    #[must_use]
    pub fn cluster(&self) -> &Cluster<VstampBackend> {
        &self.cluster
    }

    /// A status snapshot — what a [`MessageKind::Status`] request returns.
    #[must_use]
    pub fn status(&self) -> NodeStatus {
        // Shard locks are not taken under the state lock.
        let digest_root = self.cluster.digest_root(0);
        let state = self.state.lock();
        let active = state.table.entries().filter(|e| e.status == MemberStatus::Active).count();
        NodeStatus {
            addr: self.addr.clone(),
            digest_root: digest_root ^ state.table.digest(),
            active_members: active,
            evicted_members: state.table.len() - active,
            id_strings: state.identity.string_count(),
            id_bits: state.identity.encoded_bits(),
            retirements: state.retirements,
            evictions: state.evictions,
            table: state.table.clone(),
        }
    }

    /// One gossip round at `now_ms`: pull from one live peer over `dial`
    /// under that peer's cursor, merging the peer's member table when its
    /// Probe reply carries one, then sweep for failures.
    pub fn gossip_round(
        &self,
        now_ms: u64,
        mut dial: impl FnMut(&str, Envelope) -> io::Result<Envelope>,
    ) {
        let mut gossip = self.gossip.lock();
        let Gossip { rng, cursors } = &mut *gossip;
        let (peers, digest) = {
            let state = self.state.lock();
            (state.table.live_peers(&self.addr), state.table.digest())
        };
        cursors.retain(|peer, _| peers.contains(peer));
        if !peers.is_empty() {
            let peer = &peers[(splitmix64(rng) % peers.len() as u64) as usize];
            let cursor = cursors.entry(peer.clone()).or_default();
            // Peers read the sender's port out of `from` (the heartbeat
            // source); the engine knows only replica 0.
            let from = self.port as usize;
            let pulled = self.cluster.pull(0, cursor, |mut request| {
                let probe = request.kind == MessageKind::Probe;
                if probe {
                    request.payload.extend_from_slice(&digest.to_le_bytes());
                }
                let mut reply = dial(peer, Envelope { from, ..request })?;
                if probe {
                    let mut input = reply.payload.as_slice();
                    let table = read_frame(&mut input).map_err(|_| invalid("no member frame"))?;
                    if !table.is_empty() {
                        self.merge_table(
                            &MemberTable::decode(table).map_err(|_| invalid("bad member table"))?,
                        );
                    }
                    reply.payload = input.to_vec();
                }
                Ok(reply)
            });
            if pulled.is_ok() {
                self.feed_heartbeat(peer, now_ms);
            }
        }
        self.sweep_failures(now_ms);
    }

    /// The lend a first local touch of `key` roots it at: the rooting
    /// lend, which the first first touch forks off the membership stamp
    /// and records as spent. `None` if the key already exists (locally
    /// created or adopted from a peer's delta).
    fn lend_for(&self, key: &str) -> Option<PackedName> {
        if self.cluster.holds(0, key) {
            return None;
        }
        let mut state = self.state.lock();
        if state.rooting.is_none() {
            let (keep, lend) = state.identity.fork();
            let (_, lend) = lend.into_parts();
            state.identity = keep;
            state.spent = state.spent.join(&lend);
            state.rooting = Some(lend);
            self.refresh_own_entry(&mut state);
        }
        state.rooting.clone()
    }

    /// Rewrites this node's own table entry from the current identity and
    /// spent footprint, bumping the generation so the rewrite wins merges.
    /// An eviction mark stays: it is sticky everywhere else too.
    fn refresh_own_entry(&self, state: &mut NodeState) {
        state.gen += 1;
        let entry = MemberEntry {
            addr: self.addr.clone(),
            id: state.identity.id_name().clone(),
            spent: state.spent.clone(),
            status: state.table.entry(&self.addr).map_or(MemberStatus::Active, |e| e.status),
            gen: state.gen,
        };
        state.table.put_entry(entry);
    }

    /// Lattice-merges a peer's table into this node's, and retires the
    /// space freed by any eviction the merge adds.
    fn merge_table(&self, peer: &MemberTable) {
        let mut state = self.state.lock();
        let evicted = state.table.evicted().len();
        state.table.merge(peer);
        if state.table.evicted().len() > evicted {
            // Retirement runs only on eviction events: each pass also
            // reabsorbs the caller's own lent-out key roots, so running
            // it eagerly would churn the member table for no gain.
            self.maybe_retire(&mut state);
        }
    }

    /// Recomputes the membership stamp against the table's retirement
    /// evidence; on any shrink, adopts it, rewrites the own entry and
    /// drops the rooting lend: the retired identity may have reabsorbed
    /// it, and a later join could lend that space out.
    fn maybe_retire(&self, state: &mut NodeState) {
        let retired = retire_identity(&state.identity, &state.table.evidence_for(&self.addr));
        if retired != state.identity {
            state.identity = retired;
            state.rooting = None;
            state.retirements += 1;
            self.refresh_own_entry(state);
        }
    }

    /// Records a frame from `addr` at `now_ms` as a heartbeat — if `addr`
    /// is an active member. The address of an inbound frame is whatever the
    /// peer wrote into it, so anything else is ignored: detector state is
    /// bounded by the member table (members never heard from get their
    /// prior in [`NodeCore::sweep_failures`]).
    fn feed_heartbeat(&self, addr: &str, now_ms: u64) {
        let mut state = self.state.lock();
        if !state.table.entry(addr).is_some_and(|entry| entry.status == MemberStatus::Active) {
            return;
        }
        let phi = self.config.phi;
        state
            .detectors
            .entry(addr.to_owned())
            .or_insert_with(|| PhiAccrual::new(phi))
            .heartbeat(now_ms);
    }

    /// Suspicion sweep at `now`: seeds a conservative prior for members
    /// never heard from, evicts anyone suspected beyond the grace period,
    /// and retires the identity space that frees up.
    fn sweep_failures(&self, now: u64) {
        let grace = self.config.eviction_grace.as_millis() as u64;
        let prior = (self.config.gossip_interval.as_millis() as u64 * 4).max(1);
        let mut state = self.state.lock();
        let peers = state.table.live_peers(&self.addr);
        let mut evicted_any = false;
        for peer in peers {
            let phi = self.config.phi;
            let detector = state.detectors.entry(peer.clone()).or_insert_with(|| {
                // Never heard from this member: assume it *was* beating at
                // roughly the gossip cadence until now, so silence starts
                // accruing immediately instead of never.
                let mut fresh = PhiAccrual::new(phi);
                fresh.heartbeat(now.saturating_sub(prior));
                fresh.heartbeat(now);
                fresh
            });
            if detector.is_suspect(now) {
                let since = *state.suspected_since.entry(peer.clone()).or_insert(now);
                if now.saturating_sub(since) >= grace {
                    if state.table.mark_evicted(&peer) {
                        state.evictions += 1;
                        evicted_any = true;
                    }
                    state.detectors.remove(&peer);
                    state.suspected_since.remove(&peer);
                }
            } else {
                state.suspected_since.remove(&peer);
            }
        }
        if evicted_any {
            self.maybe_retire(&mut state);
        }
    }

    /// Answers one request received at `now_ms`, a member's (`from` ≠ 0)
    /// doubling as its heartbeat. `None` drops the connection: a malformed
    /// request or a response kind.
    pub fn handle(&self, mut request: Envelope, now_ms: u64) -> Option<Envelope> {
        if request.from != 0 {
            // Clients send from = 0 and stay out of the failure detector.
            self.feed_heartbeat(&format!("127.0.0.1:{}", request.from), now_ms);
        }
        let from = self.port as usize;
        let reply = |kind: MessageKind, payload: Vec<u8>| Envelope { kind, from, payload };
        match request.kind {
            MessageKind::Probe => {
                // The requester's table digest trails the engine's probe.
                let split = request.payload.len().checked_sub(8)?;
                let digest = u64::from_le_bytes(request.payload[split..].try_into().ok()?);
                request.payload.truncate(split);
                let (served, _) = self.cluster.serve(0, &request)?;
                let table = {
                    let state = self.state.lock();
                    (state.table.digest() != digest).then(|| state.table.encode())
                };
                let mut payload = Vec::new();
                write_frame(&mut payload, table.as_deref().unwrap_or_default());
                payload.extend_from_slice(&served.payload);
                Some(reply(served.kind, payload))
            }
            MessageKind::Want | MessageKind::Nak => {
                let (served, _) = self.cluster.serve(0, &request)?;
                Some(Envelope { from, ..served })
            }
            MessageKind::Join => {
                let mut input = request.payload.as_slice();
                let joiner = String::from_utf8(read_frame(&mut input).ok()?.to_vec()).ok()?;
                let mut state = self.state.lock();
                let (keep, give) = state.identity.fork();
                state.identity = keep;
                self.refresh_own_entry(&mut state);
                state.table.put_entry(MemberEntry::active(joiner, give.id_name().clone()));
                let mut payload = Vec::new();
                write_frame(&mut payload, &VarintCodec.encode_stamp(&give));
                write_frame(&mut payload, &state.table.encode());
                Some(reply(MessageKind::JoinAck, payload))
            }
            MessageKind::Get => {
                let mut input = request.payload.as_slice();
                let key = String::from_utf8(read_frame(&mut input).ok()?.to_vec()).ok()?;
                let read = self.cluster.get(0, &key);
                let mut payload = Vec::new();
                write_varint(&mut payload, read.live_len() as u64);
                for value in read.iter_values() {
                    write_frame(&mut payload, value);
                }
                write_context(&mut payload, read.context());
                Some(reply(MessageKind::GetOk, payload))
            }
            MessageKind::Put => {
                let mut input = request.payload.as_slice();
                let key = String::from_utf8(read_frame(&mut input).ok()?.to_vec()).ok()?;
                let value = read_frame(&mut input).ok()?.to_vec();
                let context = read_context(&mut input)?;
                // A held key never leaves a node's store (a node never
                // compacts), so `put` never roots a key at the store's
                // own lend, `{ε}`.
                let clock = match self.lend_for(&key) {
                    Some(lend) => self.cluster.put_rooted(0, &key, value, context.as_ref(), &lend),
                    None => self.cluster.put(0, &key, value, context.as_ref()),
                };
                let mut payload = Vec::new();
                let mut scratch = Vec::new();
                self.cluster.backend().encode_clock(&clock, &mut scratch);
                write_frame(&mut payload, &scratch);
                Some(reply(MessageKind::PutOk, payload))
            }
            MessageKind::Status => Some(reply(MessageKind::StatusOk, self.status().encode())),
            // A server never receives response kinds; drop the connection.
            _ => None,
        }
    }
}

/// One cluster member: a [`NodeCore`] behind a TCP listener, a thread per
/// connection and a gossip thread. Created by [`Node::bootstrap`] (first
/// process) or [`Node::join`] (every other process).
#[derive(Debug)]
pub struct Node {
    core: Arc<NodeCore>,
    local_addr: String,
    shutdown: Arc<AtomicBool>,
    /// The acceptor and gossip threads, taken and joined by [`Node::shutdown`].
    workers: Mutex<Option<(JoinHandle<()>, JoinHandle<()>)>>,
}

impl Node {
    /// Starts the first member of a fresh cluster ([`NodeCore::bootstrap`]).
    ///
    /// # Errors
    ///
    /// Fails if the listener cannot bind.
    pub fn bootstrap(config: NodeConfig) -> io::Result<Node> {
        let (listener, addr, local_addr) = Node::bind(&config)?;
        Ok(Node::start(NodeCore::bootstrap(config, addr), listener, local_addr))
    }

    /// Joins through `sponsor` ([`NodeCore::join`]), retrying for ten seconds.
    ///
    /// # Errors
    ///
    /// Fails if the listener cannot bind or the sponsor stays unreachable.
    pub fn join(config: NodeConfig, sponsor: &str) -> io::Result<Node> {
        let (listener, addr, local_addr) = Node::bind(&config)?;
        let mut link = PeerLink::new(sponsor.to_owned(), config.transport, config.seed);
        let deadline = Instant::now() + Duration::from_secs(10);
        let core = NodeCore::join(config, addr, sponsor, |_, request| loop {
            match link.request(&request) {
                Err(_) if Instant::now() < deadline => thread::sleep(Duration::from_millis(20)),
                outcome => break outcome,
            }
        })?;
        Ok(Node::start(core, listener, local_addr))
    }

    fn bind(config: &NodeConfig) -> io::Result<(TcpListener, String, String)> {
        let listener = TcpListener::bind(&config.bind_addr)?;
        let bound = listener.local_addr()?.to_string();
        let addr = config.advertise_addr.clone().unwrap_or_else(|| bound.clone());
        Ok((listener, addr, bound))
    }

    fn start(core: NodeCore, listener: TcpListener, local_addr: String) -> Node {
        let core = Arc::new(core);
        let shutdown = Arc::new(AtomicBool::new(false));
        // The node's clock: every `now_ms` handed to the core counts from here.
        let epoch = Instant::now();
        let (acceptor_core, acceptor_shutdown) = (Arc::clone(&core), Arc::clone(&shutdown));
        let (gossip_core, gossip_shutdown) = (Arc::clone(&core), Arc::clone(&shutdown));
        let workers = (
            thread::spawn(move || accept_loop(&acceptor_core, listener, &acceptor_shutdown, epoch)),
            thread::spawn(move || gossip_loop(&gossip_core, &gossip_shutdown, epoch)),
        );
        Node { core, local_addr, shutdown, workers: Mutex::new(Some(workers)) }
    }

    /// The node's advertised address (what peers and the member table
    /// use).
    #[must_use]
    pub fn addr(&self) -> &str {
        &self.core.addr
    }

    /// The listener's actual bound address. Equal to [`Node::addr`]
    /// unless an `advertise_addr` (say, a fault-injecting proxy) was
    /// configured — clients that must bypass the advertised path dial
    /// this one.
    #[must_use]
    pub fn local_addr(&self) -> &str {
        &self.local_addr
    }

    /// A local status snapshot — same contents a remote
    /// [`MessageKind::Status`] request returns.
    #[must_use]
    pub fn status(&self) -> NodeStatus {
        self.core.status()
    }

    /// Direct handle to the node's store, for in-process tests.
    #[must_use]
    pub fn cluster(&self) -> &Cluster<VstampBackend> {
        &self.core.cluster
    }

    /// Stops the accept and gossip loops and joins them. Connection
    /// handler threads notice the flag within one I/O timeout and exit on
    /// their own.
    ///
    /// The acceptor is parked in a blocking `accept`; one connection to
    /// the bound address (the advertised one may be a proxy) wakes it to
    /// see the flag. Should that dial fail, the acceptor is left detached
    /// instead of joined, so shutdown never hangs on it.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let mut workers = self.workers.lock();
        let Some((acceptor, gossip)) = workers.take() else { return };
        let woken = self.local_addr.parse::<SocketAddr>().is_ok_and(|addr| {
            TcpStream::connect_timeout(&addr, self.core.config.transport.connect_timeout).is_ok()
        });
        if woken {
            let _ = acceptor.join();
        }
        let _ = gossip.join();
    }
}

impl Drop for Node {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// `sleep → gossip_round`, with one [`PeerLink`] per peer ever dialed (at
/// most one per member-table entry) as the core's `dial`.
fn gossip_loop(core: &NodeCore, shutdown: &AtomicBool, epoch: Instant) {
    let config = &core.config;
    let mut seeds = config.seed;
    let mut links: HashMap<String, PeerLink> = HashMap::new();
    while !shutdown.load(Ordering::SeqCst) {
        thread::sleep(config.gossip_interval);
        core.gossip_round(epoch.elapsed().as_millis() as u64, |peer, request| {
            links
                .entry(peer.to_owned())
                .or_insert_with(|| PeerLink::new(peer, config.transport, splitmix64(&mut seeds)))
                .request(&request)
        });
    }
}

/// Blocks in `accept`; [`Node::shutdown`] dials in to wake it.
fn accept_loop(
    core: &Arc<NodeCore>,
    listener: TcpListener,
    shutdown: &Arc<AtomicBool>,
    epoch: Instant,
) {
    for stream in listener.incoming() {
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        match stream {
            Ok(stream) => {
                let (core, shutdown) = (Arc::clone(core), Arc::clone(shutdown));
                thread::spawn(move || serve_connection(&core, stream, &shutdown, epoch));
            }
            Err(_) => thread::sleep(Duration::from_millis(20)),
        }
    }
}

/// `recv → handle → send` until the peer leaves, a frame stalls or the
/// core refuses a request.
fn serve_connection(core: &NodeCore, mut stream: TcpStream, shutdown: &AtomicBool, epoch: Instant) {
    let io_timeout = Some(core.config.transport.io_timeout);
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(io_timeout);
    let _ = stream.set_write_timeout(io_timeout);
    while !shutdown.load(Ordering::SeqCst) {
        let request = match recv_envelope(&mut stream) {
            Ok(envelope) => envelope,
            // A timeout between frames: idle, retry. One mid-frame
            // comes back as `InvalidData` and drops the connection.
            Err(error)
                if error.kind() == io::ErrorKind::WouldBlock
                    || error.kind() == io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => return,
        };
        let Some(reply) = core.handle(request, epoch.elapsed().as_millis() as u64) else { return };
        if send_envelope(&mut stream, &reply).is_err() {
            return;
        }
    }
}

/// Appends an optional causal context: a flag byte, then the clock's frame.
fn write_context(out: &mut Vec<u8>, context: Option<&PackedName>) {
    out.push(u8::from(context.is_some()));
    if let Some(context) = context {
        let mut clock = Vec::new();
        VstampBackend::gc().encode_clock(context, &mut clock);
        write_frame(out, &clock);
    }
}

/// Reads what [`write_context`] wrote; `None` if it does not decode.
fn read_context(input: &mut &[u8]) -> Option<Option<PackedName>> {
    let (flag, rest) = input.split_first()?;
    *input = rest;
    match flag {
        0 => Some(None),
        1 => Some(Some(VstampBackend::gc().decode_clock(read_frame(input).ok()?).ok()?)),
        _ => None,
    }
}

/// A causal read over any transport `request` ([`NodeCore::handle`] in a
/// test driver): the sibling values and, when the key exists, the context
/// to pass to a superseding [`client_put`].
///
/// # Errors
///
/// Whatever `request` fails with, or `InvalidData` for a malformed reply.
pub fn client_get(
    key: &str,
    request: impl FnOnce(Envelope) -> io::Result<Envelope>,
) -> io::Result<(Vec<Value>, Option<PackedName>)> {
    let mut payload = Vec::new();
    write_frame(&mut payload, key.as_bytes());
    let reply = request(Envelope { kind: MessageKind::Get, from: 0, payload })?;
    if reply.kind != MessageKind::GetOk {
        return Err(invalid("get reply was not GetOk"));
    }
    let mut input = reply.payload.as_slice();
    let count = read_count(&mut input, 1).map_err(|_| invalid("bad GetOk count"))?;
    let mut values = Vec::with_capacity(count);
    for _ in 0..count {
        values.push(read_frame(&mut input).map_err(|_| invalid("short GetOk"))?.to_vec());
    }
    let context = read_context(&mut input).ok_or_else(|| invalid("bad GetOk context"))?;
    Ok((values, context))
}

/// A causal write over any transport `request`, superseding `context`;
/// returns the write's clock (the ack the oracle records).
///
/// # Errors
///
/// Whatever `request` fails with, or `InvalidData` for a malformed reply.
pub fn client_put(
    key: &str,
    value: &[u8],
    context: Option<&PackedName>,
    request: impl FnOnce(Envelope) -> io::Result<Envelope>,
) -> io::Result<PackedName> {
    let mut payload = Vec::new();
    write_frame(&mut payload, key.as_bytes());
    write_frame(&mut payload, value);
    write_context(&mut payload, context);
    let reply = request(Envelope { kind: MessageKind::Put, from: 0, payload })?;
    if reply.kind != MessageKind::PutOk {
        return Err(invalid("put reply was not PutOk"));
    }
    let frame = read_frame(&mut reply.payload.as_slice()).map_err(|_| invalid("short PutOk"))?;
    VstampBackend::gc().decode_clock(frame).map_err(|_| invalid("bad PutOk clock"))
}

/// A causal client for one node: `get` returns the sibling set plus a
/// causal context, `put` with that context supersedes what was read.
/// Clients identify as `from = 0`, keeping them out of failure detection.
#[derive(Debug)]
pub struct NodeClient {
    link: PeerLink,
}

impl NodeClient {
    /// A client for the node at `addr`.
    #[must_use]
    pub fn connect(addr: impl Into<String>, transport: TransportConfig, seed: u64) -> NodeClient {
        NodeClient { link: PeerLink::new(addr.into(), transport, seed) }
    }

    /// Causal read ([`client_get`] over this client's connection).
    ///
    /// # Errors
    ///
    /// Fails on connection loss, timeouts or a malformed reply.
    pub fn get(&mut self, key: &str) -> io::Result<(Vec<Value>, Option<PackedName>)> {
        client_get(key, |request| self.link.request(&request))
    }

    /// Causal write ([`client_put`] over this client's connection).
    ///
    /// # Errors
    ///
    /// Fails on connection loss, timeouts or a malformed reply.
    pub fn put(
        &mut self,
        key: &str,
        value: Value,
        context: Option<&PackedName>,
    ) -> io::Result<PackedName> {
        client_put(key, &value, context, |request| self.link.request(&request))
    }

    /// Fetches the node's [`NodeStatus`].
    ///
    /// # Errors
    ///
    /// Fails on connection loss, timeouts or a malformed reply.
    pub fn status(&mut self) -> io::Result<NodeStatus> {
        let request = Envelope { kind: MessageKind::Status, from: 0, payload: Vec::new() };
        let reply = self.link.request(&request)?;
        if reply.kind != MessageKind::StatusOk {
            return Err(invalid("status reply was not StatusOk"));
        }
        NodeStatus::decode(&reply.payload).map_err(|_| invalid("bad StatusOk payload"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::encode_probe;

    fn quick_config(seed: u64) -> NodeConfig {
        NodeConfig {
            gossip_interval: Duration::from_millis(10),
            eviction_grace: Duration::from_millis(200),
            phi: PhiConfig { threshold: 4.0, ..PhiConfig::default() },
            seed,
            ..NodeConfig::default()
        }
    }

    /// `dial` for cores wired in-process: every request lands in the
    /// addressed core's `handle` at `now_ms`.
    fn wired<'a>(
        cores: &'a [&'a NodeCore],
        now_ms: u64,
    ) -> impl FnMut(&str, Envelope) -> io::Result<Envelope> + 'a {
        move |peer, request| {
            let core =
                cores.iter().find(|core| core.addr == peer).ok_or_else(|| invalid("down"))?;
            core.handle(request, now_ms).ok_or_else(|| invalid("refused"))
        }
    }

    /// A client `Put` straight into `core`; the acked clock, if acked.
    fn put(
        core: &NodeCore,
        key: &str,
        value: &[u8],
        context: Option<&PackedName>,
    ) -> Option<PackedName> {
        client_put(key, value, context, |request| {
            core.handle(request, 0).ok_or_else(|| invalid("refused"))
        })
        .ok()
    }

    /// The bytes of a clock frame written the long way: `{00, 01}` is the
    /// region of the canonical `{0}`.
    fn non_canonical_clock() -> Vec<u8> {
        let mut clock = Vec::new();
        VstampBackend::gc().encode_clock(&"{00, 01}".parse().expect("a name"), &mut clock);
        clock
    }

    /// `count` gossip rounds of every core, 10 ms of `now` apart.
    fn rounds(cores: &[&NodeCore], now: &mut u64, count: usize) {
        for _ in 0..count {
            *now += 10;
            for core in cores {
                core.gossip_round(*now, wired(cores, *now));
            }
        }
    }

    /// Whether no string of `a` is a prefix of a string of `b`, or the
    /// other way round: invariant I1 between two ids.
    fn disjoint(a: &PackedName, b: &PackedName) -> bool {
        let theirs = b.strings();
        a.strings().iter().all(|s| theirs.iter().all(|t| s.is_incomparable_with(t)))
    }

    #[test]
    fn a_put_with_a_non_canonical_context_is_refused() {
        let core = NodeCore::bootstrap(quick_config(5), "127.0.0.1:40000".into());
        let request = |context: &[u8]| {
            let mut payload = Vec::new();
            write_frame(&mut payload, b"k");
            write_frame(&mut payload, b"v");
            payload.push(1);
            write_frame(&mut payload, context);
            Envelope { kind: MessageKind::Put, from: 0, payload }
        };
        let mut canonical = Vec::new();
        VstampBackend::gc().encode_clock(&"{0}".parse().expect("a name"), &mut canonical);
        assert_eq!(core.handle(request(&canonical), 0).expect("acked").kind, MessageKind::PutOk);
        assert!(core.handle(request(&non_canonical_clock()), 0).is_none());
    }

    #[test]
    fn a_put_ok_with_a_non_canonical_clock_is_refused() {
        let reply = |clock: Vec<u8>| {
            move |_| {
                let mut payload = Vec::new();
                write_frame(&mut payload, &clock);
                Ok(Envelope { kind: MessageKind::PutOk, from: 1, payload })
            }
        };
        let mut canonical = Vec::new();
        VstampBackend::gc().encode_clock(&"{0}".parse().expect("a name"), &mut canonical);
        assert!(client_put("k", b"v", None, reply(canonical)).is_ok());
        let refused = client_put("k", b"v", None, reply(non_canonical_clock()));
        assert_eq!(refused.expect_err("refused").kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn a_get_ok_claiming_more_values_than_it_carries_is_refused() {
        let mut payload = Vec::new();
        write_varint(&mut payload, 1 << 40);
        let reply = Envelope { kind: MessageKind::GetOk, from: 1, payload };
        let refused = client_get("k", |_| Ok(reply)).expect_err("refused");
        assert_eq!(refused.kind(), io::ErrorKind::InvalidData);
        assert_eq!(refused.to_string(), "bad GetOk count");
    }

    #[test]
    fn status_payload_roundtrips() {
        let mut table = MemberTable::new();
        table.put_entry(MemberEntry::active("127.0.0.1:9", PackedName::empty()));
        let status = NodeStatus {
            addr: "127.0.0.1:9".into(),
            digest_root: 42,
            active_members: 1,
            evicted_members: 0,
            id_strings: 3,
            id_bits: 17,
            retirements: 1,
            evictions: 0,
            table,
        };
        assert_eq!(NodeStatus::decode(&status.encode()).unwrap(), status);
    }

    #[test]
    fn join_write_and_converge_over_real_sockets() {
        let bootstrap = Node::bootstrap(quick_config(1)).expect("bootstrap");
        let joiner = Node::join(quick_config(2), bootstrap.addr()).expect("join");

        let mut client = NodeClient::connect(bootstrap.addr(), TransportConfig::default(), 7);
        client.put("greeting", b"hello".to_vec(), None).expect("put");
        let (values, context) = client.get("greeting").expect("get");
        assert_eq!(values, vec![b"hello".to_vec()]);
        client.put("greeting", b"hello world".to_vec(), context.as_ref()).expect("put 2");

        // A write at each node must reach the other one.
        let mut joined_client = NodeClient::connect(joiner.addr(), TransportConfig::default(), 8);
        joined_client.put("reply", b"hi".to_vec(), None).expect("joiner put");
        let deadline = Instant::now() + Duration::from_secs(20);
        for (reader, key, want) in [
            (&mut joined_client, "greeting", b"hello world".to_vec()),
            (&mut client, "reply", b"hi".to_vec()),
        ] {
            loop {
                let (values, _) = reader.get(key).expect("get");
                if values == vec![want.clone()] {
                    break;
                }
                assert!(Instant::now() < deadline, "{key} never converged: {values:?}");
                thread::sleep(Duration::from_millis(20));
            }
        }
        let status = joined_client.status().expect("status");
        assert_eq!(status.active_members, 2);
        // A node runs the store's one exchange engine, so it counts like
        // the in-process cluster. Once the roots agree, each side's next
        // pull (one gossip interval away) is a probe hit. Each side wrote a
        // key the other read back, so each shipped frames the other applied.
        loop {
            let stats = [&bootstrap, &joiner].map(|node| node.cluster().gossip_stats());
            if stats.iter().all(|stats| stats.root_matches > 0) {
                for stats in stats {
                    assert!(stats.root_probes > 0, "{stats:?}");
                    assert!(stats.delta_frames + stats.full_frames > 0, "{stats:?}");
                    assert!(stats.delta_bytes > 0 && stats.digest_bytes > 0, "{stats:?}");
                }
                break;
            }
            assert!(Instant::now() < deadline, "no probe ever hit: {stats:?}");
            thread::sleep(Duration::from_millis(20));
        }
        // Each link has pulled by now, so its cursor stands somewhere: a
        // later write is offered from there (`wanted_keys` grows at the
        // node that lacks it) and never again from zero.
        let before = [&bootstrap, &joiner].map(|node| node.cluster().gossip_stats());
        client.put("later", b"on".to_vec(), None).expect("steady-state put");
        loop {
            let (values, _) = joined_client.get("later").expect("get");
            if values == vec![b"on".to_vec()] {
                break;
            }
            assert!(Instant::now() < deadline, "later never converged: {values:?}");
            thread::sleep(Duration::from_millis(20));
        }
        let after = [&bootstrap, &joiner].map(|node| node.cluster().gossip_stats());
        assert!(after[1].wanted_keys > before[1].wanted_keys, "{before:?} -> {after:?}");
        assert!(after[0].offered_keys > before[0].offered_keys, "{before:?} -> {after:?}");
        for (before, after) in before.iter().zip(&after) {
            assert!(before.cursor_resets >= 1, "a link's first pull starts from zero: {before:?}");
            assert_eq!(after.cursor_resets, before.cursor_resets, "{before:?} -> {after:?}");
        }
        joiner.shutdown();
        bootstrap.shutdown();
    }

    #[test]
    fn shutdown_wakes_a_blocked_acceptor_promptly() {
        let config = quick_config(4);
        let io_timeout = config.transport.io_timeout;
        let node = Node::bootstrap(config).expect("bootstrap");
        let local_addr = node.local_addr().to_owned();
        let started = Instant::now();
        node.shutdown();
        let took = started.elapsed();
        assert!(took < io_timeout / 4, "shutdown took {took:?} with no connection accepted");
        // The acceptor was joined, so the listener is closed.
        assert!(TcpStream::connect(&local_addr).is_err(), "{local_addr} still accepts");
    }

    #[test]
    fn bogus_sender_fields_do_not_grow_detector_state() {
        let core = NodeCore::bootstrap(quick_config(3), "127.0.0.1:40000".into());
        // `from` is whatever the peer wrote: 10 000 distinct values, none
        // of them a member's port.
        for from in 1..=10_000 {
            let request = Envelope { kind: MessageKind::Status, from, payload: Vec::new() };
            assert_eq!(
                core.handle(request, from as u64).expect("reply").kind,
                MessageKind::StatusOk
            );
        }
        let state = core.state.lock();
        assert!(
            state.detectors.len() <= state.table.len(),
            "{} detectors for {} members",
            state.detectors.len(),
            state.table.len()
        );
    }

    #[test]
    fn rooting_keys_forks_the_membership_stamp_once() {
        // `one` roots a single key, `core` a thousand: both end with the
        // same identity, spent footprint and member table.
        let [one, core] = [7, 7].map(|seed| {
            let core = NodeCore::bootstrap(quick_config(seed), "127.0.0.1:40000".into());
            assert!(put(&core, "key-0", b"v", None).is_some());
            core
        });
        let id_bits = core.status().id_bits;
        let mut dots = Vec::new();
        for k in 1..1000 {
            dots.push(put(&core, &format!("key-{k}"), b"v", None).expect("acked"));
        }
        assert_eq!(core.status().id_bits, id_bits);
        let status = core.status();
        assert_eq!(status.table, one.status().table, "the keys changed the table");
        // One fork: the identity kept its half, `spent` is the lent half,
        // one string, and every key's first dot lies under it.
        let (keep, lend) = VersionStamp::seed().fork();
        assert_eq!(core.state.lock().identity, keep);
        let own = status.table.entry("127.0.0.1:40000").expect("own entry");
        assert_eq!(&own.spent, lend.id_name());
        let root = own.spent.shallowest_string().expect("one string");
        for dot in &dots {
            let dot = dot.shallowest_string().expect("a dot");
            assert!(root.is_prefix_of(&dot), "dot {dot} outside the lend {root}");
        }
    }

    /// A core at port `40000 + index` that `sponsor` let join.
    fn joined(sponsor: &NodeCore, seed: u64, index: u64) -> NodeCore {
        let addr = format!("127.0.0.1:{}", 40_000 + index);
        NodeCore::join(quick_config(seed + index), addr, &sponsor.addr, wired(&[sponsor], 0))
            .expect("join")
    }

    /// The bootstrap at port 40000 and a joiner it sponsors, at 40001.
    fn two_cores(seed: u64) -> [NodeCore; 2] {
        let a = NodeCore::bootstrap(quick_config(seed), "127.0.0.1:40000".into());
        let b = joined(&a, seed, 1);
        [a, b]
    }

    /// [`two_cores`] and a second joiner the bootstrap sponsors, at 40002.
    fn three_cores(seed: u64) -> [NodeCore; 3] {
        let [a, b] = two_cores(seed);
        let c = joined(&a, seed, 2);
        [a, b, c]
    }

    #[test]
    fn a_join_converges_the_table_on_three_cores_in_one_round() {
        for seed in 0..20 {
            let [a, b, c] = three_cores(100 * seed);
            let cores = [&a, &b, &c];
            // b's JoinAck predates c's join: b alone does not know c yet.
            assert_eq!(b.status().active_members, 2);
            let mut now = 0;
            rounds(&cores, &mut now, 1);
            for core in cores {
                let status = core.status();
                assert_eq!(status.table, a.status().table, "seed {seed} at {}", core.addr);
                assert_eq!(status.active_members, 3, "seed {seed} at {}", core.addr);
            }
        }
    }

    #[test]
    fn a_key_first_touched_at_two_cores_keeps_both_first_writes() {
        let [a, b, c] = three_cores(10);
        let cores = [&a, &b, &c];
        let mut now = 0;
        rounds(&cores, &mut now, 50);
        assert!(cores.iter().all(|core| core.status().table == a.status().table));
        // Each key is rooted at a's lend and at b's, before either gossips.
        let keys: Vec<String> = (0..200).map(|k| format!("fresh-{k}")).collect();
        for key in &keys {
            assert!(put(&a, key, b"a", None).is_some());
            assert!(put(&b, key, b"b", None).is_some());
        }
        rounds(&cores, &mut now, 20);
        for core in cores {
            for key in &keys {
                let mut values = core.cluster.get(0, key).values();
                values.sort();
                assert_eq!(values, [b"a".to_vec(), b"b".to_vec()], "{key} at {}", core.addr);
            }
        }
    }

    #[test]
    fn a_retirement_drops_the_lend_and_the_next_lend_is_disjoint_from_every_member() {
        let [a, b, c] = three_cores(13);
        assert!(put(&a, "a-first", b"v", None).is_some());
        assert!(put(&b, "b-key", b"v", None).is_some());
        let mut now = 0;
        rounds(&[&a, &b, &c], &mut now, 50);
        let before = a.state.lock().rooting.clone().expect("a-first took a's lend");
        // c dies: a evicts it once the grace period is over and retires
        // the space that frees up.
        while a.status().retirements == 0 {
            assert!(now < 10_000, "a never retired");
            rounds(&[&a, &b], &mut now, 1);
        }
        let retired = {
            let state = a.state.lock();
            assert_eq!(state.rooting, None, "the retirement kept the lend");
            state.identity.clone()
        };
        assert!(put(&a, "a-key", b"v", None).is_some());
        let (keep, lend) = retired.fork();
        let state = a.state.lock();
        assert_eq!(state.identity, keep);
        assert_eq!(state.rooting.as_ref(), Some(lend.id_name()));
        assert_ne!(lend.id_name(), &before);
        // I1 across the live cores: the lend is disjoint from b's id and
        // lend, and from a's own id.
        let peer = b.state.lock();
        for other in [peer.identity.id_name(), &peer.spent, state.identity.id_name()] {
            assert!(disjoint(lend.id_name(), other), "{} overlaps {other}", lend.id_name());
        }
    }

    #[test]
    #[ignore = "release: cargo test --release -p vstamp-store --lib -- --ignored rooting_cost_is_flat"]
    fn rooting_cost_is_flat_in_the_key_count() {
        const KEYS: usize = 100_000;
        const WINDOW: usize = 10_000;
        let core = NodeCore::bootstrap(quick_config(16), "127.0.0.1:40000".into());
        let sizes = |core: &NodeCore| {
            core.gossip_round(0, |_, _| Err(invalid("alone")));
            let status = core.status();
            (status.id_bits, status.table.encode().len())
        };
        assert!(put(&core, "key-0", b"v", None).is_some());
        let first = sizes(&core);
        let costs: Vec<Duration> = (1..=KEYS)
            .map(|k| {
                let started = Instant::now();
                assert!(put(&core, &format!("key-{k}"), b"v", None).is_some());
                started.elapsed()
            })
            .collect();
        assert_eq!(sizes(&core), first, "(id bits, table bytes) after one key and after all");
        let mean = |window: &[Duration]| window.iter().sum::<Duration>() / WINDOW as u32;
        let (early, late) = (mean(&costs[..WINDOW]), mean(&costs[KEYS - WINDOW..]));
        assert!(late <= 2 * early, "roots cost {early:?} early, {late:?} late");
    }

    #[test]
    fn a_probe_carries_the_table_digest_and_its_reply_the_table_only_on_a_mismatch() {
        let [a, b] = two_cores(14);
        // One round of b against a, keeping the Probe and a's reply to it.
        let probe_round = |now: u64| {
            let mut exchange = None;
            b.gossip_round(now, |_, request| {
                let reply = a.handle(request.clone(), now).ok_or_else(|| invalid("refused"))?;
                if request.kind == MessageKind::Probe {
                    exchange = Some((request.payload, reply.kind, reply.payload.clone()));
                }
                Ok(reply)
            });
            exchange.expect("b probed a")
        };
        // The JoinAck carried a's table, so the tables match; both stores
        // are empty, so the engine answers Ack with an empty payload.
        let digest = b.state.lock().table.digest();
        assert_eq!(digest, a.state.lock().table.digest());
        let engine_probe = encode_probe(b.cluster.digest_root(0), 0);
        let (sent, kind, reply) = probe_round(10);
        assert_eq!(sent, [engine_probe.as_slice(), &digest.to_le_bytes()].concat());
        assert_eq!(sent.len(), 8 + 1 + 8, "root, since, table digest");
        assert_eq!((kind, reply), (MessageKind::Ack, vec![0x00]));
        // a's first lend rewrites its entry: the reply now opens with a's
        // table, and the engine's Offer follows it untouched.
        assert!(put(&a, "a-key", b"v", None).is_some());
        let table = a.state.lock().table.encode();
        let mut framed = Vec::new();
        write_frame(&mut framed, &table);
        let engine_probe = encode_probe(b.cluster.digest_root(0), 0);
        let (offered, _) = a
            .cluster
            .serve(0, &Envelope { kind: MessageKind::Probe, from: 0, payload: engine_probe })
            .expect("a serves b's engine probe");
        let (_, kind, reply) = probe_round(20);
        assert_eq!((kind, reply), (MessageKind::Offer, [framed, offered.payload].concat()));
        assert_eq!(b.status().table, a.status().table, "b merged a's table");
        // A Probe too short to carry a digest drops the connection.
        let short = Envelope { kind: MessageKind::Probe, from: 0, payload: vec![0; 7] };
        assert!(a.handle(short, 30).is_none());
    }

    #[test]
    fn an_idle_converged_core_decodes_nothing_until_a_peer_changes_the_table() {
        let [a, b] = two_cores(8);
        let cores = [&a, &b];
        let mut now = 0;
        rounds(&cores, &mut now, 50);
        assert_eq!(a.status().table, b.status().table);
        assert_eq!(a.status().digest_root, b.status().digest_root);
        // Every Probe reply between converged cores is the empty member
        // frame and the engine's empty Ack.
        for _ in 0..20 {
            now += 10;
            for core in cores {
                core.gossip_round(now, |peer, request| {
                    let probe = request.kind == MessageKind::Probe;
                    let reply = wired(&cores, now)(peer, request)?;
                    assert!(!probe || reply.payload == [0x00], "{reply:?}");
                    Ok(reply)
                });
            }
        }
        // A member change at b — the lend b's first key forks — reaches a
        // in a's next pull.
        assert!(put(&b, "b-key", b"v", None).is_some());
        rounds(&cores, &mut now, 1);
        let entry = a.status().table.entry("127.0.0.1:40001").cloned().expect("b's entry");
        assert_eq!(entry.spent, b.state.lock().spent);
    }
}
