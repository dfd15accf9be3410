//! A real serving process: one OS process, one TCP listener, one
//! single-replica store, gossiping with peers over loopback TCP.
//!
//! A node is two layers. [`NodeCore`] makes every decision and does no
//! I/O: it learns the time only as a `now_ms` argument and reaches a peer
//! only through a `dial(peer, envelope) -> reply` closure, so `vstamp-sim`'s
//! `node_sim` test runs whole clusters of cores under a virtual clock.
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
//!   `spent` (I1). Later joiners likewise land *outside* every lend. The
//!   member register itself is rooted this way at bootstrap.
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
//! Two nodes may first-touch the *same* key before either has gossiped it.
//! Their roots are disjoint lends, and each key's collapse is bounded by
//! a **root floor** (see `VstampKeyState`): no collapse truncates an
//! element above its root, so the two first writes mint disjoint dots and
//! both survive as siblings. The floor follows an element into a half
//! granted from the other root. One exposure remains: retirement reclaims
//! the survivor's own lends and the evicted member's, and a joiner
//! sponsored from that space can still first-touch a key rooted there
//! before the key has reached the joiner.
//!
//! ## The member register has one writer
//!
//! The table replicates under the reserved [`MEMBERS_KEY`], which clients
//! cannot write. Rooting a key, sponsoring a join, evicting a member and
//! retiring an identity only change the in-memory table and mark the own
//! entry dirty. [`NodeCore::gossip_round`] alone refreshes the own entry,
//! writes the register (at most once a round) and decodes it (only when
//! its snapshot changed or the table is dirty: an idle node decodes none).
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
use crate::membership::{MemberEntry, MemberStatus, MemberTable, MEMBERS_KEY};
#[cfg(test)]
use crate::store::counted;
use crate::store::{KeySnapshot, Value};
use crate::transport::{recv_envelope, send_envelope, splitmix64, PeerLink, TransportConfig};
use crate::wire::{Envelope, MessageKind};

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
    /// Order-insensitive digest over the whole store — equal roots on
    /// two nodes mean their stores converged.
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
    /// The table is ahead of the register: the next gossip round writes.
    dirty: bool,
    detectors: HashMap<String, PhiAccrual>,
    suspected_since: HashMap<String, u64>,
    gen: u64,
    retirements: usize,
    evictions: usize,
}

/// What only [`NodeCore::gossip_round`] touches — the peer-selection
/// stream, a pull cursor per active member and the register snapshot the
/// table last merged or wrote; its lock also keeps rounds from overlapping.
#[derive(Debug, Default)]
struct Gossip {
    rng: u64,
    cursors: HashMap<String, PullCursor>,
    register: Option<Arc<KeySnapshot<VstampBackend>>>,
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
    /// identity is the seed stamp, and it roots the member register like
    /// any key, so every later joiner replicates it like ordinary data.
    #[must_use]
    pub fn bootstrap(config: NodeConfig, addr: String) -> NodeCore {
        let identity = VersionStamp::seed();
        let mut table = MemberTable::new();
        table.put_entry(MemberEntry::active(addr.clone(), identity.id_name().clone()));
        let core = NodeCore::new(config, addr, identity, table);
        core.ensure_key(MEMBERS_KEY);
        core
    }

    /// Joins as `addr` by a [`MessageKind::Join`] to `sponsor` over `dial`:
    /// the sponsor forks its membership stamp and this core adopts the
    /// returned half as its identity. The register and all data then
    /// arrive through ordinary gossip.
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

    /// A status snapshot — what a [`MessageKind::Status`] request returns.
    #[must_use]
    pub fn status(&self) -> NodeStatus {
        // Shard locks are not taken under the state lock.
        let digest_root = self.cluster.digest_root(0);
        let state = self.state.lock();
        let active = state.table.entries().filter(|e| e.status == MemberStatus::Active).count();
        NodeStatus {
            addr: self.addr.clone(),
            digest_root,
            active_members: active,
            evicted_members: state.table.len() - active,
            id_strings: state.identity.string_count(),
            id_bits: state.identity.encoded_bits(),
            retirements: state.retirements,
            evictions: state.evictions,
            table: state.table.clone(),
        }
    }

    /// One gossip round at `now_ms`: sync the table with the register (its
    /// one writer), pull from one live peer over `dial` under that peer's
    /// cursor, then sweep for failures.
    pub fn gossip_round(
        &self,
        now_ms: u64,
        mut dial: impl FnMut(&str, Envelope) -> io::Result<Envelope>,
    ) {
        let mut gossip = self.gossip.lock();
        let Gossip { rng, cursors, register } = &mut *gossip;
        self.sync_membership(register);
        let peers = self.state.lock().table.live_peers(&self.addr);
        cursors.retain(|peer, _| peers.contains(peer));
        if !peers.is_empty() {
            let peer = &peers[(splitmix64(rng) % peers.len() as u64) as usize];
            let cursor = cursors.entry(peer.clone()).or_default();
            // Peers read the sender's port out of `from` (the heartbeat
            // source); the engine knows only replica 0.
            let from = self.port as usize;
            let pulled =
                self.cluster.pull(0, cursor, |request| dial(peer, Envelope { from, ..request }));
            if pulled.is_ok() {
                self.feed_heartbeat(peer, now_ms);
            }
        }
        self.sweep_failures(now_ms);
    }

    /// First local touch of `key`: root it at the rooting lend, which the
    /// first first touch forks off the membership stamp and records as
    /// spent. No-op if the key already exists (locally created or adopted
    /// from a peer's delta).
    fn ensure_key(&self, key: &str) {
        if self.cluster.has_key(key) {
            return;
        }
        let mut state = self.state.lock();
        let NodeState { identity, spent, rooting, dirty, .. } = &mut *state;
        let lend = rooting.get_or_insert_with(|| {
            let (keep, lend) = identity.fork();
            let (_, lend) = lend.into_parts();
            *identity = keep;
            *spent = spent.join(&lend);
            *dirty = true;
            lend
        });
        self.cluster.create_key_rooted(key, lend);
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

    /// Unless the register is the snapshot `seen` last and the table is
    /// clean: merges the register's siblings into the table, retires space
    /// freed by newly seen evictions, and writes the table back if the
    /// register lacks it.
    fn sync_membership(&self, seen: &mut Option<Arc<KeySnapshot<VstampBackend>>>) {
        let read = self.cluster.get(0, MEMBERS_KEY);
        let fresh = read.snapshot().map(Arc::as_ptr) != seen.as_ref().map(Arc::as_ptr);
        if !fresh && !self.state.lock().dirty {
            return;
        }
        *seen = read.snapshot().cloned();
        #[cfg(test)]
        counted::REGISTER_DECODES.with(|n| n.set(n.get() + read.live_len() as u64));
        let siblings: Vec<MemberTable> =
            read.iter_values().filter_map(|value| MemberTable::decode(value).ok()).collect();
        let mut state = self.state.lock();
        let evicted = state.table.evicted().len();
        for sibling in &siblings {
            state.table.merge(sibling);
        }
        if state.table.evicted().len() > evicted {
            // Retirement runs only on eviction events: each pass also
            // reabsorbs the caller's own lent-out key roots, so running
            // it eagerly would churn the member table for no gain.
            self.maybe_retire(&mut state);
        }
        if std::mem::take(&mut state.dirty) {
            self.refresh_own_entry(&mut state);
        }
        // Settled once some sibling carries the whole table: writing to
        // *collapse* equal-content siblings would ping-pong forever (each
        // collapse write races the peer's), and readers merge them anyway.
        // A joiner that has not adopted the register yet must not write:
        // its write would root a second register.
        if siblings.contains(&state.table) || !self.cluster.has_key(MEMBERS_KEY) {
            return;
        }
        self.cluster.put(0, MEMBERS_KEY, state.table.encode(), read.context());
        *seen = self.cluster.get(0, MEMBERS_KEY).snapshot().cloned();
    }

    /// Recomputes the membership stamp against the table's retirement
    /// evidence; on any shrink, adopts it, marks the own entry dirty and
    /// drops the rooting lend: the retired identity may have reabsorbed
    /// it, and a later join could lend that space out.
    fn maybe_retire(&self, state: &mut NodeState) {
        let retired = retire_identity(&state.identity, &state.table.evidence_for(&self.addr));
        if retired != state.identity {
            state.identity = retired;
            state.rooting = None;
            state.retirements += 1;
            state.dirty = true;
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
            state.dirty = true;
            self.maybe_retire(&mut state);
        }
    }

    /// Answers one request received at `now_ms`, a member's (`from` ≠ 0)
    /// doubling as its heartbeat. `None` drops the connection: a malformed
    /// request, a response kind, or a client write to [`MEMBERS_KEY`].
    pub fn handle(&self, request: Envelope, now_ms: u64) -> Option<Envelope> {
        if request.from != 0 {
            // Clients send from = 0 and stay out of the failure detector.
            self.feed_heartbeat(&format!("127.0.0.1:{}", request.from), now_ms);
        }
        let from = self.port as usize;
        let reply = |kind: MessageKind, payload: Vec<u8>| Envelope { kind, from, payload };
        match request.kind {
            MessageKind::Probe | MessageKind::Want | MessageKind::Nak => {
                let (reply, _) = self.cluster.serve(0, &request)?;
                Some(Envelope { from, ..reply })
            }
            MessageKind::Join => {
                let mut input = request.payload.as_slice();
                let joiner = String::from_utf8(read_frame(&mut input).ok()?.to_vec()).ok()?;
                let mut state = self.state.lock();
                let (keep, give) = state.identity.fork();
                state.identity = keep;
                state.dirty = true;
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
                let values = read.values();
                write_varint(&mut payload, values.len() as u64);
                for value in &values {
                    write_frame(&mut payload, value);
                }
                match read.context() {
                    Some(context) => {
                        payload.push(1);
                        let mut scratch = Vec::new();
                        self.cluster.backend().encode_clock(context, &mut scratch);
                        write_frame(&mut payload, &scratch);
                    }
                    None => payload.push(0),
                }
                Some(reply(MessageKind::GetOk, payload))
            }
            MessageKind::Put => {
                let mut input = request.payload.as_slice();
                let key = String::from_utf8(read_frame(&mut input).ok()?.to_vec()).ok()?;
                if key == MEMBERS_KEY {
                    return None;
                }
                let value = read_frame(&mut input).ok()?.to_vec();
                let (flag, mut rest) = input.split_first()?;
                let context = if *flag == 1 {
                    let frame = read_frame(&mut rest).ok()?;
                    Some(self.cluster.backend().decode_clock(frame).ok()?)
                } else {
                    None
                };
                self.ensure_key(&key);
                let clock = self.cluster.put(0, &key, value, context.as_ref());
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

/// A causal client for one node: `get` returns the sibling set plus a
/// causal context, `put` with that context supersedes what was read.
/// Clients identify as `from = 0`, keeping them out of failure detection.
#[derive(Debug)]
pub struct NodeClient {
    link: PeerLink,
    backend: VstampBackend,
}

impl NodeClient {
    /// A client for the node at `addr`.
    #[must_use]
    pub fn connect(addr: impl Into<String>, transport: TransportConfig, seed: u64) -> NodeClient {
        NodeClient {
            link: PeerLink::new(addr.into(), transport, seed),
            backend: VstampBackend::gc(),
        }
    }

    fn request(&mut self, kind: MessageKind, payload: Vec<u8>) -> io::Result<Envelope> {
        self.link.request(&Envelope { kind, from: 0, payload })
    }

    /// Causal read: the current sibling values and, when the key exists,
    /// the context to pass to a superseding [`NodeClient::put`].
    ///
    /// # Errors
    ///
    /// Fails on connection loss, timeouts or a malformed reply.
    pub fn get(&mut self, key: &str) -> io::Result<(Vec<Value>, Option<PackedName>)> {
        let mut payload = Vec::new();
        write_frame(&mut payload, key.as_bytes());
        let reply = self.request(MessageKind::Get, payload)?;
        if reply.kind != MessageKind::GetOk {
            return Err(invalid("get reply was not GetOk"));
        }
        let mut input = reply.payload.as_slice();
        let count = read_varint(&mut input).map_err(|_| invalid("short GetOk"))?;
        let mut values = Vec::with_capacity(count.min(1 << 16) as usize);
        for _ in 0..count {
            values.push(read_frame(&mut input).map_err(|_| invalid("short GetOk"))?.to_vec());
        }
        let (flag, mut rest) = input.split_first().ok_or_else(|| invalid("short GetOk"))?;
        let context = if *flag == 1 {
            let frame = read_frame(&mut rest).map_err(|_| invalid("short GetOk"))?;
            Some(self.backend.decode_clock(frame).map_err(|_| invalid("bad GetOk clock"))?)
        } else {
            None
        };
        Ok((values, context))
    }

    /// Causal write; returns the write's clock (the ack the oracle
    /// records).
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
        let mut payload = Vec::new();
        write_frame(&mut payload, key.as_bytes());
        write_frame(&mut payload, &value);
        match context {
            Some(clock) => {
                payload.push(1);
                let mut scratch = Vec::new();
                self.backend.encode_clock(clock, &mut scratch);
                write_frame(&mut payload, &scratch);
            }
            None => payload.push(0),
        }
        let reply = self.request(MessageKind::Put, payload)?;
        if reply.kind != MessageKind::PutOk {
            return Err(invalid("put reply was not PutOk"));
        }
        let mut input = reply.payload.as_slice();
        let frame = read_frame(&mut input).map_err(|_| invalid("short PutOk"))?;
        self.backend.decode_clock(frame).map_err(|_| invalid("bad PutOk clock"))
    }

    /// Fetches the node's [`NodeStatus`].
    ///
    /// # Errors
    ///
    /// Fails on connection loss, timeouts or a malformed reply.
    pub fn status(&mut self) -> io::Result<NodeStatus> {
        let reply = self.request(MessageKind::Status, Vec::new())?;
        if reply.kind != MessageKind::StatusOk {
            return Err(invalid("status reply was not StatusOk"));
        }
        NodeStatus::decode(&reply.payload).map_err(|_| invalid("bad StatusOk payload"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

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
        let mut payload = Vec::new();
        write_frame(&mut payload, key.as_bytes());
        write_frame(&mut payload, value);
        payload.push(u8::from(context.is_some()));
        if let Some(context) = context {
            let mut clock = Vec::new();
            core.cluster.backend().encode_clock(context, &mut clock);
            write_frame(&mut payload, &clock);
        }
        let reply = core
            .handle(Envelope { kind: MessageKind::Put, from: 0, payload }, 0)
            .filter(|reply| reply.kind == MessageKind::PutOk)?;
        let frame = read_frame(&mut reply.payload.as_slice()).ok()?;
        core.cluster.backend().decode_clock(frame).ok()
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

    fn register(core: &NodeCore) -> Option<Arc<KeySnapshot<VstampBackend>>> {
        core.cluster.get(0, MEMBERS_KEY).snapshot().cloned()
    }

    fn decodes_and_lock_pairs() -> (u64, u64) {
        (counted::REGISTER_DECODES.with(Cell::get), counted::LOCK_PAIRS.with(Cell::get))
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
    fn a_client_put_to_the_member_register_is_refused() {
        let sponsor = NodeCore::bootstrap(quick_config(5), "127.0.0.1:40000".into());
        sponsor.gossip_round(0, |_, _| Err(invalid("alone")));
        let joiner = NodeCore::join(
            quick_config(6),
            "127.0.0.1:40001".into(),
            "127.0.0.1:40000",
            wired(&[&sponsor], 0),
        )
        .expect("join");
        // At a joiner that has not adopted the register, a write would
        // root a second, {ε}-rooted register universe.
        assert!(put(&joiner, MEMBERS_KEY, b"bogus", None).is_none());
        assert!(!joiner.cluster.has_key(MEMBERS_KEY));
        // At the sponsor, a write carrying the register's own context
        // would replace the table with client bytes.
        let before = register(&sponsor).expect("bootstrap wrote the register");
        assert!(put(&sponsor, MEMBERS_KEY, b"bogus", Some(before.context())).is_none());
        assert!(Arc::ptr_eq(&before, &register(&sponsor).expect("register")));
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
        // The bootstrap rooted the member register at the lend and marked
        // the own entry dirty; a thousand keys later the next round writes
        // the register once.
        let (_, pairs) = decodes_and_lock_pairs();
        core.gossip_round(1, |_, _| Err(invalid("alone")));
        let (_, after) = decodes_and_lock_pairs();
        assert_eq!(after - pairs, 1, "one round, one register write");
        one.gossip_round(1, |_, _| Err(invalid("alone")));
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
        let read = core.cluster.get(0, MEMBERS_KEY);
        let published: Vec<_> = read.iter_values().map(MemberTable::decode).collect();
        assert_eq!(published, vec![Ok(status.table)]);
        let (_, pairs) = decodes_and_lock_pairs();
        core.gossip_round(2, |_, _| Err(invalid("alone")));
        assert_eq!(decodes_and_lock_pairs().1, pairs, "a clean round wrote the register");
    }

    /// Three cores: the bootstrap at port 40000 and two joiners it
    /// sponsors, at 40001 and 40002.
    fn three_cores(seed: u64) -> [NodeCore; 3] {
        let a = NodeCore::bootstrap(quick_config(seed), "127.0.0.1:40000".into());
        let [b, c] = [1, 2].map(|index| {
            let addr = format!("127.0.0.1:{}", 40_000 + index);
            NodeCore::join(quick_config(seed + index), addr, "127.0.0.1:40000", wired(&[&a], 0))
                .expect("join")
        });
        [a, b, c]
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
        assert!(put(&b, "b-key", b"v", None).is_some());
        let mut now = 0;
        rounds(&[&a, &b, &c], &mut now, 50);
        let before = a.state.lock().rooting.clone().expect("the register took a's lend");
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
    fn an_idle_converged_core_decodes_nothing_until_a_peer_changes_the_table() {
        let a = NodeCore::bootstrap(quick_config(8), "127.0.0.1:40000".into());
        let b = NodeCore::join(
            quick_config(9),
            "127.0.0.1:40001".into(),
            "127.0.0.1:40000",
            wired(&[&a], 0),
        )
        .expect("join");
        let cores = [&a, &b];
        let mut now = 0;
        rounds(&cores, &mut now, 50);
        assert_eq!(a.status().table, b.status().table);
        assert_eq!(a.status().digest_root, b.status().digest_root);
        let (decodes, _) = decodes_and_lock_pairs();
        rounds(&cores, &mut now, 20);
        assert_eq!(decodes_and_lock_pairs().0, decodes, "an idle round decoded the register");
        // A member change at b — the lend b's first key forks — is in b's
        // register write on b's next round; a pulls it in its round after
        // and merges it in the one after that.
        assert!(put(&b, "b-key", b"v", None).is_some());
        rounds(&cores, &mut now, 3);
        let entry = a.status().table.entry("127.0.0.1:40001").cloned().expect("b's entry");
        assert_eq!(entry.spent, b.state.lock().spent);
        assert!(decodes_and_lock_pairs().0 > decodes);
    }
}
