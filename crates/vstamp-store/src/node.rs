//! A real serving process: one OS process, one TCP listener, one
//! single-replica store, gossiping with peers over loopback TCP.
//!
//! Each [`Node`] owns a `Cluster<VstampBackend>` with exactly one replica
//! and is the socket transport of the store's one exchange engine: the
//! gossip loop calls [`Cluster::pull`] with a closure that round-trips each
//! envelope over a [`PeerLink`] — whose [`PullCursor`] lives and dies with
//! the link — and the server side hands every Probe, Want and NAK frame to
//! [`Cluster::serve`]. The protocol, the batched
//! apply and the wire counters ([`Cluster::gossip_stats`]) are therefore
//! exactly those of the in-process [`Cluster::anti_entropy`]; this module
//! adds only what a process needs on top — framing by the
//! [`transport`](crate::transport) module, membership, failure detection
//! and the client operations.
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
//! * A key universe root is **never** the membership id itself: first
//!   touch of a key forks a dedicated half off the membership stamp,
//!   roots the key's universe there, and records the lent half in the
//!   member entry's `spent` footprint. Later joiners therefore always
//!   land *outside* every existing key universe.
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
//!   is never observed by any comparison.
//!
//! One honest limitation, inherent to coordination-free key creation:
//! rooting the *same key twice* — two nodes concurrently first-touching
//! a key before either has gossiped it, or a key re-rooted from
//! reclaimed space before its data arrives — produces two universes for
//! one key whose dots are not causally related to each other. Workloads
//! that create keys through any single node and let them replicate
//! before lending resumes (the harness does) never hit this.
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
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use vstamp_core::codec::{read_frame, read_varint, write_frame, write_varint};
use vstamp_core::{retire_identity, DecodeError, PackedName, VersionStamp};

use crate::backend::{StoreBackend, VstampBackend};
use crate::cluster::{invalid, Cluster, PullCursor};
use crate::failure::{PhiAccrual, PhiConfig};
use crate::membership::{MemberEntry, MemberStatus, MemberTable, MEMBERS_KEY};
use crate::store::Value;
use crate::transport::{recv_envelope, send_envelope, PeerLink, TransportConfig};
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
struct NodeState {
    identity: VersionStamp,
    spent: PackedName,
    table: MemberTable,
    detectors: HashMap<String, PhiAccrual>,
    suspected_since: HashMap<String, u64>,
    gen: u64,
    retirements: usize,
    evictions: usize,
}

struct NodeInner {
    config: NodeConfig,
    addr: String,
    local_addr: String,
    port: u16,
    cluster: Cluster<VstampBackend>,
    state: Mutex<NodeState>,
    shutdown: AtomicBool,
    epoch: Instant,
}

/// One cluster member: a TCP listener, a single-replica store, a gossip
/// loop and a membership stamp. Created by [`Node::bootstrap`] (first
/// process) or [`Node::join`] (every other process).
pub struct Node {
    inner: Arc<NodeInner>,
    threads: Mutex<Vec<JoinHandle<()>>>,
}

impl std::fmt::Debug for Node {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Node").field("addr", &self.inner.addr).finish_non_exhaustive()
    }
}

fn port_of(addr: &str) -> u16 {
    addr.rsplit(':').next().and_then(|p| p.parse().ok()).unwrap_or(0)
}

impl Node {
    /// Starts the first member of a fresh cluster: identity is the seed
    /// stamp, and the member table is created as a stamp-rooted key so
    /// every later joiner replicates it like ordinary data.
    ///
    /// # Errors
    ///
    /// Fails if the listener cannot bind.
    pub fn bootstrap(config: NodeConfig) -> io::Result<Node> {
        let (listener, addr, local_addr) = Node::bind(&config)?;
        let identity = VersionStamp::seed();
        let node = Node::start(config, listener, addr, local_addr, identity, MemberTable::new())?;
        {
            let inner = Arc::clone(&node.inner);
            let mut state = inner.state.lock();
            let own_id = state.identity.id_name().clone();
            state.table.put_entry(MemberEntry::active(inner.addr.clone(), own_id));
            inner.mint_members_key(&mut state);
        }
        Ok(node)
    }

    /// Joins an existing cluster by dialing `sponsor`: the sponsor forks
    /// its membership stamp and this node adopts the returned half as its
    /// identity — no allocator, no coordinator. The member table (and all
    /// data) then arrives through ordinary gossip.
    ///
    /// # Errors
    ///
    /// Fails if the listener cannot bind or the sponsor cannot be
    /// reached within the transport's dial budget.
    pub fn join(config: NodeConfig, sponsor: &str) -> io::Result<Node> {
        let (listener, addr, local_addr) = Node::bind(&config)?;
        let mut payload = Vec::new();
        write_frame(&mut payload, addr.as_bytes());
        let request = Envelope { kind: MessageKind::Join, from: port_of(&addr) as usize, payload };
        let mut link = PeerLink::new(sponsor.to_owned(), config.transport, config.seed);
        let deadline = Instant::now() + Duration::from_secs(10);
        let reply = loop {
            match link.request(&request) {
                Ok(reply) if reply.kind == MessageKind::JoinAck => break reply,
                Ok(_) => return Err(invalid("sponsor sent a non-JoinAck reply")),
                Err(_) if Instant::now() < deadline => {
                    thread::sleep(Duration::from_millis(20));
                }
                Err(error) => return Err(error),
            }
        };
        let mut input = reply.payload.as_slice();
        let backend = VstampBackend::gc();
        let identity = backend
            .decode_element(read_frame(&mut input).map_err(|_| invalid("short JoinAck"))?)
            .map_err(|_| invalid("JoinAck identity did not decode"))?;
        let table =
            MemberTable::decode(read_frame(&mut input).map_err(|_| invalid("short JoinAck"))?)
                .map_err(|_| invalid("JoinAck table did not decode"))?;
        Node::start(config, listener, addr, local_addr, identity, table)
    }

    fn bind(config: &NodeConfig) -> io::Result<(TcpListener, String, String)> {
        let listener = TcpListener::bind(&config.bind_addr)?;
        let bound = listener.local_addr()?.to_string();
        let addr = config.advertise_addr.clone().unwrap_or_else(|| bound.clone());
        Ok((listener, addr, bound))
    }

    fn start(
        config: NodeConfig,
        listener: TcpListener,
        addr: String,
        local_addr: String,
        identity: VersionStamp,
        table: MemberTable,
    ) -> io::Result<Node> {
        listener.set_nonblocking(true)?;
        let port = port_of(&addr);
        let cluster = Cluster::new(VstampBackend::gc(), 1, config.shards.max(1));
        let inner = Arc::new(NodeInner {
            config,
            addr,
            local_addr,
            port,
            cluster,
            state: Mutex::new(NodeState {
                identity,
                spent: PackedName::empty(),
                table,
                detectors: HashMap::new(),
                suspected_since: HashMap::new(),
                gen: 0,
                retirements: 0,
                evictions: 0,
            }),
            shutdown: AtomicBool::new(false),
            epoch: Instant::now(),
        });
        let mut threads = Vec::new();
        {
            let inner = Arc::clone(&inner);
            threads.push(thread::spawn(move || inner.accept_loop(listener)));
        }
        {
            let inner = Arc::clone(&inner);
            threads.push(thread::spawn(move || inner.gossip_loop()));
        }
        Ok(Node { inner, threads: Mutex::new(threads) })
    }

    /// The node's advertised address (what peers and the member table
    /// use).
    #[must_use]
    pub fn addr(&self) -> &str {
        &self.inner.addr
    }

    /// The listener's actual bound address. Equal to [`Node::addr`]
    /// unless an `advertise_addr` (say, a fault-injecting proxy) was
    /// configured — clients that must bypass the advertised path dial
    /// this one.
    #[must_use]
    pub fn local_addr(&self) -> &str {
        &self.inner.local_addr
    }

    /// A local status snapshot — same contents a remote
    /// [`MessageKind::Status`] request returns.
    #[must_use]
    pub fn status(&self) -> NodeStatus {
        self.inner.status()
    }

    /// Direct handle to the node's store, for in-process tests.
    #[must_use]
    pub fn cluster(&self) -> &Cluster<VstampBackend> {
        &self.inner.cluster
    }

    /// Stops the accept and gossip loops and joins them. Connection
    /// handler threads notice the flag within one I/O timeout and exit on
    /// their own.
    pub fn shutdown(&self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        for handle in self.threads.lock().drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Node {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl NodeInner {
    fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }

    fn status(&self) -> NodeStatus {
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

    /// Creates the member-table key, rooted — like every key — at a
    /// fresh fork half of the membership stamp.
    fn mint_members_key(&self, state: &mut NodeState) {
        let (keep, lend) = state.identity.fork();
        if self.cluster.create_key_rooted(MEMBERS_KEY, &lend) {
            state.identity = keep;
            state.spent = state.spent.join(lend.id_name());
            self.refresh_own_entry(state);
            self.write_members(state);
        }
    }

    /// First local touch of `key`: fork a root off the membership stamp,
    /// record it as spent, publish the updated entry. No-op if the key
    /// already exists (locally created or adopted from a peer's delta).
    fn ensure_key(&self, key: &str) {
        if key == MEMBERS_KEY || self.cluster.has_key(key) {
            return;
        }
        let mut state = self.state.lock();
        if self.cluster.has_key(key) {
            return;
        }
        let (keep, lend) = state.identity.fork();
        if self.cluster.create_key_rooted(key, &lend) {
            state.identity = keep;
            state.spent = state.spent.join(lend.id_name());
            self.refresh_own_entry(&mut state);
            self.write_members(&mut state);
        }
    }

    /// Rewrites this node's own table entry from the current identity and
    /// spent footprint, bumping the generation so the rewrite wins merges.
    fn refresh_own_entry(&self, state: &mut NodeState) {
        state.gen += 1;
        let entry = MemberEntry {
            addr: self.addr.clone(),
            id: state.identity.id_name().clone(),
            spent: state.spent.clone(),
            status: MemberStatus::Active,
            gen: state.gen,
        };
        state.table.put_entry(entry);
    }

    /// Publishes the in-memory table into the replicated register, if the
    /// members key exists locally yet (a joiner adopts it via gossip).
    fn write_members(&self, state: &mut NodeState) {
        if !self.cluster.has_key(MEMBERS_KEY) {
            return;
        }
        let read = self.cluster.get(0, MEMBERS_KEY);
        self.cluster.put(0, MEMBERS_KEY, state.table.encode(), read.context());
    }

    /// Folds the replicated register into the in-memory table (resolving
    /// any siblings by lattice merge), writes back when something new was
    /// learned, and retires identity space freed by newly seen evictions.
    fn sync_membership(&self) {
        if !self.cluster.has_key(MEMBERS_KEY) {
            return;
        }
        let read = self.cluster.get(0, MEMBERS_KEY);
        let siblings: Vec<MemberTable> =
            read.iter_values().filter_map(|value| MemberTable::decode(value).ok()).collect();
        let mut state = self.state.lock();
        let mut merged = state.table.clone();
        for sibling in &siblings {
            merged.merge(sibling);
        }
        // Settled once some replicated sibling already carries the full
        // merged table. Writing to *collapse* equal-content siblings would
        // ping-pong forever (every collapse write races the peer's and
        // spawns fresh siblings); leaving them is harmless — readers merge
        // all siblings, and the version set itself converges.
        let settled = siblings.contains(&merged);
        let newly_evicted = merged.evicted().len() > state.table.evicted().len();
        state.table = merged;
        if !settled {
            let bytes = state.table.encode();
            self.cluster.put(0, MEMBERS_KEY, bytes, read.context());
        }
        if newly_evicted {
            // Retirement runs only on eviction events: each pass also
            // reabsorbs the caller's own lent-out key roots, so running
            // it eagerly would churn the member table for no gain.
            self.maybe_retire(&mut state);
        }
    }

    /// Recomputes the membership stamp against the table's retirement
    /// evidence; on any shrink, adopts it and republishes the own entry.
    fn maybe_retire(&self, state: &mut NodeState) {
        let evidence: Vec<_> = state.table.evidence_for(&self.addr).into_iter().collect();
        let retired = retire_identity(&state.identity, evidence.iter());
        if retired != state.identity {
            state.identity = retired;
            state.retirements += 1;
            self.refresh_own_entry(state);
            self.write_members(state);
        }
    }

    /// Records a frame from `addr` as a heartbeat — if `addr` is an active
    /// member. The address of an inbound frame is whatever the peer wrote
    /// into it, so anything else is ignored: detector state is bounded by
    /// the member table (members never heard from get their prior in
    /// [`NodeInner::sweep_failures`]).
    fn feed_heartbeat(&self, addr: &str) {
        let now = self.now_ms();
        let mut state = self.state.lock();
        if !state.table.entry(addr).is_some_and(|entry| entry.status == MemberStatus::Active) {
            return;
        }
        let phi = self.config.phi;
        state
            .detectors
            .entry(addr.to_owned())
            .or_insert_with(|| PhiAccrual::new(phi))
            .heartbeat(now);
    }

    /// Suspicion sweep: seeds a conservative prior for members never
    /// heard from, evicts anyone suspected beyond the grace period, and
    /// retires the identity space that frees up.
    fn sweep_failures(&self) {
        let now = self.now_ms();
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
            self.write_members(&mut state);
            self.maybe_retire(&mut state);
        }
    }

    // ------------------------------------------------------------------
    // Gossip (requester side)
    // ------------------------------------------------------------------

    fn gossip_loop(self: Arc<Self>) {
        let mut rng = self.config.seed ^ 0x9E37_79B9_7F4A_7C15;
        // A link and how far this node has pulled from the peer behind it.
        let mut links: HashMap<String, (PeerLink, PullCursor)> = HashMap::new();
        while !self.shutdown.load(Ordering::SeqCst) {
            thread::sleep(self.config.gossip_interval);
            self.sync_membership();
            let peers = self.state.lock().table.live_peers(&self.addr);
            if let Some(peer) = pick(&peers, &mut rng) {
                let (link, cursor) = links.entry(peer.clone()).or_insert_with(|| {
                    let link =
                        PeerLink::new(peer.clone(), self.config.transport, splitmix(&mut rng));
                    (link, PullCursor::default())
                });
                // Peers read the sender's port out of `from` (the
                // heartbeat source); the engine knows only replica 0.
                let from = self.port as usize;
                let pulled = self
                    .cluster
                    .pull(0, cursor, |request| link.request(&Envelope { from, ..request }));
                if pulled.is_ok() {
                    self.feed_heartbeat(&peer);
                }
            }
            links.retain(|addr, _| {
                self.state
                    .lock()
                    .table
                    .entry(addr)
                    .map_or(true, |e| e.status == MemberStatus::Active)
            });
            self.sweep_failures();
        }
    }

    // ------------------------------------------------------------------
    // Server side
    // ------------------------------------------------------------------

    fn accept_loop(self: Arc<Self>, listener: TcpListener) {
        while !self.shutdown.load(Ordering::SeqCst) {
            match listener.accept() {
                Ok((stream, _)) => {
                    let inner = Arc::clone(&self);
                    thread::spawn(move || inner.serve_connection(stream));
                }
                Err(error)
                    if error.kind() == io::ErrorKind::WouldBlock
                        || error.kind() == io::ErrorKind::TimedOut =>
                {
                    thread::sleep(Duration::from_millis(5));
                }
                Err(_) => thread::sleep(Duration::from_millis(20)),
            }
        }
    }

    fn serve_connection(&self, mut stream: TcpStream) {
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(self.config.transport.io_timeout));
        let _ = stream.set_write_timeout(Some(self.config.transport.io_timeout));
        while !self.shutdown.load(Ordering::SeqCst) {
            let request = match recv_envelope(&mut stream) {
                Ok(envelope) => envelope,
                Err(error)
                    if error.kind() == io::ErrorKind::WouldBlock
                        || error.kind() == io::ErrorKind::TimedOut =>
                {
                    continue;
                }
                Err(_) => return,
            };
            if request.from != 0 {
                // Any member frame doubles as a heartbeat; clients send
                // from = 0 and stay out of the failure detector.
                self.feed_heartbeat(&format!("127.0.0.1:{}", request.from));
            }
            let Some(reply) = self.handle(request) else { return };
            if send_envelope(&mut stream, &reply).is_err() {
                return;
            }
        }
    }

    fn handle(&self, request: Envelope) -> Option<Envelope> {
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
                self.refresh_own_entry(&mut state);
                state.table.put_entry(MemberEntry::active(joiner, give.id_name().clone()));
                self.write_members(&mut state);
                let mut payload = Vec::new();
                let mut scratch = Vec::new();
                self.cluster.backend().encode_element(&give, &mut scratch);
                write_frame(&mut payload, &scratch);
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

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn pick(peers: &[String], rng: &mut u64) -> Option<String> {
    if peers.is_empty() {
        return None;
    }
    let index = (splitmix(rng) % peers.len() as u64) as usize;
    Some(peers[index].clone())
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

    fn quick_config(seed: u64) -> NodeConfig {
        NodeConfig {
            gossip_interval: Duration::from_millis(10),
            eviction_grace: Duration::from_millis(200),
            phi: PhiConfig { threshold: 4.0, ..PhiConfig::default() },
            seed,
            ..NodeConfig::default()
        }
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
        // A node runs the store's one exchange engine, so it batches and
        // counts like the in-process cluster. Once the roots agree, each
        // side's next pull (one gossip interval away) is a probe hit.
        loop {
            let stats = [&bootstrap, &joiner].map(|node| node.cluster().gossip_stats());
            if stats.iter().all(|stats| stats.root_matches > 0) {
                for stats in stats {
                    assert!(stats.exchanges > 0 && stats.batched_applies > 0, "{stats:?}");
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
    fn bogus_sender_fields_do_not_grow_detector_state() {
        let node = Node::bootstrap(quick_config(3)).expect("bootstrap");
        let mut stream = TcpStream::connect(node.addr()).expect("dial");
        stream.set_nodelay(true).expect("nodelay");
        // `from` is whatever the peer wrote: 10 000 distinct values, none
        // of them a member's port (ephemeral ports start far above).
        for from in 1..=10_000 {
            let request = Envelope { kind: MessageKind::Status, from, payload: Vec::new() };
            send_envelope(&mut stream, &request).expect("send");
            assert_eq!(recv_envelope(&mut stream).expect("reply").kind, MessageKind::StatusOk);
        }
        let state = node.inner.state.lock();
        assert!(
            state.detectors.len() <= state.table.len(),
            "{} detectors for {} members",
            state.detectors.len(),
            state.table.len()
        );
        drop(state);
        node.shutdown();
    }
}
