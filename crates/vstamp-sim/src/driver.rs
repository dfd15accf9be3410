//! One seeded cluster driver: members behind one [`Member`] seam — a
//! [`NodeCore`], a [`Replica`] of a shared in-process [`Cluster`], or (in
//! the `cluster_harness` binary) a node process behind its nemesis proxy —
//! under one schedule loop, one [`Dice`] stream, one fault vocabulary and
//! one oracle glue around [`KeyOracle`]. An epoch of virtual time opens
//! with the timeline's due [`Event`]s and the client sessions, then ticks
//! [`EPOCH_MS`] milliseconds, each running every member whose gossip pause
//! is over; members that gossip on their own threads and clock
//! ([`Member::WALL_CLOCK`]) make an epoch last at least as long in wall
//! time. Threads split an epoch's sessions and members; one thread
//! replays a seed bit for bit. A request between members may meet a
//! partition, or, while the timeline's link-fault rate is above zero, a
//! link fault: a lost, cut or bit-flipped request, a Want that lost its
//! last line, a lost or cut reply, a reply of another kind, or the link's
//! previous reply. Under link faults every round that took a Delta is
//! followed by the mid-fault check: the member shows an antichain of every
//! key and keeps its own writes.
//!
//! [`harness`] is the one membership scenario every node substrate runs:
//! join by fork, a partition and a crash-restart from a
//! [`fault_plan`](crate::nemesis::fault_plan), and the eviction,
//! retirement, id-bit and oracle gates.

use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use vstamp_core::PackedName;
use vstamp_store::wire::{decode_want, encode_want};
use vstamp_store::{
    client_get, client_put, Cluster, Envelope, MemberStatus, MessageKind, NodeConfig, NodeCore,
    NodeStatus, PhiConfig, PullCursor, StoreBackend, TransportConfig,
};

use crate::nemesis::{Dice, FaultAction};
use crate::store_sim::{decode_id, encode_id, KeyOracle};

/// Virtual milliseconds per epoch: the harness's client-session cadence.
pub const EPOCH_MS: u64 = 20;
/// A member's pause between gossip rounds, the harness's cadence, jittered
/// by up to 2 ms as real loops drift.
pub const GOSSIP_MS: u64 = 25;
/// Node member `i` advertises `127.0.0.1:<NODE_PORT + i>`.
const NODE_PORT: usize = 40_000;

/// A transport to member `peer`: one request, one reply.
pub type Dial<'a> = dyn FnMut(usize, Envelope) -> io::Result<Envelope> + 'a;

/// What the driver needs of a cluster member.
pub trait Member: Sync {
    /// The causal context a read returns and a write supersedes.
    type Context: Clone + Send + Sync;
    /// One gossip round at `now`, reaching peers only through `dial`;
    /// whether its pull completed.
    fn gossip_round(&self, now: u64, dial: &mut Dial<'_>) -> bool;
    /// Answers one request from a peer; `None` drops it.
    fn handle(&self, request: Envelope, now: u64) -> Option<Envelope>;
    /// The digest root: equal on two members once they converged.
    fn root(&self) -> u64;
    /// A causal read: the sibling ids and the context.
    fn get(&self, key: &str, now: u64) -> (Vec<u64>, Option<Self::Context>);
    /// The sibling ids the member's store holds for `key`, read from the
    /// store itself with no client request (the mid-fault check's read).
    fn shown(&self, key: &str) -> Vec<u64>;
    /// A causal write of `id`, superseding `context`.
    fn put(&self, key: &str, id: u64, context: Option<&Self::Context>, now: u64);
    /// Whether the member has a causal Delete; a driver refuses a schedule
    /// that draws deletes for one without.
    const DELETES: bool;
    /// A causal delete superseding `context`; called only if
    /// [`Member::DELETES`].
    fn delete(&self, key: &str, context: Option<&Self::Context>, now: u64);
    /// Whether the member gossips on its own threads and clock: the driver
    /// then runs no rounds, and an epoch takes at least [`EPOCH_MS`] of
    /// wall time.
    const WALL_CLOCK: bool = false;
    /// Black-holes (or heals) the member's inbound side in a net of its
    /// own, besides the driver's; none by default.
    fn block(&self, _blocked: bool) {}
}

/// Node member `index`'s advertised address.
#[must_use]
pub fn node_addr(index: usize) -> String {
    format!("127.0.0.1:{}", NODE_PORT + index)
}

/// The client ops go through `client_get` / `client_put` over `handle`;
/// `shown` reads the core's store.
impl Member for NodeCore {
    type Context = PackedName;

    /// A node reports a round whose requests all got a reply.
    fn gossip_round(&self, now: u64, dial: &mut Dial<'_>) -> bool {
        let mut answered = true;
        NodeCore::gossip_round(self, now, |peer, request| {
            let port = peer.rsplit(':').next().and_then(|port| port.parse().ok());
            let reply = dial(port.map_or(usize::MAX, |port: usize| port - NODE_PORT), request);
            answered &= reply.is_ok();
            reply
        });
        answered
    }

    fn handle(&self, request: Envelope, now: u64) -> Option<Envelope> {
        NodeCore::handle(self, request, now)
    }

    fn root(&self) -> u64 {
        self.status().digest_root
    }

    fn get(&self, key: &str, now: u64) -> (Vec<u64>, Option<PackedName>) {
        let via = |request| self.handle(request, now).ok_or(io::ErrorKind::InvalidData.into());
        let (values, context) = client_get(key, via).expect("a core answers a Get");
        (values.iter().map(|value| decode_id(value)).collect(), context)
    }

    fn shown(&self, key: &str) -> Vec<u64> {
        self.cluster().get(0, key).iter_values().map(decode_id).collect()
    }

    fn put(&self, key: &str, id: u64, context: Option<&PackedName>, now: u64) {
        let via = |request| self.handle(request, now).ok_or(io::ErrorKind::InvalidData.into());
        client_put(key, &encode_id(id), context, via).expect("a core acks a Put");
    }

    /// The node path has no Delete.
    const DELETES: bool = false;
    fn delete(&self, _: &str, _: Option<&PackedName>, _: u64) {
        unreachable!("a node has no Delete")
    }
}

/// Replica `index` of a shared in-process [`Cluster`] as a member: a round
/// pulls from one other replica, picked by the member's own dice, under a
/// cursor the member keeps for that peer; `handle` is [`Cluster::serve`].
#[derive(Debug)]
pub struct Replica<'a, B: StoreBackend> {
    cluster: &'a Cluster<B>,
    index: usize,
    gossip: Mutex<(Dice, Vec<PullCursor>)>,
}

impl<'a, B: StoreBackend> Replica<'a, B> {
    /// Replica `index` of `cluster`, its dice seeded from `seed`.
    ///
    /// # Panics
    ///
    /// If the cluster has no replica `index`: a replica cannot restart.
    #[must_use]
    pub fn new(cluster: &'a Cluster<B>, index: usize, seed: u64) -> Self {
        assert!(index < cluster.replica_count(), "no replica {index}: only nodes restart");
        let cursors = vec![PullCursor::default(); cluster.replica_count()];
        let dice = Dice::new(seed ^ (index as u64 + 1) << 32);
        Replica { cluster, index, gossip: Mutex::new((dice, cursors)) }
    }
}

impl<B: StoreBackend> Member for Replica<'_, B> {
    type Context = B::Clock;

    fn gossip_round(&self, _: u64, dial: &mut Dial<'_>) -> bool {
        let (dice, cursors) = &mut *self.gossip.lock();
        let peer = (self.index + 1 + dice.pick(cursors.len() - 1)) % cursors.len();
        self.cluster.pull(self.index, &mut cursors[peer], |request| dial(peer, request)).is_ok()
    }

    fn handle(&self, request: Envelope, _: u64) -> Option<Envelope> {
        self.cluster.serve(self.index, &request).map(|(reply, _)| reply)
    }

    fn root(&self) -> u64 {
        self.cluster.digest_root(self.index)
    }

    fn get(&self, key: &str, _: u64) -> (Vec<u64>, Option<B::Clock>) {
        let read = self.cluster.get(self.index, key);
        (read.iter_values().map(decode_id).collect(), read.context().cloned())
    }

    fn shown(&self, key: &str) -> Vec<u64> {
        self.cluster.get(self.index, key).iter_values().map(decode_id).collect()
    }

    fn put(&self, key: &str, id: u64, context: Option<&B::Clock>, _: u64) {
        self.cluster.put(self.index, key, encode_id(id), context);
    }

    const DELETES: bool = true;
    fn delete(&self, key: &str, context: Option<&B::Clock>, _: u64) {
        self.cluster.delete(self.index, key, context);
    }
}

/// One timeline step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// A [`fault_plan`](crate::nemesis::fault_plan) action: a directed
    /// partition, a drain, or (node members only) a kill or a restart.
    Fault(FaultAction),
    /// Member `i` reaches only members of island `islands[i]` (members
    /// past the end are on island 0; empty heals everything).
    Islands(Vec<usize>),
    /// From now on a message between members meets a link fault with this
    /// chance (per mille); 0 stops them.
    LinkFaults(u16),
    /// A fresh key, first-touched by a session at each of two writable
    /// members before either has gossiped it.
    FreshKey,
}

/// What one run does.
#[derive(Debug, Clone, Default)]
pub struct Schedule {
    /// Seeds every choice of the run.
    pub seed: u64,
    /// Keys that exist from the start (more come with [`Event::FreshKey`]).
    pub keys: usize,
    /// Workload epochs.
    pub epochs: usize,
    /// Client sessions per epoch.
    pub sessions: usize,
    /// Chance (percent) that a session writes over an earlier read: one it
    /// remembered, or, with none remembered, no read at all (a blind
    /// write, with no context).
    pub stale_percent: u32,
    /// Chance (percent) that a session deletes instead of putting.
    pub delete_percent: u32,
    /// Threads an epoch's sessions and members are split across (0 or 1:
    /// serial and deterministic).
    pub threads: usize,
    /// Events by their offset from the workload's start in virtual ms,
    /// in order.
    pub timeline: Vec<(u64, Event)>,
}

/// The oracle's judgement of a run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Verdict {
    /// Scheduled client sessions run.
    pub sessions: usize,
    /// Writes (puts and deletes, fresh keys' first writes included).
    pub writes: usize,
    /// Read sibling pairs of which one covers the other.
    pub false_concurrency: usize,
    /// Causally maximal live writes the final reads miss.
    pub lost_updates: usize,
    /// Obsolete or unknown writes the final reads show.
    pub resurrections: usize,
    /// Own writes a member did not keep after a gossip round under faults.
    pub own_writes_lost: usize,
    /// Whether every live member reads the same sibling set of every key.
    pub converged: bool,
    /// Gossip rounds whose pull failed, and those that completed.
    pub pulls: [usize; 2],
}

impl Verdict {
    /// No causal violation, and converged.
    #[must_use]
    pub fn is_exact(&self) -> bool {
        self.false_concurrency + self.lost_updates + self.resurrections + self.own_writes_lost == 0
            && self.converged
    }
}

struct Slot<M> {
    /// `None` once killed.
    member: Option<M>,
    writable: bool,
    next_round: AtomicU64,
}

/// A remembered read, for a stale write: member, key, ids, context.
type Read<C> = (usize, usize, Vec<u64>, Option<C>);
/// A key's oracle and the writes that landed, as (member, id), less those
/// a later write of the same member covers (keeping that one keeps them).
type Ledger = (KeyOracle, Vec<(usize, u64)>);
type Spawn<'a, M> = Box<dyn FnMut(usize, &mut Dial<'_>) -> M + Sync + 'a>;

/// A cluster under one [`Schedule`].
#[allow(missing_debug_implementations)] // it holds the spawn closure
pub struct Driver<'a, M: Member> {
    schedule: Schedule,
    spawn: Spawn<'a, M>,
    slots: Vec<Slot<M>>,
    dice: Dice,
    now: u64,
    /// The net: a directed partition, islands, the link-fault rate in
    /// force, and every link's last reply.
    blocked: Option<usize>,
    islands: Vec<usize>,
    faults: u16,
    replies: Mutex<HashMap<(usize, usize), Envelope>>,
    oracles: Vec<Mutex<Ledger>>,
    /// Each thread's remembered reads.
    pools: Vec<Vec<Read<M::Context>>>,
    /// The counts so far; the final reads complete them.
    tally: Mutex<Verdict>,
    next_id: AtomicU64,
}

impl<'a, M: Member> Driver<'a, M> {
    /// `members` members, spawned in index order by `spawn`, which also
    /// spawns a restart's replacement.
    ///
    /// # Panics
    ///
    /// If the schedule draws deletes and the members have no Delete.
    pub fn new(
        schedule: Schedule,
        members: usize,
        spawn: impl FnMut(usize, &mut Dial<'_>) -> M + Sync + 'a,
    ) -> Self {
        assert!(M::DELETES || schedule.delete_percent == 0, "these members have no Delete");
        let mut driver = Driver {
            dice: Dice::new(schedule.seed ^ 0xC0FF_EE00),
            oracles: (0..schedule.keys).map(|_| Mutex::default()).collect(),
            pools: (0..schedule.threads.max(1)).map(|_| Vec::new()).collect(),
            schedule,
            spawn: Box::new(spawn),
            slots: Vec::new(),
            now: 0,
            blocked: None,
            islands: Vec::new(),
            faults: 0,
            replies: Mutex::default(),
            tally: Mutex::default(),
            next_id: AtomicU64::new(0),
        };
        (0..members).for_each(|_| driver.spawn());
        driver
    }

    /// A joiner's requests meet no partition and no link fault.
    fn spawn(&mut self) {
        let (slots, now) = (&self.slots, self.now);
        let mut dial = |peer: usize, request| {
            let sponsor = slots.get(peer).and_then(|slot| slot.member.as_ref());
            sponsor.and_then(|m| m.handle(request, now)).ok_or(io::ErrorKind::NotConnected.into())
        };
        let member = (self.spawn)(self.slots.len(), &mut dial);
        let next_round = AtomicU64::new(self.now + GOSSIP_MS);
        self.slots.push(Slot { member: Some(member), writable: true, next_round });
    }

    /// Every live member.
    pub fn members(&self) -> impl Iterator<Item = &M> {
        self.slots.iter().filter_map(|slot| slot.member.as_ref())
    }

    /// Whether every live member has one digest root.
    #[must_use]
    pub fn converged(&self) -> bool {
        let mut roots = self.members().map(Member::root);
        let first = roots.next();
        roots.all(|root| Some(root) == first)
    }

    /// A fresh key, first-touched at two distinct writable members; none
    /// with fewer than two.
    pub fn fresh_key(&mut self) {
        let writable = self.writable();
        if writable.len() < 2 {
            return;
        }
        let first = self.dice.pick(writable.len());
        let second = (first + 1 + self.dice.pick(writable.len() - 1)) % writable.len();
        self.oracles.push(Mutex::default());
        let mut dice = Dice::new(self.dice.next_u64());
        for member in [writable[first], writable[second]] {
            self.write(&self.read(member, self.oracles.len() - 1), &mut dice);
        }
    }

    /// The workload: `epochs` epochs, each opened by the timeline's due
    /// events (those due at its end fire after the last); `after_epoch`
    /// sees each one end.
    pub fn workload(&mut self, mut after_epoch: impl FnMut(&Self)) {
        let start = self.now;
        let mut timeline = std::mem::take(&mut self.schedule.timeline).into_iter().peekable();
        for epoch in 0..=self.schedule.epochs {
            while let Some((_, event)) = timeline.next_if(|(at, _)| start + at <= self.now) {
                match event {
                    Event::Fault(FaultAction::Block(i)) => self.partition(Some(i)),
                    Event::Fault(FaultAction::Unblock(_)) => self.partition(None),
                    Event::Fault(FaultAction::Drain(i)) => self.slots[i].writable = false,
                    // Dropping the member drops its store: acked writes
                    // live on only where gossip already shipped them.
                    Event::Fault(FaultAction::Kill(i)) => self.slots[i].member = None,
                    Event::Fault(FaultAction::Restart) => self.spawn(),
                    Event::Islands(islands) => self.islands = islands,
                    Event::LinkFaults(per_mille) => self.faults = per_mille,
                    Event::FreshKey => self.fresh_key(),
                }
            }
            if epoch < self.schedule.epochs {
                self.epoch(self.schedule.sessions);
                after_epoch(self);
            }
        }
    }

    /// Heals every partition, then runs session-free epochs, under the
    /// link-fault rate in force, until `done` holds (true) or `epochs` ran
    /// (false).
    pub fn settle(&mut self, epochs: usize, done: impl Fn(&Self) -> bool) -> bool {
        self.partition(None);
        self.islands = Vec::new();
        for _ in 0..epochs {
            if done(self) {
                return true;
            }
            self.epoch(0);
        }
        done(self)
    }

    /// Reads every key at every live member and judges the run.
    pub fn verdict(&self) -> Verdict {
        let writes = self.next_id.load(Relaxed) as usize;
        let mut verdict = Verdict { writes, converged: true, ..self.tally.lock().clone() };
        for (key, entry) in self.oracles.iter().enumerate() {
            let (oracle, _) = &*entry.lock();
            let mut reads = self.members().map(|member| {
                let mut ids = member.get(&key_name(key), self.now).0;
                ids.sort_unstable();
                ids
            });
            let Some(live) = reads.next() else { continue };
            verdict.converged &= reads.all(|read| read == live);
            verdict.false_concurrency += oracle.false_concurrency(&live);
            let expected = oracle.expected_live();
            verdict.lost_updates += expected.iter().filter(|id| !live.contains(id)).count();
            verdict.resurrections += live.iter().filter(|id| !expected.contains(id)).count();
        }
        verdict
    }

    /// Moves the directed partition to `blocked`, in the members' own nets
    /// too.
    fn partition(&mut self, blocked: Option<usize>) {
        for (index, on) in [(self.blocked, false), (blocked, true)] {
            if let Some(member) = index.and_then(|i| self.slots[i].member.as_ref()) {
                member.block(on);
            }
        }
        self.blocked = blocked;
    }

    fn writable(&self) -> Vec<usize> {
        let writable = |i: &usize| self.slots[*i].writable && self.slots[*i].member.is_some();
        (0..self.slots.len()).filter(writable).collect()
    }

    /// One epoch with `sessions` client sessions, on the schedule's threads.
    fn epoch(&mut self, sessions: usize) {
        let started = Instant::now();
        let threads = self.pools.len();
        let dice: Vec<Dice> = (0..threads).map(|_| Dice::new(self.dice.next_u64())).collect();
        let mut pools = std::mem::take(&mut self.pools);
        let this = &*self;
        let share = &|(t, (pool, mut dice)): (usize, (&mut Vec<_>, Dice))| {
            for _ in 0..sessions / threads + usize::from(t < sessions % threads) {
                this.random_session(pool, &mut dice);
            }
            if !M::WALL_CLOCK {
                this.ticks(t, threads, &mut dice);
            }
        };
        // Share 0 runs on this thread: a serial run spawns none.
        std::thread::scope(|scope| {
            let mut jobs = pools.iter_mut().zip(dice).enumerate();
            let own = jobs.next();
            jobs.for_each(|job| drop(scope.spawn(move || share(job))));
            own.map(share);
        });
        self.pools = pools;
        self.now += EPOCH_MS;
        if M::WALL_CLOCK {
            std::thread::sleep(Duration::from_millis(EPOCH_MS).saturating_sub(started.elapsed()));
        }
    }

    /// The epoch's ticks for the members of thread `t`: each whose pause is
    /// over runs a round, checked if it took a Delta under link faults.
    fn ticks(&self, t: usize, threads: usize, dice: &mut Dice) {
        for now in self.now + 1..=self.now + EPOCH_MS {
            for (index, slot) in self.slots.iter().enumerate().skip(t).step_by(threads) {
                let due = slot.next_round.load(Relaxed) <= now;
                let Some(member) = slot.member.as_ref().filter(|_| due) else { continue };
                slot.next_round.store(now + GOSSIP_MS + dice.roll(3), Relaxed);
                // Only a Delta changes what the member holds.
                let mut delta = false;
                let mut dial = |peer, request| {
                    let reply = self.send((index, peer), request, now, dice);
                    delta |= matches!(&reply, Ok(reply) if reply.kind == MessageKind::Delta);
                    reply
                };
                let completed = member.gossip_round(now, &mut dial);
                self.tally.lock().pulls[usize::from(completed)] += 1;
                if delta && self.faults > 0 {
                    self.check(index, member);
                }
            }
        }
    }

    fn random_session(&self, pool: &mut Vec<Read<M::Context>>, dice: &mut Dice) {
        let writable = self.writable();
        if writable.is_empty() || self.oracles.is_empty() {
            return;
        }
        self.tally.lock().sessions += 1;
        let (at, key) = (writable[dice.pick(writable.len())], dice.pick(self.oracles.len()));
        if dice.roll(100) < u64::from(self.schedule.stale_percent) {
            let remembered = (!pool.is_empty()).then(|| pool.remove(dice.pick(pool.len())));
            let read = remembered.filter(|read| writable.contains(&read.0));
            return self.write(&read.unwrap_or((at, key, Vec::new(), None)), dice);
        }
        let read = self.read(at, key);
        if self.schedule.stale_percent > 0 && dice.roll(100) < 30 {
            pool.push(read.clone());
            if pool.len() > 32 {
                pool.remove(0);
            }
        }
        self.write(&read, dice);
    }

    /// A read of `key` at member `at`, gated against the oracle.
    fn read(&self, at: usize, key: usize) -> Read<M::Context> {
        let member = self.slots[at].member.as_ref().expect("sessions run at live members");
        let (ids, context) = member.get(&key_name(key), self.now);
        let violations = self.oracles[key].lock().0.false_concurrency(&ids);
        self.tally.lock().false_concurrency += violations;
        (at, key, ids, context)
    }

    /// A write over `read`, recorded before it lands: a reader that sees
    /// the value finds its record in place. It is listed once it landed.
    fn write(&self, (at, key, read_ids, context): &Read<M::Context>, dice: &mut Dice) {
        let id = self.next_id.fetch_add(1, Relaxed) + 1;
        let delete = dice.roll(100) < u64::from(self.schedule.delete_percent);
        self.oracles[*key].lock().0.record_write(id, read_ids, delete);
        let member = self.slots[*at].member.as_ref().expect("writes land at live members");
        let name = key_name(*key);
        if delete {
            member.delete(&name, context.as_ref(), self.now);
        } else {
            member.put(&name, id, context.as_ref(), self.now);
        }
        let (oracle, landed) = &mut *self.oracles[*key].lock();
        landed.retain(|&(member, earlier)| member != *at || !oracle.covers(id, earlier));
        landed.push((*at, id));
    }

    /// The mid-fault check at member `index`: it shows an antichain of
    /// every key, and keeps each of its writes (see [`KeyOracle::kept`]).
    fn check(&self, index: usize, member: &M) {
        for (key, entry) in self.oracles.iter().enumerate() {
            // Listed before this read, so landed before it.
            let mine: Vec<u64> =
                entry.lock().1.iter().filter(|w| w.0 == index).map(|w| w.1).collect();
            let shown = member.shown(&key_name(key));
            let (oracle, _) = &*entry.lock();
            let mut tally = self.tally.lock();
            tally.own_writes_lost += mine.iter().filter(|&&id| !oracle.kept(id, &shown)).count();
            tally.false_concurrency += oracle.false_concurrency(&shown);
        }
    }

    /// Delivers `request` between two members under the net's partitions
    /// and link-fault rate, or refuses it like a closed socket.
    fn send(
        &self,
        (from, to): (usize, usize),
        mut request: Envelope,
        now: u64,
        dice: &mut Dice,
    ) -> io::Result<Envelope> {
        let lost = || io::Error::from(io::ErrorKind::ConnectionRefused);
        let island = |i| self.islands.get(i).copied().unwrap_or(0);
        let reachable = self.blocked != Some(to) && island(from) == island(to);
        let member = self.slots.get(to).and_then(|slot| slot.member.as_ref()).filter(|_| reachable);
        let Some(member) = member else { return Err(lost()) };
        if self.faults == 0 {
            return member.handle(request, now).ok_or_else(lost);
        }
        let fault = dice.chance(self.faults).then(|| dice.roll(8));
        let payload = &mut request.payload;
        match fault {
            Some(0) => return Err(lost()),
            Some(1) if !payload.is_empty() => payload.truncate(dice.pick(payload.len())),
            Some(2) if !payload.is_empty() => {
                let bit = dice.pick(payload.len() * 8);
                payload[bit / 8] ^= 1 << (bit % 8);
            }
            Some(3) if request.kind == MessageKind::Want => {
                if let Ok(mut wanted) = decode_want(payload) {
                    wanted.pop();
                    *payload = encode_want(&wanted);
                }
            }
            _ => {}
        }
        let mut reply = member.handle(request, now).ok_or_else(lost)?;
        let previous = self.replies.lock().insert((from, to), reply.clone());
        match fault {
            Some(4) => return Err(lost()),
            Some(5) => {
                use MessageKind::{Ack, Delta, Nak, Offer, Probe, PutOk, Want};
                reply.kind = [Probe, Ack, Offer, Delta, Nak, Want, PutOk][dice.pick(7)];
            }
            Some(6) if !reply.payload.is_empty() => {
                reply.payload.truncate(dice.pick(reply.payload.len()));
            }
            Some(7) => reply = previous.unwrap_or(reply),
            _ => {}
        }
        Ok(reply)
    }
}

fn key_name(key: usize) -> String {
    format!("key-{key}")
}

/// The harness's eviction grace, and its setup key count.
const GRACE_MS: u64 = 1_200;
const KEYS: usize = 4;
/// A fresh key every this many ms of the workload, until a drain.
const FRESH_MS: u64 = 500;
/// The link-fault rate of fault runs, per mille of messages between
/// members the driver delivers.
const FAULT_PER_MILLE: u16 = 100;
/// Virtual time a run may take to settle after setup, and after the
/// last fault.
const SETTLE_MS: u64 = 30_000;
const VERIFY_MS: u64 = 60_000;

/// The harness's node configuration; member `i` of a run with seed `s`
/// gets seed `s + 1000 i + 7`.
#[must_use]
pub fn node_config(seed: u64) -> NodeConfig {
    // Gossip stalls are heartbeat silence: a dropped frame blocks a
    // socket node's serial gossip loop for one io_timeout, so the
    // transport must fail fast (loopback replies arrive in microseconds)
    // and the eviction grace must dominate a worst-case run of stalls.
    let io_timeout = Duration::from_millis(250);
    NodeConfig {
        gossip_interval: Duration::from_millis(GOSSIP_MS),
        eviction_grace: Duration::from_millis(GRACE_MS),
        transport: TransportConfig { connect_timeout: io_timeout, io_timeout },
        phi: PhiConfig { threshold: 8.0, ..PhiConfig::default() },
        seed,
        ..NodeConfig::default()
    }
}

/// One harness run: the gates that failed, every live member's final
/// status, and the oracle's verdict.
#[derive(Debug)]
pub struct Outcome {
    /// One line per failed gate; empty when the run passed.
    pub failures: Vec<String>,
    /// Every live member's status at the end.
    pub statuses: Vec<NodeStatus>,
    /// The final reads' verdict.
    pub verdict: Verdict,
}

fn epochs(ms: u64) -> usize {
    (ms / EPOCH_MS) as usize
}

/// The harness scenario, on any node substrate: a bootstrap and two
/// joiners (`spawn` gets each member's index and [`node_config`]; index 3
/// is a crash's replacement), every key first-touched at two members at
/// once, the workload through `timeline` (empty for a control run) with a
/// fresh key every 500 ms until a drain, then heal and check the
/// gates; `status` reads a member's [`NodeStatus`]. `faulty` adds the
/// driver's link faults from the workload's start to the end. A run that
/// fails a gate prints every live member's status and sibling ids.
///
/// # Panics
///
/// If the setup never converges.
pub fn harness<M: Member>(
    seed: u64,
    timeline: &[(u64, FaultAction)],
    faulty: bool,
    mut spawn: impl FnMut(usize, NodeConfig, &mut Dial<'_>) -> M + Sync,
    status: impl Fn(&M) -> NodeStatus,
) -> Outcome {
    let end = timeline.last().map_or(2_500, |(last, _)| last + 1_500);
    // No fresh key once a member drains for its crash: a survivor that
    // retires and then first-touches a key lends again, which would hide
    // the shrink the retirement gate measures.
    let drain = timeline.iter().find(|(_, action)| matches!(action, FaultAction::Drain(_)));
    let mut events: Vec<_> =
        timeline.iter().map(|(at, action)| (*at, Event::Fault(*action))).collect();
    let fresh = (0..drain.map_or(end, |(at, _)| *at)).step_by(FRESH_MS as usize);
    events.extend(fresh.map(|at| (at, Event::FreshKey)));
    if faulty {
        events.push((0, Event::LinkFaults(FAULT_PER_MILLE)));
    }
    events.sort_by_key(|(at, _)| *at);
    let schedule = Schedule {
        seed,
        epochs: epochs(end),
        sessions: 1,
        timeline: events,
        ..Schedule::default()
    };
    let mut driver = Driver::new(schedule, 3, move |index, dial| {
        spawn(index, node_config(seed.wrapping_add(index as u64 * 1000 + 7)), dial)
    });
    let statuses = |d: &Driver<M>| d.members().map(&status).collect::<Vec<_>>();
    for _ in 0..KEYS {
        driver.fresh_key();
    }
    let setup = |d: &Driver<M>| {
        d.converged() && statuses(d).iter().all(|status| status.active_members == 3)
    };
    assert!(driver.settle(epochs(SETTLE_MS), setup), "seed {seed}: the setup never converged");
    // Every member is live, in index order.
    let addrs: Vec<String> = statuses(&driver).into_iter().map(|status| status.addr).collect();

    let mut peaks = HashMap::new();
    driver.workload(|d| {
        for status in statuses(d) {
            let peak = peaks.entry(status.addr).or_insert(0);
            *peak = status.id_bits.max(*peak);
        }
    });
    let mut failures = Vec::new();
    let dead = timeline.iter().find_map(|(_, action)| match action {
        FaultAction::Kill(index) => Some(&addrs[*index]),
        _ => None,
    });
    match dead {
        None => {
            if !driver.settle(epochs(VERIFY_MS), Driver::converged) {
                failures.push("live members never reached one digest root".to_owned());
            }
            for status in statuses(&driver) {
                if status.evicted_members != 0 || status.retirements != 0 {
                    failures.push(format!(
                        "false suspicion at {}: {} evicted, {} retirements",
                        status.addr, status.evicted_members, status.retirements
                    ));
                }
            }
        }
        Some(dead) => {
            let evicted = |d: &Driver<M>| {
                statuses(d)
                    .iter()
                    .all(|s| s.table.entry(dead).is_some_and(|e| e.status == MemberStatus::Evicted))
            };
            let retired = |d: &Driver<M>| {
                statuses(d).iter().map(|status| status.retirements).sum::<usize>() >= 1
            };
            let shrunk = |d: &Driver<M>| {
                statuses(d).iter().any(|s| peaks.get(&s.addr).is_some_and(|&p| s.id_bits < p))
            };
            let all = |d: &Driver<M>| evicted(d) && retired(d) && shrunk(d) && d.converged();
            if !driver.settle(epochs(VERIFY_MS), all) {
                for (gate, held) in [
                    ("killed incarnation evicted on every live member", evicted(&driver)),
                    ("at least one retirement", retired(&driver)),
                    ("id bits below their peak", shrunk(&driver)),
                    ("one digest root after heal", driver.converged()),
                ] {
                    if !held {
                        failures.push(format!("{gate}: never held ({dead} killed)"));
                    }
                }
            }
        }
    }

    let verdict = driver.verdict();
    if !verdict.converged {
        failures.push("live members read different sibling sets".to_owned());
    }
    for (count, what) in [
        (verdict.lost_updates, "lost acked writes"),
        (verdict.resurrections, "resurrections"),
        (verdict.false_concurrency, "false concurrency"),
        (verdict.own_writes_lost, "own writes lost mid-fault"),
    ] {
        if count != 0 {
            failures.push(format!("{count} {what}"));
        }
    }
    let statuses = statuses(&driver);
    if !failures.is_empty() {
        for (member, s) in driver.members().zip(&statuses) {
            eprintln!(
                "seed {seed}: {} root {:016x}, {} active, {} evicted, {} retirements, {} id bits",
                s.addr,
                s.digest_root,
                s.active_members,
                s.evicted_members,
                s.retirements,
                s.id_bits
            );
            for key in (0..driver.oracles.len()).map(key_name) {
                eprintln!("  {key} {:?}", member.shown(&key));
            }
        }
    }
    Outcome { failures, statuses, verdict }
}
