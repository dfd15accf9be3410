//! A whole cluster of `NodeCore`s under one seeded virtual clock: the
//! socket harness's fault plan, workload and gates (`cluster_harness`)
//! with no sockets, threads or sleeps. Each core's `dial` lands in the
//! addressed core's `handle`, so hundreds of seeds run in seconds and a
//! seed replays bit for bit.
//!
//! `cargo test -p vstamp-sim --test node_sim` runs 100 fault seeds and 100
//! control seeds; `cargo test --release -p vstamp-sim --test node_sim --
//! --ignored` runs 500 of each.

use std::collections::BTreeSet;
use std::io;
use std::time::Duration;

use vstamp_core::PackedName;
use vstamp_sim::nemesis::{FaultAction, FaultPlan};
use vstamp_sim::{decode_id, encode_id, KeyOracle};
use vstamp_store::{
    client_get, client_put, Envelope, MemberStatus, NodeConfig, NodeCore, NodeStatus, PhiConfig,
};

/// The harness's cadence: a gossip round every 25 ms, eviction after
/// 1.2 s of suspicion, one client session every 20 ms, over four keys.
/// Unlike the harness, every key is first-touched at two cores at once —
/// the four at setup, and a fresh one every 500 ms until a crash.
const GOSSIP_MS: u64 = 25;
const GRACE_MS: u64 = 1_200;
const SESSION_MS: u64 = 20;
const KEYS: usize = 4;
const FRESH_MS: u64 = 500;
/// The faulty nemesis's drop rate, per mille, rolled for every request
/// between cores and again for its reply.
const DROP_PER_MILLE: u64 = 20;
/// Virtual time a run may take to settle after setup, and after the
/// last fault.
const SETTLE_MS: u64 = 30_000;
const VERIFY_MS: u64 = 60_000;

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn config(seed: u64) -> NodeConfig {
    NodeConfig {
        gossip_interval: Duration::from_millis(GOSSIP_MS),
        eviction_grace: Duration::from_millis(GRACE_MS),
        phi: PhiConfig { threshold: 8.0, ..PhiConfig::default() },
        seed,
        ..NodeConfig::default()
    }
}

/// One core and the harness's view of it. Cores are named
/// `127.0.0.1:<port>` because a member frame's heartbeat is credited to
/// that address.
struct Member {
    addr: String,
    /// `None` once crashed.
    core: Option<NodeCore>,
    writable: bool,
    next_round: u64,
    peak_id_bits: usize,
}

/// What lies between cores: a partition refuses requests *to* the
/// blocked core (its own requests still go through), a crashed core
/// refuses everything, and the drop dice loses a request or its reply.
struct Net {
    dice: u64,
    drop_per_mille: u64,
    blocked: Option<usize>,
}

impl Net {
    fn lost(&mut self) -> bool {
        splitmix(&mut self.dice) % 1000 < self.drop_per_mille
    }

    fn deliver(
        &mut self,
        members: &[Member],
        peer: &str,
        request: Envelope,
        now: u64,
    ) -> io::Result<Envelope> {
        let refused = || io::Error::from(io::ErrorKind::ConnectionRefused);
        let index = members.iter().position(|m| m.addr == peer).ok_or_else(refused)?;
        if self.blocked == Some(index) || self.lost() {
            return Err(refused());
        }
        let core = members[index].core.as_ref().ok_or_else(refused)?;
        let reply = core.handle(request, now).ok_or_else(refused)?;
        if self.lost() {
            return Err(refused());
        }
        Ok(reply)
    }
}

/// `core.handle` at `now` as a client's transport.
fn via(core: &NodeCore, now: u64) -> impl FnOnce(Envelope) -> io::Result<Envelope> + '_ {
    move |request| core.handle(request, now).ok_or_else(|| io::ErrorKind::InvalidData.into())
}

/// A causal read through `handle`: the sibling ids and the context.
fn get(core: &NodeCore, key: &str, now: u64) -> (Vec<u64>, Option<PackedName>) {
    let (values, context) = client_get(key, via(core, now)).expect("a core answers a Get");
    (values.iter().map(|value| decode_id(value)).collect(), context)
}

/// A causal write through `handle`, superseding `context`.
fn put(core: &NodeCore, key: &str, id: u64, context: Option<&PackedName>, now: u64) {
    client_put(key, &encode_id(id), context, via(core, now)).expect("a core acks a Put");
}

struct Sim {
    seed: u64,
    now: u64,
    members: Vec<Member>,
    net: Net,
    /// Session and schedule choices.
    rng: u64,
    oracles: Vec<KeyOracle>,
    acked: BTreeSet<u64>,
    false_concurrency: usize,
}

impl Sim {
    /// A bootstrap core and two joiners, as the harness starts them.
    fn new(seed: u64, faulty: bool) -> Sim {
        let mut sim = Sim {
            seed,
            now: 0,
            members: Vec::new(),
            net: Net {
                dice: seed ^ 0xD1B5_4A32_D192_ED03,
                drop_per_mille: if faulty { DROP_PER_MILLE } else { 0 },
                blocked: None,
            },
            rng: seed ^ 0xC0FF_EE00,
            oracles: Vec::new(),
            acked: BTreeSet::new(),
            false_concurrency: 0,
        };
        for _ in 0..3 {
            sim.spawn();
        }
        sim
    }

    /// Starts the next core: the bootstrap, or a joiner sponsored by it
    /// that retries a lost handshake as the socket shell does.
    fn spawn(&mut self) {
        let index = self.members.len() as u64;
        let addr = format!("127.0.0.1:{}", 40_000 + index);
        let config = config(self.seed.wrapping_add(index * 1000 + 7));
        let core = if let Some(sponsor) = self.members.first() {
            let (members, net, now) = (&self.members, &mut self.net, self.now);
            loop {
                let dial = |peer: &str, request| net.deliver(members, peer, request, now);
                if let Ok(core) = NodeCore::join(config.clone(), addr.clone(), &sponsor.addr, dial)
                {
                    break core;
                }
            }
        } else {
            NodeCore::bootstrap(config, addr.clone())
        };
        let next_round = self.now + GOSSIP_MS;
        self.members.push(Member {
            addr,
            core: Some(core),
            writable: true,
            next_round,
            peak_id_bits: 0,
        });
    }

    /// One virtual millisecond: every core whose sleep is over runs its
    /// gossip round (the sleep is jittered by up to 2 ms, as real loops
    /// drift).
    fn tick(&mut self) {
        self.now += 1;
        let now = self.now;
        for index in 0..self.members.len() {
            if self.members[index].next_round > now {
                continue;
            }
            self.members[index].next_round = now + GOSSIP_MS + splitmix(&mut self.rng) % 3;
            let (members, net) = (&self.members, &mut self.net);
            if let Some(core) = &members[index].core {
                core.gossip_round(now, |peer, request| net.deliver(members, peer, request, now));
            }
        }
    }

    /// Ticks until `done` holds (true) or `deadline` passes (false).
    fn run_until(&mut self, deadline: u64, done: impl Fn(&Sim) -> bool) -> bool {
        loop {
            if done(self) {
                return true;
            }
            if self.now >= deadline {
                return false;
            }
            for _ in 0..10 {
                self.tick();
            }
        }
    }

    fn live(&self) -> impl Iterator<Item = (&Member, &NodeCore)> {
        self.members.iter().filter_map(|member| Some((member, member.core.as_ref()?)))
    }

    fn statuses(&self) -> Vec<NodeStatus> {
        self.live().map(|(_, core)| core.status()).collect()
    }

    fn converged(&self) -> bool {
        self.statuses().windows(2).all(|pair| pair[0].digest_root == pair[1].digest_root)
    }

    /// One causal session at member `index`: read the key, gate the
    /// sibling set against the oracle, write a superseding value.
    fn session(&mut self, index: usize, key: usize) {
        let core = self.members[index].core.as_ref().expect("sessions run at live cores");
        let name = format!("key-{key}");
        let (read_ids, context) = get(core, &name, self.now);
        let oracle = &mut self.oracles[key];
        self.false_concurrency += oracle.false_concurrency(&read_ids);
        let id = self.acked.len() as u64 + 1;
        put(core, &name, id, context.as_ref(), self.now);
        oracle.record_write(id, &read_ids, false);
        self.acked.insert(id);
    }

    /// A fresh key, first-touched by a session at each of `cores` before
    /// either has gossiped it: the key is rooted twice, and both first
    /// writes must survive as siblings.
    fn fresh_key(&mut self, cores: [usize; 2]) {
        let key = self.oracles.len();
        self.oracles.push(KeyOracle::default());
        for index in cores {
            self.session(index, key);
        }
    }

    fn writable(&self) -> Vec<usize> {
        (0..self.members.len())
            .filter(|&i| self.members[i].writable && self.members[i].core.is_some())
            .collect()
    }

    fn random_fresh_key(&mut self) {
        let writable = self.writable();
        if writable.len() < 2 {
            return;
        }
        let n = writable.len() as u64;
        let first = splitmix(&mut self.rng) % n;
        let second = (first + 1 + splitmix(&mut self.rng) % (n - 1)) % n;
        self.fresh_key([writable[first as usize], writable[second as usize]]);
    }

    fn random_session(&mut self) {
        let writable = self.writable();
        if writable.is_empty() {
            return;
        }
        let index = writable[(splitmix(&mut self.rng) % writable.len() as u64) as usize];
        let key = (splitmix(&mut self.rng) % self.oracles.len() as u64) as usize;
        self.session(index, key);
    }

    fn track_peaks(&mut self) {
        for member in &mut self.members {
            if let Some(core) = &member.core {
                member.peak_id_bits = member.peak_id_bits.max(core.status().id_bits);
            }
        }
    }
}

/// The gates that failed on one run, and every live core's final status.
struct Verdict {
    failures: Vec<String>,
    statuses: Vec<NodeStatus>,
}

/// One harness run: set up, run the workload through `timeline` (empty for
/// a control run), heal, and check the gates; `faulty` adds the drop dice.
fn run(seed: u64, timeline: &[(Duration, FaultAction)], faulty: bool) -> Verdict {
    let mut sim = Sim::new(seed, faulty);
    let mut failures = Vec::new();
    for key in 0..KEYS {
        sim.fresh_key([key % 3, (key + 1) % 3]);
    }
    let settled = sim.run_until(SETTLE_MS, |sim| {
        sim.converged() && sim.statuses().iter().all(|s| s.active_members == 3)
    });
    assert!(settled, "seed {seed}: the fault-free setup never converged");

    let start = sim.now;
    let at = |offset: Duration| start + offset.as_millis() as u64;
    let end = timeline.last().map_or(start + 2_500, |(last, _)| at(*last) + 1_500);
    let mut dead = None;
    let mut next = 0;
    while sim.now < end || next < timeline.len() {
        while next < timeline.len() && at(timeline[next].0) <= sim.now {
            match timeline[next].1 {
                FaultAction::Block(i) => sim.net.blocked = Some(i),
                FaultAction::Unblock(_) => sim.net.blocked = None,
                FaultAction::Drain(i) => sim.members[i].writable = false,
                FaultAction::Kill(i) => {
                    dead = Some(sim.members[i].addr.clone());
                    // Dropping the core drops its store: acked writes live
                    // on only where gossip already shipped them.
                    sim.members[i].core = None;
                }
                // A brand-new member at a new port, written to like any
                // other: a write to a key it has not pulled yet roots the
                // key a second time.
                FaultAction::Restart => sim.spawn(),
            }
            next += 1;
        }
        if (sim.now - start) % SESSION_MS == 0 {
            // No fresh key once a core drains for its crash: a survivor
            // that retires and then first-touches a key lends again, which
            // would hide the shrink the retirement gate measures.
            if (sim.now - start) % FRESH_MS == 0 && sim.members.iter().all(|m| m.writable) {
                sim.random_fresh_key();
            }
            sim.random_session();
            sim.track_peaks();
        }
        sim.tick();
    }

    let deadline = sim.now + VERIFY_MS;
    match dead {
        None => {
            if !sim.run_until(deadline, Sim::converged) {
                failures.push("live cores never reached one digest root".to_owned());
            }
            for status in sim.statuses() {
                if status.evicted_members != 0 || status.retirements != 0 {
                    failures.push(format!(
                        "false suspicion at {}: {} evicted, {} retirements",
                        status.addr, status.evicted_members, status.retirements
                    ));
                }
            }
        }
        Some(dead) => {
            let evicted = |sim: &Sim| {
                sim.statuses().iter().all(|s| {
                    s.table.entry(&dead).is_some_and(|e| e.status == MemberStatus::Evicted)
                })
            };
            let retired =
                |sim: &Sim| sim.statuses().iter().map(|s| s.retirements).sum::<usize>() >= 1;
            let shrunk = |sim: &Sim| {
                sim.live()
                    .any(|(m, core)| m.peak_id_bits > 0 && core.status().id_bits < m.peak_id_bits)
            };
            let all = |sim: &Sim| evicted(sim) && retired(sim) && shrunk(sim) && sim.converged();
            if !sim.run_until(deadline, all) {
                for (gate, held) in [
                    ("killed incarnation evicted on every live core", evicted(&sim)),
                    ("at least one retirement", retired(&sim)),
                    ("id bits below their peak", shrunk(&sim)),
                    ("one digest root after heal", sim.converged()),
                ] {
                    if !held {
                        failures.push(format!("{gate}: never held ({dead} killed)"));
                    }
                }
            }
        }
    }

    let mut lost = 0;
    let mut resurrected = 0;
    let mut false_concurrency = sim.false_concurrency;
    for (key, oracle) in sim.oracles.iter().enumerate() {
        let name = format!("key-{key}");
        let reads: Vec<BTreeSet<u64>> =
            sim.live().map(|(_, core)| get(core, &name, sim.now).0.into_iter().collect()).collect();
        if reads.windows(2).any(|pair| pair[0] != pair[1]) {
            failures.push(format!("{name} differs across live cores: {reads:?}"));
            continue;
        }
        let live = &reads[0];
        false_concurrency += oracle.false_concurrency(&live.iter().copied().collect::<Vec<_>>());
        lost += oracle.expected_live().difference(live).count();
        resurrected += live.iter().filter(|&id| !sim.acked.contains(id)).count();
    }
    for (count, what) in [
        (lost, "lost acked writes"),
        (resurrected, "resurrections"),
        (false_concurrency, "false concurrency"),
    ] {
        if count != 0 {
            failures.push(format!("{count} {what}"));
        }
    }
    Verdict { failures, statuses: sim.statuses() }
}

/// Runs every seed under its `FaultPlan` (`faulty`) or none.
fn sweep(seeds: std::ops::Range<u64>, faulty: bool) {
    let failed: Vec<String> = seeds
        .flat_map(|seed| {
            let timeline =
                if faulty { FaultPlan::generate(seed, 3).timeline() } else { Vec::new() };
            run(seed, &timeline, faulty)
                .failures
                .into_iter()
                .map(move |failure| format!("seed {seed}: {failure}"))
        })
        .collect();
    assert!(failed.is_empty(), "{failed:#?}");
}

#[test]
fn fault_seeds_pass_every_harness_gate() {
    sweep(0..100, true);
}

#[test]
fn control_seeds_never_suspect_anyone() {
    sweep(0..100, false);
}

/// A partitioned core keeps dialing out, and each frame it sends is its
/// heartbeat, so a directed partition four grace periods long evicts no
/// one — pulls alone would never hear from the partitioned core.
#[test]
fn a_directed_partition_past_the_grace_evicts_no_one() {
    for seed in 0..8 {
        let victim = 1 + seed as usize % 2;
        let timeline = [
            (Duration::from_millis(200), FaultAction::Block(victim)),
            (Duration::from_millis(200 + 4 * GRACE_MS), FaultAction::Unblock(victim)),
        ];
        let failures = run(seed, &timeline, true).failures;
        assert!(failures.is_empty(), "seed {seed}: {failures:?}");
    }
}

#[test]
fn a_seed_replays_to_equal_statuses() {
    let timeline = FaultPlan::generate(7, 3).timeline();
    let first = run(7, &timeline, true);
    assert!(first.failures.is_empty(), "{:?}", first.failures);
    assert_eq!(first.statuses.len(), 3, "the killed core is gone, its replacement live");
    assert_eq!(first.statuses, run(7, &timeline, true).statuses);
}

#[test]
#[ignore = "release sweep: cargo test --release -p vstamp-sim --test node_sim -- --ignored"]
fn sweep_500_fault_and_500_control_seeds() {
    sweep(0..500, true);
    sweep(0..500, false);
}
