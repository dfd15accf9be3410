//! Multi-process loopback cluster harness under a socket-level nemesis.
//!
//! The parent spawns N copies of *this binary* with `--node`, each an OS
//! process running one `vstamp_store::Node` on real loopback TCP. Every
//! node advertises a nemesis [`Proxy`] address, so all inter-node gossip
//! crosses a fault-injecting proxy (frame drops / delays / duplicates,
//! plus a directed partition), while the harness's own client sessions go
//! to the nodes' real listeners — the oracle sees the cluster as a user
//! would.
//!
//! Faults come from a seeded [`FaultPlan`]: one directed partition of a
//! non-bootstrap node, and one crash (SIGKILL) of a different node whose
//! replacement later joins as a *new* member by forking a live stamp.
//! The run gates on the session-level causal oracle (zero lost acked
//! writes, zero false concurrency, zero resurrections, converged final
//! reads) and on the membership lifecycle (the killed incarnation is
//! evicted everywhere, at least one survivor retires its identity
//! subtree, and that survivor's membership stamp shrinks below its peak).
//! `--control` runs the same workload fault-free and additionally gates
//! on *no* suspicion: zero evictions and zero retirements.
//!
//! Usage: `cluster_harness [--seed N] [--smoke] [--control]`. Exit code 0
//! iff every gate passes; a JSON report goes to stdout either way.

use std::collections::{BTreeMap, BTreeSet};
use std::io::{self, BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::time::{Duration, Instant};

use vstamp_sim::nemesis::{Dice, FaultAction, FaultPlan, NemesisConfig, Proxy};
use vstamp_sim::{decode_id, encode_id, KeyOracle};
use vstamp_store::{
    MemberStatus, Node, NodeClient, NodeConfig, NodeStatus, PhiConfig, TransportConfig,
};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--node") {
        child_main(&args);
    } else {
        let code = parent_main(&args);
        std::process::exit(code);
    }
}

fn arg_value(args: &[String], name: &str) -> Option<String> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).cloned()
}

fn arg_parse<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> T {
    arg_value(args, name).and_then(|v| v.parse().ok()).unwrap_or(default)
}

// ---------------------------------------------------------------------
// Child: one cluster node as an OS process.
// ---------------------------------------------------------------------

/// Runs a single node until the parent kills the process or closes our
/// stdin (EOF doubles as a graceful shutdown signal, so a crashed parent
/// never leaks node processes).
fn child_main(args: &[String]) {
    let advertise = arg_value(args, "--advertise").expect("--advertise is required");
    // Gossip stalls are heartbeat silence: a dropped frame blocks the
    // serial gossip loop for one io_timeout, so the transport must fail
    // fast (loopback replies arrive in microseconds) and the eviction
    // grace must dominate a worst-case run of consecutive stalls.
    let io_timeout = Duration::from_millis(arg_parse(args, "--io-ms", 250));
    let config = NodeConfig {
        advertise_addr: Some(advertise),
        gossip_interval: Duration::from_millis(arg_parse(args, "--gossip-ms", 25)),
        eviction_grace: Duration::from_millis(arg_parse(args, "--grace-ms", 1200)),
        transport: TransportConfig { connect_timeout: io_timeout, io_timeout },
        phi: PhiConfig { threshold: arg_parse(args, "--phi", 8.0), ..PhiConfig::default() },
        seed: arg_parse(args, "--seed", 1),
        ..NodeConfig::default()
    };
    let node = match arg_value(args, "--sponsor") {
        None => Node::bootstrap(config).expect("bootstrap node"),
        Some(sponsor) => Node::join(config, &sponsor).expect("join cluster"),
    };
    println!("LISTEN {}", node.local_addr());
    io::stdout().flush().expect("flush LISTEN line");
    let mut line = String::new();
    let _ = io::stdin().lock().read_line(&mut line);
    node.shutdown();
}

// ---------------------------------------------------------------------
// Parent: proxies, processes, workload, fault plan, gates.
// ---------------------------------------------------------------------

/// One node process plus the nemesis proxy it advertises.
struct NodeProc {
    proxy: Proxy,
    child: Child,
    /// Held open so the child sees EOF exactly when we drop it.
    _stdin: ChildStdin,
    /// The node's real listener — what harness clients dial.
    real_addr: String,
    /// The proxy address — the node's identity in the member table.
    advertised: String,
    alive: bool,
    writable: bool,
    peak_id_bits: usize,
}

impl NodeProc {
    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        self.alive = false;
        self.writable = false;
    }
}

struct Knobs {
    seed: u64,
    control: bool,
    smoke: bool,
    gossip_ms: u64,
    grace_ms: u64,
    io_ms: u64,
    phi: f64,
    keys: usize,
}

fn spawn_node(
    knobs: &Knobs,
    index: u64,
    sponsor: Option<&str>,
    nemesis: NemesisConfig,
) -> io::Result<NodeProc> {
    let proxy = Proxy::start(nemesis, knobs.seed ^ index.wrapping_mul(0x9E37_79B9))?;
    let advertised = proxy.listen_addr();
    let exe = std::env::current_exe()?;
    let mut command = Command::new(exe);
    command
        .arg("--node")
        .args(["--advertise", &advertised])
        .args(["--seed", &(knobs.seed.wrapping_add(index * 1000 + 7)).to_string()])
        .args(["--gossip-ms", &knobs.gossip_ms.to_string()])
        .args(["--grace-ms", &knobs.grace_ms.to_string()])
        .args(["--io-ms", &knobs.io_ms.to_string()])
        .args(["--phi", &knobs.phi.to_string()])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped());
    if let Some(sponsor) = sponsor {
        command.args(["--sponsor", sponsor]);
    }
    let mut child = command.spawn()?;
    let stdin = child.stdin.take().expect("child stdin piped");
    let stdout = child.stdout.take().expect("child stdout piped");
    let mut line = String::new();
    BufReader::new(stdout).read_line(&mut line)?;
    let real_addr =
        line.trim().strip_prefix("LISTEN ").map(str::to_owned).ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidData, "child did not report LISTEN")
        })?;
    proxy.set_target(&real_addr);
    Ok(NodeProc {
        proxy,
        child,
        _stdin: stdin,
        real_addr,
        advertised,
        alive: true,
        writable: true,
        peak_id_bits: 0,
    })
}

fn client(addr: &str, seed: u64) -> NodeClient {
    NodeClient::connect(addr, TransportConfig::default(), seed)
}

fn status_of(node: &NodeProc, seed: u64) -> Option<NodeStatus> {
    if !node.alive {
        return None;
    }
    client(&node.real_addr, seed).status().ok()
}

/// Everything the oracle needs about the workload so far.
#[derive(Default)]
struct Workload {
    oracles: BTreeMap<String, KeyOracle>,
    recorded: BTreeSet<u64>,
    /// Ids whose put errored: possibly landed, never required to.
    ghosts: BTreeSet<u64>,
    next_id: u64,
    writes: usize,
    reads: usize,
    false_concurrency: usize,
    put_failures: usize,
}

impl Workload {
    /// One causal session at `addr`: read the key, gate the sibling set
    /// against the oracle, write a superseding value, record the ack.
    fn session(&mut self, addr: &str, key: &str, seed: u64) {
        let mut client = client(addr, seed);
        let Ok((values, context)) = client.get(key) else {
            return;
        };
        let read_ids: Vec<u64> = values.iter().map(|v| decode_id(v)).collect();
        let oracle = self.oracles.entry(key.to_owned()).or_default();
        self.false_concurrency += oracle.false_concurrency(&read_ids);
        self.reads += 1;
        self.next_id += 1;
        let id = self.next_id;
        match client.put(key, encode_id(id), context.as_ref()) {
            Ok(_) => {
                if std::env::var_os("HARNESS_TRACE").is_some() {
                    eprintln!("session {addr} {key} read {read_ids:?} wrote {id}");
                }
                oracle.record_write(id, &read_ids, false);
                self.recorded.insert(id);
                self.writes += 1;
            }
            Err(_) => {
                self.ghosts.insert(id);
                self.put_failures += 1;
            }
        }
    }
}

/// A pass/fail gate with a human-readable reason on failure.
struct Gate {
    name: &'static str,
    pass: bool,
    detail: String,
}

fn wait_for(deadline: Instant, mut check: impl FnMut() -> bool) -> bool {
    loop {
        if check() {
            return true;
        }
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

fn parent_main(args: &[String]) -> i32 {
    let control = args.iter().any(|a| a == "--control");
    let smoke = args.iter().any(|a| a == "--smoke");
    let knobs = Knobs {
        seed: arg_parse(args, "--seed", 42),
        control,
        smoke,
        gossip_ms: 25,
        grace_ms: 1200,
        io_ms: 250,
        phi: 8.0,
        keys: if smoke || control { 4 } else { 6 },
    };
    let nemesis = if control { NemesisConfig::faithful() } else { NemesisConfig::faulty() };

    // --- Phase 1: bring up bootstrap + two joiners, root every key. ---
    let mut nodes = Vec::new();
    let bootstrap = spawn_node(&knobs, 0, None, nemesis).expect("spawn bootstrap");
    let sponsor_addr = bootstrap.advertised.clone();
    nodes.push(bootstrap);
    for index in 1..3u64 {
        nodes.push(spawn_node(&knobs, index, Some(&sponsor_addr), nemesis).expect("spawn joiner"));
    }
    let keys: Vec<String> = (0..knobs.keys).map(|k| format!("key-{k}")).collect();
    let mut workload = Workload::default();
    let mut rng = Dice::new(knobs.seed ^ 0xC0FF_EE00);
    // Root each key at one node, before any fault can run (`node_sim`
    // first-touches keys at two cores at once).
    for (k, key) in keys.iter().enumerate() {
        workload.session(&nodes[k % nodes.len()].real_addr, key, rng.next_u64());
    }
    assert_eq!(workload.put_failures, 0, "key rooting must succeed");
    let setup_deadline = Instant::now() + Duration::from_secs(30);
    let settled = wait_for(setup_deadline, || {
        let statuses: Vec<NodeStatus> =
            nodes.iter().filter_map(|n| status_of(n, rng.next_u64())).collect();
        statuses.len() == nodes.len()
            && statuses.iter().all(|s| s.active_members == 3)
            && statuses.windows(2).all(|p| p[0].digest_root == p[1].digest_root)
    });
    assert!(settled, "cluster failed to converge during fault-free setup");

    // --- Phase 2: workload under the seeded fault plan. ---
    let mut gates: Vec<Gate> = Vec::new();
    let mut dead_advertised = None;
    if control {
        run_workload_only(&mut workload, &nodes, &keys, &mut rng);
    } else {
        dead_advertised =
            run_fault_phase(&knobs, &mut nodes, &keys, &mut workload, &mut rng, nemesis);
    }

    // --- Phase 3: heal, quiesce, verify. ---
    let deadline = Instant::now() + Duration::from_secs(60);
    verify_membership(&knobs, &nodes, dead_advertised.as_deref(), deadline, &mut gates, &mut rng);
    verify_oracle(&nodes, &keys, &workload, deadline, &mut gates, &mut rng);

    let pass = gates.iter().all(|g| g.pass);
    print_report(&knobs, &workload, &gates, pass);
    for node in &mut nodes {
        node.kill();
        node.proxy.stop();
    }
    i32::from(!pass)
}

/// Fault-free workload window (control runs).
fn run_workload_only(workload: &mut Workload, nodes: &[NodeProc], keys: &[String], rng: &mut Dice) {
    let until = Instant::now() + Duration::from_millis(2500);
    while Instant::now() < until {
        let node = &nodes[rng.pick(nodes.len())];
        let key = &keys[rng.pick(keys.len())];
        workload.session(&node.real_addr, key, rng.next_u64());
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Executes the seeded plan while the workload keeps writing to nodes
/// that are up (and, for the doomed node, not yet draining). Returns the
/// advertised address of the killed incarnation.
fn run_fault_phase(
    knobs: &Knobs,
    nodes: &mut Vec<NodeProc>,
    keys: &[String],
    workload: &mut Workload,
    rng: &mut Dice,
    nemesis: NemesisConfig,
) -> Option<String> {
    let plan = FaultPlan::generate(knobs.seed, 3);
    eprintln!("fault plan: {:?}", plan.events);
    let timeline = plan.timeline();
    let mut dead_advertised = None;
    // Keep the workload running for a while after the last fault so the
    // healed cluster sees fresh causal traffic.
    let last = timeline.last().map_or(Duration::ZERO, |(at, _)| *at);
    let phase_end = last + Duration::from_millis(1500);
    let start = Instant::now();
    let mut next = 0;
    let sponsor = nodes[0].advertised.clone();
    while start.elapsed() < phase_end || next < timeline.len() {
        let now = start.elapsed();
        while next < timeline.len() && timeline[next].0 <= now {
            match timeline[next].1 {
                FaultAction::Block(i) => nodes[i].proxy.set_blocked(true),
                FaultAction::Unblock(i) => nodes[i].proxy.set_blocked(false),
                FaultAction::Drain(i) => nodes[i].writable = false,
                FaultAction::Kill(i) => {
                    dead_advertised = Some(nodes[i].advertised.clone());
                    nodes[i].kill();
                }
                FaultAction::Restart => {
                    // The replacement is a brand-new member behind a
                    // fresh proxy; it only serves convergence checks, so
                    // it never writes (a re-rooting write before it has
                    // pulled the keys would race the key's first touch).
                    let mut replacement = spawn_node(knobs, 3, Some(&sponsor), nemesis)
                        .expect("respawn crashed node");
                    replacement.writable = false;
                    nodes.push(replacement);
                }
            }
            next += 1;
        }
        let writable: Vec<usize> =
            (0..nodes.len()).filter(|&i| nodes[i].alive && nodes[i].writable).collect();
        if !writable.is_empty() {
            let node = &nodes[writable[rng.pick(writable.len())]];
            let key = &keys[rng.pick(keys.len())];
            workload.session(&node.real_addr, key, rng.next_u64());
        }
        // Track each node's peak membership-stamp size for the shrink gate.
        for node in nodes.iter_mut() {
            if let Some(status) = status_of(node, rng.next_u64()) {
                node.peak_id_bits = node.peak_id_bits.max(status.id_bits);
            }
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    dead_advertised
}

/// Membership gates: eviction everywhere, identity retirement, stamp
/// shrink (faulty runs) or zero suspicion (control runs).
fn verify_membership(
    knobs: &Knobs,
    nodes: &[NodeProc],
    dead_advertised: Option<&str>,
    deadline: Instant,
    gates: &mut Vec<Gate>,
    rng: &mut Dice,
) {
    if knobs.control {
        let mut detail = String::new();
        let clean = nodes.iter().all(|node| {
            status_of(node, rng.next_u64()).is_some_and(|s| {
                let ok = s.evicted_members == 0 && s.retirements == 0;
                if !ok {
                    detail = format!(
                        "{} evicted={} retirements={}",
                        node.advertised, s.evicted_members, s.retirements
                    );
                }
                ok
            })
        });
        gates.push(Gate { name: "no_false_suspicion", pass: clean, detail });
        return;
    }
    let dead = dead_advertised.expect("faulty runs always kill one node");
    let evicted_everywhere = wait_for(deadline, || {
        nodes.iter().filter(|n| n.alive).all(|node| {
            status_of(node, rng.next_u64()).is_some_and(|s| {
                s.table.entry(dead).is_some_and(|e| e.status == MemberStatus::Evicted)
            })
        })
    });
    gates.push(Gate {
        name: "eviction_observed",
        pass: evicted_everywhere,
        detail: format!("killed incarnation {dead} marked Evicted on every live node"),
    });
    let retired = wait_for(deadline, || {
        nodes
            .iter()
            .filter(|n| n.alive)
            .filter_map(|n| status_of(n, rng.next_u64()))
            .map(|s| s.retirements)
            .sum::<usize>()
            >= 1
    });
    gates.push(Gate {
        name: "retirement_observed",
        pass: retired,
        detail: "at least one survivor ran identity retirement".to_owned(),
    });
    // The survivor that reabsorbed the evicted subtree must end below its
    // own peak stamp size — ids shrink back after churn.
    let mut shrink_detail = String::new();
    let shrunk = wait_for(deadline, || {
        nodes.iter().filter(|n| n.alive && n.peak_id_bits > 0).any(|node| {
            status_of(node, rng.next_u64()).is_some_and(|s| {
                if s.id_bits < node.peak_id_bits {
                    shrink_detail = format!(
                        "{}: {} bits, peak {}",
                        node.advertised, s.id_bits, node.peak_id_bits
                    );
                    true
                } else {
                    false
                }
            })
        })
    });
    gates.push(Gate { name: "identity_shrunk", pass: shrunk, detail: shrink_detail });
}

/// Convergence + causal-oracle gates over the final reads.
fn verify_oracle(
    nodes: &[NodeProc],
    keys: &[String],
    workload: &Workload,
    deadline: Instant,
    gates: &mut Vec<Gate>,
    rng: &mut Dice,
) {
    let converged = wait_for(deadline, || {
        let statuses: Vec<NodeStatus> =
            nodes.iter().filter(|n| n.alive).filter_map(|n| status_of(n, rng.next_u64())).collect();
        statuses.len() == nodes.iter().filter(|n| n.alive).count()
            && statuses.windows(2).all(|p| p[0].digest_root == p[1].digest_root)
    });
    if !converged {
        for node in nodes.iter().filter(|n| n.alive) {
            match status_of(node, rng.next_u64()) {
                Some(s) => eprintln!(
                    "diverged: {} root={:016x} active={} evicted={} retirements={}",
                    node.advertised,
                    s.digest_root,
                    s.active_members,
                    s.evicted_members,
                    s.retirements
                ),
                None => eprintln!("diverged: {} unreachable", node.advertised),
            }
            for key in keys {
                let ids = client(&node.real_addr, rng.next_u64())
                    .get(key)
                    .map(|(values, _)| values.iter().map(|v| decode_id(v)).collect::<Vec<_>>());
                eprintln!("  {} {key} -> {ids:?}", node.advertised);
            }
        }
    }
    gates.push(Gate {
        name: "converged",
        pass: converged,
        detail: "all live nodes reached one digest root after heal".to_owned(),
    });

    let mut lost = 0usize;
    let mut resurrections = 0usize;
    let mut divergent_keys = 0usize;
    let mut final_false_concurrency = 0usize;
    for key in keys {
        let mut per_node: Vec<BTreeSet<u64>> = Vec::new();
        for node in nodes.iter().filter(|n| n.alive) {
            match client(&node.real_addr, rng.next_u64()).get(key) {
                Ok((values, _)) => {
                    per_node.push(values.iter().map(|v| decode_id(v)).collect());
                }
                Err(_) => divergent_keys += 1,
            }
        }
        if per_node.windows(2).any(|p| p[0] != p[1]) {
            divergent_keys += 1;
            continue;
        }
        let Some(live) = per_node.first() else { continue };
        let oracle = &workload.oracles[key];
        let live_vec: Vec<u64> = live.iter().copied().collect();
        final_false_concurrency += oracle.false_concurrency(&live_vec);
        let expected = oracle.expected_live();
        for id in expected.difference(live) {
            eprintln!("lost acked write: {key} id {id}; expected {expected:?}, live {live:?}");
        }
        lost += expected.difference(live).count();
        resurrections += live
            .iter()
            .filter(|id| !workload.recorded.contains(id) && !workload.ghosts.contains(id))
            .count();
    }
    gates.push(Gate {
        name: "no_divergent_keys",
        pass: divergent_keys == 0,
        detail: format!("{divergent_keys} keys differed across live nodes"),
    });
    gates.push(Gate {
        name: "no_lost_acked_writes",
        pass: lost == 0,
        detail: format!("{lost} acked maximal writes missing from final reads"),
    });
    gates.push(Gate {
        name: "no_resurrections",
        pass: resurrections == 0,
        detail: format!("{resurrections} never-written ids surfaced"),
    });
    gates.push(Gate {
        name: "no_false_concurrency",
        pass: workload.false_concurrency == 0 && final_false_concurrency == 0,
        detail: format!(
            "{} violations during run, {} in final reads",
            workload.false_concurrency, final_false_concurrency
        ),
    });
}

fn print_report(knobs: &Knobs, workload: &Workload, gates: &[Gate], pass: bool) {
    let mode = if knobs.control {
        "control"
    } else if knobs.smoke {
        "smoke"
    } else {
        "full"
    };
    let gate_json: Vec<String> = gates
        .iter()
        .map(|g| format!("{:?}:{{\"pass\":{},\"detail\":{:?}}}", g.name, g.pass, g.detail))
        .collect();
    println!(
        "{{\"mode\":{:?},\"seed\":{},\"writes\":{},\"reads\":{},\"put_failures\":{},\"gates\":{{{}}},\"pass\":{}}}",
        mode,
        knobs.seed,
        workload.writes,
        workload.reads,
        workload.put_failures,
        gate_json.join(","),
        pass
    );
}
