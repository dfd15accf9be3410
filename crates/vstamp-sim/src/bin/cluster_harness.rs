//! The harness scenario on node processes under a socket-level nemesis.
//!
//! The parent runs `vstamp_sim::driver::harness`, the scenario `node_sim`
//! runs on `NodeCore`s, with a member that is a copy of *this binary*
//! started with `--node`: an OS process running one `vstamp_store::Node`
//! on real loopback TCP. Every node advertises a nemesis [`Proxy`]
//! address, so all inter-node gossip crosses a fault-injecting proxy
//! (frame drops / delays / duplicates on fault runs, plus the plan's
//! directed partition), while the driver's client sessions go to the
//! nodes' real listeners — the oracle sees the cluster as a user would.
//!
//! Faults come from the seeded [`fault_plan`]: a driver `Kill` drops the
//! member, which SIGKILLs its process, and a `Restart` starts a new process
//! that joins through the bootstrap's advertised address as a *new*
//! member. The gates are the scenario's: the causal oracle exact and one
//! digest root after heal, plus the killed incarnation evicted on every
//! live node, at least one retirement and id bits below their peak on
//! fault runs, or zero evictions and retirements on `--control` runs.
//!
//! Usage: `cluster_harness [--seed N] [--control]`. Exit code 0 iff every
//! gate passes; a JSON report goes to stdout either way, and a failing run
//! prints every live node's status and sibling ids to stderr.

use std::io::{self, BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, Command, Stdio};

use parking_lot::Mutex;
use vstamp_core::PackedName;
use vstamp_sim::driver::{harness, node_config, Dial, Member};
use vstamp_sim::nemesis::{fault_plan, NemesisConfig, Proxy};
use vstamp_sim::{decode_id, encode_id};
use vstamp_store::{Envelope, Node, NodeClient, NodeConfig, NodeStatus, TransportConfig};

const USAGE: &str = "usage: cluster_harness [--seed N] [--control]";

/// The command line: the parent's `--seed` and `--control`, or a child's
/// `--node --advertise ADDR --seed N [--sponsor ADDR]`.
#[derive(Default)]
struct Args {
    seed: Option<u64>,
    control: bool,
    node: bool,
    advertise: Option<String>,
    sponsor: Option<String>,
}

/// `None` for a flag it does not know, a missing or malformed value, or a
/// flag of the other role.
fn parse(mut args: impl Iterator<Item = String>) -> Option<Args> {
    let mut parsed = Args::default();
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--seed" => parsed.seed = Some(args.next()?.parse().ok()?),
            "--control" => parsed.control = true,
            "--node" => parsed.node = true,
            "--advertise" => parsed.advertise = Some(args.next()?),
            "--sponsor" => parsed.sponsor = Some(args.next()?),
            _ => return None,
        }
    }
    let child = parsed.advertise.is_some() && !parsed.control;
    let parent = parsed.advertise.is_none() && parsed.sponsor.is_none();
    (if parsed.node { child } else { parent }).then_some(parsed)
}

fn main() {
    let Some(args) = parse(std::env::args().skip(1)) else {
        eprintln!("{USAGE}");
        std::process::exit(2);
    };
    if args.node {
        child_main(args);
    } else {
        std::process::exit(parent_main(args.seed.unwrap_or(42), args.control));
    }
}

/// Runs a single node until the parent kills the process or closes our
/// stdin (EOF doubles as a graceful shutdown signal, so a crashed parent
/// never leaks node processes).
fn child_main(args: Args) {
    let config =
        NodeConfig { advertise_addr: args.advertise, ..node_config(args.seed.unwrap_or(1)) };
    let node = match args.sponsor {
        None => Node::bootstrap(config).expect("bootstrap node"),
        Some(sponsor) => Node::join(config, &sponsor).expect("join cluster"),
    };
    println!("LISTEN {}", node.local_addr());
    io::stdout().flush().expect("flush LISTEN line");
    let mut line = String::new();
    let _ = io::stdin().lock().read_line(&mut line);
    node.shutdown();
}

/// One node process plus the nemesis proxy it advertises, as a driver
/// member. Dropping it SIGKILLs the process; the proxy stops as it drops.
struct Process {
    child: Child,
    /// Held open so the child sees EOF should the parent die.
    _stdin: ChildStdin,
    /// A client of the node's real listener.
    client: Mutex<NodeClient>,
    proxy: Proxy,
}

impl Process {
    /// Starts a node with `config`'s seed behind a new proxy; it joins
    /// through `sponsor`, or bootstraps a cluster without one.
    fn spawn(
        config: &NodeConfig,
        sponsor: Option<&str>,
        nemesis: NemesisConfig,
    ) -> io::Result<Self> {
        let proxy = Proxy::start(nemesis, config.seed.wrapping_mul(0x9E37_79B9))?;
        let mut command = Command::new(std::env::current_exe()?);
        command
            .arg("--node")
            .args(["--advertise", &proxy.listen_addr()])
            .args(["--seed", &config.seed.to_string()])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped());
        if let Some(sponsor) = sponsor {
            command.args(["--sponsor", sponsor]);
        }
        let mut child = command.spawn()?;
        let stdin = child.stdin.take().expect("child stdin piped");
        let mut line = String::new();
        BufReader::new(child.stdout.take().expect("child stdout piped")).read_line(&mut line)?;
        let Some(real_addr) = line.trim().strip_prefix("LISTEN ") else {
            let _ = child.kill().and_then(|()| child.wait());
            return Err(io::Error::new(io::ErrorKind::InvalidData, "child did not report LISTEN"));
        };
        proxy.set_target(real_addr);
        let client = NodeClient::connect(real_addr, TransportConfig::default(), config.seed);
        Ok(Process { child, _stdin: stdin, client: Mutex::new(client), proxy })
    }

    fn status(&self) -> NodeStatus {
        self.client.lock().status().expect("a live node answers a Status")
    }
}

impl Drop for Process {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Client ops go to the node's real listener; peers reach it only
/// through its proxy, on its own gossip threads.
impl Member for Process {
    type Context = PackedName;

    fn gossip_round(&self, _: u64, _: &mut Dial<'_>) -> bool {
        unreachable!("a process gossips on its own threads")
    }

    fn handle(&self, _: Envelope, _: u64) -> Option<Envelope> {
        None
    }

    fn root(&self) -> u64 {
        self.status().digest_root
    }

    fn get(&self, key: &str, _: u64) -> (Vec<u64>, Option<PackedName>) {
        let (values, context) = self.client.lock().get(key).expect("a live node answers a Get");
        (values.iter().map(|value| decode_id(value)).collect(), context)
    }

    fn shown(&self, key: &str) -> Vec<u64> {
        self.get(key, 0).0
    }

    fn put(&self, key: &str, id: u64, context: Option<&PackedName>, _: u64) {
        self.client.lock().put(key, encode_id(id), context).expect("a live node acks a Put");
    }

    const DELETES: bool = false;
    fn delete(&self, _: &str, _: Option<&PackedName>, _: u64) {
        unreachable!("a node has no Delete")
    }

    const WALL_CLOCK: bool = true;
    fn block(&self, blocked: bool) {
        self.proxy.set_blocked(blocked);
    }
}

fn parent_main(seed: u64, control: bool) -> i32 {
    let nemesis = if control { NemesisConfig::faithful() } else { NemesisConfig::faulty() };
    let timeline = if control { Vec::new() } else { fault_plan(seed, 3) };
    eprintln!("fault plan: {timeline:?}");
    // Every joiner, the replacement included, dials the bootstrap's proxy.
    let mut bootstrap: Option<String> = None;
    let spawn = |_, config: NodeConfig, _: &mut Dial<'_>| {
        let process = Process::spawn(&config, bootstrap.as_deref(), nemesis).expect("spawn a node");
        bootstrap.get_or_insert_with(|| process.proxy.listen_addr());
        process
    };
    // The proxies' frame faults are this substrate's link faults: the
    // driver delivers no message between processes.
    let outcome = harness(seed, &timeline, false, spawn, Process::status);
    let pass = outcome.failures.is_empty();
    println!(
        "{{\"mode\":{:?},\"seed\":{seed},\"sessions\":{},\"writes\":{},\"failures\":{:?},\"pass\":{pass}}}",
        if control { "control" } else { "fault" },
        outcome.verdict.sessions,
        outcome.verdict.writes,
        outcome.failures,
    );
    i32::from(!pass)
}
