//! Node processes: the benchmark re-executes its own binary with `--node`
//! so each `vstamp_store::Node` is an OS process of its own, advertised
//! behind a [`Tap`].

use std::io::{self, BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;
use std::time::{Duration, Instant};

use vstamp_store::{Node, NodeClient, NodeConfig, NodeStatus, TransportConfig};

use crate::tap::Tap;

/// Children started and not yet reaped, process-wide. The run fails if
/// this is not zero at exit.
pub static LIVE_CHILDREN: AtomicUsize = AtomicUsize::new(0);

/// The body of a `--node` child: one node until stdin reaches EOF (the
/// parent closing the pipe, or dying, is the shutdown signal — a crashed
/// benchmark leaks no node).
pub fn child_main(args: &[String]) -> io::Result<()> {
    let value =
        |name: &str| args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).cloned();
    let advertise = value("--advertise")
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "--advertise is required"))?;
    let seed = value("--seed").and_then(|s| s.parse().ok()).unwrap_or(0);
    // Library defaults throughout, bar what a deployment must set — and an
    // eviction grace no benchmark partition can outlast.
    let config = NodeConfig {
        seed,
        advertise_addr: Some(advertise),
        eviction_grace: Duration::from_secs(3600),
        ..NodeConfig::default()
    };
    let node = match value("--sponsor") {
        None => Node::bootstrap(config)?,
        Some(sponsor) => Node::join(config, &sponsor)?,
    };
    println!("LISTEN {}", node.local_addr());
    io::stdout().flush()?;
    let mut line = String::new();
    let _ = io::stdin().lock().read_line(&mut line);
    node.shutdown();
    Ok(())
}

/// One node process and the tap it advertises. Dropping it stops both.
pub struct NodeProc {
    pub tap: Tap,
    child: Child,
    stdin: Option<ChildStdin>,
    reaped: bool,
    /// The node's real listener — what clients dial.
    pub listen_addr: String,
}

impl NodeProc {
    /// Starts a node; `sponsor` is the advertised (tap) address of a live
    /// member, or `None` for the bootstrap node.
    pub fn spawn(seed: u64, sponsor: Option<&str>) -> io::Result<NodeProc> {
        let tap = Tap::start()?;
        let mut command = Command::new(std::env::current_exe()?);
        command
            .arg("--node")
            .args(["--advertise", &tap.addr()])
            .args(["--seed", &seed.to_string()])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        if let Some(sponsor) = sponsor {
            command.args(["--sponsor", sponsor]);
        }
        let mut child = command.spawn()?;
        LIVE_CHILDREN.fetch_add(1, Ordering::SeqCst);
        let stdin = child.stdin.take();
        let stdout = child.stdout.take().expect("child stdout is piped");
        // From here on `proc` owns the child, so every error path reaps it.
        let mut proc = NodeProc { tap, child, stdin, reaped: false, listen_addr: String::new() };
        let mut line = String::new();
        BufReader::new(stdout).read_line(&mut line)?;
        proc.listen_addr = line
            .trim()
            .strip_prefix("LISTEN ")
            .ok_or_else(|| {
                io::Error::new(io::ErrorKind::InvalidData, "node did not report LISTEN")
            })?
            .to_owned();
        proc.tap.set_target(&proc.listen_addr)?;
        Ok(proc)
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    pub fn advertised(&self) -> String {
        self.tap.addr()
    }

    pub fn client(&self, seed: u64) -> NodeClient {
        NodeClient::connect(self.listen_addr.clone(), TransportConfig::default(), seed)
    }

    /// Asks the node to exit: stdin EOF is its shutdown signal.
    fn begin_stop(&mut self) {
        self.stdin = None;
    }

    /// Waits for the node to exit, killing it if it outstays the grace
    /// period, then stops the tap.
    fn finish_stop(&mut self) {
        if self.reaped {
            return;
        }
        self.begin_stop();
        let deadline = Instant::now() + Duration::from_secs(3);
        loop {
            match self.child.try_wait() {
                Ok(Some(_)) => break,
                Ok(None) if Instant::now() < deadline => thread::sleep(Duration::from_millis(2)),
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    break;
                }
            }
        }
        self.reaped = true;
        LIVE_CHILDREN.fetch_sub(1, Ordering::SeqCst);
        self.tap.stop();
    }
}

impl Drop for NodeProc {
    fn drop(&mut self) {
        self.finish_stop();
    }
}

/// Stops several nodes at once: every stdin pipe closes first, so the
/// nodes shut down side by side instead of one grace period after another.
pub fn stop_all(mut nodes: Vec<NodeProc>) {
    nodes.iter_mut().for_each(NodeProc::begin_stop);
    drop(nodes);
}

/// Polls every node's status until all report `members` active members and
/// one common digest root; returns the statuses, or `None` on timeout or
/// any I/O error past the deadline.
pub fn await_agreement(
    clients: &mut [NodeClient],
    members: usize,
    timeout: Duration,
) -> Option<Vec<NodeStatus>> {
    let deadline = Instant::now() + timeout;
    loop {
        let statuses: Vec<NodeStatus> =
            clients.iter_mut().filter_map(|client| client.status().ok()).collect();
        if statuses.len() == clients.len()
            && statuses.iter().all(|s| s.active_members == members)
            && statuses.windows(2).all(|pair| pair[0].digest_root == pair[1].digest_root)
        {
            return Some(statuses);
        }
        if Instant::now() >= deadline {
            return None;
        }
        thread::sleep(Duration::from_millis(5));
    }
}
