//! Socket-level nemesis: deterministic fault injection for real TCP
//! clusters.
//!
//! Every node's *advertised* address points at a [`Proxy`] owned by the
//! harness; inter-node traffic therefore crosses a proxy that parses the
//! length-prefixed codec frames and misbehaves on purpose — dropping,
//! delaying and duplicating individual frames, or black-holing a node's
//! inbound side entirely (a directed partition). Clients talk to the
//! nodes' real listeners and bypass the nemesis, so the causal oracle
//! observes the system as a user would.
//!
//! Determinism: the fault *plan* (which node is partitioned or crashed,
//! when, for how long) and every per-frame dice roll derive from one
//! seed via splitmix64. Socket scheduling itself remains real — the
//! nemesis makes fault *injection* reproducible, not thread interleaving.
//! The plan is a timeline in the driver's virtual milliseconds
//! ([`fault_plan`]); [`crate::driver`] applies it to every node
//! substrate, and reaches a process's proxy through `Member::block` for
//! the directed partition. The proxy's drop / delay / duplicate faults
//! are the socket substrate's link faults; the driver's own link-fault
//! vocabulary does not reach the proxy.
//!
//! Crash/restart is not a proxy concern: the driver drops the member,
//! which SIGKILLs the node process, and later starts a fresh one that
//! joins as a *new* member behind a new proxy, which is exactly what
//! decentralized creation promises to make cheap.

use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

use parking_lot::Mutex;

/// Per-frame misbehaviour rates, in permille (so configs stay integral
/// and seed-stable).
#[derive(Debug, Clone, Copy)]
pub struct NemesisConfig {
    /// Chance a frame is silently dropped.
    pub drop_per_mille: u16,
    /// Chance a frame is forwarded twice.
    pub duplicate_per_mille: u16,
    /// Chance a frame (and everything queued behind it) is delayed.
    pub delay_per_mille: u16,
    /// Upper bound on an injected delay.
    pub max_delay: Duration,
}

impl NemesisConfig {
    /// A nemesis that faithfully forwards everything (control runs).
    #[must_use]
    pub fn faithful() -> Self {
        NemesisConfig {
            drop_per_mille: 0,
            duplicate_per_mille: 0,
            delay_per_mille: 0,
            max_delay: Duration::ZERO,
        }
    }

    /// The default faulty profile used by the harness.
    #[must_use]
    pub fn faulty() -> Self {
        NemesisConfig {
            drop_per_mille: 20,
            duplicate_per_mille: 10,
            delay_per_mille: 30,
            max_delay: Duration::from_millis(80),
        }
    }
}

/// Writes to a doomed node stop this many ms before its crash so its acked
/// writes replicate out (the store is in-memory; an ack only outlives the
/// process once gossip has shipped the write).
const DRAIN_MS: u64 = 600;

/// One step of a [`fault_plan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Black-hole the node's inbound side. Peers stop being able to pull
    /// from the node; the node itself keeps pulling, so the failure is a
    /// *directed* cut — and, because its outbound requests keep feeding
    /// peer heartbeats, a partitioned node is never mistaken for a dead
    /// one.
    Block(usize),
    /// Heal it.
    Unblock(usize),
    /// Stop writing to the node: it crashes `DRAIN_MS` later.
    Drain(usize),
    /// Crash the node. The killed incarnation must end up evicted with
    /// its identity retired.
    Kill(usize),
    /// Start the crashed node's replacement, a new member.
    Restart,
}

/// The seeded fault plan of one harness run, as actions in order of their
/// offset in ms from the workload's start: one directed partition and one
/// crash-restart, hitting two *different* non-bootstrap nodes, with
/// seed-jittered times. The last action ends the last fault. `nodes` must
/// be at least 3 so the bootstrap (index 0) is never the victim.
#[must_use]
pub fn fault_plan(seed: u64, nodes: usize) -> Vec<(u64, FaultAction)> {
    assert!(nodes >= 3, "fault plan needs a bootstrap plus two victims");
    let mut rng = Dice::new(seed ^ 0xFEED_FACE_CAFE_BEEF);
    let victims = nodes - 1;
    let partitioned = 1 + rng.pick(victims);
    // A different victim for the crash, chosen among the rest.
    let mut crashed = 1 + rng.pick(victims - 1);
    if crashed >= partitioned {
        crashed += 1;
    }
    let partition_at = 200 + rng.roll(300);
    let healed_at = partition_at + 600 + rng.roll(500);
    let crash_at = healed_at + 700 + rng.roll(300);
    let downtime = 800 + rng.roll(400);
    vec![
        (partition_at, FaultAction::Block(partitioned)),
        (healed_at, FaultAction::Unblock(partitioned)),
        (crash_at - DRAIN_MS, FaultAction::Drain(crashed)),
        (crash_at, FaultAction::Kill(crashed)),
        (crash_at + downtime, FaultAction::Restart),
    ]
}

/// Seeded splitmix64 dice: the one random stream of this crate's drivers
/// (the fault plan, the proxies and [`crate::driver`]).
/// A seed names its stream: `Dice::new(s).next_u64()` is splitmix64 stepped
/// once from state `s`.
#[derive(Debug, Clone)]
pub struct Dice {
    state: u64,
}

impl Dice {
    /// The stream that starts at state `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Dice { state: seed }
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (`0` for a zero bound).
    pub fn roll(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            return 0;
        }
        self.next_u64() % bound
    }

    /// A uniform index into a collection of `len` items (`0` when empty).
    pub fn pick(&mut self, len: usize) -> usize {
        self.roll(len as u64) as usize
    }

    /// True with probability `per_mille` / 1000.
    pub(crate) fn chance(&mut self, per_mille: u16) -> bool {
        self.roll(1000) < u64::from(per_mille)
    }
}

/// A frame-level TCP proxy in front of one node's listener.
#[derive(Debug)]
pub struct Proxy {
    listen_addr: SocketAddr,
    target: Arc<Mutex<Option<String>>>,
    blocked: Arc<AtomicBool>,
    shutdown: Arc<AtomicBool>,
    accept_thread: Mutex<Option<JoinHandle<()>>>,
}

impl Proxy {
    /// Binds the proxy's public listener (the node's advertised address)
    /// and starts accepting. The forwarding target is set later, once
    /// the node process reports its real listener via
    /// [`Proxy::set_target`]; until then connections are dropped.
    ///
    /// # Errors
    ///
    /// Fails if the listener cannot bind.
    pub fn start(config: NemesisConfig, seed: u64) -> io::Result<Proxy> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let listen_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let target = Arc::new(Mutex::new(None));
        let blocked = Arc::new(AtomicBool::new(false));
        let shutdown = Arc::new(AtomicBool::new(false));
        let thread = {
            let target = Arc::clone(&target);
            let blocked = Arc::clone(&blocked);
            let shutdown = Arc::clone(&shutdown);
            thread::spawn(move || accept_loop(listener, target, blocked, shutdown, config, seed))
        };
        Ok(Proxy {
            listen_addr,
            target,
            blocked,
            shutdown,
            accept_thread: Mutex::new(Some(thread)),
        })
    }

    /// The address peers should advertise and dial.
    #[must_use]
    pub fn listen_addr(&self) -> String {
        self.listen_addr.to_string()
    }

    /// Points the proxy at the node's real listener (also used after a
    /// crash-restart when the replacement process reuses the proxy).
    pub fn set_target(&self, addr: impl Into<String>) {
        *self.target.lock() = Some(addr.into());
    }

    /// Black-holes (or heals) the node's inbound side. Existing
    /// connections are torn down within one frame poll; new ones are
    /// accepted and immediately dropped, like a host behind a stateful
    /// firewall.
    pub fn set_blocked(&self, blocked: bool) {
        self.blocked.store(blocked, Ordering::SeqCst);
    }

    /// Stops the proxy; in-flight pump threads unwind on their next poll.
    pub fn stop(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(handle) = self.accept_thread.lock().take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Proxy {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(
    listener: TcpListener,
    target: Arc<Mutex<Option<String>>>,
    blocked: Arc<AtomicBool>,
    shutdown: Arc<AtomicBool>,
    config: NemesisConfig,
    seed: u64,
) {
    let mut connection_seq = 0u64;
    while !shutdown.load(Ordering::SeqCst) {
        let (client, _) = match listener.accept() {
            Ok(accepted) => accepted,
            Err(error)
                if error.kind() == io::ErrorKind::WouldBlock
                    || error.kind() == io::ErrorKind::TimedOut =>
            {
                thread::sleep(Duration::from_millis(5));
                continue;
            }
            Err(_) => {
                thread::sleep(Duration::from_millis(20));
                continue;
            }
        };
        connection_seq += 1;
        if blocked.load(Ordering::SeqCst) {
            let _ = client.shutdown(Shutdown::Both);
            continue;
        }
        let Some(addr) = target.lock().clone() else {
            let _ = client.shutdown(Shutdown::Both);
            continue;
        };
        let Ok(server) = TcpStream::connect(&addr) else {
            let _ = client.shutdown(Shutdown::Both);
            continue;
        };
        let _ = client.set_nodelay(true);
        let _ = server.set_nodelay(true);
        for (index, (from, to)) in
            [(client.try_clone(), server.try_clone()), (Ok(server), Ok(client))]
                .into_iter()
                .enumerate()
        {
            let (Ok(from), Ok(to)) = (from, to) else { break };
            let blocked = Arc::clone(&blocked);
            let shutdown = Arc::clone(&shutdown);
            let dice =
                Dice::new(seed ^ connection_seq.wrapping_mul(0xD1B5_4A32_D192_ED03) ^ index as u64);
            thread::spawn(move || pump(from, to, dice, config, blocked, shutdown));
        }
    }
}

/// Forwards length-prefixed frames one direction, rolling the dice per
/// frame. Each copy of a frame, prefix included, goes out in one write —
/// the segmentation `send_envelope` itself produces. Any I/O error or a
/// partition tears the connection down — the transport layer on both
/// sides is built to reconnect.
fn pump(
    mut from: TcpStream,
    mut to: TcpStream,
    mut dice: Dice,
    config: NemesisConfig,
    blocked: Arc<AtomicBool>,
    shutdown: Arc<AtomicBool>,
) {
    let _ = from.set_read_timeout(Some(Duration::from_millis(100)));
    let mut frame = vec![0u8; 4];
    'frames: loop {
        if shutdown.load(Ordering::SeqCst) || blocked.load(Ordering::SeqCst) {
            break;
        }
        frame.truncate(4);
        if read_fully(&mut from, &mut frame[..4], &shutdown, &blocked).is_err() {
            break;
        }
        let len = u32::from_le_bytes([frame[0], frame[1], frame[2], frame[3]]) as usize;
        frame.resize(4 + len, 0);
        if read_fully(&mut from, &mut frame[4..], &shutdown, &blocked).is_err() {
            break;
        }
        if dice.chance(config.drop_per_mille) {
            continue;
        }
        if dice.chance(config.delay_per_mille) {
            let delay = dice.roll(config.max_delay.as_millis().max(1) as u64);
            thread::sleep(Duration::from_millis(delay));
        }
        // A pump parked in `read()` when the partition began wakes up with
        // a whole frame in hand: the cut applies to it too.
        if shutdown.load(Ordering::SeqCst) || blocked.load(Ordering::SeqCst) {
            break;
        }
        let copies = if dice.chance(config.duplicate_per_mille) { 2 } else { 1 };
        for _ in 0..copies {
            if to.write_all(&frame).is_err() {
                break 'frames;
            }
        }
        let _ = to.flush();
    }
    let _ = from.shutdown(Shutdown::Both);
    let _ = to.shutdown(Shutdown::Both);
}

fn read_fully(
    from: &mut TcpStream,
    buffer: &mut [u8],
    shutdown: &AtomicBool,
    blocked: &AtomicBool,
) -> io::Result<()> {
    let mut read = 0;
    while read < buffer.len() {
        match from.read(&mut buffer[read..]) {
            Ok(0) => return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "peer closed")),
            Ok(n) => read += n,
            Err(error)
                if error.kind() == io::ErrorKind::WouldBlock
                    || error.kind() == io::ErrorKind::TimedOut =>
            {
                if shutdown.load(Ordering::SeqCst) || blocked.load(Ordering::SeqCst) {
                    return Err(io::Error::new(io::ErrorKind::Interrupted, "nemesis cut"));
                }
            }
            Err(error) => return Err(error),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::AtomicUsize;

    use super::*;

    #[test]
    fn fault_plan_is_deterministic_and_picks_distinct_victims() {
        use FaultAction::{Block, Drain, Kill, Unblock};
        let plan = fault_plan(7, 3);
        assert_eq!(plan, fault_plan(7, 3));
        let actions: Vec<FaultAction> = plan.iter().map(|(_, action)| *action).collect();
        let [Block(partitioned), Unblock(healed), Drain(drained), Kill(crashed), last] =
            actions[..]
        else {
            panic!("a partition, then a crash: {plan:?}");
        };
        assert_eq!((partitioned, drained), (healed, crashed), "{plan:?}");
        assert_ne!(partitioned, 0, "bootstrap is never a victim");
        assert_ne!(crashed, 0, "bootstrap is never a victim");
        assert_ne!(partitioned, crashed, "victims must differ");
        assert!(plan.windows(2).all(|pair| pair[0].0 <= pair[1].0), "{plan:?}");
        let at = |action| plan.iter().find(|(_, a)| *a == action).map(|(at, _)| *at);
        assert_eq!(at(Kill(crashed)), at(Drain(crashed)).map(|t| t + DRAIN_MS));
        assert_eq!(last, FaultAction::Restart);
        assert_ne!(fault_plan(8, 3), plan, "different seeds give different plans");
    }

    #[test]
    fn proxy_forwards_frames_and_partitions_on_demand() {
        // The backend echoes 9-byte frames (4-byte prefix + 5 payload) and
        // counts every one that reaches it.
        let backend = TcpListener::bind("127.0.0.1:0").expect("bind backend");
        let backend_addr = backend.local_addr().expect("addr").to_string();
        let delivered = Arc::new(AtomicUsize::new(0));
        {
            let delivered = Arc::clone(&delivered);
            thread::spawn(move || {
                for stream in backend.incoming().flatten() {
                    let delivered = Arc::clone(&delivered);
                    thread::spawn(move || {
                        let mut stream = stream;
                        let mut buffer = [0u8; 9];
                        while stream.read_exact(&mut buffer).is_ok() {
                            delivered.fetch_add(1, Ordering::SeqCst);
                            if stream.write_all(&buffer).is_err() {
                                return;
                            }
                        }
                    });
                }
            });
        }
        let proxy = Proxy::start(NemesisConfig::faithful(), 5).expect("proxy");
        proxy.set_target(backend_addr);
        let frame = [5u8, 0, 0, 0, b'a', b'b', b'c', b'd', b'e'];
        let mut echoed = [0u8; 9];
        for round in 1..=10 {
            // Healed: a fresh connection forwards both ways. Both pumps
            // are then parked in `read()` — the state that used to leak
            // one frame per direction into every partition.
            proxy.set_blocked(false);
            let mut client = TcpStream::connect(proxy.listen_addr()).expect("dial proxy");
            client.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
            client.write_all(&frame).expect("send");
            client.read_exact(&mut echoed).expect("echo");
            assert_eq!(echoed, frame);
            assert_eq!(delivered.load(Ordering::SeqCst), round);

            // Cut: the frame may still be accepted by the local socket, but
            // the read must end by the proxy severing the connection (not
            // by the 30 s timeout), and the pump severs only after it
            // decided not to forward — so the count below is final.
            proxy.set_blocked(true);
            let _ = client.write_all(&frame);
            let error = client.read_exact(&mut echoed).expect_err("blocked proxy must sever");
            assert!(
                !matches!(error.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut),
                "the proxy never severed the connection: {error}"
            );
            assert_eq!(delivered.load(Ordering::SeqCst), round, "a frame leaked into the cut");
        }
        proxy.stop();
    }
}
