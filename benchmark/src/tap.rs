//! A byte-counting TCP tap. Every node advertises a tap instead of its
//! listener, so all node-to-node traffic crosses one; clients dial the
//! listeners directly. The tap is how the benchmark counts replication
//! bytes (`/proc/<pid>/io` does not count socket traffic) and how it cuts
//! a node off: a blocked tap closes its connections and refuses new ones.

use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::{self, JoinHandle};
use std::time::Duration;

struct Shared {
    /// Where connections are forwarded; set once the node has reported its
    /// listener (the tap must exist first, to be advertised).
    target: OnceLock<SocketAddr>,
    blocked: AtomicBool,
    stopped: AtomicBool,
    /// Payload bytes forwarded, both directions.
    bytes: AtomicU64,
    /// Both ends of every live connection, so `block` and `stop` can wake
    /// pumps parked in `read`.
    live: Mutex<Vec<TcpStream>>,
    pumps: Mutex<Vec<JoinHandle<()>>>,
}

impl Shared {
    fn close_all(&self) {
        for stream in self.live.lock().expect("tap registry lock").drain(..) {
            let _ = stream.shutdown(Shutdown::Both);
        }
    }
}

pub struct Tap {
    shared: Arc<Shared>,
    addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
}

impl Tap {
    /// Binds `127.0.0.1:0` and starts accepting.
    pub fn start() -> io::Result<Tap> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            target: OnceLock::new(),
            blocked: AtomicBool::new(false),
            stopped: AtomicBool::new(false),
            bytes: AtomicU64::new(0),
            live: Mutex::new(Vec::new()),
            pumps: Mutex::new(Vec::new()),
        });
        let acceptor = {
            let shared = Arc::clone(&shared);
            thread::spawn(move || accept_loop(&listener, &shared))
        };
        Ok(Tap { shared, addr, acceptor: Some(acceptor) })
    }

    pub fn addr(&self) -> String {
        self.addr.to_string()
    }

    pub fn set_target(&self, target: &str) -> io::Result<()> {
        let target = target.parse().map_err(|_| {
            io::Error::new(io::ErrorKind::InvalidInput, "tap target is not ip:port")
        })?;
        self.shared
            .target
            .set(target)
            .map_err(|_| io::Error::new(io::ErrorKind::AlreadyExists, "tap target already set"))
    }

    pub fn bytes(&self) -> u64 {
        self.shared.bytes.load(Ordering::Relaxed)
    }

    /// Blocking closes every open connection and makes the tap hang up on
    /// new ones; unblocking lets peers reconnect.
    pub fn set_blocked(&self, blocked: bool) {
        // SeqCst: a pump that reads the flag after this store must see it,
        // or a frame read before the cut could be forwarded after it.
        self.shared.blocked.store(blocked, Ordering::SeqCst);
        if blocked {
            self.shared.close_all();
        }
    }

    /// Closes everything and joins every thread the tap started.
    pub fn stop(&mut self) {
        let Some(acceptor) = self.acceptor.take() else { return };
        self.shared.stopped.store(true, Ordering::SeqCst);
        self.shared.close_all();
        // The acceptor is parked in `accept`; one throw-away connection
        // wakes it to see the flag.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(500));
        let _ = acceptor.join();
        // A connection accepted while stopping may have registered late.
        self.shared.close_all();
        let pumps: Vec<_> = self.shared.pumps.lock().expect("tap pump lock").drain(..).collect();
        for pump in pumps {
            let _ = pump.join();
        }
    }
}

impl Drop for Tap {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    loop {
        let accepted = listener.accept();
        if shared.stopped.load(Ordering::SeqCst) {
            return;
        }
        let Ok((inbound, _)) = accepted else {
            thread::sleep(Duration::from_millis(5));
            continue;
        };
        if shared.blocked.load(Ordering::SeqCst) {
            continue; // dropping `inbound` hangs up
        }
        let Some(target) = shared.target.get() else { continue };
        let Ok(outbound) = TcpStream::connect_timeout(target, Duration::from_millis(500)) else {
            continue;
        };
        let _ = inbound.set_nodelay(true);
        let _ = outbound.set_nodelay(true);
        let (Ok(inbound_rx), Ok(outbound_rx)) = (inbound.try_clone(), outbound.try_clone()) else {
            continue;
        };
        {
            let mut live = shared.live.lock().expect("tap registry lock");
            let (Ok(a), Ok(b)) = (inbound.try_clone(), outbound.try_clone()) else { continue };
            live.push(a);
            live.push(b);
        }
        // A cut that landed between the check above and the registration
        // would have missed these two; honour it now.
        if shared.blocked.load(Ordering::SeqCst) || shared.stopped.load(Ordering::SeqCst) {
            shared.close_all();
        }
        let mut pumps = shared.pumps.lock().expect("tap pump lock");
        pumps.retain(|pump| !pump.is_finished());
        for (from, to) in [(inbound_rx, outbound), (outbound_rx, inbound)] {
            let shared = Arc::clone(shared);
            pumps.push(thread::spawn(move || pump(from, to, &shared)));
        }
    }
}

/// Copies one direction until either side closes or the tap is cut.
fn pump(mut from: TcpStream, mut to: TcpStream, shared: &Shared) {
    let mut buffer = vec![0u8; 64 << 10];
    loop {
        let read = match from.read(&mut buffer) {
            Ok(0) | Err(_) => break,
            Ok(read) => read,
        };
        // Checked after the read: a pump parked in `read` when the cut
        // began must not forward what it wakes up holding.
        if shared.blocked.load(Ordering::SeqCst) || shared.stopped.load(Ordering::SeqCst) {
            break;
        }
        if to.write_all(&buffer[..read]).is_err() {
            break;
        }
        shared.bytes.fetch_add(read as u64, Ordering::Relaxed);
    }
    let _ = from.shutdown(Shutdown::Both);
    let _ = to.shutdown(Shutdown::Both);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An echo server that serves connections until it is dropped.
    fn echo_server() -> (String, JoinHandle<()>, Arc<AtomicBool>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let done = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&done);
        let handle = thread::spawn(move || {
            let mut workers = Vec::new();
            for stream in listener.incoming() {
                if flag.load(Ordering::SeqCst) {
                    break;
                }
                let mut stream = stream.unwrap();
                workers.push(thread::spawn(move || {
                    let mut buffer = [0u8; 1024];
                    while let Ok(read) = stream.read(&mut buffer) {
                        if read == 0 || stream.write_all(&buffer[..read]).is_err() {
                            break;
                        }
                    }
                }));
            }
            for worker in workers {
                worker.join().unwrap();
            }
        });
        (addr, handle, done)
    }

    fn round_trip(stream: &mut TcpStream, message: &[u8]) -> io::Result<Vec<u8>> {
        stream.set_read_timeout(Some(Duration::from_secs(5)))?;
        stream.write_all(message)?;
        let mut reply = vec![0u8; message.len()];
        stream.read_exact(&mut reply)?;
        Ok(reply)
    }

    /// The reply pump counts a chunk after writing it, so the reader can
    /// be a step ahead of the counter.
    fn bytes_reach(tap: &Tap, expected: u64) -> bool {
        for _ in 0..500 {
            if tap.bytes() == expected {
                return true;
            }
            thread::sleep(Duration::from_millis(2));
        }
        false
    }

    #[test]
    fn forwards_counts_blocks_and_closes() {
        let (server_addr, server, done) = echo_server();
        let mut tap = Tap::start().unwrap();
        tap.set_target(&server_addr).unwrap();
        assert!(tap.set_target(&server_addr).is_err(), "target is set once");

        // Forwards both directions and counts both.
        let mut stream = TcpStream::connect(tap.addr()).unwrap();
        assert_eq!(round_trip(&mut stream, b"hello").unwrap(), b"hello");
        assert_eq!(round_trip(&mut stream, b"tap").unwrap(), b"tap");
        assert!(bytes_reach(&tap, 16), "counted {}", tap.bytes());

        // Blocking closes the open connection...
        tap.set_blocked(true);
        assert!(round_trip(&mut stream, b"cut").is_err());
        // ...and hangs up on new ones, forwarding nothing.
        let mut refused = TcpStream::connect(tap.addr()).unwrap();
        assert!(round_trip(&mut refused, b"cut").is_err());
        assert_eq!(tap.bytes(), 16);

        // Unblocking lets a fresh connection through.
        tap.set_blocked(false);
        let mut healed = TcpStream::connect(tap.addr()).unwrap();
        assert_eq!(round_trip(&mut healed, b"again").unwrap(), b"again");
        assert!(bytes_reach(&tap, 26), "counted {}", tap.bytes());

        // Stopping joins every pump, so the connection is dead afterwards.
        tap.stop();
        assert!(round_trip(&mut healed, b"late").is_err());
        done.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(&server_addr);
        drop((stream, refused, healed));
        server.join().unwrap();
    }
}
