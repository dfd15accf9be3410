//! Loopback TCP transport: the exchange engine's envelopes as
//! length-prefixed codec frames on real sockets.
//!
//! One wire unit is a `u32`-length-prefixed
//! [`encode_envelope`](crate::encode_envelope) buffer — byte-for-byte the
//! serialized form [`envelope_len`] has always modeled, so every
//! bytes-on-wire figure the store reports is now literally what crosses
//! the socket (plus the 4-byte length prefix).
//!
//! One wire unit is also one `write`: [`send_envelope`] encodes the
//! envelope behind a reserved prefix in a single buffer and hands it to
//! the socket whole. On a `TCP_NODELAY` socket every write leaves as its
//! own segment, and the receiver wakes for each one; writing prefix and
//! body apart would cost every round trip an extra segment and an extra
//! wake-up in each direction.
//!
//! [`PeerLink`] wraps one outbound connection in the failure discipline a
//! real cluster needs: connect and I/O timeouts on every operation, and
//! capped exponential backoff with deterministic jitter between reconnect
//! attempts, so a dead peer costs a bounded, decaying amount of effort
//! instead of a blocked thread.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use crate::wire::{decode_envelope, envelope_len, write_envelope, Envelope};

/// Upper bound on one frame's payload; a length prefix beyond this is
/// treated as a protocol error rather than an allocation request.
const MAX_FRAME_LEN: u32 = 64 << 20;

/// How much [`recv_envelope`] grows its buffer by at a time: a length
/// prefix is a claim, and memory is committed only as the bytes behind it
/// arrive.
const READ_CHUNK: usize = 64 << 10;

/// Timeouts of the TCP transport.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransportConfig {
    /// Deadline for establishing a connection.
    pub connect_timeout: Duration,
    /// Deadline for one read or write on an established connection — the
    /// exchange-level timeout is built from these per-operation deadlines.
    pub io_timeout: Duration,
}

impl Default for TransportConfig {
    fn default() -> Self {
        TransportConfig {
            connect_timeout: Duration::from_millis(500),
            io_timeout: Duration::from_millis(1_000),
        }
    }
}

/// Writes one envelope as a length-prefixed frame, in one `write_all`.
///
/// # Errors
///
/// Propagates socket write errors (timeouts included).
pub fn send_envelope<W: Write>(writer: &mut W, envelope: &Envelope) -> io::Result<()> {
    let mut frame = Vec::with_capacity(4 + envelope_len(envelope.from, envelope.payload.len()));
    frame.extend_from_slice(&[0; 4]);
    write_envelope(&mut frame, envelope);
    let len = u32::try_from(frame.len() - 4)
        .ok()
        .filter(|&len| len <= MAX_FRAME_LEN)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "frame too large"))?;
    frame[..4].copy_from_slice(&len.to_le_bytes());
    writer.write_all(&frame)?;
    writer.flush()
}

/// Reads one length-prefixed envelope frame.
///
/// # Errors
///
/// Propagates socket read errors. A read timeout
/// ([`io::ErrorKind::WouldBlock`] or [`io::ErrorKind::TimedOut`]) comes back
/// as such only while no byte of the frame has been consumed — the idle
/// case, safe to retry on the same stream; once any byte is consumed the
/// stream sits mid-frame, and a stall there is
/// [`io::ErrorKind::InvalidData`], so the caller drops the connection
/// rather than read the frame's middle as a length prefix. A length prefix
/// over the frame cap or a payload that fails [`decode_envelope`] is
/// [`io::ErrorKind::InvalidData`] too, and EOF before the frame is whole is
/// [`io::ErrorKind::UnexpectedEof`].
pub fn recv_envelope<R: Read>(reader: &mut R) -> io::Result<Envelope> {
    let mut prefix = [0u8; 4];
    fill_frame_part(reader, &mut prefix, false)?;
    let len = u32::from_le_bytes(prefix);
    if len > MAX_FRAME_LEN {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "oversized frame"));
    }
    let len = len as usize;
    let mut bytes = Vec::new();
    while bytes.len() < len {
        let filled = bytes.len();
        bytes.resize(len.min(filled + READ_CHUNK), 0);
        fill_frame_part(reader, &mut bytes[filled..], true)?;
    }
    decode_envelope(&bytes)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("bad envelope: {e:?}")))
}

/// Fills `buf` from `reader` as one part of a frame; `mid_frame` says
/// whether earlier parts of it were already consumed. A read timeout
/// passes through unchanged only if no byte of the frame has been
/// consumed; after that it is a stalled frame ([`recv_envelope`]).
fn fill_frame_part<R: Read>(reader: &mut R, buf: &mut [u8], mid_frame: bool) -> io::Result<()> {
    let mut filled = 0;
    while filled < buf.len() {
        match reader.read(&mut buf[filled..]) {
            Ok(0) => return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "frame cut short")),
            Ok(n) => filled += n,
            Err(error) if error.kind() == io::ErrorKind::Interrupted => {}
            Err(error)
                if (mid_frame || filled > 0)
                    && matches!(
                        error.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
            {
                return Err(io::Error::new(io::ErrorKind::InvalidData, "frame stalled"));
            }
            Err(error) => return Err(error),
        }
    }
    Ok(())
}

/// Capped exponential backoff with deterministic jitter: attempt `k` draws
/// a delay uniformly from `[raw/2, raw]` where `raw = min(base · 2^k,
/// cap)` — the "equal jitter" discipline, so retries decorrelate across
/// peers while never exceeding the cap or undershooting half the base.
/// The jitter stream is a seeded splitmix64, so a given seed replays the
/// same delays — the harness's determinism leans on this.
#[derive(Debug, Clone)]
pub struct Backoff {
    base: Duration,
    cap: Duration,
    attempt: u32,
    rng: u64,
}

impl Backoff {
    /// A fresh backoff schedule.
    #[must_use]
    pub fn new(base: Duration, cap: Duration, seed: u64) -> Self {
        Backoff { base: base.max(Duration::from_millis(1)), cap, attempt: 0, rng: seed }
    }

    /// The next delay in the schedule (advances the attempt counter).
    pub fn next_delay(&mut self) -> Duration {
        let base_ms = self.base.as_millis() as u64;
        let cap_ms = self.cap.as_millis().max(1) as u64;
        let raw = base_ms.saturating_mul(1u64 << self.attempt.min(20)).min(cap_ms);
        self.attempt = self.attempt.saturating_add(1);
        let half = (raw / 2).max(1);
        let jittered = half + splitmix64(&mut self.rng) % (raw - half + 1);
        Duration::from_millis(jittered)
    }

    /// Resets the schedule after a success.
    pub fn reset(&mut self) {
        self.attempt = 0;
    }

    /// Attempts made since the last reset.
    #[must_use]
    pub fn attempts(&self) -> u32 {
        self.attempt
    }
}

/// One splitmix64 step — the workspace's standard cheap deterministic
/// generator.
pub(crate) fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// An outbound connection to one peer: lazy connect with a deadline,
/// per-operation I/O timeouts, and capped-exponential-backoff reconnects.
/// Request/response oriented — the cluster's whole wire protocol is
/// strictly pull-based, so one in-flight request per link is all it needs.
#[derive(Debug)]
pub struct PeerLink {
    addr: String,
    config: TransportConfig,
    stream: Option<TcpStream>,
    backoff: Backoff,
    retry_at: Option<Instant>,
}

impl PeerLink {
    /// A link to `addr` (not yet connected; the first request dials).
    #[must_use]
    pub fn new(addr: impl Into<String>, config: TransportConfig, seed: u64) -> Self {
        PeerLink {
            addr: addr.into(),
            config,
            stream: None,
            backoff: Backoff::new(Duration::from_millis(50), Duration::from_secs(2), seed),
            retry_at: None,
        }
    }

    /// The peer's address.
    #[must_use]
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Whether the link currently holds an established connection.
    #[must_use]
    pub fn is_connected(&self) -> bool {
        self.stream.is_some()
    }

    /// Sends `request` and reads one reply, connecting first if needed.
    /// Any failure drops the connection and schedules the next dial behind
    /// the backoff; until that delay expires, further calls fail fast with
    /// [`io::ErrorKind::WouldBlock`] instead of hammering the dead peer.
    ///
    /// # Errors
    ///
    /// Connect, send, or receive failure (timeouts included), or
    /// `WouldBlock` while inside the reconnect backoff window.
    pub fn request(&mut self, request: &Envelope) -> io::Result<Envelope> {
        self.ensure_connected()?;
        let stream = self.stream.as_mut().expect("connected above");
        let outcome = send_envelope(stream, request).and_then(|()| recv_envelope(stream));
        match outcome {
            Ok(reply) => {
                self.backoff.reset();
                Ok(reply)
            }
            Err(e) => {
                self.fail();
                Err(e)
            }
        }
    }

    fn ensure_connected(&mut self) -> io::Result<()> {
        if self.stream.is_some() {
            return Ok(());
        }
        if let Some(retry_at) = self.retry_at {
            if Instant::now() < retry_at {
                return Err(io::Error::new(
                    io::ErrorKind::WouldBlock,
                    "reconnect backoff in effect",
                ));
            }
        }
        match self.dial() {
            Ok(stream) => {
                self.stream = Some(stream);
                self.retry_at = None;
                Ok(())
            }
            Err(e) => {
                self.fail();
                Err(e)
            }
        }
    }

    fn dial(&self) -> io::Result<TcpStream> {
        let addr: SocketAddr = self
            .addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "unresolvable addr"))?;
        let stream = TcpStream::connect_timeout(&addr, self.config.connect_timeout)?;
        stream.set_read_timeout(Some(self.config.io_timeout))?;
        stream.set_write_timeout(Some(self.config.io_timeout))?;
        stream.set_nodelay(true)?;
        Ok(stream)
    }

    /// Drops the connection and schedules the next dial behind backoff.
    fn fail(&mut self) {
        self.stream = None;
        self.retry_at = Some(Instant::now() + self.backoff.next_delay());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{encode_envelope, MessageKind};
    use proptest::prelude::*;
    use std::net::TcpListener;

    #[test]
    fn envelope_frames_roundtrip_over_a_real_socket() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let envelope = recv_envelope(&mut stream).unwrap();
            send_envelope(
                &mut stream,
                &Envelope { from: 9, kind: MessageKind::Ack, payload: envelope.payload },
            )
            .unwrap();
        });
        let mut link = PeerLink::new(addr.to_string(), TransportConfig::default(), 1);
        let reply = link
            .request(&Envelope { from: 3, kind: MessageKind::Probe, payload: vec![1, 2, 3] })
            .unwrap();
        assert_eq!(reply.kind, MessageKind::Ack);
        assert_eq!(reply.from, 9);
        assert_eq!(reply.payload, vec![1, 2, 3]);
        assert!(link.is_connected());
        server.join().unwrap();
    }

    #[test]
    fn dead_peer_fails_fast_and_backs_off() {
        // Bind-then-drop: the port is (very likely) unbound afterwards.
        let addr = {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            listener.local_addr().unwrap().to_string()
        };
        let config = TransportConfig {
            connect_timeout: Duration::from_millis(100),
            io_timeout: Duration::from_millis(100),
        };
        let mut link = PeerLink::new(addr, config, 7);
        let probe = Envelope { from: 0, kind: MessageKind::Probe, payload: Vec::new() };
        assert!(link.request(&probe).is_err());
        assert!(!link.is_connected());
        // Immediately after the failure the link is inside its backoff
        // window: the retry is refused without touching the socket.
        let err = link.request(&probe).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
    }

    #[test]
    fn oversized_frames_are_rejected() {
        let mut bytes: Vec<u8> = Vec::new();
        bytes.extend_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
        let err = recv_envelope(&mut bytes.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    /// Yields `bytes`, then EOF, and remembers the largest buffer it was
    /// ever asked to fill.
    struct Recording<'a> {
        bytes: &'a [u8],
        largest_request: usize,
    }

    impl Read for Recording<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.largest_request = self.largest_request.max(buf.len());
            self.bytes.read(buf)
        }
    }

    #[test]
    fn a_length_prefix_alone_commits_one_chunk() {
        // The largest legal claim and nothing behind it.
        let prefix = MAX_FRAME_LEN.to_le_bytes();
        let mut reader = Recording { bytes: &prefix, largest_request: 0 };
        let err = recv_envelope(&mut reader).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert!(
            reader.largest_request <= READ_CHUNK,
            "asked for {} bytes on the strength of a 4-byte prefix",
            reader.largest_request
        );

        // A frame of several chunks still arrives whole.
        let envelope = Envelope {
            from: 7,
            kind: MessageKind::Delta,
            payload: vec![0xAB; 3 * READ_CHUNK + 17],
        };
        let mut framed = Vec::new();
        send_envelope(&mut framed, &envelope).unwrap();
        let mut reader = Recording { bytes: &framed, largest_request: 0 };
        assert_eq!(recv_envelope(&mut reader).unwrap(), envelope);
        assert!(reader.largest_request <= READ_CHUNK);
        // And one cut short fails as before.
        let mut reader = Recording { bytes: &framed[..framed.len() - 1], largest_request: 0 };
        assert_eq!(recv_envelope(&mut reader).unwrap_err().kind(), io::ErrorKind::UnexpectedEof);
    }

    /// Accepts every byte and counts the `write` calls that delivered them.
    #[derive(Default)]
    struct Counting {
        bytes: Vec<u8>,
        writes: usize,
    }

    impl Write for Counting {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn every_frame_leaves_in_one_write() {
        let mut get = Vec::new();
        vstamp_core::codec::write_frame(&mut get, b"key-0000004095");
        for payload in [Vec::new(), get, vec![0xCD; 3 * READ_CHUNK]] {
            let envelope = Envelope { from: 40_123, kind: MessageKind::Get, payload };
            let mut writer = Counting::default();
            send_envelope(&mut writer, &envelope).unwrap();
            let frame = writer.bytes;
            assert_eq!(writer.writes, 1, "writes for a {}-byte frame", frame.len());
            assert_eq!(frame[4..], encode_envelope(&envelope)[..]);
            let prefix = u32::from_le_bytes(frame[..4].try_into().unwrap());
            assert_eq!(prefix as usize, frame.len() - 4);
        }
    }

    /// Yields `bytes`, then fails every further read with `stall`.
    struct Stalling<'a> {
        bytes: &'a [u8],
        stall: io::ErrorKind,
    }

    impl Read for Stalling<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.bytes.is_empty() {
                return Err(self.stall.into());
            }
            self.bytes.read(buf)
        }
    }

    #[test]
    fn a_timeout_is_retryable_only_between_frames() {
        let mut framed = Vec::new();
        let envelope = Envelope { from: 2, kind: MessageKind::Ack, payload: vec![7; 40] };
        send_envelope(&mut framed, &envelope).unwrap();
        for stall in [io::ErrorKind::TimedOut, io::ErrorKind::WouldBlock] {
            // Idle: nothing of the frame consumed, the caller may retry.
            let err = recv_envelope(&mut Stalling { bytes: &[], stall }).unwrap_err();
            assert_eq!(err.kind(), stall);
            // Half a prefix, and a prefix plus part of the body: retrying
            // would read the frame's middle as the next length prefix.
            for consumed in [2, 10] {
                let mut reader = Stalling { bytes: &framed[..consumed], stall };
                let err = recv_envelope(&mut reader).unwrap_err();
                assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{consumed} bytes, {stall:?}");
            }
            // A whole frame followed by a stall still arrives.
            let mut reader = Stalling { bytes: &framed, stall };
            assert_eq!(recv_envelope(&mut reader).unwrap(), envelope);
            assert_eq!(recv_envelope(&mut reader).unwrap_err().kind(), stall);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Every delay stays within [base/2, cap], and once the schedule
        /// saturates it keeps drawing from [cap/2, cap].
        #[test]
        fn backoff_jitter_respects_bounds(
            base_ms in 1u64..500,
            cap_factor in 1u64..64,
            seed in proptest::prelude::any::<u64>(),
            draws in 1usize..24,
        ) {
            let base = Duration::from_millis(base_ms);
            let cap = Duration::from_millis(base_ms * cap_factor);
            let mut backoff = Backoff::new(base, cap, seed);
            for attempt in 0..draws {
                let delay = backoff.next_delay().as_millis() as u64;
                let raw = base_ms.saturating_mul(1 << (attempt as u32).min(20)).min(base_ms * cap_factor);
                prop_assert!(delay >= (raw / 2).max(1), "delay {} under half the raw {}", delay, raw);
                prop_assert!(delay <= base_ms * cap_factor, "delay {} over cap", delay);
            }
        }

        /// The schedule is deterministic in its seed, and reset replays it.
        #[test]
        fn backoff_is_deterministic_and_resettable(seed in proptest::prelude::any::<u64>()) {
            let base = Duration::from_millis(10);
            let cap = Duration::from_millis(640);
            let mut a = Backoff::new(base, cap, seed);
            let mut b = Backoff::new(base, cap, seed);
            let first: Vec<Duration> = (0..8).map(|_| a.next_delay()).collect();
            let second: Vec<Duration> = (0..8).map(|_| b.next_delay()).collect();
            prop_assert_eq!(&first, &second);
            prop_assert_eq!(a.attempts(), 8);
            a.reset();
            prop_assert_eq!(a.attempts(), 0);
            // After a reset the exponent restarts from the base rung.
            let replay = a.next_delay();
            prop_assert!(replay <= base * 2, "post-reset delay {:?} not at base rung", replay);
        }
    }
}
