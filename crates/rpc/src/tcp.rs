//! TCP transport: the same [`Transport`] interface over real sockets.
//!
//! The paper's producers issue "one synchronous TCP request per broker,
//! multiple parallel requests" — this transport lets the same cluster code
//! run over loopback (or a LAN) instead of in-memory channels, at the cost
//! of kernel socket overhead. Frames are a `u32` little-endian length
//! prefix followed by the serialized [`Envelope`].
//!
//! A [`TcpNetwork`] is a directory mapping [`NodeId`]s to socket
//! addresses. Each registered node binds an ephemeral listener; outbound
//! connections are created lazily, one per (source, destination) pair, and
//! writes are serialized per destination. Accepting starts when the node
//! binds its [`Deliver`] target (earlier connections wait in the listen
//! backlog); each inbound connection's reader thread delivers to it.
//!
//! A reader takes a burst in one `read`, hands every whole frame in it to
//! [`Deliver::receive`] (which may serve a request right there, see
//! [`crate::node`]) and corks what that sends, per connection, until it
//! flushes before its next read. A flush, or a send from any other thread,
//! is one vectored write (`writev`): each frame's prefix and header inline,
//! its payload from its shared allocation, never copied.
//!
//! No writer waits long on a peer that takes nothing, and so no reader
//! does: two readers writing to each other would wait for ever. A write
//! the peer takes nothing of for `STALL` (20 ms) retires its connection
//! and is finished outside the connection's lock (a reader's on its
//! node's workers); the next send dials afresh, and may overtake that
//! rest.
//!
//! The length prefix is untrusted input: frames larger than the network's
//! `max_frame_bytes` cause the receiver to drop the connection *before*
//! allocating a buffer, so a corrupt or hostile prefix cannot trigger a
//! multi-gigabyte allocation.

use std::cell::RefCell;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::io::{self, IoSlice, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use bytes::Bytes;
use crossbeam::channel::{self, Sender};
use kera_common::config::DEFAULT_MAX_FRAME_BYTES;
use kera_common::ids::NodeId;
use kera_common::{KeraError, Result};
use kera_wire::frames::Envelope;
use parking_lot::{Mutex, RwLock};

use crate::transport::{Deliver, Transport};

/// Clones of the live inbound streams, kept so close() can shut them down
/// and unblock their readers; each reader removes its own when it exits.
type Accepted = Arc<Mutex<HashMap<u64, TcpStream>>>;

/// One outbound connection; writes on it are serialized by its lock.
/// `None` once a stalled write retired it (see [`put`]).
type Conn = Arc<Mutex<Option<TcpStream>>>;

/// A transport's outbound connections, one per destination.
type Conns = Arc<Mutex<HashMap<NodeId, Conn>>>;

/// What a reader reads a burst into. It bounds one read, not a frame: a
/// larger frame is read into its own allocation.
const READ_BUF: usize = 64 << 10;

/// How long a write waits on a peer that takes none of it before the
/// connection is retired: well past a descheduled reader's pause, short
/// beside a call's retransmit.
const STALL: Duration = Duration::from_millis(20);

/// One frame to send: prefix and envelope header inline, the payload shared.
type Frame = ([u8; 4 + Envelope::HEADER_LEN], Bytes);

fn frame(prefix: u32, env: Envelope) -> Frame {
    let mut head = [0u8; 4 + Envelope::HEADER_LEN];
    head[..4].copy_from_slice(&prefix.to_le_bytes());
    head[4..].copy_from_slice(&env.encode_header());
    (head, env.payload)
}

/// What a reader sent on one connection this burst, in send order, and
/// the map a failed flush forgets the connection in.
struct Corked {
    to: NodeId,
    conn: Conn,
    conns: Conns,
    frames: Vec<Frame>,
}

thread_local! {
    /// `Some` on a reader thread: what it sends waits here for [`flush`].
    static CORK: RefCell<Option<Vec<Corked>>> = const { RefCell::new(None) };
}

/// Sends what this reader corked, one vectored write per connection. A
/// connection whose write fails is forgotten as a failed send's is; the
/// calls whose frames it carried are retransmitted by their timers. A
/// stalled write is finished on a worker of `node`, the reader's own.
fn flush(node: &Weak<dyn Deliver>) {
    let corked = CORK.with_borrow_mut(|cork| cork.as_mut().map(std::mem::take)).unwrap_or_default();
    for Corked { to, conn, conns, frames } in corked {
        if let (Ok(Some((stream, done))), Some(node)) = (put(&conns, to, &conn, &frames), node.upgrade()) {
            node.timer(Instant::now(), Box::new(move || finish(stream, &frames, done)));
        }
    }
}

struct Directory {
    addrs: RwLock<HashMap<NodeId, SocketAddr>>,
}

impl Default for Directory {
    fn default() -> Self {
        Directory { addrs: RwLock::named("net.addrs", HashMap::new()) }
    }
}

/// A directory of TCP nodes.
#[derive(Clone)]
pub struct TcpNetwork {
    dir: Arc<Directory>,
    max_frame_bytes: usize,
}

impl Default for TcpNetwork {
    fn default() -> Self {
        Self { dir: Arc::default(), max_frame_bytes: DEFAULT_MAX_FRAME_BYTES }
    }
}

impl TcpNetwork {
    pub fn new() -> Self {
        Self::default()
    }

    /// A network whose receivers drop the connection on a frame whose
    /// length prefix exceeds `max_frame_bytes`. The prefix counts the
    /// envelope header plus its payload, not the prefix itself; senders
    /// refuse such a frame locally.
    pub fn with_max_frame(max_frame_bytes: usize) -> Self {
        Self { dir: Arc::default(), max_frame_bytes }
    }

    /// Binds a listener for `id` and returns its transport.
    pub fn register(&self, id: NodeId) -> Result<TcpTransport> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        {
            let mut addrs = self.dir.addrs.write();
            if addrs.contains_key(&id) {
                return Err(KeraError::InvalidConfig(format!("node {id} registered twice")));
            }
            addrs.insert(id, addr);
        }
        let (bound_tx, bound_rx) = channel::unbounded::<Weak<dyn Deliver>>();
        let closed = Arc::new(AtomicBool::new(false));
        let accepted = Accepted::default();

        {
            let closed = Arc::clone(&closed);
            let accepted = Arc::clone(&accepted);
            let max_frame = self.max_frame_bytes;
            // Accepting starts once the node is bound; an endpoint dropped
            // unbound ends the thread.
            let spawned =
                std::thread::Builder::new().name(format!("tcp-accept-{}", id.raw())).spawn(move || {
                    if let Ok(target) = bound_rx.recv() {
                        accept_loop(listener, target, closed, accepted, max_frame)
                    }
                });
            if let Err(e) = spawned {
                // No accept loop means no reachable node: undo the
                // directory entry so a retry can rebind, and report.
                self.dir.addrs.write().remove(&id);
                return Err(e.into());
            }
        }

        Ok(TcpTransport {
            id,
            dir: Arc::clone(&self.dir),
            bound_tx,
            conns: Arc::new(Mutex::named("transport.conns", HashMap::new())),
            addr,
            closed,
            accepted,
            max_frame_bytes: self.max_frame_bytes,
        })
    }

    /// Address a node listens on (useful for cross-process setups).
    pub fn addr_of(&self, id: NodeId) -> Option<SocketAddr> {
        self.dir.addrs.read().get(&id).copied()
    }

    /// Seeds the directory with the address of a node listening in
    /// another process (the cross-process half of [`TcpNetwork::addr_of`]).
    /// Locally registered nodes keep their entries: seeding an id that is
    /// already present is rejected rather than silently redirected.
    pub fn add_peer(&self, id: NodeId, addr: SocketAddr) -> Result<()> {
        let mut addrs = self.dir.addrs.write();
        if addrs.contains_key(&id) {
            return Err(KeraError::InvalidConfig(format!("node {id} already registered")));
        }
        addrs.insert(id, addr);
        Ok(())
    }
}

fn accept_loop(
    listener: TcpListener,
    target: Weak<dyn Deliver>,
    closed: Arc<AtomicBool>,
    accepted: Accepted,
    max_frame: usize,
) {
    for key in 0u64.. {
        match listener.accept() {
            Ok((stream, _)) => {
                if closed.load(Ordering::SeqCst) {
                    return;
                }
                if let Ok(handle) = stream.try_clone() {
                    accepted.lock().insert(key, handle);
                }
                let (target, handles) = (Weak::clone(&target), Arc::clone(&accepted));
                // A failed spawn (thread exhaustion) drops `stream` and
                // the handle, closing the connection — the peer redials
                // later. The accept loop itself must survive.
                let spawned = std::thread::Builder::new()
                    .name("tcp-reader".into())
                    .spawn(move || reader_loop(stream, key, target, handles, max_frame));
                if spawned.is_err() {
                    accepted.lock().remove(&key);
                }
            }
            Err(_) => {
                // Transient accept failures (EMFILE, ECONNABORTED, ...)
                // must not kill the listener; only an explicit close ends
                // the loop.
                if closed.load(Ordering::SeqCst) {
                    return;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    }
}

/// One inbound connection's thread. However reading ends (peer gone,
/// close(), an oversized or undecodable frame) the connection ends with
/// it: the peer sees EOF, and the handle kept for close() is released.
fn reader_loop(
    mut stream: TcpStream,
    key: u64,
    target: Weak<dyn Deliver>,
    accepted: Accepted,
    max_frame: usize,
) {
    CORK.set(Some(Vec::new()));
    let mut buf = vec![0u8; READ_BUF];
    // What was read and not yet delivered: `buf[start..end]`.
    let (mut start, mut end) = (0, 0);
    'conn: loop {
        while let Some(prefix) = buf[start..end].first_chunk::<4>() {
            let len = u32::from_le_bytes(*prefix) as usize;
            if len > max_frame {
                break 'conn; // untrusted prefix: drop the connection without allocating
            }
            let frame_end = start + 4 + len;
            // A frame is copied out: its envelope pins nothing of `buf`.
            let body = if frame_end <= end {
                start = frame_end;
                Bytes::copy_from_slice(&buf[frame_end - len..frame_end])
            } else if 4 + len <= READ_BUF {
                break; // cut: the next read brings the rest
            } else {
                flush(&target); // larger than `buf`: read into its own allocation
                let mut body = Vec::with_capacity(len);
                body.extend_from_slice(&buf[start + 4..end]);
                (start, end) = (0, 0);
                let rest = (len - body.len()) as u64;
                if (&mut stream).take(rest).read_to_end(&mut body).is_err() || body.len() < len {
                    break 'conn;
                }
                Bytes::from(body)
            };
            // A corrupt stream drops the connection; so does a node that
            // is gone (one shutting down drops the frame itself).
            match (Envelope::decode_bytes(&body), target.upgrade()) {
                (Ok(env), Some(node)) => node.receive(env),
                _ => break 'conn,
            }
        }
        flush(&target);
        // Moved to the front, a cut frame leaves the read room.
        buf.copy_within(start..end, 0);
        (start, end) = (0, end - start);
        match stream.read(&mut buf[end..]) {
            Ok(n) if n > 0 => end += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            _ => break, // peer closed (or close() shut us down)
        }
    }
    flush(&target);
    let _ = stream.shutdown(Shutdown::Both);
    accepted.lock().remove(&key);
}

/// One node's endpoint on a [`TcpNetwork`].
pub struct TcpTransport {
    id: NodeId,
    dir: Arc<Directory>,
    /// Hands the bound target to the accept thread, which waits for it.
    bound_tx: Sender<Weak<dyn Deliver>>,
    /// One outbound connection per destination; writes serialized per
    /// destination so frames never interleave.
    conns: Conns,
    addr: SocketAddr,
    closed: Arc<AtomicBool>,
    accepted: Accepted,
    max_frame_bytes: usize,
}

impl TcpTransport {
    fn connection(&self, to: NodeId) -> Result<Conn> {
        if let Some(c) = self.conns.lock().get(&to) {
            return Ok(Arc::clone(c));
        }
        let addr = self
            .dir
            .addrs
            .read()
            .get(&to)
            .copied()
            .ok_or(KeraError::Disconnected(to))?;
        // Dial outside the lock (connect can block), then insert with a
        // second check: a concurrent dial to the same peer may have won,
        // and replacing its entry would leak a connection that concurrent
        // senders still hold — and writes to the two sockets would
        // interleave frames.
        let stream = TcpStream::connect(addr).map_err(|_| KeraError::Disconnected(to))?;
        stream.set_nodelay(true).ok();
        stream.set_write_timeout(Some(STALL)).ok();
        match self.conns.lock().entry(to) {
            Entry::Occupied(e) => Ok(Arc::clone(e.get())), // lost the race; ours drops
            Entry::Vacant(v) => {
                let conn = Arc::new(Mutex::named("transport.conn", Some(stream)));
                v.insert(Arc::clone(&conn));
                Ok(conn)
            }
        }
    }

    /// On a reader, queues `frame` behind what this thread already sent
    /// on `conn`; anywhere else hands it back, to be written at once.
    fn cork(&self, to: NodeId, conn: &Conn, frame: Frame) -> Option<Frame> {
        CORK.with_borrow_mut(|cork| {
            let Some(cork) = cork else { return Some(frame) };
            match cork.iter_mut().find(|c| Arc::ptr_eq(&c.conn, conn)) {
                Some(corked) => corked.frames.push(frame),
                None => cork.push(Corked {
                    to,
                    conn: Arc::clone(conn),
                    conns: Arc::clone(&self.conns),
                    frames: vec![frame],
                }),
            }
            None
        })
    }
}

/// Removes `to`'s connection if it is still `failed`. A sender that
/// redialled after `failed` broke has mapped a healthy connection in its
/// place, and others may be writing on it: dropping that one from the map
/// would let the next send dial a second socket to the same peer.
fn forget<T>(conns: &mut HashMap<NodeId, Arc<T>>, to: NodeId, failed: &Arc<T>) {
    if conns.get(&to).is_some_and(|c| Arc::ptr_eq(c, failed)) {
        conns.remove(&to);
    }
}

/// Writes `frames` on `to`'s connection `conn`. A write the peer took
/// nothing of for [`STALL`] retires the connection: its stream leaves
/// `conn`, so no frame can follow the cut one on it, and comes back with
/// how many bytes of `frames` it took, for the caller to finish outside
/// the lock. A failed write, or a connection already retired, is an
/// error. Either way `conn` is forgotten, and the next send redials.
fn put(conns: &Conns, to: NodeId, conn: &Conn, frames: &[Frame]) -> io::Result<Option<(TcpStream, usize)>> {
    let mut out = conn.lock();
    let mut done = 0;
    let Err(e) = out.as_mut().map_or(Err(io::ErrorKind::NotConnected.into()), |stream| {
        write_frames(stream, frames, &mut done)
    }) else {
        return Ok(None);
    };
    let retired = stalled(&e).then(|| out.take()).flatten();
    drop(out);
    forget(&mut conns.lock(), to, conn);
    retired.map(|stream| Some((stream, done))).ok_or(e)
}

/// A write timed out: the peer took nothing for [`STALL`].
fn stalled(e: &io::Error) -> bool {
    matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut)
}

/// Writes the rest of `frames`, from byte `done` on, on a retired stream,
/// waiting as long as its peer's reader takes (which itself never waits
/// long); the stream closes after.
fn finish(mut stream: TcpStream, frames: &[Frame], mut done: usize) {
    while write_frames(&mut stream, frames, &mut done).is_err_and(|e| stalled(&e)) {}
}

/// Writes `frames` — each `prefix ‖ header ‖ payload` — from byte `done`
/// on, counting what it wrote there, in one vectored write (more only if
/// the kernel takes part of it), one slice pair per frame: prefix and
/// header from the frame's inline head, the payload straight from its
/// shared allocation. One frame's slices are built on the stack.
fn write_frames(out: &mut impl Write, frames: &[Frame], done: &mut usize) -> io::Result<()> {
    fn slices((head, payload): &Frame) -> [IoSlice<'_>; 2] {
        [IoSlice::new(head), IoSlice::new(payload)]
    }
    match frames {
        [one] => write_slices(out, &mut slices(one), done),
        _ => write_slices(out, &mut frames.iter().flat_map(slices).collect::<Vec<_>>(), done),
    }
}

fn write_slices(out: &mut impl Write, mut bufs: &mut [IoSlice<'_>], done: &mut usize) -> io::Result<()> {
    IoSlice::advance_slices(&mut bufs, *done);
    while !bufs.is_empty() {
        match out.write_vectored(bufs) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => {
                IoSlice::advance_slices(&mut bufs, n);
                *done += n;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

impl Transport for TcpTransport {
    fn local(&self) -> NodeId {
        self.id
    }

    fn send(&self, to: NodeId, env: Envelope) -> Result<()> {
        let frame_len = Envelope::HEADER_LEN + env.payload.len();
        if frame_len > self.max_frame_bytes {
            // The receiver would drop the connection; fail loudly instead.
            return Err(KeraError::Protocol(format!(
                "frame of {frame_len} bytes exceeds max_frame_bytes {}",
                self.max_frame_bytes
            )));
        }
        let prefix = kera_wire::checked_len("tcp frame", frame_len)?;
        // Dialled here even on a reader: an unknown or unreachable peer
        // fails the send at once.
        let conn = self.connection(to)?;
        let Some(frame) = self.cork(to, &conn, frame(prefix, env)) else { return Ok(()) };
        match put(&self.conns, to, &conn, std::slice::from_ref(&frame)) {
            Ok(None) => {}
            Ok(Some((stream, done))) => finish(stream, &[frame], done),
            Err(_) => return Err(KeraError::Disconnected(to)),
        }
        Ok(())
    }

    fn bind(&self, target: Weak<dyn Deliver>) {
        let _ = self.bound_tx.send(target);
    }

    fn close(&self) {
        self.closed.store(true, Ordering::SeqCst);
        self.dir.addrs.write().remove(&self.id);
        // Wake the accept loop so it observes the flag and exits.
        let _ = TcpStream::connect(self.addr);
        // Unblock reader threads stuck in a read on inbound streams.
        for (_, stream) in self.accepted.lock().drain() {
            let _ = stream.shutdown(Shutdown::Both);
        }
        // Shut outbound connections so the peers' readers see EOF too.
        for (_, conn) in self.conns.lock().drain() {
            if let Some(stream) = &*conn.lock() {
                let _ = stream.shutdown(Shutdown::Both);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{NodeRuntime, NullService, RequestContext, Service};
    use crate::testkit::endpoint;
    use crate::thread_count_named;
    use kera_wire::frames::OpCode;


    #[test]
    fn a_failed_send_forgets_only_the_connection_it_failed_on() {
        let (failed, redialled) = (Arc::new(1), Arc::new(2));
        let mut conns = HashMap::from([(NodeId(7), Arc::clone(&redialled))]);
        // Another sender already replaced the broken connection.
        forget(&mut conns, NodeId(7), &failed);
        assert!(conns.get(&NodeId(7)).is_some_and(|c| Arc::ptr_eq(c, &redialled)));
        // The broken connection is still mapped: it goes.
        conns.insert(NodeId(7), Arc::clone(&failed));
        forget(&mut conns, NodeId(7), &failed);
        assert!(conns.is_empty());
        // Nothing mapped: nothing to do.
        forget(&mut conns, NodeId(7), &failed);
        assert!(conns.is_empty());
    }

    /// A writer that takes at most 7 bytes per call, across slices, and
    /// fails every third call with `Interrupted`.
    #[derive(Default)]
    struct Trickle {
        out: Vec<u8>,
        calls: usize,
    }

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            self.calls += 1;
            if self.calls.is_multiple_of(3) {
                return Err(io::ErrorKind::Interrupted.into());
            }
            let before = self.out.len();
            for b in bufs {
                let room = 7 - (self.out.len() - before);
                self.out.extend_from_slice(&b[..b.len().min(room)]);
            }
            Ok(self.out.len() - before)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// The bytes a frame must put on the wire: `len ‖ header ‖ payload`.
    fn wire_bytes(env: &Envelope) -> Vec<u8> {
        let len = (Envelope::HEADER_LEN + env.payload.len()) as u32;
        [&len.to_le_bytes()[..], &env.encode_header(), &env.payload].concat()
    }

    #[test]
    fn a_frame_survives_short_and_interrupted_writes() {
        for payload_len in [0usize, 1, 6, 7, 100] {
            let payload = Bytes::from((0..payload_len as u8).collect::<Vec<_>>());
            let env = Envelope::request(OpCode::Produce, 42, NodeId(3), payload);
            let mut out = Trickle::default();
            let prefix = (Envelope::HEADER_LEN + payload_len) as u32;
            write_frames(&mut out, &[frame(prefix, env.clone())], &mut 0).unwrap();
            assert_eq!(out.out, wire_bytes(&env), "payload of {payload_len} bytes");
        }
    }

    #[test]
    fn a_writer_that_takes_nothing_is_an_error_not_a_loop() {
        /// Takes nothing; a sender that kept asking would spin forever.
        struct Full(usize);
        impl Write for Full {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                self.0 += 1;
                assert!(self.0 < 100, "write_frame retries a writer that takes nothing");
                Ok(0)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let env = Envelope::request(OpCode::Ping, 1, NodeId(1), Bytes::from_static(b"x"));
        let frame = frame(Envelope::HEADER_LEN as u32 + 1, env);
        let err = write_frames(&mut Full(0), &[frame], &mut 0).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WriteZero);
    }

    #[test]
    fn frames_on_the_wire_are_length_prefix_header_payload() {
        // A hand-rolled peer: a bare listener in the directory, read raw.
        let net = TcpNetwork::new();
        let a = net.register(NodeId(1)).unwrap();
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        net.add_peer(NodeId(9), listener.local_addr().unwrap()).unwrap();
        let envs = [
            Envelope::request(OpCode::Ping, 1, NodeId(1), Bytes::new()),
            Envelope::request(OpCode::Produce, 2, NodeId(1), Bytes::from_static(b"payload")),
            Envelope::request(OpCode::Fetch, 3, NodeId(1), Bytes::from(vec![0x5a; 70_000])),
        ];
        for env in &envs {
            a.send(NodeId(9), env.clone()).unwrap();
        }
        let (mut peer, _) = listener.accept().unwrap();
        peer.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        let expected: Vec<u8> = envs.iter().flat_map(wire_bytes).collect();
        let mut got = vec![0u8; expected.len()];
        peer.read_exact(&mut got).unwrap();
        assert!(got == expected, "the stream differs from len ‖ header ‖ payload");
    }

    #[test]
    fn concurrent_large_frames_arrive_whole_and_once() {
        const THREADS: u64 = 4;
        const FRAMES: u64 = 8;
        const LEN: usize = 2 << 20;
        let net = TcpNetwork::new();
        let a = Arc::new(net.register(NodeId(1)).unwrap());
        let (_b, b_in) = endpoint(net.register(NodeId(2)).unwrap());
        // Frames far larger than the socket buffer, so a write blocks or
        // returns short mid-frame while other senders wait on the lock.
        // Each frame is filled with its own byte: a torn or interleaved
        // frame shows as a mixed one.
        let senders: Vec<_> = (0..THREADS)
            .map(|t| {
                let a = Arc::clone(&a);
                std::thread::spawn(move || {
                    for i in 0..FRAMES {
                        let id = t * FRAMES + i;
                        let body = Bytes::from(vec![id as u8; LEN]);
                        a.send(NodeId(2), Envelope::request(OpCode::Produce, id, NodeId(1), body))
                            .unwrap();
                    }
                })
            })
            .collect();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..THREADS * FRAMES {
            let env = b_in.recv(Duration::from_secs(10)).unwrap().expect("frame lost");
            assert!(seen.insert(env.request_id), "duplicate {}", env.request_id);
            assert_eq!(env.payload.len(), LEN);
            assert!(env.payload.iter().all(|&b| b == env.request_id as u8), "frame torn");
        }
        for s in senders {
            s.join().unwrap();
        }
        assert!(b_in.recv(Duration::from_millis(50)).unwrap().is_none(), "extra frame");
    }

    #[test]
    fn tcp_roundtrip() {
        let net = TcpNetwork::new();
        let a = net.register(NodeId(1)).unwrap();
        let (_b, b_in) = endpoint(net.register(NodeId(2)).unwrap());
        a.send(NodeId(2), Envelope::request(OpCode::Ping, 5, NodeId(1), Bytes::from_static(b"yo")))
            .unwrap();
        let got = b_in.recv(Duration::from_secs(2)).unwrap().unwrap();
        assert_eq!(got.request_id, 5);
        assert_eq!(&got.payload[..], b"yo");
    }

    #[test]
    fn tcp_large_payload() {
        let net = TcpNetwork::new();
        let a = net.register(NodeId(1)).unwrap();
        let (_b, b_in) = endpoint(net.register(NodeId(2)).unwrap());
        let big = Bytes::from(vec![0xabu8; 4 * 1024 * 1024]);
        a.send(NodeId(2), Envelope::request(OpCode::Produce, 1, NodeId(1), big.clone())).unwrap();
        let got = b_in.recv(Duration::from_secs(5)).unwrap().unwrap();
        assert_eq!(got.payload.len(), big.len());
        assert_eq!(got.payload, big);
    }

    #[test]
    fn tcp_send_to_unknown_fails() {
        let net = TcpNetwork::new();
        let a = net.register(NodeId(1)).unwrap();
        let err = a
            .send(NodeId(9), Envelope::request(OpCode::Ping, 1, NodeId(1), Bytes::new()))
            .unwrap_err();
        assert!(matches!(err, KeraError::Disconnected(NodeId(9))));
    }

    struct Echo;
    impl Service for Echo {
        fn handle(&self, _ctx: &RequestContext, payload: Bytes) -> kera_common::Result<Bytes> {
            Ok(payload)
        }
    }

    #[test]
    fn node_runtime_over_tcp() {
        let net = TcpNetwork::new();
        let server = NodeRuntime::start(
            Arc::new(net.register(NodeId(1)).unwrap()),
            Arc::new(Echo),
            2,
        );
        let client = NodeRuntime::start(
            Arc::new(net.register(NodeId(2)).unwrap()),
            Arc::new(NullService),
            1,
        );
        let got = client
            .client()
            .call(NodeId(1), OpCode::Ping, Bytes::from_static(b"tcp!"), Duration::from_secs(2))
            .unwrap();
        assert_eq!(&got[..], b"tcp!");
        drop(server);
        drop(client);
    }

    #[test]
    fn many_frames_stay_ordered() {
        let net = TcpNetwork::new();
        let a = net.register(NodeId(1)).unwrap();
        let (_b, b_in) = endpoint(net.register(NodeId(2)).unwrap());
        for i in 0..500u64 {
            a.send(NodeId(2), Envelope::request(OpCode::Ping, i, NodeId(1), Bytes::new()))
                .unwrap();
        }
        for i in 0..500u64 {
            let got = b_in.recv(Duration::from_secs(2)).unwrap().unwrap();
            assert_eq!(got.request_id, i);
        }
    }

    #[test]
    fn oversized_length_prefix_drops_connection_without_allocating() {
        let net = TcpNetwork::with_max_frame(4096);
        let (_b, b_in) = endpoint(net.register(NodeId(2)).unwrap());
        let addr = net.addr_of(NodeId(2)).unwrap();

        // Hand-rolled hostile peer: a ~4 GiB length prefix. A receiver
        // that trusted it would try to allocate the full amount.
        let mut evil = TcpStream::connect(addr).unwrap();
        evil.write_all(&u32::MAX.to_le_bytes()).unwrap();
        evil.write_all(b"junk").unwrap();

        // The reader must drop the connection: our side sees EOF.
        evil.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        let mut probe = [0u8; 1];
        match evil.read(&mut probe) {
            Ok(0) => {}                       // clean EOF: connection dropped
            Ok(n) => panic!("unexpected {n} bytes from receiver"),
            Err(e) => panic!("expected EOF, got {e}"),
        }
        // Nothing was delivered, and the transport still works for
        // well-formed peers afterwards.
        assert!(b_in.recv(Duration::from_millis(50)).unwrap().is_none());
        let a = net.register(NodeId(1)).unwrap();
        a.send(NodeId(2), Envelope::request(OpCode::Ping, 1, NodeId(1), Bytes::from_static(b"ok")))
            .unwrap();
        assert_eq!(&b_in.recv(Duration::from_secs(2)).unwrap().unwrap().payload[..], b"ok");
    }

    #[test]
    fn undecodable_frame_drops_connection() {
        let net = TcpNetwork::new();
        let (_b, b_in) = endpoint(net.register(NodeId(2)).unwrap());
        let mut evil = TcpStream::connect(net.addr_of(NodeId(2)).unwrap()).unwrap();
        // A well-formed length prefix in front of 64 bytes that are no
        // envelope (0xff is no frame kind).
        evil.write_all(&64u32.to_le_bytes()).unwrap();
        evil.write_all(&[0xff; 64]).unwrap();

        // The reader gave up on the stream, so the connection must go
        // with it: EOF, not a live socket nobody reads.
        evil.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        let mut probe = [0u8; 1];
        match evil.read(&mut probe) {
            Ok(0) => {}
            Ok(n) => panic!("unexpected {n} bytes from receiver"),
            Err(e) => panic!("expected EOF, got {e}"),
        }
        assert!(b_in.recv(Duration::from_millis(50)).unwrap().is_none());
    }

    #[test]
    fn accepted_handles_do_not_accumulate() {
        let net = TcpNetwork::new();
        let (b, _b_in) = endpoint(net.register(NodeId(2)).unwrap());
        let addr = net.addr_of(NodeId(2)).unwrap();
        for _ in 0..20 {
            drop(TcpStream::connect(addr).unwrap());
        }
        // Each reader sees its peer's EOF and releases its own handle.
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while !b.accepted.lock().is_empty() {
            if std::time::Instant::now() > deadline {
                panic!("{} handles of closed connections kept", b.accepted.lock().len());
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    #[test]
    fn oversized_send_is_rejected_locally() {
        let net = TcpNetwork::with_max_frame(1024);
        let a = net.register(NodeId(1)).unwrap();
        let _b = net.register(NodeId(2)).unwrap();
        let big = Bytes::from(vec![0u8; 2048]);
        let err = a
            .send(NodeId(2), Envelope::request(OpCode::Produce, 1, NodeId(1), big))
            .unwrap_err();
        assert!(matches!(err, KeraError::Protocol(_)));
    }

    #[test]
    fn concurrent_first_sends_share_one_connection() {
        let net = TcpNetwork::new();
        let a = Arc::new(net.register(NodeId(1)).unwrap());
        let (_b, b_in) = endpoint(net.register(NodeId(2)).unwrap());
        // Race many threads through the first dial to the same peer; the
        // double-checked insert must leave exactly one connection and no
        // interleaved frames.
        let handles: Vec<_> = (0..8u64)
            .map(|t| {
                let a = Arc::clone(&a);
                std::thread::spawn(move || {
                    for i in 0..50u64 {
                        let body = Bytes::from(vec![0u8; 256]);
                        a.send(
                            NodeId(2),
                            Envelope::request(OpCode::Ping, t * 1000 + i, NodeId(1), body),
                        )
                        .unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let mut seen = std::collections::HashSet::new();
        for _ in 0..400 {
            let env = b_in.recv(Duration::from_secs(2)).unwrap().expect("frame lost");
            assert!(seen.insert(env.request_id), "duplicate {}", env.request_id);
            assert_eq!(env.payload.len(), 256);
        }
        assert_eq!(a.conns.lock().len(), 1, "exactly one connection per peer");
    }

    #[test]
    fn add_peer_seeds_cross_network_dialing() {
        // Two directories standing in for two processes: the server
        // registers on net_a; net_b only learns of it via add_peer.
        let net_a = TcpNetwork::new();
        let (_server, server_in) = endpoint(net_a.register(NodeId(7)).unwrap());
        let addr = net_a.addr_of(NodeId(7)).unwrap();

        let net_b = TcpNetwork::new();
        net_b.add_peer(NodeId(7), addr).unwrap();
        let client = net_b.register(NodeId(2001)).unwrap();
        client
            .send(NodeId(7), Envelope::request(OpCode::Ping, 9, NodeId(2001), Bytes::from_static(b"x")))
            .unwrap();
        let got = server_in.recv(Duration::from_secs(2)).unwrap().unwrap();
        assert_eq!(got.request_id, 9);

        // A locally registered id cannot be redirected by a seed.
        let err = net_a.add_peer(NodeId(7), addr).unwrap_err();
        assert!(matches!(err, KeraError::InvalidConfig(_)));
    }

    #[test]
    fn close_unblocks_inbound_readers() {
        let net = TcpNetwork::new();
        let a = net.register(NodeId(1)).unwrap();
        let (b, b_in) = endpoint(net.register(NodeId(2)).unwrap());
        // Establish an inbound connection to b whose reader then blocks
        // in read_exact waiting for the next frame.
        a.send(NodeId(2), Envelope::request(OpCode::Ping, 1, NodeId(1), Bytes::new())).unwrap();
        assert!(b_in.recv(Duration::from_secs(2)).unwrap().is_some());

        let reader_count_before = thread_count_named("tcp-reader");
        assert!(reader_count_before >= 1);
        b.close();
        // The reader must observe the shutdown and exit promptly rather
        // than staying parked in read_exact forever.
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while thread_count_named("tcp-reader") >= reader_count_before {
            if std::time::Instant::now() > deadline {
                panic!("reader threads still blocked after close()");
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    /// Where a test's own flush would finish a stalled write: nowhere.
    fn no_node() -> Weak<dyn Deliver> {
        Weak::<crate::testkit::Collector>::new()
    }

    /// A raw peer of `net`'s node 2: a stream that writes bytes by hand.
    fn raw_peer(net: &TcpNetwork) -> TcpStream {
        let stream = TcpStream::connect(net.addr_of(NodeId(2)).unwrap()).unwrap();
        stream.set_nodelay(true).unwrap();
        stream
    }

    fn ping(id: u64, payload: &[u8]) -> Envelope {
        Envelope::request(OpCode::Ping, id, NodeId(9), Bytes::copy_from_slice(payload))
    }

    #[test]
    fn many_frames_in_one_write_arrive_whole_and_in_order() {
        let net = TcpNetwork::new();
        let (_b, b_in) = endpoint(net.register(NodeId(2)).unwrap());
        // 300 frames of 0..299 bytes: ~45 KB, several bursts' worth of
        // frames cut anywhere by the reads.
        let envs: Vec<_> = (0..300u64).map(|i| ping(i, &vec![i as u8; i as usize])).collect();
        let burst: Vec<u8> = envs.iter().flat_map(wire_bytes).collect();
        raw_peer(&net).write_all(&burst).unwrap();
        for env in &envs {
            let got = b_in.recv(Duration::from_secs(2)).unwrap().expect("frame lost");
            assert_eq!((got.request_id, &got.payload), (env.request_id, &env.payload));
        }
        assert!(b_in.recv(Duration::from_millis(50)).unwrap().is_none(), "extra frame");
    }

    #[test]
    fn a_frame_split_at_any_byte_arrives_whole() {
        let net = TcpNetwork::new();
        let (_b, b_in) = endpoint(net.register(NodeId(2)).unwrap());
        let mut peer = raw_peer(&net);
        let wire = wire_bytes(&ping(0, b"split me"));
        // Every cut: inside the prefix, the header and the payload. One
        // connection throughout, so a cut frame also lands at every offset
        // of the reader's buffer.
        for cut in 1..wire.len() {
            let env = ping(cut as u64, b"split me");
            let wire = wire_bytes(&env);
            peer.write_all(&wire[..cut]).unwrap();
            std::thread::sleep(Duration::from_millis(1));
            peer.write_all(&wire[cut..]).unwrap();
            let got = b_in.recv(Duration::from_secs(2)).unwrap().expect("frame lost");
            assert_eq!((got.request_id, &got.payload[..]), (cut as u64, &b"split me"[..]));
        }
    }

    #[test]
    fn a_frame_larger_than_the_buffer_arrives_between_its_neighbours() {
        let net = TcpNetwork::new();
        let (_b, b_in) = endpoint(net.register(NodeId(2)).unwrap());
        let big = vec![0xb1u8; 3 * READ_BUF + 17];
        let envs = [ping(1, b"before"), ping(2, &big), ping(3, b"after")];
        let burst: Vec<u8> = envs.iter().flat_map(wire_bytes).collect();
        raw_peer(&net).write_all(&burst).unwrap();
        for env in &envs {
            let got = b_in.recv(Duration::from_secs(2)).unwrap().expect("frame lost");
            assert_eq!(got.request_id, env.request_id);
            assert!(got.payload == env.payload, "frame {} torn", env.request_id);
        }
    }

    /// Records the name of the thread each request is served on.
    #[derive(Default)]
    struct ServedOn(Mutex<Vec<String>>);

    impl Service for ServedOn {
        fn handle(&self, _ctx: &RequestContext, payload: Bytes) -> kera_common::Result<Bytes> {
            let name = std::thread::current().name().unwrap_or_default().to_string();
            self.0.lock().push(name);
            Ok(payload)
        }
    }

    #[test]
    fn a_request_over_tcp_is_served_on_its_reader_and_in_memory_on_a_worker() {
        let served_on = |net: crate::AnyNetwork| {
            let svc = Arc::new(ServedOn::default());
            let _server = NodeRuntime::start(net.register(NodeId(1)).unwrap(), svc.clone(), 2);
            let client =
                NodeRuntime::start(net.register(NodeId(2)).unwrap(), Arc::new(NullService), 1);
            for i in 0..20u8 {
                let got = client.client().call(
                    NodeId(1),
                    OpCode::Ping,
                    Bytes::from(vec![i]),
                    Duration::from_secs(2),
                );
                assert_eq!(&got.unwrap()[..], &[i]);
            }
            let names = std::mem::take(&mut *svc.0.lock());
            names
        };
        let tcp = served_on(crate::AnyNetwork::new(crate::TransportKind::Tcp, None));
        assert_eq!(tcp.len(), 20);
        assert!(tcp.iter().all(|name| name == "tcp-reader"), "a worker served over TCP: {tcp:?}");
        let inmem = served_on(crate::AnyNetwork::new(crate::TransportKind::InMemory, None));
        assert!(inmem.iter().all(|name| name.starts_with("worker-1-")), "{inmem:?}");
    }

    /// Takes everything it is given, counting the calls.
    #[derive(Default)]
    struct Counting {
        out: Vec<u8>,
        calls: usize,
    }

    impl Write for Counting {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            self.calls += 1;
            let before = self.out.len();
            bufs.iter().for_each(|b| self.out.extend_from_slice(b));
            Ok(self.out.len() - before)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn frames_a_reader_sends_wait_for_its_flush_and_go_in_send_order_in_one_write() {
        let envs: Vec<_> = (0..40u64).map(|i| ping(i, &vec![i as u8; 3 * i as usize])).collect();
        let expected: Vec<u8> = envs.iter().flat_map(wire_bytes).collect();
        let framed: Vec<_> = envs
            .iter()
            .map(|env| frame((Envelope::HEADER_LEN + env.payload.len()) as u32, env.clone()))
            .collect();
        let mut out = Counting::default();
        write_frames(&mut out, &framed, &mut 0).unwrap();
        assert_eq!((out.calls, out.out == expected), (1, true), "not one write, or out of order");

        // Over a socket: nothing leaves before the flush, then all of it.
        let net = TcpNetwork::new();
        let a = net.register(NodeId(1)).unwrap();
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        net.add_peer(NodeId(9), listener.local_addr().unwrap()).unwrap();
        CORK.set(Some(Vec::new()));
        for env in &envs {
            a.send(NodeId(9), env.clone()).unwrap();
        }
        let (mut peer, _) = listener.accept().unwrap();
        peer.set_read_timeout(Some(Duration::from_millis(50))).unwrap();
        let mut probe = [0u8; 1];
        let early = peer.read(&mut probe);
        assert!(early.is_err(), "a corked frame left before the flush: {early:?}");
        flush(&no_node());
        peer.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        let mut got = vec![0u8; expected.len()];
        peer.read_exact(&mut got).unwrap();
        assert!(got == expected, "the flushed stream differs from the frames in send order");
    }

    #[test]
    fn a_failed_flush_forgets_only_its_own_connection() {
        let net = TcpNetwork::new();
        let a = net.register(NodeId(1)).unwrap();
        let (_b, b_in) = endpoint(net.register(NodeId(2)).unwrap());
        let (_c, c_in) = endpoint(net.register(NodeId(3)).unwrap());
        CORK.set(Some(Vec::new()));
        a.send(NodeId(2), ping(1, b"to b")).unwrap();
        a.send(NodeId(3), ping(2, b"to c")).unwrap();
        // b's connection breaks under the corked frame.
        let broken = Arc::clone(&a.conns.lock()[&NodeId(2)]);
        broken.lock().as_ref().unwrap().shutdown(Shutdown::Write).unwrap();
        flush(&no_node());
        let kept = a.conns.lock().get(&NodeId(3)).cloned();
        assert!(!a.conns.lock().contains_key(&NodeId(2)), "the broken connection is kept");
        assert!(kept.is_some(), "a healthy connection was forgotten");
        assert_eq!(
            &c_in.recv(Duration::from_secs(2)).unwrap().expect("c's frame").payload[..],
            b"to c"
        );
        // The next send to b, from a thread that is no reader, redials.
        CORK.set(None);
        a.send(NodeId(2), ping(3, b"again")).unwrap();
        let got = b_in.recv(Duration::from_secs(2)).unwrap().expect("b's frame after redial");
        assert_eq!(got.request_id, 3);
    }

    #[test]
    fn a_stalled_send_retires_its_connection_and_still_finishes() {
        let net = TcpNetwork::new();
        let a = Arc::new(net.register(NodeId(1)).unwrap());
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        net.add_peer(NodeId(9), listener.local_addr().unwrap()).unwrap();
        // More than the sockets hold, to a peer that reads none of it yet.
        let big = ping(1, &vec![0x5a; 16 << 20]);
        let sender = {
            let (a, big) = (Arc::clone(&a), big.clone());
            std::thread::spawn(move || a.send(NodeId(9), big))
        };
        let (mut stalled, _) = listener.accept().unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        std::thread::sleep(10 * STALL);
        while a.conns.lock().contains_key(&NodeId(9)) {
            assert!(Instant::now() < deadline, "a stalled connection is still mapped");
            std::thread::sleep(Duration::from_millis(5));
        }
        // The next send dials afresh and is not held up behind the stall.
        a.send(NodeId(9), ping(2, b"fresh")).unwrap();
        let (mut fresh, _) = listener.accept().unwrap();
        let mut got = vec![0u8; wire_bytes(&ping(2, b"fresh")).len()];
        fresh.read_exact(&mut got).unwrap();
        assert_eq!(got, wire_bytes(&ping(2, b"fresh")));
        // The stalled frame still arrives whole; then its stream closes.
        let mut rest = Vec::new();
        stalled.read_to_end(&mut rest).unwrap();
        assert!(rest == wire_bytes(&big), "the stalled frame arrived torn");
        sender.join().unwrap().unwrap();
    }

    /// Answers every request with `.0` bytes.
    struct Answers(usize);

    impl Service for Answers {
        fn handle(&self, _ctx: &RequestContext, _payload: Bytes) -> kera_common::Result<Bytes> {
            Ok(Bytes::from(vec![0x42; self.0]))
        }
    }

    #[test]
    fn two_readers_answering_each_other_past_what_the_sockets_hold_never_wedge() {
        const LEN: usize = 16 << 20;
        let net = TcpNetwork::new();
        let node = |id| {
            NodeRuntime::start(Arc::new(net.register(NodeId(id)).unwrap()), Arc::new(Answers(LEN)), 1)
        };
        let (a, b) = (node(1), node(2));
        // A's call to B is served on B's reader of A->B, which answers on
        // B->A; B's call to A on A's reader of B->A, which answers on A->B.
        // Started together, each reader writes more than the sockets hold
        // to the one reader that could drain it.
        for round in 0..8 {
            let (to_b, to_a) = (a.client(), b.client());
            let start = Arc::new(std::sync::Barrier::new(2));
            let other = {
                let start = Arc::clone(&start);
                std::thread::spawn(move || {
                    start.wait();
                    to_a.call(NodeId(1), OpCode::Fetch, Bytes::new(), Duration::from_secs(10))
                })
            };
            start.wait();
            let mine = to_b.call(NodeId(2), OpCode::Fetch, Bytes::new(), Duration::from_secs(10));
            for got in [mine, other.join().unwrap()] {
                assert_eq!(got.expect("a call wedged").len(), LEN, "round {round}");
            }
        }
    }

    /// Calls node 1 from inside its `Ping` handler and waits, catching
    /// what that wait does; answers `Fetch` at once.
    struct WaitsInHandler(std::sync::OnceLock<crate::RpcClient>);

    impl Service for WaitsInHandler {
        fn handle(&self, ctx: &RequestContext, payload: Bytes) -> kera_common::Result<Bytes> {
            if ctx.opcode != OpCode::Ping {
                return Ok(payload);
            }
            let client = self.0.get().unwrap();
            let waited = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                client.call(NodeId(1), OpCode::Fetch, Bytes::new(), Duration::from_millis(100))
            }));
            Ok(Bytes::from_static(if waited.is_err() { b"tripped" } else { b"waited" }))
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    fn a_call_waited_on_in_a_handler_on_a_reader_trips_the_debug_assertion() {
        let net = TcpNetwork::new();
        let svc = Arc::new(WaitsInHandler(std::sync::OnceLock::new()));
        let server = NodeRuntime::start(Arc::new(net.register(NodeId(1)).unwrap()), svc.clone(), 1);
        svc.0.set(server.client()).ok().unwrap();
        let client = NodeRuntime::start(
            Arc::new(net.register(NodeId(2)).unwrap()),
            Arc::new(NullService),
            1,
        );
        let got =
            client.client().call(NodeId(1), OpCode::Ping, Bytes::new(), Duration::from_secs(2));
        assert_eq!(&got.unwrap()[..], b"tripped");
    }
}
