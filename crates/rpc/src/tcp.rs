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
//! The length prefix is untrusted input: frames larger than the network's
//! `max_frame_bytes` cause the receiver to drop the connection *before*
//! allocating a buffer, so a corrupt or hostile prefix cannot trigger a
//! multi-gigabyte allocation.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};
use std::time::Duration;

use bytes::BytesMut;
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

    /// A network whose receivers reject frames larger than
    /// `max_frame_bytes` (length prefix included payload) by dropping
    /// the connection.
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
            conns: Mutex::named("transport.conns", HashMap::new()),
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
    let mut len_buf = [0u8; 4];
    loop {
        if stream.read_exact(&mut len_buf).is_err() {
            break; // peer closed (or close() shut us down)
        }
        let len = u32::from_le_bytes(len_buf) as usize;
        if len > max_frame {
            break; // untrusted prefix: drop the connection without allocating
        }
        // Each frame is read into its own allocation, which the decoded
        // envelope then slices: the payload is never copied again.
        let mut body = BytesMut::with_capacity(len);
        body.resize(len, 0);
        if stream.read_exact(&mut body).is_err() {
            break;
        }
        // A corrupt stream drops the connection; so does a node that is
        // gone (one shutting down drops the frame itself).
        match (Envelope::decode_bytes(&body.freeze()), target.upgrade()) {
            (Ok(env), Some(node)) => node.deliver(env),
            _ => break,
        }
    }
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
    conns: Mutex<HashMap<NodeId, Arc<Mutex<TcpStream>>>>,
    addr: SocketAddr,
    closed: Arc<AtomicBool>,
    accepted: Accepted,
    max_frame_bytes: usize,
}

impl TcpTransport {
    fn connection(&self, to: NodeId) -> Result<Arc<Mutex<TcpStream>>> {
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
        match self.conns.lock().entry(to) {
            Entry::Occupied(e) => Ok(Arc::clone(e.get())), // lost the race; ours drops
            Entry::Vacant(v) => {
                let conn = Arc::new(Mutex::named("transport.conn", stream));
                v.insert(Arc::clone(&conn));
                Ok(conn)
            }
        }
    }
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
        let conn = self.connection(to)?;
        let mut guard = conn.lock();
        // Prefix and header share one small stack buffer; the payload is
        // written straight from its shared allocation.
        let mut head = [0u8; 4 + Envelope::HEADER_LEN];
        head[..4].copy_from_slice(&prefix.to_le_bytes());
        head[4..].copy_from_slice(&env.encode_header());
        let res = guard.write_all(&head).and_then(|_| guard.write_all(&env.payload));
        if res.is_err() {
            // Connection broke: forget it so the next send redials.
            drop(guard);
            self.conns.lock().remove(&to);
            return Err(KeraError::Disconnected(to));
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
        // Unblock reader threads stuck in read_exact on inbound streams.
        for (_, stream) in self.accepted.lock().drain() {
            let _ = stream.shutdown(Shutdown::Both);
        }
        // Shut outbound connections so the peers' readers see EOF too.
        for (_, conn) in self.conns.lock().drain() {
            let _ = conn.lock().shutdown(Shutdown::Both);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{NodeRuntime, NullService, RequestContext, Service};
    use crate::testkit::endpoint;
    use crate::thread_count_named;
    use bytes::Bytes;
    use kera_wire::frames::OpCode;


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
}
