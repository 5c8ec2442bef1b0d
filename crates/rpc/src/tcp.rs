//! TCP transport: multiplexed transactions over real sockets.
//!
//! One TCP connection carries many logical request streams at once.  Every
//! frame is tagged with a request id (see the mux frames in [`crate::codec`]),
//! so:
//!
//! * a client thread never waits for *other* requests on its connection —
//!   it writes its frame, parks on its id in the connection's
//!   [`MuxCore`], and is woken when *its* reply lands,
//!   whatever order replies arrive in; and
//! * the server pipelines independent requests from the same connection:
//!   each request frame runs on its own pool thread, so a slow transaction
//!   (a faulted disk, a long scan) does not convoy the requests queued
//!   behind it.
//!
//! # Server
//!
//! [`TcpServer`] is a *leader/follower* thread pool over one level-triggered
//! [`epoll::Poller`] that watches the listening socket and every accepted
//! connection.  At any moment one pool thread, the leader, waits in the
//! poller: it accepts connections, reads and frames the byte streams, and
//! records callback acks on the spot.  When a read yields request frames,
//! the leader first hands leadership to a parked follower (or spawns a
//! thread, while fewer than `MAX_WORKERS` are alive), then runs the
//! registered [`RequestHandler`] for the first frame and writes the
//! id-tagged reply itself — a request is served by the thread that read it,
//! with no hand-off in between.  Further frames from the same wake-up are
//! queued for parked followers.  When no thread can take over, the leader
//! queues every frame and keeps leading, so acks are always read and a
//! handler parked in a lease settle can never starve the reader.
//!
//! Replies and callback pushes leave through one per-connection write lock.
//! A writer facing a full send buffer waits for writability, but for at most
//! `WRITE_STALL_LIMIT` per frame; then it closes the connection and shuts
//! its socket down, so a peer that stops reading cannot hold server threads
//! for ever, and a partial frame is never followed by another.
//!
//! # Client
//!
//! [`TcpClient`] keeps a small pool of persistent connections (round-robin
//! per transaction, [`TcpClient::with_connections`] sizes it); cloning the
//! client shares the pool.  Each connection owns a
//! [`MuxCore`] pending-reply table and a blocking reader thread
//! that completes whichever request each arriving reply names.  Connections
//! are (re-)established lazily with a jittered [`Backoff`]; re-establishment
//! after the initial connect is counted and surfaced through
//! [`Transport::reconnects`].  Connecting is free of side effects on the
//! server, so the connect path retries past refused connections (a server
//! mid-restart); *requests* are never retried here — a request that reached
//! the wire may have executed, and that ambiguity belongs to the caller's
//! failover policy (see [`crate::mux::FailoverPolicy`]).

use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use parking_lot::{Condvar, Mutex, RwLock};

use amoeba_capability::Port;

use crate::codec::{
    decode_mux_callback, decode_mux_callback_ack, decode_mux_reply, decode_mux_request,
    encode_mux_callback, encode_mux_callback_ack, encode_mux_reply, encode_mux_request,
    is_callback_frame, MAX_FRAME_BODY,
};
use crate::message::{Reply, Request};
use crate::mux::MuxCore;
use crate::{Backoff, CallbackChannel, CallbackSink, RequestHandler, Result, RpcError, Transport};

// ---------------------------------------------------------------------------
// Shared frame I/O helpers.
// ---------------------------------------------------------------------------

/// How long a writer may wait, in total, for a peer to make room for one
/// frame before the connection is given up.
const WRITE_STALL_LIMIT: Duration = Duration::from_secs(5);

/// Appends every complete `len | body` frame at the front of `data` to
/// `bodies`, each body copied once into a buffer of its own, and returns how
/// many bytes they took.  An impossible length word poisons the connection
/// (`Err`): the stream can never resynchronise.
fn split_frames(data: &[u8], bodies: &mut Vec<Bytes>) -> Result<usize> {
    let mut used = 0;
    while let Some(header) = data.get(used..used + 4) {
        let len = u32::from_le_bytes(header.try_into().expect("a four-byte slice")) as usize;
        if len > MAX_FRAME_BODY {
            return Err(RpcError::Decode(format!(
                "frame of {len} bytes is too large"
            )));
        }
        let Some(body) = data.get(used + 4..used + 4 + len) else {
            break;
        };
        bodies.push(Bytes::copy_from_slice(body));
        used += 4 + len;
    }
    Ok(used)
}

/// Writes a whole frame to a possibly non-blocking socket, waiting for
/// writability whenever the send buffer fills, for at most
/// [`WRITE_STALL_LIMIT`] in total.  The caller holds the connection's write
/// lock, so concurrent senders never interleave partial frames.  After an
/// error part of the frame may be on the wire: nothing may follow it.
fn write_frame(stream: &TcpStream, frame: &[u8]) -> Result<()> {
    let mut written = 0;
    let mut deadline = None;
    let mut stream_ref = stream;
    while written < frame.len() {
        match stream_ref.write(&frame[written..]) {
            Ok(0) => return Err(RpcError::Io("connection closed mid-write".into())),
            Ok(n) => written += n,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                let deadline = *deadline.get_or_insert_with(|| Instant::now() + WRITE_STALL_LIMIT);
                let left = deadline.saturating_duration_since(Instant::now());
                if left.is_zero() || !epoll::wait_writable(stream.as_raw_fd(), Some(left))? {
                    return Err(RpcError::Timeout);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Server.
// ---------------------------------------------------------------------------

const LISTENER_TOKEN: u64 = 0;

/// Hard ceiling on live pool threads per server.  When every one is busy,
/// the leader queues request frames and keeps leading instead of handing
/// leadership on — spawning yet more threads for a service that is already
/// saturated only adds scheduler pressure.
const MAX_WORKERS: usize = 512;

/// How long a parked follower waits for work before it retires.
const IDLE_RETIREMENT: Duration = Duration::from_secs(2);

/// One accepted connection, shared between the leader (reads), the threads
/// replying on it, and any handler holding it as a [`CallbackChannel`].
///
/// All outbound traffic — replies *and* callback pushes — leaves through the
/// one [`ServerConn::send_frame`] path, serialised by the per-connection
/// write lock, so there is exactly one writer discipline per connection.
struct ServerConn {
    stream: TcpStream,
    write_lock: Mutex<()>,
    /// The poller token: unique among this server's live connections, which
    /// makes it the natural grant-table key.
    peer_key: u64,
    /// Tickets for callback pushes, echoed back by the client's acks.
    next_ticket: AtomicU64,
    closed: AtomicBool,
    /// Acks that have arrived but not yet been collected by a waiter.
    acks: Mutex<std::collections::HashSet<u64>>,
    ack_ready: Condvar,
}

impl ServerConn {
    /// The single outbound frame path: every reply and every callback goes
    /// through here, taking the connection's write lock so concurrent
    /// senders never interleave partial frames.  A failed write closes the
    /// connection.
    fn send_frame(&self, frame: &[u8]) -> Result<()> {
        let _guard = self.write_lock.lock();
        // Checked under the lock: a writer that gave up mid-frame closed
        // the connection before releasing it.
        if self.closed.load(Ordering::SeqCst) {
            return Err(RpcError::Dropped);
        }
        let sent = write_frame(&self.stream, frame);
        if sent.is_err() {
            self.close();
        }
        sent
    }

    /// Records a callback ack from the peer and wakes waiters.
    fn record_ack(&self, ticket: u64) {
        self.acks.lock().insert(ticket);
        self.ack_ready.notify_all();
    }

    /// Marks the connection dead and shuts its socket down: pushes start
    /// failing, the peer sees the end of the stream, and every
    /// [`CallbackChannel::wait_acked`] parked on it returns.
    fn close(&self) {
        // Under the acks lock, so a waiter cannot miss the wake-up between
        // its check of `closed` and its wait.
        let _acks = self.acks.lock();
        self.closed.store(true, Ordering::SeqCst);
        let _ = self.stream.shutdown(Shutdown::Both);
        self.ack_ready.notify_all();
    }
}

impl CallbackChannel for ServerConn {
    fn push(&self, port: Port, payload: Bytes) -> Option<u64> {
        if self.closed.load(Ordering::SeqCst) {
            return None;
        }
        let ticket = self.next_ticket.fetch_add(1, Ordering::Relaxed);
        let frame = encode_mux_callback(ticket, port, &payload).ok()?;
        self.send_frame(&frame).ok()?;
        Some(ticket)
    }

    fn wait_acked(&self, ticket: u64, deadline: Instant) -> bool {
        let mut acks = self.acks.lock();
        loop {
            if acks.remove(&ticket) {
                return true;
            }
            if self.closed.load(Ordering::SeqCst) {
                return false;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            self.ack_ready.wait_for(&mut acks, deadline - now);
        }
    }

    fn peer_key(&self) -> u64 {
        self.peer_key
    }

    fn is_closed(&self) -> bool {
        self.closed.load(Ordering::SeqCst)
    }
}

/// A request frame read off a connection, waiting for a thread to serve it.
struct Inbound {
    body: Bytes,
    conn: Arc<ServerConn>,
}

/// Leader-private per-connection state.
struct ConnState {
    conn: Arc<ServerConn>,
    /// The bytes of a frame not yet wholly read.
    read_buf: Vec<u8>,
}

impl ConnState {
    /// Reads what the connection has available, recording callback acks
    /// and appending request frames to `inbound`.  Returns
    /// `false` when the connection is finished (EOF, error, or an
    /// unframeable byte stream).
    fn pump(&mut self, scratch: &mut [u8], inbound: &mut VecDeque<Inbound>) -> bool {
        let mut bodies = Vec::new();
        loop {
            let n = match (&self.conn.stream).read(scratch) {
                Ok(0) => return false,
                Ok(n) => n,
                Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => return true,
                Err(ref e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            };
            // Every whole frame is sliced out, and the buffer is compacted
            // once per read: only a partial frame is kept.
            self.read_buf.extend_from_slice(&scratch[..n]);
            match split_frames(&self.read_buf, &mut bodies) {
                Ok(used) => drop(self.read_buf.drain(..used)),
                Err(_) => return false,
            }
            for body in bodies.drain(..) {
                if is_callback_frame(&body) {
                    // A callback ack from the peer: recorded here (a set
                    // insert) so the committing writer parked on it wakes.
                    match decode_mux_callback_ack(body) {
                        Ok(ticket) => self.conn.record_ack(ticket),
                        Err(_) => return false,
                    }
                } else {
                    inbound.push_back(Inbound {
                        body,
                        conn: Arc::clone(&self.conn),
                    });
                }
            }
            if n < scratch.len() {
                // Drained, most likely; the poller is level-triggered, so
                // anything left is reported again on the next turn.
                return true;
            }
        }
    }
}

/// What the leader owns: the poller, the listener and every live
/// connection.  Exactly one thread holds it at a time.
struct Reactor {
    listener: TcpListener,
    poller: epoll::Poller,
    conns: HashMap<u64, ConnState>,
    next_token: u64,
    events: Vec<epoll::Event>,
    scratch: Vec<u8>,
}

impl Reactor {
    /// Waits for readiness once, then accepts, reads and records acks,
    /// appending the request frames read to `inbound`.  Returns `false` if
    /// the poller failed.
    fn turn(&mut self, inbound: &mut VecDeque<Inbound>) -> bool {
        let Reactor {
            listener,
            poller,
            conns,
            next_token,
            events,
            scratch,
        } = self;
        // The timeout doubles as the shutdown poll interval.
        if poller
            .wait(events, Some(Duration::from_millis(50)))
            .is_err()
        {
            return false;
        }
        for event in events.iter() {
            if event.token == LISTENER_TOKEN {
                Self::accept_all(listener, poller, conns, next_token);
            } else if let Some(state) = conns.get_mut(&event.token) {
                if !state.pump(scratch, inbound) {
                    poller.delete(state.conn.stream.as_raw_fd()).ok();
                    // Closing the channel wakes lease managers parked on
                    // acks and lets grant tables drop this peer's leases —
                    // a dead connection holds no leases.
                    state.conn.close();
                    conns.remove(&event.token);
                }
            }
        }
        true
    }

    /// Drains the accept queue (level-triggered, but cheap to loop).
    fn accept_all(
        listener: &TcpListener,
        poller: &epoll::Poller,
        conns: &mut HashMap<u64, ConnState>,
        next_token: &mut u64,
    ) {
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    stream.set_nodelay(true).ok();
                    let token = *next_token;
                    *next_token += 1;
                    if poller
                        .add(stream.as_raw_fd(), token, epoll::READABLE)
                        .is_ok()
                    {
                        conns.insert(
                            token,
                            ConnState {
                                conn: Arc::new(ServerConn {
                                    stream,
                                    write_lock: Mutex::new(()),
                                    peer_key: token,
                                    next_ticket: AtomicU64::new(1),
                                    closed: AtomicBool::new(false),
                                    acks: Mutex::new(std::collections::HashSet::new()),
                                    ack_ready: Condvar::new(),
                                }),
                                read_buf: Vec::new(),
                            },
                        );
                    }
                }
                Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(ref e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => break,
            }
        }
    }

    /// Closes the listener and every connection: every surviving channel
    /// dies with its connection.
    fn close(self) {
        for state in self.conns.values() {
            state.conn.close();
        }
    }
}

/// The pool's bookkeeping, under one lock.
struct Pool {
    /// The reactor while no thread leads; `None` while a leader holds it.
    reactor: Option<Reactor>,
    /// Request frames read but not yet taken by a thread.
    queue: VecDeque<Inbound>,
    /// Followers parked waiting for work.
    idle: usize,
    /// Work offered to parked followers by a wake-up and not yet taken by
    /// any thread: that many of the `idle` followers are spoken for.
    wakes: usize,
    /// Pool threads alive, the leader included.
    live: usize,
    /// Set once the reactor is closed.
    stopped: bool,
}

struct ServerShared {
    handlers: RwLock<HashMap<Port, Arc<dyn RequestHandler>>>,
    shutdown: AtomicBool,
    pool: Mutex<Pool>,
    /// Wakes parked followers: for leadership, a queued frame, or shutdown.
    work: Condvar,
    /// Signalled once the reactor is closed.
    stopped: Condvar,
}

impl ServerShared {
    /// Starts one more pool thread, already counted in `Pool::live`.
    fn spawn_thread(self: &Arc<Self>) -> std::io::Result<()> {
        let shared = Arc::clone(self);
        std::thread::Builder::new()
            .name("tcp-server".into())
            .spawn(move || pool_thread(shared))
            .map(drop)
    }

    /// Gives the reactor up and returns the first of `inbound` for the
    /// caller to serve, queueing the rest.  One parked follower — or a new
    /// thread — is woken to lead, and one more for each queued frame.  When
    /// no thread can take over (none is parked and the pool is full), queues
    /// every frame and hands the reactor back: the caller keeps leading.
    /// After shutdown has begun the reactor is handed back too, so the
    /// caller closes it: pool threads no longer take it from the pool.
    fn hand_off(
        self: &Arc<Self>,
        reactor: Reactor,
        inbound: &mut VecDeque<Inbound>,
    ) -> std::result::Result<Inbound, Reactor> {
        let mut pool = self.pool.lock();
        // Read under the pool lock, which `TcpServer::shutdown` takes after
        // raising the flag: either the flag is seen here, or the reactor is
        // back in the pool by the time shutdown looks for it.
        if self.shutdown.load(Ordering::SeqCst) {
            return Err(reactor);
        }
        let wanted = inbound.len();
        let woken = pool.idle.saturating_sub(pool.wakes).min(wanted);
        let spawned = (wanted - woken).min(MAX_WORKERS.saturating_sub(pool.live));
        if woken + spawned == 0 {
            pool.queue.extend(inbound.drain(..));
            return Err(reactor);
        }
        let own = inbound.pop_front().expect("the leader read a frame");
        pool.queue.extend(inbound.drain(..));
        pool.reactor = Some(reactor);
        pool.wakes += woken;
        pool.live += spawned;
        drop(pool);
        for _ in 0..woken {
            self.work.notify_one();
        }
        for _ in 0..spawned {
            if self.spawn_thread().is_err() {
                // This thread takes the reactor back after its own frame.
                self.pool.lock().live -= 1;
            }
        }
        Ok(own)
    }

    /// Closes the reactor and tells [`TcpServer::shutdown`].
    fn stop(&self, pool: &mut Pool, reactor: Reactor) {
        reactor.close();
        pool.stopped = true;
        self.stopped.notify_all();
    }
}

/// A pool thread.  As a follower it takes the reactor when no thread leads,
/// else a queued frame, else parks; it retires after [`IDLE_RETIREMENT`]
/// without work, and exits on shutdown.
fn pool_thread(shared: Arc<ServerShared>) {
    let mut pool = shared.pool.lock();
    while !shared.shutdown.load(Ordering::SeqCst) {
        if let Some(reactor) = pool.reactor.take() {
            pool.wakes = pool.wakes.saturating_sub(1);
            drop(pool);
            let own = lead(&shared, reactor);
            if let Some(inbound) = own {
                serve(&shared, inbound);
            }
            pool = shared.pool.lock();
            continue;
        }
        if let Some(inbound) = pool.queue.pop_front() {
            pool.wakes = pool.wakes.saturating_sub(1);
            drop(pool);
            serve(&shared, inbound);
            pool = shared.pool.lock();
            continue;
        }
        pool.idle += 1;
        let timed_out = shared.work.wait_for(&mut pool, IDLE_RETIREMENT);
        pool.idle -= 1;
        if timed_out && pool.reactor.is_none() && pool.queue.is_empty() {
            break;
        }
    }
    pool.live -= 1;
}

/// Leads until a turn of the reactor reads request frames and another
/// thread can take the reactor over, then returns the first frame for the
/// caller to serve.  Returns `None` once the reactor is closed (shutdown,
/// or a failed poller).
fn lead(shared: &Arc<ServerShared>, mut reactor: Reactor) -> Option<Inbound> {
    let mut inbound = VecDeque::new();
    loop {
        if shared.shutdown.load(Ordering::SeqCst) || !reactor.turn(&mut inbound) {
            shared.stop(&mut shared.pool.lock(), reactor);
            return None;
        }
        if inbound.is_empty() {
            continue;
        }
        match shared.hand_off(reactor, &mut inbound) {
            Ok(own) => return Some(own),
            Err(kept) => reactor = kept,
        }
    }
}

/// Serves one request frame: decode, run the handler for its port with the
/// originating connection attached as a callback channel, write the
/// id-tagged reply back through the connection's one outbound frame path.
fn serve(shared: &ServerShared, Inbound { body, conn }: Inbound) {
    let (id, port, request) = match decode_mux_request(body) {
        Ok(parts) => parts,
        // Without an id there is nothing to tag a reply with; the
        // client's deadline reports the loss.
        Err(_) => return,
    };
    let handler = shared.handlers.read().get(&port).cloned();
    let reply = match handler {
        Some(h) => {
            let channel: Arc<dyn CallbackChannel> = Arc::clone(&conn) as _;
            h.handle_from(request, Some(&channel))
        }
        None => Reply::error(Bytes::from_static(b"no such port")),
    };
    let frame = match encode_mux_reply(id, &reply) {
        Ok(frame) => frame,
        Err(_) => match encode_mux_reply(id, &Reply::error(Bytes::from_static(b"reply too large")))
        {
            Ok(frame) => frame,
            Err(_) => return,
        },
    };
    let _ = conn.send_frame(&frame);
}

/// A server hosting one or more Amoeba service ports on a TCP socket,
/// pipelining independent requests per connection.
pub struct TcpServer {
    addr: SocketAddr,
    shared: Arc<ServerShared>,
}

impl TcpServer {
    /// Binds to `addr` (use port 0 for an ephemeral port) and starts the
    /// first pool thread, which leads.
    pub fn bind(addr: &str) -> Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        listener.set_nonblocking(true)?;

        let poller = epoll::Poller::new()?;
        poller.add(listener.as_raw_fd(), LISTENER_TOKEN, epoll::READABLE)?;

        let shared = Arc::new(ServerShared {
            handlers: RwLock::new(HashMap::new()),
            shutdown: AtomicBool::new(false),
            pool: Mutex::new(Pool {
                reactor: Some(Reactor {
                    listener,
                    poller,
                    conns: HashMap::new(),
                    next_token: LISTENER_TOKEN + 1,
                    events: Vec::new(),
                    scratch: vec![0; 64 * 1024],
                }),
                queue: VecDeque::new(),
                idle: 0,
                wakes: 0,
                live: 1,
                stopped: false,
            }),
            work: Condvar::new(),
            stopped: Condvar::new(),
        });
        shared.spawn_thread()?;

        Ok(TcpServer {
            addr: local,
            shared,
        })
    }

    /// The socket address the server is listening on.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Registers a handler for a logical service port.
    pub fn register(&self, port: Port, handler: Arc<dyn RequestHandler>) {
        self.shared.handlers.write().insert(port, handler);
    }

    /// Stops the server: returns once the listener and every connection are
    /// closed.  Parked threads exit; in-flight handlers finish, but their
    /// replies are lost.
    pub fn shutdown(&mut self) {
        let shared = &self.shared;
        shared.shutdown.store(true, Ordering::SeqCst);
        let mut pool = shared.pool.lock();
        // With no leader the reactor is in the pool: close it here.
        if let Some(reactor) = pool.reactor.take() {
            shared.stop(&mut pool, reactor);
        }
        while !pool.stopped {
            shared.stopped.wait(&mut pool);
        }
        drop(pool);
        shared.work.notify_all();
    }
}

impl Drop for TcpServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

// ---------------------------------------------------------------------------
// Client.
// ---------------------------------------------------------------------------

/// One established client connection: a blocking socket written under a
/// lock, demultiplexed by a dedicated reader thread into the `MuxCore`.
struct ClientConn {
    stream: TcpStream,
    write_lock: Mutex<()>,
    mux: MuxCore,
    dead: AtomicBool,
}

impl ClientConn {
    /// Writes one whole frame under the connection's write lock.
    fn send(&self, frame: &[u8]) -> Result<()> {
        let _guard = self.write_lock.lock();
        write_frame(&self.stream, frame)
    }

    /// Marks the connection unusable and fails everything in flight.
    fn kill(&self, err: &RpcError) {
        self.dead.store(true, Ordering::SeqCst);
        self.mux.fail_all(err);
    }
}

/// A pool slot: the current connection (if any) and whether this slot was
/// ever connected — re-establishing a previously working slot is a
/// *reconnect*, establishing it the first time is not.
#[derive(Default)]
struct ConnSlot {
    conn: Option<Arc<ClientConn>>,
    ever_connected: bool,
}

/// Callback listeners shared by every connection of one pooled client: the
/// server may grant a lease on one connection and (with per-connection grant
/// tables) break it on the same one, but the client-side tables are
/// connection-agnostic, so every reader dispatches into the same sink list.
type SinkList = Arc<Mutex<Vec<Arc<dyn CallbackSink>>>>;

struct ClientInner {
    server: SocketAddr,
    timeout: Duration,
    slots: Vec<Mutex<ConnSlot>>,
    next: AtomicUsize,
    reconnects: AtomicU64,
    sinks: SinkList,
}

/// A multiplexing client for a [`TcpServer`]: a pool of persistent
/// connections shared by all clones, many concurrent transactions in flight
/// per connection.
#[derive(Clone)]
pub struct TcpClient {
    inner: Arc<ClientInner>,
}

impl std::fmt::Debug for TcpClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpClient")
            .field("server", &self.inner.server)
            .field("timeout", &self.inner.timeout)
            .field("connections", &self.inner.slots.len())
            .finish()
    }
}

impl TcpClient {
    /// Creates a client for the server at `server` with the default
    /// per-transaction timeout (5 s) and connection pool (2 connections).
    pub fn new(server: SocketAddr) -> Self {
        Self::build(server, Duration::from_secs(5), 2)
    }

    /// Sets the per-transaction timeout.  (A builder: call before issuing
    /// transactions — the pool is reset.)
    pub fn with_timeout(self, timeout: Duration) -> Self {
        Self::build(self.inner.server, timeout, self.inner.slots.len())
    }

    /// Sets the number of pooled connections transactions are spread over.
    /// (A builder: call before issuing transactions — the pool is reset.)
    pub fn with_connections(self, connections: usize) -> Self {
        Self::build(self.inner.server, self.inner.timeout, connections.max(1))
    }

    fn build(server: SocketAddr, timeout: Duration, connections: usize) -> Self {
        TcpClient {
            inner: Arc::new(ClientInner {
                server,
                timeout,
                slots: (0..connections)
                    .map(|_| Mutex::new(ConnSlot::default()))
                    .collect(),
                next: AtomicUsize::new(0),
                reconnects: AtomicU64::new(0),
                sinks: Arc::new(Mutex::new(Vec::new())),
            }),
        }
    }

    /// Picks the next pool slot round-robin and returns its live connection,
    /// (re-)establishing one if needed.  Connect failures are retried on a
    /// jittered backoff; once the schedule exhausts, `ServerCrashed` is
    /// returned — a connection that never opened provably executed nothing,
    /// so every failover policy may redirect it.
    fn get_conn(&self) -> Result<Arc<ClientConn>> {
        let inner = &self.inner;
        let slot_index = inner.next.fetch_add(1, Ordering::Relaxed) % inner.slots.len();
        let mut slot = inner.slots[slot_index].lock();
        if let Some(conn) = &slot.conn {
            if !conn.dead.load(Ordering::SeqCst) {
                return Ok(Arc::clone(conn));
            }
        }
        let mut backoff = Backoff::with_seed(
            Duration::from_millis(10),
            Duration::from_millis(80),
            3,
            u64::from(inner.server.port()) ^ slot_index as u64,
        );
        loop {
            match TcpStream::connect_timeout(&inner.server, inner.timeout) {
                Ok(stream) => {
                    stream.set_nodelay(true).ok();
                    let reader_stream = stream.try_clone()?;
                    let conn = Arc::new(ClientConn {
                        stream,
                        write_lock: Mutex::new(()),
                        mux: MuxCore::new(),
                        dead: AtomicBool::new(false),
                    });
                    let reader_conn = Arc::clone(&conn);
                    let reader_sinks = Arc::clone(&inner.sinks);
                    std::thread::spawn(move || {
                        reader_loop(reader_stream, reader_conn, reader_sinks)
                    });
                    if slot.ever_connected {
                        inner.reconnects.fetch_add(1, Ordering::Relaxed);
                    }
                    slot.ever_connected = true;
                    slot.conn = Some(Arc::clone(&conn));
                    return Ok(conn);
                }
                Err(_) => {
                    if !backoff.sleep_next() {
                        return Err(RpcError::ServerCrashed);
                    }
                }
            }
        }
    }
}

/// Demultiplexes inbound frames off one connection until it dies.  Replies
/// complete whichever request their id names — in arrival order, which need
/// not be request order.  Server-pushed callback frames (the reserved
/// [`crate::codec::CALLBACK_MARKER`] id) are dispatched to every registered
/// [`CallbackSink`] and then acked back to the server: sinks only mutate
/// local state (drop a lease), so "every sink returned" is the moment the
/// callback is honoured, and the ack write happens here on the reader thread
/// through the same serialised frame writer the requesters use.
fn reader_loop(mut stream: TcpStream, conn: Arc<ClientConn>, sinks: SinkList) {
    let died: RpcError = loop {
        let mut header = [0u8; 4];
        if stream.read_exact(&mut header).is_err() {
            break RpcError::Dropped;
        }
        let len = u32::from_le_bytes(header) as usize;
        if len > MAX_FRAME_BODY {
            break RpcError::Decode(format!("reply frame of {len} bytes is too large"));
        }
        let mut body = vec![0u8; len];
        if stream.read_exact(&mut body).is_err() {
            break RpcError::Dropped;
        }
        let body = Bytes::from(body);
        if is_callback_frame(&body) {
            match decode_mux_callback(body) {
                Ok((ticket, port, payload)) => {
                    let listeners: Vec<Arc<dyn CallbackSink>> = sinks.lock().clone();
                    for sink in &listeners {
                        sink.on_callback(port, payload.clone());
                    }
                    let ack = encode_mux_callback_ack(ticket);
                    if conn.send(&ack).is_err() {
                        // Can't ack on a dying connection; the server's
                        // wait falls back to the grant's own expiry.
                        break RpcError::Dropped;
                    }
                }
                Err(err) => break err,
            }
            continue;
        }
        match decode_mux_reply(body) {
            Ok((id, reply)) => {
                conn.mux.complete(id, Ok(reply));
            }
            // An undecodable reply means the stream is out of sync; nothing
            // on this connection can be trusted any more.
            Err(err) => break err,
        }
    };
    conn.kill(&died);
    // Leases live and die with the connection that could break them: tell
    // every sink its server can no longer reach it.
    let listeners: Vec<Arc<dyn CallbackSink>> = sinks.lock().clone();
    for sink in &listeners {
        sink.on_connection_lost();
    }
}

impl Transport for TcpClient {
    fn transact(&self, port: Port, request: Request) -> Result<Reply> {
        let deadline = Instant::now() + self.inner.timeout;
        let conn = self.get_conn()?;
        let id = conn.mux.allocate();
        let frame = encode_mux_request(id, port, &request)?;
        if conn.send(&frame).is_err() {
            // The write path failed: the connection is gone, and whether any
            // bytes reached the server is unknowable — poison it and report
            // the ambiguous outcome.
            conn.kill(&RpcError::Dropped);
        }
        conn.mux.wait(id, deadline)
    }

    fn reconnects(&self) -> u64 {
        self.inner.reconnects.load(Ordering::Relaxed)
    }

    fn register_callback_sink(&self, sink: Arc<dyn CallbackSink>) -> bool {
        self.inner.sinks.lock().push(sink);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amoeba_capability::Capability;
    use bytes::BytesMut;

    #[test]
    fn tcp_round_trip() {
        let server = TcpServer::bind("127.0.0.1:0").unwrap();
        let port = Port::from_raw(77);
        server.register(
            port,
            Arc::new(|req: Request| {
                let mut out = BytesMut::from(&b"echo:"[..]);
                out.extend_from_slice(&req.payload);
                Reply::ok(out.freeze())
            }),
        );
        let client = TcpClient::new(server.local_addr());
        let reply = client
            .transact(
                port,
                Request::new(1, Capability::null(), Bytes::from_static(b"hi")),
            )
            .unwrap();
        assert!(reply.is_ok());
        assert_eq!(reply.payload, Bytes::from_static(b"echo:hi"));
    }

    #[test]
    fn unknown_port_gets_error_reply() {
        let server = TcpServer::bind("127.0.0.1:0").unwrap();
        let client = TcpClient::new(server.local_addr());
        let reply = client
            .transact(Port::from_raw(1), Request::empty(0, Capability::null()))
            .unwrap();
        assert!(!reply.is_ok());
    }

    #[test]
    fn multiple_sequential_transactions() {
        let server = TcpServer::bind("127.0.0.1:0").unwrap();
        let port = Port::from_raw(5);
        server.register(port, Arc::new(|req: Request| Reply::ok(req.payload)));
        let client = TcpClient::new(server.local_addr());
        for i in 0..10u8 {
            let reply = client
                .transact(
                    port,
                    Request::new(1, Capability::null(), Bytes::from(vec![i])),
                )
                .unwrap();
            assert_eq!(reply.payload, Bytes::from(vec![i]));
        }
    }

    #[test]
    fn concurrent_clients_are_served() {
        let server = TcpServer::bind("127.0.0.1:0").unwrap();
        let port = Port::from_raw(6);
        server.register(port, Arc::new(|req: Request| Reply::ok(req.payload)));
        let addr = server.local_addr();
        let mut handles = Vec::new();
        for t in 0..4u8 {
            handles.push(std::thread::spawn(move || {
                let client = TcpClient::new(addr);
                for i in 0..20u8 {
                    let payload = Bytes::from(vec![t, i]);
                    let reply = client
                        .transact(port, Request::new(1, Capability::null(), payload.clone()))
                        .unwrap();
                    assert_eq!(reply.payload, payload);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    /// Many logical streams interleave on ONE connection, and replies
    /// complete out of order: the handler sleeps longer for smaller ids, so
    /// the first requests written are the last answered — yet every thread
    /// gets its own payload back.
    #[test]
    fn interleaved_streams_on_one_connection_complete_out_of_order() {
        let server = TcpServer::bind("127.0.0.1:0").unwrap();
        let port = Port::from_raw(9);
        server.register(
            port,
            Arc::new(|req: Request| {
                let rank = req.payload[0];
                // Earlier-sent requests sleep longest → reply order is the
                // reverse of request order.
                std::thread::sleep(Duration::from_millis(u64::from(16 - rank) * 5));
                Reply::ok(req.payload)
            }),
        );
        // A single shared connection: all 16 streams multiplex on it.
        let client = TcpClient::new(server.local_addr()).with_connections(1);
        let start = Instant::now();
        let mut handles = Vec::new();
        for rank in 0..16u8 {
            let client = client.clone();
            handles.push(std::thread::spawn(move || {
                let payload = Bytes::from(vec![rank]);
                let reply = client
                    .transact(port, Request::new(1, Capability::null(), payload.clone()))
                    .unwrap();
                assert_eq!(reply.payload, payload);
            }));
            // Stagger the sends a little so write order is deterministic
            // enough for the sleep schedule to invert it.
            std::thread::sleep(Duration::from_millis(1));
        }
        for h in handles {
            h.join().unwrap();
        }
        // Serially the sleeps alone would be 5+10+...+80 = 680 ms; pipelined
        // on one connection the whole batch bounds at the longest sleep plus
        // overhead.  A loose factor guards against CI jitter.
        assert!(
            start.elapsed() < Duration::from_millis(600),
            "requests on one connection were serialised: {:?}",
            start.elapsed()
        );
    }

    /// A request that exceeds its deadline times out alone; the connection
    /// keeps serving the requests pipelined behind it.
    #[test]
    fn deadline_expiry_cancels_one_request_without_killing_the_connection() {
        let server = TcpServer::bind("127.0.0.1:0").unwrap();
        let port = Port::from_raw(11);
        server.register(
            port,
            Arc::new(|req: Request| {
                if req.op == 1 {
                    std::thread::sleep(Duration::from_millis(300));
                }
                Reply::ok(req.payload)
            }),
        );
        let client = TcpClient::new(server.local_addr())
            .with_connections(1)
            .with_timeout(Duration::from_millis(60));
        let slow = {
            let client = client.clone();
            std::thread::spawn(move || {
                client.transact(port, Request::new(1, Capability::null(), Bytes::new()))
            })
        };
        std::thread::sleep(Duration::from_millis(5));
        // Pipelined behind the slow one, but fast: completes fine.
        let fast = client
            .transact(
                port,
                Request::new(0, Capability::null(), Bytes::from_static(b"fast")),
            )
            .unwrap();
        assert_eq!(fast.payload, Bytes::from_static(b"fast"));
        assert_eq!(slow.join().unwrap().unwrap_err(), RpcError::Timeout);
        // The connection survived the expiry: later transactions still work.
        let again = client
            .transact(
                port,
                Request::new(0, Capability::null(), Bytes::from_static(b"again")),
            )
            .unwrap();
        assert_eq!(again.payload, Bytes::from_static(b"again"));
    }

    /// A handler that captures its peer channel on op 1 and, on op 2, pushes
    /// a callback through it and reports whether the client acked in time —
    /// the exact shape of a lease grant followed by a lease break.
    #[test]
    fn callbacks_are_pushed_dispatched_and_acked() {
        struct Breaker {
            chan: Mutex<Option<Arc<dyn CallbackChannel>>>,
        }
        impl RequestHandler for Breaker {
            fn handle(&self, req: Request) -> Reply {
                Reply::ok(req.payload)
            }
            fn handle_from(&self, req: Request, peer: Option<&Arc<dyn CallbackChannel>>) -> Reply {
                match req.op {
                    1 => {
                        *self.chan.lock() = peer.cloned();
                        Reply::ok(Bytes::new())
                    }
                    _ => {
                        let chan = self.chan.lock().clone().expect("op 1 first");
                        let ticket = chan
                            .push(Port::from_raw(15), Bytes::from_static(b"break"))
                            .expect("push on live connection");
                        let acked =
                            chan.wait_acked(ticket, Instant::now() + Duration::from_secs(2));
                        Reply::ok(Bytes::from(vec![u8::from(acked)]))
                    }
                }
            }
        }

        struct Recorder {
            seen: Mutex<Vec<(Port, Bytes)>>,
        }
        impl CallbackSink for Recorder {
            fn on_callback(&self, port: Port, payload: Bytes) {
                self.seen.lock().push((port, payload));
            }
        }

        let server = TcpServer::bind("127.0.0.1:0").unwrap();
        let port = Port::from_raw(15);
        server.register(
            port,
            Arc::new(Breaker {
                chan: Mutex::new(None),
            }),
        );
        let client = TcpClient::new(server.local_addr()).with_connections(1);
        let recorder = Arc::new(Recorder {
            seen: Mutex::new(Vec::new()),
        });
        assert!(client.register_callback_sink(Arc::clone(&recorder) as _));

        client
            .transact(port, Request::new(1, Capability::null(), Bytes::new()))
            .unwrap();
        let reply = client
            .transact(port, Request::new(2, Capability::null(), Bytes::new()))
            .unwrap();
        assert_eq!(
            reply.payload.as_ref(),
            &[1],
            "server never saw the client's ack"
        );
        let seen = recorder.seen.lock();
        assert_eq!(seen.len(), 1);
        assert_eq!(seen[0].0, Port::from_raw(15));
        assert_eq!(seen[0].1.as_ref(), b"break");
    }

    /// Killing the server and restarting on the same address exercises the
    /// reconnect path, which must be counted in `reconnects()`.
    #[test]
    fn reconnect_after_server_restart_is_counted() {
        let mut server = TcpServer::bind("127.0.0.1:0").unwrap();
        let addr = server.local_addr();
        let port = Port::from_raw(13);
        server.register(port, Arc::new(|req: Request| Reply::ok(req.payload)));
        let client = TcpClient::new(addr).with_connections(1);
        client
            .transact(port, Request::new(0, Capability::null(), Bytes::new()))
            .unwrap();
        assert_eq!(client.reconnects(), 0);

        server.shutdown();
        // The pooled connection is now dead; the first transact after the
        // restart below must transparently re-establish it.
        let server = TcpServer::bind(&addr.to_string()).unwrap();
        server.register(port, Arc::new(|req: Request| Reply::ok(req.payload)));

        // The dead connection may serve one failing transact before the
        // reader thread notices EOF; retry a few times like a real caller.
        let mut ok = false;
        for _ in 0..20 {
            if client
                .transact(port, Request::new(0, Capability::null(), Bytes::new()))
                .is_ok()
            {
                ok = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(ok, "client never recovered after server restart");
        assert_eq!(client.reconnects(), 1);
    }

    /// Shutting down while clients keep requests coming returns: whichever
    /// thread holds the reactor when shutdown begins closes it, even if its
    /// last turn read request frames.
    #[test]
    fn shutdown_under_live_traffic_returns() {
        for _ in 0..20 {
            let mut server = TcpServer::bind("127.0.0.1:0").unwrap();
            let port = Port::from_raw(21);
            server.register(port, Arc::new(|req: Request| Reply::ok(req.payload)));
            let client = TcpClient::new(server.local_addr()).with_timeout(Duration::from_secs(1));
            let running = Arc::new(AtomicBool::new(true));
            let senders: Vec<_> = (0..4)
                .map(|_| {
                    let client = client.clone();
                    let running = Arc::clone(&running);
                    std::thread::spawn(move || {
                        while running.load(Ordering::SeqCst) {
                            let request = Request::new(0, Capability::null(), Bytes::new());
                            if client.transact(port, request).is_err() {
                                break;
                            }
                        }
                    })
                })
                .collect();
            std::thread::sleep(Duration::from_millis(10));
            let (done, returned) = std::sync::mpsc::channel();
            std::thread::spawn(move || {
                server.shutdown();
                done.send(()).ok();
            });
            let outcome = returned.recv_timeout(Duration::from_secs(5));
            running.store(false, Ordering::SeqCst);
            assert!(outcome.is_ok(), "shutdown under traffic never returned");
            for sender in senders {
                sender.join().unwrap();
            }
        }
    }

    #[test]
    fn frames_are_split_out_whole_and_a_partial_tail_is_left() {
        let mut data = Vec::new();
        for body in [&b"one"[..], b"", b"three"] {
            data.extend_from_slice(&(body.len() as u32).to_le_bytes());
            data.extend_from_slice(body);
        }
        data.extend_from_slice(&9u32.to_le_bytes());
        data.extend_from_slice(b"part");
        let mut bodies = Vec::new();
        assert_eq!(split_frames(&data, &mut bodies).unwrap(), data.len() - 8);
        assert_eq!(
            bodies,
            vec![
                Bytes::from_static(b"one"),
                Bytes::new(),
                Bytes::from_static(b"three")
            ]
        );
        let impossible = ((MAX_FRAME_BODY + 1) as u32).to_le_bytes();
        assert!(split_frames(&impossible, &mut bodies).is_err());
    }

    /// Waits on `changed` until `ready` holds of the guarded state; false
    /// after ten seconds.
    fn wait_until<T>(state: &Mutex<T>, changed: &Condvar, ready: impl Fn(&T) -> bool) -> bool {
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut guard = state.lock();
        while !ready(&guard) {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return false;
            }
            changed.wait_for(&mut guard, left);
        }
        true
    }

    /// Handlers of op 1 park until a handler of op 2 opens the gate.
    #[derive(Default)]
    struct Gate {
        /// (handlers parked, gate open)
        state: Mutex<(usize, bool)>,
        changed: Condvar,
    }

    impl RequestHandler for Gate {
        fn handle(&self, req: Request) -> Reply {
            if req.op == 1 {
                self.state.lock().0 += 1;
                self.changed.notify_all();
                wait_until(&self.state, &self.changed, |state| state.1);
            } else {
                self.state.lock().1 = true;
                self.changed.notify_all();
            }
            Reply::ok(req.payload)
        }
    }

    /// Every request of one connection but the last parks in its handler
    /// until the last one releases them: some thread must still be reading
    /// the connection while all the others are parked.
    #[test]
    fn handlers_parked_on_a_connection_are_released_by_a_later_request_on_it() {
        const PARKED: usize = 4;
        let server = TcpServer::bind("127.0.0.1:0").unwrap();
        let port = Port::from_raw(17);
        let gate = Arc::new(Gate::default());
        server.register(port, Arc::clone(&gate) as _);
        let client = TcpClient::new(server.local_addr()).with_connections(1);
        std::thread::scope(|scope| {
            let parked: Vec<_> = (0..PARKED as u8)
                .map(|rank| {
                    let client = client.clone();
                    scope.spawn(move || {
                        client.transact(
                            port,
                            Request::new(1, Capability::null(), Bytes::from(vec![rank])),
                        )
                    })
                })
                .collect();
            assert!(
                wait_until(&gate.state, &gate.changed, |state| state.0 == PARKED),
                "the parked requests never all reached their handlers"
            );
            client
                .transact(port, Request::new(2, Capability::null(), Bytes::new()))
                .expect("the releasing request is read while the others are parked");
            for (rank, handle) in parked.into_iter().enumerate() {
                let reply = handle.join().unwrap().unwrap();
                assert_eq!(reply.payload, Bytes::from(vec![rank as u8]));
            }
        });
    }

    /// Op 1 answers with a full-size reply and remembers its connection;
    /// any other op echoes.
    #[derive(Default)]
    struct BigReplies {
        /// (op-1 requests handled, the connection they came on)
        state: Mutex<(usize, Option<Arc<dyn CallbackChannel>>)>,
        changed: Condvar,
    }

    impl RequestHandler for BigReplies {
        fn handle(&self, req: Request) -> Reply {
            Reply::ok(req.payload)
        }
        fn handle_from(&self, req: Request, peer: Option<&Arc<dyn CallbackChannel>>) -> Reply {
            if req.op != 1 {
                return Reply::ok(req.payload);
            }
            {
                let mut state = self.state.lock();
                state.0 += 1;
                state.1 = peer.cloned();
            }
            self.changed.notify_all();
            Reply::ok(Bytes::from(vec![7u8; crate::MAX_PAYLOAD]))
        }
    }

    /// A raw peer pipelines far more reply bytes than the socket buffers
    /// hold and never reads.  Another client is still served while the
    /// replies are stuck, and once the stall limit passes the stalled
    /// connection is closed after its last whole frame.
    #[test]
    fn a_peer_that_stops_reading_is_cut_off_while_others_are_served() {
        const REQUESTS: u64 = 256;
        let server = TcpServer::bind("127.0.0.1:0").unwrap();
        let port = Port::from_raw(19);
        let handler = Arc::new(BigReplies::default());
        server.register(port, Arc::clone(&handler) as _);

        let mut raw = TcpStream::connect(server.local_addr()).unwrap();
        let mut pipelined = Vec::new();
        for id in 1..=REQUESTS {
            let request = Request::new(1, Capability::null(), Bytes::new());
            pipelined.extend_from_slice(&encode_mux_request(id, port, &request).unwrap());
        }
        raw.write_all(&pipelined).unwrap();
        assert!(wait_until(&handler.state, &handler.changed, |state| {
            state.0 == REQUESTS as usize
        }));
        let stalled = handler.state.lock().1.clone().expect("op 1 saw its peer");

        let client = TcpClient::new(server.local_addr()).with_timeout(Duration::from_secs(2));
        let reply = client
            .transact(
                port,
                Request::new(0, Capability::null(), Bytes::from_static(b"served")),
            )
            .expect("a stalled peer must not hold up other clients");
        assert_eq!(reply.payload, Bytes::from_static(b"served"));
        assert!(!stalled.is_closed(), "closed before the stall limit");

        let deadline = Instant::now() + 3 * WRITE_STALL_LIMIT;
        while !stalled.is_closed() {
            assert!(
                Instant::now() < deadline,
                "the stalled connection stayed open"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
        // What reached the peer is whole replies, then at most one partial
        // frame, then the end of the stream.
        raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut received = Vec::new();
        match raw.read_to_end(&mut received) {
            Ok(_) => {}
            Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::ConnectionReset),
        }
        let mut bodies = Vec::new();
        let used = split_frames(&received, &mut bodies).unwrap();
        assert!(received.len() - used < 4 + MAX_FRAME_BODY);
        assert!((bodies.len() as u64) < REQUESTS, "nothing was stuck");
        for body in bodies {
            let (_, reply) = decode_mux_reply(body).unwrap();
            assert_eq!(reply.payload.len(), crate::MAX_PAYLOAD);
        }
    }
}
