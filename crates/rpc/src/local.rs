//! In-process transport: clients and servers in the same address space.
//!
//! `LocalNetwork` is the default substrate for tests, examples and benchmarks: it
//! routes transactions directly to registered handlers, optionally injecting the
//! network pathologies the robustness experiments need (latency, loss, crashed or
//! partitioned servers).
//!
//! Used directly as a [`Transport`], the network is *connectionless*: handlers
//! see no peer identity and can push nothing back, so lease-granting servers
//! degrade to plain validate-on-use.  [`LocalNetwork::connect`] upgrades that:
//! it mints a [`LocalConn`] — an in-process stand-in for one multiplexed TCP
//! connection — whose transactions reach handlers through
//! [`RequestHandler::handle_from`] with a live [`CallbackChannel`], and whose
//! registered [`CallbackSink`]s receive server pushes synchronously on the
//! pushing thread (delivery-is-processing, so every push is immediately
//! acked, like the TCP transport's automatic ack after sink dispatch).
//! [`LocalConn::kill`] severs the connection for crash experiments.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use parking_lot::{Mutex, RwLock};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use amoeba_capability::Port;

use crate::message::{Reply, Request};
use crate::{CallbackChannel, CallbackSink, RequestHandler, Result, RpcError, Transport};

/// Network fault configuration for a [`LocalNetwork`].
#[derive(Debug, Clone, Copy)]
pub struct NetworkFaults {
    /// Fixed latency added to every transaction (request + reply combined).
    pub latency: Duration,
    /// Probability in [0, 1] that a transaction is lost entirely.
    pub drop_prob: f64,
    /// RNG seed for reproducibility.
    pub seed: u64,
}

impl Default for NetworkFaults {
    fn default() -> Self {
        NetworkFaults {
            latency: Duration::ZERO,
            drop_prob: 0.0,
            seed: 0,
        }
    }
}

/// An in-process "network": a routing table from ports to handlers.
pub struct LocalNetwork {
    handlers: RwLock<HashMap<Port, Arc<dyn RequestHandler>>>,
    /// Ports that are currently unreachable (crashed server process or partition).
    unreachable: RwLock<HashSet<Port>>,
    faults: Mutex<NetworkFaults>,
    rng: Mutex<StdRng>,
    transactions: AtomicU64,
    dropped: AtomicU64,
    next_peer: AtomicU64,
}

impl Default for LocalNetwork {
    fn default() -> Self {
        Self::new()
    }
}

impl LocalNetwork {
    /// Creates a network with no registered services and no faults.
    pub fn new() -> Self {
        Self::with_faults(NetworkFaults::default())
    }

    /// Creates a network with the given fault configuration.
    pub fn with_faults(faults: NetworkFaults) -> Self {
        LocalNetwork {
            handlers: RwLock::new(HashMap::new()),
            unreachable: RwLock::new(HashSet::new()),
            rng: Mutex::new(StdRng::seed_from_u64(faults.seed)),
            faults: Mutex::new(faults),
            transactions: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            next_peer: AtomicU64::new(1),
        }
    }

    /// Mints an in-process "connection" to this network: a cloneable
    /// [`Transport`] whose transactions carry a peer identity and a live
    /// callback channel to the handlers, mirroring one multiplexed TCP
    /// connection.  Callers that need server-granted leases connect; callers
    /// that use the network directly stay anonymous and lease-free.
    pub fn connect(self: &Arc<Self>) -> LocalConn {
        LocalConn {
            net: Arc::clone(self),
            channel: Arc::new(LocalChannel {
                key: self.next_peer.fetch_add(1, Ordering::Relaxed),
                state: Mutex::new(LocalChannelState::default()),
                next_ticket: AtomicU64::new(1),
                acked: Mutex::new(HashSet::new()),
            }),
        }
    }

    fn transact_from(
        &self,
        peer: Option<&Arc<dyn CallbackChannel>>,
        port: Port,
        request: Request,
    ) -> Result<Reply> {
        self.transactions.fetch_add(1, Ordering::Relaxed);
        let (latency, drop_prob) = {
            let f = self.faults.lock();
            (f.latency, f.drop_prob)
        };
        if drop_prob > 0.0 && self.rng.lock().gen_bool(drop_prob.min(1.0)) {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return Err(RpcError::Dropped);
        }
        if !latency.is_zero() {
            std::thread::sleep(latency);
        }
        if self.unreachable.read().contains(&port) {
            return Err(RpcError::ServerCrashed);
        }
        let handler = {
            let handlers = self.handlers.read();
            handlers.get(&port).cloned()
        };
        match handler {
            Some(h) => Ok(h.handle_from(request, peer)),
            None => Err(RpcError::NoSuchPort),
        }
    }

    /// Registers a service handler at `port`.  Replaces any previous registration.
    pub fn register(&self, port: Port, handler: Arc<dyn RequestHandler>) {
        self.handlers.write().insert(port, handler);
        self.unreachable.write().remove(&port);
    }

    /// Removes the service listening at `port`.
    pub fn deregister(&self, port: Port) {
        self.handlers.write().remove(&port);
    }

    /// Marks a port unreachable: transactions to it fail with
    /// [`RpcError::ServerCrashed`] until [`LocalNetwork::restore`] is called.  This is
    /// how experiments model a crashed or partitioned server *process* (as opposed to
    /// a crashed disk, which is modelled in `amoeba-block`).
    pub fn isolate(&self, port: Port) {
        self.unreachable.write().insert(port);
    }

    /// Makes a previously isolated port reachable again.
    pub fn restore(&self, port: Port) {
        self.unreachable.write().remove(&port);
    }

    /// Total number of transactions attempted through this network.
    pub fn transaction_count(&self) -> u64 {
        self.transactions.load(Ordering::Relaxed)
    }

    /// Number of transactions lost to injected faults.
    pub fn dropped_count(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Lists the ports with registered services.
    pub fn ports(&self) -> Vec<Port> {
        self.handlers.read().keys().copied().collect()
    }
}

impl Transport for LocalNetwork {
    fn transact(&self, port: Port, request: Request) -> Result<Reply> {
        self.transact_from(None, port, request)
    }
}

// ---------------------------------------------------------------------------
// LocalConn: a connection-shaped view of the network.
// ---------------------------------------------------------------------------

#[derive(Default)]
struct LocalChannelState {
    sinks: Vec<Arc<dyn CallbackSink>>,
    closed: bool,
}

/// The shared state behind one [`LocalConn`]: the server-visible
/// [`CallbackChannel`] and the client-registered [`CallbackSink`]s, fused
/// (there is no wire in between).
struct LocalChannel {
    key: u64,
    state: Mutex<LocalChannelState>,
    next_ticket: AtomicU64,
    acked: Mutex<HashSet<u64>>,
}

impl CallbackChannel for LocalChannel {
    fn push(&self, port: Port, payload: Bytes) -> Option<u64> {
        let sinks = {
            let state = self.state.lock();
            if state.closed {
                return None;
            }
            state.sinks.clone()
        };
        // Deliver synchronously on the pushing thread — the in-process
        // equivalent of the TCP reader dispatching the frame — then self-ack:
        // once every sink has returned, the callback is processed by
        // definition, exactly the moment the TCP client writes its ack.
        for sink in &sinks {
            sink.on_callback(port, payload.clone());
        }
        let ticket = self.next_ticket.fetch_add(1, Ordering::Relaxed);
        self.acked.lock().insert(ticket);
        Some(ticket)
    }

    fn wait_acked(&self, ticket: u64, _deadline: Instant) -> bool {
        self.acked.lock().remove(&ticket)
    }

    fn peer_key(&self) -> u64 {
        self.key
    }

    fn is_closed(&self) -> bool {
        self.state.lock().closed
    }
}

/// One in-process "connection": a [`Transport`] over a [`LocalNetwork`] that
/// gives handlers a peer identity and a callback channel, like one
/// multiplexed TCP connection does.  Cloning shares the connection (as
/// cloning a pooled TCP client shares its sockets); [`LocalNetwork::connect`]
/// mints an independent one.
#[derive(Clone)]
pub struct LocalConn {
    net: Arc<LocalNetwork>,
    channel: Arc<LocalChannel>,
}

impl LocalConn {
    /// The network this connection transacts over.
    pub fn network(&self) -> &Arc<LocalNetwork> {
        &self.net
    }

    /// Severs the connection: handlers holding its [`CallbackChannel`] see it
    /// closed (pushes fail, grants die with it) and every registered sink
    /// gets [`CallbackSink::on_connection_lost`].  Transactions keep working
    /// — this models losing the *connection* state (and with it all leases),
    /// not the network: a real client would reconnect and must revalidate.
    pub fn kill(&self) {
        let sinks = {
            let mut state = self.channel.state.lock();
            if state.closed {
                return;
            }
            state.closed = true;
            std::mem::take(&mut state.sinks)
        };
        for sink in &sinks {
            sink.on_connection_lost();
        }
    }
}

impl Transport for LocalConn {
    fn transact(&self, port: Port, request: Request) -> Result<Reply> {
        let channel: Arc<dyn CallbackChannel> = Arc::clone(&self.channel) as _;
        self.net.transact_from(Some(&channel), port, request)
    }

    fn register_callback_sink(&self, sink: Arc<dyn CallbackSink>) -> bool {
        let mut state = self.channel.state.lock();
        if state.closed {
            return false;
        }
        state.sinks.push(sink);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amoeba_capability::Capability;
    use bytes::Bytes;

    fn echo_handler() -> Arc<dyn RequestHandler> {
        Arc::new(|req: Request| Reply::ok(req.payload))
    }

    #[test]
    fn transact_reaches_registered_handler() {
        let net = LocalNetwork::new();
        let port = Port::from_raw(42);
        net.register(port, echo_handler());
        let reply = net
            .transact(
                port,
                Request::new(1, Capability::null(), Bytes::from_static(b"ping")),
            )
            .unwrap();
        assert!(reply.is_ok());
        assert_eq!(reply.payload, Bytes::from_static(b"ping"));
    }

    #[test]
    fn unknown_port_is_an_error() {
        let net = LocalNetwork::new();
        let err = net
            .transact(Port::from_raw(1), Request::empty(0, Capability::null()))
            .unwrap_err();
        assert_eq!(err, RpcError::NoSuchPort);
    }

    #[test]
    fn isolation_and_restoration() {
        let net = LocalNetwork::new();
        let port = Port::from_raw(9);
        net.register(port, echo_handler());
        net.isolate(port);
        assert_eq!(
            net.transact(port, Request::empty(0, Capability::null())),
            Err(RpcError::ServerCrashed)
        );
        net.restore(port);
        assert!(net
            .transact(port, Request::empty(0, Capability::null()))
            .is_ok());
    }

    #[test]
    fn deregistered_service_disappears() {
        let net = LocalNetwork::new();
        let port = Port::from_raw(5);
        net.register(port, echo_handler());
        net.deregister(port);
        assert_eq!(
            net.transact(port, Request::empty(0, Capability::null())),
            Err(RpcError::NoSuchPort)
        );
    }

    #[test]
    fn drop_probability_loses_messages() {
        let net = LocalNetwork::with_faults(NetworkFaults {
            latency: Duration::ZERO,
            drop_prob: 1.0,
            seed: 3,
        });
        let port = Port::from_raw(7);
        net.register(port, echo_handler());
        assert_eq!(
            net.transact(port, Request::empty(0, Capability::null())),
            Err(RpcError::Dropped)
        );
        assert_eq!(net.dropped_count(), 1);
    }

    #[test]
    fn connected_transact_exposes_a_live_channel_to_the_handler() {
        use std::sync::atomic::AtomicBool;

        let net = Arc::new(LocalNetwork::new());
        let port = Port::from_raw(21);
        let seen_peer = Arc::new(AtomicBool::new(false));

        struct PeerProbe {
            seen: Arc<AtomicBool>,
        }
        impl RequestHandler for PeerProbe {
            fn handle(&self, req: Request) -> Reply {
                Reply::ok(req.payload)
            }
            fn handle_from(&self, req: Request, peer: Option<&Arc<dyn CallbackChannel>>) -> Reply {
                if let Some(chan) = peer {
                    if !chan.is_closed() {
                        self.seen.store(true, Ordering::SeqCst);
                        // Push a callback and observe the synchronous ack.
                        let ticket = chan
                            .push(Port::from_raw(21), Bytes::from_static(b"cb"))
                            .unwrap();
                        assert!(chan.wait_acked(ticket, Instant::now()));
                    }
                }
                self.handle(req)
            }
        }

        net.register(
            port,
            Arc::new(PeerProbe {
                seen: Arc::clone(&seen_peer),
            }),
        );

        struct Recorder {
            callbacks: AtomicU64,
            lost: AtomicU64,
        }
        impl CallbackSink for Recorder {
            fn on_callback(&self, _port: Port, _payload: Bytes) {
                self.callbacks.fetch_add(1, Ordering::SeqCst);
            }
            fn on_connection_lost(&self) {
                self.lost.fetch_add(1, Ordering::SeqCst);
            }
        }
        let recorder = Arc::new(Recorder {
            callbacks: AtomicU64::new(0),
            lost: AtomicU64::new(0),
        });

        // Anonymous use: handler sees no peer.
        net.transact(port, Request::empty(0, Capability::null()))
            .unwrap();
        assert!(!seen_peer.load(Ordering::SeqCst));

        // Connected use: handler sees the channel, the sink sees the push.
        let conn = net.connect();
        assert!(conn.register_callback_sink(Arc::clone(&recorder) as _));
        conn.transact(port, Request::empty(0, Capability::null()))
            .unwrap();
        assert!(seen_peer.load(Ordering::SeqCst));
        assert_eq!(recorder.callbacks.load(Ordering::SeqCst), 1);

        // Killing the connection notifies sinks and closes the channel, but
        // transactions still flow (the "reconnected without leases" state).
        conn.kill();
        assert_eq!(recorder.lost.load(Ordering::SeqCst), 1);
        seen_peer.store(false, Ordering::SeqCst);
        conn.transact(port, Request::empty(0, Capability::null()))
            .unwrap();
        assert!(!seen_peer.load(Ordering::SeqCst)); // closed channel grants nothing
        assert_eq!(recorder.callbacks.load(Ordering::SeqCst), 1);

        // Distinct connections get distinct peer keys.
        let other = net.connect();
        assert_ne!(
            Arc::clone(&conn.channel).peer_key(),
            Arc::clone(&other.channel).peer_key()
        );
    }

    #[test]
    fn counters_track_activity() {
        let net = LocalNetwork::new();
        let port = Port::from_raw(11);
        net.register(port, echo_handler());
        for _ in 0..5 {
            net.transact(port, Request::empty(0, Capability::null()))
                .unwrap();
        }
        assert_eq!(net.transaction_count(), 5);
        assert_eq!(net.dropped_count(), 0);
        assert_eq!(net.ports(), vec![port]);
    }
}
