//! Transaction-style RPC for the Amoeba services.
//!
//! Amoeba structures all client/server interaction as *transactions*: a client sends
//! a single request message to a service port and blocks until the single reply
//! arrives.  The file-service design leans on two properties of this model:
//!
//! * the maximum size of a message bounds the size of a page ("the maximum length of
//!   a page is determined by the maximum length of a message in a transaction: 32K
//!   bytes", §5), which is what makes a page read or write a single atomic
//!   transaction; and
//! * servers are mostly *passive*: they react to requests.  The cache design
//!   of §5.4 rejected XDFS-style "unsolicited messages" from server to client
//!   because in 1985 they meant extra datagrams and per-client server state
//!   of unbounded lifetime.
//!
//! Each *logical* transaction still has exactly that shape — one request, one
//! blocking wait, one reply.  The *transport* underneath, however, is
//! multiplexed: a connection carries many logical request streams at once,
//! every frame is tagged with a request id, replies complete out of order,
//! and the server pipelines independent requests from the same connection
//! instead of serving them one at a time.  Concurrency therefore scales with
//! the number of outstanding client transactions, not with the number of OS
//! threads or sockets.
//!
//! The multiplexed connection also revisits the §5.4 trade-off: a
//! server→client *callback* is now just one more id-tagged frame on an
//! already-open connection ([`codec::CALLBACK_MARKER`]), and its state is
//! bounded by the connection's lifetime.  A server reaches that channel
//! through the [`CallbackChannel`] handed to
//! [`RequestHandler::handle_from`]; a client observes pushes by registering
//! a [`CallbackSink`] with [`Transport::register_callback_sink`].  The file
//! service uses this for time-bounded lease grants and lease breaks — the
//! coherence design the paper priced out, affordable on today's transport.
//!
//! This crate provides:
//!
//! * [`Request`] / [`Reply`] message frames with a binary wire codec (hand-rolled on
//!   `bytes`, length-prefixed, capability-carrying), in plain and id-tagged
//!   multiplexed ([`codec`]) flavours,
//! * the [`Transport`] trait — `transact(port, request) -> reply`,
//! * [`mux`] — the multiplexing engine: [`mux::MuxCore`] (request-id
//!   allocation, the pending-reply table, per-request deadlines, out-of-order
//!   completion) and the generic [`MuxClient`] (server failover under a
//!   [`FailoverPolicy`], [`Backoff`]-driven retry, uniform [`ClientStats`])
//!   that the typed client stubs wrap,
//! * [`LocalNetwork`] (alias [`LocalTransport`]) — an in-process transport
//!   connecting clients to registered [`RequestHandler`]s, with configurable
//!   latency, message loss and partitions for the robustness experiments,
//! * [`tcp`] — the real TCP transport: a leader/follower thread pool on the
//!   server (one thread at a time polls every connection, and a request runs
//!   on the thread that read it while a follower takes over the polling) and
//!   a connection-pooling multiplexed client with one blocking reader thread
//!   per connection, and
//! * [`block`] — the wire protocol of the block service, including the
//!   [`block::BlockOp::WriteBlocks`] scatter-gather op that carries a commit
//!   flush to each replica disk as a single request, and
//! * [`dir`] — the wire protocol of the directory service: name → capability
//!   bindings served over the same transaction model, with a k-entry
//!   [`dir::DirOp::ReadDir`] as one round trip.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backoff;
pub mod block;
pub mod codec;
pub mod dir;
mod error;
mod local;
mod message;
pub mod mux;
pub mod tcp;

pub use backoff::Backoff;
pub use error::RpcError;
pub use local::{LocalConn, LocalNetwork, NetworkFaults};
pub use message::{Reply, Request, Status, MAX_FRAME_PAYLOAD, MAX_PAYLOAD};
pub use mux::{ClientStats, FailoverPolicy, MuxClient, MuxCore};

/// The in-process transport, under the name the transport-generic client
/// stack uses for it.
pub type LocalTransport = LocalNetwork;

/// Result alias for RPC operations.
pub type Result<T> = std::result::Result<T, RpcError>;

use amoeba_capability::Port;

/// The server's half of the server→client callback channel: one live client
/// connection, seen from a request handler.
///
/// A handler receives it through [`RequestHandler::handle_from`] and may hold
/// on to it (it is `Arc`-shared) to push unsolicited frames at the peer
/// later — the lease manager does exactly that, granting leases against the
/// connection and breaking them through it when a writer commits.  All state
/// reachable through a channel dies with the connection: [`is_closed`]
/// flips, pushes fail, and [`wait_acked`] returns immediately.
///
/// [`is_closed`]: CallbackChannel::is_closed
/// [`wait_acked`]: CallbackChannel::wait_acked
pub trait CallbackChannel: Send + Sync {
    /// Pushes a callback frame at the client, returning the ticket that the
    /// client's ack will echo, or `None` if the connection is already gone.
    fn push(&self, port: Port, payload: bytes::Bytes) -> Option<u64>;

    /// Blocks until the client acks `ticket`, the `deadline` passes, or the
    /// connection dies.  Returns whether the ack arrived.
    fn wait_acked(&self, ticket: u64, deadline: std::time::Instant) -> bool;

    /// A key identifying the peer connection, stable for its lifetime and
    /// unique among live connections of one server.  Grant tables key on it.
    fn peer_key(&self) -> u64;

    /// Whether the underlying connection has been torn down.
    fn is_closed(&self) -> bool;
}

/// The client's half of the callback channel: a listener the transport
/// invokes for every unsolicited server frame.
///
/// Implementations must be fast and non-blocking — sinks run on the
/// transport's reader thread, and **must not** issue transactions of their
/// own (the reader cannot pump the reply they would wait for).  The
/// transport acks the callback to the server after every registered sink has
/// seen it, so "sink returned" means "state updated": dropping a lease from
/// a table is in-budget, re-fetching data is not.
pub trait CallbackSink: Send + Sync {
    /// Called for each callback frame the server pushes.
    fn on_callback(&self, port: Port, payload: bytes::Bytes);

    /// Called when the connection carrying the callbacks dies; any state
    /// that was only valid while the server could reach us (leases!) must
    /// be dropped.  Default: nothing.
    fn on_connection_lost(&self) {}
}

/// A service-side handler: receives a request, returns a reply.
///
/// Handlers must be callable from many threads at once; Amoeba servers are free to
/// serve transactions concurrently.
pub trait RequestHandler: Send + Sync {
    /// Handles one transaction.
    fn handle(&self, request: Request) -> Reply;

    /// Handles one transaction with the originating connection's callback
    /// channel attached, when the transport has one.  Handlers that grant
    /// leases override this; the default ignores the channel, so plain
    /// request/reply handlers (and closures) are unaffected.
    fn handle_from(
        &self,
        request: Request,
        peer: Option<&std::sync::Arc<dyn CallbackChannel>>,
    ) -> Reply {
        let _ = peer;
        self.handle(request)
    }
}

impl<F> RequestHandler for F
where
    F: Fn(Request) -> Reply + Send + Sync,
{
    fn handle(&self, request: Request) -> Reply {
        self(request)
    }
}

/// A client-side transport: delivers a request to the service listening on `port` and
/// returns its reply.
pub trait Transport: Send + Sync {
    /// Performs one transaction.
    fn transact(&self, port: Port, request: Request) -> Result<Reply>;

    /// How many times this transport has re-established an underlying
    /// connection after its initial connect.  Transports with no connection
    /// state (in-process, counting wrappers) keep the default `0`.
    fn reconnects(&self) -> u64 {
        0
    }

    /// Registers a listener for unsolicited server→client callback frames.
    /// Returns whether this transport supports the channel; the default is a
    /// plain request/reply transport that does not (`false`), in which case
    /// servers see no channel and grant no leases — everything degrades to
    /// validate-on-use.
    fn register_callback_sink(&self, sink: std::sync::Arc<dyn CallbackSink>) -> bool {
        let _ = sink;
        false
    }
}

impl<T: Transport + ?Sized> Transport for std::sync::Arc<T> {
    fn transact(&self, port: Port, request: Request) -> Result<Reply> {
        (**self).transact(port, request)
    }

    fn reconnects(&self) -> u64 {
        (**self).reconnects()
    }

    fn register_callback_sink(&self, sink: std::sync::Arc<dyn CallbackSink>) -> bool {
        (**self).register_callback_sink(sink)
    }
}
