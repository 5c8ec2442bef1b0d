//! Request multiplexing and the generic client engine.
//!
//! Two layers live here, one per side of the [`Transport`] boundary:
//!
//! * [`MuxCore`] — the connection-level bookkeeping a multiplexed transport
//!   needs: request-id allocation from a free list, the pending-reply table,
//!   per-request deadlines, and out-of-order completion.  It is deliberately
//!   socket-free (a table plus a condition variable) so the tricky parts —
//!   id reuse, late replies racing deadline expiry, connection death failing
//!   every in-flight request — are unit-testable without a network.
//!   [`crate::tcp`] drives one `MuxCore` per TCP connection.
//!
//! * [`MuxClient`] — the one generic client engine sitting *above* any
//!   [`Transport`]: server selection, [`FailoverPolicy`]-controlled failover
//!   across replicas, [`Backoff`]-driven whole-sweep retry rounds, and
//!   uniform [`ClientStats`].  The typed client stubs (`RemoteFs`,
//!   `RemoteBlockStore`) are thin wrappers over a `MuxClient`,
//!   each just marshalling payloads and picking the failover policy its
//!   consistency contract allows.
//!
//! # Failover and ambiguity
//!
//! Failover is not one-size-fits-all, because retrying a *mutation* whose
//! first attempt may have executed is not equivalent to retrying a read:
//!
//! * [`FailoverPolicy::Always`] retries on any transport-level failure
//!   (crash, missing port, timeout, drop).  Correct for idempotent
//!   operations, and for the file service's mutations, which are
//!   version-directed writes to uncommitted state: re-executing one is
//!   harmless (PR 2's semantics, kept here).  A re-sent commit that already
//!   took effect is answered `AlreadyCommitted`, which the file service's
//!   `update` loop reports as success rather than redoing the update.
//! * [`FailoverPolicy::Never`] makes exactly one attempt.  The replicated
//!   block layer wants prompt failure for mutations so it can depose the
//!   replica and queue an intention, not a client that papers over a dying
//!   disk.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use amoeba_capability::Port;

use crate::backoff::Backoff;
use crate::message::{Reply, Request};
use crate::{Result, RpcError, Transport};

// ---------------------------------------------------------------------------
// MuxCore: the pending-reply table.
// ---------------------------------------------------------------------------

/// State of one allocated request id.
#[derive(Debug)]
enum SlotState {
    /// Request sent (or about to be); the owner will come back to wait.
    Pending,
    /// Reply (or failure) arrived before the owner collected it.
    Done(Result<Reply>),
    /// The owner gave up (deadline expired) or already collected the result.
    /// The id stays *allocated* until the late reply arrives and is discarded
    /// — recycling it earlier could deliver that stale reply to an unrelated
    /// new request.
    Abandoned,
}

/// One request's parking spot.  Each pending request gets its own mutex and
/// condvar so a completion wakes exactly its waiter — with one shared condvar
/// every reply would wake every parked thread on the connection, and at high
/// multiplexing depth that thundering herd costs more than the requests.
#[derive(Debug)]
struct Waiter {
    state: Mutex<SlotState>,
    ready: Condvar,
}

#[derive(Debug, Default)]
struct MuxInner {
    next_id: u64,
    free: Vec<u64>,
    slots: HashMap<u64, Arc<Waiter>>,
}

/// Connection-level request multiplexing state: id allocation, the
/// pending-reply table, deadlines, and out-of-order completion.
///
/// The protocol between the two sides of a connection:
///
/// * the *requesting* thread calls [`MuxCore::allocate`], sends its frame
///   tagged with the id, then parks in [`MuxCore::wait`];
/// * the *reader* (whoever demultiplexes inbound frames) calls
///   [`MuxCore::complete`] for each reply, in whatever order replies arrive,
///   and [`MuxCore::fail_all`] once when the connection dies.
///
/// Lock order is table → waiter, never the reverse.
#[derive(Debug, Default)]
pub struct MuxCore {
    inner: Mutex<MuxInner>,
}

impl MuxCore {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates a request id, preferring ids already retired by a completed
    /// wait (so long-lived connections reuse a small dense id space).
    pub fn allocate(&self) -> u64 {
        let mut inner = self.inner.lock();
        let id = inner.free.pop().unwrap_or_else(|| {
            let id = inner.next_id;
            inner.next_id += 1;
            id
        });
        inner.slots.insert(
            id,
            Arc::new(Waiter {
                state: Mutex::new(SlotState::Pending),
                ready: Condvar::new(),
            }),
        );
        id
    }

    /// Delivers the outcome of request `id` and wakes its waiter.  Returns
    /// `false` if nobody is waiting — the id is unknown, already completed,
    /// or was abandoned on deadline expiry (in which case the late result is
    /// discarded and the id finally recycled).
    pub fn complete(&self, id: u64, result: Result<Reply>) -> bool {
        let mut inner = self.inner.lock();
        let Some(waiter) = inner.slots.get(&id).cloned() else {
            return false;
        };
        let mut state = waiter.state.lock();
        match &*state {
            SlotState::Pending => {
                *state = SlotState::Done(result);
                drop(state);
                waiter.ready.notify_one();
                true
            }
            SlotState::Abandoned => {
                drop(state);
                inner.slots.remove(&id);
                inner.free.push(id);
                false
            }
            SlotState::Done(_) => false,
        }
    }

    /// Fails every pending request with a clone of `err` — the connection
    /// died underneath them.  Abandoned ids are recycled (their late reply
    /// can no longer arrive).
    pub fn fail_all(&self, err: &RpcError) {
        let mut inner = self.inner.lock();
        let entries: Vec<(u64, Arc<Waiter>)> = inner
            .slots
            .iter()
            .map(|(&id, w)| (id, Arc::clone(w)))
            .collect();
        for (id, waiter) in entries {
            let mut state = waiter.state.lock();
            match &*state {
                SlotState::Pending => {
                    *state = SlotState::Done(Err(err.clone()));
                    drop(state);
                    waiter.ready.notify_one();
                }
                SlotState::Abandoned => {
                    drop(state);
                    inner.slots.remove(&id);
                    inner.free.push(id);
                }
                SlotState::Done(_) => {}
            }
        }
    }

    /// Blocks until request `id` completes or `deadline` passes.  On
    /// completion the id is recycled and the outcome returned; on expiry the
    /// request is abandoned (exactly this one — other pending requests are
    /// untouched) and [`RpcError::Timeout`] returned.
    pub fn wait(&self, id: u64, deadline: Instant) -> Result<Reply> {
        let waiter = {
            let inner = self.inner.lock();
            match inner.slots.get(&id) {
                Some(waiter) => Arc::clone(waiter),
                None => return Err(RpcError::Dropped),
            }
        };

        // Park on this request's own condvar until its reply lands.
        {
            let mut state = waiter.state.lock();
            loop {
                match &*state {
                    SlotState::Done(_) => break,
                    SlotState::Pending => {
                        let now = Instant::now();
                        if now >= deadline {
                            *state = SlotState::Abandoned;
                            return Err(RpcError::Timeout);
                        }
                        waiter.ready.wait_for(&mut state, deadline - now);
                    }
                    // Someone else is waiting on (or has consumed) this id.
                    SlotState::Abandoned => return Err(RpcError::Dropped),
                }
            }
        }

        // Collect under the table lock so removal and id recycling are atomic
        // with respect to `complete` / `fail_all`.  Nothing transitions a slot
        // out of `Done` except this consumer, so the result is still there.
        let mut inner = self.inner.lock();
        let mut state = waiter.state.lock();
        let SlotState::Done(result) = std::mem::replace(&mut *state, SlotState::Abandoned) else {
            unreachable!("slot left Done without its waiter");
        };
        drop(state);
        inner.slots.remove(&id);
        inner.free.push(id);
        result
    }

    /// Number of ids currently allocated (pending, completed-but-uncollected,
    /// or abandoned-awaiting-late-reply).
    pub fn outstanding(&self) -> usize {
        self.inner.lock().slots.len()
    }
}

// ---------------------------------------------------------------------------
// ClientStats.
// ---------------------------------------------------------------------------

/// Uniform client-side transport statistics, shared by every stub.
///
/// Replaces the three ad-hoc `retries()` counters the stubs used to carry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientStats {
    /// Backed-off whole-sweep retry rounds: how many times the client slept
    /// and re-tried every server after a full sweep failed.
    pub retries: u64,
    /// Transport-level reconnects: how many times an underlying connection
    /// had to be re-established after the initial connect.
    pub reconnects: u64,
    /// High-water mark of concurrently in-flight `transact` calls — the
    /// deepest pipelining this client actually reached.
    pub inflight_high_water: u64,
    /// Leases the servers granted this client (piggybacked on validation
    /// replies).
    pub leases_granted: u64,
    /// Leases revoked under this client: callback breaks from committing
    /// writers plus local expiries and connection losses.
    pub leases_broken: u64,
    /// Cache validations answered from a live lease without any wire
    /// traffic — the round trips leasing saved.
    pub zero_rpc_hits: u64,
}

impl ClientStats {
    /// Counter deltas since `before` (high-water is taken from `self`: it is
    /// a mark, not a counter).
    pub fn since(&self, before: &ClientStats) -> ClientStats {
        ClientStats {
            retries: self.retries.saturating_sub(before.retries),
            reconnects: self.reconnects.saturating_sub(before.reconnects),
            inflight_high_water: self.inflight_high_water,
            leases_granted: self.leases_granted.saturating_sub(before.leases_granted),
            leases_broken: self.leases_broken.saturating_sub(before.leases_broken),
            zero_rpc_hits: self.zero_rpc_hits.saturating_sub(before.zero_rpc_hits),
        }
    }

    /// Combines stats from several clients (e.g. one per shard): counters
    /// add, high-water takes the deepest mark observed on any one client.
    pub fn merged(&self, other: &ClientStats) -> ClientStats {
        ClientStats {
            retries: self.retries + other.retries,
            reconnects: self.reconnects + other.reconnects,
            inflight_high_water: self.inflight_high_water.max(other.inflight_high_water),
            leases_granted: self.leases_granted + other.leases_granted,
            leases_broken: self.leases_broken + other.leases_broken,
            zero_rpc_hits: self.zero_rpc_hits + other.zero_rpc_hits,
        }
    }
}

#[derive(Debug, Default)]
struct StatsInner {
    retries: AtomicU64,
    inflight: AtomicU64,
    inflight_high_water: AtomicU64,
}

impl StatsInner {
    fn enter(self: &Arc<Self>) -> InflightGuard {
        let now = self.inflight.fetch_add(1, Ordering::SeqCst) + 1;
        self.inflight_high_water.fetch_max(now, Ordering::SeqCst);
        InflightGuard(Arc::clone(self))
    }
}

struct InflightGuard(Arc<StatsInner>);

impl Drop for InflightGuard {
    fn drop(&mut self) {
        self.0.inflight.fetch_sub(1, Ordering::SeqCst);
    }
}

// ---------------------------------------------------------------------------
// FailoverPolicy and MuxClient.
// ---------------------------------------------------------------------------

/// When a failed attempt may be redirected to the next server (or retried
/// after a backoff delay).  See the module docs for which stub uses which.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailoverPolicy {
    /// Fail over on any transport failure (crash, missing port, timeout,
    /// drop).  For idempotent reads and re-executable mutations.
    Always,
    /// One attempt, first server, no retry.  For callers that handle
    /// failure themselves (the replica layer's depose-and-resync path).
    Never,
}

impl FailoverPolicy {
    fn may_fail_over(self, err: &RpcError) -> bool {
        match self {
            FailoverPolicy::Always => matches!(
                err,
                RpcError::ServerCrashed
                    | RpcError::NoSuchPort
                    | RpcError::Timeout
                    | RpcError::Dropped
            ),
            FailoverPolicy::Never => false,
        }
    }
}

/// The one generic client engine: a [`Transport`], an ordered server list,
/// a retry schedule, and uniform [`ClientStats`].
///
/// A `transact` sweeps the server list, failing over between replicas as the
/// [`FailoverPolicy`] permits; when a whole sweep fails it sleeps one
/// [`Backoff`] delay and sweeps again, until the schedule exhausts and the
/// last error surfaces.
#[derive(Debug)]
pub struct MuxClient<T: Transport> {
    transport: T,
    servers: Vec<Port>,
    backoff_base: Duration,
    backoff_cap: Duration,
    backoff_attempts: u32,
    backoff_seed: u64,
    stats: Arc<StatsInner>,
}

impl<T: Transport> MuxClient<T> {
    /// A client for the service replicated at `servers` (tried in order),
    /// with the standard [`Backoff::client_default`] retry schedule seeded by
    /// the first server's port.
    ///
    /// # Panics
    ///
    /// Panics if `servers` is empty.
    pub fn new(transport: T, servers: Vec<Port>) -> Self {
        assert!(!servers.is_empty(), "MuxClient needs at least one server");
        let seed = servers[0].raw();
        MuxClient {
            transport,
            servers,
            backoff_base: Duration::from_millis(5),
            backoff_cap: Duration::from_millis(50),
            backoff_attempts: 3,
            backoff_seed: seed,
            stats: Arc::new(StatsInner::default()),
        }
    }

    /// Overrides the retry schedule (jitter stays seeded by the first
    /// server's port).
    pub fn with_backoff(mut self, base: Duration, cap: Duration, max_attempts: u32) -> Self {
        self.backoff_base = base;
        self.backoff_cap = cap;
        self.backoff_attempts = max_attempts;
        self
    }

    /// The ordered server list this client sweeps.
    pub fn servers(&self) -> &[Port] {
        &self.servers
    }

    /// The underlying transport.
    pub fn transport(&self) -> &T {
        &self.transport
    }

    /// Snapshot of this client's statistics.  The lease counters are zero
    /// here: they live with the lease table in the stub that owns it
    /// (`RemoteFs` merges them in).
    pub fn stats(&self) -> ClientStats {
        ClientStats {
            retries: self.stats.retries.load(Ordering::SeqCst),
            reconnects: self.transport.reconnects(),
            inflight_high_water: self.stats.inflight_high_water.load(Ordering::SeqCst),
            ..ClientStats::default()
        }
    }

    /// Registers a listener for server→client callback frames on the
    /// underlying transport.  Returns whether the transport supports them.
    pub fn register_callback_sink(&self, sink: Arc<dyn crate::CallbackSink>) -> bool {
        self.transport.register_callback_sink(sink)
    }

    /// Performs one logical transaction under the given failover policy.
    pub fn transact(&self, request: Request, policy: FailoverPolicy) -> Result<Reply> {
        let _inflight = self.stats.enter();
        if policy == FailoverPolicy::Never {
            return self.transport.transact(self.servers[0], request);
        }
        let mut backoff = Backoff::with_seed(
            self.backoff_base,
            self.backoff_cap,
            self.backoff_attempts,
            self.backoff_seed,
        );
        loop {
            let mut last_err = None;
            for &port in &self.servers {
                match self.transport.transact(port, request.clone()) {
                    Ok(reply) => return Ok(reply),
                    Err(err) if policy.may_fail_over(&err) => last_err = Some(err),
                    Err(err) => return Err(err),
                }
            }
            let err = last_err.expect("server list is non-empty");
            if !backoff.sleep_next() {
                return Err(err);
            }
            self.stats.retries.fetch_add(1, Ordering::SeqCst);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use std::thread;

    fn reply(tag: &'static [u8]) -> Reply {
        Reply::ok(Bytes::from_static(tag))
    }

    fn far_deadline() -> Instant {
        Instant::now() + Duration::from_secs(5)
    }

    #[test]
    fn replies_complete_out_of_order() {
        let mux = MuxCore::new();
        let a = mux.allocate();
        let b = mux.allocate();
        let c = mux.allocate();
        assert_eq!(mux.outstanding(), 3);

        // Replies land in reverse order; each waiter still gets its own.
        assert!(mux.complete(c, Ok(reply(b"c"))));
        assert!(mux.complete(a, Ok(reply(b"a"))));
        assert!(mux.complete(b, Ok(reply(b"b"))));

        assert_eq!(mux.wait(a, far_deadline()).unwrap().payload.as_ref(), b"a");
        assert_eq!(mux.wait(b, far_deadline()).unwrap().payload.as_ref(), b"b");
        assert_eq!(mux.wait(c, far_deadline()).unwrap().payload.as_ref(), b"c");
        assert_eq!(mux.outstanding(), 0);
    }

    #[test]
    fn waiters_park_until_their_reply_arrives() {
        let mux = Arc::new(MuxCore::new());
        let ids: Vec<u64> = (0..8).map(|_| mux.allocate()).collect();
        let waiters: Vec<_> = ids
            .iter()
            .map(|&id| {
                let mux = Arc::clone(&mux);
                thread::spawn(move || mux.wait(id, far_deadline()).unwrap().payload)
            })
            .collect();
        // Complete in a scrambled order from another thread.
        for &id in ids.iter().rev() {
            assert!(mux.complete(id, Ok(Reply::ok(Bytes::from(id.to_le_bytes().to_vec())))));
        }
        for (waiter, &id) in waiters.into_iter().zip(&ids) {
            assert_eq!(waiter.join().unwrap().as_ref(), id.to_le_bytes());
        }
    }

    #[test]
    fn request_ids_are_reused_after_completion() {
        let mux = MuxCore::new();
        let a = mux.allocate();
        mux.complete(a, Ok(reply(b"x")));
        mux.wait(a, far_deadline()).unwrap();
        // The retired id comes back before any fresh one is minted.
        assert_eq!(mux.allocate(), a);
    }

    #[test]
    fn deadline_expiry_cancels_exactly_one_request_and_defers_id_reuse() {
        let mux = MuxCore::new();
        let doomed = mux.allocate();
        let healthy = mux.allocate();

        assert_eq!(
            mux.wait(doomed, Instant::now()).unwrap_err(),
            RpcError::Timeout
        );
        // The abandoned id is NOT recycled yet: a late reply must not be
        // deliverable to a future request that happened to reuse the id.
        assert_ne!(mux.allocate(), doomed);

        // The other pending request is untouched by the expiry.
        assert!(mux.complete(healthy, Ok(reply(b"ok"))));
        assert_eq!(
            mux.wait(healthy, far_deadline()).unwrap().payload.as_ref(),
            b"ok"
        );

        // The late reply for the abandoned request is discarded, which
        // finally recycles the id.
        assert!(!mux.complete(doomed, Ok(reply(b"late"))));
        assert_eq!(mux.allocate(), doomed);
    }

    #[test]
    fn fail_all_poisons_pending_requests_and_recycles_abandoned_ids() {
        let mux = MuxCore::new();
        let pending = mux.allocate();
        let abandoned = mux.allocate();
        assert_eq!(
            mux.wait(abandoned, Instant::now()).unwrap_err(),
            RpcError::Timeout
        );

        mux.fail_all(&RpcError::Dropped);
        assert_eq!(
            mux.wait(pending, far_deadline()).unwrap_err(),
            RpcError::Dropped
        );
        // The abandoned id became reusable: its late reply can never arrive.
        let next = mux.allocate();
        let after = mux.allocate();
        assert!(next == abandoned || after == abandoned);
    }

    #[test]
    fn waiting_for_an_unknown_id_is_an_error_not_a_hang() {
        let mux = MuxCore::new();
        assert!(mux.wait(123, far_deadline()).is_err());
    }

    #[test]
    fn client_stats_since_and_merged_compose() {
        let before = ClientStats {
            retries: 2,
            reconnects: 1,
            inflight_high_water: 4,
            leases_granted: 10,
            leases_broken: 3,
            zero_rpc_hits: 100,
        };
        let after = ClientStats {
            retries: 5,
            reconnects: 1,
            inflight_high_water: 9,
            leases_granted: 16,
            leases_broken: 5,
            zero_rpc_hits: 140,
        };
        let delta = after.since(&before);
        assert_eq!(delta.retries, 3);
        assert_eq!(delta.reconnects, 0);
        assert_eq!(delta.inflight_high_water, 9);
        assert_eq!(delta.leases_granted, 6);
        assert_eq!(delta.leases_broken, 2);
        assert_eq!(delta.zero_rpc_hits, 40);

        let merged = delta.merged(&ClientStats {
            retries: 1,
            reconnects: 7,
            inflight_high_water: 2,
            leases_granted: 4,
            leases_broken: 1,
            zero_rpc_hits: 60,
        });
        assert_eq!(merged.retries, 4);
        assert_eq!(merged.reconnects, 7);
        assert_eq!(merged.inflight_high_water, 9);
        assert_eq!(merged.leases_granted, 10);
        assert_eq!(merged.leases_broken, 3);
        assert_eq!(merged.zero_rpc_hits, 100);
    }
}
