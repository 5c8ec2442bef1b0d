//! Server-side lease management: time-bounded read leases with
//! callback-based revocation.
//!
//! A lease is the server's promise that a file's current version will not
//! change for a bounded time without the client hearing about it first.  It
//! turns the client's validate-on-use discipline into a zero-RPC warm path:
//! while a lease is live, a cached copy *is* the current version, no wire
//! traffic needed.
//!
//! The manager keeps one grant table keyed `file object → peer connection`.
//! Grants ride [`ValidateCache`](crate::FsOp::ValidateCache) replies (no
//! extra round trip) and are only issued to transports that expose a
//! [`CallbackChannel`] — an anonymous request/reply client simply never gets
//! a lease and keeps validating.
//!
//! # Break-vs-wait discipline
//!
//! A committing writer calls [`LeaseManager::settle`] *before* the commit
//! mutates anything.  Settling follows the upgrade-lock discipline (abort
//! conflicting holders, honor age to prevent livelock):
//!
//! * the object is marked *settling*, which refuses all new grants — the
//!   writer is the oldest party at the table and a stream of young readers
//!   must not starve it (wait-die's "honor age");
//! * every live grant is *broken*: a callback frame is pushed down the
//!   holder's connection (aborting the conflicting holders), and the writer
//!   waits until each holder acks **or its grant expires on the server's
//!   clock** — whichever is first.  Either way the holder no longer trusts
//!   its copy: the client stops first under bounded clock drift because its
//!   countdown started before the request even reached us;
//! * grants whose connection has died are dropped without waiting: a dead
//!   connection holds no leases (the client side mirrors this by dropping
//!   all leases on connection loss and revalidating after reconnect);
//! * only then does the commit proceed, and the settling mark is cleared
//!   when the returned [`SettleGuard`] drops — after the commit, so a lease
//!   granted mid-commit can never cover the pre-commit value.
//!
//! The invariant this buys (encoded in the conformance tests): **a lease
//! never lets a client observe newer-than-committed data, and after a break
//! is acked the client never serves the stale value.**

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use amoeba_capability::Port;
use amoeba_rpc::CallbackChannel;

use crate::ops::encode_lease_break;

/// Default lease duration.  Long enough that a warm working set re-reads
/// many times per grant, short enough that a crashed client delays a
/// conflicting writer imperceptibly in the worst case.
pub const DEFAULT_LEASE_TTL: Duration = Duration::from_secs(2);

/// One granted lease: the connection it was granted over and when it expires
/// on the *server's* clock (strictly later than the client's own countdown,
/// which started before its request was sent).
struct Grant {
    channel: Arc<dyn CallbackChannel>,
    expiry: Instant,
}

/// Every Nth grant sweeps the whole table for expired/dead entries, so
/// objects that are validated once and never touched again do not pin a
/// grants entry forever.
const SWEEP_EVERY: u64 = 64;

#[derive(Default)]
struct LeaseInner {
    /// `file object → (peer key → grant)`.  Keyed by connection so a dying
    /// connection implicitly voids everything it held.
    grants: HashMap<u64, HashMap<u64, Grant>>,
    /// Objects currently being settled by committing writers, with the
    /// number of commits in flight: no new grants until the count drops to
    /// zero.  A counter, not a set — two concurrent commits on one file
    /// must each hold the grant window closed until *both* finish, or a
    /// lease granted after the first commit's guard drops would cover the
    /// value the second commit is about to replace.
    settling: HashMap<u64, usize>,
    /// Grant calls since the last full-table sweep.
    grants_since_sweep: u64,
}

/// The grant table and settle logic, shared by every server process of a
/// group (a commit arriving at any replica port must break leases granted
/// at any other).
pub struct LeaseManager {
    ttl: Duration,
    inner: Mutex<LeaseInner>,
    granted: AtomicU64,
}

impl LeaseManager {
    /// A manager granting leases of [`DEFAULT_LEASE_TTL`].
    pub fn new() -> Self {
        Self::with_ttl(DEFAULT_LEASE_TTL)
    }

    /// A manager granting leases of the given duration.  A zero ttl disables
    /// granting entirely.
    pub fn with_ttl(ttl: Duration) -> Self {
        LeaseManager {
            ttl,
            inner: Mutex::new(LeaseInner::default()),
            granted: AtomicU64::new(0),
        }
    }

    /// The configured lease duration.
    pub fn ttl(&self) -> Duration {
        self.ttl
    }

    /// Tries to grant `channel` a lease on `object`, returning the relative
    /// ttl in milliseconds to put on the wire, or `None` when no lease can
    /// be granted (object settling under a writer, connection closed, or
    /// leasing disabled).
    pub fn grant(&self, object: u64, channel: &Arc<dyn CallbackChannel>) -> Option<u32> {
        if self.ttl.is_zero() || channel.is_closed() {
            return None;
        }
        let ttl_ms = u32::try_from(self.ttl.as_millis()).unwrap_or(u32::MAX);
        let mut inner = self.inner.lock();
        if inner.settling.contains_key(&object) {
            // A writer is at the table; honoring its age keeps it livelock-free.
            return None;
        }
        let now = Instant::now();
        inner.grants_since_sweep += 1;
        if inner.grants_since_sweep >= SWEEP_EVERY {
            inner.grants_since_sweep = 0;
            inner.grants.retain(|_, holders| {
                holders.retain(|_, g| now < g.expiry && !g.channel.is_closed());
                !holders.is_empty()
            });
        }
        let holders = inner.grants.entry(object).or_default();
        holders.retain(|_, g| now < g.expiry && !g.channel.is_closed());
        holders.insert(
            channel.peer_key(),
            Grant {
                channel: Arc::clone(channel),
                expiry: now + self.ttl,
            },
        );
        drop(inner);
        self.granted.fetch_add(1, Ordering::Relaxed);
        Some(ttl_ms)
    }

    /// Settles `object` for a committing writer: blocks new grants, breaks
    /// every live grant over its connection (waiting for the ack or the
    /// grant's own expiry, whichever is first), and returns a guard that
    /// re-opens granting when dropped — *after* the commit.
    ///
    /// Callback pushes happen with the table lock released: a push may
    /// deliver synchronously into the committing client's own lease table
    /// (the in-process transport does), and that client may concurrently be
    /// validating some other file through this very manager.
    pub fn settle(&self, object: u64, port: Port) -> SettleGuard<'_> {
        let holders: Vec<Grant> = {
            let mut inner = self.inner.lock();
            *inner.settling.entry(object).or_insert(0) += 1;
            inner
                .grants
                .remove(&object)
                .map(|m| m.into_values().collect())
                .unwrap_or_default()
        };
        let now = Instant::now();
        let payload = encode_lease_break(object);
        let mut pending: Vec<(Arc<dyn CallbackChannel>, u64, Instant)> = Vec::new();
        for grant in holders {
            // Expired on our clock means expired on the holder's (theirs ran
            // out first); a closed channel holds nothing.  Neither is worth
            // a frame or a wait.
            if now >= grant.expiry || grant.channel.is_closed() {
                continue;
            }
            if let Some(ticket) = grant.channel.push(port, payload.clone()) {
                pending.push((grant.channel, ticket, grant.expiry));
            }
        }
        for (channel, ticket, expiry) in pending {
            // Ack, expiry, or connection death — each bounds the wait.
            channel.wait_acked(ticket, expiry);
        }
        SettleGuard {
            manager: self,
            object,
        }
    }

    /// Number of live (unexpired, connection still open) grants on `object`.
    pub fn live_grants(&self, object: u64) -> usize {
        let now = Instant::now();
        let mut inner = self.inner.lock();
        let live = match inner.grants.get_mut(&object) {
            Some(holders) => {
                holders.retain(|_, g| now < g.expiry && !g.channel.is_closed());
                holders.len()
            }
            None => return 0,
        };
        if live == 0 {
            inner.grants.remove(&object);
        }
        live
    }

    /// Total leases granted over this manager's lifetime.
    pub fn granted_total(&self) -> u64 {
        self.granted.load(Ordering::Relaxed)
    }
}

impl Default for LeaseManager {
    fn default() -> Self {
        Self::new()
    }
}

/// Keeps an object's grant window closed while a commit is in flight;
/// dropping it (after the commit) re-opens granting.
pub struct SettleGuard<'a> {
    manager: &'a LeaseManager,
    object: u64,
}

impl Drop for SettleGuard<'_> {
    fn drop(&mut self) {
        let mut inner = self.manager.inner.lock();
        if let Some(count) = inner.settling.get_mut(&self.object) {
            *count -= 1;
            if *count == 0 {
                inner.settling.remove(&self.object);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use parking_lot::Condvar;

    /// A channel test double: records pushes, acks on demand, can be closed.
    struct FakeChannel {
        key: u64,
        closed: std::sync::atomic::AtomicBool,
        pushes: Mutex<Vec<(u64, Bytes)>>,
        acked: Mutex<std::collections::HashSet<u64>>,
        ack_ready: Condvar,
        next_ticket: AtomicU64,
        auto_ack: bool,
    }

    impl FakeChannel {
        fn new(key: u64, auto_ack: bool) -> Arc<Self> {
            Arc::new(FakeChannel {
                key,
                closed: std::sync::atomic::AtomicBool::new(false),
                pushes: Mutex::new(Vec::new()),
                acked: Mutex::new(std::collections::HashSet::new()),
                ack_ready: Condvar::new(),
                next_ticket: AtomicU64::new(1),
                auto_ack,
            })
        }
    }

    impl CallbackChannel for FakeChannel {
        fn push(&self, _port: Port, payload: Bytes) -> Option<u64> {
            if self.closed.load(Ordering::SeqCst) {
                return None;
            }
            let ticket = self.next_ticket.fetch_add(1, Ordering::Relaxed);
            self.pushes.lock().push((ticket, payload));
            if self.auto_ack {
                self.acked.lock().insert(ticket);
                self.ack_ready.notify_all();
            }
            Some(ticket)
        }
        fn wait_acked(&self, ticket: u64, deadline: Instant) -> bool {
            let mut acked = self.acked.lock();
            loop {
                if acked.remove(&ticket) {
                    return true;
                }
                let now = Instant::now();
                if now >= deadline || self.closed.load(Ordering::SeqCst) {
                    return false;
                }
                self.ack_ready.wait_for(&mut acked, deadline - now);
            }
        }
        fn peer_key(&self) -> u64 {
            self.key
        }
        fn is_closed(&self) -> bool {
            self.closed.load(Ordering::SeqCst)
        }
    }

    fn as_dyn(c: &Arc<FakeChannel>) -> Arc<dyn CallbackChannel> {
        Arc::clone(c) as _
    }

    #[test]
    fn grants_are_per_connection_and_settle_breaks_them() {
        let mgr = LeaseManager::with_ttl(Duration::from_secs(5));
        let a = FakeChannel::new(1, true);
        let b = FakeChannel::new(2, true);
        assert!(mgr.grant(7, &as_dyn(&a)).is_some());
        assert!(mgr.grant(7, &as_dyn(&b)).is_some());
        assert_eq!(mgr.live_grants(7), 2);

        let guard = mgr.settle(7, Port::from_raw(9));
        // Both holders got a break frame carrying the object id.
        assert_eq!(a.pushes.lock().len(), 1);
        assert_eq!(
            crate::ops::decode_lease_break(a.pushes.lock()[0].1.clone()),
            Some(7)
        );
        assert_eq!(b.pushes.lock().len(), 1);
        assert_eq!(mgr.live_grants(7), 0);

        // While settling, new grants are refused (writer priority)...
        assert!(mgr.grant(7, &as_dyn(&a)).is_none());
        // ...but unrelated objects still grant.
        assert!(mgr.grant(8, &as_dyn(&a)).is_some());

        drop(guard);
        assert!(mgr.grant(7, &as_dyn(&a)).is_some());
    }

    #[test]
    fn dead_connections_lose_their_leases_without_a_wait() {
        let mgr = LeaseManager::with_ttl(Duration::from_secs(5));
        let doomed = FakeChannel::new(1, false); // never acks
        assert!(mgr.grant(3, &as_dyn(&doomed)).is_some());
        doomed.closed.store(true, Ordering::SeqCst);

        // The connection died: no frame is pushed, nothing is waited for.
        let start = Instant::now();
        let _guard = mgr.settle(3, Port::from_raw(1));
        assert!(start.elapsed() < Duration::from_millis(500));
        assert!(doomed.pushes.lock().is_empty());
        // And the closed channel can't re-acquire.
        drop(_guard);
        assert!(mgr.grant(3, &as_dyn(&doomed)).is_none());
    }

    #[test]
    fn unacked_breaks_wait_only_until_the_grant_expires() {
        let ttl = Duration::from_millis(120);
        let mgr = LeaseManager::with_ttl(ttl);
        let mute = FakeChannel::new(1, false); // receives pushes, never acks
        assert!(mgr.grant(5, &as_dyn(&mute)).is_some());

        let start = Instant::now();
        let _guard = mgr.settle(5, Port::from_raw(1));
        let waited = start.elapsed();
        // The writer waited out the lease (the holder's own countdown ended
        // sooner), but no longer than ttl plus scheduling slack.
        assert!(waited >= Duration::from_millis(40), "waited {waited:?}");
        assert!(
            waited < ttl + Duration::from_millis(500),
            "waited {waited:?}"
        );
        assert_eq!(mute.pushes.lock().len(), 1);
    }

    #[test]
    fn overlapping_settles_keep_the_grant_window_closed_until_both_finish() {
        let mgr = LeaseManager::with_ttl(Duration::from_secs(5));
        let c = FakeChannel::new(1, true);

        // Two commits on the same file are in flight at once.
        let first = mgr.settle(7, Port::from_raw(1));
        let second = mgr.settle(7, Port::from_raw(1));

        // The first commit finishing must NOT re-open granting: a lease
        // granted now would cover the value the second commit replaces.
        drop(first);
        assert!(
            mgr.grant(7, &as_dyn(&c)).is_none(),
            "grant window re-opened while a commit was still settling"
        );

        drop(second);
        assert!(mgr.grant(7, &as_dyn(&c)).is_some());
    }

    #[test]
    fn sweeping_drops_entries_for_objects_never_touched_again() {
        let ttl = Duration::from_millis(10);
        let mgr = LeaseManager::with_ttl(ttl);
        let c = FakeChannel::new(1, true);
        // Grant on many distinct objects, then let everything expire.
        for object in 0..SWEEP_EVERY {
            assert!(mgr.grant(object, &as_dyn(&c)).is_some());
        }
        std::thread::sleep(ttl + Duration::from_millis(5));
        // Further grants on ONE hot object must sweep out the cold ones.
        for _ in 0..SWEEP_EVERY {
            assert!(mgr.grant(u64::MAX, &as_dyn(&c)).is_some());
        }
        let tracked = mgr.inner.lock().grants.len();
        assert!(
            tracked <= 2,
            "cold grant entries must be swept, {tracked} left"
        );
    }

    #[test]
    fn zero_ttl_disables_granting() {
        let mgr = LeaseManager::with_ttl(Duration::ZERO);
        let c = FakeChannel::new(1, true);
        assert!(mgr.grant(1, &as_dyn(&c)).is_none());
        assert_eq!(mgr.granted_total(), 0);
    }
}
