//! Client-side lease tracking: the table that turns warm revalidations into
//! zero-RPC cache hits.
//!
//! The server grants a time-bounded lease on every `ValidateCache` reply sent
//! to a connected (callback-capable) client: a promise that the file's
//! current version will not change without a break frame arriving first.
//! [`LeaseTable`] records those grants; while one is live,
//! [`crate::RemoteFs`]'s `validate_cache` answers "up to date" from the table —
//! no request, no frame, no round trip.
//!
//! # Why trusting the table is safe
//!
//! * **Clock drift cannot widen the window.**  The wire carries a *relative*
//!   ttl; the client starts its countdown from an instant taken *before the
//!   request was sent* (and keeps only [`TTL_TRUST_NUM`]/[`TTL_TRUST_DEN`] of
//!   the granted time).  The server's own countdown starts strictly later, so
//!   the client always stops trusting first — a committing writer that waits
//!   out a grant on the server's clock has, by then, outlived the client's.
//! * **Breaks beat replies.**  A break may overtake the granting reply it
//!   obsoletes (pushed frames and replies share the connection, but worker
//!   threads race), and the table cannot tell from its own state whether
//!   such a reply is in flight — a stale `Live` slot looks the same as none.
//!   So every break leaves a tombstone stamped with its arrival time;
//!   [`LeaseTable::record`] discards any grant whose request was sent at or
//!   before that stamp.  Losing a lease we were entitled to costs one future
//!   revalidation — trusting a broken one would serve stale data.
//! * **A dead connection holds nothing.**  On connection loss the transport
//!   fires [`amoeba_rpc::CallbackSink::on_connection_lost`] and the table
//!   drops every lease; the first use after reconnect revalidates.
//!
//! The sink runs on the transport's reader thread and only mutates this
//! table — it never transacts, so it can never deadlock the connection it is
//! fed by.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use bytes::Bytes;
use parking_lot::Mutex;

use afs_core::lease::decode_lease_break;
use amoeba_capability::Port;
use amoeba_rpc::CallbackSink;

/// Numerator of the fraction of the granted ttl the client actually trusts.
pub const TTL_TRUST_NUM: u32 = 3;
/// Denominator of the trusted-ttl fraction.
pub const TTL_TRUST_DEN: u32 = 4;

/// How long a break tombstone suppresses recording of grants whose request
/// predates the break.  Generous: it only needs to outlive the in-flight
/// reply the break overtook.
const TOMBSTONE_TTL: Duration = Duration::from_secs(30);

/// Every Nth mutation of the table sweeps out expired slots and tombstones,
/// so a long-lived client touching many distinct files does not grow the
/// table without bound.
const SWEEP_EVERY: u64 = 64;

enum Slot {
    /// A live lease: the current block we may keep serving until `expiry`.
    Live { current_block: u32, expiry: Instant },
    /// A break arrived; discard any grant whose request was already in
    /// flight when it did (`started <= broken_at`) — that grant may cover
    /// the value the break obsoleted.
    BreakPending { broken_at: Instant, until: Instant },
}

/// The client's lease table: per-file grants, break tombstones, and the
/// counters surfaced through [`amoeba_rpc::ClientStats`].
#[derive(Default)]
pub(crate) struct LeaseTable {
    slots: Mutex<HashMap<u64, Slot>>,
    granted: AtomicU64,
    broken: AtomicU64,
    zero_rpc_hits: AtomicU64,
    mutations: AtomicU64,
}

impl LeaseTable {
    /// True if a live lease covers `object` at `cached_block` — the caller
    /// may answer "up to date" without any wire traffic.  Counts the hit.
    pub fn covers(&self, object: u64, cached_block: u32) -> bool {
        let slots = self.slots.lock();
        match slots.get(&object) {
            Some(Slot::Live {
                current_block,
                expiry,
            }) if *current_block == cached_block && Instant::now() < *expiry => {
                drop(slots);
                self.zero_rpc_hits.fetch_add(1, Ordering::Relaxed);
                true
            }
            _ => false,
        }
    }

    /// Records a grant that arrived on a validation reply.  `started` must be
    /// the instant taken *before* the request was sent; the lease is trusted
    /// for only [`TTL_TRUST_NUM`]/[`TTL_TRUST_DEN`] of the granted ttl from
    /// that point, so the client's countdown always ends before the server's.
    /// A break tombstone swallows the grant instead if the request was
    /// already in flight when the break arrived.
    pub fn record(&self, object: u64, current_block: u32, ttl_ms: u32, started: Instant) {
        if ttl_ms == 0 {
            return;
        }
        let trusted = Duration::from_millis(u64::from(ttl_ms)) * TTL_TRUST_NUM / TTL_TRUST_DEN;
        let expiry = started + trusted;
        if Instant::now() >= expiry {
            return; // the reply took longer than the trusted window
        }
        let mut slots = self.slots.lock();
        self.maybe_sweep(&mut slots);
        match slots.get(&object) {
            Some(Slot::BreakPending { broken_at, until })
                if Instant::now() < *until && started <= *broken_at =>
            {
                // The break overtook this grant's reply: the grant is void.
                // The tombstone stays up — another, even older reply may
                // still be in flight.  A grant whose request was *sent*
                // after the break is fresh and falls through to be recorded.
                return;
            }
            _ => {}
        }
        slots.insert(
            object,
            Slot::Live {
                current_block,
                expiry,
            },
        );
        drop(slots);
        self.granted.fetch_add(1, Ordering::Relaxed);
    }

    /// Handles a break frame for `object`: drop any lease and always leave a
    /// tombstone.  Unconditional because whatever slot is present — a live
    /// lease, an expired one, or nothing — a validation reply the break
    /// overtook may still be in flight, and recording that late grant would
    /// serve the value the break just obsoleted.
    pub fn break_lease(&self, object: u64) {
        let now = Instant::now();
        let mut slots = self.slots.lock();
        self.maybe_sweep(&mut slots);
        slots.insert(
            object,
            Slot::BreakPending {
                broken_at: now,
                until: now + TOMBSTONE_TTL,
            },
        );
        drop(slots);
        self.broken.fetch_add(1, Ordering::Relaxed);
    }

    /// Every [`SWEEP_EVERY`]th call drops expired slots and tombstones, so
    /// the table stays bounded by the live working set.  Called with the
    /// table lock held.
    fn maybe_sweep(&self, slots: &mut HashMap<u64, Slot>) {
        if self.mutations.fetch_add(1, Ordering::Relaxed) % SWEEP_EVERY != SWEEP_EVERY - 1 {
            return;
        }
        let now = Instant::now();
        slots.retain(|_, slot| match slot {
            Slot::Live { expiry, .. } => now < *expiry,
            Slot::BreakPending { until, .. } => now < *until,
        });
    }

    /// Drops every lease (connection lost: nothing granted over it survives).
    pub fn clear(&self) {
        self.slots.lock().clear();
    }

    /// Total leases recorded.
    pub fn granted(&self) -> u64 {
        self.granted.load(Ordering::Relaxed)
    }

    /// Total break frames processed.
    pub fn broken(&self) -> u64 {
        self.broken.load(Ordering::Relaxed)
    }

    /// Total validations answered from the table with zero RPCs.
    pub fn zero_rpc_hits(&self) -> u64 {
        self.zero_rpc_hits.load(Ordering::Relaxed)
    }
}

/// The [`CallbackSink`] a [`crate::RemoteFs`] registers on its transport:
/// routes break frames into the shared [`LeaseTable`].
pub(crate) struct LeaseSink(pub(crate) std::sync::Arc<LeaseTable>);

impl CallbackSink for LeaseSink {
    fn on_callback(&self, _port: Port, payload: Bytes) {
        // Unknown callback payloads are ignored: this sink only understands
        // lease breaks, and tolerating new frame kinds keeps old clients
        // compatible with newer servers.
        if let Some(object) = decode_lease_break(payload) {
            self.0.break_lease(object);
        }
    }

    fn on_connection_lost(&self) {
        self.0.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn live_leases_cover_only_the_recorded_block() {
        let table = LeaseTable::default();
        let started = Instant::now();
        table.record(7, 42, 2_000, started);
        assert!(table.covers(7, 42));
        assert!(!table.covers(7, 41), "a different block never hits");
        assert!(!table.covers(8, 42), "a different object never hits");
        assert_eq!(table.zero_rpc_hits(), 1);
        assert_eq!(table.granted(), 1);
    }

    #[test]
    fn breaks_drop_the_lease_and_tombstone_late_grants() {
        let table = LeaseTable::default();
        table.record(7, 42, 2_000, Instant::now());
        table.break_lease(7);
        assert!(!table.covers(7, 42), "broken lease must not serve");
        assert_eq!(table.broken(), 1);

        // Break for an unrecorded grant: the reply is still in flight (its
        // request was sent before the break).  When it lands, the tombstone
        // swallows it.
        let in_flight = Instant::now();
        table.break_lease(9);
        table.record(9, 5, 2_000, in_flight);
        assert!(!table.covers(9, 5), "tombstoned grant must be discarded");

        // A grant whose request was sent after the break is fresh: it
        // replaces the tombstone.
        std::thread::sleep(Duration::from_millis(2));
        table.record(9, 6, 2_000, Instant::now());
        assert!(table.covers(9, 6));
    }

    #[test]
    fn breaks_tombstone_even_over_a_stale_live_slot() {
        let table = LeaseTable::default();
        // A lease that has since expired still occupies its slot.
        table.record(4, 1, 100, Instant::now());
        std::thread::sleep(Duration::from_millis(100));
        assert!(!table.covers(4, 1), "expired lease must not serve");

        // The client re-validates (request in flight), a writer's break
        // overtakes the reply, then the reply lands: the grant covers the
        // pre-commit block and MUST be swallowed — consuming the stale slot
        // without a tombstone would record it as live.
        let in_flight = Instant::now();
        table.break_lease(4);
        table.record(4, 1, 2_000, in_flight);
        assert!(
            !table.covers(4, 1),
            "a grant the break overtook must not survive a stale slot"
        );
    }

    #[test]
    fn sweeping_bounds_the_table() {
        let table = LeaseTable::default();
        // Fill the table with grants that expire almost immediately, across
        // more objects than one sweep period.
        for object in 0..(2 * SWEEP_EVERY) {
            table.record(object, 1, 8, Instant::now());
        }
        std::thread::sleep(Duration::from_millis(10));
        // Keep mutating past the next sweep threshold: expired slots for
        // untouched objects must be dropped, not retained forever.
        for _ in 0..SWEEP_EVERY {
            table.record(u64::MAX, 1, 2_000, Instant::now());
        }
        let len = table.slots.lock().len();
        assert!(len <= 2, "expired slots must be swept, {len} left");
    }

    #[test]
    fn the_trusted_window_is_a_fraction_counted_from_before_send() {
        let table = LeaseTable::default();
        // The reply "took" longer than the trusted 3/4 of the ttl: the grant
        // is already expired from the pre-send instant and is not recorded.
        let long_ago = Instant::now() - Duration::from_millis(80);
        table.record(7, 42, 100, long_ago);
        assert!(!table.covers(7, 42));
        assert_eq!(table.granted(), 0);
    }

    #[test]
    fn connection_loss_clears_everything() {
        let table = LeaseTable::default();
        table.record(1, 10, 2_000, Instant::now());
        table.record(2, 20, 2_000, Instant::now());
        table.clear();
        assert!(!table.covers(1, 10));
        assert!(!table.covers(2, 20));
    }

    #[test]
    fn zero_ttl_grants_nothing() {
        let table = LeaseTable::default();
        table.record(7, 42, 0, Instant::now());
        assert!(!table.covers(7, 42));
        assert_eq!(table.granted(), 0);
    }
}
