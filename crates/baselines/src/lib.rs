//! Baseline file servers the paper positions itself against (§3).
//!
//! The 1985 comparators — XDFS, FELIX and SWALLOW — are long gone, so this crate
//! re-implements their concurrency-control *mechanisms* over the same block service
//! the Amoeba File Service uses, which is what the paper actually argues about:
//!
//! * [`locking`] — a **two-phase locking** file server with *intentions lists* and
//!   rollback, in the style of XDFS/FELIX/Cambridge File Server.  Locks are granted
//!   per page, deadlocks are broken with a wait-die rule, and crash recovery must
//!   clear locks and discard or replay intentions lists — exactly the recovery work
//!   the Amoeba design claims to avoid.
//! * [`timestamp`] — a **timestamp-ordering** (pseudo-time) file server in the style
//!   of SWALLOW/Reed: each page carries read/write timestamps and transactions abort
//!   when they arrive out of order.
//!
//! The third design §5.4 argues against, a client cache kept coherent by
//! server→client invalidation callbacks, is not re-implemented here: the
//! file service's lease protocol (`afs_core::LeaseManager`) breaks leases by
//! exactly such callbacks, and experiment E3 measures it.
//!
//! [`interface::ConcurrencyControl`] is the uniform transaction interface the
//! experiment harness drives; [`interface::AmoebaAdapter`] exposes the real
//! `afs-core` service through the same interface so all three mechanisms run the
//! identical workloads.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod interface;
pub mod locking;
pub mod timestamp;

pub use interface::{AmoebaAdapter, ConcurrencyControl, StoreAdapter, TxAbort, TxProfile, TxStats};
pub use locking::TwoPhaseLockingServer;
pub use timestamp::TimestampOrderingServer;
