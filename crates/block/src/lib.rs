//! The Amoeba block service (§4 of the paper).
//!
//! The paper separates *file service* from *block service*: the block service manages
//! fixed-size blocks of data and must provide, as a minimum,
//!
//! * commands to **allocate, deallocate, read and write** blocks,
//! * **protection**, so a block allocated by user A cannot be touched by user B
//!   without A's permission (capabilities / accounts),
//! * **atomic block writes** with an acknowledgement returned only after the block is
//!   on disk — "this property is vital for the implementation of atomic update on
//!   files",
//! * a simple **locking facility** (the file service commits by *lock, read, test,
//!   modify, write, unlock* of a version block — or, when available, a single
//!   test-and-set style operation),
//! * a **recovery operation** that, given an account number, lists the blocks owned by
//!   that account, and
//! * optionally, **stable storage**: the paper proposes a two-server variant of
//!   Lampson & Sturgis' two-disk scheme, with collision detection for simultaneous
//!   allocations/writes through different servers.  Here that pair is a 2-member
//!   [`ReplicatedBlockStore`]: every write lands on both disks, the set degrades
//!   to the survivor after a crash and resyncs the missed writes on recovery.
//!   Collisions cannot occur, because the set's one coordinator is its only
//!   allocator.
//!
//! This crate implements all of that:
//!
//! | Module | Contents |
//! |---|---|
//! | [`store`] | The [`BlockStore`] trait: raw allocate/free/read/write of blocks |
//! | [`mem`] | [`MemStore`]: in-memory store (the "electronic disk") |
//! | [`disk`] | [`disk::FileStore`]: file-backed store (the "magnetic disk") |
//! | [`optical`] | [`WriteOnceStore`]: write-once wrapper (the "optical disk", §6) |
//! | [`faulty`] | [`FaultyStore`]: fault-injection wrapper (crashes, torn writes, corruption) |
//! | [`delay`] | [`DelayStore`]: latency-modelling wrapper (a fixed sleep per read/write call) |
//! | [`server`] | [`BlockServer`]: accounts, capabilities, per-block locks, recovery listing |
//! | [`replica`] | [`ReplicatedBlockStore`]: N-replica sets with coordinator-owned block numbers, quorum commits, read-repair, one operation log per set with an epoch-stamped intentions suffix per member, and resync (the per-shard storage of the sharded service) |
//! | [`quorum`] | [`majority`]: the ack threshold (quorum-intersection invariants as pure functions) |
//! | [`membership`] | [`Membership`]: viewstamped In/Out/Resyncing replica status with an epoch bumped on every join/leave |
//!
//! Block numbers are 28 bits wide ([`BlockNr`]), matching the page-reference layout of
//! the file service (Fig. 3: "Amoeba uses 28 bits for a block number and four bits for
//! the flags").

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod delay;
pub mod disk;
pub mod faulty;
pub mod mem;
pub mod membership;
pub mod optical;
pub mod quorum;
pub mod replica;
pub mod server;
pub mod store;
mod types;

pub use delay::DelayStore;
pub use faulty::{FaultPlan, FaultyStore};
pub use mem::MemStore;
pub use membership::{Epoch, Membership, MembershipView, ReplicaStatus};
pub use optical::WriteOnceStore;
pub use quorum::majority;
pub use replica::{ReplicaSetStats, ReplicatedBlockStore};
pub use server::{AccountId, BlockServer};
pub use store::{BlockStore, StoreStats};
pub use types::{BlockError, BlockNr, BLOCK_NR_BITS, MAX_BLOCK_NR};

/// Result alias used throughout the block service.
pub type Result<T> = std::result::Result<T, BlockError>;
