//! Amoeba file-server processes: the RPC façade over the file service.
//!
//! The paper's file service "operates using a number of server processes, which, in
//! turn, use a number of block servers for information storage" (§5.4.1).  A crash of
//! a server process must not endanger any committed data, and clients "do not have to
//! wait until the server is restored, because they can use another server".
//!
//! This crate provides exactly that layer:
//!
//! * [`ops`] — the wire protocol: operation codes and argument marshalling,
//! * [`handler`] — a [`FileServerHandler`] that turns incoming transactions into
//!   calls on an `Arc<FileService>` and grants read leases on `ValidateCache`
//!   replies from the one table the service owns (`afs_core::lease`), which
//!   `FileService::commit` itself settles,
//! * [`process`] — [`ServerProcess`] (one registered port that can crash and restart),
//!   [`ServerGroup`] (several replicated processes sharing the same file service
//!   state, the paper's "replicated server processes"), and [`ShardedCluster`]
//!   (the full distributed topology: N file-service shards, each over replicated
//!   block storage, each fronted by its own server group),
//! * [`block`] — the same façade one layer down: [`BlockServerProcess`] serves a
//!   disk over the network, [`RemoteBlockStore`] is the client-side
//!   `BlockStore` that talks to it, and a commit flush reaches each remote
//!   replica as a single `WriteBlocks` scatter-gather RPC.
//!
//! Naming needs no server of its own here: directories are ordinary files
//! (crate `afs-dir`), so a client's `NamedStore` reaches them through the
//! file protocol these processes already serve.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod block;
pub mod handler;
pub mod ops;
pub mod process;

pub use afs_core::{FsError, DEFAULT_LEASE_TTL};
pub use block::{remote_replica_set, BlockServerHandler, BlockServerProcess, RemoteBlockStore};
pub use handler::FileServerHandler;
pub use ops::FsOp;
pub use process::{ClusterShard, ServerGroup, ServerProcess, ShardedCluster};
