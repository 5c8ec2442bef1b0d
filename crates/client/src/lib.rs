//! Client library for the Amoeba file service.
//!
//! * [`RemoteFs`] — client stubs implementing [`afs_core::FileStore`]: every
//!   file-service operation as one transaction to a (preferred) server port,
//!   failing over to replica ports when a server process does not answer
//!   (§5.4.1: "they can use another server"), with batched page operations that
//!   make a k-page update cost O(1) round trips.
//! * [`ClientCache`] — the §5.4 page cache over any [`afs_core::FileStore`]:
//!   pages of the most recently used version of each file, revalidated with one
//!   `ValidateCache` transaction when the file is opened again.  Validate-on-use
//!   is the baseline discipline; over a connected transport the server upgrades
//!   it with a time-bounded **lease** piggybacked on the validation reply, and
//!   while the lease lives [`RemoteFs`] answers revalidation locally — the warm
//!   path costs zero RPCs, and a committing writer breaks conflicting leases
//!   with a callback frame pushed down the same multiplexed connection.
//! * [`ShardedStore`] — the client-side shard router: one [`afs_core::FileStore`]
//!   over N independent shards (local services or remote connections), routed by
//!   capability-based placement (`amoeba_capability::shard_of`) with per-shard
//!   replicated block storage underneath; the whole trait-driven client stack
//!   (cache, retry loop, workloads, conformance suite) runs over it unchanged.
//! * [`NamedStore`] — the naming layer: slash-separated path resolution
//!   (`/a/b/c` → capability) over any [`afs_core::FileStore`], backed by a
//!   generation-checked prefix cache keyed like [`ClientCache`]; directories
//!   are ordinary files (crate `afs-dir`), so naming inherits OCC, durability,
//!   replication and sharding wholesale.  Over [`RemoteFs`] or a remote
//!   [`ShardedStore`] every directory operation travels as file operations,
//!   so naming has no protocol or server of its own.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod lease;
mod named;
mod remote;
mod sharded;

pub use afs_core::{FileStore, FileStoreExt, FsError, RetryPolicy};
pub use cache::{CacheStats, ClientCache};
pub use named::{NameCacheStats, NamedStore};
pub use remote::RemoteFs;
pub use sharded::ShardedStore;
