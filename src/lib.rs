//! # amoeba-dfs — reproduction of the Amoeba distributed file service
//!
//! Umbrella crate for the reproduction of Mullender & Tanenbaum, *A Distributed File
//! Service Based on Optimistic Concurrency Control* (1985).  It re-exports the
//! workspace crates so the examples and integration tests have a single front door;
//! see the individual crates for the actual machinery:
//!
//! * [`afs_core`] — the file service itself (versions, copy-on-write page trees,
//!   optimistic concurrency control, hierarchical locks, version retirement,
//!   caches) **and the [`afs_core::FileStore`] trait**: the client-visible
//!   protocol every store — local or remote — implements, with the retrying
//!   [`afs_core::FileStoreExt::update`] transaction API and batched page
//!   operations on top,
//! * [`amoeba_block`] — the block service (atomic blocks; stable storage as
//!   N-replica [`amoeba_block::ReplicatedBlockStore`] sets, of which the
//!   paper's two-disk pair is the 2-member case; write-once media; fault
//!   injection),
//! * [`amoeba_capability`] — ports, capabilities, rights, the
//!   [`amoeba_capability::shard_of`] placement function, and the
//!   [`amoeba_capability::DirCap`] directory-capability newtype,
//! * [`amoeba_rpc`] — transaction-style RPC: the generic multiplexing
//!   [`amoeba_rpc::MuxClient`] (request-id tagged frames, out-of-order replies,
//!   per-request deadlines, backoff-driven failover) over pluggable
//!   [`amoeba_rpc::Transport`]s — in-process [`amoeba_rpc::LocalNetwork`] and
//!   real TCP ([`amoeba_rpc::tcp`]),
//! * [`afs_dir`] — the **directory service**: a capability-named hierarchy
//!   whose directories are ordinary files of the file service, every mutation
//!   an OCC transaction ([`afs_dir::DirStore`]; resolved client-side by
//!   [`afs_client::NamedStore`] with a generation-checked prefix cache, and
//!   reached remotely through the file protocol like any other file),
//! * [`afs_server`] / [`afs_client`] — server processes and the client library
//!   ([`afs_client::RemoteFs`] implements `FileStore`, so everything written
//!   against the trait runs over the wire unchanged, with k-page updates in
//!   O(1) round trips; [`afs_server::ShardedCluster`] launches the full
//!   multi-server topology and [`afs_client::ShardedStore`] routes over it),
//! * [`afs_baselines`] — the 2PL and timestamp-ordering comparators,
//!   plus [`afs_baselines::StoreAdapter`], which drives any `FileStore` through
//!   the uniform experiment interface,
//! * [`afs_workload`] / [`afs_sim`] — workload generators and the experiment harness.
//!
//! ## Architecture: shards, replicas, capability-based placement
//!
//! The paper's service is *distributed*: "the file service operates using a
//! number of server processes", blocks are duplicated on stable storage, and a
//! client finds the server holding a file from the file's capability.  The
//! reproduction realises that topology in three layers, each independently
//! crash-tolerant:
//!
//! ```text
//!                    ShardedStore  (client router, afs_client)
//!                   /      |      \          routes by shard_of(capability)
//!          shard 0        shard 1        shard 2
//!        ServerGroup    ServerGroup    ServerGroup     (server processes;
//!         /      \       /      \       /      \        any one suffices)
//!       FileService    FileService    FileService      (OCC, versions, retirement)
//!            |              |              |
//!     ReplicatedBlock  ReplicatedBlock  ReplicatedBlock  (quorum commits,
//!      [disk] [disk]    [disk] [disk]    [disk] [disk]    epochs, resync)
//! ```
//!
//! *Placement* is a pure function of the capability: shard `i` of `n` mints
//! object ids congruent to `i` mod `n`
//! ([`afs_core::ServiceConfig::object_id_offset`]/`object_id_stride`), so
//! [`amoeba_capability::shard_of`] routes any file or version capability with a
//! modulo — no directory service on the request path, exactly the paper's
//! capability-addressed design.  *Durability* within a shard is the commit-time
//! flush, and it is **one ordered batch**: the commit's dirty pages leave the
//! write-back buffer in one [`amoeba_block::BlockStore::write_batch`]
//! scatter-gather call, children first, then the version page, then the base
//! page carrying the commit reference as the last entry — so a k-page commit
//! costs one physical write call, and over remote block servers one
//! `WriteBlocks` RPC per replica
//! ([`amoeba_rpc::block`], `afs_server::RemoteBlockStore`).  *Availability*
//! comes from the replica set, which appends every put to one operation log
//! that each replica applies in order, and acknowledges once a **majority of
//! the current membership epoch** has durably applied it
//! ([`amoeba_block::majority`] of the members, so one slow or partitioned
//! replica never gates commit latency).  Membership is epoch-managed
//! ([`amoeba_block::Membership`]): a failed or partitioned replica is deposed
//! (epoch bump), the suffix of the log it has not applied is its
//! epoch-stamped intentions list, and
//! [`amoeba_block::ReplicatedBlockStore::resync`] replays it before the
//! replica may serve reads again — the epoch rides every `WriteBlocks` RPC so
//! a stale coordinator is rejected by the block servers.  Reads fail over
//! across replicas and repair stale copies they detect.  The server group
//! adds process-level failover on top (a crashed server process is simply
//! routed around, with jittered bounded backoff in the client retry loops).
//!
//! See `examples/sharded_service.rs` for the whole topology in motion.
//!
//! ## Transport: one multiplexed RPC engine
//!
//! Both remote clients — [`afs_client::RemoteFs`] (files, and therefore
//! directories) and `afs_server::RemoteBlockStore` (blocks) — are thin typed
//! wrappers over a single generic
//! [`amoeba_rpc::MuxClient`].  The paper's transaction discipline is kept at
//! the *logical* level (one request, one reply, at-most-once effect per
//! attempt), but the wire no longer serialises: every frame carries a request
//! id, so one connection interleaves many outstanding transactions and replies
//! return in whatever order the server finishes them.  `MuxClient` owns the
//! id allocation, the pending-reply table, per-request deadlines, and the
//! jittered-backoff failover sweep across server ports; the wrappers only
//! encode operations and pick a [`amoeba_rpc::FailoverPolicy`] per call
//! (file operations retry anywhere, and a re-sent commit that already took
//! effect answers `AlreadyCommitted`; block mutations make one attempt, so
//! the replica set can depose the member).  The TCP
//! transport ([`amoeba_rpc::tcp`]) serves with a leader/follower thread
//! pool: one thread at a time polls the non-blocking sockets through the
//! vendored epoll shim, and a thread that reads a request hands the polling
//! to a follower and runs the request itself, so slow calls do not convoy
//! fast ones.  Each client connection has one blocking reader thread that
//! completes whichever waiter a reply names.  Because [`amoeba_rpc::LocalNetwork`] implements the
//! same [`amoeba_rpc::Transport`] trait, every test and experiment runs
//! unchanged in-process or over real sockets, and uniform
//! [`amoeba_rpc::ClientStats`] (retry rounds, reconnects, in-flight
//! high-water mark, lease grants/breaks and zero-RPC cache hits) surface
//! through [`afs_sim::RunResult`] either way.
//!
//! ## Cache coherence: leases over the callback channel
//!
//! The paper's cache discipline is validate-on-use (§5.4): the client asks,
//! with one `ValidateCache` transaction, which of its cached pages are still
//! valid.  That stays the universal fallback — correct over any transport,
//! including ones that cannot deliver server-initiated frames.  Over a
//! *connected* transport the server upgrades it: a validation reply carries a
//! time-bounded **lease** from the service's one grant table
//! ([`afs_core::LeaseManager`], owned by the `FileService` and shared by every
//! port in front of it), and while the lease lives [`afs_client::RemoteFs`]
//! answers revalidation from a local lease table, so a warm re-read — and,
//! because directories are ordinary files, a warm path resolution through
//! [`afs_client::NamedStore`] — costs **zero RPCs**.  Every commit settles
//! conflicting leases first, inside `FileService::commit` once its capability
//! and state checks pass, whether it arrives through a file server or from
//! an in-process caller such as directory code over the service: the service pushes a break frame
//! down the holder's multiplexed connection (a reserved request id marks
//! server-initiated frames) and waits for the ack, bounded by the lease's own
//! expiry, before the commit proceeds — so a lease never
//! lets a client observe newer-than-committed data, and after a break is
//! acked the client cannot serve the stale value.  Clients trust only a
//! fraction of the granted TTL measured from *before* the request was sent,
//! so clock drift and transit delay make clients stop trusting before the
//! server stops waiting, and a dead connection holds no leases on either
//! side.  See the lease-coherence section of `tests/conformance.rs` for the
//! invariants as executable tests.
//!
//! ## Naming: the directory service over ordinary files
//!
//! The paper deliberately keeps names *out* of the file service: files are
//! located by capability alone, and "a directory server maps names onto
//! capabilities" as a separate service.  The reproduction's directory service
//! (crate [`afs_dir`]) stores every directory as an ordinary file whose pages
//! hold a serialized `name → (capability, rights mask)` table, so the naming
//! layer sits **on top of** the stack above rather than beside it:
//!
//! ```text
//!   NamedStore (path resolution /a/b/c + prefix cache, afs_client)
//!       │
//!       └──────► DirStore (OCC directory transactions, afs_dir)
//!                    │  directories are ordinary files
//!                    ▼
//!            any FileStore (local service, RemoteFs, ShardedStore)
//! ```
//!
//! Every directory mutation is one retrying
//! [`afs_core::FileStoreExt::update`] transaction that reads and rewrites the
//! directory's root page, so concurrent mutations of one directory are
//! serialisability conflicts resolved by lock-free OCC retry; durability,
//! batched flushing, replication/resync and sharded placement are inherited
//! unchanged (a directory's capability routes by residue like any file, so
//! directories spread over the shards).  Cross-directory rename is an ordered
//! pair of idempotent OCC commits — insert at the destination, then remove at
//! the source — so a renamed entry is reachable under at least one name at
//! every intermediate point and never lost.  Entries attenuate rights: a
//! lookup demanding rights outside the entry's grant mask is refused at the
//! naming layer.  See `examples/named_files.rs` for the whole naming flow.
//!
//! ## Quick start
//!
//! ```
//! use amoeba_dfs::afs_core::{FileService, FileStore, FileStoreExt, PagePath};
//! use bytes::Bytes;
//!
//! let service = FileService::in_memory();
//! let store = &*service; // swap in an afs_client::RemoteFs — same code
//! let file = store.create_file().unwrap();
//! let page = store
//!     .update(&file, |tx| {
//!         tx.append(&PagePath::root(), Bytes::from_static(b"one update cycle"))
//!     })
//!     .unwrap();
//! let current = store.current_version(&file).unwrap();
//! assert_eq!(
//!     store.read_committed_page(&current, &page).unwrap(),
//!     Bytes::from_static(b"one update cycle")
//! );
//! ```

#![forbid(unsafe_code)]

pub use afs_baselines;
pub use afs_client;
pub use afs_core;
pub use afs_dir;
pub use afs_server;
pub use afs_sim;
pub use afs_workload;
pub use amoeba_block;
pub use amoeba_capability;
pub use amoeba_rpc;
