//! # afs-core — the Amoeba File Service
//!
//! A from-scratch reproduction of the distributed file service described in
//! S. J. Mullender and A. S. Tanenbaum, *A Distributed File Service Based on
//! Optimistic Concurrency Control* (1985).
//!
//! The service stores every file as a **tree of pages** (§5, Fig. 2/3), gives each
//! update its own **version** that initially shares its page tree with the current
//! version and is **copied on write** (§5.1, a differential-file representation), and
//! enforces serialisability of concurrent updates with **optimistic concurrency
//! control**: the only critical section in commit is a test-and-set of the base
//! version's *commit reference*; everything else — including the validation descent
//! and the merging of non-conflicting concurrent updates — runs in parallel with
//! other traffic (§5.2).  Super-file updates use the **top/inner locking** scheme of
//! §5.3, which needs no special crash recovery; a **garbage collector** reclaims
//! read-path shadow pages and old versions (§5.1); caches are kept consistent with
//! the same serialisability test (§5.4) — validate-on-use as the universal
//! fallback, optionally upgraded by time-bounded leases with callback breaks so
//! the warm path costs no round trips at all (see [`mod@crate::cache`]).
//!
//! ## Quick start
//!
//! Clients program against the [`FileStore`] trait — the client-visible
//! protocol of §5 — and the retrying [`FileStoreExt::update`] transaction API
//! built on top of it.  The same code runs unchanged over this local service
//! and over an RPC connection (`afs_client::RemoteFs`), which also implements
//! `FileStore`:
//!
//! ```
//! use afs_core::{FileService, FileStore, FileStoreExt, PagePath};
//! use bytes::Bytes;
//!
//! let service = FileService::in_memory();
//! let store = &*service; // any &impl FileStore — local service or RemoteFs
//! let file = store.create_file().unwrap();
//!
//! // Every update happens inside a version.  `update` creates one, runs the
//! // closure against a typed handle, commits in one shot, and automatically
//! // redoes the whole closure on a fresh version when a concurrent commit
//! // makes the updates non-serialisable (§5.2's redo discipline).
//! let page = store
//!     .update(&file, |tx| {
//!         tx.append(&PagePath::root(), Bytes::from_static(b"hello, Amoeba"))
//!     })
//!     .unwrap();
//!
//! // Committed state is read through the current version.
//! let current = store.current_version(&file).unwrap();
//! assert_eq!(
//!     store.read_committed_page(&current, &page).unwrap(),
//!     Bytes::from_static(b"hello, Amoeba")
//! );
//! ```
//!
//! Multi-page updates should use the batched [`Update::read_many`] /
//! [`Update::write_many`] operations ([`FileStore::read_pages`] /
//! [`FileStore::write_pages`] on the trait): a local store just loops, while a
//! remote store ships one request per transport frame, so a k-page update
//! costs O(1) round trips instead of O(k).  The remote stores all sit on the
//! multiplexed RPC engine (`amoeba_rpc::MuxClient`): frames are tagged with
//! request ids and replies may return out of order, so many client threads
//! share a handful of connections with their transactions in flight
//! concurrently — the trait consumer sees only the blocking
//! one-request/one-reply discipline of the paper, while the wire underneath
//! pipelines.
//!
//! ## Sharding: many services, one namespace
//!
//! One `FileService` is one *shard* of the paper's distributed service.  A
//! sharded deployment runs N services side by side, each minting object ids
//! from its own residue class — [`ServiceConfig::object_id_offset`] `= i`,
//! [`ServiceConfig::object_id_stride`] `= n` for shard `i` of `n` (see
//! [`FileService::for_shard`]) — so the shard holding any file or version is
//! derivable from its capability alone via `amoeba_capability::shard_of`.  The
//! client-side router (`afs_client::ShardedStore`) implements [`FileStore`]
//! over the shard set, which is why every trait consumer (the update loop, the
//! cache, the workloads, the conformance suite) runs over 1 or N shards
//! unchanged.  Each shard keeps its blocks on an N-replica
//! `amoeba_block::ReplicatedBlockStore`: a write is acknowledged once a
//! majority of the current membership epoch has durably applied it,
//! missed writes are queued as sequence-stamped intentions and replayed by an
//! epoch-stamped resync before the replica serves reads again, and fail-over
//! reads repair stale copies they detect.  The per-shard commit keeps the
//! durability-at-commit rule below, so crashing or partitioning any minority
//! of a shard's replicas loses no committed data and surfaces no client
//! errors.  [`FileStore::io_stats`] on a sharded store is the *sum*
//! over shards; [`FileStore::shard_io_stats`] exposes the per-shard figures.
//!
//! ## Naming: directories are ordinary files
//!
//! This crate knows nothing about names, and that is deliberate: the paper
//! locates files by capability alone and delegates naming to a separate
//! directory server.  The reproduction's directory service (crate `afs-dir`)
//! is a *client* of this crate: each directory is an ordinary file whose
//! pages hold a serialized `name → (capability, rights mask)` table, and
//! every directory mutation is one retrying [`FileStoreExt::update`]
//! transaction that reads and rewrites the directory's root page.  Concurrent
//! mutations of one directory therefore conflict exactly like any other
//! concurrent update and are redone via OCC retry; durability-at-commit, the
//! batched flush, replication and sharded placement all apply to directory
//! state automatically because nothing distinguishes it from file state.
//! Cross-directory rename is an ordered pair of idempotent commits (insert at
//! the destination, then remove at the source), so a renamed entry is never
//! unreachable.  Path resolution and its prefix cache live in
//! `afs_client::NamedStore`; the RPC façade in `afs_server::dir`.
//!
//! ## Durability at commit — one batch, then the version page
//!
//! The paper's commit protocol establishes durability exactly once, at the atomic
//! commit point: "First it ascertains that all of V.b's pages are safely on disk",
//! *then* it tests and sets the commit reference.  The service therefore buffers
//! all page writes of an uncommitted version in memory (the write-back buffer of
//! [`pageio::PageIo`]) and flushes them at the start of [`FileService::commit`]
//! in two physical steps:
//!
//! 1. **every dirty data page, as one scatter-gather
//!    [`amoeba_block::BlockStore::write_batch`] call**, with the children-first
//!    order preserved inside the batch (stores apply batch entries in order, so
//!    a crash mid-batch leaves a children-first prefix durable, never a parent
//!    pointing at an unwritten child), then
//! 2. **the version page, by itself, strictly last** — it becomes durable only
//!    after every page it references.
//!
//! A k-write update to one page costs 0 physical writes until commit; the commit
//! itself writes O(dirty pages) *pages* but only O(1) physical write **calls**
//! ([`PageIoStats::block_write_calls`] vs [`PageIoStats::page_writes`] is the
//! realised batching factor), and over replicated storage the batch travels to
//! each replica as one call — one `WriteBlocks` RPC per replica when the disks
//! are behind RPC.  Under quorum commits the two-step ordering holds
//! *per acknowledged quorum*: each replica receives the data batch and the
//! version page in order through its FIFO stream, the version-page write is
//! issued only after the data batch was quorum-acked, and a replica that
//! missed either gets both as ordered intentions at resync — so any replica
//! that serves reads saw the version page only after every page it
//! references.  Aborted versions never touch the disk at all, and crash
//! recovery treats an unflushed uncommitted version as aborted, which is the
//! paper's redo rule.  This is the only staging and flush path: the commit's
//! cost is visible in [`PageIoStats::pages_flushed_at_commit`] and
//! [`PageIoStats::block_write_calls`].
//!
//! ## Module map
//!
//! | Module | Paper section | Contents |
//! |---|---|---|
//! | [`page`] | Fig. 3 | page layout, reference table, 28+4-bit packed references |
//! | [`flags`] | §5.1 | the C/R/W/S/M flags and their 4-bit encoding |
//! | [`path`] | §5 | client-visible page path names |
//! | [`pageio`] | §4, §5.4 | page I/O: write-back buffer, sharded `Arc` page cache, I/O counters |
//! | [`service`] | §5 | the [`FileService`] façade, files, versions, capabilities |
//! | [`store`] | §5 | the [`FileStore`] trait: the client-visible protocol, batched ops |
//! | [`update`] | §5.2, §6 | the retrying [`FileStoreExt::update`] transaction API |
//! | [`version`] | §5.1, Fig. 4 | version creation, the family tree, abort |
//! | [`cow`] | §5.1 | copy-on-write page access and flag maintenance |
//! | [`commit`] | §5.2 | validation, merge, and the commit-reference critical section |
//! | [`locking`] | §5.3 | top/inner/soft locks, super-file updates, lock crash recovery |
//! | [`gc`] | §5.1 | the parallel garbage collector |
//! | [`cache`] | §5.4 | cache validation via the serialisability test |
//! | [`recover`] | §4, §5.4.1 | rebuilding the file table from blocks after a crash |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod commit;
pub mod cow;
pub mod flags;
pub mod gc;
pub mod locking;
pub mod page;
pub mod pageio;
pub mod path;
pub mod recover;
pub mod service;
pub mod store;
pub mod types;
pub mod update;
pub mod version;

pub use cache::CacheValidation;
pub use commit::{CommitReceipt, SerialiseReport};
pub use cow::PageInfo;
pub use flags::PageFlags;
pub use gc::{GarbageCollector, GcReport};
pub use locking::{LockRecoveryReport, SuperUpdate};
pub use page::{Page, PageRef, VersionHeader, MAX_PAGE_DATA};
pub use pageio::{PageIoStats, PageMut};
pub use path::PagePath;
pub use recover::RecoveryReport;
pub use service::{CommitStatsSnapshot, FileService, ServiceConfig, VersionState};
pub use store::FileStore;
pub use types::{FileId, FsError, Result, VersionId};
pub use update::{Committed, FileStoreExt, RetryPolicy, Update};
pub use version::{FamilyTree, VersionOptions};

// Re-export the substrate types callers need to construct a service.
pub use amoeba_block::{BlockNr, BlockServer, MemStore, ReplicatedBlockStore};
pub use amoeba_capability::{shard_of, Capability, Port, Rights};
pub use bytes::Bytes;
