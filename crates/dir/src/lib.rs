//! # afs-dir — the directory service of the Amoeba file service reproduction
//!
//! The paper splits naming from storage: the *file server* manages flat,
//! capability-addressed versioned files, and a separate *directory server*
//! maps human names to capabilities ("a directory server maps names onto
//! capabilities").  This crate is that directory server, built as a **client
//! of our own file service**: every directory is an ordinary file whose pages
//! hold a serialized `name → (capability, rights mask)` table ([`table`]), and
//! every mutation — create, link, unlink, rename, mkdir — is a retrying
//! [`afs_core::FileStoreExt::update`] transaction ([`store`]).
//!
//! Nothing in the durability story is new, and that is the point:
//!
//! * a directory mutation inherits **OCC conflict detection** because it reads
//!   and rewrites the directory's root page, so concurrent mutations of one
//!   directory are exactly the serialisability conflicts §5.2 already handles
//!   by redoing the loser on a fresh version;
//! * it inherits **commit-time durability and the ordered commit batch**
//!   (commit reference last) because it is just a commit;
//! * it inherits **replication and resync** because the directory's blocks
//!   live on the same replicated block stores as everything else; and
//! * it inherits **sharded placement** because a directory's capability routes
//!   by `amoeba_capability::shard_of` like any file — directories spread over
//!   the shards of a deployment with no extra machinery, and a path's
//!   components may live on different shards.
//!
//! Cross-directory [`DirStore::rename`] is the one genuinely multi-object
//! operation: it runs as two deterministically ordered idempotent OCC
//! transactions (insert at the destination, then remove at the source), so the
//! renamed entry is reachable under at least one name at every point, and any
//! interleaving of retries and concurrent renames converges.
//!
//! The crate is deliberately transport-agnostic: [`DirStore`] works over any
//! [`afs_core::FileStore`] — a local `FileService`, a remote connection, or a
//! sharded router.  The path-resolving client with its prefix cache
//! (`afs_client::NamedStore`) is a thin layer over this crate; a remote
//! client reaches directories through the file protocol like any other file.
//!
//! ```
//! use afs_core::FileService;
//! use afs_dir::{DirStore, EntryKind};
//! use amoeba_capability::Rights;
//!
//! let dirs = DirStore::new(FileService::in_memory());
//! let root = dirs.create_root().unwrap();
//! let docs = dirs.mkdir(&root, "docs", Rights::ALL).unwrap();
//! let file = dirs.store().create_file().unwrap();
//! dirs.link(&docs, "paper.txt", file, Rights::READ, EntryKind::File).unwrap();
//! let entry = dirs.lookup(&docs, "paper.txt", Rights::READ).unwrap();
//! assert_eq!(entry.cap, file);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
pub mod store;
pub mod table;

pub use error::{DirError, Result};
pub use store::{DirOutcome, DirStore};
pub use table::{
    validate_name, DirEntry, DirHeader, DirTable, EntryKind, CHUNK_BUDGET, DIR_FORMAT, DIR_MAGIC,
    MAX_NAME_LEN,
};

pub use amoeba_capability::DirCap;
