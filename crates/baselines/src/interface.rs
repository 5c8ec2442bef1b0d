//! A uniform transaction interface over the Amoeba service and the baselines.
//!
//! Experiment E1 (and several others) compare optimistic concurrency control against
//! two-phase locking and timestamp ordering on identical workloads.  The harness
//! describes a transaction as "read these page indices, then write those page
//! indices" of one file; every mechanism executes it in its own way and reports
//! whether it committed and how much work it did.
//!
//! The optimistic side is driven through the [`FileStore`] trait by
//! [`StoreAdapter`], so the identical workload runs over a local
//! [`FileService`] (see [`AmoebaAdapter`]) *or* over an RPC connection
//! (`afs_client::RemoteFs`), using the batched page operations so a k-page
//! transaction costs O(1) round trips on a remote store.

use bytes::Bytes;

use afs_core::{FileService, FileStore, FsError, PagePath};
use std::sync::Arc;

/// Why a transaction did not commit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TxAbort {
    /// Validation failed (OCC) — redo the update on a fresh version.
    SerialisabilityConflict,
    /// The transaction was chosen as a deadlock victim or lost a wait-die race (2PL).
    DeadlockVictim,
    /// A timestamp-ordering rule was violated (the transaction arrived too late).
    TimestampViolation,
    /// The underlying storage or service failed.
    Fault(String),
}

/// What a committed transaction reports back.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TxStats {
    /// Pages read.
    pub pages_read: usize,
    /// Pages written.
    pub pages_written: usize,
    /// Times the transaction had to wait for a lock (2PL only).
    pub lock_waits: usize,
    /// Pages compared during validation (OCC only).
    pub pages_validated: usize,
}

/// A transaction profile: which page indices of a file are read and written, and the
/// payload written to each written page.
#[derive(Debug, Clone)]
pub struct TxProfile {
    /// Page indices whose data the transaction reads before writing.
    pub reads: Vec<u32>,
    /// Page indices the transaction overwrites, with the new contents.
    pub writes: Vec<(u32, Bytes)>,
}

impl TxProfile {
    /// A transaction that only writes (a blind write, like the compiler temporary of
    /// the paper's introduction).
    pub fn write_only(writes: Vec<(u32, Bytes)>) -> Self {
        TxProfile {
            reads: Vec::new(),
            writes,
        }
    }
}

/// The uniform interface the experiment harness drives: transactions only.
/// A mechanism's I/O is counted by the store under it, not reported here.
pub trait ConcurrencyControl: Send + Sync {
    /// Short name used in result tables ("occ", "2pl", "timestamp").
    fn name(&self) -> &'static str;

    /// Creates a file with `pages` leaf pages, each initialised to `initial` bytes of
    /// zeroes, and returns an opaque handle for it.
    fn create_file(&self, pages: u32, initial: usize) -> u64;

    /// Executes one transaction against a file.  Returns its statistics on commit, or
    /// the reason it aborted; the caller decides whether to retry.
    fn run_transaction(&self, file: u64, profile: &TxProfile) -> Result<TxStats, TxAbort>;

    /// Reads a page outside any transaction (for result verification).
    fn read_page(&self, file: u64, page: u32) -> Result<Bytes, TxAbort>;
}

// ---------------------------------------------------------------------------
// Any FileStore behind the uniform interface.
// ---------------------------------------------------------------------------

/// Drives any [`FileStore`] — the local service or a remote connection —
/// through the [`ConcurrencyControl`] interface.
pub struct StoreAdapter<S: FileStore> {
    store: S,
    name: &'static str,
    files: parking_lot::RwLock<std::collections::HashMap<u64, afs_core::Capability>>,
    next: std::sync::atomic::AtomicU64,
}

/// The local Amoeba file service behind the uniform interface.
pub type AmoebaAdapter = StoreAdapter<Arc<FileService>>;

impl<S: FileStore> StoreAdapter<S> {
    /// Wraps a store under the given mechanism name (shown in result tables).
    pub fn over(store: S, name: &'static str) -> Self {
        StoreAdapter {
            store,
            name,
            files: parking_lot::RwLock::new(std::collections::HashMap::new()),
            next: std::sync::atomic::AtomicU64::new(1),
        }
    }

    /// The wrapped store.
    pub fn store(&self) -> &S {
        &self.store
    }

    fn file_cap(&self, file: u64) -> Result<afs_core::Capability, TxAbort> {
        self.files
            .read()
            .get(&file)
            .copied()
            .ok_or_else(|| TxAbort::Fault("unknown file handle".into()))
    }
}

impl AmoebaAdapter {
    /// Wraps an existing file service.
    pub fn new(service: Arc<FileService>) -> Self {
        StoreAdapter::over(service, "amoeba-occ")
    }

    /// Creates an adapter over a fresh in-memory service.
    pub fn in_memory() -> Self {
        Self::new(FileService::in_memory())
    }

    /// The wrapped service (for inspecting commit statistics).
    pub fn service(&self) -> &Arc<FileService> {
        self.store()
    }
}

fn page_path(index: u32) -> PagePath {
    PagePath::new(vec![index as u16])
}

impl<S: FileStore> ConcurrencyControl for StoreAdapter<S> {
    fn name(&self) -> &'static str {
        self.name
    }

    fn create_file(&self, pages: u32, initial: usize) -> u64 {
        let cap = self.store.create_file().expect("create file");
        let version = self.store.create_version(&cap).expect("create version");
        for _ in 0..pages {
            self.store
                .append_page(&version, &PagePath::root(), Bytes::from(vec![0u8; initial]))
                .expect("append page");
        }
        self.store.commit(&version).expect("commit initial version");
        let handle = self.next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        self.files.write().insert(handle, cap);
        handle
    }

    fn run_transaction(&self, file: u64, profile: &TxProfile) -> Result<TxStats, TxAbort> {
        let cap = self.file_cap(file)?;
        let version = self
            .store
            .create_version(&cap)
            .map_err(|e| TxAbort::Fault(e.to_string()))?;
        let mut stats = TxStats::default();
        // A page-op failure must not orphan the uncommitted version server-side;
        // abort it (best effort) before reporting the fault.
        let fault = |store: &S, version: &afs_core::Capability, e: FsError| {
            let _ = store.abort(version);
            TxAbort::Fault(e.to_string())
        };
        // Batched page operations: O(1) round trips per transaction on remote
        // stores, a plain loop on local ones.
        let read_paths: Vec<PagePath> = profile.reads.iter().map(|&i| page_path(i)).collect();
        if !read_paths.is_empty() {
            self.store
                .read_pages(&version, &read_paths)
                .map_err(|e| fault(&self.store, &version, e))?;
            stats.pages_read = read_paths.len();
        }
        let writes: Vec<(PagePath, Bytes)> = profile
            .writes
            .iter()
            .map(|(i, data)| (page_path(*i), data.clone()))
            .collect();
        if !writes.is_empty() {
            self.store
                .write_pages(&version, &writes)
                .map_err(|e| fault(&self.store, &version, e))?;
            stats.pages_written = writes.len();
        }
        match self.store.commit(&version) {
            Ok(receipt) => {
                stats.pages_validated = receipt.pages_compared;
                Ok(stats)
            }
            Err(FsError::SerialisabilityConflict) => Err(TxAbort::SerialisabilityConflict),
            Err(e) => Err(fault(&self.store, &version, e)),
        }
    }

    fn read_page(&self, file: u64, page: u32) -> Result<Bytes, TxAbort> {
        let cap = self.file_cap(file)?;
        let current = self
            .store
            .current_version(&cap)
            .map_err(|e| TxAbort::Fault(e.to_string()))?;
        self.store
            .read_committed_page(&current, &page_path(page))
            .map_err(|e| TxAbort::Fault(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn amoeba_adapter_runs_simple_transactions() {
        let cc = AmoebaAdapter::in_memory();
        let file = cc.create_file(4, 8);
        let stats = cc
            .run_transaction(
                file,
                &TxProfile {
                    reads: vec![0, 1],
                    writes: vec![(2, Bytes::from_static(b"hello"))],
                },
            )
            .unwrap();
        assert_eq!(stats.pages_read, 2);
        assert_eq!(stats.pages_written, 1);
        assert_eq!(cc.read_page(file, 2).unwrap(), Bytes::from_static(b"hello"));
    }

    #[test]
    fn amoeba_adapter_reports_conflicts() {
        let cc = AmoebaAdapter::in_memory();
        let file = cc.create_file(2, 8);
        let service = Arc::clone(cc.service());
        // Interleave manually: create a version that reads page 0, then have another
        // transaction write page 0 and commit, then try to commit the first.
        let cap = cc.file_cap(file).unwrap();
        let stale = service.create_version(&cap).unwrap();
        service.read_page(&stale, &page_path(0)).unwrap();
        service
            .write_page(&stale, &page_path(1), Bytes::from_static(b"stale"))
            .unwrap();
        cc.run_transaction(
            file,
            &TxProfile::write_only(vec![(0, Bytes::from_static(b"winner"))]),
        )
        .unwrap();
        assert_eq!(
            service.commit(&stale).unwrap_err(),
            afs_core::FsError::SerialisabilityConflict
        );
    }

    #[test]
    fn unknown_file_handles_are_rejected() {
        let cc = AmoebaAdapter::in_memory();
        assert!(matches!(
            cc.run_transaction(99, &TxProfile::write_only(vec![])),
            Err(TxAbort::Fault(_))
        ));
    }
}
