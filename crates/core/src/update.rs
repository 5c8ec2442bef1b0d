//! The retrying update transaction the optimistic design expects of clients.
//!
//! "Some updates will have to be redone when concurrent updates are not
//! serialisable, but with the unbounded potential of computing power that
//! distributed systems offer, redoing an operation now and then is acceptable"
//! (§6).  [`FileStoreExt::update`] packages that redo loop over any
//! [`FileStore`]: create a version, run the caller's closure against a typed
//! [`Update`] handle that owns the version capability, commit in one shot; on a
//! serialisability conflict, back off (bounded, with jitter) and run the whole
//! closure again on a fresh version.
//!
//! Because the loop is written against the trait, the identical client code
//! retries over a local [`crate::FileService`] and over a remote
//! `afs_client::RemoteFs` connection.

use std::time::Duration;

use bytes::Bytes;

use amoeba_capability::Capability;
use amoeba_rpc::Backoff;

use crate::commit::CommitReceipt;
use crate::path::PagePath;
use crate::store::FileStore;
use crate::types::{FsError, Result};

/// How [`FileStoreExt::update_with`] retries conflicting updates.
///
/// Before attempt n ≥ 2 the loop sleeps a time drawn uniformly from
/// `[d/2, d]`, where `d = min(20 µs · 2^(n−2), 2 ms)`: one
/// [`amoeba_rpc::Backoff`] schedule per update, seeded from the clock so
/// that conflicting clients do not retry in lock-step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum number of attempts (each on a fresh version) before giving up
    /// with [`FsError::SerialisabilityConflict`].  Clamped to at least 1.
    pub max_attempts: usize,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { max_attempts: 64 }
    }
}

impl RetryPolicy {
    /// A policy with a different attempt bound and the default backoff shape.
    pub fn with_max_attempts(max_attempts: usize) -> Self {
        RetryPolicy { max_attempts }
    }
}

/// The backoff schedule of one update's retries (see [`RetryPolicy`]).
fn retry_backoff() -> Backoff {
    let now = std::time::SystemTime::now().duration_since(std::time::UNIX_EPOCH);
    let seed = now.map_or(0, |d| d.as_nanos() as u64);
    let (base, cap) = (Duration::from_micros(20), Duration::from_millis(2));
    Backoff::with_seed(base, cap, u32::MAX, seed)
}

/// A typed handle on one update attempt: owns the version capability and
/// exposes the page operations valid inside an uncommitted version.
///
/// Handed to the closure of [`FileStoreExt::update`]; commit and abort stay
/// with the retry loop, so a closure cannot commit half an update.
pub struct Update<'a, S: FileStore + ?Sized> {
    store: &'a S,
    version: Capability,
    attempt: usize,
}

impl<'a, S: FileStore + ?Sized> Update<'a, S> {
    /// The store this update runs against.
    pub fn store(&self) -> &'a S {
        self.store
    }

    /// The capability of this attempt's uncommitted version.
    pub fn version(&self) -> &Capability {
        &self.version
    }

    /// The 1-based attempt number (> 1 when earlier attempts hit a
    /// serialisability conflict).
    pub fn attempt(&self) -> usize {
        self.attempt
    }

    /// Reads the page at `path`.
    pub fn read(&self, path: &PagePath) -> Result<Bytes> {
        self.store.read_page(&self.version, path)
    }

    /// Writes the page at `path`.
    pub fn write(&self, path: &PagePath, data: Bytes) -> Result<()> {
        self.store.write_page(&self.version, path, data)
    }

    /// Appends a new page under `parent` and returns its path.
    pub fn append(&self, parent: &PagePath, data: Bytes) -> Result<PagePath> {
        self.store.append_page(&self.version, parent, data)
    }

    /// Inserts a new page at `index` under `parent` and returns its path.
    pub fn insert(&self, parent: &PagePath, index: u16, data: Bytes) -> Result<PagePath> {
        self.store.insert_page(&self.version, parent, index, data)
    }

    /// Removes the page at `path` and its subtree.
    pub fn remove(&self, path: &PagePath) -> Result<()> {
        self.store.remove_page(&self.version, path)
    }

    /// Reads several pages in one batched operation (one round trip on remote
    /// stores).
    pub fn read_many(&self, paths: &[PagePath]) -> Result<Vec<Bytes>> {
        self.store.read_pages(&self.version, paths)
    }

    /// Writes several pages in one batched operation (one round trip per
    /// transport frame on remote stores).
    pub fn write_many(&self, writes: &[(PagePath, Bytes)]) -> Result<()> {
        self.store.write_pages(&self.version, writes)
    }
}

/// What a committed update reports back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Committed<R> {
    /// The closure's return value from the attempt that committed.
    pub value: R,
    /// Number of attempts used (1 = no conflict).
    pub attempts: usize,
    /// The service's commit receipt for the successful attempt.
    pub receipt: CommitReceipt,
}

/// The retrying update API, available on every [`FileStore`].
pub trait FileStoreExt: FileStore {
    /// Runs `op` inside a fresh version of `file` and commits; on a
    /// serialisability conflict the whole closure is redone on a new version
    /// (default [`RetryPolicy`]).  Returns the closure's value from the
    /// attempt that committed.
    ///
    /// Any error returned by `op` aborts the attempt's version and is passed
    /// through unchanged.
    fn update<R>(
        &self,
        file: &Capability,
        op: impl FnMut(&mut Update<'_, Self>) -> Result<R>,
    ) -> Result<R> {
        self.update_with(file, RetryPolicy::default(), op)
            .map(|committed| committed.value)
    }

    /// Like [`FileStoreExt::update`], with an explicit retry policy, returning
    /// the full [`Committed`] outcome (value, attempts, receipt).
    fn update_with<R>(
        &self,
        file: &Capability,
        policy: RetryPolicy,
        mut op: impl FnMut(&mut Update<'_, Self>) -> Result<R>,
    ) -> Result<Committed<R>> {
        let max_attempts = policy.max_attempts.max(1);
        // Built on the first conflict, so an update that commits at once
        // reads no clock.
        let mut backoff = None;
        for attempt in 1..=max_attempts {
            if attempt > 1 {
                backoff.get_or_insert_with(retry_backoff).sleep_next();
            }
            let version = self.create_version(file)?;
            let mut update = Update {
                store: self,
                version,
                attempt,
            };
            let value = match op(&mut update) {
                Ok(value) => value,
                Err(err) => {
                    // The attempt is abandoned for a non-conflict reason; free
                    // the version's private pages (best effort — on a remote
                    // store the transport may be the thing that failed).
                    let _ = self.abort(&version);
                    return Err(err);
                }
            };
            match self.commit(&version) {
                Ok(receipt) => {
                    return Ok(Committed {
                        value,
                        attempts: attempt,
                        receipt,
                    })
                }
                Err(FsError::SerialisabilityConflict) => {
                    // The service already removed the conflicting version
                    // (§5.2); redo the update from scratch.
                    continue;
                }
                Err(FsError::AlreadyCommitted) => {
                    // This attempt's version is private, so `AlreadyCommitted`
                    // can only mean the commit *did* happen and its reply was
                    // lost (e.g. the transport failed over and re-sent the
                    // commit to a replica).  Report success; the receipt's
                    // validation counters are unknown for a replayed commit.
                    return Ok(Committed {
                        value,
                        attempts: attempt,
                        receipt: CommitReceipt {
                            fast_path: false,
                            validations: 0,
                            pages_compared: 0,
                        },
                    });
                }
                Err(err) => {
                    // A non-conflict commit failure (transport fault, protocol
                    // error, …): best-effort abort so the uncommitted version
                    // does not linger server-side.  If the commit actually
                    // succeeded and only the reply was lost, the abort is
                    // rejected server-side and changes nothing.
                    let _ = self.abort(&version);
                    return Err(err);
                }
            }
        }
        Err(FsError::SerialisabilityConflict)
    }
}

impl<S: FileStore + ?Sized> FileStoreExt for S {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::FileService;
    use std::sync::Arc;

    fn counter_file(service: &Arc<FileService>) -> (Capability, PagePath) {
        let file = service.create_file().unwrap();
        let v = service.create_version(&file).unwrap();
        let page = service
            .append_page(
                &v,
                &PagePath::root(),
                Bytes::from(0u64.to_le_bytes().to_vec()),
            )
            .unwrap();
        service.commit(&v).unwrap();
        (file, page)
    }

    #[test]
    fn update_commits_and_returns_the_closure_value() {
        let service = FileService::in_memory();
        let (file, page) = counter_file(&service);
        let value = service
            .update(&file, |tx| {
                tx.write(&page, Bytes::from_static(b"updated"))?;
                Ok(42)
            })
            .unwrap();
        assert_eq!(value, 42);
        let current = service.current_version(&file).unwrap();
        assert_eq!(
            service.read_committed_page(&current, &page).unwrap(),
            Bytes::from_static(b"updated")
        );
    }

    #[test]
    fn conflicting_updates_are_redone_until_all_commit() {
        let service = FileService::in_memory();
        let (file, page) = counter_file(&service);
        let threads = 4;
        let per_thread = 8;
        std::thread::scope(|scope| {
            for _ in 0..threads {
                let service = &service;
                let page = page.clone();
                scope.spawn(move || {
                    for _ in 0..per_thread {
                        service
                            .update_with(&file, RetryPolicy::with_max_attempts(10_000), |tx| {
                                let old = tx.read(&page)?;
                                let value = u64::from_le_bytes(old[..8].try_into().unwrap()) + 1;
                                tx.write(&page, Bytes::from(value.to_le_bytes().to_vec()))
                            })
                            .unwrap();
                    }
                });
            }
        });
        let current = service.current_version(&file).unwrap();
        let raw = service.read_committed_page(&current, &page).unwrap();
        assert_eq!(
            u64::from_le_bytes(raw[..8].try_into().unwrap()),
            (threads * per_thread) as u64,
            "no update may be lost"
        );
    }

    #[test]
    fn closure_errors_abort_the_version_and_surface() {
        let service = FileService::in_memory();
        let (file, _page) = counter_file(&service);
        let err = service
            .update(&file, |tx| -> Result<()> {
                tx.write(&PagePath::root(), Bytes::from_static(b"partial"))?;
                Err(FsError::WouldBlock)
            })
            .unwrap_err();
        assert_eq!(err, FsError::WouldBlock);
        // The partial write never became visible.
        let current = service.current_version(&file).unwrap();
        assert_eq!(
            service
                .read_committed_page(&current, &PagePath::root())
                .unwrap(),
            Bytes::new()
        );
    }

    #[test]
    fn exhausted_retries_report_a_conflict() {
        let service = FileService::in_memory();
        let (file, page) = counter_file(&service);
        // Every attempt loses: another client writes the page after we read it.
        let err = service
            .update_with(&file, RetryPolicy::with_max_attempts(3), |tx| {
                tx.read(&page)?;
                let winner = tx.store().create_version(&file).unwrap();
                tx.store()
                    .write_page(&winner, &page, Bytes::from_static(b"w"))
                    .unwrap();
                tx.store().commit(&winner).unwrap();
                tx.write(&PagePath::root(), Bytes::from_static(b"derived"))
            })
            .unwrap_err();
        assert_eq!(err, FsError::SerialisabilityConflict);
    }

    #[test]
    fn attempt_number_is_visible_to_the_closure() {
        let service = FileService::in_memory();
        let (file, _) = counter_file(&service);
        let attempts = service.update(&file, |tx| Ok(tx.attempt())).unwrap();
        assert_eq!(attempts, 1);
    }
}
