//! Version management: creating versions, the family tree (Fig. 4), and aborting.
//!
//! "A file … is a collection of versions, ordered in time.  When a new version is
//! created, it behaves as if it were a copy of the current version.  In fact, when it
//! is created, a new version shares its page tree with the current version, and only
//! when a page is changed is the page duplicated."
//!
//! The committed versions form a doubly linked list: each committed version's *base
//! reference* points at its predecessor and its *commit reference* at its successor.
//! Uncommitted versions hang off the committed list through their base references.

use std::collections::HashSet;

use amoeba_block::BlockNr;
use amoeba_capability::{Capability, Port, Rights};

use crate::flags::PageFlags;
use crate::page::{Page, PageRef, VersionHeader};
use crate::service::{FileMeta, FileService, VersionMeta, VersionState};
use crate::types::{FsError, Result};

/// Options controlling version creation (§5.3).
#[derive(Debug, Clone, Copy)]
pub struct VersionOptions {
    /// Honour a set *top lock* even on a small file (the "soft locking scheme": the
    /// caller knows its update is large and prefers to wait until the file is idle).
    pub respect_top_lock: bool,
    /// Wait for blocking locks.  When `false`, a blocked creation fails immediately
    /// with [`FsError::WouldBlock`].
    pub wait_for_locks: bool,
    /// Lock-holder identity to write into the top-lock field.  Defaults to the
    /// service port; super-file updates and experiments pass their own port so crash
    /// recovery can identify the owner.
    pub lock_port: Option<Port>,
}

impl Default for VersionOptions {
    fn default() -> Self {
        VersionOptions {
            respect_top_lock: false,
            wait_for_locks: true,
            lock_port: None,
        }
    }
}

/// A snapshot of a file's version family tree (Fig. 4), for inspection and tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FamilyTree {
    /// Block numbers of the committed versions, oldest first; the last entry is the
    /// current version.
    pub committed: Vec<BlockNr>,
    /// Uncommitted versions: (version page block, block of the committed version it
    /// is based on).
    pub uncommitted: Vec<(BlockNr, BlockNr)>,
}

impl FileService {
    /// Creates a new version of the file, based on its current version, using the
    /// default options (waiting on hierarchical locks, ignoring soft locks).
    pub fn create_version(&self, file_cap: &Capability) -> Result<Capability> {
        self.create_version_with(file_cap, VersionOptions::default())
    }

    /// Creates a new version with explicit locking behaviour.
    pub fn create_version_with(
        &self,
        file_cap: &Capability,
        options: VersionOptions,
    ) -> Result<Capability> {
        let file = self.resolve_file(file_cap, Rights::CREATE)?;
        let (file_id, is_super) = {
            let meta = file.lock();
            (meta.id, !meta.children.is_empty())
        };
        let lock_port = options.lock_port.unwrap_or(self.port);

        loop {
            let current_block = {
                let mut meta = file.lock();
                self.current_version_block_locked(&mut meta)?
            };
            // The §5.3 algorithm: test the lock fields and set the top lock in one
            // atomic operation on the current version block.
            match self.try_acquire_creation_lock(current_block, is_super, options, lock_port)? {
                LockAttempt::Acquired => {
                    // Hold the file's bookkeeping lock while the new version is
                    // instantiated and registered, so the garbage collector (which
                    // takes the same lock for its pass) can never observe a version
                    // that shares pages with the current version but is not yet in
                    // the version table.
                    let _creation_guard = file.lock();
                    return self.instantiate_version(file_id, current_block);
                }
                LockAttempt::NoLongerCurrent => {
                    // Another update committed while we were looking; re-resolve.
                    continue;
                }
                LockAttempt::Blocked(holder) => {
                    if !options.wait_for_locks {
                        return Err(FsError::WouldBlock);
                    }
                    self.wait_for_lock_clear(current_block, holder)?;
                }
            }
        }
    }

    /// Materialises a new uncommitted version page based on `base_block` and registers
    /// it in the version table.
    fn instantiate_version(&self, file_id: u64, base_block: BlockNr) -> Result<Capability> {
        let base_page = self.pages.read_page(base_block)?;
        let base_header = base_page
            .version
            .as_ref()
            .ok_or_else(|| FsError::CorruptPage("base is not a version page".into()))?;

        let version_id = self.next_object_id();
        let version_cap = self.minter.lock().mint(version_id, Rights::ALL);
        let file_cap = base_header.file_cap;

        let mut header = VersionHeader::new(file_cap, version_cap);
        header.parent_reference = base_header.parent_reference;
        let mut vpage = Page::version_page(header);
        vpage.base_reference = Some(base_block);
        // The new version shares its page tree with the current version: same
        // reference blocks, but all access flags initialised to zero.
        vpage.refs = base_page
            .refs
            .iter()
            .map(|r| PageRef {
                block: r.block,
                flags: PageFlags::CLEAR,
            })
            .collect();
        vpage.data = base_page.data.clone();
        let vpage = std::sync::Arc::new(vpage);
        // An uncommitted version page need not be durable until commit: it starts
        // life in the write-back buffer.
        let block = self.pages.allocate_page_buffered(&vpage)?;

        let meta = VersionMeta {
            cap: version_cap,
            file: file_id,
            block,
            state: VersionState::Uncommitted,
            owned_blocks: HashSet::new(),
            dirty_blocks: HashSet::from([block]),
        };
        self.register_version(version_id, meta);
        Ok(version_cap)
    }

    /// Aborts an uncommitted version: its private pages are freed and the version is
    /// forgotten.  Committed versions cannot be aborted.
    pub fn abort_version(&self, version_cap: &Capability) -> Result<()> {
        let meta = self.resolve_version(version_cap, Rights::DESTROY)?;
        let (state, block, owned, file_id) = {
            let meta = meta.lock();
            (meta.state, meta.block, meta.owned_blocks.clone(), meta.file)
        };
        if state == VersionState::Committed {
            return Err(FsError::AlreadyCommitted);
        }
        // Clear the top lock this version took on its base, so other (soft-locking or
        // super-file) updates stop waiting for an update that will never commit.
        let vpage = self.pages.read_page(block)?;
        if let Some(base) = vpage.base_reference {
            let _ = self.clear_top_lock_if_held(base);
        }
        // Freeing drops any buffered (never physically written) contents with the
        // blocks; the write-back buffer needs no separate teardown.
        for nr in owned {
            let _ = self.pages.free_page(nr);
        }
        self.pages.free_page(block)?;
        {
            let mut meta = meta.lock();
            meta.state = VersionState::Aborted;
            meta.owned_blocks.clear();
            meta.dirty_blocks.clear();
        }
        self.forget_version(version_cap.object, block);
        let _ = file_id;
        Ok(())
    }

    /// Returns the family tree of the file: the committed chain (oldest → current) and
    /// any uncommitted versions with the committed version they are based on.
    pub fn family_tree(&self, file_cap: &Capability) -> Result<FamilyTree> {
        let file = self.resolve_file(file_cap, Rights::READ)?;
        let (file_id, oldest) = {
            let meta = file.lock();
            (meta.id, meta.oldest_block)
        };
        let mut committed = Vec::new();
        let mut block = oldest;
        loop {
            let page = self.pages.read_page_uncached(block)?;
            let header = page
                .version
                .as_ref()
                .ok_or_else(|| FsError::CorruptPage("expected version page".into()))?;
            committed.push(block);
            match header.commit_reference {
                Some(next) => block = next,
                None => break,
            }
        }
        let mut uncommitted = Vec::new();
        for meta in self.versions.read().values() {
            let meta = meta.lock();
            if meta.file == file_id && meta.state == VersionState::Uncommitted {
                let page = self.pages.read_page_uncached(meta.block)?;
                uncommitted.push((meta.block, page.base_reference.unwrap_or(meta.block)));
            }
        }
        uncommitted.sort_unstable();
        Ok(FamilyTree {
            committed,
            uncommitted,
        })
    }

    /// Returns the number of committed versions of the file.
    pub fn committed_version_count(&self, file_cap: &Capability) -> Result<usize> {
        Ok(self.family_tree(file_cap)?.committed.len())
    }

    /// Reads the version page at `block` and fails if it is not a version page.
    pub(crate) fn read_version_page_at(
        &self,
        block: BlockNr,
    ) -> Result<(std::sync::Arc<Page>, VersionHeader)> {
        let page = self.pages.read_page_uncached(block)?;
        let header = page
            .version
            .clone()
            .ok_or_else(|| FsError::CorruptPage("expected version page".into()))?;
        Ok((page, header))
    }
}

/// Outcome of one attempt to take the creation lock on the current version block.
pub(crate) enum LockAttempt {
    /// The top lock was set (or was already ours); the caller may base a version on
    /// this block.
    Acquired,
    /// The block is no longer the current version (a commit raced us).
    NoLongerCurrent,
    /// A lock blocks creation; the payload is the holder's port.
    Blocked(Port),
}

#[allow(dead_code)]
fn _file_meta_is_used(m: &FileMeta) -> u64 {
    m.id
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    #[test]
    fn new_version_shares_the_page_tree_with_the_current_version() {
        let service = FileService::in_memory();
        let file = service.create_file().unwrap();
        // Populate the current version with a page, then commit it.
        let v1 = service.create_version(&file).unwrap();
        service
            .append_page(
                &v1,
                &crate::path::PagePath::root(),
                Bytes::from_static(b"leaf"),
            )
            .unwrap();
        service.commit(&v1).unwrap();

        let io_before = service.io_stats();
        let v2 = service.create_version(&file).unwrap();
        let io_after = service.io_stats();
        // Creating the version allocates exactly one page: the new version page.  The
        // rest of the tree is shared.
        assert_eq!(io_after.pages_allocated - io_before.pages_allocated, 1);
        let _ = v2;
    }

    #[test]
    fn family_tree_links_committed_versions_in_order() {
        let service = FileService::in_memory();
        let file = service.create_file().unwrap();
        for i in 0..3u8 {
            let v = service.create_version(&file).unwrap();
            service
                .write_page(&v, &crate::path::PagePath::root(), Bytes::from(vec![i]))
                .unwrap();
            service.commit(&v).unwrap();
        }
        let tree = service.family_tree(&file).unwrap();
        assert_eq!(
            tree.committed.len(),
            4,
            "initial version plus three commits"
        );
        assert!(tree.uncommitted.is_empty());
        // The last committed entry is the current version.
        let current = service.current_version_block(&file).unwrap();
        assert_eq!(*tree.committed.last().unwrap(), current);
    }

    #[test]
    fn uncommitted_versions_appear_in_the_family_tree() {
        let service = FileService::in_memory();
        let file = service.create_file().unwrap();
        let current = service.current_version_block(&file).unwrap();
        let _v1 = service.create_version(&file).unwrap();
        let _v2 = service.create_version(&file).unwrap();
        let tree = service.family_tree(&file).unwrap();
        assert_eq!(tree.committed.len(), 1);
        assert_eq!(tree.uncommitted.len(), 2);
        for (_, base) in tree.uncommitted {
            assert_eq!(
                base, current,
                "uncommitted versions are based on the current version"
            );
        }
    }

    #[test]
    fn abort_frees_private_pages_and_forgets_the_version() {
        let service = FileService::in_memory();
        let file = service.create_file().unwrap();
        let v = service.create_version(&file).unwrap();
        service
            .append_page(
                &v,
                &crate::path::PagePath::root(),
                Bytes::from_static(b"scratch"),
            )
            .unwrap();
        let allocated_before_abort = service.io_stats().pages_allocated;
        let freed_before = service.io_stats().pages_freed;
        service.abort_version(&v).unwrap();
        let freed_after = service.io_stats().pages_freed;
        assert!(freed_after > freed_before);
        assert!(allocated_before_abort >= freed_after - freed_before);
        assert_eq!(
            service.version_state(&v).unwrap_err(),
            FsError::NoSuchVersion
        );
        // The file's current version is untouched.
        assert_eq!(service.committed_version_count(&file).unwrap(), 1);
    }

    #[test]
    fn committed_versions_cannot_be_aborted() {
        let service = FileService::in_memory();
        let file = service.create_file().unwrap();
        let v = service.create_version(&file).unwrap();
        service.commit(&v).unwrap();
        assert_eq!(
            service.abort_version(&v).unwrap_err(),
            FsError::AlreadyCommitted
        );
    }

    #[test]
    fn version_creation_without_waiting_reports_would_block() {
        let service = FileService::in_memory();
        let file = service.create_file().unwrap();
        // Simulate two large updates by different clients that both honour soft
        // locks: the first takes the top lock; the second, seeing the hint, refuses
        // to proceed rather than wait.
        let first = VersionOptions {
            respect_top_lock: true,
            wait_for_locks: false,
            lock_port: Some(Port::from_raw(0x111)),
        };
        let second = VersionOptions {
            respect_top_lock: true,
            wait_for_locks: false,
            lock_port: Some(Port::from_raw(0x222)),
        };
        let _v1 = service.create_version_with(&file, first).unwrap();
        let err = service.create_version_with(&file, second).unwrap_err();
        assert_eq!(err, FsError::WouldBlock);
    }
}
