//! The hierarchical locking mechanism for super-file updates (§5.3).
//!
//! Every version page carries two lock fields, the *top lock* and the *inner lock*;
//! locks only have meaning in the current version, and "locks are made of ports".
//!
//! * Creating a version of a **super-file** requires both lock fields of the current
//!   version block to be zero; the top lock is then set in the same atomic operation.
//! * Creating a version of a **small file** only requires the *inner* lock to be
//!   clear (so an enclosing super-file update excludes it), but still sets the top
//!   lock — which other updates may treat as a *hint* (the soft-locking scheme) that
//!   the file is about to change.  Being a hint, it lives in the file service's
//!   memory only (`FileService::soft_locks`, keyed by the version page it locks)
//!   and is never written to a page: it costs no block write, no crash recovery
//!   reads it, and a service rebuilt from storage starts with none.  Every lock
//!   test reads the page's field and, where that is clear, the memory.
//! * A super-file update sets *inner locks* on the version blocks of the sub-files it
//!   visits, giving it exclusive access to exactly the subtrees it touches while
//!   leaving all other small files fully concurrent.
//!
//! Crucially, the scheme needs **no special crash recovery**: when the process holding
//! the locks dies, a waiter inspects the locked version block.  If its commit
//! reference is still nil the crashed update never committed, so the locks can simply
//! be cleared; if it is set, the new current version is traversed and the sub-files'
//! commit references are set, *finishing the crashed server's work* — after which the
//! locks are irrelevant because they live in superseded version pages.  That is
//! why super-file top locks and all inner locks stay durable.

use std::time::{Duration, Instant};

use amoeba_block::BlockNr;
use amoeba_capability::{Capability, Port, Rights};

use crate::page::{Page, VersionHeader};
use crate::service::{FileService, VersionState};
use crate::types::{FileId, FsError, Result};
use crate::version::{LockAttempt, VersionOptions};

/// How long a lock waiter sleeps between checks of the lock field.
const LOCK_POLL_INTERVAL: Duration = Duration::from_millis(1);

/// A super-file update in progress: the top-locked super-file version plus the
/// inner-locked sub-file versions opened so far.
///
/// The handle is deliberately a plain data object (not a RAII guard): a crashed client
/// simply stops driving it, which is exactly the failure mode the §5.3 recovery
/// procedure is designed for.
#[derive(Debug)]
pub struct SuperUpdate {
    /// Capability of the super-file being updated.
    pub super_file: Capability,
    /// The new (uncommitted) version of the super-file.
    pub super_version: Capability,
    /// Port identifying this update in the lock fields.
    pub port: Port,
    /// Sub-files opened by this update: (sub-file capability, new sub version
    /// capability, block of the sub-file's current version page that carries the
    /// inner lock).
    pub sub_versions: Vec<(Capability, Capability, BlockNr)>,
    /// Block of the super-file's old current version page carrying the top lock.
    pub locked_block: BlockNr,
}

/// Statistics about lock recovery, for the crash experiments (E4).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LockRecoveryReport {
    /// Top locks cleared because the holder crashed before committing.
    pub cleared: usize,
    /// Sub-file commits finished on behalf of a crashed holder.
    pub finished_commits: usize,
}

impl FileService {
    // ------------------------------------------------------------------
    // Lock acquisition during version creation (§5.3 algorithm).
    // ------------------------------------------------------------------

    /// One atomic attempt to take the creation lock on the current version block:
    /// test the lock fields and set the top lock in a single block-level critical
    /// section.  A super-file's top lock is written to the page; a small file's
    /// is set in memory and the page is not written.
    pub(crate) fn try_acquire_creation_lock(
        &self,
        current_block: BlockNr,
        is_super: bool,
        options: VersionOptions,
        lock_port: Port,
    ) -> Result<LockAttempt> {
        self.pages.update_page(current_block, &[], |page| {
            let header = page
                .version
                .as_ref()
                .ok_or_else(|| FsError::CorruptPage("expected version page".into()))?;
            if header.commit_reference.is_some() {
                return Ok((false, LockAttempt::NoLongerCurrent));
            }
            // An inner lock always blocks: an enclosing super-file update owns this
            // subtree.
            if !header.inner_lock.is_null() && header.inner_lock != lock_port {
                return Ok((false, LockAttempt::Blocked(header.inner_lock)));
            }
            // The top lock blocks super-file updates always, and small-file updates
            // only when they opt into the soft-locking scheme.
            let top_lock = self.top_lock_of(current_block, header);
            let top_blocks = is_super || options.respect_top_lock;
            if top_blocks && !top_lock.is_null() && top_lock != lock_port {
                return Ok((false, LockAttempt::Blocked(top_lock)));
            }
            if is_super {
                page.version.as_mut().expect("checked above").top_lock = lock_port;
                Ok((true, LockAttempt::Acquired))
            } else {
                self.soft_locks.lock().insert(current_block, lock_port);
                Ok((false, LockAttempt::Acquired))
            }
        })
    }

    /// The top lock on the version page at `block`, whose header is `header`:
    /// the page's durable field, or where that is clear the small-file top
    /// lock held in memory.
    fn top_lock_of(&self, block: BlockNr, header: &VersionHeader) -> Port {
        if !header.top_lock.is_null() {
            return header.top_lock;
        }
        self.soft_locks
            .lock()
            .get(&block)
            .copied()
            .unwrap_or(Port::NULL)
    }

    /// Waits for the lock on `block` held by `holder` to clear, running the §5.3
    /// crash-recovery procedure if the holder is known (or discovered) to be dead.
    /// The caller keeps `block` pinned, so no commit retires it while it is polled.
    pub(crate) fn wait_for_lock_clear(&self, block: BlockNr, holder: Port) -> Result<()> {
        let start = Instant::now();
        loop {
            if self.is_port_crashed(holder) {
                self.recover_locked_version(block)?;
                return Ok(());
            }
            let (_, header) = self.read_version_page_at(block)?;
            // The lock may have been released, the version superseded, or taken over
            // by someone else; any of these means the caller should re-evaluate.
            if header.commit_reference.is_some()
                || (self.top_lock_of(block, &header) != holder && header.inner_lock != holder)
            {
                return Ok(());
            }
            if start.elapsed() > self.config.lock_patience {
                // The holder has been silent for longer than we are willing to wait.
                // Treat it as crashed: the paper's waiting mechanism learns of the
                // crash through the failure of the holder's outstanding transactions;
                // our stand-in for that signal is this patience timeout.
                self.recover_locked_version(block)?;
                return Ok(());
            }
            std::thread::sleep(LOCK_POLL_INTERVAL);
        }
    }

    /// Clears the top lock on `block`, durable or in memory, whoever holds it.
    /// Used when an update is abandoned (aborted version).
    pub(crate) fn clear_top_lock_if_held(&self, block: BlockNr) -> Result<()> {
        self.pages.update_page(block, &[], |page| {
            self.soft_locks.lock().remove(&block);
            let header = page
                .version
                .as_ref()
                .ok_or_else(|| FsError::CorruptPage("expected version page".into()))?;
            if header.top_lock.is_null() {
                Ok((false, ()))
            } else {
                page.version.as_mut().expect("checked above").top_lock = Port::NULL;
                Ok((true, ()))
            }
        })
    }

    // ------------------------------------------------------------------
    // Crash recovery of locks (§5.3).
    // ------------------------------------------------------------------

    /// The waiter-side recovery procedure for a locked version block whose holder has
    /// crashed.
    ///
    /// * If the block's commit reference is nil, the crashed update never committed:
    ///   the top lock is cleared, and inner locks with the same port on sub-file
    ///   version blocks are cleared as well.
    /// * If the commit reference is set, the version it refers to is current; the
    ///   locked version and the current version are traversed together and the commit
    ///   references of the sub-files are set, finishing the work of the crashed
    ///   server, before the locks are cleared.
    pub fn recover_locked_version(&self, block: BlockNr) -> Result<LockRecoveryReport> {
        let mut report = LockRecoveryReport::default();
        let (page, header) = self.read_version_page_at(block)?;
        let holder = self.top_lock_of(block, &header);

        match header.commit_reference {
            None => {
                // Crashed before committing: clear the top lock …
                if !holder.is_null() {
                    self.pages.update_page(block, &[], |p| {
                        let mut soft_locks = self.soft_locks.lock();
                        if soft_locks.get(&block) == Some(&holder) {
                            soft_locks.remove(&block);
                        }
                        drop(soft_locks);
                        let h = p
                            .version
                            .as_mut()
                            .ok_or_else(|| FsError::CorruptPage("expected version page".into()))?;
                        if h.top_lock == holder {
                            h.top_lock = Port::NULL;
                            Ok((true, ()))
                        } else {
                            Ok((false, ()))
                        }
                    })?;
                    report.cleared += 1;
                }
                // … and any inner locks with the same port on sub-file version pages
                // referenced from this super-file's tree.
                self.clear_inner_locks_below(&page, holder, &mut report)?;
                self.clear_inner_locks_of_children(header.file_cap.object, holder, &mut report)?;
            }
            Some(new_current) => {
                // Crashed after committing the super-file but before finishing the
                // sub-files: finish its work by walking the new current version.
                let (new_page, _) = self.read_version_page_at(new_current)?;
                self.finish_subfile_commits(&new_page, &mut report)?;
                // Clear inner locks left behind on superseded sub-file version pages.
                self.clear_inner_locks_below(&page, holder, &mut report)?;
                self.clear_inner_locks_of_children(header.file_cap.object, holder, &mut report)?;
            }
        }
        Ok(report)
    }

    /// Clears inner locks set by `holder` on the *current* version pages of the
    /// registered sub-files of `file_id`.  The super-file's superseded version pages
    /// may reference older sub-file versions, so the file table is consulted as well;
    /// the paper's waiters achieve the same effect lazily by ascending the system tree
    /// and ignoring inner locks whose enclosing top lock is gone.
    fn clear_inner_locks_of_children(
        &self,
        file_id: u64,
        holder: Port,
        report: &mut LockRecoveryReport,
    ) -> Result<()> {
        if holder.is_null() {
            return Ok(());
        }
        let Ok(file) = self.file_by_id(file_id) else {
            return Ok(());
        };
        let children = file.lock().children.clone();
        for child_id in children {
            let Ok(child) = self.file_by_id(child_id) else {
                continue;
            };
            let current = {
                let mut meta = child.lock();
                match self.current_version_block_locked(&mut meta) {
                    Ok(block) => block,
                    Err(_) => continue,
                }
            };
            let cleared = self.pages.update_page(current, &[], |p| {
                let h = p
                    .version
                    .as_mut()
                    .ok_or_else(|| FsError::CorruptPage("expected version page".into()))?;
                if h.inner_lock == holder {
                    h.inner_lock = Port::NULL;
                    Ok((true, true))
                } else {
                    Ok((false, false))
                }
            })?;
            if cleared {
                report.cleared += 1;
            }
        }
        Ok(())
    }

    /// Clears inner locks set by `holder` on any sub-file version pages referenced
    /// from `page`'s reference table.
    fn clear_inner_locks_below(
        &self,
        page: &Page,
        holder: Port,
        report: &mut LockRecoveryReport,
    ) -> Result<()> {
        if holder.is_null() {
            return Ok(());
        }
        for reference in &page.refs {
            let child = match self.pages.read_page(reference.block) {
                Ok(child) => child,
                Err(_) => continue,
            };
            if !child.is_version_page() {
                continue;
            }
            let cleared = self.pages.update_page(reference.block, &[], |p| {
                let h = p
                    .version
                    .as_mut()
                    .ok_or_else(|| FsError::CorruptPage("expected version page".into()))?;
                if h.inner_lock == holder {
                    h.inner_lock = Port::NULL;
                    Ok((true, true))
                } else {
                    Ok((false, false))
                }
            })?;
            if cleared {
                report.cleared += 1;
            }
        }
        Ok(())
    }

    /// Walks a committed super-file version page and, for every sub-file version page
    /// it references, makes sure that sub version is committed (its predecessor's
    /// commit reference points at it).  This is the "finishing the work of the crashed
    /// server" step.
    fn finish_subfile_commits(
        &self,
        super_page: &Page,
        report: &mut LockRecoveryReport,
    ) -> Result<()> {
        for reference in &super_page.refs {
            let child = match self.pages.read_page(reference.block) {
                Ok(child) => child,
                Err(_) => continue,
            };
            let Some(child_header) = child.version.clone() else {
                continue;
            };
            if child_header.commit_reference.is_some() {
                // Already superseded; nothing to finish here.
                continue;
            }
            let Some(base) = child.base_reference else {
                continue;
            };
            let (_, base_header) = match self.read_version_page_at(base) {
                Ok(v) => v,
                Err(_) => continue,
            };
            if base_header.commit_reference.is_none() {
                // The crashed update created this sub version but never committed it;
                // finish that commit now, settling the sub-file's leases first as
                // `commit` does.
                let _settle = self.leases.settle(child_header.file_cap.object, self.port);
                let result = self.try_set_commit_reference(base, reference.block, &[])?;
                if result.is_none() {
                    report.finished_commits += 1;
                    // Update the in-memory version table if we know this version.
                    let mut pinned = None;
                    if let Ok(meta) = self.version_meta_by_id(child_header.version_cap.object) {
                        let mut meta = meta.lock();
                        if meta.state == VersionState::Uncommitted {
                            meta.state = VersionState::Committed;
                            meta.owned_blocks.clear();
                            pinned = meta.base.take();
                        }
                    }
                    let _ = self.link_commit(
                        child_header.file_cap.object,
                        base,
                        reference.block,
                        pinned,
                    );
                }
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Super-file updates.
    // ------------------------------------------------------------------

    /// Begins an atomic update of a super-file: waits for (or fails on) the top and
    /// inner locks of its current version, takes the top lock, and creates the new
    /// super-file version.
    pub fn begin_super_update(
        &self,
        super_cap: &Capability,
        port: Port,
        wait: bool,
    ) -> Result<SuperUpdate> {
        let file = self.resolve_file(super_cap, Rights::WRITE)?;
        if file.lock().children.is_empty() {
            return Err(FsError::WrongFileKind);
        }
        let options = VersionOptions {
            respect_top_lock: true,
            wait_for_locks: wait,
            lock_port: Some(port),
        };
        let super_version = self.create_version_with(super_cap, options)?;
        let locked_block = {
            let meta = self.resolve_version(&super_version, Rights::READ)?;
            let block = meta.lock().block;
            let page = self.pages.read_page(block)?;
            page.base_reference
                .ok_or_else(|| FsError::CorruptPage("super version has no base".into()))?
        };
        Ok(SuperUpdate {
            super_file: *super_cap,
            super_version,
            port,
            sub_versions: Vec::new(),
            locked_block,
        })
    }

    /// Opens a sub-file for modification inside a super-file update: sets the inner
    /// lock on the sub-file's current version page, creates a new version of the
    /// sub-file, and records it both in the handle and in the super-file version's
    /// page tree (so crash recovery can find it).
    pub fn super_update_edit(
        &self,
        update: &mut SuperUpdate,
        sub_cap: &Capability,
    ) -> Result<Capability> {
        let sub_file = self.resolve_file(sub_cap, Rights::WRITE)?;
        // Set the inner lock on the sub-file's current version and create the new
        // sub version on it.  The block stays pinned until the new version pins it
        // as its base, so no commit retires it while it is tried or waited on.
        let (current_block, sub_version) = loop {
            let block = self.pin_current(&sub_file)?;
            let branched = self.inner_lock_and_branch(sub_cap, block, update.port);
            self.release_pin(&sub_file, block);
            if let Some(sub_version) = branched? {
                break (block, sub_version);
            }
        };

        // Record the new sub version page in the super-file version's tree so that
        // recovery (and commit) can find it: replace the link to the sub-file.  The
        // version it links is retained, because retirement keeps every sub-file
        // version a retained super-file version links.
        let retained = sub_file.lock().chain.clone();
        let sub_version_block = {
            let meta = self.resolve_version(&sub_version, Rights::READ)?;
            let block = meta.lock().block;
            block
        };
        let super_version_block = {
            let meta = self.resolve_version(&update.super_version, Rights::READ)?;
            let block = meta.lock().block;
            block
        };
        self.pages.update_page(super_version_block, &[], |page| {
            let link = page.refs.iter_mut().find(|r| retained.contains(&r.block));
            if let Some(r) = link {
                r.block = sub_version_block;
                r.flags.copied = true;
                r.flags.written = true;
            } else {
                // The super-file's tree does not link this sub-file yet (it was
                // created after the version the tree is based on).
                page.push_ref(crate::page::PageRef {
                    block: sub_version_block,
                    flags: crate::flags::PageFlags {
                        copied: true,
                        written: true,
                        ..crate::flags::PageFlags::CLEAR
                    },
                })?;
            }
            Ok((true, ()))
        })?;

        update
            .sub_versions
            .push((*sub_cap, sub_version, current_block));
        Ok(sub_version)
    }

    /// Sets `port`'s inner lock on the sub-file version page at `block` and
    /// creates a version of the sub-file, which that lock does not block.  `None`
    /// if the page was superseded or a holder was waited out: the caller
    /// re-resolves the current version.
    fn inner_lock_and_branch(
        &self,
        sub_cap: &Capability,
        block: BlockNr,
        port: Port,
    ) -> Result<Option<Capability>> {
        let attempt = self.pages.update_page(block, &[], |page| {
            let header = page
                .version
                .as_mut()
                .ok_or_else(|| FsError::CorruptPage("expected version page".into()))?;
            if header.commit_reference.is_some() {
                return Ok((false, LockAttempt::NoLongerCurrent));
            }
            if !header.inner_lock.is_null() && header.inner_lock != port {
                return Ok((false, LockAttempt::Blocked(header.inner_lock)));
            }
            header.inner_lock = port;
            Ok((true, LockAttempt::Acquired))
        })?;
        match attempt {
            LockAttempt::Acquired => {
                let options = VersionOptions {
                    respect_top_lock: false,
                    wait_for_locks: true,
                    lock_port: Some(port),
                };
                self.create_version_with(sub_cap, options).map(Some)
            }
            LockAttempt::NoLongerCurrent => Ok(None),
            LockAttempt::Blocked(holder) => {
                self.wait_for_lock_clear(block, holder)?;
                Ok(None)
            }
        }
    }

    /// Commits a super-file update: commits the super-file version first (the top
    /// lock guarantees no competing super-file update), then descends to commit the
    /// sub-file versions — "these commits always succeed, because the locks prevent
    /// access by other clients during the update to the super-file" — and finally
    /// clears the inner locks.
    pub fn commit_super_update(&self, update: SuperUpdate) -> Result<crate::commit::CommitReceipt> {
        // The super commit's flush follows *buffered* references, so the sub-file
        // version pages (and their private pages) the super tree points at become
        // durable before the super version can become current — a crash between
        // the super commit and the sub commits leaves everything the §5.3
        // recovery procedure needs on disk.
        let receipt = self.commit(&update.super_version)?;
        for (sub_file, sub_version, locked_block) in &update.sub_versions {
            // The sub commits may race nothing (inner lock), so they must succeed.
            self.commit(sub_version)?;
            self.clear_inner_lock(sub_file.object, *locked_block, update.port)?;
        }
        Ok(receipt)
    }

    /// Abandons a super-file update, clearing its locks and discarding its versions.
    pub fn abort_super_update(&self, update: SuperUpdate) -> Result<()> {
        for (sub_file, sub_version, locked_block) in &update.sub_versions {
            let _ = self.abort_version(sub_version);
            self.clear_inner_lock(sub_file.object, *locked_block, update.port)?;
        }
        self.abort_version(&update.super_version)?;
        Ok(())
    }

    /// Clears `port`'s inner lock on the version page at `block` of sub-file
    /// `file`.  Its file lock keeps retirement out meanwhile; a page the sub
    /// commit already retired took the lock with it.
    fn clear_inner_lock(&self, file: FileId, block: BlockNr, port: Port) -> Result<()> {
        let meta = self.file_by_id(file)?;
        let meta = meta.lock();
        if !meta.retains(block) {
            return Ok(());
        }
        self.pages.update_page(block, &[], |page| {
            let header = page
                .version
                .as_mut()
                .ok_or_else(|| FsError::CorruptPage("expected version page".into()))?;
            if header.inner_lock == port {
                header.inner_lock = Port::NULL;
                Ok((true, ()))
            } else {
                Ok((false, ()))
            }
        })
    }

    /// Returns the top and inner locks of a file's current version page (for tests
    /// and the experiment harness), a small file's top lock included.  The page
    /// is pinned while it is read, so a concurrent commit cannot retire it.
    pub fn lock_state(&self, file_cap: &Capability) -> Result<(Port, Port)> {
        let file = self.resolve_file(file_cap, Rights::READ)?;
        let block = self.pin_current(&file)?;
        let state = self
            .read_version_page_at(block)
            .map(|(_, header)| (self.top_lock_of(block, &header), header.inner_lock));
        self.release_pin(&file, block);
        state
    }

    /// Returns true if a set top lock suggests the file is about to change (the soft
    /// locking hint of §5.3).
    pub fn is_soft_locked(&self, file_cap: &Capability) -> Result<bool> {
        let (top, _) = self.lock_state(file_cap)?;
        Ok(!top.is_null())
    }

    /// Waits (bounded by `timeout`) for a file's top lock to clear — the deferral used
    /// by updates that honour the soft-lock hint.
    pub fn wait_until_idle(&self, file_cap: &Capability, timeout: Duration) -> Result<bool> {
        let start = Instant::now();
        while self.is_soft_locked(file_cap)? {
            if start.elapsed() > timeout {
                return Ok(false);
            }
            std::thread::sleep(LOCK_POLL_INTERVAL);
        }
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lease::tests::{as_dyn, FakeChannel};
    use crate::path::PagePath;
    use bytes::Bytes;

    fn super_setup(sub_count: usize) -> (std::sync::Arc<FileService>, Capability, Vec<Capability>) {
        super_setup_with(
            sub_count,
            crate::service::ServiceConfig::default().history_retention,
        )
    }

    fn super_setup_with(
        sub_count: usize,
        history_retention: usize,
    ) -> (std::sync::Arc<FileService>, Capability, Vec<Capability>) {
        let config = crate::service::ServiceConfig {
            history_retention,
            ..Default::default()
        };
        let service = FileService::with_config(
            std::sync::Arc::new(amoeba_block::BlockServer::new(std::sync::Arc::new(
                amoeba_block::MemStore::new(),
            ))),
            config,
        );
        let super_file = service.create_file().unwrap();
        let mut subs = Vec::new();
        for i in 0..sub_count {
            let sub = service.create_sub_file(&super_file).unwrap();
            // Give each sub-file some committed content.
            let v = service.create_version(&sub).unwrap();
            service
                .write_page(&v, &PagePath::root(), Bytes::from(vec![i as u8]))
                .unwrap();
            service.commit(&v).unwrap();
            subs.push(sub);
        }
        (service, super_file, subs)
    }

    #[test]
    fn super_update_commits_super_and_sub_files_atomically() {
        let (service, super_file, subs) = super_setup(3);
        let port = Port::from_raw(0x5050);
        let mut update = service.begin_super_update(&super_file, port, true).unwrap();
        // The top lock is visible on the super-file while the update runs.
        let (top, _) = service.lock_state(&super_file).unwrap();
        assert_eq!(top, port);

        for sub in &subs[..2] {
            let sub_version = service.super_update_edit(&mut update, sub).unwrap();
            service
                .write_page(
                    &sub_version,
                    &PagePath::root(),
                    Bytes::from_static(b"reorganised"),
                )
                .unwrap();
        }
        service.commit_super_update(update).unwrap();

        // Both edited sub-files now show the new contents in their current versions.
        for sub in &subs[..2] {
            let current = service.current_version(sub).unwrap();
            assert_eq!(
                service
                    .read_committed_page(&current, &PagePath::root())
                    .unwrap(),
                Bytes::from_static(b"reorganised")
            );
        }
        // The third sub-file is untouched.
        let current = service.current_version(&subs[2]).unwrap();
        assert_eq!(
            service
                .read_committed_page(&current, &PagePath::root())
                .unwrap(),
            Bytes::from(vec![2u8])
        );
        // All locks are clear afterwards.
        let (top, inner) = service.lock_state(&super_file).unwrap();
        assert!(top.is_null() && inner.is_null());
        for sub in &subs {
            let (_, inner) = service.lock_state(sub).unwrap();
            assert!(inner.is_null());
        }
    }

    #[test]
    fn inner_lock_blocks_small_file_updates_until_commit() {
        let (service, super_file, subs) = super_setup(2);
        let port = Port::from_raw(0x6060);
        let mut update = service.begin_super_update(&super_file, port, true).unwrap();
        let _sub_version = service.super_update_edit(&mut update, &subs[0]).unwrap();

        // A small-file update on the inner-locked sub-file cannot create a version
        // without waiting.
        let opts = VersionOptions {
            respect_top_lock: false,
            wait_for_locks: false,
            lock_port: None,
        };
        assert_eq!(
            service.create_version_with(&subs[0], opts).unwrap_err(),
            FsError::WouldBlock
        );
        // But the other sub-file remains fully available.
        let v = service.create_version_with(&subs[1], opts).unwrap();
        service
            .write_page(&v, &PagePath::root(), Bytes::from_static(b"independent"))
            .unwrap();
        service.commit(&v).unwrap();

        service.commit_super_update(update).unwrap();
        // After the super update commits, the first sub-file is unlocked again.
        let v = service.create_version(&subs[0]).unwrap();
        service.commit(&v).unwrap();
    }

    #[test]
    fn competing_super_updates_are_serialised_by_the_top_lock() {
        let (service, super_file, _subs) = super_setup(2);
        let first = service
            .begin_super_update(&super_file, Port::from_raw(1), true)
            .unwrap();
        // A second super update must not start while the first holds the top lock.
        let err = service
            .begin_super_update(&super_file, Port::from_raw(2), false)
            .unwrap_err();
        assert_eq!(err, FsError::WouldBlock);
        service.abort_super_update(first).unwrap();
        // After the first is abandoned the second can proceed.
        let second = service
            .begin_super_update(&super_file, Port::from_raw(2), false)
            .unwrap();
        service.abort_super_update(second).unwrap();
    }

    #[test]
    fn crashed_update_before_commit_is_cleared_by_waiters() {
        let (service, super_file, subs) = super_setup(2);
        let crashed_port = Port::from_raw(0xdead);
        let mut update = service
            .begin_super_update(&super_file, crashed_port, true)
            .unwrap();
        let _sub = service.super_update_edit(&mut update, &subs[0]).unwrap();
        // The client crashes: it never commits and never aborts.
        drop(update);
        service.report_crashed_port(crashed_port);

        // Another super update waits on the top lock, detects the crash and recovers.
        let recovered = service
            .begin_super_update(&super_file, Port::from_raw(0xbeef), true)
            .unwrap();
        // No stale locks remain on the sub-file either.
        let (_, inner) = service.lock_state(&subs[0]).unwrap();
        assert!(inner.is_null());
        service.abort_super_update(recovered).unwrap();
    }

    #[test]
    fn crashed_update_after_super_commit_is_finished_by_waiters() {
        let (service, super_file, subs) = super_setup(2);
        let crashed_port = Port::from_raw(0xdead);
        let mut update = service
            .begin_super_update(&super_file, crashed_port, true)
            .unwrap();
        let sub_version = service.super_update_edit(&mut update, &subs[0]).unwrap();
        service
            .write_page(
                &sub_version,
                &PagePath::root(),
                Bytes::from_static(b"half done"),
            )
            .unwrap();
        // Simulate the crash *after* the super-file version committed but *before*
        // the sub-file commits were carried out.
        service.commit(&update.super_version).unwrap();
        service.report_crashed_port(crashed_port);
        let locked_block = update.locked_block;
        drop(update);

        // A reader holds a lease on the sub-file the recovery will move.
        let reader = FakeChannel::new(1, true);
        assert!(service
            .leases()
            .grant(subs[0].object, &as_dyn(&reader))
            .is_some());

        // A waiter runs recovery on the locked block and finishes the sub commits.
        let report = service.recover_locked_version(locked_block).unwrap();
        assert_eq!(report.finished_commits, 1);
        assert_eq!(
            reader.pushes.lock().len(),
            1,
            "finishing the sub commit must break the sub-file's lease"
        );
        assert_eq!(service.leases().live_grants(subs[0].object), 0);
        let current = service.current_version(&subs[0]).unwrap();
        assert_eq!(
            service
                .read_committed_page(&current, &PagePath::root())
                .unwrap(),
            Bytes::from_static(b"half done")
        );
    }

    #[test]
    fn super_commit_makes_sub_versions_durable_before_becoming_current() {
        let (service, super_file, subs) = super_setup(2);
        let crashed_port = Port::from_raw(0xdead);
        let mut update = service
            .begin_super_update(&super_file, crashed_port, true)
            .unwrap();
        let sub_version = service.super_update_edit(&mut update, &subs[0]).unwrap();
        service
            .write_page(
                &sub_version,
                &PagePath::root(),
                Bytes::from_static(b"half done"),
            )
            .unwrap();
        let sub_block = {
            let meta = service
                .resolve_version(&sub_version, amoeba_capability::Rights::READ)
                .unwrap();
            let block = meta.lock().block;
            block
        };

        // The client executes `commit_super_update` up to and including the super
        // version's commit, then crashes before the sub commits.  The super
        // commit's flush alone must make the referenced sub pages durable.
        service.commit(&update.super_version).unwrap();

        // Everything the now-durable committed super tree references must itself be
        // durable: a raw block read, bypassing the overlay and the cache, decodes
        // the sub version page with its data.
        let raw = service
            .block_server()
            .read(&service.storage_account(), sub_block)
            .unwrap();
        let on_disk = crate::page::Page::decode(raw).unwrap();
        assert!(on_disk.is_version_page());
        assert_eq!(on_disk.data, Bytes::from_static(b"half done"));

        // And the recovery procedure can therefore finish the crashed update.
        service.report_crashed_port(crashed_port);
        let report = service.recover_locked_version(update.locked_block).unwrap();
        assert_eq!(report.finished_commits, 1);
        let current = service.current_version(&subs[0]).unwrap();
        assert_eq!(
            service
                .read_committed_page(&current, &PagePath::root())
                .unwrap(),
            Bytes::from_static(b"half done")
        );
    }

    #[test]
    fn soft_lock_hint_is_visible_and_clears_on_commit() {
        let service = FileService::in_memory();
        let file = service.create_file().unwrap();
        assert!(!service.is_soft_locked(&file).unwrap());
        let v = service.create_version(&file).unwrap();
        assert!(service.is_soft_locked(&file).unwrap());
        service.commit(&v).unwrap();
        // The new current version carries no locks.
        assert!(!service.is_soft_locked(&file).unwrap());
        assert!(service
            .wait_until_idle(&file, Duration::from_millis(10))
            .unwrap());
    }

    #[test]
    fn wait_until_idle_times_out_when_the_file_stays_busy() {
        let service = FileService::in_memory();
        let file = service.create_file().unwrap();
        let _v = service.create_version(&file).unwrap();
        assert!(!service
            .wait_until_idle(&file, Duration::from_millis(20))
            .unwrap());
    }

    #[test]
    fn super_update_on_a_small_file_is_rejected() {
        let service = FileService::in_memory();
        let file = service.create_file().unwrap();
        assert_eq!(
            service
                .begin_super_update(&file, Port::from_raw(1), false)
                .unwrap_err(),
            FsError::WrongFileKind
        );
    }

    /// A service whose lock waiters never give up on a live holder, so a
    /// waiter that proceeds saw the holder commit or abort.
    fn patient_service() -> std::sync::Arc<FileService> {
        FileService::with_config(
            std::sync::Arc::new(amoeba_block::BlockServer::new(std::sync::Arc::new(
                amoeba_block::MemStore::new(),
            ))),
            crate::service::ServiceConfig {
                lock_patience: Duration::from_secs(600),
                ..Default::default()
            },
        )
    }

    fn soft(port: u64, wait_for_locks: bool) -> VersionOptions {
        VersionOptions {
            respect_top_lock: true,
            wait_for_locks,
            lock_port: Some(Port::from_raw(port)),
        }
    }

    #[test]
    fn a_small_file_top_lock_is_reported_but_never_written() {
        let service = FileService::in_memory();
        let file = service.create_file().unwrap();
        let v = service.create_version(&file).unwrap();
        service
            .write_page(&v, &PagePath::root(), Bytes::from_static(b"content"))
            .unwrap();
        service.commit(&v).unwrap();
        let block = service.current_version_block(&file).unwrap();
        let stored = || {
            service
                .block_server()
                .read(&service.storage_account(), block)
                .unwrap()
        };
        let before = stored();
        let writes = service.block_server().stats().write_calls;

        let _v = service
            .create_version_with(&file, soft(0x111, true))
            .unwrap();
        assert_eq!(stored(), before, "the stored page is unchanged");
        assert_eq!(service.block_server().stats().write_calls, writes);
        assert_eq!(
            service.lock_state(&file).unwrap(),
            (Port::from_raw(0x111), Port::NULL)
        );
        assert!(service.is_soft_locked(&file).unwrap());
    }

    #[test]
    fn a_soft_lock_holds_off_respecting_creators_until_its_holder_commits_or_aborts() {
        let service = patient_service();
        let file = service.create_file().unwrap();
        let meta = service.resolve_file(&file, Rights::READ).unwrap();
        for finish_by_commit in [true, false] {
            let holder = service
                .create_version_with(&file, soft(0x111, true))
                .unwrap();
            assert_eq!(
                service
                    .create_version_with(&file, soft(0x222, false))
                    .unwrap_err(),
                FsError::WouldBlock
            );
            let locked = service.current_version_block(&file).unwrap();
            std::thread::scope(|scope| {
                let waiter = scope.spawn(|| service.create_version_with(&file, soft(0x222, true)));
                // The holder's version pins the locked page once; the waiter,
                // trying or waiting on it, makes two.
                let start = Instant::now();
                while meta.lock().pins.get(&locked) != Some(&2) {
                    assert!(start.elapsed() < Duration::from_secs(5), "no waiter pin");
                    std::thread::yield_now();
                }
                assert!(!waiter.is_finished(), "the waiter must wait for the holder");
                if finish_by_commit {
                    service.commit(&holder).unwrap();
                } else {
                    service.abort_version(&holder).unwrap();
                }
                let waited = waiter.join().unwrap().expect("the waiter proceeds");
                assert_eq!(service.lock_state(&file).unwrap().0, Port::from_raw(0x222));
                service.abort_version(&waited).unwrap();
            });
            assert!(!service.is_soft_locked(&file).unwrap());
        }
    }

    #[test]
    fn no_small_file_top_lock_survives_recovery() {
        let block_server = std::sync::Arc::new(amoeba_block::BlockServer::new(
            std::sync::Arc::new(amoeba_block::MemStore::new()),
        ));
        let service = FileService::new(std::sync::Arc::clone(&block_server));
        let account = service.storage_account();
        let file = service.create_file().unwrap();
        let v = service.create_version(&file).unwrap();
        service
            .write_page(&v, &PagePath::root(), Bytes::from_static(b"durable"))
            .unwrap();
        service.commit(&v).unwrap();
        // An update holds the top lock when the service crashes.
        let _in_flight = service
            .create_version_with(&file, soft(0x111, true))
            .unwrap();
        drop(service);

        let (recovered, report) = FileService::recover_from_storage(
            block_server,
            account,
            crate::service::ServiceConfig::default(),
        )
        .unwrap();
        let file = report.files[0];
        let v = recovered
            .create_version_with(&file, soft(0x222, false))
            .expect("no top lock survives the crash");
        recovered.commit(&v).unwrap();
    }

    fn assert_clean(service: &FileService) {
        let audit = service.audit().unwrap();
        assert_eq!((audit.leaked, audit.dangling), (0, 0), "{audit:?}");
    }

    #[test]
    fn a_super_update_commits_at_retention_one() {
        // Each sub commit retires the page that carries its inner lock, which
        // must neither fail the update nor leave later sub versions uncommitted.
        let (service, super_file, subs) = super_setup_with(2, 1);
        for round in 0..3u8 {
            let port = Port::from_raw(0x7000 + u64::from(round));
            let mut update = service.begin_super_update(&super_file, port, true).unwrap();
            for sub in &subs {
                let v = service.super_update_edit(&mut update, sub).unwrap();
                service
                    .write_page(&v, &PagePath::root(), Bytes::from(vec![round]))
                    .unwrap();
            }
            service.commit_super_update(update).unwrap();
            for sub in &subs {
                let current = service.current_version(sub).unwrap();
                assert_eq!(
                    service
                        .read_committed_page(&current, &PagePath::root())
                        .unwrap(),
                    Bytes::from(vec![round])
                );
                assert!(service.lock_state(sub).unwrap().1.is_null());
                assert_eq!(service.committed_version_count(sub).unwrap(), 1);
            }
            assert_clean(&service);
        }
    }

    #[test]
    fn a_blocked_super_update_outwaits_a_retiring_commit() {
        // At retention one the holder's commit retires the page the waiter
        // polls.  The waiter pins it, so it sees the commit, not a freed block.
        let (service, super_file, subs) = super_setup_with(1, 1);
        let mut first = service
            .begin_super_update(&super_file, Port::from_raw(1), true)
            .unwrap();
        let v = service.super_update_edit(&mut first, &subs[0]).unwrap();
        service
            .write_page(&v, &PagePath::root(), Bytes::from_static(b"first"))
            .unwrap();
        let locked = first.locked_block;
        let file = service.resolve_file(&super_file, Rights::READ).unwrap();
        std::thread::scope(|scope| {
            let waiter =
                scope.spawn(|| service.begin_super_update(&super_file, Port::from_raw(2), true));
            // The first update's version holds one pin on the page; the
            // waiter's makes two.
            let start = Instant::now();
            while file.lock().pins.get(&locked) != Some(&2) {
                assert!(start.elapsed() < Duration::from_secs(5), "no waiter pin");
                std::thread::yield_now();
            }
            service.commit_super_update(first).unwrap();
            let second = waiter.join().unwrap().expect("the waiter sees the commit");
            service.abort_super_update(second).unwrap();
        });
        assert_eq!(service.committed_version_count(&super_file).unwrap(), 1);
        assert_clean(&service);
    }
}
