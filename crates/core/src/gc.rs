//! The garbage collector (abstract, §5.1).
//!
//! "A garbage collector that runs independent of, and in parallel with, the operation
//! of the system."  Two kinds of garbage arise in the Amoeba File Service:
//!
//! 1. **Shadow pages that carry only read-path bookkeeping.**  Reading a page forces
//!    it to be copied so the C/R/W/S/M flags of its children can be initialised, but
//!    "once a version has successfully committed, the information contained in the R
//!    and S flags is no longer needed.  The … garbage collector may remove pages that
//!    were copied but not written or modified and reshare the corresponding page from
//!    the version on which it was based."
//! 2. **Old committed versions.**  The committed chain grows with every update; the
//!    collector trims it to a configurable retention depth.
//!
//! A pass over one file proceeds in three steps: *trim* unlinks versions beyond the
//! retention depth from the committed chain; *reshare* rewrites references that point
//! at clean shadow copies so they point at the original page again; *sweep* frees
//! every block that is owned by a committed version of the file but no longer
//! reachable from any committed or uncommitted version.  The sweep never touches
//! blocks owned by uncommitted versions (a client may be extending them concurrently),
//! and the pass holds the file's bookkeeping lock so that it cannot interleave with
//! the brief instant at which a freshly created version shares pages with the current
//! version but is not yet registered; reads, writes and commits run concurrently with
//! the collector.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use amoeba_block::BlockNr;
use amoeba_capability::{Capability, Rights};

use crate::flags::PageFlags;
use crate::page::PageRef;
use crate::service::{FileService, VersionMeta, VersionState};
use crate::types::{FsError, Result, VersionId};

/// What one garbage-collection pass accomplished.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct GcReport {
    /// References rewritten to share the base version's page again.
    pub reshared_pages: usize,
    /// Old committed versions removed from the history.
    pub trimmed_versions: usize,
    /// Total blocks returned to the block service.
    pub freed_blocks: usize,
}

impl GcReport {
    /// Accumulates another report into this one.
    pub fn merge(&mut self, other: GcReport) {
        self.reshared_pages += other.reshared_pages;
        self.trimmed_versions += other.trimmed_versions;
        self.freed_blocks += other.freed_blocks;
    }
}

impl FileService {
    /// Runs one garbage-collection pass over a single file.
    ///
    /// The pass holds the file's bookkeeping lock, which version *creation* also
    /// takes; reads, writes and commits of existing versions proceed concurrently.
    pub fn gc_file(&self, file_cap: &Capability) -> Result<GcReport> {
        let file = self.resolve_file(file_cap, Rights::ADMIN)?;
        let mut file_guard = file.lock();
        let file_id = file_guard.id;
        let mut report = GcReport::default();

        // Snapshot the committed chain.
        let oldest = file_guard.oldest_block;
        let mut chain = Vec::new();
        let mut block = oldest;
        loop {
            let (_, header) = self.read_version_page_at(block)?;
            chain.push(block);
            match header.commit_reference {
                Some(next) => block = next,
                None => break,
            }
        }

        // Versions pinned because uncommitted work is based on them.
        let pinned: HashSet<BlockNr> = self.uncommitted_bases(file_id)?;

        // Step 1: trim the chain beyond the retention depth.
        let (retained, removed_versions) = self.trim_chain(&mut file_guard, &chain, &pinned)?;
        report.trimmed_versions = removed_versions.len();

        // Step 2: rewrite references to clean shadow copies.  Only originals that are
        // still live (reachable from the retained chain or from uncommitted versions)
        // are eligible targets: a copy whose original was reclaimed in an earlier pass
        // is now the authoritative page and must stay.
        let mut live: HashSet<BlockNr> = HashSet::new();
        for &block in &retained {
            self.collect_reachable(block, &mut live)?;
        }
        for block in self.uncommitted_roots(file_id) {
            self.collect_reachable(block, &mut live)?;
        }
        report.reshared_pages = self.reshare_pass(&retained, &live)?;

        // Step 3: sweep unreachable blocks owned by committed versions.
        report.freed_blocks = self.sweep(file_id, &retained, &removed_versions)?;
        Ok(report)
    }

    /// Runs one garbage-collection pass over every file of the service.
    pub fn gc_all(&self) -> Result<GcReport> {
        let caps: Vec<Capability> = self
            .files
            .read()
            .values()
            .map(|meta| meta.lock().cap)
            .collect();
        let mut report = GcReport::default();
        for cap in caps {
            match self.gc_file(&cap) {
                Ok(r) => report.merge(r),
                // A file disappearing mid-pass (e.g. concurrent activity) is fine.
                Err(FsError::NoSuchFile) => {}
                Err(e) => return Err(e),
            }
        }
        Ok(report)
    }

    /// Version page blocks of this file's uncommitted versions.
    fn uncommitted_roots(&self, file_id: u64) -> Vec<BlockNr> {
        let versions = self.versions.read();
        versions
            .values()
            .filter_map(|meta| {
                let meta = meta.lock();
                (meta.file == file_id && meta.state == VersionState::Uncommitted)
                    .then_some(meta.block)
            })
            .collect()
    }

    /// Blocks of committed versions that uncommitted versions are based on.
    fn uncommitted_bases(&self, file_id: u64) -> Result<HashSet<BlockNr>> {
        let mut bases = HashSet::new();
        let versions = self.versions.read();
        for meta in versions.values() {
            let meta = meta.lock();
            if meta.file == file_id && meta.state == VersionState::Uncommitted {
                if let Ok(page) = self.pages.read_page(meta.block) {
                    if let Some(base) = page.base_reference {
                        bases.insert(base);
                    }
                }
            }
        }
        Ok(bases)
    }

    // ------------------------------------------------------------------
    // Step 1: trim.
    // ------------------------------------------------------------------

    /// Unlinks versions beyond the retention depth from the committed chain.  Returns
    /// the retained chain and the removed version page blocks.
    fn trim_chain(
        &self,
        file: &mut crate::service::FileMeta,
        chain: &[BlockNr],
        pinned: &HashSet<BlockNr>,
    ) -> Result<(Vec<BlockNr>, Vec<BlockNr>)> {
        let keep = self.config.history_retention.max(1);
        if chain.len() <= keep {
            return Ok((chain.to_vec(), Vec::new()));
        }
        let cut = chain.len() - keep;
        let (trim, retain) = chain.split_at(cut);
        if trim.iter().any(|b| pinned.contains(b)) {
            // An uncommitted version is based on one of the candidates; leave the
            // whole prefix alone this pass.
            return Ok((chain.to_vec(), Vec::new()));
        }
        // The new oldest version's base reference becomes nil (Fig. 4).
        let new_oldest = retain[0];
        self.pages.update_page(new_oldest, |page| {
            page.base_reference = None;
            Ok((true, ()))
        })?;
        file.oldest_block = new_oldest;
        Ok((retain.to_vec(), trim.to_vec()))
    }

    // ------------------------------------------------------------------
    // Step 2: reshare clean shadow copies.
    // ------------------------------------------------------------------

    /// Rewrites references that point at *clean shadow copies* (pages that were copied
    /// but never written or restructured, with no written descendants) so they point
    /// at the original page the copy was based on.  The rewritten copy then becomes
    /// unreachable and is reclaimed by the sweep.
    fn reshare_pass(&self, chain: &[BlockNr], live: &HashSet<BlockNr>) -> Result<usize> {
        let mut rewritten = 0usize;
        for &version_block in chain {
            rewritten += self.reshare_page(version_block, live)?;
        }
        Ok(rewritten)
    }

    /// Rewrites eligible references in the page at `block` (and, recursively, in the
    /// copied pages below it).
    fn reshare_page(&self, block: BlockNr, live: &HashSet<BlockNr>) -> Result<usize> {
        let page = self.pages.read_page(block)?;
        let mut rewrites: Vec<(usize, PageRef)> = Vec::new();
        let mut rewritten = 0usize;
        for (index, reference) in page.refs.iter().enumerate() {
            if !reference.flags.copied {
                continue;
            }
            if !reference.flags.written && !reference.flags.modified {
                // Candidate: the copy may only exist to hold read-path flags.
                if let Ok(copy) = self.pages.read_page(reference.block) {
                    if let Some(original) = copy.base_reference.filter(|o| live.contains(o)) {
                        if self.subtree_is_clean(reference.block)? {
                            rewrites.push((
                                index,
                                PageRef {
                                    block: original,
                                    flags: PageFlags::CLEAR,
                                },
                            ));
                            continue;
                        }
                    }
                }
            }
            // Not a clean copy: recurse to reshare deeper levels.
            rewritten += self.reshare_page(reference.block, live)?;
        }
        if !rewrites.is_empty() {
            let count = rewrites.len();
            self.pages.update_page(block, |p| {
                let mut changed = false;
                for (index, new_ref) in &rewrites {
                    if let (Some(slot), Some(old)) = (p.refs.get_mut(*index), page.refs.get(*index))
                    {
                        // Only rewrite if the reference has not changed under us.
                        if slot.block == old.block && slot.flags == old.flags {
                            *slot = *new_ref;
                            changed = true;
                        }
                    }
                }
                Ok((changed, ()))
            })?;
            rewritten += count;
        }
        Ok(rewritten)
    }

    /// True if no page in the copied part of the subtree rooted at `block` was written
    /// or had its references modified.
    fn subtree_is_clean(&self, block: BlockNr) -> Result<bool> {
        let page = self.pages.read_page(block)?;
        for reference in &page.refs {
            if !reference.flags.copied {
                continue;
            }
            if reference.flags.written || reference.flags.modified {
                return Ok(false);
            }
            if !self.subtree_is_clean(reference.block)? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    // ------------------------------------------------------------------
    // Step 3: sweep.
    // ------------------------------------------------------------------

    /// Frees blocks owned by committed versions of `file_id` that are no longer
    /// reachable from any committed or uncommitted version, plus the version pages of
    /// versions removed from the chain.
    fn sweep(
        &self,
        file_id: u64,
        retained_chain: &[BlockNr],
        removed_versions: &[BlockNr],
    ) -> Result<usize> {
        // The sweep candidates are the versions committed *before* the mark.  A
        // version that commits during the mark may have staged new blocks after
        // its uncommitted root was marked; taking it as a candidate would free
        // those live blocks.  Its garbage waits for the next pass.
        let committed_versions: Vec<Arc<parking_lot::Mutex<VersionMeta>>> = {
            let versions = self.versions.read();
            versions
                .values()
                .filter(|meta| {
                    let meta = meta.lock();
                    meta.file == file_id && meta.state == VersionState::Committed
                })
                .cloned()
                .collect()
        };

        // Mark.  The uncommitted roots are listed *before* the committed chain is
        // walked: a version that commits between the end of the walk and the
        // listing would otherwise be on neither, and the pages it shares with
        // older versions would be swept.  The chain is re-walked *live* (by
        // following commit references from the retained oldest version) rather
        // than from the snapshot taken at the start of the pass: commits only ever
        // append to the chain, and a version committed while this pass was running
        // must be treated as reachable even though it was uncommitted when the
        // pass began.
        let uncommitted = self.uncommitted_roots(file_id);
        let mut reachable: HashSet<BlockNr> = HashSet::new();
        let mut cursor = match retained_chain.first() {
            Some(&first) => first,
            None => return Ok(0),
        };
        loop {
            self.collect_reachable(cursor, &mut reachable)?;
            let (_, header) = self.read_version_page_at(cursor)?;
            match header.commit_reference {
                Some(next) => cursor = next,
                None => break,
            }
        }
        for block in uncommitted {
            self.collect_reachable(block, &mut reachable)?;
        }

        // Sweep blocks owned by committed versions.
        let mut freed = 0usize;
        for meta in committed_versions {
            let owned: Vec<BlockNr> = meta.lock().owned_blocks.iter().copied().collect();
            for nr in owned {
                if !reachable.contains(&nr) && self.pages.free_page(nr).is_ok() {
                    meta.lock().owned_blocks.remove(&nr);
                    freed += 1;
                }
            }
        }

        // Retire the trimmed versions.  The blocks a trimmed version owns that
        // are still reachable are shared with a retained version: the oldest
        // retained version inherits them, so the sweep that finds them
        // unreachable later frees them (dropped with the version, nobody
        // would).  Each version is looked up and forgotten *before* its page
        // is freed: a freed number may be reissued at once — even to another
        // file's new version page — and a lookup by number would then find,
        // and forget, that version instead.
        let heir = self.version_at_block(retained_chain[0]);
        for &block in removed_versions {
            if let Some((id, meta)) = self.version_at_block(block) {
                let owned = std::mem::take(&mut meta.lock().owned_blocks);
                let mut shared = Vec::new();
                for nr in owned {
                    if reachable.contains(&nr) {
                        shared.push(nr);
                    } else if self.pages.free_page(nr).is_ok() {
                        freed += 1;
                    }
                }
                if let Some((_, heir)) = &heir {
                    heir.lock().owned_blocks.extend(shared);
                }
                self.forget_version(id, block);
            }
            if !reachable.contains(&block) && self.pages.free_page(block).is_ok() {
                freed += 1;
            }
        }
        Ok(freed)
    }

    /// The version whose page is `block`, through the block index (one hash
    /// probe instead of a scan that locks every version).
    fn version_at_block(
        &self,
        block: BlockNr,
    ) -> Option<(VersionId, Arc<parking_lot::Mutex<VersionMeta>>)> {
        let id = self.block_index.read().get(&block).copied()?;
        let meta = self.versions.read().get(&id).map(Arc::clone)?;
        Some((id, meta))
    }

    /// Collects all blocks reachable from the page at `block` (inclusive).
    fn collect_reachable(&self, block: BlockNr, out: &mut HashSet<BlockNr>) -> Result<()> {
        if !out.insert(block) {
            return Ok(());
        }
        let page = match self.pages.read_page(block) {
            Ok(page) => page,
            Err(_) => return Ok(()),
        };
        for reference in &page.refs {
            self.collect_reachable(reference.block, out)?;
        }
        Ok(())
    }

    /// Returns the number of blocks currently reachable from the file's committed
    /// chain (for space-accounting tests and the write-once media experiment).
    pub fn reachable_block_count(&self, file_cap: &Capability) -> Result<usize> {
        let file = self.resolve_file(file_cap, Rights::READ)?;
        let oldest = file.lock().oldest_block;
        let mut reachable = HashSet::new();
        let mut block = oldest;
        loop {
            self.collect_reachable(block, &mut reachable)?;
            let (_, header) = self.read_version_page_at(block)?;
            match header.commit_reference {
                Some(next) => block = next,
                None => break,
            }
        }
        Ok(reachable.len())
    }
}

/// A background garbage collector: runs [`FileService::gc_all`] on a fixed interval
/// until stopped.  Demonstrates the "independent of, and in parallel with" property;
/// experiment E10 measures its impact on foreground traffic.
pub struct GarbageCollector {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<GcReport>>,
}

impl GarbageCollector {
    /// Starts a collector thread over `service` with the given pass interval.
    pub fn start(service: Arc<FileService>, interval: Duration) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let mut total = GcReport::default();
            while !stop_flag.load(Ordering::SeqCst) {
                if let Ok(report) = service.gc_all() {
                    total.merge(report);
                }
                std::thread::sleep(interval);
            }
            total
        });
        GarbageCollector {
            stop,
            handle: Some(handle),
        }
    }

    /// Stops the collector and returns the accumulated report.
    pub fn stop(mut self) -> GcReport {
        self.stop.store(true, Ordering::SeqCst);
        match self.handle.take() {
            Some(handle) => handle.join().unwrap_or_default(),
            None => GcReport::default(),
        }
    }
}

impl Drop for GarbageCollector {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path::PagePath;
    use bytes::Bytes;

    fn file_with_leaves(service: &FileService, n: u16) -> (Capability, Vec<PagePath>) {
        let file = service.create_file().unwrap();
        let v = service.create_version(&file).unwrap();
        let mut paths = Vec::new();
        for i in 0..n {
            paths.push(
                service
                    .append_page(&v, &PagePath::root(), Bytes::from(vec![i as u8]))
                    .unwrap(),
            );
        }
        service.commit(&v).unwrap();
        (file, paths)
    }

    #[test]
    fn read_only_shadow_pages_are_reshared_and_reclaimed() {
        let service = FileService::in_memory();
        let (file, paths) = file_with_leaves(&service, 4);
        // An update that reads one page and writes another: the read page is shadowed
        // only for flag bookkeeping.
        let v = service.create_version(&file).unwrap();
        service.read_page(&v, &paths[0]).unwrap();
        service
            .write_page(&v, &paths[1], Bytes::from_static(b"w"))
            .unwrap();
        service.commit(&v).unwrap();

        let blocks_before = service.pages.block_server().store().allocated_count();
        let report = service.gc_file(&file).unwrap();
        assert!(report.reshared_pages >= 1, "report: {report:?}");
        assert!(report.freed_blocks >= 1, "report: {report:?}");
        let blocks_after = service.pages.block_server().store().allocated_count();
        assert!(blocks_after < blocks_before);

        // The reshared data is still readable and correct.
        let current = service.current_version(&file).unwrap();
        assert_eq!(
            service.read_committed_page(&current, &paths[0]).unwrap(),
            Bytes::from(vec![0u8])
        );
        assert_eq!(
            service.read_committed_page(&current, &paths[1]).unwrap(),
            Bytes::from_static(b"w")
        );
    }

    #[test]
    fn written_pages_are_never_reshared() {
        let service = FileService::in_memory();
        let (file, paths) = file_with_leaves(&service, 2);
        let v = service.create_version(&file).unwrap();
        service
            .write_page(&v, &paths[0], Bytes::from_static(b"keep me"))
            .unwrap();
        service.commit(&v).unwrap();
        service.gc_file(&file).unwrap();
        let current = service.current_version(&file).unwrap();
        assert_eq!(
            service.read_committed_page(&current, &paths[0]).unwrap(),
            Bytes::from_static(b"keep me")
        );
    }

    #[test]
    fn history_is_trimmed_to_the_retention_depth() {
        let config = crate::service::ServiceConfig {
            history_retention: 3,
            ..Default::default()
        };
        let server = Arc::new(amoeba_block::BlockServer::new(Arc::new(
            amoeba_block::MemStore::new(),
        )));
        let service = FileService::with_config(server, config);
        let (file, paths) = file_with_leaves(&service, 2);
        for i in 0..10u8 {
            let v = service.create_version(&file).unwrap();
            service
                .write_page(&v, &paths[0], Bytes::from(vec![i]))
                .unwrap();
            service.commit(&v).unwrap();
        }
        assert!(service.committed_version_count(&file).unwrap() > 3);
        let report = service.gc_file(&file).unwrap();
        assert!(report.trimmed_versions > 0);
        assert!(report.freed_blocks > 0);
        assert_eq!(service.committed_version_count(&file).unwrap(), 3);
        // The surviving current version still reads correctly.
        let current = service.current_version(&file).unwrap();
        assert_eq!(
            service.read_committed_page(&current, &paths[0]).unwrap(),
            Bytes::from(vec![9u8])
        );
    }

    #[test]
    fn trimming_preserves_pages_shared_with_retained_versions() {
        let config = crate::service::ServiceConfig {
            history_retention: 2,
            ..Default::default()
        };
        let server = Arc::new(amoeba_block::BlockServer::new(Arc::new(
            amoeba_block::MemStore::new(),
        )));
        let service = FileService::with_config(server, config);
        let (file, paths) = file_with_leaves(&service, 8);
        // Only page 0 is ever rewritten; pages 1..7 stay shared across the history.
        for i in 0..6u8 {
            let v = service.create_version(&file).unwrap();
            service
                .write_page(&v, &paths[0], Bytes::from(vec![i]))
                .unwrap();
            service.commit(&v).unwrap();
        }
        service.gc_file(&file).unwrap();
        let current = service.current_version(&file).unwrap();
        for (i, path) in paths.iter().enumerate().skip(1) {
            assert_eq!(
                service.read_committed_page(&current, path).unwrap(),
                Bytes::from(vec![i as u8]),
                "shared page {i} must survive trimming"
            );
        }
    }

    #[test]
    fn gc_does_not_disturb_pending_updates() {
        let service = FileService::in_memory();
        let (file, paths) = file_with_leaves(&service, 2);
        // Leave an uncommitted version hanging off the current version.
        let pending = service.create_version(&file).unwrap();
        service.read_page(&pending, &paths[0]).unwrap();
        service.gc_file(&file).unwrap();
        // The pending version still works and can commit.
        service
            .write_page(&pending, &paths[1], Bytes::from_static(b"later"))
            .unwrap();
        service.commit(&pending).unwrap();
        let current = service.current_version(&file).unwrap();
        assert_eq!(
            service.read_committed_page(&current, &paths[1]).unwrap(),
            Bytes::from_static(b"later")
        );
    }

    #[test]
    fn space_shrinks_after_collection() {
        let service = FileService::in_memory();
        let (file, paths) = file_with_leaves(&service, 8);
        // Many read-heavy updates create lots of shadow copies.
        for round in 0..5u8 {
            let v = service.create_version(&file).unwrap();
            for path in &paths {
                service.read_page(&v, path).unwrap();
            }
            service
                .write_page(&v, &paths[0], Bytes::from(vec![round]))
                .unwrap();
            service.commit(&v).unwrap();
        }
        let before = service.pages.block_server().store().allocated_count();
        let report = service.gc_file(&file).unwrap();
        let after = service.pages.block_server().store().allocated_count();
        assert!(report.freed_blocks > 0);
        assert!(
            after < before,
            "GC should reclaim blocks ({before} -> {after})"
        );
    }

    #[test]
    fn background_collector_runs_alongside_updates() {
        let service = FileService::in_memory();
        let (file, paths) = file_with_leaves(&service, 4);
        let gc = GarbageCollector::start(Arc::clone(&service), Duration::from_millis(2));
        for i in 0..50u8 {
            let v = service.create_version(&file).unwrap();
            service.read_page(&v, &paths[(i % 4) as usize]).unwrap();
            service
                .write_page(&v, &paths[((i + 1) % 4) as usize], Bytes::from(vec![i]))
                .unwrap();
            service.commit(&v).unwrap();
        }
        // Give the collector a few interval ticks after the last commit; under a
        // loaded test runner it may not have been scheduled during the loop.
        std::thread::sleep(Duration::from_millis(25));
        let report = gc.stop();
        // The collector found something to do and the file is still consistent.
        assert!(
            report.reshared_pages + report.trimmed_versions > 0,
            "report: {report:?}"
        );
        let current = service.current_version(&file).unwrap();
        service.read_committed_page(&current, &paths[0]).unwrap();
    }

    #[test]
    fn gc_all_covers_every_file() {
        let service = FileService::in_memory();
        let mut files = Vec::new();
        for _ in 0..3 {
            files.push(file_with_leaves(&service, 2));
        }
        for (file, paths) in &files {
            let v = service.create_version(file).unwrap();
            service.read_page(&v, &paths[0]).unwrap();
            service
                .write_page(&v, &paths[1], Bytes::from_static(b"x"))
                .unwrap();
            service.commit(&v).unwrap();
        }
        let report = service.gc_all().unwrap();
        assert!(report.reshared_pages >= 3, "report: {report:?}");
    }
}
