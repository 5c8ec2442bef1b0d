//! Retiring old versions (§5.1), and the audit of what the block service holds.
//!
//! A file keeps its newest [`history_retention`](crate::ServiceConfig::history_retention)
//! committed versions.  The commit that pushes its chain past that depth retires
//! the oldest versions at once, oldest first, and stops at the file's **low-water
//! mark**: the oldest version pinned in memory, as the base of an uncommitted
//! version or as a current version a caller is trying or waiting on, so neither
//! the chain nor the mark costs a block read.  A sub-file's retirement also stops
//! at a version a retained version of its super-file links: links are block
//! numbers, and a retired one could come back as a page the super-file's own
//! retirement would then free.
//!
//! What dies with a version U is known exactly from the copy-on-write tree: its
//! successor S shares every page of U it did not copy.  So the blocks U reaches
//! and S does not are found by a descent that enters only S's *copied* references
//! (S's own pages, collecting the roots of the subtrees S shares) and then U's
//! pages outside those subtrees.  The cost is O(pages S changed).  The descent
//! works on sets of blocks, not on paths, because insert, remove and move shift
//! references, and it never enters a version page, so a super-file never frees a
//! sub-file's pages.  Shadow copies made only to hold read flags die with their
//! version like any page it copied.  The descent runs when S commits, while both
//! trees are in the page cache, and its result waits in memory for U's
//! retirement; a version linked otherwise (by a walk to the current version, or
//! by recovery) runs it at retirement instead.
//!
//! [`FileService::audit`] is the mark phase this replaced, kept as an oracle:
//! over a quiesced service it compares the blocks the account holds with the
//! blocks the retained and uncommitted versions reach.  Recovery frees by the same
//! rule, which is what makes a crash in the middle of a retirement harmless.

use std::collections::HashSet;
use std::sync::Arc;

use amoeba_block::{BlockError, BlockNr};
use amoeba_capability::{Capability, Rights};

use crate::page::Page;
use crate::service::{FileMeta, FileService, VersionState};
use crate::types::{FsError, Result};

/// What retiring versions accomplished.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct GcReport {
    /// Old committed versions removed from the history.
    pub trimmed_versions: usize,
    /// Total blocks returned to the block service.
    pub freed_blocks: usize,
}

/// What [`FileService::audit`] found.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Audit {
    /// Blocks the service's account holds.
    pub allocated: usize,
    /// Allocated blocks that a retained or an uncommitted version reaches.
    pub reachable: usize,
    /// Allocated blocks that no version reaches: space nothing will ever free.
    pub leaked: usize,
    /// References from a reachable page to a block that is not allocated.
    pub dangling: usize,
}

impl FileService {
    /// Retires the versions of one file that are past the retention depth.
    ///
    /// Every commit already retires what it can; this picks up versions that were
    /// pinned by an uncommitted version when their commit ran.  With nothing to
    /// retire it reads and frees nothing.
    pub fn gc_file(&self, file_cap: &Capability) -> Result<GcReport> {
        let file = self.resolve_file(file_cap, Rights::ADMIN)?;
        let mut file = file.lock();
        self.retire_past_retention(&mut file)
    }

    /// Retires the oldest versions of `file` while its chain is longer than the
    /// retention depth, stopping at the low-water mark.
    pub(crate) fn retire_past_retention(&self, file: &mut FileMeta) -> Result<GcReport> {
        let keep = self.config.history_retention.max(1);
        let mut report = GcReport::default();
        while file.chain.len() > keep
            && !file.pins.contains_key(&file.chain[0])
            && !self.linked_by_parent(file, file.chain[0])?
        {
            let (oldest, successor) = (file.chain[0], file.chain[1]);
            let dead = match file.dies_with.remove(&oldest) {
                Some(dead) => dead,
                None => self.dead_blocks(oldest, successor)?,
            };
            // Forget the version before its page is freed: the number may be
            // reissued at once, even to another file's new version page, and a
            // lookup by number would then find that version instead.
            let id = self.block_index.read().get(&oldest).copied();
            if let Some(id) = id {
                self.forget_version(id, oldest);
            }
            file.chain.pop_front();
            for nr in dead.into_iter().chain([oldest]) {
                if self.pages.free_page(nr).is_ok() {
                    report.freed_blocks += 1;
                }
            }
            report.trimmed_versions += 1;
        }
        Ok(report)
    }

    /// True if a retained version of `file`'s super-file links the version page
    /// at `block`.  The super-file's lock is taken under the sub-file's, never
    /// the other way round.
    fn linked_by_parent(&self, file: &FileMeta, block: BlockNr) -> Result<bool> {
        let Some(parent) = file.parent else {
            return Ok(false);
        };
        let parent = self.file_by_id(parent)?;
        let parent = parent.lock();
        for &nr in &parent.chain {
            let page = self.pages.read_page(nr)?;
            if page.refs.iter().any(|r| r.block == block) {
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// The blocks the version at `old` reaches and its successor at `new` does
    /// not, excluding `old`'s version page.  Reads only.
    pub(crate) fn dead_blocks(&self, old: BlockNr, new: BlockNr) -> Result<Vec<BlockNr>> {
        // The successor's own pages, and the roots of the subtrees it shares.
        let mut own = HashSet::from([new]);
        let mut shared = HashSet::new();
        let mut stack = vec![new];
        while let Some(nr) = stack.pop() {
            let Some(page) = self.page_below(nr, nr == new)? else {
                continue;
            };
            for reference in &page.refs {
                if !reference.flags.copied {
                    shared.insert(reference.block);
                } else if own.insert(reference.block) {
                    stack.push(reference.block);
                }
            }
        }
        // The old version's pages outside them.
        let mut dead = Vec::new();
        let mut seen = HashSet::new();
        let mut stack = vec![old];
        while let Some(nr) = stack.pop() {
            let Some(page) = self.page_below(nr, nr == old)? else {
                continue;
            };
            if nr != old {
                dead.push(nr);
            }
            stack.extend(
                page.refs
                    .iter()
                    .map(|r| r.block)
                    .filter(|b| !own.contains(b) && !shared.contains(b) && seen.insert(*b)),
            );
        }
        Ok(dead)
    }

    /// The page at `nr` if a descent enters it: the root always, any other page
    /// unless it is a version page (a link to a sub-file) or no longer allocated
    /// (a link to a sub-file version that was retired since).
    fn page_below(&self, nr: BlockNr, root: bool) -> Result<Option<Arc<Page>>> {
        match self.pages.read_page(nr) {
            Ok(page) if root || !page.is_version_page() => Ok(Some(page)),
            Ok(_) => Ok(None),
            Err(FsError::Block(BlockError::NoSuchBlock(_))) if !root => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Compares the blocks the service's account holds with the blocks its
    /// versions reach: every retained committed version, every uncommitted
    /// version and the blocks it owns.  Run it over a quiesced service; a
    /// concurrent update makes the counts meaningless.  After any sequence of
    /// updates `leaked` and `dangling` must be 0.
    pub fn audit(&self) -> Result<Audit> {
        let allocated: HashSet<BlockNr> = self
            .pages
            .block_server()
            .recover(self.pages.account())?
            .into_iter()
            .collect();
        let mut roots: Vec<BlockNr> = Vec::new();
        let files: Vec<_> = self.files.read().values().cloned().collect();
        for file in files {
            roots.extend(file.lock().chain.iter().copied());
        }
        let versions: Vec<_> = self.versions.read().values().cloned().collect();
        for meta in versions {
            let meta = meta.lock();
            if meta.state == VersionState::Uncommitted {
                roots.push(meta.block);
                roots.extend(meta.owned_blocks.iter().copied());
            }
        }
        let (reachable, dangling) = mark(roots, |nr| {
            if !allocated.contains(&nr) {
                return Ok(None);
            }
            self.pages.read_page(nr).map(Some)
        })?;
        let reachable = reachable.len();
        Ok(Audit {
            allocated: allocated.len(),
            reachable,
            leaked: allocated.len() - reachable,
            dangling,
        })
    }
}

/// Marks every block reachable from `roots` and counts dangling references.
/// A root is entered whatever it is; any other version page is a link to a
/// sub-file and is not entered.  `page(nr)` is `None` for a block that is not
/// allocated, and each reference to one counts as dangling.
pub(crate) fn mark(
    roots: impl IntoIterator<Item = BlockNr>,
    mut page: impl FnMut(BlockNr) -> Result<Option<Arc<Page>>>,
) -> Result<(HashSet<BlockNr>, usize)> {
    let mut reachable = HashSet::new();
    let mut dangling = 0;
    let mut stack: Vec<(BlockNr, bool)> = roots.into_iter().map(|nr| (nr, true)).collect();
    while let Some((nr, root)) = stack.pop() {
        if reachable.contains(&nr) {
            continue;
        }
        let Some(p) = page(nr)? else {
            dangling += usize::from(!root);
            continue;
        };
        if root || !p.is_version_page() {
            reachable.insert(nr);
            stack.extend(p.refs.iter().map(|r| (r.block, false)));
        }
    }
    Ok((reachable, dangling))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path::PagePath;
    use bytes::Bytes;

    fn service(history_retention: usize) -> Arc<FileService> {
        let config = crate::service::ServiceConfig {
            history_retention,
            ..Default::default()
        };
        FileService::with_config(
            Arc::new(amoeba_block::BlockServer::new(Arc::new(
                amoeba_block::MemStore::new(),
            ))),
            config,
        )
    }

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

    fn assert_clean(service: &FileService) -> Audit {
        let audit = service.audit().unwrap();
        assert_eq!((audit.leaked, audit.dangling), (0, 0), "{audit:?}");
        audit
    }

    #[test]
    fn read_only_shadow_pages_are_reclaimed_with_their_version() {
        // Shadow copies made only for read flags die with their version, and
        // retirement returns every one of them.
        let service = service(1);
        let (file, paths) = file_with_leaves(&service, 4);
        let before = assert_clean(&service).allocated;
        // An update that reads one page and writes another: the read page is
        // shadowed only for flag bookkeeping.
        let v = service.create_version(&file).unwrap();
        service.read_page(&v, &paths[0]).unwrap();
        service
            .write_page(&v, &paths[1], Bytes::from_static(b"w"))
            .unwrap();
        service.commit(&v).unwrap();
        // Retention 1: the commit retired the previous version, and the only
        // blocks left are the new version's page, its two copies and the two
        // pages it shares.
        assert_eq!(assert_clean(&service).allocated, before);

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
        assert_clean(&service);
        let current = service.current_version(&file).unwrap();
        assert_eq!(
            service.read_committed_page(&current, &paths[0]).unwrap(),
            Bytes::from_static(b"keep me")
        );
    }

    #[test]
    fn history_is_trimmed_to_the_retention_depth() {
        let service = service(3);
        let (file, paths) = file_with_leaves(&service, 2);
        for i in 0..10u8 {
            let v = service.create_version(&file).unwrap();
            service
                .write_page(&v, &paths[0], Bytes::from(vec![i]))
                .unwrap();
            service.commit(&v).unwrap();
            assert!(service.committed_version_count(&file).unwrap() <= 3);
        }
        assert_eq!(service.committed_version_count(&file).unwrap(), 3);
        // The commits left nothing for a collection to do.
        assert_eq!(service.gc_file(&file).unwrap(), GcReport::default());
        assert_clean(&service);
        // The surviving current version still reads correctly.
        let current = service.current_version(&file).unwrap();
        assert_eq!(
            service.read_committed_page(&current, &paths[0]).unwrap(),
            Bytes::from(vec![9u8])
        );
    }

    #[test]
    fn trimming_preserves_pages_shared_with_retained_versions() {
        let service = service(2);
        let (file, paths) = file_with_leaves(&service, 8);
        // Only page 0 is ever rewritten; pages 1..7 stay shared across the history.
        for i in 0..6u8 {
            let v = service.create_version(&file).unwrap();
            service
                .write_page(&v, &paths[0], Bytes::from(vec![i]))
                .unwrap();
            service.commit(&v).unwrap();
        }
        assert_clean(&service);
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
        let service = service(1);
        let (file, paths) = file_with_leaves(&service, 2);
        // Leave an uncommitted version hanging off the current version, and
        // commit past it: its base is the low-water mark and stays.
        let pending = service.create_version(&file).unwrap();
        service.read_page(&pending, &paths[0]).unwrap();
        for round in 0..3u8 {
            let v = service.create_version(&file).unwrap();
            service
                .write_page(&v, &paths[0], Bytes::from(vec![round]))
                .unwrap();
            service.commit(&v).unwrap();
        }
        assert_eq!(service.committed_version_count(&file).unwrap(), 4);
        assert_eq!(service.gc_file(&file).unwrap(), GcReport::default());
        assert_clean(&service);
        // The pending version still works; once it is gone, the versions it
        // pinned are retired by the next collection.
        assert_eq!(
            service.read_page(&pending, &paths[1]).unwrap(),
            Bytes::from(vec![1u8])
        );
        service.abort_version(&pending).unwrap();
        let report = service.gc_file(&file).unwrap();
        assert_eq!(report.trimmed_versions, 3);
        assert_eq!(service.committed_version_count(&file).unwrap(), 1);
        assert_clean(&service);
    }

    #[test]
    fn space_shrinks_after_collection() {
        let service = service(2);
        let (file, paths) = file_with_leaves(&service, 8);
        // Many read-heavy updates create lots of shadow copies.
        let mut counts = Vec::new();
        for round in 0..5u8 {
            let v = service.create_version(&file).unwrap();
            for path in &paths {
                service.read_page(&v, path).unwrap();
            }
            service
                .write_page(&v, &paths[0], Bytes::from(vec![round]))
                .unwrap();
            service.commit(&v).unwrap();
            counts.push(assert_clean(&service).allocated);
        }
        // Two retained versions of one shape: the count stops growing.
        assert_eq!(counts[2], counts[4], "{counts:?}");
    }

    #[test]
    fn every_file_is_trimmed_by_its_own_commits() {
        // Retirement is per file and runs at commit: every file is trimmed
        // without a pass over the others.
        let service = service(1);
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
            assert_eq!(service.committed_version_count(file).unwrap(), 1);
        }
        assert_clean(&service);
    }

    #[test]
    fn a_collection_with_nothing_to_retire_reads_nothing() {
        let service = service(8);
        let (file, paths) = file_with_leaves(&service, 4);
        for round in 0..3u8 {
            let v = service.create_version(&file).unwrap();
            service
                .write_page(&v, &paths[0], Bytes::from(vec![round]))
                .unwrap();
            service.commit(&v).unwrap();
        }
        let (before, hits) = (service.block_server().stats(), service.cache_hits());
        assert_eq!(service.gc_file(&file).unwrap(), GcReport::default());
        let io = service.block_server().stats().since(&before);
        assert_eq!((io.reads, service.cache_hits() - hits, io.frees), (0, 0, 0));
    }

    #[test]
    fn retirement_follows_moved_subtrees() {
        // A move shifts a shared subtree to another parent: the descent is
        // set-based, so the moved pages survive and the emptied parent dies.
        let service = service(1);
        let file = service.create_file().unwrap();
        let v = service.create_version(&file).unwrap();
        let a = service
            .append_page(&v, &PagePath::root(), Bytes::from_static(b"a"))
            .unwrap();
        let b = service
            .append_page(&v, &PagePath::root(), Bytes::from_static(b"b"))
            .unwrap();
        let deep = service
            .append_page(&v, &a, Bytes::from_static(b"deep"))
            .unwrap();
        service
            .append_page(&v, &deep, Bytes::from_static(b"deeper"))
            .unwrap();
        service.commit(&v).unwrap();

        let v = service.create_version(&file).unwrap();
        let moved = service.move_subtree(&v, &deep, &b, 0).unwrap();
        service.remove_page(&v, &a).unwrap();
        service.commit(&v).unwrap();
        assert_clean(&service);
        let current = service.current_version(&file).unwrap();
        let moved = PagePath::new(vec![0, moved.last_index().unwrap()]);
        assert_eq!(
            service.read_committed_page(&current, &moved).unwrap(),
            Bytes::from_static(b"deep")
        );
        assert_eq!(
            service
                .read_committed_page(&current, &moved.child(0))
                .unwrap(),
            Bytes::from_static(b"deeper")
        );
    }
}
