//! The optimistic concurrency control mechanism: validation and commit (§5.2).
//!
//! The Amoeba File Service reduces Kung & Robinson's validation conditions to two,
//! because the critical section of the validation phase and the whole write phase are
//! performed as one atomic action (a test-and-set of the base version's *commit
//! reference*):
//!
//! 1. version `V.a` commits before version `V.b` is created — trivially true when
//!    `V.b` is based on the current version, so such commits always succeed; or
//! 2. the write set of `V.a` does not intersect the read set of `V.b`, and `V.a`
//!    commits before `V.b`.
//!
//! When the base version is no longer current, the service fetches the version that
//! superseded it and runs `serialise`: a single parallel descent of both page trees
//! that simultaneously *checks* condition (2) using the C/R/W/S/M flags and *merges*
//! the two updates by "replacing unaccessed parts in V.b's page tree by corresponding
//! written parts in V.c's page tree".  Untouched (uncopied) subtrees on either side
//! are never descended, which is what makes the test fast when at least one of the
//! concurrent updates is small.

use std::sync::atomic::Ordering;

use amoeba_block::BlockNr;
use amoeba_capability::{Capability, Port, Rights};

use crate::flags::PageFlags;
use crate::page::{Page, PageRef};
use crate::path::PagePath;
use crate::service::{FileService, VersionMeta, VersionState};
use crate::types::{FsError, Result};

/// What a successful commit reports back to the client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommitReceipt {
    /// True if the version committed on the fast path: its base was still the current
    /// version, so no validation was necessary.
    pub fast_path: bool,
    /// Number of serialisability tests that were run against concurrently committed
    /// versions before this commit succeeded.
    pub validations: u32,
    /// Total number of pages visited by those tests.
    pub pages_compared: usize,
}

/// Outcome of one serialisability test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SerialiseReport {
    /// True if the two updates are serialisable.
    pub serialisable: bool,
    /// Number of pages visited during the parallel descent.
    pub pages_compared: usize,
}

impl FileService {
    /// Commits an uncommitted version, making it the current version of its file.
    ///
    /// On a serialisability conflict the version is removed (its private pages are
    /// freed) and [`FsError::SerialisabilityConflict`] is returned; the client must
    /// redo the update on a fresh version, as the paper prescribes.
    pub fn commit(&self, version_cap: &Capability) -> Result<CommitReceipt> {
        let meta_arc = self.resolve_version(version_cap, Rights::COMMIT)?;
        let mut meta = meta_arc.lock();
        if meta.state != VersionState::Uncommitted {
            return Err(FsError::AlreadyCommitted);
        }
        let my_block = meta.block;

        // "First it ascertains that all of V.b's pages are safely on disk."  Page
        // writes land in the write-back buffer, so this is where durability is
        // established: flush every dirty page, children before parents, version
        // page last, so no durable page ever references an unwritten one.
        self.flush_version_to_disk(&mut meta)?;

        let my_page = self.pages.read_page(my_block)?;
        let mut base_block = my_page
            .base_reference
            .ok_or_else(|| FsError::CorruptPage("uncommitted version has no base".into()))?;

        let mut receipt = CommitReceipt {
            fast_path: true,
            validations: 0,
            pages_compared: 0,
        };

        loop {
            // The only critical section in version commit: test and set the commit
            // reference of the base version page.
            let successor = self.try_set_commit_reference(base_block, my_block)?;
            match successor {
                None => break, // We are the new current version.
                Some(successor_block) => {
                    receipt.fast_path = false;
                    receipt.validations += 1;
                    let report = self.serialise_and_merge(&mut meta, my_block, successor_block)?;
                    receipt.pages_compared += report.pages_compared;
                    self.commit_stats
                        .pages_compared
                        .fetch_add(report.pages_compared as u64, Ordering::Relaxed);
                    if !report.serialisable {
                        drop(meta);
                        self.remove_conflicting_version(&meta_arc, version_cap)?;
                        self.commit_stats.conflicts.fetch_add(1, Ordering::Relaxed);
                        return Err(FsError::SerialisabilityConflict);
                    }
                    // The updates are serialisable; V.b now succeeds the version that
                    // superseded its original base.  Try again against it.
                    base_block = successor_block;
                }
            }
        }

        // Commit succeeded: update bookkeeping.
        meta.state = VersionState::Committed;
        let file_id = meta.file;
        // Release the version lock before touching the file table so the garbage
        // collector (file lock, then version locks) can never deadlock with us.
        drop(meta);
        // The new current version must not carry stale lock fields.  Versions are
        // created with both fields NULL, so rewriting the page is only needed in
        // the rare case something actually set one; the read-only probe costs
        // neither a physical write nor a page copy on the common fast path.
        self.pages.update_page(my_block, |page| {
            let header = page
                .version
                .as_ref()
                .ok_or_else(|| FsError::CorruptPage("expected version page".into()))?;
            if header.top_lock.is_null() && header.inner_lock.is_null() {
                return Ok((false, ()));
            }
            let header = page.version.as_mut().expect("checked above");
            header.top_lock = Port::NULL;
            header.inner_lock = Port::NULL;
            Ok((true, ()))
        })?;
        let file = self.file_by_id(file_id)?;
        file.lock().current_hint = my_block;

        if receipt.fast_path {
            self.commit_stats.fast_path.fetch_add(1, Ordering::Relaxed);
        } else {
            self.commit_stats.validated.fetch_add(1, Ordering::Relaxed);
        }
        Ok(receipt)
    }

    /// Makes every buffered page reachable from the version page durable, in an
    /// order that keeps the on-disk state self-consistent at all times: children
    /// before parents, the version page last.  The walk follows *buffered* blocks,
    /// not just the version's own dirty set, so committing a super-file version
    /// also flushes the sub-file version pages its tree references — a durable
    /// committed page must never point at an unwritten block.  Buffered blocks of
    /// this version that are no longer reachable (their references were removed
    /// again before commit) are freed without ever being written.  Returns the
    /// number of pages flushed.
    ///
    /// The physical shape is **one scatter-gather batch of all data pages, then
    /// the version page by itself**: two block-write calls per commit instead of
    /// one per dirty page, and over replicated storage two RPCs per replica.
    /// The children-first order is preserved *inside* the batch and stores
    /// apply batch entries in order, so a crash mid-batch leaves only a
    /// children-first prefix durable; keeping the version page out of the batch
    /// keeps it strictly last — it becomes durable only after every data page
    /// it references.
    ///
    /// Over a replica set each call is acknowledged once a majority of the
    /// current membership epoch applied it, so the strictly-last guarantee
    /// holds **per acknowledged quorum** rather than per replica: the
    /// version-page call is issued only after the data batch was quorum-acked,
    /// each replica receives both through one FIFO stream (never the version
    /// page before the data), and a replica that missed either is barred from
    /// reads until an epoch-stamped resync replays its ordered intentions.  Any
    /// replica eligible to serve a read therefore saw the version page only
    /// after every page it references — the same invariant, quorum-wide.
    pub(crate) fn flush_version_to_disk(&self, meta: &mut VersionMeta) -> Result<usize> {
        if meta.dirty_blocks.is_empty() {
            return Ok(0);
        }
        // The dirty set is only cleared once the flush succeeded: a transient
        // block-store failure leaves it intact, so a retried commit flushes the
        // remaining pages instead of "committing" a version whose pages were
        // never made durable.  (Already-flushed blocks are no longer in the
        // buffer; re-flushing them is a no-op, and a batch retried after a
        // partial failure re-puts its prefix idempotently.)
        let mut order = Vec::with_capacity(meta.dirty_blocks.len());
        let mut visited = std::collections::HashSet::new();
        self.collect_flush_order(meta.block, &mut visited, &mut order)?;
        let flushed = match order.split_last() {
            // The walk pushes its root — the version page — last.
            Some((&version_page, data_pages)) => {
                let mut flushed = self
                    .pages
                    .flush_blocks_batched(data_pages.iter().copied())?;
                flushed += self.pages.flush_blocks_batched([version_page])?;
                flushed
            }
            None => 0,
        };
        let dirty = std::mem::take(&mut meta.dirty_blocks);
        for nr in dirty {
            // Still buffered and not reached by the walk: never written, no
            // longer referenced — pure garbage.  (A block that is merely absent
            // from the buffer was flushed through another version's commit and
            // must be left alone.)
            if !visited.contains(&nr) && self.pages.is_buffered(nr) {
                self.pages.drop_buffered(nr);
                if meta.owned_blocks.remove(&nr) {
                    let _ = self.pages.free_page(nr);
                }
            }
        }
        Ok(flushed)
    }

    /// Post-order walk over the buffered (copied) subgraph under `block`: children
    /// are appended before their parents, the root last.
    fn collect_flush_order(
        &self,
        block: BlockNr,
        visited: &mut std::collections::HashSet<BlockNr>,
        order: &mut Vec<BlockNr>,
    ) -> Result<()> {
        if !self.pages.is_buffered(block) || !visited.insert(block) {
            return Ok(());
        }
        let page = self.pages.read_page(block)?;
        for reference in &page.refs {
            if reference.flags.copied {
                self.collect_flush_order(reference.block, visited, order)?;
            }
        }
        order.push(block);
        Ok(())
    }

    /// The critical section: atomically test the commit reference of the version page
    /// at `base_block` and set it to `new_block` if it is nil.  Returns `None` on
    /// success, or the existing successor's block number if the base has already been
    /// superseded.
    pub(crate) fn try_set_commit_reference(
        &self,
        base_block: BlockNr,
        new_block: BlockNr,
    ) -> Result<Option<BlockNr>> {
        self.pages.update_page(base_block, |page| {
            let header = page
                .version
                .as_ref()
                .ok_or_else(|| FsError::CorruptPage("expected version page".into()))?;
            match header.commit_reference {
                None => {
                    // Only the successful set pays for a private page copy;
                    // the failed test returns without cloning anything.
                    page.version
                        .as_mut()
                        .expect("checked above")
                        .commit_reference = Some(new_block);
                    Ok((true, None))
                }
                Some(existing) => Ok((false, Some(existing))),
            }
        })
    }

    /// Removes a version whose commit failed validation: "V.b is removed, and its
    /// owner notified.  The update can be retried on another version."
    fn remove_conflicting_version(
        &self,
        meta_arc: &std::sync::Arc<parking_lot::Mutex<VersionMeta>>,
        version_cap: &Capability,
    ) -> Result<()> {
        let (owned, block) = {
            let mut meta = meta_arc.lock();
            meta.state = VersionState::Aborted;
            meta.dirty_blocks.clear();
            (std::mem::take(&mut meta.owned_blocks), meta.block)
        };
        for nr in owned {
            let _ = self.pages.free_page(nr);
        }
        let _ = self.pages.free_page(block);
        self.forget_version(version_cap.object, block);
        Ok(())
    }

    // ------------------------------------------------------------------
    // The serialisability test (and the merge done in the same pass).
    // ------------------------------------------------------------------

    /// Tests whether the update recorded in the uncommitted version at `b_block` is
    /// serialisable after the committed version at `c_block`, and, if it is, merges
    /// C's written parts into B's tree and rebases B onto C.
    pub(crate) fn serialise_and_merge(
        &self,
        meta_b: &mut VersionMeta,
        b_block: BlockNr,
        c_block: BlockNr,
    ) -> Result<SerialiseReport> {
        // B is rebased (and therefore rewritten) whenever the test passes, so a
        // private working copy of its version page is taken up front.
        let mut b_page = (*self.pages.read_page(b_block)?).clone();
        let c_page = self.pages.read_page(c_block)?;
        let b_header = b_page
            .version
            .clone()
            .ok_or_else(|| FsError::CorruptPage("B is not a version page".into()))?;
        let c_header = c_page
            .version
            .clone()
            .ok_or_else(|| FsError::CorruptPage("C is not a version page".into()))?;

        let mut pages_compared = 0usize;

        // Root-level conflict test on the version pages' own data and references.
        let bf = b_header.root_flags;
        let cf = c_header.root_flags;
        if (cf.written && bf.read) || (cf.modified && bf.searched) {
            return Ok(SerialiseReport {
                serialisable: false,
                pages_compared,
            });
        }

        if cf.modified && !bf.searched {
            // C restructured the root's references and B never looked at them: adopt
            // C's reference table wholesale (B cannot have private children here).
            b_page.refs = c_page
                .refs
                .iter()
                .map(|r| PageRef {
                    block: r.block,
                    flags: PageFlags::CLEAR,
                })
                .collect();
        } else if bf.modified {
            // B restructured the root's references.  C did not (or the conflict test
            // above would have fired), but if C touched anything below this page the
            // positional correspondence needed for merging is gone; be conservative.
            if c_page.refs.iter().any(|r| r.flags.copied) {
                return Ok(SerialiseReport {
                    serialisable: false,
                    pages_compared,
                });
            }
        } else {
            // Neither side restructured: merge the children positionally.
            let max_refs = b_page.refs.len().max(c_page.refs.len());
            for index in 0..max_refs {
                let rb = b_page.refs.get(index).copied();
                let rc = c_page.refs.get(index).copied();
                // Reference present on only one side without either side having
                // the `modified` flag should not happen for well-formed trees; if
                // it does, keep B's view (B is serialised later).
                if let (Some(rb), Some(rc)) = (rb, rc) {
                    match self.merge_child(meta_b, rb, rc, &mut pages_compared)? {
                        MergeOutcome::Conflict => {
                            return Ok(SerialiseReport {
                                serialisable: false,
                                pages_compared,
                            });
                        }
                        MergeOutcome::Keep => {}
                        MergeOutcome::Replace(new_ref) => {
                            b_page.refs[index] = new_ref;
                        }
                    }
                }
            }
        }

        // Merge the root data: keep B's if B wrote it, otherwise adopt C's if C wrote.
        if !bf.written && cf.written {
            b_page.data = c_page.data.clone();
        }

        // Rebase B onto C so the next commit attempt goes for C's commit reference;
        // the rebase always dirties B's version page, so it is always written back.
        // B's pages were flushed before the first commit attempt, so merge writes
        // are write-through: the next test-and-set needs them durable.
        b_page.base_reference = Some(c_block);
        self.pages
            .write_page(b_block, &std::sync::Arc::new(b_page))?;

        Ok(SerialiseReport {
            serialisable: true,
            pages_compared,
        })
    }

    /// Merges one corresponding pair of child references.  `rb` is B's reference,
    /// `rc` is C's reference to the same position under their common ancestor.
    fn merge_child(
        &self,
        meta_b: &mut VersionMeta,
        rb: PageRef,
        rc: PageRef,
        pages_compared: &mut usize,
    ) -> Result<MergeOutcome> {
        // "Uncopied parts of the tree in either V.b or V.c need not be visited since
        // they can neither have been read nor written."
        if !rc.flags.copied {
            return Ok(MergeOutcome::Keep);
        }
        if !rb.flags.copied {
            // B never touched this subtree: the new current version adopts C's
            // (already committed) subtree, shared.
            return Ok(MergeOutcome::Replace(PageRef {
                block: rc.block,
                flags: PageFlags::CLEAR,
            }));
        }

        // Both sides copied the page: check the validation condition at this page.
        if (rc.flags.written && rb.flags.read) || (rc.flags.modified && rb.flags.searched) {
            return Ok(MergeOutcome::Conflict);
        }

        let mut b_child = (*self.pages.read_page(rb.block)?).clone();
        let c_child = self.pages.read_page(rc.block)?;
        *pages_compared += 2;

        let mut changed = false;

        if rc.flags.modified && !rb.flags.searched {
            // C restructured this page's references; B never looked at them.
            b_child.refs = c_child
                .refs
                .iter()
                .map(|r| PageRef {
                    block: r.block,
                    flags: PageFlags::CLEAR,
                })
                .collect();
            changed = true;
        } else if rb.flags.modified {
            // B restructured; conservative conflict if C touched anything below.
            if c_child.refs.iter().any(|r| r.flags.copied) {
                return Ok(MergeOutcome::Conflict);
            }
        } else {
            let max_refs = b_child.refs.len().max(c_child.refs.len());
            for index in 0..max_refs {
                let rb_child = b_child.refs.get(index).copied();
                let rc_child = c_child.refs.get(index).copied();
                if let (Some(rbc), Some(rcc)) = (rb_child, rc_child) {
                    match self.merge_child(meta_b, rbc, rcc, pages_compared)? {
                        MergeOutcome::Conflict => return Ok(MergeOutcome::Conflict),
                        MergeOutcome::Keep => {}
                        MergeOutcome::Replace(new_ref) => {
                            b_child.refs[index] = new_ref;
                            changed = true;
                        }
                    }
                }
            }
        }

        // Data of this page: B's write wins; otherwise adopt C's write.
        if !rb.flags.written && rc.flags.written {
            b_child.data = c_child.data.clone();
            changed = true;
        }

        if changed {
            // B's child is a private copy, so it can be rewritten in place.
            self.pages
                .write_page(rb.block, &std::sync::Arc::new(b_child))?;
        }
        let _ = meta_b;
        Ok(MergeOutcome::Keep)
    }

    // ------------------------------------------------------------------
    // Read-only serialisability test (used by the cache, §5.4).
    // ------------------------------------------------------------------

    /// Runs the serialisability test between the (committed) version at `old_block`
    /// and the (committed) version at `new_block` *without* merging: returns whether a
    /// hypothetical update that read everything the old version contains would still
    /// be valid, plus the set of page paths written or restructured between the two.
    ///
    /// This is the primitive behind cache validation: the paths returned are exactly
    /// the cache entries that must be discarded.
    pub fn changed_paths_between(
        &self,
        old_block: BlockNr,
        new_block: BlockNr,
    ) -> Result<Vec<PagePath>> {
        // Walk the commit chain from `old_block` to `new_block`, accumulating the
        // write set of every version committed in between.
        let mut changed = Vec::new();
        let mut block = old_block;
        let mut hops = 0usize;
        while block != new_block {
            let (page, header) = self.read_version_page_at(block)?;
            let next = match header.commit_reference {
                Some(next) => next,
                None => break,
            };
            let (next_page, next_header) = self.read_version_page_at(next)?;
            // The write set of `next` relative to its base.
            collect_write_set(
                self,
                &next_page,
                &next_header.root_flags,
                &PagePath::root(),
                &mut changed,
            )?;
            let _ = page;
            block = next;
            hops += 1;
            if hops > 1_000_000 {
                return Err(FsError::CorruptPage(
                    "commit chain does not terminate".into(),
                ));
            }
        }
        changed.sort();
        changed.dedup();
        Ok(changed)
    }

    /// Collects the write-set paths of a single committed version (pages whose data
    /// was written or whose references were modified), pruning untouched subtrees.
    pub fn write_set_of(&self, version_block: BlockNr) -> Result<Vec<PagePath>> {
        let (page, header) = self.read_version_page_at(version_block)?;
        let mut paths = Vec::new();
        collect_write_set(
            self,
            &page,
            &header.root_flags,
            &PagePath::root(),
            &mut paths,
        )?;
        paths.sort();
        paths.dedup();
        Ok(paths)
    }
}

/// Result of merging one pair of corresponding child references.
enum MergeOutcome {
    /// The updates touch this subtree in an irreconcilable way.
    Conflict,
    /// B's entry already describes the merged state.
    Keep,
    /// B's entry must be replaced by this reference.
    Replace(PageRef),
}

/// Recursive helper for [`FileService::write_set_of`].
fn collect_write_set(
    service: &FileService,
    page: &Page,
    own_flags: &PageFlags,
    path: &PagePath,
    out: &mut Vec<PagePath>,
) -> Result<()> {
    if own_flags.written || own_flags.modified {
        out.push(path.clone());
    }
    for (index, reference) in page.refs.iter().enumerate() {
        if !reference.flags.copied {
            continue; // Untouched subtree: nothing below it was written.
        }
        let child_path = path.child(index as u16);
        if reference.flags.written || reference.flags.modified {
            out.push(child_path.clone());
        }
        let child = service.pages.read_page(reference.block)?;
        collect_write_set(service, &child, &reference.flags, &child_path, out)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    /// Builds a file with `n` committed leaf pages under the root.
    fn build_file(service: &FileService, n: u16) -> (Capability, Vec<PagePath>) {
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
    fn sequential_commits_take_the_fast_path() {
        let service = FileService::in_memory();
        let (file, paths) = build_file(&service, 4);
        for round in 0..3u8 {
            let v = service.create_version(&file).unwrap();
            service
                .write_page(&v, &paths[0], Bytes::from(vec![round]))
                .unwrap();
            let receipt = service.commit(&v).unwrap();
            assert!(receipt.fast_path);
            assert_eq!(receipt.validations, 0);
        }
        let stats = service.commit_stats();
        assert!(stats.fast_path >= 3);
        assert_eq!(stats.conflicts, 0);
    }

    #[test]
    fn disjoint_concurrent_updates_both_commit() {
        let service = FileService::in_memory();
        let (file, paths) = build_file(&service, 4);
        // Two versions based on the same current version.
        let va = service.create_version(&file).unwrap();
        let vb = service.create_version(&file).unwrap();
        service
            .write_page(&va, &paths[0], Bytes::from_static(b"A"))
            .unwrap();
        service
            .write_page(&vb, &paths[3], Bytes::from_static(b"B"))
            .unwrap();
        let ra = service.commit(&va).unwrap();
        let rb = service.commit(&vb).unwrap();
        assert!(ra.fast_path);
        assert!(!rb.fast_path, "the second committer must validate");
        assert_eq!(rb.validations, 1);

        // The merged current version contains both updates.
        let current = service.current_version(&file).unwrap();
        assert_eq!(
            service.read_committed_page(&current, &paths[0]).unwrap(),
            Bytes::from_static(b"A")
        );
        assert_eq!(
            service.read_committed_page(&current, &paths[3]).unwrap(),
            Bytes::from_static(b"B")
        );
    }

    #[test]
    fn read_write_overlap_is_a_conflict() {
        let service = FileService::in_memory();
        let (file, paths) = build_file(&service, 2);
        let va = service.create_version(&file).unwrap();
        let vb = service.create_version(&file).unwrap();
        // A writes page 0; B reads page 0 (and writes page 1).
        service
            .write_page(&va, &paths[0], Bytes::from_static(b"A"))
            .unwrap();
        service.read_page(&vb, &paths[0]).unwrap();
        service
            .write_page(&vb, &paths[1], Bytes::from_static(b"B"))
            .unwrap();
        service.commit(&va).unwrap();
        let err = service.commit(&vb).unwrap_err();
        assert_eq!(err, FsError::SerialisabilityConflict);
        assert_eq!(service.commit_stats().conflicts, 1);
        // The conflicting version was removed.
        assert_eq!(
            service.version_state(&vb).unwrap_err(),
            FsError::NoSuchVersion
        );
        // But the file's current version still reflects A's committed update.
        let current = service.current_version(&file).unwrap();
        assert_eq!(
            service.read_committed_page(&current, &paths[0]).unwrap(),
            Bytes::from_static(b"A")
        );
    }

    #[test]
    fn blind_write_write_overlap_is_serialisable_and_last_committer_wins() {
        let service = FileService::in_memory();
        let (file, paths) = build_file(&service, 2);
        let va = service.create_version(&file).unwrap();
        let vb = service.create_version(&file).unwrap();
        service
            .write_page(&va, &paths[0], Bytes::from_static(b"first"))
            .unwrap();
        service
            .write_page(&vb, &paths[0], Bytes::from_static(b"second"))
            .unwrap();
        service.commit(&va).unwrap();
        service.commit(&vb).unwrap();
        let current = service.current_version(&file).unwrap();
        assert_eq!(
            service.read_committed_page(&current, &paths[0]).unwrap(),
            Bytes::from_static(b"second")
        );
    }

    #[test]
    fn conflict_with_stale_read_of_root_data() {
        let service = FileService::in_memory();
        let file = service.create_file().unwrap();
        let va = service.create_version(&file).unwrap();
        let vb = service.create_version(&file).unwrap();
        service
            .write_page(&va, &PagePath::root(), Bytes::from_static(b"new root"))
            .unwrap();
        // B reads the root data (stale) and writes something based on it elsewhere.
        service.read_page(&vb, &PagePath::root()).unwrap();
        service.commit(&va).unwrap();
        assert_eq!(
            service.commit(&vb).unwrap_err(),
            FsError::SerialisabilityConflict
        );
    }

    #[test]
    fn three_way_race_chains_validations() {
        let service = FileService::in_memory();
        let (file, paths) = build_file(&service, 6);
        let v1 = service.create_version(&file).unwrap();
        let v2 = service.create_version(&file).unwrap();
        let v3 = service.create_version(&file).unwrap();
        service
            .write_page(&v1, &paths[0], Bytes::from_static(b"1"))
            .unwrap();
        service
            .write_page(&v2, &paths[1], Bytes::from_static(b"2"))
            .unwrap();
        service
            .write_page(&v3, &paths[2], Bytes::from_static(b"3"))
            .unwrap();
        service.commit(&v1).unwrap();
        service.commit(&v2).unwrap();
        let receipt = service.commit(&v3).unwrap();
        assert!(receipt.validations >= 1);
        let current = service.current_version(&file).unwrap();
        for (i, expect) in [b"1", b"2", b"3"].iter().enumerate() {
            assert_eq!(
                service.read_committed_page(&current, &paths[i]).unwrap(),
                Bytes::from_static(*expect)
            );
        }
    }

    #[test]
    fn deep_disjoint_updates_merge() {
        let service = FileService::in_memory();
        let file = service.create_file().unwrap();
        let v0 = service.create_version(&file).unwrap();
        let left = service
            .append_page(&v0, &PagePath::root(), Bytes::from_static(b"left"))
            .unwrap();
        let right = service
            .append_page(&v0, &PagePath::root(), Bytes::from_static(b"right"))
            .unwrap();
        let ll = service
            .append_page(&v0, &left, Bytes::from_static(b"l/0"))
            .unwrap();
        let rr = service
            .append_page(&v0, &right, Bytes::from_static(b"r/0"))
            .unwrap();
        service.commit(&v0).unwrap();

        let va = service.create_version(&file).unwrap();
        let vb = service.create_version(&file).unwrap();
        service
            .write_page(&va, &ll, Bytes::from_static(b"A deep"))
            .unwrap();
        service
            .write_page(&vb, &rr, Bytes::from_static(b"B deep"))
            .unwrap();
        service.commit(&va).unwrap();
        service.commit(&vb).unwrap();

        let current = service.current_version(&file).unwrap();
        assert_eq!(
            service.read_committed_page(&current, &ll).unwrap(),
            Bytes::from_static(b"A deep")
        );
        assert_eq!(
            service.read_committed_page(&current, &rr).unwrap(),
            Bytes::from_static(b"B deep")
        );
    }

    #[test]
    fn structural_change_conflicts_with_search() {
        let service = FileService::in_memory();
        let (file, _paths) = build_file(&service, 3);
        let va = service.create_version(&file).unwrap();
        let vb = service.create_version(&file).unwrap();
        // A restructures the root's references (removes a page).
        service.remove_page(&va, &PagePath::new(vec![1])).unwrap();
        // B searches the root's references (asks for its shape).
        service.page_info(&vb, &PagePath::root()).unwrap();
        service
            .write_page(&vb, &PagePath::new(vec![0]), Bytes::from_static(b"x"))
            .unwrap();
        service.commit(&va).unwrap();
        assert_eq!(
            service.commit(&vb).unwrap_err(),
            FsError::SerialisabilityConflict
        );
    }

    #[test]
    fn commit_of_already_committed_version_fails() {
        let service = FileService::in_memory();
        let (file, _) = build_file(&service, 1);
        let v = service.create_version(&file).unwrap();
        service.commit(&v).unwrap();
        assert_eq!(service.commit(&v).unwrap_err(), FsError::AlreadyCommitted);
    }

    #[test]
    fn write_set_of_reports_written_paths() {
        let service = FileService::in_memory();
        let (file, paths) = build_file(&service, 4);
        let v = service.create_version(&file).unwrap();
        service
            .write_page(&v, &paths[2], Bytes::from_static(b"changed"))
            .unwrap();
        service.commit(&v).unwrap();
        let block = service.current_version_block(&file).unwrap();
        let write_set = service.write_set_of(block).unwrap();
        assert_eq!(write_set, vec![paths[2].clone()]);
    }

    #[test]
    fn changed_paths_between_accumulates_over_the_chain() {
        let service = FileService::in_memory();
        let (file, paths) = build_file(&service, 4);
        let old_block = service.current_version_block(&file).unwrap();
        for i in [0usize, 2] {
            let v = service.create_version(&file).unwrap();
            service
                .write_page(&v, &paths[i], Bytes::from_static(b"upd"))
                .unwrap();
            service.commit(&v).unwrap();
        }
        let new_block = service.current_version_block(&file).unwrap();
        let changed = service.changed_paths_between(old_block, new_block).unwrap();
        assert_eq!(changed, vec![paths[0].clone(), paths[2].clone()]);
        // Nothing changed between a version and itself.
        assert!(service
            .changed_paths_between(new_block, new_block)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn serialisability_test_prunes_untouched_subtrees() {
        let service = FileService::in_memory();
        // A wide file: 64 leaves.
        let (file, paths) = build_file(&service, 64);
        let va = service.create_version(&file).unwrap();
        let vb = service.create_version(&file).unwrap();
        service
            .write_page(&va, &paths[0], Bytes::from_static(b"A"))
            .unwrap();
        service
            .write_page(&vb, &paths[63], Bytes::from_static(b"B"))
            .unwrap();
        service.commit(&va).unwrap();
        let receipt = service.commit(&vb).unwrap();
        // Only the two touched leaves are compared, not all 64.
        assert!(
            receipt.pages_compared <= 8,
            "compared {} pages, expected only the touched subtrees",
            receipt.pages_compared
        );
    }
}
