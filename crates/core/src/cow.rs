//! Copy-on-write page access within a version (§5.1).
//!
//! "For writing pages in a version, a 'copy-on-write' mechanism is used.  When a page
//! is written, a new block is allocated for it, leaving the old page intact. … Every
//! change thus bubbles up from the leaves of the page tree to the root page.  The root
//! page — the version page — is the only page that is written in place."
//!
//! Reading also shadows: "When a page is first read, the C, R, W, S and M flags it
//! contains for its child pages must be initialised to zero.  This requires changing
//! that page.  The Amoeba File Service must therefore not only shadow pages that were
//! written, but also pages whose descendants were read."
//!
//! The functions in this module maintain the flags exactly as the serialisability test
//! of [`crate::commit`] expects them:
//!
//! * every page on the path to an accessed page is copied (C set in the reference to
//!   it) and, if it is an interior step, marked searched (S);
//! * the reference to the accessed page itself gets R (data read), W (data written),
//!   S (references inspected) or S+M (references modified);
//! * accesses to the root page itself are recorded in the version page's own flag
//!   field, which the managing server keeps in the version header.
//!
//! # Deferred durability and write elision
//!
//! Shadowing and flag maintenance are *logical* operations: the paper only requires
//! the version's pages to be on disk at commit time.  Page writes made here
//! therefore always go to the write-back buffer of [`crate::pageio::PageIo`] and
//! are flushed in one batch by [`crate::commit`], so a k-operation update costs
//! O(dirty pages) physical writes at commit instead of O(k·depth) along the way.
//!
//! On top of that, the traversal **elides rewrites of unchanged pages**: once a
//! path is shadowed and its C/S flags are set, repeated accesses through it leave
//! the interior pages untouched — a page is marked dirty only when it was freshly
//! copied, a reference (block or flags) in it actually changed, or its data was
//! modified.  Pages are shared as `Arc<Page>` with the cache and the buffer, and
//! copied (`Arc::make_mut`-style) only at the moment they are first mutated.

use std::sync::Arc;

use bytes::Bytes;

use amoeba_block::BlockNr;
use amoeba_capability::{Capability, Rights};

use crate::flags::PageFlags;
use crate::page::{Page, PageRef, MAX_PAGE_DATA};
use crate::path::PagePath;
use crate::service::{FileService, VersionMeta, VersionState};
use crate::types::{FsError, Result};

/// Client-visible information about a page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageInfo {
    /// Number of references to pages in the next level of the page tree.
    pub nrefs: u16,
    /// Number of client data bytes.
    pub dsize: u32,
}

/// What the caller wants to do to the target page of a traversal.
enum TargetAccess {
    /// Read the page's data.
    ReadData,
    /// Replace the page's data.
    WriteData(Bytes),
    /// Inspect the page's reference table (count/shape).
    ReadRefs,
    /// Insert a brand-new page at `index` with the given initial data.
    InsertPage { index: u16, data: Bytes },
    /// Insert a reference to an already existing page subtree (used by move).
    InsertExisting { index: u16, reference: PageRef },
    /// Remove the reference at `index`; the removed reference is returned.
    RemoveRef { index: u16 },
    /// Split the page's data at byte `keep`: the tail is moved into a new child page
    /// appended to the reference table.
    SplitData { keep: usize },
}

/// Result of a traversal.
enum AccessOutcome {
    Data(Bytes),
    Info(PageInfo),
    NewChild(u16),
    Removed(PageRef),
    Unit,
}

impl FileService {
    // ------------------------------------------------------------------
    // Public page operations on uncommitted versions.
    // ------------------------------------------------------------------

    /// Reads the client data of the page at `path` in an uncommitted version, marking
    /// the read in the version's read set.
    pub fn read_page(&self, version_cap: &Capability, path: &PagePath) -> Result<Bytes> {
        match self.access(version_cap, path, TargetAccess::ReadData)? {
            AccessOutcome::Data(data) => Ok(data),
            _ => unreachable!("ReadData returns Data"),
        }
    }

    /// Writes the client data of the page at `path`, copy-on-write.
    pub fn write_page(&self, version_cap: &Capability, path: &PagePath, data: Bytes) -> Result<()> {
        if data.len() > MAX_PAGE_DATA {
            return Err(FsError::PageTooLarge(data.len()));
        }
        self.access(version_cap, path, TargetAccess::WriteData(data))?;
        Ok(())
    }

    /// Returns the shape information (`nrefs`, `dsize`) of the page at `path`.  This
    /// counts as searching the page's references.
    pub fn page_info(&self, version_cap: &Capability, path: &PagePath) -> Result<PageInfo> {
        match self.access(version_cap, path, TargetAccess::ReadRefs)? {
            AccessOutcome::Info(info) => Ok(info),
            _ => unreachable!("ReadRefs returns Info"),
        }
    }

    /// Inserts a new page with `data` at reference index `index` of the page at
    /// `parent`, shifting later references up.  Returns the path of the new page.
    pub fn insert_page(
        &self,
        version_cap: &Capability,
        parent: &PagePath,
        index: u16,
        data: Bytes,
    ) -> Result<PagePath> {
        if data.len() > MAX_PAGE_DATA {
            return Err(FsError::PageTooLarge(data.len()));
        }
        match self.access(
            version_cap,
            parent,
            TargetAccess::InsertPage { index, data },
        )? {
            AccessOutcome::NewChild(index) => Ok(parent.child(index)),
            _ => unreachable!("InsertPage returns NewChild"),
        }
    }

    /// Appends a new page with `data` at the end of the reference table of the page at
    /// `parent`.  Returns the path of the new page.
    pub fn append_page(
        &self,
        version_cap: &Capability,
        parent: &PagePath,
        data: Bytes,
    ) -> Result<PagePath> {
        let info = self.page_info(version_cap, parent)?;
        self.insert_page(version_cap, parent, info.nrefs, data)
    }

    /// Removes the page at `path` (and, implicitly, the subtree below it) from its
    /// parent's reference table ("remove page").
    pub fn remove_page(&self, version_cap: &Capability, path: &PagePath) -> Result<()> {
        let parent = path.parent().ok_or(FsError::WrongFileKind)?;
        let index = path.last_index().expect("non-root path has a last index");
        self.access(version_cap, &parent, TargetAccess::RemoveRef { index })?;
        Ok(())
    }

    /// Splits the page at `path`: bytes `keep..` of its data move into a new page
    /// appended to its reference table ("split pages in two").
    pub fn split_page(
        &self,
        version_cap: &Capability,
        path: &PagePath,
        keep: usize,
    ) -> Result<PagePath> {
        match self.access(version_cap, path, TargetAccess::SplitData { keep })? {
            AccessOutcome::NewChild(index) => Ok(path.child(index)),
            _ => unreachable!("SplitData returns NewChild"),
        }
    }

    /// Moves the subtree rooted at `from` to become child `to_index` of the page at
    /// `to_parent` ("move subtrees to another part of the tree").  Returns the new
    /// path of the moved page.
    pub fn move_subtree(
        &self,
        version_cap: &Capability,
        from: &PagePath,
        to_parent: &PagePath,
        to_index: u16,
    ) -> Result<PagePath> {
        if from.is_prefix_of(to_parent) {
            return Err(FsError::NoSuchPage(format!(
                "cannot move {from} into its own subtree {to_parent}"
            )));
        }
        let from_parent = from.parent().ok_or(FsError::WrongFileKind)?;
        let from_index = from.last_index().expect("non-root path has a last index");
        let removed = match self.access(
            version_cap,
            &from_parent,
            TargetAccess::RemoveRef { index: from_index },
        )? {
            AccessOutcome::Removed(r) => r,
            _ => unreachable!("RemoveRef returns Removed"),
        };
        match self.access(
            version_cap,
            to_parent,
            TargetAccess::InsertExisting {
                index: to_index,
                reference: removed,
            },
        )? {
            AccessOutcome::NewChild(index) => Ok(to_parent.child(index)),
            _ => unreachable!("InsertExisting returns NewChild"),
        }
    }

    // ------------------------------------------------------------------
    // Reading committed versions (no flags, no shadowing).
    // ------------------------------------------------------------------

    /// Reads the client data of a page in a *committed* version.  Committed pages are
    /// immutable, so no flags are recorded and nothing is shadowed.
    pub fn read_committed_page(&self, version_cap: &Capability, path: &PagePath) -> Result<Bytes> {
        let meta = self.resolve_version(version_cap, Rights::READ)?;
        let (state, block) = {
            let meta = meta.lock();
            (meta.state, meta.block)
        };
        if state != VersionState::Committed {
            return Err(FsError::NotCommitted);
        }
        let page = self.read_page_tree_at(block, path)?;
        Ok(page.data.clone())
    }

    /// Reads the shape of a page in a committed version.
    pub fn committed_page_info(
        &self,
        version_cap: &Capability,
        path: &PagePath,
    ) -> Result<PageInfo> {
        let meta = self.resolve_version(version_cap, Rights::READ)?;
        let (state, block) = {
            let meta = meta.lock();
            (meta.state, meta.block)
        };
        if state != VersionState::Committed {
            return Err(FsError::NotCommitted);
        }
        let page = self.read_page_tree_at(block, path)?;
        Ok(PageInfo {
            nrefs: page.nrefs(),
            dsize: page.dsize(),
        })
    }

    /// Pure traversal from the page at `root_block` down `path`, with no flag
    /// maintenance.  Used for committed versions, the cache, and the serialisability
    /// test.
    pub(crate) fn read_page_tree_at(
        &self,
        root_block: BlockNr,
        path: &PagePath,
    ) -> Result<Arc<Page>> {
        let mut page = self.pages.read_page(root_block)?;
        for (depth, &index) in path.indices().iter().enumerate() {
            let reference = page.ref_at(index).map_err(|_| {
                FsError::NoSuchPage(PagePath::new(path.indices()[..=depth].to_vec()).to_string())
            })?;
            page = self.pages.read_page(reference.block)?;
        }
        Ok(page)
    }

    // ------------------------------------------------------------------
    // The traversal engine.
    // ------------------------------------------------------------------

    /// Stages a modified page of an uncommitted version into the write-back buffer,
    /// tracked in the version's dirty set.
    fn stage_page(&self, meta: &mut VersionMeta, nr: BlockNr, page: &Arc<Page>) {
        self.pages.write_page_buffered(nr, page);
        meta.dirty_blocks.insert(nr);
    }

    /// Allocates a block for a brand-new private page of an uncommitted version,
    /// buffers the page, and records ownership.
    fn stage_new_page(&self, meta: &mut VersionMeta, page: &Arc<Page>) -> Result<BlockNr> {
        let nr = self.pages.allocate_page_buffered(page)?;
        meta.dirty_blocks.insert(nr);
        meta.owned_blocks.insert(nr);
        Ok(nr)
    }

    /// Walks from the version page to the target of `path`, shadowing pages and
    /// setting flags as required, and performs `access` on the target.  Only pages
    /// whose contents, references or flags actually changed are staged for writing;
    /// a traversal through an already shadowed, already flagged path rewrites
    /// nothing (shadow-trail write elision).
    fn access(
        &self,
        version_cap: &Capability,
        path: &PagePath,
        access: TargetAccess,
    ) -> Result<AccessOutcome> {
        let required = match access {
            TargetAccess::ReadData | TargetAccess::ReadRefs => Rights::READ,
            _ => Rights::WRITE,
        };
        let meta = self.resolve_version(version_cap, required)?;
        let mut meta = meta.lock();
        if meta.state != VersionState::Uncommitted {
            return Err(FsError::AlreadyCommitted);
        }
        let root_block = meta.block;
        let mut vpage = self.pages.read_page(root_block)?;

        if path.is_root() {
            // The target is the version page itself; record the access in the root
            // flags the managing server keeps for it.
            let header = vpage.version.as_ref().expect("version page has a header");
            let mut new_flags = header.root_flags;
            apply_root_access(&mut new_flags, &access);
            let dirty = new_flags != header.root_flags || access_mutates(&access);
            if !dirty {
                // Re-reading through an already recorded access: nothing changes.
                return read_only_outcome(&vpage, &access);
            }
            let vmut = Arc::make_mut(&mut vpage);
            vmut.version
                .as_mut()
                .expect("version page has a header")
                .root_flags = new_flags;
            let outcome = self.apply_target_access(vmut, &mut meta, access)?;
            self.stage_page(&mut meta, root_block, &vpage);
            return Ok(outcome);
        }

        // Descend, shadowing every page on the path so flags can be recorded in it.
        // `trail` holds the pages above the target together with their dirtiness.
        let indices = path.indices();
        let mut trail: Vec<(BlockNr, Arc<Page>, bool)> = Vec::with_capacity(indices.len());
        let mut current_dirty = {
            let header = vpage.version.as_ref().expect("version page has a header");
            if header.root_flags.copied && header.root_flags.searched {
                false
            } else {
                let h = Arc::make_mut(&mut vpage)
                    .version
                    .as_mut()
                    .expect("version page has a header");
                h.root_flags.copied = true;
                h.root_flags.searched = true;
                true
            }
        };
        let mut current_block = root_block;
        let mut current_page = vpage;

        for (depth, &index) in indices.iter().enumerate() {
            let is_target = depth == indices.len() - 1;
            let reference = current_page.ref_at(index).map_err(|_| {
                FsError::NoSuchPage(PagePath::new(indices[..=depth].to_vec()).to_string())
            })?;
            // Sub-file version pages embedded in a super-file's tree are managed
            // through the sub-file's own versions, never through the parent's.
            let child_page_probe = self.pages.read_page(reference.block)?;
            if child_page_probe.is_version_page() {
                return Err(FsError::WrongFileKind);
            }

            // Ensure the child is a private copy so its flags (and, for the target,
            // its data) can be changed without touching the base version.
            let (child_block, child_page, child_is_new) = if reference.flags.copied {
                (reference.block, child_page_probe, false)
            } else {
                let mut copy = (*child_page_probe).clone();
                copy.base_reference = Some(reference.block);
                copy.refs = copy
                    .refs
                    .iter()
                    .map(|r| PageRef {
                        block: r.block,
                        flags: PageFlags::CLEAR,
                    })
                    .collect();
                let copy = Arc::new(copy);
                let new_block = self.stage_new_page(&mut meta, &copy)?;
                (new_block, copy, true)
            };

            // Compute the flags the parent's reference must carry after this access.
            let mut new_flags = reference.flags;
            new_flags.copied = true;
            if is_target {
                match &access {
                    TargetAccess::ReadData => new_flags.read = true,
                    TargetAccess::WriteData(_) | TargetAccess::SplitData { .. } => {
                        new_flags.written = true
                    }
                    TargetAccess::ReadRefs => new_flags.searched = true,
                    TargetAccess::InsertPage { .. }
                    | TargetAccess::InsertExisting { .. }
                    | TargetAccess::RemoveRef { .. } => {
                        new_flags.searched = true;
                        new_flags.modified = true;
                    }
                }
                if matches!(access, TargetAccess::SplitData { .. }) {
                    // Splitting also rearranges the reference table of the target.
                    new_flags.searched = true;
                    new_flags.modified = true;
                }
            } else {
                // Interior step: the child's references are searched to go deeper.
                new_flags.searched = true;
            }
            // The parent is only rewritten if the reference actually changed —
            // repeated accesses through a shadowed, flagged path leave it alone.
            if child_is_new || new_flags != reference.flags {
                Arc::make_mut(&mut current_page).set_ref(
                    index,
                    PageRef {
                        block: child_block,
                        flags: new_flags,
                    },
                )?;
                current_dirty = true;
            }

            trail.push((current_block, current_page, current_dirty));
            current_block = child_block;
            current_page = child_page;
            // A fresh copy must be staged at least once; an existing private page is
            // only staged if the access below changes it.
            current_dirty = child_is_new;
        }

        // Apply the access to the target page.
        let outcome = if access_mutates(&access) || current_dirty {
            let outcome =
                self.apply_target_access(Arc::make_mut(&mut current_page), &mut meta, access)?;
            // Stage the target first, then the (private) pages along the path, root
            // last, so the buffer never holds a parent referencing a page that has
            // not been staged yet.
            self.stage_page(&mut meta, current_block, &current_page);
            outcome
        } else {
            read_only_outcome(&current_page, &access)?
        };
        for (block, page, dirty) in trail.into_iter().rev() {
            if dirty {
                self.stage_page(&mut meta, block, &page);
            }
        }
        Ok(outcome)
    }

    /// Applies the access to the target page's reference table / data.
    fn apply_target_access(
        &self,
        page: &mut Page,
        meta: &mut VersionMeta,
        access: TargetAccess,
    ) -> Result<AccessOutcome> {
        match access {
            TargetAccess::ReadData => Ok(AccessOutcome::Data(page.data.clone())),
            TargetAccess::WriteData(data) => {
                page.set_data(data)?;
                Ok(AccessOutcome::Unit)
            }
            TargetAccess::ReadRefs => Ok(AccessOutcome::Info(PageInfo {
                nrefs: page.nrefs(),
                dsize: page.dsize(),
            })),
            TargetAccess::InsertPage { index, data } => {
                let child = Arc::new(Page::leaf(data));
                let child_block = self.stage_new_page(meta, &child)?;
                let reference = PageRef {
                    block: child_block,
                    flags: PageFlags {
                        copied: true,
                        written: true,
                        ..PageFlags::CLEAR
                    },
                };
                page.insert_ref(index, reference)?;
                Ok(AccessOutcome::NewChild(index))
            }
            TargetAccess::InsertExisting { index, reference } => {
                page.insert_ref(index, reference)?;
                Ok(AccessOutcome::NewChild(index))
            }
            TargetAccess::RemoveRef { index } => {
                let removed = page.remove_ref(index)?;
                Ok(AccessOutcome::Removed(removed))
            }
            TargetAccess::SplitData { keep } => {
                let keep = keep.min(page.data.len());
                let tail = page.data.slice(keep..);
                let head = page.data.slice(..keep);
                let child = Arc::new(Page::leaf(tail));
                let child_block = self.stage_new_page(meta, &child)?;
                page.set_data(head)?;
                let index = page.push_ref(PageRef {
                    block: child_block,
                    flags: PageFlags {
                        copied: true,
                        written: true,
                        ..PageFlags::CLEAR
                    },
                })?;
                Ok(AccessOutcome::NewChild(index))
            }
        }
    }
}

/// Records an access to the root (version) page in its separate flag field.
fn apply_root_access(flags: &mut PageFlags, access: &TargetAccess) {
    flags.copied = true;
    match access {
        TargetAccess::ReadData => flags.read = true,
        TargetAccess::WriteData(_) => flags.written = true,
        TargetAccess::ReadRefs => flags.searched = true,
        TargetAccess::InsertPage { .. }
        | TargetAccess::InsertExisting { .. }
        | TargetAccess::RemoveRef { .. }
        | TargetAccess::SplitData { .. } => {
            flags.searched = true;
            flags.modified = true;
        }
    }
}

/// True if the access changes the target page's data or reference table (as opposed
/// to merely reading them).
fn access_mutates(access: &TargetAccess) -> bool {
    !matches!(access, TargetAccess::ReadData | TargetAccess::ReadRefs)
}

/// The outcome of a non-mutating access served without rewriting anything.
fn read_only_outcome(page: &Page, access: &TargetAccess) -> Result<AccessOutcome> {
    match access {
        TargetAccess::ReadData => Ok(AccessOutcome::Data(page.data.clone())),
        TargetAccess::ReadRefs => Ok(AccessOutcome::Info(PageInfo {
            nrefs: page.nrefs(),
            dsize: page.dsize(),
        })),
        _ => unreachable!("mutating accesses always dirty the target"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::FileService;

    fn setup() -> (std::sync::Arc<FileService>, Capability, Capability) {
        let service = FileService::in_memory();
        let file = service.create_file().unwrap();
        let version = service.create_version(&file).unwrap();
        (service, file, version)
    }

    #[test]
    fn root_data_read_write_round_trip() {
        let (service, _file, v) = setup();
        let root = PagePath::root();
        assert_eq!(service.read_page(&v, &root).unwrap(), Bytes::new());
        service
            .write_page(&v, &root, Bytes::from_static(b"root data"))
            .unwrap();
        assert_eq!(
            service.read_page(&v, &root).unwrap(),
            Bytes::from_static(b"root data")
        );
    }

    #[test]
    fn nested_pages_can_be_built_and_read() {
        let (service, _file, v) = setup();
        let root = PagePath::root();
        let child = service
            .append_page(&v, &root, Bytes::from_static(b"child 0"))
            .unwrap();
        let grandchild = service
            .append_page(&v, &child, Bytes::from_static(b"grandchild 0.0"))
            .unwrap();
        assert_eq!(child, PagePath::new(vec![0]));
        assert_eq!(grandchild, PagePath::new(vec![0, 0]));
        assert_eq!(
            service.read_page(&v, &grandchild).unwrap(),
            Bytes::from_static(b"grandchild 0.0")
        );
        let info = service.page_info(&v, &root).unwrap();
        assert_eq!(info.nrefs, 1);
    }

    #[test]
    fn missing_paths_are_reported() {
        let (service, _file, v) = setup();
        let err = service.read_page(&v, &PagePath::new(vec![3])).unwrap_err();
        assert!(matches!(err, FsError::NoSuchPage(_)));
    }

    #[test]
    fn writes_do_not_disturb_the_committed_base_version() {
        let service = FileService::in_memory();
        let file = service.create_file().unwrap();
        // Build and commit an initial tree.
        let v1 = service.create_version(&file).unwrap();
        let p = service
            .append_page(&v1, &PagePath::root(), Bytes::from_static(b"original"))
            .unwrap();
        service.commit(&v1).unwrap();
        let committed = service.current_version(&file).unwrap();

        // Modify the page in a new version.
        let v2 = service.create_version(&file).unwrap();
        service
            .write_page(&v2, &p, Bytes::from_static(b"changed"))
            .unwrap();
        assert_eq!(
            service.read_page(&v2, &p).unwrap(),
            Bytes::from_static(b"changed")
        );
        // The committed version still shows the original contents.
        assert_eq!(
            service.read_committed_page(&committed, &p).unwrap(),
            Bytes::from_static(b"original")
        );
    }

    #[test]
    fn copy_on_write_copies_each_page_only_once() {
        let service = FileService::in_memory();
        let file = service.create_file().unwrap();
        let v1 = service.create_version(&file).unwrap();
        let p = service
            .append_page(&v1, &PagePath::root(), Bytes::from_static(b"v1"))
            .unwrap();
        service.commit(&v1).unwrap();

        let v2 = service.create_version(&file).unwrap();
        let before = service.io_stats();
        service
            .write_page(&v2, &p, Bytes::from_static(b"first write"))
            .unwrap();
        let after_first = service.io_stats();
        service
            .write_page(&v2, &p, Bytes::from_static(b"second write"))
            .unwrap();
        let after_second = service.io_stats();
        // The first write copies the page; the second writes it in place.
        assert_eq!(after_first.pages_allocated - before.pages_allocated, 1);
        assert_eq!(
            after_second.pages_allocated - after_first.pages_allocated,
            0
        );
    }

    #[test]
    fn shadow_trail_rewrites_are_elided_on_repeated_access() {
        let service = FileService::in_memory();
        let file = service.create_file().unwrap();
        let setup = service.create_version(&file).unwrap();
        let interior = service
            .append_page(&setup, &PagePath::root(), Bytes::from_static(b"interior"))
            .unwrap();
        let leaf = service
            .append_page(&setup, &interior, Bytes::from_static(b"leaf"))
            .unwrap();
        service.commit(&setup).unwrap();

        let v = service.create_version(&file).unwrap();
        service
            .write_page(&v, &leaf, Bytes::from_static(b"first"))
            .unwrap();
        // The buffered pages along the shadowed trail root → interior → leaf.
        let trail = || {
            let root_block = service
                .resolve_version(&v, Rights::READ)
                .unwrap()
                .lock()
                .block;
            let root = service.pages.read_page(root_block).unwrap();
            let interior = service
                .pages
                .read_page(root.ref_at(0).unwrap().block)
                .unwrap();
            let leaf = service
                .pages
                .read_page(interior.ref_at(0).unwrap().block)
                .unwrap();
            (root, interior, leaf)
        };

        // Repeated writes through the now fully shadowed, fully flagged trail
        // restage only the leaf: the version page and the interior page stay the
        // very same buffered allocations.
        let (root_before, interior_before, leaf_before) = trail();
        for i in 0..5u8 {
            service.write_page(&v, &leaf, Bytes::from(vec![i])).unwrap();
        }
        let (root_after, interior_after, leaf_after) = trail();
        assert!(
            Arc::ptr_eq(&root_before, &root_after),
            "version page rewritten"
        );
        assert!(
            Arc::ptr_eq(&interior_before, &interior_after),
            "interior page rewritten"
        );
        assert!(!Arc::ptr_eq(&leaf_before, &leaf_after));
        assert_eq!(leaf_after.data, Bytes::from(vec![4u8]));

        // Repeated reads of an already read page restage nothing at all.  (The
        // first read records the R flag in the leaf's parent, one restage.)
        service.read_page(&v, &leaf).unwrap();
        let (root_before, interior_before, leaf_before) = trail();
        for _ in 0..5 {
            service.read_page(&v, &leaf).unwrap();
        }
        let (root_after, interior_after, leaf_after) = trail();
        assert!(Arc::ptr_eq(&root_before, &root_after));
        assert!(Arc::ptr_eq(&interior_before, &interior_after));
        assert!(Arc::ptr_eq(&leaf_before, &leaf_after));
        service.commit(&v).unwrap();
    }

    #[test]
    fn remove_and_insert_reshape_the_tree() {
        let (service, _file, v) = setup();
        let root = PagePath::root();
        for i in 0..3u8 {
            service
                .append_page(&v, &root, Bytes::from(vec![i]))
                .unwrap();
        }
        service.remove_page(&v, &PagePath::new(vec![1])).unwrap();
        let info = service.page_info(&v, &root).unwrap();
        assert_eq!(info.nrefs, 2);
        // The page that was at index 2 shifted down to index 1.
        assert_eq!(
            service.read_page(&v, &PagePath::new(vec![1])).unwrap(),
            Bytes::from(vec![2])
        );
        service
            .insert_page(&v, &root, 0, Bytes::from_static(b"front"))
            .unwrap();
        assert_eq!(
            service.read_page(&v, &PagePath::new(vec![0])).unwrap(),
            Bytes::from_static(b"front")
        );
    }

    #[test]
    fn split_moves_the_tail_into_a_new_child() {
        let (service, _file, v) = setup();
        let root = PagePath::root();
        let page = service
            .append_page(&v, &root, Bytes::from_static(b"head+tail"))
            .unwrap();
        let tail = service.split_page(&v, &page, 4).unwrap();
        assert_eq!(
            service.read_page(&v, &page).unwrap(),
            Bytes::from_static(b"head")
        );
        assert_eq!(
            service.read_page(&v, &tail).unwrap(),
            Bytes::from_static(b"+tail")
        );
    }

    #[test]
    fn move_subtree_relocates_pages() {
        let (service, _file, v) = setup();
        let root = PagePath::root();
        let a = service
            .append_page(&v, &root, Bytes::from_static(b"a"))
            .unwrap();
        let b = service
            .append_page(&v, &root, Bytes::from_static(b"b"))
            .unwrap();
        let a_child = service
            .append_page(&v, &a, Bytes::from_static(b"a/0"))
            .unwrap();
        // Move a's child under b.
        let new_path = service.move_subtree(&v, &a_child, &b, 0).unwrap();
        assert_eq!(new_path, b.child(0));
        assert_eq!(
            service.read_page(&v, &new_path).unwrap(),
            Bytes::from_static(b"a/0")
        );
        assert_eq!(service.page_info(&v, &a).unwrap().nrefs, 0);
    }

    #[test]
    fn moving_a_page_into_its_own_subtree_is_rejected() {
        let (service, _file, v) = setup();
        let root = PagePath::root();
        let a = service
            .append_page(&v, &root, Bytes::from_static(b"a"))
            .unwrap();
        let a_child = service
            .append_page(&v, &a, Bytes::from_static(b"a/0"))
            .unwrap();
        assert!(service.move_subtree(&v, &a, &a_child, 0).is_err());
    }

    #[test]
    fn oversized_page_writes_are_rejected() {
        let (service, _file, v) = setup();
        let err = service
            .write_page(
                &v,
                &PagePath::root(),
                Bytes::from(vec![0u8; MAX_PAGE_DATA + 1]),
            )
            .unwrap_err();
        assert!(matches!(err, FsError::PageTooLarge(_)));
    }

    #[test]
    fn committed_versions_reject_page_writes() {
        let service = FileService::in_memory();
        let file = service.create_file().unwrap();
        let v = service.create_version(&file).unwrap();
        service.commit(&v).unwrap();
        let err = service
            .write_page(&v, &PagePath::root(), Bytes::from_static(b"no"))
            .unwrap_err();
        assert_eq!(err, FsError::AlreadyCommitted);
    }

    #[test]
    fn read_only_version_capability_cannot_write() {
        let (service, _file, v) = setup();
        let ro = {
            let mut minter = service.minter.lock();
            minter.restrict(&v, Rights::READ).unwrap()
        };
        assert!(service.read_page(&ro, &PagePath::root()).is_ok());
        assert_eq!(
            service
                .write_page(&ro, &PagePath::root(), Bytes::from_static(b"x"))
                .unwrap_err(),
            FsError::PermissionDenied
        );
    }
}
