//! Rebuilding the file table from the blocks after a severe crash (§4, §5.4.1).
//!
//! "Block servers can support a recovery operation, which given an account number,
//! returns a list of block numbers owned by that account.  A client, e.g. a file
//! server, can then use its redundancy information to restore its file system after a
//! severe crash."
//!
//! Every page the file service writes carries enough redundancy for this: version
//! pages identify their file and their place in the version chain (base and commit
//! references), ordinary pages are reachable from version pages.  Recovery therefore
//! scans the account's blocks, finds the version pages, reconstructs each file's
//! committed chain and re-registers the files and versions under *freshly minted*
//! capabilities (the old capabilities died with the crashed service's secrets — in
//! Amoeba, capability secrets would themselves live in a file, but persisting the
//! minter is outside the scope of this reproduction and orthogonal to the paper's
//! concurrency-control contribution).
//!
//! Uncommitted versions are deliberately *not* salvaged: "uncommitted versions need
//! not be salvaged in a server crash … clients must be prepared to redo the updates in
//! a version."
//!
//! With the write-back page path, an uncommitted version whose commit never ran has
//! usually never been flushed at all: its blocks were allocated but hold no data.
//! Recovery treats those empty blocks as crash garbage and frees them — the version
//! is recovered *as aborted*, exactly the paper-correct outcome.  A version flushed
//! by a commit that crashed before the commit-reference test-and-set shows up as a
//! decodable version page that no commit reference points at, and is discarded by
//! the existing uncommitted-version rule.
//!
//! Each chain keeps its newest `history_retention` versions, a sub-file's chain
//! also every older version a kept super-file version links, and every block no
//! retained version reaches is freed.  A crash in the middle of a retirement
//! therefore leaks nothing and leaves no dangling reference, whichever of its
//! frees reached the disks: the retiring version was past the retention depth,
//! so recovery finishes the retirement.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use bytes::Bytes;

use amoeba_block::{BlockNr, BlockServer};
use amoeba_capability::{Capability, Rights};

use crate::gc::mark;
use crate::page::Page;
use crate::pageio::PageIo;
use crate::service::{FileMeta, FileService, ServiceConfig, VersionMeta};
use crate::types::{FsError, Result};

/// What a recovery pass found and rebuilt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Capabilities (freshly minted) of the recovered files, one per file found.
    pub files: Vec<Capability>,
    /// Number of committed versions re-registered across all files.
    pub committed_versions: usize,
    /// Number of uncommitted version pages found and discarded.
    pub discarded_uncommitted: usize,
    /// Number of blocks freed because they were allocated but never written — the
    /// write-back buffer of an uncommitted version that died with the crash.
    pub freed_unflushed: usize,
    /// Number of written blocks freed because no recovered version reaches them:
    /// discarded versions, versions past the retention depth, and whatever a
    /// retirement interrupted by the crash had not freed yet.
    pub freed_unreachable: usize,
    /// Number of blocks scanned.
    pub blocks_scanned: usize,
}

impl FileService {
    /// Rebuilds a file service from the blocks owned by `account` on `block_server`.
    ///
    /// This is the severe-crash path: the previous server process (and its in-memory
    /// file table and capability secrets) is gone, but every page is still on disk.
    pub fn recover_from_storage(
        block_server: Arc<BlockServer>,
        account: Capability,
        config: ServiceConfig,
    ) -> Result<(Arc<FileService>, RecoveryReport)> {
        let pages = PageIo::with_cache(
            Arc::clone(&block_server),
            account,
            config.flag_cache_capacity,
        );
        let service = Arc::new(FileService::from_parts(pages, config));
        let report = service.rebuild_tables(&account, &block_server)?;
        Ok((service, report))
    }

    /// Scans the account's blocks, rebuilds the file/version tables, and frees
    /// every block no recovered version reaches.
    fn rebuild_tables(
        self: &Arc<Self>,
        account: &Capability,
        block_server: &Arc<BlockServer>,
    ) -> Result<RecoveryReport> {
        let blocks = block_server.recover(account)?;
        let mut report = RecoveryReport {
            files: Vec::new(),
            committed_versions: 0,
            discarded_uncommitted: 0,
            freed_unflushed: 0,
            freed_unreachable: 0,
            blocks_scanned: blocks.len(),
        };

        // Decode every block, keeping the references (not the data) of each page.
        let mut scanned: HashMap<BlockNr, Arc<Page>> = HashMap::new();
        let mut unflushed: Vec<BlockNr> = Vec::new();
        for nr in blocks {
            let raw = match block_server.read(account, nr) {
                Ok(raw) => raw,
                Err(_) => continue,
            };
            if raw.is_empty() {
                // Allocated but never written: the write-back buffer of an
                // uncommitted version that was lost with the crash.  The version is
                // thereby recovered as aborted; the block is crash garbage.
                unflushed.push(nr);
                continue;
            }
            if let Ok(mut page) = Page::decode(raw) {
                page.data = Bytes::new();
                scanned.insert(nr, Arc::new(page));
            }
        }
        for nr in unflushed {
            if block_server.free(account, nr).is_ok() {
                report.freed_unflushed += 1;
            }
        }

        // Group the version pages by file.
        let mut per_file: HashMap<u64, Vec<BlockNr>> = HashMap::new();
        for (&nr, page) in &scanned {
            if let Some(header) = &page.version {
                per_file.entry(header.file_cap.object).or_default().push(nr);
            }
        }
        let commit_of = |nr: &BlockNr| scanned[nr].version.as_ref()?.commit_reference;

        let keep = self.config.history_retention.max(1);
        let mut block_to_file: HashMap<BlockNr, u64> = HashMap::new();
        let mut chains: Vec<(u64, Vec<BlockNr>)> = Vec::new();
        let mut predecessors: HashMap<u64, HashMap<BlockNr, BlockNr>> = HashMap::new();
        for (old_file_id, versions) in &per_file {
            // Of the pages whose commit reference is nil, the current version is
            // the one a commit reference points at.  With no committed
            // predecessor left (a retention of one), it is the one not based on
            // another of them: an uncommitted version is based on a retained
            // version.  The others are uncommitted versions, not salvaged.
            let predecessor: HashMap<BlockNr, BlockNr> = versions
                .iter()
                .filter_map(|nr| Some((commit_of(nr)?, *nr)))
                .collect();
            let open: Vec<BlockNr> = versions
                .iter()
                .copied()
                .filter(|nr| commit_of(nr).is_none())
                .collect();
            let mut current = open.iter().filter(|nr| predecessor.contains_key(nr));
            let mut roots = open.iter().filter(|nr| {
                scanned[nr]
                    .base_reference
                    .is_none_or(|base| !open.contains(&base))
            });
            let current = match (current.next(), current.next(), roots.next(), roots.next()) {
                (Some(&current), None, _, _) | (None, _, Some(&current), None) => current,
                _ => {
                    return Err(FsError::CorruptPage(format!(
                        "file {old_file_id}: no single current version"
                    )))
                }
            };
            report.discarded_uncommitted += open.len() - 1;
            // Walk back by commit references, keeping at most `keep` versions: a
            // retained version's base reference may name a block retired and
            // reissued since.
            let mut chain = vec![current];
            while chain.len() < keep.min(versions.len()) {
                match predecessor.get(chain.last().expect("non-empty")) {
                    Some(&older) => chain.push(older),
                    None => break,
                }
            }
            chain.reverse();
            block_to_file.extend(versions.iter().map(|&nr| (nr, *old_file_id)));
            chains.push((*old_file_id, chain));
            predecessors.insert(*old_file_id, predecessor);
        }
        // A sub-file also keeps its versions back to the oldest one a kept
        // version of its super-file links, as retirement does (see `gc`).  A
        // version kept so may link further ones: repeat until nothing is added.
        loop {
            let linked: HashSet<BlockNr> = chains
                .iter()
                .flat_map(|(_, chain)| chain)
                .flat_map(|nr| scanned[nr].refs.iter().map(|r| r.block))
                .collect();
            let mut grown = false;
            for (file, chain) in chains.iter_mut() {
                let predecessor = &predecessors[&*file];
                let older: Vec<BlockNr> =
                    std::iter::successors(predecessor.get(&chain[0]).copied(), |nr| {
                        predecessor.get(nr).copied()
                    })
                    .take(predecessor.len())
                    .collect();
                if let Some(oldest) = older.iter().rposition(|nr| linked.contains(nr)) {
                    *chain = older[..=oldest]
                        .iter()
                        .rev()
                        .chain(chain.iter())
                        .copied()
                        .collect();
                    grown = true;
                }
            }
            if !grown {
                break;
            }
        }

        // Register the retained chains under fresh capabilities.
        let mut old_to_new_file: HashMap<u64, u64> = HashMap::new();
        for (old_file_id, chain) in &chains {
            let file_id = self.next_object_id();
            let file_cap = self.minter.lock().mint(file_id, Rights::ALL);
            old_to_new_file.insert(*old_file_id, file_id);
            for &block in chain {
                let version_id = self.next_object_id();
                let version_cap = self.minter.lock().mint(version_id, Rights::ALL);
                self.register_version(
                    version_id,
                    VersionMeta::committed(version_cap, file_id, block),
                );
                report.committed_versions += 1;
            }
            let mut meta = FileMeta::new(file_id, chain[0]);
            meta.chain = chain.iter().copied().collect();
            self.files
                .write()
                .insert(file_id, Arc::new(parking_lot::Mutex::new(meta)));
            report.files.push(file_cap);
        }

        // Free what no retained version reaches.
        let roots = chains.iter().flat_map(|(_, chain)| chain.iter().copied());
        let (reachable, _) = mark(roots, |nr| Ok(scanned.get(&nr).cloned()))?;
        for &nr in scanned.keys() {
            if !reachable.contains(&nr) && self.pages.free_page(nr).is_ok() {
                report.freed_unreachable += 1;
            }
        }

        // Restore parent/child relationships from parent references.
        for page in scanned.values() {
            let Some(header) = &page.version else {
                continue;
            };
            let (Some(child_new), Some(parent_old)) = (
                old_to_new_file.get(&header.file_cap.object),
                header.parent_reference.and_then(|b| block_to_file.get(&b)),
            ) else {
                continue;
            };
            let Some(parent_new) = old_to_new_file.get(parent_old) else {
                continue;
            };
            if parent_new == child_new {
                continue;
            }
            if let (Ok(parent_meta), Ok(child_meta)) =
                (self.file_by_id(*parent_new), self.file_by_id(*child_new))
            {
                let mut parent_meta = parent_meta.lock();
                if !parent_meta.children.contains(child_new) {
                    parent_meta.children.push(*child_new);
                }
                child_meta.lock().parent = Some(*parent_new);
            }
        }

        Ok(report)
    }

    /// Exposes the block-service account this service stores its pages under, so a
    /// recovery harness can hand it to [`FileService::recover_from_storage`].
    pub fn storage_account(&self) -> Capability {
        *self.pages.account()
    }

    /// Exposes the block server this service stores its pages on.
    pub fn block_server(&self) -> Arc<BlockServer> {
        Arc::clone(self.pages.block_server())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path::PagePath;
    use bytes::Bytes;

    #[test]
    fn committed_data_survives_a_total_server_loss() {
        let block_server = Arc::new(BlockServer::new(Arc::new(amoeba_block::MemStore::new())));
        let service = FileService::new(Arc::clone(&block_server));
        let account = service.storage_account();

        // Build two files with committed content and one pending update.
        let file_a = service.create_file().unwrap();
        let va = service.create_version(&file_a).unwrap();
        let pa = service
            .append_page(&va, &PagePath::root(), Bytes::from_static(b"file A data"))
            .unwrap();
        service.commit(&va).unwrap();

        let file_b = service.create_file().unwrap();
        let vb = service.create_version(&file_b).unwrap();
        service
            .write_page(&vb, &PagePath::root(), Bytes::from_static(b"file B root"))
            .unwrap();
        service.commit(&vb).unwrap();
        // A second committed update to file B, so it has a two-entry chain.
        let vb2 = service.create_version(&file_b).unwrap();
        service
            .write_page(&vb2, &PagePath::root(), Bytes::from_static(b"file B newer"))
            .unwrap();
        service.commit(&vb2).unwrap();
        // An uncommitted update that will be lost with the crash.
        let pending = service.create_version(&file_a).unwrap();
        service
            .write_page(
                &pending,
                &PagePath::root(),
                Bytes::from_static(b"never committed"),
            )
            .unwrap();

        // The server process is gone; only the block server remains.
        drop(service);

        let (recovered, report) = FileService::recover_from_storage(
            Arc::clone(&block_server),
            account,
            ServiceConfig::default(),
        )
        .unwrap();
        assert_eq!(report.files.len(), 2);
        assert!(report.committed_versions >= 4);
        // The pending update was never flushed: it shows up as unflushed crash
        // garbage (write-back) rather than a decodable uncommitted version page.
        assert!(
            report.discarded_uncommitted + report.freed_unflushed >= 1,
            "the pending update must be discarded: {report:?}"
        );

        // Every recovered file's current version is readable; one of them holds
        // file A's page, the other file B's newest root.
        let mut contents = Vec::new();
        for cap in &report.files {
            let current = recovered.current_version(cap).unwrap();
            let root = recovered
                .read_committed_page(&current, &PagePath::root())
                .unwrap();
            let info = recovered
                .committed_page_info(&current, &PagePath::root())
                .unwrap();
            if info.nrefs > 0 {
                contents.push(
                    recovered
                        .read_committed_page(&current, &PagePath::new(vec![0]))
                        .unwrap(),
                );
            }
            contents.push(root);
        }
        assert!(contents.contains(&Bytes::from_static(b"file A data")));
        assert!(contents.contains(&Bytes::from_static(b"file B newer")));
        let _ = pa;
    }

    #[test]
    fn recovered_service_supports_new_updates() {
        let block_server = Arc::new(BlockServer::new(Arc::new(amoeba_block::MemStore::new())));
        let service = FileService::new(Arc::clone(&block_server));
        let account = service.storage_account();
        let file = service.create_file().unwrap();
        let v = service.create_version(&file).unwrap();
        service
            .write_page(&v, &PagePath::root(), Bytes::from_static(b"before crash"))
            .unwrap();
        service.commit(&v).unwrap();
        drop(service);

        let (recovered, report) = FileService::recover_from_storage(
            Arc::clone(&block_server),
            account,
            ServiceConfig::default(),
        )
        .unwrap();
        let file = report.files[0];
        let v = recovered.create_version(&file).unwrap();
        assert_eq!(
            recovered.read_page(&v, &PagePath::root()).unwrap(),
            Bytes::from_static(b"before crash")
        );
        recovered
            .write_page(&v, &PagePath::root(), Bytes::from_static(b"after recovery"))
            .unwrap();
        recovered.commit(&v).unwrap();
        let current = recovered.current_version(&file).unwrap();
        assert_eq!(
            recovered
                .read_committed_page(&current, &PagePath::root())
                .unwrap(),
            Bytes::from_static(b"after recovery")
        );
    }

    #[test]
    fn parent_child_relationships_are_restored() {
        let block_server = Arc::new(BlockServer::new(Arc::new(amoeba_block::MemStore::new())));
        let service = FileService::new(Arc::clone(&block_server));
        let account = service.storage_account();
        let parent = service.create_file().unwrap();
        let _child = service.create_sub_file(&parent).unwrap();
        drop(service);

        let (recovered, report) = FileService::recover_from_storage(
            Arc::clone(&block_server),
            account,
            ServiceConfig::default(),
        )
        .unwrap();
        assert_eq!(report.files.len(), 2);
        // One of the recovered files has the other as its child.
        let with_children = report
            .files
            .iter()
            .filter(|cap| {
                let meta = recovered.resolve_file(cap, Rights::READ).unwrap();
                let n = meta.lock().children.len();
                n == 1
            })
            .count();
        assert_eq!(with_children, 1);
    }
}
