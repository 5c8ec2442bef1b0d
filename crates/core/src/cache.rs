//! Maintaining a cache (§5.4).
//!
//! "A version, from the moment of its creation, behaves like a private copy of a file
//! that cannot change without the owner's consent.  Both Amoeba File Servers and
//! their clients can therefore maintain a cache which, for the most recently used
//! versions of a set of files, contains collections of pages.  When a new version of
//! a file is created, a client or a server examines its cache to see if there are any
//! pages of a previous version of the file that can still be used. … a serialisability
//! test is made between the cache entry and the current version in order to find out
//! which blocks of the cache are still valid."
//!
//! The paper's crucial property is that correctness never *depends* on
//! server→client "unsolicited messages": the cache holder asks, at the moment it
//! needs the data, which of its pages are stale.  For a file that is not shared the
//! test is "a null operation, and all pages in the cache will always be valid".
//! The reproduction keeps validate-on-use as the universal fallback and layers an
//! optional lease protocol on top ([`crate::lease`]): a validation reply
//! over a connected transport grants a time-bounded lease that lets the client skip
//! the ask entirely, and a committing writer breaks conflicting leases with a
//! callback before its commit completes — so leases are a pure round-trip
//! optimisation, never a correctness dependency.
//!
//! This module contains the *server-side* primitive, [`FileService::validate_cache`];
//! the client-side cache object itself lives in the `afs-client` crate.  Experiment
//! E3 (`afs-sim`) compares it with the lease protocol's callbacks.

use amoeba_block::BlockNr;
use amoeba_capability::{Capability, Rights};

use crate::path::PagePath;
use crate::service::FileService;
use crate::types::Result;

/// Result of validating a cache entry against the current version of a file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheValidation {
    /// The cached version is still the current version: the test was a null
    /// operation and every cached page is valid.
    pub up_to_date: bool,
    /// Block number of the file's current version page (the version the cache should
    /// be associated with after revalidation).
    pub current_block: BlockNr,
    /// Paths whose cached pages must be discarded because a version committed after
    /// the cached one wrote them or restructured their parent.
    pub discard: Vec<PagePath>,
}

impl CacheValidation {
    /// True if a cached page at `path` may be kept: neither the page itself nor any
    /// of its ancestors was written or restructured since the cached version.
    pub fn keeps(&self, path: &PagePath) -> bool {
        !self
            .discard
            .iter()
            .any(|changed| changed == path || changed.is_prefix_of(path))
    }
}

/// The cached version block of a cache entry that holds nothing yet.  Validating
/// it costs no block read: the answer is "discard everything, here is the current
/// version".  It is the nil block reference, which no page ever occupies.
pub const NOTHING_CACHED: BlockNr = crate::types::NIL_BLOCK;

impl FileService {
    /// Checks that `file_cap` is a valid READ capability for an existing file,
    /// without touching any version state.  The server calls this before side
    /// effects tied to a validation — registering a lease grant, say — so a
    /// forged or unauthorized capability cannot plant server-side state on an
    /// arbitrary object id.
    pub fn check_read_capability(&self, file_cap: &Capability) -> Result<()> {
        self.resolve_file(file_cap, Rights::READ).map(|_| ())
    }

    /// Validates a cache entry: given the block of the committed version the cache
    /// was filled from ([`NOTHING_CACHED`] for an empty entry), returns which page
    /// paths have changed since.
    ///
    /// The cost is proportional to the size of the write sets of the versions
    /// committed since the cached one — for an unshared file, the cached version is
    /// still current and the call returns immediately.
    pub fn validate_cache(
        &self,
        file_cap: &Capability,
        cached_version_block: BlockNr,
    ) -> Result<CacheValidation> {
        let file = self.resolve_file(file_cap, Rights::READ)?;
        let stale = |current_block| CacheValidation {
            up_to_date: false,
            current_block,
            discard: vec![PagePath::root()],
        };
        if cached_version_block == NOTHING_CACHED {
            return Ok(stale(file.lock().newest()));
        }
        let current_block = {
            let mut meta = file.lock();
            let current = self.current_version_block_locked(&mut meta)?;
            if current == cached_version_block {
                return Ok(CacheValidation {
                    up_to_date: true,
                    current_block: current,
                    discard: Vec::new(),
                });
            }
            // A cached block this file no longer retains — retired, never one of
            // its versions, or reissued since to another file's version page — is
            // not an error: the whole entry is stale, and discarding the root
            // invalidates every cached page under `CacheValidation::keeps`.
            if !meta.retains(cached_version_block) {
                return Ok(stale(current));
            }
            // Pinned, so no concurrent commit retires the versions the walk
            // below reads: retirement stops at the oldest pinned version.
            meta.pin(cached_version_block);
            current
        };
        let discard = self.changed_paths_between(cached_version_block, current_block);
        self.release_pin(&file, cached_version_block);
        Ok(CacheValidation {
            up_to_date: false,
            current_block,
            discard: discard?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn unshared_file_validation_is_a_null_operation() {
        let service = FileService::in_memory();
        let (file, _) = file_with_leaves(&service, 4);
        let cached = service.current_version_block(&file).unwrap();
        let before = service.block_server().stats();
        let validation = service.validate_cache(&file, cached).unwrap();
        assert!(validation.up_to_date);
        assert!(validation.discard.is_empty());
        // The null operation reads only the version page to confirm currency.
        let reads = service.block_server().stats().since(&before).reads;
        assert!(reads <= 2, "null validation read {reads} pages");
    }

    #[test]
    fn validation_reports_exactly_the_changed_paths() {
        let service = FileService::in_memory();
        let (file, paths) = file_with_leaves(&service, 6);
        let cached = service.current_version_block(&file).unwrap();

        // Two updates by other clients: pages 1 and 4 change.
        for i in [1usize, 4] {
            let v = service.create_version(&file).unwrap();
            service
                .write_page(&v, &paths[i], Bytes::from_static(b"new"))
                .unwrap();
            service.commit(&v).unwrap();
        }

        let validation = service.validate_cache(&file, cached).unwrap();
        assert!(!validation.up_to_date);
        assert_eq!(validation.discard, vec![paths[1].clone(), paths[4].clone()]);
        assert!(validation.keeps(&paths[0]));
        assert!(!validation.keeps(&paths[1]));
        assert!(validation.keeps(&paths[5]));
    }

    #[test]
    fn structural_changes_invalidate_whole_subtrees() {
        let service = FileService::in_memory();
        let (file, _) = file_with_leaves(&service, 3);
        let cached = service.current_version_block(&file).unwrap();
        // Remove a page: the root's reference table changes.
        let v = service.create_version(&file).unwrap();
        service.remove_page(&v, &PagePath::new(vec![1])).unwrap();
        service.commit(&v).unwrap();

        let validation = service.validate_cache(&file, cached).unwrap();
        // The root path appears in the discard list, and `keeps` therefore rejects
        // every cached page (all paths have the root as an ancestor).
        assert!(!validation.keeps(&PagePath::new(vec![0])));
        assert!(!validation.keeps(&PagePath::new(vec![2])));
    }

    #[test]
    fn validation_accumulates_across_many_updates() {
        let service = FileService::in_memory();
        let (file, paths) = file_with_leaves(&service, 4);
        let cached = service.current_version_block(&file).unwrap();
        for round in 0..5u8 {
            let v = service.create_version(&file).unwrap();
            service
                .write_page(&v, &paths[(round % 2) as usize], Bytes::from(vec![round]))
                .unwrap();
            service.commit(&v).unwrap();
        }
        let validation = service.validate_cache(&file, cached).unwrap();
        assert_eq!(validation.discard, vec![paths[0].clone(), paths[1].clone()]);
        assert!(validation.keeps(&paths[2]));
        assert!(validation.keeps(&paths[3]));
    }

    #[test]
    fn unreadable_cached_blocks_flush_the_whole_entry() {
        let service = FileService::in_memory();
        let (file, paths) = file_with_leaves(&service, 2);
        // A block number the service never allocated (e.g. the cached version
        // was retired long ago): everything must be discarded, not reported as
        // an error.
        let validation = service.validate_cache(&file, u32::MAX - 1).unwrap();
        assert!(!validation.up_to_date);
        assert!(!validation.keeps(&paths[0]));
        assert!(!validation.keeps(&paths[1]));
        // The reported current block re-bases the cache as usual.
        let again = service
            .validate_cache(&file, validation.current_block)
            .unwrap();
        assert!(again.up_to_date);
    }

    #[test]
    fn an_empty_entry_is_answered_without_a_block_read() {
        let service = FileService::in_memory();
        let (file, paths) = file_with_leaves(&service, 2);
        let (before, hits) = (service.block_server().stats(), service.cache_hits());
        let validation = service.validate_cache(&file, NOTHING_CACHED).unwrap();
        let reads = service.block_server().stats().since(&before).reads;
        assert_eq!((reads, service.cache_hits() - hits), (0, 0));
        assert!(!validation.up_to_date);
        assert!(!validation.keeps(&paths[0]));
        assert_eq!(
            validation.current_block,
            service.current_version_block(&file).unwrap()
        );
    }

    #[test]
    fn revalidated_cache_can_be_rebased_on_the_current_version() {
        let service = FileService::in_memory();
        let (file, paths) = file_with_leaves(&service, 2);
        let cached = service.current_version_block(&file).unwrap();
        let v = service.create_version(&file).unwrap();
        service
            .write_page(&v, &paths[0], Bytes::from_static(b"v2"))
            .unwrap();
        service.commit(&v).unwrap();
        let validation = service.validate_cache(&file, cached).unwrap();
        // Re-validating against the reported current block is then a null operation.
        let again = service
            .validate_cache(&file, validation.current_block)
            .unwrap();
        assert!(again.up_to_date);
    }
}
