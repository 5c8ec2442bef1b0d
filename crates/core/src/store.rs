//! The [`FileStore`] trait: the client-visible file-service protocol.
//!
//! The paper's central observation about clients (§5) is that an update cycle is
//! the *same protocol* whether the service lives in the client's address space or
//! behind transaction RPC: create a version, read and write its pages, commit in
//! one shot, and redo the whole update when the commit reports a serialisability
//! conflict.  `FileStore` captures exactly that protocol so caches, retry loops,
//! workloads and the experiment harness can be written once and run unchanged
//! over a local [`FileService`] or a remote connection (`afs_client::RemoteFs`).
//!
//! Two method families deserve a note:
//!
//! * [`FileStore::commit`] returns the [`CommitReceipt`] so callers can observe
//!   fast-path/validation behaviour through the trait; remote implementations
//!   carry the receipt in the commit reply.
//! * [`FileStore::read_pages`] / [`FileStore::write_pages`] are *batched* page
//!   operations.  The default methods simply loop, which is the right thing for
//!   a local store; remote stores override them to ship one request per batch so
//!   a k-page update costs O(1) round trips instead of O(k) (the round-trip
//!   discipline distributed cost models reward).
//!
//! The retrying transaction API built on top of this trait lives in
//! [`crate::update`].

use bytes::Bytes;

use amoeba_block::BlockNr;
use amoeba_capability::Capability;

use crate::cache::CacheValidation;
use crate::commit::CommitReceipt;
use crate::path::PagePath;
use crate::service::FileService;
use crate::types::Result;

/// The full client-visible protocol of an Amoeba file service.
///
/// Object-safe: generic helpers (the retrying update API) live in the
/// [`crate::update::FileStoreExt`] extension trait, which is blanket-implemented
/// for every `FileStore`.
pub trait FileStore: Send + Sync {
    /// Creates a new file and returns its owner capability.  The file starts
    /// with one empty committed version.
    fn create_file(&self) -> Result<Capability>;

    /// Creates a new uncommitted version of `file`, based on its current
    /// version, and returns the version capability.
    fn create_version(&self, file: &Capability) -> Result<Capability>;

    /// Reads the client data of the page at `path` in an uncommitted version,
    /// recording the read in the version's read set.
    fn read_page(&self, version: &Capability, path: &PagePath) -> Result<Bytes>;

    /// Replaces the client data of the page at `path` in an uncommitted
    /// version (copy-on-write).
    fn write_page(&self, version: &Capability, path: &PagePath, data: Bytes) -> Result<()>;

    /// Appends a new page holding `data` at the end of the reference table of
    /// the page at `parent` and returns the new page's path.
    fn append_page(&self, version: &Capability, parent: &PagePath, data: Bytes)
        -> Result<PagePath>;

    /// Inserts a new page holding `data` at reference index `index` of the page
    /// at `parent`, shifting later references up, and returns the new path.
    fn insert_page(
        &self,
        version: &Capability,
        parent: &PagePath,
        index: u16,
        data: Bytes,
    ) -> Result<PagePath>;

    /// Removes the page at `path` (and the subtree below it) from its parent's
    /// reference table.
    fn remove_page(&self, version: &Capability, path: &PagePath) -> Result<()>;

    /// Commits an uncommitted version, making it the current version of its
    /// file.  On [`crate::FsError::SerialisabilityConflict`] the version has
    /// been removed by the service and the caller must redo the update on a
    /// fresh version.
    fn commit(&self, version: &Capability) -> Result<CommitReceipt>;

    /// Aborts an uncommitted version, freeing its private pages.
    fn abort(&self, version: &Capability) -> Result<()>;

    /// Returns a capability for the file's current (committed) version.
    fn current_version(&self, file: &Capability) -> Result<Capability>;

    /// Reads the client data of a page in a *committed* version.  No flags are
    /// recorded and nothing is shadowed.
    fn read_committed_page(&self, version: &Capability, path: &PagePath) -> Result<Bytes>;

    /// Validates a cache entry filled from the committed version page at
    /// `cached_block`: reports whether the cache is current and which page
    /// paths changed since (§5.4 — the client asks).  Remote stores may answer
    /// from a live server-granted lease without a round trip; a local store
    /// always runs the serialisability test.
    fn validate_cache(&self, file: &Capability, cached_block: BlockNr) -> Result<CacheValidation>;

    /// Reads several pages of an uncommitted version, in `paths` order.
    ///
    /// The default implementation loops over [`FileStore::read_page`]; remote
    /// stores override it with one batched request so the call costs O(1)
    /// round trips.
    fn read_pages(&self, version: &Capability, paths: &[PagePath]) -> Result<Vec<Bytes>> {
        paths
            .iter()
            .map(|path| self.read_page(version, path))
            .collect()
    }

    /// Writes several pages of an uncommitted version.
    ///
    /// The default implementation loops over [`FileStore::write_page`]; remote
    /// stores override it with one batched request per transport-frame's worth
    /// of data.
    fn write_pages(&self, version: &Capability, writes: &[(PagePath, Bytes)]) -> Result<()> {
        for (path, data) in writes {
            self.write_page(version, path, data.clone())?;
        }
        Ok(())
    }
}

impl FileStore for FileService {
    fn create_file(&self) -> Result<Capability> {
        FileService::create_file(self)
    }

    fn create_version(&self, file: &Capability) -> Result<Capability> {
        FileService::create_version(self, file)
    }

    fn read_page(&self, version: &Capability, path: &PagePath) -> Result<Bytes> {
        FileService::read_page(self, version, path)
    }

    fn write_page(&self, version: &Capability, path: &PagePath, data: Bytes) -> Result<()> {
        FileService::write_page(self, version, path, data)
    }

    fn append_page(
        &self,
        version: &Capability,
        parent: &PagePath,
        data: Bytes,
    ) -> Result<PagePath> {
        FileService::append_page(self, version, parent, data)
    }

    fn insert_page(
        &self,
        version: &Capability,
        parent: &PagePath,
        index: u16,
        data: Bytes,
    ) -> Result<PagePath> {
        FileService::insert_page(self, version, parent, index, data)
    }

    fn remove_page(&self, version: &Capability, path: &PagePath) -> Result<()> {
        FileService::remove_page(self, version, path)
    }

    fn commit(&self, version: &Capability) -> Result<CommitReceipt> {
        FileService::commit(self, version)
    }

    fn abort(&self, version: &Capability) -> Result<()> {
        FileService::abort_version(self, version)
    }

    fn current_version(&self, file: &Capability) -> Result<Capability> {
        FileService::current_version(self, file)
    }

    fn read_committed_page(&self, version: &Capability, path: &PagePath) -> Result<Bytes> {
        FileService::read_committed_page(self, version, path)
    }

    fn validate_cache(&self, file: &Capability, cached_block: BlockNr) -> Result<CacheValidation> {
        FileService::validate_cache(self, file, cached_block)
    }
}

macro_rules! forward_file_store {
    ($wrapper:ty) => {
        impl<S: FileStore + ?Sized> FileStore for $wrapper {
            fn create_file(&self) -> Result<Capability> {
                (**self).create_file()
            }
            fn create_version(&self, file: &Capability) -> Result<Capability> {
                (**self).create_version(file)
            }
            fn read_page(&self, version: &Capability, path: &PagePath) -> Result<Bytes> {
                (**self).read_page(version, path)
            }
            fn write_page(&self, version: &Capability, path: &PagePath, data: Bytes) -> Result<()> {
                (**self).write_page(version, path, data)
            }
            fn append_page(
                &self,
                version: &Capability,
                parent: &PagePath,
                data: Bytes,
            ) -> Result<PagePath> {
                (**self).append_page(version, parent, data)
            }
            fn insert_page(
                &self,
                version: &Capability,
                parent: &PagePath,
                index: u16,
                data: Bytes,
            ) -> Result<PagePath> {
                (**self).insert_page(version, parent, index, data)
            }
            fn remove_page(&self, version: &Capability, path: &PagePath) -> Result<()> {
                (**self).remove_page(version, path)
            }
            fn commit(&self, version: &Capability) -> Result<CommitReceipt> {
                (**self).commit(version)
            }
            fn abort(&self, version: &Capability) -> Result<()> {
                (**self).abort(version)
            }
            fn current_version(&self, file: &Capability) -> Result<Capability> {
                (**self).current_version(file)
            }
            fn read_committed_page(&self, version: &Capability, path: &PagePath) -> Result<Bytes> {
                (**self).read_committed_page(version, path)
            }
            fn validate_cache(
                &self,
                file: &Capability,
                cached_block: BlockNr,
            ) -> Result<CacheValidation> {
                (**self).validate_cache(file, cached_block)
            }
            fn read_pages(&self, version: &Capability, paths: &[PagePath]) -> Result<Vec<Bytes>> {
                (**self).read_pages(version, paths)
            }
            fn write_pages(
                &self,
                version: &Capability,
                writes: &[(PagePath, Bytes)],
            ) -> Result<()> {
                (**self).write_pages(version, writes)
            }
        }
    };
}

forward_file_store!(&S);
forward_file_store!(std::sync::Arc<S>);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::FsError;

    fn exercise(store: &dyn FileStore) {
        let file = store.create_file().unwrap();
        let version = store.create_version(&file).unwrap();
        let page = store
            .append_page(
                &version,
                &PagePath::root(),
                Bytes::from_static(b"via trait"),
            )
            .unwrap();
        let receipt = store.commit(&version).unwrap();
        assert!(receipt.fast_path);
        let current = store.current_version(&file).unwrap();
        assert_eq!(
            store.read_committed_page(&current, &page).unwrap(),
            Bytes::from_static(b"via trait")
        );
    }

    #[test]
    fn file_service_implements_the_trait_object_safely() {
        let service = FileService::in_memory();
        exercise(&*service);
        // The Arc blanket impl forwards too.
        exercise(&service);
    }

    #[test]
    fn default_batched_methods_loop_over_the_singles() {
        let service = FileService::in_memory();
        let store: &dyn FileStore = &*service;
        let file = store.create_file().unwrap();
        let setup = store.create_version(&file).unwrap();
        let paths: Vec<PagePath> = (0..4u8)
            .map(|i| {
                store
                    .append_page(&setup, &PagePath::root(), Bytes::from(vec![i]))
                    .unwrap()
            })
            .collect();
        store.commit(&setup).unwrap();

        let version = store.create_version(&file).unwrap();
        let writes: Vec<(PagePath, Bytes)> = paths
            .iter()
            .map(|p| (p.clone(), Bytes::from_static(b"batched")))
            .collect();
        store.write_pages(&version, &writes).unwrap();
        let read_back = store.read_pages(&version, &paths).unwrap();
        assert!(read_back
            .iter()
            .all(|d| d == &Bytes::from_static(b"batched")));
        store.commit(&version).unwrap();
    }

    #[test]
    fn trait_abort_frees_the_version() {
        let service = FileService::in_memory();
        let store: &dyn FileStore = &*service;
        let file = store.create_file().unwrap();
        let version = store.create_version(&file).unwrap();
        store
            .write_page(&version, &PagePath::root(), Bytes::from_static(b"doomed"))
            .unwrap();
        store.abort(&version).unwrap();
        // The aborted version is forgotten entirely.
        assert_eq!(
            store
                .write_page(&version, &PagePath::root(), Bytes::from_static(b"no"))
                .unwrap_err(),
            FsError::NoSuchVersion
        );
    }
}
