//! The client-side page cache of §5.4.
//!
//! A cache entry holds pages of the most recent committed version of a file the
//! client has seen.  Before the cached pages are used again, the client runs one
//! `ValidateCache` transaction; the server answers with the list of paths that
//! changed since, and only those entries are dropped.  For an unshared file the
//! answer is "up to date" and the whole cache survives.
//!
//! Validate-on-use is the *fallback* discipline, correct over any transport.
//! Over a connected transport the validation reply also carries a time-bounded
//! lease (see `crate::RemoteFs` and `afs_core::LeaseManager`): while the
//! lease lives, the store answers `validate_cache` from a local lease table
//! without touching the wire, so the revalidation this cache performs on every
//! reopen costs zero RPCs on the warm path.  The cache itself is oblivious to
//! this — it always asks, and the layer below decides whether asking needs a
//! round trip.
//!
//! The cache is generic over [`FileStore`], so the same code caches pages of a
//! remote [`crate::RemoteFs`] connection or of a local
//! [`afs_core::FileService`].

use std::collections::HashMap;

use bytes::Bytes;

use afs_core::{BlockNr, Capability, FileStore, FsError, PagePath, NOTHING_CACHED};

/// Cache statistics for the caching experiments.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Reads served from the local cache.
    pub hits: u64,
    /// Reads that had to go to the server.
    pub misses: u64,
    /// Pages discarded by revalidation.
    pub invalidated: u64,
    /// Revalidation round trips performed.
    pub validations: u64,
}

#[derive(Debug)]
struct FileEntry {
    /// Version-page block the cached pages belong to; [`NOTHING_CACHED`] until
    /// the first revalidation.
    version_block: BlockNr,
    pages: HashMap<PagePath, Bytes>,
}

impl Default for FileEntry {
    fn default() -> Self {
        FileEntry {
            version_block: NOTHING_CACHED,
            pages: HashMap::new(),
        }
    }
}

/// Cache key for one file: the minting service's port plus the object id.  The
/// port disambiguates shards — in a sharded deployment every shard mints from
/// its own service port, so two files on different shards can never alias one
/// cache entry even if their object ids collide.
type FileKey = (u64, u64);

fn file_key(file: &Capability) -> FileKey {
    (file.port.raw(), file.object)
}

/// A per-client page cache over any [`FileStore`].
pub struct ClientCache<S: FileStore> {
    store: S,
    entries: HashMap<FileKey, FileEntry>,
    stats: CacheStats,
}

impl<S: FileStore> ClientCache<S> {
    /// Wraps a store with a cache.
    pub fn new(store: S) -> Self {
        ClientCache {
            store,
            entries: HashMap::new(),
            stats: CacheStats::default(),
        }
    }

    /// The underlying store (for non-cached operations).
    pub fn store(&self) -> &S {
        &self.store
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Revalidates the cache entry for `file` (one transaction) and returns how many
    /// pages had to be discarded.  Populates the entry's version on first use.
    pub fn revalidate(&mut self, file: &Capability) -> Result<usize, FsError> {
        self.stats.validations += 1;
        let entry = self.entries.entry(file_key(file)).or_default();
        let validation = self.store.validate_cache(file, entry.version_block)?;
        if validation.up_to_date {
            return Ok(0);
        }
        let before = entry.pages.len();
        entry.pages.retain(|path, _| validation.keeps(path));
        let dropped = before - entry.pages.len();
        self.stats.invalidated += dropped as u64;
        entry.version_block = validation.current_block;
        Ok(dropped)
    }

    /// Reads a page of the file's current version through the cache.
    ///
    /// The caller is expected to have called [`ClientCache::revalidate`] when it
    /// (re)opened the file; reads themselves never trigger extra validation traffic.
    ///
    /// A miss is filled from whatever version is current at read time, while the
    /// entry stays based on the version recorded at the last revalidation.  If
    /// another client commits between the two, the next revalidation discards
    /// such a freshly fetched page and the following read refetches it — the
    /// conservative direction (an extra miss, never a stale hit), matching the
    /// paper's validate-on-open discipline.
    pub fn read(&mut self, file: &Capability, path: &PagePath) -> Result<Bytes, FsError> {
        if let Some(entry) = self.entries.get(&file_key(file)) {
            if let Some(data) = entry.pages.get(path) {
                self.stats.hits += 1;
                return Ok(data.clone());
            }
        }
        self.stats.misses += 1;
        let current = self.store.current_version(file)?;
        let data = self.store.read_committed_page(&current, path)?;
        let entry = self.entries.entry(file_key(file)).or_default();
        entry.pages.insert(path.clone(), data.clone());
        Ok(data)
    }

    /// Number of pages currently cached for `file`.
    pub fn cached_pages(&self, file: &Capability) -> usize {
        self.entries
            .get(&file_key(file))
            .map(|e| e.pages.len())
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::remote::RemoteFs;
    use afs_core::FileService;
    use afs_server::ServerGroup;
    use amoeba_rpc::LocalNetwork;
    use std::sync::Arc;

    type Fixture = (
        Arc<LocalNetwork>,
        ServerGroup,
        ClientCache<RemoteFs<Arc<LocalNetwork>>>,
        Capability,
        Vec<PagePath>,
    );

    fn setup() -> Fixture {
        let network = Arc::new(LocalNetwork::new());
        let service = FileService::in_memory();
        let group = ServerGroup::start(&network, &service, 1);
        let remote = RemoteFs::new(Arc::clone(&network), group.ports());
        let file = remote.create_file().unwrap();
        let version = remote.create_version(&file).unwrap();
        let mut paths = Vec::new();
        for i in 0..4u8 {
            paths.push(
                remote
                    .append_page(&version, &PagePath::root(), Bytes::from(vec![i]))
                    .unwrap(),
            );
        }
        remote.commit(&version).unwrap();
        let cache = ClientCache::new(remote);
        (network, group, cache, file, paths)
    }

    #[test]
    fn repeated_reads_hit_the_cache() {
        let (_n, _g, mut cache, file, paths) = setup();
        cache.revalidate(&file).unwrap();
        for _ in 0..3 {
            assert_eq!(
                cache.read(&file, &paths[0]).unwrap(),
                Bytes::from(vec![0u8])
            );
        }
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 2);
    }

    #[test]
    fn unshared_files_revalidate_as_a_null_operation() {
        let (_n, _g, mut cache, file, paths) = setup();
        cache.revalidate(&file).unwrap();
        cache.read(&file, &paths[0]).unwrap();
        // Nobody changed the file: revalidation discards nothing.
        assert_eq!(cache.revalidate(&file).unwrap(), 0);
        assert_eq!(cache.cached_pages(&file), 1);
    }

    #[test]
    fn remote_updates_invalidate_only_the_changed_pages() {
        let (_n, _g, mut cache, file, paths) = setup();
        cache.revalidate(&file).unwrap();
        for path in &paths {
            cache.read(&file, path).unwrap();
        }
        assert_eq!(cache.cached_pages(&file), 4);

        // Another client updates page 2.
        {
            let remote = cache.store();
            let v = remote.create_version(&file).unwrap();
            remote
                .write_page(&v, &paths[2], Bytes::from_static(b"remote update"))
                .unwrap();
            remote.commit(&v).unwrap();
        }

        let dropped = cache.revalidate(&file).unwrap();
        assert_eq!(dropped, 1);
        assert_eq!(cache.cached_pages(&file), 3);
        assert_eq!(
            cache.read(&file, &paths[2]).unwrap(),
            Bytes::from_static(b"remote update")
        );
    }

    #[test]
    fn sharded_files_on_different_shards_never_alias_cache_entries() {
        use crate::ShardedStore;
        use afs_core::FileStoreExt;

        let (store, _replicas) = ShardedStore::local_replicated(2, 1);
        // One file per shard, each holding different data at the same page path.
        let mut files = Vec::new();
        for i in 0..2u8 {
            let file = store.create_file().unwrap();
            let page = store
                .update(&file, |tx| {
                    tx.append(&PagePath::root(), Bytes::from(vec![i; 8]))
                })
                .unwrap();
            files.push((file, page, i));
        }
        // The cache keys entries by (shard port, object id): reads of the two
        // files must stay distinct even though their paths are identical.
        let mut cache = ClientCache::new(&store);
        for (file, page, i) in &files {
            cache.revalidate(file).unwrap();
            assert_eq!(cache.read(file, page).unwrap(), Bytes::from(vec![*i; 8]));
        }
        for (file, page, i) in &files {
            assert_eq!(
                cache.read(file, page).unwrap(),
                Bytes::from(vec![*i; 8]),
                "cache entry aliased across shards"
            );
        }
        assert_eq!(cache.stats().hits, 2);
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn a_fresh_entry_revalidates_without_a_block_read_while_another_file_retires() {
        use afs_core::{BlockServer, FileStoreExt, MemStore, ServiceConfig};
        use amoeba_block::BlockStore;

        let store = Arc::new(MemStore::new());
        let service = FileService::with_config(
            Arc::new(BlockServer::new(Arc::clone(&store) as Arc<dyn BlockStore>)),
            ServiceConfig {
                history_retention: 1,
                ..Default::default()
            },
        );
        // The first file holds block 0, until its first commit retires it.
        let first = service.create_file().unwrap();
        assert_eq!(service.current_version_block(&first).unwrap(), 0);
        let other = service.create_file().unwrap();
        for round in 0..50u8 {
            service
                .update(&first, |tx| {
                    tx.write(&PagePath::root(), Bytes::from(vec![round; 64]))
                })
                .unwrap();
            let reads = store.stats().reads;
            let mut cache = ClientCache::new(Arc::clone(&service));
            assert_eq!(cache.revalidate(&other), Ok(0));
            assert_eq!(store.stats().reads, reads, "round {round}");
        }
    }

    #[test]
    fn the_same_cache_wraps_a_local_store() {
        let service = FileService::in_memory();
        let file = service.create_file().unwrap();
        let v = service.create_version(&file).unwrap();
        let page = service
            .append_page(&v, &PagePath::root(), Bytes::from_static(b"local page"))
            .unwrap();
        service.commit(&v).unwrap();

        let mut cache = ClientCache::new(Arc::clone(&service));
        cache.revalidate(&file).unwrap();
        assert_eq!(
            cache.read(&file, &page).unwrap(),
            Bytes::from_static(b"local page")
        );
        assert_eq!(
            cache.read(&file, &page).unwrap(),
            Bytes::from_static(b"local page")
        );
        assert_eq!(cache.stats().hits, 1);
    }
}
