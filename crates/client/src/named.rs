//! [`NamedStore`]: path resolution over any [`FileStore`], with a
//! generation-checked prefix cache.
//!
//! The file service knows nothing about names — a capability *is* the
//! location.  `NamedStore` adds the human layer: it wraps a store with an
//! [`afs_dir::DirStore`] and resolves slash-separated paths (`/a/b/c`) to the
//! capabilities bound at their leaves, walking one directory table per
//! component.
//!
//! Resolution is where a client spends its naming budget, so the walk is
//! backed by a **prefix cache**: every directory table read from the server is
//! kept, keyed by `(service port, object id)` exactly like
//! [`crate::ClientCache`] keys its page entries (so shards can never alias),
//! together with the directory's *generation* (bumped by every mutation) and
//! the version-page block the table was read at.  A warm [`NamedStore::resolve`]
//! touches no server at all; [`NamedStore::revalidate`] re-checks a cached
//! prefix with one `ValidateCache` transaction per directory — the same
//! ask-don't-be-told discipline as the §5.4 page cache — and drops only tables
//! that actually changed.  Because directories are ordinary files, the lease
//! fast path in `validate_cache` of `crate::RemoteFs` covers them too: under a
//! live lease a revalidate-then-resolve of a warm prefix costs zero RPCs, and
//! a committed rename elsewhere breaks the directory's lease over the callback
//! channel so the next revalidation goes back to the wire.  Mutations made
//! through this `NamedStore` invalidate the affected directories eagerly.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;

use afs_core::{BlockNr, Capability, FileStore, NOTHING_CACHED};
use afs_dir::{DirCap, DirEntry, DirError, DirStore, DirTable, EntryKind};
use amoeba_capability::Rights;

/// Statistics of the path-resolution prefix cache.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct NameCacheStats {
    /// Directory tables served from the cache during resolution.
    pub hits: u64,
    /// Directory tables that had to be fetched from the server.
    pub misses: u64,
    /// `ValidateCache` round trips performed by revalidation.
    pub validations: u64,
    /// Cached tables discarded because the directory had changed.
    pub invalidated: u64,
}

/// Cache key for one directory: the minting service's port plus the object id
/// — the same key shape as [`crate::ClientCache`], so two directories on
/// different shards can never alias one entry.
type DirKey = (u64, u64);

fn dir_key(dir: &DirCap) -> DirKey {
    (dir.cap().port.raw(), dir.cap().object)
}

struct CachedDir {
    /// Version-page block the table was read at (for `ValidateCache`).
    version_block: BlockNr,
    /// The directory's generation when the table was read.
    generation: u64,
    /// Shared so a warm hit hands out an `Arc` clone instead of deep-copying
    /// the table on resolution's hot path.
    table: Arc<DirTable>,
}

/// A path-resolving view of a [`FileStore`] hierarchy.
pub struct NamedStore<S: FileStore> {
    dirs: DirStore<S>,
    root: DirCap,
    cache: Mutex<HashMap<DirKey, CachedDir>>,
    stats: Mutex<NameCacheStats>,
}

impl<S: FileStore> NamedStore<S> {
    /// Creates a fresh hierarchy: a new root directory stored in `store`.
    pub fn create(store: S) -> Result<Self, DirError> {
        let dirs = DirStore::new(store);
        let root = dirs.create_root()?;
        Ok(NamedStore {
            dirs,
            root,
            cache: Mutex::new(HashMap::new()),
            stats: Mutex::new(NameCacheStats::default()),
        })
    }

    /// Wraps an existing hierarchy rooted at `root` (e.g. another client's
    /// [`NamedStore::root`], shared over the same file service).
    pub fn with_root(store: S, root: DirCap) -> Self {
        NamedStore {
            dirs: DirStore::new(store),
            root,
            cache: Mutex::new(HashMap::new()),
            stats: Mutex::new(NameCacheStats::default()),
        }
    }

    /// The root directory of this hierarchy.
    pub fn root(&self) -> DirCap {
        self.root
    }

    /// The wrapped directory store (for operations on explicit [`DirCap`]s).
    pub fn dirs(&self) -> &DirStore<S> {
        &self.dirs
    }

    /// The underlying file store.
    pub fn store(&self) -> &S {
        self.dirs.store()
    }

    /// Accumulated cache statistics.
    pub fn cache_stats(&self) -> NameCacheStats {
        *self.stats.lock()
    }

    /// Drops every cached directory table.
    pub fn clear_cache(&self) {
        self.cache.lock().clear();
    }

    /// The generation the cached table of `dir` was read at, if it is cached.
    /// After a successful [`NamedStore::revalidate`], a cached generation is
    /// the directory's current one — the generation check the cache's
    /// correctness argument rests on.
    pub fn cached_generation(&self, dir: &DirCap) -> Option<u64> {
        self.cache
            .lock()
            .get(&dir_key(dir))
            .map(|cached| cached.generation)
    }

    // ------------------------------------------------------------------
    // Path handling.
    // ------------------------------------------------------------------

    fn components(path: &str) -> Result<Vec<&str>, DirError> {
        let parts: Vec<&str> = path.split('/').filter(|c| !c.is_empty()).collect();
        for part in &parts {
            afs_dir::validate_name(part)?;
        }
        Ok(parts)
    }

    fn split_leaf(path: &str) -> Result<(Vec<&str>, &str), DirError> {
        let mut parts = Self::components(path)?;
        let leaf = parts
            .pop()
            .ok_or_else(|| DirError::InvalidName(path.to_string()))?;
        Ok((parts, leaf))
    }

    // ------------------------------------------------------------------
    // The cached table fetch.
    // ------------------------------------------------------------------

    /// Returns the table of `dir`, from the cache when present.  A warm hit
    /// costs one `Arc` clone under the lock, never a table copy.
    fn cached_table(&self, dir: &DirCap) -> Result<Arc<DirTable>, DirError> {
        if let Some(cached) = self.cache.lock().get(&dir_key(dir)) {
            self.stats.lock().hits += 1;
            return Ok(Arc::clone(&cached.table));
        }
        self.fetch_table(dir)
    }

    /// Fetches the table of `dir` from the server and caches it.
    fn fetch_table(&self, dir: &DirCap) -> Result<Arc<DirTable>, DirError> {
        // Learn the current version-page block first (one transaction), so a
        // commit racing the read leaves the recorded block conservatively
        // stale — the next revalidation refetches rather than trusting it.
        let validation = self
            .dirs
            .store()
            .validate_cache(dir.cap(), NOTHING_CACHED)
            .map_err(DirError::Fs)?;
        let (header, table) = self.dirs.load_committed(dir)?;
        let table = Arc::new(table);
        self.stats.lock().misses += 1;
        self.cache.lock().insert(
            dir_key(dir),
            CachedDir {
                version_block: validation.current_block,
                generation: header.generation,
                table: Arc::clone(&table),
            },
        );
        Ok(table)
    }

    fn invalidate(&self, dir: &DirCap) {
        self.cache.lock().remove(&dir_key(dir));
    }

    /// Revalidates the cached table of `dir` with one `ValidateCache`
    /// transaction.  Returns `true` when the cached table was still current;
    /// on `false` the stale table has been dropped (the next resolution
    /// refetches it).  A directory that is not cached reports `true`.
    pub fn revalidate_dir(&self, dir: &DirCap) -> Result<bool, DirError> {
        let block = match self.cache.lock().get(&dir_key(dir)) {
            Some(cached) => cached.version_block,
            None => return Ok(true),
        };
        self.stats.lock().validations += 1;
        let validation = self
            .dirs
            .store()
            .validate_cache(dir.cap(), block)
            .map_err(DirError::Fs)?;
        if validation.up_to_date {
            return Ok(true);
        }
        self.invalidate(dir);
        self.stats.lock().invalidated += 1;
        Ok(false)
    }

    /// Revalidates every cached directory along `path` (root included), one
    /// `ValidateCache` transaction per cached prefix directory, and returns
    /// how many stale tables were dropped.  The generation-checked analogue of
    /// [`crate::ClientCache::revalidate`]'s validate-on-open discipline.
    pub fn revalidate(&self, path: &str) -> Result<usize, DirError> {
        let components = Self::components(path)?;
        let mut dropped = 0;
        let mut dir = self.root;
        if !self.revalidate_dir(&dir)? {
            dropped += 1;
        }
        // Walk as far as the (now current) tables lead; uncached or dropped
        // prefixes need no further validation — they will be refetched.
        for component in components {
            let table = match self.cache.lock().get(&dir_key(&dir)) {
                Some(cached) => cached.table.clone(),
                None => break,
            };
            let entry = match table.get(component) {
                Some(entry) => entry.clone(),
                None => break,
            };
            let child = match entry.as_dir() {
                Some(child) => child,
                None => break,
            };
            if !self.revalidate_dir(&child)? {
                dropped += 1;
            }
            dir = child;
        }
        Ok(dropped)
    }

    // ------------------------------------------------------------------
    // Resolution.
    // ------------------------------------------------------------------

    /// Resolves a path to its directory entry, walking one (cached) directory
    /// table per component.  A warm resolve costs zero server transactions.
    pub fn resolve(&self, path: &str) -> Result<DirEntry, DirError> {
        let (parents, leaf) = Self::split_leaf(path)?;
        let dir = self.walk(&parents)?;
        let table = self.cached_table(&dir)?;
        table
            .get(leaf)
            .cloned()
            .ok_or_else(|| DirError::NotFound(leaf.to_string()))
    }

    /// Resolves a path and demands `required` rights of the leaf entry's grant
    /// mask (attenuation at the naming layer).
    pub fn resolve_with(&self, path: &str, required: Rights) -> Result<DirEntry, DirError> {
        let entry = self.resolve(path)?;
        if !entry.mask.contains(required) {
            return Err(DirError::InsufficientGrant);
        }
        Ok(entry)
    }

    /// Resolves a path that must name a directory.  `/` (or the empty path)
    /// resolves to the root.
    pub fn resolve_dir(&self, path: &str) -> Result<DirCap, DirError> {
        let components = Self::components(path)?;
        self.walk(&components)
    }

    fn walk(&self, components: &[&str]) -> Result<DirCap, DirError> {
        let mut dir = self.root;
        for component in components {
            let table = self.cached_table(&dir)?;
            let entry = table
                .get(component)
                .cloned()
                .ok_or_else(|| DirError::NotFound(component.to_string()))?;
            dir = entry
                .as_dir()
                .ok_or_else(|| DirError::NotADirectory(component.to_string()))?;
        }
        Ok(dir)
    }

    /// Lists the directory at `path`, sorted by name.
    pub fn read_dir(&self, path: &str) -> Result<Vec<DirEntry>, DirError> {
        let dir = self.resolve_dir(path)?;
        let table = self.cached_table(&dir)?;
        Ok(table.entries().cloned().collect())
    }

    // ------------------------------------------------------------------
    // Mutations (eagerly invalidate the touched directories).
    // ------------------------------------------------------------------

    /// Creates a directory at `path` (all parents must exist) and returns its
    /// capability.
    pub fn mkdir(&self, path: &str, mask: Rights) -> Result<DirCap, DirError> {
        let (parents, leaf) = Self::split_leaf(path)?;
        let dir = self.walk(&parents)?;
        let child = self.dirs.mkdir(&dir, leaf, mask)?;
        self.invalidate(&dir);
        Ok(child)
    }

    /// Creates every missing directory along `path` and returns the deepest
    /// one.  Races with concurrent creators converge: a lost creation retries
    /// as a lookup of the winner's directory.
    pub fn mkdir_all(&self, path: &str, mask: Rights) -> Result<DirCap, DirError> {
        let components = Self::components(path)?;
        let mut dir = self.root;
        for component in components {
            let table = self.cached_table(&dir)?;
            dir = match table.get(component) {
                Some(entry) => entry
                    .as_dir()
                    .ok_or_else(|| DirError::NotADirectory(component.to_string()))?,
                None => match self.dirs.mkdir(&dir, component, mask) {
                    Ok(child) => {
                        self.invalidate(&dir);
                        child
                    }
                    Err(DirError::AlreadyExists(_)) => {
                        // Concurrent creator won; adopt their directory.
                        self.invalidate(&dir);
                        let entry = self.dirs.lookup_any(&dir, component)?;
                        entry
                            .as_dir()
                            .ok_or_else(|| DirError::NotADirectory(component.to_string()))?
                    }
                    Err(e) => return Err(e),
                },
            };
        }
        Ok(dir)
    }

    /// Creates a new (empty, committed) file in the store and binds it at
    /// `path` with grant mask `mask`.  Returns the file's capability.
    pub fn create_file(&self, path: &str, mask: Rights) -> Result<Capability, DirError> {
        let cap = self.dirs.store().create_file().map_err(DirError::Fs)?;
        self.link(path, cap, mask, EntryKind::File)?;
        Ok(cap)
    }

    /// Binds `cap` at `path` with grant mask `mask`.
    pub fn link(
        &self,
        path: &str,
        cap: Capability,
        mask: Rights,
        kind: EntryKind,
    ) -> Result<(), DirError> {
        let (parents, leaf) = Self::split_leaf(path)?;
        let dir = self.walk(&parents)?;
        self.dirs.link(&dir, leaf, cap, mask, kind)?;
        self.invalidate(&dir);
        Ok(())
    }

    /// Removes the binding at `path` and returns the removed entry.
    pub fn unlink(&self, path: &str) -> Result<DirEntry, DirError> {
        let (parents, leaf) = Self::split_leaf(path)?;
        let dir = self.walk(&parents)?;
        let removed = self.dirs.unlink(&dir, leaf)?;
        self.invalidate(&dir);
        Ok(removed)
    }

    /// Renames the entry at `from` to `to` — atomically when both paths share
    /// a directory, as the ordered two-commit OCC transaction otherwise (see
    /// [`afs_dir::DirStore::rename_with`]).
    pub fn rename(&self, from: &str, to: &str) -> Result<(), DirError> {
        let (from_parents, from_leaf) = Self::split_leaf(from)?;
        let (to_parents, to_leaf) = Self::split_leaf(to)?;
        let src = self.walk(&from_parents)?;
        let dst = self.walk(&to_parents)?;
        let result = self.dirs.rename(&src, from_leaf, &dst, to_leaf);
        self.invalidate(&src);
        self.invalidate(&dst);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use afs_core::{FileService, FileStoreExt, PagePath};
    use bytes::Bytes;
    use std::sync::Arc;

    fn named() -> NamedStore<Arc<FileService>> {
        NamedStore::create(FileService::in_memory()).unwrap()
    }

    #[test]
    fn paths_resolve_to_linked_capabilities() {
        let ns = named();
        ns.mkdir_all("/a/b", Rights::ALL).unwrap();
        let cap = ns.create_file("/a/b/c", Rights::ALL).unwrap();
        assert_eq!(ns.resolve("/a/b/c").unwrap().cap, cap);
        // Slash variants normalise to the same path.
        assert_eq!(ns.resolve("a/b//c/").unwrap().cap, cap);
        // The file is a real file: write and read through the store.
        let page = ns
            .store()
            .update(&cap, |tx| {
                tx.append(&PagePath::root(), Bytes::from_static(b"named!"))
            })
            .unwrap();
        let current = ns.store().current_version(&cap).unwrap();
        assert_eq!(
            ns.store().read_committed_page(&current, &page).unwrap(),
            Bytes::from_static(b"named!")
        );
    }

    #[test]
    fn warm_resolution_is_served_from_the_cache() {
        let ns = named();
        ns.mkdir_all("/x/y", Rights::ALL).unwrap();
        let cap = ns.create_file("/x/y/z", Rights::ALL).unwrap();
        let cold = ns.cache_stats();
        assert_eq!(ns.resolve("/x/y/z").unwrap().cap, cap);
        let after_first = ns.cache_stats();
        assert!(after_first.misses > cold.misses);
        for _ in 0..5 {
            assert_eq!(ns.resolve("/x/y/z").unwrap().cap, cap);
        }
        let warm = ns.cache_stats();
        assert_eq!(
            warm.misses, after_first.misses,
            "warm resolves fetch nothing"
        );
        assert!(warm.hits >= after_first.hits + 15, "3 tables × 5 resolves");
    }

    #[test]
    fn own_mutations_invalidate_the_cache() {
        let ns = named();
        ns.mkdir("/d", Rights::ALL).unwrap();
        let a = ns.create_file("/d/a", Rights::ALL).unwrap();
        assert_eq!(ns.resolve("/d/a").unwrap().cap, a);
        ns.rename("/d/a", "/d/b").unwrap();
        assert!(matches!(
            ns.resolve("/d/a").unwrap_err(),
            DirError::NotFound(_)
        ));
        assert_eq!(ns.resolve("/d/b").unwrap().cap, a);
    }

    #[test]
    fn revalidation_catches_foreign_mutations() {
        let service = FileService::in_memory();
        let ns = NamedStore::create(Arc::clone(&service)).unwrap();
        let other = NamedStore::with_root(Arc::clone(&service), ns.root());

        ns.mkdir("/shared", Rights::ALL).unwrap();
        let a = ns.create_file("/shared/a", Rights::ALL).unwrap();
        assert_eq!(ns.resolve("/shared/a").unwrap().cap, a);

        // Another client renames behind our back: our cache is stale.
        other.rename("/shared/a", "/shared/b").unwrap();
        assert_eq!(
            ns.resolve("/shared/a").unwrap().cap,
            a,
            "stale cache still serves the old name until revalidated"
        );

        let dropped = ns.revalidate("/shared/a").unwrap();
        assert!(dropped >= 1, "the shared directory must be detected stale");
        assert!(matches!(
            ns.resolve("/shared/a").unwrap_err(),
            DirError::NotFound(_)
        ));
        assert_eq!(ns.resolve("/shared/b").unwrap().cap, a);
        let stats = ns.cache_stats();
        assert!(stats.validations >= 1);
        assert!(stats.invalidated >= 1);

        // An unchanged prefix survives revalidation untouched, and the cached
        // generation now matches the directory's current one.
        let dropped = ns.revalidate("/shared/b").unwrap();
        assert_eq!(dropped, 0);
        let shared = ns.resolve_dir("/shared").unwrap();
        assert_eq!(
            ns.cached_generation(&shared),
            Some(ns.dirs().generation(&shared).unwrap()),
            "a revalidated cache entry carries the current generation"
        );
    }

    #[test]
    fn rights_are_attenuated_at_resolution() {
        let ns = named();
        let cap = ns.create_file("/ro", Rights::READ).unwrap();
        assert_eq!(ns.resolve_with("/ro", Rights::READ).unwrap().cap, cap);
        assert_eq!(
            ns.resolve_with("/ro", Rights::WRITE).unwrap_err(),
            DirError::InsufficientGrant
        );
    }

    #[test]
    fn path_errors_are_structured() {
        let ns = named();
        ns.create_file("/plain", Rights::ALL).unwrap();
        assert!(matches!(
            ns.resolve("/plain/below").unwrap_err(),
            DirError::NotADirectory(_)
        ));
        assert!(matches!(
            ns.resolve("/missing/x").unwrap_err(),
            DirError::NotFound(_)
        ));
        assert!(matches!(
            ns.resolve("/").unwrap_err(),
            DirError::InvalidName(_)
        ));
        assert!(matches!(
            ns.mkdir("/bad/..", Rights::ALL).unwrap_err(),
            DirError::InvalidName(_)
        ));
    }

    #[test]
    fn the_named_store_runs_over_a_sharded_router() {
        use crate::ShardedStore;
        let (store, _replicas) = ShardedStore::local_replicated(3, 2);
        let ns = NamedStore::create(store).unwrap();
        ns.mkdir_all("/spread/wide", Rights::ALL).unwrap();
        let mut caps = Vec::new();
        for i in 0..6 {
            caps.push(
                ns.create_file(&format!("/spread/wide/f{i}"), Rights::ALL)
                    .unwrap(),
            );
        }
        // Directories and files land on different shards, yet every path
        // resolves — placement is still the pure capability function.
        let shards: std::collections::HashSet<usize> = caps
            .iter()
            .map(|cap| amoeba_capability::shard_of(cap, 3))
            .collect();
        assert!(shards.len() > 1, "files must spread across shards");
        for (i, cap) in caps.iter().enumerate() {
            assert_eq!(ns.resolve(&format!("/spread/wide/f{i}")).unwrap().cap, *cap);
        }
    }
}
