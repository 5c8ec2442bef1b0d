//! The file service façade: files, versions and the tables that track them.
//!
//! A [`FileService`] is the state shared by all file-server processes of one logical
//! Amoeba file service: the page store ([`PageIo`] over a [`BlockServer`]), the
//! capability minter, and the file/version tables (the paper's "replicated file
//! table").  Server processes in `afs-server` are thin RPC façades over an
//! `Arc<FileService>`; a process crash loses nothing because every version page is on
//! disk and the tables can be rebuilt from the blocks (see [`recover`](crate::recover)).
//!
//! The concurrency-control machinery lives in the sibling modules and is implemented
//! as further `impl FileService` blocks:
//!
//! * [`cow`](crate::cow) — reading and writing pages with copy-on-write and flag
//!   maintenance,
//! * [`commit`](crate::commit) — the optimistic validation and commit protocol,
//! * [`locking`](crate::locking) — top/inner/soft locks and super-file updates,
//! * [`gc`](crate::gc) — retiring old versions at commit, and the audit,
//! * [`cache`](crate::cache) — client cache validation.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use amoeba_block::{BlockNr, BlockServer, MemStore};
use amoeba_capability::{Capability, Minter, Port, Rights};

use crate::lease::{LeaseManager, DEFAULT_LEASE_TTL};
use crate::page::{Page, PageRef, VersionHeader};
use crate::pageio::PageIo;
use crate::types::{FileId, FsError, Result, VersionId};

/// Configuration of a file service.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Capacity of the server-side page/flag cache; `None` disables it (E13).
    pub flag_cache_capacity: Option<usize>,
    /// How many committed versions of each file are retained.  The commit that
    /// pushes a file's chain past this depth retires the oldest versions at once,
    /// down to the oldest version an uncommitted version is based on
    /// (see [`gc`](crate::gc)).  `usize::MAX` never retires anything.
    pub history_retention: usize,
    /// First residue of the object-id namespace this service mints from.  A shard
    /// `i` of an `n`-shard deployment uses `object_id_offset = i`,
    /// `object_id_stride = n`, so every capability it issues satisfies
    /// `cap.object % n == i` and clients can locate the shard holding any file or
    /// version from the capability alone (`amoeba_capability::shard_of`).
    pub object_id_offset: u64,
    /// Stride of the object-id namespace (see [`ServiceConfig::object_id_offset`]).
    /// The default `1` reproduces the unsharded dense namespace.
    pub object_id_stride: u64,
    /// How long a waiter keeps retrying before concluding the lock holder is gone and
    /// running crash recovery on the lock.
    pub lock_patience: std::time::Duration,
    /// How long a read lease granted on a `ValidateCache` reply lasts (see
    /// [`lease`](crate::lease)); zero disables leases.  Every port fronting
    /// the service grants from its one table, and every commit settles it.
    pub lease_ttl: std::time::Duration,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            flag_cache_capacity: Some(4096),
            history_retention: 8,
            object_id_offset: 0,
            object_id_stride: 1,
            lock_patience: std::time::Duration::from_millis(500),
            lease_ttl: DEFAULT_LEASE_TTL,
        }
    }
}

/// State of a version in its life cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VersionState {
    /// Created but not yet committed: a possible future state of the file.
    Uncommitted,
    /// Committed: a past or the current state of the file.
    Committed,
    /// Aborted by the client or removed after a serialisability conflict.
    Aborted,
}

/// Bookkeeping for one file.
#[derive(Debug)]
pub(crate) struct FileMeta {
    /// The file identifier (object number of its capability).
    pub id: FileId,
    /// The retained committed versions' pages, oldest first.  The back is the newest
    /// version committed through this service; the on-disk commit-reference chain
    /// stays authoritative for what is current, and walks start from the back.
    pub chain: VecDeque<BlockNr>,
    /// Commits whose base is not linked into `chain` yet (two commits of one file
    /// may finish in either order): base → successor.
    pub unlinked: HashMap<BlockNr, BlockNr>,
    /// The blocks that die with each retained version, found when its successor
    /// committed: the descent then reads pages still in the page cache, where at
    /// retirement they are `history_retention` commits old.
    pub dies_with: HashMap<BlockNr, Vec<BlockNr>>,
    /// Committed versions held back from retirement, with how many holds each
    /// carries: the bases of this file's uncommitted versions, and current
    /// versions a caller is trying or waiting on.  Retirement stops at the oldest
    /// of them: the low-water mark.
    pub pins: HashMap<BlockNr, usize>,
    /// Parent super-file, if this file is a sub-file.
    pub parent: Option<FileId>,
    /// Sub-files contained in this file (making it a super-file when non-empty).
    pub children: Vec<FileId>,
}

impl FileMeta {
    /// A file whose only committed version is the page at `block`.
    pub(crate) fn new(id: FileId, block: BlockNr) -> FileMeta {
        FileMeta {
            id,
            chain: VecDeque::from([block]),
            unlinked: HashMap::new(),
            dies_with: HashMap::new(),
            pins: HashMap::new(),
            parent: None,
            children: Vec::new(),
        }
    }

    /// The newest committed version linked into the chain.
    pub(crate) fn newest(&self) -> BlockNr {
        *self
            .chain
            .back()
            .expect("a file always has a committed version")
    }

    /// True if the version page at `block` is a committed version this file still
    /// retains.
    pub(crate) fn retains(&self, block: BlockNr) -> bool {
        self.chain.contains(&block)
    }

    /// Records that `block` committed on `base`, and links every successor whose
    /// base is now the newest version.  Linking a linked version changes nothing.
    pub(crate) fn link(&mut self, base: BlockNr, block: BlockNr) {
        if self.retains(block) {
            return;
        }
        self.unlinked.insert(base, block);
        while let Some(next) = self.unlinked.remove(&self.newest()) {
            self.chain.push_back(next);
        }
    }

    /// Holds the committed version at `block` back from retirement.
    pub(crate) fn pin(&mut self, block: BlockNr) {
        *self.pins.entry(block).or_default() += 1;
    }

    /// Releases one hold on `block`.
    pub(crate) fn unpin(&mut self, block: BlockNr) {
        if let Some(count) = self.pins.get_mut(&block) {
            *count -= 1;
            if *count == 0 {
                self.pins.remove(&block);
            }
        }
    }
}

/// Bookkeeping for one version.
#[derive(Debug)]
pub(crate) struct VersionMeta {
    /// Owner capability.
    pub cap: Capability,
    /// File this version belongs to.
    pub file: FileId,
    /// Block of the version page.
    pub block: BlockNr,
    /// Life-cycle state.
    pub state: VersionState,
    /// Blocks privately owned by this uncommitted version (copy-on-write copies and
    /// new pages), which abort and conflict removal free.  Does not include the
    /// version page itself.  Emptied at commit: a committed version's pages are
    /// freed when the version is retired, by a descent of its successor's tree.
    pub owned_blocks: HashSet<BlockNr>,
    /// The committed version this uncommitted version was created on, pinned in
    /// its file's [`FileMeta::pins`] until the version commits or is dropped.
    pub base: Option<BlockNr>,
    /// Blocks of this version whose contents currently live only in the write-back
    /// buffer (including the version page).  Flushed by commit, dropped by abort.
    pub dirty_blocks: HashSet<BlockNr>,
}

impl VersionMeta {
    /// A committed version whose page is `block`.
    pub(crate) fn committed(cap: Capability, file: FileId, block: BlockNr) -> VersionMeta {
        VersionMeta {
            cap,
            file,
            block,
            state: VersionState::Committed,
            owned_blocks: HashSet::new(),
            dirty_blocks: HashSet::new(),
            base: None,
        }
    }
}

/// Counters describing commit activity, used by the experiments.
#[derive(Debug, Default)]
pub struct CommitStats {
    /// Commits that succeeded on the first test-and-set (base was still current).
    pub fast_path: AtomicU64,
    /// Commits that had to run the serialisability test against at least one
    /// concurrently committed version.
    pub validated: AtomicU64,
    /// Commits rejected because the updates were not serialisable.
    pub conflicts: AtomicU64,
    /// Serialisability tests run, over all commits.
    pub validations: AtomicU64,
    /// Total pages visited by serialisability tests.
    pub pages_compared: AtomicU64,
}

/// Snapshot of [`CommitStats`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CommitStatsSnapshot {
    /// Commits that succeeded on the first test-and-set.
    pub fast_path: u64,
    /// Commits that needed validation against concurrent committers.
    pub validated: u64,
    /// Commits rejected with a serialisability conflict.
    pub conflicts: u64,
    /// Serialisability tests run, over all commits.
    pub validations: u64,
    /// Total pages visited by serialisability tests.
    pub pages_compared: u64,
}

/// The Amoeba file service.
pub struct FileService {
    pub(crate) pages: PageIo,
    pub(crate) minter: Mutex<Minter>,
    pub(crate) files: RwLock<HashMap<FileId, Arc<Mutex<FileMeta>>>>,
    pub(crate) versions: RwLock<HashMap<VersionId, Arc<Mutex<VersionMeta>>>>,
    /// Version-page block → version id, so block-keyed lookups (the
    /// `current_version` path, retirement) cost one hash probe instead of a scan
    /// that locks every version.  Maintained on create/commit/remove.
    pub(crate) block_index: RwLock<HashMap<BlockNr, VersionId>>,
    pub(crate) next_object: AtomicU64,
    pub(crate) config: ServiceConfig,
    /// The service port; also used as the lock-holder identity written into top/inner
    /// lock fields ("locks are made of ports", §5.3).
    pub(crate) port: Port,
    /// Ports known to belong to crashed updates; waiters use this to trigger lock
    /// recovery instead of waiting forever.  Fed only through
    /// [`FileService::report_crashed_port`]; no server or client reports a
    /// crash yet, so today only the `locking` tests do.
    pub(crate) crashed_ports: RwLock<HashSet<Port>>,
    /// Commit-path statistics.
    pub(crate) commit_stats: CommitStats,
    /// The top locks of small files, by the version page they lock.  §5.3 makes
    /// a small file's top lock a *hint* (the soft-locking scheme) that no crash
    /// recovery reads, so it lives here and is never written to a page; see
    /// [`locking`](crate::locking).  Taken under a page's block lock, never the
    /// other way round.
    pub(crate) soft_locks: Mutex<HashMap<BlockNr, Port>>,
    /// The read leases granted on this service's files, settled by
    /// [`commit`](FileService::commit).
    pub(crate) leases: LeaseManager,
}

impl std::fmt::Debug for FileService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FileService")
            .field("port", &self.port)
            .field("files", &self.files.read().len())
            .field("versions", &self.versions.read().len())
            .finish()
    }
}

impl FileService {
    /// Creates a file service over the given block server, with default configuration.
    pub fn new(block_server: Arc<BlockServer>) -> Arc<Self> {
        Self::with_config(block_server, ServiceConfig::default())
    }

    /// Creates a file service entirely in memory — the one-liner used by examples and
    /// tests that do not care about the storage substrate.
    pub fn in_memory() -> Arc<Self> {
        Self::new(Arc::new(BlockServer::new(Arc::new(MemStore::new()))))
    }

    /// Creates a file service for shard `shard` of an `shards`-shard deployment:
    /// its object-id namespace is the residue class `shard` modulo `shards`, so
    /// every capability it mints routes back to it via
    /// `amoeba_capability::shard_of`.
    pub fn for_shard(
        block_server: Arc<BlockServer>,
        shard: usize,
        shards: usize,
        config: ServiceConfig,
    ) -> Arc<Self> {
        assert!(shards > 0 && shard < shards, "shard index out of range");
        Self::with_config(
            block_server,
            ServiceConfig {
                object_id_offset: shard as u64,
                object_id_stride: shards as u64,
                ..config
            },
        )
    }

    /// Creates a file service with explicit configuration.
    pub fn with_config(block_server: Arc<BlockServer>, config: ServiceConfig) -> Arc<Self> {
        assert!(
            config.object_id_stride > 0,
            "object-id stride must be positive"
        );
        assert!(
            config.object_id_offset < config.object_id_stride,
            "object-id offset must be a residue of the stride"
        );
        let account = block_server.create_account();
        let pages = PageIo::with_cache(block_server, account, config.flag_cache_capacity);
        Arc::new(Self::from_parts(pages, config))
    }

    /// A service with empty tables over `pages`, under a fresh port.
    pub(crate) fn from_parts(pages: PageIo, config: ServiceConfig) -> FileService {
        let port = Port::random();
        FileService {
            pages,
            minter: Mutex::new(Minter::new(port)),
            files: RwLock::new(HashMap::new()),
            versions: RwLock::new(HashMap::new()),
            block_index: RwLock::new(HashMap::new()),
            next_object: AtomicU64::new(1),
            leases: LeaseManager::new(config.lease_ttl),
            config,
            port,
            crashed_ports: RwLock::new(HashSet::new()),
            commit_stats: CommitStats::default(),
            soft_locks: Mutex::new(HashMap::new()),
        }
    }

    /// The service port.
    pub fn port(&self) -> Port {
        self.port
    }

    /// The service configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// The service's lease table: servers grant from it, and
    /// [`commit`](FileService::commit) settles it.
    pub fn leases(&self) -> &LeaseManager {
        &self.leases
    }

    /// Page reads served from the write-back buffer or the page cache since
    /// creation: the one I/O count the store cannot see.  Physical I/O is
    /// counted by the store, [`BlockServer::stats`].
    pub fn cache_hits(&self) -> u64 {
        self.pages.cache_hits()
    }

    /// Commit-path statistics.
    pub fn commit_stats(&self) -> CommitStatsSnapshot {
        CommitStatsSnapshot {
            fast_path: self.commit_stats.fast_path.load(Ordering::Relaxed),
            validated: self.commit_stats.validated.load(Ordering::Relaxed),
            conflicts: self.commit_stats.conflicts.load(Ordering::Relaxed),
            validations: self.commit_stats.validations.load(Ordering::Relaxed),
            pages_compared: self.commit_stats.pages_compared.load(Ordering::Relaxed),
        }
    }

    /// Marks a port (an update's lock identity) as crashed, enabling waiters to run
    /// the §5.3 lock-recovery procedure.
    pub fn report_crashed_port(&self, port: Port) {
        self.crashed_ports.write().insert(port);
    }

    pub(crate) fn is_port_crashed(&self, port: Port) -> bool {
        self.crashed_ports.read().contains(&port)
    }

    pub(crate) fn next_object_id(&self) -> u64 {
        // Object ids walk the service's residue class: offset + stride, offset +
        // 2·stride, …  With the default offset 0 / stride 1 this is the dense
        // namespace 1, 2, 3, …; a shard of a sharded deployment skips the ids of
        // its siblings so placement is derivable from any capability.
        let counter = self.next_object.fetch_add(1, Ordering::Relaxed);
        self.config.object_id_offset + self.config.object_id_stride * counter
    }

    // ------------------------------------------------------------------
    // Capability resolution.
    // ------------------------------------------------------------------

    pub(crate) fn resolve_file(
        &self,
        cap: &Capability,
        rights: Rights,
    ) -> Result<Arc<Mutex<FileMeta>>> {
        self.minter
            .lock()
            .verify(cap, rights)
            .map_err(|_| FsError::PermissionDenied)?;
        self.files
            .read()
            .get(&cap.object)
            .cloned()
            .ok_or(FsError::NoSuchFile)
    }

    pub(crate) fn resolve_version(
        &self,
        cap: &Capability,
        rights: Rights,
    ) -> Result<Arc<Mutex<VersionMeta>>> {
        self.minter
            .lock()
            .verify(cap, rights)
            .map_err(|_| FsError::PermissionDenied)?;
        self.versions
            .read()
            .get(&cap.object)
            .cloned()
            .ok_or(FsError::NoSuchVersion)
    }

    pub(crate) fn file_by_id(&self, id: FileId) -> Result<Arc<Mutex<FileMeta>>> {
        self.files
            .read()
            .get(&id)
            .cloned()
            .ok_or(FsError::NoSuchFile)
    }

    pub(crate) fn version_meta_by_id(&self, id: VersionId) -> Result<Arc<Mutex<VersionMeta>>> {
        self.versions
            .read()
            .get(&id)
            .cloned()
            .ok_or(FsError::NoSuchVersion)
    }

    /// Registers a version in the table and the block index.
    pub(crate) fn register_version(&self, id: VersionId, meta: VersionMeta) {
        let block = meta.block;
        self.versions.write().insert(id, Arc::new(Mutex::new(meta)));
        self.block_index.write().insert(block, id);
    }

    /// Removes a version from the table and the block index (abort, conflict
    /// removal, retirement).
    pub(crate) fn forget_version(&self, id: VersionId, block: BlockNr) {
        self.versions.write().remove(&id);
        let mut index = self.block_index.write();
        if index.get(&block) == Some(&id) {
            index.remove(&block);
        }
    }

    /// Releases the pin an uncommitted version held on `base`.  Called with no
    /// version lock held: a version lock is never held while a file lock is
    /// taken, because retirement takes the version table's lock under a file lock.
    pub(crate) fn unpin_base(&self, file: FileId, base: Option<BlockNr>) {
        if let (Some(base), Ok(file)) = (base, self.file_by_id(file)) {
            file.lock().unpin(base);
        }
    }

    /// Resolves the file's current version and pins it in the same critical
    /// section, so no commit retires the block, and reissues its number, while
    /// the caller tries or waits on its lock fields.  Undone by
    /// [`FileService::release_pin`].
    pub(crate) fn pin_current(&self, file: &Mutex<FileMeta>) -> Result<BlockNr> {
        let mut meta = file.lock();
        let block = self.current_version_block_locked(&mut meta)?;
        meta.pin(block);
        Ok(block)
    }

    /// Releases a pin on `block` and retires what it held back.
    pub(crate) fn release_pin(&self, file: &Mutex<FileMeta>, block: BlockNr) {
        let mut meta = file.lock();
        meta.unpin(block);
        let _ = self.retire_past_retention(&mut meta);
    }

    // ------------------------------------------------------------------
    // File creation.
    // ------------------------------------------------------------------

    /// Creates a new file directly under the file-system root and returns its owner
    /// capability.  The file starts with one (empty) committed version, which is its
    /// current version.
    pub fn create_file(&self) -> Result<Capability> {
        self.create_file_inner(None)
    }

    /// Creates a new file as a *sub-file* of the given super-file (§5.3, Fig. 2): its
    /// version page becomes an internal node of the system tree below the parent.
    pub fn create_sub_file(&self, parent_cap: &Capability) -> Result<Capability> {
        let parent = self.resolve_file(parent_cap, Rights::CREATE)?;
        let parent_id = parent.lock().id;
        self.create_file_inner(Some(parent_id))
    }

    fn create_file_inner(&self, parent: Option<FileId>) -> Result<Capability> {
        let file_id = self.next_object_id();
        let version_id = self.next_object_id();
        let (file_cap, version_cap) = {
            let mut minter = self.minter.lock();
            (
                minter.mint(file_id, Rights::ALL),
                minter.mint(version_id, Rights::ALL),
            )
        };

        // The initial, empty, committed version.
        let mut header = VersionHeader::new(file_cap, version_cap);
        if let Some(parent_id) = parent {
            let parent_meta = self.file_by_id(parent_id)?;
            header.parent_reference = Some(parent_meta.lock().newest());
        }
        let vpage = Arc::new(Page::version_page(header));
        // The initial version is committed from birth, so it is written through.
        let block = self.pages.allocate_page(&vpage)?;

        let file_meta = FileMeta {
            parent,
            ..FileMeta::new(file_id, block)
        };
        let version_meta = VersionMeta::committed(version_cap, file_id, block);
        self.files
            .write()
            .insert(file_id, Arc::new(Mutex::new(file_meta)));
        self.register_version(version_id, version_meta);

        if let Some(parent_id) = parent {
            self.register_child(parent_id, file_id, block)?;
        }
        Ok(file_cap)
    }

    /// Records `child_id` as a sub-file of `parent_id` and adds a reference to the
    /// child's version page in the parent's current version page, so the system tree
    /// (Fig. 2) is navigable and lock recovery can find sub-file version pages.
    fn register_child(
        &self,
        parent_id: FileId,
        child_id: FileId,
        child_block: BlockNr,
    ) -> Result<()> {
        let parent_meta = self.file_by_id(parent_id)?;
        let mut parent_meta = parent_meta.lock();
        parent_meta.children.push(child_id);
        let parent_block = self.current_version_block_locked(&mut parent_meta)?;
        self.pages.update_page(parent_block, &[], |page| {
            page.push_ref(PageRef::shared(child_block))?;
            Ok((true, ()))
        })?;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Current-version resolution.
    // ------------------------------------------------------------------

    /// Follows the commit-reference chain from the newest linked version to the
    /// actual current version page and returns its block number.  Versions it
    /// finds committed beyond the newest linked one (a commit that has not linked
    /// itself yet, or one finished by lock recovery) are linked on the way.
    pub(crate) fn current_version_block_locked(&self, meta: &mut FileMeta) -> Result<BlockNr> {
        let mut block = meta.newest();
        loop {
            let page = self.pages.read_page(block)?;
            let header = page
                .version
                .as_ref()
                .ok_or_else(|| FsError::CorruptPage("expected a version page".into()))?;
            match header.commit_reference {
                Some(next) => {
                    meta.link(block, next);
                    block = next;
                }
                None => break,
            }
        }
        Ok(block)
    }

    /// Returns the block number of the file's current version page.
    pub fn current_version_block(&self, file_cap: &Capability) -> Result<BlockNr> {
        let meta = self.resolve_file(file_cap, Rights::READ)?;
        let mut meta = meta.lock();
        self.current_version_block_locked(&mut meta)
    }

    /// Returns a read-only capability for the file's current version.
    ///
    /// The capability refers to the *committed* current version: its pages can be read
    /// (for example to fill a cache) but not modified.
    pub fn current_version(&self, file_cap: &Capability) -> Result<Capability> {
        let file = self.resolve_file(file_cap, Rights::READ)?;
        let (file_id, block) = {
            let mut meta = file.lock();
            (meta.id, self.current_version_block_locked(&mut meta)?)
        };
        self.version_cap_for_block(file_id, block)
    }

    /// Returns a capability (valid at this service instance) for the version whose
    /// version page lives at `block`, registering the version in the table if it is
    /// not yet known — e.g. after a recovery, or when a companion manager committed it.
    pub(crate) fn version_cap_for_block(
        &self,
        file_id: FileId,
        block: BlockNr,
    ) -> Result<Capability> {
        let known = self.block_index.read().get(&block).copied();
        if let Some(id) = known {
            if let Some(meta) = self.versions.read().get(&id) {
                return Ok(meta.lock().cap);
            }
        }
        // Unknown version page (written by a previous incarnation of the service or a
        // companion manager): register it as a committed version under a fresh
        // capability.
        let page = self.pages.read_page(block)?;
        if page.version.is_none() {
            return Err(FsError::CorruptPage("expected a version page".into()));
        }
        let version_id = self.next_object_id();
        let cap = self.minter.lock().mint(version_id, Rights::ALL);
        self.register_version(version_id, VersionMeta::committed(cap, file_id, block));
        Ok(cap)
    }

    /// Looks up basic information about a version from its capability.
    pub fn version_state(&self, version_cap: &Capability) -> Result<VersionState> {
        let meta = self.resolve_version(version_cap, Rights::NONE)?;
        let state = meta.lock().state;
        Ok(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_file_yields_an_empty_current_version() {
        let service = FileService::in_memory();
        let file = service.create_file().unwrap();
        let current = service.current_version(&file).unwrap();
        assert_eq!(
            service.version_state(&current).unwrap(),
            VersionState::Committed
        );
    }

    #[test]
    fn files_have_distinct_capabilities() {
        let service = FileService::in_memory();
        let a = service.create_file().unwrap();
        let b = service.create_file().unwrap();
        assert_ne!(a.object, b.object);
    }

    #[test]
    fn forged_file_capability_is_rejected() {
        let service = FileService::in_memory();
        let mut cap = service.create_file().unwrap();
        cap.check ^= 1;
        assert_eq!(
            service.current_version(&cap).unwrap_err(),
            FsError::PermissionDenied
        );
    }

    #[test]
    fn sub_files_are_registered_with_their_parent() {
        let service = FileService::in_memory();
        let parent = service.create_file().unwrap();
        let child = service.create_sub_file(&parent).unwrap();
        let parent_meta = service.resolve_file(&parent, Rights::READ).unwrap();
        let children = parent_meta.lock().children.clone();
        assert_eq!(children, vec![child.object]);
        // The parent's current version page references the child's version page.
        let parent_block = service.current_version_block(&parent).unwrap();
        let parent_page = service.pages.read_page(parent_block).unwrap();
        assert_eq!(parent_page.nrefs(), 1);
    }

    #[test]
    fn unknown_capability_object_is_no_such_file() {
        let service = FileService::in_memory();
        let file = service.create_file().unwrap();
        // Mint a capability for an object id that does not exist.
        let bogus = service.minter.lock().mint(9999, Rights::ALL);
        assert_eq!(
            service.current_version(&bogus).unwrap_err(),
            FsError::NoSuchFile
        );
        let _ = file;
    }
}
