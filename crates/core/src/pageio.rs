//! Page I/O: reading and writing pages through the block service.
//!
//! All pages of all versions live in blocks of a [`BlockServer`] owned by the file
//! service's account.  `PageIo` adds three layers on top of raw block I/O:
//!
//! * **A write-back buffer (overlay).**  The paper's commit protocol only requires
//!   that a version's pages be safely on disk *at commit time* ("First it ascertains
//!   that all of V.b's pages are safely on disk").  Page writes for uncommitted
//!   versions therefore land in an in-memory overlay ([`PageIo::write_page_buffered`]
//!   / [`PageIo::allocate_page_buffered`]) and are made durable by
//!   [`crate::commit`] in the same scatter-gather call as the commit-reference
//!   test-and-set: [`PageIo::update_page`] carries every dirty page ahead of
//!   the base page it sets, children first, the version page last, the commit
//!   reference last of all.  Stores apply batch entries in order, so the
//!   commit reference is never durable before a page it publishes.  A failed
//!   test writes nothing, and [`PageIo::flush_blocks_batched`] then flushes
//!   the same pages, in the same order, as one call.  Aborts simply drop the
//!   buffer; crash recovery treats an unflushed uncommitted version as
//!   aborted, which is exactly the paper's "uncommitted versions need not be
//!   salvaged" rule.  The overlay is *authoritative* for the blocks it holds:
//!   every read path consults it first, because a buffered block's on-disk
//!   contents do not exist yet.
//!
//! * **A sharded clean-page cache of `Arc<Page>`.**  The optional flag cache of
//!   §5.4 ("The Amoeba File Servers can also conveniently cache the concurrency
//!   control administration, the flag bits") is a sharded LRU keyed by block
//!   number.  Hits hand back an `Arc` clone — no deep copy of the data or the
//!   reference table — and independent shards keep concurrent commit/validation
//!   scans from serialising on a single lock.
//!
//!   **One writer per shard.**  A shard of the service has exactly one
//!   `FileService`, and every page it stores goes through this `PageIo`, so
//!   the cache is *authoritative* for what it holds: version pages, the commit
//!   critical section of [`PageIo::update_page`] included, are served from
//!   memory, and the store is read only on a miss.  What keeps that true is
//!   one order: every write stores a page before it installs it, and a read
//!   that misses fills the cache only if no page was installed in its shard
//!   since the miss (the per-shard install count), so a reply that left the
//!   store before a write can never land in the cache after it.
//!
//! * **A cache-hit counter**, the one count no store can see: reads served
//!   from the write-back buffer or the clean cache never reach it.  Physical
//!   I/O (reads, writes, write calls, allocations, frees) is counted once, by
//!   the store under the [`BlockServer`] ([`BlockServer::stats`]).

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use amoeba_block::{BlockNr, BlockServer};
use amoeba_capability::Capability;

use crate::page::Page;
use crate::types::Result;

/// Number of independent shards in the clean-page cache.
const CACHE_SHARDS: usize = 16;

/// A sharded LRU cache of decoded pages.  Each shard is guarded by its own lock so
/// hot read paths (commit validation, cache revalidation, retirement) running on
/// different blocks do not contend.
struct PageCache {
    shards: Vec<Mutex<CacheShard>>,
}

struct CacheShard {
    capacity: usize,
    /// Pages installed or removed by writers (not by fills) since creation.  A
    /// read that misses notes it and fills only if it has not moved, so a page
    /// read before a concurrent write never lands in the cache after it.
    installs: u64,
    /// Block → (page, last-use stamp).
    map: HashMap<BlockNr, (Arc<Page>, u64)>,
    /// Lazily maintained LRU queue of (block, stamp) pairs.  Entries whose stamp no
    /// longer matches the map are stale and skipped during eviction; the queue is
    /// compacted when it grows well beyond the shard capacity, keeping both hit and
    /// eviction cost amortised O(1).
    queue: VecDeque<(BlockNr, u64)>,
    tick: u64,
}

impl CacheShard {
    fn touch(&mut self, nr: BlockNr) -> Option<Arc<Page>> {
        self.tick += 1;
        let tick = self.tick;
        let (page, stamp) = self.map.get_mut(&nr)?;
        *stamp = tick;
        let page = Arc::clone(page);
        self.queue.push_back((nr, tick));
        self.maybe_compact();
        Some(page)
    }

    fn insert(&mut self, nr: BlockNr, page: Arc<Page>) {
        self.tick += 1;
        let tick = self.tick;
        self.map.insert(nr, (page, tick));
        self.queue.push_back((nr, tick));
        while self.map.len() > self.capacity {
            match self.queue.pop_front() {
                Some((victim, stamp)) => {
                    if self.map.get(&victim).is_some_and(|(_, s)| *s == stamp) {
                        self.map.remove(&victim);
                    }
                }
                None => break,
            }
        }
        self.maybe_compact();
    }

    fn remove(&mut self, nr: BlockNr) {
        self.map.remove(&nr);
    }

    fn maybe_compact(&mut self) {
        if self.queue.len() > (4 * self.capacity).max(64) {
            let map = &self.map;
            self.queue
                .retain(|(nr, stamp)| map.get(nr).is_some_and(|(_, s)| s == stamp));
        }
    }
}

impl PageCache {
    fn new(capacity: usize) -> Self {
        let per_shard = capacity.div_ceil(CACHE_SHARDS).max(1);
        PageCache {
            shards: (0..CACHE_SHARDS)
                .map(|_| {
                    Mutex::new(CacheShard {
                        capacity: per_shard,
                        installs: 0,
                        map: HashMap::new(),
                        queue: VecDeque::new(),
                        tick: 0,
                    })
                })
                .collect(),
        }
    }

    fn shard(&self, nr: BlockNr) -> &Mutex<CacheShard> {
        // Fibonacci-hash the block number so consecutive blocks spread over shards.
        let h = (u64::from(nr)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        &self.shards[(h >> 32) as usize % CACHE_SHARDS]
    }

    fn lookup(&self, nr: BlockNr) -> Lookup {
        let mut shard = self.shard(nr).lock();
        match shard.touch(nr) {
            Some(page) => Lookup::Hit(page),
            None => Lookup::Miss(shard.installs),
        }
    }

    /// Installs a page a writer has just stored.
    fn insert(&self, nr: BlockNr, page: &Arc<Page>) {
        let mut shard = self.shard(nr).lock();
        shard.installs += 1;
        shard.insert(nr, Arc::clone(page));
    }

    /// Caches a page read from the store after a [`Lookup::Miss`] that saw
    /// `installs`, unless a writer installed or removed a page in the shard
    /// since.  Writers store before they install, so an unmoved count means no
    /// write to the block completed after the read began; a moved one may mean
    /// the read returned the old page.
    fn fill(&self, nr: BlockNr, page: &Arc<Page>, installs: u64) {
        let mut shard = self.shard(nr).lock();
        if shard.installs == installs && !shard.map.contains_key(&nr) {
            shard.insert(nr, Arc::clone(page));
        }
    }

    fn remove(&self, nr: BlockNr) {
        let mut shard = self.shard(nr).lock();
        shard.installs += 1;
        shard.remove(nr);
    }
}

/// The outcome of a clean-cache lookup.
enum Lookup {
    Hit(Arc<Page>),
    /// Missed; carries the shard's install count for [`PageCache::fill`].
    Miss(u64),
}

/// The write-back buffer: dirty pages of uncommitted versions, keyed by the block
/// number they will occupy once flushed.  Authoritative over the disk.  Sharded
/// like the clean cache so concurrent versions' page writes (and the membership
/// probes on every read) do not serialise on one lock.
struct Overlay {
    shards: Vec<RwLock<HashMap<BlockNr, Arc<Page>>>>,
}

impl Overlay {
    fn new() -> Self {
        Overlay {
            shards: (0..CACHE_SHARDS)
                .map(|_| RwLock::new(HashMap::new()))
                .collect(),
        }
    }

    fn shard(&self, nr: BlockNr) -> &RwLock<HashMap<BlockNr, Arc<Page>>> {
        let h = (u64::from(nr)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        &self.shards[(h >> 32) as usize % CACHE_SHARDS]
    }

    fn get(&self, nr: BlockNr) -> Option<Arc<Page>> {
        self.shard(nr).read().get(&nr).cloned()
    }

    fn contains(&self, nr: BlockNr) -> bool {
        self.shard(nr).read().contains_key(&nr)
    }

    fn insert(&self, nr: BlockNr, page: Arc<Page>) {
        self.shard(nr).write().insert(nr, page);
    }

    fn remove(&self, nr: BlockNr) -> Option<Arc<Page>> {
        self.shard(nr).write().remove(&nr)
    }

    fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }
}

/// The page view handed to [`PageIo::update_page`] closures: dereferences to
/// [`Page`] for reading, and clones the page **only on the first mutable
/// access** (auto-deref makes this invisible at the call site).  A closure
/// that merely examines the page — the common "test" half of test-and-set,
/// which returns `(false, …)` — therefore costs no page copy at all.
pub struct PageMut<'a> {
    /// The shared original.
    base: &'a Page,
    /// The private copy, made lazily on first mutable access.
    copy: Option<Page>,
}

impl<'a> PageMut<'a> {
    fn shared(base: &'a Page) -> PageMut<'a> {
        PageMut { base, copy: None }
    }

    /// The page to write back, if the closure asked for one: the private copy
    /// when the page was touched mutably, `None` when it was only read
    /// (nothing changed, so there is nothing to write).
    fn into_written(self) -> Option<Page> {
        self.copy
    }
}

impl std::ops::Deref for PageMut<'_> {
    type Target = Page;
    fn deref(&self) -> &Page {
        self.copy.as_ref().unwrap_or(self.base)
    }
}

impl std::ops::DerefMut for PageMut<'_> {
    fn deref_mut(&mut self) -> &mut Page {
        self.copy.get_or_insert_with(|| self.base.clone())
    }
}

/// Page-granularity I/O over a [`BlockServer`] account.
pub struct PageIo {
    server: Arc<BlockServer>,
    account: Capability,
    cache: Option<PageCache>,
    overlay: Overlay,
    cache_hits: AtomicU64,
}

impl PageIo {
    /// Creates a page I/O layer with the server-side page/flag cache enabled.
    pub fn new(server: Arc<BlockServer>, account: Capability) -> Self {
        Self::with_cache(server, account, Some(4096))
    }

    /// Creates a page I/O layer; `cache_capacity: None` disables the server-side
    /// cache entirely (used by experiment E13 to measure its benefit).
    pub fn with_cache(
        server: Arc<BlockServer>,
        account: Capability,
        cache_capacity: Option<usize>,
    ) -> Self {
        PageIo {
            server,
            account,
            cache: cache_capacity.map(PageCache::new),
            overlay: Overlay::new(),
            cache_hits: AtomicU64::new(0),
        }
    }

    /// The block server this page I/O layer writes to.
    pub fn block_server(&self) -> &Arc<BlockServer> {
        &self.server
    }

    /// The account capability under which pages are stored.
    pub fn account(&self) -> &Capability {
        &self.account
    }

    /// Reads served from the write-back buffer or the clean cache without
    /// touching the block service, since creation.
    pub(crate) fn cache_hits(&self) -> u64 {
        self.cache_hits.load(Ordering::Relaxed)
    }

    // ------------------------------------------------------------------
    // Write-through operations (committed state, merge writes).
    // ------------------------------------------------------------------

    /// Allocates a block and physically stores `page` in it.
    pub fn allocate_page(&self, page: &Arc<Page>) -> Result<BlockNr> {
        let encoded = page.encode()?;
        let nr = self.server.allocate_and_write(&self.account, encoded)?;
        if let Some(cache) = &self.cache {
            cache.insert(nr, page);
        }
        Ok(nr)
    }

    /// Writes `page` into the existing block `nr`, physically and immediately:
    /// the store first, then the cache.
    pub fn write_page(&self, nr: BlockNr, page: &Arc<Page>) -> Result<()> {
        let encoded = page.encode()?;
        if let Err(e) = self.server.write(&self.account, nr, encoded) {
            // The write may have reached part of the store: the cached copy is
            // no longer known to match it.
            if let Some(cache) = &self.cache {
                cache.remove(nr);
            }
            return Err(e.into());
        }
        // Disk is now authoritative again for this block.
        self.overlay.remove(nr);
        if let Some(cache) = &self.cache {
            cache.insert(nr, page);
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Write-back operations (uncommitted versions).
    // ------------------------------------------------------------------

    /// Allocates a block number for `page` but keeps the contents in the write-back
    /// buffer; nothing is physically written until [`PageIo::flush_blocks_batched`].
    pub fn allocate_page_buffered(&self, page: &Arc<Page>) -> Result<BlockNr> {
        let nr = self.server.allocate(&self.account)?;
        self.overlay.insert(nr, Arc::clone(page));
        Ok(nr)
    }

    /// Records `page` as the (logical) contents of block `nr` in the write-back
    /// buffer.  Costs no physical I/O.
    pub fn write_page_buffered(&self, nr: BlockNr, page: &Arc<Page>) {
        self.overlay.insert(nr, Arc::clone(page));
    }

    /// True if block `nr` currently has buffered, unflushed contents.
    pub fn is_buffered(&self, nr: BlockNr) -> bool {
        self.overlay.contains(nr)
    }

    /// Drops the buffered contents of block `nr` without writing them (abort path).
    /// The block itself remains allocated; callers free it separately.
    pub fn drop_buffered(&self, nr: BlockNr) {
        self.overlay.remove(nr);
    }

    /// Physically writes the buffered pages of `blocks` as **one scatter-gather
    /// block-write call**, preserving the given order within the batch, and
    /// moves them from the write-back buffer to the clean cache.  Blocks with
    /// no buffered contents are skipped.  Returns the number of pages written.
    ///
    /// The caller is responsible for ordering: [`crate::commit`] passes
    /// children before parents and the version page last.  Stores apply batch
    /// entries in order (see [`amoeba_block::BlockStore::write_batch`]), so a
    /// crash mid-batch leaves a children-first prefix durable, never a parent
    /// without its children.  On failure every taken page is restored to the
    /// buffer — re-flushing an already-applied prefix is an idempotent re-put.
    pub fn flush_blocks_batched<I: IntoIterator<Item = BlockNr>>(
        &self,
        blocks: I,
    ) -> Result<usize> {
        self.store_batch(blocks, None)
    }

    /// The one batched store: the buffered pages of `blocks` in order, then
    /// `last` if given, as one [`BlockServer::write_batch`] call.  Returns the
    /// number of pages written.
    ///
    /// The pages leave the buffer before the call and enter the clean cache
    /// only after it returns.  Once `last` carries a commit reference to the
    /// store, anyone who follows it reads the new version as committed, and
    /// a buffered copy would be a second, writable authority for it.  No one
    /// else reads the pages during the call: nothing references them until
    /// the call has stored them.  On failure the pages go back to the buffer
    /// and `last` leaves the cache, because the write may have reached part
    /// of the store.
    fn store_batch(
        &self,
        blocks: impl IntoIterator<Item = BlockNr>,
        last: Option<(BlockNr, &Arc<Page>)>,
    ) -> Result<usize> {
        let taken: Vec<(BlockNr, Arc<Page>)> = blocks
            .into_iter()
            .filter_map(|nr| Some((nr, self.overlay.remove(nr)?)))
            .collect();
        match (taken.is_empty(), last) {
            (true, None) => return Ok(0),
            // A page of its own is a plain write, which never allocates.
            (true, Some((nr, page))) => return self.write_page(nr, page).map(|()| 1),
            _ => {}
        }
        let pages = || taken.iter().map(|(nr, page)| (*nr, page)).chain(last);
        let stored = pages()
            .map(|(nr, page)| Ok((nr, page.encode()?)))
            .collect::<Result<Vec<_>>>()
            .and_then(|encoded| Ok(self.server.write_batch(&self.account, &encoded)?));
        if let Err(e) = stored {
            if let (Some(cache), Some((nr, _))) = (&self.cache, last) {
                cache.remove(nr);
            }
            for (nr, page) in taken {
                self.overlay.insert(nr, page);
            }
            return Err(e);
        }
        if let Some(cache) = &self.cache {
            pages().for_each(|(nr, page)| cache.insert(nr, page));
        }
        Ok(pages().count())
    }

    // ------------------------------------------------------------------
    // Reads.
    // ------------------------------------------------------------------

    /// Reads and decodes the page stored in block `nr`.  Consults the write-back
    /// buffer first (it is authoritative), then the clean cache, then the disk.
    pub fn read_page(&self, nr: BlockNr) -> Result<Arc<Page>> {
        if let Some(page) = self.overlay.get(nr) {
            self.cache_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(page);
        }
        self.read_clean(nr)
    }

    /// Reads a block that is not buffered: from the clean cache, or from the
    /// store, filling the cache.
    fn read_clean(&self, nr: BlockNr) -> Result<Arc<Page>> {
        let installs = match self.cache.as_ref().map(|cache| cache.lookup(nr)) {
            Some(Lookup::Hit(page)) => {
                self.cache_hits.fetch_add(1, Ordering::Relaxed);
                return Ok(page);
            }
            Some(Lookup::Miss(installs)) => installs,
            None => 0,
        };
        let raw = self.server.read(&self.account, nr)?;
        let page = Arc::new(Page::decode(raw)?);
        if let Some(cache) = &self.cache {
            cache.fill(nr, &page, installs);
        }
        Ok(page)
    }

    // ------------------------------------------------------------------
    // Free.
    // ------------------------------------------------------------------

    /// Frees the block holding a page, dropping any buffered or cached copy.
    /// The copies go first: once the block service has freed the number it
    /// may reissue it, and the next owner's pages must survive this call.
    pub fn free_page(&self, nr: BlockNr) -> Result<()> {
        self.overlay.remove(nr);
        if let Some(cache) = &self.cache {
            cache.remove(nr);
        }
        self.server.free(&self.account, nr)?;
        Ok(())
    }

    /// The commit critical section: take the block lock of `nr`, give the
    /// closure a [`PageMut`] view of the page, store the page it mutated, and
    /// release the lock.  Mirrors [`BlockServer::update_block`] at page
    /// granularity, with the page kept here rather than re-read.
    ///
    /// The view clones the page only on the closure's first mutable access, so
    /// the read-only `(false, …)` outcome — a failed test-and-set, an
    /// already-clear lock field — costs no page copy.
    ///
    /// A shard has one file service, and it is the only writer of its pages,
    /// so the clean cache is authoritative for the pages it holds: the view
    /// is the cached page, and the store is read only on a miss.  Under the
    /// lock a written page goes to the store first and to the cache second,
    /// so the cache never holds a page the store has not acknowledged.
    ///
    /// `ahead` names buffered blocks to store in the same call, in the given
    /// order, before the page: a commit carries its version's pages ahead of
    /// the base page whose commit reference it sets, so one batch publishes
    /// them (see [`PageIo::flush_blocks_batched`] for the order rule).  They
    /// are stored only if the closure writes the page back; otherwise they
    /// stay buffered.  Every other caller passes none.
    ///
    /// For a block that lives in the write-back buffer the update is applied to the
    /// buffered copy under the buffer lock instead: such blocks belong to exactly
    /// one uncommitted version, and all mutation of that version is serialised by
    /// its `VersionMeta` lock (in `crate::service`), so the block-server lock
    /// adds nothing but I/O.  Such a page has no commit reference to set, and
    /// is never given blocks to carry.
    pub fn update_page<R>(
        &self,
        nr: BlockNr,
        ahead: &[BlockNr],
        f: impl FnOnce(&mut PageMut<'_>) -> Result<(bool, R)>,
    ) -> Result<R> {
        // Cheap read-locked membership probe first: the common case (a committed
        // block) must not contend on the overlay's write locks at all.
        if self.overlay.contains(nr) {
            let mut shard = self.overlay.shard(nr).write();
            if let Some(entry) = shard.get_mut(&nr) {
                debug_assert!(ahead.is_empty(), "a buffered page carries no blocks");
                self.cache_hits.fetch_add(1, Ordering::Relaxed);
                let mut view = PageMut::shared(entry);
                let (write_back, value) = f(&mut view)?;
                if write_back {
                    if let Some(written) = view.into_written() {
                        *entry = Arc::new(written);
                    }
                }
                return Ok(value);
            }
            // Raced with a flush: fall through to the stored page below.
        }
        self.server.with_lock(&self.account, nr, || {
            let page = self.read_clean(nr)?;
            let mut view = PageMut::shared(&page);
            let (write_back, value) = f(&mut view)?;
            if let (true, Some(written)) = (write_back, view.into_written()) {
                self.store_batch(ahead.iter().copied(), Some((nr, &Arc::new(written))))?;
            }
            Ok(value)
        })
    }
}

impl std::fmt::Debug for PageIo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PageIo")
            .field("cache_hits", &self.cache_hits())
            .field("cache_enabled", &self.cache.is_some())
            .field("buffered_pages", &self.overlay.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amoeba_block::{BlockStore, MemStore};
    use bytes::Bytes;
    use std::sync::mpsc;

    fn page_io(cache: Option<usize>) -> PageIo {
        let server = Arc::new(BlockServer::new(Arc::new(MemStore::new())));
        let account = server.create_account();
        PageIo::with_cache(server, account, cache)
    }

    fn leaf(data: &'static [u8]) -> Arc<Page> {
        Arc::new(Page::leaf(Bytes::from_static(data)))
    }

    /// The page the store holds at `nr`, past the buffer and the cache.
    fn on_disk(io: &PageIo, nr: BlockNr) -> Page {
        Page::decode(io.server.read(&io.account, nr).unwrap()).unwrap()
    }

    #[test]
    fn allocate_read_write_free_cycle() {
        let io = page_io(Some(16));
        let page = leaf(b"hello");
        let nr = io.allocate_page(&page).unwrap();
        assert_eq!(io.read_page(nr).unwrap(), page);
        let mut page2 = (*page).clone();
        page2.set_data(Bytes::from_static(b"world")).unwrap();
        let page2 = Arc::new(page2);
        io.write_page(nr, &page2).unwrap();
        assert_eq!(io.read_page(nr).unwrap(), page2);
        io.free_page(nr).unwrap();
        assert!(io.read_page(nr).is_err());
    }

    #[test]
    fn cache_hits_avoid_physical_reads() {
        let io = page_io(Some(16));
        let nr = io.allocate_page(&leaf(b"x")).unwrap();
        let (before, hits) = (io.server.stats(), io.cache_hits());
        for _ in 0..10 {
            io.read_page(nr).unwrap();
        }
        assert_eq!(io.server.stats().since(&before).reads, 0);
        assert_eq!(io.cache_hits() - hits, 10);
    }

    #[test]
    fn disabled_cache_always_reads_physically() {
        let io = page_io(None);
        let nr = io.allocate_page(&leaf(b"x")).unwrap();
        let before = io.server.stats();
        for _ in 0..10 {
            io.read_page(nr).unwrap();
        }
        assert_eq!(io.server.stats().since(&before).reads, 10);
        assert_eq!(io.cache_hits(), 0);
    }

    #[test]
    fn cache_eviction_keeps_capacity_bounded() {
        let io = page_io(Some(2));
        let mut blocks = Vec::new();
        for i in 0..64u8 {
            blocks.push(
                io.allocate_page(&Arc::new(Page::leaf(Bytes::from(vec![i]))))
                    .unwrap(),
            );
        }
        // All pages are still readable even though only a few fit in the cache.
        for (i, nr) in blocks.iter().enumerate() {
            assert_eq!(io.read_page(*nr).unwrap().data, Bytes::from(vec![i as u8]));
        }
    }

    #[test]
    fn buffered_writes_cost_no_physical_io_until_flush() {
        let io = page_io(Some(16));
        let before = io.server.stats();
        let nr = io.allocate_page_buffered(&leaf(b"v0")).unwrap();
        for i in 0..10u8 {
            io.write_page_buffered(nr, &Arc::new(Page::leaf(Bytes::from(vec![i]))));
        }
        let staged = io.server.stats().since(&before);
        assert_eq!(staged.writes, 0, "buffered writes must stay in memory");
        assert!(io.is_buffered(nr));
        // Reads see the buffered contents.
        assert_eq!(io.read_page(nr).unwrap().data, Bytes::from(vec![9u8]));
        // …and the store holds nothing yet.
        assert!(io.server.read(&io.account, nr).unwrap().is_empty());

        let flushed = io.flush_blocks_batched([nr]).unwrap();
        assert_eq!(flushed, 1);
        let total = io.server.stats().since(&before);
        assert_eq!(total.writes, 1, "ten logical writes, one physical");
        assert_eq!(total.write_calls, 1);
        assert!(!io.is_buffered(nr));
        // The flushed contents are now on disk.
        assert_eq!(on_disk(&io, nr).data, Bytes::from(vec![9u8]));
    }

    #[test]
    fn batched_flush_is_one_write_call_for_many_pages() {
        let io = page_io(Some(16));
        let before = io.server.stats();
        let blocks: Vec<BlockNr> = (0..6u8)
            .map(|i| {
                io.allocate_page_buffered(&Arc::new(Page::leaf(Bytes::from(vec![i]))))
                    .unwrap()
            })
            .collect();
        let flushed = io.flush_blocks_batched(blocks.iter().copied()).unwrap();
        assert_eq!(flushed, 6);
        let delta = io.server.stats().since(&before);
        assert_eq!(delta.writes, 6, "every page is physically written");
        assert_eq!(delta.write_calls, 1, "…in one scatter-gather call");
        for (i, nr) in blocks.iter().enumerate() {
            assert!(!io.is_buffered(*nr));
            assert_eq!(on_disk(&io, *nr).data, Bytes::from(vec![i as u8]));
        }
        // Flushing blocks with no buffered contents is a no-call no-op.
        let before = io.server.stats();
        assert_eq!(io.flush_blocks_batched(blocks).unwrap(), 0);
        assert_eq!(io.server.stats().since(&before).write_calls, 0);
    }

    #[test]
    fn update_page_read_only_outcome_leaves_the_buffered_arc_untouched() {
        let io = page_io(Some(16));
        let nr = io.allocate_page_buffered(&leaf(b"shared")).unwrap();
        let original = io.read_page(nr).unwrap();
        let observed: Bytes = io
            .update_page(nr, &[], |page| Ok((false, page.data.clone())))
            .unwrap();
        assert_eq!(observed, Bytes::from_static(b"shared"));
        // The no-mutation path must not have replaced (or copied into) the
        // buffered entry: the same allocation is still served.
        let after = io.read_page(nr).unwrap();
        assert!(
            Arc::ptr_eq(&original, &after),
            "a (false, _) update must leave the buffered Arc<Page> in place"
        );
    }

    #[test]
    fn dropped_buffers_never_reach_the_disk() {
        let io = page_io(Some(16));
        let nr = io.allocate_page_buffered(&leaf(b"doomed")).unwrap();
        io.drop_buffered(nr);
        assert_eq!(io.flush_blocks_batched([nr]).unwrap(), 0);
        // The block is still allocated but holds no decodable page.
        assert!(io.read_page(nr).is_err());
        io.free_page(nr).unwrap();
    }

    #[test]
    fn update_page_applies_changes_atomically() {
        let io = Arc::new(page_io(Some(16)));
        let nr = io
            .allocate_page(&Arc::new(Page::leaf(Bytes::from(
                0u64.to_le_bytes().to_vec(),
            ))))
            .unwrap();
        let mut handles = Vec::new();
        for _ in 0..4 {
            let io = Arc::clone(&io);
            handles.push(std::thread::spawn(move || {
                for _ in 0..100 {
                    io.update_page(nr, &[], |page| {
                        let v = u64::from_le_bytes(page.data[..8].try_into().unwrap());
                        page.set_data(Bytes::from((v + 1).to_le_bytes().to_vec()))
                            .unwrap();
                        Ok((true, ()))
                    })
                    .unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let final_page = on_disk(&io, nr);
        assert_eq!(
            u64::from_le_bytes(final_page.data[..8].try_into().unwrap()),
            400
        );
    }

    #[test]
    fn update_page_without_write_back_changes_nothing() {
        let io = page_io(Some(16));
        let nr = io.allocate_page(&leaf(b"keep")).unwrap();
        let observed: Bytes = io
            .update_page(nr, &[], |page| Ok((false, page.data.clone())))
            .unwrap();
        assert_eq!(observed, Bytes::from_static(b"keep"));
        assert_eq!(io.read_page(nr).unwrap().data, Bytes::from_static(b"keep"));
    }

    #[test]
    fn update_page_mutates_buffered_blocks_in_memory() {
        let io = page_io(Some(16));
        let nr = io.allocate_page_buffered(&leaf(b"before")).unwrap();
        let before = io.server.stats();
        io.update_page(nr, &[], |page| {
            page.set_data(Bytes::from_static(b"after")).unwrap();
            Ok((true, ()))
        })
        .unwrap();
        let delta = io.server.stats().since(&before);
        assert_eq!((delta.reads, delta.writes), (0, 0));
        assert_eq!(io.read_page(nr).unwrap().data, Bytes::from_static(b"after"));
    }

    #[test]
    fn update_page_of_a_cached_page_reads_nothing_and_stores_what_it_writes() {
        let io = page_io(Some(16));
        let nr = io.allocate_page(&leaf(b"v1")).unwrap();
        let before = io.server.stats();
        let seen = io
            .update_page(nr, &[], |page| {
                let seen = page.data.clone();
                page.set_data(Bytes::from_static(b"v2")).unwrap();
                Ok((true, seen))
            })
            .unwrap();
        assert_eq!(seen, Bytes::from_static(b"v1"));
        let delta = io.server.stats().since(&before);
        assert_eq!((delta.reads, delta.writes), (0, 1));
        assert_eq!(on_disk(&io, nr).data, Bytes::from_static(b"v2"));
        assert_eq!(io.read_page(nr).unwrap().data, Bytes::from_static(b"v2"));
        // Without a cache every update reads the store.
        let io = page_io(None);
        let nr = io.allocate_page(&leaf(b"v1")).unwrap();
        let before = io.server.stats();
        io.update_page(nr, &[], |_| Ok((false, ()))).unwrap();
        assert_eq!(io.server.stats().since(&before).reads, 1);
    }

    /// The block whose next read parks, how the read says it got there, and
    /// what lets it go.
    type Trap = (BlockNr, mpsc::Sender<()>, mpsc::Receiver<()>);

    /// A store whose read of one chosen block parks after it has read the
    /// block, until the test lets it go: a reply in flight.
    struct ParkingStore {
        inner: MemStore,
        trap: Mutex<Option<Trap>>,
    }

    impl BlockStore for ParkingStore {
        fn block_size(&self) -> usize {
            self.inner.block_size()
        }
        fn allocate(&self) -> amoeba_block::Result<BlockNr> {
            self.inner.allocate()
        }
        fn allocate_at(&self, nr: BlockNr) -> amoeba_block::Result<()> {
            self.inner.allocate_at(nr)
        }
        fn free(&self, nr: BlockNr) -> amoeba_block::Result<()> {
            self.inner.free(nr)
        }
        fn read(&self, nr: BlockNr) -> amoeba_block::Result<Bytes> {
            let data = self.inner.read(nr);
            let sprung = {
                let mut trap = self.trap.lock();
                match &*trap {
                    Some((block, _, _)) if *block == nr => trap.take(),
                    _ => None,
                }
            };
            if let Some((_, reached, go)) = sprung {
                reached.send(()).unwrap();
                go.recv().unwrap();
            }
            data
        }
        fn write(&self, nr: BlockNr, data: Bytes) -> amoeba_block::Result<()> {
            self.inner.write(nr, data)
        }
        fn write_batch(&self, writes: &[(BlockNr, Bytes)]) -> amoeba_block::Result<()> {
            self.inner.write_batch(writes)
        }
        fn is_allocated(&self, nr: BlockNr) -> bool {
            self.inner.is_allocated(nr)
        }
        fn allocated_count(&self) -> usize {
            self.inner.allocated_count()
        }
        fn stats(&self) -> amoeba_block::StoreStats {
            self.inner.stats()
        }
        fn allocated_blocks(&self) -> Vec<BlockNr> {
            self.inner.allocated_blocks()
        }
    }

    #[test]
    fn a_read_in_flight_across_an_update_and_an_eviction_caches_nothing_stale() {
        let store = Arc::new(ParkingStore {
            inner: MemStore::new(),
            trap: Mutex::new(None),
        });
        let server = Arc::new(BlockServer::new(Arc::clone(&store) as Arc<dyn BlockStore>));
        let account = server.create_account();
        // One page per cache shard: one install into a shard evicts its page.
        let io = PageIo::with_cache(Arc::clone(&server), account, Some(1));
        let cache = io.cache.as_ref().unwrap();
        // Stored behind the cache, so the first read misses.
        let nr = server
            .allocate_and_write(&account, leaf(b"old").encode().unwrap())
            .unwrap();
        let (reached_tx, reached) = mpsc::channel();
        let (go, go_rx) = mpsc::channel();
        *store.trap.lock() = Some((nr, reached_tx, go_rx));
        std::thread::scope(|scope| {
            let reader = scope.spawn(|| io.read_page(nr).unwrap());
            // The reader holds the old page; its reply is in flight.
            reached.recv().unwrap();
            io.update_page(nr, &[], |page| {
                page.set_data(Bytes::from_static(b"new")).unwrap();
                Ok((true, ()))
            })
            .unwrap();
            // Evict the updated page: install another into its shard.
            while !std::ptr::eq(
                cache.shard(io.allocate_page(&leaf(b"other")).unwrap()),
                cache.shard(nr),
            ) {}
            assert!(!cache.shard(nr).lock().map.contains_key(&nr));
            go.send(()).unwrap();
            assert_eq!(reader.join().unwrap().data, Bytes::from_static(b"old"));
        });
        // The late reply must not have been cached over the update.
        assert_eq!(io.read_page(nr).unwrap().data, Bytes::from_static(b"new"));
    }

    #[test]
    fn stats_count_allocation_and_free() {
        let io = page_io(Some(16));
        let nr = io.allocate_page(&Arc::new(Page::empty())).unwrap();
        io.free_page(nr).unwrap();
        let s = io.server.stats();
        assert_eq!((s.allocations, s.frees), (1, 1));
    }

    #[test]
    fn sharded_cache_serves_concurrent_readers_and_evicts() {
        let io = Arc::new(page_io(Some(64)));
        let mut blocks = Vec::new();
        for i in 0..200u32 {
            blocks.push(
                io.allocate_page(&Arc::new(Page::leaf(Bytes::from(i.to_le_bytes().to_vec()))))
                    .unwrap(),
            );
        }
        let blocks = Arc::new(blocks);
        let mut handles = Vec::new();
        for t in 0..8usize {
            let io = Arc::clone(&io);
            let blocks = Arc::clone(&blocks);
            handles.push(std::thread::spawn(move || {
                for round in 0..50usize {
                    let i = (t * 31 + round * 7) % blocks.len();
                    let page = io.read_page(blocks[i]).unwrap();
                    assert_eq!(
                        u32::from_le_bytes(page.data[..4].try_into().unwrap()),
                        i as u32
                    );
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // The cache stayed bounded (more blocks than capacity) yet produced hits.
        assert!(io.cache_hits() > 0, "expected some cache hits");
    }
}
