//! Reclamation: what the garbage collector frees, and that it frees nothing
//! it must not.

use std::sync::{Arc, Mutex};

use bytes::Bytes;

use afs_core::{BlockServer, Capability, FileService, MemStore, PagePath, ServiceConfig};
use amoeba_block::{BlockNr, BlockStore, Result, StoreStats};

fn service_over(store: Arc<dyn BlockStore>, history_retention: usize) -> Arc<FileService> {
    FileService::with_config(
        Arc::new(BlockServer::new(store)),
        ServiceConfig {
            history_retention,
            ..Default::default()
        },
    )
}

/// A file with `n` data pages, and their paths.
fn file_with_pages(service: &FileService, n: u8) -> (Capability, Vec<PagePath>) {
    let file = service.create_file().unwrap();
    let v = service.create_version(&file).unwrap();
    let pages = (0..n)
        .map(|i| {
            service
                .append_page(&v, &PagePath::root(), Bytes::from(vec![i]))
                .unwrap()
        })
        .collect();
    service.commit(&v).unwrap();
    (file, pages)
}

fn rewrite(service: &FileService, file: &Capability, page: &PagePath, round: u32) {
    let v = service.create_version(file).unwrap();
    service
        .write_page(&v, page, Bytes::from(round.to_le_bytes().to_vec()))
        .unwrap();
    service.commit(&v).unwrap();
}

/// Blocks a trimmed version still shares with its successors must be handed
/// on, not dropped with it: otherwise nobody frees them once the successors
/// stop sharing them, and every commit leaks.
#[test]
fn one_page_commits_reach_a_steady_block_count_under_collection() {
    const N: u32 = 24;
    let store: Arc<dyn BlockStore> = Arc::new(MemStore::new());
    // More pages than retained versions: a trimmed version's page is still
    // shared with the retained ones until a later commit rewrites it.
    let service = service_over(Arc::clone(&store), 4);
    let (file, pages) = file_with_pages(&service, 8);
    let mut counts = Vec::new();
    for round in 0..4 * N {
        rewrite(&service, &file, &pages[round as usize % pages.len()], round);
        service.gc_file(&file).unwrap();
        if round + 1 == N || round + 1 == 4 * N {
            counts.push(store.allocated_count());
        }
    }
    assert_eq!(
        counts[0],
        counts[1],
        "allocated blocks after {N} and after {} collected one-page commits",
        4 * N
    );
    let current = service.current_version(&file).unwrap();
    for (i, page) in pages.iter().enumerate() {
        let last = (0..4 * N).rev().find(|r| *r as usize % pages.len() == i);
        assert_eq!(
            service.read_committed_page(&current, page).unwrap(),
            Bytes::from(last.unwrap().to_le_bytes().to_vec())
        );
    }
}

/// A store that hands out the most recently freed number first, and can run
/// a hook inside the `free` of one chosen number — a deterministic stand-in
/// for a concurrent client whose allocation lands on a number the instant it
/// is freed.
struct ReissueStore {
    inner: MemStore,
    last_freed: Mutex<Option<BlockNr>>,
    on_free: Mutex<Option<(BlockNr, FreeHook)>>,
}

type FreeHook = Box<dyn FnOnce() + Send>;

impl ReissueStore {
    fn arm(&self, nr: BlockNr, hook: impl FnOnce() + Send + 'static) {
        *self.on_free.lock().unwrap() = Some((nr, Box::new(hook)));
    }
}

impl BlockStore for ReissueStore {
    fn block_size(&self) -> usize {
        self.inner.block_size()
    }
    fn allocate(&self) -> Result<BlockNr> {
        match self.last_freed.lock().unwrap().take() {
            Some(nr) => self.inner.allocate_at(nr).map(|()| nr),
            None => self.inner.allocate(),
        }
    }
    fn allocate_at(&self, nr: BlockNr) -> Result<()> {
        self.inner.allocate_at(nr)
    }
    fn free(&self, nr: BlockNr) -> Result<()> {
        self.inner.free(nr)?;
        *self.last_freed.lock().unwrap() = Some(nr);
        let hook = {
            let mut armed = self.on_free.lock().unwrap();
            match armed.take() {
                Some((target, hook)) if target == nr => Some(hook),
                other => {
                    *armed = other;
                    None
                }
            }
        };
        if let Some(hook) = hook {
            hook();
        }
        Ok(())
    }
    fn read(&self, nr: BlockNr) -> Result<Bytes> {
        self.inner.read(nr)
    }
    fn write(&self, nr: BlockNr, data: Bytes) -> Result<()> {
        self.inner.write(nr, data)
    }
    fn write_batch(&self, writes: &[(BlockNr, Bytes)]) -> Result<()> {
        self.inner.write_batch(writes)
    }
    fn is_allocated(&self, nr: BlockNr) -> bool {
        self.inner.is_allocated(nr)
    }
    fn allocated_count(&self) -> usize {
        self.inner.allocated_count()
    }
    fn stats(&self) -> StoreStats {
        self.inner.stats()
    }
    fn allocated_blocks(&self) -> Vec<BlockNr> {
        self.inner.allocated_blocks()
    }
}

/// The collector must look a trimmed version up before it frees the
/// version's page: once freed, the number may already be another file's new
/// version page, and a lookup by number would find — and forget — that one.
#[test]
fn a_trimmed_version_page_reissued_mid_collection_keeps_its_new_version() {
    let store = Arc::new(ReissueStore {
        inner: MemStore::new(),
        last_freed: Mutex::new(None),
        on_free: Mutex::new(None),
    });
    let service = service_over(Arc::clone(&store) as Arc<dyn BlockStore>, 1);
    let (a, a_pages) = file_with_pages(&service, 1);
    let (b, b_pages) = file_with_pages(&service, 1);
    let (page, b_page) = (&a_pages[0], &b_pages[0]);
    // A's oldest version page is the first thing the collection trims.
    let oldest = service.current_version_block(&a).unwrap();
    for round in 0..3 {
        rewrite(&service, &a, page, round);
    }

    // The instant A's oldest version page is freed, B starts an update and
    // its new version page takes the freed number.
    let started: Arc<Mutex<Option<Capability>>> = Arc::default();
    {
        let service = Arc::clone(&service);
        let started = Arc::clone(&started);
        store.arm(oldest, move || {
            let v = service.create_version(&b).unwrap();
            *started.lock().unwrap() = Some(v);
        });
    }
    let report = service.gc_file(&a).unwrap();
    assert!(report.trimmed_versions >= 1, "report: {report:?}");

    let v = started.lock().unwrap().take().expect("the hook ran");
    service
        .write_page(&v, b_page, Bytes::from_static(b"B"))
        .unwrap();
    service
        .commit(&v)
        .expect("B's version survives A's collection");
    let current = service.current_version(&b).unwrap();
    assert_eq!(
        service.read_committed_page(&current, b_page).unwrap(),
        Bytes::from_static(b"B")
    );
    let current = service.current_version(&a).unwrap();
    assert_eq!(
        service.read_committed_page(&current, page).unwrap(),
        Bytes::from(2u32.to_le_bytes().to_vec())
    );
}
