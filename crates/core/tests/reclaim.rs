//! Reclamation: what retiring versions frees, and that it frees nothing it must
//! not.  `FileService::audit` is the oracle: after every commit no allocated
//! block is unreachable and no reachable page references a freed block.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use bytes::Bytes;

use afs_core::{
    BlockServer, Capability, FileService, FsError, MemStore, PagePath, Port, ServiceConfig,
};
use amoeba_block::{BlockError, BlockNr, BlockStore, Result, StoreStats};

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

fn assert_clean(service: &FileService) -> usize {
    let audit = service.audit().unwrap();
    assert_eq!((audit.leaked, audit.dangling), (0, 0), "{audit:?}");
    audit.allocated
}

/// Blocks a retired version shares with its successor must stay, and the
/// blocks only it reaches must go: otherwise every commit leaks.
#[test]
fn one_page_commits_reach_a_steady_block_count_under_collection() {
    const N: u32 = 24;
    let store: Arc<dyn BlockStore> = Arc::new(MemStore::new());
    // More pages than retained versions: a retired version's page is still
    // shared with the retained ones until a later commit rewrites it.
    let service = service_over(Arc::clone(&store), 4);
    let (file, pages) = file_with_pages(&service, 8);
    let mut counts = Vec::new();
    for round in 0..4 * N {
        rewrite(&service, &file, &pages[round as usize % pages.len()], round);
        service.gc_file(&file).unwrap();
        let allocated = assert_clean(&service);
        if round + 1 == N || round + 1 == 4 * N {
            counts.push(allocated);
        }
    }
    assert_eq!(
        counts[0],
        counts[1],
        "allocated blocks after {N} and after {} one-page commits",
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
    fn new() -> Self {
        ReissueStore {
            inner: MemStore::new(),
            last_freed: Mutex::new(None),
            on_free: Mutex::new(None),
        }
    }

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

/// Retirement must look the retired version up before it frees the version's
/// page: once freed, the number may already be another file's new version
/// page, and a lookup by number would find — and forget — that one.
#[test]
fn a_trimmed_version_page_reissued_mid_collection_keeps_its_new_version() {
    let store = Arc::new(ReissueStore::new());
    let service = service_over(Arc::clone(&store) as Arc<dyn BlockStore>, 1);
    let (a, a_pages) = file_with_pages(&service, 1);
    let (b, b_pages) = file_with_pages(&service, 1);
    let (page, b_page) = (&a_pages[0], &b_pages[0]);
    // A's current version page is the one A's next commit retires.
    let oldest = service.current_version_block(&a).unwrap();

    // The instant it is freed, B starts an update and its new version page
    // takes the freed number.
    let started: Arc<Mutex<Option<Capability>>> = Arc::default();
    {
        let service = Arc::clone(&service);
        let started = Arc::clone(&started);
        store.arm(oldest, move || {
            let v = service.create_version(&b).unwrap();
            *started.lock().unwrap() = Some(v);
        });
    }
    rewrite(&service, &a, page, 2);

    let v = started.lock().unwrap().take().expect("the hook ran");
    assert_eq!(service.family_tree(&b).unwrap().uncommitted[0].0, oldest);
    service
        .write_page(&v, b_page, Bytes::from_static(b"B"))
        .unwrap();
    service
        .commit(&v)
        .expect("B's version survives A's retirement");
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
    assert_clean(&service);
}

/// A version that only read below a page its predecessor wrote carries that
/// write after the merge.  Its copy of the page is flagged neither written nor
/// modified, and the old collector "reshared" it back to the original page,
/// undoing the committed write.
#[test]
fn a_merged_commit_keeps_the_write_it_merged() {
    let service = service_over(Arc::new(MemStore::new()), 8);
    let file = service.create_file().unwrap();
    let setup = service.create_version(&file).unwrap();
    let p = service
        .append_page(&setup, &PagePath::root(), Bytes::from_static(b"p0"))
        .unwrap();
    let x = service
        .append_page(&setup, &p, Bytes::from_static(b"x0"))
        .unwrap();
    service.commit(&setup).unwrap();

    let a = service.create_version(&file).unwrap();
    let b = service.create_version(&file).unwrap();
    service
        .write_page(&a, &p, Bytes::from_static(b"pA"))
        .unwrap();
    service.read_page(&b, &x).unwrap();
    service.commit(&a).unwrap();
    assert!(!service.commit(&b).unwrap().fast_path, "B must merge");
    service.gc_file(&file).unwrap();

    let current = service.current_version(&file).unwrap();
    assert_eq!(
        service.read_committed_page(&current, &p).unwrap(),
        Bytes::from_static(b"pA")
    );
    assert_clean(&service);
}

/// A sub-file updated on its own keeps the version its super-file links: the
/// link is a block number, and retired, the number could come back as a page
/// the super-file's retirement would free.  A super-file update relinks the
/// sub-file, and the history it held goes.
#[test]
fn a_sub_file_updated_on_its_own_keeps_the_version_its_super_file_links() {
    let service = service_over(Arc::new(MemStore::new()), 1);
    let super_file = service.create_file().unwrap();
    let sub = service.create_sub_file(&super_file).unwrap();
    let root = PagePath::root();
    for round in 0..3u8 {
        let v = service.create_version(&sub).unwrap();
        service
            .write_page(&v, &root, Bytes::from(vec![round]))
            .unwrap();
        service.commit(&v).unwrap();
        assert_clean(&service);
    }
    assert_eq!(service.committed_version_count(&sub).unwrap(), 4);

    let mut update = service
        .begin_super_update(&super_file, Port::from_raw(0x77), true)
        .unwrap();
    let v = service.super_update_edit(&mut update, &sub).unwrap();
    service
        .write_page(&v, &root, Bytes::from_static(b"relinked"))
        .unwrap();
    service.commit_super_update(update).unwrap();
    assert_eq!(service.committed_version_count(&sub).unwrap(), 1);
    assert_clean(&service);
    let current = service.current_version(&sub).unwrap();
    assert_eq!(
        service.read_committed_page(&current, &root).unwrap(),
        Bytes::from_static(b"relinked")
    );
}

/// Recovery keeps what retirement kept: the sub-file versions a super-file
/// links survive a crash, so the recovered super-file's links do not dangle.
#[test]
fn recovery_keeps_the_sub_file_versions_a_super_file_links() {
    let config = ServiceConfig {
        history_retention: 1,
        ..Default::default()
    };
    let service = FileService::with_config(
        Arc::new(BlockServer::new(Arc::new(MemStore::new()))),
        config.clone(),
    );
    let super_file = service.create_file().unwrap();
    let sub = service.create_sub_file(&super_file).unwrap();
    for round in 0..3u8 {
        let v = service.create_version(&sub).unwrap();
        service
            .write_page(&v, &PagePath::root(), Bytes::from(vec![round]))
            .unwrap();
        service.commit(&v).unwrap();
    }
    let (server, account) = (service.block_server(), service.storage_account());
    drop(service);
    let (recovered, report) = FileService::recover_from_storage(server, account, config).unwrap();
    assert_clean(&recovered);
    let mut counts: Vec<usize> = report
        .files
        .iter()
        .map(|file| recovered.committed_version_count(file).unwrap())
        .collect();
    counts.sort_unstable();
    assert_eq!(counts, [1, 4]);
}

/// A cache entry's version, once retired, may come back as another file's
/// version page.  Validating the entry must then discard it, not diff from
/// the other file's page and keep what it cached.
#[test]
fn a_cached_version_reissued_to_another_file_is_discarded() {
    let store = Arc::new(ReissueStore::new());
    let service = service_over(Arc::clone(&store) as Arc<dyn BlockStore>, 1);
    let (a, pages) = file_with_pages(&service, 1);
    let (b, _) = file_with_pages(&service, 1);
    let page = &pages[0];
    let cached = service.current_version_block(&a).unwrap();
    assert!(service.validate_cache(&a, cached).unwrap().up_to_date);

    // A commits past the cached version, which is retired; B's next version
    // page takes its number.
    rewrite(&service, &a, page, 7);
    service.gc_file(&a).unwrap();
    let _pending = service.create_version(&b).unwrap();
    assert_eq!(service.family_tree(&b).unwrap().uncommitted[0].0, cached);

    let validation = service.validate_cache(&a, cached).unwrap();
    assert!(!validation.up_to_date);
    assert!(!validation.keeps(page), "{validation:?}");
}

/// Concurrent read-and-write updates of one file, retiring as they commit:
/// no update fails with anything but a conflict, and nothing leaks.
#[test]
fn concurrent_updates_of_one_file_keep_the_audit_clean() {
    for round in 0..40u64 {
        let service = service_over(Arc::new(MemStore::new()), 8);
        let (file, pages) = file_with_pages(&service, 32);
        std::thread::scope(|scope| {
            for client in 0..4u64 {
                let (service, file, pages) = (&service, &file, &pages);
                scope.spawn(move || {
                    let mut rng = Rng(round * 7919 + client + 1);
                    for n in 0..30u32 {
                        loop {
                            let v = service.create_version(file).unwrap();
                            service.read_page(&v, &pages[rng.below(32)]).unwrap();
                            service
                                .write_page(&v, &pages[rng.below(32)], Bytes::from(vec![n as u8]))
                                .unwrap();
                            match service.commit(&v) {
                                Ok(_) => break,
                                Err(FsError::SerialisabilityConflict) => continue,
                                Err(e) => panic!("commit failed: {e}"),
                            }
                        }
                    }
                });
            }
        });
        assert_clean(&service);
    }
}

/// xorshift64: enough randomness for a replayable schedule.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.next() % 100 < percent
    }
}

/// A page tree as the model sees it.
#[derive(Clone, Debug, Default, PartialEq)]
struct Node {
    data: Vec<u8>,
    children: Vec<Node>,
}

impl Node {
    fn at(&self, path: &[u16]) -> Option<&Node> {
        path.iter()
            .try_fold(self, |node, &i| node.children.get(i as usize))
    }

    fn at_mut(&mut self, path: &[u16]) -> &mut Node {
        path.iter()
            .fold(self, |node, &i| &mut node.children[i as usize])
    }

    /// Every path in the tree, the root first.
    fn paths(&self) -> Vec<Vec<u16>> {
        let mut out = vec![Vec::new()];
        let mut i = 0;
        while i < out.len() {
            let path = out[i].clone();
            let node = self.at(&path).expect("listed path exists");
            for c in 0..node.children.len() as u16 {
                out.push([path.as_slice(), &[c]].concat());
            }
            i += 1;
        }
        out
    }
}

/// One file's retained history in the model: the committed versions, oldest
/// first, each with the tree it must read back.
struct History {
    file: Capability,
    versions: VecDeque<(Capability, Node)>,
}

impl History {
    fn new(service: &FileService, file: Capability) -> History {
        let current = service.current_version(&file).unwrap();
        History {
            file,
            versions: VecDeque::from([(current, Node::default())]),
        }
    }

    fn current(&self) -> &Node {
        &self.versions.back().expect("a file has a version").1
    }

    /// Checks every version the service still retains against the model.
    fn check(&mut self, service: &FileService) {
        let retained = service.committed_version_count(&self.file).unwrap();
        assert!(retained <= self.versions.len());
        while self.versions.len() > retained {
            let (cap, _) = self.versions.pop_front().unwrap();
            assert_eq!(
                service.read_committed_page(&cap, &PagePath::root()),
                Err(FsError::NoSuchVersion),
                "a retired version is forgotten"
            );
        }
        for (cap, tree) in &self.versions {
            for path in tree.paths() {
                let node = tree.at(&path).unwrap();
                let page = PagePath::new(path);
                assert_eq!(
                    service.read_committed_page(cap, &page).unwrap(),
                    Bytes::from(node.data.clone()),
                    "{page}"
                );
                let info = service.committed_page_info(cap, &page).unwrap();
                assert_eq!(info.nrefs as usize, node.children.len(), "{page}");
            }
        }
    }
}

/// Applies one random structural or data operation to version `v` and to the
/// model `tree` alike.
fn random_edit(service: &FileService, v: &Capability, tree: &mut Node, rng: &mut Rng, tag: u8) {
    let paths = tree.paths();
    let data = vec![tag; 1 + rng.below(6)];
    match rng.below(6) {
        0 | 1 => {
            let path = paths[rng.below(paths.len())].clone();
            service
                .write_page(v, &PagePath::new(path.clone()), Bytes::from(data.clone()))
                .unwrap();
            tree.at_mut(&path).data = data;
        }
        2 if paths.len() < 24 => {
            let path = paths[rng.below(paths.len())].clone();
            let node = tree.at_mut(&path);
            let index = rng.below(node.children.len() + 1) as u16;
            service
                .insert_page(v, &PagePath::new(path), index, Bytes::from(data.clone()))
                .unwrap();
            node.children.insert(
                index as usize,
                Node {
                    data,
                    children: Vec::new(),
                },
            );
        }
        3 if paths.len() > 1 => {
            let path = paths[1 + rng.below(paths.len() - 1)].clone();
            service
                .remove_page(v, &PagePath::new(path.clone()))
                .unwrap();
            let (last, parent) = path.split_last().unwrap();
            tree.at_mut(parent).children.remove(*last as usize);
        }
        4 => {
            let path = paths[rng.below(paths.len())].clone();
            let node = tree.at_mut(&path);
            let keep = rng.below(node.data.len() + 1);
            service.split_page(v, &PagePath::new(path), keep).unwrap();
            let tail = node.data.split_off(keep);
            node.children.push(Node {
                data: tail,
                children: Vec::new(),
            });
        }
        5 if paths.len() > 2 => {
            let from = paths[1 + rng.below(paths.len() - 1)].clone();
            let to = paths[rng.below(paths.len())].clone();
            if to.starts_with(&from) {
                return;
            }
            // The destination is named after the source is removed, as the
            // service resolves it.
            let mut moved = tree.clone();
            let (last, parent) = from.split_last().unwrap();
            let subtree = moved.at_mut(parent).children.remove(*last as usize);
            let Some(dest) = moved.at(&to) else {
                return;
            };
            let index = rng.below(dest.children.len() + 1);
            moved.at_mut(&to).children.insert(index, subtree);
            service
                .move_subtree(v, &PagePath::new(from), &PagePath::new(to), index as u16)
                .unwrap();
            *tree = moved;
        }
        _ => {}
    }
}

/// 1b's oracle over a seeded mix of every tree operation, concurrent versions
/// committed through the merge, versions left open across other commits, and a
/// super-file whose sub-files change only inside super-file updates.  After
/// every commit the audit is clean and every retained version reads back what
/// was committed.
#[test]
fn randomized_updates_keep_the_audit_clean() {
    for seed in 1..=6u64 {
        let mut rng = Rng(seed * 0x9e37_79b9);
        let service = service_over(Arc::new(MemStore::new()), 3);
        let mut files: Vec<History> = (0..3)
            .map(|_| History::new(&service, service.create_file().unwrap()))
            .collect();
        let super_file = service.create_file().unwrap();
        let mut subs: Vec<History> = (0..2)
            .map(|_| History::new(&service, service.create_sub_file(&super_file).unwrap()))
            .collect();
        let mut pending: Option<(usize, Capability)> = None;

        for step in 0..120u32 {
            let tag = (step % 251) as u8;
            let f = rng.below(files.len());
            match rng.below(10) {
                // A solo update of a few edits.
                0..=4 => {
                    let v = service.create_version(&files[f].file).unwrap();
                    let mut tree = files[f].current().clone();
                    for _ in 0..1 + rng.below(3) {
                        random_edit(&service, &v, &mut tree, &mut rng, tag);
                    }
                    match service.commit(&v) {
                        Ok(_) => files[f].versions.push_back((v, tree)),
                        // An update that raced the open version below.
                        Err(FsError::SerialisabilityConflict) => {}
                        Err(e) => panic!("seed {seed} step {step}: {e}"),
                    }
                }
                // Two concurrent writers, committed in turn: the second merges.
                5 | 6 => {
                    let base = files[f].current().clone();
                    let paths = base.paths();
                    let (a, b) = (
                        service.create_version(&files[f].file).unwrap(),
                        service.create_version(&files[f].file).unwrap(),
                    );
                    let mut writes = Vec::new();
                    for v in [&a, &b] {
                        let read = &paths[rng.below(paths.len())];
                        service.read_page(v, &PagePath::new(read.clone())).unwrap();
                        let path = paths[rng.below(paths.len())].clone();
                        let data = vec![tag, writes.len() as u8];
                        service
                            .write_page(v, &PagePath::new(path.clone()), Bytes::from(data.clone()))
                            .unwrap();
                        writes.push((path, data));
                    }
                    let mut tree = base;
                    for (v, (path, data)) in [a, b].into_iter().zip(writes) {
                        match service.commit(&v) {
                            Ok(_) => {
                                tree.at_mut(&path).data = data;
                                files[f].versions.push_back((v, tree.clone()));
                            }
                            Err(FsError::SerialisabilityConflict) => {}
                            Err(e) => panic!("seed {seed} step {step}: {e}"),
                        }
                    }
                }
                // Open a version and leave it: its base pins the history.
                7 if pending.is_none() => {
                    let v = service.create_version(&files[f].file).unwrap();
                    let paths = files[f].current().paths();
                    let read = PagePath::new(paths[rng.below(paths.len())].clone());
                    service.read_page(&v, &read).unwrap();
                    pending = Some((f, v));
                }
                // Close the open version: abort it, or commit it (nothing written).
                7 => {
                    let (f, v) = pending.take().unwrap();
                    if rng.chance(50) {
                        service.abort_version(&v).unwrap();
                    } else {
                        match service.commit(&v) {
                            Ok(_) => {
                                let tree = files[f].current().clone();
                                files[f].versions.push_back((v, tree));
                            }
                            Err(FsError::SerialisabilityConflict) => {}
                            Err(e) => panic!("seed {seed} step {step}: {e}"),
                        }
                    }
                    service.gc_file(&files[f].file).unwrap();
                }
                // A super-file update editing some of its sub-files.
                _ => {
                    let port = Port::from_raw(0x5000 + u64::from(step));
                    let mut update = service.begin_super_update(&super_file, port, true).unwrap();
                    let mut edits = Vec::new();
                    for (i, sub) in subs.iter().enumerate() {
                        if !rng.chance(60) {
                            continue;
                        }
                        let v = service.super_update_edit(&mut update, &sub.file).unwrap();
                        let mut tree = sub.current().clone();
                        random_edit(&service, &v, &mut tree, &mut rng, tag);
                        edits.push((i, v, tree));
                    }
                    service.commit_super_update(update).unwrap();
                    for (i, v, tree) in edits {
                        subs[i].versions.push_back((v, tree));
                    }
                }
            }
            assert_clean(&service);
            for history in files.iter_mut().chain(subs.iter_mut()) {
                history.check(&service);
            }
        }
    }
}

/// A store that stops applying writes and frees once its budget is spent, the
/// way a crashed server stops: the mutation that would exceed it, and every
/// later one, fails without reaching the disk.  A batch applies the prefix the
/// budget still covers.
struct CrashStore {
    inner: MemStore,
    /// Mutations still allowed; `None` while disarmed.
    budget: Mutex<Option<usize>>,
    /// Mutations applied while armed.
    spent: Mutex<usize>,
}

impl CrashStore {
    fn arm(&self, budget: Option<usize>) {
        *self.budget.lock().unwrap() = budget;
        *self.spent.lock().unwrap() = 0;
    }

    /// How many of `n` mutations may still be applied.
    fn take(&self, n: usize) -> usize {
        let mut budget = self.budget.lock().unwrap();
        let granted = budget.map_or(n, |left| left.min(n));
        if let Some(left) = budget.as_mut() {
            *left -= granted;
        }
        *self.spent.lock().unwrap() += granted;
        granted
    }
}

impl BlockStore for CrashStore {
    fn block_size(&self) -> usize {
        self.inner.block_size()
    }
    fn allocate(&self) -> Result<BlockNr> {
        self.inner.allocate()
    }
    fn allocate_at(&self, nr: BlockNr) -> Result<()> {
        self.inner.allocate_at(nr)
    }
    fn free(&self, nr: BlockNr) -> Result<()> {
        match self.take(1) {
            1 => self.inner.free(nr),
            _ => Err(BlockError::Crashed),
        }
    }
    fn read(&self, nr: BlockNr) -> Result<Bytes> {
        self.inner.read(nr)
    }
    fn write(&self, nr: BlockNr, data: Bytes) -> Result<()> {
        match self.take(1) {
            1 => self.inner.write(nr, data),
            _ => Err(BlockError::Crashed),
        }
    }
    fn write_batch(&self, writes: &[(BlockNr, Bytes)]) -> Result<()> {
        let applied = self.take(writes.len());
        self.inner.write_batch(&writes[..applied])?;
        if applied < writes.len() {
            return Err(BlockError::Crashed);
        }
        Ok(())
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

/// `lock_state` and the chain walk of `validate_cache` read version pages
/// outside the file lock.  They pin what they read, so at a retention of one a
/// commit racing them cannot retire the page under them.
#[test]
fn readers_outside_the_file_lock_pin_what_a_retiring_commit_would_free() {
    let service = service_over(Arc::new(MemStore::new()), 1);
    let (file, pages) = file_with_pages(&service, 2);
    std::thread::scope(|scope| {
        let committer = scope.spawn(|| {
            for round in 0..1000 {
                rewrite(&service, &file, &pages[round as usize % 2], round);
            }
        });
        let mut cached = service.current_version_block(&file).unwrap();
        while !committer.is_finished() {
            let (_, inner) = service.lock_state(&file).expect("lock_state");
            assert!(inner.is_null());
            cached = service
                .validate_cache(&file, cached)
                .expect("validate_cache")
                .current_block;
        }
    });
    assert_clean(&service);
}

/// The crash sweep: an update whose commit retires a version is cut after
/// every possible number of writes and frees, from its creation lock through
/// its flush, its commit reference and its retirement.  Recovery must then
/// show the acknowledged data, leak nothing and leave no retained version
/// with a dangling reference.  A retention of one leaves the current version
/// with no committed predecessor on disk.
#[test]
fn a_crash_anywhere_in_a_retiring_commit_recovers_clean() {
    for retention in [1, 2] {
        crash_sweep(retention);
    }
}

fn crash_sweep(retention: usize) {
    let config = ServiceConfig {
        history_retention: retention,
        ..Default::default()
    };
    let value = |page: usize, round: u8| Bytes::from(vec![round, page as u8]);
    // Builds the history, then runs the retiring update under `budget`.
    let run = |budget: Option<usize>| {
        let store = Arc::new(CrashStore {
            inner: MemStore::new(),
            budget: Mutex::new(None),
            spent: Mutex::new(0),
        });
        let server = Arc::new(BlockServer::new(Arc::clone(&store) as Arc<dyn BlockStore>));
        let service = FileService::with_config(Arc::clone(&server), config.clone());
        let (file, pages) = file_with_pages(&service, 4);
        for round in 1..=retention as u8 {
            let v = service.create_version(&file).unwrap();
            for (i, page) in pages.iter().enumerate().take(2) {
                service.write_page(&v, page, value(i, round)).unwrap();
            }
            service.commit(&v).unwrap();
        }
        store.arm(budget);
        let acked = (|| -> afs_core::Result<()> {
            let v = service.create_version(&file)?;
            for (i, page) in pages.iter().enumerate().take(2) {
                service.write_page(&v, page, value(i, 9))?;
            }
            service.commit(&v).map(|_| ())
        })()
        .is_ok();
        let spent = *store.spent.lock().unwrap();
        store.arm(None);
        let account = service.storage_account();
        drop(service);
        (server, account, pages, acked, spent)
    };

    let (_, _, _, acked, total) = run(None);
    assert!(acked);
    assert!(total >= 6, "the update makes {total} writes and frees");
    for budget in 0..=total {
        let (server, account, pages, acked, _) = run(Some(budget));
        let (recovered, report) =
            FileService::recover_from_storage(server, account, config.clone()).unwrap();
        let file = report.files[0];
        let round = if acked { 9 } else { retention as u8 };
        let current = recovered.current_version(&file).unwrap();
        for (i, page) in pages.iter().enumerate() {
            let expect = if i < 2 {
                value(i, round)
            } else {
                Bytes::from(vec![i as u8])
            };
            assert_eq!(
                recovered.read_committed_page(&current, page).unwrap(),
                expect,
                "retention {retention}, budget {budget}: page {i}"
            );
        }
        assert!(recovered.committed_version_count(&file).unwrap() <= retention);
        let audit = recovered.audit().unwrap();
        assert_eq!(
            (audit.leaked, audit.dangling),
            (0, 0),
            "retention {retention}, budget {budget}: {audit:?}"
        );
    }
}
