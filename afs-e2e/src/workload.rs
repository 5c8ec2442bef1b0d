//! The five workloads: op generation from the seed, execution through the
//! client stack, and the harness's own model of what must be readable.
//!
//! The program under test sees only the generated ops.  Every page payload
//! carries `(file, page, client, seq)`, the model remembers what each client
//! issued and had acknowledged per page, and every read — during the window
//! and in the verification pass after it — is checked against that model.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::sync::{Arc, RwLock, RwLockReadGuard};

use afs_client::{ClientCache, NamedStore};
use afs_core::{Capability, FileStore, FileStoreExt, PagePath, RetryPolicy, Rights};
use afs_dir::DirCap;
use bytes::Bytes;

use crate::rng::{Rng, Zipf};
use crate::trace::{TracedStore, TracedTransport};

/// Closed loop, two clients: `nproc` is 2, and a client blocks on every reply.
pub const CLIENTS: usize = 2;
const DIRS: usize = 3;
/// Entries each client owns in each hot directory at the start (64 per directory).
const PREFILL: usize = 32;
const SESSION_READS: usize = 4;
/// The `client` byte of a page nobody has rewritten since populate.
const INIT: u8 = 0xff;
const HEADER: usize = 16;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    CommitSmall,
    CommitLarge,
    ReadMostly,
    ReadCold,
    DirChurn,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    /// A whole update transaction, OCC retries included.
    Write,
    /// A read session, or a `resolve` in `dir_churn`.
    Read,
    /// A directory mutation.
    Name,
}

pub const KINDS: usize = 3;

pub struct Shape {
    pub files: usize,
    pub pages: usize,
    pub page_size: usize,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::CommitSmall,
        Workload::CommitLarge,
        Workload::ReadMostly,
        Workload::ReadCold,
        Workload::DirChurn,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::CommitSmall => "commit_small",
            Workload::CommitLarge => "commit_large",
            Workload::ReadMostly => "read_mostly",
            Workload::ReadCold => "read_cold",
            Workload::DirChurn => "dir_churn",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn shape(self) -> Shape {
        let (files, pages, page_size) = match self {
            Workload::CommitSmall | Workload::CommitLarge => (64, 32, 4096),
            // Fits every cache: 4096 pages against a 4096-entry server cache.
            Workload::ReadMostly => (256, 16, 4096),
            // 8192 data pages + 1024 version pages > the 4096-entry server cache.
            Workload::ReadCold => (1024, 8, 2048),
            Workload::DirChurn => (0, 0, 0),
        };
        Shape {
            files,
            pages,
            page_size,
        }
    }

    /// The op kind the workload exists to measure; `op_p50_ms` and
    /// `op_p99_ms` are this kind's latency.
    pub fn primary(self) -> Kind {
        match self {
            Workload::CommitSmall | Workload::CommitLarge => Kind::Write,
            Workload::ReadMostly | Workload::ReadCold => Kind::Read,
            Workload::DirChurn => Kind::Name,
        }
    }
}

#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Op {
    Commit {
        file: usize,
        first: usize,
        count: usize,
    },
    Read {
        file: usize,
        pages: [usize; SESSION_READS],
    },
    Resolve {
        dir: usize,
        name: String,
    },
    Create {
        dir: usize,
        name: String,
    },
    Unlink {
        dir: usize,
        name: String,
    },
    Rename {
        dir: usize,
        name: String,
        to_dir: usize,
        to_name: String,
    },
}

impl Op {
    /// The files (or hot directories) the op updates.
    fn updates(&self) -> [Option<usize>; 2] {
        match self {
            Op::Read { .. } | Op::Resolve { .. } => [None, None],
            Op::Commit { file, .. } => [Some(*file), None],
            Op::Create { dir, .. } | Op::Unlink { dir, .. } => [Some(*dir), None],
            Op::Rename { dir, to_dir, .. } => [Some(*dir), Some(*to_dir)],
        }
    }

    pub fn kind(&self) -> Kind {
        match self {
            Op::Commit { .. } => Kind::Write,
            Op::Read { .. } | Op::Resolve { .. } => Kind::Read,
            Op::Create { .. } | Op::Unlink { .. } | Op::Rename { .. } => Kind::Name,
        }
    }
}

fn prefilled_name(client: usize, dir: usize, i: usize) -> String {
    format!("c{client}_d{dir}_{i}")
}

/// One client's op stream: a pure function of `(workload, seed, client)`.
/// For `dir_churn` it tracks the names the client owns, assuming every
/// generated op succeeds (a failed op fails the run anyway).
pub struct Gen {
    workload: Workload,
    client: usize,
    rng: Rng,
    zipf: Option<Zipf>,
    /// Names this client currently owns, per directory.
    live: Vec<Vec<String>>,
    next_name: u64,
}

impl Gen {
    pub fn new(workload: Workload, seed: u64, client: usize) -> Self {
        let live = match workload {
            Workload::DirChurn => (0..DIRS)
                .map(|dir| {
                    (0..PREFILL)
                        .map(|i| prefilled_name(client, dir, i))
                        .collect()
                })
                .collect(),
            _ => Vec::new(),
        };
        Gen {
            workload,
            client,
            rng: Rng::for_client(seed, workload as u64, client as u64),
            zipf: (workload == Workload::ReadMostly)
                .then(|| Zipf::new(workload.shape().files, 0.99)),
            live,
            next_name: 0,
        }
    }

    fn pick(&mut self, n: usize) -> usize {
        self.rng.below(n as u64) as usize
    }

    fn session(&mut self, file: usize, pages: usize) -> Op {
        Op::Read {
            file,
            pages: std::array::from_fn(|_| self.pick(pages)),
        }
    }

    fn fresh_name(&mut self) -> String {
        self.next_name += 1;
        format!("c{}_n{}", self.client, self.next_name)
    }

    pub fn next_op(&mut self) -> Op {
        let shape = self.workload.shape();
        match self.workload {
            Workload::CommitSmall => Op::Commit {
                file: self.pick(shape.files),
                first: self.pick(shape.pages),
                count: 1,
            },
            Workload::CommitLarge => Op::Commit {
                file: self.pick(shape.files),
                first: 0,
                count: shape.pages,
            },
            Workload::ReadMostly => {
                let file = self.zipf.as_ref().expect("zipf").sample(&mut self.rng);
                if self.pick(10) == 0 {
                    Op::Commit {
                        file,
                        first: self.pick(shape.pages),
                        count: 1,
                    }
                } else {
                    self.session(file, shape.pages)
                }
            }
            Workload::ReadCold => {
                let file = self.pick(shape.files);
                self.session(file, shape.pages)
            }
            Workload::DirChurn => self.next_name_op(),
        }
    }

    /// 50 % resolve, 20 % create, 20 % unlink, 10 % cross-directory rename.
    fn next_name_op(&mut self) -> Op {
        let roll = self.pick(100);
        let dir = self.pick(DIRS);
        if (50..70).contains(&roll) || self.live[dir].is_empty() {
            let name = self.fresh_name();
            self.live[dir].push(name.clone());
            return Op::Create { dir, name };
        }
        let slot = self.pick(self.live[dir].len());
        if roll < 50 {
            let name = self.live[dir][slot].clone();
            return Op::Resolve { dir, name };
        }
        let name = self.live[dir].swap_remove(slot);
        if roll < 90 {
            return Op::Unlink { dir, name };
        }
        let to_dir = (dir + 1 + self.pick(DIRS - 1)) % DIRS;
        let to_name = self.fresh_name();
        self.live[to_dir].push(to_name.clone());
        Op::Rename {
            dir,
            name,
            to_dir,
            to_name,
        }
    }
}

// ---------------------------------------------------------------------------
// The model.
// ---------------------------------------------------------------------------

fn payload(file: usize, page: usize, client: u8, seq: u64, size: usize) -> Bytes {
    let mut data = vec![seq as u8; size];
    data[0..4].copy_from_slice(&(file as u32).to_le_bytes());
    data[4..6].copy_from_slice(&(page as u16).to_le_bytes());
    data[6] = client;
    data[8..HEADER].copy_from_slice(&seq.to_le_bytes());
    Bytes::from(data)
}

/// What one client did to each page: the newest write it issued, and the
/// newest it had acknowledged with the logical times bracketing that commit.
struct Track {
    issued: Vec<AtomicU64>,
    acked: Vec<AtomicU64>,
    started: Vec<AtomicU64>,
    ended: Vec<AtomicU64>,
}

fn zeros(n: usize) -> Vec<AtomicU64> {
    (0..n).map(|_| AtomicU64::new(0)).collect()
}

pub struct Model {
    shape: Shape,
    clock: AtomicU64,
    tracks: Vec<Track>,
}

impl Model {
    fn new(shape: Shape) -> Self {
        let n = shape.files * shape.pages;
        Model {
            shape,
            clock: AtomicU64::new(1),
            tracks: (0..CLIENTS)
                .map(|_| Track {
                    issued: zeros(n),
                    acked: zeros(n),
                    started: zeros(n),
                    ended: zeros(n),
                })
                .collect(),
        }
    }

    fn slot(&self, file: usize, page: usize) -> usize {
        file * self.shape.pages + page
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, SeqCst)
    }

    /// Newest acknowledged seq per client, sampled before a read starts.
    fn acked_now(&self, slot: usize) -> [u64; CLIENTS] {
        std::array::from_fn(|c| self.tracks[c].acked[slot].load(SeqCst))
    }

    fn decode(&self, file: usize, page: usize, data: &[u8]) -> Result<(u8, u64), String> {
        if data.len() != self.shape.page_size {
            return Err(format!(
                "file {file} page {page}: {} bytes, expected {}",
                data.len(),
                self.shape.page_size
            ));
        }
        let got_file = u32::from_le_bytes(data[0..4].try_into().expect("4 bytes")) as usize;
        let got_page = u16::from_le_bytes(data[4..6].try_into().expect("2 bytes")) as usize;
        let seq = u64::from_le_bytes(data[8..HEADER].try_into().expect("8 bytes"));
        if (got_file, got_page) != (file, page) || data[data.len() - 1] != seq as u8 {
            return Err(format!(
                "file {file} page {page}: payload of file {got_file} page {got_page} seq {seq}"
            ));
        }
        Ok((data[6], seq))
    }

    /// A read during the window must return a value that was acknowledged or
    /// in flight at read time: no older than what its writer had acknowledged
    /// before the read began, no newer than what that writer has issued.
    fn check_read(
        &self,
        file: usize,
        page: usize,
        data: &[u8],
        before: [u64; CLIENTS],
    ) -> Result<(), String> {
        let (writer, seq) = self.decode(file, page, data)?;
        let slot = self.slot(file, page);
        let ok = match writer {
            INIT => before.iter().all(|&acked| acked == 0),
            w if (w as usize) < CLIENTS => {
                seq >= before[w as usize]
                    && seq <= self.tracks[w as usize].issued[slot].load(SeqCst)
            }
            _ => false,
        };
        if ok {
            Ok(())
        } else {
            Err(format!(
                "file {file} page {page}: read client {writer} seq {seq}, acknowledged before the read: {before:?}"
            ))
        }
    }

    /// After the window the page holds the last acknowledged commit: of the
    /// one client that wrote it, or — when both did and their last commits
    /// overlapped in time — of either.
    fn check_final(&self, file: usize, page: usize, data: &[u8]) -> Result<(), String> {
        let (writer, seq) = self.decode(file, page, data)?;
        let slot = self.slot(file, page);
        let last: Vec<(u8, u64, u64, u64)> = (0..CLIENTS)
            .filter_map(|c| {
                let t = &self.tracks[c];
                let acked = t.acked[slot].load(SeqCst);
                (acked != 0).then(|| {
                    (
                        c as u8,
                        acked,
                        t.started[slot].load(SeqCst),
                        t.ended[slot].load(SeqCst),
                    )
                })
            })
            .collect();
        let allowed: Vec<(u8, u64)> = match last[..] {
            [] => vec![(INIT, 0)],
            [(c, s, ..)] => vec![(c, s)],
            [a, b] if a.3 < b.2 => vec![(b.0, b.1)],
            [a, b] if b.3 < a.2 => vec![(a.0, a.1)],
            _ => last.iter().map(|l| (l.0, l.1)).collect(),
        };
        if allowed.contains(&(writer, seq)) {
            Ok(())
        } else {
            Err(format!(
                "file {file} page {page}: holds client {writer} seq {seq}, model allows {allowed:?}"
            ))
        }
    }
}

// ---------------------------------------------------------------------------
// The populated deployment and its clients.
// ---------------------------------------------------------------------------

/// A file the collector visits, and the lock that keeps `gc_file` from
/// overlapping an update of that file.  At the seed a version that allocates
/// blocks after the collector marked it and commits before the sweep loses
/// those blocks (README, known gaps), so clients hold `busy` shared for the
/// length of an update and the collector takes it exclusively, one file at a
/// time.
pub struct GcTarget {
    pub cap: Capability,
    pub busy: RwLock<()>,
}

impl GcTarget {
    fn new(cap: Capability) -> Self {
        GcTarget {
            cap,
            busy: RwLock::new(()),
        }
    }

    fn updating(&self) -> RwLockReadGuard<'_, ()> {
        self.busy.read().expect("gc lock poisoned")
    }
}

/// What populate left behind: the same for every run of a workload.
pub struct Dataset {
    pub workload: Workload,
    /// The files, or for `dir_churn` the hot directories (indexed alike by ops).
    pub targets: Vec<GcTarget>,
    paths: Vec<PagePath>,
    model: Model,
    root: Option<DirCap>,
    /// Per client, the capabilities bound to its prefilled names.
    prefill: Vec<HashMap<String, Capability>>,
}

impl Dataset {
    /// Bytes of user data the clients can still reach: every page of every
    /// file, or for `dir_churn` one name→capability binding per file ever
    /// created — the service has no delete, so an unlinked file lives on
    /// behind the capability its creator holds.
    pub fn live_user_bytes(&self, clients: &[Client]) -> u64 {
        let shape = &self.model.shape;
        let files = (shape.files * shape.pages * shape.page_size) as u64;
        let prefilled: usize = self
            .prefill
            .iter()
            .flat_map(|names| names.keys())
            .map(|name| name.len() + CAP_BYTES)
            .sum();
        let created: u64 = clients.iter().map(|c| c.bound_bytes).sum();
        files + prefilled as u64 + created
    }
}

/// Encoded size of a capability in a directory entry.
const CAP_BYTES: usize = 25;

fn dir_path(dir: usize) -> String {
    format!("/d{dir}")
}

fn entry_path(dir: usize, name: &str) -> String {
    format!("/d{dir}/{name}")
}

/// Creates the files (or directories) of `workload`, spreading the work over
/// the given stores, one thread each.
pub fn populate(workload: Workload, stores: &[Arc<TracedStore>]) -> Result<Dataset, String> {
    let shape = workload.shape();
    let paths: Vec<PagePath> = (0..shape.pages)
        .map(|p| PagePath::new(vec![p as u16]))
        .collect();
    let mut dataset = Dataset {
        workload,
        targets: Vec::new(),
        paths,
        model: Model::new(workload.shape()),
        root: None,
        prefill: vec![HashMap::new(); CLIENTS],
    };
    if workload == Workload::DirChurn {
        // One thread: concurrent prefill of three directories would make
        // set-up time a function of OCC retry luck.
        let named = NamedStore::create(Arc::clone(&stores[0])).map_err(|e| format!("root: {e}"))?;
        for dir in 0..DIRS {
            let made = named
                .mkdir(&dir_path(dir), Rights::ALL)
                .map_err(|e| format!("mkdir {dir}: {e}"))?;
            dataset.targets.push(GcTarget::new(*made.cap()));
            for client in 0..CLIENTS {
                for i in 0..PREFILL {
                    let name = prefilled_name(client, dir, i);
                    let cap = named
                        .create_file(&entry_path(dir, &name), Rights::ALL)
                        .map_err(|e| format!("prefill {name}: {e}"))?;
                    dataset.prefill[client].insert(name, cap);
                }
            }
        }
        dataset.root = Some(named.root());
        return Ok(dataset);
    }

    let root = PagePath::root();
    let parts: Vec<Result<Vec<(usize, Capability)>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = stores
            .iter()
            .enumerate()
            .map(|(k, store)| {
                let (shape, root) = (&shape, &root);
                scope.spawn(move || {
                    let mut made = Vec::new();
                    for file in (k..shape.files).step_by(stores.len()) {
                        let cap = store.create_file().map_err(|e| format!("create: {e}"))?;
                        store
                            .update(&cap, |tx| {
                                for page in 0..shape.pages {
                                    tx.append(root, payload(file, page, INIT, 0, shape.page_size))?;
                                }
                                Ok(())
                            })
                            .map_err(|e| format!("populate file {file}: {e}"))?;
                        made.push((file, cap));
                    }
                    Ok(made)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("populate thread panicked"))
            .collect()
    });
    let mut files = vec![Capability::null(); shape.files];
    for part in parts {
        for (file, cap) in part? {
            files[file] = cap;
        }
    }
    dataset.targets = files.into_iter().map(GcTarget::new).collect();
    Ok(dataset)
}

fn check_cap(name: &str, got: Capability, want: Option<Capability>) -> Result<(), String> {
    if want == Some(got) {
        Ok(())
    } else {
        Err(format!("{name} is bound to {got:?}, model says {want:?}"))
    }
}

pub struct Client {
    pub lane: usize,
    pub store: Arc<TracedStore>,
    /// The file-port transport seam; `None` in the local pass.
    pub transport: Option<Arc<TracedTransport>>,
    cache: ClientCache<Arc<TracedStore>>,
    named: Option<NamedStore<Arc<TracedStore>>>,
    pub gen: Gen,
    data: Arc<Dataset>,
    seq: u64,
    /// `dir_churn`: the capability behind each name this client owns.
    caps: HashMap<String, Capability>,
    pub user_bytes_written: u64,
    /// `dir_churn`: bytes of the name→capability bindings this client created.
    bound_bytes: u64,
    pub cache_reads: u64,
    pub resolves: u64,
    /// Resolves that fetched no directory table.
    pub warm_resolves: u64,
}

impl Client {
    pub fn new(
        lane: usize,
        seed: u64,
        data: &Arc<Dataset>,
        store: Arc<TracedStore>,
        transport: Option<Arc<TracedTransport>>,
    ) -> Result<Self, String> {
        let mut cache = ClientCache::new(Arc::clone(&store));
        if data.workload == Workload::ReadMostly {
            // Open every file once during set-up.  A `ClientCache` entry is
            // born with version block 0, and at the seed a first revalidation
            // sent later walks from block 0 — some other file's first version
            // page — into blocks the collector has freed since (README, known
            // gaps).
            for (file, target) in data.targets.iter().enumerate() {
                cache
                    .revalidate(&target.cap)
                    .map_err(|e| format!("open file {file}: {e}"))?;
            }
        }
        Ok(Client {
            lane,
            cache,
            named: data
                .root
                .map(|root| NamedStore::with_root(Arc::clone(&store), root)),
            gen: Gen::new(data.workload, seed, lane),
            caps: data.prefill[lane].clone(),
            data: Arc::clone(data),
            store,
            transport,
            seq: 0,
            user_bytes_written: 0,
            bound_bytes: 0,
            cache_reads: 0,
            resolves: 0,
            warm_resolves: 0,
        })
    }

    pub fn exec(&mut self, op: &Op) -> Result<(), String> {
        let data = Arc::clone(&self.data);
        let _in_flight = op.updates().map(|t| t.map(|t| data.targets[t].updating()));
        match op {
            Op::Commit { file, first, count } => self.commit(*file, *first, *count),
            Op::Read { file, pages } => self.read_session(*file, pages),
            Op::Resolve { dir, name } => self.resolve(*dir, name),
            Op::Create { dir, name } => {
                let cap = self
                    .named()
                    .create_file(&entry_path(*dir, name), Rights::ALL)
                    .map_err(|e| format!("create {name}: {e}"))?;
                self.caps.insert(name.clone(), cap);
                self.bound_bytes += (name.len() + CAP_BYTES) as u64;
                Ok(())
            }
            Op::Unlink { dir, name } => {
                let removed = self
                    .named()
                    .unlink(&entry_path(*dir, name))
                    .map_err(|e| format!("unlink {name}: {e}"))?;
                check_cap(name, removed.cap, self.caps.remove(name))
            }
            Op::Rename {
                dir,
                name,
                to_dir,
                to_name,
            } => {
                self.named()
                    .rename(&entry_path(*dir, name), &entry_path(*to_dir, to_name))
                    .map_err(|e| format!("rename {name}: {e}"))?;
                let cap = self.caps.remove(name).ok_or("rename of an unknown name")?;
                self.caps.insert(to_name.clone(), cap);
                Ok(())
            }
        }
    }

    fn named(&self) -> &NamedStore<Arc<TracedStore>> {
        self.named
            .as_ref()
            .expect("dir_churn client has a NamedStore")
    }

    fn commit(&mut self, file: usize, first: usize, count: usize) -> Result<(), String> {
        let data = Arc::clone(&self.data);
        let (model, size) = (&data.model, data.model.shape.page_size);
        self.seq += 1;
        let seq = self.seq;
        let track = &model.tracks[self.lane];
        let writes: Vec<(PagePath, Bytes)> = (first..first + count)
            .map(|page| {
                track.issued[model.slot(file, page)].store(seq, SeqCst);
                (
                    data.paths[page].clone(),
                    payload(file, page, self.lane as u8, seq, size),
                )
            })
            .collect();
        let started = model.tick();
        self.store
            .update_with(
                &data.targets[file].cap,
                RetryPolicy::default(),
                |tx| match &writes[..] {
                    [(path, page)] => tx.write(path, page.clone()),
                    many => tx.write_many(many),
                },
            )
            .map_err(|e| format!("commit to file {file}: {e}"))?;
        let ended = model.tick();
        for page in first..first + count {
            let slot = model.slot(file, page);
            track.started[slot].store(started, SeqCst);
            track.ended[slot].store(ended, SeqCst);
            track.acked[slot].store(seq, SeqCst);
        }
        self.user_bytes_written += (count * size) as u64;
        Ok(())
    }

    /// `read_mostly`: revalidate the cache entry, then read through the
    /// cache.  `read_cold`: no client cache — ask for the current version and
    /// read its committed pages.
    fn read_session(&mut self, file: usize, pages: &[usize]) -> Result<(), String> {
        let data = Arc::clone(&self.data);
        let cap = &data.targets[file].cap;
        let before: Vec<[u64; CLIENTS]> = pages
            .iter()
            .map(|&page| data.model.acked_now(data.model.slot(file, page)))
            .collect();
        let cached = data.workload == Workload::ReadMostly;
        let version = if cached {
            self.cache
                .revalidate(cap)
                .map_err(|e| format!("revalidate file {file}: {e}"))?;
            None
        } else {
            Some(
                self.store
                    .current_version(cap)
                    .map_err(|e| format!("current version of file {file}: {e}"))?,
            )
        };
        for (&page, before) in pages.iter().zip(before) {
            let path = &data.paths[page];
            let got = match &version {
                None => {
                    self.cache_reads += 1;
                    self.cache.read(cap, path)
                }
                Some(version) => self.store.read_committed_page(version, path),
            }
            .map_err(|e| format!("read file {file} page {page}: {e}"))?;
            data.model.check_read(file, page, &got, before)?;
        }
        Ok(())
    }

    fn resolve(&mut self, dir: usize, name: &str) -> Result<(), String> {
        use std::sync::atomic::Ordering::Relaxed;
        let path = entry_path(dir, name);
        let fetches = self.store.current_version_calls.load(Relaxed);
        let named = self.named();
        named
            .revalidate(&path)
            .map_err(|e| format!("revalidate {path}: {e}"))?;
        let entry = named
            .resolve(&path)
            .map_err(|e| format!("resolve {path}: {e}"))?;
        self.resolves += 1;
        if self.store.current_version_calls.load(Relaxed) == fetches {
            self.warm_resolves += 1;
        }
        check_cap(name, entry.cap, self.caps.get(name).copied())
    }
}

// ---------------------------------------------------------------------------
// The verification pass.
// ---------------------------------------------------------------------------

/// Re-reads part `part` of `parts` of the files against the model.  Returns
/// the number of mismatches and the first one.
pub fn verify_files(
    data: &Dataset,
    store: &TracedStore,
    part: usize,
    parts: usize,
) -> (u64, Option<String>) {
    let mut bad = 0;
    let mut first = None;
    if data.root.is_some() {
        return (0, None);
    }
    for file in (part..data.targets.len()).step_by(parts) {
        let checked = store
            .current_version(&data.targets[file].cap)
            .map_err(|e| format!("verify file {file}: {e}"))
            .and_then(|version| {
                for page in 0..data.paths.len() {
                    let got = store
                        .read_committed_page(&version, &data.paths[page])
                        .map_err(|e| format!("verify file {file} page {page}: {e}"))?;
                    data.model.check_final(file, page, &got)?;
                }
                Ok(())
            });
        if let Err(e) = checked {
            bad += 1;
            first.get_or_insert(e);
        }
    }
    (bad, first)
}

/// Lists every hot directory through a cold `NamedStore` and compares it,
/// name by name and capability by capability, with what the clients own.
pub fn verify_dirs(
    data: &Dataset,
    store: &Arc<TracedStore>,
    clients: &[Client],
) -> Result<(), String> {
    let Some(root) = data.root else {
        return Ok(());
    };
    let named = NamedStore::with_root(Arc::clone(store), root);
    for dir in 0..DIRS {
        let mut want: HashMap<&str, Capability> = HashMap::new();
        for client in clients {
            for name in &client.gen.live[dir] {
                let cap = client
                    .caps
                    .get(name)
                    .ok_or(format!("no capability for {name}"))?;
                want.insert(name, *cap);
            }
        }
        let listed = named
            .read_dir(&dir_path(dir))
            .map_err(|e| format!("list {}: {e}", dir_path(dir)))?;
        if listed.len() != want.len() {
            return Err(format!(
                "{} lists {} entries, model has {}",
                dir_path(dir),
                listed.len(),
                want.len()
            ));
        }
        for entry in listed {
            if want.get(entry.name.as_str()) != Some(&entry.cap) {
                return Err(format!(
                    "{}/{} is not in the model",
                    dir_path(dir),
                    entry.name
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_op_sequence() {
        for workload in Workload::ALL {
            let ops = |seed, client| {
                let mut gen = Gen::new(workload, seed, client);
                (0..500).map(|_| gen.next_op()).collect::<Vec<_>>()
            };
            assert_eq!(ops(42, 0), ops(42, 0), "{workload:?}");
            assert_ne!(
                ops(42, 0),
                ops(42, 1),
                "{workload:?}: clients share a stream"
            );
            assert_ne!(ops(42, 0), ops(43, 0), "{workload:?}: seed ignored");
        }
    }

    #[test]
    fn dir_churn_keeps_its_mix_and_a_steady_size() {
        let mut gen = Gen::new(Workload::DirChurn, 5, 0);
        let mut counts = [0usize; 4];
        for _ in 0..10_000 {
            match gen.next_op() {
                Op::Resolve { .. } => counts[0] += 1,
                Op::Create { .. } => counts[1] += 1,
                Op::Unlink { .. } => counts[2] += 1,
                Op::Rename { dir, to_dir, .. } => {
                    assert_ne!(dir, to_dir);
                    counts[3] += 1
                }
                other => panic!("{other:?} in dir_churn"),
            }
        }
        for (got, want) in counts.iter().zip([5000, 2000, 2000, 1000]) {
            assert!(got.abs_diff(want) < 200, "{counts:?}");
        }
        let owned: usize = gen.live.iter().map(Vec::len).sum();
        assert!(owned.abs_diff(DIRS * PREFILL) < 150, "{owned} names owned");
    }

    #[test]
    fn the_model_accepts_only_acknowledged_or_in_flight_values() {
        let model = Model::new(Workload::CommitSmall.shape());
        let size = model.shape.page_size;
        let slot = model.slot(3, 7);
        let init = payload(3, 7, INIT, 0, size);
        model.check_read(3, 7, &init, [0, 0]).unwrap();
        model.check_final(3, 7, &init).unwrap();

        // Client 0 has seq 5 in flight: readable, but not yet final.
        model.tracks[0].issued[slot].store(5, SeqCst);
        let five = payload(3, 7, 0, 5, size);
        model.check_read(3, 7, &five, [0, 0]).unwrap();
        model.check_final(3, 7, &five).unwrap_err();
        model
            .check_read(3, 7, &payload(3, 7, 0, 6, size), [0, 0])
            .unwrap_err();

        // Acknowledged: the initial page and older writes are now stale.
        model.tracks[0].acked[slot].store(5, SeqCst);
        model.tracks[0].started[slot].store(10, SeqCst);
        model.tracks[0].ended[slot].store(11, SeqCst);
        model.check_final(3, 7, &five).unwrap();
        model.check_read(3, 7, &init, [5, 0]).unwrap_err();
        model
            .check_read(3, 7, &payload(3, 7, 0, 4, size), [5, 0])
            .unwrap_err();

        // Client 1 commits strictly later: only its value is final.
        model.tracks[1].issued[slot].store(2, SeqCst);
        model.tracks[1].acked[slot].store(2, SeqCst);
        model.tracks[1].started[slot].store(12, SeqCst);
        model.tracks[1].ended[slot].store(13, SeqCst);
        model.check_final(3, 7, &payload(3, 7, 1, 2, size)).unwrap();
        model.check_final(3, 7, &five).unwrap_err();
        // Overlapping commits: either may have won.
        model.tracks[1].started[slot].store(9, SeqCst);
        model.check_final(3, 7, &five).unwrap();

        // A page of another file is never acceptable.
        model
            .check_read(3, 7, &payload(3, 8, INIT, 0, size), [0, 0])
            .unwrap_err();
    }
}
