//! One benchmark run of one workload: set-up, the timed closed-loop window,
//! the verification pass, and — with `--trace 1` — the traced pass, the local
//! pass and the disk replay probe that the per-layer metrics come from.

use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering::Relaxed, Ordering::SeqCst};
use std::sync::Arc;
use std::time::{Duration, Instant};

use amoeba_block::{disk, BlockNr, BlockStore, MemStore};
use bytes::Bytes;

use crate::hist::Hist;
use crate::topology::{StoreFactory, Topology, REPLICAS};
use crate::trace::{self, BlockCall, Layer, Recorder, Span};
use crate::workload::{
    populate, verify_dirs, verify_files, Client, Dataset, Kind, Workload, CLIENTS, KINDS,
};

/// The benchmark's own thread runs the collector so its cost shows from outside.
const GC_INTERVAL: Duration = Duration::from_millis(250);
/// p99 is reported only when at least ten samples lie beyond it.
const P99_MIN_SAMPLES: u64 = 1000;
/// A set-up of half a second is too short to time steadily three times.
const SETUP_REPS_MAX: usize = 9;
const SETUP_BUDGET: f64 = 4.0;
/// Throughput is the interquartile mean over slices of this length, so a
/// brief stall of the host moves it less than it moves the plain mean.
const SLICE: Duration = Duration::from_secs(1);

/// The lengths of one run.  `main` derives it from `--seconds`; the
/// self-tests shrink it.
#[derive(Clone, Copy)]
pub struct Plan {
    /// Measured window of the timed run.
    pub seconds: f64,
    /// Discarded lead-in of the timed run.
    pub warmup: f64,
    /// Set-ups timed per run, at least; `setup_s` is their median.  Cheap
    /// set-ups are repeated further, up to `SETUP_REPS_MAX` or `SETUP_BUDGET`.
    pub setup_reps: usize,
    /// Ops of the traced pass before and inside the traced window.
    pub trace_warmup: usize,
    pub trace_ops: usize,
}

impl Plan {
    pub fn for_seconds(seconds: f64, traced: bool) -> Plan {
        Plan {
            // The traced run spends the other half of `--seconds` in its
            // traced, untraced and local passes.
            seconds: if traced { seconds / 2.0 } else { seconds },
            warmup: (seconds / 10.0).min(2.0),
            setup_reps: if traced { 1 } else { 3 },
            trace_warmup: 50,
            trace_ops: 400,
        }
    }
}

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub first_error: Option<String>,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    fn fail(&mut self, count: u64, error: Option<String>) {
        self.failed += count;
        if self.first_error.is_none() {
            self.first_error = error;
        }
    }
}

fn mem_disk(_lane: usize) -> Arc<dyn BlockStore> {
    Arc::new(MemStore::new())
}

// ---------------------------------------------------------------------------
// Set-up.
// ---------------------------------------------------------------------------

struct Deployment {
    topo: Topology,
    data: Arc<Dataset>,
    clients: Vec<Client>,
}

/// Builds a fresh topology, connects the clients and populates: the
/// identical starting condition of every run, and what `setup_s` times.
/// With `local` the clients skip the client stack and the wire and call the
/// `FileService` directly.  With `sequential` one client populates alone, so
/// block numbers — and with them the server cache's evictions — repeat
/// exactly; the traced passes need that, the timed run prefers the speed.
fn deploy(
    workload: Workload,
    seed: u64,
    make_disk: StoreFactory,
    local: bool,
    sequential: bool,
) -> Result<(Deployment, f64), String> {
    let started = Instant::now();
    let rec = Recorder::new();
    let topo = Topology::build(&rec, make_disk)?;
    let seams: Vec<_> = (0..CLIENTS)
        .map(|lane| {
            if local {
                (topo.local_store(), None)
            } else {
                let (store, transport) = topo.connect(lane);
                (store, Some(transport))
            }
        })
        .collect();
    let stores: Vec<_> = seams.iter().map(|(store, _)| Arc::clone(store)).collect();
    let populators = if sequential { 1 } else { stores.len() };
    let data = Arc::new(populate(workload, &stores[..populators])?);
    let clients = seams
        .into_iter()
        .enumerate()
        .map(|(lane, (store, transport))| Client::new(lane, seed, &data, store, transport))
        .collect::<Result<_, _>>()?;
    let deployment = Deployment {
        topo,
        data,
        clients,
    };
    Ok((deployment, started.elapsed().as_secs_f64()))
}

impl Deployment {
    /// Waits out straggler replica writes and collects every file once, in
    /// file order (`gc_all` walks a `HashMap`, and the order of the walk
    /// decides what the server's page cache holds afterwards).
    fn settle(&self) -> Result<(), String> {
        self.topo.replica_set.quiesce();
        for target in &self.data.targets {
            self.topo
                .service
                .gc_file(&target.cap)
                .map_err(|e| format!("gc_file: {e}"))?;
        }
        self.topo.replica_set.quiesce();
        Ok(())
    }

    /// The verification pass: every file page and every directory entry
    /// against the model.
    fn verify(&self, outcome: &mut Outcome) {
        let parts: Vec<(u64, Option<String>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .clients
                .iter()
                .map(|c| scope.spawn(|| verify_files(&self.data, &c.store, c.lane, CLIENTS)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("verify thread panicked"))
                .collect()
        });
        for (bad, first) in parts {
            outcome.fail(bad, first);
        }
        if let Err(e) = verify_dirs(&self.data, &self.clients[0].store, &self.clients) {
            outcome.fail(1, Some(e));
        }
    }

    fn shutdown(self) {
        let Deployment { topo, clients, .. } = self;
        drop(clients);
        topo.shutdown();
    }
}

// ---------------------------------------------------------------------------
// The timed window.
// ---------------------------------------------------------------------------

struct ClientWindow {
    hists: [Hist; KINDS],
    /// Ops completed in each whole `SLICE` of the measured window.
    slices: Vec<u64>,
    attempted: u64,
    failed: u64,
    first_error: Option<String>,
    counts: Counts,
}

fn drive(client: &mut Client, topo: &Topology, warm_end: Instant, end: Instant) -> ClientWindow {
    let mut w = ClientWindow {
        hists: Default::default(),
        slices: vec![0; ((end - warm_end).as_secs() / SLICE.as_secs()) as usize],
        attempted: 0,
        failed: 0,
        first_error: None,
        counts: [0; C::N as usize],
    };
    let mut measured: Option<Counts> = None;
    loop {
        let now = Instant::now();
        if now >= end {
            break;
        }
        if measured.is_none() && now >= warm_end {
            measured = Some(counts(client, topo));
        }
        let op = client.gen.next_op();
        let started = Instant::now();
        let result = client.exec(&op);
        let took = started.elapsed();
        w.attempted += 1;
        match result {
            Err(e) => {
                w.failed += 1;
                w.first_error.get_or_insert(e);
            }
            Ok(()) if measured.is_some() => {
                w.hists[op.kind() as usize].record(took.as_nanos() as u64);
                let slice = (Instant::now() - warm_end).as_secs() / SLICE.as_secs();
                if let Some(count) = w.slices.get_mut(slice as usize) {
                    *count += 1;
                }
            }
            Ok(()) => {}
        }
    }
    if let Some(before) = measured {
        w.counts = since(&counts(client, topo), &before);
    }
    w
}

#[derive(Default)]
struct GcWindow {
    /// Whole passes that began inside the measured window.
    pass_times: Hist,
    /// Collection time and freed blocks of the files collected inside it.
    busy: Duration,
    freed: u64,
    error: Option<String>,
}

/// The collector: every `GC_INTERVAL` one `gc_file` per file, each under that
/// file's exclusive lock.  Stops between files, so a slow pass cannot hold
/// the run past its window.
fn collect(dep_data: &Dataset, topo: &Topology, stop: &AtomicBool, warm_end: Instant) -> GcWindow {
    let mut out = GcWindow::default();
    'passes: loop {
        std::thread::sleep(GC_INTERVAL);
        let pass_started = Instant::now();
        let mut pass = Duration::ZERO;
        for target in &dep_data.targets {
            if stop.load(SeqCst) {
                break 'passes;
            }
            let _exclusive = target.busy.write().expect("gc lock poisoned");
            // Waiting for the lock is the benchmark's doing, not the
            // collector's: only the collection itself is charged.
            let started = Instant::now();
            let report = topo.service.gc_file(&target.cap);
            let took = started.elapsed();
            pass += took;
            match report {
                Ok(report) if started >= warm_end => {
                    out.busy += took;
                    out.freed += report.freed_blocks as u64;
                }
                Ok(_) => {}
                Err(e) => out.error = out.error.or(Some(format!("background gc_file: {e}"))),
            }
        }
        if pass_started >= warm_end {
            out.pass_times.record(pass.as_nanos() as u64);
        }
    }
    out
}

struct Window {
    hists: [Hist; KINDS],
    ops_per_s: f64,
    /// Client-level counts over the window, summed over the clients.
    counts: Counts,
    gc: GcWindow,
}

/// Both clients in a closed loop with the collector beside them.
fn timed_window(dep: &mut Deployment, plan: &Plan, outcome: &mut Outcome) -> Window {
    let stop = AtomicBool::new(false);
    let (topo, data) = (&dep.topo, &*dep.data);
    // Thread start-up skew is absorbed by the discarded warm-up.
    let warm_end = Instant::now() + Duration::from_secs_f64(plan.warmup);
    let end = warm_end + Duration::from_secs_f64(plan.seconds);

    let (per_client, gc) = std::thread::scope(|scope| {
        let gc = scope.spawn(|| collect(data, topo, &stop, warm_end));
        let handles: Vec<_> = dep
            .clients
            .iter_mut()
            .map(|client| scope.spawn(move || drive(client, topo, warm_end, end)))
            .collect();
        let per_client: Vec<ClientWindow> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        stop.store(true, SeqCst);
        (per_client, gc.join().expect("gc thread panicked"))
    });

    let slices = per_client.iter().map(|w| w.slices.len()).min().unwrap_or(0);
    let mut per_slice: Vec<f64> = (0..slices)
        .map(|i| per_client.iter().map(|w| w.slices[i]).sum::<u64>() as f64)
        .collect();
    let mut out = Window {
        hists: Default::default(),
        ops_per_s: midmean(&mut per_slice) / SLICE.as_secs_f64(),
        counts: [0; C::N as usize],
        gc,
    };
    for w in per_client {
        outcome.attempted += w.attempted;
        outcome.fail(w.failed, w.first_error);
        out.counts = std::array::from_fn(|i| out.counts[i] + w.counts[i]);
        for (mine, theirs) in out.hists.iter_mut().zip(&w.hists) {
            mine.merge(theirs);
        }
    }
    if let Some(error) = out.gc.error.take() {
        outcome.fail(1, Some(error));
    }
    out
}

/// `num / den`, or 0 when the workload never exercises the denominator.
fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// `1 - slow / all`: the share of `all` requests that avoided the slow path.
fn share_avoided(slow: u64, all: u64) -> f64 {
    if all == 0 {
        0.0
    } else {
        1.0 - ratio(slow, all)
    }
}

/// p99, or below 1000 samples the highest of p95 / p90 / p50 that still has
/// ten samples beyond it.
fn p99_ms(hist: &Hist) -> f64 {
    let q = match hist.count() {
        n if n >= P99_MIN_SAMPLES => 0.99,
        n if n >= 200 => 0.95,
        n if n >= 100 => 0.9,
        _ => 0.5,
    };
    hist.quantile_ms(q)
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The mean of the middle half of `values`.
fn midmean(values: &mut [f64]) -> f64 {
    values.sort_by(|a, b| a.total_cmp(b));
    let cut = values.len() / 4;
    let middle = &values[cut..values.len() - cut];
    if middle.is_empty() {
        return 0.0;
    }
    middle.iter().sum::<f64>() / middle.len() as f64
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(|a, b| a.total_cmp(b));
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

// ---------------------------------------------------------------------------
// The traced pass.
// ---------------------------------------------------------------------------

/// Counts taken at the seams.  In the traced window one sequential client
/// and a paused collector make them repeat exactly from run to run; over the
/// timed window only the client-level ones (up to `Conflicts`) are used.
#[derive(Clone, Copy)]
#[repr(usize)]
enum C {
    StoreCalls,
    Validates,
    ReadCommitted,
    CacheReads,
    Resolves,
    WarmResolves,
    UserBytes,
    FileRpcs,
    FileBytes,
    ValidateRpcs,
    Commits,
    Conflicts,
    BlockRpcs,
    BlockBytes,
    CoreCalls,
    CoreBlocks,
    CoreBytes,
    N,
}

pub type Counts = [u64; C::N as usize];

fn counts(client: &Client, topo: &Topology) -> Counts {
    let store = &client.store;
    let file = client.transport.as_deref();
    let blocks = &topo.block_transports;
    let core = &topo.core_block;
    [
        store.seam.calls.load(Relaxed),
        store.validate_calls.load(Relaxed),
        store.read_committed_calls.load(Relaxed),
        client.cache_reads,
        client.resolves,
        client.warm_resolves,
        client.user_bytes_written,
        file.map_or(0, |t| t.seam.calls.load(Relaxed)),
        file.map_or(0, |t| t.seam.bytes.load(Relaxed)),
        file.map_or(0, |t| t.watched_rpcs.load(Relaxed)),
        store.commits.load(Relaxed),
        store.conflicts.load(Relaxed),
        blocks.iter().map(|t| t.seam.calls.load(Relaxed)).sum(),
        blocks.iter().map(|t| t.seam.bytes.load(Relaxed)).sum(),
        core.seam.calls.load(Relaxed),
        core.blocks_written.load(Relaxed),
        core.seam.bytes.load(Relaxed),
    ]
}

fn since(now: &Counts, before: &Counts) -> Counts {
    std::array::from_fn(|i| now[i] - before[i])
}

pub struct Pass {
    pub counts: Counts,
    spans: Vec<Span>,
    block_calls: Vec<BlockCall>,
    traced_us_per_op: f64,
    untraced_us_per_op: f64,
}

/// One client, warm-up, then `trace_ops` ops with spans on, then as many with
/// spans off (the overhead baseline), on a fresh deployment with the
/// collector paused.
fn traced_pass(
    workload: Workload,
    seed: u64,
    plan: &Plan,
    local: bool,
    outcome: &mut Outcome,
) -> Result<Pass, String> {
    let (mut dep, _) = deploy(workload, seed, &mem_disk, local, true)?;
    if !local && matches!(workload, Workload::ReadMostly | Workload::DirChurn) {
        // Leases granted during set-up would lapse at some point inside the
        // traced window and make its RPC counts depend on timing; let them
        // all lapse first.  The window itself is shorter than one lease.
        std::thread::sleep(afs_server::DEFAULT_LEASE_TTL);
    }
    let rec = Arc::clone(&dep.topo.rec);
    let mut run_ops = |dep: &mut Deployment, n: usize, traced: bool| -> f64 {
        let started = Instant::now();
        for _ in 0..n {
            let client = &mut dep.clients[0];
            let op = client.gen.next_op();
            let start = rec.now();
            let result = client.exec(&op);
            if traced {
                rec.push(Span {
                    layer: Layer::Root,
                    lane: 0,
                    op: "op",
                    code: op.kind() as u32,
                    start,
                    end: rec.now(),
                });
            }
            outcome.attempted += 1;
            if let Err(e) = result {
                outcome.fail(1, Some(e));
            }
        }
        started.elapsed().as_secs_f64() * 1e6 / n.max(1) as f64
    };

    run_ops(&mut dep, plan.trace_warmup, false);
    dep.settle()?;
    let before = counts(&dep.clients[0], &dep.topo);
    rec.set_enabled(true);
    let traced_us_per_op = run_ops(&mut dep, plan.trace_ops, true);
    // Let straggler replica writes finish inside the traced window, so every
    // replica-set write has all its children on record.
    dep.topo.replica_set.quiesce();
    rec.set_enabled(false);
    let after = counts(&dep.clients[0], &dep.topo);
    let untraced_us_per_op = if local {
        0.0
    } else {
        run_ops(&mut dep, plan.trace_ops, false)
    };
    dep.topo.replica_set.quiesce();
    dep.verify(outcome);

    let pass = Pass {
        counts: since(&after, &before),
        spans: rec.take(),
        block_calls: dep.topo.mem_seams[0].take_calls(),
        traced_us_per_op,
        untraced_us_per_op,
    };
    dep.shutdown();
    Ok(pass)
}

// ---------------------------------------------------------------------------
// The disk replay probe.
// ---------------------------------------------------------------------------

/// Replays the block calls replica 0's store saw in the traced window,
/// single-threaded, against a fresh file-backed store: what that store would
/// add per op, without and with `sync_data`.  Informational: the serving
/// path cannot run on it yet (README, known gaps).
fn replay(calls: &[BlockCall], path: &Path, sync: bool) -> Result<Duration, String> {
    // Block numbers are renumbered densely so the backing file stays small.
    let mut dense: HashMap<BlockNr, BlockNr> = HashMap::new();
    let mut id = |nr: BlockNr| {
        let next = dense.len() as BlockNr;
        *dense.entry(nr).or_insert(next)
    };
    let mut allocated: HashMap<BlockNr, bool> = HashMap::new();
    // Blocks the window touches but did not allocate existed before it.
    let mut existing: Vec<(BlockNr, usize)> = Vec::new();
    let mut script: Vec<BlockCall> = Vec::with_capacity(calls.len());
    for call in calls {
        let mut touch = |nr: BlockNr, len: usize, now: bool| {
            if !allocated.contains_key(&nr) {
                existing.push((nr, len));
            }
            allocated.insert(nr, now);
        };
        script.push(match call {
            BlockCall::Allocate(nr) => {
                let nr = id(*nr);
                allocated.insert(nr, true);
                BlockCall::Allocate(nr)
            }
            BlockCall::Free(nr) => {
                let nr = id(*nr);
                touch(nr, 0, false);
                BlockCall::Free(nr)
            }
            BlockCall::Read(nr, len) => {
                let nr = id(*nr);
                touch(nr, *len, true);
                BlockCall::Read(nr, *len)
            }
            BlockCall::Write(writes) => BlockCall::Write(
                writes
                    .iter()
                    .map(|(nr, len)| {
                        let nr = id(*nr);
                        touch(nr, 0, true);
                        (nr, *len)
                    })
                    .collect(),
            ),
        });
    }

    let block_size = MemStore::new().block_size();
    let zeros = Bytes::from(vec![0u8; block_size]);
    let store = disk::FileStore::create(path, block_size, dense.len().max(1), sync)
        .map_err(|e| format!("create {}: {e}", path.display()))?;
    let run = || -> amoeba_block::Result<Duration> {
        for (nr, _) in &existing {
            store.allocate_at(*nr)?;
        }
        let fill: Vec<(BlockNr, Bytes)> = existing
            .iter()
            .filter(|(_, len)| *len > 0)
            .map(|(nr, len)| (*nr, zeros.slice(0..*len)))
            .collect();
        for chunk in fill.chunks(256) {
            store.write_batch(chunk)?;
        }
        let started = Instant::now();
        for call in &script {
            match call {
                BlockCall::Allocate(nr) => store.allocate_at(*nr)?,
                BlockCall::Free(nr) => store.free(*nr)?,
                BlockCall::Read(nr, _) => drop(std::hint::black_box(store.read(*nr)?)),
                BlockCall::Write(writes) => match writes[..] {
                    [(nr, len)] => store.write(nr, zeros.slice(0..len))?,
                    _ => {
                        let batch: Vec<(BlockNr, Bytes)> = writes
                            .iter()
                            .map(|(nr, len)| (*nr, zeros.slice(0..*len)))
                            .collect();
                        store.write_batch(&batch)?
                    }
                },
            }
        }
        Ok(started.elapsed())
    };
    let result = run().map_err(|e| format!("disk replay: {e}"));
    drop(store);
    let _ = std::fs::remove_file(path);
    result
}

// ---------------------------------------------------------------------------
// One run.
// ---------------------------------------------------------------------------

/// Runs `workload` once.  With `traced` off the outcome carries the
/// end-to-end metrics; with it on, the per-layer metrics.
pub fn run(workload: Workload, seed: u64, plan: &Plan, traced: bool, out_dir: &Path) -> Outcome {
    run_on(workload, seed, plan, traced, out_dir, &mem_disk)
}

fn run_on(
    workload: Workload,
    seed: u64,
    plan: &Plan,
    traced: bool,
    out_dir: &Path,
    make_disk: StoreFactory,
) -> Outcome {
    let mut outcome = Outcome::default();
    if let Err(e) = run_inner(
        workload,
        seed,
        plan,
        traced,
        out_dir,
        make_disk,
        &mut outcome,
    ) {
        outcome.fail(1, Some(e));
    }
    outcome
}

/// The timed run with `disk::FileStore` (no sync) as the three disks.
#[cfg(test)]
pub fn run_on_disk_stores(workload: Workload, seed: u64, plan: &Plan) -> Outcome {
    let dir = crate::out_dir();
    std::fs::create_dir_all(&dir).expect("output directory");
    let path = |lane: usize| dir.join(format!("serve-{}-{lane}.blk", std::process::id()));
    let file_disk = |lane: usize| -> Arc<dyn BlockStore> {
        let block_size = MemStore::new().block_size();
        Arc::new(disk::FileStore::create(path(lane), block_size, 1 << 16, false).expect("disk"))
    };
    let outcome = run_on(workload, seed, plan, false, &dir, &file_disk);
    for lane in 0..REPLICAS {
        let _ = std::fs::remove_file(path(lane));
    }
    outcome
}

fn run_inner(
    workload: Workload,
    seed: u64,
    plan: &Plan,
    traced: bool,
    out_dir: &Path,
    make_disk: StoreFactory,
    outcome: &mut Outcome,
) -> Result<(), String> {
    let (mut dep, first_setup) = deploy(workload, seed, make_disk, false, false)?;
    let window = timed_window(&mut dep, plan, outcome);
    // The space metric is read after a final synchronous collection; the
    // traced run does not report it and skips the (slow) pass.
    if traced {
        dep.topo.replica_set.quiesce();
    } else {
        dep.settle()?;
    }
    dep.verify(outcome);
    let stored = dep.topo.stored_bytes()?;
    let user = dep.data.live_user_bytes(&dep.clients);
    dep.shutdown();
    if traced {
        return per_layer(workload, seed, plan, out_dir, &window, outcome);
    }

    // Read before the extra set-ups: how much of a torn-down deployment the
    // allocator hands back varies, and would vary the high-water mark with it.
    let peak_rss = peak_rss_mb();
    let mut setups = vec![first_setup];
    while setups.len() < plan.setup_reps
        || (setups.len() < SETUP_REPS_MAX && setups.iter().sum::<f64>() < SETUP_BUDGET)
    {
        let (again, took) = deploy(workload, seed, make_disk, false, false)?;
        again.shutdown();
        setups.push(took);
    }
    let primary = &window.hists[workload.primary() as usize];
    outcome.metrics.extend(
        [
            ("setup_s", median(&mut setups), "s"),
            ("ops_per_s", window.ops_per_s, "1/s"),
            ("op_p50_ms", primary.quantile_ms(0.5), "ms"),
            ("op_p95_ms", primary.quantile_ms(0.95), "ms"),
            ("peak_rss_mb", peak_rss, "MB"),
            ("stored_bytes_per_user_byte", ratio(stored, user), "ratio"),
        ]
        .map(|(name, value, unit)| Metric { name, value, unit }),
    );
    Ok(())
}

/// The traced pass, the local pass and the disk replay, and the per-layer
/// metrics computed from them and from the timed window.
fn per_layer(
    workload: Workload,
    seed: u64,
    plan: &Plan,
    out_dir: &Path,
    window: &Window,
    outcome: &mut Outcome,
) -> Result<(), String> {
    let remote = traced_pass(workload, seed, plan, false, outcome)?;
    let local = traced_pass(workload, seed, plan, true, outcome)?;
    std::fs::create_dir_all(out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let file = |name: String| out_dir.join(name);
    trace::write_jsonl(
        &file(format!("trace-{}.jsonl", workload.name())),
        &remote.spans,
    )
    .map_err(|e| format!("write trace: {e}"))?;
    let scratch = file(format!("replay-{}.blk", std::process::id()));
    let nosync = replay(&remote.block_calls, &scratch, false)?;
    let sync = replay(&remote.block_calls, &scratch, true)?;
    let disk_writes = remote
        .block_calls
        .iter()
        .filter(|c| matches!(c, BlockCall::Write(_)))
        .count() as u64;

    let n = plan.trace_ops as u64;
    let c = |which: C| remote.counts[which as usize];
    let t = |which: C| window.counts[which as usize];
    // Nanoseconds over `den` events, in microseconds.
    let us = |ns: u64, den: u64| ratio(ns, den) / 1e3;
    let own = trace::self_times(&remote.spans);
    let at = |layer: Layer| own[layer as usize];
    let core_self = us(
        trace::self_times(&local.spans)[Layer::ClientStore as usize],
        n,
    );
    let quorum = trace::quorum_times(&remote.spans, REPLICAS);
    let dir_only = |value: f64| match workload {
        Workload::DirChurn => value,
        _ => 0.0,
    };
    let names = window.hists[Kind::Name as usize].count();
    let gc = &window.gc;
    let [write, read, name] =
        [Kind::Write, Kind::Read, Kind::Name].map(|k| &window.hists[k as usize]);

    let client_self = us(at(Layer::Root) + at(Layer::ClientStore), n);
    let filesvc = us(at(Layer::ServerFile), n);
    let root_us = us(own.iter().sum(), n);
    let rows = [
        ("client.self_us_per_op", client_self),
        ("rpc.file.wire_us_per_op", us(at(Layer::RpcFile), n)),
        ("server.filesvc_us_per_op", filesvc),
        ("block.replica.self_us_per_op", us(at(Layer::CoreBlock), n)),
        ("block.remote.self_us_per_op", us(at(Layer::BlockRemote), n)),
        ("rpc.block.wire_us_per_op", us(at(Layer::RpcBlock), n)),
        ("server.block.self_us_per_op", us(at(Layer::ServerBlock), n)),
        ("block.store.self_us_per_op", us(at(Layer::BlockStore), n)),
        ("sum = root span", root_us),
    ];
    eprintln!(
        "{}: where one op's time goes (traced pass, 1 client)",
        workload.name()
    );
    for (name, value) in rows {
        let share = 100.0 * value / root_us;
        eprintln!("  {name:<30}{value:>11.1} us{share:>7.1} %");
    }

    #[rustfmt::skip]
    let metrics = [
        ("client.self_us_per_op", client_self, "us"),
        ("client.cache_hit_ratio", share_avoided(t(C::ReadCommitted), t(C::CacheReads)), "ratio"),
        ("client.lease_zero_rpc_ratio", share_avoided(t(C::ValidateRpcs), t(C::Validates)), "ratio"),
        ("client.name_cache_hit_ratio", ratio(t(C::WarmResolves), t(C::Resolves)), "ratio"),
        ("rpc.file.rpcs_per_op", ratio(c(C::FileRpcs), n), "count"),
        ("rpc.file.bytes_per_op", ratio(c(C::FileBytes), n), "B"),
        ("rpc.file.wire_us_per_rpc", us(at(Layer::RpcFile), c(C::FileRpcs)), "us"),
        ("rpc.block.rpcs_per_op", ratio(c(C::BlockRpcs), n), "count"),
        ("rpc.block.bytes_per_op", ratio(c(C::BlockBytes), n), "B"),
        ("rpc.block.wire_us_per_rpc", us(at(Layer::RpcBlock), c(C::BlockRpcs)), "us"),
        ("server.filesvc_us_per_op", filesvc, "us"),
        ("server.handler_self_us_per_op", filesvc - core_self, "us"),
        ("core.self_us_per_op", core_self, "us"),
        ("core.block_calls_per_op", ratio(c(C::CoreCalls), n), "count"),
        ("core.blocks_written_per_op", ratio(c(C::CoreBlocks), n), "count"),
        ("core.bytes_written_per_user_byte", ratio(c(C::CoreBytes), c(C::UserBytes)), "ratio"),
        ("core.occ_retries_per_commit", ratio(t(C::Conflicts), t(C::Commits)), "ratio"),
        ("dir.self_us_per_op", dir_only(us(at(Layer::Root), n)), "us"),
        ("dir.store_calls_per_op", dir_only(ratio(c(C::StoreCalls), n)), "count"),
        ("dir.occ_retries_per_mutation", dir_only(ratio(t(C::Conflicts), names)), "ratio"),
        ("block.replica.self_us_per_op", us(at(Layer::CoreBlock), n), "us"),
        ("block.replica.self_us_per_call", us(quorum.self_ns, quorum.calls), "us"),
        ("block.replica.quorum_wait_us_per_call", us(quorum.wait_ns, quorum.calls), "us"),
        ("block.replica.straggler_lag_us", us(quorum.straggler_ns, quorum.calls), "us"),
        ("block.remote.self_us_per_op", us(at(Layer::BlockRemote), n), "us"),
        ("server.block.self_us_per_op", us(at(Layer::ServerBlock), n), "us"),
        ("block.store.busy_us_per_op", us(trace::busy(&remote.spans, Layer::BlockStore), n), "us"),
        ("block.disk.replay_us_per_op_nosync", us(nosync.as_nanos() as u64, n), "us"),
        ("block.disk.replay_us_per_op_sync", us(sync.as_nanos() as u64, n), "us"),
        ("block.disk.syncs_per_op", ratio(disk_writes, n), "count"),
        ("gc.passes", gc.pass_times.count() as f64, "count"),
        ("gc.pass_p50_ms", gc.pass_times.quantile_ms(0.5), "ms"),
        ("gc.busy_share", gc.busy.as_secs_f64() / plan.seconds, "ratio"),
        ("gc.freed_blocks_per_commit", ratio(gc.freed, t(C::Commits)), "count"),
        ("trace.root_us_per_op", root_us, "us"),
        ("trace.overhead_ratio", remote.traced_us_per_op / remote.untraced_us_per_op, "ratio"),
        ("timed.write_p50_ms", write.quantile_ms(0.5), "ms"),
        ("timed.write_p99_ms", p99_ms(write), "ms"),
        ("timed.read_p50_ms", read.quantile_ms(0.5), "ms"),
        ("timed.read_p99_ms", p99_ms(read), "ms"),
        ("timed.name_p50_ms", name.quantile_ms(0.5), "ms"),
        ("timed.name_p99_ms", p99_ms(name), "ms"),
        ("timed.ops_per_s", window.ops_per_s, "1/s"),
        ("timed.failed_share", ratio(outcome.failed, outcome.attempted), "ratio"),
    ];
    outcome
        .metrics
        .extend(metrics.map(|(name, value, unit)| Metric { name, value, unit }));
    Ok(())
}

/// The traced counts of one pass, for the repeatability self-test.
#[cfg(test)]
pub fn traced_counts(workload: Workload, seed: u64, plan: &Plan) -> Result<Counts, String> {
    let mut outcome = Outcome::default();
    let pass = traced_pass(workload, seed, plan, false, &mut outcome)?;
    match outcome.first_error {
        Some(e) => Err(e),
        None => Ok(pass.counts),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_primes_blocks_the_window_did_not_allocate() {
        let dir = crate::out_dir();
        std::fs::create_dir_all(&dir).unwrap();
        let calls = [
            BlockCall::Read(900, 100),
            BlockCall::Allocate(901),
            BlockCall::Write(vec![(901, 4096), (7, 512)]),
            BlockCall::Write(vec![(901, 64)]),
            BlockCall::Free(900),
            BlockCall::Free(901),
            BlockCall::Allocate(900),
        ];
        for sync in [false, true] {
            let path = dir.join(format!("afs-e2e-replay-test-{}-{sync}", std::process::id()));
            replay(&calls, &path, sync).unwrap();
            assert!(!path.exists(), "scratch file removed");
        }
    }
}
