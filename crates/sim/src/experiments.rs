//! The per-experiment sweeps E1–E14.
//!
//! Every function here regenerates one of the paper's claims: it builds the systems
//! involved, runs the workload, and returns printable rows.  The `experiments` binary
//! of the `afs-bench` crate runs them by id
//! (`cargo run -p afs-bench --release --bin experiments -- e3`).
//!
//! | Id | Claim (paper section) |
//! |---|---|
//! | E1 | OCC vs locking vs timestamps across conflict levels (§3.1, §6) |
//! | E2 | cost of the serialisability test vs overlap and file size (§5.2, §5.4) |
//! | E3 | cache validation without unsolicited messages (§5.4) |
//! | E4 | crash recovery work (§3.1, §6) |
//! | E5 | commit scaling — the critical section is one test-and-set (§5.2) |
//! | E6 | super-file updates — locking vs pure OCC (§5.3, §6) |
//! | E7 | dual-server stable storage (§4) |
//! | E8 | copy-on-write overhead vs tree shape (§5.1) |
//! | E9 | one-page files pay no concurrency-control cost (§2, §6) |
//! | E10 | the garbage collector runs in parallel (abstract) |
//! | E11, E12 | soft locks and starvation of large updates (§5.3, §6) |
//! | E13 | caching the flag bits (§5.4) |
//! | E14 | write-once (optical) media (§6) |

use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;

use afs_baselines::{
    AmoebaAdapter, CallbackCacheServer, ConcurrencyControl, TimestampOrderingServer,
    TwoPhaseLockingServer, TxProfile,
};
use afs_core::{FileService, GarbageCollector, PagePath, Port, ServiceConfig, VersionOptions};
use afs_workload::{airline_mix, compiler_temp_mix, AccessDistribution, MixConfig};
use amoeba_block::{
    BlockServer, BlockStore, CompanionPair, FaultyStore, MemStore, StableStore, WriteOnceStore,
};

use crate::driver::{run_workload, RunConfig};

/// Prints a slice of displayable rows with a heading.
pub fn print_rows<T: std::fmt::Display>(title: &str, rows: &[T]) {
    println!("\n== {title} ==");
    for row in rows {
        println!("{row}");
    }
}

// ---------------------------------------------------------------------------
// E1: OCC vs locking vs timestamps across conflict levels (§3.1, §6).
// ---------------------------------------------------------------------------

/// One row of the E1 comparison table.
#[derive(Debug, Clone)]
pub struct MechanismRow {
    /// Mechanism name.
    pub mechanism: &'static str,
    /// Number of concurrent clients.
    pub clients: usize,
    /// Pages written per transaction.
    pub tx_size: usize,
    /// Access skew description.
    pub skew: &'static str,
    /// Committed transactions per second.
    pub throughput: f64,
    /// Aborts (redone updates) per committed transaction.
    pub abort_ratio: f64,
    /// Median commit latency in microseconds.
    pub p50_us: u128,
}

impl std::fmt::Display for MechanismRow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:<20} clients={:<3} tx_size={:<3} skew={:<8} throughput={:>9.1} tx/s  aborts/commit={:<6.3} p50={:>6} µs",
            self.mechanism, self.clients, self.tx_size, self.skew, self.throughput, self.abort_ratio, self.p50_us
        )
    }
}

/// Runs one (mechanism, clients, tx-size, skew) cell of experiment E1.
fn e1_cell(
    cc: &(impl ConcurrencyControl + 'static),
    clients: usize,
    tx_size: usize,
    skew: AccessDistribution,
    skew_name: &'static str,
    txs_per_client: usize,
    pages_per_file: usize,
) -> MechanismRow {
    let config = RunConfig {
        clients,
        transactions_per_client: txs_per_client,
        max_retries: 10_000,
        mix: MixConfig {
            files: 1,
            pages_per_file,
            reads_per_tx: tx_size,
            writes_per_tx: tx_size,
            payload: 128,
            page_skew: skew,
            ..MixConfig::default()
        },
    };
    let result = run_workload(cc, &config);
    MechanismRow {
        mechanism: result.mechanism,
        clients,
        tx_size,
        skew: skew_name,
        throughput: result.throughput(),
        abort_ratio: result.abort_ratio(),
        p50_us: result.latency.p50.as_micros(),
    }
}

/// Experiment E1: throughput and abort rate of OCC vs 2PL vs timestamp ordering as
/// concurrency, transaction size and skew vary.
pub fn e1_occ_vs_locking(
    client_counts: &[usize],
    tx_sizes: &[usize],
    txs_per_client: usize,
    pages_per_file: usize,
) -> Vec<MechanismRow> {
    let skews: [(AccessDistribution, &'static str); 2] = [
        (AccessDistribution::Uniform, "uniform"),
        (AccessDistribution::Zipf { theta: 0.9 }, "zipf0.9"),
    ];
    let mut rows = Vec::new();
    for &clients in client_counts {
        for &tx_size in tx_sizes {
            for (skew, skew_name) in skews {
                let occ = AmoebaAdapter::in_memory();
                rows.push(e1_cell(
                    &occ,
                    clients,
                    tx_size,
                    skew,
                    skew_name,
                    txs_per_client,
                    pages_per_file,
                ));
                let tpl = TwoPhaseLockingServer::in_memory();
                rows.push(e1_cell(
                    &tpl,
                    clients,
                    tx_size,
                    skew,
                    skew_name,
                    txs_per_client,
                    pages_per_file,
                ));
                let ts = TimestampOrderingServer::in_memory();
                rows.push(e1_cell(
                    &ts,
                    clients,
                    tx_size,
                    skew,
                    skew_name,
                    txs_per_client,
                    pages_per_file,
                ));
            }
        }
    }
    rows
}

// ---------------------------------------------------------------------------
// E2: cost of the serialisability test vs overlap and file size (§5.2, §5.4).
// ---------------------------------------------------------------------------

/// One row of the E2 table.
#[derive(Debug, Clone)]
pub struct SerialiseRow {
    /// Pages in the file.
    pub file_pages: usize,
    /// Pages touched by each of the two concurrent updates.
    pub touched: usize,
    /// Pages the two updates touch in common.
    pub overlap: usize,
    /// Pages visited by the validation pass.
    pub pages_compared: usize,
    /// Whether the second commit succeeded.
    pub serialisable: bool,
}

impl std::fmt::Display for SerialiseRow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "file={:<6} touched={:<4} overlap={:<4} pages_compared={:<5} serialisable={}",
            self.file_pages, self.touched, self.overlap, self.pages_compared, self.serialisable
        )
    }
}

/// Experiment E2: the validation cost tracks the *overlap* of the two updates, not
/// the size of the file.
pub fn e2_serialise_cost(
    file_sizes: &[usize],
    touched: usize,
    overlaps: &[usize],
) -> Vec<SerialiseRow> {
    let mut rows = Vec::new();
    for &pages in file_sizes {
        for &overlap in overlaps {
            let overlap = overlap.min(touched);
            let service = FileService::in_memory();
            let file = service.create_file().unwrap();
            let v0 = service.create_version(&file).unwrap();
            let mut paths = Vec::new();
            for i in 0..pages {
                paths.push(
                    service
                        .append_page(&v0, &PagePath::root(), Bytes::from(vec![(i % 251) as u8]))
                        .unwrap(),
                );
            }
            service.commit(&v0).unwrap();

            // A writes pages [0, touched); B blind-writes pages so that `overlap` of
            // them fall inside A's write set and the rest beyond it.
            let va = service.create_version(&file).unwrap();
            let vb = service.create_version(&file).unwrap();
            for path in paths.iter().take(touched) {
                service
                    .write_page(&va, path, Bytes::from_static(b"A"))
                    .unwrap();
            }
            for i in 0..touched {
                let index = if i < overlap { i } else { touched + i };
                service
                    .write_page(&vb, &paths[index.min(pages - 1)], Bytes::from_static(b"B"))
                    .unwrap();
            }
            service.commit(&va).unwrap();
            let receipt = service.commit(&vb);
            let (pages_compared, serialisable) = match receipt {
                Ok(r) => (r.pages_compared, true),
                Err(_) => (0, false),
            };
            rows.push(SerialiseRow {
                file_pages: pages,
                touched,
                overlap,
                pages_compared,
                serialisable,
            });
        }
    }
    rows
}

// ---------------------------------------------------------------------------
// E3: cache validation without unsolicited messages (§5.4).
// ---------------------------------------------------------------------------

/// One row of the E3 comparison.
#[derive(Debug, Clone)]
pub struct CacheRow {
    /// Strategy name.
    pub strategy: &'static str,
    /// Number of remote updates that happened since the cache was filled.
    pub remote_updates: usize,
    /// Server → client messages that were *not* requested by the client.
    pub unsolicited_messages: u64,
    /// Cached pages that had to be discarded.
    pub discarded_pages: usize,
    /// Cached pages that stayed valid.
    pub retained_pages: usize,
}

impl std::fmt::Display for CacheRow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:<18} remote_updates={:<4} unsolicited={:<4} discarded={:<4} retained={:<4}",
            self.strategy,
            self.remote_updates,
            self.unsolicited_messages,
            self.discarded_pages,
            self.retained_pages
        )
    }
}

/// Experiment E3: Amoeba's validate-on-use cache vs the XDFS-style callback cache.
pub fn e3_cache_validation(cached_pages: usize, remote_updates: usize) -> Vec<CacheRow> {
    let mut rows = Vec::new();

    // Amoeba: fill a cache, let other clients update some pages, validate once.
    {
        let service = FileService::in_memory();
        let file = service.create_file().unwrap();
        let v0 = service.create_version(&file).unwrap();
        let mut paths = Vec::new();
        for i in 0..cached_pages {
            paths.push(
                service
                    .append_page(&v0, &PagePath::root(), Bytes::from(vec![i as u8]))
                    .unwrap(),
            );
        }
        service.commit(&v0).unwrap();
        let cached_version = service.current_version_block(&file).unwrap();
        for i in 0..remote_updates {
            let v = service.create_version(&file).unwrap();
            service
                .write_page(&v, &paths[i % cached_pages], Bytes::from_static(b"remote"))
                .unwrap();
            service.commit(&v).unwrap();
        }
        let validation = service.validate_cache(&file, cached_version).unwrap();
        let discarded = paths.iter().filter(|p| !validation.keeps(p)).count();
        rows.push(CacheRow {
            strategy: "amoeba-validate",
            remote_updates,
            unsolicited_messages: 0,
            discarded_pages: discarded,
            retained_pages: cached_pages - discarded,
        });
    }

    // XDFS style: the same access pattern with invalidation callbacks.
    {
        let server = CallbackCacheServer::new();
        server.create_file(1, cached_pages as u32, 64);
        let client = server.connect();
        for page in 0..cached_pages as u32 {
            client.read(1, page).unwrap();
        }
        for i in 0..remote_updates {
            server.write(1, (i % cached_pages) as u32, Bytes::from_static(b"remote"));
        }
        let unsolicited = server
            .stats
            .callbacks_sent
            .load(std::sync::atomic::Ordering::Relaxed);
        // Touch one page so the client drains its mailbox and we can count what is
        // left in its cache.
        client.read(1, 0).unwrap();
        let retained = client.cached_pages();
        rows.push(CacheRow {
            strategy: "xdfs-callbacks",
            remote_updates,
            unsolicited_messages: unsolicited,
            discarded_pages: cached_pages.saturating_sub(retained),
            retained_pages: retained,
        });
    }
    rows
}

// ---------------------------------------------------------------------------
// E4: crash recovery work (§3.1, §6).
// ---------------------------------------------------------------------------

/// One row of the E4 comparison.
#[derive(Debug, Clone)]
pub struct CrashRow {
    /// Mechanism name.
    pub mechanism: &'static str,
    /// Locks that had to be cleared before normal operation resumed.
    pub locks_cleared: usize,
    /// Intentions-list entries that had to be processed.
    pub intentions_processed: usize,
    /// Whether any committed data was lost or rolled back.
    pub rollback_needed: bool,
    /// Microseconds from the crash until the next update could commit.
    pub recovery_us: u128,
}

impl std::fmt::Display for CrashRow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:<20} locks_cleared={:<4} intentions={:<4} rollback={:<5} time_to_next_commit={:>7} µs",
            self.mechanism, self.locks_cleared, self.intentions_processed, self.rollback_needed, self.recovery_us
        )
    }
}

/// Experiment E4: a client crashes in the middle of an update; how much work stands
/// between the crash and the next successful commit?
pub fn e4_crash_recovery(pages: usize) -> Vec<CrashRow> {
    let mut rows = Vec::new();

    // Amoeba OCC: the crashed update's uncommitted version is simply abandoned.
    {
        let service = FileService::in_memory();
        let file = service.create_file().unwrap();
        let v0 = service.create_version(&file).unwrap();
        let mut paths = Vec::new();
        for i in 0..pages {
            paths.push(
                service
                    .append_page(&v0, &PagePath::root(), Bytes::from(vec![i as u8]))
                    .unwrap(),
            );
        }
        service.commit(&v0).unwrap();
        // The doomed update writes half the pages and then the client dies.
        let doomed = service.create_version(&file).unwrap();
        for path in paths.iter().take(pages / 2) {
            service
                .write_page(&doomed, path, Bytes::from_static(b"half"))
                .unwrap();
        }
        let _ = doomed; // Crash: nobody will ever commit or abort it explicitly.

        let begin = Instant::now();
        let v = service.create_version(&file).unwrap();
        service
            .write_page(&v, &paths[0], Bytes::from_static(b"after crash"))
            .unwrap();
        service.commit(&v).unwrap();
        rows.push(CrashRow {
            mechanism: "amoeba-occ",
            locks_cleared: 0,
            intentions_processed: 0,
            rollback_needed: false,
            recovery_us: begin.elapsed().as_micros(),
        });
    }

    // Two-phase locking: locks stay held and the intentions list dangles until the
    // recovery pass runs.
    {
        let server = TwoPhaseLockingServer::in_memory();
        let file = server.create_file(pages as u32, 64);
        let mut tx = server.begin(file);
        for page in 0..(pages / 2) as u32 {
            tx.write(page, Bytes::from_static(b"half")).unwrap();
        }
        let crashed = tx.crash();

        let begin = Instant::now();
        let (locks, intentions) = server.recover_after_crash(&[crashed]);
        server
            .run_transaction(
                file,
                &TxProfile::write_only(vec![(0, Bytes::from_static(b"after crash"))]),
            )
            .unwrap();
        rows.push(CrashRow {
            mechanism: "two-phase-locking",
            locks_cleared: locks,
            intentions_processed: intentions,
            rollback_needed: true,
            recovery_us: begin.elapsed().as_micros(),
        });
    }
    rows
}

// ---------------------------------------------------------------------------
// E5: commit scaling — the critical section is one test-and-set (§5.2).
// ---------------------------------------------------------------------------

/// One row of the E5 table.
#[derive(Debug, Clone)]
pub struct CommitScalingRow {
    /// Concurrent committers.
    pub clients: usize,
    /// Whether all clients hammer one file (shared) or each has its own.
    pub shared_file: bool,
    /// Commits per second.
    pub commits_per_sec: f64,
    /// Fast-path (no validation) fraction.
    pub fast_path_fraction: f64,
}

impl std::fmt::Display for CommitScalingRow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "clients={:<3} shared_file={:<5} commits/s={:>10.1} fast_path={:>5.1}%",
            self.clients,
            self.shared_file,
            self.commits_per_sec,
            self.fast_path_fraction * 100.0
        )
    }
}

/// Experiment E5: commit throughput as committers are added, for disjoint files
/// (perfect scaling expected) and one shared file (validation kicks in, commits still
/// proceed).
pub fn e5_commit_scaling(
    client_counts: &[usize],
    commits_per_client: usize,
) -> Vec<CommitScalingRow> {
    let mut rows = Vec::new();
    for &clients in client_counts {
        for shared in [false, true] {
            let service = FileService::in_memory();
            let files: Vec<_> = (0..if shared { 1 } else { clients })
                .map(|_| {
                    let file = service.create_file().unwrap();
                    let v = service.create_version(&file).unwrap();
                    for i in 0..64u16 {
                        service
                            .append_page(&v, &PagePath::root(), Bytes::from(vec![i as u8]))
                            .unwrap();
                    }
                    service.commit(&v).unwrap();
                    file
                })
                .collect();
            let start = Instant::now();
            std::thread::scope(|scope| {
                for client in 0..clients {
                    let service = &service;
                    let files = &files;
                    scope.spawn(move || {
                        let file = &files[if shared { 0 } else { client }];
                        let page = PagePath::new(vec![(client % 64) as u16]);
                        for round in 0..commits_per_client {
                            loop {
                                let v = service.create_version(file).unwrap();
                                service
                                    .write_page(&v, &page, Bytes::from(vec![round as u8]))
                                    .unwrap();
                                match service.commit(&v) {
                                    Ok(_) => break,
                                    Err(afs_core::FsError::SerialisabilityConflict) => continue,
                                    Err(e) => panic!("unexpected commit failure: {e}"),
                                }
                            }
                        }
                    });
                }
            });
            let elapsed = start.elapsed();
            let stats = service.commit_stats();
            let total = stats.fast_path + stats.validated;
            rows.push(CommitScalingRow {
                clients,
                shared_file: shared,
                commits_per_sec: (clients * commits_per_client) as f64 / elapsed.as_secs_f64(),
                fast_path_fraction: if total == 0 {
                    1.0
                } else {
                    stats.fast_path as f64 / total as f64
                },
            });
        }
    }
    rows
}

// ---------------------------------------------------------------------------
// E6: super-file updates — locking vs pure OCC (§5.3, §6).
// ---------------------------------------------------------------------------

/// One row of the E6 comparison.
#[derive(Debug, Clone)]
pub struct SuperfileRow {
    /// Strategy used for the large reorganisation.
    pub strategy: &'static str,
    /// Times the big update had to be redone.
    pub big_update_retries: usize,
    /// Small-file transactions committed while the big update ran.
    pub small_commits: u64,
    /// Microseconds the big update took from first attempt to final commit.
    pub big_update_us: u128,
}

impl std::fmt::Display for SuperfileRow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:<22} retries={:<4} concurrent_small_commits={:<6} big_update_time={:>8} µs",
            self.strategy, self.big_update_retries, self.small_commits, self.big_update_us
        )
    }
}

/// Experiment E6: a reorganisation touching several sub-files, run once with the
/// §5.3 locking scheme and once as a plain optimistic update, while background
/// clients keep updating the same sub-files.
pub fn e6_superfile_locking(sub_files: usize, background_ops: usize) -> Vec<SuperfileRow> {
    let mut rows = Vec::new();
    for use_locking in [true, false] {
        let service = FileService::in_memory();
        let super_file = service.create_file().unwrap();
        let mut subs = Vec::new();
        for _ in 0..sub_files {
            let sub = service.create_sub_file(&super_file).unwrap();
            let v = service.create_version(&sub).unwrap();
            service
                .write_page(&v, &PagePath::root(), Bytes::from_static(b"initial"))
                .unwrap();
            service.commit(&v).unwrap();
            subs.push(sub);
        }
        let small_commits = std::sync::atomic::AtomicU64::new(0);
        let stop = std::sync::atomic::AtomicU64::new(0);

        let (retries, big_us) = std::thread::scope(|scope| {
            // Background small-file traffic on the same sub-files.
            for (i, sub) in subs.iter().enumerate() {
                let service = &service;
                let small_commits = &small_commits;
                let stop = &stop;
                let sub = *sub;
                scope.spawn(move || {
                    for round in 0..background_ops {
                        if stop.load(std::sync::atomic::Ordering::Relaxed) != 0 {
                            break;
                        }
                        let v = match service.create_version(&sub) {
                            Ok(v) => v,
                            Err(_) => continue,
                        };
                        if service
                            .write_page(
                                &v,
                                &PagePath::root(),
                                Bytes::from(vec![i as u8, round as u8]),
                            )
                            .is_err()
                        {
                            continue;
                        }
                        if service.commit(&v).is_ok() {
                            small_commits.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        }
                    }
                });
            }

            // The big reorganisation.
            let begin = Instant::now();
            let mut retries = 0usize;
            if use_locking {
                let port = Port::from_raw(0xb1);
                let mut update = service.begin_super_update(&super_file, port, true).unwrap();
                let mut sub_versions = Vec::new();
                for sub in &subs {
                    sub_versions.push(service.super_update_edit(&mut update, sub).unwrap());
                }
                for v in &sub_versions {
                    service
                        .write_page(v, &PagePath::root(), Bytes::from_static(b"reorganised"))
                        .unwrap();
                }
                service.commit_super_update(update).unwrap();
            } else {
                // Pure OCC: retry the whole multi-file update until every sub-file
                // commit succeeds in the same attempt.
                'attempt: loop {
                    let mut versions = Vec::new();
                    for sub in &subs {
                        let v = service.create_version(sub).unwrap();
                        service
                            .write_page(&v, &PagePath::root(), Bytes::from_static(b"reorganised"))
                            .unwrap();
                        versions.push(v);
                    }
                    for v in &versions {
                        if service.commit(v).is_err() {
                            retries += 1;
                            continue 'attempt;
                        }
                    }
                    break;
                }
            }
            let big_us = begin.elapsed().as_micros();
            stop.store(1, std::sync::atomic::Ordering::Relaxed);
            (retries, big_us)
        });

        rows.push(SuperfileRow {
            strategy: if use_locking {
                "top/inner locking"
            } else {
                "pure optimistic"
            },
            big_update_retries: retries,
            small_commits: small_commits.load(std::sync::atomic::Ordering::Relaxed),
            big_update_us: big_us,
        });
    }
    rows
}

// ---------------------------------------------------------------------------
// E7: dual-server stable storage (§4).
// ---------------------------------------------------------------------------

/// One row of the E7 table.
#[derive(Debug, Clone)]
pub struct StableRow {
    /// Storage scheme.
    pub scheme: &'static str,
    /// Blocks written.
    pub writes: usize,
    /// Physical block writes performed (replication factor shows up here).
    pub physical_writes: u64,
    /// Reads served after one replica failed.
    pub reads_after_failure: usize,
    /// Whether all data survived the failure.
    pub survived_failure: bool,
}

impl std::fmt::Display for StableRow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:<24} writes={:<5} physical_writes={:<6} reads_after_failure={:<5} survived={}",
            self.scheme,
            self.writes,
            self.physical_writes,
            self.reads_after_failure,
            self.survived_failure
        )
    }
}

/// Experiment E7: single disk vs Lampson–Sturgis vs the paper's two-server scheme.
pub fn e7_stable_storage(block_count: usize) -> Vec<StableRow> {
    let payload = |i: usize| Bytes::from(vec![(i % 251) as u8; 128]);
    let mut rows = Vec::new();

    // Single disk: fast, but a crash loses access to everything.
    {
        let disk = FaultyStore::new(MemStore::new());
        let mut blocks = Vec::new();
        for i in 0..block_count {
            let nr = disk.allocate().unwrap();
            disk.write(nr, payload(i)).unwrap();
            blocks.push(nr);
        }
        let physical = disk.stats().writes;
        disk.crash();
        let readable = blocks.iter().filter(|&&nr| disk.read(nr).is_ok()).count();
        rows.push(StableRow {
            scheme: "single disk",
            writes: block_count,
            physical_writes: physical,
            reads_after_failure: readable,
            survived_failure: readable == block_count,
        });
    }

    // Lampson–Sturgis: one server, two disks.
    {
        let stable = StableStore::new(
            FaultyStore::new(MemStore::new()),
            FaultyStore::new(MemStore::new()),
        );
        let mut blocks = Vec::new();
        for i in 0..block_count {
            let nr = stable.allocate().unwrap();
            stable.write(nr, payload(i)).unwrap();
            blocks.push(nr);
        }
        let physical = stable.disk(0).stats().writes + stable.disk(1).stats().writes;
        stable.disk(0).crash();
        let readable = blocks.iter().filter(|&&nr| stable.read(nr).is_ok()).count();
        rows.push(StableRow {
            scheme: "lampson-sturgis 1s/2d",
            writes: block_count,
            physical_writes: physical,
            reads_after_failure: readable,
            survived_failure: readable == block_count,
        });
    }

    // The paper's scheme: two servers, two disks, with fail-over.
    {
        let disk_a: Arc<FaultyStore<MemStore>> = Arc::new(FaultyStore::new(MemStore::new()));
        let disk_b: Arc<FaultyStore<MemStore>> = Arc::new(FaultyStore::new(MemStore::new()));
        let pair = CompanionPair::new(disk_a.clone(), disk_b.clone());
        let handle = pair.handle(0);
        let mut blocks = Vec::new();
        for i in 0..block_count {
            blocks.push(handle.allocate_and_write(payload(i)).unwrap());
        }
        let physical = disk_a.stats().writes + disk_b.stats().writes;
        pair.crash(0);
        let readable = blocks.iter().filter(|&&nr| handle.read(nr).is_ok()).count();
        rows.push(StableRow {
            scheme: "companion pair 2s/2d",
            writes: block_count,
            physical_writes: physical,
            reads_after_failure: readable,
            survived_failure: readable == block_count,
        });
    }
    rows
}

// ---------------------------------------------------------------------------
// E8: copy-on-write overhead vs tree shape (§5.1).
// ---------------------------------------------------------------------------

/// One row of the E8 table.
#[derive(Debug, Clone)]
pub struct CowRow {
    /// Depth of the page tree below the root.
    pub depth: usize,
    /// Fan-out at each level.
    pub fanout: usize,
    /// Pages in the file.
    pub total_pages: usize,
    /// Blocks newly allocated by a single leaf update (the bubble-up cost).
    pub blocks_per_leaf_update: u64,
    /// Blocks reclaimed by the garbage collector afterwards.
    pub gc_reclaimed: usize,
}

impl std::fmt::Display for CowRow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "depth={:<2} fanout={:<3} pages={:<6} blocks/leaf-update={:<4} gc_reclaimed={:<4}",
            self.depth,
            self.fanout,
            self.total_pages,
            self.blocks_per_leaf_update,
            self.gc_reclaimed
        )
    }
}

/// Experiment E8: the number of new blocks per update equals the depth of the updated
/// leaf (plus the version page), independent of file width.
pub fn e8_cow_overhead(shapes: &[(usize, usize)]) -> Vec<CowRow> {
    let mut rows = Vec::new();
    for &(depth, fanout) in shapes {
        let service = FileService::in_memory();
        let file = service.create_file().unwrap();
        let v = service.create_version(&file).unwrap();
        // Build a uniform tree of the requested shape.
        let mut frontier = vec![PagePath::root()];
        let mut total_pages = 0usize;
        for _level in 0..depth {
            let mut next = Vec::new();
            for parent in &frontier {
                for _ in 0..fanout {
                    let child = service
                        .append_page(&v, parent, Bytes::from_static(b"node"))
                        .unwrap();
                    total_pages += 1;
                    next.push(child);
                }
            }
            frontier = next;
        }
        service.commit(&v).unwrap();

        // One deep-leaf update.
        let leaf = frontier.first().cloned().unwrap_or_else(PagePath::root);
        let v = service.create_version(&file).unwrap();
        let before = service.io_stats();
        service
            .write_page(&v, &leaf, Bytes::from_static(b"updated leaf"))
            .unwrap();
        let allocated = service.io_stats().since(&before).pages_allocated;
        service.commit(&v).unwrap();

        // Let a follow-up update supersede it and run the collector.
        let v2 = service.create_version(&file).unwrap();
        service
            .write_page(&v2, &leaf, Bytes::from_static(b"again"))
            .unwrap();
        service.commit(&v2).unwrap();
        let report = service.gc_file(&file).unwrap();

        rows.push(CowRow {
            depth,
            fanout,
            total_pages,
            blocks_per_leaf_update: allocated,
            gc_reclaimed: report.freed_blocks,
        });
    }
    rows
}

// ---------------------------------------------------------------------------
// E9: one-page files pay no concurrency-control cost (§2, §6).
// ---------------------------------------------------------------------------

/// One row of the E9 table.
#[derive(Debug, Clone)]
pub struct OnePageRow {
    /// Scenario name.
    pub scenario: &'static str,
    /// Mechanism.
    pub mechanism: &'static str,
    /// Mean time per complete update (create version / transaction, write, commit).
    pub mean_us: u128,
    /// Aborts per committed transaction.
    pub abort_ratio: f64,
}

impl std::fmt::Display for OnePageRow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:<16} {:<20} mean={:>7} µs  aborts/commit={:.3}",
            self.scenario, self.mechanism, self.mean_us, self.abort_ratio
        )
    }
}

/// Experiment E9: the compiler-temporary workload (unshared one-page files) vs the
/// shared airline workload, on Amoeba and on the 2PL baseline.
pub fn e9_one_page_files(files: usize, ops: usize) -> Vec<OnePageRow> {
    let mut rows = Vec::new();
    let scenarios: [(&'static str, MixConfig); 2] = [
        ("compiler-temp", compiler_temp_mix(files, 11)),
        ("airline-shared", airline_mix(64, 12)),
    ];
    for (name, mix) in scenarios {
        let config = RunConfig {
            clients: 4,
            transactions_per_client: ops,
            max_retries: 10_000,
            mix,
        };
        let occ = AmoebaAdapter::in_memory();
        let result = run_workload(&occ, &config);
        rows.push(OnePageRow {
            scenario: name,
            mechanism: result.mechanism,
            mean_us: result.latency.mean.as_micros(),
            abort_ratio: result.abort_ratio(),
        });
        let tpl = TwoPhaseLockingServer::in_memory();
        let result = run_workload(&tpl, &config);
        rows.push(OnePageRow {
            scenario: name,
            mechanism: result.mechanism,
            mean_us: result.latency.mean.as_micros(),
            abort_ratio: result.abort_ratio(),
        });
    }
    rows
}

// ---------------------------------------------------------------------------
// E10: the garbage collector runs in parallel (abstract).
// ---------------------------------------------------------------------------

/// One row of the E10 table.
#[derive(Debug, Clone)]
pub struct GcRow {
    /// Whether the background collector was running.
    pub gc_running: bool,
    /// Foreground throughput in commits per second.
    pub throughput: f64,
    /// Blocks allocated at the end of the run (storage footprint).
    pub final_blocks: usize,
    /// Blocks the collector reclaimed.
    pub reclaimed: usize,
}

impl std::fmt::Display for GcRow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "gc_running={:<5} throughput={:>9.1} tx/s final_blocks={:<6} reclaimed={:<6}",
            self.gc_running, self.throughput, self.final_blocks, self.reclaimed
        )
    }
}

/// Experiment E10: foreground throughput and storage footprint with and without the
/// concurrent garbage collector.
pub fn e10_gc_interference(clients: usize, ops_per_client: usize) -> Vec<GcRow> {
    let mut rows = Vec::new();
    for gc_running in [false, true] {
        let service = FileService::in_memory();
        let adapter = AmoebaAdapter::new(Arc::clone(&service));
        let collector = gc_running
            .then(|| GarbageCollector::start(Arc::clone(&service), Duration::from_millis(1)));
        let config = RunConfig {
            clients,
            transactions_per_client: ops_per_client,
            max_retries: 10_000,
            mix: MixConfig {
                files: 2,
                pages_per_file: 32,
                reads_per_tx: 2,
                writes_per_tx: 2,
                payload: 64,
                ..MixConfig::default()
            },
        };
        let result = run_workload(&adapter, &config);
        let reclaimed = match collector {
            Some(c) => {
                let report = c.stop();
                report.freed_blocks
            }
            None => 0,
        };
        rows.push(GcRow {
            gc_running,
            throughput: result.throughput(),
            final_blocks: service.block_server().store().allocated_count(),
            reclaimed,
        });
    }
    rows
}

// ---------------------------------------------------------------------------
// E11 + E12: soft locks and starvation of large updates (§5.3, §6).
// ---------------------------------------------------------------------------

/// One row of the E11/E12 table.
#[derive(Debug, Clone)]
pub struct StarvationRow {
    /// Strategy used by the large update.
    pub strategy: &'static str,
    /// Number of small hot-spot writers running concurrently.
    pub writers: usize,
    /// Retries the large update needed before committing (usize::MAX = starved).
    pub large_update_retries: usize,
    /// Whether the large update eventually committed.
    pub committed: bool,
}

impl std::fmt::Display for StarvationRow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:<22} writers={:<3} retries={:<6} committed={}",
            self.strategy, self.writers, self.large_update_retries, self.committed
        )
    }
}

/// Experiments E11/E12: a large update on a hot file either retries optimistically
/// (and may starve) or takes the soft-lock path (waits for the file to go idle, then
/// excludes the small writers via the top lock honoured by everyone).
pub fn e11_starvation(writers: usize, writer_ops: usize, max_retries: usize) -> Vec<StarvationRow> {
    let mut rows = Vec::new();
    for strategy in ["pure optimistic", "soft lock"] {
        let service = FileService::in_memory();
        let file = service.create_file().unwrap();
        let v = service.create_version(&file).unwrap();
        let mut paths = Vec::new();
        for i in 0..32u16 {
            paths.push(
                service
                    .append_page(&v, &PagePath::root(), Bytes::from(vec![i as u8]))
                    .unwrap(),
            );
        }
        service.commit(&v).unwrap();

        let stop = std::sync::atomic::AtomicBool::new(false);
        let (retries, committed) = std::thread::scope(|scope| {
            for w in 0..writers {
                let service = &service;
                let file = &file;
                let stop = &stop;
                let hot = paths[0].clone();
                scope.spawn(move || {
                    for round in 0..writer_ops {
                        if stop.load(std::sync::atomic::Ordering::Relaxed) {
                            break;
                        }
                        // Small writers honour the soft-lock hint: they do not start
                        // an update while a large update holds the top lock.
                        let opts = VersionOptions {
                            respect_top_lock: true,
                            wait_for_locks: true,
                            lock_port: Some(Port::from_raw(0x1000 + w as u64)),
                        };
                        let Ok(v) = service.create_version_with(file, opts) else {
                            continue;
                        };
                        let _ =
                            service.write_page(&v, &hot, Bytes::from(vec![w as u8, round as u8]));
                        let _ = service.commit(&v);
                    }
                });
            }

            // The large update reads and rewrites every page, including the hot one.
            let large_port = Port::from_raw(0x9999);
            let mut retries = 0usize;
            let mut committed = false;
            while retries <= max_retries {
                let opts = VersionOptions {
                    respect_top_lock: strategy == "soft lock",
                    wait_for_locks: true,
                    lock_port: Some(large_port),
                };
                let Ok(v) = service.create_version_with(&file, opts) else {
                    retries += 1;
                    continue;
                };
                let mut ok = true;
                for path in &paths {
                    if service.read_page(&v, path).is_err()
                        || service
                            .write_page(&v, path, Bytes::from_static(b"bulk rewrite"))
                            .is_err()
                    {
                        ok = false;
                        break;
                    }
                }
                if ok && service.commit(&v).is_ok() {
                    committed = true;
                    break;
                }
                let _ = service.abort_version(&v);
                retries += 1;
            }
            stop.store(true, std::sync::atomic::Ordering::Relaxed);
            (retries, committed)
        });

        rows.push(StarvationRow {
            strategy,
            writers,
            large_update_retries: retries,
            committed,
        });
    }
    rows
}

// ---------------------------------------------------------------------------
// E13: caching the flag bits (§5.4).
// ---------------------------------------------------------------------------

/// One row of the E13 table.
#[derive(Debug, Clone)]
pub struct FlagCacheRow {
    /// Whether the server-side page/flag cache was enabled.
    pub cache_enabled: bool,
    /// Physical page reads during the validation-heavy run.
    pub physical_reads: u64,
    /// Cache hits during the run.
    pub cache_hits: u64,
}

impl std::fmt::Display for FlagCacheRow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "flag_cache={:<5} physical_page_reads={:<7} cache_hits={:<7}",
            self.cache_enabled, self.physical_reads, self.cache_hits
        )
    }
}

/// Experiment E13: repeated conflicting commits with and without the server-side
/// flag/page cache.
pub fn e13_flag_cache(rounds: usize) -> Vec<FlagCacheRow> {
    let mut rows = Vec::new();
    for cache_enabled in [true, false] {
        let config = ServiceConfig {
            flag_cache_capacity: cache_enabled.then_some(4096),
            ..ServiceConfig::default()
        };
        let block_server = Arc::new(BlockServer::new(Arc::new(MemStore::new())));
        let service = FileService::with_config(block_server, config);
        let file = service.create_file().unwrap();
        let v = service.create_version(&file).unwrap();
        let mut paths = Vec::new();
        for i in 0..32u16 {
            paths.push(
                service
                    .append_page(&v, &PagePath::root(), Bytes::from(vec![i as u8]))
                    .unwrap(),
            );
        }
        service.commit(&v).unwrap();

        let before = service.io_stats();
        for round in 0..rounds {
            // Two concurrent disjoint updates: the second always validates.
            let va = service.create_version(&file).unwrap();
            let vb = service.create_version(&file).unwrap();
            service
                .write_page(&va, &paths[round % 16], Bytes::from(vec![round as u8]))
                .unwrap();
            service
                .write_page(&vb, &paths[16 + round % 16], Bytes::from(vec![round as u8]))
                .unwrap();
            service.commit(&va).unwrap();
            service.commit(&vb).unwrap();
        }
        let delta = service.io_stats().since(&before);
        rows.push(FlagCacheRow {
            cache_enabled,
            physical_reads: delta.page_reads,
            cache_hits: delta.cache_hits,
        });
    }
    rows
}

// ---------------------------------------------------------------------------
// E14: write-once (optical) media (§6).
// ---------------------------------------------------------------------------

/// One row of the E14 table.
#[derive(Debug, Clone)]
pub struct WriteOnceRow {
    /// Backend description.
    pub backend: &'static str,
    /// Updates applied.
    pub updates: usize,
    /// Blocks occupied at the end.
    pub blocks_used: usize,
    /// Writes rejected because a block had already been written (must stay 0 for the
    /// version store to be write-once friendly; the root version pages are kept on
    /// rewritable media in the paper and in this setup).
    pub rejected_overwrites: usize,
    /// Whether the final contents read back correctly.
    pub contents_correct: bool,
}

impl std::fmt::Display for WriteOnceRow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:<22} updates={:<4} blocks_used={:<6} rejected_overwrites={:<3} correct={}",
            self.backend,
            self.updates,
            self.blocks_used,
            self.rejected_overwrites,
            self.contents_correct
        )
    }
}

/// Experiment E14: the interior pages of the version store never require overwriting,
/// so the design works on write-once media; compare space use against a rewritable
/// backend.  (Version pages are updated in place — commit references, locks — and in
/// the paper live on magnetic media; here the whole store is write-once-wrapped, so
/// the rejected-overwrite count isolates exactly those version-page updates.)
pub fn e14_write_once(updates: usize) -> Vec<WriteOnceRow> {
    let mut rows = Vec::new();

    // Rewritable backend for reference.
    {
        let service = FileService::in_memory();
        let file = service.create_file().unwrap();
        let v = service.create_version(&file).unwrap();
        let p = service
            .append_page(&v, &PagePath::root(), Bytes::from_static(b"v0"))
            .unwrap();
        service.commit(&v).unwrap();
        for i in 0..updates {
            let v = service.create_version(&file).unwrap();
            service
                .write_page(&v, &p, Bytes::from(vec![i as u8; 64]))
                .unwrap();
            service.commit(&v).unwrap();
        }
        let current = service.current_version(&file).unwrap();
        let correct =
            service.read_committed_page(&current, &p).unwrap() == vec![(updates - 1) as u8; 64];
        rows.push(WriteOnceRow {
            backend: "rewritable (memory)",
            updates,
            blocks_used: service.block_server().store().allocated_count(),
            rejected_overwrites: 0,
            contents_correct: correct,
        });
    }

    // Hybrid store modelling the paper's setup: the bulk of the page tree lives on a
    // write-once (optical) store; the few in-place rewrites — version pages getting
    // their commit reference or lock fields updated — are absorbed by a small
    // rewritable "magnetic" overlay and counted.
    {
        let optical = Arc::new(HybridOpticalStore::new());
        let block_server = Arc::new(BlockServer::new(optical.clone() as Arc<dyn BlockStore>));
        let service = FileService::with_config(block_server, ServiceConfig::default());
        let file = service.create_file().unwrap();
        let v = service.create_version(&file).unwrap();
        let p = service
            .append_page(&v, &PagePath::root(), Bytes::from_static(b"v0"))
            .unwrap();
        service.commit(&v).unwrap();
        for i in 0..updates {
            let v = service.create_version(&file).unwrap();
            service
                .write_page(&v, &p, Bytes::from(vec![i as u8; 64]))
                .unwrap();
            service.commit(&v).unwrap();
        }
        let current = service.current_version(&file).unwrap();
        let correct =
            service.read_committed_page(&current, &p).unwrap() == vec![(updates - 1) as u8; 64];
        rows.push(WriteOnceRow {
            backend: "write-once + overlay",
            updates,
            blocks_used: optical.optical_blocks(),
            rejected_overwrites: optical.magnetic_blocks(),
            contents_correct: correct,
        });
    }
    rows
}

/// A block store that writes every block to write-once (optical) media and diverts
/// blocks that are rewritten in place — in practice only version pages — to a small
/// rewritable "magnetic" overlay, counting how many blocks needed it.
struct HybridOpticalStore {
    optical: WriteOnceStore<MemStore>,
    magnetic: parking_lot::Mutex<std::collections::HashMap<amoeba_block::BlockNr, Bytes>>,
}

impl HybridOpticalStore {
    fn new() -> Self {
        HybridOpticalStore {
            optical: WriteOnceStore::new(MemStore::new()),
            magnetic: parking_lot::Mutex::new(std::collections::HashMap::new()),
        }
    }

    /// Blocks whose (immutable) contents live on the optical medium.
    fn optical_blocks(&self) -> usize {
        self.optical.written_blocks()
    }

    /// Blocks that needed in-place rewriting and therefore magnetic media.
    fn magnetic_blocks(&self) -> usize {
        self.magnetic.lock().len()
    }
}

impl BlockStore for HybridOpticalStore {
    fn block_size(&self) -> usize {
        self.optical.block_size()
    }
    fn allocate(&self) -> amoeba_block::Result<amoeba_block::BlockNr> {
        self.optical.allocate()
    }
    fn allocate_at(&self, nr: amoeba_block::BlockNr) -> amoeba_block::Result<()> {
        self.optical.allocate_at(nr)
    }
    fn free(&self, nr: amoeba_block::BlockNr) -> amoeba_block::Result<()> {
        self.magnetic.lock().remove(&nr);
        self.optical.free(nr)
    }
    fn read(&self, nr: amoeba_block::BlockNr) -> amoeba_block::Result<Bytes> {
        if let Some(data) = self.magnetic.lock().get(&nr) {
            return Ok(data.clone());
        }
        self.optical.read(nr)
    }
    fn write(&self, nr: amoeba_block::BlockNr, data: Bytes) -> amoeba_block::Result<()> {
        match self.optical.write(nr, data.clone()) {
            Ok(()) => Ok(()),
            Err(amoeba_block::BlockError::WriteOnce(_)) => {
                // The block was already burned once: it needs rewritable media.
                if !self.optical.is_allocated(nr) {
                    return Err(amoeba_block::BlockError::NoSuchBlock(nr));
                }
                self.magnetic.lock().insert(nr, data);
                Ok(())
            }
            Err(e) => Err(e),
        }
    }
    fn is_allocated(&self, nr: amoeba_block::BlockNr) -> bool {
        self.optical.is_allocated(nr)
    }
    fn allocated_count(&self) -> usize {
        self.optical.allocated_count()
    }
    fn stats(&self) -> amoeba_block::StoreStats {
        self.optical.stats()
    }
    fn allocated_blocks(&self) -> Vec<amoeba_block::BlockNr> {
        self.optical.allocated_blocks()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e1_produces_rows_for_every_mechanism() {
        let rows = e1_occ_vs_locking(&[2], &[1], 5, 32);
        assert_eq!(rows.len(), 6); // 1 client count × 1 size × 2 skews × 3 mechanisms
        assert!(rows.iter().any(|r| r.mechanism == "amoeba-occ"));
        assert!(rows.iter().any(|r| r.mechanism == "two-phase-locking"));
        assert!(rows.iter().any(|r| r.mechanism == "timestamp-ordering"));
        for row in &rows {
            assert!(row.throughput > 0.0);
        }
    }

    #[test]
    fn e2_cost_tracks_overlap_not_file_size() {
        let rows = e2_serialise_cost(&[64, 512], 8, &[0, 8]);
        // Zero overlap: few pages compared and serialisable.
        for row in rows.iter().filter(|r| r.overlap == 0) {
            assert!(row.serialisable);
        }
        // Full overlap blind writes are still serialisable but compare more pages.
        let small_zero = rows
            .iter()
            .find(|r| r.file_pages == 64 && r.overlap == 0)
            .unwrap();
        let large_zero = rows
            .iter()
            .find(|r| r.file_pages == 512 && r.overlap == 0)
            .unwrap();
        assert!(
            small_zero
                .pages_compared
                .abs_diff(large_zero.pages_compared)
                <= 2,
            "validation cost should not grow with file size: {small_zero:?} vs {large_zero:?}"
        );
    }

    #[test]
    fn e3_amoeba_needs_no_unsolicited_messages() {
        let rows = e3_cache_validation(8, 4);
        let amoeba = rows
            .iter()
            .find(|r| r.strategy == "amoeba-validate")
            .unwrap();
        let xdfs = rows
            .iter()
            .find(|r| r.strategy == "xdfs-callbacks")
            .unwrap();
        assert_eq!(amoeba.unsolicited_messages, 0);
        assert!(xdfs.unsolicited_messages > 0);
        assert!(amoeba.retained_pages >= 4);
    }

    #[test]
    fn e4_amoeba_recovery_needs_no_lock_clearing() {
        let rows = e4_crash_recovery(8);
        let amoeba = rows.iter().find(|r| r.mechanism == "amoeba-occ").unwrap();
        let tpl = rows
            .iter()
            .find(|r| r.mechanism == "two-phase-locking")
            .unwrap();
        assert_eq!(amoeba.locks_cleared, 0);
        assert!(!amoeba.rollback_needed);
        assert!(tpl.locks_cleared > 0);
    }

    #[test]
    fn e5_disjoint_commits_are_all_fast_path() {
        let rows = e5_commit_scaling(&[2], 10);
        let disjoint = rows.iter().find(|r| !r.shared_file).unwrap();
        assert!(disjoint.fast_path_fraction > 0.99);
    }

    #[test]
    fn e6_locking_avoids_redoing_the_big_update() {
        let rows = e6_superfile_locking(3, 10);
        let locked = rows
            .iter()
            .find(|r| r.strategy == "top/inner locking")
            .unwrap();
        assert_eq!(locked.big_update_retries, 0);
    }

    #[test]
    fn e7_replicated_schemes_survive_a_disk_failure() {
        let rows = e7_stable_storage(16);
        assert!(
            !rows
                .iter()
                .find(|r| r.scheme == "single disk")
                .unwrap()
                .survived_failure
        );
        assert!(
            rows.iter()
                .find(|r| r.scheme == "lampson-sturgis 1s/2d")
                .unwrap()
                .survived_failure
        );
        assert!(
            rows.iter()
                .find(|r| r.scheme == "companion pair 2s/2d")
                .unwrap()
                .survived_failure
        );
    }

    #[test]
    fn e8_cow_cost_scales_with_depth_not_width() {
        let rows = e8_cow_overhead(&[(1, 4), (2, 4)]);
        let shallow = &rows[0];
        let deep = &rows[1];
        assert!(deep.blocks_per_leaf_update > shallow.blocks_per_leaf_update);
    }

    #[test]
    fn e13_cache_eliminates_most_physical_reads() {
        let rows = e13_flag_cache(10);
        let with = rows.iter().find(|r| r.cache_enabled).unwrap();
        let without = rows.iter().find(|r| !r.cache_enabled).unwrap();
        assert!(with.physical_reads < without.physical_reads);
        assert!(with.cache_hits > 0);
    }

    #[test]
    fn e14_write_once_backend_accumulates_blocks() {
        let rows = e14_write_once(5);
        let optical = rows
            .iter()
            .find(|r| r.backend == "write-once + overlay")
            .unwrap();
        assert!(optical.blocks_used > 0);
        assert!(optical.contents_correct);
        // Only version pages (a handful of blocks) ever needed rewritable media.
        assert!(optical.rejected_overwrites < optical.blocks_used);
    }
}
