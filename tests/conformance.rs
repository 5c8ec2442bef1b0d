//! The `FileStore` conformance suite: one generic battery of protocol checks
//! run against every store implementation — the local `FileService`, a
//! `RemoteFs` over the in-process network, a `RemoteFs` whose primary server
//! crashes mid-suite, and a `ShardedStore` routing over three shards with
//! two-replica block storage (local and remote) — plus round-trip accounting
//! for the batched page operations, asserted through a counting transport, and
//! a replica-divergence test that kills one replica mid-commit-stream and
//! proves resync restores read-one/write-all agreement.
//!
//! The **directory service** rides the same suite: a generic naming battery
//! (`exercise_named_store`) runs over the local service and the sharded
//! router, the counting transport proves a k-entry `ReadDir` through a
//! directory server costs O(1) RPCs, a TCP sharded cluster survives a replica
//! killed mid-rename (resync restores `divergent_blocks() == []` and every
//! path still resolves to the same capability from the recovered replica
//! alone), and two clients racing renames of sibling entries in one directory
//! both succeed without losing either entry.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use afs_client::{RemoteFs, ShardedStore};
use afs_core::{FileService, FileStore, FileStoreExt, FsError, PagePath, RetryPolicy};
use afs_server::{ServerGroup, ShardedCluster};
use amoeba_capability::{shard_of, Port};
use amoeba_rpc::{LocalNetwork, Reply, Request, Transport};
use bytes::Bytes;

/// A transport wrapper that counts round trips, for the O(1)-RPC assertions.
struct CountingTransport<T: Transport> {
    inner: T,
    round_trips: AtomicU64,
}

impl<T: Transport> CountingTransport<T> {
    fn new(inner: T) -> Self {
        CountingTransport {
            inner,
            round_trips: AtomicU64::new(0),
        }
    }

    fn round_trips(&self) -> u64 {
        self.round_trips.load(Ordering::Relaxed)
    }
}

impl<T: Transport> Transport for CountingTransport<T> {
    fn transact(&self, port: Port, request: Request) -> amoeba_rpc::Result<Reply> {
        self.round_trips.fetch_add(1, Ordering::Relaxed);
        self.inner.transact(port, request)
    }

    fn register_callback_sink(&self, sink: Arc<dyn amoeba_rpc::CallbackSink>) -> bool {
        // Callbacks are server pushes, not round trips: forward without counting.
        self.inner.register_callback_sink(sink)
    }
}

/// A transport wrapper that counts round trips per `(port, op)`, for the
/// per-replica block-write accounting.
struct OpCountingTransport<T: Transport> {
    inner: T,
    counts: std::sync::Mutex<std::collections::HashMap<(Port, u32), u64>>,
}

impl<T: Transport> OpCountingTransport<T> {
    fn new(inner: T) -> Self {
        OpCountingTransport {
            inner,
            counts: std::sync::Mutex::new(std::collections::HashMap::new()),
        }
    }

    fn count(&self, port: Port, op: u32) -> u64 {
        *self.counts.lock().unwrap().get(&(port, op)).unwrap_or(&0)
    }
}

impl<T: Transport> Transport for OpCountingTransport<T> {
    fn transact(&self, port: Port, request: Request) -> amoeba_rpc::Result<Reply> {
        *self
            .counts
            .lock()
            .unwrap()
            .entry((port, request.op))
            .or_insert(0) += 1;
        self.inner.transact(port, request)
    }

    fn register_callback_sink(&self, sink: Arc<dyn amoeba_rpc::CallbackSink>) -> bool {
        self.inner.register_callback_sink(sink)
    }
}

/// The generic conformance battery: exercises the full client-visible protocol
/// against any store.
fn exercise_store<S: FileStore + ?Sized>(store: &S) {
    // -- File and version life cycle -------------------------------------
    let file = store.create_file().expect("create_file");
    let current = store
        .current_version(&file)
        .expect("initial current_version");
    assert_eq!(
        store
            .read_committed_page(&current, &PagePath::root())
            .expect("initial root read"),
        Bytes::new(),
        "a fresh file has one empty committed version"
    );

    // -- Page operations inside a version --------------------------------
    let version = store.create_version(&file).expect("create_version");
    store
        .write_page(&version, &PagePath::root(), Bytes::from_static(b"root"))
        .expect("write_page");
    assert_eq!(
        store
            .read_page(&version, &PagePath::root())
            .expect("read_page"),
        Bytes::from_static(b"root")
    );
    let appended = store
        .append_page(&version, &PagePath::root(), Bytes::from_static(b"appended"))
        .expect("append_page");
    let inserted = store
        .insert_page(
            &version,
            &PagePath::root(),
            0,
            Bytes::from_static(b"inserted"),
        )
        .expect("insert_page");
    assert_eq!(inserted, PagePath::new(vec![0]));
    // The appended page shifted up by the front insertion.
    assert_eq!(
        store
            .read_page(&version, &PagePath::new(vec![1]))
            .expect("shifted read"),
        Bytes::from_static(b"appended")
    );
    store
        .remove_page(&version, &PagePath::new(vec![0]))
        .expect("remove_page");
    assert_eq!(
        store
            .read_page(&version, &PagePath::new(vec![0]))
            .expect("post-remove read"),
        Bytes::from_static(b"appended")
    );
    let receipt = store.commit(&version).expect("commit");
    assert!(receipt.fast_path, "uncontended commit takes the fast path");
    let _ = appended;

    // -- Committed state and cache validation ----------------------------
    let current = store.current_version(&file).expect("current_version");
    assert_eq!(
        store
            .read_committed_page(&current, &PagePath::new(vec![0]))
            .expect("read_committed_page"),
        Bytes::from_static(b"appended")
    );
    let validation = store
        .validate_cache(&file, u32::MAX)
        .expect("validate_cache with a stale block");
    assert!(!validation.up_to_date);
    let again = store
        .validate_cache(&file, validation.current_block)
        .expect("validate_cache with the current block");
    assert!(
        again.up_to_date,
        "revalidation against the current block is a null op"
    );
    assert!(again.discard.is_empty());

    // -- Batched operations ----------------------------------------------
    let version = store.create_version(&file).expect("batch version");
    let paths: Vec<PagePath> = (0..8u8)
        .map(|i| {
            store
                .append_page(&version, &PagePath::root(), Bytes::from(vec![i]))
                .expect("append for batch")
        })
        .collect();
    let writes: Vec<(PagePath, Bytes)> = paths
        .iter()
        .map(|p| (p.clone(), Bytes::from_static(b"batched")))
        .collect();
    store.write_pages(&version, &writes).expect("write_pages");
    let pages = store.read_pages(&version, &paths).expect("read_pages");
    assert_eq!(pages.len(), paths.len());
    assert!(pages.iter().all(|p| p == &Bytes::from_static(b"batched")));
    store.commit(&version).expect("commit batch");

    // -- Abort ------------------------------------------------------------
    let doomed = store.create_version(&file).expect("abort version");
    store
        .write_page(
            &doomed,
            &PagePath::root(),
            Bytes::from_static(b"never seen"),
        )
        .expect("write in doomed version");
    store.abort(&doomed).expect("abort");
    let current = store.current_version(&file).expect("current after abort");
    assert_eq!(
        store
            .read_committed_page(&current, &PagePath::root())
            .expect("read after abort"),
        Bytes::from_static(b"root"),
        "aborted writes must never become visible"
    );

    // -- Serialisability conflict and the retrying Update API ------------
    let loser = store.create_version(&file).expect("loser version");
    store.read_page(&loser, &paths[0]).expect("loser read");
    let winner = store.create_version(&file).expect("winner version");
    store
        .write_page(&winner, &paths[0], Bytes::from_static(b"winner"))
        .expect("winner write");
    store.commit(&winner).expect("winner commit");
    store
        .write_page(&loser, &paths[1], Bytes::from_static(b"derived"))
        .expect("loser write");
    assert_eq!(
        store.commit(&loser).expect_err("loser must conflict"),
        FsError::SerialisabilityConflict
    );

    // The update loop hides the redo: force one conflict on the first attempt.
    let mut provoked = false;
    let outcome = store
        .update_with(&file, RetryPolicy::with_max_attempts(100), |tx| {
            let old = tx.read(&paths[2])?;
            if !provoked {
                provoked = true;
                // A competing client commits a write to the page we just read.
                let rival = tx.store().create_version(&file)?;
                tx.store()
                    .write_page(&rival, &paths[2], Bytes::from_static(b"rival"))?;
                tx.store().commit(&rival)?;
            }
            let mut next = old.to_vec();
            next.push(b'!');
            tx.write(&paths[2], Bytes::from(next))
        })
        .expect("update must retry through the conflict");
    assert!(
        outcome.attempts >= 2,
        "the provoked conflict forces at least one redo (got {})",
        outcome.attempts
    );
    let current = store.current_version(&file).expect("final current");
    let data = store
        .read_committed_page(&current, &paths[2])
        .expect("final read");
    assert_eq!(data.last(), Some(&b'!'), "the retried update committed");
    assert!(
        data.starts_with(b"rival"),
        "the redo observed the rival's committed write"
    );
}

#[test]
fn local_service_conforms() {
    let service = FileService::in_memory();
    exercise_store(&*service);
}

#[test]
fn local_service_conforms_as_a_trait_object() {
    let service = FileService::in_memory();
    let store: &dyn FileStore = &*service;
    exercise_store(store);
}

#[test]
fn remote_store_conforms() {
    let network = Arc::new(LocalNetwork::new());
    let service = FileService::in_memory();
    let group = ServerGroup::start(&network, &service, 2);
    let remote = RemoteFs::new(Arc::clone(&network), group.ports());
    exercise_store(&remote);
}

#[test]
fn remote_store_conforms_while_servers_crash() {
    let network = Arc::new(LocalNetwork::new());
    let service = FileService::in_memory();
    let group = ServerGroup::start(&network, &service, 3);
    let remote = RemoteFs::new(Arc::clone(&network), group.ports());

    // Run the identical battery with the primary down: every transaction fails
    // over to a replica.
    group.process(0).crash();
    exercise_store(&remote);

    // And again after a flapping restart with a different victim.
    group.process(0).restart();
    group.process(1).crash();
    exercise_store(&remote);
}

#[test]
fn sharded_local_store_conforms() {
    // Three shards, each over two-replica block storage: the full client
    // protocol must behave identically to a single service.
    let (store, _replicas) = ShardedStore::local_replicated(3, 2);
    exercise_store(&store);
}

#[test]
fn sharded_local_store_conforms_as_a_trait_object() {
    let (store, _replicas) = ShardedStore::local_replicated(3, 2);
    let store: &dyn FileStore = &store;
    exercise_store(store);
}

#[test]
fn sharded_local_store_conforms_while_replicas_crash() {
    let (store, replica_sets) = ShardedStore::local_replicated(3, 2);
    // One replica of every shard is down for the whole battery: every page
    // lands on (and is served by) the survivor, with intentions queued.
    for replicas in &replica_sets {
        replicas.crash(0);
    }
    exercise_store(&store);
    // The battery places its files round-robin starting at shard 0, so at
    // least that shard ran degraded and queued intentions.
    let queued: u64 = replica_sets
        .iter()
        .map(|r| r.replica_stats().intentions_recorded)
        .sum();
    assert!(queued > 0, "degraded commits must record intentions");
    for replicas in &replica_sets {
        replicas.resync(0).expect("resync after the battery");
        assert!(
            replicas.divergent_blocks().is_empty(),
            "resync must restore replica agreement"
        );
    }
    // And again at full strength.
    exercise_store(&store);
}

#[test]
fn sharded_remote_store_conforms() {
    let network = Arc::new(LocalNetwork::new());
    let cluster = ShardedCluster::launch(&network, 3, 2, 2);
    let remote = ShardedStore::connect(Arc::clone(&network), cluster.shard_ports());
    exercise_store(&remote);

    // The same battery with one server process of every shard crashed: each
    // transaction fails over to the shard's replica process.
    for shard in 0..cluster.shard_count() {
        cluster.shard(shard).group().process(0).crash();
    }
    exercise_store(&remote);
}

#[test]
fn sharded_remote_store_conforms_over_tcp() {
    use afs_core::{BlockServer, ReplicatedBlockStore, ServiceConfig};
    use afs_server::FileServerHandler;
    use amoeba_rpc::tcp::{TcpClient, TcpServer};

    // The real multi-server topology: one TCP server *process* per shard, each
    // hosting two logical service ports over its own file service and
    // two-replica block storage; one socket client per shard behind the router.
    let shards = 3;
    let mut servers = Vec::new();
    let mut stores = Vec::new();
    for shard in 0..shards {
        let replicas = ReplicatedBlockStore::in_memory(2);
        let service = FileService::for_shard(
            Arc::new(BlockServer::new(replicas as _)),
            shard,
            shards,
            ServiceConfig::default(),
        );
        let server = TcpServer::bind("127.0.0.1:0").expect("bind shard server");
        let ports: Vec<Port> = (0..2)
            .map(|_| {
                let port = Port::random();
                server.register(port, Arc::new(FileServerHandler::new(Arc::clone(&service))));
                port
            })
            .collect();
        stores.push(RemoteFs::new(TcpClient::new(server.local_addr()), ports));
        servers.push(server);
    }
    let store = ShardedStore::new(stores);
    exercise_store(&store);
}

#[test]
fn sharded_remote_batched_ops_cost_constant_round_trips() {
    // The counting transport sits below the router: the O(1)-RPC discipline
    // must survive sharding because a version's pages all live on one shard.
    let network = Arc::new(LocalNetwork::new());
    let cluster = ShardedCluster::launch(&network, 3, 2, 1);
    let counting = Arc::new(CountingTransport::new(Arc::clone(&network)));
    let remote = ShardedStore::connect(Arc::clone(&counting), cluster.shard_ports());
    exercise_store(&remote);

    let file = remote.create_file().unwrap();
    let setup = remote.create_version(&file).unwrap();
    let paths: Vec<PagePath> = (0..24u8)
        .map(|i| {
            remote
                .append_page(&setup, &PagePath::root(), Bytes::from(vec![i]))
                .unwrap()
        })
        .collect();
    remote.commit(&setup).unwrap();

    let before = counting.round_trips();
    remote
        .update_with(&file, RetryPolicy::default(), |tx| {
            let writes: Vec<(PagePath, Bytes)> = paths
                .iter()
                .map(|p| (p.clone(), Bytes::from_static(b"sharded batch")))
                .collect();
            tx.write_many(&writes)?;
            tx.read_many(&paths)
        })
        .unwrap();
    let trips = counting.round_trips() - before;
    assert_eq!(
        trips, 4,
        "a k-page batched update through the shard router must still cost \
         O(1) round trips, used {trips}"
    );
}

/// The replica-divergence proof: one replica of the file's shard is killed
/// while a stream of concurrent commits is in flight, runs degraded, and is
/// then resynced.  No committed update may be lost — even when the recovered
/// replica is the *only* one left to serve reads.
#[test]
fn replica_killed_mid_commit_stream_resyncs_without_losing_data() {
    // The page cache is disabled so the final read provably comes from the
    // recovered replica's disk, not from server memory.
    let (store, replica_sets) = ShardedStore::local_replicated_with_config(
        3,
        2,
        afs_core::ServiceConfig {
            flag_cache_capacity: None,
            ..afs_core::ServiceConfig::default()
        },
    );
    let store = Arc::new(store);

    let file = store.create_file().unwrap();
    let shard = shard_of(&file, 3);
    let page = store
        .update(&file, |tx| {
            tx.append(&PagePath::root(), Bytes::from(0u32.to_le_bytes().to_vec()))
        })
        .unwrap();

    // Kill replica 0 of the file's shard, then let four clients race 24
    // counter increments through the OCC retry loop while the shard runs
    // degraded: every commit's flush lands on the survivor and is queued as an
    // intention for the corpse.
    replica_sets[shard].crash(0);
    let threads = 4;
    let per_thread = 6;
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let store = Arc::clone(&store);
            let page = page.clone();
            scope.spawn(move || {
                for _ in 0..per_thread {
                    store
                        .update_with(&file, RetryPolicy::with_max_attempts(10_000), |tx| {
                            let old = tx.read(&page)?;
                            let value = u32::from_le_bytes(old[..4].try_into().unwrap()) + 1;
                            tx.write(&page, Bytes::from(value.to_le_bytes().to_vec()))
                        })
                        .unwrap();
                }
            });
        }
    });

    let stats = replica_sets[shard].replica_stats();
    assert!(
        stats.intentions_recorded > 0,
        "commits while a replica is down must record intentions"
    );

    // Resync the corpse and verify byte-level replica agreement.
    let applied = replica_sets[shard].resync(0).expect("resync");
    assert!(applied > 0);
    assert!(
        replica_sets[shard].divergent_blocks().is_empty(),
        "read-one/write-all agreement must hold after resync"
    );

    // The acid test: kill the replica that survived the first crash, leaving
    // only the recovered one.  Every committed increment must be readable.
    replica_sets[shard].crash(1);
    let current = store.current_version(&file).unwrap();
    let raw = store.read_committed_page(&current, &page).unwrap();
    assert_eq!(
        u32::from_le_bytes(raw[..4].try_into().unwrap()),
        (threads * per_thread) as u32,
        "the resynced replica must serve every committed update"
    );
}

/// The quorum-commit acceptance test: *partition* (not crash) one replica of a
/// three-replica shard in the middle of a commit stream.  A partitioned disk
/// is nastier than a dead one — it still holds its data and will answer again
/// later, so a protocol without membership epochs would happily let it serve
/// stale reads or accept writes from a stale coordinator after it comes back.
/// The commit stream must proceed on the majority with **no client-visible
/// errors**, the partitioned replica must be deposed (epoch bump), and healing
/// must readmit it only through an epoch-stamped resync, after which the
/// replicas agree byte-for-byte.
#[test]
fn fault_partitioned_replica_rejoins_via_epoch_stamped_resync() {
    use afs_core::ServiceConfig;
    use amoeba_block::{BlockStore, FaultyStore, MemStore, ReplicatedBlockStore};

    // Three replica disks behind fault injectors, so one can be partitioned
    // while its state stays intact underneath.
    let disks: Vec<Arc<FaultyStore<MemStore>>> = (0..3)
        .map(|_| Arc::new(FaultyStore::new(MemStore::new())))
        .collect();
    let replicas = ReplicatedBlockStore::new(
        disks
            .iter()
            .map(|d| Arc::clone(d) as Arc<dyn BlockStore>)
            .collect(),
    );
    // No page cache: the final read must provably come from a replica disk.
    let store = FileService::with_config(
        Arc::new(afs_core::BlockServer::new(
            Arc::clone(&replicas) as Arc<dyn BlockStore>
        )),
        ServiceConfig {
            flag_cache_capacity: None,
            ..ServiceConfig::default()
        },
    );
    let epoch_at_start = replicas.epoch();

    let file = store.create_file().unwrap();
    let page = store
        .update(&file, |tx| {
            tx.append(&PagePath::root(), Bytes::from(0u32.to_le_bytes().to_vec()))
        })
        .unwrap();

    let increments = |rounds: usize| {
        let store = &store;
        let page = &page;
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(move || {
                    for _ in 0..rounds {
                        store
                            .update_with(&file, RetryPolicy::with_max_attempts(10_000), |tx| {
                                let old = tx.read(page)?;
                                let value = u32::from_le_bytes(old[..4].try_into().unwrap()) + 1;
                                tx.write(page, Bytes::from(value.to_le_bytes().to_vec()))
                            })
                            .expect("commits must not surface errors to clients");
                    }
                });
            }
        });
    };

    // A healthy prefix of the commit stream, then the partition drops replica
    // 1 off the network mid-stream, then the stream continues: every commit
    // must succeed throughout.
    increments(3);
    disks[1].partition();
    increments(3);

    replicas.quiesce();
    assert!(
        replicas.is_down(1),
        "a partitioned replica must be deposed from the write quorum"
    );
    assert!(
        replicas.epoch() > epoch_at_start,
        "deposing a replica must advance the membership epoch"
    );
    assert!(
        disks[1].rejected_while_partitioned() > 0,
        "the commit stream must actually have hit the partition"
    );
    let stats = replicas.replica_stats();
    assert!(
        stats.intentions_recorded > 0,
        "commits during the partition must queue intentions for the absentee"
    );

    // Heal the partition and readmit the replica through resync.  The replay
    // is epoch-stamped: the resynced replica re-enters at a *newer* epoch, so
    // a coordinator still holding the pre-partition view would be rejected.
    let epoch_while_deposed = replicas.epoch();
    disks[1].heal();
    let applied = replicas.resync(1).expect("resync after heal");
    assert!(applied > 0, "the rejoin must replay the missed intentions");
    assert!(
        !replicas.is_down(1),
        "a healed, resynced replica re-enters the quorum"
    );
    assert!(replicas.epoch() > epoch_while_deposed);
    assert!(
        replicas.divergent_blocks().is_empty(),
        "after resync the replicas must agree byte-for-byte"
    );

    // The acid test: depose both replicas that stayed up, so the next read can
    // only be served by the rejoined one — it must hold every committed
    // increment.
    replicas.crash(0);
    replicas.crash(2);
    let current = store.current_version(&file).unwrap();
    let raw = store.read_committed_page(&current, &page).unwrap();
    assert_eq!(
        u32::from_le_bytes(raw[..4].try_into().unwrap()),
        24,
        "the rejoined replica must serve every commit, including those it missed"
    );
}

/// Satellite regression at the service level: a resync racing a live commit
/// stream must be idempotent and lose nothing — replayed intentions are
/// ordered by sequence number against the concurrent commits, and a second
/// racing resync of the same replica is harmless.
#[test]
fn fault_resync_races_a_live_commit_stream() {
    use afs_core::ServiceConfig;
    use amoeba_block::{BlockStore, FaultyStore, MemStore, ReplicatedBlockStore};

    let disks: Vec<Arc<FaultyStore<MemStore>>> = (0..3)
        .map(|_| Arc::new(FaultyStore::new(MemStore::new())))
        .collect();
    let replicas = ReplicatedBlockStore::new(
        disks
            .iter()
            .map(|d| Arc::clone(d) as Arc<dyn BlockStore>)
            .collect(),
    );
    let store = FileService::with_config(
        Arc::new(afs_core::BlockServer::new(
            Arc::clone(&replicas) as Arc<dyn BlockStore>
        )),
        ServiceConfig {
            flag_cache_capacity: None,
            ..ServiceConfig::default()
        },
    );

    let file = store.create_file().unwrap();
    let page = store
        .update(&file, |tx| {
            tx.append(&PagePath::root(), Bytes::from(0u32.to_le_bytes().to_vec()))
        })
        .unwrap();

    // Knock replica 2 out with a partition and let commits accumulate
    // intentions for it.
    disks[2].partition();
    for _ in 0..4 {
        store
            .update_with(&file, RetryPolicy::with_max_attempts(10_000), |tx| {
                let old = tx.read(&page)?;
                let value = u32::from_le_bytes(old[..4].try_into().unwrap()) + 1;
                tx.write(&page, Bytes::from(value.to_le_bytes().to_vec()))
            })
            .unwrap();
    }
    disks[2].heal();

    // Two racing resyncs of the healed replica while four writers keep the
    // commit stream hot.
    std::thread::scope(|scope| {
        for _ in 0..2 {
            let replicas = &replicas;
            scope.spawn(move || {
                let _ = replicas.resync(2);
            });
        }
        for _ in 0..4 {
            let store = &store;
            let page = &page;
            scope.spawn(move || {
                for _ in 0..5 {
                    store
                        .update_with(&file, RetryPolicy::with_max_attempts(10_000), |tx| {
                            let old = tx.read(page)?;
                            let value = u32::from_le_bytes(old[..4].try_into().unwrap()) + 1;
                            tx.write(page, Bytes::from(value.to_le_bytes().to_vec()))
                        })
                        .expect("commits racing a resync must not fail");
                }
            });
        }
    });

    // The replica may have been re-deposed mid-race; settle it before judging.
    if replicas.is_down(2) {
        replicas.resync(2).expect("final resync");
    }
    assert!(
        replicas.divergent_blocks().is_empty(),
        "resync racing live commits must still converge byte-for-byte"
    );
    replicas.crash(0);
    replicas.crash(1);
    let current = store.current_version(&file).unwrap();
    let raw = store.read_committed_page(&current, &page).unwrap();
    assert_eq!(u32::from_le_bytes(raw[..4].try_into().unwrap()), 24);
}

/// The block-level half of the O(1)-RPC discipline: with the replica disks
/// behind RPC, a commit's dirty pages must reach each replica as one
/// `WriteBlocks` scatter-gather request (plus the version-page write and the
/// commit-reference test-and-set) — a *constant* number of block-write RPCs per
/// replica, independent of how many pages the commit dirtied.
#[test]
fn a_k_page_commit_costs_o1_block_write_rpcs_per_replica() {
    use afs_core::BlockServer;
    use afs_server::{BlockServerProcess, RemoteBlockStore};
    use amoeba_block::{BlockStore, MemStore, ReplicatedBlockStore};
    use amoeba_rpc::block::BlockOp;

    let network = Arc::new(LocalNetwork::new());
    let counting = Arc::new(OpCountingTransport::new(Arc::clone(&network)));
    let processes: Vec<BlockServerProcess> = (0..2)
        .map(|_| BlockServerProcess::start(Arc::clone(&network), Arc::new(MemStore::new())))
        .collect();
    let ports: Vec<Port> = processes.iter().map(|p| p.port()).collect();
    let stores: Vec<Arc<dyn BlockStore>> = ports
        .iter()
        .map(|&port| {
            Arc::new(RemoteBlockStore::connect(Arc::clone(&counting), port).unwrap())
                as Arc<dyn BlockStore>
        })
        .collect();
    let replicas = ReplicatedBlockStore::new(stores);
    let service = FileService::new(Arc::new(BlockServer::new(replicas as Arc<dyn BlockStore>)));

    // The whole conformance battery runs over remote replicated block storage.
    exercise_store(&*service);

    let write_rpcs = |port: Port| {
        counting.count(port, BlockOp::Write as u32)
            + counting.count(port, BlockOp::WriteBlocks as u32)
    };
    let commit_write_rpcs = |dirty: usize| -> Vec<u64> {
        let file = service.create_file().unwrap();
        let v = service.create_version(&file).unwrap();
        for i in 0..dirty {
            service
                .append_page(&v, &PagePath::root(), Bytes::from(vec![i as u8; 32]))
                .unwrap();
        }
        let before: Vec<u64> = ports.iter().map(|&p| write_rpcs(p)).collect();
        service.commit(&v).unwrap();
        ports
            .iter()
            .zip(before)
            .map(|(&p, b)| write_rpcs(p) - b)
            .collect()
    };

    let small = commit_write_rpcs(4);
    let large = commit_write_rpcs(32);
    for (replica, (s, l)) in small.iter().zip(&large).enumerate() {
        assert_eq!(
            s, l,
            "replica {replica}: block-write RPCs grew with the dirty-page count"
        );
        assert!(
            *l <= 3,
            "replica {replica}: a commit is 1 WriteBlocks batch + 1 version-page \
             write + 1 test-and-set, got {l} write RPCs for a 32-page commit"
        );
    }
}

/// The replica set's coordinator numbers its blocks itself and each number
/// reaches the disks inside its first `WriteBlocks` batch, so an update costs
/// no allocation round trip at all — and an aborted update's pages, never
/// written, are freed without a `Free` round trip either.
#[test]
fn a_32_page_update_sends_no_allocation_rpcs_to_any_replica() {
    use afs_core::BlockServer;
    use afs_server::{BlockServerProcess, RemoteBlockStore};
    use amoeba_block::{BlockStore, MemStore, ReplicatedBlockStore};
    use amoeba_rpc::block::BlockOp;

    let network = Arc::new(LocalNetwork::new());
    let counting = Arc::new(OpCountingTransport::new(Arc::clone(&network)));
    let processes: Vec<BlockServerProcess> = (0..3)
        .map(|_| BlockServerProcess::start(Arc::clone(&network), Arc::new(MemStore::new())))
        .collect();
    let ports: Vec<Port> = processes.iter().map(|p| p.port()).collect();
    let stores: Vec<Arc<dyn BlockStore>> = ports
        .iter()
        .map(|&port| {
            Arc::new(RemoteBlockStore::connect(Arc::clone(&counting), port).unwrap())
                as Arc<dyn BlockStore>
        })
        .collect();
    let replicas = ReplicatedBlockStore::new(stores);
    let service = FileService::new(Arc::new(BlockServer::new(
        Arc::clone(&replicas) as Arc<dyn BlockStore>
    )));
    let allocation_rpcs = |port: Port| -> u64 {
        [BlockOp::Allocate, BlockOp::AllocateAt, BlockOp::Free]
            .iter()
            .map(|&op| counting.count(port, op as u32))
            .sum()
    };
    let update = |commit: bool| {
        let file = service.create_file().unwrap();
        let v = service.create_version(&file).unwrap();
        for i in 0..32u8 {
            service
                .append_page(&v, &PagePath::root(), Bytes::from(vec![i; 4096]))
                .unwrap();
        }
        if commit {
            service.commit(&v).unwrap();
        } else {
            service.abort_version(&v).unwrap();
        }
        replicas.quiesce();
    };

    update(true);
    update(false);
    for (replica, &port) in ports.iter().enumerate() {
        assert_eq!(
            allocation_rpcs(port),
            0,
            "replica {replica}: allocation or free RPCs on the update path"
        );
        assert!(counting.count(port, BlockOp::WriteBlocks as u32) > 0);
    }
    assert!(replicas.divergent_blocks().is_empty());
}

/// The full topology with the storage tier behind RPC: shards × replicated
/// remote block servers × server processes, with a block-server process killed
/// and resynced mid-suite.
#[test]
fn sharded_cluster_with_remote_block_storage_conforms() {
    let network = Arc::new(LocalNetwork::new());
    let cluster = ShardedCluster::launch_remote_storage(
        &network,
        3,
        2,
        1,
        afs_core::ServiceConfig::default(),
    );
    let remote = ShardedStore::connect(Arc::clone(&network), cluster.shard_ports());
    exercise_store(&remote);

    // Kill one block-server process of every shard: each shard's replica set
    // runs degraded, queueing intentions, while the battery runs again.
    for shard in 0..cluster.shard_count() {
        cluster.shard(shard).block_processes()[0].crash();
    }
    exercise_store(&remote);
    let queued: u64 = (0..cluster.shard_count())
        .map(|s| {
            cluster
                .shard(s)
                .replicas()
                .replica_stats()
                .intentions_recorded
        })
        .sum();
    assert!(queued > 0, "degraded commits must record intentions");

    // Restart and resync: byte-level replica agreement is restored everywhere.
    for shard in 0..cluster.shard_count() {
        cluster.shard(shard).block_processes()[0].restart();
        cluster.shard(shard).replicas().resync(0).expect("resync");
        assert!(
            cluster
                .shard(shard)
                .replicas()
                .divergent_blocks()
                .is_empty(),
            "shard {shard}: resync over RPC must restore replica agreement"
        );
    }
    exercise_store(&remote);
}

#[test]
fn batched_page_ops_cost_constant_round_trips() {
    let network = Arc::new(LocalNetwork::new());
    let service = FileService::in_memory();
    let group = ServerGroup::start(&network, &service, 1);
    let counting = CountingTransport::new(Arc::clone(&network));
    let remote = RemoteFs::new(counting, group.ports());

    let file = remote.create_file().unwrap();
    let setup = remote.create_version(&file).unwrap();
    let paths: Vec<PagePath> = (0..32u8)
        .map(|i| {
            remote
                .append_page(&setup, &PagePath::root(), Bytes::from(vec![i]))
                .unwrap()
        })
        .collect();
    remote.commit(&setup).unwrap();

    // A k-page batched update: one WritePages + one ReadPages + one
    // CreateVersion + one Commit = 4 round trips, independent of k.
    let before = remote.transport().round_trips();
    let outcome = remote
        .update_with(&file, RetryPolicy::default(), |tx| {
            let writes: Vec<(PagePath, Bytes)> = paths
                .iter()
                .map(|p| (p.clone(), Bytes::from_static(b"one trip")))
                .collect();
            tx.write_many(&writes)?;
            tx.read_many(&paths)
        })
        .unwrap();
    let trips = remote.transport().round_trips() - before;
    assert_eq!(outcome.attempts, 1);
    assert_eq!(
        trips,
        4,
        "a {}-page batched update must cost O(1) round trips, used {trips}",
        paths.len()
    );

    // The same update page-at-a-time costs O(k): the batch is genuinely needed.
    let before = remote.transport().round_trips();
    remote
        .update_with(&file, RetryPolicy::default(), |tx| {
            for path in &paths {
                tx.write(path, Bytes::from_static(b"k trips"))?;
            }
            Ok(())
        })
        .unwrap();
    let unbatched = remote.transport().round_trips() - before;
    assert!(
        unbatched >= paths.len() as u64,
        "unbatched updates pay one trip per page ({unbatched})"
    );
}

#[test]
fn update_retries_conflicts_over_the_wire() {
    let network = Arc::new(LocalNetwork::new());
    let service = FileService::in_memory();
    let group = ServerGroup::start(&network, &service, 2);
    let remote = Arc::new(RemoteFs::new(Arc::clone(&network), group.ports()));

    let file = remote.create_file().unwrap();
    let page = remote
        .update(&file, |tx| {
            tx.append(&PagePath::root(), Bytes::from(0u32.to_le_bytes().to_vec()))
        })
        .unwrap();

    let threads = 4;
    let per_thread = 6;
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let remote = Arc::clone(&remote);
            let page = page.clone();
            scope.spawn(move || {
                for _ in 0..per_thread {
                    remote
                        .update_with(&file, RetryPolicy::with_max_attempts(10_000), |tx| {
                            let old = tx.read(&page)?;
                            let value = u32::from_le_bytes(old[..4].try_into().unwrap()) + 1;
                            tx.write(&page, Bytes::from(value.to_le_bytes().to_vec()))
                        })
                        .unwrap();
                }
            });
        }
    });

    let current = remote.current_version(&file).unwrap();
    let raw = remote.read_committed_page(&current, &page).unwrap();
    assert_eq!(
        u32::from_le_bytes(raw[..4].try_into().unwrap()),
        (threads * per_thread) as u32
    );
}

// ===========================================================================
// Directory-service conformance.
// ===========================================================================

use afs_client::{NamedStore, RemoteDir};
use afs_dir::{DirError, DirStore, EntryKind};
use afs_server::DirServerProcess;
use amoeba_capability::Rights;

/// The generic naming battery: hierarchy building, path resolution, rights
/// attenuation, listing, rename (same- and cross-directory), unlink — over any
/// `FileStore`.
fn exercise_named_store<S: FileStore>(store: S) {
    let ns = NamedStore::create(store).expect("create root");

    // -- Hierarchy building and resolution --------------------------------
    ns.mkdir_all("/projects/amoeba", Rights::ALL)
        .expect("mkdir_all");
    let report = ns
        .create_file("/projects/amoeba/report", Rights::ALL)
        .expect("create_file at path");
    assert_eq!(ns.resolve("/projects/amoeba/report").unwrap().cap, report);

    // The named file is an ordinary file: write through the store, read back.
    let page = ns
        .store()
        .update(&report, |tx| {
            tx.append(&PagePath::root(), Bytes::from_static(b"named data"))
        })
        .expect("update named file");
    let current = ns.store().current_version(&report).unwrap();
    assert_eq!(
        ns.store().read_committed_page(&current, &page).unwrap(),
        Bytes::from_static(b"named data")
    );

    // -- Rights attenuation at the naming layer ---------------------------
    let ro = ns
        .create_file("/projects/amoeba/readonly", Rights::READ)
        .expect("create read-only entry");
    assert_eq!(
        ns.resolve_with("/projects/amoeba/readonly", Rights::READ)
            .unwrap()
            .cap,
        ro
    );
    assert_eq!(
        ns.resolve_with("/projects/amoeba/readonly", Rights::WRITE)
            .unwrap_err(),
        DirError::InsufficientGrant
    );

    // -- Listing is sorted -------------------------------------------------
    let names: Vec<String> = ns
        .read_dir("/projects/amoeba")
        .unwrap()
        .into_iter()
        .map(|e| e.name)
        .collect();
    assert_eq!(names, vec!["readonly", "report"]);

    // -- Same-directory rename is atomic ----------------------------------
    ns.rename("/projects/amoeba/report", "/projects/amoeba/final")
        .expect("same-dir rename");
    assert_eq!(ns.resolve("/projects/amoeba/final").unwrap().cap, report);
    assert!(matches!(
        ns.resolve("/projects/amoeba/report").unwrap_err(),
        DirError::NotFound(_)
    ));

    // -- Cross-directory rename --------------------------------------------
    ns.mkdir("/archive", Rights::ALL).expect("mkdir archive");
    ns.rename("/projects/amoeba/final", "/archive/final-2026")
        .expect("cross-dir rename");
    assert_eq!(ns.resolve("/archive/final-2026").unwrap().cap, report);
    assert!(ns.resolve("/projects/amoeba/final").is_err());

    // -- Unlink and the non-empty guard ------------------------------------
    assert!(matches!(
        ns.unlink("/projects/amoeba").unwrap_err(),
        DirError::NotEmpty(_)
    ));
    ns.unlink("/projects/amoeba/readonly").expect("unlink file");
    ns.unlink("/projects/amoeba").expect("unlink empty dir");
    assert!(ns.resolve("/projects/amoeba").is_err());

    // -- The prefix cache serves warm resolutions without the server -------
    let before = ns.cache_stats();
    for _ in 0..4 {
        assert_eq!(ns.resolve("/archive/final-2026").unwrap().cap, report);
    }
    let after = ns.cache_stats();
    assert!(after.hits > before.hits, "warm resolves must hit the cache");
}

#[test]
fn named_store_conforms_over_a_local_service() {
    exercise_named_store(FileService::in_memory());
}

#[test]
fn named_store_conforms_over_a_sharded_store() {
    let (store, _replicas) = ShardedStore::local_replicated(3, 2);
    exercise_named_store(store);
}

#[test]
fn named_store_conforms_over_a_remote_sharded_cluster() {
    let network = Arc::new(LocalNetwork::new());
    let cluster = ShardedCluster::launch(&network, 3, 2, 2);
    let remote = ShardedStore::connect(Arc::clone(&network), cluster.shard_ports());
    exercise_named_store(remote);
}

/// A k-entry `ReadDir` through a directory server is ONE transaction: the
/// server walks its (ordinary-file) directory table and ships every entry in a
/// single reply, independent of k.
#[test]
fn a_k_entry_read_dir_costs_o1_rpcs() {
    let network = Arc::new(LocalNetwork::new());
    let service = FileService::in_memory();
    let process =
        DirServerProcess::create(Arc::clone(&network), Arc::clone(&service)).expect("dir server");
    let counting = CountingTransport::new(Arc::clone(&network));
    let client = RemoteDir::new(counting, vec![process.port()]);

    let root = client.root().expect("root over RPC");
    let k = 40;
    for i in 0..k {
        let file = service.create_file().unwrap();
        client
            .link(
                &root,
                &format!("entry{i:02}"),
                file,
                Rights::READ,
                EntryKind::File,
            )
            .expect("link over RPC");
    }

    let before = client.transport().round_trips();
    let entries = client.read_dir(&root).expect("readdir over RPC");
    let trips = client.transport().round_trips() - before;
    assert_eq!(entries.len(), k);
    assert_eq!(
        trips, 1,
        "a {k}-entry ReadDir must cost exactly one RPC, used {trips}"
    );

    // Lookup and rename are single transactions too.
    let before = client.transport().round_trips();
    client.lookup(&root, "entry00", Rights::READ).unwrap();
    assert_eq!(client.transport().round_trips() - before, 1);
    let before = client.transport().round_trips();
    client.rename(&root, "entry00", &root, "renamed").unwrap();
    assert_eq!(client.transport().round_trips() - before, 1);
}

/// The acceptance race: two clients rename *sibling* entries of one directory
/// concurrently.  Both contend on the same directory file, both must commit
/// via OCC retry, and neither entry may be lost.
#[test]
fn racing_sibling_renames_both_succeed_without_losing_entries() {
    let (store, _replicas) = ShardedStore::local_replicated(3, 2);
    let store = Arc::new(store);
    let dirs = DirStore::new(Arc::clone(&store));
    let root = dirs.create_root().unwrap();
    let a = store.create_file().unwrap();
    let b = store.create_file().unwrap();
    dirs.link(&root, "a", a, Rights::ALL, EntryKind::File)
        .unwrap();
    dirs.link(&root, "b", b, Rights::ALL, EntryKind::File)
        .unwrap();

    std::thread::scope(|scope| {
        for (from, to) in [("a", "x"), ("b", "y")] {
            let dirs = DirStore::new(Arc::clone(&store));
            scope.spawn(move || {
                dirs.rename_with(
                    &root,
                    from,
                    &root,
                    to,
                    RetryPolicy::with_max_attempts(10_000),
                )
                .expect("racing rename must eventually commit");
            });
        }
    });

    let entries = dirs.read_dir(&root).unwrap();
    let names: Vec<&str> = entries.iter().map(|e| e.name.as_str()).collect();
    assert_eq!(names, vec!["x", "y"], "neither sibling entry may be lost");
    assert_eq!(dirs.lookup_any(&root, "x").unwrap().cap, a);
    assert_eq!(dirs.lookup_any(&root, "y").unwrap().cap, b);
}

/// The full acceptance scenario over TCP: a 3-shard / 2-replica cluster, paths
/// created through `NamedStore`, one replica killed mid-rename-stream, resync
/// to `divergent_blocks() == []` — and every path must resolve to the same
/// capability afterwards, for EITHER choice of victim replica, even when the
/// recovered replica is the only one serving reads.
#[test]
fn named_paths_survive_any_single_replica_kill_and_resync_over_tcp() {
    use afs_core::{BlockServer, ReplicatedBlockStore, ServiceConfig};
    use afs_server::FileServerHandler;
    use amoeba_rpc::tcp::{TcpClient, TcpServer};

    let shards = 3;
    let mut servers = Vec::new();
    let mut stores = Vec::new();
    let mut replica_sets = Vec::new();
    for shard in 0..shards {
        let replicas = ReplicatedBlockStore::in_memory(2);
        // No server-side page cache: post-resync reads provably come from the
        // recovered replica's disk.
        let service = FileService::for_shard(
            Arc::new(BlockServer::new(Arc::clone(&replicas) as _)),
            shard,
            shards,
            ServiceConfig {
                flag_cache_capacity: None,
                ..ServiceConfig::default()
            },
        );
        let server = TcpServer::bind("127.0.0.1:0").expect("bind shard server");
        let ports: Vec<Port> = (0..2)
            .map(|_| {
                let port = Port::random();
                server.register(port, Arc::new(FileServerHandler::new(Arc::clone(&service))));
                port
            })
            .collect();
        stores.push(RemoteFs::new(TcpClient::new(server.local_addr()), ports));
        servers.push(server);
        replica_sets.push(replicas);
    }
    let ns = NamedStore::create(ShardedStore::new(stores)).expect("named store over TCP");

    ns.mkdir_all("/data/set", Rights::ALL).unwrap();
    let caps: Vec<_> = (0..4)
        .map(|i| {
            ns.create_file(&format!("/data/set/f{i}-r0"), Rights::ALL)
                .unwrap()
        })
        .collect();

    for (round, victim) in [(1usize, 0usize), (2, 1)] {
        // Kill the victim replica of every shard, then rename every path while
        // the cluster runs degraded: each rename's commits land only on the
        // survivor, queueing intentions for the corpse.
        for replicas in &replica_sets {
            replicas.crash(victim);
        }
        for (i, _) in caps.iter().enumerate() {
            ns.rename(
                &format!("/data/set/f{i}-r{}", round - 1),
                &format!("/data/set/f{i}-r{round}"),
            )
            .expect("rename during degraded operation");
        }
        let queued: u64 = replica_sets
            .iter()
            .map(|r| r.replica_stats().intentions_recorded)
            .sum();
        assert!(queued > 0, "degraded renames must record intentions");

        // Resync the corpse: byte-level replica agreement everywhere.
        for (shard, replicas) in replica_sets.iter().enumerate() {
            replicas.resync(victim).expect("resync");
            assert!(
                replicas.divergent_blocks().is_empty(),
                "shard {shard}: resync must restore replica agreement (round {round})"
            );
        }

        // The acid test: kill the OTHER replica, so every read is served by
        // the freshly recovered one, and resolve each renamed path cold.
        let other = 1 - victim;
        for replicas in &replica_sets {
            replicas.crash(other);
        }
        ns.clear_cache();
        for (i, cap) in caps.iter().enumerate() {
            assert_eq!(
                ns.resolve(&format!("/data/set/f{i}-r{round}")).unwrap().cap,
                *cap,
                "path f{i} must resolve to the same capability from the \
                 recovered replica alone (round {round})"
            );
        }
        for replicas in &replica_sets {
            replicas.resync(other).expect("restore the other replica");
        }
    }
}

// ---------------------------------------------------------------------------
// Lease coherence: zero-RPC warm reads over the callback channel.
// ---------------------------------------------------------------------------

use afs_client::ClientCache;
use afs_server::{LeaseManager, ServerProcess};
use std::time::{Duration, Instant};

/// The tentpole's accounting proof: with a live lease, a warm revalidate+read
/// cycle on a hot file and a warm revalidated `resolve` cost exactly **zero**
/// RPCs, and a foreign commit's break costs exactly **one** re-validation
/// before the warm path is free again.
#[test]
fn leased_warm_reads_and_resolves_cost_exactly_zero_rpcs() {
    let network = Arc::new(LocalNetwork::new());
    let service = FileService::in_memory();
    let group = ServerGroup::start(&network, &service, 2);
    let counting = Arc::new(CountingTransport::new(network.connect()));
    let remote = RemoteFs::new(Arc::clone(&counting), group.ports());

    // A hot file with one committed page.
    let file = remote.create_file().unwrap();
    let v = remote.create_version(&file).unwrap();
    let page = remote
        .append_page(&v, &PagePath::root(), Bytes::from_static(b"hot"))
        .unwrap();
    remote.commit(&v).unwrap();

    let mut cache = ClientCache::new(&remote);
    cache.revalidate(&file).unwrap(); // cold: one RPC, grants the lease
    cache.read(&file, &page).unwrap(); // fills the page cache

    let before = counting.round_trips();
    for _ in 0..16 {
        cache.revalidate(&file).unwrap();
        assert_eq!(
            cache.read(&file, &page).unwrap(),
            Bytes::from_static(b"hot")
        );
    }
    assert_eq!(
        counting.round_trips() - before,
        0,
        "16 warm revalidate+read cycles under a live lease must cost zero RPCs"
    );
    let stats = remote.stats();
    assert!(stats.leases_granted >= 1, "{stats:?}");
    assert!(stats.zero_rpc_hits >= 16, "{stats:?}");

    // A foreign commit breaks the lease: the *first* revalidation goes back
    // to the wire (exactly one RPC), re-leases, and the path is free again.
    let other = RemoteFs::new(network.connect(), group.ports());
    let w = other.create_version(&file).unwrap();
    other
        .write_page(&w, &page, Bytes::from_static(b"updated"))
        .unwrap();
    other.commit(&w).unwrap();

    let before = counting.round_trips();
    cache.revalidate(&file).unwrap();
    assert_eq!(
        counting.round_trips() - before,
        1,
        "exactly one re-validation RPC after a break"
    );
    assert_eq!(
        cache.read(&file, &page).unwrap(),
        Bytes::from_static(b"updated"),
        "the re-validation discarded the stale page"
    );
    assert!(remote.stats().leases_broken >= 1);
    let before = counting.round_trips();
    for _ in 0..8 {
        cache.revalidate(&file).unwrap();
        cache.read(&file, &page).unwrap();
    }
    assert_eq!(
        counting.round_trips() - before,
        0,
        "the re-validation re-leased the file"
    );

    // Warm *path resolution* rides the same leases: directories are ordinary
    // files, so a revalidated resolve of a 3-deep path costs zero RPCs too.
    let ns = NamedStore::create(&remote).unwrap();
    ns.mkdir_all("/a/b", Rights::ALL).unwrap();
    let cap = ns.create_file("/a/b/c", Rights::ALL).unwrap();
    assert_eq!(ns.resolve("/a/b/c").unwrap().cap, cap); // cold table fetches
    ns.revalidate("/a/b/c").unwrap(); // validates (and leases) every prefix

    let before = counting.round_trips();
    for _ in 0..16 {
        ns.revalidate("/a/b/c").unwrap();
        assert_eq!(ns.resolve("/a/b/c").unwrap().cap, cap);
    }
    assert_eq!(
        counting.round_trips() - before,
        0,
        "16 warm revalidated resolves under live leases must cost zero RPCs"
    );
}

/// The tentpole's hard invariant: a lease never lets a client observe
/// newer-than-committed data, and once a committing writer's break has been
/// acked, the holder never serves the stale value again.
#[test]
fn leases_never_serve_uncommitted_or_post_break_stale_data() {
    let network = Arc::new(LocalNetwork::new());
    let service = FileService::in_memory();
    let group = ServerGroup::start(&network, &service, 1);
    let reader = RemoteFs::new(network.connect(), group.ports());
    let writer = RemoteFs::new(network.connect(), group.ports());

    let file = writer.create_file().unwrap();
    let v = writer.create_version(&file).unwrap();
    let page = writer
        .append_page(&v, &PagePath::root(), Bytes::from_static(b"committed"))
        .unwrap();
    writer.commit(&v).unwrap();

    let mut cache = ClientCache::new(&reader);
    cache.revalidate(&file).unwrap(); // leases the committed state
    assert_eq!(
        cache.read(&file, &page).unwrap(),
        Bytes::from_static(b"committed")
    );

    // An in-flight (uncommitted) update must stay invisible: under the lease
    // the reader keeps serving the *committed* state.
    let w = writer.create_version(&file).unwrap();
    writer
        .write_page(&w, &page, Bytes::from_static(b"uncommitted"))
        .unwrap();
    cache.revalidate(&file).unwrap();
    assert_eq!(
        cache.read(&file, &page).unwrap(),
        Bytes::from_static(b"committed"),
        "a lease must never surface newer-than-committed data"
    );

    // The commit breaks the reader's lease and waits for the ack *before*
    // it completes; once it has returned, the reader must not serve the
    // stale value from any cache layer.
    writer.commit(&w).unwrap();
    assert!(
        reader.stats().leases_broken >= 1,
        "the commit must have broken the reader's lease: {:?}",
        reader.stats()
    );
    cache.revalidate(&file).unwrap();
    assert_eq!(
        cache.read(&file, &page).unwrap(),
        Bytes::from_static(b"uncommitted"), // now the committed state
        "after the acked break the stale value must be gone"
    );
}

/// After the granted ttl lapses the client stops trusting its table on its
/// own — no break, no message — and spends exactly one RPC to re-lease.
#[test]
fn expired_leases_fall_back_to_exactly_one_revalidation() {
    let network = Arc::new(LocalNetwork::new());
    let service = FileService::in_memory();
    let lease = Arc::new(LeaseManager::with_ttl(Duration::from_millis(250)));
    let process = ServerProcess::start_with_lease_manager(Arc::clone(&network), service, lease);
    let counting = Arc::new(CountingTransport::new(network.connect()));
    let remote = RemoteFs::new(Arc::clone(&counting), vec![process.port()]);

    let file = remote.create_file().unwrap();
    let mut cache = ClientCache::new(&remote);
    cache.revalidate(&file).unwrap();

    let before = counting.round_trips();
    cache.revalidate(&file).unwrap();
    assert_eq!(
        counting.round_trips() - before,
        0,
        "a live lease validates for free"
    );

    // The client trusts only a fraction of the granted ttl, counted from
    // before its request was sent: past the full ttl the table must have
    // stopped answering, strictly before the server's own deadline.
    std::thread::sleep(Duration::from_millis(320));
    let before = counting.round_trips();
    cache.revalidate(&file).unwrap();
    assert_eq!(
        counting.round_trips() - before,
        1,
        "an expired lease costs exactly one re-validation"
    );
    let before = counting.round_trips();
    cache.revalidate(&file).unwrap();
    assert_eq!(
        counting.round_trips() - before,
        0,
        "the re-validation re-leased"
    );
}

/// Lease-vs-crash: a dying connection revokes leases on *both* sides.  The
/// server drops the dead peer's grants without waiting for acks that can
/// never come (a committing writer is not delayed by a corpse), and the
/// client, having lost the channel its leases were promised over, drops its
/// whole table and revalidates over the wire.
#[test]
fn fault_connection_death_revokes_leases_on_both_sides() {
    let network = Arc::new(LocalNetwork::new());
    let service = FileService::in_memory();
    let group = ServerGroup::start(&network, &service, 1);
    let conn = network.connect();
    let counting = Arc::new(CountingTransport::new(conn.clone()));
    let reader = RemoteFs::new(Arc::clone(&counting), group.ports());
    let writer = RemoteFs::new(network.connect(), group.ports());

    let file = writer.create_file().unwrap();
    let v = writer.create_version(&file).unwrap();
    let page = writer
        .append_page(&v, &PagePath::root(), Bytes::from_static(b"v1"))
        .unwrap();
    writer.commit(&v).unwrap();

    let mut cache = ClientCache::new(&reader);
    cache.revalidate(&file).unwrap();
    cache.read(&file, &page).unwrap();
    let before = counting.round_trips();
    cache.revalidate(&file).unwrap();
    assert_eq!(counting.round_trips() - before, 0, "leased while alive");

    // The reader's connection dies: its channel can deliver nothing and
    // will never ack a break.
    conn.kill();
    let start = Instant::now();
    let w = writer.create_version(&file).unwrap();
    writer
        .write_page(&w, &page, Bytes::from_static(b"v2"))
        .unwrap();
    writer.commit(&w).unwrap();
    assert!(
        start.elapsed() < afs_server::DEFAULT_LEASE_TTL / 2,
        "a dead lease holder must not delay the committing writer"
    );

    // The reader reconnects (same stub, channel state lost): its table was
    // cleared on connection loss, so it revalidates over the wire, sees the
    // new data — and, with no live channel, is granted no further leases.
    let before = counting.round_trips();
    cache.revalidate(&file).unwrap();
    assert_eq!(counting.round_trips() - before, 1);
    assert_eq!(cache.read(&file, &page).unwrap(), Bytes::from_static(b"v2"));
    let before = counting.round_trips();
    cache.revalidate(&file).unwrap();
    assert_eq!(
        counting.round_trips() - before,
        1,
        "no lease is trusted without a live callback channel"
    );
}
