//! Naming-layer scenarios: the `dir_churn` workload over sharded deployments,
//! and the hot-directory rename race — concurrent renames of entries in one
//! directory must all eventually commit through OCC retry, losing nothing.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

use afs_client::ShardedStore;
use afs_core::{
    BlockNr, Bytes, CacheValidation, Capability, CommitReceipt, FileStore, PagePath, Result,
    RetryPolicy,
};
use afs_dir::{DirStore, EntryKind};
use afs_sim::{run_dir_churn, DirChurnRun};
use amoeba_capability::Rights;

/// One client's view of a shared store whose first commit waits at a barrier
/// for every other client's first commit.  Each client has created its
/// version before it commits, and no commit runs before the barrier opens,
/// so the first versions of all clients share one base.
struct FirstCommitsMeet<S> {
    inner: S,
    barrier: Arc<Barrier>,
    met: AtomicBool,
}

impl<S: FileStore> FileStore for FirstCommitsMeet<S> {
    fn create_file(&self) -> Result<Capability> {
        self.inner.create_file()
    }
    fn create_version(&self, file: &Capability) -> Result<Capability> {
        self.inner.create_version(file)
    }
    fn read_page(&self, version: &Capability, path: &PagePath) -> Result<Bytes> {
        self.inner.read_page(version, path)
    }
    fn write_page(&self, version: &Capability, path: &PagePath, data: Bytes) -> Result<()> {
        self.inner.write_page(version, path, data)
    }
    fn append_page(
        &self,
        version: &Capability,
        parent: &PagePath,
        data: Bytes,
    ) -> Result<PagePath> {
        self.inner.append_page(version, parent, data)
    }
    fn insert_page(
        &self,
        version: &Capability,
        parent: &PagePath,
        index: u16,
        data: Bytes,
    ) -> Result<PagePath> {
        self.inner.insert_page(version, parent, index, data)
    }
    fn remove_page(&self, version: &Capability, path: &PagePath) -> Result<()> {
        self.inner.remove_page(version, path)
    }
    fn commit(&self, version: &Capability) -> Result<CommitReceipt> {
        if !self.met.swap(true, Ordering::Relaxed) {
            self.barrier.wait();
        }
        self.inner.commit(version)
    }
    fn abort(&self, version: &Capability) -> Result<()> {
        self.inner.abort(version)
    }
    fn current_version(&self, file: &Capability) -> Result<Capability> {
        self.inner.current_version(file)
    }
    fn read_committed_page(&self, version: &Capability, path: &PagePath) -> Result<Bytes> {
        self.inner.read_committed_page(version, path)
    }
    fn validate_cache(&self, file: &Capability, cached_block: BlockNr) -> Result<CacheValidation> {
        self.inner.validate_cache(file, cached_block)
    }
    fn read_pages(&self, version: &Capability, paths: &[PagePath]) -> Result<Vec<Bytes>> {
        self.inner.read_pages(version, paths)
    }
    fn write_pages(&self, version: &Capability, writes: &[(PagePath, Bytes)]) -> Result<()> {
        self.inner.write_pages(version, writes)
    }
}

/// Concurrent renames on ONE hot directory: every client renames its own
/// entries, so every rename can succeed — but they all contend on the same
/// directory file.  Every client's first rename is held until all of them
/// have read the directory, so OCC conflicts are certain.  All must commit
/// via retry, and no entry may be lost or duplicated.
#[test]
fn concurrent_renames_on_a_hot_directory_all_commit() {
    let (store, _replicas) = ShardedStore::local_replicated(3, 2);
    let store = Arc::new(store);
    let dirs = DirStore::new(Arc::clone(&store));
    let root = dirs.create_root().unwrap();
    let hot = dirs.mkdir(&root, "hot", Rights::ALL).unwrap();

    let threads = 4;
    let per_thread = 6;
    // Pre-populate: each client owns its own entries in the shared directory.
    for t in 0..threads {
        for i in 0..per_thread {
            let file = store.create_file().unwrap();
            dirs.link_with(
                &hot,
                &format!("t{t}-old{i}"),
                file,
                Rights::ALL,
                EntryKind::File,
                RetryPolicy::with_max_attempts(10_000),
            )
            .unwrap();
        }
    }

    // The race: every client renames all of its entries concurrently.
    let barrier = Arc::new(Barrier::new(threads));
    let total_attempts: usize = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for t in 0..threads {
            let dirs = DirStore::new(FirstCommitsMeet {
                inner: Arc::clone(&store),
                barrier: Arc::clone(&barrier),
                met: AtomicBool::new(false),
            });
            handles.push(scope.spawn(move || {
                let mut attempts = 0;
                for i in 0..per_thread {
                    let outcome = dirs
                        .rename_with(
                            &hot,
                            &format!("t{t}-old{i}"),
                            &hot,
                            &format!("t{t}-new{i}"),
                            RetryPolicy::with_max_attempts(10_000),
                        )
                        .expect("every rename must eventually commit");
                    attempts += outcome.attempts;
                }
                attempts
            }));
        }
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    });

    // No entry lost, none duplicated, every rename visible.
    let entries = dirs.read_dir(&hot).unwrap();
    assert_eq!(
        entries.len(),
        threads * per_thread,
        "the rename race must not lose or duplicate entries"
    );
    for t in 0..threads {
        for i in 0..per_thread {
            assert!(
                dirs.lookup_any(&hot, &format!("t{t}-new{i}")).is_ok(),
                "t{t}-new{i} missing after the race"
            );
            assert!(
                dirs.lookup_any(&hot, &format!("t{t}-old{i}")).is_err(),
                "t{t}-old{i} still present after its rename committed"
            );
        }
    }
    // The contention was real: the commits needed more attempts than renames.
    assert!(
        total_attempts > threads * per_thread,
        "a hot directory must force OCC retries (got {total_attempts} attempts \
         for {} renames)",
        threads * per_thread
    );
}

/// The Zipf-skewed churn mix over a local sharded deployment: all operations
/// complete, no name is ever lost to a conflict, and the hot directories show
/// more mutation traffic (higher generation) than the cold ones.
#[test]
fn zipf_churn_concentrates_on_hot_directories_without_losing_ops() {
    let (store, _replicas) = ShardedStore::local_replicated(3, 2);
    let dirs = DirStore::new(&store);
    let root = dirs.create_root().unwrap();

    let run = DirChurnRun {
        clients: 4,
        ops_per_client: 60,
        policy: RetryPolicy::with_max_attempts(10_000),
        config: afs_workload::dir_churn(8, 0.9, 17),
    };
    let result = run_dir_churn(&store, &root, &run);
    assert_eq!(result.committed, 240, "every churn op must complete");
    assert_eq!(result.failed, 0, "client-unique names never collide");
    assert!(result.renames > 0, "the mix must exercise rename");

    // Hot directories absorbed more mutations: generation is the per-directory
    // mutation counter, so the Zipf skew must be visible in it.
    let generations: Vec<u64> = (0..8)
        .map(|i| {
            let dir = dirs
                .lookup_any(&root, &format!("d{i}"))
                .unwrap()
                .as_dir()
                .unwrap();
            dirs.generation(&dir).unwrap()
        })
        .collect();
    let hottest = *generations.iter().max().unwrap();
    let coldest = *generations.iter().min().unwrap();
    assert!(
        hottest > coldest,
        "0.9-Zipf directory skew must produce uneven churn \
         (generations: {generations:?})"
    );
}

/// The identical churn runs over RPC: a `ShardedCluster` behind a
/// `ShardedStore` of remote connections, directories spread over the shards.
#[test]
fn the_churn_runs_over_a_sharded_cluster() {
    use afs_server::ShardedCluster;
    use amoeba_rpc::LocalNetwork;

    let network = Arc::new(LocalNetwork::new());
    let cluster = ShardedCluster::launch(&network, 3, 2, 2);
    let remote = ShardedStore::connect(Arc::clone(&network), cluster.shard_ports());
    let dirs = DirStore::new(&remote);
    let root = dirs.create_root().unwrap();

    let run = DirChurnRun {
        clients: 3,
        ops_per_client: 20,
        policy: RetryPolicy::with_max_attempts(10_000),
        config: afs_workload::dir_churn(6, 0.5, 23),
    };
    let result = run_dir_churn(&remote, &root, &run);
    assert_eq!(result.committed, 60);
    assert_eq!(result.failed, 0);

    // Crash one server process per shard mid-deployment and run again (a
    // fresh seed, so the new clients' names don't collide with round one):
    // the naming layer fails over with the file layer underneath it.
    for shard in 0..cluster.shard_count() {
        cluster.shard(shard).group().process(0).crash();
    }
    let run = DirChurnRun {
        config: afs_workload::dir_churn(6, 0.5, 29),
        ..run
    };
    let result = run_dir_churn(&remote, &root, &run);
    assert_eq!(result.committed, 60);
    assert_eq!(result.failed, 0);

    // Single-replica crashes under the directories lose nothing either: every
    // directory provisioned by the runs is still listable afterwards.
    for shard in 0..cluster.shard_count() {
        cluster.shard(shard).replicas().crash(0);
    }
    for i in 0..6 {
        let dir = dirs
            .lookup_any(&root, &format!("d{i}"))
            .unwrap()
            .as_dir()
            .unwrap();
        dirs.read_dir(&dir).unwrap();
    }
}
