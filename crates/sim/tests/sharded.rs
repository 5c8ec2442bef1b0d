//! Multi-shard workload scenarios: the experiment harness driving a
//! `ShardedStore` — hot-shard skew, a one-replica crash with resync, and a
//! whole-shard outage with recovery — all through the same `run_workload`
//! driver every unsharded scenario uses.

use std::sync::Arc;

use afs_baselines::StoreAdapter;
use afs_client::ShardedStore;
use afs_core::{FileService, FileStore};
use afs_sim::{run_workload, RunConfig, RunResult};
use afs_workload::sharded_mix;
use amoeba_block::BlockStore;

const SHARDS: usize = 3;
const REPLICAS: usize = 2;

type LocalSharded = ShardedStore<Arc<FileService>>;

fn sharded_adapter() -> (
    StoreAdapter<LocalSharded>,
    Vec<Arc<afs_core::ReplicatedBlockStore>>,
) {
    let (store, replica_sets) = ShardedStore::local_replicated(SHARDS, REPLICAS);
    (
        StoreAdapter::over(store, "amoeba-occ-sharded"),
        replica_sets,
    )
}

/// The blocks each shard has written, summed over its replicas' disks.
fn shard_writes(replica_sets: &[Arc<afs_core::ReplicatedBlockStore>]) -> Vec<u64> {
    replica_sets
        .iter()
        .map(|set| {
            set.quiesce();
            set.stats().writes
        })
        .collect()
}

/// Runs `mix` on a fresh deployment.  Returns the run and the blocks each
/// shard wrote for its transactions: the run's writes less those of a run
/// that only creates the files (creation is deterministic).
fn run_sharded(mix: afs_workload::MixConfig) -> (RunResult, Vec<u64>) {
    let creation_only = RunConfig {
        transactions_per_client: 0,
        ..config(mix.clone())
    };
    let (cc, replica_sets) = sharded_adapter();
    run_workload(&cc, &creation_only);
    let creation = shard_writes(&replica_sets);

    let (cc, replica_sets) = sharded_adapter();
    let result = run_workload(&cc, &config(mix));
    let writes = shard_writes(&replica_sets)
        .iter()
        .zip(&creation)
        .map(|(all, creation)| all - creation)
        .collect();
    (result, writes)
}

fn config(mix: afs_workload::MixConfig) -> RunConfig {
    RunConfig {
        clients: 4,
        transactions_per_client: 60,
        max_retries: 10_000,
        mix,
    }
}

/// Uniform multi-file traffic spreads physical I/O over every shard.
#[test]
fn uniform_load_reaches_every_shard() {
    let (result, per_shard) = run_sharded(sharded_mix(12, 16, 0.0, 11));
    assert_eq!(result.committed, 240);
    assert_eq!(result.gave_up, 0);

    assert_eq!(per_shard.len(), SHARDS);
    for (shard, writes) in per_shard.iter().enumerate() {
        assert!(*writes > 0, "shard {shard} saw no writes");
    }
}

/// Zipf-skewed file choice concentrates traffic on the shard holding the
/// popular files (files are placed round-robin, so file 0 — the hottest — lands
/// on shard 0).  The deployment must absorb the skew without starving anyone.
#[test]
fn hot_shard_skew_is_visible_in_per_shard_io() {
    let (result, per_shard) = run_sharded(sharded_mix(12, 16, 0.95, 13));
    assert_eq!(result.committed, 240);
    assert_eq!(result.gave_up, 0);

    let hottest = *per_shard.iter().max().expect("some shard");
    let coldest = *per_shard.iter().min().expect("some shard");
    assert!(
        hottest > coldest,
        "a 0.95-Zipf file skew must produce uneven shard load \
         (hottest={hottest}, coldest={coldest})"
    );
    assert!(coldest > 0, "cold shards still make progress");
}

/// Killing one replica of one shard mid-deployment loses nothing: writes
/// continue in degraded mode with intentions recorded, resync restores
/// read-one/write-all agreement, and every committed page is still readable.
#[test]
fn one_replica_crash_loses_no_committed_data() {
    let (cc, replica_sets) = sharded_adapter();

    // Phase 1: healthy traffic.
    let result = run_workload(&cc, &config(sharded_mix(9, 16, 0.0, 17)));
    assert_eq!(result.committed, 240);

    // Phase 2: replica 0 of shard 1 crashes; the workload continues in
    // degraded write-all mode on that shard.
    replica_sets[1].crash(0);
    let result = run_workload(&cc, &config(sharded_mix(9, 16, 0.0, 19)));
    assert_eq!(result.committed, 240, "degraded mode must not lose commits");
    assert_eq!(result.gave_up, 0);
    let stats = replica_sets[1].replica_stats();
    assert!(
        stats.intentions_recorded > 0,
        "the crashed replica must accumulate intentions"
    );

    // Phase 3: resync, then verify agreement and another healthy run.
    let applied = replica_sets[1].resync(0).expect("resync");
    assert!(applied as u64 >= stats.intentions_recorded);
    assert!(
        replica_sets[1].divergent_blocks().is_empty(),
        "resync must restore read-one/write-all agreement"
    );
    let result = run_workload(&cc, &config(sharded_mix(9, 16, 0.0, 23)));
    assert_eq!(result.committed, 240);
}

/// A whole-shard outage (every replica down) fails only the traffic routed to
/// that shard; the others keep serving.  After recovery the shard's committed
/// data is intact.
#[test]
fn whole_shard_crash_and_recover() {
    // Disable the server-side page cache so reads during the outage genuinely
    // hit the (crashed) block storage instead of being served from memory.
    let (store, replica_sets) = ShardedStore::local_replicated_with_config(
        SHARDS,
        REPLICAS,
        afs_core::ServiceConfig {
            flag_cache_capacity: None,
            ..afs_core::ServiceConfig::default()
        },
    );
    let store = Arc::new(store);

    // Commit one page per file, two files per shard.
    use afs_core::{FileStoreExt, PagePath};
    let mut files = Vec::new();
    for i in 0..(2 * SHARDS) as u8 {
        let file = store.create_file().unwrap();
        let page = store
            .update(&file, |tx| {
                tx.append(&PagePath::root(), afs_core::Bytes::from(vec![i; 48]))
            })
            .unwrap();
        files.push((file, page, i));
    }

    // Take shard 0 down entirely.
    replica_sets[0].crash(0);
    replica_sets[0].crash(1);

    for (file, page, i) in &files {
        let shard = afs_core::shard_of(file, SHARDS);
        let attempt = store
            .current_version(file)
            .and_then(|current| store.read_committed_page(&current, page));
        if shard == 0 {
            assert!(
                attempt.is_err(),
                "shard 0 is down; reads of its files must fail"
            );
        } else {
            assert_eq!(
                attempt.expect("other shards keep serving"),
                afs_core::Bytes::from(vec![*i; 48])
            );
        }
    }

    // Recover the whole shard: both replicas resync (no intentions were
    // recordable while *all* replicas were down — writes were refused, which is
    // why nothing can diverge).
    replica_sets[0].resync(0).expect("resync replica 0");
    replica_sets[0].resync(1).expect("resync replica 1");
    assert!(replica_sets[0].divergent_blocks().is_empty());

    for (file, page, i) in &files {
        let current = store.current_version(file).unwrap();
        assert_eq!(
            store.read_committed_page(&current, page).unwrap(),
            afs_core::Bytes::from(vec![*i; 48]),
            "committed data must survive a whole-shard outage"
        );
    }

    // And the shard takes new traffic again.
    let cc = StoreAdapter::over(Arc::clone(&store), "amoeba-occ-sharded");
    let result = run_workload(&cc, &config(sharded_mix(6, 8, 0.0, 29)));
    assert_eq!(result.committed, 240);
    assert_eq!(result.gave_up, 0);
}

/// The identical sharded workload runs over RPC: a `ShardedCluster` of server
/// groups, one `RemoteFs` per shard behind the same router.
#[test]
fn the_sharded_workload_runs_over_rpc() {
    use afs_server::ShardedCluster;
    use amoeba_rpc::LocalNetwork;

    let network = Arc::new(LocalNetwork::new());
    let cluster = ShardedCluster::launch(&network, SHARDS, REPLICAS, 2);
    let remote = ShardedStore::connect(Arc::clone(&network), cluster.shard_ports());
    let cc = StoreAdapter::over(remote, "amoeba-occ-sharded-rpc");

    let result = run_workload(&cc, &config(sharded_mix(9, 8, 0.0, 31)));
    assert_eq!(result.mechanism, "amoeba-occ-sharded-rpc");
    assert_eq!(result.committed, 240);
    assert_eq!(result.gave_up, 0);

    // Crash one server process per shard: clients fail over to the replica
    // process, and the run still completes.
    for shard in 0..SHARDS {
        cluster.shard(shard).group().process(0).crash();
    }
    let result = run_workload(&cc, &config(sharded_mix(9, 8, 0.0, 37)));
    assert_eq!(result.committed, 240);
    assert_eq!(result.gave_up, 0);
}
