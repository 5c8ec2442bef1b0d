//! The multi-client transaction driver used by the comparison experiments.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use afs_baselines::{ConcurrencyControl, TxAbort, TxProfile};
use afs_workload::{MixConfig, WorkloadGenerator};

use crate::metrics::LatencyStats;

/// How a workload run is shaped.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Number of concurrent client threads.
    pub clients: usize,
    /// Transactions each client must successfully commit.
    pub transactions_per_client: usize,
    /// Maximum retries per transaction before giving up (counted as a failure).
    pub max_retries: usize,
    /// The transaction mix.
    pub mix: MixConfig,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            clients: 4,
            transactions_per_client: 100,
            max_retries: 64,
            mix: MixConfig::default(),
        }
    }
}

/// Aggregate outcome of a workload run.  It holds what the driver itself
/// sees; I/O and RPC counts are read from the objects the caller built
/// (`BlockServer::stats`, `ReplicatedBlockStore::replica_stats`,
/// `RemoteFs::stats`).
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Mechanism name reported by the server.
    pub mechanism: &'static str,
    /// Transactions that eventually committed.
    pub committed: u64,
    /// Aborts observed (every abort is followed by a retry until `max_retries`).
    pub aborts: u64,
    /// Transactions abandoned after exhausting their retries.
    pub gave_up: u64,
    /// Wall-clock duration of the whole run.
    pub elapsed: Duration,
    /// Commit latency statistics (time from first attempt to successful commit).
    pub latency: LatencyStats,
}

impl RunResult {
    /// Committed transactions per second.
    pub fn throughput(&self) -> f64 {
        if self.elapsed.is_zero() {
            return 0.0;
        }
        self.committed as f64 / self.elapsed.as_secs_f64()
    }

    /// Aborts per committed transaction (the redo rate of §6).
    pub fn abort_ratio(&self) -> f64 {
        if self.committed == 0 {
            return self.aborts as f64;
        }
        self.aborts as f64 / self.committed as f64
    }
}

/// Runs the configured workload against a concurrency-control mechanism and collects
/// the outcome.  Files are created up front; each client thread then draws
/// transactions from its own deterministic generator and retries aborted ones.
pub fn run_workload(
    cc: &(impl ConcurrencyControl + 'static + ?Sized),
    config: &RunConfig,
) -> RunResult
where
{
    // Create the working set.
    let files: Vec<u64> = (0..config.mix.files)
        .map(|_| cc.create_file(config.mix.pages_per_file as u32, config.mix.payload))
        .collect();
    let files = Arc::new(files);

    let committed = AtomicU64::new(0);
    let aborts = AtomicU64::new(0);
    let gave_up = AtomicU64::new(0);
    let start = Instant::now();

    let latencies: Vec<Duration> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for client in 0..config.clients {
            let files = Arc::clone(&files);
            let committed = &committed;
            let aborts = &aborts;
            let gave_up = &gave_up;
            let mix = MixConfig {
                seed: config.mix.seed.wrapping_add(client as u64 * 7919),
                ..config.mix.clone()
            };
            let max_retries = config.max_retries;
            let per_client = config.transactions_per_client;
            handles.push(scope.spawn(move || {
                let mut generator = WorkloadGenerator::new(mix);
                let mut rng = StdRng::seed_from_u64(client as u64);
                let mut samples = Vec::with_capacity(per_client);
                for _ in 0..per_client {
                    let spec = generator.next_tx();
                    let profile = TxProfile {
                        reads: spec.reads.clone(),
                        writes: spec
                            .writes
                            .iter()
                            .map(|&p| (p, Bytes::from(vec![client as u8; spec.payload.max(1)])))
                            .collect(),
                    };
                    let file = files[spec.file % files.len()];
                    let begun = Instant::now();
                    let mut attempts = 0usize;
                    loop {
                        match cc.run_transaction(file, &profile) {
                            Ok(_) => {
                                committed.fetch_add(1, Ordering::Relaxed);
                                samples.push(begun.elapsed());
                                break;
                            }
                            Err(TxAbort::Fault(msg)) => {
                                panic!("storage fault during workload: {msg}");
                            }
                            Err(_) => {
                                aborts.fetch_add(1, Ordering::Relaxed);
                                attempts += 1;
                                if attempts > max_retries {
                                    gave_up.fetch_add(1, Ordering::Relaxed);
                                    break;
                                }
                                // Random backoff, as the paper suggests for redoing
                                // conflicting updates.
                                std::thread::sleep(Duration::from_micros(rng.gen_range(0..200)));
                            }
                        }
                    }
                }
                samples
            }));
        }
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    });

    RunResult {
        mechanism: cc.name(),
        committed: committed.load(Ordering::Relaxed),
        aborts: aborts.load(Ordering::Relaxed),
        gave_up: gave_up.load(Ordering::Relaxed),
        elapsed: start.elapsed(),
        latency: LatencyStats::from_samples(latencies),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use afs_baselines::{
        AmoebaAdapter, StoreAdapter, TimestampOrderingServer, TwoPhaseLockingServer,
    };

    fn tiny_config() -> RunConfig {
        RunConfig {
            clients: 3,
            transactions_per_client: 20,
            max_retries: 200,
            mix: MixConfig {
                files: 2,
                pages_per_file: 16,
                reads_per_tx: 1,
                writes_per_tx: 1,
                payload: 32,
                ..MixConfig::default()
            },
        }
    }

    #[test]
    fn amoeba_runs_the_workload_to_completion() {
        let cc = AmoebaAdapter::in_memory();
        let before = cc.service().block_server().stats();
        let result = run_workload(&cc, &tiny_config());
        assert_eq!(result.committed, 60);
        assert_eq!(result.gave_up, 0);
        assert!(result.throughput() > 0.0);
        // Each file's first version page is written through at creation.  A
        // commit that passes its first test is one batch ending in the commit
        // reference.  One that fails it stores its pages as one batch, then
        // rewrites its version page after every serialisable test and stores
        // the commit reference after the last; a conflict stores nothing more.
        let io = cc.service().block_server().stats().since(&before);
        let commits = cc.service().commit_stats();
        let files = tiny_config().mix.files as u64;
        assert_eq!(
            io.write_calls,
            files + commits.fast_path + 2 * commits.validated + commits.validations,
            "{io:?} {commits:?}"
        );
        assert!(io.writes >= io.write_calls, "{io:?}");
    }

    #[test]
    fn two_phase_locking_runs_the_workload_to_completion() {
        let cc = TwoPhaseLockingServer::in_memory();
        let result = run_workload(&cc, &tiny_config());
        assert_eq!(result.committed, 60);
    }

    #[test]
    fn timestamp_ordering_runs_the_workload_to_completion() {
        let cc = TimestampOrderingServer::in_memory();
        let result = run_workload(&cc, &tiny_config());
        assert_eq!(result.committed, 60);
    }

    /// The unified `FileStore` trait means the identical workload harness runs
    /// over the RPC client: wrap a `RemoteFs` in the same adapter and drive it.
    #[test]
    fn the_same_workload_runs_over_rpc() {
        use afs_client::RemoteFs;
        use afs_core::FileService;
        use afs_server::ServerGroup;
        use amoeba_rpc::LocalNetwork;

        let network = Arc::new(LocalNetwork::new());
        let service = FileService::in_memory();
        let group = ServerGroup::start(&network, &service, 2);
        let remote = Arc::new(RemoteFs::new(Arc::clone(&network), group.ports()));
        let cc = StoreAdapter::over(Arc::clone(&remote), "amoeba-occ-rpc");

        let before = remote.stats();
        let result = run_workload(&cc, &tiny_config());
        assert_eq!(result.mechanism, "amoeba-occ-rpc");
        assert_eq!(result.committed, 60);
        assert_eq!(result.gave_up, 0);
        // A healthy in-process network needs no retries and no reconnects.
        let stats = remote.stats().since(&before);
        assert_eq!(stats.retries, 0);
        assert_eq!(stats.reconnects, 0);
        // Batched page ops keep the wire chatter bounded: per transaction one
        // CreateVersion + at most one ReadPages + one WritePages + one Commit
        // (plus setup and retries).
        let per_tx_budget = 5 * (result.committed + result.aborts) + 64;
        assert!(
            network.transaction_count() <= per_tx_budget,
            "expected O(1) RPCs per transaction: {} transactions for {} commits",
            network.transaction_count(),
            result.committed
        );
    }
}
