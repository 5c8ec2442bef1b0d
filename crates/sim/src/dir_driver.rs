//! The multi-client driver of the `dir_churn` naming workload.
//!
//! Mirrors [`crate::driver::run_workload`] one layer up: each client thread
//! draws [`DirChurnOp`]s from its own deterministic generator and applies them
//! through an [`afs_dir::DirStore`] over any [`FileStore`] — so the identical
//! churn stream drives a local service, a sharded router, or a remote
//! connection.  Mutations run as OCC transactions against the hot directory's
//! backing file; the driver counts the retries the conflicts cost, which is
//! the naming layer's analogue of the abort ratio.

use std::sync::atomic::{AtomicU64, Ordering};

use afs_core::{FileStore, RetryPolicy};
use afs_dir::{DirCap, DirError, DirStore, EntryKind};
use afs_workload::{DirChurnConfig, DirChurnGenerator, DirChurnOp};
use amoeba_capability::Rights;

/// How a `dir_churn` run is shaped.
#[derive(Debug, Clone)]
pub struct DirChurnRun {
    /// Number of concurrent client threads.
    pub clients: usize,
    /// Operations each client performs.
    pub ops_per_client: usize,
    /// Retry budget per directory commit.
    pub policy: RetryPolicy,
    /// The operation mix (each client derives its own seed from it).
    pub config: DirChurnConfig,
}

impl Default for DirChurnRun {
    fn default() -> Self {
        DirChurnRun {
            clients: 4,
            ops_per_client: 50,
            policy: RetryPolicy::with_max_attempts(10_000),
            config: afs_workload::dir_churn(8, 0.9, 42),
        }
    }
}

/// Aggregate outcome of a `dir_churn` run.
#[derive(Debug, Clone)]
pub struct DirChurnResult {
    /// Operations that completed successfully.
    pub committed: u64,
    /// Extra OCC attempts spent on directory conflicts (0 = no contention).
    pub retries: u64,
    /// Operations that failed at the directory layer (name collisions etc.;
    /// zero under the generator's client-unique naming discipline).
    pub failed: u64,
    /// Mutating operations among the committed ones.
    pub mutations: u64,
    /// Renames among the committed ones.
    pub renames: u64,
}

/// Creates the run's working set — `config.dirs` directories under `root`,
/// named `d0`, `d1`, … — and returns their capabilities in index order.
/// Existing directories of the same names are reused, so several runs can
/// share one hierarchy.
pub fn provision_dirs<S: FileStore>(
    dirs: &DirStore<S>,
    root: &DirCap,
    config: &DirChurnConfig,
) -> Result<Vec<DirCap>, DirError> {
    let mut caps = Vec::with_capacity(config.dirs);
    for i in 0..config.dirs {
        let name = format!("d{i}");
        let cap = match dirs.mkdir(root, &name, Rights::ALL) {
            Ok(cap) => cap,
            Err(DirError::AlreadyExists(_)) => dirs
                .lookup_any(root, &name)?
                .as_dir()
                .ok_or(DirError::NotADirectory(name))?,
            Err(e) => return Err(e),
        };
        caps.push(cap);
    }
    Ok(caps)
}

/// Runs the configured churn against `store` and collects the outcome.
///
/// Every client gets its own generator seeded from the mix seed, so names
/// never collide across clients and every operation can succeed; directories
/// *do* collide (that is the point), and the retries column reports what the
/// OCC discipline paid for it.
pub fn run_dir_churn<S: FileStore>(store: &S, root: &DirCap, run: &DirChurnRun) -> DirChurnResult {
    let dirs = DirStore::new(store);
    let dir_caps = provision_dirs(&dirs, root, &run.config).expect("provision dir_churn dirs");

    let committed = AtomicU64::new(0);
    let retries = AtomicU64::new(0);
    let failed = AtomicU64::new(0);
    let mutations = AtomicU64::new(0);
    let renames = AtomicU64::new(0);

    std::thread::scope(|scope| {
        for client in 0..run.clients {
            let dir_caps = &dir_caps;
            let committed = &committed;
            let retries = &retries;
            let failed = &failed;
            let mutations = &mutations;
            let renames = &renames;
            let config = DirChurnConfig {
                seed: run.config.seed.wrapping_add(client as u64 * 7919),
                ..run.config.clone()
            };
            let policy = run.policy;
            let ops = run.ops_per_client;
            let dirs = DirStore::new(store);
            scope.spawn(move || {
                let mut generator = DirChurnGenerator::new(config);
                for _ in 0..ops {
                    let op = generator.next_op();
                    let is_mutation = op.is_mutation();
                    let is_rename = matches!(op, DirChurnOp::Rename { .. });
                    let outcome: Result<usize, DirError> = match op {
                        DirChurnOp::MkDir { dir, name } => dirs
                            .mkdir_with(&dir_caps[dir], &name, Rights::ALL, policy)
                            .map(|o| o.attempts),
                        DirChurnOp::Create { dir, name } => match dirs.store().create_file() {
                            Ok(cap) => dirs
                                .link_with(
                                    &dir_caps[dir],
                                    &name,
                                    cap,
                                    Rights::ALL,
                                    EntryKind::File,
                                    policy,
                                )
                                .map(|o| o.attempts),
                            Err(e) => Err(DirError::Fs(e)),
                        },
                        DirChurnOp::Lookup { dir, name } => {
                            dirs.lookup_any(&dir_caps[dir], &name).map(|_| 1)
                        }
                        DirChurnOp::ReadDir { dir } => dirs.read_dir(&dir_caps[dir]).map(|_| 1),
                        DirChurnOp::Rename { dir, from, to } => dirs
                            .rename_with(&dir_caps[dir], &from, &dir_caps[dir], &to, policy)
                            .map(|o| o.attempts),
                    };
                    match outcome {
                        Ok(attempts) => {
                            committed.fetch_add(1, Ordering::Relaxed);
                            retries.fetch_add(attempts.saturating_sub(1) as u64, Ordering::Relaxed);
                            if is_mutation {
                                mutations.fetch_add(1, Ordering::Relaxed);
                            }
                            if is_rename {
                                renames.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        Err(DirError::Fs(e)) => panic!("file service fault during dir_churn: {e}"),
                        Err(_) => {
                            failed.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            });
        }
    });

    DirChurnResult {
        committed: committed.load(Ordering::Relaxed),
        retries: retries.load(Ordering::Relaxed),
        failed: failed.load(Ordering::Relaxed),
        mutations: mutations.load(Ordering::Relaxed),
        renames: renames.load(Ordering::Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use afs_core::FileService;

    #[test]
    fn the_churn_runs_to_completion_over_a_local_service() {
        let service = FileService::in_memory();
        let dirs = DirStore::new(&*service);
        let root = dirs.create_root().unwrap();
        let run = DirChurnRun {
            clients: 3,
            ops_per_client: 20,
            ..DirChurnRun::default()
        };
        let result = run_dir_churn(&*service, &root, &run);
        assert_eq!(result.committed, 60);
        assert_eq!(result.failed, 0, "client-unique names never collide");
        assert!(result.mutations > 0);
    }

    #[test]
    fn provisioning_is_idempotent() {
        let service = FileService::in_memory();
        let dirs = DirStore::new(&*service);
        let root = dirs.create_root().unwrap();
        let config = afs_workload::dir_churn(4, 0.0, 9);
        let a = provision_dirs(&dirs, &root, &config).unwrap();
        let b = provision_dirs(&dirs, &root, &config).unwrap();
        assert_eq!(a, b, "re-provisioning reuses the same directories");
    }
}
