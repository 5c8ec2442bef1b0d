//! Server processes, replicated server groups, and the sharded multi-server
//! cluster harness.

use std::sync::Arc;

use afs_core::{BlockServer, FileService, ReplicatedBlockStore, ServiceConfig};
use amoeba_capability::Port;
use amoeba_rpc::LocalNetwork;

use crate::handler::FileServerHandler;
use crate::lease::LeaseManager;

/// One file-server process: a port on the network behind which a handler serves the
/// shared file-service state.  Crashing the process makes the port unreachable; the
/// data (and any companion processes) are unaffected.
pub struct ServerProcess {
    port: Port,
    network: Arc<LocalNetwork>,
    service: Arc<FileService>,
}

impl ServerProcess {
    /// Starts a server process on a fresh port of `network`, with its own
    /// lease manager (a standalone process is its own one-member group).
    pub fn start(network: Arc<LocalNetwork>, service: Arc<FileService>) -> Self {
        Self::start_with_lease_manager(network, service, Arc::new(LeaseManager::new()))
    }

    /// Starts a server process sharing the group-wide lease manager: a
    /// commit arriving at any process of a group must settle leases granted
    /// through every other, so the grant table cannot be per-process.
    pub fn start_with_lease_manager(
        network: Arc<LocalNetwork>,
        service: Arc<FileService>,
        lease: Arc<LeaseManager>,
    ) -> Self {
        let port = Port::random();
        network.register(
            port,
            Arc::new(FileServerHandler::with_lease_manager(
                Arc::clone(&service),
                lease,
            )),
        );
        ServerProcess {
            port,
            network,
            service,
        }
    }

    /// The port clients address this process by.
    pub fn port(&self) -> Port {
        self.port
    }

    /// Simulates a crash of this server process: it stops answering requests.
    /// Committed data is untouched because it lives in the block service.
    pub fn crash(&self) {
        self.network.isolate(self.port);
    }

    /// Restarts the process after a crash.  No recovery work is needed beyond
    /// becoming reachable again — the paper's central robustness claim.
    pub fn restart(&self) {
        self.network.restore(self.port);
    }

    /// The underlying shared file service (e.g. for reporting crashed lock holders).
    pub fn service(&self) -> &Arc<FileService> {
        &self.service
    }
}

/// A group of replicated server processes serving the same file service, as in
/// §5.4.1: "version access and file access can be guaranteed as long as one or more
/// servers are operational".  The group shares one [`LeaseManager`]: leases
/// granted through any member are settled by commits through any other.
pub struct ServerGroup {
    processes: Vec<ServerProcess>,
    lease: Arc<LeaseManager>,
}

impl ServerGroup {
    /// Starts `replicas` processes over one shared file service and one
    /// shared lease manager.
    pub fn start(network: &Arc<LocalNetwork>, service: &Arc<FileService>, replicas: usize) -> Self {
        let lease = Arc::new(LeaseManager::new());
        let processes = (0..replicas)
            .map(|_| {
                ServerProcess::start_with_lease_manager(
                    Arc::clone(network),
                    Arc::clone(service),
                    Arc::clone(&lease),
                )
            })
            .collect();
        ServerGroup { processes, lease }
    }

    /// The group-wide lease manager.
    pub fn lease_manager(&self) -> &Arc<LeaseManager> {
        &self.lease
    }

    /// The ports of all replicas, in preference order.
    pub fn ports(&self) -> Vec<Port> {
        self.processes.iter().map(ServerProcess::port).collect()
    }

    /// Access to an individual replica.
    pub fn process(&self, idx: usize) -> &ServerProcess {
        &self.processes[idx]
    }

    /// Number of replicas.
    pub fn len(&self) -> usize {
        self.processes.len()
    }

    /// True if the group has no replicas.
    pub fn is_empty(&self) -> bool {
        self.processes.is_empty()
    }
}

/// One shard of a [`ShardedCluster`]: a file service over its own replicated
/// block storage, fronted by a group of replicated server processes.
pub struct ClusterShard {
    service: Arc<FileService>,
    replicas: Arc<ReplicatedBlockStore>,
    group: ServerGroup,
    /// The shard's block-server processes when its replica disks live behind
    /// RPC ([`ShardedCluster::launch_remote_storage`]); empty for in-process
    /// disks.
    block_processes: Vec<crate::block::BlockServerProcess>,
}

impl ClusterShard {
    /// The shard's file service (shared by all its server processes).
    pub fn service(&self) -> &Arc<FileService> {
        &self.service
    }

    /// The shard's replica set (for crash/resync experiments).
    pub fn replicas(&self) -> &Arc<ReplicatedBlockStore> {
        &self.replicas
    }

    /// The shard's server-process group.
    pub fn group(&self) -> &ServerGroup {
        &self.group
    }

    /// The shard's block-server processes (empty unless the cluster was
    /// launched with remote storage).
    pub fn block_processes(&self) -> &[crate::block::BlockServerProcess] {
        &self.block_processes
    }
}

/// The paper's full topology as a launchable harness: N independent file-service
/// shards, each storing its blocks on an M-replica [`ReplicatedBlockStore`] and
/// answering on a group of P replicated server processes.  The object-id
/// namespace is partitioned across shards (`FileService::for_shard`), so a
/// client routes every capability to its shard without any directory lookup —
/// see `afs_client::ShardedStore`.
pub struct ShardedCluster {
    shards: Vec<ClusterShard>,
}

impl ShardedCluster {
    /// Launches a cluster on `network`: `shards` file services, each over
    /// `replicas_per_shard` in-memory disks, each served by
    /// `processes_per_shard` server processes.
    pub fn launch(
        network: &Arc<LocalNetwork>,
        shards: usize,
        replicas_per_shard: usize,
        processes_per_shard: usize,
    ) -> Self {
        Self::launch_with_config(
            network,
            shards,
            replicas_per_shard,
            processes_per_shard,
            ServiceConfig::default(),
        )
    }

    /// [`ShardedCluster::launch`] with an explicit per-shard service
    /// configuration (the object-id partition fields are set per shard).
    pub fn launch_with_config(
        network: &Arc<LocalNetwork>,
        shards: usize,
        replicas_per_shard: usize,
        processes_per_shard: usize,
        config: ServiceConfig,
    ) -> Self {
        assert!(shards > 0, "a cluster needs at least one shard");
        let shards = (0..shards)
            .map(|shard| {
                let replicas = ReplicatedBlockStore::in_memory(replicas_per_shard);
                let service = FileService::for_shard(
                    Arc::new(BlockServer::new(Arc::clone(&replicas) as _)),
                    shard,
                    shards,
                    config.clone(),
                );
                let group = ServerGroup::start(network, &service, processes_per_shard);
                ClusterShard {
                    service,
                    replicas,
                    group,
                    block_processes: Vec::new(),
                }
            })
            .collect();
        ShardedCluster { shards }
    }

    /// The paper's topology with the storage tier behind RPC too: each shard's
    /// replica disks are [`crate::block::BlockServerProcess`]es reached through
    /// [`crate::block::RemoteBlockStore`] connections, so every commit flush
    /// travels to each replica as one `WriteBlocks` scatter-gather request.
    /// Crash a block process via [`ClusterShard::block_processes`] and the
    /// shard runs degraded, queueing intentions until the process restarts and
    /// the replica is resynced.
    pub fn launch_remote_storage(
        network: &Arc<LocalNetwork>,
        shards: usize,
        replicas_per_shard: usize,
        processes_per_shard: usize,
        config: ServiceConfig,
    ) -> Self {
        assert!(shards > 0, "a cluster needs at least one shard");
        let shards = (0..shards)
            .map(|shard| {
                let (replicas, block_processes) =
                    crate::block::remote_replica_set(network, replicas_per_shard);
                let service = FileService::for_shard(
                    Arc::new(BlockServer::new(Arc::clone(&replicas) as _)),
                    shard,
                    shards,
                    config.clone(),
                );
                let group = ServerGroup::start(network, &service, processes_per_shard);
                ClusterShard {
                    service,
                    replicas,
                    group,
                    block_processes,
                }
            })
            .collect();
        ShardedCluster { shards }
    }

    /// Number of shards in the cluster.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Access to one shard.
    pub fn shard(&self, idx: usize) -> &ClusterShard {
        &self.shards[idx]
    }

    /// The server ports of every shard, in shard order — the argument
    /// `afs_client::ShardedStore::connect` expects.
    pub fn shard_ports(&self) -> Vec<Vec<Port>> {
        self.shards.iter().map(|s| s.group.ports()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{decode_capability, FsOp};
    use amoeba_capability::Capability;
    use amoeba_rpc::{Request, RpcError, Transport};

    #[test]
    fn crashed_process_stops_answering_until_restart() {
        let network = Arc::new(LocalNetwork::new());
        let service = FileService::in_memory();
        let process = ServerProcess::start(Arc::clone(&network), service);
        let request = Request::empty(FsOp::CreateFile as u32, Capability::null());
        assert!(network.transact(process.port(), request.clone()).is_ok());
        process.crash();
        assert_eq!(
            network.transact(process.port(), request.clone()),
            Err(RpcError::ServerCrashed)
        );
        process.restart();
        assert!(network.transact(process.port(), request).is_ok());
    }

    #[test]
    fn a_sharded_cluster_partitions_the_object_namespace() {
        let network = Arc::new(LocalNetwork::new());
        let cluster = ShardedCluster::launch(&network, 3, 2, 2);
        assert_eq!(cluster.shard_count(), 3);
        assert_eq!(cluster.shard_ports().len(), 3);
        for shard in 0..3 {
            assert_eq!(cluster.shard(shard).group().len(), 2);
            assert_eq!(cluster.shard(shard).replicas().replica_count(), 2);
            // Each shard mints from its own residue class.
            let reply = network
                .transact(
                    cluster.shard(shard).group().ports()[0],
                    Request::empty(FsOp::CreateFile as u32, Capability::null()),
                )
                .unwrap();
            let cap = decode_capability(reply.payload).unwrap();
            assert_eq!(
                amoeba_capability::shard_of(&cap, 3),
                shard,
                "object {} minted by shard {shard} does not route home",
                cap.object
            );
        }
    }

    #[test]
    fn replicas_serve_the_same_files() {
        let network = Arc::new(LocalNetwork::new());
        let service = FileService::in_memory();
        let group = ServerGroup::start(&network, &service, 3);
        assert_eq!(group.len(), 3);
        // Create a file through replica 0 and look it up through replica 2.
        let reply = network
            .transact(
                group.ports()[0],
                Request::empty(FsOp::CreateFile as u32, Capability::null()),
            )
            .unwrap();
        let file_cap = decode_capability(reply.payload).unwrap();
        let reply = network
            .transact(
                group.ports()[2],
                Request::empty(FsOp::CurrentVersion as u32, file_cap),
            )
            .unwrap();
        assert!(reply.is_ok());
    }
}
