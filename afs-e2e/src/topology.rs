//! The deployment under test, assembled in one process over loopback TCP.
//!
//! ```text
//! client thread ─ NamedStore / ClientCache / update_with
//!   └ [client.store] RemoteFs ─ [rpc.file] TcpClient(1 conn) ══ TCP ══ TcpServer
//!       └ [server.file] FileServerHandler ─ FileService ─ BlockServer
//!           └ [core.block] ReplicatedBlockStore (quorum of 3)
//!               └ 3 × [block.remote] RemoteBlockStore ─ [rpc.block] TcpClient ══ TCP ══ TcpServer
//!                   └ [server.block] BlockServerHandler ─ BlockServer ─ [block.store] MemStore
//! ```
//!
//! Bracketed names are the benchmark's decorators (see [`crate::trace`]).
//! Every workload gets a freshly built copy of exactly this.

use std::sync::Arc;

use afs_client::RemoteFs;
use afs_core::{FileService, Port};
use afs_server::{BlockServerHandler, FileServerHandler, FsOp, RemoteBlockStore};
use amoeba_block::{BlockServer, BlockStore, ReplicatedBlockStore};
use amoeba_rpc::tcp::TcpServer;

use crate::trace::{
    Layer, Recorder, TracedBlockStore, TracedHandler, TracedStore, TracedTransport,
};

pub const REPLICAS: usize = 3;

/// Makes the disk of replica `i`.  The serving path uses `MemStore`; the
/// `#[ignore]`d reproducer substitutes the file-backed store.
pub type StoreFactory<'a> = &'a dyn Fn(usize) -> Arc<dyn BlockStore>;

pub struct Topology {
    pub rec: Arc<Recorder>,
    pub service: Arc<FileService>,
    pub replica_set: Arc<ReplicatedBlockStore>,
    pub core_block: Arc<TracedBlockStore>,
    pub block_transports: Vec<Arc<TracedTransport>>,
    pub mem_seams: Vec<Arc<TracedBlockStore>>,
    /// The undecorated disks, for the stored-bytes audit.
    pub disks: Vec<Arc<dyn BlockStore>>,
    file_server: TcpServer,
    block_servers: Vec<TcpServer>,
}

fn bind() -> Result<TcpServer, String> {
    TcpServer::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))
}

impl Topology {
    pub fn build(rec: &Arc<Recorder>, make_disk: StoreFactory) -> Result<Self, String> {
        let mut block_servers = Vec::new();
        let mut block_transports = Vec::new();
        let mut mem_seams = Vec::new();
        let mut disks = Vec::new();
        let mut remotes: Vec<Arc<dyn BlockStore>> = Vec::new();
        for lane in 0..REPLICAS {
            let disk = make_disk(lane);
            let seam = Arc::new(TracedBlockStore::new(
                Arc::clone(&disk),
                rec,
                Layer::BlockStore,
                lane,
                lane == 0,
            ));
            let handler = BlockServerHandler::new(Arc::new(BlockServer::new(seam.clone())));
            let server = bind()?;
            let port = Port::random();
            server.register(
                port,
                Arc::new(TracedHandler::new(
                    Arc::new(handler),
                    rec,
                    Layer::ServerBlock,
                    lane,
                )),
            );
            let transport = Arc::new(TracedTransport::connect(
                server.local_addr(),
                rec,
                Layer::RpcBlock,
                lane,
                None,
            ));
            let remote = RemoteBlockStore::connect(Arc::clone(&transport), port)
                .map_err(|e| format!("connect to block server {lane}: {e}"))?;
            remotes.push(Arc::new(TracedBlockStore::new(
                Arc::new(remote),
                rec,
                Layer::BlockRemote,
                lane,
                false,
            )));
            block_servers.push(server);
            block_transports.push(transport);
            mem_seams.push(seam);
            disks.push(disk);
        }

        let replica_set = ReplicatedBlockStore::new(remotes);
        let core_block = Arc::new(TracedBlockStore::new(
            replica_set.clone(),
            rec,
            Layer::CoreBlock,
            0,
            false,
        ));
        let service = FileService::new(Arc::new(BlockServer::new(core_block.clone())));

        let file_server = bind()?;
        file_server.register(
            service.port(),
            Arc::new(TracedHandler::new(
                Arc::new(FileServerHandler::new(Arc::clone(&service))),
                rec,
                Layer::ServerFile,
                0,
            )),
        );
        Ok(Topology {
            rec: Arc::clone(rec),
            service,
            replica_set,
            core_block,
            block_transports,
            mem_seams,
            disks,
            file_server,
            block_servers,
        })
    }

    /// A client machine: its own connection, lease table and decorators.
    pub fn connect(&self, lane: usize) -> (Arc<TracedStore>, Arc<TracedTransport>) {
        let transport = Arc::new(TracedTransport::connect(
            self.file_server.local_addr(),
            &self.rec,
            Layer::RpcFile,
            lane,
            Some(FsOp::ValidateCache as u32),
        ));
        let remote = RemoteFs::new(Arc::clone(&transport), vec![self.service.port()]);
        let store = Arc::new(TracedStore::new(Box::new(remote), &self.rec, lane));
        (store, transport)
    }

    /// The same `FileStore` seam with no client, wire or handler under it:
    /// calls go straight into the `FileService` (the local pass).
    pub fn local_store(&self) -> Arc<TracedStore> {
        Arc::new(TracedStore::new(
            Box::new(Arc::clone(&self.service)),
            &self.rec,
            0,
        ))
    }

    /// Bytes held by the three disks.
    pub fn stored_bytes(&self) -> Result<u64, String> {
        let mut total = 0u64;
        for disk in &self.disks {
            for nr in disk.allocated_blocks() {
                total += disk
                    .read(nr)
                    .map_err(|e| format!("audit read {nr}: {e}"))?
                    .len() as u64;
            }
        }
        Ok(total)
    }

    /// Stops every server.  Call after all clients are dropped.
    pub fn shutdown(self) {
        let Topology {
            service,
            replica_set,
            core_block,
            mut file_server,
            mut block_servers,
            ..
        } = self;
        file_server.shutdown();
        drop(file_server);
        drop((service, core_block));
        // The last reference: joins the replica workers while the block
        // servers are still answering.
        drop(replica_set);
        for server in &mut block_servers {
            server.shutdown();
        }
    }
}
