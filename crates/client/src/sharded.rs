//! [`ShardedStore`]: the client-side shard router.
//!
//! The paper's file service is *distributed*: files live on many servers, and a
//! client finds the server holding a file from the file's capability — there is
//! no directory service on the request path.  `ShardedStore` reproduces that
//! topology over the [`FileStore`] trait: it holds one store per shard (a local
//! [`afs_core::FileService`] or a [`crate::RemoteFs`] connection to that shard's
//! server group) and routes every operation by
//! [`amoeba_capability::shard_of`], the pure placement function over the
//! capability's object id.
//!
//! Placement works because each shard's service mints object ids from its own
//! residue class (`ServiceConfig::object_id_offset` / `object_id_stride`), so
//! the capability *is* the location: no lookup, no routing state, and any
//! client computes the same answer.  `create_file` — the only operation with no
//! capability yet — picks the shard round-robin; every capability derived from
//! the file (versions, restricted rights) routes home by construction.
//!
//! Because `ShardedStore` implements `FileStore`, everything written against
//! the trait — the retrying [`afs_core::FileStoreExt::update`] API, the
//! [`crate::ClientCache`], the workload harness, the conformance suite — runs
//! over N shards unchanged.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use bytes::Bytes;

use afs_core::{
    BlockServer, CacheValidation, CommitReceipt, FileService, FileStore, FsError, PagePath,
    ReplicatedBlockStore, Result, ServiceConfig,
};
use amoeba_capability::{shard_of, Capability};
use amoeba_rpc::Transport;

/// A client-side router implementing [`FileStore`] over N independent shards.
pub struct ShardedStore<S: FileStore> {
    shards: Vec<S>,
    /// Round-robin cursor for `create_file` placement.
    next: AtomicUsize,
}

impl<S: FileStore> ShardedStore<S> {
    /// Builds a router over the given shard stores, in shard order: element `i`
    /// must be the store whose service mints object ids ≡ `i` (mod `shards.len()`).
    pub fn new(shards: Vec<S>) -> Self {
        assert!(
            !shards.is_empty(),
            "a sharded store needs at least one shard"
        );
        ShardedStore {
            shards,
            next: AtomicUsize::new(0),
        }
    }

    /// Number of shards behind this router.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard stores, in shard order.
    pub fn shards(&self) -> &[S] {
        &self.shards
    }

    /// Direct access to one shard's store (for instrumentation and tests).
    pub fn shard(&self, idx: usize) -> &S {
        &self.shards[idx]
    }

    /// The shard that owns the object `cap` names.
    pub fn shard_for(&self, cap: &Capability) -> &S {
        &self.shards[shard_of(cap, self.shards.len())]
    }
}

impl ShardedStore<Arc<FileService>> {
    /// Builds an all-local sharded deployment: `shards` services, each over its
    /// own [`ReplicatedBlockStore`] of `replicas_per_shard` in-memory disks,
    /// with the object-id namespace partitioned so capabilities route home.
    /// Returns the router and the per-shard replica sets (for crash/resync
    /// experiments).
    pub fn local_replicated(
        shards: usize,
        replicas_per_shard: usize,
    ) -> (Self, Vec<Arc<ReplicatedBlockStore>>) {
        Self::local_replicated_with_config(shards, replicas_per_shard, ServiceConfig::default())
    }

    /// [`ShardedStore::local_replicated`] with an explicit per-shard service
    /// configuration (the object-id partition fields are overwritten per shard).
    pub fn local_replicated_with_config(
        shards: usize,
        replicas_per_shard: usize,
        config: ServiceConfig,
    ) -> (Self, Vec<Arc<ReplicatedBlockStore>>) {
        let replica_sets: Vec<Arc<ReplicatedBlockStore>> = (0..shards)
            .map(|_| ReplicatedBlockStore::in_memory(replicas_per_shard))
            .collect();
        let services = replica_sets
            .iter()
            .enumerate()
            .map(|(i, replicas)| {
                FileService::for_shard(
                    Arc::new(BlockServer::new(Arc::clone(replicas) as _)),
                    i,
                    shards,
                    config.clone(),
                )
            })
            .collect();
        (Self::new(services), replica_sets)
    }
}

impl<T: Transport> ShardedStore<crate::RemoteFs<T>>
where
    T: Clone,
{
    /// Connects to a remote sharded deployment: one [`crate::RemoteFs`] per
    /// shard, each given that shard's server-process ports in preference order.
    pub fn connect(transport: T, shard_ports: Vec<Vec<amoeba_capability::Port>>) -> Self {
        Self::new(
            shard_ports
                .into_iter()
                .map(|ports| crate::RemoteFs::new(transport.clone(), ports))
                .collect(),
        )
    }
}

impl<S: FileStore> FileStore for ShardedStore<S> {
    fn create_file(&self) -> Result<Capability> {
        // No capability exists yet, so placement is a policy choice; round-robin
        // spreads files evenly.  Every later operation routes by the capability.
        let idx = self.next.fetch_add(1, Ordering::Relaxed) % self.shards.len();
        let cap = self.shards[idx].create_file()?;
        if shard_of(&cap, self.shards.len()) != idx {
            // The shard's service is not minting from its residue class: every
            // subsequent operation on this file would be routed to the wrong
            // server.  Fail loudly instead of corrupting the namespace.
            return Err(FsError::Protocol(format!(
                "shard {idx} minted object {} which routes to shard {} — \
                 misconfigured object-id partition",
                cap.object,
                shard_of(&cap, self.shards.len())
            )));
        }
        Ok(cap)
    }

    fn create_version(&self, file: &Capability) -> Result<Capability> {
        self.shard_for(file).create_version(file)
    }

    fn read_page(&self, version: &Capability, path: &PagePath) -> Result<Bytes> {
        self.shard_for(version).read_page(version, path)
    }

    fn write_page(&self, version: &Capability, path: &PagePath, data: Bytes) -> Result<()> {
        self.shard_for(version).write_page(version, path, data)
    }

    fn append_page(
        &self,
        version: &Capability,
        parent: &PagePath,
        data: Bytes,
    ) -> Result<PagePath> {
        self.shard_for(version).append_page(version, parent, data)
    }

    fn insert_page(
        &self,
        version: &Capability,
        parent: &PagePath,
        index: u16,
        data: Bytes,
    ) -> Result<PagePath> {
        self.shard_for(version)
            .insert_page(version, parent, index, data)
    }

    fn remove_page(&self, version: &Capability, path: &PagePath) -> Result<()> {
        self.shard_for(version).remove_page(version, path)
    }

    fn commit(&self, version: &Capability) -> Result<CommitReceipt> {
        self.shard_for(version).commit(version)
    }

    fn abort(&self, version: &Capability) -> Result<()> {
        self.shard_for(version).abort(version)
    }

    fn current_version(&self, file: &Capability) -> Result<Capability> {
        self.shard_for(file).current_version(file)
    }

    fn read_committed_page(&self, version: &Capability, path: &PagePath) -> Result<Bytes> {
        self.shard_for(version).read_committed_page(version, path)
    }

    fn validate_cache(
        &self,
        file: &Capability,
        cached_block: afs_core::BlockNr,
    ) -> Result<CacheValidation> {
        self.shard_for(file).validate_cache(file, cached_block)
    }

    fn read_pages(&self, version: &Capability, paths: &[PagePath]) -> Result<Vec<Bytes>> {
        self.shard_for(version).read_pages(version, paths)
    }

    fn write_pages(&self, version: &Capability, writes: &[(PagePath, Bytes)]) -> Result<()> {
        self.shard_for(version).write_pages(version, writes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use afs_core::FileStoreExt;

    fn local(shards: usize) -> ShardedStore<Arc<FileService>> {
        ShardedStore::local_replicated(shards, 2).0
    }

    #[test]
    fn files_spread_across_shards_and_route_home() {
        let store = local(3);
        let files: Vec<Capability> = (0..9).map(|_| store.create_file().unwrap()).collect();
        // Round-robin placement: three files per shard.
        for shard in 0..3 {
            assert_eq!(
                files.iter().filter(|f| shard_of(f, 3) == shard).count(),
                3,
                "shard {shard} got an uneven share"
            );
        }
        // Every file is fully usable through the router.
        for (i, file) in files.iter().enumerate() {
            let page = store
                .update(file, |tx| {
                    tx.append(&PagePath::root(), Bytes::from(vec![i as u8]))
                })
                .unwrap();
            let current = store.current_version(file).unwrap();
            assert_eq!(
                store.read_committed_page(&current, &page).unwrap(),
                Bytes::from(vec![i as u8])
            );
        }
    }

    #[test]
    fn version_capabilities_route_to_their_file_shard() {
        let store = local(4);
        for _ in 0..8 {
            let file = store.create_file().unwrap();
            let version = store.create_version(&file).unwrap();
            assert_eq!(shard_of(&version, 4), shard_of(&file, 4));
            store.abort(&version).unwrap();
        }
    }

    #[test]
    fn a_single_shard_router_is_transparent() {
        let store = local(1);
        let file = store.create_file().unwrap();
        let page = store
            .update(&file, |tx| {
                tx.append(&PagePath::root(), Bytes::from_static(b"degenerate"))
            })
            .unwrap();
        let current = store.current_version(&file).unwrap();
        assert_eq!(
            store.read_committed_page(&current, &page).unwrap(),
            Bytes::from_static(b"degenerate")
        );
    }

    #[test]
    fn misconfigured_shards_are_rejected_at_create() {
        // Two unsharded services (offset 0, stride 1) behind a 2-shard router:
        // shard 1 will mint an id that routes to shard 0 sooner or later.
        let shards: Vec<Arc<FileService>> = (0..2).map(|_| FileService::in_memory()).collect();
        let store = ShardedStore::new(shards);
        let mut saw_protocol_error = false;
        for _ in 0..4 {
            match store.create_file() {
                Ok(_) => {}
                Err(FsError::Protocol(msg)) => {
                    assert!(msg.contains("misconfigured"));
                    saw_protocol_error = true;
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert!(saw_protocol_error, "the misconfiguration must be caught");
    }

    #[test]
    fn committed_data_survives_any_single_replica_crash() {
        let (store, replica_sets) = ShardedStore::local_replicated(3, 2);
        let mut pages = Vec::new();
        for i in 0..6u8 {
            let file = store.create_file().unwrap();
            let page = store
                .update(&file, |tx| {
                    tx.append(&PagePath::root(), Bytes::from(vec![i; 32]))
                })
                .unwrap();
            pages.push((file, page, i));
        }
        // Kill replica 0 of every shard: read-one fails over to replica 1.
        for replicas in &replica_sets {
            replicas.crash(0);
        }
        for (file, page, i) in &pages {
            let current = store.current_version(file).unwrap();
            assert_eq!(
                store.read_committed_page(&current, page).unwrap(),
                Bytes::from(vec![*i; 32]),
                "committed data lost after a single-replica crash"
            );
        }
    }
}
