//! Cross-crate integration tests: clients over RPC, replicated servers, the block
//! substrate and the file service working together.

use std::sync::Arc;

use afs_client::{ClientCache, RemoteFs};
use afs_core::{FileService, FileStore, FileStoreExt, PagePath, RetryPolicy, ServiceConfig};
use afs_server::ServerGroup;
use amoeba_block::{BlockServer, BlockStore, FaultyStore, MemStore, ReplicatedBlockStore};
use amoeba_rpc::LocalNetwork;
use bytes::Bytes;

/// A full stack: stable storage under the block server, the file service on
/// top, replicated server processes, and an RPC client driving updates.
#[test]
fn full_stack_update_cycle_over_stable_storage() {
    // The paper's two-disk stable storage is a 2-member replica set: a
    // majority of two is both, so every version page the file service writes
    // lands on both disks before the commit returns.
    let disks: Vec<Arc<FaultyStore<MemStore>>> = (0..2)
        .map(|_| Arc::new(FaultyStore::new(MemStore::new())))
        .collect();
    let set = ReplicatedBlockStore::new(
        disks
            .iter()
            .map(|d| Arc::clone(d) as Arc<dyn BlockStore>)
            .collect(),
    );

    let block_server = Arc::new(BlockServer::new(Arc::clone(&set) as _));
    let service = FileService::new(block_server);
    let network = Arc::new(LocalNetwork::new());
    let group = ServerGroup::start(&network, &service, 3);
    let client = RemoteFs::new(Arc::clone(&network), group.ports());

    let file = client.create_file().unwrap();
    let page = client
        .update(&file, |tx| {
            tx.append(&PagePath::root(), Bytes::from_static(b"integration"))
        })
        .unwrap();

    let current = client.current_version(&file).unwrap();
    assert_eq!(
        client.read_committed_page(&current, &page).unwrap(),
        Bytes::from_static(b"integration")
    );

    // Every block the update produced is on *both* disks.
    set.quiesce();
    let mut held: Vec<Vec<_>> = disks.iter().map(|d| d.allocated_blocks()).collect();
    held.iter_mut().for_each(|blocks| blocks.sort_unstable());
    assert!(!held[0].is_empty());
    assert_eq!(held[0], held[1], "both disks must hold the same blocks");

    // Crash disk 0: all committed data stays readable through the survivor,
    // with no recovery work at the file-service layer.
    disks[0].crash();
    let current = client.current_version(&file).unwrap();
    assert_eq!(
        client.read_committed_page(&current, &page).unwrap(),
        Bytes::from_static(b"integration")
    );

    // Updates keep committing in degraded mode, and recovery replays them.
    let page2 = client
        .update(&file, |tx| {
            tx.append(&PagePath::root(), Bytes::from_static(b"degraded write"))
        })
        .unwrap();
    disks[0].recover();
    let replayed = set.resync(0).unwrap();
    assert!(replayed > 0, "resync must replay the writes disk 0 missed");
    assert_eq!(set.divergent_blocks(), Vec::new());
    let current = client.current_version(&file).unwrap();
    assert_eq!(
        client.read_committed_page(&current, &page2).unwrap(),
        Bytes::from_static(b"degraded write")
    );
}

/// Concurrent clients over RPC: every read-modify-write survives, conflicts are
/// redone, and the final value accounts for every update.
#[test]
fn concurrent_rpc_clients_never_lose_updates() {
    let network = Arc::new(LocalNetwork::new());
    let service = FileService::in_memory();
    let group = ServerGroup::start(&network, &service, 2);
    let bootstrap = RemoteFs::new(Arc::clone(&network), group.ports());

    let file = bootstrap.create_file().unwrap();
    let counter = bootstrap
        .update(&file, |tx| {
            tx.append(&PagePath::root(), Bytes::from(0u64.to_le_bytes().to_vec()))
        })
        .unwrap();

    let clients = 6;
    let increments = 10;
    std::thread::scope(|scope| {
        for _ in 0..clients {
            let network = Arc::clone(&network);
            let ports = group.ports();
            let counter = counter.clone();
            scope.spawn(move || {
                let remote = RemoteFs::new(network, ports);
                for _ in 0..increments {
                    remote
                        .update_with(&file, RetryPolicy::with_max_attempts(10_000), |tx| {
                            let old = tx.read(&counter)?;
                            let value = u64::from_le_bytes(old[..8].try_into().unwrap()) + 1;
                            tx.write(&counter, Bytes::from(value.to_le_bytes().to_vec()))
                        })
                        .unwrap();
                }
            });
        }
    });

    let current = bootstrap.current_version(&file).unwrap();
    let raw = bootstrap.read_committed_page(&current, &counter).unwrap();
    let value = u64::from_le_bytes(raw[..8].try_into().unwrap());
    assert_eq!(value, (clients * increments) as u64);
}

/// A server-process crash mid-update requires no rollback: the client redoes its
/// update through a replica and all committed data stays intact.
#[test]
fn server_crash_requires_no_rollback() {
    let network = Arc::new(LocalNetwork::new());
    let service = FileService::in_memory();
    let group = ServerGroup::start(&network, &service, 2);
    let client = RemoteFs::new(Arc::clone(&network), group.ports());

    let file = client.create_file().unwrap();
    let page = client
        .update(&file, |tx| {
            tx.append(&PagePath::root(), Bytes::from_static(b"before"))
        })
        .unwrap();

    // Update in flight through the primary when it crashes.
    let doomed = client.create_version(&file).unwrap();
    client
        .write_page(&doomed, &page, Bytes::from_static(b"halfway"))
        .unwrap();
    group.process(0).crash();

    // Redo through the replica; committed state was never endangered.
    client
        .update_with(&file, RetryPolicy::with_max_attempts(10), |tx| {
            tx.write(&page, Bytes::from_static(b"after crash"))
        })
        .unwrap();
    let current = client.current_version(&file).unwrap();
    assert_eq!(
        client.read_committed_page(&current, &page).unwrap(),
        Bytes::from_static(b"after crash")
    );
}

/// The client cache stays consistent across remote updates with nothing but
/// validate-on-use — no callbacks from the server.
#[test]
fn client_cache_revalidation_across_clients() {
    let network = Arc::new(LocalNetwork::new());
    let service = FileService::in_memory();
    let group = ServerGroup::start(&network, &service, 1);

    let writer = RemoteFs::new(Arc::clone(&network), group.ports());
    let file = writer.create_file().unwrap();
    let pages = writer
        .update(&file, |tx| {
            let mut pages = Vec::new();
            for i in 0..8u8 {
                pages.push(tx.append(&PagePath::root(), Bytes::from(vec![i]))?);
            }
            Ok(pages)
        })
        .unwrap();

    let mut cache = ClientCache::new(RemoteFs::new(Arc::clone(&network), group.ports()));
    cache.revalidate(&file).unwrap();
    for page in &pages {
        cache.read(&file, page).unwrap();
    }
    assert_eq!(cache.cached_pages(&file), 8);

    // The writer updates two pages; the reader revalidates and keeps the other six.
    for i in [1usize, 5] {
        writer
            .update(&file, |tx| {
                tx.write(&pages[i], Bytes::from_static(b"remote write"))
            })
            .unwrap();
    }
    let dropped = cache.revalidate(&file).unwrap();
    assert_eq!(dropped, 2);
    assert_eq!(cache.cached_pages(&file), 6);
    assert_eq!(
        cache.read(&file, &pages[1]).unwrap(),
        Bytes::from_static(b"remote write")
    );
    assert_eq!(
        cache.read(&file, &pages[0]).unwrap(),
        Bytes::from(vec![0u8])
    );
}

/// Recovery from storage after losing every server process (the §4 recovery
/// operation feeding §5.4.1's robustness claim), driven through the public API.
#[test]
fn recovery_from_blocks_after_total_loss() {
    let block_server = Arc::new(BlockServer::new(Arc::new(MemStore::new())));
    let service = FileService::new(Arc::clone(&block_server));
    let account = service.storage_account();

    let file = service.create_file().unwrap();
    let page = service
        .update(&file, |tx| {
            tx.append(&PagePath::root(), Bytes::from_static(b"must survive"))
        })
        .unwrap();
    drop(service);

    let (recovered, report) =
        FileService::recover_from_storage(block_server, account, ServiceConfig::default()).unwrap();
    assert_eq!(report.files.len(), 1);
    let current = recovered.current_version(&report.files[0]).unwrap();
    assert_eq!(
        recovered.read_committed_page(&current, &page).unwrap(),
        Bytes::from_static(b"must survive")
    );
}
