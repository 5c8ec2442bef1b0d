//! Integration tests for the write-back page path: durability is established at
//! commit time (the paper's "first it ascertains that all of V.b's pages are safely
//! on disk"), not per page access.

use std::sync::Arc;

use bytes::Bytes;

use afs_core::{
    BlockServer, Capability, FileService, MemStore, PagePath, ServiceConfig, VersionState,
};

/// Builds a committed file with a depth-2 path root → interior → leaf and returns
/// the leaf path.
fn deep_file(service: &FileService) -> (Capability, PagePath) {
    let file = service.create_file().unwrap();
    let v = service.create_version(&file).unwrap();
    let interior = service
        .append_page(&v, &PagePath::root(), Bytes::from_static(b"interior"))
        .unwrap();
    let leaf = service
        .append_page(&v, &interior, Bytes::from_static(b"leaf"))
        .unwrap();
    service.commit(&v).unwrap();
    (file, leaf)
}

#[test]
fn repeated_writes_cost_o_dirty_pages_at_commit_not_o_k_depth() {
    let service = FileService::in_memory();
    let (file, leaf) = deep_file(&service);

    const K: usize = 50;
    // Version creation itself performs one physical write: the top-lock
    // test-and-set on the shared current version page.  Measure after it.
    let v = service.create_version(&file).unwrap();
    let before = service.io_stats();
    for i in 0..K {
        service
            .write_page(&v, &leaf, Bytes::from(vec![i as u8; 64]))
            .unwrap();
    }
    let staged = service.io_stats().since(&before);
    assert_eq!(
        staged.page_writes, 0,
        "uncommitted page writes must stay in the write-back buffer"
    );

    service.commit(&v).unwrap();
    let total = service.io_stats().since(&before);
    // The flush writes the dirty pages once each (leaf copy, interior copy, version
    // page); commit adds the commit-reference test-and-set and the lock clear.
    // Writing every staged page through would cost O(K · depth) writes instead.
    assert!(
        total.pages_flushed_at_commit <= 4,
        "expected O(dirty) flushed pages, got {total:?}"
    );
    assert!(
        (total.page_writes as usize) < K,
        "expected O(dirty) physical writes for {K} logical writes, got {total:?}"
    );

    // The committed contents are the last write.
    let current = service.current_version(&file).unwrap();
    assert_eq!(
        service.read_committed_page(&current, &leaf).unwrap(),
        Bytes::from(vec![(K - 1) as u8; 64])
    );
}

#[test]
fn crash_before_commit_recovers_the_version_as_aborted() {
    let block_server = Arc::new(BlockServer::new(Arc::new(MemStore::new())));
    let service = FileService::new(Arc::clone(&block_server));
    let account = service.storage_account();

    let file = service.create_file().unwrap();
    let v = service.create_version(&file).unwrap();
    let page = service
        .append_page(&v, &PagePath::root(), Bytes::from_static(b"durable"))
        .unwrap();
    service.commit(&v).unwrap();

    // An update in progress: buffered only, never committed.
    let pending = service.create_version(&file).unwrap();
    service
        .write_page(&pending, &page, Bytes::from_static(b"volatile"))
        .unwrap();
    let blocks_before_crash = block_server.store().allocated_count();

    // The server process dies; the write-back buffer dies with it.
    drop(service);

    let (recovered, report) = FileService::recover_from_storage(
        Arc::clone(&block_server),
        account,
        ServiceConfig::default(),
    )
    .unwrap();
    assert_eq!(report.files.len(), 1);
    assert!(
        report.freed_unflushed > 0,
        "the unflushed version's blocks are crash garbage: {report:?}"
    );
    // The uncommitted update is gone without trace: only the committed chain
    // remains, and its contents are the committed ones.
    let tree = recovered.family_tree(&report.files[0]).unwrap();
    assert!(tree.uncommitted.is_empty());
    let current = recovered.current_version(&report.files[0]).unwrap();
    assert_eq!(
        recovered.version_state(&current).unwrap(),
        VersionState::Committed
    );
    assert_eq!(
        recovered.read_committed_page(&current, &page).unwrap(),
        Bytes::from_static(b"durable")
    );
    assert!(
        block_server.store().allocated_count() < blocks_before_crash,
        "recovery must reclaim the unflushed blocks"
    );
}

#[test]
fn aborts_drop_the_buffer_without_physical_writes() {
    let service = FileService::in_memory();
    let (file, leaf) = deep_file(&service);
    // Creating and aborting a version each write the shared current version page
    // once (top-lock set and clear); everything in between must cost nothing.
    let v = service.create_version(&file).unwrap();
    let before = service.io_stats();
    for i in 0..20u8 {
        service.write_page(&v, &leaf, Bytes::from(vec![i])).unwrap();
    }
    let staged = service.io_stats().since(&before);
    assert_eq!(
        staged.page_writes, 0,
        "an aborted buffered update must never touch the disk: {staged:?}"
    );
    service.abort_version(&v).unwrap();
    let delta = service.io_stats().since(&before);
    assert_eq!(delta.pages_flushed_at_commit, 0);
    // The committed state is untouched.
    let current = service.current_version(&file).unwrap();
    assert_eq!(
        service.read_committed_page(&current, &leaf).unwrap(),
        Bytes::from_static(b"leaf")
    );
}

#[test]
fn concurrent_committers_share_the_cache_and_stay_correct() {
    let service = FileService::in_memory();
    let file = service.create_file().unwrap();
    let setup = service.create_version(&file).unwrap();
    let mut paths = Vec::new();
    for i in 0..8u8 {
        paths.push(
            service
                .append_page(&setup, &PagePath::root(), Bytes::from(vec![i]))
                .unwrap(),
        );
    }
    service.commit(&setup).unwrap();
    let paths = Arc::new(paths);

    std::thread::scope(|scope| {
        for t in 0..4usize {
            let service = Arc::clone(&service);
            let paths = Arc::clone(&paths);
            scope.spawn(move || {
                for round in 0..25usize {
                    loop {
                        let v = service.create_version(&file).unwrap();
                        let path = &paths[(t * 2 + round) % paths.len()];
                        service
                            .write_page(&v, path, Bytes::from(vec![t as u8, round as u8]))
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

    // All committed state is readable and the cache produced hits.
    let current = service.current_version(&file).unwrap();
    for path in paths.iter() {
        service.read_committed_page(&current, path).unwrap();
    }
    assert!(service.io_stats().cache_hits > 0);
}

// ---------------------------------------------------------------------------
// Batched commit flush (PR 4).
// ---------------------------------------------------------------------------

/// Commits a version with `dirty` freshly appended pages and returns the
/// `(page_writes, block_write_calls)` delta of the commit itself.
fn commit_cost(service: &FileService, file: &Capability, dirty: usize) -> (u64, u64) {
    let v = service.create_version(file).unwrap();
    for i in 0..dirty {
        service
            .append_page(&v, &PagePath::root(), Bytes::from(vec![i as u8; 64]))
            .unwrap();
    }
    let before = service.io_stats();
    service.commit(&v).unwrap();
    let delta = service.io_stats().since(&before);
    (delta.page_writes, delta.block_write_calls)
}

#[test]
fn a_k_dirty_page_commit_costs_o1_block_write_calls() {
    let service = FileService::in_memory();
    let file = service.create_file().unwrap();

    let (writes_small, calls_small) = commit_cost(&service, &file, 4);
    let (writes_large, calls_large) = commit_cost(&service, &file, 32);

    // Pages written grow with the dirty set…
    assert!(writes_large > writes_small);
    assert!(writes_large >= 32);
    // …but the physical write calls do not: one data-page batch, one version
    // page, one commit-reference test-and-set.
    assert_eq!(
        calls_small, calls_large,
        "write calls must not grow with the dirty-page count"
    );
    assert!(
        calls_large <= 3,
        "a commit is 1 batch + 1 version page + 1 test-and-set, got {calls_large}"
    );
}

#[test]
fn replica_killed_mid_commit_batch_is_fully_replayed_by_resync() {
    use amoeba_block::{BlockStore, FaultyStore, ReplicatedBlockStore};

    let disks: Vec<Arc<FaultyStore<MemStore>>> = (0..2)
        .map(|_| Arc::new(FaultyStore::new(MemStore::new())))
        .collect();
    let replicas = ReplicatedBlockStore::new(
        disks
            .iter()
            .map(|d| Arc::clone(d) as Arc<dyn BlockStore>)
            .collect(),
    );
    // The page cache is disabled so the final reads provably come from the
    // recovered replica's disk.
    let service = FileService::with_config(
        Arc::new(BlockServer::new(
            Arc::clone(&replicas) as Arc<dyn BlockStore>
        )),
        ServiceConfig {
            flag_cache_capacity: None,
            ..ServiceConfig::default()
        },
    );
    let file = service.create_file().unwrap();
    let v = service.create_version(&file).unwrap();
    let paths: Vec<PagePath> = (0..8u8)
        .map(|i| {
            service
                .append_page(&v, &PagePath::root(), Bytes::from(vec![i; 48]))
                .unwrap()
        })
        .collect();

    // Replica 1's disk dies after 3 more block writes: the commit's data-page
    // batch is cut off mid-stream on that replica.  The commit must still
    // succeed on the survivor, with the whole batch queued as an intention.
    disks[1].crash_after_writes(3);
    service.commit(&v).unwrap();
    assert!(
        replicas.is_down(1),
        "the mid-batch corpse was auto-detected"
    );
    assert!(
        replicas.replica_stats().intentions_recorded > 0,
        "the missed batch must be queued for resync"
    );
    assert!(!replicas.divergent_blocks().is_empty());

    // Recover the disk, resync the replica: the whole batch is replayed.
    disks[1].recover();
    replicas.resync(1).unwrap();
    assert!(
        replicas.divergent_blocks().is_empty(),
        "resync must replay the full batch, not just a suffix"
    );

    // The acid test: serve everything from the recovered replica alone.
    replicas.crash(0);
    let current = service.current_version(&file).unwrap();
    for (i, path) in paths.iter().enumerate() {
        assert_eq!(
            service.read_committed_page(&current, path).unwrap(),
            Bytes::from(vec![i as u8; 48]),
            "committed page {i} lost on the resynced replica"
        );
    }
}
