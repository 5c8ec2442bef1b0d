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
    let v = service.create_version(&file).unwrap();
    let before = service.block_server().stats();
    for i in 0..K {
        service
            .write_page(&v, &leaf, Bytes::from(vec![i as u8; 64]))
            .unwrap();
    }
    let staged = service.block_server().stats().since(&before);
    assert_eq!(
        staged.writes, 0,
        "uncommitted page writes must stay in the write-back buffer"
    );

    service.commit(&v).unwrap();
    let total = service.block_server().stats().since(&before);
    // The commit writes the dirty pages once each (leaf copy, interior copy,
    // version page) and the base page with its commit reference, all in one
    // batch.  Writing every staged page through would cost O(K · depth)
    // writes instead.
    assert_eq!(
        (total.writes, total.write_calls),
        (4, 1),
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
    // Nothing between creating and aborting a version may touch the disk.
    let v = service.create_version(&file).unwrap();
    let before = service.block_server().stats();
    for i in 0..20u8 {
        service.write_page(&v, &leaf, Bytes::from(vec![i])).unwrap();
    }
    service.abort_version(&v).unwrap();
    let delta = service.block_server().stats().since(&before);
    assert_eq!(
        (delta.writes, delta.write_calls),
        (0, 0),
        "an aborted buffered update must never touch the disk: {delta:?}"
    );
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
    assert!(service.cache_hits() > 0);
}

// ---------------------------------------------------------------------------
// Batched commit flush (PR 4).
// ---------------------------------------------------------------------------

/// Commits a version with `dirty` freshly appended pages and returns the
/// `(writes, write_calls)` the commit itself made to the store.
fn commit_cost(service: &FileService, file: &Capability, dirty: usize) -> (u64, u64) {
    let v = service.create_version(file).unwrap();
    for i in 0..dirty {
        service
            .append_page(&v, &PagePath::root(), Bytes::from(vec![i as u8; 64]))
            .unwrap();
    }
    let before = service.block_server().stats();
    service.commit(&v).unwrap();
    let delta = service.block_server().stats().since(&before);
    (delta.writes, delta.write_calls)
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
    // …but the physical write calls do not: the data pages, the version page
    // and the commit reference go in one batch.
    assert_eq!(
        calls_small, calls_large,
        "write calls must not grow with the dirty-page count"
    );
    assert_eq!(
        calls_large, 1,
        "a commit is one batch ending in the commit reference, got {calls_large}"
    );
}

#[test]
fn a_one_page_update_of_a_warm_file_reads_no_block_and_makes_one_write_call() {
    let block_server = Arc::new(BlockServer::new(Arc::new(MemStore::new())));
    let service = FileService::new(Arc::clone(&block_server));
    let (file, leaf) = deep_file(&service);
    // Warm, and past the retention depth, so the measured commit also retires.
    for i in 0..10u8 {
        let v = service.create_version(&file).unwrap();
        service.write_page(&v, &leaf, Bytes::from(vec![i])).unwrap();
        service.commit(&v).unwrap();
    }

    let before = block_server.stats();
    let v = service.create_version(&file).unwrap();
    service
        .write_page(&v, &leaf, Bytes::from_static(b"one page"))
        .unwrap();
    service.commit(&v).unwrap();
    let update = block_server.stats().since(&before);
    assert_eq!(
        update.reads, 0,
        "version pages come from memory: {update:?}"
    );
    // The data page, the version page and the commit reference, in one
    // batch.  The small-file top lock is held in memory, so version creation
    // writes nothing.
    assert_eq!(update.write_calls, 1, "{update:?}");
    assert!(update.frees > 0, "the commit retires a version: {update:?}");

    let before = block_server.stats();
    let current = service.current_version(&file).unwrap();
    assert_eq!(block_server.stats().since(&before).reads, 0);
    assert_eq!(
        service.read_committed_page(&current, &leaf).unwrap(),
        Bytes::from_static(b"one page")
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

/// The crash sweep of the commit batch over a replica set: one member's disk
/// dies after every possible prefix of the batch (the data pages, the version
/// page, the base page with its commit reference).  The commit is
/// acknowledged by the other two.  Recovering and resyncing the member must
/// bring it into agreement, and it must then serve the new version alone.
#[test]
fn a_member_cut_anywhere_in_the_commit_batch_resyncs_to_the_new_version() {
    use amoeba_block::{BlockStore, FaultyStore, ReplicatedBlockStore};

    let value = |page: usize, round: u8| Bytes::from(vec![round, page as u8]);
    // A replica set of three faulty disks under a service with the page
    // cache off, so every read below comes from a disk.  Returns the set and
    // a committed file of two pages, quiesced.
    let build = || {
        let disks: Vec<Arc<FaultyStore<MemStore>>> = (0..3)
            .map(|_| Arc::new(FaultyStore::new(MemStore::new())))
            .collect();
        let replicas = ReplicatedBlockStore::new(
            disks
                .iter()
                .map(|d| Arc::clone(d) as Arc<dyn BlockStore>)
                .collect(),
        );
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
        let pages: Vec<PagePath> = (0..2)
            .map(|i| {
                service
                    .append_page(&v, &PagePath::root(), value(i, 1))
                    .unwrap()
            })
            .collect();
        service.commit(&v).unwrap();
        replicas.quiesce();
        (disks, replicas, service, file, pages)
    };
    let update = |service: &FileService, file: &Capability, pages: &[PagePath]| {
        let v = service.create_version(file).unwrap();
        for (i, page) in pages.iter().enumerate() {
            service.write_page(&v, page, value(i, 9)).unwrap();
        }
        service.commit(&v).unwrap();
    };

    // The batch, measured on an uncut run: two data pages, the version page
    // and the base page on every member.  (A faulty disk applies a batch one
    // block at a time, so only the block count is the batch's.)
    let (disks, replicas, service, file, pages) = build();
    let before: Vec<_> = disks.iter().map(|d| d.stats()).collect();
    update(&service, &file, &pages);
    replicas.quiesce();
    let writes: Vec<u64> = disks
        .iter()
        .zip(&before)
        .map(|(d, b)| d.stats().since(b).writes)
        .collect();
    assert_eq!(writes, vec![4; 3]);

    for victim in 0..3 {
        for cut in 0..writes[0] {
            let (disks, replicas, service, file, pages) = build();
            disks[victim].crash_after_writes(cut);
            update(&service, &file, &pages);
            replicas.quiesce();
            assert!(replicas.is_down(victim), "member {victim}, cut {cut}");
            disks[victim].recover();
            replicas.resync(victim).unwrap();
            assert_eq!(
                replicas.divergent_blocks(),
                Vec::<amoeba_block::BlockNr>::new(),
                "member {victim}, cut {cut}"
            );
            // The resynced member alone serves the new version.
            for other in (0..3).filter(|&i| i != victim) {
                replicas.crash(other);
            }
            let current = service.current_version(&file).unwrap();
            for (i, page) in pages.iter().enumerate() {
                assert_eq!(
                    service.read_committed_page(&current, page).unwrap(),
                    value(i, 9),
                    "member {victim}, cut {cut}: page {i}"
                );
            }
            let audit = service.audit().unwrap();
            assert_eq!((audit.leaked, audit.dangling), (0, 0), "{audit:?}");
        }
    }
}
