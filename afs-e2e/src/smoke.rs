//! Self-tests that drive the whole stack: a short run of every workload, the
//! repeatability of the traced counts, and `#[ignore]`d reproducers of the
//! defects found at the seed (README, known gaps).

use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
use std::sync::Arc;
use std::time::{Duration, Instant};

use afs_client::ClientCache;
use afs_core::{FileService, FileStoreExt, PagePath};
use bytes::Bytes;

use crate::run::{self, Plan};
use crate::workload::Workload;

const SHORT: Plan = Plan {
    seconds: 1.0,
    warmup: 0.2,
    setup_reps: 1,
    trace_warmup: 10,
    trace_ops: 60,
};

/// The metric names one section of `BENCHMARK.json` lists.
fn listed(section: &str) -> Vec<String> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let from = text.find(&format!("\"{section}\"")).expect("section");
    let body = &text[from..];
    body[..body.find(']').expect("end of section")]
        .split("\"name\":")
        .skip(1)
        .map(|entry| entry.split('"').nth(1).expect("quoted name").to_string())
        .collect()
}

#[test]
fn every_workload_runs_clean_and_reports_every_listed_metric() {
    assert_eq!(
        listed("workloads"),
        Workload::ALL.map(|w| w.name().to_string())
    );
    for workload in Workload::ALL {
        for (traced, section) in [(false, "end_to_end"), (true, "per_layer")] {
            let outcome = run::run(workload, 11, &SHORT, traced, &crate::out_dir());
            assert_eq!(
                (outcome.failed, &outcome.first_error),
                (0, &None),
                "{workload:?} traced={traced}"
            );
            assert!(outcome.attempted > 0);
            let reported: Vec<String> =
                outcome.metrics.iter().map(|m| m.name.to_string()).collect();
            assert_eq!(reported, listed(section), "{workload:?} {section}");
            assert!(outcome.metrics.iter().all(|m| m.value.is_finite()));
            if !traced {
                assert!(
                    outcome.metrics.iter().all(|m| m.value > 0.0),
                    "{workload:?}: an end-to-end metric is 0"
                );
            }
        }
    }
}

#[test]
fn traced_counts_repeat_exactly() {
    for workload in Workload::ALL {
        let first = run::traced_counts(workload, 5, &SHORT).unwrap();
        let second = run::traced_counts(workload, 5, &SHORT).unwrap();
        assert_eq!(first, second, "{workload:?}");
        assert!(first.iter().any(|&c| c > 0));
    }
}

/// Known gap (a): the file-backed store allocates first-free while the
/// replica set frees asynchronously, so under load with the collector
/// running, allocations collide with frees still queued on another replica.
#[test]
#[ignore = "fails at the seed: disk::FileStore cannot serve under load with GC"]
fn file_backed_disks_serve_commit_small_without_errors() {
    let outcome = run::run_on_disk_stores(
        Workload::CommitSmall,
        3,
        &Plan {
            seconds: 3.0,
            ..SHORT
        },
    );
    assert_eq!((outcome.failed, outcome.first_error), (0, None));
}

/// Known gap (d): `gc_file` marks an uncommitted version's blocks, the version
/// allocates more and commits, and the sweep — which waits on the version's
/// lock and then sees it committed — frees the blocks it never marked.  The
/// benchmark's collector therefore never overlaps an update of the same
/// file; this is what happens when it does.
#[test]
#[ignore = "fails at the seed: gc_file races a multi-call update of the same file"]
fn gc_file_may_overlap_an_update_of_the_same_file() {
    let service = FileService::in_memory();
    let file = service.create_file().unwrap();
    let paths: Vec<PagePath> = service
        .update(&file, |tx| {
            (0..32)
                .map(|i| tx.append(&PagePath::root(), Bytes::from(vec![i as u8; 512])))
                .collect()
        })
        .unwrap();
    let stop = AtomicBool::new(false);
    let first_error = std::thread::scope(|scope| {
        let collector = scope.spawn(|| {
            while !stop.load(SeqCst) {
                service.gc_file(&file).unwrap();
            }
        });
        let until = Instant::now() + Duration::from_secs(10);
        let mut first_error = None;
        let mut round = 0u8;
        while Instant::now() < until && first_error.is_none() {
            round = round.wrapping_add(1);
            // One page per call, as an update that spans several RPCs would.
            first_error = service
                .update(&file, |tx| {
                    paths
                        .iter()
                        .try_for_each(|path| tx.write(path, Bytes::from(vec![round; 512])))
                })
                .err();
        }
        stop.store(true, SeqCst);
        collector.join().unwrap();
        first_error
    });
    assert_eq!(first_error, None);
}

/// Known gap (e): a fresh `ClientCache` entry carries version block 0, so its
/// first revalidation asks the server to diff from block 0 — the first
/// version page of whichever file was created first — to the current version
/// of an unrelated file.  While the collector trims that first file's chain
/// for the first time, the walk runs into blocks freed ahead of it and the
/// revalidation fails.  The benchmark opens every cached file during set-up,
/// before the first collection; this is what happens otherwise.
#[test]
#[ignore = "fails at the seed: first revalidation walks the chain from block 0 while it is trimmed"]
fn first_revalidation_survives_the_first_trim_of_another_file() {
    for _ in 0..200 {
        let service = FileService::in_memory();
        let first = service.create_file().unwrap();
        let other = service.create_file().unwrap();
        for round in 0..200u8 {
            service
                .update(&first, |tx| {
                    tx.write(&PagePath::root(), Bytes::from(vec![round; 64]))
                })
                .unwrap();
        }
        std::thread::scope(|scope| {
            let collector = scope.spawn(|| service.gc_file(&first).unwrap());
            while !collector.is_finished() {
                let mut cache = ClientCache::new(Arc::clone(&service));
                assert_eq!(cache.revalidate(&other), Ok(0));
            }
        });
    }
}
