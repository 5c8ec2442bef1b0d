//! The Bauer principle (§2): "you should not have to pay for those features you do
//! not need."  A compiler writing a temporary object file before the linker runs
//! does not want replication, sharing or fancy synchronisation — just a quick,
//! reasonably reliable place to put one file.  In the Amoeba design such a file fits
//! in a single 32 KiB page, its update is one version with one page write, and no
//! concurrency-control machinery ever slows it down (commits are all fast-path).
//!
//! ```text
//! cargo run --example compiler_temp
//! ```

use std::time::Instant;

use afs_core::{FileService, FileStoreExt, PagePath, RetryPolicy};
use bytes::Bytes;

fn main() {
    let service = FileService::in_memory();
    let store = &*service;
    let object_code = Bytes::from(vec![0x7fu8; 24 * 1024]); // a 24 KiB object file

    let compilations = 200;
    let start = Instant::now();
    for unit in 0..compilations {
        // One temporary file per compilation unit: create, write one page, commit —
        // a single update transaction through the unified store API.
        let temp = store.create_file().expect("create temp file");
        let outcome = store
            .update_with(&temp, RetryPolicy::default(), |tx| {
                tx.write(&PagePath::root(), object_code.clone())
            })
            .expect("commit");
        assert!(
            outcome.receipt.fast_path,
            "temporary files never need validation"
        );
        if unit == 0 {
            println!("first temp file committed on the fast path, as expected");
        }
    }
    let elapsed = start.elapsed();
    let stats = service.commit_stats();
    println!("wrote {compilations} one-page temporary files in {elapsed:?}");
    println!(
        "  {:.1} µs per file, {} fast-path commits, {} validations, {} conflicts",
        elapsed.as_micros() as f64 / compilations as f64,
        stats.fast_path,
        stats.validated,
        stats.conflicts
    );
    println!(
        "  physical page writes: {}",
        service.block_server().stats().writes
    );
}
