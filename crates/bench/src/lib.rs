//! Benchmark suite for the Amoeba File Service reproduction.
//!
//! * `benches/` — Criterion micro-benchmarks for the hot paths (page codec, commit
//!   fast path and validation, serialisability-test cost, cache validation, stable
//!   storage, copy-on-write, the one-page fast path, OCC vs locking throughput).
//! * `src/bin/experiments.rs` — the experiment harness binary that regenerates every
//!   figure/claim row catalogued in the `afs_sim::experiments` module docs
//!   (`cargo run -p afs-bench --release --bin experiments -- all`).

#![forbid(unsafe_code)]

use bytes::Bytes;

use afs_core::{Capability, FileService, PagePath};
use std::sync::Arc;

/// Builds a committed file with `n` leaf pages of `payload` bytes each and returns
/// the file capability together with the page paths.  Shared by several benches.
pub fn committed_file(
    service: &Arc<FileService>,
    n: u16,
    payload: usize,
) -> (Capability, Vec<PagePath>) {
    let file = service.create_file().expect("create file");
    let version = service.create_version(&file).expect("create version");
    let mut paths = Vec::with_capacity(n as usize);
    for i in 0..n {
        paths.push(
            service
                .append_page(
                    &version,
                    &PagePath::root(),
                    Bytes::from(vec![(i % 251) as u8; payload]),
                )
                .expect("append page"),
        );
    }
    service.commit(&version).expect("commit");
    (file, paths)
}
