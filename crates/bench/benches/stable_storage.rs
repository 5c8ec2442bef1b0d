//! E7: write cost of stable storage (§4) — a single disk vs the paper's pair,
//! a 2-member replica set on which every write lands on both disks.

use std::time::Duration;

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, Criterion};

use amoeba_block::{BlockStore, MemStore, ReplicatedBlockStore};

fn bench_stable_storage(c: &mut Criterion) {
    let mut group = c.benchmark_group("stable_storage_write");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(1));
    let payload = Bytes::from(vec![0x5au8; 4096]);

    group.bench_function("single_disk", |b| {
        let disk = MemStore::new();
        let nr = disk.allocate().unwrap();
        b.iter(|| disk.write(nr, payload.clone()).unwrap());
    });

    group.bench_function("replica_set_of_two", |b| {
        let pair = ReplicatedBlockStore::in_memory(2);
        let nr = pair.allocate().unwrap();
        b.iter(|| pair.write(nr, payload.clone()).unwrap());
    });

    group.finish();
}

criterion_group!(benches, bench_stable_storage);
criterion_main!(benches);
