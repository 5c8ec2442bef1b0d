//! In-memory block store: the "small fast electronic disk" of §4.

use std::collections::{BTreeMap, BTreeSet};

use bytes::Bytes;
use parking_lot::Mutex;

use crate::store::{BlockStore, StoreStats};
use crate::{BlockError, BlockNr, Result, MAX_BLOCK_NR};

/// Default block size: 36 KiB, enough for a 32 KiB page plus the file-service header.
pub const DEFAULT_BLOCK_SIZE: usize = 36 * 1024;

#[derive(Debug, Default)]
struct Inner {
    blocks: BTreeMap<BlockNr, Bytes>,
    next_hint: BlockNr,
    stats: StoreStats,
}

/// A block store kept entirely in memory.
///
/// `MemStore` is the workhorse of the test suite and the benchmarks: it gives
/// deterministic, instantaneous "disk" behaviour so experiments measure the
/// concurrency-control algorithms rather than the host filesystem.
#[derive(Debug)]
pub struct MemStore {
    block_size: usize,
    capacity: Option<usize>,
    inner: Mutex<Inner>,
}

impl MemStore {
    /// Creates an unbounded in-memory store with the default block size.
    pub fn new() -> Self {
        Self::with_block_size(DEFAULT_BLOCK_SIZE)
    }

    /// Creates an unbounded store with the given block size.
    pub fn with_block_size(block_size: usize) -> Self {
        MemStore {
            block_size,
            capacity: None,
            inner: Mutex::new(Inner::default()),
        }
    }

    /// Creates a store that refuses to hold more than `capacity` blocks at once.
    pub fn with_capacity(block_size: usize, capacity: usize) -> Self {
        MemStore {
            block_size,
            capacity: Some(capacity),
            inner: Mutex::new(Inner::default()),
        }
    }

    fn find_free(&self, inner: &Inner) -> Result<BlockNr> {
        if let Some(cap) = self.capacity {
            if inner.blocks.len() >= cap {
                return Err(BlockError::Full);
            }
        }
        // Start scanning at the hint; wrap around once.
        let start = inner.next_hint;
        let mut candidate = start;
        loop {
            if !inner.blocks.contains_key(&candidate) {
                return Ok(candidate);
            }
            candidate = if candidate == MAX_BLOCK_NR {
                0
            } else {
                candidate + 1
            };
            if candidate == start {
                return Err(BlockError::Full);
            }
        }
    }
}

impl Default for MemStore {
    fn default() -> Self {
        Self::new()
    }
}

impl BlockStore for MemStore {
    fn block_size(&self) -> usize {
        self.block_size
    }

    fn allocate(&self) -> Result<BlockNr> {
        let mut inner = self.inner.lock();
        let nr = self.find_free(&inner)?;
        inner.blocks.insert(nr, Bytes::new());
        inner.next_hint = if nr == MAX_BLOCK_NR { 0 } else { nr + 1 };
        inner.stats.allocations += 1;
        Ok(nr)
    }

    fn allocate_at(&self, nr: BlockNr) -> Result<()> {
        if nr > MAX_BLOCK_NR {
            return Err(BlockError::NoSuchBlock(nr));
        }
        let mut inner = self.inner.lock();
        if inner.blocks.contains_key(&nr) {
            return Err(BlockError::AlreadyAllocated(nr));
        }
        if let Some(cap) = self.capacity {
            if inner.blocks.len() >= cap {
                return Err(BlockError::Full);
            }
        }
        inner.blocks.insert(nr, Bytes::new());
        inner.stats.allocations += 1;
        Ok(())
    }

    fn free(&self, nr: BlockNr) -> Result<()> {
        let mut inner = self.inner.lock();
        if inner.blocks.remove(&nr).is_none() {
            return Err(BlockError::NoSuchBlock(nr));
        }
        inner.stats.frees += 1;
        Ok(())
    }

    fn read(&self, nr: BlockNr) -> Result<Bytes> {
        let mut inner = self.inner.lock();
        let data = inner
            .blocks
            .get(&nr)
            .cloned()
            .ok_or(BlockError::NoSuchBlock(nr))?;
        inner.stats.reads += 1;
        inner.stats.bytes_read += data.len() as u64;
        Ok(data)
    }

    fn write(&self, nr: BlockNr, data: Bytes) -> Result<()> {
        if data.len() > self.block_size {
            return Err(BlockError::TooLarge {
                got: data.len(),
                max: self.block_size,
            });
        }
        let mut inner = self.inner.lock();
        if !inner.blocks.contains_key(&nr) {
            return Err(BlockError::NoSuchBlock(nr));
        }
        inner.stats.writes += 1;
        inner.stats.write_calls += 1;
        inner.stats.bytes_written += data.len() as u64;
        inner.blocks.insert(nr, data);
        Ok(())
    }

    fn write_batch(&self, writes: &[(BlockNr, Bytes)]) -> Result<()> {
        // One lock acquisition for the whole batch, validated up front so the
        // call applies all entries or none (stronger than the trait's
        // prefix-only guarantee, which in-memory atomicity makes free).
        let mut inner = self.inner.lock();
        let mut fresh = BTreeSet::new();
        for (nr, data) in writes {
            if data.len() > self.block_size {
                return Err(BlockError::TooLarge {
                    got: data.len(),
                    max: self.block_size,
                });
            }
            if *nr > MAX_BLOCK_NR {
                return Err(BlockError::NoSuchBlock(*nr));
            }
            if !inner.blocks.contains_key(nr) {
                fresh.insert(*nr);
            }
        }
        if let Some(cap) = self.capacity {
            if inner.blocks.len() + fresh.len() > cap {
                return Err(BlockError::Full);
            }
        }
        // Write-allocate: the fresh entries are allocated by their write.
        inner.stats.allocations += fresh.len() as u64;
        for (nr, data) in writes {
            inner.stats.writes += 1;
            inner.stats.bytes_written += data.len() as u64;
            inner.blocks.insert(*nr, data.clone());
        }
        inner.stats.write_calls += 1;
        Ok(())
    }

    fn is_allocated(&self, nr: BlockNr) -> bool {
        self.inner.lock().blocks.contains_key(&nr)
    }

    fn allocated_count(&self) -> usize {
        self.inner.lock().blocks.len()
    }

    fn stats(&self) -> StoreStats {
        self.inner.lock().stats
    }

    fn allocated_blocks(&self) -> Vec<BlockNr> {
        self.inner.lock().blocks.keys().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_write_read_free_cycle() {
        let store = MemStore::new();
        let nr = store.allocate().unwrap();
        assert!(store.is_allocated(nr));
        store.write(nr, Bytes::from_static(b"hello")).unwrap();
        assert_eq!(store.read(nr).unwrap(), Bytes::from_static(b"hello"));
        store.free(nr).unwrap();
        assert!(!store.is_allocated(nr));
        assert_eq!(store.read(nr), Err(BlockError::NoSuchBlock(nr)));
    }

    #[test]
    fn allocation_numbers_are_distinct() {
        let store = MemStore::new();
        let a = store.allocate().unwrap();
        let b = store.allocate().unwrap();
        let c = store.allocate().unwrap();
        assert_ne!(a, b);
        assert_ne!(b, c);
        assert_eq!(store.allocated_count(), 3);
    }

    #[test]
    fn allocate_at_detects_collisions() {
        let store = MemStore::new();
        store.allocate_at(42).unwrap();
        assert_eq!(store.allocate_at(42), Err(BlockError::AlreadyAllocated(42)));
    }

    #[test]
    fn allocate_at_rejects_out_of_range_numbers() {
        let store = MemStore::new();
        assert_eq!(
            store.allocate_at(MAX_BLOCK_NR + 1),
            Err(BlockError::NoSuchBlock(MAX_BLOCK_NR + 1))
        );
    }

    #[test]
    fn oversized_writes_are_rejected() {
        let store = MemStore::with_block_size(8);
        let nr = store.allocate().unwrap();
        let err = store.write(nr, Bytes::from(vec![0u8; 9])).unwrap_err();
        assert!(matches!(err, BlockError::TooLarge { got: 9, max: 8 }));
    }

    #[test]
    fn capacity_limit_is_enforced() {
        let store = MemStore::with_capacity(16, 2);
        store.allocate().unwrap();
        store.allocate().unwrap();
        assert_eq!(store.allocate(), Err(BlockError::Full));
    }

    #[test]
    fn freed_numbers_can_be_reused() {
        let store = MemStore::with_capacity(16, 1);
        let a = store.allocate().unwrap();
        store.free(a).unwrap();
        let b = store.allocate().unwrap();
        assert!(store.is_allocated(b));
    }

    #[test]
    fn write_to_unallocated_block_fails() {
        let store = MemStore::new();
        assert_eq!(
            store.write(5, Bytes::from_static(b"x")),
            Err(BlockError::NoSuchBlock(5))
        );
    }

    #[test]
    fn stats_track_io() {
        let store = MemStore::new();
        let nr = store.allocate().unwrap();
        store.write(nr, Bytes::from_static(b"abcd")).unwrap();
        store.read(nr).unwrap();
        let s = store.stats();
        assert_eq!(s.allocations, 1);
        assert_eq!(s.writes, 1);
        assert_eq!(s.write_calls, 1);
        assert_eq!(s.reads, 1);
        assert_eq!(s.bytes_written, 4);
        assert_eq!(s.bytes_read, 4);
    }

    #[test]
    fn write_batch_is_one_call_for_many_blocks() {
        let store = MemStore::new();
        let blocks: Vec<BlockNr> = (0..8).map(|_| store.allocate().unwrap()).collect();
        let writes: Vec<(BlockNr, Bytes)> = blocks
            .iter()
            .map(|&nr| (nr, Bytes::from(vec![nr as u8; 16])))
            .collect();
        store.write_batch(&writes).unwrap();
        for &nr in &blocks {
            assert_eq!(store.read(nr).unwrap(), Bytes::from(vec![nr as u8; 16]));
        }
        let s = store.stats();
        assert_eq!(s.writes, 8, "every block counts as written");
        assert_eq!(s.write_calls, 1, "but the batch is one physical call");
    }

    #[test]
    fn write_batch_applies_nothing_on_a_bad_entry() {
        let store = MemStore::with_block_size(8);
        let a = store.allocate().unwrap();
        store.write(a, Bytes::from_static(b"old")).unwrap();
        // A free in-range number would be write-allocated; one past the
        // block-number space never can be.
        let writes = vec![
            (a, Bytes::from_static(b"new")),
            (a + 1, Bytes::from_static(b"fresh")),
            (MAX_BLOCK_NR + 1, Bytes::from_static(b"none")),
        ];
        assert_eq!(
            store.write_batch(&writes),
            Err(BlockError::NoSuchBlock(MAX_BLOCK_NR + 1))
        );
        assert_eq!(store.read(a).unwrap(), Bytes::from_static(b"old"));
        assert!(!store.is_allocated(a + 1), "nothing was write-allocated");
        let oversized = vec![(a, Bytes::from(vec![0u8; 9]))];
        assert!(matches!(
            store.write_batch(&oversized),
            Err(BlockError::TooLarge { .. })
        ));
        assert_eq!(store.read(a).unwrap(), Bytes::from_static(b"old"));
        assert_eq!(store.stats().writes, 1);
    }

    #[test]
    fn write_batch_allocates_free_entries_but_write_does_not() {
        let store = MemStore::with_capacity(16, 3);
        let a = store.allocate().unwrap();
        assert_eq!(
            store.write(a + 5, Bytes::from_static(b"strict")),
            Err(BlockError::NoSuchBlock(a + 5))
        );
        store
            .write_batch(&[
                (a, Bytes::from_static(b"old")),
                (a + 5, Bytes::from_static(b"fresh")),
            ])
            .unwrap();
        assert!(store.is_allocated(a + 5));
        assert_eq!(store.read(a + 5).unwrap(), Bytes::from_static(b"fresh"));
        assert_eq!(store.stats().allocations, 2);
        assert_eq!(store.stats().write_calls, 1);
        // Capacity counts write-allocations too, and a full batch is refused whole.
        assert_eq!(
            store.write_batch(&[(a + 6, Bytes::new()), (a + 7, Bytes::new())]),
            Err(BlockError::Full)
        );
        assert!(!store.is_allocated(a + 6));
    }

    #[test]
    fn allocated_blocks_lists_everything() {
        let store = MemStore::new();
        let a = store.allocate().unwrap();
        let b = store.allocate().unwrap();
        let mut listed = store.allocated_blocks();
        listed.sort_unstable();
        let mut expect = vec![a, b];
        expect.sort_unstable();
        assert_eq!(listed, expect);
    }
}
