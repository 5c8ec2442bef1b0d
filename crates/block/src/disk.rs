//! File-backed block store: the "large slow magnetic disk" of §4.
//!
//! Blocks live at fixed offsets in a single backing file, preceded by a small header
//! carrying the payload length and a checksum.  A write is made atomic at the level
//! the paper needs (block granularity) by writing the payload first and the header
//! last; if the process dies in between, the header still describes the old payload
//! length of zero or the write simply never happened from the reader's point of view —
//! a torn write is detected via the checksum and reported as corruption.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;

use bytes::Bytes;
use parking_lot::Mutex;

use crate::store::{BlockStore, StoreStats};
use crate::{BlockError, BlockNr, Result};

/// Per-block on-disk header: length (4 bytes) + checksum (8 bytes) + allocated flag.
const HEADER_SIZE: usize = 4 + 8 + 1;

/// A simple FNV-1a checksum over the block payload.
fn checksum(data: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in data {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[derive(Debug)]
struct Inner {
    file: File,
    allocated: Vec<bool>,
    stats: StoreStats,
}

/// A block store backed by a file on the host filesystem.
///
/// The store pre-sizes its allocation table to `capacity` blocks; the backing file
/// grows lazily as blocks are written.
#[derive(Debug)]
pub struct FileStore {
    block_size: usize,
    capacity: usize,
    sync_writes: bool,
    inner: Mutex<Inner>,
}

impl FileStore {
    /// Creates (or truncates) a file-backed store at `path`.
    ///
    /// `sync_writes` controls whether every block write is followed by `fsync`; the
    /// paper requires the acknowledgement to be returned only once the block is on
    /// disk, but the benchmarks also run with `sync_writes = false` to factor the host
    /// filesystem out of algorithmic comparisons.
    pub fn create(
        path: impl AsRef<Path>,
        block_size: usize,
        capacity: usize,
        sync_writes: bool,
    ) -> Result<Self> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        Ok(FileStore {
            block_size,
            capacity,
            sync_writes,
            inner: Mutex::new(Inner {
                file,
                allocated: vec![false; capacity],
                stats: StoreStats::default(),
            }),
        })
    }

    fn slot_size(&self) -> u64 {
        (HEADER_SIZE + self.block_size) as u64
    }

    fn offset(&self, nr: BlockNr) -> u64 {
        u64::from(nr) * self.slot_size()
    }

    fn check_nr(&self, nr: BlockNr) -> Result<()> {
        if (nr as usize) < self.capacity {
            Ok(())
        } else {
            Err(BlockError::NoSuchBlock(nr))
        }
    }

    /// The careful-write body shared by `write` and `write_batch`: payload
    /// first, header last, no sync and no stats (the caller counts the whole
    /// call once it has fully succeeded, so a mid-call failure never skews the
    /// writes/write_calls ratio).  The caller holds the lock and has validated
    /// the block number, allocation and size.
    fn write_slot(&self, inner: &mut Inner, nr: BlockNr, data: &Bytes) -> Result<()> {
        let off = self.offset(nr);
        // Payload first, header last: the header flips the block to the new contents
        // in one small write.
        inner.file.seek(SeekFrom::Start(off + HEADER_SIZE as u64))?;
        inner.file.write_all(data)?;
        let mut header = [0u8; HEADER_SIZE];
        header[0..4].copy_from_slice(&(data.len() as u32).to_le_bytes());
        header[4..12].copy_from_slice(&checksum(data).to_le_bytes());
        header[12] = 1;
        inner.file.seek(SeekFrom::Start(off))?;
        inner.file.write_all(&header)?;
        Ok(())
    }
}

impl BlockStore for FileStore {
    fn block_size(&self) -> usize {
        self.block_size
    }

    fn allocate(&self) -> Result<BlockNr> {
        let mut inner = self.inner.lock();
        let nr = inner
            .allocated
            .iter()
            .position(|&a| !a)
            .ok_or(BlockError::Full)? as BlockNr;
        inner.allocated[nr as usize] = true;
        inner.stats.allocations += 1;
        Ok(nr)
    }

    fn allocate_at(&self, nr: BlockNr) -> Result<()> {
        self.check_nr(nr)?;
        let mut inner = self.inner.lock();
        if inner.allocated[nr as usize] {
            return Err(BlockError::AlreadyAllocated(nr));
        }
        inner.allocated[nr as usize] = true;
        inner.stats.allocations += 1;
        Ok(())
    }

    fn free(&self, nr: BlockNr) -> Result<()> {
        self.check_nr(nr)?;
        let mut inner = self.inner.lock();
        if !inner.allocated[nr as usize] {
            return Err(BlockError::NoSuchBlock(nr));
        }
        inner.allocated[nr as usize] = false;
        // Zero the header so a later read of a re-allocated block sees empty contents.
        let off = self.offset(nr);
        inner.file.seek(SeekFrom::Start(off))?;
        inner.file.write_all(&[0u8; HEADER_SIZE])?;
        inner.stats.frees += 1;
        Ok(())
    }

    fn read(&self, nr: BlockNr) -> Result<Bytes> {
        self.check_nr(nr)?;
        let mut inner = self.inner.lock();
        if !inner.allocated[nr as usize] {
            return Err(BlockError::NoSuchBlock(nr));
        }
        let off = self.offset(nr);
        let file_len = inner.file.metadata()?.len();
        if off + HEADER_SIZE as u64 > file_len {
            // Never written: empty block.
            inner.stats.reads += 1;
            return Ok(Bytes::new());
        }
        inner.file.seek(SeekFrom::Start(off))?;
        let mut header = [0u8; HEADER_SIZE];
        inner.file.read_exact(&mut header)?;
        let len = u32::from_le_bytes(header[0..4].try_into().unwrap()) as usize;
        let stored_sum = u64::from_le_bytes(header[4..12].try_into().unwrap());
        let written_flag = header[12];
        if written_flag == 0 {
            inner.stats.reads += 1;
            return Ok(Bytes::new());
        }
        if len > self.block_size {
            return Err(BlockError::Corrupted(nr));
        }
        let mut data = vec![0u8; len];
        inner.file.read_exact(&mut data)?;
        if checksum(&data) != stored_sum {
            return Err(BlockError::Corrupted(nr));
        }
        inner.stats.reads += 1;
        inner.stats.bytes_read += len as u64;
        Ok(Bytes::from(data))
    }

    fn write(&self, nr: BlockNr, data: Bytes) -> Result<()> {
        self.check_nr(nr)?;
        if data.len() > self.block_size {
            return Err(BlockError::TooLarge {
                got: data.len(),
                max: self.block_size,
            });
        }
        let mut inner = self.inner.lock();
        if !inner.allocated[nr as usize] {
            return Err(BlockError::NoSuchBlock(nr));
        }
        self.write_slot(&mut inner, nr, &data)?;
        if self.sync_writes {
            inner.file.sync_data()?;
        }
        inner.stats.writes += 1;
        inner.stats.write_calls += 1;
        inner.stats.bytes_written += data.len() as u64;
        Ok(())
    }

    fn write_batch(&self, writes: &[(BlockNr, Bytes)]) -> Result<()> {
        // Validate every entry before touching the disk, then scatter all the
        // slots and pay for a single `fsync` at the end — the scatter-gather
        // win a per-block loop cannot have.  Slots are written in entry order,
        // so a crash mid-batch leaves a prefix applied (children before
        // parents, by the flush discipline of the caller).  A free entry is
        // allocated by its write (write-allocate), just before its slot is.
        for (nr, data) in writes {
            self.check_nr(*nr)?;
            if data.len() > self.block_size {
                return Err(BlockError::TooLarge {
                    got: data.len(),
                    max: self.block_size,
                });
            }
        }
        let mut inner = self.inner.lock();
        for (nr, data) in writes {
            if !inner.allocated[*nr as usize] {
                inner.allocated[*nr as usize] = true;
                inner.stats.allocations += 1;
            }
            self.write_slot(&mut inner, *nr, data)?;
        }
        if self.sync_writes {
            inner.file.sync_data()?;
        }
        inner.stats.writes += writes.len() as u64;
        inner.stats.write_calls += 1;
        inner.stats.bytes_written += writes.iter().map(|(_, d)| d.len() as u64).sum::<u64>();
        Ok(())
    }

    fn is_allocated(&self, nr: BlockNr) -> bool {
        (nr as usize) < self.capacity && self.inner.lock().allocated[nr as usize]
    }

    fn allocated_count(&self) -> usize {
        self.inner.lock().allocated.iter().filter(|&&a| a).count()
    }

    fn stats(&self) -> StoreStats {
        self.inner.lock().stats
    }

    fn allocated_blocks(&self) -> Vec<BlockNr> {
        self.inner
            .lock()
            .allocated
            .iter()
            .enumerate()
            .filter(|(_, &a)| a)
            .map(|(i, _)| i as BlockNr)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_store(block_size: usize, capacity: usize) -> (FileStore, std::path::PathBuf) {
        let path = std::env::temp_dir().join(format!(
            "afs-filestore-{}-{}.bin",
            std::process::id(),
            rand::random::<u64>()
        ));
        let store = FileStore::create(&path, block_size, capacity, false).unwrap();
        (store, path)
    }

    #[test]
    fn write_read_round_trip() {
        let (store, path) = temp_store(64, 8);
        let nr = store.allocate().unwrap();
        store.write(nr, Bytes::from_static(b"persistent")).unwrap();
        assert_eq!(store.read(nr).unwrap(), Bytes::from_static(b"persistent"));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn unwritten_block_reads_empty() {
        let (store, path) = temp_store(64, 8);
        let nr = store.allocate().unwrap();
        assert_eq!(store.read(nr).unwrap(), Bytes::new());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn capacity_is_enforced() {
        let (store, path) = temp_store(64, 2);
        store.allocate().unwrap();
        store.allocate().unwrap();
        assert_eq!(store.allocate(), Err(BlockError::Full));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn free_then_reallocate_reads_empty() {
        let (store, path) = temp_store(64, 4);
        let nr = store.allocate().unwrap();
        store.write(nr, Bytes::from_static(b"old data")).unwrap();
        store.free(nr).unwrap();
        store.allocate_at(nr).unwrap();
        assert_eq!(store.read(nr).unwrap(), Bytes::new());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn overwrite_replaces_contents() {
        let (store, path) = temp_store(64, 4);
        let nr = store.allocate().unwrap();
        store.write(nr, Bytes::from_static(b"version one")).unwrap();
        store.write(nr, Bytes::from_static(b"two")).unwrap();
        assert_eq!(store.read(nr).unwrap(), Bytes::from_static(b"two"));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn out_of_range_block_is_rejected() {
        let (store, path) = temp_store(64, 2);
        assert_eq!(store.read(5), Err(BlockError::NoSuchBlock(5)));
        assert_eq!(store.allocate_at(5), Err(BlockError::NoSuchBlock(5)));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn write_batch_scatters_and_reads_back() {
        let (store, path) = temp_store(64, 8);
        let blocks: Vec<BlockNr> = (0..4).map(|_| store.allocate().unwrap()).collect();
        let writes: Vec<(BlockNr, Bytes)> = blocks
            .iter()
            .map(|&nr| (nr, Bytes::from(vec![nr as u8 + 1; 32])))
            .collect();
        store.write_batch(&writes).unwrap();
        for &nr in &blocks {
            assert_eq!(store.read(nr).unwrap(), Bytes::from(vec![nr as u8 + 1; 32]));
        }
        let s = store.stats();
        assert_eq!(s.writes, 4);
        assert_eq!(s.write_calls, 1);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn write_batch_allocates_free_slots_but_write_does_not() {
        let (store, path) = temp_store(64, 8);
        assert_eq!(
            store.write(3, Bytes::from_static(b"strict")),
            Err(BlockError::NoSuchBlock(3))
        );
        store
            .write_batch(&[(3, Bytes::from_static(b"fresh")), (5, Bytes::new())])
            .unwrap();
        assert!(store.is_allocated(3) && store.is_allocated(5));
        assert_eq!(store.read(3).unwrap(), Bytes::from_static(b"fresh"));
        assert_eq!(store.stats().allocations, 2);
        // An out-of-range entry fails the batch before anything is applied.
        assert_eq!(
            store.write_batch(&[(4, Bytes::new()), (9, Bytes::new())]),
            Err(BlockError::NoSuchBlock(9))
        );
        assert!(!store.is_allocated(4));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn checksum_detects_changes() {
        assert_ne!(checksum(b"abc"), checksum(b"abd"));
        assert_eq!(checksum(b""), checksum(b""));
    }
}
