//! The [`BlockStore`] trait: the minimal raw-disk interface of §4.
//!
//! A `BlockStore` is a *disk*, not a *server*: it has no notion of accounts,
//! capabilities or locks.  Those live one level up, in [`crate::server::BlockServer`].
//! Keeping the two separate mirrors the paper's layering (Fig. 1) and makes it easy to
//! run the same server logic over an in-memory disk, a file-backed disk, a write-once
//! disk or a fault-injected disk.

use bytes::Bytes;

use crate::{BlockNr, Result};

/// Aggregate statistics maintained by every store, used by the benchmarks to count
/// physical I/O (e.g. blocks newly allocated per update in experiment E8).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct StoreStats {
    /// Number of successful block allocations since creation.
    pub allocations: u64,
    /// Number of successful block frees since creation.
    pub frees: u64,
    /// Number of successful block reads since creation.
    pub reads: u64,
    /// Number of successful block writes since creation.
    pub writes: u64,
    /// Number of physical write *calls* since creation: a [`BlockStore::write`]
    /// counts one, and a k-block [`BlockStore::write_batch`] served natively
    /// also counts one.  `writes / write_calls` is the realised batching
    /// factor; the two are equal on an unbatched store.
    pub write_calls: u64,
    /// Number of bytes written since creation.
    pub bytes_written: u64,
    /// Number of bytes read since creation.
    pub bytes_read: u64,
}

impl StoreStats {
    /// Returns the difference `self - earlier`, field by field.
    pub fn since(&self, earlier: &StoreStats) -> StoreStats {
        StoreStats {
            allocations: self.allocations - earlier.allocations,
            frees: self.frees - earlier.frees,
            reads: self.reads - earlier.reads,
            writes: self.writes - earlier.writes,
            write_calls: self.write_calls - earlier.write_calls,
            bytes_written: self.bytes_written - earlier.bytes_written,
            bytes_read: self.bytes_read - earlier.bytes_read,
        }
    }
}

/// A raw block device: fixed-maximum-size blocks, atomic writes.
///
/// All methods take `&self`; implementations use interior mutability so a store can be
/// shared between server threads.  A write that returns `Ok(())` is durable with
/// respect to the store's crash model (§4: "writing a block must be an atomic action,
/// with an acknowledgement that is returned after the block has been stored on disk").
pub trait BlockStore: Send + Sync {
    /// The maximum number of bytes a block can hold.
    fn block_size(&self) -> usize;

    /// Allocates a fresh block and returns its number.  The block's initial contents
    /// are empty.
    fn allocate(&self) -> Result<BlockNr>;

    /// Allocates a *specific* block number, for a caller that chooses numbers
    /// itself: a replica set's coordinator picks the number and each member
    /// disk must hold that same one (see [`BlockStore::write_batch`]).  Fails
    /// with [`crate::BlockError::AlreadyAllocated`] if the block is in use (an
    /// *allocate collision*).
    fn allocate_at(&self, nr: BlockNr) -> Result<()>;

    /// Frees a block.  Reading it afterwards fails until it is allocated again.
    fn free(&self, nr: BlockNr) -> Result<()>;

    /// Reads the current contents of a block.
    fn read(&self, nr: BlockNr) -> Result<Bytes>;

    /// Atomically replaces the contents of an allocated block.  Writing a
    /// block that is not allocated fails with
    /// [`crate::BlockError::NoSuchBlock`].
    fn write(&self, nr: BlockNr, data: Bytes) -> Result<()>;

    /// Writes several blocks in one scatter-gather call, applying the entries
    /// **in the given order**.
    ///
    /// **Write-allocate:** unlike [`BlockStore::write`], an entry naming a
    /// block that is not allocated allocates it, exactly as
    /// [`BlockStore::allocate_at`] would, before writing it.  This is how a
    /// replica set's coordinator, which chooses block numbers itself, puts a
    /// fresh block on its disks without a separate allocation round trip.
    /// A number the store can never hold (out of range, or no space left)
    /// fails the call.
    ///
    /// **Durability order:** entries are applied in order, and the last entry
    /// becomes durable only after every earlier one.  Each individual block
    /// write keeps the atomicity guarantee of [`BlockStore::write`]; the batch
    /// as a whole is *not* atomic — a crash mid-batch may leave a strict
    /// prefix of the entries applied (and allocated).  A commit relies on
    /// this: its batch is its pages, children first, then the base page with
    /// the commit reference that publishes them, last.  Crash recovery
    /// discards uncommitted versions, so the only order that matters is that
    /// the commit reference comes after the pages.  The default implementation
    /// loops over the entries with
    /// `is_allocated`, `allocate_at` and `write`; native implementations take
    /// their lock (or ship their RPC, or seek their disk head) once per batch,
    /// so a k-block flush costs one physical call instead of k.  Counted as a
    /// single call in [`StoreStats::write_calls`] when served natively.
    fn write_batch(&self, writes: &[(BlockNr, Bytes)]) -> Result<()> {
        for (nr, data) in writes {
            if !self.is_allocated(*nr) {
                self.allocate_at(*nr)?;
            }
            self.write(*nr, data.clone())?;
        }
        Ok(())
    }

    /// Returns true if the block is currently allocated.
    fn is_allocated(&self, nr: BlockNr) -> bool;

    /// Number of currently allocated blocks.
    fn allocated_count(&self) -> usize;

    /// Returns the accumulated I/O statistics.
    fn stats(&self) -> StoreStats;

    /// Lists all currently allocated block numbers (used for recovery and for
    /// space-accounting checks).
    fn allocated_blocks(&self) -> Vec<BlockNr>;

    /// Informs the store of the replica set's current membership epoch (see
    /// `amoeba_block::membership`).  Local disks have no use for it, so the
    /// default is a no-op; stores that front a *remote* server override this to
    /// stamp the epoch into their write RPCs, letting a server that has seen a
    /// newer configuration reject a stale coordinator with
    /// [`crate::BlockError::EpochMismatch`].  Wrapper stores must forward it.
    fn set_epoch(&self, _epoch: u64) {}
}

/// Convenience: any `Arc<S>` where `S: BlockStore` is itself a `BlockStore`.
impl<S: BlockStore + ?Sized> BlockStore for std::sync::Arc<S> {
    fn block_size(&self) -> usize {
        (**self).block_size()
    }
    fn allocate(&self) -> Result<BlockNr> {
        (**self).allocate()
    }
    fn allocate_at(&self, nr: BlockNr) -> Result<()> {
        (**self).allocate_at(nr)
    }
    fn free(&self, nr: BlockNr) -> Result<()> {
        (**self).free(nr)
    }
    fn read(&self, nr: BlockNr) -> Result<Bytes> {
        (**self).read(nr)
    }
    fn write(&self, nr: BlockNr, data: Bytes) -> Result<()> {
        (**self).write(nr, data)
    }
    fn write_batch(&self, writes: &[(BlockNr, Bytes)]) -> Result<()> {
        (**self).write_batch(writes)
    }
    fn is_allocated(&self, nr: BlockNr) -> bool {
        (**self).is_allocated(nr)
    }
    fn allocated_count(&self) -> usize {
        (**self).allocated_count()
    }
    fn stats(&self) -> StoreStats {
        (**self).stats()
    }
    fn allocated_blocks(&self) -> Vec<BlockNr> {
        (**self).allocated_blocks()
    }
    fn set_epoch(&self, epoch: u64) {
        (**self).set_epoch(epoch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_since_subtracts_fields() {
        let a = StoreStats {
            allocations: 10,
            frees: 1,
            reads: 5,
            writes: 7,
            write_calls: 6,
            bytes_written: 700,
            bytes_read: 500,
        };
        let b = StoreStats {
            allocations: 4,
            frees: 1,
            reads: 2,
            writes: 3,
            write_calls: 2,
            bytes_written: 300,
            bytes_read: 200,
        };
        let d = a.since(&b);
        assert_eq!(d.allocations, 6);
        assert_eq!(d.frees, 0);
        assert_eq!(d.reads, 3);
        assert_eq!(d.writes, 4);
        assert_eq!(d.write_calls, 4);
        assert_eq!(d.bytes_written, 400);
        assert_eq!(d.bytes_read, 300);
    }
}
