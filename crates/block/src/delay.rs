//! A latency-modelling block-store wrapper.
//!
//! `MemStore` is deliberately instantaneous, which makes it useless for
//! showing latency-dependent behaviour such as a quorum ack that does not wait
//! for its slowest replica.  [`DelayStore`] wraps any [`BlockStore`] and makes
//! every `read`/`write`/`write_batch` call sleep a fixed `per_call` before it
//! reaches the wrapped store — the round trip or the seek, paid once per call
//! however many blocks the call moves.  Overlapping calls sleep independently.
//!
//! Allocation and bookkeeping calls are free: they model in-memory metadata.

use std::time::Duration;

use bytes::Bytes;

use crate::store::{BlockStore, StoreStats};
use crate::{BlockNr, Result};

/// A [`BlockStore`] wrapper that charges a fixed latency per read or write
/// call.
pub struct DelayStore<S> {
    inner: S,
    per_call: Duration,
}

impl<S: BlockStore> DelayStore<S> {
    /// Wraps `inner`, sleeping `per_call` once per read/write call.
    pub fn new(inner: S, per_call: Duration) -> Self {
        DelayStore { inner, per_call }
    }

    fn charge(&self) {
        if !self.per_call.is_zero() {
            std::thread::sleep(self.per_call);
        }
    }
}

impl<S: BlockStore> BlockStore for DelayStore<S> {
    fn block_size(&self) -> usize {
        self.inner.block_size()
    }

    fn allocate(&self) -> Result<BlockNr> {
        self.inner.allocate()
    }

    fn allocate_at(&self, nr: BlockNr) -> Result<()> {
        self.inner.allocate_at(nr)
    }

    fn free(&self, nr: BlockNr) -> Result<()> {
        self.inner.free(nr)
    }

    fn read(&self, nr: BlockNr) -> Result<Bytes> {
        self.charge();
        self.inner.read(nr)
    }

    fn write(&self, nr: BlockNr, data: Bytes) -> Result<()> {
        self.charge();
        self.inner.write(nr, data)
    }

    fn write_batch(&self, writes: &[(BlockNr, Bytes)]) -> Result<()> {
        // One call, one charge, however many blocks it carries.
        self.charge();
        self.inner.write_batch(writes)
    }

    fn is_allocated(&self, nr: BlockNr) -> bool {
        self.inner.is_allocated(nr)
    }

    fn allocated_count(&self) -> usize {
        self.inner.allocated_count()
    }

    fn stats(&self) -> StoreStats {
        self.inner.stats()
    }

    fn allocated_blocks(&self) -> Vec<BlockNr> {
        self.inner.allocated_blocks()
    }

    fn set_epoch(&self, epoch: u64) {
        self.inner.set_epoch(epoch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemStore;
    use std::time::Instant;

    #[test]
    fn batch_pays_one_call_cost() {
        let store = DelayStore::new(MemStore::new(), Duration::from_millis(10));
        let blocks: Vec<BlockNr> = (0..8).map(|_| store.allocate().unwrap()).collect();
        let writes: Vec<(BlockNr, Bytes)> = blocks
            .iter()
            .map(|&nr| (nr, Bytes::from_static(b"x")))
            .collect();

        let start = Instant::now();
        store.write_batch(&writes).unwrap();
        let batched = start.elapsed();

        let start = Instant::now();
        for (nr, data) in &writes {
            store.write(*nr, data.clone()).unwrap();
        }
        let unbatched = start.elapsed();

        assert!(
            batched < unbatched / 2,
            "8 blocks in one call ({batched:?}) must beat 8 calls ({unbatched:?})"
        );
    }

    #[test]
    fn zero_delay_is_transparent() {
        let store = DelayStore::new(MemStore::new(), Duration::ZERO);
        let nr = store.allocate().unwrap();
        store.write(nr, Bytes::from_static(b"free")).unwrap();
        assert_eq!(store.read(nr).unwrap(), Bytes::from_static(b"free"));
        assert_eq!(store.stats().writes, 1);
    }
}
