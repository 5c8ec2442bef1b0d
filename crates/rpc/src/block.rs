//! Wire protocol for the **block** service: operation codes and payload
//! marshalling.
//!
//! The file-service protocol (in `afs-server`) moves *pages* between clients
//! and file servers; this module moves *blocks* between a file server and the
//! block-server processes that hold its replica disks.  It exists for one
//! reason: the commit flush.  A commit's dirty pages travel to each replica as
//! a single [`BlockOp::WriteBlocks`] scatter-gather request, so a k-page commit
//! costs one block-write RPC per replica instead of k.
//!
//! Block numbers are `u32` on the wire (28 significant bits, Fig. 3).  The
//! handler and the client-side `BlockStore` implementation live in
//! `afs_server::block`; this module only defines the frames, so the codec can
//! be tested without pulling in the block service itself.

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::message::MAX_PAYLOAD;

/// Operations a block-server process understands.  The capability in the
/// request names the client's *account* at the block server (except for
/// `CreateAccount`, which mints one).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u32)]
pub enum BlockOp {
    /// Create an account.  Reply: account capability.
    CreateAccount = 1,
    /// Query the store's block size.  Reply: u32.
    BlockSize = 2,
    /// Allocate a fresh block.  Reply: u32 block number.
    Allocate = 3,
    /// Allocate a specific block number.  Payload: u32.
    AllocateAt = 4,
    /// Free a block.  Payload: u64 membership epoch (0 = unstamped) + u32
    /// block number, so a stale coordinator's free is fenced off like its
    /// `WriteBlocks`.
    Free = 5,
    /// Read a block.  Payload: u32.  Reply: the data.
    Read = 6,
    /// Write one block.  Payload: u32 + data.
    Write = 7,
    /// Write a batch of blocks in one scatter-gather call, applied in entry
    /// order.  Payload: u64 membership epoch (0 = unstamped), u32 count, then
    /// per entry u32 block + u32 len + data.  This is the op a commit flush
    /// rides: one request per replica carries every dirty page of the
    /// committing version, stamped with the coordinator's view of the replica
    /// set so a server that has seen a newer configuration can reject a stale
    /// coordinator (retriable epoch mismatch).
    WriteBlocks = 8,
    /// Is the block allocated?  Payload: u32.  Reply: one byte.
    IsAllocated = 9,
    /// Number of allocated blocks.  Reply: u32.
    AllocatedCount = 10,
    /// List allocated blocks.  Reply: u32 count + u32 per block.
    AllocatedBlocks = 11,
}

impl BlockOp {
    /// Decodes an operation code.
    pub fn from_u32(v: u32) -> Option<BlockOp> {
        Some(match v {
            1 => BlockOp::CreateAccount,
            2 => BlockOp::BlockSize,
            3 => BlockOp::Allocate,
            4 => BlockOp::AllocateAt,
            5 => BlockOp::Free,
            6 => BlockOp::Read,
            7 => BlockOp::Write,
            8 => BlockOp::WriteBlocks,
            9 => BlockOp::IsAllocated,
            10 => BlockOp::AllocatedCount,
            11 => BlockOp::AllocatedBlocks,
            _ => return None,
        })
    }
}

/// Encodes a lone block number (the `AllocateAt`/`Read`/`IsAllocated`
/// payload and the `Allocate` reply).
pub fn encode_block_nr(nr: u32) -> Bytes {
    Bytes::from(nr.to_le_bytes().to_vec())
}

/// Decodes a lone block number.
pub fn decode_block_nr(mut payload: Bytes) -> Option<u32> {
    if payload.remaining() < 4 {
        return None;
    }
    Some(payload.get_u32_le())
}

/// Encodes the `Free` payload: the sender's membership epoch (0 when the
/// sender is not part of a replica set) followed by the block number.
pub fn encode_block_free(epoch: u64, nr: u32) -> Bytes {
    let mut buf = BytesMut::with_capacity(12);
    buf.put_u64_le(epoch);
    buf.put_u32_le(nr);
    buf.freeze()
}

/// Decodes the `Free` payload into `(epoch, block)`.
pub fn decode_block_free(mut payload: Bytes) -> Option<(u64, u32)> {
    if payload.remaining() < 12 {
        return None;
    }
    Some((payload.get_u64_le(), payload.get_u32_le()))
}

/// Encodes the `Write` payload: block number followed by the raw data.
pub fn encode_block_write(nr: u32, data: &Bytes) -> Bytes {
    let mut buf = BytesMut::with_capacity(4 + data.len());
    buf.put_u32_le(nr);
    buf.put_slice(data);
    buf.freeze()
}

/// Decodes the `Write` payload.
pub fn decode_block_write(mut payload: Bytes) -> Option<(u32, Bytes)> {
    if payload.remaining() < 4 {
        return None;
    }
    let nr = payload.get_u32_le();
    Some((nr, payload))
}

/// Encodes the `WriteBlocks` payload: the sender's membership epoch (0 when
/// the sender is not part of a replica set), entry count, then
/// `block + len + data` per entry, in application order.
pub fn encode_block_writes(epoch: u64, writes: &[(u32, Bytes)]) -> Bytes {
    let mut buf =
        BytesMut::with_capacity(12 + writes.iter().map(|(_, d)| 8 + d.len()).sum::<usize>());
    buf.put_u64_le(epoch);
    buf.put_u32_le(writes.len() as u32);
    for (nr, data) in writes {
        buf.put_u32_le(*nr);
        buf.put_u32_le(data.len() as u32);
        buf.put_slice(data);
    }
    buf.freeze()
}

/// Decodes the `WriteBlocks` payload into `(epoch, writes)`.
pub fn decode_block_writes(mut payload: Bytes) -> Option<(u64, Vec<(u32, Bytes)>)> {
    if payload.remaining() < 12 {
        return None;
    }
    let epoch = payload.get_u64_le();
    let count = payload.get_u32_le() as usize;
    let mut writes = Vec::with_capacity(count.min(1024));
    for _ in 0..count {
        if payload.remaining() < 8 {
            return None;
        }
        let nr = payload.get_u32_le();
        let len = payload.get_u32_le() as usize;
        if payload.remaining() < len {
            return None;
        }
        writes.push((nr, payload.slice(..len)));
        payload.advance(len);
    }
    Some((epoch, writes))
}

/// Bytes one entry occupies in a `WriteBlocks` payload.
pub fn encoded_block_write_len(data: &Bytes) -> usize {
    8 + data.len()
}

/// How many `WriteBlocks` payload bytes a client packs into one request frame.
pub const WRITE_BATCH_BUDGET: usize = MAX_PAYLOAD;

/// Splits a batch into frame-sized chunks, each at least one entry long:
/// entries are greedily packed until the next one would overflow
/// [`WRITE_BATCH_BUDGET`].  Small-page commits (the common case) fit in one
/// chunk — one RPC; only batches of pages too large to share a frame degrade
/// towards one RPC per page, which the transaction size bound (§5) forces
/// anyway.
pub fn chunk_block_writes(writes: &[(u32, Bytes)]) -> Vec<&[(u32, Bytes)]> {
    let mut chunks = Vec::new();
    let mut start = 0usize;
    let mut used = 0usize;
    for (idx, (_, data)) in writes.iter().enumerate() {
        let entry = encoded_block_write_len(data);
        if idx > start && used + entry > WRITE_BATCH_BUDGET {
            chunks.push(&writes[start..idx]);
            start = idx;
            used = 0;
        }
        used += entry;
    }
    if start < writes.len() {
        chunks.push(&writes[start..]);
    }
    chunks
}

/// Encodes a list of block numbers (the `AllocatedBlocks` reply).
pub fn encode_block_list(blocks: &[u32]) -> Bytes {
    let mut buf = BytesMut::with_capacity(4 + blocks.len() * 4);
    buf.put_u32_le(blocks.len() as u32);
    for nr in blocks {
        buf.put_u32_le(*nr);
    }
    buf.freeze()
}

/// Decodes a list of block numbers.
pub fn decode_block_list(mut payload: Bytes) -> Option<Vec<u32>> {
    if payload.remaining() < 4 {
        return None;
    }
    let count = payload.get_u32_le() as usize;
    if payload.remaining() < count * 4 {
        return None;
    }
    let mut blocks = Vec::with_capacity(count.min(65536));
    for _ in 0..count {
        blocks.push(payload.get_u32_le());
    }
    Some(blocks)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_codes_round_trip() {
        for op in [
            BlockOp::CreateAccount,
            BlockOp::BlockSize,
            BlockOp::Allocate,
            BlockOp::AllocateAt,
            BlockOp::Free,
            BlockOp::Read,
            BlockOp::Write,
            BlockOp::WriteBlocks,
            BlockOp::IsAllocated,
            BlockOp::AllocatedCount,
            BlockOp::AllocatedBlocks,
        ] {
            assert_eq!(BlockOp::from_u32(op as u32), Some(op));
        }
        assert_eq!(BlockOp::from_u32(0), None);
        assert_eq!(BlockOp::from_u32(99), None);
    }

    #[test]
    fn write_batch_round_trips() {
        let writes = vec![
            (7u32, Bytes::from_static(b"seven")),
            (9, Bytes::new()),
            (0x0fff_ffff, Bytes::from_static(b"max block")),
        ];
        assert_eq!(
            decode_block_writes(encode_block_writes(42, &writes)).unwrap(),
            (42, writes.clone())
        );
        // Epoch 0 = unstamped, still round-trips.
        assert_eq!(
            decode_block_writes(encode_block_writes(0, &writes)).unwrap(),
            (0, writes.clone())
        );
        let truncated = encode_block_writes(42, &writes);
        let truncated = truncated.slice(..truncated.len() - 2);
        assert_eq!(decode_block_writes(truncated), None);
        // A frame too short to even hold the epoch + count header is rejected.
        assert_eq!(decode_block_writes(Bytes::from_static(&[0u8; 8])), None);
    }

    #[test]
    fn single_write_and_nr_round_trip() {
        let (nr, data) =
            decode_block_write(encode_block_write(42, &Bytes::from_static(b"data"))).unwrap();
        assert_eq!(nr, 42);
        assert_eq!(data, Bytes::from_static(b"data"));
        assert_eq!(decode_block_nr(encode_block_nr(5)).unwrap(), 5);
        assert_eq!(decode_block_nr(Bytes::new()), None);
        assert_eq!(decode_block_free(encode_block_free(3, 5)), Some((3, 5)));
        // A bare block number is not a `Free` payload: the epoch is required.
        assert_eq!(decode_block_free(encode_block_nr(5)), None);
    }

    #[test]
    fn block_list_round_trips() {
        let blocks = vec![1u32, 5, 9];
        assert_eq!(
            decode_block_list(encode_block_list(&blocks)).unwrap(),
            blocks
        );
    }

    #[test]
    fn chunking_respects_the_frame_budget() {
        // Tiny entries: everything in one chunk.
        let small: Vec<(u32, Bytes)> = (0..100).map(|i| (i, Bytes::from(vec![0u8; 16]))).collect();
        let chunks = chunk_block_writes(&small);
        assert_eq!(chunks.len(), 1);
        assert_eq!(chunks[0].len(), 100);

        // Half-budget entries: two per chunk.
        let big: Vec<(u32, Bytes)> = (0..6)
            .map(|i| (i, Bytes::from(vec![0u8; WRITE_BATCH_BUDGET / 2 - 8])))
            .collect();
        let chunks = chunk_block_writes(&big);
        assert_eq!(chunks.len(), 3);
        assert!(chunks.iter().all(|c| c.len() == 2));

        // An over-budget entry still travels (alone).
        let huge = vec![(1u32, Bytes::from(vec![0u8; WRITE_BATCH_BUDGET + 1]))];
        let chunks = chunk_block_writes(&huge);
        assert_eq!(chunks.len(), 1);

        assert!(chunk_block_writes(&[]).is_empty());
    }
}
