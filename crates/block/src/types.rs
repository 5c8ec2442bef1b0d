//! Common types for the block service.

use std::error::Error;
use std::fmt;

/// Number of bits in a block number.
///
/// The paper's page references pack a 28-bit block number and four flag bits into 32
/// bits (Fig. 3 discussion), so the block service never hands out a block number that
/// does not fit in 28 bits.
pub const BLOCK_NR_BITS: u32 = 28;

/// The largest valid block number.
pub const MAX_BLOCK_NR: u32 = (1 << BLOCK_NR_BITS) - 1;

/// A block number: an index into a block store, at most 28 bits wide.
pub type BlockNr = u32;

/// Errors returned by block stores and block servers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BlockError {
    /// The requested block number is not currently allocated.
    NoSuchBlock(BlockNr),
    /// The store has no free block numbers left.
    Full,
    /// The data is larger than the store's block size.
    TooLarge {
        /// Size of the offending write in bytes.
        got: usize,
        /// The store's block size in bytes.
        max: usize,
    },
    /// The block is already allocated (allocate collision, §4).
    AlreadyAllocated(BlockNr),
    /// The block may only be written once and has already been written (optical media).
    WriteOnce(BlockNr),
    /// The block is locked by another client.
    Locked(BlockNr),
    /// The store (or the server process in front of it) has crashed.
    Crashed,
    /// The stored data failed its integrity check (simulated media corruption).
    Corrupted(BlockNr),
    /// The presented capability or account does not grant access to this block.
    PermissionDenied,
    /// The operation is not supported by this store.
    Unsupported(&'static str),
    /// An I/O error from the underlying medium.
    Io(String),
    /// The request carried a membership epoch older than the one the server
    /// has already seen: the sender's view of the replica set is stale.
    /// Retriable — the client refreshes its membership view and retries.
    EpochMismatch {
        /// The epoch the request was stamped with.
        sent: u64,
        /// The newer epoch the server is serving under.
        current: u64,
    },
}

impl fmt::Display for BlockError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BlockError::NoSuchBlock(nr) => write!(f, "block {nr} is not allocated"),
            BlockError::Full => write!(f, "block store is full"),
            BlockError::TooLarge { got, max } => {
                write!(f, "write of {got} bytes exceeds block size {max}")
            }
            BlockError::AlreadyAllocated(nr) => write!(f, "block {nr} is already allocated"),
            BlockError::WriteOnce(nr) => {
                write!(f, "block {nr} is on write-once media and already written")
            }
            BlockError::Locked(nr) => write!(f, "block {nr} is locked by another client"),
            BlockError::Crashed => write!(f, "block server has crashed"),
            BlockError::Corrupted(nr) => write!(f, "block {nr} failed its integrity check"),
            BlockError::PermissionDenied => write!(f, "permission denied"),
            BlockError::Unsupported(what) => write!(f, "operation not supported: {what}"),
            BlockError::Io(msg) => write!(f, "I/O error: {msg}"),
            BlockError::EpochMismatch { sent, current } => {
                write!(
                    f,
                    "membership epoch {sent} is stale (server is at epoch {current})"
                )
            }
        }
    }
}

impl Error for BlockError {}

impl From<std::io::Error> for BlockError {
    fn from(err: std::io::Error) -> Self {
        BlockError::Io(err.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_block_nr_is_28_bits() {
        assert_eq!(MAX_BLOCK_NR, 0x0fff_ffff);
        assert_eq!(u64::from(MAX_BLOCK_NR) + 1, 1u64 << BLOCK_NR_BITS);
    }

    #[test]
    fn errors_display_something_useful() {
        let e = BlockError::TooLarge {
            got: 40000,
            max: 32768,
        };
        assert!(e.to_string().contains("40000"));
        assert!(BlockError::NoSuchBlock(7).to_string().contains('7'));
    }

    #[test]
    fn io_error_converts() {
        let io = std::io::Error::other("boom");
        let be: BlockError = io.into();
        assert!(matches!(be, BlockError::Io(_)));
    }
}
