//! Operation codes and argument marshalling for the file-service protocol.
//!
//! Errors travel as a one-byte code plus optional detail so the client can
//! reconstruct a structured [`FsError`]; operations without a structured
//! encoding fall back to [`FsError::Remote`] carrying the error text.  The
//! batched `ReadPages`/`WritePages` operations let a k-page update cost O(1)
//! transport round trips instead of O(k); a server bounds each `ReadPages`
//! reply to one transport frame and reports how many entries it served, and the
//! client stub iterates over the remainder (still one round trip in the common
//! small-page case).

use bytes::{Buf, BufMut, Bytes, BytesMut};

use afs_core::{CommitReceipt, FsError, PagePath};
use amoeba_capability::Capability;
use amoeba_rpc::MAX_PAYLOAD;

/// Operations the file server understands.  The capability in the request names the
/// file or version operated on; the payload carries the remaining arguments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u32)]
pub enum FsOp {
    /// Create a new file.  Reply: file capability.
    CreateFile = 1,
    /// Create a new version of the file named by the request capability.
    /// Reply: version capability.
    CreateVersion = 2,
    /// Read a page of an uncommitted version.  Payload: path.  Reply: data.
    ReadPage = 3,
    /// Write a page of an uncommitted version.  Payload: path + data.
    WritePage = 4,
    /// Append a page under a parent.  Payload: path + data.  Reply: new path.
    AppendPage = 5,
    /// Commit the version named by the request capability.  Reply: receipt.
    Commit = 6,
    /// Abort the version named by the request capability.
    Abort = 7,
    /// Get the current version of a file.  Reply: version capability.
    CurrentVersion = 8,
    /// Read a page of a committed version.  Payload: path.  Reply: data.
    ReadCommittedPage = 9,
    /// Validate a cache entry.  Payload: cached version block (u32).
    /// Reply: up-to-date flag, current block, changed paths.
    ValidateCache = 10,
    /// Read a batch of pages of an uncommitted version.  Payload: paths.
    /// Reply: served count + data per served path (a prefix of the request,
    /// bounded by the transport frame; the client iterates for the rest).
    ReadPages = 11,
    /// Write a batch of pages of an uncommitted version.
    /// Payload: (path, data) pairs.
    WritePages = 12,
    /// Insert a page at an index under a parent.  Payload: path + u16 index +
    /// data.  Reply: new path.
    InsertPage = 13,
    /// Remove the page (and subtree) at a path.  Payload: path.
    RemovePage = 14,
}

impl FsOp {
    /// Decodes an operation code.
    pub fn from_u32(v: u32) -> Option<FsOp> {
        Some(match v {
            1 => FsOp::CreateFile,
            2 => FsOp::CreateVersion,
            3 => FsOp::ReadPage,
            4 => FsOp::WritePage,
            5 => FsOp::AppendPage,
            6 => FsOp::Commit,
            7 => FsOp::Abort,
            8 => FsOp::CurrentVersion,
            9 => FsOp::ReadCommittedPage,
            10 => FsOp::ValidateCache,
            11 => FsOp::ReadPages,
            12 => FsOp::WritePages,
            13 => FsOp::InsertPage,
            14 => FsOp::RemovePage,
            _ => return None,
        })
    }
}

// ---------------------------------------------------------------------------
// Error marshalling: one code byte + detail.
// ---------------------------------------------------------------------------

const ERR_REMOTE: u8 = 0;
const ERR_CONFLICT: u8 = 1;
const ERR_PERMISSION: u8 = 2;
const ERR_NO_FILE: u8 = 3;
const ERR_NO_VERSION: u8 = 4;
const ERR_NO_PAGE: u8 = 5;
const ERR_ALREADY_COMMITTED: u8 = 6;
const ERR_NOT_COMMITTED: u8 = 7;
const ERR_WOULD_BLOCK: u8 = 8;
const ERR_LOCK_TIMEOUT: u8 = 9;
const ERR_WRONG_KIND: u8 = 10;
const ERR_PAGE_TOO_LARGE: u8 = 11;
const ERR_PROTOCOL: u8 = 12;

/// Encodes a file-service error into an error-reply payload.
pub fn encode_error(err: &FsError) -> Bytes {
    let mut buf = BytesMut::new();
    match err {
        FsError::SerialisabilityConflict => buf.put_u8(ERR_CONFLICT),
        FsError::PermissionDenied => buf.put_u8(ERR_PERMISSION),
        FsError::NoSuchFile => buf.put_u8(ERR_NO_FILE),
        FsError::NoSuchVersion => buf.put_u8(ERR_NO_VERSION),
        FsError::NoSuchPage(path) => {
            buf.put_u8(ERR_NO_PAGE);
            buf.put_slice(path.as_bytes());
        }
        FsError::AlreadyCommitted => buf.put_u8(ERR_ALREADY_COMMITTED),
        FsError::NotCommitted => buf.put_u8(ERR_NOT_COMMITTED),
        FsError::WouldBlock => buf.put_u8(ERR_WOULD_BLOCK),
        FsError::LockTimeout => buf.put_u8(ERR_LOCK_TIMEOUT),
        FsError::WrongFileKind => buf.put_u8(ERR_WRONG_KIND),
        FsError::PageTooLarge(n) => {
            buf.put_u8(ERR_PAGE_TOO_LARGE);
            buf.put_u32_le(*n as u32);
        }
        FsError::Protocol(msg) => {
            buf.put_u8(ERR_PROTOCOL);
            buf.put_slice(msg.as_bytes());
        }
        // Errors without a structured wire form travel as text.
        other => {
            buf.put_u8(ERR_REMOTE);
            buf.put_slice(other.to_string().as_bytes());
        }
    }
    buf.freeze()
}

/// Convenience: an error reply carrying a protocol complaint about a request.
pub fn protocol_error(msg: &str) -> Bytes {
    encode_error(&FsError::Protocol(msg.into()))
}

/// Decodes an error-reply payload back into a [`FsError`].
pub fn decode_error(mut payload: Bytes) -> FsError {
    if payload.is_empty() {
        return FsError::Protocol("empty error reply".into());
    }
    let code = payload.get_u8();
    let text = || String::from_utf8_lossy(&payload).into_owned();
    match code {
        ERR_CONFLICT => FsError::SerialisabilityConflict,
        ERR_PERMISSION => FsError::PermissionDenied,
        ERR_NO_FILE => FsError::NoSuchFile,
        ERR_NO_VERSION => FsError::NoSuchVersion,
        ERR_NO_PAGE => FsError::NoSuchPage(text()),
        ERR_ALREADY_COMMITTED => FsError::AlreadyCommitted,
        ERR_NOT_COMMITTED => FsError::NotCommitted,
        ERR_WOULD_BLOCK => FsError::WouldBlock,
        ERR_LOCK_TIMEOUT => FsError::LockTimeout,
        ERR_WRONG_KIND => FsError::WrongFileKind,
        ERR_PAGE_TOO_LARGE => {
            if payload.remaining() >= 4 {
                FsError::PageTooLarge(payload.get_u32_le() as usize)
            } else {
                FsError::Protocol("truncated PageTooLarge detail".into())
            }
        }
        ERR_PROTOCOL => FsError::Protocol(text()),
        _ => FsError::Remote(text()),
    }
}

// ---------------------------------------------------------------------------
// Argument marshalling.
// ---------------------------------------------------------------------------

/// Encodes a page path.
pub fn encode_path(buf: &mut BytesMut, path: &PagePath) {
    buf.put_u16_le(path.indices().len() as u16);
    for &index in path.indices() {
        buf.put_u16_le(index);
    }
}

/// Bytes an encoded path occupies on the wire.
pub fn encoded_path_len(path: &PagePath) -> usize {
    2 + path.indices().len() * 2
}

/// Decodes a page path.
pub fn decode_path(buf: &mut Bytes) -> Option<PagePath> {
    if buf.remaining() < 2 {
        return None;
    }
    let len = buf.get_u16_le() as usize;
    if buf.remaining() < len * 2 {
        return None;
    }
    let mut indices = Vec::with_capacity(len);
    for _ in 0..len {
        indices.push(buf.get_u16_le());
    }
    Some(PagePath::new(indices))
}

/// Encodes a path followed by raw page data (the `WritePage`/`AppendPage` payload).
pub fn encode_path_and_data(path: &PagePath, data: &Bytes) -> Bytes {
    let mut buf = BytesMut::with_capacity(encoded_path_len(path) + data.len());
    encode_path(&mut buf, path);
    buf.put_slice(data);
    buf.freeze()
}

/// Decodes a path followed by raw page data.
pub fn decode_path_and_data(mut payload: Bytes) -> Option<(PagePath, Bytes)> {
    let path = decode_path(&mut payload)?;
    Some((path, payload))
}

/// Encodes the `InsertPage` payload: parent path, insertion index, page data.
pub fn encode_insert(parent: &PagePath, index: u16, data: &Bytes) -> Bytes {
    let mut buf = BytesMut::with_capacity(encoded_path_len(parent) + 2 + data.len());
    encode_path(&mut buf, parent);
    buf.put_u16_le(index);
    buf.put_slice(data);
    buf.freeze()
}

/// Decodes the `InsertPage` payload.
pub fn decode_insert(mut payload: Bytes) -> Option<(PagePath, u16, Bytes)> {
    let parent = decode_path(&mut payload)?;
    if payload.remaining() < 2 {
        return None;
    }
    let index = payload.get_u16_le();
    Some((parent, index, payload))
}

/// Encodes a batch of paths (the `ReadPages` request payload).
pub fn encode_paths(paths: &[PagePath]) -> Bytes {
    let mut buf = BytesMut::new();
    buf.put_u32_le(paths.len() as u32);
    for path in paths {
        encode_path(&mut buf, path);
    }
    buf.freeze()
}

/// Decodes a batch of paths.
pub fn decode_paths(mut payload: Bytes) -> Option<Vec<PagePath>> {
    if payload.remaining() < 4 {
        return None;
    }
    let count = payload.get_u32_le() as usize;
    let mut paths = Vec::with_capacity(count.min(1024));
    for _ in 0..count {
        paths.push(decode_path(&mut payload)?);
    }
    Some(paths)
}

/// Encodes the `ReadPages` reply: how many request entries were served (a
/// prefix of the request batch) followed by a length-prefixed data blob per
/// served entry.
pub fn encode_pages_reply(pages: &[Bytes]) -> Bytes {
    let mut buf = BytesMut::new();
    buf.put_u32_le(pages.len() as u32);
    for data in pages {
        buf.put_u32_le(data.len() as u32);
        buf.put_slice(data);
    }
    buf.freeze()
}

/// Decodes the `ReadPages` reply.
pub fn decode_pages_reply(mut payload: Bytes) -> Option<Vec<Bytes>> {
    if payload.remaining() < 4 {
        return None;
    }
    let count = payload.get_u32_le() as usize;
    let mut pages = Vec::with_capacity(count.min(1024));
    for _ in 0..count {
        if payload.remaining() < 4 {
            return None;
        }
        let len = payload.get_u32_le() as usize;
        if payload.remaining() < len {
            return None;
        }
        pages.push(payload.slice(..len));
        payload.advance(len);
    }
    Some(pages)
}

/// Encodes a batch of page writes (the `WritePages` request payload).
pub fn encode_writes(writes: &[(PagePath, Bytes)]) -> Bytes {
    let mut buf = BytesMut::new();
    buf.put_u32_le(writes.len() as u32);
    for (path, data) in writes {
        encode_path(&mut buf, path);
        buf.put_u32_le(data.len() as u32);
        buf.put_slice(data);
    }
    buf.freeze()
}

/// Bytes one write entry occupies in a `WritePages` payload.
pub fn encoded_write_len(path: &PagePath, data: &Bytes) -> usize {
    encoded_path_len(path) + 4 + data.len()
}

/// Decodes a batch of page writes.
pub fn decode_writes(mut payload: Bytes) -> Option<Vec<(PagePath, Bytes)>> {
    if payload.remaining() < 4 {
        return None;
    }
    let count = payload.get_u32_le() as usize;
    let mut writes = Vec::with_capacity(count.min(1024));
    for _ in 0..count {
        let path = decode_path(&mut payload)?;
        if payload.remaining() < 4 {
            return None;
        }
        let len = payload.get_u32_le() as usize;
        if payload.remaining() < len {
            return None;
        }
        writes.push((path, payload.slice(..len)));
        payload.advance(len);
    }
    Some(writes)
}

/// How many `ReadPages` reply bytes a server packs into one reply frame.
pub const READ_BATCH_REPLY_BUDGET: usize = MAX_PAYLOAD;

/// Serves a `ReadPages` request within the reply-frame budget: reads pages in
/// request order until adding another page would overflow the budget, always
/// serving at least one.  Returns the served prefix.
///
/// A page's size is only known after reading it, so the page that overflows the
/// budget is read, dropped from this reply, and read again when the client
/// requests the remainder — one duplicated page read per split boundary.  The
/// extra read-set flags it records are the ones the client's follow-up request
/// would set anyway, so semantics are unaffected; only batches of pages too
/// large to share a frame (which gain little from batching) pay the cost.
pub fn serve_read_batch(
    paths: &[PagePath],
    mut read: impl FnMut(&PagePath) -> Result<Bytes, FsError>,
) -> Result<Vec<Bytes>, FsError> {
    let mut pages = Vec::new();
    let mut used = 0usize;
    for path in paths {
        let data = read(path)?;
        let entry = 4 + data.len();
        if !pages.is_empty() && used + entry > READ_BATCH_REPLY_BUDGET {
            break;
        }
        used += entry;
        pages.push(data);
    }
    Ok(pages)
}

/// Encodes a capability as a reply payload.
pub fn encode_capability(cap: &Capability) -> Bytes {
    let mut buf = BytesMut::with_capacity(25);
    cap.encode(&mut buf);
    buf.freeze()
}

/// Decodes a capability from a reply payload.
pub fn decode_capability(mut payload: Bytes) -> Option<Capability> {
    Capability::decode(&mut payload)
}

/// Encodes a commit receipt as the `Commit` reply payload.
pub fn encode_receipt(receipt: &CommitReceipt) -> Bytes {
    let mut buf = BytesMut::with_capacity(13);
    buf.put_u8(u8::from(receipt.fast_path));
    buf.put_u32_le(receipt.validations);
    buf.put_u64_le(receipt.pages_compared as u64);
    buf.freeze()
}

/// Decodes a commit receipt.
pub fn decode_receipt(mut payload: Bytes) -> Option<CommitReceipt> {
    if payload.remaining() < 13 {
        return None;
    }
    Some(CommitReceipt {
        fast_path: payload.get_u8() != 0,
        validations: payload.get_u32_le(),
        pages_compared: payload.get_u64_le() as usize,
    })
}

/// Encodes a cache-validation result.  `lease_ttl_ms` is the duration of the
/// lease granted on this reply (0 = no lease): the wire deliberately carries
/// a *relative* ttl, never an absolute expiry, so client and server clocks
/// only need bounded drift, not synchronisation — each side starts its own
/// countdown, and the client's starts earlier (before the request was sent)
/// so it always gives up trusting the lease first.
pub fn encode_validation(
    up_to_date: bool,
    current_block: u32,
    changed: &[PagePath],
    lease_ttl_ms: u32,
) -> Bytes {
    let mut buf = BytesMut::new();
    buf.put_u8(u8::from(up_to_date));
    buf.put_u32_le(current_block);
    buf.put_u32_le(changed.len() as u32);
    for path in changed {
        encode_path(&mut buf, path);
    }
    buf.put_u32_le(lease_ttl_ms);
    buf.freeze()
}

/// Decodes a cache-validation result: (up-to-date, current block, changed
/// paths, lease ttl in ms).  The trailing ttl word is required; a reply that
/// ends after the paths is malformed.
pub fn decode_validation(mut payload: Bytes) -> Option<(bool, u32, Vec<PagePath>, u32)> {
    if payload.remaining() < 9 {
        return None;
    }
    let up_to_date = payload.get_u8() != 0;
    let current = payload.get_u32_le();
    let count = payload.get_u32_le() as usize;
    let mut paths = Vec::with_capacity(count);
    for _ in 0..count {
        paths.push(decode_path(&mut payload)?);
    }
    if payload.remaining() < 4 {
        return None;
    }
    Some((up_to_date, current, paths, payload.get_u32_le()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_codes_round_trip() {
        for op in [
            FsOp::CreateFile,
            FsOp::CreateVersion,
            FsOp::ReadPage,
            FsOp::WritePage,
            FsOp::AppendPage,
            FsOp::Commit,
            FsOp::Abort,
            FsOp::CurrentVersion,
            FsOp::ReadCommittedPage,
            FsOp::ValidateCache,
            FsOp::ReadPages,
            FsOp::WritePages,
            FsOp::InsertPage,
            FsOp::RemovePage,
        ] {
            assert_eq!(FsOp::from_u32(op as u32), Some(op));
        }
        assert_eq!(FsOp::from_u32(999), None);
    }

    #[test]
    fn path_and_data_round_trip() {
        let path = PagePath::new(vec![3, 1, 4]);
        let data = Bytes::from_static(b"payload bytes");
        let encoded = encode_path_and_data(&path, &data);
        let (p, d) = decode_path_and_data(encoded).unwrap();
        assert_eq!(p, path);
        assert_eq!(d, data);
    }

    #[test]
    fn insert_payload_round_trips() {
        let parent = PagePath::new(vec![2]);
        let encoded = encode_insert(&parent, 7, &Bytes::from_static(b"inserted"));
        let (p, index, data) = decode_insert(encoded).unwrap();
        assert_eq!(p, parent);
        assert_eq!(index, 7);
        assert_eq!(data, Bytes::from_static(b"inserted"));
    }

    #[test]
    fn batched_payloads_round_trip() {
        let paths = vec![PagePath::root(), PagePath::new(vec![1, 2])];
        assert_eq!(decode_paths(encode_paths(&paths)).unwrap(), paths);

        let writes = vec![
            (PagePath::new(vec![0]), Bytes::from_static(b"a")),
            (PagePath::new(vec![1]), Bytes::new()),
        ];
        assert_eq!(decode_writes(encode_writes(&writes)).unwrap(), writes);

        let pages = vec![Bytes::from_static(b"one"), Bytes::new()];
        assert_eq!(
            decode_pages_reply(encode_pages_reply(&pages)).unwrap(),
            pages
        );
    }

    #[test]
    fn truncated_batches_are_rejected() {
        let writes = vec![(PagePath::new(vec![0]), Bytes::from_static(b"abcdef"))];
        let encoded = encode_writes(&writes);
        let truncated = encoded.slice(..encoded.len() - 3);
        assert_eq!(decode_writes(truncated), None);
    }

    #[test]
    fn read_batch_respects_the_reply_budget() {
        let paths: Vec<PagePath> = (0..8).map(|i| PagePath::new(vec![i])).collect();
        let big = Bytes::from(vec![0u8; READ_BATCH_REPLY_BUDGET / 2 - 8]);
        let served = serve_read_batch(&paths, |_| Ok(big.clone())).unwrap();
        // Two just-under-half-budget pages fill the frame; the rest wait for
        // the next call.
        assert_eq!(served.len(), 2);
        // A single over-budget page is still served (progress guarantee).
        let huge = Bytes::from(vec![0u8; READ_BATCH_REPLY_BUDGET + 16]);
        let served = serve_read_batch(&paths[..1], |_| Ok(huge.clone())).unwrap();
        assert_eq!(served.len(), 1);
    }

    #[test]
    fn receipt_round_trips() {
        let receipt = CommitReceipt {
            fast_path: false,
            validations: 3,
            pages_compared: 17,
        };
        assert_eq!(decode_receipt(encode_receipt(&receipt)).unwrap(), receipt);
    }

    #[test]
    fn validation_round_trip() {
        let changed = vec![PagePath::root(), PagePath::new(vec![7])];
        let encoded = encode_validation(false, 42, &changed, 250);
        let (up, block, paths, ttl) = decode_validation(encoded).unwrap();
        assert!(!up);
        assert_eq!(block, 42);
        assert_eq!(paths, changed);
        assert_eq!(ttl, 250);
    }

    #[test]
    fn validation_without_ttl_word_is_refused() {
        // A reply that ends right after the changed paths is malformed.
        let encoded = encode_validation(true, 7, &[PagePath::root()], 99);
        let short = encoded.slice(..encoded.len() - 4);
        assert!(decode_validation(short).is_none());
    }

    #[test]
    fn structured_errors_survive_the_wire() {
        for err in [
            FsError::SerialisabilityConflict,
            FsError::PermissionDenied,
            FsError::NoSuchFile,
            FsError::NoSuchVersion,
            FsError::AlreadyCommitted,
            FsError::NotCommitted,
            FsError::WouldBlock,
            FsError::LockTimeout,
            FsError::WrongFileKind,
            FsError::PageTooLarge(40_000),
            FsError::NoSuchPage("/1/2".into()),
            FsError::Protocol("bad frame".into()),
        ] {
            assert_eq!(decode_error(encode_error(&err)), err);
        }
        // Unstructured errors degrade to Remote with the display text.
        let decoded = decode_error(encode_error(&FsError::CorruptPage("oops".into())));
        assert!(matches!(decoded, FsError::Remote(msg) if msg.contains("oops")));
    }
}
