//! Block-server processes: the RPC façade over the **block** service, and the
//! client-side [`RemoteBlockStore`] that makes a remote disk a plain
//! [`BlockStore`].
//!
//! The paper's topology puts block servers on their own machines: "a number of
//! server processes, which, in turn, use a number of block servers for
//! information storage" (§5.4.1).  This module closes that gap in the
//! reproduction: a [`BlockServerProcess`] registers a [`BlockServerHandler`] on
//! the network, and a file-service shard reaches its replica disks through
//! `RemoteBlockStore` connections wrapped in an
//! `amoeba_block::ReplicatedBlockStore`.
//!
//! The hot path is the commit flush: `RemoteBlockStore::write_batch` ships a
//! whole batch of dirty pages as one [`BlockOp::WriteBlocks`] request per
//! frame, so a k-page commit costs O(1) block-write RPCs per replica instead of
//! k round trips.  A transport failure surfaces as [`BlockError::Crashed`],
//! which is exactly what the replica layer's auto-down/intention machinery
//! expects from a dead disk — kill a block-server process mid-commit and the
//! survivors absorb the write while the corpse's intentions queue up for
//! resync.

use std::sync::Arc;

use bytes::{Buf, BufMut, Bytes, BytesMut};

use amoeba_block::{
    BlockError, BlockNr, BlockServer, BlockStore, ReplicatedBlockStore, StoreStats,
};
use amoeba_capability::{Capability, Port};
use amoeba_rpc::block::{
    chunk_block_writes, decode_block_free, decode_block_list, decode_block_nr, decode_block_write,
    decode_block_writes, encode_block_free, encode_block_list, encode_block_nr, encode_block_write,
    encode_block_writes, BlockOp,
};
use amoeba_rpc::{
    ClientStats, FailoverPolicy, LocalNetwork, MuxClient, Reply, Request, RequestHandler, Transport,
};

// ---------------------------------------------------------------------------
// Error marshalling: one code byte + detail, mirroring the file-service ops.
// ---------------------------------------------------------------------------

const ERR_IO: u8 = 0;
const ERR_NO_SUCH_BLOCK: u8 = 1;
const ERR_FULL: u8 = 2;
const ERR_TOO_LARGE: u8 = 3;
const ERR_ALREADY_ALLOCATED: u8 = 4;
const ERR_WRITE_ONCE: u8 = 5;
const ERR_LOCKED: u8 = 6;
const ERR_CRASHED: u8 = 7;
const ERR_CORRUPTED: u8 = 8;
// Code 9 is retired and never reused; like any unknown code it decodes as `Io`.
const ERR_PERMISSION: u8 = 10;
const ERR_UNSUPPORTED: u8 = 11;
const ERR_EPOCH_MISMATCH: u8 = 12;

/// Encodes a [`BlockError`] into an error-reply payload.
pub fn encode_block_error(err: &BlockError) -> Bytes {
    let mut buf = BytesMut::new();
    match err {
        BlockError::NoSuchBlock(nr) => {
            buf.put_u8(ERR_NO_SUCH_BLOCK);
            buf.put_u32_le(*nr);
        }
        BlockError::Full => buf.put_u8(ERR_FULL),
        BlockError::TooLarge { got, max } => {
            buf.put_u8(ERR_TOO_LARGE);
            buf.put_u32_le(*got as u32);
            buf.put_u32_le(*max as u32);
        }
        BlockError::AlreadyAllocated(nr) => {
            buf.put_u8(ERR_ALREADY_ALLOCATED);
            buf.put_u32_le(*nr);
        }
        BlockError::WriteOnce(nr) => {
            buf.put_u8(ERR_WRITE_ONCE);
            buf.put_u32_le(*nr);
        }
        BlockError::Locked(nr) => {
            buf.put_u8(ERR_LOCKED);
            buf.put_u32_le(*nr);
        }
        BlockError::Crashed => buf.put_u8(ERR_CRASHED),
        BlockError::Corrupted(nr) => {
            buf.put_u8(ERR_CORRUPTED);
            buf.put_u32_le(*nr);
        }
        BlockError::PermissionDenied => buf.put_u8(ERR_PERMISSION),
        BlockError::Unsupported(what) => {
            buf.put_u8(ERR_UNSUPPORTED);
            buf.put_slice(what.as_bytes());
        }
        BlockError::Io(msg) => {
            buf.put_u8(ERR_IO);
            buf.put_slice(msg.as_bytes());
        }
        BlockError::EpochMismatch { sent, current } => {
            buf.put_u8(ERR_EPOCH_MISMATCH);
            buf.put_u64_le(*sent);
            buf.put_u64_le(*current);
        }
    }
    buf.freeze()
}

/// Decodes an error-reply payload back into a [`BlockError`].
pub fn decode_block_error(mut payload: Bytes) -> BlockError {
    if payload.is_empty() {
        return BlockError::Io("empty error reply".into());
    }
    let code = payload.get_u8();
    let nr = |payload: &mut Bytes| -> BlockNr {
        if payload.remaining() >= 4 {
            payload.get_u32_le()
        } else {
            0
        }
    };
    match code {
        ERR_NO_SUCH_BLOCK => BlockError::NoSuchBlock(nr(&mut payload)),
        ERR_FULL => BlockError::Full,
        ERR_TOO_LARGE => {
            if payload.remaining() >= 8 {
                BlockError::TooLarge {
                    got: payload.get_u32_le() as usize,
                    max: payload.get_u32_le() as usize,
                }
            } else {
                BlockError::Io("truncated TooLarge detail".into())
            }
        }
        ERR_ALREADY_ALLOCATED => BlockError::AlreadyAllocated(nr(&mut payload)),
        ERR_WRITE_ONCE => BlockError::WriteOnce(nr(&mut payload)),
        ERR_LOCKED => BlockError::Locked(nr(&mut payload)),
        ERR_CRASHED => BlockError::Crashed,
        ERR_CORRUPTED => BlockError::Corrupted(nr(&mut payload)),
        ERR_PERMISSION => BlockError::PermissionDenied,
        ERR_UNSUPPORTED => BlockError::Io(format!(
            "unsupported: {}",
            String::from_utf8_lossy(&payload)
        )),
        ERR_EPOCH_MISMATCH => {
            if payload.remaining() >= 16 {
                BlockError::EpochMismatch {
                    sent: payload.get_u64_le(),
                    current: payload.get_u64_le(),
                }
            } else {
                BlockError::Io("truncated EpochMismatch detail".into())
            }
        }
        _ => BlockError::Io(String::from_utf8_lossy(&payload).into_owned()),
    }
}

// ---------------------------------------------------------------------------
// Server side.
// ---------------------------------------------------------------------------

/// The block-service request handler: decodes [`BlockOp`]s, calls the
/// [`BlockServer`], encodes replies.  Stateless apart from the shared server,
/// like its file-service sibling.
pub struct BlockServerHandler {
    server: Arc<BlockServer>,
}

impl BlockServerHandler {
    /// Creates a handler over the shared block-server state.
    pub fn new(server: Arc<BlockServer>) -> Self {
        BlockServerHandler { server }
    }

    fn dispatch(&self, request: Request) -> Result<Bytes, BlockError> {
        let op = BlockOp::from_u32(request.op)
            .ok_or(BlockError::Unsupported("unknown block operation"))?;
        let bad_args = || BlockError::Io("bad block-op arguments".into());
        match op {
            BlockOp::CreateAccount => {
                let cap = self.server.create_account();
                let mut buf = BytesMut::with_capacity(25);
                cap.encode(&mut buf);
                Ok(buf.freeze())
            }
            BlockOp::BlockSize => Ok(encode_block_nr(self.server.block_size() as u32)),
            BlockOp::Allocate => {
                let nr = self.server.allocate(&request.cap)?;
                Ok(encode_block_nr(nr))
            }
            BlockOp::AllocateAt => {
                let nr = decode_block_nr(request.payload).ok_or_else(bad_args)?;
                self.server.allocate_at(&request.cap, nr)?;
                Ok(Bytes::new())
            }
            BlockOp::Free => {
                let (epoch, nr) = decode_block_free(request.payload).ok_or_else(bad_args)?;
                self.server.free_epoch(&request.cap, epoch, nr)?;
                Ok(Bytes::new())
            }
            BlockOp::Read => {
                let nr = decode_block_nr(request.payload).ok_or_else(bad_args)?;
                self.server.read(&request.cap, nr)
            }
            BlockOp::Write => {
                let (nr, data) = decode_block_write(request.payload).ok_or_else(bad_args)?;
                self.server.write(&request.cap, nr, data)?;
                Ok(Bytes::new())
            }
            BlockOp::WriteBlocks => {
                let (epoch, writes) = decode_block_writes(request.payload).ok_or_else(bad_args)?;
                // One scatter-gather call into the store: the whole frame's
                // worth of blocks costs one physical write call.  The sender's
                // membership-epoch stamp is checked first, so a coordinator
                // with a stale view of the replica set is rejected whole.
                self.server
                    .write_batch_epoch(&request.cap, epoch, &writes)?;
                Ok(Bytes::new())
            }
            BlockOp::IsAllocated => {
                let nr = decode_block_nr(request.payload).ok_or_else(bad_args)?;
                Ok(Bytes::from(vec![u8::from(
                    self.server.store().is_allocated(nr),
                )]))
            }
            BlockOp::AllocatedCount => {
                Ok(encode_block_nr(self.server.store().allocated_count() as u32))
            }
            BlockOp::AllocatedBlocks => {
                Ok(encode_block_list(&self.server.store().allocated_blocks()))
            }
        }
    }
}

impl RequestHandler for BlockServerHandler {
    fn handle(&self, request: Request) -> Reply {
        match self.dispatch(request) {
            Ok(payload) => Reply::ok(payload),
            Err(e) => Reply::error(encode_block_error(&e)),
        }
    }
}

/// One block-server process: a disk behind a port on the network.  Crashing the
/// process makes the port unreachable — clients observe
/// [`BlockError::Crashed`], exactly like a dead disk — while the data survives
/// for the restart.
pub struct BlockServerProcess {
    port: Port,
    network: Arc<LocalNetwork>,
    server: Arc<BlockServer>,
}

impl BlockServerProcess {
    /// Starts a block-server process over `store` on a fresh port of `network`.
    pub fn start(network: Arc<LocalNetwork>, store: Arc<dyn BlockStore>) -> Self {
        let server = Arc::new(BlockServer::new(store));
        let port = Port::random();
        network.register(port, Arc::new(BlockServerHandler::new(Arc::clone(&server))));
        BlockServerProcess {
            port,
            network,
            server,
        }
    }

    /// The port clients address this process by.
    pub fn port(&self) -> Port {
        self.port
    }

    /// The block server behind the port (for test assertions on the disk).
    pub fn server(&self) -> &Arc<BlockServer> {
        &self.server
    }

    /// Simulates a crash of this block-server process.
    pub fn crash(&self) {
        self.network.isolate(self.port);
    }

    /// Restarts the process after a crash; the disk contents are intact.
    pub fn restart(&self) {
        self.network.restore(self.port);
    }
}

// ---------------------------------------------------------------------------
// Client side.
// ---------------------------------------------------------------------------

/// A remote disk: implements [`BlockStore`] by sending [`BlockOp`] transactions
/// to a block-server process.  Wrap N of these in a
/// [`ReplicatedBlockStore`] and a file-service shard stores its pages on N
/// remote replica disks, with a commit flush costing one `WriteBlocks` RPC per
/// replica.
pub struct RemoteBlockStore<T: Transport> {
    client: MuxClient<T>,
    account: Capability,
    block_size: usize,
    /// The replica set's current membership epoch, pushed down by
    /// `ReplicatedBlockStore` via [`BlockStore::set_epoch`] and stamped into
    /// every `WriteBlocks` and `Free` request (0 = not part of a replica set).
    epoch: std::sync::atomic::AtomicU64,
}

impl<T: Transport> RemoteBlockStore<T> {
    /// Connects to the block server at `port`: creates an account and caches
    /// the block size.
    pub fn connect(transport: T, port: Port) -> amoeba_block::Result<Self> {
        // A single-server client with a much shorter retry schedule than the
        // file-service default: the replica layer above wants a dead disk
        // surfaced promptly.
        let client = MuxClient::new(transport, vec![port]).with_backoff(
            std::time::Duration::from_millis(1),
            std::time::Duration::from_millis(4),
            2,
        );
        let account = {
            let mut payload = Self::transact(
                &client,
                Request::empty(BlockOp::CreateAccount as u32, Capability::null()),
                FailoverPolicy::Never,
            )?;
            Capability::decode(&mut payload)
                .ok_or_else(|| BlockError::Io("bad account capability reply".into()))?
        };
        let block_size = {
            let reply = Self::transact(
                &client,
                Request::empty(BlockOp::BlockSize as u32, account),
                FailoverPolicy::Always,
            )?;
            decode_block_nr(reply).ok_or_else(|| BlockError::Io("bad block-size reply".into()))?
                as usize
        };
        Ok(RemoteBlockStore {
            client,
            account,
            block_size,
            epoch: std::sync::atomic::AtomicU64::new(0),
        })
    }

    /// Uniform client statistics: backed-off retry rounds of idempotent
    /// requests, transport reconnects, and the in-flight high-water mark.
    pub fn stats(&self) -> ClientStats {
        self.client.stats()
    }

    fn transact(
        client: &MuxClient<T>,
        request: Request,
        policy: FailoverPolicy,
    ) -> amoeba_block::Result<Bytes> {
        // Any transport failure is indistinguishable from a dead disk, which is
        // precisely the semantics the replica layer wants: auto-down the
        // replica and queue intentions.
        let reply = client
            .transact(request, policy)
            .map_err(|_| BlockError::Crashed)?;
        if reply.is_ok() {
            Ok(reply.payload)
        } else {
            Err(decode_block_error(reply.payload))
        }
    }

    /// One mutation attempt, no retry ([`FailoverPolicy::Never`]): the
    /// replica layer above owns mutation failure handling (auto-down,
    /// intentions, resync), and it wants to see a dead disk promptly, not
    /// after a retry schedule.
    fn call(&self, op: BlockOp, payload: Bytes) -> amoeba_block::Result<Bytes> {
        Self::transact(
            &self.client,
            Request::new(op as u32, self.account, payload),
            FailoverPolicy::Never,
        )
    }

    /// `call` with the client's short backed-off retry around transport
    /// failures.  Only for *idempotent* requests (reads and queries):
    /// replaying one past an ambiguous failure cannot double-apply anything.
    fn call_idempotent(&self, op: BlockOp, payload: Bytes) -> amoeba_block::Result<Bytes> {
        Self::transact(
            &self.client,
            Request::new(op as u32, self.account, payload),
            FailoverPolicy::Always,
        )
    }
}

impl<T: Transport> BlockStore for RemoteBlockStore<T> {
    fn block_size(&self) -> usize {
        self.block_size
    }

    fn allocate(&self) -> amoeba_block::Result<BlockNr> {
        let reply = self.call(BlockOp::Allocate, Bytes::new())?;
        decode_block_nr(reply).ok_or_else(|| BlockError::Io("bad allocate reply".into()))
    }

    fn allocate_at(&self, nr: BlockNr) -> amoeba_block::Result<()> {
        self.call(BlockOp::AllocateAt, encode_block_nr(nr))?;
        Ok(())
    }

    fn free(&self, nr: BlockNr) -> amoeba_block::Result<()> {
        // Stamped like `write_batch`, so a fenced-off coordinator frees nothing.
        let epoch = self.epoch.load(std::sync::atomic::Ordering::SeqCst);
        self.call(BlockOp::Free, encode_block_free(epoch, nr))?;
        Ok(())
    }

    fn read(&self, nr: BlockNr) -> amoeba_block::Result<Bytes> {
        self.call_idempotent(BlockOp::Read, encode_block_nr(nr))
    }

    fn write(&self, nr: BlockNr, data: Bytes) -> amoeba_block::Result<()> {
        self.call(BlockOp::Write, encode_block_write(nr, &data))?;
        Ok(())
    }

    fn write_batch(&self, writes: &[(BlockNr, Bytes)]) -> amoeba_block::Result<()> {
        // One WriteBlocks request per frame's worth of blocks: the k-page
        // commit flush of the common case rides a single RPC, stamped with the
        // newest membership epoch this connection has been told about.
        let epoch = self.epoch.load(std::sync::atomic::Ordering::SeqCst);
        for chunk in chunk_block_writes(writes) {
            self.call(BlockOp::WriteBlocks, encode_block_writes(epoch, chunk))?;
        }
        Ok(())
    }

    fn is_allocated(&self, nr: BlockNr) -> bool {
        match self.call_idempotent(BlockOp::IsAllocated, encode_block_nr(nr)) {
            Ok(payload) => payload.first().is_some_and(|&b| b != 0),
            Err(_) => false,
        }
    }

    fn allocated_count(&self) -> usize {
        match self.call_idempotent(BlockOp::AllocatedCount, Bytes::new()) {
            Ok(payload) => decode_block_nr(payload).unwrap_or(0) as usize,
            Err(_) => 0,
        }
    }

    fn stats(&self) -> StoreStats {
        // The remote disk's counters live server-side, in the block server's
        // own store; this client cannot see them.
        StoreStats::default()
    }

    fn allocated_blocks(&self) -> Vec<BlockNr> {
        match self.call_idempotent(BlockOp::AllocatedBlocks, Bytes::new()) {
            Ok(payload) => decode_block_list(payload).unwrap_or_default(),
            Err(_) => Vec::new(),
        }
    }

    fn set_epoch(&self, epoch: u64) {
        // Monotonic: the replica layer re-propagates on every bump, and an
        // out-of-order arrival must never regress the stamp (a regressed stamp
        // would make this coordinator look stale to its own servers).
        self.epoch
            .fetch_max(epoch, std::sync::atomic::Ordering::SeqCst);
    }
}

/// Launches `replicas` block-server processes on `network` over fresh in-memory
/// disks and wires a [`ReplicatedBlockStore`] of [`RemoteBlockStore`]
/// connections over them: the storage tier of one file-service shard, fully
/// behind RPC.  Returns the replica set and the processes (for crash/restart
/// experiments).
pub fn remote_replica_set(
    network: &Arc<LocalNetwork>,
    replicas: usize,
) -> (Arc<ReplicatedBlockStore>, Vec<BlockServerProcess>) {
    let processes: Vec<BlockServerProcess> = (0..replicas)
        .map(|_| {
            BlockServerProcess::start(Arc::clone(network), Arc::new(amoeba_block::MemStore::new()))
        })
        .collect();
    let stores: Vec<Arc<dyn BlockStore>> = processes
        .iter()
        .map(|p| {
            Arc::new(
                RemoteBlockStore::connect(Arc::clone(network), p.port())
                    .expect("connect to freshly started block server"),
            ) as Arc<dyn BlockStore>
        })
        .collect();
    (ReplicatedBlockStore::new(stores), processes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use amoeba_block::MemStore;

    fn remote() -> (
        Arc<LocalNetwork>,
        BlockServerProcess,
        RemoteBlockStore<Arc<LocalNetwork>>,
    ) {
        let network = Arc::new(LocalNetwork::new());
        let process = BlockServerProcess::start(Arc::clone(&network), Arc::new(MemStore::new()));
        let store = RemoteBlockStore::connect(Arc::clone(&network), process.port()).unwrap();
        (network, process, store)
    }

    #[test]
    fn remote_store_round_trips_the_block_protocol() {
        let (_network, _process, store) = remote();
        assert_eq!(store.block_size(), 36 * 1024);
        let nr = store.allocate().unwrap();
        assert!(store.is_allocated(nr));
        store
            .write(nr, Bytes::from_static(b"over the wire"))
            .unwrap();
        assert_eq!(
            store.read(nr).unwrap(),
            Bytes::from_static(b"over the wire")
        );
        store.allocate_at(nr + 7).unwrap();
        assert_eq!(store.allocated_count(), 2);
        let mut listed = store.allocated_blocks();
        listed.sort_unstable();
        assert_eq!(listed, vec![nr, nr + 7]);
        store.free(nr).unwrap();
        assert_eq!(store.read(nr), Err(BlockError::NoSuchBlock(nr)));
    }

    #[test]
    fn write_batch_is_one_rpc_per_frame() {
        let (network, process, store) = remote();
        let blocks: Vec<BlockNr> = (0..16).map(|_| store.allocate().unwrap()).collect();
        let writes: Vec<(BlockNr, Bytes)> = blocks
            .iter()
            .map(|&nr| (nr, Bytes::from(vec![nr as u8; 64])))
            .collect();
        let before = network.transaction_count();
        store.write_batch(&writes).unwrap();
        assert_eq!(
            network.transaction_count() - before,
            1,
            "16 small blocks must travel as one WriteBlocks request"
        );
        for &nr in &blocks {
            assert_eq!(store.read(nr).unwrap(), Bytes::from(vec![nr as u8; 64]));
        }
        // The server's disk saw one physical write call.
        assert_eq!(process.server().stats().write_calls, 1);
        assert_eq!(process.server().stats().writes, 16);
    }

    #[test]
    fn structured_errors_survive_the_wire() {
        for err in [
            BlockError::NoSuchBlock(7),
            BlockError::Full,
            BlockError::TooLarge {
                got: 40000,
                max: 32768,
            },
            BlockError::AlreadyAllocated(9),
            BlockError::WriteOnce(3),
            BlockError::Locked(1),
            BlockError::Crashed,
            BlockError::Corrupted(12),
            BlockError::PermissionDenied,
            BlockError::Io("boom".into()),
            BlockError::EpochMismatch {
                sent: 4,
                current: 9,
            },
        ] {
            assert_eq!(decode_block_error(encode_block_error(&err)), err);
        }
    }

    #[test]
    fn a_stale_coordinator_is_rejected_over_the_wire() {
        let (network, process, store) = remote();
        let nr = store.allocate().unwrap();
        // A coordinator at epoch 5 writes: the server adopts the stamp.
        store.set_epoch(5);
        store
            .write_batch(&[(nr, Bytes::from_static(b"fresh"))])
            .unwrap();
        assert_eq!(process.server().epoch(), 5);
        // A second connection still at an older view is turned away whole.
        let stale = RemoteBlockStore::connect(Arc::clone(&network), process.port()).unwrap();
        let theirs = stale.allocate().unwrap();
        stale.set_epoch(3);
        assert_eq!(
            stale.write_batch(&[(theirs, Bytes::from_static(b"stale"))]),
            Err(BlockError::EpochMismatch {
                sent: 3,
                current: 5
            })
        );
        // Its free is fenced off too, even of its own block.
        assert_eq!(
            stale.free(theirs),
            Err(BlockError::EpochMismatch {
                sent: 3,
                current: 5
            })
        );
        assert!(stale.is_allocated(theirs), "a refused free frees nothing");
        // The stamp is monotonic client-side too: catching up heals it.
        stale.set_epoch(5);
        stale
            .write_batch(&[(theirs, Bytes::from_static(b"caught up"))])
            .unwrap();
        assert_eq!(
            stale.read(theirs).unwrap(),
            Bytes::from_static(b"caught up")
        );
    }

    #[test]
    fn crashed_process_reads_as_a_crashed_disk() {
        let (_network, process, store) = remote();
        let nr = store.allocate().unwrap();
        store.write(nr, Bytes::from_static(b"before")).unwrap();
        process.crash();
        assert_eq!(store.read(nr), Err(BlockError::Crashed));
        assert_eq!(
            store.write(nr, Bytes::from_static(b"nope")),
            Err(BlockError::Crashed)
        );
        assert!(!store.is_allocated(nr), "a dead process answers nothing");
        process.restart();
        assert_eq!(store.read(nr).unwrap(), Bytes::from_static(b"before"));
    }

    #[test]
    fn forged_account_is_rejected_remotely() {
        let (network, process, store) = remote();
        let nr = store.allocate().unwrap();
        // A second client with its own account cannot touch the first's block.
        let intruder = RemoteBlockStore::connect(Arc::clone(&network), process.port()).unwrap();
        assert_eq!(
            intruder.write(nr, Bytes::from_static(b"steal")),
            Err(BlockError::PermissionDenied)
        );
    }

    #[test]
    fn remote_replica_set_survives_a_process_crash_mid_stream() {
        let network = Arc::new(LocalNetwork::new());
        let (replicas, processes) = remote_replica_set(&network, 3);
        let nr = replicas.allocate().unwrap();
        replicas.write(nr, Bytes::from_static(b"v1")).unwrap();
        // Kill one block-server process; the quorum fan-out acks on the two
        // survivors while the corpse is auto-downed with the batch queued.
        processes[1].crash();
        let blocks: Vec<BlockNr> = (0..4).map(|_| replicas.allocate().unwrap()).collect();
        let writes: Vec<(BlockNr, Bytes)> = blocks
            .iter()
            .map(|&b| (b, Bytes::from_static(b"v2")))
            .collect();
        replicas.write_batch(&writes).unwrap();
        // The ack needed only the surviving majority: drain the corpse's
        // worker before asserting it was deposed.
        replicas.quiesce();
        assert!(replicas.is_down(1));
        assert!(replicas.replica_stats().intentions_recorded >= 4);

        processes[1].restart();
        replicas.resync(1).unwrap();
        assert!(
            replicas.divergent_blocks().is_empty(),
            "resync over RPC restores replica agreement"
        );
    }
}
