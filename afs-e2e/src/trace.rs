//! Outside-in tracing: decorators on the public trait seams of the file
//! service, the span recorder they report to, and the span arithmetic.
//!
//! The program under test carries no spans of its own (that is ROADMAP item
//! 2), so every layer is measured from outside, at the trait boundary above
//! it.  Each decorator owns a [`Seam`]: a call counter that is always on and a
//! span recorder that is on only in the traced pass.  With one sequential
//! client the layers nest strictly, so a layer's self time is the time during
//! which it is the deepest layer with a span open (see [`self_times`]).

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use afs_core::{
    CacheValidation, Capability, CommitReceipt, FileStore, FsError, PagePath, Port, Result,
};
use amoeba_block::{BlockNr, BlockStore};
use amoeba_rpc::tcp::TcpClient;
use amoeba_rpc::{CallbackChannel, CallbackSink, Reply, Request, RequestHandler, Transport};
use bytes::Bytes;

/// The seams, outermost first.  A span of layer `n` is opened by the layer
/// above it and covers everything from layer `n` down.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
pub enum Layer {
    /// One workload operation, opened by the driver (covers `NamedStore`,
    /// `ClientCache` and the `update_with` retry loop).
    Root,
    /// A `FileStore` call into `RemoteFs` (or straight into `FileService` in
    /// the local pass).
    ClientStore,
    /// A file-port `Transport::transact`.
    RpcFile,
    /// The file-port `RequestHandler`: `FileServerHandler` + `FileService`.
    ServerFile,
    /// A `BlockStore` call from `FileService`'s `BlockServer` into the
    /// replica set.
    CoreBlock,
    /// A `BlockStore` call from the replica set into one `RemoteBlockStore`.
    BlockRemote,
    /// A block-port `Transport::transact`.
    RpcBlock,
    /// A block-port `RequestHandler`: `BlockServerHandler` + `BlockServer`.
    ServerBlock,
    /// A `BlockStore` call into one `MemStore`.
    BlockStore,
}

pub const LAYERS: usize = 9;

impl Layer {
    pub fn name(self) -> &'static str {
        [
            "root",
            "client.store",
            "rpc.file",
            "server.file",
            "core.block",
            "block.remote",
            "rpc.block",
            "server.block",
            "block.store",
        ][self as usize]
    }
}

#[derive(Clone, Debug)]
pub struct Span {
    pub layer: Layer,
    /// Client index above the file server, replica index below it.
    pub lane: u8,
    /// Trait method, or `"rpc"` with the wire op in `code`.
    pub op: &'static str,
    pub code: u32,
    pub start: u64,
    pub end: u64,
}

/// In-memory span sink shared by every decorator of one deployment.
pub struct Recorder {
    on: AtomicBool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new() -> Arc<Self> {
        Arc::new(Recorder {
            on: AtomicBool::new(false),
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        })
    }

    pub fn set_enabled(&self, on: bool) {
        self.on.store(on, Relaxed);
    }

    pub fn enabled(&self) -> bool {
        self.on.load(Relaxed)
    }

    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn push(&self, span: Span) {
        self.spans.lock().expect("span sink poisoned").push(span);
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span sink poisoned"))
    }
}

/// One instrumented boundary: counts always, spans when the recorder is on.
pub struct Seam {
    rec: Arc<Recorder>,
    layer: Layer,
    lane: u8,
    pub calls: AtomicU64,
    pub bytes: AtomicU64,
}

impl Seam {
    pub fn new(rec: &Arc<Recorder>, layer: Layer, lane: usize) -> Self {
        Seam {
            rec: Arc::clone(rec),
            layer,
            lane: lane as u8,
            calls: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
        }
    }

    pub fn time<R>(&self, op: &'static str, code: u32, call: impl FnOnce() -> R) -> R {
        self.calls.fetch_add(1, Relaxed);
        if !self.rec.enabled() {
            return call();
        }
        let start = self.rec.now();
        let result = call();
        self.rec.push(Span {
            layer: self.layer,
            lane: self.lane,
            op,
            code,
            start,
            end: self.rec.now(),
        });
        result
    }
}

// ---------------------------------------------------------------------------
// FileStore seam.
// ---------------------------------------------------------------------------

/// The client-facing `FileStore` decorator.  Besides the seam it keeps the
/// counts the client-side ratios are built from; nothing here reads the
/// repository's own `*Stats` structs.
pub struct TracedStore {
    inner: Box<dyn FileStore>,
    pub seam: Seam,
    pub validate_calls: AtomicU64,
    pub current_version_calls: AtomicU64,
    pub read_committed_calls: AtomicU64,
    pub commits: AtomicU64,
    pub conflicts: AtomicU64,
}

impl TracedStore {
    pub fn new(inner: Box<dyn FileStore>, rec: &Arc<Recorder>, lane: usize) -> Self {
        TracedStore {
            inner,
            seam: Seam::new(rec, Layer::ClientStore, lane),
            validate_calls: AtomicU64::new(0),
            current_version_calls: AtomicU64::new(0),
            read_committed_calls: AtomicU64::new(0),
            commits: AtomicU64::new(0),
            conflicts: AtomicU64::new(0),
        }
    }
}

impl FileStore for TracedStore {
    fn create_file(&self) -> Result<Capability> {
        self.seam
            .time("create_file", 0, || self.inner.create_file())
    }

    fn create_version(&self, file: &Capability) -> Result<Capability> {
        self.seam
            .time("create_version", 0, || self.inner.create_version(file))
    }

    fn read_page(&self, version: &Capability, path: &PagePath) -> Result<Bytes> {
        self.seam
            .time("read_page", 0, || self.inner.read_page(version, path))
    }

    fn write_page(&self, version: &Capability, path: &PagePath, data: Bytes) -> Result<()> {
        self.seam.time("write_page", 0, || {
            self.inner.write_page(version, path, data)
        })
    }

    fn append_page(
        &self,
        version: &Capability,
        parent: &PagePath,
        data: Bytes,
    ) -> Result<PagePath> {
        self.seam.time("append_page", 0, || {
            self.inner.append_page(version, parent, data)
        })
    }

    fn insert_page(
        &self,
        version: &Capability,
        parent: &PagePath,
        index: u16,
        data: Bytes,
    ) -> Result<PagePath> {
        self.seam.time("insert_page", 0, || {
            self.inner.insert_page(version, parent, index, data)
        })
    }

    fn remove_page(&self, version: &Capability, path: &PagePath) -> Result<()> {
        self.seam
            .time("remove_page", 0, || self.inner.remove_page(version, path))
    }

    fn commit(&self, version: &Capability) -> Result<CommitReceipt> {
        let result = self.seam.time("commit", 0, || self.inner.commit(version));
        match &result {
            Ok(_) => self.commits.fetch_add(1, Relaxed),
            Err(FsError::SerialisabilityConflict) => self.conflicts.fetch_add(1, Relaxed),
            Err(_) => 0,
        };
        result
    }

    fn abort(&self, version: &Capability) -> Result<()> {
        self.seam.time("abort", 0, || self.inner.abort(version))
    }

    fn current_version(&self, file: &Capability) -> Result<Capability> {
        self.current_version_calls.fetch_add(1, Relaxed);
        self.seam
            .time("current_version", 0, || self.inner.current_version(file))
    }

    fn read_committed_page(&self, version: &Capability, path: &PagePath) -> Result<Bytes> {
        self.read_committed_calls.fetch_add(1, Relaxed);
        self.seam.time("read_committed_page", 0, || {
            self.inner.read_committed_page(version, path)
        })
    }

    fn validate_cache(&self, file: &Capability, cached_block: BlockNr) -> Result<CacheValidation> {
        self.validate_calls.fetch_add(1, Relaxed);
        self.seam.time("validate_cache", 0, || {
            self.inner.validate_cache(file, cached_block)
        })
    }

    fn read_pages(&self, version: &Capability, paths: &[PagePath]) -> Result<Vec<Bytes>> {
        self.seam
            .time("read_pages", 0, || self.inner.read_pages(version, paths))
    }

    fn write_pages(&self, version: &Capability, writes: &[(PagePath, Bytes)]) -> Result<()> {
        self.seam
            .time("write_pages", 0, || self.inner.write_pages(version, writes))
    }
}

// ---------------------------------------------------------------------------
// Transport seam.
// ---------------------------------------------------------------------------

/// A `TcpClient` that counts and times every transaction.
pub struct TracedTransport {
    inner: TcpClient,
    pub seam: Seam,
    /// Wire op counted separately in `watched_rpcs` (`ValidateCache` on the
    /// file port: the denominator of the lease zero-RPC ratio).
    watch_op: Option<u32>,
    pub watched_rpcs: AtomicU64,
}

impl TracedTransport {
    pub fn connect(
        server: SocketAddr,
        rec: &Arc<Recorder>,
        layer: Layer,
        lane: usize,
        watch_op: Option<u32>,
    ) -> Self {
        TracedTransport {
            inner: TcpClient::new(server).with_connections(1),
            seam: Seam::new(rec, layer, lane),
            watch_op,
            watched_rpcs: AtomicU64::new(0),
        }
    }
}

impl Transport for TracedTransport {
    fn transact(&self, port: Port, request: Request) -> amoeba_rpc::Result<Reply> {
        if Some(request.op) == self.watch_op {
            self.watched_rpcs.fetch_add(1, Relaxed);
        }
        let (op, sent) = (request.op, request.payload.len());
        let reply = self
            .seam
            .time("rpc", op, || self.inner.transact(port, request));
        let received = reply.as_ref().map_or(0, |r| r.payload.len());
        self.seam.bytes.fetch_add((sent + received) as u64, Relaxed);
        reply
    }

    fn reconnects(&self) -> u64 {
        self.inner.reconnects()
    }

    // Leases ride on the callback channel; a decorator that swallowed this
    // would silently turn every warm read into a round trip.
    fn register_callback_sink(&self, sink: Arc<dyn CallbackSink>) -> bool {
        self.inner.register_callback_sink(sink)
    }
}

// ---------------------------------------------------------------------------
// RequestHandler seam.
// ---------------------------------------------------------------------------

pub struct TracedHandler {
    inner: Arc<dyn RequestHandler>,
    seam: Seam,
}

impl TracedHandler {
    pub fn new(
        inner: Arc<dyn RequestHandler>,
        rec: &Arc<Recorder>,
        layer: Layer,
        lane: usize,
    ) -> Self {
        TracedHandler {
            inner,
            seam: Seam::new(rec, layer, lane),
        }
    }
}

impl RequestHandler for TracedHandler {
    fn handle(&self, request: Request) -> Reply {
        let op = request.op;
        self.seam.time("rpc", op, || self.inner.handle(request))
    }

    fn handle_from(&self, request: Request, peer: Option<&Arc<dyn CallbackChannel>>) -> Reply {
        let op = request.op;
        self.seam
            .time("rpc", op, || self.inner.handle_from(request, peer))
    }
}

// ---------------------------------------------------------------------------
// BlockStore seam.
// ---------------------------------------------------------------------------

/// One successful call seen at a store seam, kept for the disk replay probe.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BlockCall {
    Allocate(BlockNr),
    Free(BlockNr),
    Read(BlockNr, usize),
    Write(Vec<(BlockNr, usize)>),
}

pub struct TracedBlockStore {
    inner: Arc<dyn BlockStore>,
    pub seam: Seam,
    pub blocks_written: AtomicU64,
    /// Successful calls while the recorder is on (replica 0's `MemStore` only).
    calls: Option<Mutex<Vec<BlockCall>>>,
}

impl TracedBlockStore {
    pub fn new(
        inner: Arc<dyn BlockStore>,
        rec: &Arc<Recorder>,
        layer: Layer,
        lane: usize,
        capture: bool,
    ) -> Self {
        TracedBlockStore {
            inner,
            seam: Seam::new(rec, layer, lane),
            blocks_written: AtomicU64::new(0),
            calls: capture.then(|| Mutex::new(Vec::new())),
        }
    }

    pub fn take_calls(&self) -> Vec<BlockCall> {
        self.calls
            .as_ref()
            .map(|calls| std::mem::take(&mut *calls.lock().expect("call log poisoned")))
            .unwrap_or_default()
    }

    fn log(&self, call: impl FnOnce() -> BlockCall) {
        if let Some(calls) = &self.calls {
            if self.seam.rec.enabled() {
                calls.lock().expect("call log poisoned").push(call());
            }
        }
    }

    fn count_writes(&self, blocks: usize, bytes: usize) {
        self.blocks_written.fetch_add(blocks as u64, Relaxed);
        self.seam.bytes.fetch_add(bytes as u64, Relaxed);
    }
}

impl BlockStore for TracedBlockStore {
    fn block_size(&self) -> usize {
        self.inner.block_size()
    }

    fn allocate(&self) -> amoeba_block::Result<BlockNr> {
        let result = self.seam.time("allocate", 0, || self.inner.allocate());
        if let Ok(nr) = &result {
            self.log(|| BlockCall::Allocate(*nr));
        }
        result
    }

    fn allocate_at(&self, nr: BlockNr) -> amoeba_block::Result<()> {
        let result = self
            .seam
            .time("allocate_at", 0, || self.inner.allocate_at(nr));
        if result.is_ok() {
            self.log(|| BlockCall::Allocate(nr));
        }
        result
    }

    fn free(&self, nr: BlockNr) -> amoeba_block::Result<()> {
        let result = self.seam.time("free", 0, || self.inner.free(nr));
        if result.is_ok() {
            self.log(|| BlockCall::Free(nr));
        }
        result
    }

    fn read(&self, nr: BlockNr) -> amoeba_block::Result<Bytes> {
        let result = self.seam.time("read", 0, || self.inner.read(nr));
        if let Ok(data) = &result {
            self.log(|| BlockCall::Read(nr, data.len()));
        }
        result
    }

    fn write(&self, nr: BlockNr, data: Bytes) -> amoeba_block::Result<()> {
        let len = data.len();
        let result = self.seam.time("write", 0, || self.inner.write(nr, data));
        if result.is_ok() {
            self.count_writes(1, len);
            self.log(|| BlockCall::Write(vec![(nr, len)]));
        }
        result
    }

    fn write_batch(&self, writes: &[(BlockNr, Bytes)]) -> amoeba_block::Result<()> {
        let result = self
            .seam
            .time("write_batch", 0, || self.inner.write_batch(writes));
        if result.is_ok() {
            self.count_writes(writes.len(), writes.iter().map(|(_, d)| d.len()).sum());
            self.log(|| BlockCall::Write(writes.iter().map(|(nr, d)| (*nr, d.len())).collect()));
        }
        result
    }

    fn is_allocated(&self, nr: BlockNr) -> bool {
        self.inner.is_allocated(nr)
    }

    fn allocated_count(&self) -> usize {
        self.inner.allocated_count()
    }

    // Forwarded untouched: the benchmark never reads it.
    fn stats(&self) -> amoeba_block::StoreStats {
        self.inner.stats()
    }

    fn allocated_blocks(&self) -> Vec<BlockNr> {
        self.inner.allocated_blocks()
    }

    fn set_epoch(&self, epoch: u64) {
        self.inner.set_epoch(epoch)
    }
}

// ---------------------------------------------------------------------------
// Span arithmetic.
// ---------------------------------------------------------------------------

/// Splits the time covered by root spans among the layers: every instant
/// inside a root span goes to the deepest layer reachable from the root
/// through layers that all have a span open at that instant.  For strictly
/// nested spans this is "span minus the union of its child spans"; children
/// that overlap are counted once, and a straggler (a replica write still
/// running after its parent returned) stops counting when its parent ends.
/// Layers with no span in `spans` at all (the local pass has no RPC layers)
/// are skipped.  The result sums to the total root time exactly.
pub fn self_times(spans: &[Span]) -> [u64; LAYERS] {
    let mut present = [false; LAYERS];
    let mut edges: Vec<(u64, i32, usize)> = Vec::with_capacity(spans.len() * 2);
    for span in spans {
        let depth = span.layer as usize;
        present[depth] = true;
        edges.push((span.start, 1, depth));
        edges.push((span.end.max(span.start), -1, depth));
    }
    edges.sort_unstable();
    let depths: Vec<usize> = (1..LAYERS).filter(|&d| present[d]).collect();

    let mut open = [0i32; LAYERS];
    let mut out = [0u64; LAYERS];
    let mut last = 0u64;
    for (at, delta, depth) in edges {
        if open[0] > 0 && at > last {
            let mut deepest = 0;
            for &d in &depths {
                if open[d] == 0 {
                    break;
                }
                deepest = d;
            }
            out[deepest] += at - last;
        }
        open[depth] += delta;
        last = at;
    }
    out
}

/// Total duration of the spans of one layer.
pub fn busy(spans: &[Span], layer: Layer) -> u64 {
    spans
        .iter()
        .filter(|s| s.layer == layer)
        .map(|s| s.end - s.start)
        .sum()
}

/// How the quorum-acknowledged writes of the replica set spent their time.
#[derive(Default, Debug, PartialEq)]
pub struct QuorumTimes {
    pub calls: u64,
    /// Replica-set span minus the duration of the child that completed the quorum.
    pub self_ns: u64,
    /// From the first child's completion to the quorum-completing child's.
    pub wait_ns: u64,
    /// From the replica-set call's return to the slowest child's completion.
    pub straggler_ns: u64,
}

fn is_write(span: &Span) -> bool {
    matches!(span.op, "write" | "write_batch")
}

/// Pairs every replica-set write with its per-replica child writes.  Each
/// replica applies its writes in submission order through one FIFO worker, so
/// the k-th write span on a lane belongs to the k-th replica-set write; the
/// caller must have quiesced the replica set around the traced window so the
/// sequences line up.
pub fn quorum_times(spans: &[Span], replicas: usize) -> QuorumTimes {
    let mut parents: Vec<&Span> = spans
        .iter()
        .filter(|s| s.layer == Layer::CoreBlock && is_write(s))
        .collect();
    parents.sort_by_key(|s| s.start);
    let mut lanes: Vec<Vec<&Span>> = vec![Vec::new(); replicas];
    for span in spans {
        if span.layer == Layer::BlockRemote && is_write(span) {
            lanes[span.lane as usize].push(span);
        }
    }
    lanes
        .iter_mut()
        .for_each(|lane| lane.sort_by_key(|s| s.start));

    let quorum = replicas / 2 + 1;
    let mut out = QuorumTimes::default();
    for (k, parent) in parents.iter().enumerate() {
        let mut children: Vec<&Span> = lanes
            .iter()
            .filter_map(|lane| lane.get(k).copied())
            .collect();
        if children.len() < quorum {
            continue;
        }
        children.sort_by_key(|s| s.end);
        let decisive = children[quorum - 1];
        out.calls += 1;
        out.self_ns += (parent.end - parent.start).saturating_sub(decisive.end - decisive.start);
        out.wait_ns += decisive.end - children[0].end;
        out.straggler_ns += children[children.len() - 1].end.saturating_sub(parent.end);
    }
    out
}

pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write;
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            r#"{{"layer":"{}","lane":{},"op":"{}","code":{},"start_ns":{},"end_ns":{}}}"#,
            s.layer.name(),
            s.lane,
            s.op,
            s.code,
            s.start,
            s.end
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: Layer, lane: u8, op: &'static str, start: u64, end: u64) -> Span {
        Span {
            layer,
            lane,
            op,
            code: 0,
            start,
            end,
        }
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        let spans = [
            span(Layer::Root, 0, "op", 0, 100),
            span(Layer::ClientStore, 0, "a", 10, 40),
            span(Layer::ClientStore, 0, "b", 30, 60),
            span(Layer::RpcFile, 0, "rpc", 35, 50),
        ];
        let out = self_times(&spans);
        assert_eq!(out[Layer::Root as usize], 50);
        assert_eq!(out[Layer::ClientStore as usize], 35);
        assert_eq!(out[Layer::RpcFile as usize], 15);
        assert_eq!(out.iter().sum::<u64>(), 100);
    }

    #[test]
    fn stragglers_stop_counting_when_their_parent_or_root_ends() {
        let spans = [
            span(Layer::Root, 0, "op", 0, 100),
            span(Layer::ClientStore, 0, "commit", 10, 60),
            // A child still running after its parent returned at 60...
            span(Layer::RpcFile, 0, "rpc", 40, 90),
            // ...and one that outlives the root and runs into the gap and the
            // next root, where no parent is open.
            span(Layer::ClientStore, 0, "late", 95, 130),
            span(Layer::Root, 0, "op", 140, 200),
            span(Layer::RpcFile, 0, "rpc", 120, 150),
        ];
        let out = self_times(&spans);
        assert_eq!(out[Layer::RpcFile as usize], 20, "40..60 only");
        assert_eq!(
            out[Layer::ClientStore as usize],
            30 + 5,
            "10..40 and 95..100"
        );
        assert_eq!(out[Layer::Root as usize], 10 + 35 + 60);
        assert_eq!(out.iter().sum::<u64>(), 160, "both roots, nothing else");
    }

    #[test]
    fn absent_layers_are_skipped_not_treated_as_closed() {
        // The local pass: FileStore seam straight onto the block seam.
        let spans = [
            span(Layer::Root, 0, "op", 0, 50),
            span(Layer::ClientStore, 0, "commit", 5, 45),
            span(Layer::CoreBlock, 0, "write", 10, 30),
        ];
        let out = self_times(&spans);
        assert_eq!(out[Layer::CoreBlock as usize], 20);
        assert_eq!(out[Layer::ClientStore as usize], 20);
        assert_eq!(out[Layer::Root as usize], 10);
    }

    #[test]
    fn quorum_times_use_the_second_of_three_acks() {
        let spans = [
            span(Layer::CoreBlock, 0, "write_batch", 0, 50),
            span(Layer::BlockRemote, 0, "write_batch", 2, 30),
            span(Layer::BlockRemote, 1, "write_batch", 3, 45),
            span(Layer::BlockRemote, 2, "write_batch", 4, 80),
            // Reads are not quorum calls and must not shift the pairing.
            span(Layer::CoreBlock, 0, "read", 60, 70),
            span(Layer::BlockRemote, 0, "read", 61, 69),
            span(Layer::CoreBlock, 0, "write", 100, 120),
            span(Layer::BlockRemote, 0, "write", 101, 110),
            span(Layer::BlockRemote, 1, "write", 101, 118),
            span(Layer::BlockRemote, 2, "write", 101, 119),
        ];
        assert_eq!(
            quorum_times(&spans, 3),
            QuorumTimes {
                calls: 2,
                self_ns: (50 - 42) + (20 - 17),
                wait_ns: (45 - 30) + (118 - 110),
                straggler_ns: (80 - 50),
            }
        );
    }
}
