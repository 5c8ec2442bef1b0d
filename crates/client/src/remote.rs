//! Client stubs: the [`FileStore`] protocol over transaction RPC.
//!
//! `RemoteFs` implements [`afs_core::FileStore`], so everything written against
//! the trait — the [`afs_core::FileStoreExt::update`] retry loop, the client
//! cache, the workload drivers — runs over the wire unchanged.  The batched
//! [`FileStore::read_pages`]/[`FileStore::write_pages`] methods are overridden
//! to ship one request per transport frame, so a k-page update costs O(1) round
//! trips instead of O(k).
//!
//! All connect/failover/retry plumbing lives in the generic
//! [`MuxClient`]; this stub only marshals payloads and picks the failover
//! policy.  Every file-service operation uses [`FailoverPolicy::Always`]:
//! reads are idempotent, and mutations are version-directed writes to
//! *uncommitted* state, so re-executing one on a replica is harmless.
//!
//! The stub also owns the client half of the lease protocol (see
//! [`crate::lease`]): a [`CallbackSink`] registered on the transport feeds
//! server-pushed break frames into a lease table, and `RemoteFs`'s
//! [`FileStore::validate_cache`] answers from that table — zero RPCs — while a
//! lease is live.

use std::sync::Arc;
use std::time::Instant;

use bytes::{Bytes, BytesMut};

use afs_core::{CacheValidation, CommitReceipt, FileStore, FsError, PagePath};
use afs_server::ops::{
    decode_capability, decode_error, decode_pages_reply, decode_path, decode_receipt,
    decode_validation, encode_insert, encode_path, encode_path_and_data, encode_paths,
    encode_writes, encoded_path_len, encoded_write_len, FsOp,
};
use amoeba_capability::{Capability, Port};
use amoeba_rpc::{ClientStats, FailoverPolicy, MuxClient, Reply, Request, Transport, MAX_PAYLOAD};

use crate::lease::{LeaseSink, LeaseTable};

/// A connection to the file service: a [`MuxClient`] over the ports of the
/// server processes, in preference order.
pub struct RemoteFs<T: Transport> {
    client: MuxClient<T>,
    lease: Arc<LeaseTable>,
}

impl<T: Transport> RemoteFs<T> {
    /// Creates a client that talks to the given server ports (first is preferred).
    ///
    /// If the transport supports server-pushed callbacks, a lease sink is
    /// registered so `ValidateCache` grants can be trusted locally; over a
    /// plain request/reply transport the server never grants and every
    /// validation stays a round trip.
    pub fn new(transport: T, servers: Vec<Port>) -> Self {
        let client = MuxClient::new(transport, servers);
        let lease = Arc::new(LeaseTable::default());
        client.register_callback_sink(Arc::new(LeaseSink(Arc::clone(&lease))));
        RemoteFs { client, lease }
    }

    /// The underlying transport (for instrumentation, e.g. round-trip counting).
    pub fn transport(&self) -> &T {
        self.client.transport()
    }

    /// Uniform client statistics: backed-off retry rounds, transport
    /// reconnects, the in-flight high-water mark, and the lease counters
    /// (grants recorded, breaks processed, validations answered with zero
    /// RPCs).
    pub fn stats(&self) -> ClientStats {
        ClientStats {
            leases_granted: self.lease.granted(),
            leases_broken: self.lease.broken(),
            zero_rpc_hits: self.lease.zero_rpc_hits(),
            ..self.client.stats()
        }
    }

    /// Performs one transaction through the generic engine: fail over to the
    /// next server on any transient transport error, sleep a capped jittered
    /// backoff after a whole fruitless sweep, and only then surface the
    /// outage.
    fn transact(&self, op: FsOp, cap: Capability, payload: Bytes) -> Result<Reply, FsError> {
        self.client
            .transact(
                Request::new(op as u32, cap, payload),
                FailoverPolicy::Always,
            )
            .map_err(|e| FsError::Transport(e.to_string()))
    }

    fn expect_ok(&self, op: FsOp, cap: Capability, payload: Bytes) -> Result<Bytes, FsError> {
        let reply = self.transact(op, cap, payload)?;
        if reply.is_ok() {
            Ok(reply.payload)
        } else {
            Err(decode_error(reply.payload))
        }
    }
}

impl<T: Transport> FileStore for RemoteFs<T> {
    fn create_file(&self) -> Result<Capability, FsError> {
        let payload = self.expect_ok(FsOp::CreateFile, Capability::null(), Bytes::new())?;
        decode_capability(payload).ok_or_else(|| FsError::Protocol("bad capability".into()))
    }

    fn create_version(&self, file: &Capability) -> Result<Capability, FsError> {
        let payload = self.expect_ok(FsOp::CreateVersion, *file, Bytes::new())?;
        decode_capability(payload).ok_or_else(|| FsError::Protocol("bad capability".into()))
    }

    fn read_page(&self, version: &Capability, path: &PagePath) -> Result<Bytes, FsError> {
        let mut buf = BytesMut::new();
        encode_path(&mut buf, path);
        self.expect_ok(FsOp::ReadPage, *version, buf.freeze())
    }

    fn write_page(
        &self,
        version: &Capability,
        path: &PagePath,
        data: Bytes,
    ) -> Result<(), FsError> {
        self.expect_ok(FsOp::WritePage, *version, encode_path_and_data(path, &data))?;
        Ok(())
    }

    fn append_page(
        &self,
        version: &Capability,
        parent: &PagePath,
        data: Bytes,
    ) -> Result<PagePath, FsError> {
        let mut payload = self.expect_ok(
            FsOp::AppendPage,
            *version,
            encode_path_and_data(parent, &data),
        )?;
        decode_path(&mut payload).ok_or_else(|| FsError::Protocol("bad path".into()))
    }

    fn insert_page(
        &self,
        version: &Capability,
        parent: &PagePath,
        index: u16,
        data: Bytes,
    ) -> Result<PagePath, FsError> {
        let mut payload = self.expect_ok(
            FsOp::InsertPage,
            *version,
            encode_insert(parent, index, &data),
        )?;
        decode_path(&mut payload).ok_or_else(|| FsError::Protocol("bad path".into()))
    }

    fn remove_page(&self, version: &Capability, path: &PagePath) -> Result<(), FsError> {
        let mut buf = BytesMut::new();
        encode_path(&mut buf, path);
        self.expect_ok(FsOp::RemovePage, *version, buf.freeze())?;
        Ok(())
    }

    fn commit(&self, version: &Capability) -> Result<CommitReceipt, FsError> {
        let payload = self.expect_ok(FsOp::Commit, *version, Bytes::new())?;
        decode_receipt(payload).ok_or_else(|| FsError::Protocol("bad commit receipt".into()))
    }

    fn abort(&self, version: &Capability) -> Result<(), FsError> {
        self.expect_ok(FsOp::Abort, *version, Bytes::new())?;
        Ok(())
    }

    fn current_version(&self, file: &Capability) -> Result<Capability, FsError> {
        let payload = self.expect_ok(FsOp::CurrentVersion, *file, Bytes::new())?;
        decode_capability(payload).ok_or_else(|| FsError::Protocol("bad capability".into()))
    }

    fn read_committed_page(&self, version: &Capability, path: &PagePath) -> Result<Bytes, FsError> {
        let mut buf = BytesMut::new();
        encode_path(&mut buf, path);
        self.expect_ok(FsOp::ReadCommittedPage, *version, buf.freeze())
    }

    /// Warm path: while a server-granted lease covers `(file, cached_block)`,
    /// the answer is "up to date" straight from the lease table — **zero
    /// RPCs**.  Otherwise one `ValidateCache` round trip runs; if its reply
    /// carries a lease ttl, the grant is recorded (with the countdown
    /// started from *before* the request was sent, so the client's trust
    /// always lapses before the server's).
    fn validate_cache(
        &self,
        file: &Capability,
        cached_block: u32,
    ) -> Result<CacheValidation, FsError> {
        if self.lease.covers(file.object, cached_block) {
            return Ok(CacheValidation {
                up_to_date: true,
                current_block: cached_block,
                discard: Vec::new(),
            });
        }
        let started = Instant::now();
        let mut buf = BytesMut::new();
        buf.extend_from_slice(&cached_block.to_le_bytes());
        let payload = self.expect_ok(FsOp::ValidateCache, *file, buf.freeze())?;
        let (up_to_date, current_block, discard, lease_ttl_ms) = decode_validation(payload)
            .ok_or_else(|| FsError::Protocol("bad validation reply".into()))?;
        self.lease
            .record(file.object, current_block, lease_ttl_ms, started);
        Ok(CacheValidation {
            up_to_date,
            current_block,
            discard,
        })
    }

    /// One transaction per transport-frame's worth of reply data (one round
    /// trip for small pages).
    fn read_pages(&self, version: &Capability, paths: &[PagePath]) -> Result<Vec<Bytes>, FsError> {
        let mut pages = Vec::with_capacity(paths.len());
        let mut rest = paths;
        while !rest.is_empty() {
            // Keep the request itself inside one frame too.
            let take = entries_per_frame(rest.iter().map(encoded_path_len));
            let chunk = &rest[..take];
            let payload = self.expect_ok(FsOp::ReadPages, *version, encode_paths(chunk))?;
            let served = decode_pages_reply(payload)
                .ok_or_else(|| FsError::Protocol("bad pages reply".into()))?;
            if served.is_empty() || served.len() > chunk.len() {
                return Err(FsError::Protocol("bad pages reply count".into()));
            }
            rest = &rest[served.len()..];
            pages.extend(served);
        }
        Ok(pages)
    }

    /// One transaction per transport-frame's worth of request data (one
    /// round trip for small pages).
    fn write_pages(
        &self,
        version: &Capability,
        writes: &[(PagePath, Bytes)],
    ) -> Result<(), FsError> {
        let mut rest = writes;
        while !rest.is_empty() {
            let take = entries_per_frame(
                rest.iter()
                    .map(|(path, data)| encoded_write_len(path, data)),
            );
            let chunk = &rest[..take];
            self.expect_ok(FsOp::WritePages, *version, encode_writes(chunk))?;
            rest = &rest[take..];
        }
        Ok(())
    }
}

/// How many leading entries, of the given encoded lengths, fit one request
/// frame after its 4-byte count; always at least one.
fn entries_per_frame(lens: impl Iterator<Item = usize>) -> usize {
    let mut request_len = 4usize;
    let mut take = 0usize;
    for entry in lens {
        if take > 0 && request_len + entry > MAX_PAYLOAD {
            break;
        }
        request_len += entry;
        take += 1;
    }
    take
}

#[cfg(test)]
mod tests {
    use super::*;
    use afs_core::FileService;
    use afs_server::ServerGroup;
    use amoeba_rpc::LocalNetwork;
    use std::sync::Arc;

    fn remote() -> (Arc<LocalNetwork>, ServerGroup, RemoteFs<Arc<LocalNetwork>>) {
        let network = Arc::new(LocalNetwork::new());
        let service = FileService::in_memory();
        let group = ServerGroup::start(&network, &service, 2);
        let client = RemoteFs::new(Arc::clone(&network), group.ports());
        (network, group, client)
    }

    #[test]
    fn a_whole_set_outage_is_retried_with_backoff_and_counted() {
        let (network, group, client) = remote();
        let file = client.create_file().unwrap();
        assert_eq!(client.stats().retries, 0, "healthy traffic never backs off");

        // Total outage that heals while the client is backing off: the
        // transaction rides it out instead of surfacing an error.
        group.process(0).crash();
        group.process(1).crash();
        let healer = {
            let network = Arc::clone(&network);
            let port = group.process(1).port();
            std::thread::spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(10));
                network.restore(port);
            })
        };
        client.create_version(&file).unwrap();
        healer.join().unwrap();
        let healed_after = client.stats().retries;
        assert!(
            healed_after >= 1,
            "the outage forced at least one retry round"
        );

        // Permanent outage: the schedule is bounded, so the client still
        // reports an error rather than spinning forever.
        group.process(1).crash();
        assert!(client.create_version(&file).is_err());
        assert!(client.stats().retries > healed_after);
    }

    #[test]
    fn full_update_cycle_over_rpc() {
        let (_network, _group, client) = remote();
        let file = client.create_file().unwrap();
        let version = client.create_version(&file).unwrap();
        let page = client
            .append_page(
                &version,
                &PagePath::root(),
                Bytes::from_static(b"over the wire"),
            )
            .unwrap();
        let receipt = client.commit(&version).unwrap();
        assert!(receipt.fast_path);
        let current = client.current_version(&file).unwrap();
        assert_eq!(
            client.read_committed_page(&current, &page).unwrap(),
            Bytes::from_static(b"over the wire")
        );
    }

    #[test]
    fn insert_and_remove_reshape_the_tree_over_rpc() {
        let (_network, _group, client) = remote();
        let file = client.create_file().unwrap();
        let version = client.create_version(&file).unwrap();
        for i in 0..3u8 {
            client
                .append_page(&version, &PagePath::root(), Bytes::from(vec![i]))
                .unwrap();
        }
        client
            .remove_page(&version, &PagePath::new(vec![1]))
            .unwrap();
        let front = client
            .insert_page(&version, &PagePath::root(), 0, Bytes::from_static(b"front"))
            .unwrap();
        assert_eq!(front, PagePath::new(vec![0]));
        assert_eq!(
            client.read_page(&version, &front).unwrap(),
            Bytes::from_static(b"front")
        );
        // Former page 2 shifted down then up: now at index 2.
        assert_eq!(
            client.read_page(&version, &PagePath::new(vec![2])).unwrap(),
            Bytes::from(vec![2u8])
        );
    }

    #[test]
    fn batched_ops_use_one_round_trip_for_small_pages() {
        let (network, _group, client) = remote();
        let file = client.create_file().unwrap();
        let setup = client.create_version(&file).unwrap();
        let paths: Vec<PagePath> = (0..16u8)
            .map(|i| {
                client
                    .append_page(&setup, &PagePath::root(), Bytes::from(vec![i]))
                    .unwrap()
            })
            .collect();
        client.commit(&setup).unwrap();

        let version = client.create_version(&file).unwrap();
        let writes: Vec<(PagePath, Bytes)> = paths
            .iter()
            .map(|p| (p.clone(), Bytes::from_static(b"batched page")))
            .collect();

        let before = network.transaction_count();
        client.write_pages(&version, &writes).unwrap();
        assert_eq!(
            network.transaction_count() - before,
            1,
            "one WritePages RPC"
        );

        let before = network.transaction_count();
        let pages = client.read_pages(&version, &paths).unwrap();
        assert_eq!(network.transaction_count() - before, 1, "one ReadPages RPC");
        assert_eq!(pages.len(), 16);
        assert!(pages
            .iter()
            .all(|p| p == &Bytes::from_static(b"batched page")));
    }

    #[test]
    fn oversized_batches_split_across_frames_and_stay_correct() {
        let (network, _group, client) = remote();
        let file = client.create_file().unwrap();
        let setup = client.create_version(&file).unwrap();
        // Three pages of 20 KiB each: no two fit one 32 KiB frame.
        let paths: Vec<PagePath> = (0..3u8)
            .map(|i| {
                client
                    .append_page(&setup, &PagePath::root(), Bytes::from(vec![i; 20 * 1024]))
                    .unwrap()
            })
            .collect();
        client.commit(&setup).unwrap();

        let version = client.create_version(&file).unwrap();
        let before = network.transaction_count();
        let pages = client.read_pages(&version, &paths).unwrap();
        let trips = network.transaction_count() - before;
        assert_eq!(pages.len(), 3);
        for (i, page) in pages.iter().enumerate() {
            assert_eq!(page, &Bytes::from(vec![i as u8; 20 * 1024]));
        }
        assert!(trips >= 2, "oversized batch must split, used {trips} trips");
        assert!(
            trips <= 3,
            "split batches still amortise, used {trips} trips"
        );
    }

    #[test]
    fn conflicts_surface_as_serialisability_errors() {
        let (_network, _group, client) = remote();
        let file = client.create_file().unwrap();
        let v0 = client.create_version(&file).unwrap();
        let page = client
            .append_page(&v0, &PagePath::root(), Bytes::from_static(b"base"))
            .unwrap();
        client.commit(&v0).unwrap();

        let loser = client.create_version(&file).unwrap();
        client.read_page(&loser, &page).unwrap();
        let winner = client.create_version(&file).unwrap();
        client
            .write_page(&winner, &page, Bytes::from_static(b"winner"))
            .unwrap();
        client.commit(&winner).unwrap();
        client
            .write_page(&loser, &PagePath::root(), Bytes::from_static(b"derived"))
            .unwrap();
        assert_eq!(
            client.commit(&loser).unwrap_err(),
            FsError::SerialisabilityConflict
        );
    }

    #[test]
    fn client_fails_over_to_a_replica_when_the_primary_crashes() {
        let (_network, group, client) = remote();
        let file = client.create_file().unwrap();
        group.process(0).crash();
        // The client keeps working through the second replica.
        let version = client.create_version(&file).unwrap();
        client
            .write_page(
                &version,
                &PagePath::root(),
                Bytes::from_static(b"via replica"),
            )
            .unwrap();
        client.commit(&version).unwrap();
        group.process(0).restart();
        let current = client.current_version(&file).unwrap();
        assert_eq!(
            client
                .read_committed_page(&current, &PagePath::root())
                .unwrap(),
            Bytes::from_static(b"via replica")
        );
    }

    #[test]
    fn concurrent_transactions_raise_the_inflight_high_water_mark() {
        use amoeba_rpc::NetworkFaults;
        // A little injected latency guarantees the threads genuinely overlap.
        let network = Arc::new(LocalNetwork::with_faults(NetworkFaults {
            latency: std::time::Duration::from_millis(2),
            drop_prob: 0.0,
            seed: 1,
        }));
        let service = FileService::in_memory();
        let group = ServerGroup::start(&network, &service, 1);
        let client = Arc::new(RemoteFs::new(Arc::clone(&network), group.ports()));
        let file = client.create_file().unwrap();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let client = Arc::clone(&client);
                scope.spawn(move || {
                    for _ in 0..8 {
                        let v = client.create_version(&file).unwrap();
                        client.abort(&v).unwrap();
                    }
                });
            }
        });
        assert!(
            client.stats().inflight_high_water >= 2,
            "4 client threads should overlap at least twice: {:?}",
            client.stats()
        );
    }
}
