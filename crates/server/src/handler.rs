//! Request dispatch: one incoming transaction → one file-service call.
//!
//! The handler is also where the lease protocol touches the request path,
//! in exactly two places:
//!
//! * `ValidateCache` from a connected client (one with a
//!   [`CallbackChannel`]) registers a lease *before* reading the current
//!   version and puts the ttl on the reply — grant-then-read means a commit
//!   racing the validation either blocks the grant (settling) or breaks it,
//!   never leaves a lease covering a stale answer;
//! * `Commit` settles the file's leases (break + await acks) before the
//!   service commits, so no client can still be serving the old value under
//!   a lease once the commit is acknowledged.

use std::sync::Arc;

use bytes::{Buf, Bytes, BytesMut};

use afs_core::{FileService, FsError};
use amoeba_rpc::{CallbackChannel, Reply, Request, RequestHandler};

use crate::lease::LeaseManager;
use crate::ops::{
    decode_insert, decode_path, decode_path_and_data, decode_paths, decode_writes,
    encode_capability, encode_error, encode_pages_reply, encode_receipt, encode_validation,
    protocol_error, serve_read_batch, FsOp,
};

/// The service-side handler: decodes requests, calls the file service, encodes
/// replies.  Stateless apart from the shared `Arc<FileService>` and the shared
/// [`LeaseManager`], so any number of handler instances (server processes) can
/// serve the same file service — they MUST then share one lease manager, or a
/// commit through one port would not see leases granted through another.
pub struct FileServerHandler {
    service: Arc<FileService>,
    lease: Arc<LeaseManager>,
}

impl FileServerHandler {
    /// Creates a handler over the shared file-service state with its own
    /// default lease manager.
    pub fn new(service: Arc<FileService>) -> Self {
        Self::with_lease_manager(service, Arc::new(LeaseManager::new()))
    }

    /// Creates a handler sharing an existing lease manager — what a server
    /// group does so every replica process settles the same grant table.
    pub fn with_lease_manager(service: Arc<FileService>, lease: Arc<LeaseManager>) -> Self {
        FileServerHandler { service, lease }
    }

    /// The lease manager this handler grants from.
    pub fn lease_manager(&self) -> &Arc<LeaseManager> {
        &self.lease
    }

    fn dispatch(
        &self,
        request: Request,
        peer: Option<&Arc<dyn CallbackChannel>>,
    ) -> Result<Bytes, Reply> {
        let op = FsOp::from_u32(request.op)
            .ok_or_else(|| Reply::error(protocol_error("unknown operation")))?;
        let fs_err = |e: FsError| Reply::error(encode_error(&e));
        let bad_args = || Reply::error(protocol_error("bad arguments"));
        match op {
            FsOp::CreateFile => {
                let cap = self.service.create_file().map_err(fs_err)?;
                Ok(encode_capability(&cap))
            }
            FsOp::CreateVersion => {
                let cap = self.service.create_version(&request.cap).map_err(fs_err)?;
                Ok(encode_capability(&cap))
            }
            FsOp::ReadPage => {
                let mut payload = request.payload;
                let path = decode_path(&mut payload).ok_or_else(bad_args)?;
                let data = self
                    .service
                    .read_page(&request.cap, &path)
                    .map_err(fs_err)?;
                Ok(data)
            }
            FsOp::WritePage => {
                let (path, data) = decode_path_and_data(request.payload).ok_or_else(bad_args)?;
                self.service
                    .write_page(&request.cap, &path, data)
                    .map_err(fs_err)?;
                Ok(Bytes::new())
            }
            FsOp::AppendPage => {
                let (path, data) = decode_path_and_data(request.payload).ok_or_else(bad_args)?;
                let new_path = self
                    .service
                    .append_page(&request.cap, &path, data)
                    .map_err(fs_err)?;
                let mut buf = BytesMut::new();
                crate::ops::encode_path(&mut buf, &new_path);
                Ok(buf.freeze())
            }
            FsOp::InsertPage => {
                let (parent, index, data) = decode_insert(request.payload).ok_or_else(bad_args)?;
                let new_path = self
                    .service
                    .insert_page(&request.cap, &parent, index, data)
                    .map_err(fs_err)?;
                let mut buf = BytesMut::new();
                crate::ops::encode_path(&mut buf, &new_path);
                Ok(buf.freeze())
            }
            FsOp::RemovePage => {
                let mut payload = request.payload;
                let path = decode_path(&mut payload).ok_or_else(bad_args)?;
                self.service
                    .remove_page(&request.cap, &path)
                    .map_err(fs_err)?;
                Ok(Bytes::new())
            }
            FsOp::ReadPages => {
                let paths = decode_paths(request.payload).ok_or_else(bad_args)?;
                let pages =
                    serve_read_batch(&paths, |path| self.service.read_page(&request.cap, path))
                        .map_err(fs_err)?;
                Ok(encode_pages_reply(&pages))
            }
            FsOp::WritePages => {
                let writes = decode_writes(request.payload).ok_or_else(bad_args)?;
                for (path, data) in writes {
                    self.service
                        .write_page(&request.cap, &path, data)
                        .map_err(fs_err)?;
                }
                Ok(Bytes::new())
            }
            FsOp::Commit => {
                // Settle the file's leases BEFORE committing: every holder
                // acks the break (or its grant expires) first, so once the
                // commit returns no lease anywhere still covers the old
                // current version.  The settling mark stays up until after
                // the commit (guard drop), refusing new grants meanwhile.
                let _settle = self
                    .service
                    .file_of_version(&request.cap)
                    .ok()
                    .map(|object| self.lease.settle(object, request.cap.port));
                let receipt = self.service.commit(&request.cap).map_err(fs_err)?;
                Ok(encode_receipt(&receipt))
            }
            FsOp::Abort => {
                self.service.abort_version(&request.cap).map_err(fs_err)?;
                Ok(Bytes::new())
            }
            FsOp::CurrentVersion => {
                let cap = self.service.current_version(&request.cap).map_err(fs_err)?;
                Ok(encode_capability(&cap))
            }
            FsOp::ReadCommittedPage => {
                let mut payload = request.payload;
                let path = decode_path(&mut payload).ok_or_else(bad_args)?;
                let data = self
                    .service
                    .read_committed_page(&request.cap, &path)
                    .map_err(fs_err)?;
                Ok(data)
            }
            FsOp::ValidateCache => {
                let mut payload = request.payload;
                if payload.remaining() < 4 {
                    return Err(bad_args());
                }
                let cached_block = payload.get_u32_le();
                // The capability must resolve before any side effect: an
                // invalid or unauthorized cap must not plant a grant on an
                // arbitrary object id that later committing writers would
                // have to break and wait on (the client never records such
                // a lease — its reply is an error).
                self.service
                    .check_read_capability(&request.cap)
                    .map_err(fs_err)?;
                // Grant BEFORE reading the current version: if a commit
                // settles in between, it finds (and breaks) this grant, so
                // the client can never end up holding an unbroken lease on
                // an answer the commit obsoleted.  Granting after the read
                // would leave exactly that window.
                let ttl_ms = peer
                    .and_then(|channel| self.lease.grant(request.cap.object, channel))
                    .unwrap_or(0);
                let validation = self
                    .service
                    .validate_cache(&request.cap, cached_block)
                    .map_err(fs_err)?;
                Ok(encode_validation(
                    validation.up_to_date,
                    validation.current_block,
                    &validation.discard,
                    ttl_ms,
                ))
            }
        }
    }
}

impl RequestHandler for FileServerHandler {
    fn handle(&self, request: Request) -> Reply {
        match self.dispatch(request, None) {
            Ok(payload) => Reply::ok(payload),
            Err(error_reply) => error_reply,
        }
    }

    fn handle_from(&self, request: Request, peer: Option<&Arc<dyn CallbackChannel>>) -> Reply {
        match self.dispatch(request, peer) {
            Ok(payload) => Reply::ok(payload),
            Err(error_reply) => error_reply,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{decode_error, decode_receipt, encode_paths, encode_writes};
    use afs_core::PagePath;
    use amoeba_capability::Capability;

    #[test]
    fn create_file_round_trips_a_capability() {
        let handler = FileServerHandler::new(FileService::in_memory());
        let reply = handler.handle(Request::empty(FsOp::CreateFile as u32, Capability::null()));
        assert!(reply.is_ok());
        assert!(crate::ops::decode_capability(reply.payload).is_some());
    }

    #[test]
    fn unknown_ops_and_bad_caps_are_errors() {
        let handler = FileServerHandler::new(FileService::in_memory());
        let reply = handler.handle(Request::empty(999, Capability::null()));
        assert!(!reply.is_ok());
        assert!(matches!(decode_error(reply.payload), FsError::Protocol(_)));
        let reply = handler.handle(Request::empty(
            FsOp::CreateVersion as u32,
            Capability::null(),
        ));
        assert!(!reply.is_ok());
        assert_eq!(decode_error(reply.payload), FsError::PermissionDenied);
    }

    #[test]
    fn commit_reply_carries_the_receipt() {
        let service = FileService::in_memory();
        let handler = FileServerHandler::new(Arc::clone(&service));
        let file = service.create_file().unwrap();
        let version = service.create_version(&file).unwrap();
        let reply = handler.handle(Request::empty(FsOp::Commit as u32, version));
        assert!(reply.is_ok());
        let receipt = decode_receipt(reply.payload).unwrap();
        assert!(receipt.fast_path);
    }

    #[test]
    fn invalid_caps_plant_no_lease_grant() {
        use amoeba_capability::Port;
        use bytes::BufMut;

        struct NullChannel;
        impl CallbackChannel for NullChannel {
            fn push(&self, _port: Port, _payload: Bytes) -> Option<u64> {
                Some(1)
            }
            fn wait_acked(&self, _ticket: u64, _deadline: std::time::Instant) -> bool {
                true
            }
            fn peer_key(&self) -> u64 {
                1
            }
            fn is_closed(&self) -> bool {
                false
            }
        }

        let service = FileService::in_memory();
        let handler = FileServerHandler::new(Arc::clone(&service));
        let channel: Arc<dyn CallbackChannel> = Arc::new(NullChannel);
        let validate = |cap: Capability| {
            let mut payload = BytesMut::new();
            payload.put_u32_le(0);
            handler.handle_from(
                Request::new(FsOp::ValidateCache as u32, cap, payload.freeze()),
                Some(&channel),
            )
        };

        // A forged capability is refused before any grant is registered: no
        // committing writer must ever break or wait on it.
        let bogus = Capability::null();
        let reply = validate(bogus);
        assert!(!reply.is_ok());
        assert_eq!(handler.lease_manager().granted_total(), 0);
        assert_eq!(handler.lease_manager().live_grants(bogus.object), 0);

        // A genuine capability still grants.
        let file = service.create_file().unwrap();
        assert!(validate(file).is_ok());
        assert_eq!(handler.lease_manager().granted_total(), 1);
        assert_eq!(handler.lease_manager().live_grants(file.object), 1);
    }

    #[test]
    fn batched_ops_dispatch() {
        let service = FileService::in_memory();
        let handler = FileServerHandler::new(Arc::clone(&service));
        let file = service.create_file().unwrap();
        let setup = service.create_version(&file).unwrap();
        let paths: Vec<PagePath> = (0..3u8)
            .map(|i| {
                service
                    .append_page(&setup, &PagePath::root(), Bytes::from(vec![i]))
                    .unwrap()
            })
            .collect();
        service.commit(&setup).unwrap();
        let version = service.create_version(&file).unwrap();

        let writes: Vec<(PagePath, Bytes)> = paths
            .iter()
            .map(|p| (p.clone(), Bytes::from_static(b"batch")))
            .collect();
        let reply = handler.handle(Request::new(
            FsOp::WritePages as u32,
            version,
            encode_writes(&writes),
        ));
        assert!(reply.is_ok());

        let reply = handler.handle(Request::new(
            FsOp::ReadPages as u32,
            version,
            encode_paths(&paths),
        ));
        assert!(reply.is_ok());
        let pages = crate::ops::decode_pages_reply(reply.payload).unwrap();
        assert_eq!(pages.len(), 3);
        assert!(pages.iter().all(|p| p == &Bytes::from_static(b"batch")));
    }
}
