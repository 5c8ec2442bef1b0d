//! Length-prefixed binary framing for requests and replies.
//!
//! One frame family lives here (all integers little-endian).  Every frame
//! carries a request id (and, on requests, the destination port), so many
//! logical request streams can interleave on one connection and replies can
//! complete out of order:
//!
//! ```text
//! mux request := u32 total_len | u64 request_id | u64 port | u32 op | capability (25 bytes) | payload
//! mux reply   := u32 total_len | u64 request_id | u8 status               | payload
//! ```
//!
//! One more frame kind flows *against* the usual direction.  A server
//! may push an unsolicited *callback* down a connection (today: lease
//! breaks for cache coherence), and the client acknowledges it with an
//! *ack* frame.  Both are distinguished from ordinary traffic by a
//! reserved id word, [`CALLBACK_MARKER`], which
//! [`MuxCore`](crate::mux::MuxCore) never allocates for a request:
//!
//! ```text
//! mux callback := u32 total_len | u64 CALLBACK_MARKER | u64 ticket | u64 port | payload
//! mux ack      := u32 total_len | u64 CALLBACK_MARKER | u64 ticket
//! ```
//!
//! In every case the `total_len` word counts the bytes *after* itself, and
//! the `decode_*` functions take the frame body with that word already
//! stripped by the transport.

use bytes::{Buf, BufMut, Bytes, BytesMut};

use amoeba_capability::{Capability, Port};

use crate::message::{Reply, Request, Status, MAX_FRAME_PAYLOAD};
use crate::RpcError;

/// Size of an encoded capability on the wire.
const CAP_SIZE: usize = 25;

/// Upper bound on the body length word of any frame this module can
/// produce: the largest payload plus the largest fixed header (mux request).
/// Transports reject bigger length words before allocating.
pub const MAX_FRAME_BODY: usize = MAX_FRAME_PAYLOAD + 8 + 8 + 4 + CAP_SIZE;

/// Reserved request-id word marking a server-initiated callback frame (or
/// the client's ack for one).  [`MuxCore`](crate::mux::MuxCore) allocates
/// request ids from 0 upward, so real traffic can never collide with it.
pub const CALLBACK_MARKER: u64 = u64::MAX;

/// Encodes a server→client callback frame: an unsolicited notification tagged
/// with a server-chosen `ticket` (echoed back in the ack) and the service
/// `port` it concerns.
pub fn encode_mux_callback(ticket: u64, port: Port, payload: &Bytes) -> Result<Bytes, RpcError> {
    if payload.len() > MAX_FRAME_PAYLOAD {
        return Err(RpcError::TooLarge(payload.len()));
    }
    let body_len = 8 + 8 + 8 + payload.len();
    let mut buf = BytesMut::with_capacity(4 + body_len);
    buf.put_u32_le(body_len as u32);
    buf.put_u64_le(CALLBACK_MARKER);
    buf.put_u64_le(ticket);
    buf.put_u64_le(port.raw());
    buf.put_slice(payload);
    Ok(buf.freeze())
}

/// Decodes a callback frame body (without the leading length word, with the
/// [`CALLBACK_MARKER`] id still in place), returning `(ticket, port, payload)`.
pub fn decode_mux_callback(mut body: Bytes) -> Result<(u64, Port, Bytes), RpcError> {
    if body.len() < 8 + 8 + 8 {
        return Err(RpcError::Decode("callback frame too short".into()));
    }
    let marker = body.get_u64_le();
    if marker != CALLBACK_MARKER {
        return Err(RpcError::Decode("callback frame missing marker".into()));
    }
    let ticket = body.get_u64_le();
    let port = Port::from_raw(body.get_u64_le());
    Ok((ticket, port, body))
}

/// Encodes a client→server ack for the callback carrying `ticket`.
pub fn encode_mux_callback_ack(ticket: u64) -> Bytes {
    let mut buf = BytesMut::with_capacity(4 + 16);
    buf.put_u32_le(16);
    buf.put_u64_le(CALLBACK_MARKER);
    buf.put_u64_le(ticket);
    buf.freeze()
}

/// Decodes a callback-ack frame body (without the leading length word, with
/// the [`CALLBACK_MARKER`] id still in place), returning the ticket.
pub fn decode_mux_callback_ack(mut body: Bytes) -> Result<u64, RpcError> {
    if body.len() != 16 {
        return Err(RpcError::Decode("callback ack frame malformed".into()));
    }
    let marker = body.get_u64_le();
    if marker != CALLBACK_MARKER {
        return Err(RpcError::Decode("callback ack missing marker".into()));
    }
    Ok(body.get_u64_le())
}

/// True if a mux frame body starts with the [`CALLBACK_MARKER`] id, i.e. it
/// is a callback (server→client) or callback-ack (client→server) frame
/// rather than an ordinary request or reply.
pub fn is_callback_frame(body: &[u8]) -> bool {
    body.len() >= 8 && body[0..8] == CALLBACK_MARKER.to_le_bytes()
}

/// Encodes a multiplexed request frame: the request tagged with the id the
/// client allocated for it and the port the server should dispatch it to.
pub fn encode_mux_request(id: u64, port: Port, req: &Request) -> Result<Bytes, RpcError> {
    if req.payload.len() > MAX_FRAME_PAYLOAD {
        return Err(RpcError::TooLarge(req.payload.len()));
    }
    let body_len = 8 + 8 + 4 + CAP_SIZE + req.payload.len();
    let mut buf = BytesMut::with_capacity(4 + body_len);
    buf.put_u32_le(body_len as u32);
    buf.put_u64_le(id);
    buf.put_u64_le(port.raw());
    buf.put_u32_le(req.op);
    req.cap.encode(&mut buf);
    buf.put_slice(&req.payload);
    Ok(buf.freeze())
}

/// Decodes a multiplexed request frame body (without the leading length
/// word), returning `(request_id, port, request)`.
pub fn decode_mux_request(mut body: Bytes) -> Result<(u64, Port, Request), RpcError> {
    if body.len() < 8 + 8 + 4 + CAP_SIZE {
        return Err(RpcError::Decode("mux request frame too short".into()));
    }
    let id = body.get_u64_le();
    let port = Port::from_raw(body.get_u64_le());
    let op = body.get_u32_le();
    let cap = Capability::decode(&mut body)
        .ok_or_else(|| RpcError::Decode("truncated capability".into()))?;
    Ok((
        id,
        port,
        Request {
            op,
            cap,
            payload: body,
        },
    ))
}

/// Encodes a multiplexed reply frame carrying the id of the request it
/// answers.
pub fn encode_mux_reply(id: u64, reply: &Reply) -> Result<Bytes, RpcError> {
    if reply.payload.len() > MAX_FRAME_PAYLOAD {
        return Err(RpcError::TooLarge(reply.payload.len()));
    }
    let body_len = 8 + 1 + reply.payload.len();
    let mut buf = BytesMut::with_capacity(4 + body_len);
    buf.put_u32_le(body_len as u32);
    buf.put_u64_le(id);
    buf.put_u8(reply.status as u8);
    buf.put_slice(&reply.payload);
    Ok(buf.freeze())
}

/// Decodes a multiplexed reply frame body (without the leading length word),
/// returning `(request_id, reply)`.
pub fn decode_mux_reply(mut body: Bytes) -> Result<(u64, Reply), RpcError> {
    if body.len() < 8 + 1 {
        return Err(RpcError::Decode("mux reply frame too short".into()));
    }
    let id = body.get_u64_le();
    let status = Status::from_u8(body.get_u8())
        .ok_or_else(|| RpcError::Decode("invalid status byte".into()))?;
    Ok((
        id,
        Reply {
            status,
            payload: body,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use amoeba_capability::{Port, Rights};

    fn sample_cap() -> Capability {
        Capability {
            port: Port::from_raw(0xaaa),
            object: 9,
            rights: Rights::READ | Rights::WRITE,
            check: 0x1234_5678,
        }
    }

    #[test]
    fn mux_request_round_trip() {
        let req = Request::new(7, sample_cap(), Bytes::from_static(b"args"));
        let frame = encode_mux_request(99, Port::from_raw(0xbeef), &req).unwrap();
        let len = u32::from_le_bytes(frame[0..4].try_into().unwrap()) as usize;
        assert_eq!(len, frame.len() - 4);
        let (id, port, decoded) = decode_mux_request(frame.slice(4..)).unwrap();
        assert_eq!(id, 99);
        assert_eq!(port, Port::from_raw(0xbeef));
        assert_eq!(decoded, req);
    }

    #[test]
    fn mux_reply_round_trip() {
        let reply = Reply::error(Bytes::from_static(b"nope"));
        let frame = encode_mux_reply(u64::MAX - 1, &reply).unwrap();
        let (id, decoded) = decode_mux_reply(frame.slice(4..)).unwrap();
        assert_eq!(id, u64::MAX - 1);
        assert_eq!(decoded, reply);
    }

    #[test]
    fn callback_and_ack_round_trip() {
        let payload = Bytes::from_static(b"break object 9");
        let frame = encode_mux_callback(42, Port::from_raw(0xfeed), &payload).unwrap();
        let len = u32::from_le_bytes(frame[0..4].try_into().unwrap()) as usize;
        assert_eq!(len, frame.len() - 4);
        let body = frame.slice(4..);
        assert!(is_callback_frame(&body));
        let (ticket, port, decoded) = decode_mux_callback(body).unwrap();
        assert_eq!(ticket, 42);
        assert_eq!(port, Port::from_raw(0xfeed));
        assert_eq!(decoded, payload);

        let ack = encode_mux_callback_ack(42);
        let len = u32::from_le_bytes(ack[0..4].try_into().unwrap()) as usize;
        assert_eq!(len, ack.len() - 4);
        let body = ack.slice(4..);
        assert!(is_callback_frame(&body));
        assert_eq!(decode_mux_callback_ack(body).unwrap(), 42);
    }

    #[test]
    fn callback_frames_are_distinguishable_from_replies() {
        // An ordinary reply never starts with the marker because MuxCore
        // allocates ids from 0 upward; a frame that does start with it must
        // fail ordinary decoding paths that require more structure.
        let reply = Reply::ok(Bytes::from_static(b"data"));
        let frame = encode_mux_reply(7, &reply).unwrap();
        assert!(!is_callback_frame(&frame.slice(4..)));

        assert!(decode_mux_callback(Bytes::from_static(b"short")).is_err());
        assert!(decode_mux_callback_ack(Bytes::from_static(b"0123456789")).is_err());
        // Wrong marker word is rejected even with plausible lengths.
        let mut buf = BytesMut::new();
        buf.put_u64_le(5);
        buf.put_u64_le(1);
        buf.put_u64_le(2);
        assert!(decode_mux_callback(buf.freeze()).is_err());
    }

    #[test]
    fn mux_truncated_and_oversized_frames_are_rejected() {
        assert!(decode_mux_request(Bytes::from_static(b"short")).is_err());
        assert!(decode_mux_reply(Bytes::from_static(b"12345678")).is_err());
        let big = Request::new(
            1,
            sample_cap(),
            Bytes::from(vec![0u8; MAX_FRAME_PAYLOAD + 1]),
        );
        assert!(matches!(
            encode_mux_request(0, Port::from_raw(1), &big),
            Err(RpcError::TooLarge(_))
        ));
        let big = Reply::ok(Bytes::from(vec![0u8; MAX_FRAME_PAYLOAD + 1]));
        assert!(matches!(
            encode_mux_reply(0, &big),
            Err(RpcError::TooLarge(_))
        ));
    }

    /// Property test: random ids, ports, opcodes, capabilities and payload
    /// lengths (up to the full `MAX_FRAME_PAYLOAD`) survive an
    /// encode-strip-decode round trip, and every encoded frame respects its
    /// own length word and the [`MAX_FRAME_BODY`] bound.
    #[test]
    fn mux_codec_round_trips_fuzzed_frames() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xC0DEC);
        for case in 0..256 {
            let id: u64 = rng.gen();
            let port = Port::from_raw(rng.gen());
            let op: u32 = rng.gen();
            let cap = Capability {
                port: Port::from_raw(rng.gen()),
                object: rng.gen(),
                rights: Rights::from_bits(rng.gen::<u8>()),
                check: rng.gen(),
            };
            // Mostly small payloads for speed, with full-size ones sprinkled
            // in so the MAX_FRAME_PAYLOAD boundary itself is exercised.
            let len = if case % 32 == 0 {
                MAX_FRAME_PAYLOAD - rng.gen_range(0..4)
            } else {
                rng.gen_range(0..2048)
            };
            let payload: Vec<u8> = (0..len).map(|_| rng.gen::<u8>()).collect();

            let req = Request::new(op, cap, Bytes::from(payload.clone()));
            let frame = encode_mux_request(id, port, &req).unwrap();
            let body_len = u32::from_le_bytes(frame[0..4].try_into().unwrap()) as usize;
            assert_eq!(body_len, frame.len() - 4);
            assert!(body_len <= MAX_FRAME_BODY);
            let (rid, rport, rreq) = decode_mux_request(frame.slice(4..)).unwrap();
            assert_eq!((rid, rport), (id, port));
            assert_eq!(rreq, req);

            let status = if rng.gen_bool(0.5) {
                Status::Ok
            } else {
                Status::Error
            };
            let reply = Reply {
                status,
                payload: Bytes::from(payload),
            };
            let frame = encode_mux_reply(id, &reply).unwrap();
            let body_len = u32::from_le_bytes(frame[0..4].try_into().unwrap()) as usize;
            assert_eq!(body_len, frame.len() - 4);
            assert!(body_len <= MAX_FRAME_BODY);
            let (rid, rreply) = decode_mux_reply(frame.slice(4..)).unwrap();
            assert_eq!(rid, id);
            assert_eq!(rreply, reply);
        }
    }
}
