//! The rotary-serve wire protocol: checksummed, length-prefixed frames.
//!
//! Every message on a serve socket is one frame with the same container
//! discipline as the `rotary-store` snapshot format — magic, version,
//! explicit length, CRC32 over everything after the magic:
//!
//! ```text
//! offset  size  field
//! 0       4     magic          b"RWIR"
//! 4       2     version        u16 LE, currently 1
//! 6       1     kind           frame kind tag (see below)
//! 7       4     payload_len    u32 LE, <= MAX_FRAME_PAYLOAD
//! 11      n     payload        kind-specific JSON text (may be empty)
//! 11+n    4     crc32          u32 LE over bytes [4 .. 11+n]
//! ```
//!
//! The CRC covers version, kind, length and payload, so a single bit flip
//! anywhere after the magic is caught as [`WireError::CrcMismatch`] before
//! the payload is even looked at. The decoder is **total on arbitrary
//! bytes**: any input yields `Ok(None)` (need more bytes), a decoded
//! frame, or a typed [`WireError`] — never a panic. That includes payloads
//! built to exhaust the stack: JSON nested deeper than
//! [`json::MAX_DEPTH`] is a [`WireError::BadPayload`] like any other
//! malformed text.
//!
//! A [`Submission`]'s `bytes` field is deliberately *not* encoded: the
//! frame itself is the authority on payload size, so the decoder stamps
//! `bytes` with the actual wire payload length. A client cannot
//! under-declare its way past the daemon's size cap.

use crate::{CompletionKind, Notice, RejectReason, ShedReason, Submission, SubmitResponse};
use rotary_core::json::{self, u64_json, Json};
use rotary_core::SimTime;
use rotary_store::crc32;
use std::fmt;

/// Frame magic: the first four bytes of every frame.
pub const WIRE_MAGIC: [u8; 4] = *b"RWIR";
/// Current wire format version.
pub const WIRE_VERSION: u16 = 1;
/// Hard cap on a frame's payload length. Announced lengths above this are
/// rejected from the header alone — a hostile client cannot make the
/// server buffer an arbitrarily large frame.
pub const MAX_FRAME_PAYLOAD: u32 = 1 << 20;
/// Fixed bytes before the payload (magic + version + kind + length).
pub const FRAME_HEADER_LEN: usize = 11;
/// Fixed bytes after the payload (the CRC32 trailer).
pub const FRAME_TRAILER_LEN: usize = 4;

/// Why a connection was closed, as spoken on the wire ([`Frame::Bye`]) and
/// recorded by the transport. The taxonomy is part of the protocol: a
/// client that receives a `Bye` knows exactly why it was cut off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnClosed {
    /// No complete frame arrived within the idle window, or a partial
    /// frame dribbled past the per-frame deadline (slowloris defense).
    IdleTimeout,
    /// A frame header announced a payload past [`MAX_FRAME_PAYLOAD`], or
    /// the connection's bounded read buffer overflowed.
    FrameTooLarge,
    /// The byte stream failed to decode: bad magic, wrong version, CRC
    /// mismatch, unknown kind, or malformed payload. After a framing
    /// error the stream cannot be resynchronised safely, so it closes.
    BadFrame,
    /// The server is draining and has finished this connection's
    /// in-flight responses.
    ServerDraining,
    /// The server is at its connection cap, or this connection's write
    /// buffer overflowed because the client stopped reading.
    Overload,
    /// The peer closed or reset the connection.
    PeerClosed,
}

impl ConnClosed {
    /// Stable lowercase label used on the wire and in transport stats.
    pub fn label(self) -> &'static str {
        match self {
            ConnClosed::IdleTimeout => "idle-timeout",
            ConnClosed::FrameTooLarge => "frame-too-large",
            ConnClosed::BadFrame => "bad-frame",
            ConnClosed::ServerDraining => "server-draining",
            ConnClosed::Overload => "overload",
            ConnClosed::PeerClosed => "peer-closed",
        }
    }

    /// Decodes a label written by [`ConnClosed::label`].
    pub fn from_label(s: &str) -> Option<ConnClosed> {
        Some(match s {
            "idle-timeout" => ConnClosed::IdleTimeout,
            "frame-too-large" => ConnClosed::FrameTooLarge,
            "bad-frame" => ConnClosed::BadFrame,
            "server-draining" => ConnClosed::ServerDraining,
            "overload" => ConnClosed::Overload,
            "peer-closed" => ConnClosed::PeerClosed,
            _ => return None,
        })
    }

    /// Every close reason, for exhaustive tests and rate reporting.
    pub const ALL: [ConnClosed; 6] = [
        ConnClosed::IdleTimeout,
        ConnClosed::FrameTooLarge,
        ConnClosed::BadFrame,
        ConnClosed::ServerDraining,
        ConnClosed::Overload,
        ConnClosed::PeerClosed,
    ];
}

/// One protocol message. Kinds 1–3 are client→server requests, 16–20 are
/// server→client responses.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Submit one job. Answered by exactly one [`Frame::SubmitResp`].
    Submit(Submission),
    /// Ask the server to drain: finish in-flight work, accept no more.
    Drain,
    /// Ask for a metrics snapshot. Answered by [`Frame::StatsResp`].
    Stats,
    /// The synchronous answer to a [`Frame::Submit`].
    SubmitResp(SubmitResponse),
    /// Acknowledges a [`Frame::Drain`]; terminal notices still follow.
    DrainResp,
    /// Metrics snapshot (structure owned by the daemon, not the codec).
    StatsResp(Json),
    /// Asynchronous terminal outcome for an admitted ticket.
    Notice(Notice),
    /// Last frame before the server closes this connection.
    Bye(ConnClosed),
}

const KIND_SUBMIT: u8 = 1;
const KIND_DRAIN: u8 = 2;
const KIND_STATS: u8 = 3;
const KIND_SUBMIT_RESP: u8 = 16;
const KIND_DRAIN_RESP: u8 = 17;
const KIND_STATS_RESP: u8 = 18;
const KIND_NOTICE: u8 = 19;
const KIND_BYE: u8 = 20;

/// A typed decode failure. Total: every byte sequence maps to at most one
/// of these, never a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The stream does not start with [`WIRE_MAGIC`].
    BadMagic,
    /// The frame was written by an unknown format version.
    BadVersion {
        /// The version found in the header.
        found: u16,
    },
    /// The header announced a payload past [`MAX_FRAME_PAYLOAD`].
    FrameTooLarge {
        /// The announced payload length.
        len: u32,
    },
    /// The CRC32 trailer does not match the frame body.
    CrcMismatch {
        /// CRC computed over the received bytes.
        computed: u32,
        /// CRC carried in the trailer.
        found: u32,
    },
    /// The kind byte names no known frame kind (CRC was valid).
    UnknownKind(u8),
    /// The payload failed to parse or validate for its kind.
    BadPayload {
        /// What was wrong, for diagnostics.
        detail: String,
    },
}

impl WireError {
    /// Stable short tag, used by transport stats and tests.
    pub fn label(&self) -> &'static str {
        match self {
            WireError::BadMagic => "bad-magic",
            WireError::BadVersion { .. } => "bad-version",
            WireError::FrameTooLarge { .. } => "frame-too-large",
            WireError::CrcMismatch { .. } => "crc-mismatch",
            WireError::UnknownKind(_) => "unknown-kind",
            WireError::BadPayload { .. } => "bad-payload",
        }
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::BadMagic => write!(f, "frame does not start with RWIR magic"),
            WireError::BadVersion { found } => {
                write!(f, "wire version {found} is not supported (expected {WIRE_VERSION})")
            }
            WireError::FrameTooLarge { len } => {
                write!(f, "announced payload of {len} bytes exceeds cap {MAX_FRAME_PAYLOAD}")
            }
            WireError::CrcMismatch { computed, found } => {
                write!(f, "frame CRC mismatch: computed {computed:#010x}, trailer {found:#010x}")
            }
            WireError::UnknownKind(k) => write!(f, "unknown frame kind {k}"),
            WireError::BadPayload { detail } => write!(f, "bad frame payload: {detail}"),
        }
    }
}

fn kind_of(frame: &Frame) -> u8 {
    match frame {
        Frame::Submit(_) => KIND_SUBMIT,
        Frame::Drain => KIND_DRAIN,
        Frame::Stats => KIND_STATS,
        Frame::SubmitResp(_) => KIND_SUBMIT_RESP,
        Frame::DrainResp => KIND_DRAIN_RESP,
        Frame::StatsResp(_) => KIND_STATS_RESP,
        Frame::Notice(_) => KIND_NOTICE,
        Frame::Bye(_) => KIND_BYE,
    }
}

fn submission_json(sub: &Submission) -> Json {
    Json::obj(vec![
        ("tenant", u64_json(sub.tenant)),
        ("seq", u64_json(sub.seq)),
        ("attempt", u64_json(u64::from(sub.attempt))),
        ("deadline_ms", u64_json(sub.deadline.as_millis())),
        ("cost_milli", u64_json(sub.cost_milli)),
        ("payload", sub.payload.clone()),
    ])
}

fn response_json(resp: &SubmitResponse) -> Json {
    match resp {
        SubmitResponse::Admitted { ticket } => Json::obj(vec![("admitted", u64_json(*ticket))]),
        SubmitResponse::Rejected { reason, retry_after } => Json::obj(vec![
            ("rejected", Json::Str(reason.label().into())),
            ("retry_ms", u64_json(retry_after.as_millis())),
        ]),
    }
}

fn notice_json(notice: &Notice) -> Json {
    let mut pairs =
        vec![("ticket", u64_json(notice.ticket)), ("at_ms", u64_json(notice.at.as_millis()))];
    match &notice.fate {
        Ok(kind) => pairs.push(("completed", Json::Str(kind.label().into()))),
        Err((reason, retry_after)) => {
            pairs.push(("shed", Json::Str(reason.label().into())));
            pairs.push(("retry_ms", u64_json(retry_after.as_millis())));
        }
    }
    Json::obj(pairs)
}

fn payload_text(frame: &Frame) -> String {
    match frame {
        Frame::Submit(sub) => submission_json(sub).to_pretty(),
        Frame::Drain | Frame::Stats | Frame::DrainResp => String::new(),
        Frame::SubmitResp(resp) => response_json(resp).to_pretty(),
        Frame::StatsResp(json) => json.to_pretty(),
        Frame::Notice(notice) => notice_json(notice).to_pretty(),
        Frame::Bye(reason) => {
            Json::obj(vec![("reason", Json::Str(reason.label().into()))]).to_pretty()
        }
    }
}

/// Encodes one frame. The inverse of [`decode_frame`] up to the
/// [`Submission::bytes`] convention documented at module level.
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    let payload = payload_text(frame);
    let payload = payload.as_bytes();
    // The codec never *produces* an oversized frame: payloads the daemon
    // accepts are already capped well below MAX_FRAME_PAYLOAD, and the
    // length field below is what the decoder checks.
    let len = payload.len().min(MAX_FRAME_PAYLOAD as usize) as u32;
    let payload = &payload[..len as usize];
    let mut out = Vec::with_capacity(FRAME_HEADER_LEN + payload.len() + FRAME_TRAILER_LEN);
    out.extend_from_slice(&WIRE_MAGIC);
    out.extend_from_slice(&WIRE_VERSION.to_le_bytes());
    out.push(kind_of(frame));
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(payload);
    let crc = crc32(&out[4..]);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

fn bad(detail: &str) -> WireError {
    WireError::BadPayload { detail: detail.to_string() }
}

fn parse_payload(text: &str, what: &str) -> Result<Json, WireError> {
    json::parse(text).map_err(|e| bad(&format!("{what}: {e}")))
}

fn uint(json: &Json, key: &str) -> Option<u64> {
    // Accept both the exact-width string encoding (u64_json) and a plain
    // JSON number, so hand-written payloads (the nc quick-start) work.
    let v = json.get(key)?;
    v.as_u64_str().or_else(|| v.as_u64())
}

fn decode_submission(text: &str, wire_bytes: u64) -> Result<Submission, WireError> {
    let json = parse_payload(text, "submit")?;
    let tenant = uint(&json, "tenant").ok_or_else(|| bad("submit: missing tenant"))?;
    let seq = uint(&json, "seq").ok_or_else(|| bad("submit: missing seq"))?;
    let attempt = uint(&json, "attempt")
        .and_then(|a| u32::try_from(a).ok())
        .ok_or_else(|| bad("submit: attempt must fit in u32"))?;
    let deadline = uint(&json, "deadline_ms").ok_or_else(|| bad("submit: missing deadline_ms"))?;
    let cost_milli = uint(&json, "cost_milli").ok_or_else(|| bad("submit: missing cost_milli"))?;
    let payload = json.get("payload").ok_or_else(|| bad("submit: missing payload"))?.clone();
    Ok(Submission {
        tenant,
        seq,
        attempt,
        deadline: SimTime::from_millis(deadline),
        cost_milli,
        bytes: wire_bytes,
        payload,
    })
}

fn decode_response(text: &str) -> Result<SubmitResponse, WireError> {
    let json = parse_payload(text, "submit-resp")?;
    if let Some(ticket) = uint(&json, "admitted") {
        return Ok(SubmitResponse::Admitted { ticket });
    }
    let reason = json
        .get("rejected")
        .and_then(Json::as_str)
        .and_then(RejectReason::from_label)
        .ok_or_else(|| bad("submit-resp: neither admitted nor a known rejection"))?;
    let retry = uint(&json, "retry_ms").ok_or_else(|| bad("submit-resp: missing retry_ms"))?;
    Ok(SubmitResponse::Rejected { reason, retry_after: SimTime::from_millis(retry) })
}

fn decode_notice(text: &str) -> Result<Notice, WireError> {
    let json = parse_payload(text, "notice")?;
    let ticket = uint(&json, "ticket").ok_or_else(|| bad("notice: missing ticket"))?;
    let at = uint(&json, "at_ms").ok_or_else(|| bad("notice: missing at_ms"))?;
    let fate = if let Some(kind) =
        json.get("completed").and_then(Json::as_str).and_then(CompletionKind::from_label)
    {
        Ok(kind)
    } else if let Some(reason) =
        json.get("shed").and_then(Json::as_str).and_then(ShedReason::from_label)
    {
        let retry = uint(&json, "retry_ms").ok_or_else(|| bad("notice: shed without retry_ms"))?;
        Err((reason, SimTime::from_millis(retry)))
    } else {
        return Err(bad("notice: neither completed nor shed"));
    };
    Ok(Notice { ticket, at: SimTime::from_millis(at), fate })
}

fn decode_bye(text: &str) -> Result<ConnClosed, WireError> {
    let json = parse_payload(text, "bye")?;
    json.get("reason")
        .and_then(Json::as_str)
        .and_then(ConnClosed::from_label)
        .ok_or_else(|| bad("bye: unknown close reason"))
}

/// Incrementally decodes the first frame in `buf`.
///
/// * `Ok(Some((frame, consumed)))` — one complete frame; the caller drains
///   `consumed` bytes and may call again on the remainder.
/// * `Ok(None)` — the bytes so far are a valid frame prefix; read more.
/// * `Err(_)` — the stream is corrupt at a typed position. Framing errors
///   are unrecoverable (the length field itself may be the corrupt part),
///   so the transport closes the connection.
///
/// Total on arbitrary bytes: never panics, never reads past `buf`.
pub fn decode_frame(buf: &[u8]) -> Result<Option<(Frame, usize)>, WireError> {
    let magic_len = buf.len().min(WIRE_MAGIC.len());
    if buf[..magic_len] != WIRE_MAGIC[..magic_len] {
        return Err(WireError::BadMagic);
    }
    if buf.len() < FRAME_HEADER_LEN {
        return Ok(None);
    }
    let version = u16::from_le_bytes([buf[4], buf[5]]);
    if version != WIRE_VERSION {
        return Err(WireError::BadVersion { found: version });
    }
    let kind = buf[6];
    let len = u32::from_le_bytes([buf[7], buf[8], buf[9], buf[10]]);
    if len > MAX_FRAME_PAYLOAD {
        return Err(WireError::FrameTooLarge { len });
    }
    let total = FRAME_HEADER_LEN + len as usize + FRAME_TRAILER_LEN;
    if buf.len() < total {
        return Ok(None);
    }
    let body_end = FRAME_HEADER_LEN + len as usize;
    let computed = crc32(&buf[4..body_end]);
    let found = u32::from_le_bytes([
        buf[body_end],
        buf[body_end + 1],
        buf[body_end + 2],
        buf[body_end + 3],
    ]);
    if computed != found {
        return Err(WireError::CrcMismatch { computed, found });
    }
    let text = std::str::from_utf8(&buf[FRAME_HEADER_LEN..body_end])
        .map_err(|_| bad("payload is not UTF-8"))?;
    let frame = match kind {
        KIND_SUBMIT => Frame::Submit(decode_submission(text, len as u64)?),
        KIND_DRAIN => Frame::Drain,
        KIND_STATS => Frame::Stats,
        KIND_SUBMIT_RESP => Frame::SubmitResp(decode_response(text)?),
        KIND_DRAIN_RESP => Frame::DrainResp,
        KIND_STATS_RESP => Frame::StatsResp(parse_payload(text, "stats-resp")?),
        KIND_NOTICE => Frame::Notice(decode_notice(text)?),
        KIND_BYE => Frame::Bye(decode_bye(text)?),
        other => return Err(WireError::UnknownKind(other)),
    };
    Ok(Some((frame, total)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sub(tenant: u64, seq: u64) -> Submission {
        Submission {
            tenant,
            seq,
            attempt: 2,
            deadline: SimTime::from_secs(30),
            cost_milli: 1000,
            bytes: 0,
            payload: Json::obj(vec![("svc_ms", u64_json(250))]),
        }
    }

    #[test]
    fn every_kind_round_trips() {
        let frames = [
            Frame::Submit(sub(4, 9)),
            Frame::Drain,
            Frame::Stats,
            Frame::SubmitResp(SubmitResponse::Admitted { ticket: 77 }),
            Frame::SubmitResp(SubmitResponse::Rejected {
                reason: RejectReason::QuotaExceeded,
                retry_after: SimTime::from_millis(125),
            }),
            Frame::DrainResp,
            Frame::StatsResp(Json::obj(vec![("queue", u64_json(3))])),
            Frame::Notice(Notice {
                ticket: 5,
                at: SimTime::from_secs(2),
                fate: Ok(CompletionKind::Attained),
            }),
            Frame::Notice(Notice {
                ticket: 6,
                at: SimTime::from_secs(3),
                fate: Err((ShedReason::Overload, SimTime::from_millis(40))),
            }),
            Frame::Bye(ConnClosed::ServerDraining),
        ];
        for frame in frames {
            let bytes = encode_frame(&frame);
            let (decoded, used) = decode_frame(&bytes).expect("decodes").expect("complete");
            assert_eq!(used, bytes.len());
            match (&frame, &decoded) {
                (Frame::Submit(a), Frame::Submit(b)) => {
                    // `bytes` is stamped from the frame, not round-tripped.
                    let mut a = a.clone();
                    a.bytes = b.bytes;
                    assert_eq!(&a, b);
                    assert_eq!(b.bytes, bytes.len() as u64 - 15);
                }
                _ => assert_eq!(frame, decoded),
            }
        }
    }

    #[test]
    fn prefixes_ask_for_more_bytes() {
        let bytes = encode_frame(&Frame::Submit(sub(1, 1)));
        for cut in 0..bytes.len() {
            assert_eq!(decode_frame(&bytes[..cut]), Ok(None), "cut at {cut}");
        }
    }

    #[test]
    fn garbage_prefix_is_bad_magic() {
        assert_eq!(decode_frame(b"GET / HTTP/1.1"), Err(WireError::BadMagic));
        assert_eq!(decode_frame(b"R"), Ok(None));
        assert_eq!(decode_frame(b"RX"), Err(WireError::BadMagic));
    }

    #[test]
    fn any_single_bit_flip_is_caught() {
        let bytes = encode_frame(&Frame::SubmitResp(SubmitResponse::Admitted { ticket: 1 }));
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut corrupt = bytes.clone();
                corrupt[byte] ^= 1 << bit;
                let got = decode_frame(&corrupt);
                assert!(
                    !matches!(got, Ok(Some((ref f, _)) ) if *f == Frame::SubmitResp(SubmitResponse::Admitted { ticket: 1 })),
                    "flip at byte {byte} bit {bit} went unnoticed: {got:?}"
                );
            }
        }
    }

    #[test]
    fn oversized_announcement_rejected_from_header() {
        let mut bytes = encode_frame(&Frame::Drain);
        bytes[7..11].copy_from_slice(&(MAX_FRAME_PAYLOAD + 1).to_le_bytes());
        assert_eq!(
            decode_frame(&bytes),
            Err(WireError::FrameTooLarge { len: MAX_FRAME_PAYLOAD + 1 })
        );
    }

    #[test]
    fn close_reason_labels_round_trip() {
        for reason in ConnClosed::ALL {
            assert_eq!(ConnClosed::from_label(reason.label()), Some(reason));
        }
        assert_eq!(ConnClosed::from_label("nope"), None);
    }
}
