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
//!
//! Payloads are pretty-printed JSON, but no JSON tree is built for them
//! except a `Submit`'s own `payload` member. The decoder walks the text
//! once with [`json::Reader`], keeping the fields its kind defines and
//! validating every other byte; the encoder writes the text straight into
//! its output with [`json::write_object`], the writer `Json::to_pretty`
//! uses for every object. The bytes are those of the tree encoding, and
//! the first occurrence of a duplicated key wins, as with `Json::get`.

use crate::{CompletionKind, Notice, RejectReason, ShedReason, Submission, SubmitResponse};
use rotary_core::json::{self, write_object, Json, Reader, Sink};
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

/// Writes a frame's payload — the pretty-printed JSON its kind defines —
/// straight into `out`, in the layout `Json::to_pretty` gives the same
/// object as a tree (`json::write_object` is the writer both use).
fn write_payload(frame: &Frame, out: &mut impl Sink) {
    match frame {
        Frame::Submit(sub) => write_object(out, Some(0), |obj| {
            obj.uint("tenant", sub.tenant);
            obj.uint("seq", sub.seq);
            obj.uint("attempt", u64::from(sub.attempt));
            obj.uint("deadline_ms", sub.deadline.as_millis());
            obj.uint("cost_milli", sub.cost_milli);
            obj.value("payload", &sub.payload);
        }),
        Frame::Drain | Frame::Stats | Frame::DrainResp => {}
        Frame::SubmitResp(SubmitResponse::Admitted { ticket }) => {
            write_object(out, Some(0), |obj| obj.uint("admitted", *ticket));
        }
        Frame::SubmitResp(SubmitResponse::Rejected { reason, retry_after }) => {
            write_object(out, Some(0), |obj| {
                obj.str("rejected", reason.label());
                obj.uint("retry_ms", retry_after.as_millis());
            });
        }
        Frame::StatsResp(json) => json.write(out, Some(0)),
        Frame::Notice(notice) => write_object(out, Some(0), |obj| {
            obj.uint("ticket", notice.ticket);
            obj.uint("at_ms", notice.at.as_millis());
            match notice.fate {
                Ok(kind) => obj.str("completed", kind.label()),
                Err((reason, retry_after)) => {
                    obj.str("shed", reason.label());
                    obj.uint("retry_ms", retry_after.as_millis());
                }
            }
        }),
        Frame::Bye(reason) => write_object(out, Some(0), |obj| obj.str("reason", reason.label())),
    }
}

/// Appends one encoded frame to `out`. The payload is written in place and
/// its length and CRC filled in after it, so a connection's write buffer
/// takes a frame with no intermediate allocation.
pub fn encode_frame_into(frame: &Frame, out: &mut Vec<u8>) {
    let start = out.len();
    out.extend_from_slice(&WIRE_MAGIC);
    out.extend_from_slice(&WIRE_VERSION.to_le_bytes());
    out.push(kind_of(frame));
    out.extend_from_slice(&[0; 4]); // payload_len, known once it is written
    let body = out.len();
    write_payload(frame, out);
    // The codec never *produces* an oversized frame: payloads the daemon
    // accepts are already capped well below MAX_FRAME_PAYLOAD, and the
    // length field below is what the decoder checks.
    out.truncate(body + MAX_FRAME_PAYLOAD as usize);
    let len = (out.len() - body) as u32;
    out[body - 4..body].copy_from_slice(&len.to_le_bytes());
    let crc = crc32(&out[start + WIRE_MAGIC.len()..]);
    out.extend_from_slice(&crc.to_le_bytes());
}

/// Encodes one frame. The inverse of [`decode_frame`] up to the
/// [`Submission::bytes`] convention documented at module level.
///
/// Callers keep encoded frames by the hundred thousand, so the payload is
/// measured first and the frame allocated once at its exact size — no
/// growing buffer is left behind or copied out of (DESIGN.md §15, "Payload
/// rules").
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    let mut payload = Measure(0);
    write_payload(frame, &mut payload);
    let len = payload.0.min(MAX_FRAME_PAYLOAD as usize);
    let mut out = Vec::with_capacity(FRAME_HEADER_LEN + len + FRAME_TRAILER_LEN);
    encode_frame_into(frame, &mut out);
    out
}

/// A sink that keeps only the length of what is written to it.
struct Measure(usize);

impl Sink for Measure {
    fn put(&mut self, text: &str) {
        self.0 += text.len();
    }
}

fn bad(detail: &str) -> WireError {
    WireError::BadPayload { detail: detail.to_string() }
}

/// Walks a payload's top-level members: `member` sees each key in document
/// order and reads or skips its value. Every byte is validated — unknown
/// members too, and a document that is not an object as a whole (its
/// fields then read as missing) — so a payload is refused exactly when, and
/// with the message with which, `json::parse` would refuse it.
fn members<'a>(
    text: &'a str,
    what: &str,
    member: impl FnMut(&str, &mut Reader<'a>) -> Result<(), String>,
) -> Result<(), WireError> {
    let mut r = Reader::new(text);
    let walked = match r.object(member) {
        Ok(true) => Ok(()),
        Ok(false) => r.skip(),
        Err(e) => Err(e),
    };
    walked.and_then(|()| r.finish()).map_err(|e| bad(&format!("{what}: {e}")))
}

/// Reads a member's value into `slot` unless a member with the same key
/// came first: the first occurrence wins, as with `Json::get`, whatever the
/// type of its value.
fn first<'a, T>(
    slot: &mut Option<T>,
    r: &mut Reader<'a>,
    read: impl FnOnce(&mut Reader<'a>) -> Result<T, String>,
) -> Result<(), String> {
    match slot {
        Some(_) => r.skip(),
        None => read(r).map(|v| *slot = Some(v)),
    }
}

/// Reads a value as a label of `from_label`'s set; `None` for a string
/// outside it or a value that is not a string.
fn label<'a, T>(
    from_label: fn(&str) -> Option<T>,
) -> impl FnOnce(&mut Reader<'a>) -> Result<Option<T>, String> {
    move |r| Ok(r.str()?.and_then(|s| from_label(&s)))
}

// The `uint` fields accept both the exact-width string encoding (what the
// encoder writes) and a plain JSON number, so hand-written payloads (the nc
// quick-start) work.
fn decode_submission(text: &str, wire_bytes: u64) -> Result<Submission, WireError> {
    let (mut tenant, mut seq, mut attempt, mut deadline, mut cost_milli, mut payload) =
        (None, None, None, None, None, None);
    members(text, "submit", |key, r| match key {
        "tenant" => first(&mut tenant, r, Reader::uint),
        "seq" => first(&mut seq, r, Reader::uint),
        "attempt" => first(&mut attempt, r, Reader::uint),
        "deadline_ms" => first(&mut deadline, r, Reader::uint),
        "cost_milli" => first(&mut cost_milli, r, Reader::uint),
        "payload" => first(&mut payload, r, Reader::value),
        _ => r.skip(),
    })?;
    let tenant = tenant.flatten().ok_or_else(|| bad("submit: missing tenant"))?;
    let seq = seq.flatten().ok_or_else(|| bad("submit: missing seq"))?;
    let attempt = attempt
        .flatten()
        .and_then(|a| u32::try_from(a).ok())
        .ok_or_else(|| bad("submit: attempt must fit in u32"))?;
    let deadline = deadline.flatten().ok_or_else(|| bad("submit: missing deadline_ms"))?;
    let cost_milli = cost_milli.flatten().ok_or_else(|| bad("submit: missing cost_milli"))?;
    // Submissions can be held for long (queued, retained, replayed), so the
    // payload is copied out of the parser's growing buffers into exact-size
    // ones. A copy, not a shrink in place: shrinking splits each buffer and
    // leaves a hole beside every kept payload.
    let payload = payload.ok_or_else(|| bad("submit: missing payload"))?.clone();
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
    let (mut admitted, mut rejected, mut retry) = (None, None, None);
    members(text, "submit-resp", |key, r| match key {
        "admitted" => first(&mut admitted, r, Reader::uint),
        "rejected" => first(&mut rejected, r, label(RejectReason::from_label)),
        "retry_ms" => first(&mut retry, r, Reader::uint),
        _ => r.skip(),
    })?;
    if let Some(ticket) = admitted.flatten() {
        return Ok(SubmitResponse::Admitted { ticket });
    }
    let reason = rejected
        .flatten()
        .ok_or_else(|| bad("submit-resp: neither admitted nor a known rejection"))?;
    let retry = retry.flatten().ok_or_else(|| bad("submit-resp: missing retry_ms"))?;
    Ok(SubmitResponse::Rejected { reason, retry_after: SimTime::from_millis(retry) })
}

fn decode_notice(text: &str) -> Result<Notice, WireError> {
    let (mut ticket, mut at, mut completed, mut shed, mut retry) = (None, None, None, None, None);
    members(text, "notice", |key, r| match key {
        "ticket" => first(&mut ticket, r, Reader::uint),
        "at_ms" => first(&mut at, r, Reader::uint),
        "completed" => first(&mut completed, r, label(CompletionKind::from_label)),
        "shed" => first(&mut shed, r, label(ShedReason::from_label)),
        "retry_ms" => first(&mut retry, r, Reader::uint),
        _ => r.skip(),
    })?;
    let ticket = ticket.flatten().ok_or_else(|| bad("notice: missing ticket"))?;
    let at = at.flatten().ok_or_else(|| bad("notice: missing at_ms"))?;
    let fate = if let Some(kind) = completed.flatten() {
        Ok(kind)
    } else if let Some(reason) = shed.flatten() {
        let retry = retry.flatten().ok_or_else(|| bad("notice: shed without retry_ms"))?;
        Err((reason, SimTime::from_millis(retry)))
    } else {
        return Err(bad("notice: neither completed nor shed"));
    };
    Ok(Notice { ticket, at: SimTime::from_millis(at), fate })
}

fn decode_bye(text: &str) -> Result<ConnClosed, WireError> {
    let mut reason = None;
    members(text, "bye", |key, r| match key {
        "reason" => first(&mut reason, r, label(ConnClosed::from_label)),
        _ => r.skip(),
    })?;
    reason.flatten().ok_or_else(|| bad("bye: unknown close reason"))
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
        KIND_STATS_RESP => {
            Frame::StatsResp(json::parse(text).map_err(|e| bad(&format!("stats-resp: {e}")))?)
        }
        KIND_NOTICE => Frame::Notice(decode_notice(text)?),
        KIND_BYE => Frame::Bye(decode_bye(text)?),
        other => return Err(WireError::UnknownKind(other)),
    };
    Ok(Some((frame, total)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rotary_core::json::u64_json;

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
