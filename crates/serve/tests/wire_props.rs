//! Wire-codec property suite and corrupted-frame fixtures.
//!
//! The decoder must be **total on arbitrary bytes**: every input yields a
//! frame, a need-more-bytes, or a typed [`WireError`] — never a panic.
//! The properties below feed it random frames, truncations, trailing
//! garbage, bit flips, and raw byte soup; the fixture set pins concrete
//! damaged frames into the repository (mirroring
//! `crates/store/tests/fixtures/`) so a codec change that reclassifies
//! damage is caught as a diff, not a silent behaviour shift.
//!
//! The codec reads and writes payloads without building JSON trees. The
//! tree codec it replaced is kept below as the reference oracle: every
//! frame must encode to the oracle's bytes, and every payload text must
//! decode to the oracle's frame or fail with the oracle's error.
//!
//! Fixtures are regenerated (only when the format changes) with:
//!
//! ```text
//! ROTARY_SERVE_WRITE_FIXTURES=1 cargo test -p rotary-serve --test wire_props
//! ```

use rotary_check::{check, Source};
use rotary_core::json::{u64_json, Json, MAX_DEPTH};
use rotary_core::SimTime;
use rotary_serve::wire::{
    decode_frame, encode_frame, encode_frame_into, ConnClosed, Frame, WireError, FRAME_HEADER_LEN,
    FRAME_TRAILER_LEN, MAX_FRAME_PAYLOAD,
};
use rotary_serve::{CompletionKind, Notice, RejectReason, ShedReason, Submission, SubmitResponse};
use std::path::PathBuf;

// ---------------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------------

/// Strings with every character class the JSON escaper must survive.
const TRICKY_STRINGS: &[&str] =
    &["", "plain", "with \"quotes\"", "back\\slash", "line\nbreak\ttab", "ünïcode ✓", "{}[],:"];

const REJECTS: [RejectReason; 6] = [
    RejectReason::QueueFull,
    RejectReason::QuotaExceeded,
    RejectReason::Draining,
    RejectReason::Malformed,
    RejectReason::Oversized,
    RejectReason::Duplicate,
];
const SHEDS: [ShedReason; 3] = [ShedReason::Overload, ShedReason::Timeout, ShedReason::Drain];
const COMPLETIONS: [CompletionKind; 4] = [
    CompletionKind::Attained,
    CompletionKind::FalselyAttained,
    CompletionKind::DeadlineMissed,
    CompletionKind::Failed,
];

/// A u64 from the ranges that encode differently: zero, the first integer
/// an `f64` cannot hold, the top of the range, or any bit pattern.
fn arb_u64(src: &mut Source) -> u64 {
    match src.usize_in(0, 4) {
        0 => *src.pick(&[0, 1, (1 << 53) + 1, u64::MAX - 1, u64::MAX]),
        1 => src.u64_in(0, 1 << 20),
        _ => src.raw(),
    }
}

/// A JSON tree with escaper-hostile strings and floats, nested up to
/// `depth` containers deep.
fn arb_tree(src: &mut Source, depth: usize) -> Json {
    match src.usize_in(0, if depth == 0 { 3 } else { 5 }) {
        0 => Json::Null,
        1 => Json::Bool(src.bool(0.5)),
        2 => Json::Num(src.f64_in(-1.0e12, 1.0e12)),
        3 => Json::Str(src.pick(TRICKY_STRINGS).to_string()),
        4 => Json::Arr(src.vec_of(0, 3, |s| arb_tree(s, depth - 1))),
        _ => Json::Obj(
            src.vec_of(0, 3, |s| (s.pick(TRICKY_STRINGS).to_string(), arb_tree(s, depth - 1))),
        ),
    }
}

fn arb_payload(src: &mut Source) -> Json {
    match src.usize_in(0, 5) {
        0 => Json::obj(vec![("svc_ms", u64_json(src.u64_in(0, 100_000)))]),
        1 => Json::Null,
        2 => Json::Str(src.pick(TRICKY_STRINGS).to_string()),
        3 => Json::Arr(vec![
            u64_json(src.raw()),
            Json::Bool(src.bool(0.5)),
            Json::Str(src.pick(TRICKY_STRINGS).to_string()),
        ]),
        4 => Json::obj(vec![
            ("query", u64_json(src.u64_in(1, 22))),
            ("threshold_bits", u64_json(src.raw())),
            ("nested", Json::obj(vec![("k", Json::Str(src.pick(TRICKY_STRINGS).to_string()))])),
        ]),
        _ => arb_tree(src, 4),
    }
}

fn arb_submission(src: &mut Source) -> Submission {
    Submission {
        tenant: arb_u64(src),
        seq: arb_u64(src),
        attempt: src.u64_in(0, u32::MAX as u64) as u32,
        deadline: SimTime::from_millis(arb_u64(src)),
        cost_milli: arb_u64(src),
        bytes: 0, // stamped by the decoder from the frame itself
        payload: arb_payload(src),
    }
}

fn arb_frame(src: &mut Source) -> Frame {
    match src.usize_in(0, 7) {
        0 => Frame::Submit(arb_submission(src)),
        1 => Frame::Drain,
        2 => Frame::Stats,
        3 => {
            if src.bool(0.5) {
                Frame::SubmitResp(SubmitResponse::Admitted { ticket: arb_u64(src) })
            } else {
                Frame::SubmitResp(SubmitResponse::Rejected {
                    reason: *src.pick(&REJECTS),
                    retry_after: SimTime::from_millis(arb_u64(src)),
                })
            }
        }
        4 => Frame::DrainResp,
        5 => Frame::StatsResp(arb_payload(src)),
        6 => Frame::Notice(Notice {
            ticket: arb_u64(src),
            at: SimTime::from_millis(arb_u64(src)),
            fate: if src.bool(0.5) {
                Ok(*src.pick(&COMPLETIONS))
            } else {
                Err((*src.pick(&SHEDS), SimTime::from_millis(arb_u64(src))))
            },
        }),
        _ => Frame::Bye(*src.pick(&ConnClosed::ALL)),
    }
}

/// Frames are equal up to the decoder stamping `Submission::bytes` from
/// the wire (the encoder deliberately does not serialise it).
fn assert_round_trip(frame: &Frame, decoded: &Frame, wire_len: usize) {
    match (frame, decoded) {
        (Frame::Submit(sent), Frame::Submit(got)) => {
            let payload_len = (wire_len - FRAME_HEADER_LEN - FRAME_TRAILER_LEN) as u64;
            assert_eq!(got.bytes, payload_len, "bytes must be stamped from framing");
            let mut sent = sent.clone();
            sent.bytes = got.bytes;
            assert_eq!(&sent, got);
        }
        _ => assert_eq!(frame, decoded),
    }
}

// ---------------------------------------------------------------------------
// Properties
// ---------------------------------------------------------------------------

#[test]
fn encode_decode_round_trips_exactly() {
    check("wire_round_trip", |src| {
        let frame = arb_frame(src);
        let bytes = encode_frame(&frame);
        let (decoded, used) = decode_frame(&bytes)
            .unwrap_or_else(|e| panic!("own encoding rejected: {e} for {frame:?}"))
            .expect("own encoding must be complete");
        assert_eq!(used, bytes.len(), "consumed length must cover the whole frame");
        assert_round_trip(&frame, &decoded, bytes.len());
    });
}

#[test]
fn every_truncation_asks_for_more_bytes() {
    check("wire_truncation", |src| {
        let bytes = encode_frame(&arb_frame(src));
        let cut = src.usize_in(0, bytes.len() - 1);
        assert_eq!(
            decode_frame(&bytes[..cut]),
            Ok(None),
            "a strict prefix of a valid frame is never an error (cut at {cut}/{})",
            bytes.len()
        );
    });
}

#[test]
fn trailing_garbage_does_not_disturb_the_frame() {
    check("wire_trailing_garbage", |src| {
        let frame = arb_frame(src);
        let mut bytes = encode_frame(&frame);
        let frame_len = bytes.len();
        let garbage = src.vec_of(1, 64, |s| s.u64_in(0, 255) as u8);
        bytes.extend_from_slice(&garbage);
        let (decoded, used) = decode_frame(&bytes).expect("frame decodes").expect("complete");
        assert_eq!(used, frame_len, "must consume exactly one frame");
        assert_round_trip(&frame, &decoded, frame_len);
        // The remainder decodes independently: total, never a panic.
        let _ = decode_frame(&bytes[used..]);
    });
}

#[test]
fn any_bit_flip_is_rejected_not_misread() {
    check("wire_bitflip", |src| {
        let frame = arb_frame(src);
        let bytes = encode_frame(&frame);
        let byte = src.usize_in(0, bytes.len() - 1);
        let bit = src.usize_in(0, 7) as u8;
        let mut corrupt = bytes.clone();
        corrupt[byte] ^= 1 << bit;
        match decode_frame(&corrupt) {
            // A flip in the length field can make the frame look longer
            // than the buffer — indistinguishable from a short read.
            Ok(None) | Err(_) => {}
            Ok(Some((decoded, _))) => {
                // Never silently equal to what was sent.
                let differs = match (&frame, &decoded) {
                    (Frame::Submit(sent), Frame::Submit(got)) => {
                        let mut sent = sent.clone();
                        sent.bytes = got.bytes;
                        sent != *got
                    }
                    _ => frame != decoded,
                };
                assert!(
                    differs,
                    "flip at byte {byte} bit {bit} decoded back to the original frame"
                );
            }
        }
    });
}

#[test]
fn decoder_is_total_on_byte_soup() {
    check("wire_byte_soup", |src| {
        let mut soup = src.vec_of(0, 256, |s| s.u64_in(0, 255) as u8);
        // Half the time, splice in a valid magic so the soup gets past the
        // first gate and attacks the header/CRC paths instead.
        if src.bool(0.5) {
            soup.splice(0..0, *b"RWIR");
        }
        let _ = decode_frame(&soup); // must not panic
                                     // Streaming consumption terminates: each consumed frame is
                                     // non-empty, so the loop always makes progress or stops.
        let mut rest = soup.as_slice();
        while let Ok(Some((_, used))) = decode_frame(rest) {
            assert!(used > 0);
            rest = &rest[used..];
        }
    });
}

// ---------------------------------------------------------------------------
// The tree oracle: frames built as `Json` trees and printed with
// `to_pretty`, payloads parsed whole with `json::parse` and read with
// `Json::get` — the codec as it was before it stopped building trees.
// ---------------------------------------------------------------------------

mod oracle {
    use super::*;
    use rotary_core::json;

    fn kind_of(frame: &Frame) -> u8 {
        match frame {
            Frame::Submit(_) => 1,
            Frame::Drain => 2,
            Frame::Stats => 3,
            Frame::SubmitResp(_) => 16,
            Frame::DrainResp => 17,
            Frame::StatsResp(_) => 18,
            Frame::Notice(_) => 19,
            Frame::Bye(_) => 20,
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

    pub fn encode(frame: &Frame) -> Vec<u8> {
        let text = payload_text(frame);
        let len = text.len().min(MAX_FRAME_PAYLOAD as usize);
        raw_frame(1, kind_of(frame), &text.as_bytes()[..len])
    }

    fn bad(detail: &str) -> WireError {
        WireError::BadPayload { detail: detail.to_string() }
    }

    fn parse_payload(text: &str, what: &str) -> Result<Json, WireError> {
        json::parse(text).map_err(|e| bad(&format!("{what}: {e}")))
    }

    fn uint(json: &Json, key: &str) -> Option<u64> {
        let v = json.get(key)?;
        v.as_u64_str().or_else(|| v.as_u64())
    }

    fn label<T: Copy>(json: &Json, key: &str, all: &[T], name: fn(T) -> &'static str) -> Option<T> {
        let s = json.get(key)?.as_str()?;
        all.iter().copied().find(|&v| name(v) == s)
    }

    fn decode_submission(text: &str) -> Result<Submission, WireError> {
        let json = parse_payload(text, "submit")?;
        let tenant = uint(&json, "tenant").ok_or_else(|| bad("submit: missing tenant"))?;
        let seq = uint(&json, "seq").ok_or_else(|| bad("submit: missing seq"))?;
        let attempt = uint(&json, "attempt")
            .and_then(|a| u32::try_from(a).ok())
            .ok_or_else(|| bad("submit: attempt must fit in u32"))?;
        let deadline =
            uint(&json, "deadline_ms").ok_or_else(|| bad("submit: missing deadline_ms"))?;
        let cost_milli =
            uint(&json, "cost_milli").ok_or_else(|| bad("submit: missing cost_milli"))?;
        let payload = json.get("payload").ok_or_else(|| bad("submit: missing payload"))?.clone();
        Ok(Submission {
            tenant,
            seq,
            attempt,
            deadline: SimTime::from_millis(deadline),
            cost_milli,
            bytes: text.len() as u64,
            payload,
        })
    }

    fn decode_response(text: &str) -> Result<SubmitResponse, WireError> {
        let json = parse_payload(text, "submit-resp")?;
        if let Some(ticket) = uint(&json, "admitted") {
            return Ok(SubmitResponse::Admitted { ticket });
        }
        let reason = label(&json, "rejected", &REJECTS, RejectReason::label)
            .ok_or_else(|| bad("submit-resp: neither admitted nor a known rejection"))?;
        let retry = uint(&json, "retry_ms").ok_or_else(|| bad("submit-resp: missing retry_ms"))?;
        Ok(SubmitResponse::Rejected { reason, retry_after: SimTime::from_millis(retry) })
    }

    fn decode_notice(text: &str) -> Result<Notice, WireError> {
        let json = parse_payload(text, "notice")?;
        let ticket = uint(&json, "ticket").ok_or_else(|| bad("notice: missing ticket"))?;
        let at = uint(&json, "at_ms").ok_or_else(|| bad("notice: missing at_ms"))?;
        let fate =
            if let Some(kind) = label(&json, "completed", &COMPLETIONS, CompletionKind::label) {
                Ok(kind)
            } else if let Some(reason) = label(&json, "shed", &SHEDS, ShedReason::label) {
                let retry =
                    uint(&json, "retry_ms").ok_or_else(|| bad("notice: shed without retry_ms"))?;
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

    /// The frame a payload of `kind` decodes to.
    pub fn decode(kind: u8, text: &str) -> Result<Frame, WireError> {
        Ok(match kind {
            1 => Frame::Submit(decode_submission(text)?),
            16 => Frame::SubmitResp(decode_response(text)?),
            18 => Frame::StatsResp(parse_payload(text, "stats-resp")?),
            19 => Frame::Notice(decode_notice(text)?),
            20 => Frame::Bye(decode_bye(text)?),
            other => unreachable!("no payload kind {other}"),
        })
    }
}

/// Every string and container in the tree is allocated at exactly its
/// length, as a clone of it would be.
fn exact_capacity(json: &Json) -> bool {
    match json {
        Json::Str(s) => s.capacity() == s.len(),
        Json::Arr(items) => items.capacity() == items.len() && items.iter().all(exact_capacity),
        Json::Obj(pairs) => {
            pairs.capacity() == pairs.len()
                && pairs.iter().all(|(k, v)| k.capacity() == k.len() && exact_capacity(v))
        }
        Json::Null | Json::Bool(_) | Json::Num(_) => true,
    }
}

#[test]
fn frames_encode_to_the_tree_oracle_bytes() {
    check("wire_encode_vs_tree", |src| {
        let frame = arb_frame(src);
        let want = oracle::encode(&frame);
        let bytes = encode_frame(&frame);
        assert_eq!(bytes, want, "{frame:?}");
        assert_eq!(bytes.capacity(), bytes.len(), "encode_frame must return exact capacity");
        // In place after whatever the buffer already holds.
        let mut buf = src.vec_of(0, 40, |s| s.u64_in(0, 255) as u8);
        let held = buf.clone();
        encode_frame_into(&frame, &mut buf);
        assert_eq!(buf[..held.len()], held[..]);
        assert_eq!(buf[held.len()..], want[..]);
    });
}

#[test]
fn every_label_encodes_to_the_tree_oracle_bytes() {
    let mut frames: Vec<Frame> = ConnClosed::ALL.into_iter().map(Frame::Bye).collect();
    for reason in REJECTS {
        let retry_after = SimTime::from_millis(u64::MAX);
        frames.push(Frame::SubmitResp(SubmitResponse::Rejected { reason, retry_after }));
    }
    for kind in COMPLETIONS {
        frames.push(Frame::Notice(Notice { ticket: 0, at: SimTime::ZERO, fate: Ok(kind) }));
    }
    for reason in SHEDS {
        let retry = SimTime::from_millis((1 << 53) + 1);
        frames.push(Frame::Notice(Notice {
            ticket: u64::MAX,
            at: retry,
            fate: Err((reason, retry)),
        }));
    }
    for frame in frames {
        assert_eq!(encode_frame(&frame), oracle::encode(&frame), "{frame:?}");
    }
}

/// Whitespace the writer never emits, between every pair of tokens.
fn ws(src: &mut Source) -> &'static str {
    src.pick::<&str>(&["", "", " ", "\n  ", "\t", "\r\n", "   \n"])
}

/// Where a decoder wants a u64: the encoder's digit string most of the
/// time, else a JSON number of every shape (fractional, negative, exponent,
/// 2⁶⁴), a malformed digit string, or a value of the wrong type.
fn uint_text(src: &mut Source) -> String {
    match src.usize_in(0, 7) {
        0 => src.u64_in(0, 1 << 53).to_string(),
        1 => src
            .pick(&[
                "18446744073709551616",
                "18446744073709551615",
                "1.8446744073709552e19",
                "9007199254740993",
                "1e3",
                "1E2",
                "2.5",
                "-1",
                "-0",
                "0.0",
                "1e400",
            ])
            .to_string(),
        2 => src
            .pick(&[
                r#""""#,
                r#""-3""#,
                r#"" 7""#,
                r#""007""#,
                r#""1.0""#,
                r#""18446744073709551616""#,
                r#""\u0031\u0032""#,
                "null",
                "true",
                "[1]",
                r#"{"n": "1"}"#,
            ])
            .to_string(),
        _ => format!("\"{}\"", arb_u64(src)),
    }
}

/// Where a decoder wants a label: one of `labels` (sometimes escaped), an
/// unknown string, or a value of the wrong type.
fn label_text(src: &mut Source, labels: &[&str]) -> String {
    match src.usize_in(0, 5) {
        0 => src.pick(&[r#""nope""#, r#""""#, "null", "7", r#"["attained"]"#]).to_string(),
        1 => {
            let label = *src.pick(labels);
            format!("\"\\u{:04x}{}\"", u32::from(label.as_bytes()[0]), &label[1..])
        }
        _ => format!("\"{}\"", src.pick(labels)),
    }
}

/// Any JSON text, written token by token: scalars, strings with escapes
/// (now and then a malformed one), and containers — sometimes nested to
/// `MAX_DEPTH` and past it.
fn any_text(src: &mut Source, depth: usize) -> String {
    match src.usize_in(0, if depth == 0 { 2 } else { 5 }) {
        0 => src.pick(&["null", "true", "false", "0", "-1.5e3", "17", "1e400"]).to_string(),
        1 if src.bool(0.1) => src.pick(&[r#""\q""#, r#""\u12""#, r#""\u00g1""#]).to_string(),
        1 => src.pick(&[r#""x""#, r#""a\"b\\c\n""#, r#""\u00e9µ""#, r#""𝄞""#]).to_string(),
        2 => format!("\"{}\"", arb_u64(src)),
        3 => {
            let items =
                src.vec_of(0, 3, |s| format!("{}{}{}", ws(s), any_text(s, depth - 1), ws(s)));
            format!("[{}]", items.join(","))
        }
        4 => {
            let items = src.vec_of(0, 3, |s| {
                let key = *s.pick(&["k", "tenant", "payload", "ticket", ""]);
                format!("{}\"{key}\"{}:{}{}", ws(s), ws(s), ws(s), any_text(s, depth - 1))
            });
            format!("{{{}}}", items.join(","))
        }
        // A member value `levels` containers deep sits at depth
        // `levels + 1` inside the payload object.
        _ => {
            let levels = MAX_DEPTH - 2 + src.usize_in(0, 3);
            let (open, close) = src.pick(&[("[", "]"), ("{\"d\":", "}")]);
            format!("{}0{}", open.repeat(levels), close.repeat(levels))
        }
    }
}

/// A member key as a client may write it: plain, or with a character
/// escaped (`"\u0074enant"` is `tenant`).
fn key_text(src: &mut Source, key: &str) -> String {
    if src.bool(0.1) && !key.is_empty() {
        format!("\"\\u{:04x}{}\"", u32::from(key.as_bytes()[0]), &key[1..])
    } else {
        format!("\"{key}\"")
    }
}

#[derive(Clone, Copy)]
enum Field {
    Uint,
    Label(&'static [&'static str]),
    Any,
}

const REJECT_LABELS: &[&str] =
    &["queue-full", "quota-exceeded", "draining", "malformed", "oversized", "duplicate"];
const COMPLETION_LABELS: &[&str] = &["attained", "falsely-attained", "deadline-missed", "failed"];
const SHED_LABELS: &[&str] = &["overload", "timeout", "drain"];
const CLOSE_LABELS: &[&str] =
    &["idle-timeout", "frame-too-large", "bad-frame", "server-draining", "overload", "peer-closed"];

fn fields_of(kind: u8) -> &'static [(&'static str, Field)] {
    match kind {
        1 => &[
            ("tenant", Field::Uint),
            ("seq", Field::Uint),
            ("attempt", Field::Uint),
            ("deadline_ms", Field::Uint),
            ("cost_milli", Field::Uint),
            ("payload", Field::Any),
        ],
        16 => &[
            ("admitted", Field::Uint),
            ("rejected", Field::Label(REJECT_LABELS)),
            ("retry_ms", Field::Uint),
        ],
        19 => &[
            ("ticket", Field::Uint),
            ("at_ms", Field::Uint),
            ("completed", Field::Label(COMPLETION_LABELS)),
            ("shed", Field::Label(SHED_LABELS)),
            ("retry_ms", Field::Uint),
        ],
        _ => &[("reason", Field::Label(CLOSE_LABELS))],
    }
}

fn field_text(src: &mut Source, field: Field) -> String {
    match field {
        Field::Uint => uint_text(src),
        Field::Label(labels) => label_text(src, labels),
        Field::Any => any_text(src, 3),
    }
}

/// A payload text for `kind` as a hand-written or hostile client may send
/// it: each field present or not, in any order, some twice (the first
/// sometimes of the wrong type), unknown members between them, odd
/// whitespace — or not an object at all, or cut short.
fn payload_text(src: &mut Source, kind: u8) -> String {
    let fields = fields_of(kind);
    let mut members = Vec::new();
    for &(key, field) in fields {
        if src.bool(0.9) {
            members.push((key_text(src, key), field_text(src, field)));
        }
    }
    for _ in 0..src.usize_in(0, 2) {
        let (key, field) = *src.pick(fields);
        let value = if src.bool(0.5) { any_text(src, 1) } else { field_text(src, field) };
        members.push((key_text(src, key), value));
    }
    for _ in 0..src.usize_in(0, 2) {
        members.push((format!("\"{}\"", src.pick(&["extra", "k", ""])), any_text(src, 2)));
    }
    for i in (1..members.len()).rev() {
        members.swap(i, src.usize_in(0, i));
    }
    let body: Vec<String> = members
        .iter()
        .map(|(k, v)| format!("{}{k}{}:{}{v}{}", ws(src), ws(src), ws(src), ws(src)))
        .collect();
    let mut text = match src.usize_in(0, 19) {
        0 => any_text(src, 2),
        1 => format!("[{}]", body.join(",")),
        _ => format!("{}{{{}}}{}", ws(src), body.join(","), ws(src)),
    };
    if src.bool(0.1) {
        let mut cut = src.usize_in(0, text.len());
        while !text.is_char_boundary(cut) {
            cut -= 1;
        }
        text.truncate(cut);
    } else if src.bool(0.05) {
        text.push_str(src.pick::<&str>(&[" x", "}", ",", " {}"]));
    }
    text
}

#[test]
fn payloads_decode_as_the_tree_oracle_decodes_them() {
    check("wire_decode_vs_tree", |src| {
        let kind = *src.pick(&[1u8, 16, 18, 19, 20]);
        let text = payload_text(src, kind);
        let got = decode_frame(&raw_frame(1, kind, text.as_bytes()));
        let want = oracle::decode(kind, &text);
        match (&got, &want) {
            (Ok(Some((frame, used))), Ok(expected)) => {
                assert_eq!(*used, FRAME_HEADER_LEN + text.len() + FRAME_TRAILER_LEN);
                assert_eq!(frame, expected, "{text}");
                if let Frame::Submit(sub) = frame {
                    assert!(exact_capacity(&sub.payload), "payload keeps parse slack: {text}");
                }
            }
            (Err(err), Err(expected)) => {
                assert_eq!(err.label(), expected.label(), "{text}");
                assert_eq!(err, expected, "{text}");
            }
            _ => panic!("typed decoder gave {got:?}, tree oracle {want:?}, for:\n{text}"),
        }
    });
}

#[test]
fn a_tenant_of_two_to_the_sixty_four_is_missing_not_u64_max() {
    let text = r#"{"tenant": 18446744073709551616, "seq": 1, "attempt": 0,
        "deadline_ms": 10, "cost_milli": 1, "payload": null}"#;
    let missing = WireError::BadPayload { detail: "submit: missing tenant".into() };
    assert_eq!(decode_frame(&raw_frame(1, 1, text.as_bytes())), Err(missing.clone()));
    assert_eq!(oracle::decode(1, text), Err(missing));
    // One below still reads, as the nearest f64 (2⁶⁴ − 2048).
    let below = text.replace("18446744073709551616", "18446744073709549568");
    match decode_frame(&raw_frame(1, 1, below.as_bytes())) {
        Ok(Some((Frame::Submit(sub), _))) => assert_eq!(sub.tenant, 18446744073709549568),
        other => panic!("{other:?}"),
    }
}

// ---------------------------------------------------------------------------
// Corrupted-frame fixtures
// ---------------------------------------------------------------------------

fn fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests").join("fixtures")
}

/// The frame every fixture derives from — fixed so the files are stable.
fn fixture_frame() -> Frame {
    Frame::Submit(Submission {
        tenant: 7,
        seq: 41,
        attempt: 2,
        deadline: SimTime::from_secs(30),
        cost_milli: 1500,
        bytes: 0,
        payload: Json::obj(vec![("svc_ms", u64_json(250))]),
    })
}

/// Builds a frame with an arbitrary header but a *correct* CRC, for
/// damage the CRC cannot be blamed for (unknown kind, bad payload).
fn raw_frame(version: u16, kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(b"RWIR");
    out.extend_from_slice(&version.to_le_bytes());
    out.push(kind);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    let crc = rotary_store::crc32(&out[4..]);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

fn fixture_bytes(name: &str) -> Vec<u8> {
    let valid = encode_frame(&fixture_frame());
    match name {
        "clean_submit" => valid,
        "torn_submit" => valid[..FRAME_HEADER_LEN + 9].to_vec(),
        "bitflip_payload" => {
            let mut bytes = valid;
            bytes[FRAME_HEADER_LEN + 4] ^= 1 << 2;
            bytes
        }
        "bad_magic" => {
            let mut bytes = valid;
            bytes[0] = b'X';
            bytes
        }
        "bad_version" => raw_frame(9, 1, b"{}"),
        "unknown_kind" => raw_frame(1, 99, b"{}"),
        "oversized_len" => {
            let mut bytes = valid;
            bytes[7..11].copy_from_slice(&(MAX_FRAME_PAYLOAD + 1).to_le_bytes());
            bytes
        }
        "garbage_payload" => raw_frame(1, 1, b"not json at all"),
        "trailing_garbage" => {
            let mut bytes = valid;
            bytes.extend_from_slice(b"GET / HTTP/1.1");
            bytes
        }
        other => unreachable!("unknown fixture '{other}'"),
    }
}

const FIXTURES: &[&str] = &[
    "clean_submit",
    "torn_submit",
    "bitflip_payload",
    "bad_magic",
    "bad_version",
    "unknown_kind",
    "oversized_len",
    "garbage_payload",
    "trailing_garbage",
];

/// Regenerates the checked-in fixtures. Gated behind an env var so normal
/// test runs only ever *read* the repository.
#[test]
fn write_fixtures_when_asked() {
    if std::env::var("ROTARY_SERVE_WRITE_FIXTURES").is_err() {
        return;
    }
    let dir = fixture_dir();
    std::fs::create_dir_all(&dir).expect("create fixture dir");
    for name in FIXTURES {
        let path = dir.join(format!("{name}.rwire"));
        std::fs::write(&path, fixture_bytes(name)).expect("write fixture");
        eprintln!("wrote {}", path.display());
    }
}

fn read_fixture(name: &str) -> Vec<u8> {
    let path = fixture_dir().join(format!("{name}.rwire"));
    std::fs::read(&path)
        .unwrap_or_else(|e| panic!("missing fixture {} ({e}); see module docs", path.display()))
}

#[test]
fn fixtures_match_their_generators() {
    for name in FIXTURES {
        assert_eq!(read_fixture(name), fixture_bytes(name), "fixture '{name}' is stale");
    }
}

#[test]
fn clean_fixture_decodes() {
    let bytes = read_fixture("clean_submit");
    let (frame, used) = decode_frame(&bytes).expect("decodes").expect("complete");
    assert_eq!(used, bytes.len());
    assert_round_trip(&fixture_frame(), &frame, bytes.len());
}

#[test]
fn torn_fixture_waits_for_more_bytes() {
    assert_eq!(decode_frame(&read_fixture("torn_submit")), Ok(None));
}

#[test]
fn bitflip_fixture_is_a_crc_mismatch() {
    assert!(matches!(
        decode_frame(&read_fixture("bitflip_payload")),
        Err(WireError::CrcMismatch { .. })
    ));
}

#[test]
fn bad_magic_fixture_is_typed() {
    assert_eq!(decode_frame(&read_fixture("bad_magic")), Err(WireError::BadMagic));
}

#[test]
fn bad_version_fixture_is_typed() {
    assert_eq!(decode_frame(&read_fixture("bad_version")), Err(WireError::BadVersion { found: 9 }));
}

#[test]
fn unknown_kind_fixture_is_typed() {
    assert_eq!(decode_frame(&read_fixture("unknown_kind")), Err(WireError::UnknownKind(99)));
}

#[test]
fn oversized_len_fixture_rejected_from_header_alone() {
    assert_eq!(
        decode_frame(&read_fixture("oversized_len")),
        Err(WireError::FrameTooLarge { len: MAX_FRAME_PAYLOAD + 1 })
    );
}

#[test]
fn garbage_payload_fixture_is_typed() {
    assert!(matches!(
        decode_frame(&read_fixture("garbage_payload")),
        Err(WireError::BadPayload { .. })
    ));
}

#[test]
fn trailing_garbage_fixture_decodes_one_frame_then_rejects() {
    let bytes = read_fixture("trailing_garbage");
    let (frame, used) = decode_frame(&bytes).expect("decodes").expect("complete");
    assert_round_trip(&fixture_frame(), &frame, used);
    assert_eq!(decode_frame(&bytes[used..]), Err(WireError::BadMagic));
}
