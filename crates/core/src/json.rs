//! Minimal in-tree JSON: a value model, one writer (pretty or compact), and
//! a recursive-descent parser with a pull interface.
//!
//! Rotary persists exactly two artifact families — the historical-job
//! repository ([`crate::history`]) and simulation traces
//! (`rotary_sim::metrics`) — and the bench binaries emit result files for
//! external plotting. That narrow surface does not justify an external
//! serialization framework: this module covers objects, arrays, strings
//! (with escape handling), `f64` numbers (written in shortest round-trip
//! form, so `value == parse(write(value))` exactly), booleans, and null,
//! keeping the workspace free of registry dependencies.
//!
//! Every durable snapshot record and every wire payload goes through the
//! parser, so its cost is part of the control plane's budget:
//!
//! * **Linear time.** The parser keeps the input as the `&str` it was
//!   given. A string is read by scanning to the next `"` or `\` (ASCII
//!   bytes never occur inside a multi-byte UTF-8 sequence, so both ends of
//!   the run are character boundaries) and copying the run with one slice;
//!   a string without escapes is one allocation sized to its length.
//!   Nothing is re-validated, so a document costs O(bytes).
//! * **Bounded recursion.** Arrays and objects may nest at most
//!   [`MAX_DEPTH`] deep; a deeper document is an ordinary `Err` with the
//!   byte offset of the offending bracket, not a stack overflow. The
//!   documents this repository writes nest fewer than ten levels.
//!
//! Codecs that know their fields — the wire frames of `rotary-serve` — need
//! no tree at all. [`Reader`] walks a document a value at a time over the
//! same tokenizer [`parse`] runs (`parse` is [`Reader::value`] plus the
//! trailing-input check), and [`write_object`] writes an object member by
//! member through the same primitives as [`Json::write`], which writes its
//! own objects through it: one tokenizer, one writer, so a typed codec reads
//! and writes exactly the text the tree API would.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number; stored as `f64` (integers round-trip exactly up to 2⁵³).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion-ordered.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from key/value pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Looks a key up in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as `u64`, if it is a non-negative integral number below
    /// 2⁶⁴.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) => num_as_u64(*n),
            _ => None,
        }
    }

    /// The value as `&str`, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serialises to pretty-printed JSON (two-space indent).
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out
    }

    /// Serialises with no whitespace at all — the form snapshot records
    /// are stored in. Parses back to the same value as [`Json::to_pretty`].
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None);
        out
    }

    /// The one writer: appends the value to `out`, pretty-printed with
    /// `indent` as the current nesting level (`Some(0)` is
    /// [`Json::to_pretty`]), or compact when `indent` is `None`
    /// ([`Json::to_compact`]).
    pub fn write(&self, out: &mut impl Sink, indent: Option<usize>) {
        match self {
            Json::Null => out.put("null"),
            Json::Bool(b) => out.put(if *b { "true" } else { "false" }),
            Json::Num(n) => write_number(out, *n),
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.put("[]");
                    return;
                }
                let inner = indent.map(|levels| levels + 1);
                out.put("[");
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.put(",");
                    }
                    push_line_break(out, inner);
                    item.write(out, inner);
                }
                push_line_break(out, indent);
                out.put("]");
            }
            Json::Obj(pairs) => write_object(out, indent, |obj| {
                for (k, v) in pairs {
                    obj.value(k, v);
                }
            }),
        }
    }
}

/// Where the writer puts its text: a `String`, or the byte buffer a wire
/// frame is assembled in. Only whole `&str`s are appended, so a `String`
/// stays UTF-8 and a byte buffer receives exactly the bytes a `String`
/// would hold.
pub trait Sink {
    /// Appends `text`.
    fn put(&mut self, text: &str);
}

impl Sink for String {
    #[inline]
    fn put(&mut self, text: &str) {
        self.push_str(text);
    }
}

impl Sink for Vec<u8> {
    #[inline]
    fn put(&mut self, text: &str) {
        self.extend_from_slice(text.as_bytes());
    }
}

/// Lets `write!` format into any [`Sink`].
struct Fmt<'s, S>(&'s mut S);

impl<S: Sink> fmt::Write for Fmt<'_, S> {
    fn write_str(&mut self, text: &str) -> fmt::Result {
        self.0.put(text);
        Ok(())
    }
}

/// Writes one object to `out` at nesting level `indent` (`None`: compact):
/// `members` adds its members through the [`ObjectWriter`]. This is the
/// layout [`Json::write`] gives every object, because it writes them
/// through here.
pub fn write_object<S: Sink>(
    out: &mut S,
    indent: Option<usize>,
    members: impl FnOnce(&mut ObjectWriter<'_, S>),
) {
    out.put("{");
    let mut obj = ObjectWriter { out, indent, empty: true };
    members(&mut obj);
    if !obj.empty {
        push_line_break(obj.out, indent);
    }
    obj.out.put("}");
}

/// The members of one object being written by [`write_object`], in the
/// order they are added.
pub struct ObjectWriter<'s, S: Sink> {
    out: &'s mut S,
    indent: Option<usize>,
    empty: bool,
}

impl<S: Sink> ObjectWriter<'_, S> {
    /// Writes a member's key; returns the nesting level of its value.
    fn key(&mut self, key: &str) -> Option<usize> {
        if !self.empty {
            self.out.put(",");
        }
        self.empty = false;
        let inner = self.indent.map(|levels| levels + 1);
        push_line_break(self.out, inner);
        write_string(self.out, key);
        self.out.put(if self.indent.is_some() { ": " } else { ":" });
        inner
    }

    /// A member whose value is a tree.
    pub fn value(&mut self, key: &str, value: &Json) {
        let inner = self.key(key);
        value.write(self.out, inner);
    }

    /// A string member.
    pub fn str(&mut self, key: &str, value: &str) {
        self.key(key);
        write_string(self.out, value);
    }

    /// A `u64` member, written as [`u64_json`] encodes it.
    pub fn uint(&mut self, key: &str, value: u64) {
        self.key(key);
        write_u64_str(self.out, value);
    }
}

/// A newline plus `indent` levels of two spaces; nothing in compact mode.
fn push_line_break(out: &mut impl Sink, indent: Option<usize>) {
    if let Some(levels) = indent {
        out.put("\n");
        for _ in 0..levels {
            out.put("  ");
        }
    }
}

fn write_number(out: &mut impl Sink, n: f64) {
    if !n.is_finite() {
        // JSON has no NaN/Infinity; persist as null like serde_json does.
        out.put("null");
    } else if n.fract() == 0.0 && n.abs() < 1e15 {
        let _ = write!(Fmt(out), "{}", n as i64);
    } else {
        // `{:?}` is Rust's shortest representation that round-trips through
        // `str::parse::<f64>()` exactly.
        let _ = write!(Fmt(out), "{n:?}");
    }
}

/// Writes `s` quoted, escaping what JSON requires. Runs between escapes are
/// copied whole: the bytes that need one are all ASCII, so every run starts
/// and ends on a character boundary.
fn write_string(out: &mut impl Sink, s: &str) {
    out.put("\"");
    let mut rest = s;
    while let Some(at) = rest.bytes().position(|b| b == b'"' || b == b'\\' || b < 0x20) {
        out.put(&rest[..at]);
        match rest.as_bytes()[at] {
            b'"' => out.put("\\\""),
            b'\\' => out.put("\\\\"),
            b'\n' => out.put("\\n"),
            b'\r' => out.put("\\r"),
            b'\t' => out.put("\\t"),
            c => {
                let _ = write!(Fmt(out), "\\u{c:04x}");
            }
        }
        rest = &rest[at + 1..];
    }
    out.put(rest);
    out.put("\"");
}

/// Writes `v` as [`u64_json`] encodes it — its decimal digits, quoted —
/// without formatting machinery.
fn write_u64_str(out: &mut impl Sink, mut v: u64) {
    // 20 digits at most, between two quotes the buffer starts out holding.
    let mut buf = [b'"'; 22];
    let mut at = buf.len() - 1;
    loop {
        at -= 1;
        buf[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    if let Ok(text) = std::str::from_utf8(&buf[at - 1..]) {
        out.put(text);
    }
}

/// Deepest array/object nesting [`parse`] accepts.
pub const MAX_DEPTH: usize = 128;

/// Parses a JSON document in time linear in its length.
///
/// # Errors
/// Returns a message with the byte offset of the first syntax error; trailing
/// non-whitespace after the top-level value is an error, and so is nesting
/// deeper than [`MAX_DEPTH`].
pub fn parse(input: &str) -> Result<Json, String> {
    let mut reader = Reader::new(input);
    let v = reader.value()?;
    reader.finish()?;
    Ok(v)
}

/// A pull reader over one JSON document: the parser behind [`parse`],
/// walked one value at a time so that a decoder keeps only what it needs.
///
/// Object members are visited in document order, each key borrowed from
/// the input (decoded into an owned string only when it holds an escape).
/// The caller consumes each value exactly once: builds it
/// ([`Reader::value`]), reads it as a scalar ([`Reader::uint`],
/// [`Reader::str`]), walks into it ([`Reader::object`], [`Reader::array`])
/// or validates and drops it ([`Reader::skip`]). Whichever it picks, every
/// byte is held to the grammar and the [`MAX_DEPTH`] cap of [`parse`], so a
/// document walked to [`Reader::finish`] is accepted exactly when `parse`
/// accepts it, and refused with the same message. After an error the reader
/// is spent.
pub struct Reader<'a> {
    p: Parser<'a>,
}

impl<'a> Reader<'a> {
    /// A reader at the top-level value of `input`.
    pub fn new(input: &'a str) -> Reader<'a> {
        let mut p = Parser { src: input, pos: 0, depth: 0 };
        p.skip_ws();
        Reader { p }
    }

    /// Builds the next value as a tree.
    ///
    /// # Errors
    /// The first syntax error in it, as [`parse`] reports it.
    pub fn value(&mut self) -> Result<Json, String> {
        self.p.value()
    }

    /// Validates the next value and drops it.
    ///
    /// # Errors
    /// The first syntax error in it, as [`parse`] reports it.
    pub fn skip(&mut self) -> Result<(), String> {
        if self.object(|_, r| r.skip())? || self.array(Self::skip)? {
            return Ok(());
        }
        match self.p.peek() {
            Some(b'"') => self.p.str_cow().map(drop),
            _ => self.p.value().map(drop),
        }
    }

    /// Reads the next value as a `u64`: a string of decimal digits (what
    /// [`u64_json`] writes, read by [`Json::as_u64_str`]), else a number
    /// [`Json::as_u64`] accepts. Any other valid value is `Ok(None)`.
    ///
    /// # Errors
    /// The first syntax error in the value, as [`parse`] reports it.
    pub fn uint(&mut self) -> Result<Option<u64>, String> {
        match self.p.peek() {
            Some(b'"') => Ok(digits_as_u64(&self.p.str_cow()?)),
            Some(c) if c == b'-' || c.is_ascii_digit() => Ok(self.p.number()?.as_u64()),
            _ => self.skip().map(|()| None),
        }
    }

    /// Reads the next value if it is a string, borrowed from the input
    /// unless it holds an escape. Any other valid value is `Ok(None)`.
    ///
    /// # Errors
    /// The first syntax error in the value, as [`parse`] reports it.
    pub fn str(&mut self) -> Result<Option<Cow<'a, str>>, String> {
        if self.p.peek() == Some(b'"') {
            self.p.str_cow().map(Some)
        } else {
            self.skip().map(|()| None)
        }
    }

    /// If the next value is an object, calls `member` with each key in
    /// document order — `member` consumes that member's value — and returns
    /// `true`. Returns `false`, consuming nothing, if it is not an object.
    ///
    /// # Errors
    /// The first syntax error in the object, or an error `member` returns.
    pub fn object(
        &mut self,
        mut member: impl FnMut(&str, &mut Self) -> Result<(), String>,
    ) -> Result<bool, String> {
        if self.p.peek() != Some(b'{') {
            return Ok(false);
        }
        self.items(b'}', |r| {
            let key = r.p.str_cow()?;
            r.p.skip_ws();
            r.p.expect(b':')?;
            r.p.skip_ws();
            member(&key, r)
        })?;
        Ok(true)
    }

    /// If the next value is an array, calls `item` for each element —
    /// `item` consumes it — and returns `true`. Returns `false`, consuming
    /// nothing, if it is not an array.
    ///
    /// # Errors
    /// The first syntax error in the array, or an error `item` returns.
    pub fn array(
        &mut self,
        item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<bool, String> {
        if self.p.peek() != Some(b'[') {
            return Ok(false);
        }
        self.items(b']', item)?;
        Ok(true)
    }

    /// The comma-separated items of the container whose opening bracket is
    /// next, one nesting level deeper, up to and including `close`.
    fn items(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.p.enter()?;
        self.p.pos += 1;
        self.p.skip_ws();
        if self.p.peek() == Some(close) {
            self.p.pos += 1;
        } else {
            loop {
                self.p.skip_ws();
                item(self)?;
                self.p.skip_ws();
                match self.p.peek() {
                    Some(b',') => self.p.pos += 1,
                    Some(c) if c == close => {
                        self.p.pos += 1;
                        break;
                    }
                    _ => {
                        let close = close as char;
                        return Err(format!("expected ',' or '{close}' at byte {}", self.p.pos));
                    }
                }
            }
        }
        self.p.depth -= 1;
        Ok(())
    }

    /// Checks that only whitespace follows the top-level value.
    ///
    /// # Errors
    /// The offset of the first trailing character.
    pub fn finish(mut self) -> Result<(), String> {
        self.p.skip_ws();
        if self.p.pos != self.p.src.len() {
            return Err(format!("trailing characters at byte {}", self.p.pos));
        }
        Ok(())
    }
}

struct Parser<'a> {
    src: &'a str,
    /// Always on a character boundary of `src`: it only ever advances past
    /// ASCII bytes or to the next ASCII byte.
    pos: usize,
    depth: usize,
}

// The `#[inline]`s let a `Reader` walk, which is instantiated in the crate
// that calls it, inline the tokenizer's smallest steps as `parse` does.
impl<'a> Parser<'a> {
    #[inline]
    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    #[inline]
    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    // Named `expect` is fine now: rotary-lint matches P001 on tokens and
    // exempts `.expect(<byte/char literal>)` calls, so this parser-style
    // method no longer needs the `expect_byte` workaround name (PR 4).
    #[inline]
    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.src.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    /// Parses one array or object, one level deeper.
    fn nested(&mut self, container: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        self.enter()?;
        let v = container(self);
        self.depth -= 1;
        v
    }

    /// Enters the container whose opening bracket is next. Every recursion
    /// of the parser, and of a [`Reader`]'s walk, enters a level here, so
    /// this is where it is bounded.
    #[inline]
    fn enter(&mut self) -> Result<(), String> {
        if self.depth == MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH} levels at byte {}", self.pos));
        }
        self.depth += 1;
        Ok(())
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let bytes = self.src.as_bytes();
        let mut out = String::new();
        loop {
            // Everything up to the next quote or backslash is copied as one
            // slice. Both are ASCII, which never occurs inside a multi-byte
            // sequence, so the run starts and ends on character boundaries.
            let run = bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .ok_or("unterminated string")?;
            out.push_str(&self.src[self.pos..self.pos + run]);
            self.pos += run + 1;
            if bytes[self.pos - 1] == b'"' {
                return Ok(out);
            }
            let esc = self.peek().ok_or("unterminated escape")?;
            self.pos += 1;
            match esc {
                b'"' => out.push('"'),
                b'\\' => out.push('\\'),
                b'/' => out.push('/'),
                b'n' => out.push('\n'),
                b'r' => out.push('\r'),
                b't' => out.push('\t'),
                b'b' => out.push('\u{0008}'),
                b'f' => out.push('\u{000C}'),
                b'u' => {
                    let hex = bytes.get(self.pos..self.pos + 4).ok_or("truncated \\u escape")?;
                    // Exactly four hex digits; `from_str_radix` would also
                    // take a leading sign.
                    let code = hex
                        .iter()
                        .try_fold(0u32, |code, &h| Some(code * 16 + char::from(h).to_digit(16)?))
                        .ok_or("bad \\u escape")?;
                    self.pos += 4;
                    // Surrogate pairs are not needed for Rotary's
                    // ASCII artifact surface; map them to U+FFFD.
                    out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                }
                other => {
                    return Err(format!("unknown escape '\\{}'", other as char));
                }
            }
        }
    }

    /// A string borrowed from the input when it holds no escape; one that
    /// does is decoded by [`Parser::string`].
    fn str_cow(&mut self) -> Result<Cow<'a, str>, String> {
        let start = self.pos;
        self.expect(b'"')?;
        let body = &self.src[self.pos..];
        match body.bytes().position(|b| b == b'"' || b == b'\\') {
            Some(end) if body.as_bytes()[end] == b'"' => {
                self.pos += end + 1;
                Ok(Cow::Borrowed(&body[..end]))
            }
            _ => {
                self.pos = start;
                self.string().map(Cow::Owned)
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')) {
            self.pos += 1;
        }
        let text = &self.src[start..self.pos];
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("invalid number '{text}' at byte {start}"))
    }
}

/// Encodes a `u64` as a decimal string. `Json::Num` holds an `f64`, which
/// loses precision above 2⁵³ — exact-width values (simulation timestamps,
/// RNG words, sequence counters) go through strings instead.
pub fn u64_json(v: u64) -> Json {
    Json::Str(v.to_string())
}

impl Json {
    /// Decodes a `u64` written by [`u64_json`]: a string holding only a
    /// decimal integer. Rejects signs, whitespace, and non-string values.
    pub fn as_u64_str(&self) -> Option<u64> {
        match self {
            Json::Str(s) => digits_as_u64(s),
            _ => None,
        }
    }
}

/// The rule of [`Json::as_u64_str`], shared with [`Reader::uint`].
fn digits_as_u64(s: &str) -> Option<u64> {
    if s.is_empty() || !s.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    s.parse().ok()
}

/// The rule of [`Json::as_u64`], shared with [`Reader::uint`]. The bound is
/// strict: `u64::MAX as f64` rounds up to 2⁶⁴, which does not fit.
fn num_as_u64(n: f64) -> Option<u64> {
    (n >= 0.0 && n.fract() == 0.0 && n < u64::MAX as f64).then_some(n as u64)
}

/// The compact text of the first elements of an append-only list, kept
/// between emissions so each element is encoded once:
/// [`CompactPrefix::write_array`] writes exactly what
/// `Json::Arr(prefix).to_compact()` would. The owner keeps it in step with
/// the list — appends are caught up lazily, anything else must reset it.
#[derive(Default)]
pub struct CompactPrefix {
    /// Elements encoded so far.
    len: usize,
    /// Their compact encodings, comma-separated.
    text: String,
}

impl CompactPrefix {
    /// Encodes the elements appended since the last call (`items[len..]`,
    /// one `encode` call each) and appends their text.
    ///
    /// # Panics
    /// Panics if `items` is shorter than what was already encoded — the
    /// owner removed elements without resetting the prefix.
    pub fn catch_up<T>(&mut self, items: &[T], mut encode: impl FnMut(&T) -> Json) {
        for item in &items[self.len..] {
            if self.len > 0 {
                self.text.push(',');
            }
            encode(item).write(&mut self.text, None);
            self.len += 1;
        }
    }

    /// Bytes of encoded element text held.
    pub fn bytes(&self) -> usize {
        self.text.len()
    }

    /// Writes the encoded prefix as a compact JSON array.
    pub fn write_array(&self, out: &mut String) {
        out.push('[');
        out.push_str(&self.text);
        out.push(']');
    }
}

impl std::fmt::Debug for CompactPrefix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompactPrefix")
            .field("len", &self.len)
            .field("bytes", &self.bytes())
            .finish()
    }
}

/// Convenience: a string-keyed `f64` map as a JSON object (sorted keys).
pub fn num_map_to_json(map: &BTreeMap<String, f64>) -> Json {
    Json::Obj(map.iter().map(|(k, v)| (k.clone(), Json::Num(*v))).collect())
}

/// Convenience: parses a JSON object back into a string-keyed `f64` map.
pub fn num_map_from_json(json: &Json) -> Result<BTreeMap<String, f64>, String> {
    match json {
        Json::Obj(pairs) => pairs
            .iter()
            .map(|(k, v)| {
                v.as_f64()
                    .map(|n| (k.clone(), n))
                    .ok_or_else(|| format!("feature '{k}' is not a number"))
            })
            .collect(),
        _ => Err("expected an object of numbers".into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trips() {
        for v in [
            Json::Null,
            Json::Bool(true),
            Json::Bool(false),
            Json::Num(0.0),
            Json::Num(-17.0),
            Json::Num(0.1),
            Json::Num(1e300),
            Json::Num(5e-324),
            Json::Str("hello".into()),
            Json::Str("esc \" \\ \n \t µ".into()),
        ] {
            let text = v.to_pretty();
            assert_eq!(parse(&text).unwrap(), v, "{text}");
        }
    }

    #[test]
    fn float_precision_is_exact() {
        // The shortest-repr writer must round-trip every bit pattern we
        // throw at it, including awkward fractions.
        for v in [1.0472809695593754f64, 0.1 + 0.2, std::f64::consts::PI, 1.0 / 3.0] {
            let text = Json::Num(v).to_pretty();
            assert_eq!(parse(&text).unwrap().as_f64().unwrap(), v, "{text}");
        }
    }

    #[test]
    fn nested_structure_round_trips() {
        let v = Json::obj(vec![
            ("name", Json::Str("q5".into())),
            (
                "curve",
                Json::Arr(vec![
                    Json::Arr(vec![Json::Num(0.1), Json::Num(0.4)]),
                    Json::Arr(vec![Json::Num(1.0), Json::Num(0.9)]),
                ]),
            ),
            ("empty_arr", Json::Arr(vec![])),
            ("empty_obj", Json::Obj(vec![])),
            ("flag", Json::Bool(true)),
            ("none", Json::Null),
        ]);
        let text = v.to_pretty();
        let parsed = parse(&text).unwrap();
        assert_eq!(parsed, v);
        assert_eq!(parsed.get("name").unwrap().as_str().unwrap(), "q5");
        assert_eq!(parsed.get("curve").unwrap().as_arr().unwrap().len(), 2);
        assert!(parsed.get("flag").unwrap().as_bool().unwrap());
        assert!(parsed.get("missing").is_none());
    }

    #[test]
    fn compact_writes_no_whitespace_and_the_same_tree() {
        let v = Json::obj(vec![
            ("a", Json::Arr(vec![Json::Num(1.0), Json::obj(vec![("b", Json::Null)])])),
            ("s", Json::Str("x y\n".into())),
            ("e", Json::Arr(vec![])),
            ("o", Json::Obj(vec![])),
        ]);
        assert_eq!(v.to_compact(), r#"{"a":[1,{"b":null}],"s":"x y\n","e":[],"o":{}}"#);
        assert_eq!(parse(&v.to_compact()).unwrap(), v);
        assert_eq!(parse(&v.to_pretty()).unwrap(), v);
    }

    #[test]
    fn compact_prefix_caught_up_in_pieces_writes_the_whole_array() {
        let items: Vec<Json> = vec![
            Json::Num(1.5),
            Json::obj(vec![("k", Json::Str("v\n".into()))]),
            Json::Arr(vec![]),
            Json::Null,
        ];
        let mut prefix = CompactPrefix::default();
        for end in 0..=items.len() {
            prefix.catch_up(&items[..end], Json::clone);
            let mut out = String::new();
            prefix.write_array(&mut out);
            assert_eq!(out, Json::Arr(items[..end].to_vec()).to_compact());
        }
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["{bad", "{\"a\":}", "[1,2", "\"unterminated", "12x", "", "{} trailing"] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
        // `\u` takes four hex digits, not whatever `from_str_radix` accepts.
        assert!(parse(r#""\u+041""#).is_err());
    }

    #[test]
    fn nesting_past_max_depth_is_an_error_with_an_offset() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let err = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err, format!("nesting deeper than {MAX_DEPTH} levels at byte {MAX_DEPTH}"));
        // Depth is nesting, not a count of containers.
        assert!(parse(&format!("[{}]", vec!["[]"; 1000].join(","))).is_ok());
    }

    #[test]
    fn accepts_whitespace_and_unicode_escapes() {
        let v = parse(" { \"a\" : [ 1 , 2.5 ] , \"s\" : \"\\u0041\" } ").unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[1], Json::Num(2.5));
        assert_eq!(v.get("s").unwrap().as_str().unwrap(), "A");
    }

    #[test]
    fn num_map_round_trips() {
        let map = BTreeMap::from([("lr".to_string(), 0.001), ("batch".to_string(), 32.0)]);
        let json = num_map_to_json(&map);
        assert_eq!(num_map_from_json(&json).unwrap(), map);
        assert!(num_map_from_json(&Json::Null).is_err());
    }

    #[test]
    fn u64_strings_are_exact_at_full_width() {
        for v in [0u64, 1, (1 << 53) + 1, u64::MAX] {
            let json = u64_json(v);
            let text = json.to_pretty();
            assert_eq!(parse(&text).unwrap().as_u64_str(), Some(v), "{text}");
        }
        assert_eq!(Json::Str("".into()).as_u64_str(), None);
        assert_eq!(Json::Str("-3".into()).as_u64_str(), None);
        assert_eq!(Json::Str(" 7".into()).as_u64_str(), None);
        assert_eq!(Json::Str("18446744073709551616".into()).as_u64_str(), None);
        assert_eq!(Json::Num(7.0).as_u64_str(), None);
    }

    #[test]
    fn as_u64_refuses_two_to_the_sixty_four() {
        // `u64::MAX as f64` is 2⁶⁴ itself, so a `<=` bound read this number
        // as u64::MAX.
        assert_eq!(parse("18446744073709551616").unwrap().as_u64(), None);
        assert_eq!(Reader::new("18446744073709551616").uint(), Ok(None));
        // The largest f64 below 2⁶⁴ still fits, and so does -0.
        assert_eq!(Json::Num(18446744073709549568.0).as_u64(), Some(18446744073709549568));
        assert_eq!(Json::Num(-0.0).as_u64(), Some(0));
        for n in [-1.0, 0.5, 1e300, f64::NAN, f64::INFINITY] {
            assert_eq!(Json::Num(n).as_u64(), None, "{n}");
        }
    }

    #[test]
    fn the_object_writer_writes_what_the_tree_writes() {
        let nested = Json::obj(vec![("k", Json::Arr(vec![Json::Num(1.5), Json::Null]))]);
        let tree = Json::obj(vec![
            ("zero", u64_json(0)),
            ("wide", u64_json((1 << 53) + 1)),
            ("max", u64_json(u64::MAX)),
            ("s", Json::Str("q\" b\\ nl\n c\u{1} µ".into())),
            ("nested", nested.clone()),
            ("empty", Json::Obj(vec![])),
        ]);
        for indent in [None, Some(0), Some(2)] {
            let mut typed = Vec::new();
            write_object(&mut typed, indent, |obj| {
                obj.uint("zero", 0);
                obj.uint("wide", (1 << 53) + 1);
                obj.uint("max", u64::MAX);
                obj.str("s", "q\" b\\ nl\n c\u{1} µ");
                obj.value("nested", &nested);
                obj.value("empty", &Json::Obj(vec![]));
            });
            let mut text = String::new();
            tree.write(&mut text, indent);
            assert_eq!(String::from_utf8(typed).unwrap(), text, "indent {indent:?}");
        }
        let mut empty = String::new();
        write_object(&mut empty, Some(1), |_| {});
        assert_eq!(empty, "{}");
    }

    #[test]
    fn the_reader_visits_members_in_order_with_decoded_keys() {
        let text =
            r#" { "n": "17", "k\u0041": [1, {"x": null}], "f": 2.0, "s": "a\nb", "t": true } "#;
        let mut r = Reader::new(text);
        let mut seen = Vec::new();
        let walked = r.object(|key, r| {
            let got = match key {
                "n" | "f" | "t" => format!("{:?}", r.uint()?),
                "kA" => format!("{:?}", r.value()?),
                _ => format!("{:?}", r.str()?),
            };
            seen.push(format!("{key}={got}"));
            Ok(())
        });
        assert_eq!(walked, Ok(true));
        assert_eq!(r.finish(), Ok(()));
        assert_eq!(
            seen,
            [
                "n=Some(17)",
                r#"kA=Arr([Num(1.0), Obj([("x", Null)])])"#,
                "f=Some(2)",
                r#"s=Some("a\nb")"#,
                "t=None",
            ]
        );
        // Not an object: nothing is consumed.
        let mut r = Reader::new("[1]");
        assert_eq!(r.object(|_, r| r.skip()), Ok(false));
        assert_eq!(r.array(|r| r.skip()), Ok(true));
        assert_eq!(r.finish(), Ok(()));
    }

    #[test]
    fn a_skipped_document_fails_exactly_where_parse_fails() {
        let deep = "[".repeat(MAX_DEPTH + 1);
        for text in [
            "{bad",
            "{\"a\":}",
            "{\"a\":1,}",
            "{\"a\" 1}",
            "[1,2",
            "[1 2]",
            "\"unterminated",
            "[\"\\q\"]",
            "{\"\\u12\": 0}",
            "12x",
            "-",
            "",
            "{} trailing",
            "[tru]",
            &deep,
            "{\"ok\": [null, false, \"\\u00e9\", -1.5e3, {}]}",
        ] {
            let mut r = Reader::new(text);
            let skipped = r.skip().and_then(|()| r.finish());
            assert_eq!(skipped, parse(text).map(drop), "{text:?}");
        }
    }

    #[test]
    fn integers_render_without_fraction() {
        assert_eq!(Json::Num(42.0).to_pretty(), "42");
        assert_eq!(Json::Num(-7.0).to_pretty(), "-7");
        assert_eq!(Json::Num(0.5).to_pretty(), "0.5");
        // Non-finite numbers degrade to null rather than invalid JSON.
        assert_eq!(Json::Num(f64::NAN).to_pretty(), "null");
    }
}
