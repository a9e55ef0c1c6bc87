//! Minimal in-tree JSON: a value model, one writer (pretty or compact), and
//! a recursive-descent parser.
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
//! Every durable snapshot record and every wire payload goes through
//! [`parse`], so its cost is part of the control plane's budget:
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

use std::collections::BTreeMap;
use std::fmt::Write as _;

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

    /// The value as `u64`, if it is a non-negative integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
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

    /// The one writer: `indent` is the current nesting level when
    /// pretty-printing and `None` when writing compact.
    fn write(&self, out: &mut String, indent: Option<usize>) {
        let inner = indent.map(|levels| levels + 1);
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_number(out, *n),
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    push_line_break(out, inner);
                    item.write(out, inner);
                }
                push_line_break(out, indent);
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    push_line_break(out, inner);
                    write_string(out, k);
                    out.push_str(if indent.is_some() { ": " } else { ":" });
                    v.write(out, inner);
                }
                push_line_break(out, indent);
                out.push('}');
            }
        }
    }
}

/// A newline plus `indent` levels of two spaces; nothing in compact mode.
fn push_line_break(out: &mut String, indent: Option<usize>) {
    if let Some(levels) = indent {
        out.push('\n');
        for _ in 0..levels {
            out.push_str("  ");
        }
    }
}

fn write_number(out: &mut String, n: f64) {
    if !n.is_finite() {
        // JSON has no NaN/Infinity; persist as null like serde_json does.
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < 1e15 {
        let _ = write!(out, "{}", n as i64);
    } else {
        // `{:?}` is Rust's shortest representation that round-trips through
        // `str::parse::<f64>()` exactly.
        let _ = write!(out, "{n:?}");
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
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
    let mut p = Parser { src: input, pos: 0, depth: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != input.len() {
        return Err(format!("trailing characters at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    src: &'a str,
    /// Always on a character boundary of `src`: it only ever advances past
    /// ASCII bytes or to the next ASCII byte.
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    // Named `expect` is fine now: rotary-lint matches P001 on tokens and
    // exempts `.expect(<byte/char literal>)` calls, so this parser-style
    // method no longer needs the `expect_byte` workaround name (PR 4).
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

    /// Parses one array or object, one level deeper. The only recursion in
    /// the parser goes through here, so this is where it is bounded.
    fn nested(&mut self, container: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH} levels at byte {}", self.pos));
        }
        self.depth += 1;
        let v = container(self);
        self.depth -= 1;
        v
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
            Json::Str(s) if !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit()) => {
                s.parse::<u64>().ok()
            }
            _ => None,
        }
    }
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
    fn integers_render_without_fraction() {
        assert_eq!(Json::Num(42.0).to_pretty(), "42");
        assert_eq!(Json::Num(-7.0).to_pretty(), "-7");
        assert_eq!(Json::Num(0.5).to_pretty(), "0.5");
        // Non-finite numbers degrade to null rather than invalid JSON.
        assert_eq!(Json::Num(f64::NAN).to_pretty(), "null");
    }
}
