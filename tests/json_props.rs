//! Property suite for the in-tree JSON codec (`rotary_core::json`).
//!
//! The snapshot store and every persisted artifact (history repository,
//! simulation traces, bench results) lean on this codec, so its round-trip
//! guarantees are load-bearing for durable recovery: a value written with
//! `to_pretty` or `to_compact` must parse back to the identical tree, `f64`
//! numbers must survive bit-exactly, `u64` identifiers must not lose
//! precision to the `f64` number model, and truncated or garbage-suffixed
//! documents must be rejected with an error — never a panic. The parser
//! copies strings run by run, so it is also held to a char-at-a-time
//! reference on arbitrary text, to its nesting cap, and to linear time.
//! Its second entry point, the pull `Reader` the wire codec walks payloads
//! with, is held to `parse`: the same values, the same errors.

use rotary::core::json::{self, u64_json, Json, Reader};
use rotary_check::{check, Source};
use std::collections::BTreeMap;

/// Pieces chosen to stress the writer's escape table and the parser's run
/// copying: plain ASCII runs of several lengths, and between them quotes,
/// backslashes, control characters (escaped as `\u00xx`), DEL, and 2-, 3-
/// and 4-byte code points — so every kind of character lands at the start,
/// the end and the middle of a run.
fn arbitrary_string(src: &mut Source) -> String {
    const PIECES: [&str; 22] = [
        "a",
        "Z0",
        " ",
        "plain run",
        "a much longer run of ordinary ascii text, 0123456789",
        "\"",
        "\\",
        "\n",
        "\r",
        "\t",
        "\u{1}",
        "\u{8}",
        "\u{c}",
        "\u{1f}",
        "\u{7f}",
        "/",
        "µ",
        "é",
        "嗨",
        "𝄞",
        "\u{80}",
        "\u{ffff}",
    ];
    src.vec_of(0, 12, |s| *s.pick(&PIECES)).concat()
}

/// A finite `f64` drawn from regimes the writer treats differently: small
/// integers (written without a fraction), huge integers (scientific
/// notation), fractional values, and arbitrary finite bit patterns.
fn arbitrary_finite(src: &mut Source) -> f64 {
    match src.u64_in(0, 3) {
        0 => src.u64_in(0, 1 << 20) as f64,
        1 => -((src.u64_in(0, 1 << 45)) as f64),
        2 => src.f64_in(-1.0e9, 1.0e9),
        _ => {
            let v = src.any_f64();
            if v.is_finite() {
                v
            } else {
                0.5
            }
        }
    }
}

/// An arbitrary JSON tree of bounded depth. Object keys may collide —
/// the codec preserves insertion order, so duplicates must round-trip too.
fn arbitrary_json(src: &mut Source, depth: usize) -> Json {
    let top = if depth == 0 { 3 } else { 5 };
    match src.u64_in(0, top) {
        0 => Json::Null,
        1 => Json::Bool(src.bool(0.5)),
        2 => Json::Num(arbitrary_finite(src)),
        3 => Json::Str(arbitrary_string(src)),
        4 => Json::Arr(src.vec_of(0, 4, |s| arbitrary_json(s, depth - 1))),
        _ => Json::Obj(src.vec_of(0, 4, |s| (arbitrary_string(s), arbitrary_json(s, depth - 1)))),
    }
}

#[test]
fn json_trees_roundtrip_exactly() {
    check("json_tree_roundtrip", |src| {
        let value = arbitrary_json(src, 3);
        let (pretty, compact) = (value.to_pretty(), value.to_compact());
        for text in [&pretty, &compact] {
            let parsed = json::parse(text).unwrap_or_else(|e| panic!("parse failed: {e}\n{text}"));
            assert_eq!(parsed, value, "round-trip changed the tree:\n{text}");
        }
        // Newlines inside strings are escaped, so a raw one is indentation.
        assert!(!compact.contains('\n') && compact.len() <= pretty.len(), "{compact}");
    });
}

#[test]
fn any_f64_writes_to_valid_json() {
    // For *any* bit pattern — including NaN, ±∞, and subnormals — the
    // writer must emit valid JSON, and finite values must parse back
    // bit-exactly (non-finite values are persisted as null, like
    // serde_json).
    check("json_any_f64", |src| {
        let x = src.any_f64();
        let text = Json::Num(x).to_pretty();
        let parsed = json::parse(&text).unwrap_or_else(|e| panic!("parse failed: {e}\n{text}"));
        if x.is_finite() {
            let back = parsed.as_f64().expect("finite number parsed as non-number");
            // -0.0 is written as "0"; both compare equal and behave
            // identically in every consumer, so plain == is the contract.
            assert_eq!(back, x, "f64 changed across the codec: {x:?} -> {back:?}");
        } else {
            assert_eq!(parsed, Json::Null, "non-finite {x:?} must persist as null");
        }
    });
}

#[test]
fn u64_identifiers_roundtrip_exactly() {
    // Raw u64 identifiers (seeds, RNG state words, row counts) exceed the
    // f64-exact range, so they travel as decimal strings. Every value —
    // including u64::MAX — must survive the full write/parse cycle.
    check("json_u64_exact", |src| {
        let v = if src.bool(0.2) { u64::MAX - src.u64_in(0, 3) } else { src.raw() };
        let text = u64_json(v).to_pretty();
        let parsed = json::parse(&text).unwrap_or_else(|e| panic!("parse failed: {e}\n{text}"));
        assert_eq!(parsed.as_u64_str(), Some(v), "u64 lost precision: {v}\n{text}");
    });
}

#[test]
fn every_truncation_is_an_error_never_a_panic() {
    // A torn snapshot write can hand the parser any prefix of a valid
    // document. Wrapped in an array, no proper prefix is itself complete
    // (a bare `12` cut to `1` would be), so each one must be an error.
    check("json_truncation", |src| {
        let doc = Json::Arr(vec![arbitrary_json(src, 2)]);
        for text in [doc.to_pretty(), doc.to_compact()] {
            for cut in (0..text.len()).filter(|&cut| text.is_char_boundary(cut)) {
                assert!(json::parse(&text[..cut]).is_err(), "prefix of {cut} bytes of:\n{text}");
            }
        }
    });
}

#[test]
fn trailing_garbage_is_rejected() {
    check("json_trailing_garbage", |src| {
        let text = arbitrary_json(src, 2).to_pretty();
        let suffix = *src.pick(&["x", "]", "}", "1", "\"", "null"]);
        assert!(
            json::parse(&format!("{text} {suffix}")).is_err(),
            "trailing {suffix:?} accepted after a complete document"
        );
    });
}

#[test]
fn num_maps_roundtrip_through_objects() {
    // The history repository persists BTreeMap<String, f64> via
    // num_map_to_json / num_map_from_json; the pair must be lossless for
    // finite values and arbitrary keys.
    check("json_num_map", |src| {
        let mut map = BTreeMap::new();
        for _ in 0..src.usize_in(0, 6) {
            map.insert(arbitrary_string(src), arbitrary_finite(src));
        }
        let text = json::num_map_to_json(&map).to_pretty();
        let parsed = json::parse(&text).unwrap_or_else(|e| panic!("parse failed: {e}\n{text}"));
        let back = json::num_map_from_json(&parsed)
            .unwrap_or_else(|e| panic!("num_map_from_json failed: {e}\n{text}"));
        assert_eq!(back, map, "num map changed across the codec:\n{text}");
    });
}

// ---------------------------------------------------------------------------
// The parser against a char-at-a-time reference, on text rather than trees.
// ---------------------------------------------------------------------------

/// The grammar `json::parse` accepts, read one `char` at a time with no
/// slicing and no byte offsets: the same leniencies (raw control characters
/// inside strings, `starts_with` literals, Rust's `f64` grammar over the
/// number alphabet), the same nesting cap. Errors carry no text — the
/// comparison is `Ok` tree against `Ok` tree, or both `Err`.
struct Reference {
    chars: Vec<char>,
    pos: usize,
}

impl Reference {
    fn parse(text: &str) -> Option<Json> {
        let mut r = Reference { chars: text.chars().collect(), pos: 0 };
        r.skip_ws();
        let v = r.value(0)?;
        r.skip_ws();
        (r.pos == r.chars.len()).then_some(v)
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn eat(&mut self, c: char) -> Option<()> {
        (self.peek() == Some(c)).then(|| self.pos += 1)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(' ' | '\t' | '\n' | '\r')) {
            self.pos += 1;
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Option<Json> {
        for c in word.chars() {
            self.eat(c)?;
        }
        Some(value)
    }

    fn value(&mut self, depth: usize) -> Option<Json> {
        match self.peek()? {
            '{' | '[' if depth == json::MAX_DEPTH => None,
            '{' => self
                .container('}', |r| {
                    let key = r.string()?;
                    r.skip_ws();
                    r.eat(':')?;
                    r.skip_ws();
                    Some((key, r.value(depth + 1)?))
                })
                .map(Json::Obj),
            '[' => self.container(']', |r| r.value(depth + 1)).map(Json::Arr),
            '"' => self.string().map(Json::Str),
            't' => self.literal("true", Json::Bool(true)),
            'f' => self.literal("false", Json::Bool(false)),
            'n' => self.literal("null", Json::Null),
            '-' | '0'..='9' => {
                let start = self.pos;
                self.pos += 1;
                while matches!(self.peek(), Some('0'..='9' | '.' | 'e' | 'E' | '+' | '-')) {
                    self.pos += 1;
                }
                let text: String = self.chars[start..self.pos].iter().collect();
                text.parse().ok().map(Json::Num)
            }
            _ => None,
        }
    }

    fn container<T>(
        &mut self,
        close: char,
        mut item: impl FnMut(&mut Self) -> Option<T>,
    ) -> Option<Vec<T>> {
        self.pos += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat(close).is_some() {
            return Some(items);
        }
        loop {
            self.skip_ws();
            items.push(item(self)?);
            self.skip_ws();
            if self.eat(',').is_none() {
                return self.eat(close).map(|()| items);
            }
        }
    }

    fn string(&mut self) -> Option<String> {
        self.eat('"')?;
        let mut out = String::new();
        loop {
            let c = self.peek()?;
            self.pos += 1;
            match c {
                '"' => return Some(out),
                '\\' => {
                    let esc = self.peek()?;
                    self.pos += 1;
                    out.push(match esc {
                        '"' | '\\' | '/' => esc,
                        'n' => '\n',
                        'r' => '\r',
                        't' => '\t',
                        'b' => '\u{8}',
                        'f' => '\u{c}',
                        'u' => {
                            let mut code = 0;
                            for _ in 0..4 {
                                code = code * 16 + self.peek()?.to_digit(16)?;
                                self.pos += 1;
                            }
                            char::from_u32(code).unwrap_or('\u{FFFD}')
                        }
                        _ => return None,
                    });
                }
                c => out.push(c),
            }
        }
    }
}

/// The text of one JSON-shaped value, written token by token rather than
/// by the writer, so it reaches what the writer never emits: every escape
/// form, raw control characters, odd whitespace, lenient numbers. About one
/// piece in fifty is ill-formed, so most documents parse and some do not.
fn arbitrary_text(src: &mut Source, depth: usize) -> String {
    const GOOD_PIECES: [&str; 24] = [
        "a",
        "key",
        "plain run of text",
        "a longer run, with punctuation: [1, 2] {x} 'y'",
        " ",
        "/",
        "\\\"",
        "\\\\",
        "\\/",
        "\\b",
        "\\f",
        "\\n",
        "\\r",
        "\\t",
        "\\u0041",
        "\\u00e9",
        "\\uD834",
        "\\uffff",
        "µ",
        "嗨",
        "𝄞",
        "\u{1}",
        "\t",
        "\u{7f}",
    ];
    const BAD_PIECES: [&str; 8] =
        ["\\u+041", "\\u 041", "\\u00g1", "\\u12", "\\x", "\\µ", "\\", "\""];
    const SCALARS: [&str; 12] =
        ["true", "false", "null", "0", "-1.5e3", "12.5", "1E+2", "-0", "1.", "-.5", "17", "2e-3"];
    const BAD_SCALARS: [&str; 8] = ["nul", "tru", "1e", "-", "1.2.3", "+1", "x", ""];
    fn ws(src: &mut Source) -> &'static str {
        src.pick::<&str>(&["", "", " ", "\n  ", "\t", "\r\n"])
    }
    fn string(src: &mut Source) -> String {
        let body = src.vec_of(0, 6, |s| {
            if s.bool(0.02) {
                *s.pick(&BAD_PIECES)
            } else {
                *s.pick(&GOOD_PIECES)
            }
        });
        format!("\"{}\"", body.concat())
    }
    let top = if depth == 0 { 1 } else { 3 };
    match src.u64_in(0, top) {
        0 if src.bool(0.02) => src.pick(&BAD_SCALARS).to_string(),
        0 => src.pick(&SCALARS).to_string(),
        1 => string(src),
        2 => {
            let items =
                src.vec_of(0, 4, |s| format!("{}{}{}", ws(s), arbitrary_text(s, depth - 1), ws(s)));
            format!("[{}{}]", ws(src), items.join(","))
        }
        _ => {
            let items = src.vec_of(0, 4, |s| {
                let value = arbitrary_text(s, depth - 1);
                format!("{}{}{}:{}{}{}", ws(s), string(s), ws(s), ws(s), value, ws(s))
            });
            format!("{{{}{}}}", ws(src), items.join(","))
        }
    }
}

/// [`arbitrary_text`] plus a suffix, and a third of the time damaged at a
/// random character: one removed, or a structural token dropped in.
fn arbitrary_document(src: &mut Source) -> String {
    let mut text = format!("{}{}", arbitrary_text(src, 3), *src.pick(&["", " ", "\n", " x"]));
    if src.bool(0.33) && !text.is_empty() {
        let mut at = src.usize_in(0, text.len() - 1);
        while !text.is_char_boundary(at) {
            at -= 1;
        }
        if src.bool(0.5) {
            text.remove(at);
        } else {
            text.insert_str(at, src.pick::<&str>(&["\"", "\\", "[", "]", "{", "}", ",", ":", "µ"]));
        }
    }
    text
}

#[test]
fn parser_agrees_with_a_char_at_a_time_reference_on_arbitrary_text() {
    check("json_vs_reference", |src| {
        let text = arbitrary_document(src);
        assert_eq!(json::parse(&text).ok(), Reference::parse(&text), "{text:?}");
    });
}

// ---------------------------------------------------------------------------
// The pull reader against `parse`.
// ---------------------------------------------------------------------------

/// What a walk learnt about one value, by the way it chose to consume it.
#[derive(Debug, PartialEq)]
enum Seen {
    Tree(Json),
    Obj(Vec<(String, Seen)>),
    Arr(Vec<Seen>),
    Uint(Option<u64>),
    Str(Option<String>),
    Skipped,
}

/// Consumes the next value with a reader method drawn from `src` — build,
/// skip, read as u64, read as string, or walk into it — and records each
/// choice so [`seen_in`] can replay the walk over a parsed tree.
fn walk(r: &mut Reader, src: &mut Source, choices: &mut Vec<u64>) -> Result<Seen, String> {
    let choice = src.u64_in(0, 4);
    choices.push(choice);
    Ok(match choice {
        0 => Seen::Tree(r.value()?),
        1 => {
            r.skip()?;
            Seen::Skipped
        }
        2 => Seen::Uint(r.uint()?),
        3 => Seen::Str(r.str()?.map(|s| s.into_owned())),
        _ => {
            let mut members = Vec::new();
            let mut items = Vec::new();
            if r.object(|key, r| {
                members.push((key.to_string(), walk(r, src, choices)?));
                Ok(())
            })? {
                Seen::Obj(members)
            } else if r.array(|r| {
                items.push(walk(r, src, choices)?);
                Ok(())
            })? {
                Seen::Arr(items)
            } else {
                Seen::Tree(r.value()?)
            }
        }
    })
}

/// The same walk over a tree `parse` built, by the tree API.
fn seen_in(tree: &Json, choices: &mut impl Iterator<Item = u64>) -> Seen {
    match choices.next().expect("the walk made a choice per value") {
        0 => Seen::Tree(tree.clone()),
        1 => Seen::Skipped,
        2 => Seen::Uint(tree.as_u64_str().or_else(|| tree.as_u64())),
        3 => Seen::Str(tree.as_str().map(str::to_string)),
        _ => match tree {
            Json::Obj(pairs) => {
                Seen::Obj(pairs.iter().map(|(k, v)| (k.clone(), seen_in(v, choices))).collect())
            }
            Json::Arr(items) => Seen::Arr(items.iter().map(|v| seen_in(v, choices)).collect()),
            scalar => Seen::Tree(scalar.clone()),
        },
    }
}

#[test]
fn the_reader_sees_what_parse_builds_and_fails_where_parse_fails() {
    check("json_reader_vs_parse", |src| {
        let text = match src.u64_in(0, 3) {
            0 => arbitrary_json(src, 3).to_pretty(),
            1 => arbitrary_json(src, 3).to_compact(),
            2 => arbitrary_document(src),
            // Around the nesting cap, where a walk must refuse what parse does.
            _ => {
                let (open, close) =
                    *src.pick(&[("[", "]"), ("{\"k\": ", "}"), ("[{\"a\":0,\"k\":", "}]")]);
                let units =
                    (json::MAX_DEPTH - 3 + src.usize_in(0, 4)) / open.matches(['[', '{']).count();
                let inner = arbitrary_document(src);
                format!("{}{inner}{}", open.repeat(units), close.repeat(units))
            }
        };
        let mut choices = Vec::new();
        let mut r = Reader::new(&text);
        let walked = walk(&mut r, src, &mut choices).and_then(|seen| r.finish().map(|()| seen));
        match json::parse(&text) {
            Ok(tree) => {
                let mut replay = choices.into_iter();
                assert_eq!(walked, Ok(seen_in(&tree, &mut replay)), "{text:?}");
                assert_eq!(replay.next(), None);
            }
            Err(e) => assert_eq!(walked, Err(e), "{text:?}"),
        }
    });
}

#[test]
fn unicode_escapes_take_exactly_four_hex_digits() {
    assert_eq!(json::parse(r#""Aéé""#), Ok(Json::Str("Aéé".into())));
    for bad in [r#""\u+041""#, r#""\u-041""#, r#""\u 041""#, r#""\u00g1""#, r#""\u041""#] {
        assert!(json::parse(bad).is_err(), "{bad} should fail");
    }
}

#[test]
fn nesting_is_capped_at_max_depth() {
    let nest = |open: &str, close: &str, depth: usize| {
        format!("{}0{}", open.repeat(depth), close.repeat(depth))
    };
    for (open, close) in [("[", "]"), ("{\"k\":", "}"), ("[{\"k\": ", "}]")] {
        let per_unit = open.matches(['[', '{']).count();
        let fits = nest(open, close, json::MAX_DEPTH / per_unit);
        assert!(json::parse(&fits).is_ok(), "depth {} must parse", json::MAX_DEPTH);
        let deeper = format!("[{fits}]");
        let err = json::parse(&deeper).expect_err("one level deeper must be rejected");
        assert!(err.contains("nesting") && err.contains("at byte"), "{err}");
    }
    // What used to overflow the stack: a frame's worth of open brackets.
    assert!(json::parse(&"[".repeat(65_000)).is_err());
    assert!(json::parse(&"{\"a\":".repeat(65_000)).is_err());
}

#[test]
fn parse_time_is_linear_in_document_size() {
    // A string-heavy document of a little over 4 MB, shaped like a `jobs`
    // snapshot record. The parser this one replaced re-validated the rest
    // of the document for every string character and needed ≈ 17 s for it
    // in a release build, minutes unoptimised; a linear parser needs tens
    // of milliseconds even unoptimised.
    let row = Json::obj(vec![
        ("id", u64_json(123_456_789)),
        ("status", Json::Str("running".into())),
        ("label", Json::Str("tpch-q5 accuracy ≥ 85 % within 1800 seconds".into())),
        ("curve", Json::Arr((0..8).map(|i| Json::Num(0.125 * f64::from(i))).collect())),
    ]);
    let doc = Json::Arr(vec![row; 20_000]);
    let text = doc.to_pretty();
    assert!(text.len() >= 4 << 20, "document is only {} bytes", text.len());
    let started = std::time::Instant::now();
    let parsed = json::parse(&text).expect("parses");
    let elapsed = started.elapsed();
    assert_eq!(parsed, doc);
    assert!(elapsed.as_secs_f64() < 2.0, "4 MB took {elapsed:?}: parse is not linear");
}
