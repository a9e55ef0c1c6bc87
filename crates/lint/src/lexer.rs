//! A from-scratch Rust token lexer.
//!
//! The rule engine does not need a real parse tree — every invariant it
//! enforces is a statement about *token sequences in non-test code*. What
//! it does need, and what generic text search cannot give, is a faithful
//! token stream: identifiers (so `expect_byte` is never mistaken for
//! `expect`), punctuation (so `.unwrap()` is distinguishable from a
//! definition `fn unwrap`), literals (so string/char contents never leak
//! into matching), lifetimes (so `'a` is not half a char literal), and
//! comments (so `SAFETY:` runs and allow annotations stay inspectable). Every token carries a byte **span** that slices the
//! original source losslessly — the property the `lexer_props` suite pins
//! with 256 random token-soup round-trips — plus an **in-test flag**
//! computed by brace-tracking the item under `#[cfg(test)]` / `#[test]`
//! attributes. No `syn`, no proc-macro machinery — the workspace is
//! dependency-free by policy (DESIGN.md §3).
//!
//! Fidelity notes (deliberate, harmless for linting): numeric tokens fold
//! their suffix in (`1u64` is one `Int`), tuple-field chains like `x.0.1`
//! lex the `0.1` as one `Float`, and punctuation is emitted one byte at a
//! time (`::` is two `Punct` tokens). Spans still reconstruct the source
//! byte-for-byte in all three cases.

/// What a token is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword, including raw identifiers (`r#type`).
    Ident,
    /// A lifetime or loop label: `'a`, `'static`, `'_` (tick included).
    Lifetime,
    /// One byte of punctuation (`.`, `:`, `&`, `*`, `#`, …).
    Punct,
    /// Integer literal, suffix included (`42`, `0xff_u8`, `1_000`).
    Int,
    /// Float literal, suffix and exponent included (`1.`, `2.5e-3f32`).
    Float,
    /// String literal of any flavour: `"…"`, `r#"…"#`, `b"…"`, `br"…"`.
    Str,
    /// Char or byte literal: `'a'`, `'\n'`, `b'x'`.
    Char,
    /// `// …` comment (doc comments included), newline excluded.
    LineComment,
    /// `/* … */` comment, possibly nested, possibly multi-line.
    BlockComment,
}

impl TokenKind {
    /// Comments are trivia to the rules (but carry SAFETY/allow text).
    pub fn is_comment(self) -> bool {
        matches!(self, TokenKind::LineComment | TokenKind::BlockComment)
    }
}

/// Where a token sits in the source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Byte offset of the first byte, inclusive.
    pub start: usize,
    /// Byte offset one past the last byte (`&src[start..end]` is the lexeme).
    pub end: usize,
    /// 1-based line of the first byte.
    pub line: usize,
    /// 1-based byte column of the first byte on its line.
    pub col: usize,
}

/// One lexed token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token {
    /// Classification.
    pub kind: TokenKind,
    /// Source location; slicing the source by it yields the exact lexeme.
    pub span: Span,
    /// True when the token sits inside a `#[cfg(test)]` / `#[test]` item
    /// (or the file carries an inner `#![cfg(test)]` attribute).
    pub in_test: bool,
}

/// Byte-cursor over the source, tracking line starts for span columns.
struct Cursor<'a> {
    b: &'a [u8],
    i: usize,
    line: usize,
    line_start: usize,
}

impl<'a> Cursor<'a> {
    fn peek(&self, ahead: usize) -> Option<u8> {
        self.b.get(self.i + ahead).copied()
    }

    /// Advances one byte, keeping line accounting straight. Saturates at
    /// EOF so malformed literals (`'\` at end of input) can never produce
    /// a span that points past the source.
    fn bump(&mut self) {
        if self.b.get(self.i) == Some(&b'\n') {
            self.line += 1;
            self.line_start = self.i + 1;
        }
        self.i = (self.i + 1).min(self.b.len());
    }

    fn bump_n(&mut self, n: usize) {
        for _ in 0..n {
            self.bump();
        }
    }

    fn at_end(&self) -> bool {
        self.i >= self.b.len()
    }
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b >= 0x80
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}

/// Lexes `src` into a complete token stream (comments included) with
/// test-region flags resolved. Total on any input: unterminated strings
/// and comments end at EOF rather than failing.
pub fn lex(src: &str) -> Vec<Token> {
    let mut cur = Cursor { b: src.as_bytes(), i: 0, line: 1, line_start: 0 };
    let mut tokens = Vec::new();
    while !cur.at_end() {
        let c = cur.peek(0).unwrap_or(0);
        if c.is_ascii_whitespace() {
            cur.bump();
            continue;
        }
        let start = cur.i;
        let (line, col) = (cur.line, cur.i - cur.line_start + 1);
        let kind = scan_token(&mut cur, c);
        debug_assert!(cur.i > start, "lexer must always make progress");
        tokens.push(Token { kind, span: Span { start, end: cur.i, line, col }, in_test: false });
    }
    mark_test_regions(&mut tokens, src);
    tokens
}

/// Scans one token starting at `cur` (first byte `c`), leaving the cursor
/// one past its end.
fn scan_token(cur: &mut Cursor, c: u8) -> TokenKind {
    match c {
        b'/' if cur.peek(1) == Some(b'/') => {
            while !cur.at_end() && cur.peek(0) != Some(b'\n') {
                cur.bump();
            }
            TokenKind::LineComment
        }
        b'/' if cur.peek(1) == Some(b'*') => {
            cur.bump_n(2);
            let mut depth = 1u32;
            while !cur.at_end() && depth > 0 {
                if cur.peek(0) == Some(b'/') && cur.peek(1) == Some(b'*') {
                    depth += 1;
                    cur.bump_n(2);
                } else if cur.peek(0) == Some(b'*') && cur.peek(1) == Some(b'/') {
                    depth -= 1;
                    cur.bump_n(2);
                } else {
                    cur.bump();
                }
            }
            TokenKind::BlockComment
        }
        b'"' => {
            cur.bump();
            scan_escaped_string(cur);
            TokenKind::Str
        }
        b'r' | b'b' => {
            if let Some((prefix_len, n_hashes, raw)) = raw_string_prefix(cur) {
                cur.bump_n(prefix_len);
                if raw {
                    scan_raw_string(cur, n_hashes);
                } else {
                    scan_escaped_string(cur);
                }
                TokenKind::Str
            } else if c == b'b' && cur.peek(1) == Some(b'\'') {
                cur.bump_n(2);
                scan_char_tail(cur);
                TokenKind::Char
            } else if c == b'r'
                && cur.peek(1) == Some(b'#')
                && cur.peek(2).is_some_and(is_ident_start)
            {
                // Raw identifier `r#type`.
                cur.bump_n(2);
                scan_ident_tail(cur);
                TokenKind::Ident
            } else {
                scan_ident_tail(cur);
                TokenKind::Ident
            }
        }
        b'\'' => scan_char_or_lifetime(cur),
        b'0'..=b'9' => scan_number(cur),
        _ if is_ident_start(c) => {
            scan_ident_tail(cur);
            TokenKind::Ident
        }
        _ => {
            cur.bump();
            TokenKind::Punct
        }
    }
}

fn scan_ident_tail(cur: &mut Cursor) {
    while cur.peek(0).is_some_and(is_ident_continue) {
        cur.bump();
    }
}

/// Body of a `"…"` / `b"…"` string, cursor just past the opening quote.
fn scan_escaped_string(cur: &mut Cursor) {
    while !cur.at_end() {
        match cur.peek(0) {
            Some(b'\\') => cur.bump_n(2),
            Some(b'"') => {
                cur.bump();
                return;
            }
            _ => cur.bump(),
        }
    }
}

/// Body of a raw string opened with `n_hashes` hashes, cursor just past
/// the opening quote.
fn scan_raw_string(cur: &mut Cursor, n_hashes: usize) {
    while !cur.at_end() {
        if cur.peek(0) == Some(b'"') && (1..=n_hashes).all(|k| cur.peek(k) == Some(b'#')) {
            cur.bump_n(1 + n_hashes);
            return;
        }
        cur.bump();
    }
}

/// Detects a raw/byte string-literal prefix at the cursor: `r"`, `r#…#"`,
/// `b"`, `br#…#"`. Returns (prefix length incl. quote, hash count, raw?).
fn raw_string_prefix(cur: &Cursor) -> Option<(usize, usize, bool)> {
    let mut j = 0usize;
    if cur.peek(j) == Some(b'b') {
        j += 1;
    }
    let raw = cur.peek(j) == Some(b'r');
    if raw {
        j += 1;
    }
    if j == 0 {
        return None;
    }
    let mut hashes = 0usize;
    while cur.peek(j) == Some(b'#') {
        if !raw {
            return None;
        }
        j += 1;
        hashes += 1;
    }
    if cur.peek(j) == Some(b'"') {
        Some((j + 1, hashes, raw))
    } else {
        None
    }
}

/// Tail of a char/byte literal, cursor just past the opening quote:
/// consumes the (possibly escaped, possibly multi-byte) content and the
/// closing quote. Malformed literals end at the next quote, newline, or
/// EOF so the lexer stays total.
fn scan_char_tail(cur: &mut Cursor) {
    if cur.peek(0) == Some(b'\\') {
        if cur.peek(1) == Some(b'u') && cur.peek(2) == Some(b'{') {
            cur.bump_n(3);
            while !cur.at_end() && cur.peek(0) != Some(b'}') {
                cur.bump();
            }
            cur.bump(); // the `}`
        } else {
            cur.bump_n(2);
        }
    } else if !cur.at_end() {
        let w = utf8_width(cur.peek(0).unwrap_or(0));
        cur.bump_n(w);
    }
    // Closing quote (tolerate malformed input).
    while !cur.at_end() && cur.peek(0) != Some(b'\'') && cur.peek(0) != Some(b'\n') {
        cur.bump();
    }
    if cur.peek(0) == Some(b'\'') {
        cur.bump();
    }
}

/// Disambiguates `'a'` (char) from `'a` (lifetime) at the tick.
fn scan_char_or_lifetime(cur: &mut Cursor) -> TokenKind {
    let next = cur.peek(1);
    match next {
        Some(b'\\') => {
            cur.bump(); // the tick
            scan_char_tail(cur);
            TokenKind::Char
        }
        Some(b2) if !cur.at_end() => {
            let w = utf8_width(b2);
            if cur.peek(1 + w) == Some(b'\'') {
                // `'x'` — a one-char literal closes immediately.
                cur.bump();
                scan_char_tail(cur);
                TokenKind::Char
            } else if is_ident_start(b2) {
                cur.bump(); // the tick
                scan_ident_tail(cur);
                TokenKind::Lifetime
            } else {
                cur.bump();
                TokenKind::Punct
            }
        }
        _ => {
            cur.bump();
            TokenKind::Punct
        }
    }
}

fn utf8_width(b: u8) -> usize {
    match b {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

/// Numeric literal: decimal/hex/octal/binary ints, floats with fraction
/// and/or exponent, type suffixes folded into the token. A `.` is taken
/// only when it cannot start a range (`1..2`) or a method/field access
/// (`1.max(2)`, `x.0.abs()`).
fn scan_number(cur: &mut Cursor) -> TokenKind {
    let mut float = false;
    if cur.peek(0) == Some(b'0') && matches!(cur.peek(1), Some(b'x' | b'o' | b'b')) {
        cur.bump_n(2);
        while cur.peek(0).is_some_and(|b| b.is_ascii_hexdigit() || b == b'_') {
            cur.bump();
        }
    } else {
        while cur.peek(0).is_some_and(|b| b.is_ascii_digit() || b == b'_') {
            cur.bump();
        }
        if cur.peek(0) == Some(b'.') {
            match cur.peek(1) {
                Some(b) if b.is_ascii_digit() => {
                    float = true;
                    cur.bump();
                    while cur.peek(0).is_some_and(|b| b.is_ascii_digit() || b == b'_') {
                        cur.bump();
                    }
                }
                Some(b'.') => {}                   // range `1..`
                Some(b) if is_ident_start(b) => {} // method `1.max(…)`
                _ => {
                    float = true;
                    cur.bump(); // trailing-dot float `1.`
                }
            }
        }
        if matches!(cur.peek(0), Some(b'e' | b'E')) {
            let (s1, s2) = (cur.peek(1), cur.peek(2));
            let signed = matches!(s1, Some(b'+' | b'-')) && s2.is_some_and(|b| b.is_ascii_digit());
            if s1.is_some_and(|b| b.is_ascii_digit()) || signed {
                float = true;
                cur.bump_n(if signed { 2 } else { 1 });
                while cur.peek(0).is_some_and(|b| b.is_ascii_digit() || b == b'_') {
                    cur.bump();
                }
            }
        }
    }
    // Type suffix (`u64`, `f32`, …) folds into the literal.
    let suffix_start = cur.i;
    scan_ident_tail(cur);
    let suffix = &cur.b[suffix_start..cur.i];
    if float || suffix == b"f32" || suffix == b"f64" {
        TokenKind::Float
    } else {
        TokenKind::Int
    }
}

// ------------------------------------------------------- test regions --

/// Marks tokens covered by `#[cfg(test)]` / `#[test]` items: from the
/// attribute to the matching close brace of the item body (or the
/// terminating semicolon for brace-less items). An inner `#![cfg(test)]`
/// marks the whole file. Works over code tokens, so braces inside strings
/// or comments can never derail the tracking.
fn mark_test_regions(tokens: &mut [Token], src: &str) {
    let mut ranges: Vec<(usize, usize)> = Vec::new();
    {
        let code: Vec<usize> =
            (0..tokens.len()).filter(|&i| !tokens[i].kind.is_comment()).collect();
        let text = |k: usize| -> &str {
            let t = &tokens[code[k]];
            &src[t.span.start..t.span.end]
        };
        let is_punct = |k: usize, ch: &str| -> bool {
            k < code.len() && tokens[code[k]].kind == TokenKind::Punct && text(k) == ch
        };

        let mut k = 0usize;
        while k < code.len() {
            if !is_punct(k, "#") {
                k += 1;
                continue;
            }
            let mut j = k + 1;
            let inner = is_punct(j, "!");
            if inner {
                j += 1;
            }
            if !is_punct(j, "[") {
                k += 1;
                continue;
            }
            let Some(close) = matching_bracket(tokens, &code, src, j, b'[', b']') else {
                k += 1;
                continue;
            };
            if !attr_marks_test(tokens, &code, src, j + 1, close) {
                k = close + 1;
                continue;
            }
            if inner {
                ranges.clear();
                ranges.push((0, src.len()));
                break;
            }
            let end_byte = item_end(tokens, &code, src, close + 1);
            ranges.push((tokens[code[k]].span.start, end_byte));
            k = close + 1;
        }
    }
    for (from, to) in ranges {
        for t in tokens.iter_mut() {
            if t.span.start >= from && t.span.start <= to {
                t.in_test = true;
            }
        }
    }
}

/// Index (in `code`) of the punct closing the group opened at `open_at`.
fn matching_bracket(
    tokens: &[Token],
    code: &[usize],
    src: &str,
    open_at: usize,
    open: u8,
    close: u8,
) -> Option<usize> {
    let mut depth = 0i64;
    for (k, &ti) in code.iter().enumerate().skip(open_at) {
        if tokens[ti].kind == TokenKind::Punct {
            let b = src.as_bytes()[tokens[ti].span.start];
            if b == open {
                depth += 1;
            } else if b == close {
                depth -= 1;
                if depth == 0 {
                    return Some(k);
                }
            }
        }
    }
    None
}

/// True when the attribute tokens in `code[from..to]` scope their item to
/// tests: exactly `test`, or `cfg(…)` naming `test` outside a `not(…)`
/// group (`cfg(all(test, unix))` counts, `cfg(not(test))` does not).
fn attr_marks_test(tokens: &[Token], code: &[usize], src: &str, from: usize, to: usize) -> bool {
    let text = |k: usize| -> &str {
        let t = &tokens[code[k]];
        &src[t.span.start..t.span.end]
    };
    if to == from + 1 && text(from) == "test" {
        return true;
    }
    if from >= to || text(from) != "cfg" {
        return false;
    }
    let mut groups: Vec<&str> = Vec::new();
    let mut k = from;
    while k < to {
        let t = &tokens[code[k]];
        let s = text(k);
        if t.kind == TokenKind::Ident {
            if s == "test" && !groups.contains(&"not") {
                return true;
            }
            if k + 1 < to && tokens[code[k + 1]].kind == TokenKind::Punct && text(k + 1) == "(" {
                groups.push(if s == "not" { "not" } else { "other" });
                k += 2;
                continue;
            }
        } else if t.kind == TokenKind::Punct && s == ")" {
            groups.pop();
        }
        k += 1;
    }
    false
}

/// Byte offset where the item following an attribute ends: at the close
/// of the first top-level `{…}` body, or at a `;` seen before any body
/// opens. Further attributes on the same item are skipped.
fn item_end(tokens: &[Token], code: &[usize], src: &str, mut k: usize) -> usize {
    let text = |k: usize| -> &str {
        let t = &tokens[code[k]];
        &src[t.span.start..t.span.end]
    };
    let mut depth = 0i64;
    while k < code.len() {
        let t = &tokens[code[k]];
        if t.kind == TokenKind::Punct {
            match text(k) {
                "#" if depth == 0 => {
                    let mut j = k + 1;
                    if j < code.len() && text(j) == "!" {
                        j += 1;
                    }
                    if j < code.len() && text(j) == "[" {
                        if let Some(close) = matching_bracket(tokens, code, src, j, b'[', b']') {
                            k = close + 1;
                            continue;
                        }
                    }
                }
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    if depth == 0 {
                        return t.span.end;
                    }
                }
                ";" if depth == 0 => return t.span.end,
                _ => {}
            }
        }
        k += 1;
    }
    src.len()
}

// ------------------------------------------------------------ Lexed --

/// A lexed file with the per-line indexes the rule engine consumes.
pub struct Lexed<'a> {
    /// The source text (tokens slice into it).
    pub src: &'a str,
    /// The complete token stream, comments included.
    pub tokens: Vec<Token>,
    /// Indices (into `tokens`) of the non-comment tokens, in order.
    pub code: Vec<usize>,
    /// Number of lines in the file.
    pub line_count: usize,
    /// 1-indexed: true when a code token starts on the line.
    has_code: Vec<bool>,
    /// 1-indexed: concatenated comment text covering each line (comment
    /// markers stripped; multi-line block comments contribute per line).
    comment_text: Vec<String>,
}

impl<'a> Lexed<'a> {
    /// Lexes `src` and builds the line indexes.
    pub fn new(src: &'a str) -> Lexed<'a> {
        let tokens = lex(src);
        let code: Vec<usize> =
            (0..tokens.len()).filter(|&i| !tokens[i].kind.is_comment()).collect();
        let line_count = src.lines().count().max(1);
        let mut has_code = vec![false; line_count + 2];
        let mut comment_text = vec![String::new(); line_count + 2];
        for t in &tokens {
            if t.kind.is_comment() {
                let raw = &src[t.span.start..t.span.end];
                for (off, fragment) in raw.split('\n').enumerate() {
                    let line = t.span.line + off;
                    if line < comment_text.len() {
                        let stripped = strip_comment_markers(fragment);
                        if !comment_text[line].is_empty() {
                            comment_text[line].push(' ');
                        }
                        comment_text[line].push_str(stripped);
                    }
                }
            } else if t.span.line < has_code.len() {
                has_code[t.span.line] = true;
            }
        }
        Lexed { src, tokens, code, line_count, has_code, comment_text }
    }

    /// Lexeme of the code token at code-position `k` ("" out of range).
    pub fn ctext(&self, k: usize) -> &'a str {
        match self.code.get(k) {
            Some(&ti) => {
                let t = &self.tokens[ti];
                &self.src[t.span.start..t.span.end]
            }
            None => "",
        }
    }

    /// Kind of the code token at code-position `k`.
    pub fn ckind(&self, k: usize) -> Option<TokenKind> {
        self.code.get(k).map(|&ti| self.tokens[ti].kind)
    }

    /// True when code-position `k` is the given punctuation byte.
    pub fn cpunct(&self, k: usize, ch: &str) -> bool {
        self.ckind(k) == Some(TokenKind::Punct) && self.ctext(k) == ch
    }

    /// Span of the code token at code-position `k`.
    pub fn cspan(&self, k: usize) -> Span {
        self.code.get(k).map(|&ti| self.tokens[ti].span).unwrap_or(Span {
            start: 0,
            end: 0,
            line: 1,
            col: 1,
        })
    }

    /// Test flag of the code token at code-position `k`.
    pub fn cin_test(&self, k: usize) -> bool {
        self.code.get(k).map(|&ti| self.tokens[ti].in_test).unwrap_or(false)
    }

    /// Code-position of the punct matching the opener at code-position
    /// `open_at` (e.g. `(`/`)`), or `None` when unbalanced.
    pub fn cmatch(&self, open_at: usize, open: &str, close: &str) -> Option<usize> {
        let mut depth = 0i64;
        for k in open_at..self.code.len() {
            if self.ckind(k) == Some(TokenKind::Punct) {
                let s = self.ctext(k);
                if s == open {
                    depth += 1;
                } else if s == close {
                    depth -= 1;
                    if depth == 0 {
                        return Some(k);
                    }
                }
            }
        }
        None
    }

    /// True when any code token starts on `line` (1-based).
    pub fn line_has_code(&self, line: usize) -> bool {
        self.has_code.get(line).copied().unwrap_or(false)
    }

    /// Comment text covering `line` ("" when none).
    pub fn comments_on(&self, line: usize) -> &str {
        self.comment_text.get(line).map(String::as_str).unwrap_or("")
    }

    /// True when `line`, or the contiguous run of comment-only lines
    /// directly above it, carries text matching `pred`. A blank line (no
    /// code, no comment) breaks the run.
    pub fn comment_run_matches(&self, line: usize, pred: impl Fn(&str) -> bool) -> bool {
        if pred(self.comments_on(line)) {
            return true;
        }
        let mut l = line;
        while l > 1 {
            l -= 1;
            let comment = self.comments_on(l);
            if self.line_has_code(l) || comment.is_empty() {
                return false;
            }
            if pred(comment) {
                return true;
            }
        }
        false
    }
}

/// Strips `//`-family and `/*`/`*/` markers from one comment fragment.
fn strip_comment_markers(fragment: &str) -> &str {
    let s = fragment.trim_start();
    let s = s.strip_prefix("//").unwrap_or(s);
    let s = s.strip_prefix("/*").unwrap_or(s);
    let s = s.strip_suffix("*/").unwrap_or(s);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokenKind, &str)> {
        lex(src).into_iter().map(|t| (t.kind, &src[t.span.start..t.span.end])).collect()
    }

    #[test]
    fn identifiers_literals_and_puncts_tokenize() {
        let got = kinds("let x = foo.bar(42, \"s\");");
        let texts: Vec<&str> = got.iter().map(|(_, s)| *s).collect();
        assert_eq!(
            texts,
            vec!["let", "x", "=", "foo", ".", "bar", "(", "42", ",", "\"s\"", ")", ";"]
        );
        assert_eq!(got[7].0, TokenKind::Int);
        assert_eq!(got[9].0, TokenKind::Str);
    }

    #[test]
    fn expect_byte_is_one_identifier_not_expect() {
        let got = kinds("self.expect_byte(b'{')?;");
        assert!(got.iter().any(|(k, s)| *k == TokenKind::Ident && *s == "expect_byte"));
        assert!(!got.iter().any(|(_, s)| *s == "expect"));
        assert!(got.iter().any(|(k, s)| *k == TokenKind::Char && *s == "b'{'"));
    }

    #[test]
    fn strings_mask_their_contents() {
        let got = kinds("let s = \"HashMap unsafe panic!\"; use HashMap;");
        let idents: Vec<&str> =
            got.iter().filter(|(k, _)| *k == TokenKind::Ident).map(|(_, s)| *s).collect();
        assert_eq!(idents, vec!["let", "s", "use", "HashMap"]);
    }

    #[test]
    fn raw_strings_and_byte_strings_are_single_tokens() {
        let got =
            kinds("let a = r#\"panic! \" unsafe\"#; let b = br\"x\"; let c = b\"SystemTime\";");
        let strs: Vec<&str> =
            got.iter().filter(|(k, _)| *k == TokenKind::Str).map(|(_, s)| *s).collect();
        assert_eq!(strs, vec!["r#\"panic! \" unsafe\"#", "br\"x\"", "b\"SystemTime\""]);
    }

    #[test]
    fn char_vs_lifetime_ambiguity() {
        let got = kinds("let c = 'u'; let lt: &'static str = \"\"; fn f<'a>(x: &'a str) {} '\\n'");
        let chars: Vec<&str> =
            got.iter().filter(|(k, _)| *k == TokenKind::Char).map(|(_, s)| *s).collect();
        let lts: Vec<&str> =
            got.iter().filter(|(k, _)| *k == TokenKind::Lifetime).map(|(_, s)| *s).collect();
        assert_eq!(chars, vec!["'u'", "'\\n'"]);
        assert_eq!(lts, vec!["'static", "'a", "'a"]);
    }

    #[test]
    fn nested_block_comments_terminate_correctly() {
        let got = kinds("/* outer /* inner */ still comment */ let live = 1;");
        assert_eq!(got[0].0, TokenKind::BlockComment);
        assert!(got.iter().any(|(k, s)| *k == TokenKind::Ident && *s == "live"));
        assert!(!got.iter().any(|(k, s)| !k.is_comment() && s.contains("inner")));
    }

    #[test]
    fn numeric_shapes() {
        for (src, kind) in [
            ("42", TokenKind::Int),
            ("0xff_u8", TokenKind::Int),
            ("1_000", TokenKind::Int),
            ("1.5", TokenKind::Float),
            ("1.", TokenKind::Float),
            ("1e-12", TokenKind::Float),
            ("2.5e3f32", TokenKind::Float),
            ("7f64", TokenKind::Float),
            ("0b1010", TokenKind::Int),
        ] {
            let got = kinds(src);
            assert_eq!(got.len(), 1, "{src} should be one token: {got:?}");
            assert_eq!(got[0].0, kind, "{src}");
            assert_eq!(got[0].1, src);
        }
        // Ranges and method calls keep their dots separate.
        let texts: Vec<&str> = kinds("0..10").iter().map(|(_, s)| *s).collect::<Vec<_>>();
        assert_eq!(texts, vec!["0", ".", ".", "10"]);
        let texts: Vec<&str> = kinds("1.max(2)").iter().map(|(_, s)| *s).collect::<Vec<_>>();
        assert_eq!(texts[..3], ["1", ".", "max"]);
    }

    #[test]
    fn spans_slice_source_losslessly() {
        let src = "fn f<'a>(x: &'a str) -> u64 { x.len() as u64 + 0xff } // tail\n/* b */";
        let tokens = lex(src);
        let mut prev_end = 0usize;
        for t in &tokens {
            assert!(t.span.start >= prev_end, "tokens must not overlap");
            assert!(src[prev_end..t.span.start].chars().all(char::is_whitespace));
            assert!(t.span.end > t.span.start);
            prev_end = t.span.end;
        }
        assert!(src[prev_end..].chars().all(char::is_whitespace));
    }

    #[test]
    fn cfg_test_region_is_brace_tracked() {
        let src =
            "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn helper() {}\n}\nfn also_live() {}\n";
        let lx = Lexed::new(src);
        let flag_of = |word: &str| {
            (0..lx.code.len()).find(|&k| lx.ctext(k) == word).map(|k| lx.cin_test(k)).unwrap()
        };
        assert!(!flag_of("live"));
        assert!(flag_of("helper"));
        assert!(!flag_of("also_live"));
    }

    #[test]
    fn cfg_not_test_does_not_mark_a_region() {
        let src = "#[cfg(not(test))]\nfn prod() { body(); }\n";
        let lx = Lexed::new(src);
        assert!((0..lx.code.len()).all(|k| !lx.cin_test(k)));
    }

    #[test]
    fn cfg_all_test_and_stacked_attributes_mark_the_item() {
        let src = "#[cfg(all(test, unix))]\nfn t() {}\n#[test]\n#[ignore]\nfn u() { b(); }\nfn live() {}\n";
        let lx = Lexed::new(src);
        let flag_of = |word: &str| {
            (0..lx.code.len()).find(|&k| lx.ctext(k) == word).map(|k| lx.cin_test(k)).unwrap()
        };
        assert!(flag_of("t"));
        assert!(flag_of("u"));
        assert!(flag_of("b"));
        assert!(!flag_of("live"));
    }

    #[test]
    fn inner_cfg_test_marks_whole_file() {
        let src = "#![cfg(test)]\nfn anything() {}\n";
        let lx = Lexed::new(src);
        assert!((0..lx.code.len()).all(|k| lx.cin_test(k)));
    }

    #[test]
    fn cfg_test_on_braceless_item_ends_at_semicolon() {
        let src = "#[cfg(test)]\nuse std::collections::HashMap;\nfn live() {}\n";
        let lx = Lexed::new(src);
        let flag_of = |word: &str| {
            (0..lx.code.len()).find(|&k| lx.ctext(k) == word).map(|k| lx.cin_test(k)).unwrap()
        };
        assert!(flag_of("HashMap"));
        assert!(!flag_of("live"));
    }

    #[test]
    fn comment_lines_and_runs() {
        let src = "// SAFETY: checked\nlet x = 1;\n\n// stale\n\nlet y = unsafe_op();\n";
        let lx = Lexed::new(src);
        assert!(lx.comments_on(1).contains("SAFETY:"));
        assert!(lx.line_has_code(2));
        assert!(lx.comment_run_matches(2, |c| c.contains("SAFETY:")));
        assert!(!lx.comment_run_matches(6, |c| c.contains("stale")), "blank line breaks the run");
    }
}
