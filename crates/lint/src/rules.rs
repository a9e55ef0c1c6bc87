//! The rule engine: per-file checks over the [`crate::lexer`] token stream.
//!
//! Every rule is a statement about *token sequences in non-test code* (a
//! few, noted below, include test code on purpose). Working on tokens
//! rather than line text retires the substring false-positive class
//! wholesale: `expect_byte` is one `Ident` token that can never match the
//! `expect` rule, string and comment contents are separate token kinds the
//! identifier rules never see, and `'a` is a `Lifetime`, not half a char
//! literal.
//!
//! Rule families:
//!
//! - **D** — determinism: no arbitrary-order collections, wall-clock
//!   reads, or ambient randomness.
//! - **P** — panic-freedom (ratcheted via `LINT_baseline.json`).
//! - **A** — the allow-annotation grammar itself.
//! - **R** — race patterns: every lock in non-test code carries a
//!   justified allow.
//! - **F** — float determinism: libm transcendentals, truncating casts,
//!   and unpinned float accumulation (all ratcheted — the existing sites
//!   are baselined and may only go down).
//!
//! Suppressions: a comment of the form `allow(RULE[, RULE]) <reason>`,
//! prefixed by the marker in [`ALLOW_MARKER`], disables the named rules on
//! its own line (when sharing a line with code) or on the next code line
//! (standalone comment lines stack). The
//! reason is mandatory; malformed or unknown annotations are violations
//! (A001) so a typo cannot silently disable enforcement.

use crate::lexer::{Lexed, TokenKind};

/// The annotation marker looked up inside comments.
pub const ALLOW_MARKER: &str = "rotary-lint:";

/// One diagnostic.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Violation {
    /// Workspace-relative path, `/`-separated.
    pub path: String,
    /// 1-based line number of the triggering token.
    pub line: usize,
    /// 1-based byte column of the triggering token.
    pub col: usize,
    /// Rule identifier (`D001` … `F003`).
    pub rule: &'static str,
    /// Human-readable description.
    pub message: String,
}

/// Static description of one rule, consumed by `--help`, `--explain`, and
/// the scope tests.
pub struct RuleInfo {
    /// Identifier, e.g. `R003`.
    pub id: &'static str,
    /// One-line summary.
    pub summary: &'static str,
    /// True when violations are gated by the `LINT_baseline.json` ratchet
    /// (per-file counts may only go down) instead of failing outright.
    pub ratcheted: bool,
    /// Human statement of exactly which files/tokens the rule walks.
    pub scope: &'static str,
    /// The long-form rationale printed by `--explain`.
    pub explain: &'static str,
}

/// The rule catalog. Order is the presentation order of `--help`.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "D001",
        summary: "no HashMap/HashSet in deterministic crates (iteration order)",
        ratcheted: false,
        scope: "non-test code in deterministic crate sources (crates/{core,engine,sim,aqp,dlt,faults,store,serve}/src)",
        explain: "HashMap and HashSet iterate in a randomized order, so any loop over them \
                  can produce run-to-run different results — PR 3 fixed a real aggregation \
                  bug of exactly this shape. Deterministic crates must use the BTree \
                  equivalents (or index-ordered vectors). The identifiers are matched as \
                  whole tokens, so a string mentioning HashMap or a name like \
                  MyHashMapLike never fires.",
    },
    RuleInfo {
        id: "D002",
        summary: "no wall-clock reads outside rotary-bench",
        ratcheted: false,
        scope: "non-test code everywhere except crates/bench",
        explain: "Instant and SystemTime make control flow depend on the host's clock, \
                  which breaks bit-identical replay. rotary-bench owns the only blessed \
                  wall-clock probe; everything else runs on sim time or an injected \
                  ProbeClock.",
    },
    RuleInfo {
        id: "D003",
        summary: "no ambient randomness; fork named streams from rotary_sim::rng",
        ratcheted: false,
        scope: "ALL code — tests, root src/ and tests/ included — except crates/sim/src/rng.rs itself",
        explain: "thread_rng, OsRng, RandomState and friends smuggle in entropy that no \
                  seed can replay. Tests are in scope too: a test that draws ambient \
                  randomness cannot reproduce its own failures. All entropy must flow \
                  from named fork streams of the in-tree xoshiro generator.",
    },
    RuleInfo {
        id: "P001",
        summary: "no unwrap()/expect()/panic!/unreachable!/todo!/unimplemented! in control-plane code (ratcheted)",
        ratcheted: true,
        scope: "non-test code everywhere",
        explain: "Panics in the control plane take down arbitration for every tenant. \
                  Existing sites are counted per file in LINT_baseline.json and may only \
                  decrease. Matching is token-exact: `.unwrap()` needs a preceding dot \
                  (a fn named unwrap does not fire), `.expect(...)` is exempt when its \
                  first argument is a char/byte/number literal (that is a parser-style \
                  `expect(b'{')` method, not Result::expect), unwrap_or_else-style \
                  adapters never fire, and panic!, unreachable!, todo! and \
                  unimplemented! count as macro invocations (`!` after the name).",
    },
    RuleInfo {
        id: "A001",
        summary: "allow annotations must parse and name real rules",
        ratcheted: false,
        scope: "all comments",
        explain: "A `rotary-lint: allow(...)` annotation that is malformed, names an \
                  unknown rule, or omits its reason is itself a violation — otherwise a \
                  typo would silently disable enforcement.",
    },
    RuleInfo {
        id: "R003",
        summary: "every Mutex/RwLock carries a justified allow",
        ratcheted: false,
        scope: "non-test code everywhere",
        explain: "A lock is where a deadlock or a schedule-dependent result can start, and \
                  the workspace needs almost none: host threads are a start-up resource \
                  with no shared state beyond one work cursor. So every `Mutex` or \
                  `RwLock` token (type, import or constructor) must carry a per-line \
                  allow whose reason says why no other lock can be taken while its \
                  guard lives. Code review reads each new lock instead of trusting a \
                  nesting heuristic; strings, comments and test code never fire.",
    },
    RuleInfo {
        id: "F001",
        summary: "no libm transcendentals in deterministic crates (ratcheted)",
        ratcheted: true,
        scope: "non-test code in deterministic crate sources",
        explain: "sin/cos/exp/ln/powf and friends are *not* correctly rounded — their \
                  bit patterns legally differ across libm versions, platforms, and \
                  optimization levels, so any value derived from them can break \
                  bit-identical replay on a different host. sqrt is exempt (IEEE \
                  requires correct rounding). Existing sites are ratcheted; new code \
                  should use pinned tables or integer/fixed-point math.",
    },
    RuleInfo {
        id: "F002",
        summary: "no as f32/f64 casts in deterministic crates (ratcheted)",
        ratcheted: true,
        scope: "non-test code in deterministic crate sources",
        explain: "`as f32`/`as f64` casts silently round, and the rounding site is \
                  invisible at the use site — the class of bug where a u64 row count \
                  above 2^53 quietly loses precision. Existing sites are ratcheted; new \
                  code should go through named conversion helpers that document the \
                  precision contract.",
    },
    RuleInfo {
        id: "F003",
        summary: "no unpinned float accumulation outside the fold kernels (ratcheted)",
        ratcheted: true,
        scope: "non-test code in deterministic crate sources, except crates/engine/src/kernels.rs",
        explain: "Float addition is not associative, so `.sum::<f64>()` produces \
                  different bits under different iteration orders or chunkings. The \
                  columnar kernels (crates/engine/src/kernels.rs) pin summation order \
                  explicitly and are the one blessed home for float accumulation; \
                  `.sum::<f32/f64>()` / `.product::<…>()` anywhere else is ratcheted.",
    },
];

/// Looks a rule up by id.
pub fn rule(id: &str) -> Option<&'static RuleInfo> {
    RULES.iter().find(|r| r.id == id)
}

fn rule_id(name: &str) -> Option<&'static str> {
    rule(name).map(|r| r.id)
}

/// Ids of the ratcheted rules, in catalog order (the `LINT_baseline.json`
/// schema: one top-level object per id).
pub fn ratcheted_rules() -> impl Iterator<Item = &'static str> {
    RULES.iter().filter(|r| r.ratcheted).map(|r| r.id)
}

/// Result of scanning one file. Ratcheted sites are kept separate from
/// hard violations because they are gated per file by the baseline.
#[derive(Debug, Default)]
pub struct FileScan {
    /// Hard violations (everything except the ratcheted rules).
    pub violations: Vec<Violation>,
    /// Individual sites of ratcheted rules (P001/F001/F002/F003).
    pub ratchet_sites: Vec<Violation>,
}

/// Crates whose `src/` trees carry the bit-identical replay guarantee.
/// `rotary-par` schedules OS threads (ordered by the join barrier), and
/// `rotary-bench`/`rotary-check`/`rotary-tpch`/`rotary-lint` sit outside
/// the deterministic replay boundary.
const DET_SCOPES: &[&str] = &[
    "crates/core/src/",
    "crates/engine/src/",
    "crates/sim/src/",
    "crates/aqp/src/",
    "crates/dlt/src/",
    "crates/faults/src/",
    "crates/store/src/",
    "crates/serve/src/",
];

/// Identifiers whose presence means the code reads the wall clock.
const D002_TOKENS: &[&str] = &["Instant", "SystemTime"];

/// Identifiers that smuggle ambient (non-replayable) randomness in.
const D003_TOKENS: &[&str] =
    &["thread_rng", "OsRng", "StdRng", "SmallRng", "from_entropy", "getrandom", "RandomState"];

/// Method names that are libm transcendentals (not correctly rounded —
/// platform-divergent bits). `sqrt` is exempt: IEEE 754 requires correct
/// rounding for it, so it is as deterministic as addition.
const F001_FNS: &[&str] = &[
    "sin", "cos", "tan", "asin", "acos", "atan", "atan2", "sinh", "cosh", "tanh", "exp", "exp2",
    "exp_m1", "ln", "ln_1p", "log", "log2", "log10", "powf", "cbrt", "hypot",
];

/// The one blessed home for float accumulation (fixed-order folds).
const F003_EXEMPT_FILE: &str = "crates/engine/src/kernels.rs";

/// Dev-only trees: crate `tests/`, `benches/`, `examples/` directories
/// and the root `tests/`. Code there is still linted, but the rules that
/// exempt test code treat the whole file as test code.
fn is_test_path(path: &str) -> bool {
    path.split('/').any(|c| c == "tests" || c == "benches" || c == "examples")
}

fn det_applies(path: &str) -> bool {
    DET_SCOPES.iter().any(|scope| path.starts_with(scope))
}

fn d002_applies(path: &str) -> bool {
    // rotary-bench owns the only blessed wall-clock probe.
    !path.starts_with("crates/bench/")
}

fn d003_applies(path: &str) -> bool {
    // The deterministic RNG implementation itself may name these symbols.
    path != "crates/sim/src/rng.rs"
}

/// Scans one file. `path` must be workspace-relative with `/` separators —
/// rule scoping keys off it.
pub fn scan_file(path: &str, src: &str) -> FileScan {
    let lx = Lexed::new(src);
    let (allows, annotation_violations) = collect_allows(path, &lx);
    let mut scan = FileScan { violations: annotation_violations, ..FileScan::default() };
    let ctx = Ctx { path, lx: &lx, allows: &allows, test_path: is_test_path(path) };

    scan_token_rules(&ctx, &mut scan);

    scan.violations.sort();
    scan.ratchet_sites.sort();
    scan
}

/// Shared per-file context for the rule passes.
struct Ctx<'a> {
    path: &'a str,
    lx: &'a Lexed<'a>,
    allows: &'a [Vec<&'static str>],
    test_path: bool,
}

impl Ctx<'_> {
    fn allowed(&self, line: usize, rule: &str) -> bool {
        self.allows.get(line).is_some_and(|v| v.contains(&rule))
    }

    fn in_test(&self, k: usize) -> bool {
        self.test_path || self.lx.cin_test(k)
    }

    fn violation(&self, k: usize, rule: &'static str, message: String) -> Violation {
        let span = self.lx.cspan(k);
        Violation { path: self.path.to_string(), line: span.line, col: span.col, rule, message }
    }
}

/// The single-token and short-window rules: D001–D003, P001, R003,
/// F001–F003. One pass over the code tokens.
fn scan_token_rules(ctx: &Ctx, scan: &mut FileScan) {
    let lx = ctx.lx;
    let det = det_applies(ctx.path);

    for k in 0..lx.code.len() {
        if lx.ckind(k) != Some(TokenKind::Ident) {
            continue;
        }
        let text = lx.ctext(k);
        let line = lx.cspan(k).line;
        let in_test = ctx.in_test(k);
        let prev_dot = k >= 1 && lx.cpunct(k - 1, ".");
        let next_paren = lx.cpunct(k + 1, "(");

        // D001 — arbitrary-order collections in deterministic crates.
        if det && !in_test && (text == "HashMap" || text == "HashSet") && !ctx.allowed(line, "D001")
        {
            scan.violations.push(ctx.violation(
                k,
                "D001",
                format!(
                    "{text} iterates in arbitrary order and breaks bit-identical \
                     replay; use the BTree equivalent or add a justified allow"
                ),
            ));
        }

        // D002 — wall-clock reads.
        if d002_applies(ctx.path)
            && !in_test
            && D002_TOKENS.contains(&text)
            && !ctx.allowed(line, "D002")
        {
            scan.violations.push(ctx.violation(
                k,
                "D002",
                format!(
                    "{text} reads the wall clock outside rotary-bench; use sim \
                     time or accept an injected ProbeClock"
                ),
            ));
        }

        // D003 — ambient randomness. Applies to test code too: a test that
        // draws unseeded entropy cannot replay its own failures.
        if d003_applies(ctx.path) && D003_TOKENS.contains(&text) && !ctx.allowed(line, "D003") {
            scan.violations.push(ctx.violation(
                k,
                "D003",
                format!(
                    "{text} is ambient randomness; draw from a named fork \
                     stream of rotary_sim::rng instead"
                ),
            ));
        }

        // P001 — panic-capable calls (ratcheted).
        if !in_test && !ctx.allowed(line, "P001") {
            let call = match text {
                "unwrap" if prev_dot && next_paren => Some("()"),
                "expect" if prev_dot && next_paren => {
                    // `expect(b'{')` / `expect(42)` is a parser-style byte
                    // method, not Result::expect (whose argument is a &str
                    // message) — the token-level fix that retires the old
                    // `expect_byte` rename workaround.
                    let arg_literal = matches!(
                        lx.ckind(k + 2),
                        Some(TokenKind::Char | TokenKind::Int | TokenKind::Float)
                    );
                    (!arg_literal).then_some("()")
                }
                "panic" | "unreachable" | "todo" | "unimplemented" if lx.cpunct(k + 1, "!") => {
                    Some("!")
                }
                _ => None,
            };
            if let Some(call) = call {
                scan.ratchet_sites.push(ctx.violation(
                    k,
                    "P001",
                    format!("{text}{call} may panic in control-plane code"),
                ));
            }
        }

        // R003 — every lock is justified where it is written.
        if !in_test && (text == "Mutex" || text == "RwLock") && !ctx.allowed(line, "R003") {
            scan.violations.push(ctx.violation(
                k,
                "R003",
                format!(
                    "{text} needs a justified allow(R003): say why no other lock is \
                     taken while its guard lives"
                ),
            ));
        }

        // F001 — libm transcendentals (ratcheted).
        if det
            && !in_test
            && next_paren
            && F001_FNS.contains(&text)
            && k >= 1
            && (lx.cpunct(k - 1, ".") || lx.cpunct(k - 1, ":"))
            && !ctx.allowed(line, "F001")
        {
            scan.ratchet_sites.push(ctx.violation(
                k,
                "F001",
                format!(
                    "{text}() is a libm transcendental — not correctly rounded, so its \
                     bits may differ across platforms; pin a table or use integer math"
                ),
            ));
        }

        // F002 — truncating float casts (ratcheted).
        if det && !in_test && text == "as" && !ctx.allowed(line, "F002") {
            let target = lx.ctext(k + 1);
            if target == "f32" || target == "f64" {
                scan.ratchet_sites.push(ctx.violation(
                    k,
                    "F002",
                    format!(
                        "`as {target}` silently rounds (u64 above 2^53 loses bits); go \
                         through a named conversion helper documenting the precision"
                    ),
                ));
            }
        }

        // F003 — unpinned float accumulation (ratcheted).
        if det
            && !in_test
            && ctx.path != F003_EXEMPT_FILE
            && (text == "sum" || text == "product")
            && prev_dot
            && lx.cpunct(k + 1, ":")
            && lx.cpunct(k + 2, ":")
            && lx.cpunct(k + 3, "<")
            && matches!(lx.ctext(k + 4), "f32" | "f64")
            && lx.cpunct(k + 5, ">")
            && !ctx.allowed(line, "F003")
        {
            scan.ratchet_sites.push(ctx.violation(
                k,
                "F003",
                format!(
                    ".{text}::<{}>() accumulates floats in iterator order; use the \
                     fixed-order folds in {F003_EXEMPT_FILE} so the order is pinned",
                    lx.ctext(k + 4)
                ),
            ));
        }
    }
}

/// Collects allow annotations per line (1-indexed). A same-line annotation
/// applies to its own line; an annotation on a comment-only line applies
/// to the next line that has code (stacked annotation lines accumulate).
fn collect_allows(path: &str, lx: &Lexed) -> (Vec<Vec<&'static str>>, Vec<Violation>) {
    let mut allows: Vec<Vec<&'static str>> = vec![Vec::new(); lx.line_count + 2];
    let mut violations = Vec::new();
    let mut pending: Vec<&'static str> = Vec::new();
    for (line, slot) in allows.iter_mut().enumerate().take(lx.line_count + 1).skip(1) {
        let mut here = Vec::new();
        let comment = lx.comments_on(line);
        if !comment.is_empty() {
            parse_annotations(path, line, comment, &mut here, &mut violations);
        }
        if lx.line_has_code(line) {
            slot.append(&mut pending);
            slot.append(&mut here);
        } else {
            pending.append(&mut here);
        }
    }
    (allows, violations)
}

fn a001(path: &str, line: usize, message: String) -> Violation {
    Violation { path: path.to_string(), line, col: 1, rule: "A001", message }
}

fn parse_annotations(
    path: &str,
    lineno: usize,
    comment: &str,
    out: &mut Vec<&'static str>,
    violations: &mut Vec<Violation>,
) {
    let mut rest = comment;
    while let Some(pos) = rest.find(ALLOW_MARKER) {
        let after = &rest[pos + ALLOW_MARKER.len()..];
        let Some(body) = after.trim_start().strip_prefix("allow(") else {
            violations.push(a001(
                path,
                lineno,
                format!("expected 'allow(RULE[, RULE]) <reason>' after '{ALLOW_MARKER}'"),
            ));
            rest = after;
            continue;
        };
        let Some(close) = body.find(')') else {
            violations.push(a001(path, lineno, "unclosed rule list in allow annotation".into()));
            rest = after;
            continue;
        };
        for name in body[..close].split(',') {
            let name = name.trim();
            match rule_id(name) {
                Some(rule) => out.push(rule),
                None => violations.push(a001(
                    path,
                    lineno,
                    format!("allow names unknown rule '{name}'"),
                )),
            }
        }
        if body[close + 1..].trim().is_empty() {
            violations.push(a001(
                path,
                lineno,
                "allow annotation needs a reason after the rule list".into(),
            ));
        }
        rest = &body[close + 1..];
    }
}
