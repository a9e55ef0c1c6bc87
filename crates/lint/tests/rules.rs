//! Per-rule fixtures: each rule fires on its violating fixture, stays
//! silent on the clean twin, and respects both allow annotations and
//! `#[cfg(test)]` scoping — plus a workspace-level test asserting the tree
//! this crate ships in is lint-clean under the checked-in baseline, and the
//! crate-layering guard: the workspace's declared dependency graph, read
//! with `cargo metadata`, must equal the DESIGN.md §3 `LAYERS` table.

use rotary_core::json::{self, Json};
use rotary_lint::rules::{rule, scan_file, Violation, RULES};
use rotary_lint::{analyze_workspace, gate, Baseline, BASELINE_FILE};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

/// Scans a fixture and returns the rule ids of the *hard* violations that
/// fired (ratcheted sites are returned separately by `scan_file`).
fn fired(path: &str, src: &str) -> Vec<&'static str> {
    scan_file(path, src).violations.iter().map(|v| v.rule).collect()
}

/// Number of ratcheted sites of `id` in the fixture.
fn sites(path: &str, src: &str, id: &str) -> usize {
    scan_file(path, src).ratchet_sites.iter().filter(|v| v.rule == id).count()
}

const ENGINE_PATH: &str = "crates/engine/src/fixture.rs";

// ------------------------------------------------------------- catalog --

#[test]
fn rule_catalog_is_well_formed() {
    let ids: BTreeSet<&str> = RULES.iter().map(|r| r.id).collect();
    assert_eq!(ids.len(), RULES.len(), "rule ids must be unique");
    for r in RULES {
        assert!(!r.summary.is_empty(), "{}: empty summary", r.id);
        assert!(!r.scope.is_empty(), "{}: every rule documents its walk scope", r.id);
        assert!(!r.explain.is_empty(), "{}: every rule has an --explain text", r.id);
    }
    let ratcheted: Vec<&str> = RULES.iter().filter(|r| r.ratcheted).map(|r| r.id).collect();
    assert_eq!(ratcheted, vec!["P001", "F001", "F002", "F003"]);
    assert!(rule("D001").is_some());
    assert!(rule("Z999").is_none());
}

// ---------------------------------------------------------------- D001 --

#[test]
fn d001_fires_on_hash_collections_in_deterministic_crates() {
    let src = "use std::collections::HashMap;\nfn f() -> HashSet<u32> { todo!() }\n";
    let rules = fired(ENGINE_PATH, src);
    assert_eq!(rules, vec!["D001", "D001"], "one per token occurrence");
    let v: Vec<Violation> = scan_file(ENGINE_PATH, src).violations;
    assert_eq!((v[0].line, v[1].line), (1, 2));
    assert!(v[0].col > 1, "span column points at the token, not the line start");
}

#[test]
fn d001_is_silent_on_btree_twin_and_outside_scope() {
    let clean = "use std::collections::BTreeMap;\nfn f() -> BTreeSet<u32> { todo!() }\n";
    assert!(fired(ENGINE_PATH, clean).is_empty());
    let hash = "use std::collections::HashMap;\n";
    assert!(fired("crates/bench/src/fixture.rs", hash).is_empty(), "bench is out of scope");
    assert!(fired("crates/tpch/src/fixture.rs", hash).is_empty(), "tpch is out of scope");
}

#[test]
fn d001_respects_allow_and_cfg_test() {
    let allowed = "use std::collections::HashMap; // rotary-lint: allow(D001) point lookups only\n";
    assert!(fired(ENGINE_PATH, allowed).is_empty());
    let above = "// rotary-lint: allow(D001) point lookups only\nuse std::collections::HashMap;\n";
    assert!(fired(ENGINE_PATH, above).is_empty(), "stand-alone comment allows the next line");
    let in_test = "#[cfg(test)]\nmod tests {\n    use std::collections::HashMap;\n}\n";
    assert!(fired(ENGINE_PATH, in_test).is_empty());
}

#[test]
fn d001_and_d003_cover_the_columnar_data_plane_modules() {
    // The columnar rewrite's modules live under crates/engine/src/ and must
    // sit inside the determinism scope: a hash map in a kernel or an
    // ambient RNG in chunk evaluation would break the bit-identity
    // contract, so the lint has to catch both.
    for path in ["crates/engine/src/columnar.rs", "crates/engine/src/kernels.rs"] {
        let hash = "use std::collections::HashMap;\n";
        assert_eq!(fired(path, hash), vec!["D001"], "{path} must be in D001 scope");
        let rng = "let r = thread_rng();\n";
        assert_eq!(fired(path, rng), vec!["D003"], "{path} must be in D003 scope");
        let random_state = "let s = RandomState::new();\n";
        assert_eq!(fired(path, random_state), vec!["D003"], "{path}: RandomState is ambient");
    }
}

#[test]
fn d001_ignores_strings_and_comments() {
    let src = "// HashMap would break replay\nconst DOC: &str = \"uses HashMap\";\n";
    assert!(fired(ENGINE_PATH, src).is_empty());
}

// ---------------------------------------------------------------- D002 --

#[test]
fn d002_fires_on_wall_clock_outside_bench() {
    let src = "use std::time::Instant;\nlet t = std::time::SystemTime::now();\n";
    assert_eq!(fired("crates/dlt/src/fixture.rs", src), vec!["D002", "D002"]);
    assert_eq!(fired("src/fixture.rs", src), vec!["D002", "D002"], "root package is in scope");
}

#[test]
fn d002_is_silent_in_bench_and_tests() {
    let src = "use std::time::Instant;\n";
    assert!(fired("crates/bench/src/timing.rs", src).is_empty());
    assert!(fired("crates/dlt/tests/fixture.rs", src).is_empty(), "tests dir is exempt");
    let in_test = "#[cfg(test)]\nmod tests {\n    use std::time::Instant;\n}\n";
    assert!(fired("crates/dlt/src/fixture.rs", in_test).is_empty());
}

#[test]
fn d002_covers_the_network_transport() {
    // The TCP front-end is exactly the place a wall-clock read would creep
    // in (deadlines, idle timers); the transport must stay on the injected
    // Clock seam so the loopback and chaos suites replay bit-identically.
    let src = "let t0 = std::time::Instant::now();\nlet wall = SystemTime::now();\n";
    assert_eq!(fired("crates/serve/src/transport.rs", src), vec!["D002", "D002"]);
    // The CLI composition root is in scope too — its one blessed read
    // carries an allow annotation.
    let allowed = "// rotary-lint: allow(D002) composition root\nlet epoch = Instant::now();\n";
    assert!(fired("src/bin/rotary-cli.rs", allowed).is_empty());
}

#[test]
fn d002_matches_whole_tokens_not_substrings() {
    // The pre-token analyzer matched on substrings with hand-rolled word
    // boundaries; the lexer makes this structural. An identifier that merely
    // *contains* a banned name can never fire.
    let src = "struct InstantaneousRate;\nlet instant_like = InstantCache::new();\n\
               fn system_time_of(x: u64) -> u64 { x }\n";
    assert!(fired("crates/dlt/src/fixture.rs", src).is_empty());
    let s = "const NOTE: &str = \"Instant and SystemTime are banned here\";\n";
    assert!(fired("crates/dlt/src/fixture.rs", s).is_empty(), "string literals never fire");
}

// ---------------------------------------------------------------- D003 --

#[test]
fn d003_fires_everywhere_including_tests() {
    let src = "let mut rng = thread_rng();\n";
    assert_eq!(fired("crates/engine/src/fixture.rs", src), vec!["D003"]);
    assert_eq!(fired("crates/engine/tests/fixture.rs", src), vec!["D003"]);
    assert_eq!(fired("src/fixture.rs", src), vec!["D003"], "root src/ is in scope");
    assert_eq!(fired("tests/fixture.rs", src), vec!["D003"], "root tests/ are in scope");
    let in_test = "#[cfg(test)]\nmod tests {\n    use rand::rngs::OsRng;\n}\n";
    assert_eq!(fired("crates/engine/src/fixture.rs", in_test), vec!["D003"]);
}

#[test]
fn d003_exempts_the_rng_implementation_itself() {
    let src =
        "// mirrors SmallRng's layout\nconst REF: &str = \"thread_rng\";\nfn from_entropy() {}\n";
    assert!(fired("crates/sim/src/rng.rs", src).is_empty());
    assert_eq!(fired("crates/sim/src/pool.rs", src), vec!["D003"], "only rng.rs is exempt");
}

#[test]
fn d003_matches_whole_tokens_not_substrings() {
    let src = "let thread_rng_seed = 7;\nfn getrandom_shim() {}\nstruct OsRngLike;\n";
    assert!(fired("crates/engine/src/fixture.rs", src).is_empty());
}

// ---------------------------------------------------------------- P001 --

#[test]
fn p001_counts_panic_capable_calls() {
    let src = "let a = x.unwrap();\nlet b = y.expect(\"msg\");\npanic!(\"boom\");\n\
               unreachable!(\"checked above\");\ntodo!();\nunimplemented!();\n";
    assert_eq!(sites(ENGINE_PATH, src, "P001"), 6);
    assert!(fired(ENGINE_PATH, src).is_empty(), "P001 sites are ratcheted, not hard errors");
}

#[test]
fn p001_ignores_non_panicking_lookalikes() {
    let src = "let a = x.unwrap_or(0);\nlet b = y.unwrap_or_else(init);\nlet c = z.expect_err(\"e\");\nlet d = w.unwrap_or_default();\n";
    assert_eq!(sites(ENGINE_PATH, src, "P001"), 0);
}

#[test]
fn p001_exempts_tests_and_respects_allow() {
    let in_test = "#[test]\nfn t() {\n    x.unwrap();\n}\n";
    assert_eq!(sites(ENGINE_PATH, in_test, "P001"), 0);
    assert_eq!(sites("crates/engine/tests/fixture.rs", "x.unwrap();\n", "P001"), 0);
    let allowed = "x.unwrap(); // rotary-lint: allow(P001) invariant: checked above\n";
    assert_eq!(sites(ENGINE_PATH, allowed, "P001"), 0);
}

#[test]
fn p001_exempts_parser_style_expect_with_literal_argument() {
    // The token-level fix that retires the PR 4 `expect_byte` rename:
    // `.expect(b'{')` takes a byte literal, so it cannot be Result::expect
    // (whose argument is a message). Only string-message expects count.
    assert_eq!(sites(ENGINE_PATH, "self.expect(b'{')?;\n", "P001"), 0);
    assert_eq!(sites(ENGINE_PATH, "self.expect('x')?;\n", "P001"), 0);
    assert_eq!(sites(ENGINE_PATH, "self.expect(42)?;\n", "P001"), 0);
    assert_eq!(sites(ENGINE_PATH, "r.expect(\"queue non-empty\");\n", "P001"), 1);
    // And the old workaround spelling stays silent too, as a plain method
    // name: `expect_byte` is a different token than `expect`.
    assert_eq!(sites(ENGINE_PATH, "self.expect_byte(b'{')?;\n", "P001"), 0);
    assert!(fired(ENGINE_PATH, "self.expect_byte(b'{')?;\n").is_empty());
}

#[test]
fn p001_requires_a_method_call_shape() {
    // A free function named `unwrap` or a field access without a call never
    // fires: the rule needs `.` before and `(` after the identifier.
    let src = "fn unwrap() {}\nlet f = unwrap;\nlet g = s.unwrap_count;\n";
    assert_eq!(sites(ENGINE_PATH, src, "P001"), 0);
}

// ---------------------------------------------------------------- A001 --

#[test]
fn a001_rejects_unknown_rules_missing_reasons_and_malformed_markers() {
    let unknown = "x(); // rotary-lint: allow(D999) because\n";
    assert_eq!(fired(ENGINE_PATH, unknown), vec!["A001"]);
    let no_reason = "x(); // rotary-lint: allow(D001)\n";
    assert_eq!(fired(ENGINE_PATH, no_reason), vec!["A001"]);
    let malformed = "x(); // rotary-lint: disable everything\n";
    assert_eq!(fired(ENGINE_PATH, malformed), vec!["A001"]);
    let retired = "x(); // rotary-lint: allow(L001) layering is the compiler's now\n";
    assert_eq!(fired(ENGINE_PATH, retired), vec!["A001"], "a retired rule id is unknown");
}

#[test]
fn a001_multi_rule_allow_with_reason_is_accepted() {
    let src = "use std::collections::HashMap; // rotary-lint: allow(D001, P001) scratch index, infallible here\n";
    let scan = scan_file(ENGINE_PATH, src);
    assert!(scan.violations.is_empty());
    assert!(scan.ratchet_sites.is_empty());
}

#[test]
fn a001_knows_the_new_rule_families() {
    for id in ["R003", "F001", "F002", "F003"] {
        let src = format!("x(); // rotary-lint: allow({id}) fixture reason\n");
        assert!(fired(ENGINE_PATH, &src).is_empty(), "{id} must be a known rule");
    }
}

// ---------------------------------------------------------------- R003 --

#[test]
fn r003_fires_on_every_lock_token_in_non_test_code() {
    let src = "use std::sync::{Mutex, RwLock};\nlet m = std::sync::Mutex::new(0);\n";
    assert_eq!(fired(ENGINE_PATH, src), vec!["R003", "R003", "R003"]);
    assert_eq!(fired("crates/par/src/lib.rs", src).len(), 3, "every crate is in scope");
    assert_eq!(fired("src/bin/rotary-cli.rs", src).len(), 3, "root src/ is in scope");
}

#[test]
fn r003_is_silent_in_tests_strings_comments_and_under_allow() {
    let lock = "let m = Mutex::new(0);\n";
    assert!(fired("crates/par/tests/fixture.rs", lock).is_empty(), "tests dir is exempt");
    assert!(fired("tests/fixture.rs", lock).is_empty(), "root tests/ are exempt");
    let in_test = "#[cfg(test)]\nmod t {\n    use std::sync::RwLock;\n}\n";
    assert!(fired(ENGINE_PATH, in_test).is_empty());
    let text = "// a Mutex would serialise the lanes\nconst DOC: &str = \"RwLock\";\n";
    assert!(fired(ENGINE_PATH, text).is_empty());
    let allowed = "// rotary-lint: allow(R003) one guard per call, never nested\n\
                   let m = Mutex::new(0);\n";
    assert!(fired(ENGINE_PATH, allowed).is_empty());
    let twin = "let m = MutexLike::new(0);\nlet n = locked_rw_lock();\n";
    assert!(fired(ENGINE_PATH, twin).is_empty(), "whole tokens only");
}

// ---------------------------------------------------------------- F001 --

#[test]
fn f001_counts_libm_transcendentals_in_det_scope() {
    let src = "let y = x.sin();\nlet z = f64::ln(x);\nlet w = x.powf(2.5);\n";
    assert_eq!(sites(ENGINE_PATH, src, "F001"), 3);
    assert!(fired(ENGINE_PATH, src).is_empty(), "F001 is ratcheted, not a hard error");
}

#[test]
fn f001_exempts_sqrt_and_non_call_uses() {
    assert_eq!(sites(ENGINE_PATH, "let y = x.sqrt();\n", "F001"), 0, "sqrt is correctly rounded");
    let non_call = "let sin = 3;\nlet t = table.exp;\nfn cos_table() {}\n";
    assert_eq!(sites(ENGINE_PATH, non_call, "F001"), 0);
}

#[test]
fn f001_scope_is_det_crates_non_test_only() {
    let src = "let y = x.sin();\n";
    assert_eq!(sites("crates/tpch/src/fixture.rs", src, "F001"), 0, "tpch is out of det scope");
    assert_eq!(sites("crates/engine/tests/fixture.rs", src, "F001"), 0);
    let in_test = "#[cfg(test)]\nmod t {\n    let y = x.sin();\n}\n";
    assert_eq!(sites(ENGINE_PATH, in_test, "F001"), 0);
    let allowed = "let y = x.sin(); // rotary-lint: allow(F001) host-pinned, no replay claim\n";
    assert_eq!(sites(ENGINE_PATH, allowed, "F001"), 0);
}

// ---------------------------------------------------------------- F002 --

#[test]
fn f002_counts_float_casts_in_det_scope() {
    let src = "let y = n as f64;\nlet z = m as f32;\n";
    assert_eq!(sites(ENGINE_PATH, src, "F002"), 2);
    assert!(fired(ENGINE_PATH, src).is_empty(), "F002 is ratcheted, not a hard error");
}

#[test]
fn f002_ignores_integer_casts_and_import_renames() {
    let src = "let y = n as u64;\nlet z = m as usize;\nuse std::f64 as flt;\n";
    assert_eq!(sites(ENGINE_PATH, src, "F002"), 0);
}

#[test]
fn f002_scope_is_det_crates_non_test_only() {
    let src = "let y = n as f64;\n";
    assert_eq!(sites("crates/bench/src/fixture.rs", src, "F002"), 0);
    let in_test = "#[test]\nfn t() {\n    let y = n as f64;\n}\n";
    assert_eq!(sites(ENGINE_PATH, in_test, "F002"), 0);
    let allowed = "let y = n as f64; // rotary-lint: allow(F002) n <= 2^32, exact in f64\n";
    assert_eq!(sites(ENGINE_PATH, allowed, "F002"), 0);
}

// ---------------------------------------------------------------- F003 --

#[test]
fn f003_counts_float_accumulation_outside_the_kernels() {
    let src = "let s = v.iter().sum::<f64>();\nlet p = v.iter().product::<f32>();\n";
    assert_eq!(sites(ENGINE_PATH, src, "F003"), 2);
    assert!(fired(ENGINE_PATH, src).is_empty(), "F003 is ratcheted, not a hard error");
}

#[test]
fn f003_exempts_the_fold_kernels_and_integer_sums() {
    let src = "let s = v.iter().sum::<f64>();\n";
    assert_eq!(sites("crates/engine/src/kernels.rs", src, "F003"), 0, "kernels.rs is blessed");
    let ints = "let s = v.iter().sum::<u64>();\nlet c = v.iter().sum::<usize>();\n";
    assert_eq!(sites(ENGINE_PATH, ints, "F003"), 0);
}

#[test]
fn f003_scope_is_det_crates_non_test_only() {
    let src = "let s = v.iter().sum::<f64>();\n";
    assert_eq!(sites("crates/check/src/fixture.rs", src, "F003"), 0);
    let in_test = "#[cfg(test)]\nmod t {\n    let s = v.iter().sum::<f64>();\n}\n";
    assert_eq!(sites(ENGINE_PATH, in_test, "F003"), 0);
    let allowed =
        "let s = v.iter().sum::<f64>(); // rotary-lint: allow(F003) validation-only sum\n";
    assert_eq!(sites(ENGINE_PATH, allowed, "F003"), 0);
}

// ------------------------------------------------------------ layering --

/// The DESIGN.md §3 dependency flow, as (crate, allowed dependencies):
/// names drop the `rotary-` prefix, and "rotary" is the root package.
const LAYERS: &[(&str, &[&str])] = &[
    ("core", &[]),
    ("par", &[]),
    ("check", &[]),
    ("sim", &["core"]),
    ("store", &["core"]),
    ("tpch", &["sim"]),
    ("engine", &["core", "par", "tpch"]),
    ("faults", &["core", "sim", "store"]),
    ("serve", &["core", "sim", "faults", "store"]),
    ("dlt", &["core", "par", "sim", "faults", "store"]),
    ("aqp", &["core", "par", "sim", "tpch", "engine", "faults", "store"]),
    ("lint", &["core"]),
    ("bench", &["core", "sim", "tpch", "engine", "aqp", "dlt", "faults", "serve", "store"]),
    ("rotary", &["core", "par", "sim", "tpch", "engine", "aqp", "dlt", "faults", "store", "serve"]),
];

/// The `LAYERS` key of a workspace package name, `None` for other crates.
fn layer(package: &str) -> Option<&str> {
    if package == "rotary" {
        Some(package)
    } else {
        package.strip_prefix("rotary-")
    }
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..")
}

/// Guards crate layering: rustc rejects a path into any crate that is not
/// a declared dependency, so the declared graph is the whole layering.
/// Cargo resolves it from every table form (`[dependencies]`,
/// `[dependencies.rotary-x]`, `[target.'cfg(..)'.dependencies]`,
/// workspace inheritance, renames); the test reads cargo's view and holds
/// it to `LAYERS`: the same member set, and per member its non-dev
/// `rotary-*` dependencies equal to its row.
#[test]
fn declared_crate_graph_matches_the_design_layers() {
    let manifest = workspace_root().join("Cargo.toml");
    let out = std::process::Command::new(env!("CARGO"))
        .args(["metadata", "--no-deps", "--offline", "--format-version", "1", "--manifest-path"])
        .arg(&manifest)
        .output()
        .expect("cargo metadata runs");
    assert!(out.status.success(), "cargo metadata: {}", String::from_utf8_lossy(&out.stderr));
    let doc = json::parse(&String::from_utf8_lossy(&out.stdout)).expect("metadata is JSON");
    let packages = doc.get("packages").and_then(Json::as_arr).expect("packages array");

    let mut graph: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for package in packages {
        let name = package.get("name").and_then(Json::as_str).expect("package name");
        let deps = package.get("dependencies").and_then(Json::as_arr).expect("dependency array");
        let row = deps
            .iter()
            .filter(|d| d.get("kind").and_then(Json::as_str) != Some("dev"))
            .filter_map(|d| layer(d.get("name").and_then(Json::as_str)?))
            .collect();
        graph.insert(layer(name).unwrap_or(name), row);
    }

    let expected: BTreeMap<&str, BTreeSet<&str>> =
        LAYERS.iter().map(|(krate, deps)| (*krate, deps.iter().copied().collect())).collect();
    assert_eq!(
        graph.keys().collect::<Vec<_>>(),
        expected.keys().collect::<Vec<_>>(),
        "workspace members vs LAYERS rows"
    );
    for (krate, row) in &expected {
        assert_eq!(&graph[krate], row, "LAYERS row for '{krate}' disagrees with its manifest");
    }
}

// ------------------------------------------------------------ workspace --

/// The tree this crate ships in must be lint-clean under the checked-in
/// baseline: no hard violations, no ratchet overshoot, no staleness.
#[test]
fn workspace_is_lint_clean_under_the_checked_in_baseline() {
    let root = workspace_root();
    let analysis = analyze_workspace(&root).expect("workspace scan");
    let text = std::fs::read_to_string(root.join(BASELINE_FILE)).expect("baseline present");
    let baseline = Baseline::parse(&text).expect("baseline parses");
    let report = gate(&analysis, &baseline);
    assert!(
        report.violations.is_empty(),
        "workspace has lint violations:\n{}",
        report
            .violations
            .iter()
            .map(|v| format!("{}:{}:{}: {} {}", v.path, v.line, v.col, v.rule, v.message))
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(report.stale.is_empty(), "stale baseline:\n{}", report.stale.join("\n"));
    assert!(analysis.files_scanned > 50, "walk found {} files", analysis.files_scanned);
}
