//! Per-rule fixtures: each rule fires on its violating fixture, stays
//! silent on the clean twin, and respects both allow annotations and
//! `#[cfg(test)]` scoping — plus a workspace-level test asserting the tree
//! this crate ships in is lint-clean under the checked-in baseline, and a
//! cross-check pinning the hardcoded `LAYERS` table to the Cargo.toml
//! manifests.

use rotary_lint::rules::{rule, scan_file, Violation, LAYERS, RULES};
use rotary_lint::{analyze_workspace, gate, lock_cycle_violations, Baseline, BASELINE_FILE};
use std::collections::BTreeSet;

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
    let src = "let a = x.unwrap();\nlet b = y.expect(\"msg\");\npanic!(\"boom\");\n";
    assert_eq!(sites(ENGINE_PATH, src, "P001"), 3);
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
    for id in ["R003", "F001", "F002", "F003", "L001"] {
        let src = format!("x(); // rotary-lint: allow({id}) fixture reason\n");
        assert!(fired(ENGINE_PATH, &src).is_empty(), "{id} must be a known rule");
    }
}

// ---------------------------------------------------------------- R003 --

#[test]
fn r003_records_edges_for_nested_lock_acquisitions() {
    let src = "fn first(&self) {\n\
               \x20   let g = self.a.lock().unwrap();\n\
               \x20   let h = self.b.lock().unwrap();\n\
               }\n";
    let scan = scan_file(ENGINE_PATH, src);
    assert_eq!(scan.lock_edges.len(), 1);
    let e = &scan.lock_edges[0];
    assert_eq!((e.held.as_str(), e.acquired.as_str(), e.func.as_str()), ("a", "b", "first"));
    assert!(lock_cycle_violations(&scan.lock_edges).is_empty(), "one direction is no cycle");
}

#[test]
fn r003_detects_an_order_inversion_across_functions() {
    let src = "fn first(&self) {\n\
               \x20   let g = self.a.lock().unwrap();\n\
               \x20   let h = self.b.lock().unwrap();\n\
               }\n\
               fn second(&self) {\n\
               \x20   let g = self.b.lock().unwrap();\n\
               \x20   let h = self.a.lock().unwrap();\n\
               }\n";
    let scan = scan_file(ENGINE_PATH, src);
    assert_eq!(scan.lock_edges.len(), 2);
    let cycles = lock_cycle_violations(&scan.lock_edges);
    assert_eq!(cycles.len(), 2, "every edge on the a<->b cycle fires");
    assert!(cycles.iter().all(|v| v.rule == "R003"));
}

#[test]
fn r003_detects_reacquiring_a_lock_already_held() {
    let src = "fn twice(&self) {\n\
               \x20   let g = self.a.lock().unwrap();\n\
               \x20   let h = self.a.lock().unwrap();\n\
               }\n";
    let scan = scan_file(ENGINE_PATH, src);
    let cycles = lock_cycle_violations(&scan.lock_edges);
    assert_eq!(cycles.len(), 1, "self-loop is an immediate deadlock");
}

#[test]
fn r003_chained_temporaries_release_at_the_semicolon() {
    let src = "fn seq(&self) {\n\
               \x20   self.a.lock().unwrap().x = 1;\n\
               \x20   self.b.lock().unwrap().y = 2;\n\
               }\n";
    assert!(scan_file(ENGINE_PATH, src).lock_edges.is_empty(), "sequential, never nested");
}

#[test]
fn r003_drop_and_block_end_release_durable_guards() {
    let dropped = "fn f(&self) {\n\
                   \x20   let g = self.a.lock().unwrap();\n\
                   \x20   drop(g);\n\
                   \x20   let h = self.b.lock().unwrap();\n\
                   }\n";
    assert!(scan_file(ENGINE_PATH, dropped).lock_edges.is_empty());
    let scoped = "fn f(&self) {\n\
                  \x20   {\n\
                  \x20       let g = self.a.lock().unwrap();\n\
                  \x20   }\n\
                  \x20   let h = self.b.lock().unwrap();\n\
                  }\n";
    assert!(scan_file(ENGINE_PATH, scoped).lock_edges.is_empty());
}

#[test]
fn r003_keys_locks_by_receiver_through_index_expressions() {
    let src = "fn f(&self) {\n\
               \x20   let g = self.slots[i].lock().unwrap();\n\
               \x20   let h = self.queue.lock().unwrap();\n\
               }\n";
    let scan = scan_file(ENGINE_PATH, src);
    assert_eq!(scan.lock_edges.len(), 1);
    assert_eq!(scan.lock_edges[0].held, "slots");
    assert_eq!(scan.lock_edges[0].acquired, "queue");
}

#[test]
fn r003_is_test_exempt_and_respects_allow() {
    let in_test = "#[cfg(test)]\nmod t {\n\
                   \x20   fn f(s: &S) {\n\
                   \x20       let g = s.a.lock().unwrap();\n\
                   \x20       let h = s.b.lock().unwrap();\n\
                   \x20   }\n}\n";
    assert!(scan_file(ENGINE_PATH, in_test).lock_edges.is_empty());
    let allowed = "fn f(&self) {\n\
                   \x20   let g = self.a.lock().unwrap();\n\
                   \x20   let h = self.b.lock().unwrap(); // rotary-lint: allow(R003) doc-ordered\n\
                   }\n";
    assert!(scan_file(ENGINE_PATH, allowed).lock_edges.is_empty());
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

// ---------------------------------------------------------------- L001 --

#[test]
fn l001_fires_on_dependency_flow_inversions() {
    let src = "use rotary_serve::ServeDaemon;\n";
    assert_eq!(fired(ENGINE_PATH, src), vec!["L001"], "engine must not name serve items");
    let core_up = "use rotary_engine::Engine;\n";
    assert_eq!(fired("crates/core/src/fixture.rs", core_up), vec!["L001"]);
}

#[test]
fn l001_accepts_declared_dependencies_and_self_references() {
    let src = "use rotary_core::json::Json;\nuse rotary_par::Pool;\nuse rotary_tpch::gen;\n";
    assert!(fired(ENGINE_PATH, src).is_empty(), "engine declares core, par, tpch");
    let own = "use rotary_engine::columnar::Column;\n";
    assert!(fired(ENGINE_PATH, own).is_empty(), "self-reference (doc examples) is fine");
}

#[test]
fn l001_covers_the_root_crate() {
    let ok = "use rotary_serve::ServeDaemon;\nuse rotary_aqp::Controller;\n";
    assert!(fired("src/fixture.rs", ok).is_empty(), "the root crate sits above everything");
    let bad = "use rotary_lint::rules::scan_file;\n";
    assert_eq!(fired("src/fixture.rs", bad), vec!["L001"], "lint is a dev tool, not a dep");
}

#[test]
fn l001_ignores_unknown_suffixes_tests_and_allows() {
    let unknown = "use rotary_widgets::Gadget;\n";
    assert!(fired(ENGINE_PATH, unknown).is_empty(), "not a workspace crate");
    let in_tests_dir = "use rotary_serve::ServeDaemon;\n";
    assert!(fired("crates/engine/tests/fixture.rs", in_tests_dir).is_empty());
    assert!(fired("tests/fixture.rs", in_tests_dir).is_empty(), "root tests/ are dev-only");
    let in_cfg_test = "#[cfg(test)]\nmod t {\n    use rotary_serve::ServeDaemon;\n}\n";
    assert!(fired(ENGINE_PATH, in_cfg_test).is_empty());
    let allowed = "use rotary_serve::ServeDaemon; // rotary-lint: allow(L001) doc example only\n";
    assert!(fired(ENGINE_PATH, allowed).is_empty());
}

/// Pins the hardcoded `LAYERS` table to the actual Cargo.toml manifests:
/// for every crate, the set of `rotary-*` entries in `[dependencies]` must
/// equal the table row. The promise in rules.rs ("cross-checked against
/// the Cargo.toml manifests so it cannot drift") lives here.
#[test]
fn l001_layer_table_matches_the_cargo_manifests() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..");
    for (krate, deps) in LAYERS {
        let manifest = if *krate == "rotary" {
            root.join("Cargo.toml")
        } else {
            root.join("crates").join(krate).join("Cargo.toml")
        };
        let text = std::fs::read_to_string(&manifest)
            .unwrap_or_else(|e| panic!("read {}: {e}", manifest.display()));
        let mut in_deps = false;
        let mut found: BTreeSet<String> = BTreeSet::new();
        for line in text.lines() {
            let line = line.trim();
            if line.starts_with('[') {
                in_deps = line == "[dependencies]";
                continue;
            }
            if !in_deps {
                continue;
            }
            if let Some(rest) = line.strip_prefix("rotary-") {
                let name: String =
                    rest.chars().take_while(|c| c.is_ascii_alphanumeric() || *c == '-').collect();
                found.insert(name.replace('-', "_"));
            }
        }
        let expected: BTreeSet<String> = deps.iter().map(|d| d.to_string()).collect();
        assert_eq!(
            found,
            expected,
            "LAYERS row for '{krate}' disagrees with {}",
            manifest.display()
        );
    }
}

// ------------------------------------------------------------ workspace --

/// The tree this crate ships in must be lint-clean under the checked-in
/// baseline: no hard violations, no ratchet overshoot, no staleness.
#[test]
fn workspace_is_lint_clean_under_the_checked_in_baseline() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..");
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
