//! `rotary-lint` — an in-tree static-analysis pass enforcing the
//! determinism and robustness invariants the reproduction rests on.
//!
//! The whole experimental claim of this repository is that arbitration is
//! a pure function of `(seed, job, epoch)` — every table regenerates
//! bit-identically. That property is one `HashMap` iteration or one
//! `Instant::now()` away from silently eroding (PR 3 fixed exactly such a
//! bug), so this crate machine-checks it on every CI run. The analyzer is
//! token-level: [`lexer`] produces a full Rust token stream (identifiers,
//! puncts, literals, lifetimes, comments) with byte spans and
//! `#[cfg(test)]` flags, and [`rules`] walks it with two rule families
//! beyond the original determinism set:
//!
//! - **D001–D003** — determinism: no arbitrary-order collections,
//!   wall-clock or environment reads, or ambient randomness.
//! - **P001** — panic-freedom, ratcheted per file via
//!   `LINT_baseline.json`.
//! - **A001** — the allow-annotation grammar.
//! - **R003** — race patterns: every `Mutex`/`RwLock` in non-test code
//!   carries a justified allow. `unsafe` itself is the compiler's to
//!   police: the workspace forbids `unsafe_code`.
//! - **F001–F003** — float determinism: libm transcendentals, truncating
//!   casts, unpinned accumulation (all ratcheted).
//!
//! Crate layering is not a lint rule: rustc rejects a path into a crate
//! that is not a declared dependency, and a test in `tests/rules.rs` pins
//! the declared graph (read with `cargo metadata`) to the DESIGN.md §3
//! layers.
//!
//! `--explain RULE` prints the long-form rationale; `--json PATH` writes
//! the machine-readable report CI uploads next to the bench baselines.

pub mod lexer;
pub mod rules;

use rotary_core::json::{self, Json};
use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::Path;

pub use rules::{FileScan, Violation};

/// The ratchet baseline file, at the workspace root.
pub const BASELINE_FILE: &str = "LINT_baseline.json";

/// Per-rule, per-file site counts (only files with at least one site).
pub type RatchetCounts = BTreeMap<&'static str, BTreeMap<String, u64>>;

/// Everything learned from one pass over the workspace sources.
#[derive(Debug, Default)]
pub struct Analysis {
    /// Hard violations (non-ratcheted rules), sorted by (path, line, col,
    /// rule).
    pub violations: Vec<Violation>,
    /// Every site of a ratcheted rule, sorted; gated by [`gate`].
    pub ratchet_sites: Vec<Violation>,
    /// Per-rule per-file ratchet counts.
    pub ratchet_counts: RatchetCounts,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

/// The checked-in ratchet state: per-rule per-file site counts that may
/// only decrease. Schema: one top-level object per ratcheted rule id
/// (`{"P001": {"path": n, …}, "F001": {…}, …}`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Baseline {
    /// rule id → path → allowed site count.
    pub counts: RatchetCounts,
}

impl Baseline {
    /// Parses the baseline file contents. Every top-level key must be a
    /// ratcheted rule id; missing rules default to empty (zero sites).
    pub fn parse(text: &str) -> Result<Baseline, String> {
        let doc = json::parse(text).map_err(|e| format!("{BASELINE_FILE}: {e}"))?;
        let Json::Obj(rules_obj) = &doc else {
            return Err(format!("{BASELINE_FILE}: top level is not an object"));
        };
        let mut counts = RatchetCounts::new();
        for (rule_name, files) in rules_obj {
            let Some(rule) = rules::rule(rule_name).filter(|r| r.ratcheted) else {
                return Err(format!(
                    "{BASELINE_FILE}: '{rule_name}' is not a ratcheted rule (known: {})",
                    rules::ratcheted_rules().collect::<Vec<_>>().join(", ")
                ));
            };
            let Json::Obj(pairs) = files else {
                return Err(format!("{BASELINE_FILE}: \"{rule_name}\" is not an object"));
            };
            let mut per_file = BTreeMap::new();
            for (path, count) in pairs {
                let n = count.as_u64().ok_or_else(|| {
                    format!("{BASELINE_FILE}: {rule_name} count for '{path}' is not a count")
                })?;
                per_file.insert(path.clone(), n);
            }
            // Empty cells are omitted so parse(to_json(b)) == b.
            if !per_file.is_empty() {
                counts.insert(rule.id, per_file);
            }
        }
        Ok(Baseline { counts })
    }

    /// Serialises to pretty JSON with sorted keys (ends with a newline).
    /// Every ratcheted rule appears, empty or not, so the schema is
    /// self-documenting.
    pub fn to_json(&self) -> String {
        let rules_obj: Vec<(&str, Json)> = rules::ratcheted_rules()
            .map(|id| {
                let pairs = self
                    .counts
                    .get(id)
                    .map(|per_file| {
                        per_file
                            .iter()
                            .map(|(path, n)| (path.clone(), Json::Num(*n as f64)))
                            .collect()
                    })
                    .unwrap_or_default();
                (id, Json::Obj(pairs))
            })
            .collect();
        let mut text = Json::obj(rules_obj).to_pretty();
        text.push('\n');
        text
    }

    /// Builds a baseline that exactly matches an analysis (what
    /// `--update-baseline` writes).
    pub fn from_analysis(analysis: &Analysis) -> Baseline {
        Baseline { counts: analysis.ratchet_counts.clone() }
    }

    /// Total allowed sites across all rules and files.
    pub fn total(&self) -> u64 {
        self.counts.values().flat_map(|m| m.values()).sum()
    }
}

/// What the ratchet gate concluded.
#[derive(Debug, Default)]
pub struct GateReport {
    /// All reportable violations: the hard ones plus ratcheted sites in
    /// (rule, file) cells over their baseline count. Sorted.
    pub violations: Vec<Violation>,
    /// (rule, file) cells whose count fell below the baseline — the tool
    /// demands a `--update-baseline` run so the ratchet only tightens.
    pub stale: Vec<String>,
}

/// Scans every `.rs` file under `root` — crate sources, the root `src/`
/// and `tests/`, everything except `target/` and hidden directories (each
/// rule then applies its own documented scope; see `rules::RULES`).
pub fn analyze_workspace(root: &Path) -> Result<Analysis, String> {
    let mut files = Vec::new();
    walk(root, "", &mut files)?;
    files.sort();
    let mut analysis = Analysis { files_scanned: files.len(), ..Analysis::default() };
    for rel in &files {
        let src =
            fs::read_to_string(root.join(rel)).map_err(|e| format!("cannot read {rel}: {e}"))?;
        let scan = rules::scan_file(rel, &src);
        for site in &scan.ratchet_sites {
            *analysis
                .ratchet_counts
                .entry(site.rule)
                .or_default()
                .entry(site.path.clone())
                .or_insert(0) += 1;
        }
        analysis.violations.extend(scan.violations);
        analysis.ratchet_sites.extend(scan.ratchet_sites);
    }
    analysis.violations.sort();
    analysis.ratchet_sites.sort();
    Ok(analysis)
}

/// Deterministic recursive walk: entries sorted by name, directories named
/// `target` or starting with `.` skipped.
fn walk(root: &Path, rel: &str, out: &mut Vec<String>) -> Result<(), String> {
    let dir = if rel.is_empty() { root.to_path_buf() } else { root.join(rel) };
    let entries = fs::read_dir(&dir).map_err(|e| format!("cannot list {}: {e}", dir.display()))?;
    let mut names: Vec<(String, bool)> = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| format!("cannot list {}: {e}", dir.display()))?;
        let name = entry.file_name().to_string_lossy().into_owned();
        let is_dir = entry
            .file_type()
            .map_err(|e| format!("cannot stat {}/{name}: {e}", dir.display()))?
            .is_dir();
        names.push((name, is_dir));
    }
    names.sort();
    for (name, is_dir) in names {
        if name.starts_with('.') || (is_dir && name == "target") {
            continue;
        }
        let sub = if rel.is_empty() { name.clone() } else { format!("{rel}/{name}") };
        if is_dir {
            walk(root, &sub, out)?;
        } else if name.ends_with(".rs") {
            out.push(sub);
        }
    }
    Ok(())
}

/// Applies the ratchet: hard violations always report; ratcheted sites
/// report only for (rule, file) cells over their baseline count; cells
/// under their count are flagged stale so the improvement gets locked in.
pub fn gate(analysis: &Analysis, baseline: &Baseline) -> GateReport {
    let mut report = GateReport { violations: analysis.violations.clone(), ..Default::default() };
    for rule in rules::ratcheted_rules() {
        let empty = BTreeMap::new();
        let current_counts = analysis.ratchet_counts.get(rule).unwrap_or(&empty);
        let baseline_counts = baseline.counts.get(rule).unwrap_or(&empty);
        let files: BTreeSet<&String> =
            current_counts.keys().chain(baseline_counts.keys()).collect();
        for file in files {
            let current = current_counts.get(file).copied().unwrap_or(0);
            let allowed = baseline_counts.get(file).copied().unwrap_or(0);
            if current > allowed {
                for site in
                    analysis.ratchet_sites.iter().filter(|s| s.rule == rule && s.path == **file)
                {
                    let mut v = site.clone();
                    v.message =
                        format!("{} ({current} sites, baseline allows {allowed})", v.message);
                    report.violations.push(v);
                }
            } else if current < allowed {
                report.stale.push(format!(
                    "{file}: {current} {rule} sites, baseline says {allowed} — run \
                     `cargo run -p rotary-lint -- --update-baseline` to lock the improvement in"
                ));
            }
        }
    }
    report.violations.sort();
    report
}

/// The machine-readable report written by `--json` (schema documented in
/// DESIGN.md §11): file count, gated violations (spans included), stale
/// ratchet cells, and current ratchet counts.
pub fn report_json(analysis: &Analysis, report: &GateReport) -> String {
    let violations: Vec<Json> = report
        .violations
        .iter()
        .map(|v| {
            Json::obj(vec![
                ("path", Json::Str(v.path.clone())),
                ("line", Json::Num(v.line as f64)),
                ("col", Json::Num(v.col as f64)),
                ("rule", Json::Str(v.rule.to_string())),
                ("message", Json::Str(v.message.clone())),
            ])
        })
        .collect();
    let ratchet: Vec<(&str, Json)> = rules::ratcheted_rules()
        .map(|id| {
            let pairs = analysis
                .ratchet_counts
                .get(id)
                .map(|per_file| {
                    per_file.iter().map(|(p, n)| (p.clone(), Json::Num(*n as f64))).collect()
                })
                .unwrap_or_default();
            (id, Json::Obj(pairs))
        })
        .collect();
    let mut text = Json::obj(vec![
        ("files_scanned", Json::Num(analysis.files_scanned as f64)),
        ("violations", Json::Arr(violations)),
        ("stale", Json::Arr(report.stale.iter().map(|s| Json::Str(s.clone())).collect())),
        ("ratchet", Json::obj(ratchet)),
    ])
    .to_pretty();
    text.push('\n');
    text
}

/// Walks up from `start` to the first directory whose `Cargo.toml`
/// declares a `[workspace]` — the lint root.
pub fn find_root(start: &Path) -> Result<std::path::PathBuf, String> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            let text = fs::read_to_string(&manifest)
                .map_err(|e| format!("cannot read {}: {e}", manifest.display()))?;
            if text.contains("[workspace]") {
                return Ok(dir);
            }
        }
        if !dir.pop() {
            return Err(format!(
                "no workspace Cargo.toml found above {}; pass --root",
                start.display()
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_round_trips() {
        let mut p001 = BTreeMap::new();
        p001.insert("crates/a/src/lib.rs".to_string(), 3u64);
        p001.insert("src/main.rs".to_string(), 1u64);
        let mut f002 = BTreeMap::new();
        f002.insert("crates/a/src/lib.rs".to_string(), 7u64);
        let mut counts = RatchetCounts::new();
        counts.insert("P001", p001);
        counts.insert("F002", f002);
        let b = Baseline { counts };
        assert_eq!(Baseline::parse(&b.to_json()).unwrap(), b);
        assert_eq!(b.total(), 11);
    }

    #[test]
    fn baseline_rejects_malformed_documents() {
        assert!(Baseline::parse("{\"P001\": 3}").is_err());
        assert!(Baseline::parse("{\"P001\": {\"f.rs\": -1}}").is_err());
        assert!(Baseline::parse("not json").is_err());
        // Unknown and non-ratcheted top-level rules are schema errors.
        assert!(Baseline::parse("{\"Z999\": {}}").is_err());
        assert!(Baseline::parse("{\"D001\": {}}").is_err());
    }

    #[test]
    fn empty_baseline_parses_and_emits_every_ratcheted_rule() {
        let b = Baseline::parse("{}").unwrap();
        assert!(b.counts.is_empty());
        let emitted = b.to_json();
        for rule in rules::ratcheted_rules() {
            assert!(emitted.contains(&format!("\"{rule}\"")), "{rule} missing from {emitted}");
        }
    }

    fn analysis_with(rule: &'static str, path: &str, sites: usize) -> Analysis {
        let mut a = Analysis::default();
        if sites > 0 {
            a.ratchet_counts.entry(rule).or_default().insert(path.to_string(), sites as u64);
            for i in 0..sites {
                a.ratchet_sites.push(Violation {
                    path: path.to_string(),
                    line: i + 1,
                    col: 1,
                    rule,
                    message: "site".into(),
                });
            }
        }
        a
    }

    #[test]
    fn ratchet_reports_over_baseline_sites() {
        let analysis = analysis_with("P001", "src/x.rs", 2);
        let mut baseline = Baseline::default();
        baseline.counts.entry("P001").or_default().insert("src/x.rs".to_string(), 1);
        let report = gate(&analysis, &baseline);
        assert_eq!(report.violations.len(), 2);
        assert!(report.violations[0].message.contains("baseline allows 1"));
        assert!(report.stale.is_empty());
    }

    #[test]
    fn ratchet_is_silent_at_exactly_the_baseline() {
        let analysis = analysis_with("F001", "src/x.rs", 2);
        let mut baseline = Baseline::default();
        baseline.counts.entry("F001").or_default().insert("src/x.rs".to_string(), 2);
        let report = gate(&analysis, &baseline);
        assert!(report.violations.is_empty());
        assert!(report.stale.is_empty());
    }

    #[test]
    fn ratchet_flags_improvement_as_stale() {
        let analysis = analysis_with("P001", "src/x.rs", 1);
        let mut baseline = Baseline::default();
        baseline.counts.entry("P001").or_default().insert("src/x.rs".to_string(), 3);
        baseline.counts.entry("F002").or_default().insert("src/gone.rs".to_string(), 2);
        let report = gate(&analysis, &baseline);
        assert!(report.violations.is_empty());
        assert_eq!(report.stale.len(), 2);
    }

    #[test]
    fn ratchet_rules_gate_independently() {
        // 2 P001 sites allowed, but the same file's F002 cell is over.
        let mut analysis = analysis_with("P001", "src/x.rs", 2);
        let over = analysis_with("F002", "src/x.rs", 1);
        analysis.ratchet_counts.extend(over.ratchet_counts);
        analysis.ratchet_sites.extend(over.ratchet_sites);
        let mut baseline = Baseline::default();
        baseline.counts.entry("P001").or_default().insert("src/x.rs".to_string(), 2);
        let report = gate(&analysis, &baseline);
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].rule, "F002");
    }

    #[test]
    fn report_json_carries_spans_and_ratchet_counts() {
        let analysis = analysis_with("P001", "src/x.rs", 1);
        let baseline = Baseline::from_analysis(&analysis);
        let report = gate(&analysis, &baseline);
        let text = report_json(&analysis, &report);
        let doc = json::parse(&text).expect("report must be valid JSON");
        assert_eq!(doc.get("files_scanned").and_then(|j| j.as_u64()), Some(0));
        let ratchet = doc.get("ratchet").expect("ratchet object");
        let p001 = ratchet.get("P001").expect("P001 counts");
        assert_eq!(p001.get("src/x.rs").and_then(|j| j.as_u64()), Some(1));
    }

    #[test]
    fn workspace_walk_reaches_root_src_and_tests() {
        // Satellite: the walk must cover the root src/ and tests/ trees,
        // not just crates/*/src — D003 (ambient randomness) depends on it.
        let dir = std::env::temp_dir().join(format!("rotary-lint-walk-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        for sub in ["src", "tests", "crates/x/src", "target/debug"] {
            fs::create_dir_all(dir.join(sub)).unwrap();
        }
        fs::write(dir.join("src/main.rs"), "fn main() { let r = thread_rng(); }\n").unwrap();
        fs::write(dir.join("tests/t.rs"), "#[test]\nfn t() { let r = thread_rng(); }\n").unwrap();
        fs::write(dir.join("crates/x/src/lib.rs"), "pub fn f() {}\n").unwrap();
        fs::write(dir.join("target/debug/skip.rs"), "fn ignored() { thread_rng(); }\n").unwrap();
        let analysis = analyze_workspace(&dir).unwrap();
        assert_eq!(analysis.files_scanned, 3, "target/ must be skipped");
        let d003: Vec<&str> = analysis
            .violations
            .iter()
            .filter(|v| v.rule == "D003")
            .map(|v| v.path.as_str())
            .collect();
        assert_eq!(d003, vec!["src/main.rs", "tests/t.rs"], "D003 covers root src/ AND tests/");
        let _ = fs::remove_dir_all(&dir);
    }
}
