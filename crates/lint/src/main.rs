//! The `rotary-lint` binary: scans the workspace, applies the ratchet
//! baseline, prints violations sorted by (path, line, col, rule), and
//! exits nonzero so `ci.sh` can gate on it.
//!
//! Exit codes: `0` clean, `1` violations, `2` operational errors or a
//! stale baseline (counts fell — rerun with `--update-baseline`).

use rotary_lint::{analyze_workspace, find_root, gate, report_json, Baseline, BASELINE_FILE};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
usage: rotary-lint [--root PATH] [--update-baseline] [--json PATH] [--explain RULE]

  --root PATH          lint the workspace rooted at PATH (default: walk up
                       from the current directory to the [workspace] manifest)
  --update-baseline    rewrite LINT_baseline.json with current ratcheted-rule
                       counts; hard violations still fail the run
  --json PATH          also write the machine-readable report (violations with
                       spans, stale cells, ratchet counts) to PATH
  --explain RULE       print a rule's rationale and exact scope, then exit

rules ('*' = ratcheted via LINT_baseline.json):";

fn main() -> ExitCode {
    match run(std::env::args().skip(1).collect()) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("rotary-lint: {message}");
            ExitCode::from(2)
        }
    }
}

fn run(args: Vec<String>) -> Result<ExitCode, String> {
    let mut update = false;
    let mut root: Option<PathBuf> = None;
    let mut json_out: Option<PathBuf> = None;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--update-baseline" => update = true,
            "--root" => {
                root = Some(PathBuf::from(it.next().ok_or("--root needs a path")?));
            }
            "--json" => {
                json_out = Some(PathBuf::from(it.next().ok_or("--json needs a path")?));
            }
            "--explain" => {
                let name = it.next().ok_or("--explain needs a rule id (e.g. R003)")?;
                let Some(rule) = rotary_lint::rules::rule(&name) else {
                    return Err(format!("unknown rule '{name}' (try --help for the catalog)"));
                };
                println!("{} — {}", rule.id, rule.summary);
                println!(
                    "\nenforcement: {}",
                    if rule.ratcheted {
                        "ratcheted — existing per-file counts live in LINT_baseline.json \
                         and may only decrease"
                    } else {
                        "hard — any violation fails the run"
                    }
                );
                println!("scope: {}", rule.scope);
                println!("\n{}", rule.explain);
                return Ok(ExitCode::SUCCESS);
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                for rule in rotary_lint::rules::RULES {
                    let mark = if rule.ratcheted { "*" } else { " " };
                    println!("  {}{mark} {}", rule.id, rule.summary);
                }
                return Ok(ExitCode::SUCCESS);
            }
            other => return Err(format!("unknown argument '{other}' (try --help)")),
        }
    }
    let root = match root {
        Some(dir) => dir,
        None => {
            let cwd = std::env::current_dir().map_err(|e| format!("cannot read cwd: {e}"))?;
            find_root(&cwd)?
        }
    };

    let analysis = analyze_workspace(&root)?;
    let baseline_path = root.join(BASELINE_FILE);

    let baseline = if update {
        let fresh = Baseline::from_analysis(&analysis);
        std::fs::write(&baseline_path, fresh.to_json())
            .map_err(|e| format!("cannot write {}: {e}", baseline_path.display()))?;
        println!(
            "rotary-lint: baseline updated — {} ratcheted sites across {} rules",
            fresh.total(),
            fresh.counts.len(),
        );
        fresh
    } else {
        let text = std::fs::read_to_string(&baseline_path).map_err(|e| {
            format!(
                "cannot read {}: {e}; run `cargo run -p rotary-lint -- --update-baseline`",
                baseline_path.display()
            )
        })?;
        Baseline::parse(&text)?
    };

    let report = gate(&analysis, &baseline);
    if let Some(path) = &json_out {
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            std::fs::create_dir_all(parent)
                .map_err(|e| format!("cannot create {}: {e}", parent.display()))?;
        }
        std::fs::write(path, report_json(&analysis, &report))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    for v in &report.violations {
        println!("{}:{}:{}: {} {}", v.path, v.line, v.col, v.rule, v.message);
    }
    for s in &report.stale {
        eprintln!("rotary-lint: stale baseline: {s}");
    }
    if !report.violations.is_empty() {
        eprintln!(
            "rotary-lint: {} violation(s) across {} file(s) scanned",
            report.violations.len(),
            analysis.files_scanned
        );
        Ok(ExitCode::from(1))
    } else if !report.stale.is_empty() {
        Ok(ExitCode::from(2))
    } else {
        println!("rotary-lint: {} files clean", analysis.files_scanned);
        Ok(ExitCode::SUCCESS)
    }
}
