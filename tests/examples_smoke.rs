//! Smoke test: every `examples/` binary must build and run to completion.
//! The examples double as user-facing documentation, so a broken one is a
//! broken README.

use std::path::Path;
use std::process::Command;

const EXAMPLES: [&str; 4] = ["quickstart", "aqp_workload", "dlt_workload", "unified_cluster"];

/// Runs `cargo run --example <name>` in the workspace root. The examples
/// are tiny demos; the debug profile keeps the compile cheap and the run
/// is seconds at most.
#[test]
fn all_examples_run_to_completion() {
    let manifest_dir = env!("CARGO_MANIFEST_DIR");
    assert!(
        Path::new(manifest_dir).join("Cargo.toml").exists(),
        "workspace root not found at {manifest_dir}"
    );
    for name in EXAMPLES {
        let output = Command::new(env!("CARGO"))
            .args(["run", "-q", "--example", name])
            .current_dir(manifest_dir)
            .env("CARGO_NET_OFFLINE", "true")
            .output()
            .unwrap_or_else(|e| panic!("failed to spawn cargo for example {name}: {e}"));
        assert!(
            output.status.success(),
            "example {name} exited with {:?}\n--- stdout ---\n{}\n--- stderr ---\n{}",
            output.status.code(),
            String::from_utf8_lossy(&output.stdout),
            String::from_utf8_lossy(&output.stderr),
        );
        assert!(!output.stdout.is_empty(), "example {name} succeeded but printed nothing");
    }
}
