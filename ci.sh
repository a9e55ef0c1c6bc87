#!/usr/bin/env sh
# Tier-1 verification, fully offline. The workspace has no external
# dependencies by policy (see DESIGN.md), so this must pass with the
# network disabled and an empty cargo registry.
#
# Usage:
#   ./ci.sh                 format + clippy (`unsafe_code` is forbidden
#                           workspace-wide, so this is also the
#                           memory-safety gate) + rustdoc links +
#                           rotary-lint + release
#                           build + `--locked` check of the frozen e2e
#                           benchmark crate + workspace tests + the
#                           pinned 256-case property suites
#   ./ci.sh --bench         ... then run the engine, arbitration, and
#                           serve benches and compare against the
#                           checked-in BENCH_engine.json (±25%),
#                           BENCH_arbitration.json (+35%, plus the
#                           sub-linear scaling assertion), and
#                           BENCH_serve.json (+35% on p99 wait and
#                           ns/submission, plus the socket front-end's
#                           p50/p99 latency) baselines, failing on
#                           regression
#   ./ci.sh --bench-update  ... then refresh all three baselines in place
#   ./ci.sh --lint-update   refresh LINT_baseline.json (the ratchet for
#                           P001/F001/F002/F003) in place instead of
#                           gating on it
set -eu

export CARGO_NET_OFFLINE=true

MODE="${1:-}"

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo clippy -D warnings =="
cargo clippy --workspace --all-targets -- -D warnings

# Clippy never resolves intra-doc links: a doc link to a deleted or private item fails only here.
echo "== cargo doc -D warnings =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

# Determinism & robustness invariants (DESIGN.md §11): fails on any
# D/A/R-rule violation and on ratchet drift (P001/F001/F002/F003) in
# either direction — a count above LINT_baseline.json is a regression,
# below it a stale baseline that --lint-update locks in. The machine-
# readable report (spans, stale cells, ratchet counts) lands in
# target/lint-report.json; CI uploads it as a workflow artifact. Crate
# layering is not linted: rustc rejects undeclared crates, and the
# rotary-lint tests hold the declared graph to DESIGN.md §3.
echo "== rotary-lint =="
if [ "$MODE" = "--lint-update" ]; then
    cargo run -q -p rotary-lint -- --update-baseline
else
    cargo run -q -p rotary-lint -- --json target/lint-report.json
fi

echo "== cargo build --release =="
cargo build --release

# The end-to-end benchmark (BENCHMARK.json) is a detached crate that is
# frozen between benchmark PRs, lock file included. Checking it --locked
# here turns an API break against it, or any drift in the crate graph its
# Cargo.lock records, into a tier-1 failure instead of a surprise at
# benchmark time.
echo "== frozen e2e benchmark still compiles (--locked) =="
cargo check --offline --locked --manifest-path crates/bench/e2e/Cargo.toml

echo "== cargo test --workspace =="
cargo test --workspace -q

# The chaos suite runs as part of the workspace tests above; re-running it
# with the case count pinned guards against a lowered ROTARY_CHECK_CASES in
# the ambient environment quietly weakening the fault-injection coverage.
# It also gates snapshot-memo transparency (DESIGN.md §12): under a random
# fault plan, the records a durable run commits at a random boundary — text
# reused from its earlier snapshots — equal a cold full encoding of the
# same boundary, byte for byte.
echo "== chaos property suite (256 fault plans) =="
ROTARY_CHECK_CASES=256 cargo test -q --test chaos

# Control-plane equivalence gate (DESIGN.md §13): the indexed ranking
# (priority indexes, incremental refits) must stay identical to the dense
# re-sort the baselines use, including under chaos fault plans. Test
# builds assert that inside every indexed pass, and these runs drive the
# check; the change tracking is one protocol for every policy. Pinned for
# the same reason as the chaos suite. arbiter_drivers is rerun by name: it
# is the streaming/snapshot oracle for admissions, which mark the newcomer
# for the next pass under every policy.
echo "== control-plane equivalence suite (256 cases) =="
ROTARY_CHECK_CASES=256 cargo test -q --test control_plane
cargo test -q --test arbiter_drivers

# History-selection equivalence gate (DESIGN.md §13, "Bounded selection"):
# the bucketed branch-and-bound top-k of the history repository must equal
# the linear scan over every record — members, order, score bits — under
# every bucketing with honest bounds (NaN buckets, bounds tied with scores,
# ±0.0), removals, clones and reloads. Pinned for the same reason as the
# chaos suite.
echo "== rotary-core property suite (256 cases) =="
ROTARY_CHECK_CASES=256 cargo test -q -p rotary-core --test props

# Kernel-equivalence gate (DESIGN.md §5): every vectorized kernel in the
# columnar data plane must stay bit-identical to its row-at-a-time oracle,
# including NaN/inf payloads and empty/full selections. Beside it, the
# engine-level differential property gates the verdict path against the row
# oracle: per-plan row verdicts built once by the filter-first scan (staged
# conjuncts, compaction, per-row probe counts), then read by every batch —
# on the executor that built them, on one bound to the warm cache, and at
# 2/4/8 threads — over plans with predicates on every slot and an edge that
# can miss at every position: all three BatchStats counters per batch and
# every accumulator bit. Pinned at 256 cases per property for the same
# reason as the chaos suite above.
echo "== kernel-equivalence + staged-plan property suites (256 cases each) =="
ROTARY_CHECK_CASES=256 cargo test -q -p rotary-engine --test kernel_equivalence --test oracle

# Durable-recovery gate (DESIGN.md §12): the store's corrupted-fixture
# suite must keep turning damaged generation files (torn writes, bit
# flips, truncated headers) into typed errors with newest-valid fallback —
# rerun by name so a fixture regression is called out here rather than
# buried in the workspace test run.
echo "== rotary-store corrupted-fixture suite =="
cargo test -q -p rotary-store

# Service-layer gate (DESIGN.md §14): admission edge cases (quota refill
# boundaries, drain-time queue pressure, shed/complete races, resume with
# a queued backlog) as 256-case property suites, plus the AQP-backed kill
# chains and the overload determinism assertions. Pinned for the same
# reason as the chaos suite.
echo "== rotary-serve admission suite (256 cases) =="
ROTARY_CHECK_CASES=256 cargo test -q --test serve
cargo test -q -p rotary-serve

# Network front-end gate (DESIGN.md §15): the framed wire codec property
# suite (256 cases per property, plus the checked-in corrupted-frame
# fixtures), the loopback transport smoke tests (including
# a_deeply_nested_payload_is_a_bad_frame_not_a_stack_overflow: a 60 000-`[`
# Submit must close one connection, not abort the process), and the socket
# chaos run that must stay byte-identical to the in-process daemon under
# torn writes, bit flips, resets, dribbled bytes and reconnect storms.
# Rerun by name so a wire regression is called out here rather than buried
# in the workspace test run.
echo "== rotary-serve wire =="
ROTARY_CHECK_CASES=256 cargo test -q -p rotary-serve --test wire_props
# The wire reads payloads with json::Reader; json_props holds it to parse.
ROTARY_CHECK_CASES=256 cargo test -q --test json_props
cargo test -q -p rotary-serve --test transport_loopback --test net_chaos

case "$MODE" in
--bench)
    echo "== bench gate (BENCH_engine.json, ±25%) =="
    cargo build --release -q -p rotary-bench
    ./target/release/bench_engine --check BENCH_engine.json
    # Control-plane strong scaling (DESIGN.md §13): per-event arbitration
    # cost at 100/1k/10k/100k concurrent jobs, gated per scale and on the
    # fitted 1k→100k scaling exponent staying sub-linear.
    echo "== arbitration gate (BENCH_arbitration.json, +35% / sub-linear) =="
    ./target/release/bench_arbitration --check BENCH_arbitration.json
    # Service-layer load (DESIGN.md §14): one million closed-loop users
    # against the simulated backend; gates per-submission wall cost and
    # the (deterministic) p99 admission wait.
    echo "== serve gate (BENCH_serve.json, +35%) =="
    ./target/release/bench_serve --check BENCH_serve.json
    # Socket front-end load (DESIGN.md §15): an open-loop arrival schedule
    # over real loopback TCP; gates client-observed p50/p99 response
    # latency and the error-close canary.
    echo "== serve socket gate (BENCH_serve.json, +35%) =="
    ./target/release/bench_serve --socket --check BENCH_serve.json
    ;;
--bench-update)
    # Refreshing re-measures every throughput key from scratch, so the
    # columnar speedups act as a ratchet: a refresh that drops q6
    # seq/rowwise back toward pre-columnar numbers is a real regression
    # and should be investigated, not committed. The arbitration refresh
    # keeps its own ratchet: the sub-linearity assertion runs in --write
    # mode too, so a super-linear control plane cannot be baselined in.
    echo "== bench baseline refresh =="
    cargo build --release -q -p rotary-bench
    ./target/release/bench_engine --write BENCH_engine.json
    ./target/release/bench_arbitration --write BENCH_arbitration.json
    ./target/release/bench_serve --write BENCH_serve.json
    ./target/release/bench_serve --socket --write BENCH_serve.json
    ;;
--lint-update) ;;
"") ;;
*)
    echo "unknown option: $MODE (use --bench, --bench-update, or --lint-update)" >&2
    exit 2
    ;;
esac

echo "CI OK"
