//! Service-layer load benchmark + regression gate.
//!
//! Drives the serve daemon with a closed-loop population of one million
//! simulated users (one submission each, exponential think-time spread)
//! against the simulated backend, sized so aggregate demand runs ~1.5×
//! ahead of backend capacity — the regime the admission machinery exists
//! for. The run records wall-clock cost per submission and the service
//! metrics: p50/p99 admission wait, deadline-miss rate, shed rate.
//!
//! Ledger recording and payload retention are off, as a production-shaped
//! daemon would run: the measurement covers admission control, quota
//! buckets, laxity shedding and outcome accounting, not trace building.
//!
//! Virtual-time metrics (waits, miss/shed rates) are pure functions of
//! the seed; only `ns_per_submission` is a wall-clock timing. The gate
//! (`ci.sh --bench`) compares `serve/ns_per_submission` and
//! `serve/p99_wait_ms` against `BENCH_serve.json` with +35% slack.
//!
//! The same run records the `codec/*` keys (`rotary_bench::codec`): JSON
//! parse and CRC32 throughput, the two primitives under every wire frame
//! and snapshot record. They gate on absolute limits, not on the baseline:
//! parse cost per byte must not grow with document size
//! (`codec/json_parse_scaling` ≤ 1.5) and a 1 MB document must parse at
//! ≥ 50 MB/s — a parser that re-reads its input scores ≈ 200 and ≈ 0.15.
//!
//! Modes (mirroring `bench_arbitration`):
//!
//! * (default)      — measure and print, no file I/O;
//! * `--write [p]`  — measure and update the baseline file (merging, so
//!   in-process and socket keys coexist);
//! * `--check [p]`  — measure and compare against the baseline, exiting
//!   non-zero on regression.
//!
//! A leading `--socket` switches to the open-loop socket benchmark: the
//! same daemon behind the real TCP listener on loopback, an open-loop
//! Poisson schedule driven in virtual time (`ManualClock`), wall-clock
//! response latency measured per submission at the client socket. The
//! socket keys are prefixed `serve_socket/`; the two benchmarks gate
//! independently (each mode only checks its own prefix).

use std::collections::BTreeMap;
use std::time::Instant;

use rotary_core::json;
use rotary_core::SimTime;
use rotary_faults::{FaultPlan, RetryPolicy};
use rotary_serve::{
    decode_frame, encode_frame, open_schedule, Clock, ClosedLoop, ConnClosed, Daemon, Frame,
    Listener, LoadGenConfig, LoadMode, ManualClock, ServeConfig, SimBackend, SubmitResponse,
    TokenBucketConfig, TransportConfig,
};
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;

/// Default baseline location (repo root, where `ci.sh` runs).
const BASELINE: &str = "BENCH_serve.json";

/// Relative slack on the gated keys. The wall-clock key needs it for
/// scheduler noise; the (deterministic) p99 key shares it so a future
/// intentional re-tuning of the shedding policy does not require a
/// baseline dance in the same commit.
const TOLERANCE: f64 = 0.35;

/// Simulated users; each submits once.
const USERS: u64 = 1_000_000;

fn workload() -> LoadGenConfig {
    LoadGenConfig {
        seed: 4242,
        users: USERS,
        submissions_per_user: 1,
        // ~16.7k arrivals/s against ~11.6k/s of backend capacity.
        mode: LoadMode::Closed { think_mean: SimTime::from_secs(60) },
        service_ms: (1, 10),
        deadline_slack: (2.0, 30.0),
        cost_milli: 10,
        bytes: 64,
        oversize_bytes: 1 << 20,
        window: SimTime::from_secs(10),
        max_resubmits: 1,
        faults: FaultPlan::none(),
    }
}

fn daemon_config() -> ServeConfig {
    ServeConfig {
        queue_capacity: 4096,
        // Per-tenant quotas are irrelevant at one submission per user;
        // sized so they never fire and the overload shows up at the queue.
        bucket: TokenBucketConfig::per_second(1 << 20, 1 << 20),
        max_tenants: USERS,
        max_payload_bytes: 4096,
        max_inflight: 64,
        admission_timeout: SimTime::from_secs(30),
        retry: RetryPolicy::default(),
        pressure_watermark: 0.5,
        shed_watermark: 0.875,
        resume_watermark: 0.5,
        record_outcomes: false,
        retain_payloads: false,
    }
}

fn report(metrics: &mut BTreeMap<String, f64>, key: &str, value: f64) {
    println!("{key:<28} {value:>14.3}");
    metrics.insert(key.to_string(), value);
}

fn fail(what: &str, e: impl std::fmt::Display) -> ! {
    eprintln!("bench_serve: {what}: {e}");
    std::process::exit(1);
}

fn measure() -> BTreeMap<String, f64> {
    // First, on a fresh heap: the million-user run below leaves the
    // allocator in a state that taxes the 1 MB parse but not the 4 KB one.
    let codec = rotary_bench::codec::measure();
    let mut daemon = match Daemon::new(daemon_config(), SimBackend::new()) {
        Ok(d) => d,
        Err(e) => fail("daemon config rejected", e),
    };
    let mut users = match ClosedLoop::new(workload()) {
        Ok(u) => u,
        Err(e) => fail("load config rejected", e),
    };
    let start = Instant::now();
    let sent = match users.run(&mut daemon) {
        Ok(n) => n,
        Err(e) => fail("closed loop did not quiesce", e),
    };
    daemon.finish();
    let elapsed = start.elapsed().as_secs_f64();

    let m = daemon.metrics();
    let c = m.counters;
    assert_eq!(c.terminals(), c.submissions, "a submission leaked without a terminal outcome");
    assert!(
        c.shed() + c.rejected() > 0,
        "the workload no longer overloads the daemon; the p99/shed metrics are vacuous"
    );

    let mut metrics = BTreeMap::new();
    report(&mut metrics, "serve/ns_per_submission", elapsed * 1e9 / sent as f64);
    report(&mut metrics, "serve/p50_wait_ms", m.p50_wait_ms as f64);
    report(&mut metrics, "serve/p99_wait_ms", m.p99_wait_ms as f64);
    report(&mut metrics, "serve/deadline_miss_rate", m.deadline_miss_rate);
    report(&mut metrics, "serve/shed_rate", m.shed_rate);
    report(&mut metrics, "serve/submissions", c.submissions as f64);
    for (key, value) in codec {
        report(&mut metrics, key, value);
    }
    metrics
}

/// Socket-mode sizing: fewer users than the in-process run (every
/// submission is a round-trip of real syscalls) but the same overload
/// shape — arrivals ~1.4× ahead of backend capacity.
const SOCKET_USERS: u64 = 100_000;

fn socket_workload() -> LoadGenConfig {
    LoadGenConfig {
        seed: 777,
        users: SOCKET_USERS,
        submissions_per_user: 1,
        mode: LoadMode::Open { arrivals_per_sec: 16_000.0 },
        service_ms: (1, 10),
        deadline_slack: (2.0, 30.0),
        cost_milli: 10,
        bytes: 64,
        oversize_bytes: 1 << 20,
        window: SimTime::from_secs(10),
        max_resubmits: 1,
        faults: FaultPlan::none(),
    }
}

/// One nonblocking loopback client socket with its undecoded backlog.
struct BenchConn {
    stream: TcpStream,
    buf: Vec<u8>,
}

fn pump(conn: &mut BenchConn) -> bool {
    let mut chunk = [0u8; 4096];
    loop {
        match conn.stream.read(&mut chunk) {
            Ok(0) => return false,
            Ok(n) => conn.buf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == ErrorKind::WouldBlock => return true,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return false,
        }
    }
}

fn next_frame(conn: &mut BenchConn) -> Option<Frame> {
    match decode_frame(&conn.buf) {
        Ok(Some((frame, used))) => {
            conn.buf.drain(..used);
            Some(frame)
        }
        Ok(None) => None,
        Err(e) => fail("server sent a malformed frame", e),
    }
}

fn measure_socket() -> BTreeMap<String, f64> {
    let schedule = match open_schedule(&socket_workload()) {
        Ok(s) => s,
        Err(e) => fail("socket load config rejected", e),
    };
    let daemon = match Daemon::new(daemon_config(), SimBackend::new()) {
        Ok(d) => d,
        Err(e) => fail("daemon config rejected", e),
    };
    let clock = ManualClock::new();
    let mut transport = TransportConfig::small();
    transport.max_connections = 64;
    let mut listener = match Listener::bind("127.0.0.1:0", transport, daemon, clock.clone()) {
        Ok(l) => l,
        Err(e) => fail("cannot bind loopback listener", e),
    };
    let addr = match listener.local_addr() {
        Ok(a) => a,
        Err(e) => fail("no local addr", e),
    };

    const CONNS: usize = 16;
    let mut conns: Vec<BenchConn> = (0..CONNS)
        .map(|_| {
            let stream = match TcpStream::connect(addr) {
                Ok(s) => s,
                Err(e) => fail("client connect", e),
            };
            if let Err(e) = stream.set_nonblocking(true).and_then(|()| stream.set_nodelay(true)) {
                fail("client socket options", e);
            }
            BenchConn { stream, buf: Vec::new() }
        })
        .collect();
    // Seat every client before load starts.
    listener.poll();

    let mut latencies_ns: Vec<u64> = Vec::with_capacity(schedule.len());
    let mut rejected = 0u64;
    let start = Instant::now();
    for (i, (at, sub)) in schedule.iter().enumerate() {
        if clock.now_ms() < at.as_millis() {
            clock.set_ms(at.as_millis());
        }
        let conn = &mut conns[i % CONNS];
        let t0 = Instant::now();
        if conn.stream.write_all(&encode_frame(&Frame::Submit(sub.clone()))).is_err() {
            fail("client write", "connection lost mid-benchmark");
        }
        'resp: loop {
            listener.poll();
            let conn = &mut conns[i % CONNS];
            if !pump(conn) {
                fail("server closed a client mid-benchmark", format!("submission {i}"));
            }
            while let Some(frame) = next_frame(conn) {
                match frame {
                    Frame::SubmitResp(resp) => {
                        latencies_ns.push(t0.elapsed().as_nanos() as u64);
                        if matches!(resp, SubmitResponse::Rejected { .. }) {
                            rejected += 1;
                        }
                        break 'resp;
                    }
                    Frame::Notice(_) => {}
                    other => fail("unexpected frame under load", format!("{other:?}")),
                }
            }
        }
    }

    // Close accounting stops here: every close after this point is the
    // shutdown sequence (the virtual-time jump below deliberately blows
    // through the idle deadline of the now-quiet clients).
    let load_stats = listener.stats().clone();

    // Run the tail out in virtual time, then drain and close cleanly.
    clock.advance_ms(600_000);
    for _ in 0..10_000 {
        if !listener.poll() {
            break;
        }
    }
    listener.drain();
    'close: for _ in 0..10_000 {
        listener.poll();
        let mut any_open = false;
        for conn in &mut conns {
            if pump(conn) {
                any_open = true;
            }
            while next_frame(conn).is_some() {}
        }
        if !any_open && listener.is_finished() {
            break 'close;
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    if !listener.is_finished() {
        fail("drain", "listener did not go quiet");
    }

    let stats = listener.stats().clone();
    let daemon = listener.into_daemon();
    let m = daemon.metrics();
    let c = m.counters;
    let sent = schedule.len() as u64;
    assert_eq!(c.submissions, sent, "a submission never reached the daemon");
    assert_eq!(c.terminals(), c.submissions, "a submission leaked without a terminal outcome");
    assert!(c.shed() + c.rejected() > 0, "socket workload no longer overloads the daemon");

    latencies_ns.sort_unstable();
    let pct = |p: f64| latencies_ns[((latencies_ns.len() - 1) as f64 * p) as usize] as f64 / 1e3;
    // Closes under load with a fault-class reason: a canary that gates at
    // zero — the clean workload must never trip BadFrame/Overload/etc.
    let error_closes: u64 = [
        ConnClosed::IdleTimeout,
        ConnClosed::FrameTooLarge,
        ConnClosed::BadFrame,
        ConnClosed::Overload,
    ]
    .iter()
    .map(|&r| load_stats.closed_for(r))
    .sum();

    let mut metrics = BTreeMap::new();
    report(&mut metrics, "serve_socket/ns_per_submission", elapsed * 1e9 / sent as f64);
    report(&mut metrics, "serve_socket/p50_us", pct(0.50));
    report(&mut metrics, "serve_socket/p99_us", pct(0.99));
    report(&mut metrics, "serve_socket/reject_rate", rejected as f64 / sent as f64);
    report(&mut metrics, "serve_socket/shed_rate", m.shed_rate);
    report(
        &mut metrics,
        "serve_socket/error_close_rate",
        error_closes as f64 / load_stats.accepted.max(1) as f64,
    );
    report(
        &mut metrics,
        "serve_socket/bytes_per_submission",
        (stats.bytes_in + stats.bytes_out) as f64 / sent as f64,
    );
    report(&mut metrics, "serve_socket/submissions", sent as f64);
    metrics
}

/// Only these keys gate; the rest are recorded for trend reading.
fn gated(key: &str) -> bool {
    matches!(
        key,
        "serve/ns_per_submission"
            | "serve/p99_wait_ms"
            | "serve_socket/p50_us"
            | "serve_socket/p99_us"
            | "serve_socket/error_close_rate"
    )
}

/// Absolute limits on codec keys as `(key, limit, is_ceiling)`: linear
/// versus quadratic parsing differs by two orders of magnitude on either
/// key, so no host-dependent baseline is needed to tell them apart.
const CODEC_LIMITS: [(&str, f64, bool); 2] =
    [("codec/json_parse_scaling", 1.5, true), ("codec/json_parse_mb_s_1m", 50.0, false)];

fn check(current: &BTreeMap<String, f64>, baseline_path: &str, prefix: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(baseline_path)
        .map_err(|e| format!("cannot read baseline {baseline_path}: {e}"))?;
    let baseline = json::num_map_from_json(&json::parse(&text)?)?;
    let mut failures = Vec::new();
    for (key, &base) in &baseline {
        if !gated(key) || !key.starts_with(prefix) {
            continue;
        }
        let Some(&now) = current.get(key) else {
            failures.push(format!("{key}: present in baseline but not measured"));
            continue;
        };
        // Both gated keys are lower-is-better.
        if now > base * (1.0 + TOLERANCE) {
            failures.push(format!(
                "{key}: {now:.1} vs baseline {base:.1} (>{:.0}% regression)",
                TOLERANCE * 100.0
            ));
        }
    }
    for (key, limit, is_ceiling) in CODEC_LIMITS {
        // Absent from `current` in socket mode, which measures no codec.
        let Some(&now) = current.get(key) else { continue };
        if (is_ceiling && now > limit) || (!is_ceiling && now < limit) {
            let side = if is_ceiling { "ceiling" } else { "floor" };
            failures.push(format!("{key}: {now:.2} is past its {side} of {limit}"));
        }
    }
    if failures.is_empty() {
        println!("serve gate: gated metrics within +{:.0}%", TOLERANCE * 100.0);
        Ok(())
    } else {
        Err(failures.join("\n"))
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let socket = args.first().map(String::as_str) == Some("--socket");
    if socket {
        args.remove(0);
    }
    let mode = args.first().map(String::as_str).unwrap_or("");
    let path = args.get(1).cloned().unwrap_or_else(|| BASELINE.to_string());
    let prefix = if socket { "serve_socket/" } else { "serve/" };
    let run = if socket { measure_socket } else { measure };

    let metrics = run();
    match mode {
        "--write" => {
            // Merge, so the in-process and socket baselines live in one
            // file without clobbering each other.
            let mut merged = std::fs::read_to_string(&path)
                .ok()
                .and_then(|t| json::parse(&t).ok())
                .and_then(|j| json::num_map_from_json(&j).ok())
                .unwrap_or_default();
            merged.extend(metrics.iter().map(|(k, &v)| (k.clone(), v)));
            let body = json::num_map_to_json(&merged).to_pretty();
            if let Err(e) = std::fs::write(&path, body + "\n") {
                fail("cannot write baseline", e);
            }
            println!("wrote {} metrics to {path}", merged.len());
        }
        "--check" => {
            // One full re-measurement before failing: a transiently noisy
            // host should not fail the gate, while a real regression fails
            // both passes.
            if let Err(first) = check(&metrics, &path, prefix) {
                eprintln!("serve gate: first pass failed, re-measuring once:\n{first}");
                if let Err(e) = check(&run(), &path, prefix) {
                    eprintln!("serve gate FAILED (both passes):\n{e}");
                    std::process::exit(1);
                }
            }
        }
        "" => {}
        other => {
            eprintln!("unknown mode {other}; use --write [path] or --check [path]");
            std::process::exit(2);
        }
    }
}
