//! Layer probes for the traced run: each times one layer through its
//! public functions, on the workload's own data and recorded bytes, and
//! writes per-layer metrics. Stage costs the daemon hides inside
//! `Listener::poll` are obtained here by replaying the recorded frames and
//! schedule through the public function of each stage.

use crate::drive::{inproc_trial, same_instant_runs, CONNS};
use crate::err;
use crate::metrics::Values;
use crate::span::{by_layer, TracedBackend, Tracer};
use crate::stats::median;
use rotary::aqp::{AqpPolicy, AqpSystem, AqpSystemConfig};
use rotary::core::json;
use rotary::core::SimTime;
use rotary::engine::{query, Executor, IndexCache, QueryId};
use rotary::faults::FaultPlan;
use rotary::par::ThreadPool;
use rotary::serve::wire::{FRAME_HEADER_LEN, FRAME_TRAILER_LEN};
use rotary::serve::{decode_frame, encode_frame, Backend, Daemon, Frame, ServeConfig, Submission};
use rotary::tpch::{BatchSource, Generator, TpchData};
use std::hint::black_box;
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// How long each timed probe loop runs.
const PROBE_WINDOW: Duration = Duration::from_millis(250);

/// Mean ns per call of `f` over `items`, cycling until the window closes
/// (at least one full pass, so every recorded item is replayed).
fn ns_per_item<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    if items.is_empty() {
        return 0.0;
    }
    let start = Instant::now();
    let mut calls = 0u64;
    loop {
        for item in items {
            f(item);
        }
        calls += items.len() as u64;
        if start.elapsed() >= PROBE_WINDOW {
            break;
        }
    }
    start.elapsed().as_nanos() as f64 / calls as f64
}

// ---------------------------------------------------------------------------
// engine
// ---------------------------------------------------------------------------

/// `Executor::process_rows` throughput on one query per class (q6 light,
/// q3 medium, q7 heavy) at the workload's scale factor and batch size,
/// bind cost with a cold and a warm index cache, and the parallel path's
/// speed-up on the heavy query (informational: printed with nproc).
pub fn engine(data: &TpchData, seed: u64, out: &mut Values) -> Result<(), String> {
    let fact_rows = data.lineitem.rows();
    // The AQP system's default batch: 1% of the fact table.
    let batch_rows = (fact_rows / 100).max(1);
    let mut cold_us = Vec::new();
    let mut warm_us = Vec::new();
    for (qid, key) in [
        (6u8, "engine.rows_per_s.light"),
        (3, "engine.rows_per_s.medium"),
        (7, "engine.rows_per_s.heavy"),
    ] {
        let plan = query(QueryId(qid));
        let mut cache = IndexCache::new();
        let t0 = Instant::now();
        let mut exec = Executor::bind(&plan, data, &mut cache).map_err(err("bind"))?;
        cold_us.push(t0.elapsed().as_nanos() as f64 / 1e3);
        let t0 = Instant::now();
        black_box(Executor::bind(&plan, data, &mut cache).map_err(err("bind"))?);
        warm_us.push(t0.elapsed().as_nanos() as f64 / 1e3);

        let mut source = BatchSource::new(seed, fact_rows, batch_rows);
        let batches: Vec<Vec<u32>> =
            std::iter::from_fn(|| source.next_batch().map(<[u32]>::to_vec)).collect();
        let ns_per_batch = ns_per_item(&batches, |rows| {
            black_box(exec.process_rows(black_box(rows)));
        });
        let seq_rate = batch_rows as f64 * 1e9 / ns_per_batch;
        out.insert(key, seq_rate);

        if qid == 7 {
            let pool = ThreadPool::new(crate::host::nproc());
            let ns_par = ns_per_item(&batches, |rows| {
                black_box(exec.process_rows_with(&pool, black_box(rows)));
            });
            out.insert("engine.par_speedup", ns_per_batch / ns_par);
        }
    }
    out.insert("engine.bind_cold_us", median(&cold_us).unwrap_or(0.0));
    out.insert("engine.bind_us", median(&warm_us).unwrap_or(0.0));
    Ok(())
}

// ---------------------------------------------------------------------------
// aqp control plane
// ---------------------------------------------------------------------------

/// Arbitration cost per event with the data plane shrunk away: the
/// workload's job count over a SF 0.0005 dataset, stepped through the
/// `bench_start`/`bench_step` hooks `bench_arbitration` uses.
pub fn aqp_control_plane(seed: u64, jobs: usize, out: &mut Values) -> Result<(), String> {
    let data = Generator::new(seed, 0.0005).generate();
    let config = AqpSystemConfig {
        seed,
        threads: crate::workloads::THREADS,
        faults: FaultPlan::none(),
        ..Default::default()
    };
    let mut sys = AqpSystem::new(&data, config);
    sys.prepopulate_history(seed).map_err(err("prepopulate history"))?;
    let specs = crate::workloads::aqp_specs(seed, jobs);
    let mut run = sys.bench_start(&specs, AqpPolicy::Rotary).map_err(err("bench_start"))?;
    let start = Instant::now();
    let mut events = 0u64;
    while sys.bench_step(&mut run, AqpPolicy::Rotary) {
        events += 1;
    }
    if events > 0 {
        out.insert("aqp.ctl_ns_per_event", start.elapsed().as_nanos() as f64 / events as f64);
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// the door: wire, JSON, daemon, syscalls
// ---------------------------------------------------------------------------

/// The JSON text inside a frame.
fn payload_text(frame: &[u8]) -> Result<&str, String> {
    let body = frame
        .get(FRAME_HEADER_LEN..frame.len().saturating_sub(FRAME_TRAILER_LEN))
        .ok_or("frame shorter than its header")?;
    std::str::from_utf8(body).map_err(err("frame payload"))
}

/// Server-side syscalls of the polls that serve `runs`, replayed on a real
/// loopback pair, per submission. One poll per run of simultaneous
/// arrivals, as in the socket trial: a refused accept, a read that returns
/// the run's frames and one that would block on the busy connection, a
/// would-block read on each idle one, and one write of the run's responses.
fn syscall_ns(
    frames: &[Vec<u8>],
    responses: &[Vec<u8>],
    runs: &[std::ops::Range<usize>],
) -> Result<f64, String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(err("probe bind"))?;
    listener.set_nonblocking(true).map_err(err("probe nonblocking"))?;
    let addr = listener.local_addr().map_err(err("probe addr"))?;
    let mut pairs = Vec::new();
    for _ in 0..CONNS {
        let client = TcpStream::connect(addr).map_err(err("probe connect"))?;
        client.set_nodelay(true).map_err(err("probe nodelay"))?;
        let server = loop {
            match listener.accept() {
                Ok((stream, _)) => break stream,
                Err(e) if e.kind() == ErrorKind::WouldBlock => continue,
                Err(e) => return Err(format!("probe accept: {e}")),
            }
        };
        server.set_nonblocking(true).map_err(err("probe nonblocking"))?;
        server.set_nodelay(true).map_err(err("probe nodelay"))?;
        pairs.push((client, server));
    }
    let mut chunk = [0u8; 4096];
    let mut busy_ns = 0u128;
    let (mut inbound, mut outbound) = (Vec::new(), Vec::new());
    for (turn, run) in runs.iter().enumerate() {
        inbound.clear();
        outbound.clear();
        frames[run.clone()].iter().for_each(|f| inbound.extend_from_slice(f));
        responses[run.clone()].iter().for_each(|r| outbound.extend_from_slice(r));
        let turn = turn % CONNS;
        pairs[turn].0.write_all(&inbound).map_err(err("probe client write"))?;
        let t0 = Instant::now();
        let _ = black_box(listener.accept().is_ok());
        for (_, server) in &mut pairs {
            loop {
                match server.read(&mut chunk) {
                    Ok(n) if n > 0 => continue,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    _ => break,
                }
            }
        }
        pairs[turn].1.write_all(&outbound).map_err(err("probe server write"))?;
        busy_ns += t0.elapsed().as_nanos();
        inbound.resize(outbound.len(), 0);
        pairs[turn].0.read_exact(&mut inbound).map_err(err("probe client read"))?;
    }
    Ok(busy_ns as f64 / frames.len().max(1) as f64)
}

/// The per-stage budget of a socket submission. Replays the recorded
/// submit frames through `decode_frame` and `json::parse`, the stamped
/// schedule through `Daemon::submit` in-process (untraced for its wall
/// time, traced for self times), the responses and notices it produced
/// through `encode_frame` and `Json::to_pretty`, and the syscalls on a
/// loopback pair. All stage costs are per submission.
///
/// `socket_ns_per_sub` is the median untraced socket trial's wall time per
/// submission; the socket tax is what it adds over the in-process replay.
/// Returns the sum of the stages a poll is known to contain, for the
/// caller to hold against the measured poll time.
pub fn door_stages<B: Backend>(
    config: &ServeConfig,
    make_backend: impl Fn(&Tracer) -> Result<TracedBackend<B>, String>,
    schedule: &[(SimTime, Submission)],
    frames: &[Vec<u8>],
    socket_ns_per_sub: f64,
    out: &mut Values,
) -> Result<f64, String> {
    let subs = schedule.len().max(1) as f64;

    // Inbound: one submit frame per submission.
    let texts = frames.iter().map(|f| payload_text(f)).collect::<Result<Vec<_>, _>>()?;
    let parse_ns = ns_per_item(&texts, |text| {
        black_box(json::parse(black_box(text)).is_ok());
    });
    let decode_ns = ns_per_item(frames, |frame| {
        black_box(decode_frame(black_box(frame)).is_ok());
    });

    // The daemon's share: the same schedule in-process, once untraced for
    // its wall time and once traced for self times. The traced pass also
    // collects the frames the server would have sent back.
    let untraced =
        inproc_trial(config.clone(), make_backend(&Tracer::off())?, schedule, &Tracer::off())?;
    let inproc_ns = untraced.wall_s * 1e9 / subs;
    out.insert("transport.socket_tax_ns", socket_ns_per_sub - inproc_ns);

    let tracer = Tracer::on();
    let mut daemon =
        Daemon::new(config.clone(), make_backend(&tracer)?).map_err(err("daemon config"))?;
    let mut outbound: Vec<Frame> = Vec::with_capacity(schedule.len() * 2);
    let mut responses: Vec<Vec<u8>> = Vec::with_capacity(schedule.len());
    for (at, sub) in schedule {
        let resp = {
            let _s = tracer.span("daemon.submit");
            daemon.submit(*at, sub)
        };
        responses.push(encode_frame(&Frame::SubmitResp(resp.clone())));
        outbound.push(Frame::SubmitResp(resp));
        outbound.extend(daemon.take_notices().into_iter().map(Frame::Notice));
    }
    loop {
        let _s = tracer.span("daemon.idle_step");
        if !daemon.idle_step() {
            break;
        }
    }
    daemon.finish();
    outbound.extend(daemon.take_notices().into_iter().map(Frame::Notice));
    let layers = by_layer(&tracer.take());
    let own = |name: &str| layers.get(name).map_or(0.0, |l| l.self_ns as f64);
    let count = |name: &str| layers.get(name).map_or(0.0, |l| l.count as f64);
    out.insert("daemon.submit_ns", own("daemon.submit") / subs);
    if count("daemon.idle_step") > 0.0 {
        out.insert("daemon.idle_step_ns", own("daemon.idle_step") / count("daemon.idle_step"));
    }

    // Outbound: a response per submission plus a notice per admitted one.
    let encoded: Vec<Vec<u8>> = outbound.iter().map(encode_frame).collect();
    let bodies = encoded
        .iter()
        .map(|f| payload_text(f).and_then(|t| json::parse(t).map_err(err("own payload"))))
        .collect::<Result<Vec<_>, _>>()?;
    let per_sub = outbound.len() as f64 / subs;
    let emit_ns = per_sub
        * ns_per_item(&bodies, |body| {
            black_box(black_box(body).to_pretty());
        });
    let encode_ns = per_sub
        * ns_per_item(&outbound, |frame| {
            black_box(encode_frame(black_box(frame)));
        });

    let syscalls = syscall_ns(frames, &responses, &same_instant_runs(schedule))?;
    out.insert("core.json.parse_ns", parse_ns);
    out.insert("core.json.emit_ns", emit_ns);
    out.insert("wire.decode_ns", (decode_ns - parse_ns).max(0.0));
    out.insert("wire.encode_ns", (encode_ns - emit_ns).max(0.0));
    out.insert("transport.syscall_ns", syscalls);
    Ok(decode_ns + inproc_ns + encode_ns + syscalls)
}
