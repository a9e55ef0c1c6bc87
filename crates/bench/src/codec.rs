//! Microbenchmarks of the two byte-level primitives every durable record
//! and every wire frame passes through: `rotary_core::json::parse` and
//! `rotary_store::crc32`. [`measure`] is shared by `benches/codec.rs`
//! (`cargo bench`) and `bench_serve` (the `codec/*` keys of
//! `BENCH_serve.json`). [`frames`] times the wire codec per frame; it is
//! printed by `benches/codec.rs` only and gates nothing.

use crate::timing::{bench, black_box, Stats, SAMPLES};
use rotary_core::error::Result;
use rotary_core::json::{self, u64_json, Json};
use rotary_core::SimTime;
use rotary_faults::{FaultPlan, RetryPolicy};
use rotary_serve::wire::encode_frame_into;
use rotary_serve::{
    decode_frame, encode_frame, open_schedule, Daemon, Frame, LoadGenConfig, LoadMode, ServeConfig,
    SimBackend, TokenBucketConfig,
};
use std::time::Instant;

/// A compact JSON array of `rows` job entries shaped like the `jobs` record
/// of an arbitrator snapshot: nested objects, decimal-string integers,
/// status labels, and float curves. About 1 KB per row.
pub fn jobs_record(rows: u64) -> String {
    let curve = |row: u64, len: u64| {
        let point = |i: u64| {
            let y = ((row * 31 + i * 17) % 997) as f64 / 997.0;
            Json::Arr(vec![Json::Num(i as f64 + 0.5), Json::Num(y)])
        };
        Json::Arr((0..len).map(point).collect())
    };
    let job = |row: u64| {
        let core = Json::obj(vec![
            ("id", u64_json(row)),
            ("status", Json::Str(["running", "waiting", "attained"][(row % 3) as usize].into())),
            ("progress", Json::Num((row % 89) as f64 / 89.0)),
            ("epochs_run", Json::Num((row % 40) as f64)),
            ("arrival", u64_json(row * 1_000)),
            ("deadline", u64_json(row * 1_000 + 1_800_000)),
            ("label", Json::Str(format!("tpch-q{} accuracy ≥ 85 % within 1800 s", row % 22 + 1))),
        ]);
        let estimator = Json::obj(vec![
            ("own", curve(row, 12)),
            ("history", curve(row + 7, 8)),
            ("weights", Json::Arr(vec![Json::Num(0.25), Json::Num(0.75)])),
        ]);
        Json::obj(vec![
            ("core", core),
            ("in_memory", Json::Bool(row.is_multiple_of(2))),
            ("epoch_start", u64_json(row * 1_000 + 250)),
            ("delivered", u64_json(row * 4_096)),
            ("envelopes", Json::Arr(vec![curve(row, 4), curve(row + 1, 4)])),
            ("estimator", estimator),
            ("threads", Json::Num((row % 8) as f64)),
        ])
    };
    Json::Arr((0..rows).map(job).collect()).to_compact()
}

/// Parse cost per byte of `large` over cost per byte of `small`, each from
/// its fastest batch. The two sizes alternate batch by batch, so a slow
/// phase of a shared host taxes both sides of the ratio instead of one.
fn parse_scaling(small: &str, large: &str) -> f64 {
    let mut ns_per_byte = [f64::MAX; 2];
    for _ in 0..SAMPLES {
        for (best, text) in ns_per_byte.iter_mut().zip([small, large]) {
            // Batches of about the large document's size either way.
            let iters = (large.len() / text.len()).max(1);
            let start = Instant::now();
            for _ in 0..iters {
                black_box(json::parse(black_box(text)).is_ok());
            }
            let ns = start.elapsed().as_secs_f64() * 1e9;
            *best = best.min(ns / (iters * text.len()) as f64);
        }
    }
    ns_per_byte[1] / ns_per_byte[0]
}

/// Runs the codec benchmarks (printing one timing line each) and returns
/// the `codec/*` keys. Throughputs are medians in MB/s.
/// `codec/json_parse_scaling` is parse cost per byte at ≈ 1 MB over cost per
/// byte at ≈ 4 KB — about 1 for a linear parser, growing with the size
/// ratio (≈ 250) for one that re-reads the rest of the document per string
/// character.
pub fn measure() -> Vec<(&'static str, f64)> {
    let (small, large) = (jobs_record(4), jobs_record(1_000));
    let mb_s = |bytes: usize, stats: Stats| bytes as f64 / stats.median.as_secs_f64() / 1e6;
    let parse = |text: &str| {
        bench(&format!("json_parse/{}_bytes", text.len()), || {
            black_box(json::parse(black_box(text)).is_ok());
        })
    };
    let (parse_4k, parse_1m) = (parse(&small), parse(&large));
    let crc = bench(&format!("crc32/{}_bytes", large.len()), || {
        black_box(rotary_store::crc32(black_box(large.as_bytes())));
    });
    vec![
        ("codec/json_parse_mb_s_4k", mb_s(small.len(), parse_4k)),
        ("codec/json_parse_mb_s_1m", mb_s(large.len(), parse_1m)),
        ("codec/json_parse_scaling", parse_scaling(&small, &large)),
        ("codec/crc32_mb_s", mb_s(large.len(), crc)),
    ]
}

/// Wire cost of one frame kind.
#[derive(Debug, Clone, Copy)]
pub struct FrameCost {
    /// The kind's wire name.
    pub kind: &'static str,
    /// Frames of the kind timed.
    pub frames: usize,
    /// Mean bytes per frame.
    pub bytes: f64,
    /// `decode_frame`, ns per frame.
    pub decode_ns: f64,
    /// `encode_frame_into` a reused write buffer, ns per frame.
    pub encode_ns: f64,
}

/// Times the wire codec on the frames of a `door_overload`-shaped run:
/// one-shot submissions arriving at 16k/s against ≈ 11.6k/s of simulated
/// capacity, their `submit` frames, and the `submit-resp` and `notice`
/// frames a daemon answers them with. The server decodes submits and
/// encodes the two reply kinds; the client does the reverse. Each figure
/// is the fastest of [`SAMPLES`] passes over every frame of its kind.
///
/// # Errors
/// Only if the fixed load or serve configuration is refused.
pub fn frames(submissions: u64) -> Result<Vec<FrameCost>> {
    let load = LoadGenConfig {
        seed: 33,
        users: submissions,
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
    };
    let config = ServeConfig {
        queue_capacity: 4096,
        bucket: TokenBucketConfig::per_second(1 << 20, 1 << 20),
        max_tenants: submissions,
        max_payload_bytes: 4096,
        max_inflight: 64,
        admission_timeout: SimTime::from_secs(30),
        retry: RetryPolicy::default(),
        pressure_watermark: 0.5,
        shed_watermark: 0.875,
        resume_watermark: 0.5,
        record_outcomes: false,
        retain_payloads: false,
    };
    let mut daemon = Daemon::new(config, SimBackend::new())?;
    let (mut submits, mut resps, mut notices) = (Vec::new(), Vec::new(), Vec::new());
    for (at, sub) in open_schedule(&load)? {
        let frame = Frame::Submit(sub);
        if let Ok(Some((Frame::Submit(stamped), _))) = decode_frame(&encode_frame(&frame)) {
            resps.push(Frame::SubmitResp(daemon.submit(at, &stamped)));
            notices.extend(daemon.take_notices().into_iter().map(Frame::Notice));
        }
        submits.push(frame);
    }
    while daemon.idle_step() {}
    daemon.finish();
    notices.extend(daemon.take_notices().into_iter().map(Frame::Notice));

    let cost = |kind, frames: &[Frame]| {
        let wire: Vec<Vec<u8>> = frames.iter().map(encode_frame).collect();
        let per_frame = |pass: &mut dyn FnMut()| {
            let mut best = f64::MAX;
            for _ in 0..SAMPLES {
                let start = Instant::now();
                pass();
                best = best.min(start.elapsed().as_secs_f64() * 1e9);
            }
            best / frames.len().max(1) as f64
        };
        let decode_ns = per_frame(&mut || {
            for bytes in &wire {
                black_box(decode_frame(black_box(bytes)).is_ok());
            }
        });
        let mut buf = Vec::new();
        let encode_ns = per_frame(&mut || {
            for frame in frames {
                buf.clear();
                encode_frame_into(black_box(frame), &mut buf);
                black_box(&buf);
            }
        });
        let bytes = wire.iter().map(Vec::len).sum::<usize>() as f64 / wire.len().max(1) as f64;
        FrameCost { kind, frames: frames.len(), bytes, decode_ns, encode_ns }
    };
    Ok(vec![cost("submit", &submits), cost("submit-resp", &resps), cost("notice", &notices)])
}
