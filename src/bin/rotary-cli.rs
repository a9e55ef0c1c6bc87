//! `rotary-cli` — run progressive iterative analytic statements from the
//! shell against the simulated cluster.
//!
//! ```text
//! rotary-cli aqp "TPCH Q5 ACC MIN 85% WITHIN 1800 SECONDS" [--sf 0.005] [--seed 7]
//! rotary-cli dlt "TRAIN ResNet-18 ON CIFAR10 ACC MIN 86% WITHIN 30 EPOCHS" [--seed 7]
//! rotary-cli demo [--seed 7]
//! ```
//!
//! Statements use the paper's Fig. 3 criterion grammar; the AQP command
//! prefix names a TPC-H query (`TPCH Q5`, `Q5`, or `q5`), the DLT prefix is
//! the full `TRAIN …` grammar of `rotary_dlt::parse`.
//!
//! Durable runs: add `--snapshot-dir <dir>` to write a checksummed snapshot
//! every `--snapshot-every <n>` completed epochs (default 4); re-run the
//! same command with `--resume` to pick the run back up from the newest
//! valid snapshot — the finished trace is identical to an uninterrupted
//! run.
//!
//! Environment: `ROTARY_FAULT_SEED=n` runs every mode but `serve --listen`
//! under the default chaos fault profile seeded at `n` (unset: no faults);
//! `ROTARY_THREADS=n` gives start-up work (ground-truth scans, history)
//! `n` host threads (unset: 1; results are identical at any value).

use std::path::PathBuf;
use std::process::ExitCode;

use rotary::aqp::{AqpJobSpec, AqpPolicy, AqpSystem, AqpSystemConfig};
use rotary::core::parser::parse_statement;
use rotary::core::progress::Objective;
use rotary::dlt::{parse_train_statement, DltPolicy, DltSystem, DltSystemConfig};
use rotary::engine::QueryId;
use rotary::faults::FaultPlan;
use rotary::store::DurableConfig;
use rotary::tpch::Generator;
use rotary::unified::UnifiedConfig;

struct Options {
    statement: String,
    scale_factor: f64,
    seed: u64,
    jobs: usize,
    snapshot_dir: Option<PathBuf>,
    snapshot_every: u64,
    resume: bool,
    listen: Option<String>,
}

/// The system configs every mode starts from, carrying the run inputs the
/// shell passes in the environment (see the module docs); read once, in
/// `main`.
fn shell_config() -> UnifiedConfig {
    // rotary-lint: allow(D002) composition root: the shell's run inputs enter here.
    let var = |name| std::env::var(name).ok();
    let seed = var("ROTARY_FAULT_SEED").and_then(|v| v.parse().ok());
    let faults = seed.map_or_else(FaultPlan::none, FaultPlan::chaos);
    let threads = var("ROTARY_THREADS").and_then(|v| v.trim().parse().ok()).unwrap_or(1);
    UnifiedConfig {
        aqp: AqpSystemConfig { faults: faults.clone(), threads, ..Default::default() },
        dlt: DltSystemConfig { faults, threads, ..Default::default() },
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  rotary-cli aqp \"<TPCH Qn> <criterion>\" [--sf 0.005] [--seed 7]\n  \
         rotary-cli dlt \"TRAIN <model> … <criterion>\" [--seed 7]\n  \
         rotary-cli demo [--seed 7]\n  \
         rotary-cli serve [--jobs 10] [--sf 0.005] [--seed 7]\n  \
         rotary-cli serve --listen 127.0.0.1:7070\n\ndurability (aqp/dlt):\n  \
         --snapshot-dir <dir>   write checksummed snapshots while running\n  \
         --snapshot-every <n>   snapshot cadence in completed epochs (default 4)\n  \
         --resume               continue from the newest valid snapshot\n\n\
         criteria (paper Fig. 3):\n  \
         ACC MIN 95% WITHIN 3600 SECONDS | ACC DELTA 0.001 WITHIN 30 EPOCHS | FOR 2 HOURS"
    );
    ExitCode::FAILURE
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut statement = None;
    let mut scale_factor = 0.005;
    let mut seed = 7u64;
    let mut jobs = 10usize;
    let mut snapshot_dir = None;
    let mut snapshot_every = 4u64;
    let mut resume = false;
    let mut listen = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--snapshot-dir" => {
                snapshot_dir =
                    Some(PathBuf::from(args.get(i + 1).ok_or("--snapshot-dir needs a path")?));
                i += 2;
            }
            "--snapshot-every" => {
                snapshot_every = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .filter(|v| *v > 0)
                    .ok_or("--snapshot-every needs a positive integer")?;
                i += 2;
            }
            "--resume" => {
                resume = true;
                i += 1;
            }
            "--listen" => {
                listen = Some(
                    args.get(i + 1).ok_or("--listen needs an address like 127.0.0.1:7070")?.clone(),
                );
                i += 2;
            }
            "--sf" => {
                scale_factor = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .filter(|v| *v > 0.0)
                    .ok_or("--sf needs a positive number")?;
                i += 2;
            }
            "--jobs" => {
                jobs = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .filter(|v| *v > 0)
                    .ok_or("--jobs needs a positive integer")?;
                i += 2;
            }
            "--seed" => {
                seed = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .ok_or("--seed needs an integer")?;
                i += 2;
            }
            other if statement.is_none() && !other.starts_with("--") => {
                statement = Some(other.to_string());
                i += 1;
            }
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    if resume && snapshot_dir.is_none() {
        return Err("--resume needs --snapshot-dir to know where the snapshots live".into());
    }
    Ok(Options {
        statement: statement.unwrap_or_default(),
        scale_factor,
        seed,
        jobs,
        snapshot_dir,
        snapshot_every,
        resume,
        listen,
    })
}

/// `TPCH Q5` / `Q5` / `q17` → QueryId.
fn parse_query_id(command: &str) -> Result<QueryId, String> {
    let token = command
        .split_whitespace()
        .last()
        .ok_or("empty AQP command; name a query like `TPCH Q5`")?;
    let digits = token.trim_start_matches(['q', 'Q']);
    let n: u8 =
        digits.parse().map_err(|_| format!("cannot read a TPC-H query number from {token:?}"))?;
    if (1..=22).contains(&n) {
        Ok(QueryId(n))
    } else {
        Err(format!("TPC-H has queries 1..=22, got {n}"))
    }
}

fn run_aqp(opts: &Options, base: &UnifiedConfig) -> Result<(), String> {
    let (command, criterion) = parse_statement(&opts.statement).map_err(|e| e.to_string())?;
    let query = parse_query_id(&command)?;
    let rotary::core::CompletionCriterion::Accuracy { threshold, deadline, .. } = &criterion else {
        return Err("the AQP runner takes accuracy-oriented criteria (ACC MIN … WITHIN …)".into());
    };
    let deadline =
        deadline.time().ok_or("AQP deadlines are in time units (SECONDS/MINUTES/HOURS)")?;

    eprintln!("generating TPC-H (SF {})…", opts.scale_factor);
    let data = Generator::new(opts.seed, opts.scale_factor).generate();
    let mut system = AqpSystem::new(&data, AqpSystemConfig { seed: opts.seed, ..base.aqp.clone() });
    system.prepopulate_history(opts.seed ^ 0xf00d).map_err(|e| e.to_string())?;
    let spec = AqpJobSpec::new(query, *threshold, deadline, rotary::core::SimTime::ZERO);
    let result = match &opts.snapshot_dir {
        Some(dir) => {
            let durable = DurableConfig::new(dir, opts.snapshot_every);
            let outcome = if opts.resume {
                system.resume_durable(&[spec], AqpPolicy::Rotary, &durable)
            } else {
                system.run_durable(&[spec], AqpPolicy::Rotary, &durable)
            };
            outcome
                .map_err(|e| e.to_string())?
                .completed()
                .ok_or("the durable run halted before completion")?
        }
        None => system.run(&[spec], AqpPolicy::Rotary).map_err(|e| e.to_string())?,
    };
    let (_, state) = &result.jobs[0];
    println!("query     : {query} ({})", query.class());
    println!("criterion : {criterion}");
    println!("status    : {:?}", state.status);
    println!("epochs    : {}", state.epochs_run);
    println!(
        "finished  : {} (virtual)",
        state.finished_at.map(|t| t.to_string()).unwrap_or_default()
    );
    Ok(())
}

fn run_dlt(opts: &Options, base: &UnifiedConfig) -> Result<(), String> {
    let spec = parse_train_statement(&opts.statement).map_err(|e| e.to_string())?;
    let mut system = DltSystem::new(DltSystemConfig { seed: opts.seed, ..base.dlt.clone() });
    let policy = DltPolicy::Rotary(Objective::Threshold(0.5));
    let result = match &opts.snapshot_dir {
        Some(dir) => {
            let durable = DurableConfig::new(dir, opts.snapshot_every);
            let outcome = if opts.resume {
                system.resume_durable(std::slice::from_ref(&spec), policy, &durable)
            } else {
                system.run_durable(std::slice::from_ref(&spec), policy, &durable)
            };
            outcome
                .map_err(|e| e.to_string())?
                .completed()
                .ok_or("the durable run halted before completion")?
        }
        None => system.run(std::slice::from_ref(&spec), policy),
    };
    let (submitted, state) = &result.jobs[0];
    println!(
        "job       : {} batch {} {} lr {}{}",
        submitted.config.arch,
        submitted.config.batch_size,
        submitted.config.optimizer.name(),
        submitted.config.learning_rate,
        if submitted.config.pretrained { " (fine-tune)" } else { "" }
    );
    println!("criterion : {}", submitted.criterion);
    println!("status    : {:?}", state.status);
    println!("epochs    : {}", state.epochs_run);
    println!("accuracy  : {:.1}%", state.latest().map(|s| s.metric_value).unwrap_or(0.0) * 100.0);
    println!(
        "finished  : {} (virtual)",
        state.finished_at.map(|t| t.to_string()).unwrap_or_default()
    );
    Ok(())
}

fn run_demo(opts: &Options, base: &UnifiedConfig) -> Result<(), String> {
    use rotary::aqp::WorkloadBuilder;
    use rotary::dlt::DltWorkloadBuilder;
    use rotary::unified::UnifiedCluster;

    eprintln!("generating TPC-H (SF {})…", opts.scale_factor);
    let data = Generator::new(opts.seed, opts.scale_factor).generate();
    let mut cluster = UnifiedCluster::new(&data, base.clone());
    let queries = WorkloadBuilder::paper().jobs(10).seed(opts.seed).build();
    let trainings = DltWorkloadBuilder::paper().jobs(10).seed(opts.seed).build();
    cluster.prepopulate_history(&trainings, opts.seed ^ 0xbeef).map_err(|e| e.to_string())?;
    let result = cluster
        .run(&queries, &trainings, AqpPolicy::Rotary, DltPolicy::Rotary(Objective::Threshold(0.5)))
        .map_err(|e| e.to_string())?;
    println!(
        "mixed demo: {} AQP + {} DLT jobs → ψ = {:.0}%, makespan {}",
        queries.len(),
        trainings.len(),
        result.combined_attainment_rate() * 100.0,
        result.makespan()
    );
    println!(
        "AQP: {} attained / {} false / {} missed   DLT: {} attained / {} missed",
        result.aqp.summary.attained,
        result.aqp.summary.falsely_attained,
        result.aqp.summary.deadline_missed,
        result.dlt.summary.attained,
        result.dlt.summary.deadline_missed
    );
    Ok(())
}

fn run_serve(opts: &Options, base: &UnifiedConfig) -> Result<(), String> {
    use rotary::aqp::WorkloadBuilder;
    use rotary::dlt::DltWorkloadBuilder;
    use rotary::unified::UnifiedCluster;

    eprintln!("generating TPC-H (SF {})…", opts.scale_factor);
    let data = Generator::new(opts.seed, opts.scale_factor).generate();
    let mut cluster = UnifiedCluster::new(&data, base.clone());
    let queries = WorkloadBuilder::paper().jobs(opts.jobs).seed(opts.seed).build();
    let trainings = DltWorkloadBuilder::paper().jobs(opts.jobs).seed(opts.seed).build();
    cluster.prepopulate_history(&trainings, opts.seed ^ 0xbeef).map_err(|e| e.to_string())?;
    let report = cluster
        .serve(
            &queries,
            &trainings,
            AqpPolicy::Rotary,
            DltPolicy::Rotary(Objective::Threshold(0.5)),
        )
        .map_err(|e| e.to_string())?;
    println!(
        "served: {} AQP + {} DLT submissions → ψ = {:.0}%",
        queries.len(),
        trainings.len(),
        report.combined_attainment_rate() * 100.0
    );
    for (pool, m) in [("AQP", &report.aqp.metrics), ("DLT", &report.dlt.metrics)] {
        println!(
            "{pool}: {} admitted / {} rejected / {} shed; \
             {} attained, {} false, {} missed, {} failed; \
             wait p50 {} ms p99 {} ms",
            m.counters.admitted,
            m.counters.rejected(),
            m.counters.shed(),
            m.counters.completed_attained,
            m.counters.completed_falsely,
            m.counters.completed_missed,
            m.counters.completed_failed,
            m.p50_wait_ms,
            m.p99_wait_ms
        );
    }
    let failed =
        report.aqp.metrics.counters.completed_failed + report.dlt.metrics.counters.completed_failed;
    if failed > 0 {
        return Err(format!("{failed} admitted submissions failed inside the backend"));
    }
    Ok(())
}

/// `serve --listen <addr>`: the real TCP front-end over the framed wire
/// protocol, serving the simulated backend until a client sends a Drain
/// frame. This is the one place outside `rotary-bench` where wall time
/// enters the system: the composition root turns a monotonic clock into
/// the millisecond counter the transport runs on, and everything below
/// the [`rotary::serve::Listener`] stays on that injected clock.
fn run_listen(addr: &str) -> Result<(), String> {
    use rotary::core::SimTime;
    use rotary::faults::RetryPolicy;
    use rotary::serve::{
        Daemon, Listener, ServeConfig, SimBackend, TokenBucketConfig, TransportConfig,
    };

    let config = ServeConfig {
        queue_capacity: 1 << 10,
        bucket: TokenBucketConfig::per_second(1 << 20, 1 << 20),
        max_tenants: 1 << 10,
        max_payload_bytes: 1 << 16,
        max_inflight: 64,
        admission_timeout: SimTime::from_mins(5),
        retry: RetryPolicy::default(),
        pressure_watermark: 0.5,
        shed_watermark: 0.875,
        resume_watermark: 0.5,
        record_outcomes: false,
        retain_payloads: false,
    };
    let daemon = Daemon::new(config, SimBackend::new()).map_err(|e| e.to_string())?;
    // rotary-lint: allow(D002) composition root: the CLI serve loop is the
    // blessed boundary where wall time becomes the transport's clock.
    let epoch = std::time::Instant::now();
    let clock = move || epoch.elapsed().as_millis() as u64;
    let mut listener = Listener::bind(addr, TransportConfig::small(), daemon, clock)
        .map_err(|e| format!("cannot listen on {addr}: {e}"))?;
    let bound = listener.local_addr().map_err(|e| e.to_string())?;
    eprintln!("listening on {bound} (framed wire protocol; a Drain frame stops the server)");
    while !listener.is_finished() {
        if !listener.poll() {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }
    let stats = listener.stats().clone();
    let daemon = listener.into_daemon();
    let m = daemon.metrics();
    println!(
        "drained: {} connections served, {} wire errors; \
         {} submissions → {} admitted / {} rejected / {} shed; \
         {} attained, {} failed",
        stats.accepted,
        stats.wire_errors,
        m.counters.submissions,
        m.counters.admitted,
        m.counters.rejected(),
        m.counters.shed(),
        m.counters.completed_attained,
        m.counters.completed_failed,
    );
    if m.counters.completed_failed > 0 {
        return Err(format!(
            "{} admitted submissions failed inside the backend",
            m.counters.completed_failed
        ));
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(mode) = args.first() else {
        return usage();
    };
    let opts = match parse_options(&args[1..]) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return usage();
        }
    };
    let base = shell_config();
    let outcome = match mode.as_str() {
        "aqp" if !opts.statement.is_empty() => run_aqp(&opts, &base),
        "dlt" if !opts.statement.is_empty() => run_dlt(&opts, &base),
        "demo" => run_demo(&opts, &base),
        "serve" => match &opts.listen {
            Some(addr) => run_listen(addr),
            None => run_serve(&opts, &base),
        },
        _ => return usage(),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
