//! `rotary-e2e` — the repository's end-to-end benchmark.
//!
//! One invocation sets one workload up from a seed, runs back-to-back
//! timed trials of it in this process (fresh daemon and backend each),
//! checks every trial's outcome ledger against the in-process oracle, and
//! prints every metric as `name unit value`. The last line of standard
//! output is the result as one JSON object (the form `BENCHMARK.json`'s
//! driver reads): the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. See `README.md` beside this crate.

mod drive;
mod host;
mod metrics;
mod probes;
mod span;
mod stats;
mod workloads;

use drive::Trial;
use metrics::{MetricDef, Values, END_TO_END, PER_LAYER, WORKLOADS};
use span::{by_layer, LayerTime, Tracer};
use stats::{median, percentile, summarize, Summary};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;
use workloads::{BackendLayer, Workload};

/// Fewest timed trials a run reports a median of.
const MIN_TRIALS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    sets: usize,
    scratch: PathBuf,
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
    format!(
        "usage: run.sh --workload <{}> [--seed n] [--seconds s] [--trace 0|1] [--sets n] [--verify]",
        names.join("|")
    )
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 33,
        seconds: 15.0,
        trace: false,
        sets: 1,
        scratch: PathBuf::from("target/e2e-scratch"),
    };
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value\n{}", usage()));
        let bad = |what: &str| format!("{flag}: {what}\n{}", usage());
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = value()?.parse().map_err(|_| bad("not a whole number"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| bad("not a number"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(bad("must lie in (0, 600]"));
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                }
            }
            "--sets" => {
                args.sets = value()?.parse().map_err(|_| bad("not a whole number"))?;
                if args.sets == 0 {
                    return Err(bad("must be at least 1"));
                }
            }
            "--scratch" => args.scratch = PathBuf::from(value()?),
            // The oracles run on every invocation (the result must say
            // whether outputs were correct), so the flag changes nothing.
            "--verify" => {}
            _ => return Err(format!("unknown argument {flag}\n{}", usage())),
        }
    }
    if !WORKLOADS.iter().any(|(name, _)| *name == args.workload) {
        return Err(format!("unknown workload '{}'\n{}", args.workload, usage()));
    }
    Ok(args)
}

/// Sets the workload up repeatedly (cold each time: the previous one is
/// dropped first) and returns the last one with every set-up's wall time.
/// Cheap set-ups repeat more often, so that their median is steady too.
fn set_up(args: &Args) -> Result<(Box<dyn Workload>, Vec<f64>), String> {
    let started = Instant::now();
    let mut walls = Vec::new();
    let mut workload: Option<Box<dyn Workload>> = None;
    while walls.len() < 3 || (walls.len() < 25 && started.elapsed().as_secs_f64() < 2.0) {
        drop(workload.take());
        let built = workloads::build(&args.workload, args.seed, args.scratch.clone())?;
        walls.push(built.setup().total_s);
        workload = Some(built);
    }
    workload.map(|w| (w, walls)).ok_or_else(|| "no set-up ran".to_string())
}

fn fmt_summary(s: &Summary) -> String {
    format!(
        "n={} min={:.6} q1={:.6} med={:.6} q3={:.6} max={:.6} iqr={:.2}%",
        s.n,
        s.min,
        s.q1,
        s.median,
        s.q3,
        s.max,
        s.iqr_share() * 100.0
    )
}

fn print_metrics(defs: &[MetricDef], values: &Values) {
    for def in defs {
        let value = values.get(def.name).copied().unwrap_or(0.0);
        println!("{:<28} {:<6} {}", def.name, def.unit, value);
    }
}

/// Checks a trial against the oracle and the first trial, returning how
/// many operations count as failed.
fn judge(workload: &dyn Workload, trial: &Trial, oracle: &str, first: Option<&Trial>) -> u64 {
    let mut failed = trial.failed(workload.under_fault_plan());
    if failed > 0 {
        eprintln!("contract breach: {failed} operations failed ({:?})", trial.counters);
    }
    if trial.trace != oracle {
        eprintln!("oracle mismatch: the trial's outcome ledger differs from run_schedule's");
        failed += 1;
    }
    if first.is_some_and(|f| f.counters != trial.counters || f.wait_p99_ms != trial.wait_p99_ms) {
        eprintln!("nondeterminism: two trials of one schedule disagree on the counters");
        failed += 1;
    }
    failed
}

fn rate(trial: &Trial) -> f64 {
    trial.answered as f64 / trial.wall_s
}

/// The end-to-end run: tracing off, trials until `--seconds` are used.
fn run_end_to_end(args: &Args) -> Result<bool, String> {
    let (workload, setups) = set_up(args)?;
    let oracle = workload.oracle_trace()?;

    let tracer = Tracer::off();
    let started = Instant::now();
    let mut trials: Vec<Trial> = Vec::new();
    let (mut door_p50, mut door_p99, mut door_samples) = (Vec::new(), Vec::new(), 0);
    let mut failed = 0u64;
    while trials.len() < MIN_TRIALS || started.elapsed().as_secs_f64() < args.seconds {
        let mut trial = workload.trial(&tracer)?;
        failed += judge(workload.as_ref(), &trial, &oracle, trials.first());
        // Peak memory must not grow with the number of trials a fast host
        // fits into the run: keep the numbers, drop the bulk.
        door_p50.push(trial.door_us(0.50));
        door_p99.push(trial.door_us(0.99));
        door_samples = trial.door_ns.len();
        trial.trace = String::new();
        trial.door_ns = Vec::new();
        trials.push(trial);
    }
    let measured_s = started.elapsed().as_secs_f64();

    let rates: Vec<f64> = trials.iter().map(rate).collect();
    let door = summarize(&door_p50).ok_or("no trial sample")?;
    let first = &trials[0];
    let c = &first.counters;
    let setup = summarize(&setups).ok_or("no set-up sample")?;
    let tput = summarize(&rates).ok_or("no trial sample")?;

    let mut values = Values::new();
    values.insert("setup_s", setup.median);
    values.insert("subs_per_s", tput.median);
    values.insert("door_p50_us", door.median);
    values.insert("peak_rss_mb", host::peak_rss_mb()?);
    values.insert("served_rate", c.completed() as f64 / c.submissions.max(1) as f64);

    println!("{}", host::facts_line(workloads::THREADS));
    println!(
        "run: workload={} seed={} trials={} measured_s={measured_s:.3} trial_s={:.3} {}",
        args.workload,
        args.seed,
        trials.len(),
        measured_s / trials.len() as f64,
        workload.facts()
    );
    println!("set-up s      {}", fmt_summary(&setup));
    println!("subs_per_s    {}", fmt_summary(&tput));
    let each: Vec<String> = rates.iter().map(|r| format!("{r:.1}")).collect();
    println!("each trial    {}", each.join(" "));
    println!("door_p50_us   {}", fmt_summary(&door));
    println!(
        "door samples  {} per trial; p99_us median over trials {:.3}",
        door_samples,
        median(&door_p99).unwrap_or(0.0)
    );
    println!(
        "outcomes      submissions={} admitted={} rejected={} shed={} attained={} falsely={} \
         missed={} failed={} virt_wait_p99_ms={}",
        c.submissions,
        c.admitted,
        c.rejected(),
        c.shed(),
        c.completed_attained,
        c.completed_falsely,
        c.completed_missed,
        c.completed_failed,
        first.wait_p99_ms
    );
    let attempted: u64 = trials.iter().map(|t| t.submissions).sum();
    println!(
        "attain_rate   {} (completed_attained / admitted; per-layer metric daemon.attain_rate)",
        c.completed_attained as f64 / c.admitted.max(1) as f64
    );
    println!("failed_rate   {failed} of {attempted}");
    // One machine-readable spread line per wall-clock metric, for `--sets`.
    println!("spread setup_s {}", setup.iqr_share());
    println!("spread subs_per_s {}", tput.iqr_share());
    println!("spread door_p50_us {}", door.iqr_share());
    print_metrics(END_TO_END, &values);
    println!("{}", metrics::result_line(END_TO_END, &values, failed == 0, attempted, failed)?);
    Ok(failed == 0)
}

fn mean_us(layer: Option<&LayerTime>) -> f64 {
    layer.map_or(0.0, |l| l.self_ns as f64 / l.count.max(1) as f64 / 1e3)
}

fn mean_total_ms(layer: Option<&LayerTime>) -> f64 {
    layer.map_or(0.0, |l| l.total_ns as f64 / l.count.max(1) as f64 / 1e6)
}

/// The traced run: untraced and traced trials in alternation for half of
/// `--seconds`, then the layer probes.
fn run_traced(args: &Args) -> Result<bool, String> {
    let (workload, _) = set_up(args)?;
    let setup = workload.setup();
    let oracle = workload.oracle_trace()?;

    let tracer = Tracer::on();
    let started = Instant::now();
    let (mut plain, mut traced): (Vec<Trial>, Vec<Trial>) = (Vec::new(), Vec::new());
    let mut layers: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    let mut last_spans = Vec::new();
    let mut failed = 0u64;
    while plain.is_empty() || started.elapsed().as_secs_f64() < args.seconds / 2.0 {
        let trial = workload.trial(&Tracer::off())?;
        failed += judge(workload.as_ref(), &trial, &oracle, plain.first());
        plain.push(trial);
        let trial = workload.trial(&tracer)?;
        failed += judge(workload.as_ref(), &trial, &oracle, plain.first());
        traced.push(trial);
        last_spans = tracer.take();
        for (name, layer) in by_layer(&last_spans) {
            let sum = layers.entry(name).or_default();
            sum.count += layer.count;
            sum.total_ns += layer.total_ns;
            sum.self_ns += layer.self_ns;
            sum.each_self_ns.extend(layer.each_self_ns);
        }
    }

    let runs = traced.len() as f64;
    let subs: f64 = traced.iter().map(|t| t.submissions as f64).sum();
    let traced_wall_ns: f64 = traced.iter().map(|t| t.wall_s * 1e9).sum();
    let plain_rates: Vec<f64> = plain.iter().map(rate).collect();
    let traced_rates: Vec<f64> = traced.iter().map(rate).collect();
    let plain_rate = median(&plain_rates).ok_or("no untraced trial")?;
    let traced_rate = median(&traced_rates).ok_or("no traced trial")?;
    let wall_ns_per_sub =
        median(&plain.iter().map(|t| t.wall_s * 1e9 / t.submissions as f64).collect::<Vec<_>>())
            .ok_or("no untraced trial")?;
    let first = &traced[0];
    let c = &first.counters;
    let total_ns = |name: &str| layers.get(name).map_or(0.0, |l| l.total_ns as f64);
    let self_ns = |name: &str| layers.get(name).map_or(0.0, |l| l.self_ns as f64);

    let mut v = Values::new();
    v.insert("tpch.gen_s", setup.tpch_gen_s);
    v.insert("tpch.lineitem_rows", setup.lineitem_rows as f64);

    // The backend seam, reported under the layer behind it.
    let step = layers.get("backend.step");
    let steps_us: Vec<u64> = step.map_or(Vec::new(), |l| l.each_self_ns.clone());
    match workload.backend_layer() {
        BackendLayer::Aqp => {
            v.insert("aqp.history_s", setup.history_s);
            v.insert("aqp.validate_us", mean_us(layers.get("backend.validate")));
            v.insert("aqp.admit_us", mean_us(layers.get("backend.admit")));
            v.insert("aqp.step_us", percentile(&steps_us, 0.50) as f64 / 1e3);
            v.insert("aqp.step_p99_us", percentile(&steps_us, 0.99) as f64 / 1e3);
            v.insert("aqp.steps", step.map_or(0.0, |l| l.count as f64) / runs);
            v.insert("aqp.step_busy_share", total_ns("backend.step") / traced_wall_ns);
        }
        BackendLayer::Dlt => {
            v.insert("dlt.history_s", setup.history_s);
            v.insert("dlt.admit_us", mean_us(layers.get("backend.admit")));
            v.insert("dlt.step_us", percentile(&steps_us, 0.50) as f64 / 1e3);
            v.insert("dlt.steps", step.map_or(0.0, |l| l.count as f64) / runs);
            v.insert("dlt.step_busy_share", total_ns("backend.step") / traced_wall_ns);
        }
        BackendLayer::Sim => {}
    }

    // The daemon. Socket workloads get their submit/idle-step self times
    // from the in-process replay inside the probes instead.
    if let Some(submit) = layers.get("daemon.submit") {
        v.insert("daemon.submit_ns", submit.self_ns as f64 / subs);
        let idle = layers.get("daemon.idle_step");
        v.insert("daemon.idle_step_ns", idle.map_or(0.0, |l| l.self_ns as f64 / l.count as f64));
    }
    v.insert("daemon.queue_peak", first.queue_peak as f64);
    v.insert("daemon.admitted", c.admitted as f64);
    v.insert("daemon.rejected", c.rejected() as f64);
    v.insert("daemon.shed", c.shed() as f64);
    v.insert("daemon.attain_rate", c.completed_attained as f64 / c.admitted.max(1) as f64);
    v.insert("daemon.virt_wait_p99_ms", first.wait_p99_ms as f64);
    let garbage = c.rejected_malformed + c.rejected_oversized + c.rejected_duplicate;
    v.insert("faults.sub_rejects", garbage as f64);

    // The store.
    if let Some(store) = &first.store {
        let resumes: Vec<f64> = traced
            .iter()
            .filter_map(|t| t.store.as_ref())
            .flat_map(|s| s.resume_s.clone())
            .collect();
        v.insert("store.snapshot_encode_ms", mean_total_ms(layers.get("daemon.snapshot_records")));
        v.insert("store.commit_ms", mean_total_ms(layers.get("store.commit")));
        v.insert("store.load_ms", mean_total_ms(layers.get("store.latest_valid")));
        v.insert("store.restore_ms", mean_total_ms(layers.get("daemon.restore")));
        v.insert("store.resume_s", median(&resumes).unwrap_or(0.0));
        v.insert("store.snap_mb", store.snap_bytes as f64 / 1e6);
        v.insert(
            "store.bytes_per_snapshot",
            store.snap_bytes as f64 / store.snapshots.max(1) as f64,
        );
        v.insert("store.snapshots", store.snapshots as f64);
        v.insert("store.corrupt_skipped", store.corrupt_skipped as f64);
    }

    // Probes and replays; then the transport, which needs their stage sum.
    let stage_sum = workload.probe_layers(wall_ns_per_sub, &mut v)?;
    let mut stage_line = None;
    if let Some(net) = &first.net {
        let door_p99: Vec<f64> = traced.iter().map(|t| t.door_us(0.99)).collect();
        let poll_ns = total_ns("transport.poll") / subs;
        v.insert("transport.poll_ns", poll_ns);
        v.insert("transport.polls_per_sub", net.polls as f64 / first.submissions as f64);
        v.insert("transport.door_p99_us", median(&door_p99).unwrap_or(0.0));
        v.insert("transport.error_closes", net.error_closes as f64);
        v.insert("wire.bytes_per_sub", net.wire_bytes as f64 / first.submissions as f64);
        let client = self_ns("client.write") + self_ns("client.read");
        v.insert("gen.client_share", client / traced_wall_ns);
        if let Some(sum) = stage_sum {
            let residual = poll_ns - sum;
            v.insert("transport.residual_ns", residual);
            let gap = residual / poll_ns;
            stage_line = Some(format!(
                "stage-sum     replayed stages {sum:.0} ns vs poll {poll_ns:.0} ns per submission: \
                 residual {residual:.0} ns ({:.1}%) — {}",
                gap * 100.0,
                if gap.abs() <= 0.10 { "within 10%" } else { "OUTSIDE 10%, unexplained" }
            ));
        }
    }
    v.insert("trace.overhead_pct", (1.0 - traced_rate / plain_rate) * 100.0);

    let dump = args.scratch.join(format!("spans-{}-{}.tsv", args.workload, args.seed));
    std::fs::create_dir_all(&args.scratch)
        .and_then(|()| std::fs::write(&dump, span::dump(&last_spans)))
        .map_err(|e| format!("cannot write {}: {e}", dump.display()))?;

    println!("{}", host::facts_line(workloads::THREADS));
    println!(
        "run: workload={} seed={} traced_trials={} untraced_trials={} {}",
        args.workload,
        args.seed,
        traced.len(),
        plain.len(),
        workload.facts()
    );
    println!("engine.par_speedup is informational: nproc={}", host::nproc());
    if let Some(line) = stage_line {
        println!("{line}");
    }
    println!(
        "span dump     {} ({} spans of the last traced trial)",
        dump.display(),
        last_spans.len()
    );
    print_metrics(PER_LAYER, &v);
    let attempted: u64 = plain.iter().chain(&traced).map(|t| t.submissions).sum();
    println!("{}", metrics::result_line(PER_LAYER, &v, failed == 0, attempted, failed)?);
    Ok(failed == 0)
}

/// One child run's verdict inputs.
struct SetResult {
    values: BTreeMap<String, f64>,
    spreads: BTreeMap<String, f64>,
}

/// A/A mode: runs the same end-to-end measurement `sets` times, each in a
/// fresh process, and holds every later set against the first by the
/// benchmark's own bounds.
fn run_sets(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut results = Vec::new();
    for set in 1..=args.sets {
        println!("== set {set} of {} ==", args.sets);
        let output = std::process::Command::new(&exe)
            .args(["--workload", &args.workload, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string(), "--trace", "0"])
            .arg("--scratch")
            .arg(&args.scratch)
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot run set {set}: {e}"))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        print!("{stdout}");
        if !output.status.success() {
            return Err(format!("set {set} failed"));
        }
        let last = stdout.lines().last().ok_or("set printed nothing")?;
        let doc = rotary::core::json::parse(last).map_err(|e| format!("set {set} result: {e}"))?;
        let mut result = SetResult { values: BTreeMap::new(), spreads: BTreeMap::new() };
        for def in END_TO_END {
            let value = doc
                .get("metrics")
                .and_then(|m| m.get(def.name))
                .and_then(|m| m.get("value"))
                .and_then(rotary::core::json::Json::as_f64)
                .ok_or_else(|| format!("set {set} result lacks {}", def.name))?;
            result.values.insert(def.name.to_string(), value);
        }
        for line in stdout.lines() {
            if let Some((name, share)) =
                line.strip_prefix("spread ").and_then(|rest| rest.split_once(' '))
            {
                if let Ok(share) = share.parse::<f64>() {
                    result.spreads.insert(name.to_string(), share);
                }
            }
        }
        results.push(result);
    }

    println!("== A/A verdict: every set against set 1 ==");
    let mut agree = true;
    for def in END_TO_END {
        let bound = def.bound.unwrap_or(0.0);
        let base = results[0].values[def.name];
        for (i, other) in results.iter().enumerate().skip(1) {
            let now = other.values[def.name];
            let worse = match def.better {
                metrics::Better::Lower => (now - base) / base,
                metrics::Better::Higher => (base - now) / base,
            };
            let noisy = results.iter().any(|r| r.spreads.get(def.name).is_some_and(|s| *s > bound));
            let verdict = if worse > bound {
                agree = false;
                "DIFFERS"
            } else if noisy {
                "unresolved (trial spread exceeds the bound)"
            } else {
                "agrees"
            };
            println!(
                "{:<14} set1={base} set{}={now} worse_by={:.2}% bound={:.0}% {verdict}",
                def.name,
                i + 1,
                worse * 100.0,
                bound * 100.0
            );
        }
    }
    Ok(agree)
}

/// Prefixes an error with what was being attempted.
fn err<E: std::fmt::Display>(what: &str) -> impl Fn(E) -> String + '_ {
    move |e| format!("{what}: {e}")
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&raw).and_then(|args| {
        if args.sets > 1 {
            run_sets(&args)
        } else if args.trace {
            run_traced(&args)
        } else {
            run_end_to_end(&args)
        }
    });
    match outcome {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("rotary-e2e: {e}");
            std::process::exit(2);
        }
    }
}
