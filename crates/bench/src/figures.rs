//! The experiment table behind Figs 6–10 and the two ablations.
//!
//! A run is a workload, a policy, a config and warm or cold history; it
//! executes once per seed of the table's population. A [`View`] is one
//! paper-style figure and reads its cells from the runs, so a run several
//! figures show is simulated once. A claim is a paired per-seed margin
//! between runs, judged by one rule ([`Status::of`]). The `figures` binary
//! runs the table into `FIGURES.json` and renders EXPERIMENTS.md's marked
//! blocks from that file; `tests/figures.rs` holds the three together.

use std::collections::BTreeMap;

use rotary_aqp::{AqpPolicy, AqpSystem, AqpSystemConfig, ClassMix, WorkloadBuilder};
use rotary_core::json::{self, Json};
use rotary_core::progress::Objective;
use rotary_core::resources::GpuPoolSpec;
use rotary_core::SimTime;
use rotary_dlt::{DltPolicy, DltSystem, DltSystemConfig, DltWorkloadBuilder};
use rotary_engine::QueryClass;
use rotary_sim::{CheckpointModel, MaterializationPolicy};
use rotary_tpch::{Generator, TpchData};

/// A population's mean and the standard error of that mean.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    /// The mean.
    pub mean: f64,
    /// The sample standard deviation over √n.
    pub se: f64,
}

impl Estimate {
    /// The mean and standard error of per-seed values: an error for fewer
    /// than two values or a value that is not finite.
    pub fn of(values: &[f64]) -> Result<Estimate, String> {
        finite(values)?;
        if values.len() < 2 {
            return Err(format!("{} seed(s): a standard error needs at least 2", values.len()));
        }
        let n = values.len() as f64;
        let mean = values.iter().sum::<f64>() / n;
        let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / (n - 1.0);
        Ok(Estimate { mean, se: (var / n).sqrt() })
    }
}

fn finite(values: &[f64]) -> Result<(), String> {
    match values.iter().find(|v| !v.is_finite()) {
        Some(v) => Err(format!("a per-seed value is {v}")),
        None => Ok(()),
    }
}

/// The paired per-seed margin of `run` over the best of `against` at each
/// seed, signed by `metric`'s direction so that a positive one favours `run`.
pub fn margin(run: &[f64], against: &[&[f64]], metric: Metric) -> Result<Estimate, String> {
    if against.is_empty() || against.iter().any(|rival| rival.len() != run.len()) {
        return Err("a margin needs rivals with one value per seed".to_string());
    }
    [run].iter().chain(against).try_for_each(|values| finite(values))?;
    let per_seed: Vec<f64> = (0..run.len())
        .map(|i| {
            let rivals = against.iter().map(|rival| rival[i]);
            if metric.lower_is_better() {
                rivals.fold(f64::INFINITY, f64::min) - run[i]
            } else {
                run[i] - rivals.fold(f64::NEG_INFINITY, f64::max)
            }
        })
        .collect();
    Estimate::of(&per_seed)
}

/// A claim's verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// The margin exceeds two standard errors.
    Holds,
    /// The margin is within two standard errors of zero, bounds included.
    Tie,
    /// The margin is below minus two standard errors.
    Loss,
}

impl Status {
    /// The margin rule: holds above 2 s.e., a tie within ±2 s.e., else a loss.
    pub fn of(margin: Estimate) -> Status {
        if margin.mean.abs() <= 2.0 * margin.se {
            Status::Tie
        } else if margin.mean > 0.0 {
            Status::Holds
        } else {
            Status::Loss
        }
    }

    /// The word `FIGURES.json` and EXPERIMENTS.md print.
    pub fn name(self) -> String {
        format!("{self:?}").to_lowercase()
    }
}

/// The minutes at which a DLT run reports its progress floor and completions.
const MARKS: [u64; 6] = [60, 120, 180, 240, 300, 360];

/// One number a run reports per seed; its `Debug` form is its key in
/// `FIGURES.json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// AQP: jobs attained.
    Attained,
    /// AQP: jobs of one query class attained.
    Class(QueryClass),
    /// AQP: jobs declared attained whose true accuracy fell short.
    FalselyAttained,
    /// AQP: jobs that missed their deadline.
    Missed,
    /// AQP: mean waiting time, in seconds.
    WaitS,
    /// DLT: the lowest attainment progress over all jobs at a mark.
    Floor(u64),
    /// DLT: jobs attained by a mark.
    AttainedBy(u64),
    /// DLT: time until the last job finished, in seconds.
    MakespanS,
}

impl Metric {
    /// Whether less is better.
    fn lower_is_better(self) -> bool {
        matches!(self, Metric::FalselyAttained | Metric::Missed | Metric::WaitS | Metric::MakespanS)
    }

    fn decimals(self) -> usize {
        match self {
            Metric::WaitS | Metric::MakespanS => 0,
            Metric::Floor(_) => 3,
            _ => 2,
        }
    }
}

/// What a run executes: a Table I workload of the given class mix, or the
/// Table II workload, under a policy; the config's `seed` becomes the run's.
#[derive(Debug, Clone)]
enum Setup {
    Aqp(ClassMix, AqpPolicy, AqpSystemConfig),
    Dlt(DltPolicy, DltSystemConfig),
}

/// A run of the table, named by its key in `FIGURES.json`; `warm`
/// prepopulates the history repository.
#[derive(Debug, Clone)]
struct Run {
    name: String,
    setup: Setup,
    warm: bool,
}

impl Run {
    /// Executes the run once at `seed`; returns every metric it reports.
    fn at(&self, data: &TpchData, seed: u64) -> Result<Vec<(Metric, f64)>, String> {
        match &self.setup {
            Setup::Aqp(mix, policy, config) => {
                let specs = WorkloadBuilder::paper().mix(*mix).seed(seed).build();
                let mut sys = AqpSystem::new(data, AqpSystemConfig { seed, ..config.clone() });
                if self.warm {
                    sys.prepopulate_history(seed ^ 0xff).map_err(|e| e.to_string())?;
                }
                let r = sys.run(&specs, *policy).map_err(|e| e.to_string())?;
                let by_class = r.attained_by_class();
                let mut out = vec![(Metric::Attained, r.summary.attained as f64)];
                for class in [QueryClass::Light, QueryClass::Medium, QueryClass::Heavy] {
                    let attained = by_class.get(&class).map_or(0, |&(attained, _)| attained);
                    out.push((Metric::Class(class), attained as f64));
                }
                out.push((Metric::FalselyAttained, r.summary.falsely_attained as f64));
                out.push((Metric::Missed, r.summary.deadline_missed as f64));
                out.push((Metric::WaitS, r.summary.avg_waiting_time.as_secs_f64()));
                Ok(out)
            }
            Setup::Dlt(policy, config) => {
                let specs = DltWorkloadBuilder::paper().seed(seed).build();
                let mut sys = DltSystem::new(DltSystemConfig { seed, ..config.clone() });
                if self.warm {
                    sys.prepopulate_history(&specs, seed ^ 0xaa);
                }
                let r = sys.run(&specs, *policy);
                let mut out = Vec::new();
                for mins in MARKS {
                    let t = SimTime::from_mins(mins);
                    let min = r.attainment_progress_at(t).into_iter().fold(f64::INFINITY, f64::min);
                    out.push((Metric::Floor(mins), min));
                    out.push((Metric::AttainedBy(mins), r.attained_by(t) as f64));
                }
                out.push((Metric::MakespanS, r.makespan.as_secs_f64()));
                Ok(out)
            }
        }
    }
}

/// A paper-style figure, rendered between its `figures:ID` markers in
/// EXPERIMENTS.md: headings, then per row a label and per cell a run and
/// metric, then the claims the paper makes about it.
#[derive(Debug, Clone)]
pub struct View {
    /// The marker id.
    pub id: &'static str,
    /// The printed heading.
    pub title: &'static str,
    columns: Vec<&'static str>,
    rows: Vec<(&'static str, Vec<(String, Metric)>)>,
    claims: Vec<Claim>,
}

/// A comparison the paper makes: `run`'s margin on `metric` over the best
/// of `against` at each seed, and the status the population must give it.
#[derive(Debug, Clone)]
struct Claim {
    label: &'static str,
    metric: Metric,
    run: &'static str,
    against: Vec<&'static str>,
    declared: Status,
}

impl Claim {
    /// The paired margin over the population.
    fn margin(&self, results: &Results) -> Result<Estimate, String> {
        let series = |run| series(results, run, self.metric);
        let against = self.against.iter().map(|run| series(run)).collect::<Result<Vec<_>, _>>()?;
        margin(series(self.run)?, &against, self.metric)
            .map_err(|e| format!("claim {}: {e}", self.label))
    }
}

/// run name → metric key (its `Debug` form) → one value per seed.
pub type Results = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

/// One run's per-seed values of one metric.
fn series<'r>(results: &'r Results, run: &str, metric: Metric) -> Result<&'r [f64], String> {
    let found = results.get(run).and_then(|metrics| metrics.get(&format!("{metric:?}")));
    found.map(Vec::as_slice).ok_or_else(|| format!("no values for {run} {metric:?}"))
}

/// The whole experiment: the seed population, runs, and views with their claims.
#[derive(Debug, Clone)]
pub struct Table {
    /// The seeds every run executes at.
    pub seeds: Vec<u64>,
    runs: Vec<Run>,
    /// The figures.
    pub views: Vec<View>,
}

impl Table {
    /// Runs every run at each of `seeds`.
    pub fn run(&self, seeds: &[u64]) -> Result<Results, String> {
        let data = Generator::new(1, 0.005).generate();
        let mut results = Results::new();
        for run in &self.runs {
            for &seed in seeds {
                for (metric, value) in run.at(&data, seed)? {
                    let per_metric = results.entry(run.name.clone()).or_default();
                    per_metric.entry(format!("{metric:?}")).or_default().push(value);
                }
            }
        }
        Ok(results)
    }

    /// Every claim with its key in `FIGURES.json`, `view: label`.
    fn claims(&self) -> impl Iterator<Item = (String, &Claim)> {
        let key = |view: &View, claim: &Claim| format!("{}: {}", view.id, claim.label);
        self.views.iter().flat_map(move |v| v.claims.iter().map(move |c| (key(v, c), c)))
    }

    /// One line per claim whose status differs from its declaration.
    pub fn flipped(&self, results: &Results) -> Result<Vec<String>, String> {
        let mut out = Vec::new();
        for (key, claim) in self.claims() {
            let status = Status::of(claim.margin(results)?);
            if status != claim.declared {
                let (declared, now) = (claim.declared.name(), status.name());
                out.push(format!("{key}: declared {declared}, measured {now}"));
            }
        }
        Ok(out)
    }

    /// `FIGURES.json`: the seeds; per run and metric the mean, s.e. and
    /// per-seed values; per claim its margin, s.e. and status.
    pub fn to_json(&self, results: &Results) -> Result<String, String> {
        let nums = |values: &[f64]| Json::Arr(values.iter().map(|&v| Json::Num(v)).collect());
        let mut runs = Vec::new();
        for (run, metrics) in results {
            let mut fields = Vec::new();
            for (key, values) in metrics {
                let e = Estimate::of(values).map_err(|err| format!("{run} {key}: {err}"))?;
                let entry = vec![("mean", Json::Num(e.mean)), ("se", Json::Num(e.se))];
                fields.push((
                    key.clone(),
                    Json::obj([entry, vec![("values", nums(values))]].concat()),
                ));
            }
            runs.push((run.clone(), Json::Obj(fields)));
        }
        let mut claims = Vec::new();
        for (key, claim) in self.claims() {
            let m = claim.margin(results)?;
            let status = Json::Str(Status::of(m).name());
            let entry =
                vec![("margin", Json::Num(m.mean)), ("se", Json::Num(m.se)), ("status", status)];
            claims.push((key, Json::obj(entry)));
        }
        let seeds: Vec<f64> = self.seeds.iter().map(|&s| s as f64).collect();
        let doc =
            [("seeds", nums(&seeds)), ("runs", Json::Obj(runs)), ("claims", Json::Obj(claims))];
        let mut out = String::new();
        write_layered(&mut out, &Json::obj(doc.to_vec()), 0);
        out.push('\n');
        Ok(out)
    }
}

/// Reads the per-seed values back from `FIGURES.json`; the rest is derived.
pub fn from_json(text: &str) -> Result<Results, String> {
    let shape = || "FIGURES.json is not shaped as `figures` writes it".to_string();
    let object = |json: Option<&Json>| match json {
        Some(Json::Obj(pairs)) => Ok(pairs.clone()),
        _ => Err(shape()),
    };
    let mut results = Results::new();
    for (run, metrics) in object(json::parse(text)?.get("runs"))? {
        for (key, entry) in object(Some(&metrics))? {
            let values = entry.get("values").and_then(Json::as_arr).ok_or_else(shape)?;
            let values: Result<_, _> =
                values.iter().map(|v| v.as_f64().ok_or_else(shape)).collect();
            results.entry(run.clone()).or_default().insert(key, values?);
        }
    }
    Ok(results)
}

/// The document, its run and claim maps, and each run pretty-printed;
/// everything deeper on one line, so a metric's 40 values take one line.
fn write_layered(out: &mut String, value: &Json, indent: usize) {
    let pairs = match value {
        Json::Obj(pairs) if indent < 3 && !pairs.is_empty() => pairs,
        _ => return out.push_str(&value.to_compact()),
    };
    let pad = "  ".repeat(indent + 1);
    for (i, (key, inner)) in pairs.iter().enumerate() {
        let key = Json::Str(key.clone()).to_compact();
        out.push_str(&format!("{}\n{pad}{key}: ", if i == 0 { "{" } else { "," }));
        write_layered(out, inner, indent + 1);
    }
    out.push_str(&format!("\n{}}}", &pad[2..]));
}

/// A view as markdown: its table, then the table of its claims, if any.
pub fn render_view(view: &View, results: &Results) -> Result<String, String> {
    let mut out =
        format!("| {} |\n|{}\n", view.columns.join(" | "), "---|".repeat(view.columns.len()));
    for (label, cells) in &view.rows {
        out.push_str(&format!("| {label} |"));
        for (run, metric) in cells {
            let (e, d) = (Estimate::of(series(results, run, *metric)?)?, metric.decimals());
            out.push_str(&format!(" {:.*} ± {:.*} |", d, e.mean, d, e.se));
        }
        out.push('\n');
    }
    if !view.claims.is_empty() {
        out.push_str("\n| claim | margin ± s.e. | status |\n|---|---|---|\n");
    }
    for claim in &view.claims {
        let (m, d, label) = (claim.margin(results)?, claim.metric.decimals(), claim.label);
        let status = Status::of(m).name();
        out.push_str(&format!("| {label} | {:+.*} ± {:.*} | {status} |\n", d, m.mean, d, m.se));
    }
    Ok(out)
}

/// Rewrites the population's and every view's block of `doc`, and nothing else.
pub fn render_doc(doc: &str, table: &Table, results: &Results) -> Result<String, String> {
    let seeds = format!("Every run executes once per seed of {:?}.\n", table.seeds);
    let mut out = replace_block(doc, "population", &seeds)?;
    for view in &table.views {
        out = replace_block(&out, view.id, &render_view(view, results)?)?;
    }
    Ok(out)
}

fn replace_block(doc: &str, id: &str, body: &str) -> Result<String, String> {
    let (open, close) = (format!("<!-- figures:{id} -->\n"), format!("<!-- /figures:{id} -->"));
    let missing = || format!("EXPERIMENTS.md lacks the markers of block {id}");
    let start = doc.find(&open).ok_or_else(missing)? + open.len();
    let end = start + doc[start..].find(&close).ok_or_else(missing)?;
    Ok(format!("{}{body}{}", &doc[..start], &doc[end..]))
}

/// The experiment table: the runs behind Figs 6–10 and both ablations, their
/// views and their claims, over one seed population.
pub fn table() -> Table {
    use Metric::*;
    use Status::*;
    let (aqp, dlt) = (AqpSystemConfig::default, DltSystemConfig::default);
    let policies = [
        (AqpPolicy::RoundRobin, "rr", "Round-robin"),
        (AqpPolicy::Edf, "edf", "EDF"),
        (AqpPolicy::Laf, "laf", "LAF"),
        (AqpPolicy::Relaqs, "relaqs", "ReLAQS"),
        (AqpPolicy::Rotary, "rotary", "Rotary-AQP"),
    ];
    let mixes = [
        ("mixed", ClassMix::PAPER),
        ("light", ClassMix::ALL_LIGHT),
        ("medium", ClassMix::ALL_MEDIUM),
        ("heavy", ClassMix::ALL_HEAVY),
    ];
    let (t0, t50) = (Objective::Efficiency, Objective::Threshold(0.5));
    let dlt_policies = [
        (DltPolicy::Srf, "dlt/srf", "SRF"),
        (DltPolicy::Bcf, "dlt/bcf", "BCF"),
        (DltPolicy::Laf, "dlt/laf", "LAF"),
        (DltPolicy::Rotary(t50), "dlt/t50", "Rotary-DLT T=50%"),
        (DltPolicy::Rotary(Objective::Fairness), "dlt/t100", "Rotary-DLT T=100%"),
        (DltPolicy::Rotary(t0), "dlt/t0", "Rotary-DLT T=0%"),
    ];

    // Rotary-AQP and its random-estimator arm start from a warm history.
    let aqp_run = |name: String, mix, policy, config| {
        let warm = matches!(policy, AqpPolicy::Rotary | AqpPolicy::RotaryRandomEstimator);
        Run { name, setup: Setup::Aqp(mix, policy, config), warm }
    };
    let mut runs: Vec<Run> = mixes
        .iter()
        .flat_map(|&(mix_name, mix)| {
            policies
                .map(|(policy, name, _)| aqp_run(format!("{mix_name}/{name}"), mix, policy, aqp()))
        })
        .collect();
    let mixed = |name: &str, policy, config| {
        aqp_run(format!("mixed/{name}"), ClassMix::PAPER, policy, config)
    };
    let rotary = |name: &str, config| mixed(name, AqpPolicy::Rotary, config);
    let memory_first = MaterializationPolicy::MemoryFirst { budget_mb: 32 * 1024 };
    runs.extend([
        mixed("random-est", AqpPolicy::RotaryRandomEstimator, aqp()),
        rotary("window-3", AqpSystemConfig { envelope_window: 3, ..aqp() }),
        rotary("window-8", AqpSystemConfig { envelope_window: 8, ..aqp() }),
        rotary("fixed-epochs", AqpSystemConfig { adaptive_epochs: false, ..aqp() }),
        rotary("no-feasibility", AqpSystemConfig { feasibility_check: false, ..aqp() }),
        Run { warm: false, ..rotary("cold", aqp()) },
        rotary("margin-0", AqpSystemConfig { declaration_margin: 0.0, ..aqp() }),
        rotary("margin-0.05", AqpSystemConfig { declaration_margin: 0.05, ..aqp() }),
        rotary("memory-first", AqpSystemConfig { materialization: memory_first, ..aqp() }),
    ]);
    let dlt_run = |name: &str, policy, config| Run {
        name: name.into(),
        setup: Setup::Dlt(policy, config),
        warm: true,
    };
    runs.extend(dlt_policies.map(|(policy, name, _)| dlt_run(name, policy, dlt())));
    let rotary_dlt = |name, objective, config| dlt_run(name, DltPolicy::Rotary(objective), config);
    let checkpoint = |checkpoint| DltSystemConfig { checkpoint, ..dlt() };
    let disk = |ms, bandwidth_mb_per_s| CheckpointModel {
        latency: SimTime::from_millis(ms),
        bandwidth_mb_per_s,
    };
    let gpus = |n| DltSystemConfig { pool: GpuPoolSpec::homogeneous(n, 8 * 1024), ..dlt() };
    let top = |top_k| DltSystemConfig { top_k, ..dlt() };
    runs.extend([
        rotary_dlt("dlt/t25", Objective::Threshold(0.25), dlt()),
        rotary_dlt("dlt/t75", Objective::Threshold(0.75), dlt()),
        rotary_dlt("dlt/t50-free-checkpoints", t50, checkpoint(CheckpointModel::free())),
        rotary_dlt("dlt/t50-hdd", t50, checkpoint(disk(8, 120.0))),
        rotary_dlt("dlt/t50-remote-store", t50, checkpoint(disk(40, 25.0))),
        rotary_dlt("dlt/t0-gpus-1", t0, gpus(1)),
        rotary_dlt("dlt/t0-gpus-2", t0, gpus(2)),
        rotary_dlt("dlt/t0-gpus-8", t0, gpus(8)),
        rotary_dlt("dlt/t50-top-1", t50, top(1)),
        rotary_dlt("dlt/t50-top-3", t50, top(3)),
        rotary_dlt("dlt/t50-top-10", t50, top(10)),
    ]);

    let rows = |runs: &[(&'static str, &str)], metrics: &[Metric]| -> Vec<_> {
        let cells = |run: &str| metrics.iter().map(|&metric| (run.to_string(), metric)).collect();
        runs.iter().map(|&(label, run)| (label, cells(run))).collect()
    };
    let view = |id, title, columns: &[&'static str], rows, claims| View {
        id,
        title,
        columns: columns.to_vec(),
        rows,
        claims,
    };
    let claim = |label, metric, run, against: &[&'static str], declared| Claim {
        label,
        metric,
        run,
        against: against.to_vec(),
        declared,
    };
    let baselines = ["dlt/srf", "dlt/bcf", "dlt/laf"];
    let by_policy = policies.map(|(_, name, label)| (label, format!("mixed/{name}")));
    let by_policy: Vec<_> = by_policy.iter().map(|(label, run)| (*label, run.as_str())).collect();
    let skews = policies.map(|(_, name, label)| {
        (
            label,
            ["light", "medium", "heavy"].map(|mix| (format!("{mix}/{name}"), Attained)).to_vec(),
        )
    });
    let by_dlt_policy = dlt_policies.map(|(_, run, label)| (label, run));
    let classes =
        [Attained, Class(QueryClass::Light), Class(QueryClass::Medium), Class(QueryClass::Heavy)];
    let marks = ["policy", "60 min", "120 min", "180 min", "240 min", "300 min", "360 min"];
    let views = vec![
        view(
            "fig6",
            "Fig 6 — attained jobs per policy, Table I workload (30 jobs)",
            &["policy", "attained", "light", "medium", "heavy"],
            rows(&by_policy, &classes),
            vec![
                claim("Rotary − EDF", Attained, "mixed/rotary", &["mixed/edf"], Holds),
                claim("Rotary − ReLAQS", Attained, "mixed/rotary", &["mixed/relaqs"], Holds),
            ],
        ),
        view(
            "fig7",
            "Fig 7 — false attainment (7a) and average waiting time (7b)",
            &["policy", "false-attained", "avg wait (s)"],
            rows(&by_policy, &[FalselyAttained, WaitS]),
            vec![
                claim("wait: round-robin − Rotary", WaitS, "mixed/rotary", &["mixed/rr"], Tie),
                claim("wait: ReLAQS − Rotary", WaitS, "mixed/rotary", &["mixed/relaqs"], Tie),
            ],
        ),
        view(
            "fig7-window",
            "Fig 7a — envelope window vs false attainment (Rotary-AQP)",
            &["window", "false-attained"],
            rows(
                &[
                    ("3 epochs", "mixed/window-3"),
                    ("5 epochs (default)", "mixed/rotary"),
                    ("8 epochs", "mixed/window-8"),
                ],
                &[FalselyAttained],
            ),
            vec![
                claim("3 → 5 epochs", FalselyAttained, "mixed/rotary", &["mixed/window-3"], Holds),
                claim("5 → 8 epochs", FalselyAttained, "mixed/window-8", &["mixed/rotary"], Holds),
            ],
        ),
        view(
            "fig8",
            "Fig 8 — attained jobs in skewed workloads (30 jobs of one class)",
            &["policy", "all-light", "all-medium", "all-heavy"],
            skews.to_vec(),
            vec![
                claim("all-heavy: Rotary − EDF", Attained, "heavy/rotary", &["heavy/edf"], Tie),
                claim(
                    "all-medium: Rotary − ReLAQS",
                    Attained,
                    "medium/rotary",
                    &["medium/relaqs"],
                    Tie,
                ),
            ],
        ),
        view(
            "fig9",
            "Fig 9 — impact of progress estimation (random-estimator ablation)",
            &["policy", "attained", "light", "medium", "heavy"],
            rows(
                &[
                    ("Rotary-AQP", "mixed/rotary"),
                    ("Rotary-AQP (random est.)", "mixed/random-est"),
                    ("EDF", "mixed/edf"),
                    ("LAF", "mixed/laf"),
                    ("Round-robin", "mixed/rr"),
                ],
                &classes,
            ),
            vec![claim(
                "real − random estimator",
                Attained,
                "mixed/rotary",
                &["mixed/random-est"],
                Holds,
            )],
        ),
        view(
            "fig10-floor",
            "Fig 10 — lowest attainment progress over all jobs at each mark",
            &marks,
            rows(&by_dlt_policy, &MARKS.map(Floor)),
            vec![claim("T=100% − best baseline", Floor(120), "dlt/t100", &baselines, Holds)],
        ),
        view(
            "fig10-done",
            "Fig 10 — jobs attained by each mark",
            &marks,
            rows(&by_dlt_policy, &MARKS.map(AttainedBy)),
            vec![claim("T=0% − best baseline", AttainedBy(120), "dlt/t0", &baselines, Holds)],
        ),
        view(
            "ablation-aqp",
            "Ablation — Rotary-AQP design choices, one changed per row",
            &["variant", "attained", "false-attained", "missed", "avg wait (s)"],
            rows(
                &[
                    ("full Rotary-AQP", "mixed/rotary"),
                    ("- adaptive epochs", "mixed/fixed-epochs"),
                    ("- feasibility check", "mixed/no-feasibility"),
                    ("- historical data", "mixed/cold"),
                    ("- declaration margin", "mixed/margin-0"),
                    ("margin 0.05", "mixed/margin-0.05"),
                    ("memory-first 32 GB", "mixed/memory-first"),
                ],
                &[Attained, FalselyAttained, Missed, WaitS],
            ),
            vec![],
        ),
        view(
            "ablation-dlt",
            "Ablation — Rotary-DLT design choices, one changed per row",
            &["variant", "attained @120 min", "floor @120 min", "makespan (s)"],
            rows(
                &[
                    ("T=0%", "dlt/t0"),
                    ("T=25%", "dlt/t25"),
                    ("T=50%", "dlt/t50"),
                    ("T=75%", "dlt/t75"),
                    ("T=100%", "dlt/t100"),
                    ("T=50%, free checkpoints", "dlt/t50-free-checkpoints"),
                    ("T=50%, HDD checkpoints", "dlt/t50-hdd"),
                    ("T=50%, remote-store checkpoints", "dlt/t50-remote-store"),
                    ("T=0%, 1 GPU", "dlt/t0-gpus-1"),
                    ("T=0%, 2 GPUs", "dlt/t0-gpus-2"),
                    ("T=0%, 8 GPUs", "dlt/t0-gpus-8"),
                    ("T=50%, TEE top-1", "dlt/t50-top-1"),
                    ("T=50%, TEE top-3", "dlt/t50-top-3"),
                    ("T=50%, TEE top-10", "dlt/t50-top-10"),
                ],
                &[AttainedBy(120), Floor(120), MakespanS],
            ),
            vec![],
        ),
    ];

    // Population B of the ROADMAP fidelity audit; population A is for tuning.
    let seeds = (0..40).map(|i| 1000 + 12 * i).collect();
    Table { seeds, runs, views }
}
