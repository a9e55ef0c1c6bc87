//! Rotary-DLT's estimator components (paper §IV-B):
//!
//! * **TEE** — the training epoch estimator: predicts the number of epochs
//!   a job needs to reach a target accuracy by fitting an accuracy–epoch
//!   curve through the top-k most similar historical jobs (same dataset,
//!   close hyperparameters) jointly with the job's own real-time
//!   observations, using the framework's equal-share weighted linear
//!   regression.
//! * **TME** — the training memory estimator: fits a batch-size→memory
//!   line over the historical jobs with the *same* dataset, weighted by
//!   `similarity(x, y) = 1 − |x − y| / max(x, y)` on parameter counts, and
//!   pads the prediction to avoid OOM.
//! * **TTR** — the training time recorder: records one step/epoch time per
//!   job and device, discarding the CUDA-warm-up-affected first step.
//!
//! Each component runs inside an [`OverheadMeter`] so the Table III
//! overhead measurements are real wall-clock costs of this code. The meter
//! itself never reads the wall clock: a [`ProbeClock`] is injected by the
//! measuring harness (`rotary_bench::timing::monotonic_probe`), and the
//! default meter is inert — the arbitration data plane stays free of
//! wall-clock reads (lint rule D002).

use std::collections::BTreeMap;
use std::time::Duration;

use rotary_core::estimate::similarity::scalar_similarity;
use rotary_core::estimate::wlr::{LinearFit, WeightedPoint};
use rotary_core::estimate::{CurveBasis, JointCurveEstimator};
use rotary_core::history::{ClassRow, HistoryRepository, JobRecord};
use rotary_core::job::{JobId, JobKind};
use rotary_core::SimTime;

use crate::models::{Dataset, Optimizer};
use crate::simulator::TrainingConfig;

/// Feature keys a DLT job stores in the history repository.
pub mod feature_keys {
    /// Parameter count, millions.
    pub const PARAMS_M: &str = "params_m";
    /// Training batch size.
    pub const BATCH: &str = "batch_size";
    /// Learning rate.
    pub const LR: &str = "learning_rate";
    /// Peak GPU memory observed, MB.
    pub const MEMORY_MB: &str = "memory_mb";
    /// 1.0 when the job fine-tuned a pre-trained checkpoint.
    pub const PRETRAINED: &str = "pretrained";
}

/// Builds the repository record for a completed DLT job.
pub fn job_record(config: &TrainingConfig, curve: Vec<(f64, f64)>, epochs: u64) -> JobRecord {
    let p = config.arch.profile();
    let final_metric = curve.last().map(|&(_, a)| a).unwrap_or(0.0);
    JobRecord {
        kind: JobKind::Dlt,
        label: p.name.to_string(),
        tags: vec![
            format!("dataset:{}", config.arch.dataset().name()),
            format!("optimizer:{}", config.optimizer.name()),
        ],
        numeric_features: BTreeMap::from([
            (feature_keys::PARAMS_M.to_string(), p.params_m),
            (feature_keys::BATCH.to_string(), config.batch_size as f64),
            (feature_keys::LR.to_string(), config.learning_rate),
            (feature_keys::MEMORY_MB.to_string(), config.memory_mb() as f64),
            (feature_keys::PRETRAINED.to_string(), if config.pretrained { 1.0 } else { 0.0 }),
        ]),
        curve,
        final_metric,
        epochs,
    }
}

/// What TEE and TME read of a historical record, extracted once per
/// feature class of the repository.
#[derive(Debug, Clone, Copy)]
struct HistoryRow {
    /// Every input but the learning rate and batch size.
    key: Bucket,
    ln_lr: f64,
    batch: f64,
}

/// The bucket a [`HistoryRow`] is filed under: every input of TEE's score
/// except the learning rate and batch size, floats by bit pattern. TEE's
/// bound on a bucket is therefore exact in all but those two terms, and
/// TME's (which reads only the dataset and parameter count) is exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Bucket {
    /// Bit `d as u8` is set when the record carries dataset `d`'s tag.
    datasets: u8,
    /// Bit `o as u8` is set when the record carries optimizer `o`'s tag.
    optimizers: u8,
    pretrained: u64,
    params_m: u64,
}

impl Bucket {
    fn pretrained(&self) -> f64 {
        f64::from_bits(self.pretrained)
    }

    fn params_m(&self) -> f64 {
        f64::from_bits(self.params_m)
    }
}

impl HistoryRow {
    fn of(record: &JobRecord) -> HistoryRow {
        // The bits of the `(name, bit)` pairs whose `prefix` + name tag the
        // record carries.
        let tagged = |prefix: &str, names: &[(&str, u8)]| {
            names
                .iter()
                .filter(|(name, _)| {
                    record.tags.iter().any(|t| t.strip_prefix(prefix) == Some(*name))
                })
                .fold(0u8, |mask, (_, bit)| mask | 1 << bit)
        };
        let feature = |name: &str, absent: f64| record.feature(name).unwrap_or(absent);
        HistoryRow {
            key: Bucket {
                datasets: tagged("dataset:", &Dataset::ALL.map(|d| (d.name(), d as u8))),
                optimizers: tagged("optimizer:", &Optimizer::ALL.map(|o| (o.name(), o as u8))),
                pretrained: feature(feature_keys::PRETRAINED, 0.0).to_bits(),
                params_m: feature(feature_keys::PARAMS_M, 0.0).to_bits(),
            },
            ln_lr: feature(feature_keys::LR, 1.0).max(1e-12).ln(),
            batch: feature(feature_keys::BATCH, 0.0),
        }
    }
}

impl ClassRow for HistoryRow {
    type Bucket = Bucket;

    fn bucket(&self) -> Bucket {
        self.key
    }
}

/// The job side of [`tee_similarity`], computed once per query.
struct TeeQuery {
    dataset: u8,
    optimizer: u8,
    ln_lr: f64,
    batch: f64,
    params_m: f64,
    pretrained: f64,
}

impl TeeQuery {
    fn of(config: &TrainingConfig) -> TeeQuery {
        TeeQuery {
            dataset: 1 << config.arch.dataset() as u8,
            optimizer: 1 << config.optimizer as u8,
            ln_lr: config.learning_rate.max(1e-12).ln(),
            batch: config.batch_size as f64,
            params_m: config.arch.profile().params_m,
            pretrained: if config.pretrained { 1.0 } else { 0.0 },
        }
    }

    fn score(&self, row: &HistoryRow) -> f64 {
        // Four orders of magnitude apart → 0.
        let lr = (1.0 - (self.ln_lr - row.ln_lr).abs() / (4.0 * std::f64::consts::LN_10)).max(0.0);
        let batch = scalar_similarity(self.batch, row.batch);
        self.blend(&row.key, lr, batch)
    }

    /// An upper bound on [`TeeQuery::score`] over a bucket: the same
    /// expression, in the same order, with the learning-rate and batch
    /// terms at their maximum of 1. Every other term is the bucket's own,
    /// and float `+` and `×` by a positive constant are monotone, so no row
    /// of the bucket scores above it.
    fn bound(&self, key: &Bucket) -> f64 {
        self.blend(key, 1.0, 1.0)
    }

    /// The weighted score given its learning-rate and batch terms.
    fn blend(&self, key: &Bucket, lr: f64, batch: f64) -> f64 {
        let dataset = if key.datasets & self.dataset != 0 { 1.0 } else { 0.0 };
        let optimizer = if key.optimizers & self.optimizer != 0 { 1.0 } else { 0.0 };
        let size = scalar_similarity(self.params_m, key.params_m());
        let pretrained = if (key.pretrained() - self.pretrained).abs() < 0.5 { 1.0 } else { 0.0 };
        0.35 * dataset + 0.1 * optimizer + 0.15 * lr + 0.1 * batch + 0.15 * size + 0.15 * pretrained
    }

    /// The `top_k` most similar records, bounded per bucket.
    fn top_k<'h>(
        &self,
        history: &'h mut HistoryRepository,
        top_k: usize,
    ) -> Vec<(&'h JobRecord, f64)> {
        history.top_k_rows(
            JobKind::Dlt,
            top_k,
            HistoryRow::of,
            |key| self.bound(key),
            |row| self.score(row),
        )
    }
}

/// TEE similarity between a job and a historical record: dataset match is
/// required in spirit (strongly weighted), then optimizer, learning rate
/// (log scale), batch size, model size, and fine-tuning mode.
pub fn tee_similarity(config: &TrainingConfig, record: &JobRecord) -> f64 {
    TeeQuery::of(config).score(&HistoryRow::of(record))
}

/// Builds the TEE accuracy–epoch estimator for a job: the pooled curves of
/// the `top_k` most similar completed jobs as historical data, joint with
/// whatever real-time points the caller later records. Costs one
/// [`tee_similarity`] per feature class whose bucket could still reach the
/// top k, not per record.
pub fn build_tee(
    config: &TrainingConfig,
    history: &mut HistoryRepository,
    top_k: usize,
) -> JointCurveEstimator {
    let similar = TeeQuery::of(config).top_k(history, top_k);
    let historical: Vec<(f64, f64)> =
        similar.iter().flat_map(|(r, _)| r.curve.iter().copied()).collect();
    JointCurveEstimator::new(CurveBasis::LogShifted, historical)
}

/// The job side of TME's similarity, computed once per query.
struct TmeQuery {
    dataset: u8,
    params_m: f64,
}

impl TmeQuery {
    fn of(config: &TrainingConfig) -> TmeQuery {
        TmeQuery {
            dataset: 1 << config.arch.dataset() as u8,
            params_m: config.arch.profile().params_m,
        }
    }

    /// The paper's model-size similarity, NaN off the job's dataset. It
    /// reads only bucket fields, so it is its own exact bound.
    fn score(&self, key: &Bucket) -> f64 {
        if key.datasets & self.dataset == 0 {
            return f64::NAN;
        }
        scalar_similarity(self.params_m, key.params_m())
    }

    /// "TME first retrieves all the data of historical jobs that use the
    /// same training dataset", scores them by model-size similarity, and
    /// keeps the top-k. A class on another dataset scores NaN, which the
    /// selection skips, and so does its whole bucket.
    fn top_k<'h>(
        &self,
        history: &'h mut HistoryRepository,
        top_k: usize,
    ) -> Vec<(&'h JobRecord, f64)> {
        history.top_k_rows(
            JobKind::Dlt,
            top_k,
            HistoryRow::of,
            |key| self.score(key),
            |row| self.score(&row.key),
        )
    }
}

/// TEE's headline query: estimated epochs for the job to reach `target`
/// accuracy. `None` when the estimator cannot answer (no data) or the
/// fitted curve never reaches the target.
pub fn estimate_epochs_to_accuracy(estimator: &JointCurveEstimator, target: f64) -> Option<u64> {
    match estimator.solve_for_x(target) {
        Ok(Some(epochs)) => Some(epochs.ceil().max(0.0) as u64),
        _ => None,
    }
}

/// The training memory estimator.
#[derive(Debug, Clone)]
pub struct Tme;

impl Tme {
    /// Padding applied to the prediction ("we pad the estimated memory by
    /// an additional offset to minimise the likelihood of OOM").
    const PAD_FRACTION: f64 = 0.10;

    /// Predicts the job's peak GPU memory in MB from the `top_k` most
    /// similar historical jobs on the same dataset, or `None` when no
    /// history exists (the caller falls back to [`Tme::cold_start_mb`]).
    pub fn estimate_mb(
        config: &TrainingConfig,
        history: &mut HistoryRepository,
        top_k: usize,
    ) -> Option<u64> {
        let scored = TmeQuery::of(config).top_k(history, top_k);
        // Fit memory = a + b·batch with similarity weights: "the more
        // similar a historical job is, the higher weights".
        let points: Vec<WeightedPoint> = scored
            .iter()
            .filter_map(|(r, sim)| {
                let batch = r.feature(feature_keys::BATCH)?;
                let mem = r.feature(feature_keys::MEMORY_MB)?;
                Some(WeightedPoint::new(batch, mem, sim.max(0.01)))
            })
            .collect();
        let fit = LinearFit::fit(&points).ok()?;
        let raw = fit.predict(config.batch_size as f64);
        if !raw.is_finite() || raw <= 0.0 {
            return None;
        }
        Some((raw * (1.0 + Self::PAD_FRACTION)).ceil() as u64)
    }

    /// The fallback heuristic when no history exists: parameter memory with
    /// optimizer state plus a generous activation allowance.
    pub fn cold_start_mb(config: &TrainingConfig) -> u64 {
        let p = config.arch.profile();
        let params_mb = p.params_m * 4.0 * (2.0 + config.optimizer.state_copies());
        ((params_mb + 20.0 * config.batch_size as f64 + 600.0) * (1.0 + Self::PAD_FRACTION)).ceil()
            as u64
    }
}

/// The training time recorder.
///
/// "TTR records the time of a training step or a training epoch for each
/// DLT job on different devices … we always discard the first training
/// step" (the CUDA warm-up).
#[derive(Debug, Clone, Default)]
pub struct Ttr {
    records: BTreeMap<(JobId, usize), SimTime>,
}

impl Ttr {
    /// Fresh recorder.
    pub fn new() -> Ttr {
        Ttr::default()
    }

    /// Records an observed epoch duration for a job on a device. The first
    /// observation for a `(job, device)` pair is assumed warm-up-polluted
    /// and is corrected by the caller passing the warm-up-free duration.
    /// "Recording the single training time of each job is sufficient", so
    /// only the latest value is kept.
    pub fn record(&mut self, job: JobId, device: usize, epoch_time: SimTime) {
        self.records.insert((job, device), epoch_time);
    }

    /// The recorded epoch time of a job on a device, if any.
    pub fn epoch_time(&self, job: JobId, device: usize) -> Option<SimTime> {
        self.records.get(&(job, device)).copied()
    }

    /// All records in deterministic `(job, device)` order, for durable
    /// snapshots.
    pub fn entries(&self) -> impl Iterator<Item = (JobId, usize, SimTime)> + '_ {
        self.records.iter().map(|(&(job, device), &t)| (job, device, t))
    }

    /// Number of records held.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

/// A monotonic probe: returns the elapsed time since some fixed anchor.
/// The only implementation backed by the wall clock lives in
/// `rotary_bench::timing::monotonic_probe`; everything inside the
/// arbitration loop runs with no probe installed and therefore performs no
/// wall-clock reads at all.
pub type ProbeClock = fn() -> Duration;

/// Overhead accounting for Table III: every TEE/TME/TTR call in the system
/// runs under `measure`, accumulating *real* execution time of the
/// estimator code **when a probe clock is installed**. The default meter
/// has no clock and is a deterministic no-op wrapper.
#[derive(Debug, Clone, Copy, Default)]
pub struct OverheadMeter {
    /// Accumulated TTR time.
    pub ttr: Duration,
    /// Accumulated TEE time.
    pub tee: Duration,
    /// Accumulated TME time.
    pub tme: Duration,
    clock: Option<ProbeClock>,
}

/// Which component a measured call belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Component {
    /// Training time recorder.
    Ttr,
    /// Training epoch estimator.
    Tee,
    /// Training memory estimator.
    Tme,
}

impl OverheadMeter {
    /// A meter that charges real time through `clock` (Table III harness).
    pub fn with_clock(clock: ProbeClock) -> OverheadMeter {
        OverheadMeter { clock: Some(clock), ..OverheadMeter::default() }
    }

    /// Runs `f`, charging its cost to `component` when a probe clock is
    /// installed; without one, `f` runs untimed.
    pub fn measure<T>(&mut self, component: Component, f: impl FnOnce() -> T) -> T {
        let Some(clock) = self.clock else {
            return f();
        };
        let start = clock();
        let out = f();
        let elapsed = clock().saturating_sub(start);
        match component {
            Component::Ttr => self.ttr += elapsed,
            Component::Tee => self.tee += elapsed,
            Component::Tme => self.tme += elapsed,
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::{Architecture, Optimizer};

    fn config(arch: Architecture, batch: u32) -> TrainingConfig {
        TrainingConfig {
            arch,
            batch_size: batch,
            optimizer: Optimizer::Adam,
            learning_rate: 0.001,
            pretrained: false,
        }
    }

    fn record_with_curve(arch: Architecture, batch: u32, epochs: u64) -> JobRecord {
        let c = config(arch, batch);
        let curve: Vec<(f64, f64)> =
            (1..=epochs).map(|e| (e as f64, c.accuracy_curve(e))).collect();
        job_record(&c, curve, epochs)
    }

    #[test]
    fn tee_similarity_prefers_same_setup() {
        let target = config(Architecture::ResNet18, 32);
        let same = record_with_curve(Architecture::ResNet18, 32, 10);
        let close = record_with_curve(Architecture::ResNet34, 32, 10);
        let far = record_with_curve(Architecture::Bert, 64, 5);
        let s_same = tee_similarity(&target, &same);
        let s_close = tee_similarity(&target, &close);
        let s_far = tee_similarity(&target, &far);
        assert!(s_same > s_close, "{s_same} vs {s_close}");
        assert!(s_close > s_far, "{s_close} vs {s_far}");
    }

    #[test]
    fn tee_estimates_epochs_from_similar_history() {
        let mut history = HistoryRepository::new();
        history.insert(record_with_curve(Architecture::ResNet18, 32, 40));
        let target = config(Architecture::ResNet18, 32);
        let tee = build_tee(&target, &mut history, 3);
        let truth = target.epochs_to_accuracy(0.85).unwrap();
        let est = estimate_epochs_to_accuracy(&tee, 0.85).expect("estimate");
        assert!(
            (est as i64 - truth as i64).unsigned_abs() <= truth / 2 + 2,
            "estimated {est}, truth {truth}"
        );
    }

    #[test]
    fn tee_with_wrong_history_is_erroneous() {
        // The Fig. 11 mechanism: strip NLP history and BERT fine-tuning gets
        // estimated from slow-converging CV curves.
        let mut history = HistoryRepository::new();
        for arch in [Architecture::ResNet18, Architecture::Vgg16, Architecture::DenseNet121] {
            history.insert(record_with_curve(arch, 16, 60));
        }
        let bert = TrainingConfig { pretrained: true, ..config(Architecture::Bert, 64) };
        let tee = build_tee(&bert, &mut history, 3);
        let truth = bert.epochs_to_accuracy(0.85).unwrap();
        let est = estimate_epochs_to_accuracy(&tee, 0.85);
        // Either no answer or a wildly pessimistic one.
        match est {
            None => {}
            Some(e) => assert!(e > truth * 5, "estimate {e} should be far from truth {truth}"),
        }
    }

    #[test]
    fn estimates_do_not_depend_on_how_often_unrelated_jobs_repeat() {
        let mut small = HistoryRepository::new();
        for arch in [Architecture::ResNet18, Architecture::ResNet34, Architecture::Bert] {
            for batch in [16, 32] {
                small.insert(record_with_curve(arch, batch, 12));
            }
        }
        // Ten times the records, no new class: a long-running arbiter keeps
        // re-archiving one job shape the target does not resemble.
        let mut large = small.clone();
        for _ in 0..54 {
            large.insert(record_with_curve(Architecture::Bert, 32, 12));
        }
        assert_eq!((small.len(), large.len()), (6, 60));
        assert_eq!(small.class_count(), large.class_count());

        let target = config(Architecture::ResNet18, 32);
        let tee = |history: &mut HistoryRepository| build_tee(&target, history, 3).to_json();
        assert_eq!(tee(&mut small), tee(&mut large));
        assert_eq!(
            Tme::estimate_mb(&target, &mut small, 5),
            Tme::estimate_mb(&target, &mut large, 5)
        );
    }

    /// Every Table II configuration: each architecture at each of its batch
    /// sizes, each optimizer and learning rate, and each fine-tuning mode
    /// it supports (2 120 in all).
    fn table_two() -> Vec<TrainingConfig> {
        let mut configs = Vec::new();
        for arch in Architecture::ALL {
            let modes: &[bool] =
                if arch.profile().pretrainable { &[false, true] } else { &[false] };
            for &batch_size in arch.batch_sizes() {
                for optimizer in Optimizer::ALL {
                    for learning_rate in crate::models::LEARNING_RATES {
                        for &pretrained in modes {
                            configs.push(TrainingConfig {
                                arch,
                                batch_size,
                                optimizer,
                                learning_rate,
                                pretrained,
                            });
                        }
                    }
                }
            }
        }
        configs
    }

    #[test]
    fn tee_and_tme_bounds_cover_every_score_in_their_bucket() {
        let configs = table_two();
        assert_eq!(configs.len(), 2120);
        let rows: Vec<HistoryRow> =
            configs.iter().map(|c| HistoryRow::of(&job_record(c, vec![], 1))).collect();
        for query in &configs {
            let (tee, tme) = (TeeQuery::of(query), TmeQuery::of(query));
            for row in &rows {
                let (bucket, score) = (row.bucket(), tee.score(row));
                let bound = tee.bound(&bucket);
                assert!(!score.is_finite() || score <= bound, "TEE {score} > {bound}: {row:?}");
                let (score, bound) = (tme.score(&row.key), tme.score(&bucket));
                assert!(!score.is_finite() || score <= bound, "TME {score} > {bound}: {row:?}");
            }
            // The bound is tight: the query's own configuration attains it.
            let own = HistoryRow::of(&job_record(query, vec![], 1));
            assert_eq!(tee.score(&own).to_bits(), tee.bound(&own.bucket()).to_bits());
        }
    }

    #[test]
    fn bounded_selection_equals_a_one_bucket_scan() {
        /// The same row in a single bucket, so nothing is pruned.
        struct OneBucket(HistoryRow);
        impl ClassRow for OneBucket {
            type Bucket = ();
            fn bucket(&self) {}
        }
        let one = |r: &JobRecord| OneBucket(HistoryRow::of(r));

        // Every configuration twice; `epochs` tells the copies apart.
        let configs = table_two();
        let mut bounded = HistoryRepository::new();
        for (at, config) in configs.iter().chain(&configs).enumerate() {
            bounded.insert(job_record(config, vec![(1.0, 0.5)], at as u64));
        }
        let mut flat = bounded.clone();
        let picked = |top: Vec<(&JobRecord, f64)>| -> Vec<(u64, u64)> {
            top.into_iter().map(|(r, s)| (r.epochs, s.to_bits())).collect()
        };
        for query in configs.iter().step_by(3) {
            let (tee, tme) = (TeeQuery::of(query), TmeQuery::of(query));
            for k in [1, 5, 40] {
                let all = |_: &()| f64::INFINITY;
                let expected =
                    picked(flat.top_k_rows(JobKind::Dlt, k, one, all, |r| tee.score(&r.0)));
                assert_eq!(picked(tee.top_k(&mut bounded, k)), expected, "TEE {query:?}, k {k}");
                let expected =
                    picked(flat.top_k_rows(JobKind::Dlt, k, one, all, |r| tme.score(&r.0.key)));
                assert_eq!(picked(tme.top_k(&mut bounded, k)), expected, "TME {query:?}, k {k}");
            }
        }
        assert!(bounded.rows_scored() * 10 < flat.rows_scored());
    }

    /// The cost of a bind, as a count: rows scored per TEE and TME query
    /// against the end-to-end benchmark's history (2 000 Table II jobs,
    /// seed 33, 1 233 feature classes).
    #[test]
    fn a_bind_scores_a_small_share_of_the_classes() {
        let specs = crate::workload::DltWorkloadBuilder::paper().jobs(2000).seed(33).build();
        let mut history = HistoryRepository::new();
        for spec in &specs {
            history.insert(job_record(&spec.config, vec![(1.0, 0.5)], 1));
        }
        let classes = history.class_count() as u64;
        assert_eq!(classes, 1233);
        let (mut tee_rows, mut tme_rows) = (Vec::new(), Vec::new());
        for spec in &specs {
            let before = history.rows_scored();
            build_tee(&spec.config, &mut history, 5);
            let between = history.rows_scored();
            Tme::estimate_mb(&spec.config, &mut history, 5);
            tee_rows.push(between - before);
            tme_rows.push(history.rows_scored() - between);
        }
        // The mean over the 2 000 binds: 29 and 8 when this was written (at
        // most 89 and 10 in one bind).
        let per_bind = |rows: &[u64]| rows.iter().sum::<u64>() / rows.len() as u64;
        let (tee, tme) = (per_bind(&tee_rows), per_bind(&tme_rows));
        assert!(tee * 20 <= classes, "TEE scored {tee} of {classes} classes per bind");
        assert!(tme * 10 <= classes, "TME scored {tme} of {classes} classes per bind");
    }

    #[test]
    fn tme_fits_batch_memory_line() {
        let mut history = HistoryRepository::new();
        for batch in [2, 4, 8, 16, 32] {
            let c = config(Architecture::ResNet18, batch);
            history.insert(job_record(&c, vec![(1.0, 0.5)], 1));
        }
        let target = config(Architecture::ResNet18, 16);
        let est = Tme::estimate_mb(&target, &mut history, 5).expect("estimate");
        let truth = target.memory_mb();
        // Padded estimate: at or above truth, within ~25%.
        assert!(est >= truth, "est {est} ≥ truth {truth} (padding)");
        assert!((est as f64) < truth as f64 * 1.25, "est {est} vs truth {truth}");
    }

    #[test]
    fn tme_requires_same_dataset_history() {
        let mut history = HistoryRepository::new();
        // Only NLP (IMDB) history; estimating a CIFAR job must fall back.
        for batch in [32, 64, 128] {
            history.insert(job_record(&config(Architecture::Bert, batch), vec![], 1));
        }
        assert_eq!(Tme::estimate_mb(&config(Architecture::ResNet18, 16), &mut history, 5), None);
        let cold = Tme::cold_start_mb(&config(Architecture::ResNet18, 16));
        assert!(cold > 0);
    }

    #[test]
    fn ttr_records_per_job_and_device() {
        let mut ttr = Ttr::new();
        assert!(ttr.is_empty());
        ttr.record(JobId(1), 0, SimTime::from_secs(90));
        ttr.record(JobId(1), 1, SimTime::from_secs(80));
        ttr.record(JobId(2), 0, SimTime::from_secs(200));
        assert_eq!(ttr.epoch_time(JobId(1), 0), Some(SimTime::from_secs(90)));
        assert_eq!(ttr.epoch_time(JobId(1), 2), None);
        assert_eq!(ttr.len(), 3);
        // Latest value wins.
        ttr.record(JobId(1), 0, SimTime::from_secs(85));
        assert_eq!(ttr.epoch_time(JobId(1), 0), Some(SimTime::from_secs(85)));
        assert_eq!(ttr.len(), 3);
    }

    /// Deterministic probe for tests: ticks one millisecond per call.
    fn ticking_probe() -> Duration {
        use std::sync::atomic::{AtomicU64, Ordering};
        static TICKS: AtomicU64 = AtomicU64::new(0);
        Duration::from_millis(TICKS.fetch_add(1, Ordering::Relaxed))
    }

    #[test]
    fn overhead_meter_charges_through_the_probe() {
        let mut meter = OverheadMeter::with_clock(ticking_probe);
        let x = meter.measure(Component::Tee, || 41 + 1);
        assert_eq!(x, 42);
        // The probe ticked once between the start and end reads.
        assert_eq!(meter.tee, Duration::from_millis(1));
        assert_eq!(meter.ttr, Duration::ZERO);
        meter.measure(Component::Ttr, || {});
        meter.measure(Component::Tme, || {});
        assert_eq!(meter.ttr, Duration::from_millis(1));
        assert_eq!(meter.tme, Duration::from_millis(1));
    }

    #[test]
    fn overhead_meter_without_probe_is_inert() {
        let mut meter = OverheadMeter::default();
        let x = meter.measure(Component::Tee, || 7u64);
        assert_eq!(x, 7);
        assert_eq!(meter.tee, Duration::ZERO);
        assert_eq!(meter.ttr + meter.tme, Duration::ZERO);
    }
}
