//! The AQP records of a durable snapshot.
//!
//! The envelope — `meta`, `events`, `loop`, `metrics`, `history`, and each
//! job's lifecycle state — is written once, by
//! [`Run::snapshot`](rotary_faults::arbiter::Run::snapshot). This module
//! adds what only the AQP system knows:
//!
//! * per job — the delivered row count (the executor's aggregation state is
//!   a pure function of the delivered prefix, so restore *replays* it rather
//!   than serializing raw accumulators), envelope windows, estimator points
//!   (for live Rotary and ReLAQS jobs only: no other policy fits a curve,
//!   and `retire` drops a terminal job's), and the thread grant;
//! * `pool` / `material` — CPU grants and memory-resident paused state.
//!
//! The random arm's draws are a pure function of the seed, the job index
//! and its epoch count, so no RNG position is stored; a `loop.random_est`
//! key that an older snapshot carries is ignored, as is the `estimator` key
//! it wrote for the jobs of policies that read no curve and for terminal
//! jobs.
//!
//! The shared `metrics` record holds the progress rows as they are stored
//! — one full row, then deltas of the jobs that moved — so, with terminal
//! entries frozen and free of curves, a snapshot's bytes grow with what
//! happened rather than with rows × jobs (DESIGN.md §12).
//!
//! Everything deterministic and derivable (plans, ground truths, memory
//! estimates, row orders and job offsets) is rebuilt from the config; v1
//! snapshots (per-job orders) are refused (DESIGN.md §12). All parsing is
//! panic-free: malformed input surfaces as
//! [`RotaryError::SnapshotCorrupt`](rotary_core::RotaryError::SnapshotCorrupt),
//! never as a crash.

use std::fmt::Write as _;

use rotary_core::error::Result;
use rotary_core::estimate::JointCurveEstimator;
use rotary_core::history::HistoryRepository;
use rotary_core::job::JobId;
use rotary_core::json::{u64_json, Json};
use rotary_core::SimTime;
use rotary_faults::arbiter::{corrupt, Durable};
use rotary_sim::{CheckpointModel, CpuPool, MaterializationManager};
use rotary_store::record_json;

use super::{AqpPolicy, AqpRunExt, AqpSystem, RunJob};
use crate::workload::AqpJobSpec;

impl Durable for AqpSystem<'_> {
    const FORMAT: &'static str = "rotary-aqp-run/v2";

    fn checkpoint(&self) -> &CheckpointModel {
        &super::CHECKPOINT
    }

    fn history(&self) -> &HistoryRepository {
        &self.history
    }

    fn set_history(&mut self, history: HistoryRepository) {
        self.history = history;
    }

    fn policy_name(policy: AqpPolicy) -> String {
        policy.name().to_string()
    }

    fn fingerprint_text(&self, specs: &[AqpJobSpec], text: &mut String) {
        let pool = self.config.pool;
        let _ =
            write!(text, "|seed={}|pool={}t/{}mb", self.config.seed, pool.threads, pool.memory_mb);
        for spec in specs {
            // `with_ci_epsilon` rejects non-finite ε, so NaN bits cannot
            // collide with this "absent" sentinel.
            let ci = spec.ci_epsilon.map(f64::to_bits).unwrap_or(u64::MAX);
            let _ = write!(
                text,
                "|q{}:th={:016x}:dl={}:ar={}:ci={:016x}",
                spec.query.0,
                spec.threshold.to_bits(),
                spec.deadline.as_millis(),
                spec.arrival.as_millis(),
                ci
            );
        }
    }

    fn save_job(job: &RunJob<'_>) -> Vec<(&'static str, Json)> {
        let window = |env: &rotary_core::estimate::EnvelopeDetector| {
            Json::Arr(env.values().map(Json::Num).collect())
        };
        let mut pairs = vec![
            ("delivered", u64_json(job.online.source().delivered() as u64)),
            ("envelopes", Json::Arr(job.envelopes.iter().map(window).collect())),
        ];
        if let Some(estimator) = &job.estimator {
            pairs.push(("estimator", estimator.to_json()));
        }
        pairs.extend([
            ("threads", Json::Num(job.threads as f64)),
            ("last_threads", Json::Num(job.last_threads as f64)),
            ("pending_persist", u64_json(job.pending_persist.as_millis())),
        ]);
        pairs
    }

    fn load_job(job: &mut RunJob<'_>, entry: &Json) -> Option<()> {
        let delivered = usize::try_from(entry.get("delivered")?.as_u64_str()?).ok()?;
        if delivered > job.online.source().total_rows() {
            return None;
        }
        if job.base.core.status.is_terminal() {
            // Nobody reads a terminal job's aggregates or curve again:
            // record the position without replaying, and drop the curve
            // (older snapshots still carry its points), as `retire` left
            // the original.
            job.online.restore_released(delivered);
            job.estimator = None;
        } else {
            job.online.replay_delivered(delivered);
        }
        let envelopes = entry.get("envelopes")?.as_arr()?;
        if envelopes.len() != job.envelopes.len() {
            return None;
        }
        for (env, values) in job.envelopes.iter_mut().zip(envelopes) {
            for value in values.as_arr()? {
                env.observe(value.as_f64()?);
            }
        }
        if let Some(estimator) = &mut job.estimator {
            *estimator = JointCurveEstimator::from_json(entry.get("estimator")?)?;
        }
        job.threads = u32::try_from(entry.get("threads")?.as_u64()?).ok()?;
        job.last_threads = u32::try_from(entry.get("last_threads")?.as_u64()?).ok()?;
        job.pending_persist = SimTime::from_millis(entry.get("pending_persist")?.as_u64_str()?);
        Some(())
    }

    fn save(&self, ext: &AqpRunExt) -> Vec<(&'static str, Json)> {
        let grant = |(job, threads, memory_mb): (JobId, u32, u64)| {
            Json::obj(vec![
                ("job", u64_json(job.0)),
                ("threads", Json::Num(threads as f64)),
                ("memory_mb", u64_json(memory_mb)),
            ])
        };
        let resident = |(job, mb)| Json::obj(vec![("job", u64_json(job)), ("mb", u64_json(mb))]);
        vec![
            (
                "pool",
                Json::obj(vec![("grants", Json::Arr(ext.pool.grants().map(grant).collect()))]),
            ),
            (
                "material",
                Json::obj(vec![(
                    "resident",
                    Json::Arr(ext.material.resident().map(resident).collect()),
                )]),
            ),
        ]
    }

    fn load(&self, ext: &mut AqpRunExt, records: &[(String, Vec<u8>)]) -> Result<()> {
        let bad = |what: &str| corrupt::<Self>(&format!("malformed {what}"));
        ext.pool =
            restore_pool(self, &record_json(records, "pool")?).ok_or_else(|| bad("pool record"))?;
        restore_material(&mut ext.material, &record_json(records, "material")?)
            .ok_or_else(|| bad("material record"))
    }
}

fn restore_pool(sys: &AqpSystem<'_>, doc: &Json) -> Option<CpuPool> {
    let mut pool = CpuPool::new(sys.config.pool);
    for g in doc.get("grants")?.as_arr()? {
        let job = JobId(g.get("job")?.as_u64_str()?);
        let threads = u32::try_from(g.get("threads")?.as_u64()?).ok()?;
        let memory_mb = g.get("memory_mb")?.as_u64_str()?;
        // Pre-check what `grant` would assert on, so damaged input is a
        // typed error, never a panic.
        if threads == 0 || pool.holds(job) || !pool.grant(job, threads, memory_mb) {
            return None;
        }
    }
    Some(pool)
}

fn restore_material(material: &mut MaterializationManager, doc: &Json) -> Option<()> {
    for r in doc.get("resident")?.as_arr()? {
        material.restore_resident(r.get("job")?.as_u64_str()?, r.get("mb")?.as_u64_str()?);
    }
    Some(())
}
