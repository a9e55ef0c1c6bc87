//! The AQP records of a durable snapshot.
//!
//! The envelope — `meta`, `events`, `loop`, `metrics`, `history`, and each
//! job's lifecycle state — is written once, by
//! [`Run::snapshot`](rotary_faults::arbiter::Run::snapshot). This module
//! adds what only the AQP system knows:
//!
//! * per job — the delivered row count (the executor's aggregation state is
//!   a pure function of the delivered prefix, so restore *replays* it rather
//!   than serializing raw accumulators), envelope windows, estimator points,
//!   and the thread grant;
//! * `pool` / `material` — CPU grants and memory-resident paused state;
//! * `loop.random_est` — the random-estimator RNG position.
//!
//! Everything deterministic and derivable (plans, ground truths, memory
//! estimates, batch permutations) is rebuilt from the config instead of
//! being stored. All parsing is panic-free: malformed input surfaces as
//! [`RotaryError::SnapshotCorrupt`](rotary_core::RotaryError::SnapshotCorrupt),
//! never as a crash.

use std::fmt::Write as _;

use rotary_core::error::Result;
use rotary_core::estimate::JointCurveEstimator;
use rotary_core::history::HistoryRepository;
use rotary_core::job::JobId;
use rotary_core::json::{u64_json, Json};
use rotary_core::SimTime;
use rotary_faults::arbiter::{corrupt, rng_from_json, rng_json, Durable};
use rotary_sim::{CheckpointModel, CpuPool, MaterializationManager};
use rotary_store::record_json;

use super::{AqpPolicy, AqpRunExt, AqpSystem, RunJob};
use crate::estimator::RandomEstimator;
use crate::workload::AqpJobSpec;

impl Durable for AqpSystem<'_> {
    const FORMAT: &'static str = "rotary-aqp-run/v1";

    fn checkpoint(&self) -> &CheckpointModel {
        &self.config.checkpoint
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
        vec![
            ("delivered", u64_json(job.online.rows_delivered() as u64)),
            ("envelopes", Json::Arr(job.envelopes.iter().map(window).collect())),
            ("estimator", job.estimator.to_json()),
            ("threads", Json::Num(job.threads as f64)),
            ("last_threads", Json::Num(job.last_threads as f64)),
            ("pending_persist", u64_json(job.pending_persist.as_millis())),
        ]
    }

    fn load_job(job: &mut RunJob<'_>, entry: &Json) -> Option<()> {
        let delivered = usize::try_from(entry.get("delivered")?.as_u64_str()?).ok()?;
        if delivered > job.online.total_rows() {
            return None;
        }
        if job.base.core.status.is_terminal() {
            // Nobody reads a terminal job's aggregates again: record the
            // position and leave it released, as `retire` left the original.
            job.online.restore_released(delivered);
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
        job.estimator = JointCurveEstimator::from_json(entry.get("estimator")?)?;
        job.threads = u32::try_from(entry.get("threads")?.as_u64()?).ok()?;
        job.last_threads = u32::try_from(entry.get("last_threads")?.as_u64()?).ok()?;
        job.pending_persist = SimTime::from_millis(entry.get("pending_persist")?.as_u64_str()?);
        Some(())
    }

    fn save(
        &self,
        ext: &AqpRunExt,
        loop_doc: &mut Vec<(&'static str, Json)>,
    ) -> Vec<(&'static str, Json)> {
        let grant = |(job, threads, memory_mb): (JobId, u32, u64)| {
            Json::obj(vec![
                ("job", u64_json(job.0)),
                ("threads", Json::Num(threads as f64)),
                ("memory_mb", u64_json(memory_mb)),
            ])
        };
        let resident = |(job, mb)| Json::obj(vec![("job", u64_json(job)), ("mb", u64_json(mb))]);
        let (rng_state, rng_root) = ext.random_est.snapshot_state();
        loop_doc.push(("random_est", rng_json(rng_state, rng_root)));
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
            .ok_or_else(|| bad("material record"))?;
        let (rng_state, rng_root) = record_json(records, "loop")?
            .get("random_est")
            .and_then(rng_from_json)
            .ok_or_else(|| bad("loop.random_est"))?;
        ext.random_est = RandomEstimator::from_snapshot(rng_state, rng_root);
        Ok(())
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
