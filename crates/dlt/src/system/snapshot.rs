//! The DLT records of a durable snapshot.
//!
//! The envelope — `meta`, `events`, `loop`, `metrics`, `history`, and each
//! job's lifecycle state — is written once, by
//! [`Run::snapshot`](rotary_faults::arbiter::Run::snapshot). This module
//! adds what only the DLT system knows: per job the training-sim epoch and
//! RNG position, the TEE points, the learned memory estimate and the last
//! device; and the `pool` (GPU occupancy), `ttr` (epoch-time table) and
//! `meter` (overhead accounting) records. Derivable state (true memory
//! footprints, epoch costs) is rebuilt from the config. All parsing is
//! panic-free — malformed input becomes
//! [`RotaryError::SnapshotCorrupt`](rotary_core::RotaryError::SnapshotCorrupt).

use std::fmt::Write as _;
use std::time::Duration;

use rotary_core::error::Result;
use rotary_core::estimate::JointCurveEstimator;
use rotary_core::history::HistoryRepository;
use rotary_core::job::JobId;
use rotary_core::json::{u64_json, Json};
use rotary_core::SimTime;
use rotary_faults::arbiter::{corrupt, rng_from_json, rng_json, Durable};
use rotary_sim::{CheckpointModel, GpuPool};
use rotary_store::record_json;

use super::{DltPolicy, DltRunExt, DltSystem, OverheadMeter, RunJob, Ttr};
use crate::simulator::TrainingSim;
use crate::workload::DltJobSpec;

impl Durable for DltSystem {
    const FORMAT: &'static str = "rotary-dlt-run/v1";

    fn checkpoint(&self) -> &CheckpointModel {
        &self.config.checkpoint
    }

    fn history(&self) -> &HistoryRepository {
        &self.history
    }

    fn set_history(&mut self, history: HistoryRepository) {
        self.history = history;
    }

    fn policy_name(policy: DltPolicy) -> String {
        policy.name()
    }

    fn fingerprint_text(&self, specs: &[DltJobSpec], text: &mut String) {
        let _ = write!(text, "|seed={}", self.config.seed);
        for (i, device) in self.config.pool.devices.iter().enumerate() {
            let _ = write!(text, "|d{i}:{}mb@{:016x}", device.memory_mb, device.speed.to_bits());
        }
        for spec in specs {
            let _ = write!(text, "|{:?}|{:?}", spec.config, spec.criterion);
        }
    }

    fn save_job(job: &RunJob) -> Vec<(&'static str, Json)> {
        let (rng_state, rng_root) = job.sim.rng_state();
        let sim = Json::obj(vec![
            ("epoch", u64_json(job.sim.epochs())),
            ("last_eval", Json::Num(job.sim.accuracy())),
            ("rng", rng_json(rng_state, rng_root)),
        ]);
        vec![
            ("sim", sim),
            ("tee", job.tee.to_json()),
            ("memory_estimate_mb", u64_json(job.memory_estimate_mb)),
            ("converged_flag", Json::Bool(job.converged_flag)),
            ("last_device", job.last_device.map_or(Json::Null, |d| u64_json(d as u64))),
        ]
    }

    fn load_job(job: &mut RunJob, entry: &Json) -> Option<()> {
        let sim = entry.get("sim")?;
        let epoch = sim.get("epoch")?.as_u64_str()?;
        let last_eval = sim.get("last_eval")?.as_f64()?;
        let (rng_state, rng_root) = rng_from_json(sim.get("rng")?)?;
        job.sim = TrainingSim::from_parts(job.spec.config, epoch, last_eval, rng_state, rng_root);
        job.tee = JointCurveEstimator::from_json(entry.get("tee")?)?;
        job.memory_estimate_mb = entry.get("memory_estimate_mb")?.as_u64_str()?;
        job.converged_flag = entry.get("converged_flag")?.as_bool()?;
        job.last_device = match entry.get("last_device")? {
            Json::Null => None,
            value => Some(usize::try_from(value.as_u64_str()?).ok()?),
        };
        Some(())
    }

    fn save(&self, ext: &DltRunExt) -> Vec<(&'static str, Json)> {
        let occupants = ext.pool.occupants().iter().enumerate().filter_map(|(device, job)| {
            let pairs = vec![("job", u64_json((*job)?.0)), ("device", u64_json(device as u64))];
            Some(Json::obj(pairs))
        });
        let entries = ext.ttr.entries().map(|(job, device, t)| {
            Json::obj(vec![
                ("job", u64_json(job.0)),
                ("device", u64_json(device as u64)),
                ("ms", u64_json(t.as_millis())),
            ])
        });
        let nanos = |d: Duration| u64_json(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
        vec![
            ("pool", Json::obj(vec![("occupants", Json::Arr(occupants.collect()))])),
            ("ttr", Json::obj(vec![("entries", Json::Arr(entries.collect()))])),
            (
                "meter",
                Json::obj(vec![
                    ("ttr_ns", nanos(ext.meter.ttr)),
                    ("tee_ns", nanos(ext.meter.tee)),
                    ("tme_ns", nanos(ext.meter.tme)),
                ]),
            ),
        ]
    }

    fn load(&self, ext: &mut DltRunExt, records: &[(String, Vec<u8>)]) -> Result<()> {
        let bad = |what: &str| corrupt::<Self>(&format!("malformed {what}"));
        restore_meter(&mut ext.meter, &record_json(records, "meter")?)
            .ok_or_else(|| bad("meter record"))?;
        restore_pool(&mut ext.pool, &record_json(records, "pool")?)
            .ok_or_else(|| bad("pool record"))?;
        restore_ttr(&mut ext.ttr, &record_json(records, "ttr")?).ok_or_else(|| bad("ttr record"))
    }
}

fn restore_pool(pool: &mut GpuPool, doc: &Json) -> Option<()> {
    for o in doc.get("occupants")?.as_arr()? {
        let job = JobId(o.get("job")?.as_u64_str()?);
        let device = usize::try_from(o.get("device")?.as_u64_str()?).ok()?;
        // Pre-check what `place` would assert on, so damaged input is a
        // typed error, never a panic.
        if pool.occupants().get(device)?.is_some() || pool.device_of(job).is_some() {
            return None;
        }
        pool.place(job, device);
    }
    Some(())
}

fn restore_ttr(ttr: &mut Ttr, doc: &Json) -> Option<()> {
    for e in doc.get("entries")?.as_arr()? {
        let job = JobId(e.get("job")?.as_u64_str()?);
        let device = usize::try_from(e.get("device")?.as_u64_str()?).ok()?;
        ttr.record(job, device, SimTime::from_millis(e.get("ms")?.as_u64_str()?));
    }
    Some(())
}

fn restore_meter(meter: &mut OverheadMeter, doc: &Json) -> Option<()> {
    meter.ttr = Duration::from_nanos(doc.get("ttr_ns")?.as_u64_str()?);
    meter.tee = Duration::from_nanos(doc.get("tee_ns")?.as_u64_str()?);
    meter.tme = Duration::from_nanos(doc.get("tme_ns")?.as_u64_str()?);
    Some(())
}
