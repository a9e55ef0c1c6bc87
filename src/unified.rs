//! A unified AQP + DLT arbitration run — the paper's §VI outlook.
//!
//! "It is more interesting to have a unified resource arbitration system on
//! a cluster to handle AQP and DLT jobs together. Such a system can serve
//! more users and enormously improve resource utilization." This module is
//! a first step in that direction: one cluster description holding both a
//! CPU pool (for approximate queries) and a GPU pool (for training jobs),
//! one submission surface taking the shared completion-criteria DSL, and
//! one report over the combined workload on a common virtual timeline.
//!
//! Resource arbitration remains per-pool — queries cannot consume GPUs, nor
//! training jobs CPU threads, which mirrors how mixed clusters are
//! partitioned in practice — but the combined attainment rate `ψ`, the
//! shared clock, and the merged timeline give operators the single-pane
//! view the paper's discussion asks for.

use crate::serve::{aqp_payload, dlt_payload, AqpServeBackend, DltServeBackend};
use rotary_aqp::{AqpJobSpec, AqpPolicy, AqpRunResult, AqpSystem, AqpSystemConfig};
use rotary_core::error::Result;
use rotary_core::json::Json;
use rotary_core::SimTime;
use rotary_dlt::{DltJobSpec, DltPolicy, DltRunResult, DltSystem, DltSystemConfig};
use rotary_serve::{run_schedule, ServeConfig, ServeReport, Submission, TokenBucketConfig};
use rotary_tpch::TpchData;

/// Configuration of a mixed cluster.
#[derive(Debug, Clone, Default)]
pub struct UnifiedConfig {
    /// The CPU side (threads + shared memory) serving AQP jobs.
    pub aqp: AqpSystemConfig,
    /// The GPU side serving DLT jobs.
    pub dlt: DltSystemConfig,
}

/// Outcome of a combined run.
#[derive(Debug)]
pub struct UnifiedRunResult {
    /// The AQP half.
    pub aqp: AqpRunResult,
    /// The DLT half.
    pub dlt: DltRunResult,
}

impl UnifiedRunResult {
    /// Jobs submitted across both pools.
    pub fn total_jobs(&self) -> usize {
        self.aqp.jobs.len() + self.dlt.jobs.len()
    }

    /// Genuinely attained jobs across both pools.
    pub fn total_attained(&self) -> usize {
        self.aqp.summary.attained + self.dlt.summary.attained
    }

    /// Combined attainment rate `ψ` over the whole mixed workload.
    pub fn combined_attainment_rate(&self) -> f64 {
        if self.total_jobs() == 0 {
            0.0
        } else {
            self.total_attained() as f64 / self.total_jobs() as f64
        }
    }

    /// The mixed workload's makespan on the shared virtual timeline.
    pub fn makespan(&self) -> SimTime {
        self.aqp.makespan.max(self.dlt.makespan)
    }
}

/// Outcome of a combined run routed through the serve layer: one
/// admission report per pool, with every submission accounted for by a
/// typed terminal outcome.
#[derive(Debug)]
pub struct UnifiedServeReport {
    /// The CPU pool's daemon report.
    pub aqp: ServeReport,
    /// The GPU pool's daemon report.
    pub dlt: ServeReport,
}

impl UnifiedServeReport {
    /// Genuinely attained jobs across both pools.
    pub fn total_attained(&self) -> u64 {
        self.aqp.metrics.counters.completed_attained + self.dlt.metrics.counters.completed_attained
    }

    /// Combined attainment rate `ψ` over everything submitted.
    pub fn combined_attainment_rate(&self) -> f64 {
        let subs = self.aqp.metrics.counters.submissions + self.dlt.metrics.counters.submissions;
        if subs == 0 {
            0.0
        } else {
            self.total_attained() as f64 / subs as f64
        }
    }
}

/// A mixed AQP + DLT cluster under one submission surface.
pub struct UnifiedCluster<'a> {
    aqp: AqpSystem<'a>,
    dlt: DltSystem,
}

impl<'a> UnifiedCluster<'a> {
    /// Brings the cluster up against a TPC-H dataset (the AQP side's
    /// streamed source).
    pub fn new(data: &'a TpchData, config: UnifiedConfig) -> UnifiedCluster<'a> {
        UnifiedCluster { aqp: AqpSystem::new(data, config.aqp), dlt: DltSystem::new(config.dlt) }
    }

    /// Warms both history repositories (the Rotary estimators' fuel).
    ///
    /// # Errors
    /// [`rotary_core::error::RotaryError::PlanBind`] when a built-in AQP
    /// plan fails to bind against the dataset.
    pub fn prepopulate_history(&mut self, dlt_specs: &[DltJobSpec], seed: u64) -> Result<()> {
        self.aqp.prepopulate_history(seed)?;
        self.dlt.prepopulate_history(dlt_specs, seed);
        Ok(())
    }

    /// Runs a mixed workload: AQP jobs on the CPU pool, DLT jobs on the
    /// GPU pool, both on the same virtual timeline.
    ///
    /// # Errors
    /// [`rotary_core::error::RotaryError::PlanBind`] when an AQP spec
    /// fails to bind against the dataset; nothing runs in that case.
    pub fn run(
        &mut self,
        aqp_jobs: &[AqpJobSpec],
        dlt_jobs: &[DltJobSpec],
        aqp_policy: AqpPolicy,
        dlt_policy: DltPolicy,
    ) -> Result<UnifiedRunResult> {
        Ok(UnifiedRunResult {
            aqp: self.aqp.run(aqp_jobs, aqp_policy)?,
            dlt: self.dlt.run(dlt_jobs, dlt_policy),
        })
    }

    /// Runs the same mixed workload through the serve layer: every job
    /// enters its pool's daemon as a [`Submission`] at its arrival
    /// instant, passes admission control, and leaves as a typed terminal
    /// outcome. The daemons are sized wide open (no quota, queue, or
    /// timeout pressure), so arbitration outcomes match [`Self::run`] —
    /// what this adds is the front door: validation, per-ticket outcome
    /// accounting, and the service metrics in the report.
    ///
    /// Consumes the cluster: the backends take ownership of the systems.
    /// AQP jobs must be ordered by arrival (workload builders emit them
    /// that way).
    ///
    /// # Errors
    /// [`rotary_core::error::RotaryError::InvalidConfig`] if a generated
    /// submission schedule fails daemon validation.
    pub fn serve(
        self,
        aqp_jobs: &[AqpJobSpec],
        dlt_jobs: &[DltJobSpec],
        aqp_policy: AqpPolicy,
        dlt_policy: DltPolicy,
    ) -> Result<UnifiedServeReport> {
        debug_assert!(aqp_jobs.windows(2).all(|w| w[0].arrival <= w[1].arrival));
        let aqp_schedule: Vec<(SimTime, Submission)> = aqp_jobs
            .iter()
            .enumerate()
            .map(|(i, spec)| (spec.arrival, submission_of(i, spec.deadline, aqp_payload(spec))))
            .collect();
        // DLT batch runs start every job at time zero; an effectively
        // unbounded submission deadline keeps the front door from shedding
        // what the arbitrator itself would have run to termination.
        let far = SimTime::from_mins(1 << 22);
        let dlt_schedule: Vec<(SimTime, Submission)> = dlt_jobs
            .iter()
            .enumerate()
            .map(|(i, spec)| (SimTime::ZERO, submission_of(i, far, dlt_payload(spec))))
            .collect();
        let aqp = run_schedule(
            open_config(aqp_jobs.len()),
            AqpServeBackend::new(self.aqp, aqp_policy)?,
            &aqp_schedule,
        )?;
        let dlt = run_schedule(
            open_config(dlt_jobs.len()),
            DltServeBackend::new(self.dlt, dlt_policy),
            &dlt_schedule,
        )?;
        Ok(UnifiedServeReport { aqp, dlt })
    }
}

/// One tenant, strictly increasing sequence numbers, real payload sizes.
fn submission_of(i: usize, deadline: SimTime, payload: Json) -> Submission {
    let bytes = payload.to_pretty().len() as u64;
    Submission {
        tenant: 0,
        seq: i as u64 + 1,
        attempt: 0,
        deadline,
        cost_milli: 1000,
        bytes,
        payload,
    }
}

/// A daemon sized so admission control never perturbs arbitration: the
/// queue holds the whole workload, quota and inflight caps are effectively
/// unlimited, and shedding only triggers at a full queue (which cannot
/// fill).
fn open_config(jobs: usize) -> ServeConfig {
    ServeConfig {
        queue_capacity: jobs.max(1),
        bucket: TokenBucketConfig::per_second(1 << 40, 1 << 40),
        max_tenants: 1,
        max_payload_bytes: 1 << 20,
        max_inflight: jobs.max(1),
        admission_timeout: SimTime::from_mins(1 << 22),
        retry: Default::default(),
        pressure_watermark: 1.0,
        shed_watermark: 1.0,
        resume_watermark: 1.0,
        record_outcomes: true,
        retain_payloads: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rotary_aqp::WorkloadBuilder;
    use rotary_core::job::JobStatus;
    use rotary_core::progress::Objective;
    use rotary_dlt::DltWorkloadBuilder;
    use rotary_tpch::Generator;

    #[test]
    fn mixed_workload_runs_on_one_timeline() {
        let data = Generator::new(9, 0.002).generate();
        let mut cluster = UnifiedCluster::new(&data, UnifiedConfig::default());
        let aqp_jobs = WorkloadBuilder::paper().jobs(6).seed(3).build();
        let dlt_jobs = DltWorkloadBuilder::paper().jobs(6).seed(3).build();
        cluster.prepopulate_history(&dlt_jobs, 7).unwrap();

        let result = cluster
            .run(
                &aqp_jobs,
                &dlt_jobs,
                AqpPolicy::Rotary,
                DltPolicy::Rotary(Objective::Threshold(0.5)),
            )
            .unwrap();
        assert_eq!(result.total_jobs(), 12);
        let statuses: Vec<JobStatus> = result
            .aqp
            .jobs
            .iter()
            .map(|(_, s)| s.status)
            .chain(result.dlt.jobs.iter().map(|(_, s)| s.status))
            .collect();
        assert!(statuses.iter().all(|s| s.is_terminal()));
        assert!(result.makespan() >= result.aqp.makespan);
        assert!(result.makespan() >= result.dlt.makespan);
        let psi = result.combined_attainment_rate();
        assert!((0.0..=1.0).contains(&psi));
        let missed = statuses.iter().filter(|&&s| s == JobStatus::DeadlineMissed).count();
        assert_eq!(result.total_attained() + missed + result.aqp.summary.falsely_attained, 12);
    }

    #[test]
    fn serve_admission_matches_batch_outcomes() {
        let data = Generator::new(9, 0.002).generate();
        let config = UnifiedConfig::default();
        let aqp_jobs = WorkloadBuilder::paper().jobs(5).seed(11).build();
        let dlt_jobs = DltWorkloadBuilder::paper().jobs(5).seed(11).build();

        let mut batch = UnifiedCluster::new(&data, config.clone());
        batch.prepopulate_history(&dlt_jobs, 7).unwrap();
        let expect = batch
            .run(
                &aqp_jobs,
                &dlt_jobs,
                AqpPolicy::Rotary,
                DltPolicy::Rotary(Objective::Threshold(0.5)),
            )
            .unwrap();

        let mut served = UnifiedCluster::new(&data, config);
        served.prepopulate_history(&dlt_jobs, 7).unwrap();
        let report = served
            .serve(
                &aqp_jobs,
                &dlt_jobs,
                AqpPolicy::Rotary,
                DltPolicy::Rotary(Objective::Threshold(0.5)),
            )
            .unwrap();

        // Every submission is accounted for by exactly one terminal
        // outcome, and none were rejected or shed on the open config.
        assert_eq!(
            report.aqp.metrics.counters.terminals() + report.dlt.metrics.counters.terminals(),
            10
        );
        assert_eq!(report.aqp.metrics.counters.rejected(), 0);
        assert_eq!(report.dlt.metrics.counters.rejected(), 0);
        assert_eq!(report.aqp.metrics.counters.shed(), 0);
        assert_eq!(report.dlt.metrics.counters.shed(), 0);

        // Arbitration outcomes are unchanged by routing through the front
        // door — per pool, per terminal class.
        assert_eq!(
            report.aqp.metrics.counters.completed_attained,
            expect.aqp.summary.attained as u64
        );
        assert_eq!(
            report.aqp.metrics.counters.completed_falsely,
            expect.aqp.summary.falsely_attained as u64
        );
        assert_eq!(
            report.dlt.metrics.counters.completed_attained,
            expect.dlt.summary.attained as u64
        );
        assert_eq!(
            report.aqp.metrics.counters.completed_missed
                + report.dlt.metrics.counters.completed_missed,
            (expect.aqp.summary.deadline_missed + expect.dlt.summary.deadline_missed) as u64
        );
        assert_eq!(report.total_attained(), expect.total_attained() as u64);
    }

    #[test]
    fn empty_workloads_are_harmless() {
        let data = Generator::new(9, 0.002).generate();
        let mut cluster = UnifiedCluster::new(&data, UnifiedConfig::default());
        let result = cluster.run(&[], &[], AqpPolicy::Rotary, DltPolicy::Srf).unwrap();
        assert_eq!(result.total_jobs(), 0);
        assert_eq!(result.combined_attainment_rate(), 0.0);
        assert_eq!(result.makespan(), SimTime::ZERO);
    }
}
