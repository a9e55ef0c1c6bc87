//! Checkpoint / restore cost model (paper §VI "Implementation Choices").
//!
//! The paper checkpoints paused jobs **to disk**: "Such a mechanism will
//! bring additional overhead but allows more jobs to run simultaneously."
//! The overhead matters to arbitration quality — a policy that thrashes
//! between jobs pays for every interruption, and the paper explicitly lists
//! avoided checkpointing as an advantage of re-prioritising running jobs.
//!
//! The model is a classic disk transfer cost: `latency + size / bandwidth`,
//! applied symmetrically to checkpoint (write) and restore (read).

use rotary_core::error::{Result, RotaryError};
use rotary_core::SimTime;

/// Virtual-time cost model for persisting and restoring job state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CheckpointModel {
    /// Fixed per-operation latency (seek + metadata), virtual time.
    pub latency: SimTime,
    /// Sustained disk bandwidth in MB per virtual second.
    pub bandwidth_mb_per_s: f64,
}

impl CheckpointModel {
    /// A model calibrated to a SATA SSD: 2 ms latency, 500 MB/s.
    pub const fn ssd() -> Self {
        CheckpointModel { latency: SimTime::from_millis(2), bandwidth_mb_per_s: 500.0 }
    }

    /// A free model (for experiments isolating arbitration from I/O cost).
    pub fn free() -> Self {
        CheckpointModel { latency: SimTime::ZERO, bandwidth_mb_per_s: f64::INFINITY }
    }

    /// Rejects a model whose bandwidth cannot price a transfer: zero,
    /// negative, or NaN bandwidth would otherwise silently collapse every
    /// cost to [`SimTime::ZERO`] through the non-finite clamp in
    /// [`SimTime::from_secs_f64`]. `f64::INFINITY` stays valid — it is the
    /// [`CheckpointModel::free`] fast path.
    pub fn validate(&self) -> Result<()> {
        if self.bandwidth_mb_per_s > 0.0 {
            Ok(())
        } else {
            Err(RotaryError::InvalidConfig(format!(
                "checkpoint bandwidth must be positive, got {} MB/s",
                self.bandwidth_mb_per_s
            )))
        }
    }

    /// Cost to write `state_mb` of job state to disk.
    pub fn checkpoint_cost(&self, state_mb: u64) -> SimTime {
        self.transfer(state_mb)
    }

    /// Cost to read `state_mb` back and rebuild in-memory state.
    pub fn restore_cost(&self, state_mb: u64) -> SimTime {
        self.transfer(state_mb)
    }

    fn transfer(&self, state_mb: u64) -> SimTime {
        if self.bandwidth_mb_per_s.is_infinite() {
            return self.latency;
        }
        self.latency + SimTime::from_secs_f64(state_mb as f64 / self.bandwidth_mb_per_s)
    }
}

/// Where a paused job's state is persisted (paper §VI, "Implementation
/// Choices" and "Materialization for Progressive Iterative Analytic").
///
/// "Persisting AQP jobs in memory is more efficient from the perspective of
/// performance but may quickly saturate the memory … Therefore, we
/// checkpoint the AQP jobs in disks." [`MaterializationPolicy::AlwaysDisk`]
/// is the paper's choice; [`MaterializationPolicy::MemoryFirst`] explores
/// the other side of the trade-off with a bounded residency budget and
/// largest-first eviction to disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MaterializationPolicy {
    /// Every paused job goes to disk (the paper's implementation).
    AlwaysDisk,
    /// Keep paused state resident up to a memory budget; evict the largest
    /// resident jobs to disk when the budget (or an external reservation)
    /// demands it.
    MemoryFirst {
        /// Maximum resident paused-job state, in MB.
        budget_mb: u64,
    },
}

/// Tracks where each paused job's state lives and prices pause/resume.
#[derive(Debug, Clone)]
pub struct MaterializationManager {
    policy: MaterializationPolicy,
    disk: CheckpointModel,
    resident: std::collections::BTreeMap<u64, u64>,
}

impl MaterializationManager {
    /// Creates a manager over the given disk model.
    pub fn new(policy: MaterializationPolicy, disk: CheckpointModel) -> Self {
        MaterializationManager { policy, disk, resident: std::collections::BTreeMap::new() }
    }

    /// Paused-job state currently held in memory, in MB.
    pub fn resident_mb(&self) -> u64 {
        self.resident.values().sum()
    }

    /// Pauses a job with `state_mb` of state. Returns the virtual-time cost
    /// of persisting (zero when the state can stay resident).
    ///
    /// Re-pausing a job that is already resident is an idempotent update:
    /// the old entry is dropped before the budget check, so stale sizes
    /// never accumulate in `resident_mb` and the new size competes for the
    /// budget on its own.
    pub fn pause(&mut self, job_id: u64, state_mb: u64) -> SimTime {
        match self.policy {
            MaterializationPolicy::AlwaysDisk => self.disk.checkpoint_cost(state_mb),
            MaterializationPolicy::MemoryFirst { budget_mb } => {
                self.resident.remove(&job_id);
                if self.resident_mb() + state_mb <= budget_mb {
                    self.resident.insert(job_id, state_mb);
                    SimTime::ZERO
                } else {
                    self.disk.checkpoint_cost(state_mb)
                }
            }
        }
    }

    /// Resumes a job. Returns the restore cost — zero when it was resident.
    pub fn resume(&mut self, job_id: u64, state_mb: u64) -> SimTime {
        if self.resident.remove(&job_id).is_some() {
            SimTime::ZERO
        } else {
            self.disk.restore_cost(state_mb)
        }
    }

    /// Evicts resident jobs (largest first) until at least `needed_mb` of
    /// the budget is free — called when running jobs need the memory.
    /// Returns the evicted job ids; their owners will pay a disk restore on
    /// resume (the eviction write happens off the critical path).
    pub fn make_room(&mut self, needed_mb: u64) -> Vec<u64> {
        let MaterializationPolicy::MemoryFirst { budget_mb } = self.policy else {
            return Vec::new();
        };
        let mut evicted = Vec::new();
        while self.resident_mb().saturating_add(needed_mb) > budget_mb && !self.resident.is_empty()
        {
            let (&victim, _) =
                self.resident.iter().max_by_key(|(_, &mb)| mb).expect("non-empty resident set");
            self.resident.remove(&victim);
            evicted.push(victim);
        }
        evicted
    }

    /// Drops a terminal job's state without cost accounting.
    pub fn forget(&mut self, job_id: u64) {
        self.resident.remove(&job_id);
    }

    /// Resident paused jobs as `(job_id, state_mb)` in id order — for
    /// durable snapshots.
    pub fn resident(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.resident.iter().map(|(&job, &mb)| (job, mb))
    }

    /// Re-registers a resident entry verbatim during snapshot restore,
    /// bypassing the budget check (the entry passed it when first paused).
    pub fn restore_resident(&mut self, job_id: u64, state_mb: u64) {
        self.resident.insert(job_id, state_mb);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ssd_costs_scale_with_size() {
        let m = CheckpointModel::ssd();
        // 500 MB at 500 MB/s = 1 s + 2 ms latency.
        assert_eq!(m.checkpoint_cost(500), SimTime::from_millis(1002));
        assert_eq!(m.restore_cost(500), SimTime::from_millis(1002));
        assert!(m.checkpoint_cost(1000) > m.checkpoint_cost(100));
    }

    #[test]
    fn zero_state_still_pays_latency() {
        let m = CheckpointModel::ssd();
        assert_eq!(m.checkpoint_cost(0), SimTime::from_millis(2));
    }

    #[test]
    fn free_model_is_free() {
        let m = CheckpointModel::free();
        assert_eq!(m.checkpoint_cost(10_000), SimTime::ZERO);
        assert_eq!(m.restore_cost(10_000), SimTime::ZERO);
    }

    #[test]
    fn validate_rejects_non_positive_bandwidth() {
        for bad in [0.0, -500.0, f64::NAN, f64::NEG_INFINITY] {
            let m = CheckpointModel { latency: SimTime::from_millis(2), bandwidth_mb_per_s: bad };
            match m.validate() {
                Err(RotaryError::InvalidConfig(msg)) => {
                    assert!(msg.contains("bandwidth"), "{msg}");
                }
                other => unreachable!("bandwidth {bad} must be rejected, got {other:?}"),
            }
        }
        assert_eq!(CheckpointModel::ssd().validate(), Ok(()));
    }

    #[test]
    fn validate_accepts_the_infinite_fast_path() {
        // INFINITY is the `free()` model: valid, and priced as pure latency.
        let m =
            CheckpointModel { latency: SimTime::from_millis(3), bandwidth_mb_per_s: f64::INFINITY };
        assert_eq!(m.validate(), Ok(()));
        assert_eq!(m.checkpoint_cost(1_000_000), SimTime::from_millis(3));
        assert_eq!(m.restore_cost(1_000_000), SimTime::from_millis(3));
    }

    #[test]
    fn resident_round_trips_through_restore() {
        let mut mgr = MaterializationManager::new(
            MaterializationPolicy::MemoryFirst { budget_mb: 1000 },
            CheckpointModel::ssd(),
        );
        mgr.pause(1, 400);
        mgr.pause(2, 500);
        let entries: Vec<(u64, u64)> = mgr.resident().collect();
        assert_eq!(entries, vec![(1, 400), (2, 500)]);

        let mut restored = MaterializationManager::new(
            MaterializationPolicy::MemoryFirst { budget_mb: 1000 },
            CheckpointModel::ssd(),
        );
        for (job, mb) in entries {
            restored.restore_resident(job, mb);
        }
        assert_eq!(restored.resident_mb(), mgr.resident_mb());
        assert_eq!(restored.resume(1, 400), SimTime::ZERO);
    }

    #[test]
    fn always_disk_charges_both_ways() {
        let mut mgr =
            MaterializationManager::new(MaterializationPolicy::AlwaysDisk, CheckpointModel::ssd());
        assert!(mgr.pause(1, 500) > SimTime::ZERO);
        assert!(mgr.resume(1, 500) > SimTime::ZERO);
        assert_eq!(mgr.resident_mb(), 0);
    }

    #[test]
    fn memory_first_is_free_within_budget() {
        let mut mgr = MaterializationManager::new(
            MaterializationPolicy::MemoryFirst { budget_mb: 1000 },
            CheckpointModel::ssd(),
        );
        assert_eq!(mgr.pause(1, 400), SimTime::ZERO);
        assert_eq!(mgr.pause(2, 500), SimTime::ZERO);
        assert_eq!(mgr.resident_mb(), 900);
        // Over budget: job 3 spills to disk.
        assert!(mgr.pause(3, 400) > SimTime::ZERO);
        // Resident jobs resume for free; spilled jobs pay the restore.
        assert_eq!(mgr.resume(1, 400), SimTime::ZERO);
        assert!(mgr.resume(3, 400) > SimTime::ZERO);
        assert_eq!(mgr.resident_mb(), 500);
    }

    #[test]
    fn eviction_frees_largest_first() {
        let mut mgr = MaterializationManager::new(
            MaterializationPolicy::MemoryFirst { budget_mb: 1000 },
            CheckpointModel::ssd(),
        );
        mgr.pause(1, 300);
        mgr.pause(2, 600);
        let evicted = mgr.make_room(500);
        assert_eq!(evicted, vec![2], "largest resident job evicted");
        assert_eq!(mgr.resident_mb(), 300);
        // The evicted job now restores from disk.
        assert!(mgr.resume(2, 600) > SimTime::ZERO);
    }

    #[test]
    fn double_pause_is_an_idempotent_update() {
        let mut mgr = MaterializationManager::new(
            MaterializationPolicy::MemoryFirst { budget_mb: 1000 },
            CheckpointModel::ssd(),
        );
        assert_eq!(mgr.pause(1, 600), SimTime::ZERO);
        // Re-pausing the same job must replace its entry, not leak the old
        // 600 MB: the update stays within budget and costs nothing.
        assert_eq!(mgr.pause(1, 700), SimTime::ZERO);
        assert_eq!(mgr.resident_mb(), 700);
        // Growing past the budget spills to disk and drops the stale entry.
        assert!(mgr.pause(1, 1200) > SimTime::ZERO);
        assert_eq!(mgr.resident_mb(), 0);
        assert!(mgr.resume(1, 1200) > SimTime::ZERO, "spilled job restores from disk");
    }

    #[test]
    fn forget_drops_state_silently() {
        let mut mgr = MaterializationManager::new(
            MaterializationPolicy::MemoryFirst { budget_mb: 1000 },
            CheckpointModel::ssd(),
        );
        mgr.pause(7, 800);
        mgr.forget(7);
        assert_eq!(mgr.resident_mb(), 0);
    }

    #[test]
    fn make_room_is_a_noop_for_always_disk() {
        let mut mgr =
            MaterializationManager::new(MaterializationPolicy::AlwaysDisk, CheckpointModel::ssd());
        mgr.pause(1, 800);
        assert!(mgr.make_room(10_000).is_empty());
    }
}
