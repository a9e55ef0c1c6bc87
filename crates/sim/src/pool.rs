//! Runtime resource-pool accounting with invariant enforcement.
//!
//! [`CpuPool`] models Rotary-AQP's resource shape — `D` hardware threads
//! plus one shared memory budget (Algorithm 2) — and [`GpuPool`] models
//! Rotary-DLT's — independent devices with private memory (Algorithm 3).
//! Both panic on double-allocation: granting twice is an arbitration bug
//! the test suite must surface. Releasing a grant the pool does not hold
//! returns a typed [`RotaryError::UnknownJob`] instead — under fault
//! injection a recovery path may race a release against a crash handler,
//! and the caller decides whether that is fatal.

use rotary_core::error::{Result, RotaryError};
use rotary_core::job::JobId;
use rotary_core::resources::{CpuPoolSpec, GpuPoolSpec};
use std::collections::BTreeMap;

/// Tracks thread and shared-memory grants for a CPU pool.
#[derive(Debug, Clone)]
pub struct CpuPool {
    spec: CpuPoolSpec,
    grants: BTreeMap<JobId, (u32, u64)>,
}

impl CpuPool {
    /// A fresh, fully free pool.
    pub fn new(spec: CpuPoolSpec) -> Self {
        CpuPool { spec, grants: BTreeMap::new() }
    }

    /// The static pool description.
    pub fn spec(&self) -> CpuPoolSpec {
        self.spec
    }

    /// Threads not currently granted.
    pub fn free_threads(&self) -> u32 {
        self.spec.threads - self.grants.values().map(|(t, _)| t).sum::<u32>()
    }

    /// Shared memory not currently reserved, in megabytes.
    pub fn free_memory_mb(&self) -> u64 {
        self.spec.memory_mb - self.grants.values().map(|(_, m)| m).sum::<u64>()
    }

    /// Whether a job currently holds a grant.
    pub fn holds(&self, job: JobId) -> bool {
        self.grants.contains_key(&job)
    }

    /// Threads granted to a job (0 if none).
    pub fn threads_of(&self, job: JobId) -> u32 {
        self.grants.get(&job).map(|(t, _)| *t).unwrap_or(0)
    }

    /// Grants `threads` and `memory_mb` to a job. Returns `false` (and
    /// changes nothing) if the pool cannot satisfy the request.
    ///
    /// # Panics
    /// Panics if the job already holds a grant (arbitration bug) or the
    /// request is for zero threads.
    pub fn grant(&mut self, job: JobId, threads: u32, memory_mb: u64) -> bool {
        assert!(threads > 0, "grants must include at least one thread");
        assert!(!self.grants.contains_key(&job), "{job} already holds a CPU grant");
        if threads > self.free_threads() || memory_mb > self.free_memory_mb() {
            return false;
        }
        self.grants.insert(job, (threads, memory_mb));
        true
    }

    /// Releases a job's grant (at an epoch boundary). Returns
    /// [`RotaryError::UnknownJob`] — and changes nothing — if the job holds
    /// no grant.
    pub fn release(&mut self, job: JobId) -> Result<()> {
        if self.grants.remove(&job).is_none() {
            return Err(RotaryError::UnknownJob(job.0));
        }
        Ok(())
    }

    /// Jobs currently holding grants, in id order. Each item is
    /// `(job, threads, memory_mb)` — the full grant, for durable snapshots.
    pub fn grants(&self) -> impl Iterator<Item = (JobId, u32, u64)> + '_ {
        self.grants.iter().map(|(job, (threads, memory))| (*job, *threads, *memory))
    }
}

/// Tracks device occupancy for a GPU pool. Each device hosts at most one job
/// ("these resources can only process one job at a time and are not
/// sub-dividable").
#[derive(Debug, Clone)]
pub struct GpuPool {
    spec: GpuPoolSpec,
    occupants: Vec<Option<JobId>>,
}

impl GpuPool {
    /// A fresh pool with all devices idle.
    pub fn new(spec: GpuPoolSpec) -> Self {
        let n = spec.len();
        GpuPool { spec, occupants: vec![None; n] }
    }

    /// The static pool description.
    pub fn spec(&self) -> &GpuPoolSpec {
        &self.spec
    }

    /// True when at least one device is idle.
    pub fn has_free(&self) -> bool {
        self.occupants.iter().any(Option::is_none)
    }

    /// True when `device` exists and is idle.
    pub fn is_free(&self, device: usize) -> bool {
        self.occupants.get(device).is_some_and(Option::is_none)
    }

    /// The first idle device with at least `memory_mb` of device memory —
    /// Algorithm 3's `if m_jk ≤ M_d` placement test.
    pub fn first_fit(&self, memory_mb: u64) -> Option<usize> {
        self.occupants
            .iter()
            .enumerate()
            .find(|(i, o)| o.is_none() && self.spec.devices[*i].memory_mb >= memory_mb)
            .map(|(i, _)| i)
    }

    /// Places a job on a device.
    ///
    /// # Panics
    /// Panics if the device is occupied, out of range, or the job is already
    /// placed somewhere.
    pub fn place(&mut self, job: JobId, device: usize) {
        assert!(device < self.occupants.len(), "device {device} out of range");
        assert!(self.occupants[device].is_none(), "device {device} already occupied");
        assert!(!self.occupants.contains(&Some(job)), "{job} is already placed on another device");
        self.occupants[device] = Some(job);
    }

    /// Vacates the device a job occupies, returning its index. Returns
    /// [`RotaryError::UnknownJob`] — and changes nothing — if the job is not
    /// placed anywhere.
    pub fn vacate(&mut self, job: JobId) -> Result<usize> {
        let device = self
            .occupants
            .iter()
            .position(|o| *o == Some(job))
            .ok_or(RotaryError::UnknownJob(job.0))?;
        self.occupants[device] = None;
        Ok(device)
    }

    /// The device a job occupies, if any.
    pub fn device_of(&self, job: JobId) -> Option<usize> {
        self.occupants.iter().position(|o| *o == Some(job))
    }

    /// Per-device occupancy, indexed by device — for durable snapshots.
    pub fn occupants(&self) -> &[Option<JobId>] {
        &self.occupants
    }

    /// Number of devices in the pool.
    pub fn len(&self) -> usize {
        self.occupants.len()
    }

    /// True for an empty (zero-device) pool.
    pub fn is_empty(&self) -> bool {
        self.occupants.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rotary_core::resources::GpuDeviceSpec;

    fn cpu() -> CpuPool {
        CpuPool::new(CpuPoolSpec { threads: 4, memory_mb: 1000 })
    }

    #[test]
    fn cpu_grant_and_release_cycle() {
        let mut pool = cpu();
        assert!(pool.grant(JobId(1), 1, 400));
        assert!(pool.grant(JobId(2), 2, 500));
        assert_eq!(pool.free_threads(), 1);
        assert_eq!(pool.free_memory_mb(), 100);
        assert!(pool.holds(JobId(1)));
        assert_eq!(pool.threads_of(JobId(2)), 2);

        pool.release(JobId(1)).unwrap();
        assert_eq!(pool.free_threads(), 2);
        assert_eq!(pool.free_memory_mb(), 500);
    }

    #[test]
    fn cpu_grant_fails_when_exhausted() {
        let mut pool = cpu();
        assert!(pool.grant(JobId(1), 4, 100));
        assert!(!pool.grant(JobId(2), 1, 100), "no threads left");
        let mut pool = cpu();
        assert!(pool.grant(JobId(1), 1, 900));
        assert!(!pool.grant(JobId(2), 1, 200), "not enough memory");
        // Failed grants must not leak partial state.
        assert_eq!(pool.free_threads(), 3);
        assert_eq!(pool.free_memory_mb(), 100);
    }

    #[test]
    #[should_panic(expected = "already holds")]
    fn cpu_double_grant_panics() {
        let mut pool = cpu();
        pool.grant(JobId(1), 1, 0);
        pool.grant(JobId(1), 1, 0);
    }

    #[test]
    fn cpu_over_release_is_a_typed_error() {
        let mut pool = cpu();
        pool.grant(JobId(1), 1, 100);
        assert_eq!(pool.release(JobId(9)), Err(RotaryError::UnknownJob(9)));
        // The failed release must not disturb existing grants.
        assert!(pool.holds(JobId(1)));
        assert_eq!(pool.free_threads(), 3);
        // Releasing twice: first succeeds, second is the same typed error.
        pool.release(JobId(1)).unwrap();
        assert_eq!(pool.release(JobId(1)), Err(RotaryError::UnknownJob(1)));
    }

    fn gpu() -> GpuPool {
        GpuPool::new(GpuPoolSpec::homogeneous(2, 8192))
    }

    #[test]
    fn gpu_place_and_vacate() {
        let mut pool = gpu();
        assert!(pool.has_free() && pool.is_free(0) && pool.is_free(1) && !pool.is_free(2));
        pool.place(JobId(1), 0);
        assert!(!pool.is_free(0) && pool.is_free(1));
        assert_eq!(pool.device_of(JobId(1)), Some(0));
        assert_eq!(pool.vacate(JobId(1)), Ok(0));
        assert_eq!(pool.device_of(JobId(1)), None);
    }

    #[test]
    fn gpu_first_fit_respects_memory() {
        let mut pool = GpuPool::new(GpuPoolSpec {
            devices: vec![
                GpuDeviceSpec { memory_mb: 4096, speed: 1.0 },
                GpuDeviceSpec { memory_mb: 8192, speed: 1.0 },
            ],
        });
        assert_eq!(pool.first_fit(6000), Some(1));
        assert_eq!(pool.first_fit(2000), Some(0));
        assert_eq!(pool.first_fit(16_000), None);
        pool.place(JobId(1), 1);
        assert_eq!(pool.first_fit(6000), None, "big device now busy");
    }

    #[test]
    #[should_panic(expected = "already occupied")]
    fn gpu_double_place_panics() {
        let mut pool = gpu();
        pool.place(JobId(1), 0);
        pool.place(JobId(2), 0);
    }

    #[test]
    #[should_panic(expected = "already placed")]
    fn gpu_job_on_two_devices_panics() {
        let mut pool = gpu();
        pool.place(JobId(1), 0);
        pool.place(JobId(1), 1);
    }

    #[test]
    fn gpu_vacate_unplaced_is_a_typed_error() {
        let mut pool = gpu();
        pool.place(JobId(1), 0);
        assert_eq!(pool.vacate(JobId(3)), Err(RotaryError::UnknownJob(3)));
        // The failed vacate must not disturb occupancy.
        assert_eq!(pool.device_of(JobId(1)), Some(0));
        assert_eq!(pool.vacate(JobId(1)), Ok(0));
        assert_eq!(pool.vacate(JobId(1)), Err(RotaryError::UnknownJob(1)));
    }
}
