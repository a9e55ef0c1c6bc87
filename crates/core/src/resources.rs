//! Resource descriptions (paper §III-D "Resources").
//!
//! Jobs are assigned to computing resources — "an available GPU or CPU
//! hardware thread". Resources "can only process one job at a time and are
//! not sub-dividable", and "a job holds on to a particular resource for at
//! least an epoch". Two concrete pool shapes appear in the paper:
//!
//! * Rotary-AQP: `D` CPU hardware threads plus a *shared* memory budget `M`
//!   (Algorithm 2 allocates threads per job and subtracts estimated memory
//!   from the common pool);
//! * Rotary-DLT: `D` GPUs, each with its *own* memory `M_d` (Algorithm 3
//!   places a job on GPU `d` only if its estimated memory fits that device).

/// CPU pool: `D` hardware threads sharing one memory budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuPoolSpec {
    /// Total hardware threads available to arbitration.
    pub threads: u32,
    /// Total memory, in megabytes, shared by all running jobs.
    pub memory_mb: u64,
}

impl CpuPoolSpec {
    /// The paper's AQP testbed: 20 physical cores of a 2×12-core Xeon box
    /// with 192 GB RAM ("we use 20 physical cores and leave the rest for
    /// the OS"); we budget 180 GB for jobs.
    pub fn paper_aqp_testbed() -> Self {
        CpuPoolSpec { threads: 20, memory_mb: 180 * 1024 }
    }
}

/// One GPU device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuDeviceSpec {
    /// Device memory, in megabytes.
    pub memory_mb: u64,
    /// Relative compute throughput (1.0 = the paper's RTX 2080); the pool
    /// "possibly heterogeneous" clause of §III-D is exercised by varying
    /// this.
    pub speed: f64,
}

/// GPU pool: independent devices, each with private memory.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuPoolSpec {
    /// The devices, indexed 0..D.
    pub devices: Vec<GpuDeviceSpec>,
}

impl GpuPoolSpec {
    /// A homogeneous pool of `count` devices with `memory_mb` each.
    pub fn homogeneous(count: usize, memory_mb: u64) -> Self {
        GpuPoolSpec { devices: vec![GpuDeviceSpec { memory_mb, speed: 1.0 }; count] }
    }

    /// The paper's DLT testbed: 4 × RTX 2080 with 8 GB graphics memory.
    pub fn paper_dlt_testbed() -> Self {
        Self::homogeneous(4, 8 * 1024)
    }

    /// Number of devices `D`.
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// True when the pool has no devices.
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_testbeds_match_evaluation_section() {
        let cpu = CpuPoolSpec::paper_aqp_testbed();
        assert_eq!(cpu.threads, 20);
        assert_eq!(cpu.memory_mb, 184_320);

        let gpu = GpuPoolSpec::paper_dlt_testbed();
        assert_eq!(gpu.len(), 4);
        assert!(gpu.devices.iter().all(|d| d.memory_mb == 8192 && d.speed == 1.0));
    }

    #[test]
    fn homogeneous_pool_construction() {
        let pool = GpuPoolSpec::homogeneous(2, 16 * 1024);
        assert_eq!(pool.len(), 2);
        assert!(!pool.is_empty());
        assert!(GpuPoolSpec::homogeneous(0, 1).is_empty());
    }
}
