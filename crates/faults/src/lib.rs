//! # Deterministic fault injection for the Rotary arbitration loop
//!
//! The paper's central trade-off — checkpointing paused jobs "brings
//! additional overhead but allows more jobs to run simultaneously" (§VI) —
//! only matters in a world where pauses, failures and restarts actually
//! happen. This crate supplies that world: a seed-driven [`FaultPlan`] that
//! both system loops (`rotary-aqp`, `rotary-dlt`) consult at well-defined
//! points to inject epoch-level faults, plus the [`RetryPolicy`] governing
//! recovery.
//!
//! ## Fault taxonomy
//!
//! * **Job crash** — an epoch dies partway through. The work of the epoch is
//!   lost (the job rolls back to its last completed epoch; its in-memory
//!   state is gone, so the next launch pays a checkpoint restore), the
//!   wasted virtual time is still charged, and the job retries after a
//!   capped exponential backoff.
//! * **Straggler epoch** — the epoch completes but takes a slowdown
//!   multiplier longer (a noisy neighbour, a degraded disk, a thermal
//!   throttle).
//! * **Checkpoint write failure** — persisting a paused job's state fails
//!   once and is retried, charging one extra write.
//! * **Checkpoint restore failure** — reading state back fails once and is
//!   retried, charging one extra read.
//! * **Memory-pressure spike** — a transient external reservation shrinks
//!   the free memory the arbiter may hand out during a time slot.
//!
//! ## Determinism guarantee
//!
//! Every decision is a **pure function** of `(seed, decision coordinates)`:
//! each query forks a fresh named stream from the plan's root seed
//! ([`rotary_sim::rng::Rng::fork`] is position-independent), so the answer
//! never depends on how many other decisions were made, in what order, or
//! on which thread. Both systems consult the plan only from their *serial*
//! control-plane passes, which keeps multi-thread runs bit-identical
//! (`threads` 1, 2, 4, 8) under any plan.
//!
//! An inert plan (all probabilities zero — [`FaultPlan::none`]) injects
//! nothing, schedules nothing, and charges nothing: runs are byte-identical
//! to a build without the fault layer.

#![warn(missing_docs)]

pub mod arbiter;

use rotary_core::error::{Result, RotaryError};
use rotary_core::SimTime;
use rotary_sim::rng::Rng;

/// Epoch retry with capped exponential backoff, in virtual time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Attempts allowed per epoch (first try included) before the job is
    /// declared failed.
    pub max_attempts: u32,
    /// Backoff before the first retry.
    pub base_backoff: SimTime,
    /// Cap on the exponential backoff.
    pub max_backoff: SimTime,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_backoff: SimTime::from_secs(5),
            max_backoff: SimTime::from_secs(120),
        }
    }
}

impl RetryPolicy {
    /// Backoff before retry number `attempt` (1-based): `base · 2^(a−1)`,
    /// capped at [`RetryPolicy::max_backoff`].
    pub fn backoff(&self, attempt: u32) -> SimTime {
        let doublings = attempt.saturating_sub(1).min(32);
        (self.base_backoff * (1u64 << doublings)).min(self.max_backoff)
    }

    /// Decides what happens after a failed attempt: `Ok(backoff)` schedules
    /// a retry, [`RotaryError::RetriesExhausted`] ends the job.
    pub fn evaluate(&self, job: u64, epoch: u64, attempts: u32) -> Result<SimTime> {
        if attempts >= self.max_attempts {
            Err(RotaryError::RetriesExhausted { job, epoch, attempts })
        } else {
            Ok(self.backoff(attempts))
        }
    }
}

/// Probabilities governing hostile submission streams at the service
/// layer's front door (`rotary-serve`). Unlike epoch faults, these never
/// touch a running job: they shape what arrives at admission — bursts,
/// duplicates, garbage payloads, and tenants that flood the queue.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SubmissionFaultConfig {
    /// Per-(tenant, window) probability the window carries a burst of
    /// extra arrivals on top of the nominal schedule.
    pub burst_prob: f64,
    /// Extra arrivals injected by one burst (uniform inclusive range).
    pub burst_extra: (u32, u32),
    /// Per-submission probability the submission is a duplicate resend of
    /// the tenant's previous one (same submission id).
    pub duplicate_prob: f64,
    /// Per-submission probability the payload is malformed (fails parse).
    pub malformed_prob: f64,
    /// Per-submission probability the payload is oversized (exceeds the
    /// daemon's size cap).
    pub oversized_prob: f64,
    /// Per-(tenant, window) probability the tenant floods: its arrival
    /// rate is multiplied by [`SubmissionFaultConfig::flood_factor`] for
    /// the window.
    pub flood_prob: f64,
    /// Arrival-rate multiplier while a tenant floods, `≥ 1`.
    pub flood_factor: u32,
}

impl SubmissionFaultConfig {
    /// An inert configuration: every submission arrives clean, on time,
    /// exactly once.
    pub fn none() -> SubmissionFaultConfig {
        SubmissionFaultConfig {
            burst_prob: 0.0,
            burst_extra: (0, 0),
            duplicate_prob: 0.0,
            malformed_prob: 0.0,
            oversized_prob: 0.0,
            flood_prob: 0.0,
            flood_factor: 1,
        }
    }

    /// The hostile-tenant profile folded into [`FaultConfig::chaos`].
    pub fn chaos() -> SubmissionFaultConfig {
        SubmissionFaultConfig {
            burst_prob: 0.10,
            burst_extra: (1, 8),
            duplicate_prob: 0.05,
            malformed_prob: 0.03,
            oversized_prob: 0.02,
            flood_prob: 0.05,
            flood_factor: 4,
        }
    }

    /// True when no submission-level fault can ever fire.
    pub fn is_inert(&self) -> bool {
        self.burst_prob == 0.0
            && self.duplicate_prob == 0.0
            && self.malformed_prob == 0.0
            && self.oversized_prob == 0.0
            && (self.flood_prob == 0.0 || self.flood_factor <= 1)
    }
}

impl Default for SubmissionFaultConfig {
    fn default() -> Self {
        SubmissionFaultConfig::none()
    }
}

/// Probabilities governing hostile **byte streams** at the TCP front
/// door (`rotary-serve`'s transport). One level below
/// [`SubmissionFaultConfig`]: these faults damage the wire itself —
/// frames torn by a dying client, single bit flips the CRC must catch,
/// connections reset mid-conversation, and slow clients dribbling a
/// frame a few bytes at a time (slowloris).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetFaultConfig {
    /// Per-frame probability the frame is torn: only a prefix reaches the
    /// server before the connection drops.
    pub torn_prob: f64,
    /// Per-frame probability of a single bit flip somewhere in the frame.
    pub bitflip_prob: f64,
    /// Per-frame probability the connection is reset right after the
    /// frame is written, before any response is read.
    pub reset_prob: f64,
    /// Per-frame probability the frame is dribbled out in tiny chunks.
    pub dribble_prob: f64,
    /// Dribble chunk size in bytes (uniform inclusive range, `≥ 1`).
    pub dribble_chunk: (u32, u32),
    /// Extra immediate reconnects a client performs after a fault-induced
    /// disconnect (uniform inclusive range) — the reconnect-burst storm.
    pub reconnect_burst: (u32, u32),
}

impl NetFaultConfig {
    /// An inert configuration: every frame arrives whole, in order, once.
    pub fn none() -> NetFaultConfig {
        NetFaultConfig {
            torn_prob: 0.0,
            bitflip_prob: 0.0,
            reset_prob: 0.0,
            dribble_prob: 0.0,
            dribble_chunk: (1, 1),
            reconnect_burst: (0, 0),
        }
    }

    /// The hostile-network profile folded into [`FaultConfig::chaos`].
    pub fn chaos() -> NetFaultConfig {
        NetFaultConfig {
            torn_prob: 0.04,
            bitflip_prob: 0.06,
            reset_prob: 0.04,
            dribble_prob: 0.06,
            dribble_chunk: (1, 7),
            reconnect_burst: (1, 3),
        }
    }

    /// True when no wire-level fault can ever fire.
    pub fn is_inert(&self) -> bool {
        self.torn_prob == 0.0
            && self.bitflip_prob == 0.0
            && self.reset_prob == 0.0
            && self.dribble_prob == 0.0
    }
}

impl Default for NetFaultConfig {
    fn default() -> Self {
        NetFaultConfig::none()
    }
}

/// What the plan decreed for one `(connection, frame)` coordinate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NetFault {
    /// The frame goes out whole.
    None,
    /// Only a prefix of the frame is written, then the connection drops:
    /// the server is left holding a partial frame forever.
    Torn {
        /// Fraction of the frame's bytes that make it out, in `[0, 1)`.
        keep_fraction: f64,
    },
    /// One bit of the frame is flipped in flight; the frame CRC (or the
    /// magic check) must catch it.
    BitFlip {
        /// Where in the frame the flip lands, as a fraction of its
        /// length in `[0, 1)`.
        offset_fraction: f64,
        /// Which bit of that byte flips.
        bit: u8,
    },
    /// The whole frame is written, then the connection is torn down
    /// before the client reads any response.
    Reset,
    /// The frame is written `chunk` bytes at a time — a stalled client
    /// exercising the server's per-frame deadline.
    Dribble {
        /// Write granularity in bytes, `≥ 1`.
        chunk: usize,
    },
}

/// How a faulted frame should be put on the wire: the deterministic byte
/// transform behind [`NetFault`], which the socket chaos suite
/// (`crates/serve/tests/net_chaos.rs`) applies to each frame it sends.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetEffect {
    /// The bytes that actually go out (possibly truncated or flipped).
    pub bytes: Vec<u8>,
    /// Write granularity; `None` means one write.
    pub chunk: Option<usize>,
    /// Whether the client tears the connection down after writing.
    pub drop_after: bool,
}

impl NetFault {
    /// Applies the fault to an encoded frame, yielding the wire plan.
    pub fn apply(&self, frame: &[u8]) -> NetEffect {
        match *self {
            NetFault::None => NetEffect { bytes: frame.to_vec(), chunk: None, drop_after: false },
            NetFault::Torn { keep_fraction } => {
                // rotary-lint: allow(F002) frame lengths are capped at
                // MAX_FRAME_PAYLOAD (~2^20), far inside f64's exact range.
                let keep = ((frame.len() as f64) * keep_fraction.clamp(0.0, 1.0)) as usize;
                let keep = keep.min(frame.len().saturating_sub(1));
                NetEffect { bytes: frame[..keep].to_vec(), chunk: None, drop_after: true }
            }
            NetFault::BitFlip { offset_fraction, bit } => {
                let mut bytes = frame.to_vec();
                if !bytes.is_empty() {
                    // rotary-lint: allow(F002) same bound as Torn above.
                    let offset = (((bytes.len() as f64) * offset_fraction.clamp(0.0, 1.0))
                        as usize)
                        .min(bytes.len() - 1);
                    bytes[offset] ^= 1 << (bit & 7);
                }
                NetEffect { bytes, chunk: None, drop_after: false }
            }
            NetFault::Reset => NetEffect { bytes: frame.to_vec(), chunk: None, drop_after: true },
            NetFault::Dribble { chunk } => {
                NetEffect { bytes: frame.to_vec(), chunk: Some(chunk.max(1)), drop_after: false }
            }
        }
    }
}

/// What the plan decreed for one tenant's `k`-th submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmissionFault {
    /// The submission arrives clean.
    None,
    /// The submission is a resend of the tenant's previous one: it carries
    /// the same submission id and must be rejected as a duplicate.
    Duplicate,
    /// The payload is garbage and fails to parse.
    Malformed,
    /// The payload exceeds the daemon's size cap.
    Oversized,
}

/// Probabilities and magnitudes of the injected faults.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// Root seed; all decisions derive from it via named fork streams.
    pub seed: u64,
    /// Per-attempt probability an epoch crashes mid-run.
    pub crash_prob: f64,
    /// Per-attempt probability an epoch straggles.
    pub straggler_prob: f64,
    /// Straggler slowdown multiplier range (uniform), `≥ 1`.
    pub straggler_slowdown: (f64, f64),
    /// Probability a checkpoint write fails (and is retried once).
    pub checkpoint_fail_prob: f64,
    /// Probability a checkpoint restore fails (and is retried once).
    pub restore_fail_prob: f64,
    /// Probability a durable snapshot commit is torn mid-write (the file is
    /// truncated at a seed-chosen offset before it lands on disk).
    pub snap_torn_prob: f64,
    /// Probability a durable snapshot suffers a single bit flip at rest.
    pub snap_bitflip_prob: f64,
    /// Probability a given time slot carries a memory-pressure spike.
    pub mem_spike_prob: f64,
    /// Size of a spike, in MB withheld from the arbiter.
    pub mem_spike_mb: u64,
    /// Length of one pressure time slot.
    pub mem_spike_slot: SimTime,
    /// Recovery policy for crashed epochs.
    pub retry: RetryPolicy,
    /// Submission-stream faults consumed by the service layer.
    pub submission: SubmissionFaultConfig,
    /// Wire-level faults consumed by the TCP transport's chaos shim.
    pub net: NetFaultConfig,
}

impl FaultConfig {
    /// An inert configuration: nothing ever fails.
    pub fn none() -> FaultConfig {
        FaultConfig {
            seed: 0,
            crash_prob: 0.0,
            straggler_prob: 0.0,
            straggler_slowdown: (1.0, 1.0),
            checkpoint_fail_prob: 0.0,
            restore_fail_prob: 0.0,
            snap_torn_prob: 0.0,
            snap_bitflip_prob: 0.0,
            mem_spike_prob: 0.0,
            mem_spike_mb: 0,
            mem_spike_slot: SimTime::from_mins(10),
            retry: RetryPolicy::default(),
            submission: SubmissionFaultConfig::none(),
            net: NetFaultConfig::none(),
        }
    }

    /// A moderately hostile configuration seeded by `seed` — the default
    /// chaos profile.
    pub fn chaos(seed: u64) -> FaultConfig {
        FaultConfig {
            seed,
            crash_prob: 0.05,
            straggler_prob: 0.10,
            straggler_slowdown: (1.5, 4.0),
            checkpoint_fail_prob: 0.05,
            restore_fail_prob: 0.05,
            snap_torn_prob: 0.05,
            snap_bitflip_prob: 0.05,
            mem_spike_prob: 0.10,
            mem_spike_mb: 4096,
            mem_spike_slot: SimTime::from_mins(10),
            retry: RetryPolicy::default(),
            submission: SubmissionFaultConfig::chaos(),
            net: NetFaultConfig::chaos(),
        }
    }
}

/// What the plan decreed for one `(job, epoch, attempt)` coordinate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EpochFault {
    /// The epoch runs normally.
    None,
    /// The epoch crashes after wasting this fraction of its duration; its
    /// work is lost and the job rolls back to its last checkpoint.
    Crash {
        /// Fraction of the epoch's virtual duration burned before the
        /// crash, in `[0, 1)`.
        wasted_fraction: f64,
    },
    /// The epoch completes, scaled by a slowdown multiplier `≥ 1`.
    Straggler {
        /// Duration multiplier.
        slowdown: f64,
    },
}

/// A deterministic, seed-driven fault plan.
///
/// The plan is stateless: every decision is recomputed on demand from the
/// root seed and the decision's coordinates, so callers may query it in any
/// order (or never) without perturbing other decisions.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    config: FaultConfig,
    /// Cached root stream — forking only reads the root seed, so one
    /// instance serves every decision.
    root: Rng,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

impl FaultPlan {
    /// A plan driven by the given configuration.
    pub fn new(config: FaultConfig) -> FaultPlan {
        let root = Rng::seed_from_u64(config.seed);
        FaultPlan { config, root }
    }

    /// The inert plan: injects nothing, ever.
    pub fn none() -> FaultPlan {
        FaultPlan::new(FaultConfig::none())
    }

    /// The default chaos profile at the given seed.
    pub fn chaos(seed: u64) -> FaultPlan {
        FaultPlan::new(FaultConfig::chaos(seed))
    }

    /// The configuration behind the plan.
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// The recovery policy.
    pub fn retry(&self) -> &RetryPolicy {
        &self.config.retry
    }

    /// True when the plan can never inject anything — the systems skip all
    /// fault bookkeeping for inert plans (pay-for-what-you-use).
    pub fn is_inert(&self) -> bool {
        let c = &self.config;
        c.crash_prob == 0.0
            && c.straggler_prob == 0.0
            && c.checkpoint_fail_prob == 0.0
            && c.restore_fail_prob == 0.0
            && (c.mem_spike_prob == 0.0 || c.mem_spike_mb == 0)
    }

    /// Named decision stream for one coordinate tuple.
    fn stream(&self, name: &str) -> Rng {
        self.root.fork(name)
    }

    /// The fate of attempt `attempt` (0-based) of epoch `epoch` (1-based)
    /// of job `job`. Crash and straggler draws are independent per attempt,
    /// so a retried epoch may crash again — that is what the retry cap is
    /// for.
    pub fn epoch_fault(&self, job: u64, epoch: u64, attempt: u32) -> EpochFault {
        if self.is_inert() {
            return EpochFault::None;
        }
        let mut rng = self.stream(&format!("epoch/{job}/{epoch}/{attempt}"));
        if self.config.crash_prob > 0.0 && rng.gen_bool(self.config.crash_prob) {
            return EpochFault::Crash { wasted_fraction: rng.gen_range(0.0..1.0) };
        }
        if self.config.straggler_prob > 0.0 && rng.gen_bool(self.config.straggler_prob) {
            let (lo, hi) = self.config.straggler_slowdown;
            let slowdown = if hi > lo { rng.gen_range(lo..hi) } else { lo };
            return EpochFault::Straggler { slowdown: slowdown.max(1.0) };
        }
        EpochFault::None
    }

    /// Whether job `job`'s `nth` checkpoint write succeeds.
    pub fn checkpoint_write(&self, job: u64, nth: u64) -> Result<()> {
        if self.config.checkpoint_fail_prob > 0.0
            && self.stream(&format!("ckpt/{job}/{nth}")).gen_bool(self.config.checkpoint_fail_prob)
        {
            return Err(RotaryError::CheckpointFailed { job, operation: "write" });
        }
        Ok(())
    }

    /// Whether job `job`'s `nth` checkpoint restore succeeds.
    pub fn restore(&self, job: u64, nth: u64) -> Result<()> {
        if self.config.restore_fail_prob > 0.0
            && self.stream(&format!("restore/{job}/{nth}")).gen_bool(self.config.restore_fail_prob)
        {
            return Err(RotaryError::CheckpointFailed { job, operation: "restore" });
        }
        Ok(())
    }

    /// The damage (if any) inflicted on the durable snapshot committed as
    /// generation `generation`: a torn write wins over a bit flip when both
    /// fire. A pure function of `(seed, generation)` — resuming a run replays
    /// exactly the same damage schedule. Snapshot corruption is deliberately
    /// *not* part of [`FaultPlan::is_inert`]: the systems only consult this
    /// when durable snapshotting is enabled.
    pub fn snapshot_fault(&self, generation: u64) -> Option<rotary_store::Corruption> {
        let c = &self.config;
        if c.snap_torn_prob == 0.0 && c.snap_bitflip_prob == 0.0 {
            return None;
        }
        let mut rng = self.stream(&format!("snap/{generation}"));
        if c.snap_torn_prob > 0.0 && rng.gen_bool(c.snap_torn_prob) {
            return Some(rotary_store::Corruption::Torn { keep_fraction: rng.gen_range(0.0..1.0) });
        }
        if c.snap_bitflip_prob > 0.0 && rng.gen_bool(c.snap_bitflip_prob) {
            let offset_fraction = rng.gen_range(0.0..1.0);
            let bit = (rng.gen_range(0.0..8.0) as u32).min(7) as u8;
            return Some(rotary_store::Corruption::BitFlip { offset_fraction, bit });
        }
        None
    }

    /// The fate of tenant `tenant`'s `k`-th submission (0-based). Like
    /// every plan decision, a pure function of `(seed, tenant, k)` — the
    /// load generator and the daemon's tests agree on the fault schedule
    /// without sharing state. Deliberately *not* part of
    /// [`FaultPlan::is_inert`] (which covers epoch-level faults only):
    /// submission faults are consumed upstream of the arbitration loop.
    pub fn submission_fault(&self, tenant: u64, k: u64) -> SubmissionFault {
        let s = &self.config.submission;
        if s.is_inert() {
            return SubmissionFault::None;
        }
        let mut rng = self.stream(&format!("submit/{tenant}/{k}"));
        if s.duplicate_prob > 0.0 && rng.gen_bool(s.duplicate_prob) {
            return SubmissionFault::Duplicate;
        }
        if s.malformed_prob > 0.0 && rng.gen_bool(s.malformed_prob) {
            return SubmissionFault::Malformed;
        }
        if s.oversized_prob > 0.0 && rng.gen_bool(s.oversized_prob) {
            return SubmissionFault::Oversized;
        }
        SubmissionFault::None
    }

    /// The fate of the `frame`-th frame (0-based) written on connection
    /// `conn`. Pure in `(seed, conn, frame)`, like every plan decision,
    /// so the chaos shim and a replay of the same plan damage the wire
    /// identically. Deliberately *not* part of [`FaultPlan::is_inert`]:
    /// wire faults are consumed upstream of the arbitration loop.
    pub fn net_fault(&self, conn: u64, frame: u64) -> NetFault {
        let n = &self.config.net;
        if n.is_inert() {
            return NetFault::None;
        }
        let mut rng = self.stream(&format!("net/{conn}/{frame}"));
        if n.torn_prob > 0.0 && rng.gen_bool(n.torn_prob) {
            return NetFault::Torn { keep_fraction: rng.gen_range(0.0..1.0) };
        }
        if n.bitflip_prob > 0.0 && rng.gen_bool(n.bitflip_prob) {
            let offset_fraction = rng.gen_range(0.0..1.0);
            let bit = (rng.gen_range(0.0..8.0) as u32).min(7) as u8;
            return NetFault::BitFlip { offset_fraction, bit };
        }
        if n.reset_prob > 0.0 && rng.gen_bool(n.reset_prob) {
            return NetFault::Reset;
        }
        if n.dribble_prob > 0.0 && rng.gen_bool(n.dribble_prob) {
            let (lo, hi) = n.dribble_chunk;
            let chunk =
                if hi > lo { lo + (rng.next_u64() % u64::from(hi - lo + 1)) as u32 } else { lo };
            return NetFault::Dribble { chunk: chunk.max(1) as usize };
        }
        NetFault::None
    }

    /// How many immediate reconnects the client behind connection `conn`
    /// performs after its `nth` fault-induced disconnect — the
    /// reconnect-burst storm. Pure in `(seed, conn, nth)`.
    pub fn reconnect_burst(&self, conn: u64, nth: u64) -> u32 {
        let (lo, hi) = self.config.net.reconnect_burst;
        if hi == 0 {
            return 0;
        }
        let mut rng = self.stream(&format!("reconnect/{conn}/{nth}"));
        if hi > lo {
            lo + (rng.next_u64() % u64::from(hi - lo + 1)) as u32
        } else {
            lo
        }
    }

    /// Extra arrivals injected into tenant `tenant`'s arrival window
    /// `window` by a burst, 0 when the window draws no burst. Pure in
    /// `(seed, tenant, window)`.
    pub fn submission_burst(&self, tenant: u64, window: u64) -> u32 {
        let s = &self.config.submission;
        if s.burst_prob == 0.0 || s.burst_extra.1 == 0 {
            return 0;
        }
        let mut rng = self.stream(&format!("burst/{tenant}/{window}"));
        if !rng.gen_bool(s.burst_prob) {
            return 0;
        }
        let (lo, hi) = s.burst_extra;
        if hi > lo {
            lo + (rng.next_u64() % u64::from(hi - lo + 1)) as u32
        } else {
            lo
        }
    }

    /// The arrival-rate multiplier for tenant `tenant` during window
    /// `window`: [`SubmissionFaultConfig::flood_factor`] while the tenant
    /// floods, 1 otherwise. Pure in `(seed, tenant, window)`.
    pub fn tenant_flood_factor(&self, tenant: u64, window: u64) -> u32 {
        let s = &self.config.submission;
        if s.flood_prob == 0.0 || s.flood_factor <= 1 {
            return 1;
        }
        if self.stream(&format!("flood/{tenant}/{window}")).gen_bool(s.flood_prob) {
            s.flood_factor
        } else {
            1
        }
    }

    /// Transient memory pressure at virtual time `at`, in MB withheld from
    /// the arbiter. A pure function of the time slot containing `at`.
    pub fn memory_pressure_mb(&self, at: SimTime) -> u64 {
        if self.config.mem_spike_prob == 0.0 || self.config.mem_spike_mb == 0 {
            return 0;
        }
        let slot = at.as_millis() / self.config.mem_spike_slot.as_millis().max(1);
        if self.stream(&format!("mem/{slot}")).gen_bool(self.config.mem_spike_prob) {
            self.config.mem_spike_mb
        } else {
            0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inert_plan_injects_nothing() {
        let plan = FaultPlan::none();
        assert!(plan.is_inert());
        assert!(FaultPlan::default().is_inert());
        for job in 0..50u64 {
            for epoch in 1..20u64 {
                assert_eq!(plan.epoch_fault(job, epoch, 0), EpochFault::None);
            }
            assert!(plan.checkpoint_write(job, 0).is_ok());
            assert!(plan.restore(job, 0).is_ok());
        }
        for mins in 0..600 {
            assert_eq!(plan.memory_pressure_mb(SimTime::from_mins(mins)), 0);
        }
    }

    #[test]
    fn decisions_are_pure_and_order_independent() {
        let plan = FaultPlan::chaos(42);
        // Query the same coordinates in different orders and interleavings;
        // the answers must be identical.
        let forward: Vec<EpochFault> = (1..50u64).map(|e| plan.epoch_fault(3, e, 0)).collect();
        let _noise = plan.memory_pressure_mb(SimTime::from_hours(7));
        let _other: Vec<EpochFault> = (1..50u64).map(|e| plan.epoch_fault(9, e, 2)).collect();
        let backward: Vec<EpochFault> =
            (1..50u64).rev().map(|e| plan.epoch_fault(3, e, 0)).collect();
        let reversed: Vec<EpochFault> = backward.into_iter().rev().collect();
        assert_eq!(forward, reversed);
        // And a fresh plan with the same seed agrees.
        let again = FaultPlan::chaos(42);
        let fresh: Vec<EpochFault> = (1..50u64).map(|e| plan.epoch_fault(3, e, 0)).collect();
        let fresh2: Vec<EpochFault> = (1..50u64).map(|e| again.epoch_fault(3, e, 0)).collect();
        assert_eq!(fresh, fresh2);
    }

    #[test]
    fn chaos_plan_actually_injects() {
        let plan = FaultPlan::chaos(7);
        assert!(!plan.is_inert());
        assert_eq!(plan.config().seed, 7);
        let mut crashes = 0;
        let mut stragglers = 0;
        let n = 2000u64;
        for job in 0..10u64 {
            for epoch in 1..=(n / 10) {
                match plan.epoch_fault(job, epoch, 0) {
                    EpochFault::Crash { wasted_fraction } => {
                        assert!((0.0..1.0).contains(&wasted_fraction));
                        crashes += 1;
                    }
                    EpochFault::Straggler { slowdown } => {
                        assert!((1.0..=4.0).contains(&slowdown), "slowdown {slowdown}");
                        stragglers += 1;
                    }
                    EpochFault::None => {}
                }
            }
        }
        // 5% crash, 10% straggler over 2000 draws: loose 3σ-ish bounds.
        assert!((60..=140).contains(&crashes), "crashes {crashes}");
        assert!((130..=270).contains(&stragglers), "stragglers {stragglers}");
        let failed_writes = (0..2000u64).filter(|&n| plan.checkpoint_write(1, n).is_err()).count();
        assert!((60..=140).contains(&failed_writes), "failed writes {failed_writes}");
    }

    #[test]
    fn backoff_is_capped_exponential() {
        let retry = RetryPolicy {
            max_attempts: 5,
            base_backoff: SimTime::from_secs(5),
            max_backoff: SimTime::from_secs(60),
        };
        assert_eq!(retry.backoff(1), SimTime::from_secs(5));
        assert_eq!(retry.backoff(2), SimTime::from_secs(10));
        assert_eq!(retry.backoff(3), SimTime::from_secs(20));
        assert_eq!(retry.backoff(4), SimTime::from_secs(40));
        assert_eq!(retry.backoff(5), SimTime::from_secs(60), "capped");
        assert_eq!(retry.backoff(40), SimTime::from_secs(60), "cap survives overflow range");
    }

    #[test]
    fn evaluate_exhausts_retries_with_typed_error() {
        let retry = RetryPolicy::default();
        assert_eq!(retry.evaluate(4, 7, 1), Ok(retry.backoff(1)));
        assert_eq!(retry.evaluate(4, 7, 2), Ok(retry.backoff(2)));
        let err = retry.evaluate(4, 7, 3).unwrap_err();
        assert_eq!(err, RotaryError::RetriesExhausted { job: 4, epoch: 7, attempts: 3 });
        assert!(err.to_string().contains("job 4"));
    }

    #[test]
    fn memory_pressure_is_slot_stable() {
        let plan = FaultPlan::chaos(11);
        let slot = plan.config().mem_spike_slot;
        // Every instant within one slot sees the same pressure.
        for slot_idx in 0..50u64 {
            let base = SimTime::from_millis(slot_idx * slot.as_millis());
            let a = plan.memory_pressure_mb(base);
            let b = plan.memory_pressure_mb(base + slot / 2);
            assert_eq!(a, b, "pressure changed within slot {slot_idx}");
            assert!(a == 0 || a == plan.config().mem_spike_mb);
        }
        // And across many slots, some spike and some do not.
        let spikes = (0..200u64)
            .filter(|&i| plan.memory_pressure_mb(SimTime::from_millis(i * slot.as_millis())) > 0)
            .count();
        assert!(spikes > 0 && spikes < 200, "spikes {spikes}");
    }

    #[test]
    fn snapshot_faults_are_pure_and_sometimes_fire() {
        let plan = FaultPlan::chaos(23);
        let first: Vec<_> = (0..400u64).map(|g| plan.snapshot_fault(g)).collect();
        let again: Vec<_> = (0..400u64).map(|g| plan.snapshot_fault(g)).collect();
        assert_eq!(first, again, "snapshot damage must be a pure function of (seed, generation)");
        let hits = first.iter().flatten().count();
        // ~5% torn + ~5% flip over 400 generations: loose bounds.
        assert!((10..=90).contains(&hits), "snapshot faults fired {hits} times");
        for fault in first.iter().flatten() {
            match fault {
                rotary_store::Corruption::Torn { keep_fraction } => {
                    assert!((0.0..1.0).contains(keep_fraction));
                }
                rotary_store::Corruption::BitFlip { offset_fraction, bit } => {
                    assert!((0.0..1.0).contains(offset_fraction));
                    assert!(*bit < 8);
                }
            }
        }
        // The inert plan never damages a snapshot.
        let none = FaultPlan::none();
        assert!((0..400u64).all(|g| none.snapshot_fault(g).is_none()));
    }

    #[test]
    fn submission_faults_inert_by_default() {
        let plan = FaultPlan::none();
        assert!(plan.config().submission.is_inert());
        for t in 0..20u64 {
            for k in 0..100u64 {
                assert_eq!(plan.submission_fault(t, k), SubmissionFault::None);
            }
            for w in 0..50u64 {
                assert_eq!(plan.submission_burst(t, w), 0);
                assert_eq!(plan.tenant_flood_factor(t, w), 1);
            }
        }
        // Epoch-level inertness is a separate axis: a plan with only
        // submission faults enabled still reports epoch-inert.
        let subs_only = FaultPlan::new(FaultConfig {
            submission: SubmissionFaultConfig::chaos(),
            ..FaultConfig::none()
        });
        assert!(subs_only.is_inert(), "submission faults must not flip epoch inertness");
        assert!(!subs_only.config().submission.is_inert());
    }

    #[test]
    fn submission_faults_are_pure_and_fire_under_chaos() {
        let plan = FaultPlan::chaos(91);
        let first: Vec<SubmissionFault> =
            (0..4000u64).map(|k| plan.submission_fault(k % 16, k)).collect();
        let again: Vec<SubmissionFault> =
            (0..4000u64).map(|k| plan.submission_fault(k % 16, k)).collect();
        assert_eq!(first, again, "submission fate must be pure in (seed, tenant, k)");
        let dupes = first.iter().filter(|f| **f == SubmissionFault::Duplicate).count();
        let malformed = first.iter().filter(|f| **f == SubmissionFault::Malformed).count();
        let oversized = first.iter().filter(|f| **f == SubmissionFault::Oversized).count();
        // 5% / ~2.85% / ~1.85% effective over 4000 draws: loose 3σ bounds.
        assert!((120..=290).contains(&dupes), "duplicates {dupes}");
        assert!((60..=200).contains(&malformed), "malformed {malformed}");
        assert!((30..=140).contains(&oversized), "oversized {oversized}");

        let bursts: Vec<u32> = (0..2000u64).map(|w| plan.submission_burst(w % 8, w)).collect();
        assert_eq!(
            bursts,
            (0..2000u64).map(|w| plan.submission_burst(w % 8, w)).collect::<Vec<_>>()
        );
        let fired = bursts.iter().filter(|&&b| b > 0).count();
        assert!((110..=300).contains(&fired), "bursts fired {fired}");
        let (lo, hi) = plan.config().submission.burst_extra;
        assert!(bursts.iter().all(|&b| b == 0 || (lo..=hi).contains(&b)));

        let floods = (0..2000u64).filter(|&w| plan.tenant_flood_factor(w % 8, w) > 1).count();
        assert!((40..=190).contains(&floods), "floods {floods}");
        assert!(
            (0..2000u64).all(|w| {
                let f = plan.tenant_flood_factor(w % 8, w);
                f == 1 || f == plan.config().submission.flood_factor
            }),
            "flood factor must be 1 or the configured multiplier"
        );
    }

    #[test]
    fn net_faults_inert_by_default_and_pure_under_chaos() {
        let inert = FaultPlan::none();
        assert!(inert.config().net.is_inert());
        for conn in 0..10u64 {
            for frame in 0..50u64 {
                assert_eq!(inert.net_fault(conn, frame), NetFault::None);
            }
            assert_eq!(inert.reconnect_burst(conn, 0), 0);
        }

        let plan = FaultPlan::chaos(57);
        let first: Vec<NetFault> = (0..4000u64).map(|f| plan.net_fault(f % 32, f)).collect();
        let again: Vec<NetFault> = (0..4000u64).map(|f| plan.net_fault(f % 32, f)).collect();
        assert_eq!(first, again, "net fate must be pure in (seed, conn, frame)");
        let torn = first.iter().filter(|f| matches!(f, NetFault::Torn { .. })).count();
        let flips = first.iter().filter(|f| matches!(f, NetFault::BitFlip { .. })).count();
        let resets = first.iter().filter(|f| matches!(f, NetFault::Reset)).count();
        let dribbles = first.iter().filter(|f| matches!(f, NetFault::Dribble { .. })).count();
        // 4% / ~5.76% / ~3.6% / ~5.2% effective over 4000 draws: loose 3σ.
        assert!((100..=270).contains(&torn), "torn {torn}");
        assert!((140..=340).contains(&flips), "flips {flips}");
        assert!((80..=240).contains(&resets), "resets {resets}");
        assert!((120..=320).contains(&dribbles), "dribbles {dribbles}");
        for fault in &first {
            match *fault {
                NetFault::Torn { keep_fraction } => assert!((0.0..1.0).contains(&keep_fraction)),
                NetFault::BitFlip { offset_fraction, bit } => {
                    assert!((0.0..1.0).contains(&offset_fraction));
                    assert!(bit < 8);
                }
                NetFault::Dribble { chunk } => {
                    let (lo, hi) = plan.config().net.dribble_chunk;
                    assert!((lo as usize..=hi as usize).contains(&chunk));
                }
                NetFault::None | NetFault::Reset => {}
            }
        }
        let (lo, hi) = plan.config().net.reconnect_burst;
        for nth in 0..500u64 {
            let b = plan.reconnect_burst(3, nth);
            assert!((lo..=hi).contains(&b), "burst {b} outside [{lo}, {hi}]");
        }
        // Wire faults must not flip epoch inertness (separate axis).
        let net_only =
            FaultPlan::new(FaultConfig { net: NetFaultConfig::chaos(), ..FaultConfig::none() });
        assert!(net_only.is_inert());
        assert!(!net_only.config().net.is_inert());
    }

    #[test]
    fn net_effects_transform_frames_deterministically() {
        let frame: Vec<u8> = (0..100u8).collect();

        let clean = NetFault::None.apply(&frame);
        assert_eq!(clean, NetEffect { bytes: frame.clone(), chunk: None, drop_after: false });

        let torn = NetFault::Torn { keep_fraction: 0.5 }.apply(&frame);
        assert_eq!(torn.bytes, &frame[..50]);
        assert!(torn.drop_after, "a torn frame drops the connection");
        // Even keep_fraction ~ 1.0 must lose at least one byte.
        let barely = NetFault::Torn { keep_fraction: 0.999999 }.apply(&frame);
        assert!(barely.bytes.len() < frame.len());

        let flipped = NetFault::BitFlip { offset_fraction: 0.25, bit: 3 }.apply(&frame);
        assert_eq!(flipped.bytes.len(), frame.len());
        let diffs: Vec<usize> =
            (0..frame.len()).filter(|&i| flipped.bytes[i] != frame[i]).collect();
        assert_eq!(diffs, vec![25], "exactly one byte changes");
        assert_eq!(flipped.bytes[25] ^ frame[25], 1 << 3, "by exactly one bit");
        assert!(!flipped.drop_after);

        let reset = NetFault::Reset.apply(&frame);
        assert_eq!(reset.bytes, frame);
        assert!(reset.drop_after);

        let dribble = NetFault::Dribble { chunk: 3 }.apply(&frame);
        assert_eq!(dribble.bytes, frame);
        assert_eq!(dribble.chunk, Some(3));

        // Degenerate inputs stay total.
        assert_eq!(NetFault::BitFlip { offset_fraction: 0.9, bit: 12 }.apply(&[]).bytes, vec![]);
        assert_eq!(NetFault::Torn { keep_fraction: 0.9 }.apply(&[7]).bytes, vec![]);
    }
}
