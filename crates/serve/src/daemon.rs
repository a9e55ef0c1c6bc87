//! The daemon: an event-driven loop accepting streaming submissions,
//! driving a [`Backend`], and staying typed and live under overload.
//!
//! ## Overload state machine
//!
//! The admission queue is the pressure gauge. With `len` the queue depth
//! and `cap` its bound:
//!
//! ```text
//! Normal     len < pressure_mark      accept freely
//! Pressured  len ≥ pressure_mark      accept; responses carry retry hints
//! Shedding   len ≥ shed_mark          shed lowest-laxity work down to
//!                                     resume_mark, then accept again
//! Draining   drain() called           reject all new work (Draining)
//! ```
//!
//! Shedding is deterministic and value-aware: the entry with the lowest
//! laxity (deadline minus remaining service estimate — the work least
//! likely to be worth finishing) goes first, ties broken toward the
//! youngest ticket. Every shed is a typed [`Outcome::Shed`] in the ledger
//! and a [`Notice`] to the client; nothing is silently dropped.
//!
//! ## Retry hints
//!
//! Every rejection and shed carries a capped-exponential earliest-retry
//! hint computed by [`RetryPolicy::backoff`]: for attempt `a ≥ 1` the
//! hint is `base_backoff · 2^(min(a−1, 32))`, saturating, and **clamped
//! to `max_backoff`** — the cap. Hints are therefore monotone
//! nondecreasing in the attempt number and constant at `max_backoff` once
//! `base_backoff · 2^(a−1)` reaches it; a client that keeps resubmitting
//! converges to a fixed retry cadence instead of backing off forever.
//! Quota rejections additionally raise the hint to the exact bucket
//! refill time, so the cap is a floor on patience, never a lie about
//! quota. The boundary behaviour is pinned by the
//! `retry_hint_cap_and_monotonicity` property in `tests/serve.rs`.
//!
//! ## Determinism and time
//!
//! The daemon lives in virtual time. `submit(at, …)` first advances
//! through every backend event at or before `at` (backend completions at
//! exactly `at` land before the new submission — a freed slot is visible
//! to the arrival), then handles the submission. Timeout sheds are
//! detected when an entry is popped for admission, so the whole loop is
//! O(log n) per event with no periodic scans. The network transport
//! ([`crate::transport`]) maps an injected wall clock onto this virtual
//! timeline and drives idle progress through [`Daemon::advance`].

use crate::admission::{Pending, TokenBucket, TokenBucketConfig};
use crate::backend::{Backend, BackendDone};
use crate::metrics::{Counters, ServeMetrics};
use crate::{
    CompletionKind, Notice, Outcome, OutcomeRecord, RejectReason, ShedReason, Submission,
    SubmitResponse,
};
use rotary_core::error::{Result, RotaryError};
use rotary_core::json::{u64_json, Json};
use rotary_core::SimTime;
use rotary_faults::{FaultPlan, RetryPolicy};
use rotary_store::{
    fnv1a, json_record, record_json, DurableConfig, DurableOutcome, SnapshotRecords, SnapshotStore,
};
use std::collections::VecDeque;

/// Upper bound on [`ServeConfig::queue_capacity`]: 2^32 keeps the
/// watermark arithmetic (`capacity as f64 * watermark`) exact, since every
/// integer below 2^53 round-trips through f64 losslessly.
pub const MAX_QUEUE_CAPACITY: usize = 1 << 32;

/// Everything that sizes the daemon's front door.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Hard bound on the admission queue (at most [`MAX_QUEUE_CAPACITY`]).
    pub queue_capacity: usize,
    /// Per-tenant quota bucket sizing.
    pub bucket: TokenBucketConfig,
    /// Tenant ids must be below this (dense-id protocol).
    pub max_tenants: u64,
    /// Declared payload sizes above this are rejected `Oversized`.
    pub max_payload_bytes: u64,
    /// Backend concurrency cap: the daemon admits from the queue only
    /// while the backend has fewer than this many jobs in flight.
    pub max_inflight: usize,
    /// Queued work older than this is shed (`Timeout`) when popped.
    pub admission_timeout: SimTime,
    /// Capped-exponential backoff driving retry hints in rejections and
    /// shed notices.
    pub retry: RetryPolicy,
    /// Queue fraction at which the daemon reports `Pressured`.
    pub pressure_watermark: f64,
    /// Queue fraction at which lowest-laxity shedding starts.
    pub shed_watermark: f64,
    /// Queue fraction shedding drains down to before stopping.
    pub resume_watermark: f64,
    /// Keep the full typed outcome ledger (the byte-identity trace).
    /// Counters and waiting times are always kept.
    pub record_outcomes: bool,
    /// Allow snapshots: [`Daemon::snapshot_records`] refuses to run
    /// without it. The ~1M-user benchmark turns it off.
    pub retain_payloads: bool,
}

impl ServeConfig {
    /// A small, test-friendly configuration.
    pub fn small() -> ServeConfig {
        ServeConfig {
            queue_capacity: 64,
            bucket: TokenBucketConfig::per_second(20, 2),
            max_tenants: 1 << 20,
            max_payload_bytes: 4096,
            max_inflight: 4,
            admission_timeout: SimTime::from_mins(10),
            retry: RetryPolicy::default(),
            pressure_watermark: 0.5,
            shed_watermark: 0.875,
            resume_watermark: 0.5,
            record_outcomes: true,
            retain_payloads: true,
        }
    }

    /// Rejects nonsensical sizings with a typed error.
    pub fn validate(&self) -> Result<()> {
        let bad = |msg: &str| Err(RotaryError::InvalidConfig(msg.into()));
        if self.queue_capacity == 0 {
            return bad("queue capacity must be at least 1");
        }
        if self.queue_capacity > MAX_QUEUE_CAPACITY {
            return bad("queue capacity exceeds 2^32 (watermark math requires exact f64)");
        }
        if self.max_inflight == 0 {
            return bad("max inflight must be at least 1");
        }
        if self.max_tenants == 0 {
            return bad("max tenants must be at least 1");
        }
        let in_unit = |w: f64| 0.0 < w && w <= 1.0;
        let watermarks_ok = in_unit(self.pressure_watermark)
            && in_unit(self.shed_watermark)
            && (0.0..=1.0).contains(&self.resume_watermark);
        if !watermarks_ok {
            return bad("watermarks must lie in (0, 1]");
        }
        if self.resume_watermark > self.shed_watermark {
            return bad("resume watermark must not exceed the shed watermark");
        }
        Ok(())
    }

    fn pressure_mark(&self) -> usize {
        // rotary-lint: allow(F002) queue_capacity is validated <= 2^32, far
        // inside f64's exact-integer range (2^53), so the cast cannot round.
        ((self.queue_capacity as f64 * self.pressure_watermark).ceil() as usize).max(1)
    }

    fn shed_mark(&self) -> usize {
        // rotary-lint: allow(F002) exact for the same capacity bound.
        ((self.queue_capacity as f64 * self.shed_watermark).ceil() as usize).max(1)
    }

    fn resume_mark(&self) -> usize {
        // rotary-lint: allow(F002) exact for the same capacity bound.
        (self.queue_capacity as f64 * self.resume_watermark).floor() as usize
    }

    /// Fingerprint of every admission-relevant knob plus the backend
    /// kind; a snapshot is never restored under a different contract.
    fn fingerprint(&self, backend_name: &str) -> u64 {
        let desc = format!(
            "{}:{}:{}:{}:{}:{}:{}:{}:{}:{}:{}:{}:{}:{}",
            self.queue_capacity,
            self.bucket.capacity_milli,
            self.bucket.refill_milli_per_sec,
            self.max_tenants,
            self.max_payload_bytes,
            self.max_inflight,
            self.admission_timeout.as_millis(),
            self.retry.max_attempts,
            self.retry.base_backoff.as_millis(),
            self.retry.max_backoff.as_millis(),
            self.pressure_watermark,
            self.shed_watermark,
            self.resume_watermark,
            backend_name,
        );
        fnv1a(desc.as_bytes())
    }
}

/// Where the daemon sits on the degradation ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverloadState {
    /// Under the pressure watermark: accepting freely.
    Normal,
    /// Above the pressure watermark: accepting, hinting backoff.
    Pressured,
    /// Above the shed watermark: evicting lowest-laxity work.
    Shedding,
    /// `drain()` was called: no new work, queue drains to the backend.
    Draining,
}

#[derive(Debug, Clone, PartialEq)]
struct TenantState {
    bucket: TokenBucket,
    last_seq: u64,
}

/// Per-ticket bookkeeping. `admitted_at == u64::MAX` means the ticket
/// never reached the backend (still queued, or shed).
#[derive(Debug, Clone, PartialEq)]
struct TicketInfo {
    tenant: u64,
    seq: u64,
    attempt: u32,
    closed: bool,
    submitted_at: SimTime,
    deadline_at: SimTime,
    service_estimate: SimTime,
    admitted_ms: u64,
}

const NOT_ADMITTED: u64 = u64::MAX;

/// The daemon. Generic over the [`Backend`] it drives.
#[derive(Debug)]
pub struct Daemon<B: Backend> {
    config: ServeConfig,
    backend: B,
    now: SimTime,
    draining: bool,
    queue: VecDeque<Pending>,
    tenants: Vec<TenantState>,
    tickets: Vec<TicketInfo>,
    counters: Counters,
    waits_ms: Vec<u32>,
    ledger: Vec<OutcomeRecord>,
    notices: Vec<Notice>,
    done_buf: Vec<BackendDone>,
}

impl<B: Backend> Daemon<B> {
    /// A fresh daemon over an idle backend.
    pub fn new(config: ServeConfig, backend: B) -> Result<Daemon<B>> {
        config.validate()?;
        Ok(Daemon {
            config,
            backend,
            now: SimTime::ZERO,
            draining: false,
            queue: VecDeque::new(),
            tenants: Vec::new(),
            tickets: Vec::new(),
            counters: Counters::default(),
            waits_ms: Vec::new(),
            ledger: Vec::new(),
            notices: Vec::new(),
            done_buf: Vec::new(),
        })
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Current overload state.
    pub fn state(&self) -> OverloadState {
        if self.draining {
            OverloadState::Draining
        } else if self.queue.len() >= self.config.shed_mark() {
            OverloadState::Shedding
        } else if self.queue.len() >= self.config.pressure_mark() {
            OverloadState::Pressured
        } else {
            OverloadState::Normal
        }
    }

    /// Admission-queue depth.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// The typed outcome counters.
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// The typed outcome ledger (empty unless `record_outcomes`).
    pub fn ledger(&self) -> &[OutcomeRecord] {
        &self.ledger
    }

    /// Drains the pending client notices (terminal fates of admitted
    /// tickets). Notices are transient: they are not part of snapshots.
    pub fn take_notices(&mut self) -> Vec<Notice> {
        std::mem::take(&mut self.notices)
    }

    /// The backend behind the daemon.
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// Stops accepting new work; queued and in-flight work still runs to
    /// completion. Irreversible for this daemon instance.
    pub fn drain(&mut self) {
        self.draining = true;
    }

    /// The rendered byte-identity trace: one line per ledger record.
    pub fn trace(&self) -> String {
        let mut out = String::new();
        for r in &self.ledger {
            out.push_str(&r.trace_line());
            out.push('\n');
        }
        out
    }

    /// Aggregated service metrics at this instant.
    pub fn metrics(&self) -> ServeMetrics {
        ServeMetrics::compute(self.counters, &self.waits_ms)
    }

    fn tenant_mut(&mut self, tenant: u64) -> &mut TenantState {
        let idx = tenant as usize;
        while self.tenants.len() <= idx {
            self.tenants
                .push(TenantState { bucket: TokenBucket::full(&self.config.bucket), last_seq: 0 });
        }
        &mut self.tenants[idx]
    }

    fn record(&mut self, record: OutcomeRecord) {
        if self.config.record_outcomes {
            self.ledger.push(record);
        }
    }

    fn reject(
        &mut self,
        sub: &Submission,
        reason: RejectReason,
        retry_after: SimTime,
    ) -> SubmitResponse {
        match reason {
            RejectReason::QueueFull => self.counters.rejected_queue_full += 1,
            RejectReason::QuotaExceeded => self.counters.rejected_quota += 1,
            RejectReason::Draining => self.counters.rejected_draining += 1,
            RejectReason::Malformed => self.counters.rejected_malformed += 1,
            RejectReason::Oversized => self.counters.rejected_oversized += 1,
            RejectReason::Duplicate => self.counters.rejected_duplicate += 1,
        }
        self.record(OutcomeRecord {
            ticket: None,
            tenant: sub.tenant,
            seq: sub.seq,
            at: self.now,
            outcome: Outcome::Rejected(reason),
        });
        SubmitResponse::Rejected { reason, retry_after }
    }

    fn close_shed(&mut self, entry: Pending, reason: ShedReason) {
        match reason {
            ShedReason::Overload => self.counters.shed_overload += 1,
            ShedReason::Timeout => self.counters.shed_timeout += 1,
            ShedReason::Drain => self.counters.shed_drain += 1,
        }
        let retry_after = self.config.retry.backoff(entry.attempt.saturating_add(1));
        self.tickets[entry.ticket as usize].closed = true;
        self.record(OutcomeRecord {
            ticket: Some(entry.ticket),
            tenant: entry.tenant,
            seq: entry.seq,
            at: self.now,
            outcome: Outcome::Shed { reason, retry_after },
        });
        self.notices.push(Notice {
            ticket: entry.ticket,
            at: self.now,
            fate: Err((reason, retry_after)),
        });
    }

    fn flush_dones(&mut self) {
        let dones = std::mem::take(&mut self.done_buf);
        for done in dones {
            let info = &mut self.tickets[done.ticket as usize];
            if info.closed {
                debug_assert!(false, "backend completed ticket {} twice", done.ticket);
                continue;
            }
            info.closed = true;
            let waited = SimTime::from_millis(info.admitted_ms).saturating_sub(info.submitted_at);
            let (tenant, seq) = (info.tenant, info.seq);
            match done.kind {
                CompletionKind::Attained => self.counters.completed_attained += 1,
                CompletionKind::FalselyAttained => self.counters.completed_falsely += 1,
                CompletionKind::DeadlineMissed => self.counters.completed_missed += 1,
                CompletionKind::Failed => self.counters.completed_failed += 1,
            }
            self.record(OutcomeRecord {
                ticket: Some(done.ticket),
                tenant,
                seq,
                at: done.at,
                outcome: Outcome::Completed { kind: done.kind, waited },
            });
            self.notices.push(Notice { ticket: done.ticket, at: done.at, fate: Ok(done.kind) });
        }
    }

    /// Moves queued work onto the backend while there is capacity.
    /// Entries that outlived their admission timeout — or whose deadline
    /// is unreachable even if started now — are shed here, at pop time.
    fn pump(&mut self) {
        while self.backend.inflight() < self.config.max_inflight {
            let Some(entry) = self.queue.pop_front() else { break };
            let timed_out = self.now >= entry.submitted_at + self.config.admission_timeout;
            if timed_out || entry.laxity_ms(self.now) < 0 {
                self.close_shed(entry, ShedReason::Timeout);
                continue;
            }
            let ticket = entry.ticket as usize;
            self.tickets[ticket].admitted_ms = self.now.as_millis();
            let waited = self.now.saturating_sub(entry.submitted_at);
            self.waits_ms.push(u32::try_from(waited.as_millis()).unwrap_or(u32::MAX));
            if self.backend.admit(self.now, &entry, &mut self.done_buf).is_err() {
                // A bind failure is still a typed terminal outcome.
                self.done_buf.push(BackendDone {
                    ticket: entry.ticket,
                    kind: CompletionKind::Failed,
                    at: self.now,
                });
            }
            self.flush_dones();
        }
    }

    /// Evicts lowest-laxity entries until the queue is back at the
    /// resume watermark. Ties shed the youngest ticket first.
    fn shed_overload(&mut self) {
        if self.queue.len() < self.config.shed_mark() {
            return;
        }
        let floor = self.config.resume_mark();
        while self.queue.len() > floor {
            let mut worst = 0usize;
            let mut worst_key = (i64::MAX, 0u64);
            for (i, e) in self.queue.iter().enumerate() {
                let key = (e.laxity_ms(self.now), e.ticket);
                // Lowest laxity sheds first; on equal laxity the larger
                // (younger) ticket goes, preserving seniority.
                if key.0 < worst_key.0 || (key.0 == worst_key.0 && key.1 > worst_key.1) {
                    worst = i;
                    worst_key = key;
                }
            }
            let Some(entry) = self.queue.remove(worst) else { break };
            self.close_shed(entry, ShedReason::Overload);
        }
    }

    /// Processes every backend event at or before `t`, then pumps.
    fn advance_to(&mut self, t: SimTime) {
        while let Some(et) = self.backend.peek() {
            if et > t {
                break;
            }
            self.now = self.now.max(et);
            if !self.backend.step(&mut self.done_buf) {
                break;
            }
            self.flush_dones();
            self.pump();
        }
        self.now = self.now.max(t);
        self.pump();
    }

    /// Advances virtual time to `t` (clamped monotone) with no
    /// submission: processes every backend event at or before `t` and
    /// pumps the admission queue. This is the transport's idle tick —
    /// completions become visible (and notices fire) even when no new
    /// work arrives. Equivalent to the advance half of
    /// [`Daemon::submit`], so interleaving extra `advance` calls never
    /// changes the outcome trace of a given submission sequence.
    pub fn advance(&mut self, t: SimTime) {
        self.advance_to(t);
    }

    /// Handles one submission arriving at virtual time `at` (clamped
    /// monotone). Returns the typed front-door response; admitted tickets
    /// resolve later via [`Daemon::take_notices`].
    pub fn submit(&mut self, at: SimTime, sub: &Submission) -> SubmitResponse {
        self.advance_to(at);
        self.counters.submissions += 1;
        let hint = self.config.retry.backoff(sub.attempt.saturating_add(1));
        if sub.tenant >= self.config.max_tenants {
            return self.reject(sub, RejectReason::Malformed, hint);
        }
        if sub.seq == 0 || sub.seq <= self.tenant_mut(sub.tenant).last_seq {
            return self.reject(sub, RejectReason::Duplicate, hint);
        }
        let estimate = match self.backend.validate(&sub.payload) {
            Ok(e) => e,
            Err(_) => return self.reject(sub, RejectReason::Malformed, hint),
        };
        if sub.bytes > self.config.max_payload_bytes {
            return self.reject(sub, RejectReason::Oversized, hint);
        }
        if self.draining {
            return self.reject(sub, RejectReason::Draining, hint);
        }
        if self.queue.len() >= self.config.queue_capacity {
            return self.reject(sub, RejectReason::QueueFull, hint);
        }
        let now = self.now;
        let bucket_cfg = self.config.bucket;
        let taken = self.tenant_mut(sub.tenant).bucket.try_take(now, sub.cost_milli, &bucket_cfg);
        if let Err(when) = taken {
            let refill = when.map_or(SimTime::ZERO, |w| w.saturating_sub(now));
            let retry_after = hint.max(refill);
            return self.reject(sub, RejectReason::QuotaExceeded, retry_after);
        }
        self.tenant_mut(sub.tenant).last_seq = sub.seq;
        let ticket = self.tickets.len() as u64;
        self.tickets.push(TicketInfo {
            tenant: sub.tenant,
            seq: sub.seq,
            attempt: sub.attempt,
            closed: false,
            submitted_at: now,
            deadline_at: now + sub.deadline,
            service_estimate: estimate,
            admitted_ms: NOT_ADMITTED,
        });
        self.counters.admitted += 1;
        self.queue.push_back(Pending {
            ticket,
            tenant: sub.tenant,
            seq: sub.seq,
            attempt: sub.attempt,
            submitted_at: now,
            deadline_at: now + sub.deadline,
            service_estimate: estimate,
            payload: sub.payload.clone(),
        });
        self.shed_overload();
        self.pump();
        SubmitResponse::Admitted { ticket }
    }

    /// Processes one unit of pending work: the next backend event, or a
    /// queue pump when the backend is idle. Returns whether progress was
    /// made — `false` means the daemon is fully idle.
    pub fn idle_step(&mut self) -> bool {
        if let Some(et) = self.backend.peek() {
            self.now = self.now.max(et);
            let stepped = self.backend.step(&mut self.done_buf);
            self.flush_dones();
            self.pump();
            return stepped;
        }
        if !self.queue.is_empty() && self.backend.inflight() < self.config.max_inflight {
            self.pump();
            return true;
        }
        false
    }

    /// Runs the backend and queue to full quiescence, then sheds any
    /// stranded queue entries (`Drain`) so every admitted ticket holds a
    /// terminal outcome.
    pub fn finish(&mut self) {
        while self.idle_step() {}
        while let Some(entry) = self.queue.pop_front() {
            self.close_shed(entry, ShedReason::Drain);
        }
    }

    /// The run report at this instant.
    pub fn report(&self) -> ServeReport {
        ServeReport { metrics: self.metrics(), trace: self.trace() }
    }

    // -- snapshots ----------------------------------------------------

    /// Serialises the daemon — admission queue, tenant quota state,
    /// ticket table, counters, ledger — plus the backend's own records
    /// (prefixed `be/`).
    ///
    /// # Errors
    /// [`RotaryError::InvalidConfig`] unless `retain_payloads` is set;
    /// backend serialization errors pass through.
    pub fn snapshot_records(&self) -> Result<SnapshotRecords> {
        if !self.config.retain_payloads {
            return Err(RotaryError::InvalidConfig(
                "durable serve runs require retain_payloads".into(),
            ));
        }
        let meta = Json::obj(vec![
            ("fingerprint", u64_json(self.config.fingerprint(self.backend.name()))),
            ("now", u64_json(self.now.as_millis())),
            ("draining", Json::Bool(self.draining)),
            ("counters", self.counters.to_json()),
        ]);
        let tenants = Json::Arr(
            self.tenants
                .iter()
                .map(|t| {
                    Json::obj(vec![
                        ("last_seq", u64_json(t.last_seq)),
                        ("bucket", t.bucket.to_json()),
                    ])
                })
                .collect(),
        );
        let queue = Json::Arr(self.queue.iter().map(Pending::to_json).collect());
        let tickets = Json::Arr(
            self.tickets
                .iter()
                .map(|t| {
                    let mut pairs = vec![
                        ("tenant", u64_json(t.tenant)),
                        ("seq", u64_json(t.seq)),
                        ("attempt", Json::Num(f64::from(t.attempt))),
                        ("closed", Json::Bool(t.closed)),
                        ("submitted", u64_json(t.submitted_at.as_millis())),
                        ("deadline", u64_json(t.deadline_at.as_millis())),
                        ("estimate", u64_json(t.service_estimate.as_millis())),
                    ];
                    if t.admitted_ms != NOT_ADMITTED {
                        pairs.push(("admitted", u64_json(t.admitted_ms)));
                    }
                    Json::obj(pairs)
                })
                .collect(),
        );
        let waits = Json::Arr(self.waits_ms.iter().map(|w| Json::Num(f64::from(*w))).collect());
        let ledger = Json::Arr(self.ledger.iter().map(OutcomeRecord::to_json).collect());
        let mut records: SnapshotRecords = [
            ("serve/meta", meta),
            ("serve/tenants", tenants),
            ("serve/queue", queue),
            ("serve/tickets", tickets),
            ("serve/waits", waits),
            ("serve/ledger", ledger),
        ]
        .iter()
        .map(|(name, doc)| json_record(name, doc))
        .collect();
        for (name, payload) in self.backend.snapshot()? {
            records.push((format!("be/{name}"), payload));
        }
        Ok(records)
    }

    /// Rebuilds a daemon from records written by
    /// [`Daemon::snapshot_records`], restoring the backend through its
    /// own seam with the admitted-entry replay.
    ///
    /// # Errors
    /// [`RotaryError::SnapshotCorrupt`] on any structural mismatch,
    /// [`RotaryError::SnapshotMismatch`] when the snapshot was taken under
    /// a different configuration or backend kind.
    pub fn restore(
        config: ServeConfig,
        mut backend: B,
        records: &SnapshotRecords,
    ) -> Result<Daemon<B>> {
        config.validate()?;
        let corrupt = |detail: String| RotaryError::SnapshotCorrupt { detail };
        let meta = record_json(records, "serve/meta")?;
        let fp = meta
            .get("fingerprint")
            .and_then(Json::as_u64_str)
            .ok_or_else(|| corrupt("meta missing fingerprint".into()))?;
        if fp != config.fingerprint(backend.name()) {
            return Err(RotaryError::SnapshotMismatch {
                detail: "snapshot was taken under a different serve configuration or backend"
                    .into(),
            });
        }
        let now = meta
            .get("now")
            .and_then(Json::as_u64_str)
            .map(SimTime::from_millis)
            .ok_or_else(|| corrupt("meta missing now".into()))?;
        let draining = meta
            .get("draining")
            .and_then(Json::as_bool)
            .ok_or_else(|| corrupt("meta missing draining".into()))?;
        let counters = meta
            .get("counters")
            .and_then(Counters::from_json)
            .ok_or_else(|| corrupt("meta missing counters".into()))?;

        let tenants_json = record_json(records, "serve/tenants")?;
        let mut tenants = Vec::new();
        for row in tenants_json.as_arr().ok_or_else(|| corrupt("tenants is not an array".into()))? {
            let state = (|| {
                Some(TenantState {
                    bucket: TokenBucket::from_json(row.get("bucket")?)?,
                    last_seq: row.get("last_seq")?.as_u64_str()?,
                })
            })()
            .ok_or_else(|| corrupt("malformed tenant row".into()))?;
            tenants.push(state);
        }

        let queue_json = record_json(records, "serve/queue")?;
        let mut queue = VecDeque::new();
        for row in queue_json.as_arr().ok_or_else(|| corrupt("queue is not an array".into()))? {
            queue.push_back(
                Pending::from_json(row).ok_or_else(|| corrupt("malformed queue row".into()))?,
            );
        }

        let tickets_json = record_json(records, "serve/tickets")?;
        let mut tickets = Vec::new();
        for row in tickets_json.as_arr().ok_or_else(|| corrupt("tickets is not an array".into()))? {
            let ticket = (|| {
                let u = |k: &str| row.get(k).and_then(Json::as_u64_str);
                let admitted_ms = match row.get("admitted") {
                    Some(v) => v.as_u64_str()?,
                    None => NOT_ADMITTED,
                };
                Some(TicketInfo {
                    tenant: u("tenant")?,
                    seq: u("seq")?,
                    attempt: u32::try_from(row.get("attempt")?.as_u64()?).ok()?,
                    closed: row.get("closed")?.as_bool()?,
                    submitted_at: SimTime::from_millis(u("submitted")?),
                    deadline_at: SimTime::from_millis(u("deadline")?),
                    service_estimate: SimTime::from_millis(u("estimate")?),
                    admitted_ms,
                })
            })()
            .ok_or_else(|| corrupt("malformed ticket row".into()))?;
            tickets.push(ticket);
        }

        let waits_json = record_json(records, "serve/waits")?;
        let mut waits_ms = Vec::new();
        for w in waits_json.as_arr().ok_or_else(|| corrupt("waits is not an array".into()))? {
            let v = w.as_u64().ok_or_else(|| corrupt("malformed wait entry".into()))?;
            waits_ms.push(u32::try_from(v).unwrap_or(u32::MAX));
        }

        let ledger_json = record_json(records, "serve/ledger")?;
        let mut ledger = Vec::new();
        for row in ledger_json.as_arr().ok_or_else(|| corrupt("ledger is not an array".into()))? {
            ledger.push(
                OutcomeRecord::from_json(row)
                    .ok_or_else(|| corrupt("malformed ledger row".into()))?,
            );
        }

        // Replay of every admitted-to-backend entry, in ticket order, for
        // adapters that must re-bind jobs before overlaying run state. The
        // daemon keeps no admitted payload, so each carries `Json::Null`.
        let admitted: Vec<Pending> = tickets
            .iter()
            .enumerate()
            .filter(|(_, t)| t.admitted_ms != NOT_ADMITTED)
            .map(|(i, t)| Pending {
                ticket: i as u64,
                tenant: t.tenant,
                seq: t.seq,
                attempt: t.attempt,
                submitted_at: t.submitted_at,
                deadline_at: t.deadline_at,
                service_estimate: t.service_estimate,
                payload: Json::Null,
            })
            .collect();
        let be_records: SnapshotRecords = records
            .iter()
            .filter(|(n, _)| n.starts_with("be/"))
            .map(|(n, b)| (n["be/".len()..].to_string(), b.clone()))
            .collect();
        backend.restore(&be_records, &admitted)?;

        Ok(Daemon {
            config,
            backend,
            now,
            draining,
            queue,
            tenants,
            tickets,
            counters,
            waits_ms,
            ledger,
            notices: Vec::new(),
            done_buf: Vec::new(),
        })
    }
}

/// The result of a schedule run: metrics plus the rendered trace.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Aggregated service metrics.
    pub metrics: ServeMetrics,
    /// The byte-identity outcome trace (empty unless `record_outcomes`).
    pub trace: String,
}

/// Runs a pre-built submission schedule to quiescence.
///
/// # Errors
/// [`RotaryError::InvalidConfig`] for a nonsensical configuration.
pub fn run_schedule<B: Backend>(
    config: ServeConfig,
    backend: B,
    schedule: &[(SimTime, Submission)],
) -> Result<ServeReport> {
    let mut daemon = Daemon::new(config, backend)?;
    for (at, sub) in schedule {
        daemon.submit(*at, sub);
    }
    daemon.finish();
    Ok(daemon.report())
}

/// Runs a schedule with durable snapshots — and resumes automatically
/// when the store already holds a valid generation, replaying the
/// remaining schedule suffix. A snapshot is committed every
/// `durable.every` terminal outcomes; `durable.halt_after` stops right
/// after committing that generation (the kill-chain hook). `plan`
/// supplies deterministic snapshot corruption.
///
/// # Errors
/// Store I/O and corruption errors pass through; a snapshot from a
/// different configuration is [`RotaryError::InvalidConfig`].
pub fn run_schedule_durable<B: Backend>(
    config: ServeConfig,
    backend: B,
    schedule: &[(SimTime, Submission)],
    durable: &DurableConfig,
    plan: &FaultPlan,
) -> Result<DurableOutcome<ServeReport>> {
    durable.validate()?;
    let store = SnapshotStore::open(&durable.dir)?;
    let (mut daemon, mut generation) = match store.latest_valid()? {
        Some((g, records)) => (Daemon::restore(config, backend, &records)?, g),
        None => (Daemon::new(config, backend)?, 0),
    };
    let mut last_snap = daemon.counters().terminals();
    let start = daemon.counters().submissions as usize;
    if start > schedule.len() {
        return Err(RotaryError::InvalidConfig(
            "snapshot has seen more submissions than the schedule holds".into(),
        ));
    }

    let commit =
        |daemon: &Daemon<B>, generation: &mut u64, last_snap: &mut u64| -> Result<Option<u64>> {
            let terminals = daemon.counters().terminals();
            if terminals.saturating_sub(*last_snap) < durable.every {
                return Ok(None);
            }
            *generation += 1;
            let records = daemon.snapshot_records()?;
            store.commit(*generation, &records, plan.snapshot_fault(*generation).as_ref())?;
            *last_snap = terminals;
            if durable.halt_after == Some(*generation) {
                return Ok(Some(*generation));
            }
            Ok(None)
        };

    for (at, sub) in &schedule[start..] {
        daemon.submit(*at, sub);
        if let Some(g) = commit(&daemon, &mut generation, &mut last_snap)? {
            return Ok(DurableOutcome::Halted { generation: g });
        }
    }
    loop {
        let progressed = daemon.idle_step();
        if let Some(g) = commit(&daemon, &mut generation, &mut last_snap)? {
            return Ok(DurableOutcome::Halted { generation: g });
        }
        if !progressed {
            break;
        }
    }
    daemon.finish();
    Ok(DurableOutcome::Completed(daemon.report()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::SimBackend;

    fn sub(tenant: u64, seq: u64, svc_ms: u64, deadline_ms: u64) -> Submission {
        Submission {
            tenant,
            seq,
            attempt: 0,
            deadline: SimTime::from_millis(deadline_ms),
            cost_milli: 1000,
            bytes: 64,
            payload: Json::obj(vec![("svc_ms", Json::Num(svc_ms as f64))]),
        }
    }

    #[test]
    fn accepts_runs_and_completes_with_exactly_one_outcome() {
        let mut d = Daemon::new(ServeConfig::small(), SimBackend::new()).unwrap();
        let r = d.submit(SimTime::ZERO, &sub(0, 1, 500, 10_000));
        assert_eq!(r, SubmitResponse::Admitted { ticket: 0 });
        d.finish();
        let c = d.counters();
        assert_eq!(c.submissions, 1);
        assert_eq!(c.completed_attained, 1);
        assert_eq!(c.terminals(), 1);
        let notices = d.take_notices();
        assert_eq!(notices.len(), 1);
        assert_eq!(notices[0].fate, Ok(CompletionKind::Attained));
        assert!(d.trace().contains("completed=attained"));
    }

    #[test]
    fn typed_rejections_fire_in_documented_order() {
        let mut cfg = ServeConfig::small();
        cfg.queue_capacity = 2;
        cfg.max_inflight = 1;
        cfg.max_payload_bytes = 100;
        // Disable watermark shedding so the hard QueueFull bound is what
        // fires (a 2-deep queue crosses any fractional shed mark).
        cfg.shed_watermark = 1.0;
        cfg.resume_watermark = 1.0;
        let mut d = Daemon::new(cfg, SimBackend::new()).unwrap();

        // Duplicate: seq 0 is never valid; replays are rejected.
        let r = d.submit(SimTime::ZERO, &Submission { seq: 0, ..sub(0, 0, 10, 1000) });
        assert!(matches!(r, SubmitResponse::Rejected { reason: RejectReason::Duplicate, .. }));
        assert_eq!(
            d.submit(SimTime::ZERO, &sub(0, 1, 500_000, 900_000)),
            SubmitResponse::Admitted { ticket: 0 }
        );
        let r = d.submit(SimTime::ZERO, &sub(0, 1, 10, 1000));
        assert!(matches!(r, SubmitResponse::Rejected { reason: RejectReason::Duplicate, .. }));

        // Malformed payload.
        let r = d.submit(SimTime::ZERO, &Submission { payload: Json::Null, ..sub(0, 2, 10, 1000) });
        assert!(matches!(r, SubmitResponse::Rejected { reason: RejectReason::Malformed, .. }));

        // Oversized.
        let r = d.submit(SimTime::ZERO, &Submission { bytes: 101, ..sub(0, 2, 10, 1000) });
        assert!(matches!(r, SubmitResponse::Rejected { reason: RejectReason::Oversized, .. }));

        // Queue full: ticket 0 occupies the backend; two more fill the queue.
        assert!(matches!(
            d.submit(SimTime::ZERO, &sub(1, 1, 10, 900_000)),
            SubmitResponse::Admitted { .. }
        ));
        assert!(matches!(
            d.submit(SimTime::ZERO, &sub(2, 1, 10, 900_000)),
            SubmitResponse::Admitted { .. }
        ));
        let r = d.submit(SimTime::ZERO, &sub(3, 1, 10, 900_000));
        assert!(matches!(r, SubmitResponse::Rejected { reason: RejectReason::QueueFull, .. }));

        // Draining rejects before queue-full is even considered.
        d.drain();
        let r = d.submit(SimTime::ZERO, &sub(4, 1, 10, 1000));
        assert!(matches!(r, SubmitResponse::Rejected { reason: RejectReason::Draining, .. }));
        assert_eq!(d.state(), OverloadState::Draining);

        d.finish();
        assert_eq!(d.counters().terminals(), d.counters().submissions);
    }

    #[test]
    fn quota_rejection_carries_exact_refill_hint() {
        let mut cfg = ServeConfig::small();
        cfg.bucket = TokenBucketConfig { capacity_milli: 2000, refill_milli_per_sec: 1000 };
        let mut d = Daemon::new(cfg, SimBackend::new()).unwrap();
        assert!(matches!(
            d.submit(SimTime::ZERO, &Submission { cost_milli: 2000, ..sub(0, 1, 10, 100_000) }),
            SubmitResponse::Admitted { .. }
        ));
        let r = d.submit(SimTime::ZERO, &Submission { cost_milli: 1500, ..sub(0, 2, 10, 100_000) });
        let SubmitResponse::Rejected { reason, retry_after } = r else { panic!("expected reject") };
        assert_eq!(reason, RejectReason::QuotaExceeded);
        // Exact refill (1500 ms) dominates the base backoff hint.
        assert_eq!(retry_after, SimTime::from_millis(1500).max(RetryPolicy::default().backoff(1)));
        // And the tenant's sequence was not consumed by the rejection.
        assert!(matches!(
            d.submit(
                SimTime::from_secs(10),
                &Submission { cost_milli: 1500, ..sub(0, 2, 10, 100_000) }
            ),
            SubmitResponse::Admitted { .. }
        ));
    }

    #[test]
    fn overload_sheds_lowest_laxity_first_deterministically() {
        let mut cfg = ServeConfig::small();
        cfg.queue_capacity = 8; // pressure 4, shed 7, resume 4
        cfg.max_inflight = 1;
        cfg.bucket = TokenBucketConfig::per_second(1000, 1000);
        let mut d = Daemon::new(cfg, SimBackend::new()).unwrap();
        // Ticket 0 occupies the single backend slot for a long time.
        d.submit(SimTime::ZERO, &sub(0, 1, 1_000_000, 2_000_000));
        // Queue seven entries with descending slack; the 7th arrival
        // crosses the shed watermark.
        let deadlines = [90_000u64, 80_000, 70_000, 60_000, 50_000, 40_000, 30_000];
        for (i, dl) in deadlines.iter().enumerate() {
            let r = d.submit(SimTime::ZERO, &sub(i as u64 + 1, 1, 10_000, *dl));
            assert!(matches!(r, SubmitResponse::Admitted { .. }), "arrival {i}");
        }
        assert_eq!(d.queue_len(), 4, "shed down to the resume watermark");
        // The three lowest-laxity entries (tightest deadlines) went.
        let shed: Vec<u64> = d
            .ledger()
            .iter()
            .filter(|r| matches!(r.outcome, Outcome::Shed { reason: ShedReason::Overload, .. }))
            .map(|r| r.tenant)
            .collect();
        assert_eq!(shed, vec![7, 6, 5], "lowest laxity evicted first");
        d.finish();
        assert_eq!(d.counters().terminals(), d.counters().submissions);
    }

    #[test]
    fn unreachable_deadlines_are_shed_as_timeouts_at_pop() {
        let mut cfg = ServeConfig::small();
        cfg.max_inflight = 1;
        let mut d = Daemon::new(cfg, SimBackend::new()).unwrap();
        // Slot holder runs 60 s; the queued entry's deadline passes meanwhile.
        d.submit(SimTime::ZERO, &sub(0, 1, 60_000, 120_000));
        d.submit(SimTime::ZERO, &sub(1, 1, 10_000, 5_000));
        d.finish();
        assert_eq!(d.counters().shed_timeout, 1);
        assert_eq!(d.counters().completed_attained, 1);
        let notice_fates: Vec<bool> = d.take_notices().iter().map(|n| n.fate.is_ok()).collect();
        assert_eq!(notice_fates.iter().filter(|ok| !**ok).count(), 1);
    }

    #[test]
    fn overload_states_follow_watermarks() {
        let mut cfg = ServeConfig::small();
        cfg.queue_capacity = 8;
        cfg.max_inflight = 1;
        cfg.bucket = TokenBucketConfig::per_second(1000, 1000);
        let mut d = Daemon::new(cfg, SimBackend::new()).unwrap();
        assert_eq!(d.state(), OverloadState::Normal);
        d.submit(SimTime::ZERO, &sub(0, 1, 1_000_000, 2_000_000)); // occupies slot
        for t in 1..=4u64 {
            d.submit(SimTime::ZERO, &sub(t, 1, 10_000, 1_000_000));
        }
        assert_eq!(d.state(), OverloadState::Pressured);
        for t in 5..=6u64 {
            d.submit(SimTime::ZERO, &sub(t, 1, 10_000, 1_000_000));
        }
        // Six queued: still below the shed mark of seven.
        assert_eq!(d.state(), OverloadState::Pressured);
        d.finish();
    }

    #[test]
    fn snapshot_restore_is_stateless_round_trip() {
        let mut cfg = ServeConfig::small();
        cfg.max_inflight = 2;
        let mut d = Daemon::new(cfg.clone(), SimBackend::new()).unwrap();
        for t in 0..6u64 {
            d.submit(SimTime::from_millis(t * 100), &sub(t, 1, 5_000 + t * 37, 60_000));
        }
        let records = d.snapshot_records().unwrap();
        let restored = Daemon::restore(cfg.clone(), SimBackend::new(), &records).unwrap();
        assert_eq!(restored.now, d.now);
        assert_eq!(restored.queue, d.queue);
        assert_eq!(restored.tenants, d.tenants);
        assert_eq!(restored.tickets, d.tickets);
        assert_eq!(restored.counters, d.counters);
        assert_eq!(restored.ledger, d.ledger);
        // Both finish to identical traces.
        let mut a = d;
        let mut b = restored;
        a.finish();
        b.finish();
        assert_eq!(a.trace(), b.trace());
        // A different config is refused with a typed error.
        let mut other = cfg;
        other.queue_capacity += 1;
        let err = Daemon::restore(other, SimBackend::new(), &a.snapshot_records().unwrap());
        assert!(matches!(err, Err(RotaryError::SnapshotMismatch { .. })));
    }

    #[test]
    fn backend_completion_at_submission_instant_frees_the_slot_first() {
        let mut cfg = ServeConfig::small();
        cfg.max_inflight = 1;
        cfg.queue_capacity = 1;
        // A capacity-1 queue sits at any fractional shed watermark;
        // disable watermark shedding so the race under test is isolated.
        cfg.shed_watermark = 1.0;
        cfg.resume_watermark = 1.0;
        let mut d = Daemon::new(cfg, SimBackend::new()).unwrap();
        d.submit(SimTime::ZERO, &sub(0, 1, 1000, 50_000));
        // Arrives exactly when the first job finishes: the completion is
        // processed first, so the queue (capacity 1) is empty and the
        // backend slot free.
        let r = d.submit(SimTime::from_millis(1000), &sub(1, 1, 1000, 50_000));
        assert!(matches!(r, SubmitResponse::Admitted { .. }));
        assert_eq!(d.counters().completed_attained, 1);
        d.finish();
        assert_eq!(d.counters().completed_attained, 2);
    }
}
