//! The seam between the daemon and the arbitrator behind it.
//!
//! `rotary-serve` never names the AQP or DLT systems: it drives a
//! [`Backend`] — validate a payload, admit a ticket, advance through the
//! backend's internal events, collect typed completions. The real
//! adapters (wrapping `AqpSystem`/`DltSystem` on their streaming serve
//! seams) live in the root crate, which already depends on everything;
//! the [`SimBackend`] here is an analytic stand-in fast enough for the
//! ~1M-user load benchmark and precise enough for the property suites.

use crate::admission::Pending;
use crate::CompletionKind;
use rotary_core::error::{Result, RotaryError};
use rotary_core::json::{u64_json, Json};
use rotary_core::SimTime;
use rotary_store::{json_record, record_json, SnapshotRecords};

/// A typed completion surfaced by the backend for one admitted ticket.
/// Every admitted ticket produces exactly one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BackendDone {
    /// The admission ticket that terminated.
    pub ticket: u64,
    /// How it ended.
    pub kind: CompletionKind,
    /// Virtual time of termination.
    pub at: SimTime,
}

/// The arbitrator behind the daemon.
///
/// Implementations must be deterministic: the same admit/step sequence
/// yields the same completions, and `snapshot`/`restore` round-trips the
/// state exactly (the kill-chain chaos tests compare traces byte for
/// byte).
pub trait Backend {
    /// A short stable name, folded into the daemon's config fingerprint
    /// so a snapshot is never restored onto a different backend kind.
    fn name(&self) -> &'static str;

    /// Validates a submission payload **before** it may enter the
    /// admission queue, returning the backend's service-time estimate
    /// (which drives laxity ordering). Any error marks the submission
    /// malformed.
    fn validate(&self, payload: &Json) -> Result<SimTime>;

    /// Admits one queued entry at `now`. Implementations may complete
    /// work immediately by pushing to `out` (e.g. a job whose bind fails,
    /// or one that attains on arrival). An error is translated by the
    /// daemon into an immediate `Failed` completion — never a silent
    /// drop.
    fn admit(&mut self, now: SimTime, entry: &Pending, out: &mut Vec<BackendDone>) -> Result<()>;

    /// The virtual time of the backend's next internal event, if any.
    fn peek(&self) -> Option<SimTime>;

    /// Advances through the next internal event, pushing any completions.
    /// Returns `false` when there was nothing to do. Infallible by design:
    /// adapters convert internal errors into `Failed` completions so every
    /// admitted ticket still terminates exactly once.
    fn step(&mut self, out: &mut Vec<BackendDone>) -> bool;

    /// Admitted-but-unfinished ticket count (the daemon admits from the
    /// queue only while this is under its in-flight cap).
    fn inflight(&self) -> usize;

    /// Serialises the backend state into named records (the daemon
    /// prefixes them before committing).
    fn snapshot(&self) -> Result<SnapshotRecords>;

    /// Rebuilds state from records written by [`Backend::snapshot`].
    /// `admitted` is the daemon's replay of every admitted entry in
    /// admission order — adapters that must re-bind jobs (AQP/DLT) use it
    /// to reconstruct specs before overlaying the serialized run state.
    fn restore(&mut self, records: &SnapshotRecords, admitted: &[Pending]) -> Result<()>;
}

/// An analytic `c`-server queueless backend: every admitted job runs
/// immediately on one of the daemon-capped slots for exactly the service
/// time named in its payload (`{"svc_ms": n}`), completing `Attained` when
/// it beats its deadline and `DeadlineMissed` otherwise.
///
/// It is intentionally trivial — the point is to exercise the *daemon's*
/// robustness machinery (quotas, shedding, snapshots) at a scale where a
/// real arbitrator would dominate the profile.
#[derive(Debug, Clone, Default)]
pub struct SimBackend {
    /// Running jobs as `(finish_at, ticket, deadline_at)`, kept sorted by
    /// `(finish_at, ticket)` ascending; the next event is the last entry
    /// (popped O(1)).
    running: Vec<(SimTime, u64, SimTime)>,
}

impl SimBackend {
    /// An idle backend.
    pub fn new() -> SimBackend {
        SimBackend::default()
    }

    /// Reads the service time out of a payload.
    fn service_of(payload: &Json) -> Result<SimTime> {
        payload
            .get("svc_ms")
            .and_then(Json::as_u64)
            .map(SimTime::from_millis)
            .ok_or_else(|| RotaryError::InvalidConfig("payload missing svc_ms".into()))
    }

    /// Inserts keeping the vec sorted descending by `(finish, ticket)` so
    /// the minimum pops from the back.
    fn insert(&mut self, entry: (SimTime, u64, SimTime)) {
        let key = (entry.0, entry.1);
        let pos = self.running.binary_search_by(|e| key.cmp(&(e.0, e.1))).unwrap_or_else(|p| p);
        self.running.insert(pos, entry);
    }
}

impl Backend for SimBackend {
    fn name(&self) -> &'static str {
        "sim"
    }

    fn validate(&self, payload: &Json) -> Result<SimTime> {
        Self::service_of(payload)
    }

    fn admit(&mut self, now: SimTime, entry: &Pending, _out: &mut Vec<BackendDone>) -> Result<()> {
        let service = Self::service_of(&entry.payload)?;
        self.insert((now + service, entry.ticket, entry.deadline_at));
        Ok(())
    }

    fn peek(&self) -> Option<SimTime> {
        self.running.last().map(|e| e.0)
    }

    fn step(&mut self, out: &mut Vec<BackendDone>) -> bool {
        let Some((finish, ticket, deadline_at)) = self.running.pop() else {
            return false;
        };
        let kind = if finish <= deadline_at {
            CompletionKind::Attained
        } else {
            CompletionKind::DeadlineMissed
        };
        out.push(BackendDone { ticket, kind, at: finish });
        true
    }

    fn inflight(&self) -> usize {
        self.running.len()
    }

    fn snapshot(&self) -> Result<SnapshotRecords> {
        let rows: Vec<Json> = self
            .running
            .iter()
            .map(|(finish, ticket, deadline)| {
                Json::obj(vec![
                    ("finish", u64_json(finish.as_millis())),
                    ("ticket", u64_json(*ticket)),
                    ("deadline", u64_json(deadline.as_millis())),
                ])
            })
            .collect();
        Ok(vec![json_record("running", &Json::Arr(rows))])
    }

    fn restore(&mut self, records: &SnapshotRecords, _admitted: &[Pending]) -> Result<()> {
        let corrupt = |detail: &str| RotaryError::SnapshotCorrupt { detail: detail.into() };
        let json = record_json(records, "running")?;
        let rows = json.as_arr().ok_or_else(|| corrupt("sim backend: running is not an array"))?;
        let mut running = Vec::with_capacity(rows.len());
        for row in rows {
            let u = |k: &str| row.get(k).and_then(Json::as_u64_str);
            let (Some(finish), Some(ticket), Some(deadline)) =
                (u("finish"), u("ticket"), u("deadline"))
            else {
                return Err(corrupt("sim backend: malformed running row"));
            };
            running.push((SimTime::from_millis(finish), ticket, SimTime::from_millis(deadline)));
        }
        self.running = running;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pending(ticket: u64, svc_ms: u64, deadline_ms: u64) -> Pending {
        Pending {
            ticket,
            tenant: 0,
            seq: ticket + 1,
            attempt: 0,
            submitted_at: SimTime::ZERO,
            deadline_at: SimTime::from_millis(deadline_ms),
            service_estimate: SimTime::from_millis(svc_ms),
            payload: Json::obj(vec![("svc_ms", Json::Num(svc_ms as f64))]),
        }
    }

    #[test]
    fn completes_in_finish_order_with_deadline_verdicts() {
        let mut b = SimBackend::new();
        let mut out = Vec::new();
        b.admit(SimTime::ZERO, &pending(0, 500, 400), &mut out).unwrap();
        b.admit(SimTime::ZERO, &pending(1, 200, 900), &mut out).unwrap();
        assert_eq!(b.inflight(), 2);
        assert_eq!(b.peek(), Some(SimTime::from_millis(200)));
        assert!(b.step(&mut out));
        assert!(b.step(&mut out));
        assert!(!b.step(&mut out));
        assert_eq!(
            out,
            vec![
                BackendDone {
                    ticket: 1,
                    kind: CompletionKind::Attained,
                    at: SimTime::from_millis(200)
                },
                BackendDone {
                    ticket: 0,
                    kind: CompletionKind::DeadlineMissed,
                    at: SimTime::from_millis(500)
                },
            ]
        );
    }

    #[test]
    fn equal_finish_times_break_ties_by_ticket() {
        let mut b = SimBackend::new();
        let mut out = Vec::new();
        b.admit(SimTime::ZERO, &pending(7, 100, 1000), &mut out).unwrap();
        b.admit(SimTime::ZERO, &pending(3, 100, 1000), &mut out).unwrap();
        while b.step(&mut out) {}
        assert_eq!(out.iter().map(|d| d.ticket).collect::<Vec<_>>(), vec![3, 7]);
    }

    #[test]
    fn malformed_payload_fails_validation() {
        let b = SimBackend::new();
        assert!(b.validate(&Json::Null).is_err());
        assert!(b.validate(&Json::obj(vec![("svc_ms", Json::Num(40.0))])).is_ok());
    }

    #[test]
    fn snapshot_round_trips_running_set() {
        let mut b = SimBackend::new();
        let mut out = Vec::new();
        for t in 0..20 {
            b.admit(SimTime::from_millis(t), &pending(t, 100 + t * 7, 10_000), &mut out).unwrap();
        }
        let records = b.snapshot().unwrap();
        let mut restored = SimBackend::new();
        restored.restore(&records, &[]).unwrap();
        assert_eq!(restored.running, b.running);
        // Corrupt record surfaces a typed error, never a panic.
        let torn = vec![("running".to_string(), b"[{\"finish\"".to_vec())];
        assert!(matches!(restored.restore(&torn, &[]), Err(RotaryError::SnapshotCorrupt { .. })));
    }
}
