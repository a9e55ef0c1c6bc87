//! Deterministic load generation: open- and closed-loop submission
//! streams for driving a [`Daemon`] at up to ~1M simulated users.
//!
//! All randomness is positional over `rotary_sim::rng` fork streams —
//! user `u`'s `k`-th service time is `fork("svc/{u}/{k}")` of the root
//! seed — so the same seed always produces the same traffic regardless of
//! processing order, and a resumed daemon can replay the exact suffix of
//! an open-loop schedule. Hostile-traffic shaping (bursts, duplicates,
//! malformed and oversized payloads, tenant floods) comes from the
//! [`FaultPlan`]'s submission-fault streams, so the daemon's tests and
//! the generator agree on the fault schedule without sharing state.

use crate::backend::Backend;
use crate::daemon::Daemon;
use crate::{Submission, SubmitResponse};
use rotary_core::error::{Result, RotaryError};
use rotary_core::json::Json;
use rotary_core::SimTime;
use rotary_faults::{FaultPlan, SubmissionFault};
use rotary_sim::rng::{sample_exponential, Rng};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Open loop (arrivals ignore completions) or closed loop (each user
/// waits for their outcome, thinks, submits again).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LoadMode {
    /// Poisson arrivals at this aggregate rate.
    Open {
        /// Mean arrivals per second across all users.
        arrivals_per_sec: f64,
    },
    /// Each user resubmits after an exponential think time.
    Closed {
        /// Mean think time between a user's outcome and next submission.
        think_mean: SimTime,
    },
}

/// Sizing of one generated workload.
#[derive(Debug, Clone)]
pub struct LoadGenConfig {
    /// Root seed for every fork stream.
    pub seed: u64,
    /// Number of simulated users (= tenants, dense ids `0..users`).
    pub users: u64,
    /// Submissions each user wants to complete.
    pub submissions_per_user: u32,
    /// Open or closed loop.
    pub mode: LoadMode,
    /// Uniform inclusive service-time range, ms.
    pub service_ms: (u64, u64),
    /// Deadline = service × slack, slack uniform in this range.
    pub deadline_slack: (f64, f64),
    /// Quota cost per submission, millitokens.
    pub cost_milli: u64,
    /// Declared payload size of a well-formed submission.
    pub bytes: u64,
    /// Declared size of an injected oversized submission (set above the
    /// daemon's cap).
    pub oversize_bytes: u64,
    /// Burst/flood window for the fault streams.
    pub window: SimTime,
    /// Resubmission cap after a reject or shed (closed loop only).
    pub max_resubmits: u32,
    /// Submission-fault shaping; [`FaultPlan::none`] for clean traffic.
    pub faults: FaultPlan,
}

impl LoadGenConfig {
    fn root(&self) -> Rng {
        Rng::seed_from_u64(self.seed)
    }

    /// User `u`'s `seq`-th job payload and its relative deadline — a pure
    /// function of `(seed, u, seq)`.
    fn job_for(&self, u: u64, seq: u64) -> (Json, SimTime) {
        let mut svc_rng = self.root().fork(&format!("svc/{u}/{seq}"));
        let (lo, hi) = self.service_ms;
        let svc = if hi > lo { lo + svc_rng.next_u64() % (hi - lo + 1) } else { lo };
        let mut dl_rng = self.root().fork(&format!("dl/{u}/{seq}"));
        let (slo, shi) = self.deadline_slack;
        let slack = if shi > slo { dl_rng.gen_range(slo..shi) } else { slo };
        let deadline = SimTime::from_millis((svc as f64 * slack.max(1.0)) as u64);
        (Json::obj(vec![("svc_ms", Json::Num(svc as f64))]), deadline)
    }

    /// Builds a clean submission for `(u, seq)`.
    fn clean(&self, u: u64, seq: u64, attempt: u32) -> Submission {
        let (payload, deadline) = self.job_for(u, seq);
        Submission {
            tenant: u,
            seq,
            attempt,
            deadline,
            cost_milli: self.cost_milli,
            bytes: self.bytes,
            payload,
        }
    }
}

/// Builds the full open-loop schedule: time-ordered submissions with the
/// fault plan's bursts, floods, duplicates and garbage applied. Pure in
/// the config, so a resumed daemon replays an identical suffix.
///
/// # Errors
/// [`RotaryError::InvalidConfig`] when the config is not open-loop.
pub fn open_schedule(cfg: &LoadGenConfig) -> Result<Vec<(SimTime, Submission)>> {
    let LoadMode::Open { arrivals_per_sec } = cfg.mode else {
        return Err(RotaryError::InvalidConfig("open_schedule needs LoadMode::Open".into()));
    };
    if arrivals_per_sec <= 0.0 {
        return Err(RotaryError::InvalidConfig("arrival rate must be positive".into()));
    }
    let mut arrivals = cfg.root().fork("arrivals");
    let mean_gap_ms = 1000.0 / arrivals_per_sec;
    let total = cfg.users * u64::from(cfg.submissions_per_user);
    let mut out = Vec::new();
    // Per-user emission state: accepted seq high-water mark, emission
    // ordinal (fault coordinate), last window a burst was applied in.
    let mut seqs = vec![0u64; cfg.users as usize];
    let mut ordinals = vec![0u64; cfg.users as usize];
    let mut burst_window = vec![u64::MAX; cfg.users as usize];
    let mut t_ms = 0.0f64;
    for k in 0..total {
        t_ms += sample_exponential(&mut arrivals, mean_gap_ms);
        let at = SimTime::from_millis(t_ms as u64);
        let u = k % cfg.users;
        let window = at.as_millis() / cfg.window.as_millis().max(1);
        // A flooding tenant multiplies this arrival; a burst window adds
        // extra arrivals once per (user, window).
        let mut copies = u64::from(cfg.faults.tenant_flood_factor(u, window).max(1));
        if burst_window[u as usize] != window {
            burst_window[u as usize] = window;
            copies += u64::from(cfg.faults.submission_burst(u, window));
        }
        for _ in 0..copies {
            let ordinal = ordinals[u as usize];
            ordinals[u as usize] += 1;
            let last = seqs[u as usize];
            let sub = match cfg.faults.submission_fault(u, ordinal) {
                SubmissionFault::Duplicate if last > 0 => {
                    // Exact resend of the previous accepted submission.
                    cfg.clean(u, last, 0)
                }
                SubmissionFault::Malformed => {
                    Submission { payload: Json::Null, ..cfg.clean(u, last + 1, 0) }
                }
                SubmissionFault::Oversized => {
                    Submission { bytes: cfg.oversize_bytes, ..cfg.clean(u, last + 1, 0) }
                }
                _ => {
                    seqs[u as usize] = last + 1;
                    cfg.clean(u, last + 1, 0)
                }
            };
            out.push((at, sub));
        }
    }
    Ok(out)
}

/// The closed-loop driver: each simulated user submits, waits for a
/// typed outcome, thinks, and submits again — resubmitting with
/// incremented `attempt` (and the daemon's retry hint) after rejects and
/// sheds, up to the resubmission cap. Traffic is clean; hostile-traffic
/// profiles belong to the open-loop generator.
#[derive(Debug)]
pub struct ClosedLoop {
    cfg: LoadGenConfig,
    think_mean_ms: f64,
    /// Min-heap of `(when_ms, user, attempt)` pending submissions.
    heap: BinaryHeap<Reverse<(u64, u64, u32)>>,
    /// Accepted seq high-water mark per user.
    seqs: Vec<u64>,
    /// Submissions this user still wants to complete.
    remaining: Vec<u32>,
    /// Completed-or-abandoned think-event ordinal per user.
    think_k: Vec<u64>,
    /// Ticket → owning user.
    ticket_user: Vec<u64>,
    /// Admitted tickets with no notice yet.
    outstanding: u64,
}

impl ClosedLoop {
    /// Seeds every user's first submission with an exponential offset so
    /// ~1M users do not arrive in the same millisecond.
    ///
    /// # Errors
    /// [`RotaryError::InvalidConfig`] when the config is not closed-loop.
    pub fn new(cfg: LoadGenConfig) -> Result<ClosedLoop> {
        let LoadMode::Closed { think_mean } = cfg.mode else {
            return Err(RotaryError::InvalidConfig("ClosedLoop needs LoadMode::Closed".into()));
        };
        let users = cfg.users as usize;
        let mut heap = BinaryHeap::with_capacity(users);
        let root = cfg.root();
        for u in 0..cfg.users {
            let mut rng = root.fork(&format!("think/{u}/0"));
            let offset = sample_exponential(&mut rng, think_mean.as_millis() as f64);
            heap.push(Reverse((offset as u64, u, 0u32)));
        }
        Ok(ClosedLoop {
            think_mean_ms: think_mean.as_millis() as f64,
            heap,
            seqs: vec![0; users],
            remaining: vec![cfg.submissions_per_user; users],
            think_k: vec![0; users],
            ticket_user: Vec::new(),
            outstanding: 0,
            cfg,
        })
    }

    fn think(&self, u: u64, k: u64) -> SimTime {
        let mut rng = self.cfg.root().fork(&format!("think/{u}/{k}"));
        SimTime::from_millis(sample_exponential(&mut rng, self.think_mean_ms) as u64)
    }

    /// Schedules user `u`'s next fresh submission after `at`, if any
    /// remain.
    fn schedule_next(&mut self, u: u64, at: SimTime) {
        self.remaining[u as usize] -= 1;
        if self.remaining[u as usize] == 0 {
            return;
        }
        self.think_k[u as usize] += 1;
        let think = self.think(u, self.think_k[u as usize]);
        self.heap.push(Reverse(((at + think).as_millis(), u, 0)));
    }

    fn harvest<B: Backend>(&mut self, daemon: &mut Daemon<B>) {
        for notice in daemon.take_notices() {
            self.outstanding -= 1;
            let u = self.ticket_user[notice.ticket as usize];
            match notice.fate {
                Ok(_) => self.schedule_next(u, notice.at),
                Err((_, retry_after)) => {
                    // The shed consumed the seq; resubmit as fresh work
                    // unless the user is out of patience.
                    let attempt = 1; // first resubmission of this piece
                    if attempt <= self.cfg.max_resubmits {
                        self.heap.push(Reverse((
                            (notice.at + retry_after).as_millis(),
                            u,
                            attempt,
                        )));
                    } else {
                        self.schedule_next(u, notice.at);
                    }
                }
            }
        }
    }

    /// Drives the daemon until every user is done (or gave up). Returns
    /// the number of submissions sent.
    ///
    /// # Errors
    /// Currently infallible in practice; kept fallible for parity with
    /// the durable drivers.
    pub fn run<B: Backend>(&mut self, daemon: &mut Daemon<B>) -> Result<u64> {
        let mut sent = 0u64;
        loop {
            if let Some(Reverse((at_ms, u, attempt))) = self.heap.pop() {
                let at = SimTime::from_millis(at_ms);
                let seq = self.seqs[u as usize] + 1;
                let sub = self.cfg.clean(u, seq, attempt);
                sent += 1;
                match daemon.submit(at, &sub) {
                    SubmitResponse::Admitted { ticket } => {
                        debug_assert_eq!(ticket as usize, self.ticket_user.len());
                        self.seqs[u as usize] = seq;
                        self.ticket_user.push(u);
                        self.outstanding += 1;
                    }
                    SubmitResponse::Rejected { retry_after, .. } => {
                        if attempt < self.cfg.max_resubmits {
                            self.heap.push(Reverse((
                                (at + retry_after).as_millis(),
                                u,
                                attempt + 1,
                            )));
                        } else {
                            self.schedule_next(u, at);
                        }
                    }
                }
                self.harvest(daemon);
            } else if self.outstanding > 0 {
                if !daemon.idle_step() {
                    // Backend stuck with tickets open: surface, never spin.
                    daemon.finish();
                    self.harvest(daemon);
                    if self.outstanding > 0 {
                        return Err(RotaryError::Stalled {
                            site: "closed loop",
                            outstanding: self.outstanding,
                        });
                    }
                    break;
                }
                self.harvest(daemon);
            } else {
                break;
            }
        }
        Ok(sent)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::SimBackend;
    use crate::daemon::ServeConfig;
    use rotary_faults::FaultConfig;

    /// A small clean open-loop workload.
    fn clean_open(seed: u64) -> LoadGenConfig {
        LoadGenConfig {
            seed,
            users: 8,
            submissions_per_user: 4,
            mode: LoadMode::Open { arrivals_per_sec: 4.0 },
            service_ms: (200, 2_000),
            deadline_slack: (4.0, 12.0),
            cost_milli: 1000,
            bytes: 64,
            oversize_bytes: 1 << 20,
            window: SimTime::from_secs(10),
            max_resubmits: 3,
            faults: FaultPlan::none(),
        }
    }

    #[test]
    fn open_schedule_is_pure_ordered_and_monotone_per_user() {
        let cfg = clean_open(77);
        let a = open_schedule(&cfg).unwrap();
        let b = open_schedule(&cfg).unwrap();
        assert_eq!(a, b, "same seed, same schedule");
        assert_eq!(a.len(), 32);
        assert!(a.windows(2).all(|w| w[0].0 <= w[1].0), "time-ordered");
        // Clean traffic: per-user seqs strictly increase by one.
        for u in 0..cfg.users {
            let seqs: Vec<u64> =
                a.iter().filter(|(_, s)| s.tenant == u).map(|(_, s)| s.seq).collect();
            assert_eq!(seqs, (1..=seqs.len() as u64).collect::<Vec<_>>(), "user {u}");
        }
        let other = open_schedule(&LoadGenConfig { seed: 78, ..cfg }).unwrap();
        assert_ne!(a, other, "different seed, different schedule");
    }

    #[test]
    fn hostile_schedule_carries_typed_garbage() {
        let mut cfg = clean_open(5);
        cfg.users = 20;
        cfg.submissions_per_user = 40;
        cfg.faults = FaultPlan::new(FaultConfig::chaos(5));
        let sched = open_schedule(&cfg).unwrap();
        assert!(sched.len() as u64 >= cfg.users * u64::from(cfg.submissions_per_user));
        let malformed = sched.iter().filter(|(_, s)| s.payload == Json::Null).count();
        let oversized = sched.iter().filter(|(_, s)| s.bytes == cfg.oversize_bytes).count();
        assert!(malformed > 0, "chaos plan should inject malformed payloads");
        assert!(oversized > 0, "chaos plan should inject oversized payloads");
        // Duplicates: some submission repeats an earlier (tenant, seq).
        let mut seen = std::collections::BTreeSet::new();
        let dups = sched
            .iter()
            .filter(|(_, s)| s.payload != Json::Null && s.bytes != cfg.oversize_bytes)
            .filter(|(_, s)| !seen.insert((s.tenant, s.seq)))
            .count();
        assert!(dups > 0, "chaos plan should inject duplicate resends");
    }

    #[test]
    fn closed_loop_completes_every_user_deterministically() {
        let run = || {
            let mut lg_cfg = clean_open(11);
            lg_cfg.users = 6;
            lg_cfg.submissions_per_user = 3;
            lg_cfg.mode = LoadMode::Closed { think_mean: SimTime::from_secs(2) };
            let mut daemon = Daemon::new(ServeConfig::small(), SimBackend::new()).unwrap();
            let mut driver = ClosedLoop::new(lg_cfg).unwrap();
            let sent = driver.run(&mut daemon).unwrap();
            daemon.finish();
            (sent, daemon.trace(), *daemon.counters())
        };
        let (sent_a, trace_a, counters_a) = run();
        let (sent_b, trace_b, _) = run();
        assert_eq!(sent_a, sent_b);
        assert_eq!(trace_a, trace_b, "closed loop must be deterministic");
        assert_eq!(counters_a.terminals(), counters_a.submissions, "exactly one outcome each");
        assert_eq!(counters_a.completed(), 18, "6 users x 3 submissions all completed");
    }
}
