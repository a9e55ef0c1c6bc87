//! The three ways a trial pushes a schedule through the service: over
//! loopback sockets, in-process, and in-process with durable snapshots and
//! kill/restore cycles. Each builds a fresh daemon, times from the first
//! submission to drain complete, and hands back what it observed.
//!
//! All load comes from this one thread. The socket listener runs on the
//! same thread behind a [`ManualClock`], so the arrival schedule lives in
//! *virtual* time and every wall-clock number is the program's own
//! compute: "open loop" means the schedule ignores completions, not that
//! arrivals are paced against the wall clock.

use crate::err;
use crate::span::Tracer;
use crate::stats::percentile;
use rotary::core::SimTime;
use rotary::faults::FaultPlan;
use rotary::serve::metrics::Counters;
use rotary::serve::{
    decode_frame, Backend, Clock, ConnClosed, Daemon, Frame, Listener, ManualClock, ServeConfig,
    Submission, SubmitResponse, TransportConfig,
};
use rotary::store::SnapshotStore;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::time::Instant;

/// Loopback connections the socket workloads use (the host has 2 cores;
/// more connections would only add idle read syscalls per poll).
pub const CONNS: usize = 2;

/// A time-ordered submission schedule in virtual time.
pub type Schedule = Vec<(SimTime, Submission)>;

/// What separates the ledgers of trials folded by [`Trial::absorb`].
pub const LEDGER_SEPARATOR: &str = "== next life ==\n";

/// What the transport did during a socket trial.
#[derive(Debug, Clone, Default)]
pub struct NetFacts {
    /// `Listener::poll` calls made.
    pub polls: u64,
    /// Bytes the listener read plus bytes it flushed.
    pub wire_bytes: u64,
    /// Connections closed for a fault-class reason.
    pub error_closes: u64,
}

/// What the snapshot store did during a durable trial.
#[derive(Debug, Clone, Default)]
pub struct StoreFacts {
    /// Snapshot generations committed.
    pub snapshots: u64,
    /// Record bytes handed to the store, summed over commits.
    pub snap_bytes: u64,
    /// Wall time of each kill → restored-and-ready cycle, seconds.
    pub resume_s: Vec<f64>,
    /// Damaged generations `latest_valid` had to skip over.
    pub corrupt_skipped: u64,
}

/// Everything one trial observed.
#[derive(Debug, Clone)]
pub struct Trial {
    /// First submission to drain complete, seconds.
    pub wall_s: f64,
    /// Submissions sent.
    pub submissions: u64,
    /// Submissions that got a typed final answer: a typed reject at the
    /// door, or a terminal notice for an admitted ticket.
    pub answered: u64,
    /// Door round trip of each submission, ns.
    pub door_ns: Vec<u64>,
    /// The daemon's outcome counters at the end.
    pub counters: Counters,
    /// p99 admission wait in virtual ms.
    pub wait_p99_ms: u64,
    /// Deepest admission queue seen after a submission.
    pub queue_peak: usize,
    /// The daemon's rendered outcome ledger.
    pub trace: String,
    /// Socket trials only.
    pub net: Option<NetFacts>,
    /// Durable trials only.
    pub store: Option<StoreFacts>,
}

impl Trial {
    /// A percentile of the door round trips, in µs.
    pub fn door_us(&self, q: f64) -> f64 {
        percentile(&self.door_ns, q) as f64 / 1e3
    }

    /// Folds another trial into this one, as if the two had been one:
    /// times and counts add up, the ledgers are joined under a separator.
    pub fn absorb(&mut self, other: Trial) {
        self.wall_s += other.wall_s;
        self.submissions += other.submissions;
        self.answered += other.answered;
        self.door_ns.extend(other.door_ns);
        let (a, b) = (&mut self.counters, &other.counters);
        a.submissions += b.submissions;
        a.admitted += b.admitted;
        a.rejected_queue_full += b.rejected_queue_full;
        a.rejected_quota += b.rejected_quota;
        a.rejected_draining += b.rejected_draining;
        a.rejected_malformed += b.rejected_malformed;
        a.rejected_oversized += b.rejected_oversized;
        a.rejected_duplicate += b.rejected_duplicate;
        a.shed_overload += b.shed_overload;
        a.shed_timeout += b.shed_timeout;
        a.shed_drain += b.shed_drain;
        a.completed_attained += b.completed_attained;
        a.completed_falsely += b.completed_falsely;
        a.completed_missed += b.completed_missed;
        a.completed_failed += b.completed_failed;
        self.wait_p99_ms = self.wait_p99_ms.max(other.wait_p99_ms);
        self.queue_peak = self.queue_peak.max(other.queue_peak);
        self.trace.push_str(LEDGER_SEPARATOR);
        self.trace.push_str(&other.trace);
        if let (Some(mine), Some(theirs)) = (&mut self.store, other.store) {
            mine.snapshots += theirs.snapshots;
            mine.snap_bytes += theirs.snap_bytes;
            mine.resume_s.extend(theirs.resume_s);
            mine.corrupt_skipped += theirs.corrupt_skipped;
        }
    }

    /// Operations that broke the service contract in this trial: no typed
    /// answer, a fault-class connection close, a leaked terminal, or a
    /// permanent failure outside a fault plan.
    pub fn failed(&self, under_fault_plan: bool) -> u64 {
        let c = &self.counters;
        let unanswered = self.submissions.saturating_sub(self.answered);
        let leaked = c.terminals().abs_diff(c.submissions)
            + c.submissions.abs_diff(c.admitted + c.rejected())
            + c.submissions.abs_diff(self.submissions);
        let permanent = if under_fault_plan { 0 } else { c.completed_failed };
        let closes = self.net.as_ref().map_or(0, |n| n.error_closes);
        unanswered + leaked + permanent + closes
    }
}

fn finish_trial<B: Backend>(
    daemon: &Daemon<B>,
    wall_s: f64,
    submissions: u64,
    answered: u64,
    door_ns: Vec<u64>,
    queue_peak: usize,
) -> Trial {
    let metrics = daemon.metrics();
    Trial {
        wall_s,
        submissions,
        answered,
        door_ns,
        counters: metrics.counters,
        wait_p99_ms: metrics.p99_wait_ms,
        queue_peak,
        trace: daemon.trace(),
        net: None,
        store: None,
    }
}

// ---------------------------------------------------------------------------
// In-process
// ---------------------------------------------------------------------------

/// Submits the schedule through `Daemon::submit` and runs to quiescence —
/// the same sequence `run_schedule` performs, with each call timed.
pub fn inproc_trial<B: Backend>(
    config: ServeConfig,
    backend: B,
    schedule: &[(SimTime, Submission)],
    tracer: &Tracer,
) -> Result<Trial, String> {
    let mut daemon = Daemon::new(config, backend).map_err(err("daemon config"))?;
    let mut door_ns = Vec::with_capacity(schedule.len());
    let mut answered = 0u64;
    let mut queue_peak = 0usize;
    let start = Instant::now();
    for (i, (at, sub)) in schedule.iter().enumerate() {
        tracer.set_sub(i as u64);
        let t0 = Instant::now();
        let resp = {
            let _s = tracer.span("daemon.submit");
            daemon.submit(*at, sub)
        };
        door_ns.push(t0.elapsed().as_nanos() as u64);
        if matches!(resp, SubmitResponse::Rejected { .. }) {
            answered += 1;
        }
        queue_peak = queue_peak.max(daemon.queue_len());
        answered += daemon.take_notices().len() as u64;
    }
    loop {
        let _s = tracer.span("daemon.idle_step");
        if !daemon.idle_step() {
            break;
        }
    }
    daemon.finish();
    let wall_s = start.elapsed().as_secs_f64();
    answered += daemon.take_notices().len() as u64;
    Ok(finish_trial(&daemon, wall_s, schedule.len() as u64, answered, door_ns, queue_peak))
}

// ---------------------------------------------------------------------------
// Loopback sockets
// ---------------------------------------------------------------------------

/// One nonblocking loopback client with its undecoded backlog.
struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
    open: bool,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(err("client connect"))?;
        stream.set_nonblocking(true).map_err(err("client nonblocking"))?;
        stream.set_nodelay(true).map_err(err("client nodelay"))?;
        Ok(Client { stream, buf: Vec::new(), open: true })
    }

    /// Reads whatever the server has flushed so far.
    fn pump(&mut self) {
        let mut chunk = [0u8; 4096];
        while self.open {
            match self.stream.read(&mut chunk) {
                Ok(0) => self.open = false,
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => self.open = false,
            }
        }
    }

    /// Decodes every complete frame in the backlog into `tally`.
    fn take_frames(&mut self, tally: &mut Tally) -> Result<(), String> {
        let mut used_total = 0;
        while let Some((frame, used)) =
            decode_frame(&self.buf[used_total..]).map_err(err("server sent a malformed frame"))?
        {
            used_total += used;
            match frame {
                Frame::SubmitResp(SubmitResponse::Admitted { .. }) => tally.admitted += 1,
                Frame::SubmitResp(SubmitResponse::Rejected { .. }) => tally.rejected += 1,
                Frame::Notice(_) => tally.notices += 1,
                Frame::DrainResp | Frame::Bye(ConnClosed::ServerDraining) => {}
                other => return Err(format!("unexpected frame from server: {other:?}")),
            }
        }
        self.buf.drain(..used_total);
        Ok(())
    }
}

/// What the clients have heard back so far.
#[derive(Debug, Default)]
struct Tally {
    admitted: u64,
    rejected: u64,
    notices: u64,
}

/// Cuts a schedule into runs of submissions that share one virtual
/// millisecond — the clock's resolution, so the arrivals of one run are
/// simultaneous as far as the daemon can tell.
pub fn same_instant_runs(schedule: &[(SimTime, Submission)]) -> Vec<std::ops::Range<usize>> {
    let mut runs = Vec::new();
    let mut start = 0;
    for i in 1..=schedule.len() {
        if i == schedule.len() || schedule[i].0 != schedule[start].0 {
            runs.push(start..i);
            start = i;
        }
    }
    runs
}

/// Limits under which no clean client is ever closed: virtual time jumps
/// by minutes between AQP arrivals, so the idle deadlines must not fire.
fn transport_config() -> TransportConfig {
    TransportConfig {
        max_connections: 64,
        read_buf_limit: 1 << 16,
        write_buf_limit: 1 << 18,
        idle_timeout: SimTime::from_hours(1 << 20),
        frame_deadline: SimTime::from_hours(1 << 20),
    }
}

/// Binds a listener over `daemon` on an ephemeral loopback port and seats
/// [`CONNS`] clients.
fn open_socket<B: Backend>(
    daemon: Daemon<B>,
    clock: ManualClock,
) -> Result<(Listener<B, ManualClock>, Vec<Client>), String> {
    let mut listener = Listener::bind("127.0.0.1:0", transport_config(), daemon, clock)
        .map_err(err("bind loopback listener"))?;
    let addr = listener.local_addr().map_err(err("local addr"))?;
    let clients = (0..CONNS).map(|_| Client::connect(addr)).collect::<Result<Vec<_>, _>>()?;
    listener.poll();
    if listener.connections() != CONNS {
        return Err(format!("listener seated {} of {CONNS} clients", listener.connections()));
    }
    Ok((listener, clients))
}

/// The bind/listen/connect part of set-up, on its own (a trial repeats it
/// untimed for its fresh daemon).
pub fn socket_setup<B: Backend>(config: ServeConfig, backend: B) -> Result<(), String> {
    let daemon = Daemon::new(config, backend).map_err(err("daemon config"))?;
    open_socket(daemon, ManualClock::new()).map(|_| ())
}

/// Polls cap: a trial that needs more than this to answer one submission
/// or to drain is stuck, and says so instead of spinning.
const MAX_POLLS: u64 = 50_000_000;

/// Sends the pre-encoded `frames` of `schedule` over loopback and polls
/// the listener on this same thread until each is answered; then steps
/// virtual time through the backend's remaining events and drains.
///
/// The arrivals of one virtual millisecond go out together, in one write
/// on one connection (connections take turns), before the listener polls:
/// the schedule is open loop, so a client does not wait for one answer
/// before sending what is due at the same instant. Sparse schedules (the
/// AQP arrivals are minutes apart) degenerate to one frame per poll.
/// Frames on one connection are handled in order, so the outcome ledger
/// equals `run_schedule` over the same (wire-stamped) schedule.
pub fn socket_trial<B: Backend>(
    config: ServeConfig,
    backend: B,
    schedule: &[(SimTime, Submission)],
    frames: &[Vec<u8>],
    tracer: &Tracer,
) -> Result<Trial, String> {
    let daemon = Daemon::new(config, backend).map_err(err("daemon config"))?;
    let clock = ManualClock::new();
    let (mut listener, mut clients) = open_socket(daemon, clock.clone())?;

    let mut door_ns = Vec::with_capacity(schedule.len());
    let mut tally = Tally::default();
    let mut polls = 0u64;
    let mut queue_peak = 0usize;
    let poll = |listener: &mut Listener<B, ManualClock>, polls: &mut u64| {
        let _s = tracer.span("transport.poll");
        *polls += 1;
        listener.poll()
    };

    let start = Instant::now();
    let mut batch = Vec::new();
    for (turn, run) in same_instant_runs(schedule).into_iter().enumerate() {
        tracer.set_sub(run.start as u64);
        let at = schedule[run.start].0.as_millis();
        if clock.now_ms() < at {
            clock.set_ms(at);
        }
        batch.clear();
        for frame in &frames[run.clone()] {
            batch.extend_from_slice(frame);
        }
        let client = &mut clients[turn % CONNS];
        let due = tally.admitted + tally.rejected + run.len() as u64;
        let t0 = Instant::now();
        {
            let _s = tracer.span("client.write");
            client.stream.write_all(&batch).map_err(err("client write"))?;
        }
        while tally.admitted + tally.rejected < due {
            poll(&mut listener, &mut polls);
            let _s = tracer.span("client.read");
            let before = tally.admitted + tally.rejected;
            client.pump();
            client.take_frames(&mut tally)?;
            // Every response of this pass is one submission's round trip.
            let answered = tally.admitted + tally.rejected - before;
            let elapsed = t0.elapsed().as_nanos() as u64;
            door_ns.extend(std::iter::repeat_n(elapsed, answered as usize));
            if !client.open || polls > MAX_POLLS {
                return Err(format!("submission {} was never answered", run.start));
            }
        }
        queue_peak = queue_peak.max(listener.daemon().queue_len());
    }

    // The tail: advance virtual time event by event, exactly as
    // `Daemon::finish` would, so the ledger matches the in-process oracle.
    while let Some(next) = listener.daemon().backend().peek() {
        if clock.now_ms() < next.as_millis() {
            clock.set_ms(next.as_millis());
        }
        poll(&mut listener, &mut polls);
        let _s = tracer.span("client.read");
        for client in &mut clients {
            client.pump();
            client.take_frames(&mut tally)?;
        }
        if polls > MAX_POLLS {
            return Err("backend never went quiet".into());
        }
    }

    listener.drain();
    while !(listener.is_finished() && clients.iter().all(|c| !c.open)) {
        poll(&mut listener, &mut polls);
        let _s = tracer.span("client.read");
        for client in &mut clients {
            client.pump();
            client.take_frames(&mut tally)?;
        }
        if polls > MAX_POLLS {
            return Err("listener never finished draining".into());
        }
    }
    let wall_s = start.elapsed().as_secs_f64();

    let stats = listener.stats().clone();
    let error_closes = [
        ConnClosed::IdleTimeout,
        ConnClosed::FrameTooLarge,
        ConnClosed::BadFrame,
        ConnClosed::Overload,
    ]
    .iter()
    .map(|r| stats.closed_for(*r))
    .sum();
    let daemon = listener.into_daemon();
    let mut trial = finish_trial(
        &daemon,
        wall_s,
        schedule.len() as u64,
        tally.rejected + tally.notices,
        door_ns,
        queue_peak,
    );
    trial.net =
        Some(NetFacts { polls, wire_bytes: stats.bytes_in + stats.bytes_out, error_closes });
    Ok(trial)
}

// ---------------------------------------------------------------------------
// In-process, durable, with kill/restore cycles
// ---------------------------------------------------------------------------

/// When the durable loop snapshots and when it kills.
#[derive(Debug, Clone, Copy)]
pub struct DurablePlan {
    /// Commit a snapshot every this many terminal outcomes.
    pub every_terminals: u64,
    /// Drop the daemon and rebuild it from disk once, right after
    /// committing this generation.
    pub kill_after: u64,
}

/// Drives the schedule in-process while committing a snapshot every
/// `every_terminals` terminal outcomes and, once generation `kill_after`
/// is committed, dropping daemon and backend and rebuilding both from the
/// newest valid generation on disk. `faults` damages snapshots on their way to disk.
/// `make_backend` builds a backend the way a restarted process would.
/// The final ledger equals an uninterrupted `run_schedule`.
pub fn durable_trial<B: Backend>(
    config: &ServeConfig,
    mut make_backend: impl FnMut() -> Result<B, String>,
    schedule: &[(SimTime, Submission)],
    plan: DurablePlan,
    faults: &FaultPlan,
    dir: &Path,
    tracer: &Tracer,
) -> Result<Trial, String> {
    let _ = std::fs::remove_dir_all(dir);
    let store = SnapshotStore::open(dir).map_err(err("open snapshot store"))?;
    let mut daemon = Daemon::new(config.clone(), make_backend()?).map_err(err("daemon config"))?;
    let mut facts = StoreFacts::default();
    let mut door_ns = Vec::with_capacity(schedule.len());
    let mut generation = 0u64;
    let mut last_snap = 0u64;
    // A restore that falls back past a damaged snapshot commits the kill
    // generation a second time; it must not kill again there, or a damaged
    // generation would pin the run in a kill loop.
    let mut killed = false;
    let mut queue_peak = 0usize;

    let start = Instant::now();
    loop {
        // One unit of work: the next submission, or the next backend event
        // once the schedule is exhausted. The schedule position is the
        // daemon's own submission counter, so a restore rewinds it.
        let next = daemon.counters().submissions as usize;
        let progressed = match schedule.get(next) {
            Some((at, sub)) => {
                tracer.set_sub(next as u64);
                let t0 = Instant::now();
                {
                    let _s = tracer.span("daemon.submit");
                    daemon.submit(*at, sub);
                }
                let ns = t0.elapsed().as_nanos() as u64;
                // A submission replayed after a restore is measured again;
                // keep the latest timing of each.
                door_ns.truncate(next);
                door_ns.push(ns);
                queue_peak = queue_peak.max(daemon.queue_len());
                true
            }
            None => {
                let _s = tracer.span("daemon.idle_step");
                daemon.idle_step()
            }
        };

        let terminals = daemon.counters().terminals();
        if terminals.saturating_sub(last_snap) >= plan.every_terminals {
            generation += 1;
            let records = {
                let _s = tracer.span("daemon.snapshot_records");
                daemon.snapshot_records().map_err(err("snapshot"))?
            };
            facts.snapshots += 1;
            facts.snap_bytes +=
                records.iter().map(|(name, bytes)| (name.len() + bytes.len()) as u64).sum::<u64>();
            {
                let _s = tracer.span("store.commit");
                store
                    .commit(generation, &records, faults.snapshot_fault(generation).as_ref())
                    .map_err(err("commit"))?;
            }
            last_snap = terminals;
            if generation == plan.kill_after && !killed {
                killed = true;
                let t0 = Instant::now();
                drop(daemon);
                let backend = make_backend()?;
                let loaded = {
                    let _s = tracer.span("store.latest_valid");
                    store.latest_valid().map_err(err("load snapshot"))?
                };
                daemon = match loaded {
                    Some((g, records)) => {
                        facts.corrupt_skipped += generation - g;
                        generation = g;
                        let _s = tracer.span("daemon.restore");
                        Daemon::restore(config.clone(), backend, &records)
                            .map_err(err("restore"))?
                    }
                    // Every generation so far was damaged: start over.
                    None => {
                        facts.corrupt_skipped += generation;
                        generation = 0;
                        Daemon::new(config.clone(), backend).map_err(err("daemon config"))?
                    }
                };
                last_snap = daemon.counters().terminals();
                facts.resume_s.push(t0.elapsed().as_secs_f64());
            }
        }
        if !progressed {
            break;
        }
    }
    daemon.finish();
    let wall_s = start.elapsed().as_secs_f64();
    let _ = std::fs::remove_dir_all(dir);

    // Notices do not survive a restore (they are transient by design), so
    // the ledger is the witness that every submission got its answer.
    let answered = daemon.ledger().len() as u64;
    let mut trial =
        finish_trial(&daemon, wall_s, schedule.len() as u64, answered, door_ns, queue_peak);
    trial.store = Some(facts);
    Ok(trial)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rotary::core::json::Json;

    #[test]
    fn same_instant_runs_partition_the_schedule_by_timestamp() {
        let at = |ms: u64| {
            let sub = Submission {
                tenant: 0,
                seq: 1,
                attempt: 0,
                deadline: SimTime::from_secs(1),
                cost_milli: 0,
                bytes: 0,
                payload: Json::Null,
            };
            (SimTime::from_millis(ms), sub)
        };
        let schedule: Schedule = [0, 0, 1, 3, 3, 3, 9].into_iter().map(at).collect();
        assert_eq!(same_instant_runs(&schedule), vec![0..2, 2..3, 3..6, 6..7]);
        assert_eq!(same_instant_runs(&schedule[..1]), vec![0..1]);
        assert!(same_instant_runs(&[]).is_empty());
    }
}
