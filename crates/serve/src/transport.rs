//! The TCP front-end: a nonblocking poll-loop listener for the daemon.
//!
//! Plain `std::net` — no epoll, no async runtime. The listener and every
//! accepted connection run in nonblocking mode; one [`Listener::poll`]
//! call makes a full pass (accept, read, decode, dispatch, write,
//! timeouts) and returns whether anything moved. The caller owns the
//! loop cadence: the CLI spins on it against the wall clock, tests drive
//! it step by step against a [`ManualClock`].
//!
//! ## Clock injection
//!
//! The daemon core lives in virtual time and must stay that way (lint
//! rule D002 bans `Instant`/`SystemTime` in this crate). The transport
//! therefore never reads the wall clock: all time comes from an injected
//! [`Clock`], in the same spirit as the `ProbeClock` seam in the DLT
//! estimators. Production injects a monotonic wall-clock closure at the
//! composition root; tests inject a [`ManualClock`] and advance it by
//! hand, which makes every timeout and every virtual-time stamp in the
//! daemon's ledger deterministic.
//!
//! ## Per-connection state machine
//!
//! ```text
//!            accept (under cap)
//! [open] ──────────────────────────▶ read → decode → dispatch → write
//!   │  idle_timeout / frame_deadline        │ bad bytes
//!   │  write-buffer overflow / drain        ▼
//!   └────────────────────────────▶ [closing: Bye queued] ──▶ [closed]
//!                                   flush, then shutdown
//! ```
//!
//! A connection leaves the open state for exactly one typed
//! [`ConnClosed`] reason; the `Bye` frame carrying it is the last thing
//! flushed. Read and write buffers are bounded: a client that dribbles
//! bytes (slowloris) trips the per-frame deadline, one that stops
//! reading trips the write cap ([`ConnClosed::Overload`]).

use crate::backend::Backend;
use crate::daemon::Daemon;
use crate::wire::{decode_frame, encode_frame_into, ConnClosed, Frame, WireError};
use crate::{Notice, SubmitResponse};
use rotary_core::error::{Result, RotaryError};
use rotary_core::json::{u64_json, Json};
use rotary_core::SimTime;
use std::collections::BTreeMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The transport's only source of time, in milliseconds from an
/// arbitrary epoch. Monotone by contract: the listener clamps
/// regressions rather than panicking, but a well-behaved clock never
/// goes backwards.
pub trait Clock {
    /// Milliseconds since the clock's epoch.
    fn now_ms(&self) -> u64;
}

impl<F: Fn() -> u64> Clock for F {
    fn now_ms(&self) -> u64 {
        self()
    }
}

/// A hand-advanced clock for deterministic tests. Clones share the same
/// underlying instant, so a test can hold one handle while the listener
/// owns another.
#[derive(Debug, Clone, Default)]
pub struct ManualClock(Arc<AtomicU64>);

impl ManualClock {
    /// A clock at 0 ms.
    pub fn new() -> ManualClock {
        ManualClock::default()
    }

    /// Moves the clock forward by `ms`.
    pub fn advance_ms(&self, ms: u64) {
        self.0.fetch_add(ms, Ordering::SeqCst);
    }

    /// Jumps the clock to an absolute value (test setup only).
    pub fn set_ms(&self, ms: u64) {
        self.0.store(ms, Ordering::SeqCst);
    }
}

impl Clock for ManualClock {
    fn now_ms(&self) -> u64 {
        self.0.load(Ordering::SeqCst)
    }
}

/// Everything that sizes the listener.
#[derive(Debug, Clone)]
pub struct TransportConfig {
    /// Hard cap on concurrent connections; the overflow accept is told
    /// `Bye(overload)` and dropped.
    pub max_connections: usize,
    /// Per-connection cap on buffered undecoded bytes. Also the
    /// effective max frame size when below the codec's own cap.
    pub read_buf_limit: usize,
    /// Per-connection cap on unflushed response bytes; a client that
    /// stops reading is closed `Overload` when its backlog passes this.
    pub write_buf_limit: usize,
    /// A connection with no complete frame for this long is closed
    /// `IdleTimeout`.
    pub idle_timeout: SimTime,
    /// A *partial* frame older than this is closed `IdleTimeout` — the
    /// slowloris defense; dribbling bytes does not reset it.
    pub frame_deadline: SimTime,
}

impl TransportConfig {
    /// Small limits suitable for tests and the CLI quick-start.
    pub fn small() -> TransportConfig {
        TransportConfig {
            max_connections: 64,
            read_buf_limit: 1 << 16,
            write_buf_limit: 1 << 18,
            idle_timeout: SimTime::from_secs(30),
            frame_deadline: SimTime::from_secs(5),
        }
    }

    /// Rejects configurations that cannot make progress.
    pub fn validate(&self) -> Result<()> {
        let bad = |m: &str| Err(RotaryError::InvalidConfig(format!("transport: {m}")));
        if self.max_connections == 0 {
            return bad("max_connections must be at least 1");
        }
        if self.read_buf_limit < 64 {
            return bad("read_buf_limit must be at least 64 bytes");
        }
        if self.write_buf_limit < 64 {
            return bad("write_buf_limit must be at least 64 bytes");
        }
        if self.idle_timeout.is_zero() || self.frame_deadline.is_zero() {
            return bad("idle_timeout and frame_deadline must be positive");
        }
        Ok(())
    }
}

/// Counters the listener keeps about its own edge (the daemon keeps its
/// own admission counters).
#[derive(Debug, Clone, Default)]
pub struct TransportStats {
    /// Connections accepted into a slot.
    pub accepted: u64,
    /// Every finalized close, in close order, with its typed reason.
    pub closed: Vec<(u64, ConnClosed)>,
    /// Complete frames decoded from clients.
    pub frames_in: u64,
    /// Frames queued to clients.
    pub frames_out: u64,
    /// Bytes read off sockets.
    pub bytes_in: u64,
    /// Bytes flushed to sockets.
    pub bytes_out: u64,
    /// Typed decode failures (each also closes its connection).
    pub wire_errors: u64,
}

impl TransportStats {
    /// How many connections closed for `reason`.
    pub fn closed_for(&self, reason: ConnClosed) -> u64 {
        self.closed.iter().filter(|(_, r)| *r == reason).count() as u64
    }
}

struct Conn {
    id: u64,
    stream: TcpStream,
    read_buf: Vec<u8>,
    write_buf: Vec<u8>,
    write_pos: usize,
    last_frame_ms: u64,
    frame_start_ms: Option<u64>,
    closing: Option<(ConnClosed, u64)>,
}

impl Conn {
    fn pending_write(&self) -> usize {
        self.write_buf.len() - self.write_pos
    }
}

/// The nonblocking TCP listener wrapping a [`Daemon`].
pub struct Listener<B: Backend, C: Clock> {
    listener: TcpListener,
    daemon: Daemon<B>,
    clock: C,
    config: TransportConfig,
    conns: Vec<Option<Conn>>,
    ticket_conn: BTreeMap<u64, u64>,
    next_conn_id: u64,
    draining: bool,
    stats: TransportStats,
}

fn io_err(what: &str, e: &std::io::Error) -> RotaryError {
    RotaryError::Persistence(format!("{what}: {e}"))
}

fn state_label(state: crate::OverloadState) -> &'static str {
    match state {
        crate::OverloadState::Normal => "normal",
        crate::OverloadState::Pressured => "pressured",
        crate::OverloadState::Shedding => "shedding",
        crate::OverloadState::Draining => "draining",
    }
}

impl<B: Backend, C: Clock> Listener<B, C> {
    /// Binds `addr` and wraps `daemon` behind it. The daemon may be
    /// freshly built or restored from a snapshot — the listener does not
    /// care, which is what makes the socket kill-chain tests possible.
    pub fn bind(
        addr: impl ToSocketAddrs,
        config: TransportConfig,
        daemon: Daemon<B>,
        clock: C,
    ) -> Result<Listener<B, C>> {
        config.validate()?;
        let listener = TcpListener::bind(addr).map_err(|e| io_err("bind", &e))?;
        listener.set_nonblocking(true).map_err(|e| io_err("set_nonblocking", &e))?;
        Ok(Listener {
            listener,
            daemon,
            clock,
            config,
            conns: Vec::new(),
            ticket_conn: BTreeMap::new(),
            next_conn_id: 0,
            draining: false,
            stats: TransportStats::default(),
        })
    }

    /// The bound address (useful after binding port 0).
    pub fn local_addr(&self) -> Result<SocketAddr> {
        self.listener.local_addr().map_err(|e| io_err("local_addr", &e))
    }

    /// The daemon behind the socket.
    pub fn daemon(&self) -> &Daemon<B> {
        &self.daemon
    }

    /// Mutable access, for snapshot commits between polls.
    pub fn daemon_mut(&mut self) -> &mut Daemon<B> {
        &mut self.daemon
    }

    /// Tears the listener down, handing the daemon back.
    pub fn into_daemon(self) -> Daemon<B> {
        self.daemon
    }

    /// Edge counters.
    pub fn stats(&self) -> &TransportStats {
        &self.stats
    }

    /// Open connections right now.
    pub fn connections(&self) -> usize {
        self.conns.iter().flatten().count()
    }

    /// Whether a drain was requested (by frame or by call).
    pub fn is_draining(&self) -> bool {
        self.draining
    }

    /// Drained and quiet: no open connections, nothing left to flush.
    pub fn is_finished(&self) -> bool {
        self.draining && self.connections() == 0
    }

    /// Requests a graceful drain: the daemon rejects new work, in-flight
    /// jobs finish, their notices flush, then every connection gets a
    /// `Bye(server-draining)` and the listener goes quiet.
    pub fn drain(&mut self) {
        self.daemon.drain();
        self.draining = true;
    }

    /// One full pass over the edge. Returns `true` if anything moved —
    /// bytes, frames, accepts, closes, or daemon progress.
    pub fn poll(&mut self) -> bool {
        let now_ms = self.clock.now_ms();
        let now = SimTime::from_millis(now_ms);
        let before = self.progress_mark();
        let terminals_before = self.daemon.counters().terminals();
        self.daemon.advance(now);
        self.accept_new(now_ms);
        for slot in 0..self.conns.len() {
            self.service_conn(slot, now_ms, now);
        }
        self.deliver_notices();
        self.finish_drain(now_ms);
        for slot in 0..self.conns.len() {
            self.flush_conn(slot, now_ms);
        }
        self.progress_mark() != before || self.daemon.counters().terminals() != terminals_before
    }

    fn progress_mark(&self) -> (u64, u64, u64, usize) {
        (self.stats.bytes_in, self.stats.bytes_out, self.stats.accepted, self.stats.closed.len())
    }

    fn accept_new(&mut self, now_ms: u64) {
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let id = self.next_conn_id;
                    self.next_conn_id += 1;
                    let mut conn = Conn {
                        id,
                        stream,
                        read_buf: Vec::new(),
                        write_buf: Vec::new(),
                        write_pos: 0,
                        last_frame_ms: now_ms,
                        frame_start_ms: None,
                        closing: None,
                    };
                    if self.draining {
                        self.queue_frame(&mut conn, &Frame::Bye(ConnClosed::ServerDraining));
                        conn.closing = Some((ConnClosed::ServerDraining, now_ms));
                    } else if self.live_count() >= self.config.max_connections {
                        self.queue_frame(&mut conn, &Frame::Bye(ConnClosed::Overload));
                        conn.closing = Some((ConnClosed::Overload, now_ms));
                    } else {
                        self.stats.accepted += 1;
                    }
                    self.store_conn(conn);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
    }

    fn live_count(&self) -> usize {
        self.conns.iter().flatten().filter(|c| c.closing.is_none()).count()
    }

    fn store_conn(&mut self, conn: Conn) {
        for slot in self.conns.iter_mut() {
            if slot.is_none() {
                *slot = Some(conn);
                return;
            }
        }
        self.conns.push(Some(conn));
    }

    fn service_conn(&mut self, slot: usize, now_ms: u64, now: SimTime) {
        let Some(mut conn) = self.conns[slot].take() else { return };
        if conn.closing.is_none() {
            self.read_conn(&mut conn, now_ms);
        }
        if conn.closing.is_none() {
            self.decode_conn(&mut conn, now_ms, now);
        }
        if conn.closing.is_none() {
            self.check_deadlines(&mut conn, now_ms);
        }
        self.conns[slot] = Some(conn);
    }

    fn read_conn(&mut self, conn: &mut Conn, now_ms: u64) {
        let mut chunk = [0u8; 4096];
        loop {
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    conn.closing = Some((ConnClosed::PeerClosed, now_ms));
                    return;
                }
                Ok(n) => {
                    self.stats.bytes_in += n as u64;
                    conn.read_buf.extend_from_slice(&chunk[..n]);
                    if conn.read_buf.len() > self.config.read_buf_limit {
                        self.queue_frame(conn, &Frame::Bye(ConnClosed::FrameTooLarge));
                        conn.closing = Some((ConnClosed::FrameTooLarge, now_ms));
                        return;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    conn.closing = Some((ConnClosed::PeerClosed, now_ms));
                    return;
                }
            }
        }
    }

    /// Decodes and dispatches every complete frame in the read buffer,
    /// then drops the decoded bytes in one move: a read can carry many
    /// frames, and compacting after each would copy the rest once per
    /// frame.
    fn decode_conn(&mut self, conn: &mut Conn, now_ms: u64, now: SimTime) {
        let mut used = 0;
        loop {
            match decode_frame(&conn.read_buf[used..]) {
                Ok(Some((frame, len))) => {
                    used += len;
                    conn.frame_start_ms = None;
                    conn.last_frame_ms = now_ms;
                    self.stats.frames_in += 1;
                    self.handle_frame(conn, frame, now_ms, now);
                    if conn.closing.is_some() {
                        break;
                    }
                }
                Ok(None) => {
                    // Only a partial frame left over starts (or keeps) the
                    // per-frame deadline.
                    if used == conn.read_buf.len() {
                        conn.frame_start_ms = None;
                    } else if conn.frame_start_ms.is_none() {
                        conn.frame_start_ms = Some(now_ms);
                    }
                    break;
                }
                Err(err) => {
                    self.stats.wire_errors += 1;
                    let reason = close_reason_of(&err);
                    self.queue_frame(conn, &Frame::Bye(reason));
                    conn.closing = Some((reason, now_ms));
                    break;
                }
            }
        }
        conn.read_buf.drain(..used);
    }

    fn handle_frame(&mut self, conn: &mut Conn, frame: Frame, now_ms: u64, now: SimTime) {
        match frame {
            Frame::Submit(sub) => {
                let resp = self.daemon.submit(now, &sub);
                if let SubmitResponse::Admitted { ticket } = resp {
                    self.ticket_conn.insert(ticket, conn.id);
                }
                self.queue_frame(conn, &Frame::SubmitResp(resp));
            }
            Frame::Drain => {
                self.daemon.drain();
                self.draining = true;
                self.queue_frame(conn, &Frame::DrainResp);
            }
            Frame::Stats => {
                // The asking connection is out of its slot while its frame
                // is handled, so count it back in.
                let json = self.stats_json(now, self.connections() + 1);
                self.queue_frame(conn, &Frame::StatsResp(json));
            }
            // Response kinds travel server→client only; a client sending
            // one is a protocol violation, handled like any bad frame.
            Frame::SubmitResp(_)
            | Frame::DrainResp
            | Frame::StatsResp(_)
            | Frame::Notice(_)
            | Frame::Bye(_) => {
                self.stats.wire_errors += 1;
                self.queue_frame(conn, &Frame::Bye(ConnClosed::BadFrame));
                conn.closing = Some((ConnClosed::BadFrame, now_ms));
            }
        }
    }

    fn stats_json(&self, now: SimTime, connections: usize) -> Json {
        Json::obj(vec![
            ("now_ms", u64_json(now.as_millis())),
            ("state", Json::Str(state_label(self.daemon.state()).into())),
            ("queue", u64_json(self.daemon.queue_len() as u64)),
            ("inflight", u64_json(self.daemon.backend().inflight() as u64)),
            ("connections", u64_json(connections as u64)),
            ("metrics", self.daemon.metrics().to_json()),
        ])
    }

    fn check_deadlines(&mut self, conn: &mut Conn, now_ms: u64) {
        let idle =
            now_ms.saturating_sub(conn.last_frame_ms) >= self.config.idle_timeout.as_millis();
        let stalled = conn.frame_start_ms.is_some_and(|start| {
            now_ms.saturating_sub(start) >= self.config.frame_deadline.as_millis()
        });
        if idle || stalled {
            self.queue_frame(conn, &Frame::Bye(ConnClosed::IdleTimeout));
            conn.closing = Some((ConnClosed::IdleTimeout, now_ms));
        }
    }

    fn deliver_notices(&mut self) {
        for notice in self.daemon.take_notices() {
            let Some(conn_id) = self.ticket_conn.remove(&notice.ticket) else { continue };
            self.route_notice(conn_id, notice);
        }
    }

    fn route_notice(&mut self, conn_id: u64, notice: Notice) {
        let frame = Frame::Notice(notice);
        for slot in 0..self.conns.len() {
            let Some(mut conn) = self.conns[slot].take() else { continue };
            if conn.id == conn_id {
                if conn.closing.is_none() {
                    self.queue_frame(&mut conn, &frame);
                }
                self.conns[slot] = Some(conn);
                return;
            }
            self.conns[slot] = Some(conn);
        }
        // The submitting connection is gone; the outcome stays in the
        // daemon's ledger, the notice is simply undeliverable.
    }

    fn finish_drain(&mut self, now_ms: u64) {
        if !self.draining {
            return;
        }
        let daemon_quiet = self.daemon.queue_len() == 0 && self.daemon.backend().inflight() == 0;
        if !daemon_quiet {
            return;
        }
        for slot in 0..self.conns.len() {
            let Some(mut conn) = self.conns[slot].take() else { continue };
            if conn.closing.is_none() {
                self.queue_frame(&mut conn, &Frame::Bye(ConnClosed::ServerDraining));
                conn.closing = Some((ConnClosed::ServerDraining, now_ms));
            }
            self.conns[slot] = Some(conn);
        }
    }

    fn queue_frame(&mut self, conn: &mut Conn, frame: &Frame) {
        encode_frame_into(frame, &mut conn.write_buf);
        self.stats.frames_out += 1;
    }

    fn flush_conn(&mut self, slot: usize, now_ms: u64) {
        let Some(mut conn) = self.conns[slot].take() else { return };
        loop {
            let pending = &conn.write_buf[conn.write_pos..];
            if pending.is_empty() {
                conn.write_buf.clear();
                conn.write_pos = 0;
                break;
            }
            match conn.stream.write(pending) {
                Ok(0) => {
                    conn.closing.get_or_insert((ConnClosed::PeerClosed, now_ms));
                    break;
                }
                Ok(n) => {
                    self.stats.bytes_out += n as u64;
                    conn.write_pos += n;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    conn.closing.get_or_insert((ConnClosed::PeerClosed, now_ms));
                    break;
                }
            }
        }
        if conn.closing.is_none() && conn.pending_write() > self.config.write_buf_limit {
            // The client stopped reading; there is no point queueing a
            // Bye it will never drain.
            conn.closing = Some((ConnClosed::Overload, now_ms));
        }
        match conn.closing {
            Some((reason, since)) => {
                let flushed = conn.pending_write() == 0;
                let gave_up =
                    now_ms.saturating_sub(since) >= self.config.frame_deadline.as_millis();
                if flushed || gave_up || reason == ConnClosed::PeerClosed {
                    let _ = conn.stream.shutdown(std::net::Shutdown::Both);
                    self.stats.closed.push((conn.id, reason));
                    // Drop the connection; its slot is reusable.
                } else {
                    self.conns[slot] = Some(conn);
                }
            }
            None => self.conns[slot] = Some(conn),
        }
    }
}

/// Maps a decode failure onto the close-reason taxonomy: an announced
/// oversize is `FrameTooLarge`, everything else is `BadFrame`.
fn close_reason_of(err: &WireError) -> ConnClosed {
    match err {
        WireError::FrameTooLarge { .. } => ConnClosed::FrameTooLarge,
        _ => ConnClosed::BadFrame,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_validation_catches_degenerate_limits() {
        assert!(TransportConfig::small().validate().is_ok());
        let mut c = TransportConfig::small();
        c.max_connections = 0;
        assert!(c.validate().is_err());
        let mut c = TransportConfig::small();
        c.read_buf_limit = 1;
        assert!(c.validate().is_err());
        let mut c = TransportConfig::small();
        c.idle_timeout = SimTime::ZERO;
        assert!(c.validate().is_err());
    }

    #[test]
    fn manual_clock_is_shared_between_clones() {
        let clock = ManualClock::new();
        let handle = clock.clone();
        handle.advance_ms(250);
        assert_eq!(clock.now_ms(), 250);
        handle.set_ms(1000);
        assert_eq!(clock.now_ms(), 1000);
    }
}
