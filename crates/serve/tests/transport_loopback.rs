//! Loopback smoke tests for the TCP front-end: a real socket pair on
//! 127.0.0.1, the listener polled by hand against a [`ManualClock`], a
//! plain nonblocking `TcpStream` as the client. This is the tier-1
//! `== rotary-serve wire ==` gate: submit, observe completion notices,
//! query stats, drain, and watch every connection close with a typed
//! reason — all deterministic because no wall clock is involved.

use rotary_core::json::Json;
use rotary_core::SimTime;
use rotary_faults::RetryPolicy;
use rotary_serve::wire::{decode_frame, encode_frame, ConnClosed, Frame, WIRE_MAGIC, WIRE_VERSION};
use rotary_serve::{
    Daemon, Listener, ManualClock, ServeConfig, SimBackend, Submission, SubmitResponse,
    TokenBucketConfig, TransportConfig,
};
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;

fn serve_config() -> ServeConfig {
    ServeConfig {
        queue_capacity: 1 << 10,
        bucket: TokenBucketConfig::per_second(1 << 20, 1 << 20),
        max_tenants: 64,
        max_payload_bytes: 1 << 12,
        max_inflight: 1 << 10,
        admission_timeout: SimTime::from_mins(60),
        retry: RetryPolicy {
            max_attempts: 3,
            base_backoff: SimTime::from_secs(1),
            max_backoff: SimTime::from_secs(8),
        },
        pressure_watermark: 1.0,
        shed_watermark: 1.0,
        resume_watermark: 1.0,
        record_outcomes: true,
        retain_payloads: true,
    }
}

fn submit(tenant: u64, seq: u64, svc_ms: u64) -> Frame {
    Frame::Submit(Submission {
        tenant,
        seq,
        attempt: 0,
        deadline: SimTime::from_secs(3600),
        cost_milli: 1000,
        bytes: 0,
        payload: Json::obj(vec![("svc_ms", Json::Num(svc_ms as f64))]),
    })
}

/// A nonblocking client that accumulates bytes and yields decoded frames.
struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nonblocking(true).expect("nonblocking");
        stream.set_nodelay(true).expect("nodelay");
        Client { stream, buf: Vec::new() }
    }

    fn send(&mut self, frame: &Frame) {
        self.stream.write_all(&encode_frame(frame)).expect("client write");
    }

    fn send_raw(&mut self, bytes: &[u8]) {
        self.stream.write_all(bytes).expect("client write");
    }

    /// Drains whatever the socket has right now into the local buffer.
    /// Returns `false` once the server has closed its end.
    fn pump(&mut self) -> bool {
        let mut chunk = [0u8; 4096];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => return false,
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
    }

    fn next_frame(&mut self) -> Option<Frame> {
        match decode_frame(&self.buf).expect("server sent a malformed frame") {
            Some((frame, used)) => {
                self.buf.drain(..used);
                Some(frame)
            }
            None => None,
        }
    }

    /// Polls the listener until a frame arrives for this client. Bounded
    /// so a wedged listener fails the test instead of hanging it.
    fn recv<F>(&mut self, mut poll: F) -> Frame
    where
        F: FnMut(),
    {
        for _ in 0..200 {
            if let Some(frame) = self.next_frame() {
                return frame;
            }
            poll();
            self.pump();
        }
        panic!("no frame from server after 200 polls (buffered {} bytes)", self.buf.len());
    }

    /// Pumps until the server closes the connection, returning every
    /// frame it sent on the way out.
    fn drain_to_close<F>(&mut self, mut poll: F) -> Vec<Frame>
    where
        F: FnMut(),
    {
        let mut frames = Vec::new();
        for _ in 0..200 {
            let open = self.pump();
            while let Some(frame) = self.next_frame() {
                frames.push(frame);
            }
            if !open {
                return frames;
            }
            poll();
        }
        panic!("server never closed the connection");
    }
}

fn fresh_listener(
    config: TransportConfig,
) -> (Listener<SimBackend, ManualClock>, ManualClock, std::net::SocketAddr) {
    let clock = ManualClock::new();
    let daemon = Daemon::new(serve_config(), SimBackend::new()).expect("daemon");
    let listener =
        Listener::bind("127.0.0.1:0", config, daemon, clock.clone()).expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    (listener, clock, addr)
}

#[test]
fn submit_drain_close_smoke() {
    let (mut listener, clock, addr) = fresh_listener(TransportConfig::small());
    let mut client = Client::connect(addr);

    // Two submissions are admitted with distinct tickets.
    client.send(&submit(1, 1, 100));
    client.send(&submit(1, 2, 250));
    let mut tickets = Vec::new();
    for _ in 0..2 {
        match client.recv(|| {
            listener.poll();
        }) {
            Frame::SubmitResp(SubmitResponse::Admitted { ticket }) => tickets.push(ticket),
            other => panic!("expected admission, got {other:?}"),
        }
    }
    assert_ne!(tickets[0], tickets[1]);

    // Advancing virtual time past both service times completes the jobs;
    // the notices route back to the submitting connection.
    clock.advance_ms(1_000);
    let mut done = Vec::new();
    for _ in 0..2 {
        match client.recv(|| {
            listener.poll();
        }) {
            Frame::Notice(n) => {
                assert!(n.fate.is_ok(), "job shed on an idle server: {n:?}");
                done.push(n.ticket);
            }
            other => panic!("expected notice, got {other:?}"),
        }
    }
    done.sort_unstable();
    let mut expected = tickets.clone();
    expected.sort_unstable();
    assert_eq!(done, expected);

    // Stats reflect a quiet daemon and this one connection.
    client.send(&Frame::Stats);
    match client.recv(|| {
        listener.poll();
    }) {
        Frame::StatsResp(json) => {
            assert_eq!(json.get("queue").and_then(Json::as_u64_str), Some(0));
            assert_eq!(json.get("inflight").and_then(Json::as_u64_str), Some(0));
            assert_eq!(json.get("connections").and_then(Json::as_u64_str), Some(1));
        }
        other => panic!("expected stats, got {other:?}"),
    }

    // Drain: acknowledged, then a typed goodbye, then a clean close.
    client.send(&Frame::Drain);
    let mut tail = client.drain_to_close(|| {
        listener.poll();
    });
    assert_eq!(tail.remove(0), Frame::DrainResp);
    assert_eq!(tail, vec![Frame::Bye(ConnClosed::ServerDraining)]);

    // A few more polls let the listener observe the FIN and finish.
    for _ in 0..50 {
        if listener.is_finished() {
            break;
        }
        listener.poll();
    }
    assert!(listener.is_finished(), "listener did not go quiet after drain");
    assert_eq!(listener.stats().closed_for(ConnClosed::ServerDraining), 1);

    let daemon = listener.into_daemon();
    let counters = daemon.counters();
    assert_eq!(counters.admitted, 2);
    assert_eq!(counters.completed_attained, 2);
}

#[test]
fn connections_over_the_cap_are_told_overload() {
    let mut config = TransportConfig::small();
    config.max_connections = 1;
    let (mut listener, _clock, addr) = fresh_listener(config);

    let mut first = Client::connect(addr);
    first.send(&Frame::Stats);
    match first.recv(|| {
        listener.poll();
    }) {
        Frame::StatsResp(_) => {}
        other => panic!("expected stats, got {other:?}"),
    }

    let mut second = Client::connect(addr);
    let frames = second.drain_to_close(|| {
        listener.poll();
    });
    assert_eq!(frames, vec![Frame::Bye(ConnClosed::Overload)]);
    assert_eq!(listener.stats().closed_for(ConnClosed::Overload), 1);

    // The seated connection is unaffected.
    first.send(&Frame::Stats);
    match first.recv(|| {
        listener.poll();
    }) {
        Frame::StatsResp(_) => {}
        other => panic!("expected stats, got {other:?}"),
    }
}

#[test]
fn a_stalled_partial_frame_trips_the_slowloris_deadline() {
    let (mut listener, clock, addr) = fresh_listener(TransportConfig::small());
    let mut client = Client::connect(addr);

    // Half a frame, then silence.
    let bytes = encode_frame(&submit(1, 1, 50));
    client.send_raw(&bytes[..bytes.len() / 2]);
    for _ in 0..5 {
        listener.poll();
    }
    assert_eq!(listener.connections(), 1);

    clock.advance_ms(TransportConfig::small().frame_deadline.as_millis() + 1);
    let frames = client.drain_to_close(|| {
        listener.poll();
    });
    assert_eq!(frames, vec![Frame::Bye(ConnClosed::IdleTimeout)]);
    assert_eq!(listener.stats().closed_for(ConnClosed::IdleTimeout), 1);
}

#[test]
fn back_to_back_frames_in_one_write_are_all_answered_in_order() {
    let config = TransportConfig::small();
    let (mut listener, clock, addr) = fresh_listener(config.clone());

    // Two clients each write 300 submit frames as one buffer; the second
    // adds half of one more. The listener decodes each batch from one read
    // buffer, and keeps only the second one's torn tail.
    let (mut whole, mut torn) = (Client::connect(addr), Client::connect(addr));
    for (client, tenant, tail) in [(&mut whole, 1, false), (&mut torn, 2, true)] {
        let mut bytes = Vec::new();
        for seq in 1..=300 {
            bytes.extend_from_slice(&encode_frame(&submit(tenant, seq, 50)));
        }
        if tail {
            let next = encode_frame(&submit(tenant, 301, 50));
            bytes.extend_from_slice(&next[..next.len() / 2]);
        }
        assert!(bytes.len() < config.read_buf_limit);
        let mut sent = 0;
        while sent < bytes.len() {
            match client.stream.write(&bytes[sent..]) {
                Ok(n) => sent += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    listener.poll();
                }
                Err(e) => panic!("client write: {e}"),
            }
        }
        let mut tickets = Vec::new();
        for _ in 0..300 {
            match client.recv(|| {
                listener.poll();
            }) {
                Frame::SubmitResp(SubmitResponse::Admitted { ticket }) => tickets.push(ticket),
                other => panic!("expected admission, got {other:?}"),
            }
        }
        let first = tickets[0];
        assert_eq!(tickets, (first..first + 300).collect::<Vec<_>>(), "answers out of order");
    }

    // The torn tail arms the per-frame deadline, and trips it only once the
    // deadline has passed; a buffer that ended on a frame boundary arms
    // nothing, so that connection outlives the deadline.
    clock.advance_ms(config.frame_deadline.as_millis() - 1);
    for _ in 0..5 {
        listener.poll();
    }
    assert_eq!(listener.connections(), 2);
    clock.advance_ms(1);
    let frames = torn.drain_to_close(|| {
        listener.poll();
    });
    let (bye, notices) = frames.split_last().expect("a goodbye");
    assert_eq!(*bye, Frame::Bye(ConnClosed::IdleTimeout));
    assert!(notices.iter().all(|f| matches!(f, Frame::Notice(_))), "{notices:?}");
    assert_eq!(listener.stats().closed_for(ConnClosed::IdleTimeout), 1);
    assert_eq!(listener.connections(), 1, "the connection with no partial frame stays open");
    assert_eq!(listener.daemon().counters().admitted, 600);
}

#[test]
fn corrupt_bytes_get_a_typed_goodbye() {
    let (mut listener, _clock, addr) = fresh_listener(TransportConfig::small());
    let mut client = Client::connect(addr);

    let mut bytes = encode_frame(&submit(1, 1, 50));
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10; // CRC will catch it
    client.send_raw(&bytes);
    let frames = client.drain_to_close(|| {
        listener.poll();
    });
    assert_eq!(frames, vec![Frame::Bye(ConnClosed::BadFrame)]);
    assert_eq!(listener.stats().wire_errors, 1);
    assert_eq!(listener.stats().closed_for(ConnClosed::BadFrame), 1);
    // The damaged submission never reached the daemon.
    assert_eq!(listener.daemon().counters().admitted, 0);
}

#[test]
fn a_deeply_nested_payload_is_a_bad_frame_not_a_stack_overflow() {
    let (mut listener, _clock, addr) = fresh_listener(TransportConfig::small());
    let mut client = Client::connect(addr);

    // A well-framed Submit (kind 1) whose payload is 60 000 `[`: under the
    // read-buffer limit, CRC valid, so only the JSON parser's depth cap
    // stands between it and 60 000 levels of recursion.
    let payload = vec![b'['; 60_000];
    let mut bytes = WIRE_MAGIC.to_vec();
    bytes.extend_from_slice(&WIRE_VERSION.to_le_bytes());
    bytes.push(1);
    bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    bytes.extend_from_slice(&payload);
    let crc = rotary_store::crc32(&bytes[4..]);
    bytes.extend_from_slice(&crc.to_le_bytes());
    assert!(bytes.len() < TransportConfig::small().read_buf_limit);
    // The frame is larger than a fresh socket buffer need be: feed it in
    // pieces and let the listener read whenever the socket is full.
    let mut sent = 0;
    while sent < bytes.len() {
        match client.stream.write(&bytes[sent..]) {
            Ok(n) => sent += n,
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                listener.poll();
            }
            Err(e) => panic!("client write: {e}"),
        }
    }

    let frames = client.drain_to_close(|| {
        listener.poll();
    });
    assert_eq!(frames, vec![Frame::Bye(ConnClosed::BadFrame)]);
    assert_eq!(listener.stats().wire_errors, 1);
    assert_eq!(listener.stats().closed_for(ConnClosed::BadFrame), 1);

    // The listener is still there for the next client.
    let mut next = Client::connect(addr);
    next.send(&submit(1, 1, 50));
    let response = next.recv(|| {
        listener.poll();
    });
    assert!(matches!(response, Frame::SubmitResp(SubmitResponse::Admitted { .. })), "{response:?}");
}

#[test]
fn clients_sending_server_frames_are_protocol_violations() {
    let (mut listener, _clock, addr) = fresh_listener(TransportConfig::small());
    let mut client = Client::connect(addr);

    client.send(&Frame::DrainResp);
    let frames = client.drain_to_close(|| {
        listener.poll();
    });
    assert_eq!(frames, vec![Frame::Bye(ConnClosed::BadFrame)]);
    assert!(!listener.is_draining(), "a client must not drain via a response kind");
}
