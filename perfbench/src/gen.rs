//! The benchmark's own load generator over TCP: an open loop (one
//! connection, a sender thread on a fixed schedule and a receiver
//! thread) and a closed loop (one thread per connection, a fixed number
//! of requests kept in flight). Both speak the server's wire protocol
//! through its public codec functions and never retry: a refused,
//! rejected or lost request is counted, not hidden.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use tokensync_core::erc20::{Erc20Op, Erc20Resp};
use tokensync_core::shared::ShardedErc20;
use tokensync_server::wire::{decode_response, encode_request, FrameDecoder};
use tokensync_server::{Reply, WireStandard};
use tokensync_spec::ProcessId;

use crate::stats::{due_latency_ns, due_ns, GEN_LATE_MS};

const LATE_NS: u64 = (GEN_LATE_MS * 1e6) as u64;

/// How long the generator waits for outstanding replies once it stopped
/// sending; whatever is still unanswered then counts as lost.
const DRAIN: Duration = Duration::from_secs(5);

/// Read timeout: bounds how long a blocked reader takes to notice the
/// end of a run.
const POLL: Duration = Duration::from_millis(20);

/// Replies by kind, plus requests that never got one.
#[derive(Clone, Copy, Debug, Default)]
pub struct Outcomes {
    /// Requests written to the socket.
    pub sent: u64,
    /// `Ok` replies (committed, and durable under durable acks).
    pub ok: u64,
    /// `Busy` replies (admission control).
    pub busy: u64,
    /// `BadRequest` replies.
    pub bad: u64,
    /// `Gone` replies (engine shut down).
    pub gone: u64,
    /// Requests without any reply when the run ended (a dropped
    /// connection or a stall past the drain window).
    pub lost: u64,
    /// Connections that failed mid-run (write or read error, EOF).
    pub dropped_conns: u64,
}

impl Outcomes {
    /// Requests that did not end in an `Ok`.
    pub fn failed(&self) -> u64 {
        self.busy + self.bad + self.gone + self.lost
    }

    fn absorb(&mut self, o: &Outcomes) {
        self.sent += o.sent;
        self.ok += o.ok;
        self.busy += o.busy;
        self.bad += o.bad;
        self.gone += o.gone;
        self.lost += o.lost;
        self.dropped_conns += o.dropped_conns;
    }

    fn count(&mut self, reply: &Reply<Erc20Resp>) -> bool {
        match reply {
            Reply::Ok(_) => {
                self.ok += 1;
                true
            }
            Reply::Busy => {
                self.busy += 1;
                false
            }
            Reply::BadRequest => {
                self.bad += 1;
                false
            }
            Reply::Gone => {
                self.gone += 1;
                false
            }
        }
    }
}

/// What one load run measured.
#[derive(Debug, Default)]
pub struct LoadResult {
    /// Reply counts.
    pub outcomes: Outcomes,
    /// Latency of every `Ok` reply: from the due time (open loop) or
    /// the send (closed loop), in ns.
    pub latency_ns: Vec<u64>,
    /// Open loop only: round trip of every `Ok` reply from its actual
    /// send, in ns (a closed loop's latency already is its round trip).
    pub rtt_ns: Vec<u64>,
    /// Time from the first send to the last reply.
    pub elapsed: Duration,
    /// The generator's worst lateness: open loop, actual send after the
    /// due time; closed loop, next request written after the reply that
    /// released it was read.
    pub max_late_ns: u64,
    /// Requests sent more than [`GEN_LATE_MS`] late, by the same clock.
    pub late: u64,
    /// Requests unanswered when the sending window closed.
    pub in_flight_at_end: u64,
}

impl LoadResult {
    /// `Ok` replies per second of the run.
    pub fn ok_per_s(&self) -> f64 {
        self.outcomes.ok as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    /// Round trips from the actual send, in ns.
    pub fn rtt(&self) -> &[u64] {
        if self.rtt_ns.is_empty() {
            &self.latency_ns
        } else {
            &self.rtt_ns
        }
    }

    /// Failed or refused requests over attempted ones.
    pub fn failed_frac(&self) -> f64 {
        self.outcomes.failed() as f64 / self.outcomes.sent.max(1) as f64
    }
}

fn connect(addr: SocketAddr) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(POLL))?;
    Ok(stream)
}

fn encode(buf: &mut Vec<u8>, id: u64, op: &(ProcessId, Erc20Op)) {
    buf.extend_from_slice(&encode_request(id, ShardedErc20::STANDARD, op.0, &op.1));
}

/// The next whole reply frame; a framing error (bad CRC, oversized
/// length) sets `corrupt`, and the connection counts as dropped.
fn next_frame(dec: &mut FrameDecoder, corrupt: &mut bool) -> Option<Vec<u8>> {
    match dec.try_frame() {
        Ok(frame) => frame,
        Err(_) => {
            *corrupt = true;
            None
        }
    }
}

fn ns_since(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Open loop on one connection: request `i` (op `ops[i % len]`) is due
/// at `i / rate` seconds after the start, and is sent then whatever the
/// server is doing. Runs for `window`, then waits up to [`DRAIN`] for
/// the stragglers.
pub fn open_loop(
    addr: SocketAddr,
    ops: &[(ProcessId, Erc20Op)],
    rate: f64,
    window: Duration,
) -> std::io::Result<LoadResult> {
    let mut tx = connect(addr)?;
    let mut rx = tx.try_clone()?;
    let total = (rate * window.as_secs_f64()).ceil() as usize + 1;
    let sent_at: Vec<AtomicU64> = (0..total).map(|_| AtomicU64::new(0)).collect();
    let sent = AtomicU64::new(0);
    let done_sending = AtomicBool::new(false);
    let received = AtomicU64::new(0);
    let start = Instant::now();

    let (tx_out, rx_out) = std::thread::scope(|s| {
        let sender = s.spawn(|| {
            let mut out = Outcomes::default();
            let mut max_late = 0u64;
            let mut late = 0u64;
            let mut tx_failed = false;
            let mut buf = Vec::with_capacity(64 * 1024);
            let mut i = 0usize;
            let window_ns = u64::try_from(window.as_nanos()).unwrap_or(u64::MAX);
            let mut in_flight_at_end = 0;
            loop {
                let now = ns_since(start);
                if now >= window_ns || i >= total {
                    in_flight_at_end = i as u64 - received.load(Ordering::Acquire);
                    break;
                }
                while i < total && due_ns(i as u64, rate) <= now {
                    encode(&mut buf, i as u64 + 1, &ops[i % ops.len()]);
                    let behind = now - due_ns(i as u64, rate);
                    max_late = max_late.max(behind);
                    late += u64::from(behind > LATE_NS);
                    sent_at[i].store(now, Ordering::Release);
                    i += 1;
                }
                if !buf.is_empty() {
                    if tx.write_all(&buf).is_err() {
                        // Due and attempted: they count as lost below.
                        sent.store(i as u64, Ordering::Release);
                        tx_failed = true;
                        break;
                    }
                    buf.clear();
                    sent.store(i as u64, Ordering::Release);
                }
                let next = due_ns(i as u64, rate);
                let now = ns_since(start);
                if next > now {
                    std::thread::sleep(Duration::from_nanos(next - now));
                }
            }
            out.sent = sent.load(Ordering::Acquire);
            done_sending.store(true, Ordering::Release);
            (out, max_late, late, in_flight_at_end, tx_failed)
        });
        let receiver = s.spawn(|| {
            let mut out = Outcomes::default();
            // Touched up front, so page faults stay out of the window.
            let mut lat = vec![0u64; total];
            let mut rtt = vec![0u64; total];
            let mut oks = 0usize;
            let mut dec = FrameDecoder::new();
            let mut buf = vec![0u8; 64 * 1024];
            let mut answered = 0u64;
            let mut last = start;
            let mut drain_deadline: Option<Instant> = None;
            let mut dropped = false;
            loop {
                if done_sending.load(Ordering::Acquire) {
                    let target = sent.load(Ordering::Acquire);
                    if answered >= target {
                        break;
                    }
                    let deadline = *drain_deadline.get_or_insert_with(|| Instant::now() + DRAIN);
                    if Instant::now() >= deadline {
                        break;
                    }
                }
                match rx.read(&mut buf) {
                    Ok(0) => {
                        dropped = true;
                        break;
                    }
                    Ok(n) => {
                        dec.feed(&buf[..n]);
                        let now = ns_since(start);
                        let mut corrupt = false;
                        while let Some(body) = next_frame(&mut dec, &mut corrupt) {
                            let Ok((id, reply)) = decode_response::<Erc20Resp>(&body) else {
                                corrupt = true;
                                break;
                            };
                            let idx = (id - 1) as usize;
                            answered += 1;
                            received.store(answered, Ordering::Release);
                            if out.count(&reply) {
                                lat[oks] = due_latency_ns(due_ns(idx as u64, rate), now);
                                let at = sent_at[idx].load(Ordering::Acquire);
                                rtt[oks] = now.saturating_sub(at);
                                oks += 1;
                            }
                        }
                        last = Instant::now();
                        if corrupt {
                            dropped = true;
                            break;
                        }
                    }
                    Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
                    Err(_) => {
                        dropped = true;
                        break;
                    }
                }
            }
            lat.truncate(oks);
            rtt.truncate(oks);
            (out, lat, rtt, answered, last, dropped)
        });
        (
            sender.join().expect("open-loop sender panicked"),
            receiver.join().expect("open-loop receiver panicked"),
        )
    });
    let (mut out, max_late, late, in_flight_at_end, tx_failed) = tx_out;
    let (rx_counts, lat, rtt, answered, last, rx_failed) = rx_out;
    out.dropped_conns = u64::from(tx_failed || rx_failed);
    out.absorb(&Outcomes {
        sent: 0,
        ..rx_counts
    });
    out.lost = out.sent.saturating_sub(answered);
    Ok(LoadResult {
        outcomes: out,
        latency_ns: lat,
        rtt_ns: rtt,
        elapsed: last.duration_since(start),
        max_late_ns: max_late,
        late,
        in_flight_at_end,
    })
}

/// Closed loop over `conns` connections (one thread each), each keeping
/// `depth` requests in flight: every reply releases the next request.
/// Connection `c` sends ops `c, c + conns, c + 2·conns, …` of `ops`
/// (cycling). Sending stops after `window` or once `per_conn` requests
/// went out on a connection, whichever comes first.
pub fn closed_loop(
    addr: SocketAddr,
    ops: &[(ProcessId, Erc20Op)],
    conns: usize,
    depth: usize,
    window: Duration,
    per_conn: u64,
) -> std::io::Result<LoadResult> {
    let streams = (0..conns)
        .map(|_| connect(addr))
        .collect::<std::io::Result<Vec<_>>>()?;
    let start = Instant::now();
    let results: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = streams
            .into_iter()
            .enumerate()
            .map(|(c, stream)| {
                s.spawn(move || closed_conn(stream, ops, c, conns, depth, start, window, per_conn))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop connection panicked"))
            .collect()
    });
    let mut total = LoadResult::default();
    let mut last = start;
    for (r, conn_last) in results {
        total.outcomes.absorb(&r.outcomes);
        total.latency_ns.extend(r.latency_ns);
        total.rtt_ns.extend(r.rtt_ns);
        total.max_late_ns = total.max_late_ns.max(r.max_late_ns);
        total.late += r.late;
        total.in_flight_at_end += r.in_flight_at_end;
        last = last.max(conn_last);
    }
    total.elapsed = last.duration_since(start);
    Ok(total)
}

#[allow(clippy::too_many_arguments)]
fn closed_conn(
    mut stream: TcpStream,
    ops: &[(ProcessId, Erc20Op)],
    conn: usize,
    conns: usize,
    depth: usize,
    start: Instant,
    window: Duration,
    per_conn: u64,
) -> (LoadResult, Instant) {
    let mut r = LoadResult::default();
    let mut sent_at: Vec<u64> = Vec::with_capacity(1 << 20);
    let mut out_buf = Vec::with_capacity(64 * 1024);
    let mut in_buf = vec![0u8; 64 * 1024];
    let mut dec = FrameDecoder::new();
    let op_at = |k: u64| &ops[(conn + conns * k as usize) % ops.len()];
    let may_send = |sent: u64| sent < per_conn && start.elapsed() < window;
    let mut last = start;
    let mut window_closed = false;
    let mut drain_deadline: Option<Instant> = None;

    // Fill the window.
    while (sent_at.len() as u64) < depth as u64 && may_send(sent_at.len() as u64) {
        let k = sent_at.len() as u64;
        encode(&mut out_buf, k + 1, op_at(k));
        sent_at.push(ns_since(start));
    }
    let mut outstanding = sent_at.len() as u64;
    let mut alive = stream.write_all(&out_buf).is_ok();
    out_buf.clear();

    while alive {
        if outstanding == 0 && !may_send(sent_at.len() as u64) {
            break;
        }
        if !window_closed && !may_send(sent_at.len() as u64) {
            window_closed = true;
            r.in_flight_at_end = outstanding;
        }
        if window_closed {
            let deadline = *drain_deadline.get_or_insert_with(|| Instant::now() + DRAIN);
            if Instant::now() >= deadline {
                break;
            }
        }
        match stream.read(&mut in_buf) {
            Ok(0) => alive = false,
            Ok(n) => {
                dec.feed(&in_buf[..n]);
                let read_done = Instant::now();
                let now = ns_since(start);
                let mut released = 0u64;
                let mut corrupt = false;
                while let Some(body) = next_frame(&mut dec, &mut corrupt) {
                    let Ok((id, reply)) = decode_response::<Erc20Resp>(&body) else {
                        corrupt = true;
                        break;
                    };
                    outstanding -= 1;
                    if r.outcomes.count(&reply) {
                        r.latency_ns
                            .push(now.saturating_sub(sent_at[(id - 1) as usize]));
                    }
                    released += 1;
                }
                last = read_done;
                if corrupt {
                    alive = false;
                    break;
                }
                for _ in 0..released {
                    let k = sent_at.len() as u64;
                    if !may_send(k) {
                        break;
                    }
                    encode(&mut out_buf, k + 1, op_at(k));
                    sent_at.push(ns_since(start));
                    outstanding += 1;
                }
                if !out_buf.is_empty() {
                    if stream.write_all(&out_buf).is_err() {
                        alive = false;
                        break;
                    }
                    out_buf.clear();
                    let late = u64::try_from(read_done.elapsed().as_nanos()).unwrap_or(u64::MAX);
                    r.max_late_ns = r.max_late_ns.max(late);
                    if late > LATE_NS {
                        r.late += released;
                    }
                }
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(_) => alive = false,
        }
    }
    if !alive {
        r.outcomes.dropped_conns += 1;
    }
    r.outcomes.sent = sent_at.len() as u64;
    r.outcomes.lost = outstanding;
    (r, last)
}
