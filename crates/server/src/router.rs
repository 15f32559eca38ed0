//! Response routing: the seam between the pipeline's commit stage and
//! the per-connection write queues.
//!
//! Every admitted request registers a **ticket** — an opaque `u64` the
//! intake carries alongside the op (never persisted, never executed).
//! When the engine commits the op's wave, [`RouterSink`] receives the
//! committed entries *with their tickets* through the pipeline's
//! [`CommitSink::wave_committed_tagged`] seam, looks each ticket up in
//! the pending table, and queues the encoded response on the owning
//! connection's bounded write queue. An `Ok` ack therefore means exactly
//! what a pipeline commit means; with durable acks enabled it
//! additionally means the store's fsync watermark passed the entry. A
//! held response the watermark never covers is not answered at all: its
//! connection is abort-closed, so the client sees a dropped connection,
//! never a false ack.
//!
//! The write queue is the slow-client firewall: pushes never block (the
//! engine thread is the caller), and a queue at capacity closes the
//! connection instead of growing — a client that stops reading is
//! disconnected, not buffered without bound.

use std::collections::{HashMap, VecDeque};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use tokensync_core::codec::Codec;
use tokensync_core::shared::ConcurrentObject;
use tokensync_pipeline::{CommitSink, CommittedOp, NO_TICKET};

use crate::obs::ServerObs;
use crate::wire::{encode_response, Status};

/// Pending-table shard count: tickets hash trivially (they are a
/// counter), so a handful of stripes keeps reader threads and the
/// engine thread off one lock.
const ROUTER_SHARDS: u64 = 16;

struct WriteQueue {
    frames: VecDeque<Vec<u8>>,
    /// `false` once the connection is closing: pushes are refused. A
    /// drain-close lets already-queued frames flush; an abort-close
    /// clears them.
    open: bool,
}

/// Per-connection shared state: the bounded write queue its writer
/// thread drains, and the counters the drain-on-EOF lifecycle needs.
pub(crate) struct ConnState {
    /// Used only to `shutdown` the socket (wakes blocked reads/writes on
    /// both sides); reader and writer threads own their own clones.
    stream: TcpStream,
    queue: Mutex<WriteQueue>,
    ready: Condvar,
    /// Requests admitted to the pipeline but not yet answered. A reader
    /// that saw EOF keeps the writer alive until this drains to zero.
    pub(crate) outstanding: AtomicUsize,
    /// Set when the reader saw a clean EOF: the writer should close as
    /// soon as `outstanding` reaches zero.
    pub(crate) draining: AtomicBool,
}

impl ConnState {
    pub(crate) fn new(stream: TcpStream) -> Arc<Self> {
        Arc::new(Self {
            stream,
            queue: Mutex::new(WriteQueue {
                frames: VecDeque::new(),
                open: true,
            }),
            ready: Condvar::new(),
            outstanding: AtomicUsize::new(0),
            draining: AtomicBool::new(false),
        })
    }

    /// Queues a frame for the writer thread. Never blocks. Returns
    /// `false` — and abort-closes the connection — when the queue is at
    /// `cap` (slow client) or already closed.
    pub(crate) fn push(&self, frame: Vec<u8>, cap: usize) -> bool {
        let mut q = self.queue.lock().unwrap();
        if !q.open {
            return false;
        }
        if q.frames.len() >= cap {
            q.frames.clear();
            q.open = false;
            drop(q);
            self.ready.notify_all();
            let _ = self.stream.shutdown(Shutdown::Both);
            return false;
        }
        q.frames.push_back(frame);
        drop(q);
        self.ready.notify_one();
        true
    }

    /// Abort-close: drop queued frames and shut the socket down now.
    /// Wakes a writer blocked mid-`write_all` (the OS fails the send)
    /// and a reader blocked in `read`.
    pub(crate) fn close_abort(&self) {
        let mut q = self.queue.lock().unwrap();
        q.frames.clear();
        q.open = false;
        drop(q);
        self.ready.notify_all();
        let _ = self.stream.shutdown(Shutdown::Both);
    }

    /// Drain-close: refuse new frames but let the writer flush what is
    /// queued before it shuts the socket down.
    pub(crate) fn close_drain(&self) {
        let mut q = self.queue.lock().unwrap();
        q.open = false;
        drop(q);
        self.ready.notify_all();
    }

    /// Writer-thread fetch: the next frame to write, or `None` once the
    /// queue is closed *and* empty.
    pub(crate) fn next_frame(&self) -> Option<Vec<u8>> {
        let mut q = self.queue.lock().unwrap();
        loop {
            if let Some(frame) = q.frames.pop_front() {
                return Some(frame);
            }
            if !q.open {
                return None;
            }
            q = self.ready.wait(q).unwrap();
        }
    }

    /// Marks one admitted request answered (or abandoned): decrements
    /// `outstanding` and completes a pending drain-on-EOF.
    pub(crate) fn settle_one(&self) {
        if self.outstanding.fetch_sub(1, Ordering::SeqCst) == 1
            && self.draining.load(Ordering::SeqCst)
        {
            self.close_drain();
        }
    }
}

struct Pending {
    conn: Arc<ConnState>,
    request_id: u64,
    start: Instant,
}

/// The pending-request table: ticket → (connection, request id). Shared
/// by every reader thread (register on admit) and the engine thread
/// (resolve at commit).
pub(crate) struct Router {
    shards: Vec<Mutex<HashMap<u64, Pending>>>,
    /// Next ticket; starts at 1 so [`NO_TICKET`] is never issued.
    next_ticket: AtomicU64,
}

impl Router {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(Self {
            shards: (0..ROUTER_SHARDS)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
            next_ticket: AtomicU64::new(1),
        })
    }

    fn shard(&self, ticket: u64) -> &Mutex<HashMap<u64, Pending>> {
        &self.shards[(ticket % ROUTER_SHARDS) as usize]
    }

    /// Issues a fresh ticket for `request_id` on `conn`, bumping the
    /// connection's outstanding count. Must precede the intake submit —
    /// the commit callback may fire before the submit call returns.
    pub(crate) fn register(&self, conn: &Arc<ConnState>, request_id: u64) -> u64 {
        let ticket = self.next_ticket.fetch_add(1, Ordering::Relaxed);
        conn.outstanding.fetch_add(1, Ordering::SeqCst);
        self.shard(ticket).lock().unwrap().insert(
            ticket,
            Pending {
                conn: Arc::clone(conn),
                request_id,
                start: Instant::now(),
            },
        );
        ticket
    }

    /// Withdraws a ticket whose submit was refused (Busy/Gone). Returns
    /// the request id to answer with. Settles the outstanding count.
    pub(crate) fn unregister(&self, ticket: u64) -> Option<u64> {
        let pending = self.shard(ticket).lock().unwrap().remove(&ticket)?;
        pending.conn.settle_one();
        Some(pending.request_id)
    }

    /// Commit-time resolution: answers the ticket's request with `Ok`
    /// and the encoded response payload. A push refused by a closed or
    /// overflowing write queue is not an error here — the connection is
    /// gone; the commit stands.
    pub(crate) fn resolve(&self, ticket: u64, resp: &[u8], write_cap: usize, obs: &ServerObs) {
        let Some(pending) = self.shard(ticket).lock().unwrap().remove(&ticket) else {
            return;
        };
        let frame = encode_response(pending.request_id, Status::Ok, Some(resp));
        if pending.conn.push(frame, write_cap) {
            obs.requests_ok.inc();
        } else {
            obs.write_overflows.inc();
        }
        obs.request_ns
            .record(pending.start.elapsed().as_nanos() as u64);
        pending.conn.settle_one();
    }

    /// Drops the ticket's request unanswered and abort-closes its
    /// connection: the client sees the connection drop instead of a
    /// reply. Settles the outstanding count.
    pub(crate) fn abandon(&self, ticket: u64) {
        let Some(pending) = self.shard(ticket).lock().unwrap().remove(&ticket) else {
            return;
        };
        pending.conn.close_abort();
        pending.conn.settle_one();
    }
}

/// The response-routing [`CommitSink`]: wraps the server's real
/// durability sink (a `Store` or the unit sink) and resolves
/// request tickets as their entries commit. Generic over the inner sink
/// so ack semantics compose with any durability policy the engine runs.
pub struct RouterSink<S> {
    router: Arc<Router>,
    obs: ServerObs,
    write_cap: usize,
    durable_acks: bool,
    durable_wait: Duration,
    /// Responses held back in durable-ack mode until the inner sink's
    /// fsync watermark passes their sequence number: `(seq, ticket,
    /// encoded resp)`.
    held: Vec<(u64, u64, Vec<u8>)>,
    inner: S,
}

impl<S> RouterSink<S> {
    pub(crate) fn new(
        router: Arc<Router>,
        obs: ServerObs,
        write_cap: usize,
        durable_acks: bool,
        durable_wait: Duration,
        inner: S,
    ) -> Self {
        Self {
            router,
            obs,
            write_cap,
            durable_acks,
            durable_wait,
            held: Vec::new(),
            inner,
        }
    }

    /// Unwraps the inner durability sink (after the engine stopped).
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<T, S> CommitSink<T> for RouterSink<S>
where
    T: ConcurrentObject + ?Sized,
    T::Resp: Codec,
    S: CommitSink<T>,
{
    fn wave_committed(&mut self, token: &T, entries: &[CommittedOp<T::Op, T::Resp>]) {
        self.inner.wave_committed(token, entries);
    }

    fn wave_committed_tagged(
        &mut self,
        token: &T,
        entries: &[CommittedOp<T::Op, T::Resp>],
        tickets: &[u64],
    ) {
        // Inner first: the WAL append happens before any ack is built.
        self.inner.wave_committed_tagged(token, entries, tickets);
        if tickets.is_empty() {
            return;
        }
        debug_assert_eq!(entries.len(), tickets.len());
        for (entry, &ticket) in entries.iter().zip(tickets) {
            if ticket == NO_TICKET {
                continue;
            }
            let resp = entry.resp.encode();
            if self.durable_acks {
                self.held.push((entry.seq, ticket, resp));
            } else {
                self.router
                    .resolve(ticket, &resp, self.write_cap, &self.obs);
            }
        }
    }

    fn batch_sealed(&mut self, token: &T, batch: u64) {
        // Inner first: a group-commit store posts its fsync here.
        self.inner.batch_sealed(token, batch);
        if self.held.is_empty() {
            return;
        }
        // One durability wait per batch, on the highest held sequence —
        // the engine thread stalls at most one fsync turnaround while
        // the store's background durability thread catches up, and at
        // most `durable_wait` on a store that stopped advancing. The
        // watermark is next_seq-style (ops durable), so entry seq S is
        // covered once it reaches S + 1.
        if let Some(target) = self.held.iter().map(|h| h.0 + 1).max() {
            let deadline = Instant::now() + self.durable_wait;
            while self.inner.durable_seq().is_some_and(|d| d < target) && Instant::now() < deadline
            {
                std::thread::sleep(Duration::from_micros(50));
            }
        }
        // A sink without a watermark acks at commit. Past the deadline
        // only covered entries are acked; an uncovered one drops its
        // connection — an `Ok` would claim durability it does not have.
        let durable = self.inner.durable_seq();
        for (seq, ticket, resp) in std::mem::take(&mut self.held) {
            if durable.is_none_or(|d| seq < d) {
                self.router
                    .resolve(ticket, &resp, self.write_cap, &self.obs);
            } else {
                self.router.abandon(ticket);
            }
        }
    }

    fn durable_seq(&self) -> Option<u64> {
        self.inner.durable_seq()
    }
}
