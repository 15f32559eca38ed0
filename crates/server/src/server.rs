//! The serving loop: accept connections, decode frames on
//! per-connection reader threads, feed the pipeline's sharded intake,
//! and let the commit stage answer.
//!
//! # Session lifecycle
//!
//! Each accepted connection gets two small-stack threads: a **reader**
//! (socket → [`FrameDecoder`] → decode → `try_submit_tagged`) and a
//! **writer** (bounded frame queue → socket). The reader owns its own
//! clone of the intake handle, so every connection is pinned to an
//! intake shard round-robin — one saturating connection fills *its*
//! shard and starts seeing `Busy` while other connections' shards keep
//! admitting (the fairness property the backpressure tests pin).
//!
//! Admission control is the intake's bounded depth: a full shard answers
//! [`Status::Busy`] immediately instead of buffering. Framing
//! violations fail closed (disconnect); CRC-valid but semantically
//! invalid requests answer [`Status::BadRequest`] and the session
//! continues. A connection with a frame stuck mid-transfer past
//! [`ServerConfig::read_grace`] is a slowloris and is dropped; a
//! connection whose write queue hits [`ServerConfig::write_queue_frames`]
//! has stopped reading responses and is dropped. A clean EOF with
//! requests still in flight lingers just long enough for their commits
//! to flush.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use tokensync_core::codec::Codec;
use tokensync_core::shared::ConcurrentObject;
use tokensync_obs::Registry;
use tokensync_pipeline::{
    CommitSink, IntakeClient, Pipeline, PipelineConfig, PipelineObs, PipelineRun,
    SinkedPipelineHandle,
};

use crate::obs::ServerObs;
use crate::router::{ConnState, Router, RouterSink};
use crate::wire::{decode_request_header, encode_response, FrameDecoder, Status, WireStandard};

/// Server policy knobs.
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// The engine configuration the server spawns.
    pub pipeline: PipelineConfig,
    /// When `true`, `Ok` acks are withheld until the durability sink's
    /// fsync watermark covers them (one bounded wait per batch on the
    /// engine thread). With a sink that has no watermark this is a
    /// no-op: acks mean commit, exactly the pipeline's guarantee.
    pub durable_acks: bool,
    /// Upper bound on one durable-ack wait; past it the batch acks only
    /// the ops the watermark covers and abort-closes the connection of
    /// every other one, rather than wedging the engine on a dead store.
    pub durable_wait: Duration,
    /// Bounded per-connection write queue, in frames. A connection
    /// whose queue is full has stopped reading and is disconnected.
    pub write_queue_frames: usize,
    /// Slowloris deadline: a frame left incomplete this long after its
    /// last byte arrived drops the connection. An *idle* connection
    /// (no partial frame pending) is never timed out.
    pub read_grace: Duration,
    /// Reader poll interval (read timeout): bounds shutdown and
    /// slowloris-detection latency.
    pub read_poll: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            pipeline: PipelineConfig::default(),
            durable_acks: false,
            durable_wait: Duration::from_secs(10),
            write_queue_frames: 1024,
            read_grace: Duration::from_secs(3),
            read_poll: Duration::from_millis(50),
        }
    }
}

struct ConnEntry {
    state: Arc<ConnState>,
    reader: JoinHandle<()>,
    writer: JoinHandle<()>,
}

/// The TCP front end. See the [crate docs](crate) for the session
/// lifecycle and [`crate::wire`] for the protocol.
pub struct Server;

/// Handle on a spawned server: address, metrics, and the graceful stop.
pub struct ServerHandle<T: ConcurrentObject, S> {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept: JoinHandle<()>,
    conns: Arc<Mutex<Vec<ConnEntry>>>,
    client: IntakeClient<T::Op>,
    engine: SinkedPipelineHandle<T::Op, T::Resp, RouterSink<S>>,
    obs: ServerObs,
}

impl Server {
    /// Binds an ephemeral port on localhost, spawns the engine over
    /// `token` with `sink` as its durability sink (wrapped in the
    /// response-routing [`RouterSink`]), and starts accepting.
    ///
    /// Metrics (server, pipeline) register in `registry`.
    ///
    /// # Errors
    ///
    /// Propagates the listener bind failure.
    pub fn spawn<T, S>(
        token: Arc<T>,
        sink: S,
        cfg: ServerConfig,
        registry: &Registry,
    ) -> io::Result<ServerHandle<T, S>>
    where
        T: WireStandard + 'static,
        T::Op: Codec,
        T::Resp: Codec,
        S: CommitSink<T> + Send + 'static,
    {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;

        let obs = ServerObs::new(registry);
        let pipe_obs = PipelineObs::new(registry, cfg.pipeline.batch.intake_shards);
        let router = Router::new();
        let rsink = RouterSink::new(
            Arc::clone(&router),
            obs.clone(),
            cfg.write_queue_frames,
            cfg.durable_acks,
            cfg.durable_wait,
            sink,
        );
        let (client, engine) = Pipeline::spawn_observed(token, cfg.pipeline, rsink, pipe_obs);

        let shutdown = Arc::new(AtomicBool::new(false));
        let conns: Arc<Mutex<Vec<ConnEntry>>> = Arc::new(Mutex::new(Vec::new()));

        let accept = {
            let shutdown = Arc::clone(&shutdown);
            let conns = Arc::clone(&conns);
            let router = Arc::clone(&router);
            let obs = obs.clone();
            let client = client.clone();
            std::thread::Builder::new()
                .name("tokensync-accept".into())
                .spawn(move || {
                    accept_loop::<T>(listener, shutdown, conns, router, obs, client, cfg)
                })?
        };

        Ok(ServerHandle {
            addr,
            shutdown,
            accept,
            conns,
            client,
            engine,
            obs,
        })
    }
}

impl<T: ConcurrentObject, S> ServerHandle<T, S> {
    /// The bound address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server metric family (shares the registry passed to
    /// [`Server::spawn`]).
    pub fn obs(&self) -> &ServerObs {
        &self.obs
    }

    /// Graceful stop: stop accepting, stop the readers, drain the
    /// engine (every admitted request resolves and its response
    /// flushes), then close the sockets. Returns the engine run and the
    /// durability sink.
    ///
    /// # Panics
    ///
    /// Propagates a panic of the engine or a connection thread.
    pub fn finish(self) -> (PipelineRun<T::Op, T::Resp>, S) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.accept.join().expect("accept thread panicked");
        // Readers see the shutdown flag at their next poll tick and
        // drop their intake clones; they must be joined *before* the
        // engine, which drains only once every producer handle is gone.
        let entries: Vec<ConnEntry> = std::mem::take(&mut *self.conns.lock().unwrap());
        let mut write_sides = Vec::with_capacity(entries.len());
        for entry in entries {
            entry.reader.join().expect("conn reader panicked");
            write_sides.push((entry.state, entry.writer));
        }
        drop(self.client);
        // The engine commits everything admitted and resolves every
        // ticket through the router, queueing the final responses.
        let (run, rsink) = self.engine.finish();
        // Flush and close the write sides.
        for (state, writer) in write_sides {
            state.close_drain();
            writer.join().expect("conn writer panicked");
        }
        (run, rsink.into_inner())
    }
}

#[allow(clippy::too_many_arguments)]
fn accept_loop<T>(
    listener: TcpListener,
    shutdown: Arc<AtomicBool>,
    conns: Arc<Mutex<Vec<ConnEntry>>>,
    router: Arc<Router>,
    obs: ServerObs,
    client: IntakeClient<T::Op>,
    cfg: ServerConfig,
) where
    T: WireStandard + 'static,
    T::Op: Codec,
    T::Resp: Codec,
{
    while !shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                obs.sessions.inc();
                let _ = stream.set_nodelay(true);
                let Ok(write_stream) = stream.try_clone() else {
                    continue;
                };
                let Ok(shutdown_stream) = stream.try_clone() else {
                    continue;
                };
                let state = ConnState::new(shutdown_stream);
                // Clone-per-connection pins each session to an intake
                // shard round-robin — the fairness seam.
                let intake = client.clone();
                let reader = {
                    let state = Arc::clone(&state);
                    let router = Arc::clone(&router);
                    let obs = obs.clone();
                    let shutdown = Arc::clone(&shutdown);
                    std::thread::Builder::new()
                        .name("tokensync-conn-r".into())
                        .stack_size(256 * 1024)
                        .spawn(move || {
                            obs.active.add(1);
                            conn_reader::<T>(stream, state, intake, router, &obs, &cfg, shutdown);
                            obs.active.add(-1);
                        })
                };
                let writer = {
                    let state = Arc::clone(&state);
                    std::thread::Builder::new()
                        .name("tokensync-conn-w".into())
                        .stack_size(256 * 1024)
                        .spawn(move || conn_writer(write_stream, &state))
                };
                if let (Ok(reader), Ok(writer)) = (reader, writer) {
                    conns.lock().unwrap().push(ConnEntry {
                        state,
                        reader,
                        writer,
                    });
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(1)),
        }
    }
}

/// Writer thread: drains the bounded queue to the socket. Exits when
/// the queue closes (drain or abort) or the socket dies.
fn conn_writer(mut stream: TcpStream, state: &ConnState) {
    while let Some(frame) = state.next_frame() {
        if stream.write_all(&frame).is_err() {
            state.close_abort();
            return;
        }
    }
    let _ = stream.shutdown(std::net::Shutdown::Write);
}

/// Reader thread: frames, decodes, vets, submits. Every exit path
/// decides the connection's fate explicitly: fail closed (abort),
/// drain-on-EOF, or global shutdown (writer flushed by `finish`).
fn conn_reader<T>(
    mut stream: TcpStream,
    state: Arc<ConnState>,
    intake: IntakeClient<T::Op>,
    router: Arc<Router>,
    obs: &ServerObs,
    cfg: &ServerConfig,
    shutdown: Arc<AtomicBool>,
) where
    T: WireStandard,
    T::Op: Codec,
    T::Resp: Codec,
{
    let _ = stream.set_read_timeout(Some(cfg.read_poll));
    let mut dec = FrameDecoder::new();
    let mut buf = [0u8; 8 * 1024];
    let mut last_byte = Instant::now();
    loop {
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        match stream.read(&mut buf) {
            Ok(0) => {
                // Clean EOF: linger until every in-flight request
                // resolved, then the writer flushes and closes.
                state.draining.store(true, Ordering::SeqCst);
                if state.outstanding.load(Ordering::SeqCst) == 0 {
                    state.close_drain();
                }
                return;
            }
            Ok(n) => {
                last_byte = Instant::now();
                dec.feed(&buf[..n]);
                loop {
                    match dec.try_frame() {
                        Ok(Some(body)) => {
                            if !handle_request::<T>(&body, &state, &intake, &router, obs, cfg) {
                                state.close_abort();
                                return;
                            }
                        }
                        Ok(None) => break,
                        Err(_) => {
                            obs.wire_errors.inc();
                            state.close_abort();
                            return;
                        }
                    }
                }
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if dec.buffered() > 0 && last_byte.elapsed() >= cfg.read_grace {
                    obs.slow_disconnects.inc();
                    state.close_abort();
                    return;
                }
            }
            Err(_) => {
                state.close_abort();
                return;
            }
        }
    }
}

/// One CRC-valid request body through decode → vet → admit. Returns
/// `false` when the connection must close (uncorrelatable body, or its
/// write side is already gone).
fn handle_request<T>(
    body: &[u8],
    state: &Arc<ConnState>,
    intake: &IntakeClient<T::Op>,
    router: &Arc<Router>,
    obs: &ServerObs,
    cfg: &ServerConfig,
) -> bool
where
    T: WireStandard,
    T::Op: Codec,
{
    let Some((request_id, standard, caller, op_bytes)) = decode_request_header(body) else {
        // Too short to even carry a request id: nothing to answer to.
        obs.wire_errors.inc();
        return false;
    };
    let reject = |status: Status| -> bool {
        state.push(
            encode_response(request_id, status, None),
            cfg.write_queue_frames,
        )
    };
    if standard != T::STANDARD {
        obs.bad_requests.inc();
        return reject(Status::BadRequest);
    }
    let mut input = op_bytes;
    let op = match T::Op::decode(&mut input) {
        Ok(op) if input.is_empty() && T::vet(&op) => op,
        _ => {
            obs.bad_requests.inc();
            return reject(Status::BadRequest);
        }
    };
    // Register before submit: the commit callback can fire (and must
    // find the ticket) before try_submit_tagged even returns.
    let ticket = router.register(state, request_id);
    match intake.try_submit_tagged(caller, op, ticket) {
        Ok(true) => true,
        Ok(false) => {
            router.unregister(ticket);
            obs.busy.inc();
            reject(Status::Busy)
        }
        Err(_closed) => {
            router.unregister(ticket);
            reject(Status::Gone)
        }
    }
}
