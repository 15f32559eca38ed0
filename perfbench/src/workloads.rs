//! The four workloads. Each builds its inputs from the seed, sets the
//! program up several times (set-up time is a metric of its own),
//! serves for the measured window, and then checks what the program
//! answered against the sequential ERC20 oracle.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tokensync_bench::workloads::{
    disjoint_transfers, funded_state, hot_row_ops, hot_row_state, zipf_ops,
};
use tokensync_core::erc20::{Erc20Op, Erc20Resp, Erc20Spec, Erc20State};
use tokensync_core::shared::{ConcurrentObject, ShardedErc20};
use tokensync_obs::{Registry, Stage};
use tokensync_pipeline::{
    CommitSink, CommittedOp, Pipeline, PipelineConfig, PipelineObs, PipelineStats, NO_TICKET,
};
use tokensync_replica::{AckMode, Cluster, ReplicaConfig};
use tokensync_server::{Server, ServerConfig, ServerHandle};
use tokensync_spec::{ObjectType, ProcessId};
use tokensync_store::{recover, Store, StoreConfig, StoreObs};

use crate::gen::{closed_loop, open_loop, LoadResult};
use crate::report::{Check, Layers, Report};
use crate::stats::{
    generator_on_time, littles_law_holds, littles_ratio, max_ok_rate, median, step_passes,
    LadderStep, Samples, GEN_LATE_FRAC, GEN_LATE_MS,
};
use crate::sys::{peak_rss_mb, process_cpu};

/// Accounts in every workload's genesis state.
pub const ACCOUNTS: usize = 1_000_000;

/// Times the program is set up per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// `open-commute`: the nominal open-loop rate, requests per second.
pub const OPEN_RATE: f64 = 20_000.0;
/// `open-commute`: the rate ladder behind `max_ok_rps`.
pub const LADDER_RATES: [f64; 4] = [20_000.0, 40_000.0, 80_000.0, 160_000.0];
/// `open-commute`: how long each ladder step sends.
pub const LADDER_STEP: Duration = Duration::from_secs(1);
/// `open-commute`: the discarded warm-up before the measured window.
pub const WARMUP: Duration = Duration::from_secs(1);

/// `closed-zipf-durable`: connections, requests in flight on each, and
/// the Zipf skew of the op mix.
pub const CLOSED_CONNS: usize = 2;
/// Requests each closed-loop connection keeps in flight.
pub const CLOSED_DEPTH: usize = 256;
/// Zipf skew of `closed-zipf-durable`.
pub const CLOSED_THETA: f64 = 0.99;
/// `closed-zipf-durable`: operations between periodic snapshots; small
/// enough that several snapshot cycles finish in one run.
pub const SNAPSHOT_EVERY: u64 = 200_000;

/// `ingest-hotrow`: spenders enabled on the hot allowance row (a `Q_9`
/// state with the owner).
pub const HOT_SPENDERS: usize = 8;
/// `ingest-hotrow`: producer threads.
pub const PRODUCERS: usize = 2;
/// `ingest-hotrow`: operations per engine session. The engine's commit
/// log is never truncated, so the window is served as a chain of
/// sessions on one object to keep memory bounded; each session's log is
/// checked and dropped before the next starts.
pub const SESSION_OPS: usize = 1_000_000;
/// `ingest-hotrow`: one op in this many carries a ticket and is timed
/// from submit to commit.
pub const LATENCY_SAMPLE_EVERY: usize = 64;

/// `replicate-quorum`: cluster size, round size and Zipf skew.
pub const NODES: usize = 3;
/// Operations per replication round.
pub const ROUND_OPS: usize = 8192;
/// Zipf skew of `replicate-quorum`.
pub const REPLICA_THETA: f64 = 0.6;

/// The four workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Open loop over TCP, owner-disjoint transfers, volatile sink.
    OpenCommute,
    /// Closed loop over TCP, Zipf mix, durable store, durable acks.
    ClosedZipfDurable,
    /// In-process ingest of hot-row traffic through the intake.
    IngestHotrow,
    /// A three-node cluster acknowledging at quorum durability.
    ReplicateQuorum,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        Some(match name {
            "open-commute" => Self::OpenCommute,
            "closed-zipf-durable" => Self::ClosedZipfDurable,
            "ingest-hotrow" => Self::IngestHotrow,
            "replicate-quorum" => Self::ReplicateQuorum,
            _ => return None,
        })
    }

    /// The workload's genesis state.
    pub fn genesis(self) -> Erc20State {
        match self {
            Self::IngestHotrow => hot_row_state(ACCOUNTS, HOT_SPENDERS),
            _ => funded_state(ACCOUNTS),
        }
    }

    /// The workload's op stream (the generator cycles through it).
    pub fn stream(self, seed: u64, seconds: f64) -> Vec<(ProcessId, Erc20Op)> {
        match self {
            Self::OpenCommute => {
                let ladder: f64 = LADDER_RATES.iter().sum::<f64>() * LADDER_STEP.as_secs_f64();
                let len = (OPEN_RATE * (seconds + WARMUP.as_secs_f64()) + ladder) as usize;
                disjoint_transfers(ACCOUNTS, len.min(ACCOUNTS / 2), seed)
            }
            Self::ClosedZipfDurable => zipf_ops(ACCOUNTS, 1 << 20, seed, CLOSED_THETA),
            Self::IngestHotrow => hot_row_ops(ACCOUNTS, SESSION_OPS, seed, HOT_SPENDERS),
            Self::ReplicateQuorum => zipf_ops(ACCOUNTS, 128 * ROUND_OPS, seed, REPLICA_THETA),
        }
    }

    /// Whether the workload's acks wait for a store.
    pub fn durable(self) -> bool {
        matches!(self, Self::ClosedZipfDurable | Self::ReplicateQuorum)
    }
}

/// How a workload runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// The measured run: [`SETUPS`] set-ups and the workload's extras
    /// (the rate ladder).
    Full,
    /// One set-up, no extras, no tracing: the traced run's baseline.
    Base,
    /// One set-up with every recorder attached.
    Traced,
}

impl Mode {
    fn setups(self) -> usize {
        match self {
            Mode::Full => SETUPS,
            Mode::Base | Mode::Traced => 1,
        }
    }
}

/// Inputs shared by every part of one run.
pub struct Ctx {
    /// The workload.
    pub workload: Workload,
    /// Its seed.
    pub seed: u64,
    /// Where stores live (inside the working directory; removed at exit).
    pub data: PathBuf,
    /// Genesis state.
    pub genesis: Erc20State,
    /// Op stream.
    pub stream: Vec<(ProcessId, Erc20Op)>,
}

impl Ctx {
    /// A fresh, empty directory for one store or cluster.
    pub fn fresh_dir(&self, tag: &str) -> PathBuf {
        let dir = self.data.join(tag);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }
}

/// Replays committed entries through the sequential ERC20 oracle on top
/// of `state`, checking every recorded response. Returns the sequence
/// number of the first divergent entry, if any.
pub fn replay_into(
    spec: &Erc20Spec,
    state: &mut Erc20State,
    entries: &[CommittedOp<Erc20Op, Erc20Resp>],
) -> Result<(), u64> {
    for e in entries {
        if spec.apply(state, e.caller, &e.op) != e.resp {
            return Err(e.seq);
        }
    }
    Ok(())
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Runs `setup` [`SETUPS`] times, tearing all but the last instance
/// down; returns it with the median set-up time in seconds.
fn measure_setup<S>(
    mut setup: impl FnMut(usize) -> (S, Duration),
    mut teardown: impl FnMut(S),
    times: usize,
) -> (S, f64) {
    let mut secs = Vec::with_capacity(times);
    let mut keep = None;
    for i in 0..times.max(1) {
        // Tear the previous instance down first: one lives at a time.
        if let Some(old) = keep.take() {
            teardown(old);
        }
        let (s, took) = setup(i);
        secs.push(took.as_secs_f64());
        keep = Some(s);
    }
    (keep.expect("at least one setup"), median(&secs))
}

/// The end-to-end metrics every workload reports (the result line
/// carries the ones `BENCHMARK.json` bounds), then the latency tail and
/// the other figures printed alongside. `p99_ms` is the 99th percentile when ten samples
/// lie beyond it, else the highest percentile that has ten beyond; its
/// percentile and sample count print with it.
fn end_to_end(
    r: &mut Report,
    ok_per_s: f64,
    cpu_us_per_op: f64,
    latency_ns: Vec<u64>,
    setup_s: f64,
) {
    let latency = Samples::new(latency_ns);
    let tail = latency.p99_or_tail();
    let at = |pct: f64| latency.at(pct).map_or(f64::NAN, |p| p.ms);
    r.e2e = vec![
        metric("ok_per_s", ok_per_s, "1/s"),
        metric("p50_ms", at(50.0), "ms"),
        metric("cpu_us_per_op", cpu_us_per_op, "us"),
        metric("setup_s", setup_s, "s"),
        metric("peak_rss_mb", peak_rss_mb(), "MB"),
    ];
    let (pct, p99) = tail.map_or((f64::NAN, f64::NAN), |p| (p.pct, p.ms));
    r.info.push(metric("p99_ms", p99, "ms"));
    r.info.push(metric("p99_ms.percentile", pct, "%"));
    r.info
        .push(metric("latency_samples", latency.len() as f64, "count"));
    r.info.push(metric("p90_ms", at(90.0), "ms"));
    if let Some(t) = latency.tail() {
        r.info.push(metric("tail_ms", t.ms, "ms"));
        r.info.push(metric("tail_ms.percentile", t.pct, "%"));
    }
    r.info.push(metric("mean_ms", latency.mean_ms(), "ms"));
}

/// Process CPU time per op, in µs.
fn cpu_us(cpu: Duration, ops: u64) -> f64 {
    cpu.as_secs_f64() * 1e6 / ops.max(1) as f64
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> crate::report::Metric {
    crate::report::Metric { name, value, unit }
}

fn failed_frac(r: &mut Report) {
    let f = r.failed as f64 / r.attempted.max(1) as f64;
    r.info.push(metric("failed_frac", f, "frac"));
}

fn gen_guard(r: &mut Report, load: &LoadResult) {
    let max_ms = load.max_late_ns as f64 / 1e6;
    r.layers.insert("gen.max_late_ms", (max_ms, "ms"));
    let late = load.late;
    let sent = load.outcomes.sent;
    r.validity.push(Check {
        name: "generator kept to its schedule",
        ok: generator_on_time(late, sent),
        detail: format!(
            "{late} of {sent} requests more than {GEN_LATE_MS} ms late (bound {}%), max {max_ms:.3} ms",
            GEN_LATE_FRAC * 100.0
        ),
    });
}

/// Pipeline counters every workload reports in its traced run. The
/// intake wait is the mean of the engine's `intake_wait` stage
/// histogram (exact, where its percentiles are bucket representatives);
/// `None` where the workload has no intake.
pub fn pipeline_layers(layers: &mut Layers, s: &PipelineStats, intake_wait_ms: Option<f64>) {
    let probes = s.bypassed_batches + s.bypass_aborts;
    layers.insert(
        "pipeline.mean_batch_ops",
        (s.ops as f64 / s.batches.max(1) as f64, "ops"),
    );
    layers.insert("pipeline.batches", (s.batches as f64, "count"));
    if let Some(wait) = intake_wait_ms {
        layers.insert("pipeline.intake_wait_mean_ms", (wait, "ms"));
    }
    layers.insert("pipeline.wave_parallelism", (s.wave_parallelism(), "ops"));
    layers.insert("pipeline.serial_fraction", (s.serial_fraction(), "frac"));
    layers.insert("pipeline.bypass_rate", (s.bypass_rate(), "frac"));
    layers.insert(
        "pipeline.bypass_abort_frac",
        (s.bypass_aborts as f64 / probes.max(1) as f64, "frac"),
    );
}

fn add_stats(total: &mut PipelineStats, s: &PipelineStats) {
    total.batches += s.batches;
    total.ops += s.ops;
    total.parallel_ops += s.parallel_ops;
    total.serial_ops += s.serial_ops;
    total.waves += s.waves;
    total.conflicts += s.conflicts;
    total.bypassed_batches += s.bypassed_batches;
    total.bypassed_ops += s.bypassed_ops;
    total.bypass_aborts += s.bypass_aborts;
    total.commit_records += s.commit_records;
}

/// Server-side readings of a TCP run. The server's request histogram
/// is read as its exact mean; `outside_frac` compares it with the
/// client's mean round trip.
pub fn server_layers(layers: &mut Layers, load: &LoadResult, obs: &tokensync_server::ServerObs) {
    let rtt = Samples::new(load.rtt().to_vec());
    let rtt_p50 = rtt.at(50.0).map_or(f64::NAN, |p| p.ms);
    let request = obs.request_ns.snapshot().mean() / 1e6;
    layers.insert("server.rtt_p50_ms", (rtt_p50, "ms"));
    layers.insert("server.rtt_mean_ms", (rtt.mean_ms(), "ms"));
    layers.insert("server.request_mean_ms", (request, "ms"));
    layers.insert(
        "server.outside_frac",
        (1.0 - request / rtt.mean_ms(), "frac"),
    );
    layers.insert("server.busy", (obs.busy.get() as f64, "count"));
    layers.insert(
        "server.write_overflows",
        (obs.write_overflows.get() as f64, "count"),
    );
    let disconnects =
        obs.write_overflows.get() + obs.slow_disconnects.get() + obs.wire_errors.get();
    layers.insert("server.disconnects", (disconnects as f64, "count"));
}

/// Store readings: WAL and fsync counters, snapshot count, mean fsync
/// time.
pub fn store_layers(
    layers: &mut Layers,
    obs: &StoreObs,
    ops: u64,
    wal_bytes: u64,
    durable_lag_ops: f64,
) {
    let per_op = |v: u64| v as f64 / ops.max(1) as f64;
    layers.insert(
        "store.wal_bytes_per_op",
        (per_op(obs.bytes_appended()), "B/op"),
    );
    layers.insert("store.disk_bytes_per_op", (per_op(wal_bytes), "B/op"));
    layers.insert(
        "store.ops_per_fsync",
        (ops as f64 / obs.fsyncs().max(1) as f64, "ops"),
    );
    layers.insert(
        "store.delta_snapshots",
        (obs.delta_snapshots_taken() as f64, "count"),
    );
    layers.insert("store.durable_lag_ops", (durable_lag_ops, "ops"));
    let flush = obs.fsync_latency().map_or(0.0, |h| h.mean());
    layers.insert("store.flush_ms", (flush / 1e6, "ms"));
}

/// Mean of the engine's `intake_wait` stage histogram in `registry`, ms.
pub fn intake_wait_ms(registry: &Registry) -> f64 {
    let h = registry.histogram(
        "tokensync_pipeline_stage_ns",
        &[("stage", Stage::IntakeWait.label())],
        "",
    );
    h.snapshot().mean() / 1e6
}

// ---------------------------------------------------------------- TCP

type Handle<S> = ServerHandle<ShardedErc20, S>;

fn spawn_server<S>(
    ctx: &Ctx,
    sink: impl FnOnce() -> S,
    cfg: ServerConfig,
    registry: &Registry,
) -> (Arc<ShardedErc20>, Handle<S>, Duration)
where
    S: CommitSink<ShardedErc20> + Send + 'static,
{
    let genesis = ctx.genesis.clone();
    let t0 = Instant::now();
    let token = Arc::new(ShardedErc20::from_state(genesis));
    let handle = Server::spawn(Arc::clone(&token), sink(), cfg, registry).expect("bind server");
    // The first request can be sent once a connection is accepted.
    drop(std::net::TcpStream::connect(handle.addr()).expect("connect to server"));
    (token, handle, t0.elapsed())
}

/// Checks every server run must pass: acks equal commits (or, where a
/// connection dropped, lie between acks and acks plus lost requests),
/// and the commit log replays through the oracle to the final state.
fn check_served(
    r: &mut Report,
    ctx: &Ctx,
    token: &ShardedErc20,
    log: &[CommittedOp<Erc20Op, Erc20Resp>],
    acks: u64,
    lost: u64,
) -> Erc20State {
    let commits = log.len() as u64;
    r.check(
        "acks equal commits",
        if lost == 0 {
            acks == commits
        } else {
            (acks..=acks + lost).contains(&commits)
        },
        format!("{acks} acks, {commits} commits, {lost} lost"),
    );
    let spec = Erc20Spec::new(ctx.genesis.clone());
    let mut state = spec.initial_state();
    let replay = replay_into(&spec, &mut state, log);
    r.check(
        "commit log replays through Erc20Spec to the served state",
        replay.is_ok() && state == token.snapshot(),
        match replay {
            Ok(()) => format!("{commits} entries replayed"),
            Err(seq) => format!("divergence at seq {seq}"),
        },
    );
    state
}

/// `open-commute`.
pub fn open_commute(ctx: &Ctx, seconds: f64, mode: Mode) -> Report {
    let (traced, setups) = (mode == Mode::Traced, mode.setups());
    let mut r = Report::default();
    let registry = Registry::new();
    let ((token, handle), setup_s) = measure_setup(
        |_| {
            let (t, h, took) = spawn_server(ctx, || (), ServerConfig::default(), &registry);
            ((t, h), took)
        },
        |(_, h): (Arc<ShardedErc20>, Handle<()>)| drop(h.finish()),
        setups,
    );
    let addr = handle.addr();
    // Warm-up at the nominal rate, on its own connection and discarded:
    // the server's lazy per-session state and first allocations settle.
    let warm = open_loop(addr, &ctx.stream, OPEN_RATE, WARMUP).expect("warm-up connects");
    let mut offset = warm.outcomes.sent as usize;
    let cpu0 = process_cpu();
    let main = open_loop(
        addr,
        &ctx.stream[offset..],
        OPEN_RATE,
        Duration::from_secs_f64(seconds),
    )
    .expect("open loop connects");
    let cpu = process_cpu() - cpu0;
    offset += main.outcomes.sent as usize;

    // The ladder, on the ops after the main window.
    let mut steps = Vec::new();
    let mut ladder_ok = warm.outcomes.ok;
    let mut ladder_lost = warm.outcomes.lost;
    if mode == Mode::Full {
        for rate in LADDER_RATES {
            let ops = &ctx.stream[offset % ctx.stream.len()..];
            let res = open_loop(addr, ops, rate, LADDER_STEP).expect("ladder connects");
            offset += res.outcomes.sent as usize;
            ladder_ok += res.outcomes.ok;
            ladder_lost += res.outcomes.lost;
            let lat = Samples::new(res.latency_ns.clone());
            let step = LadderStep {
                rate,
                p99_ms: lat.p99_or_tail().map_or(f64::INFINITY, |p| p.ms),
                failed_frac: res.failed_frac(),
                in_flight_at_end: res.in_flight_at_end,
                sent: res.outcomes.sent,
                late: res.late,
            };
            println!(
                "ladder rate={rate} ok={} failed={} p99_ms={:.3} in_flight_at_end={} \
                 late={} max_late_ms={:.3} dropped_conns={} pass={}",
                res.outcomes.ok,
                res.outcomes.failed(),
                step.p99_ms,
                step.in_flight_at_end,
                step.late,
                res.max_late_ns as f64 / 1e6,
                res.outcomes.dropped_conns,
                step_passes(&step)
            );
            let pass = step_passes(&step);
            steps.push(step);
            if !pass {
                break;
            }
        }
        r.info
            .push(metric("max_ok_rps", max_ok_rate(&steps), "1/s"));
    }

    if traced {
        server_layers(&mut r.layers, &main, handle.obs());
    }
    let (run, ()) = handle.finish();
    if traced {
        pipeline_layers(&mut r.layers, &run.stats, Some(intake_wait_ms(&registry)));
    }
    r.attempted = main.outcomes.sent;
    r.failed = main.outcomes.failed();
    check_served(
        &mut r,
        ctx,
        &token,
        run.log.entries(),
        main.outcomes.ok + ladder_ok,
        main.outcomes.lost + ladder_lost,
    );
    gen_guard(&mut r, &main);
    failed_frac(&mut r);
    let (ok_per_s, cpu_us) = (main.ok_per_s(), cpu_us(cpu, main.outcomes.ok));
    end_to_end(&mut r, ok_per_s, cpu_us, main.latency_ns, setup_s);
    r
}

/// `closed-zipf-durable`.
pub fn closed_zipf_durable(ctx: &Ctx, seconds: f64, mode: Mode) -> Report {
    let (traced, setups) = (mode == Mode::Traced, mode.setups());
    let mut r = Report::default();
    let registry = Registry::new();
    let cfg = ServerConfig {
        durable_acks: true,
        ..ServerConfig::default()
    };
    let store_cfg = StoreConfig {
        snapshot_every_ops: SNAPSHOT_EVERY,
        ..StoreConfig::default()
    };
    let store_obs = if traced {
        StoreObs::new(&registry)
    } else {
        StoreObs::disabled()
    };
    let ((token, handle, dir), setup_s) = measure_setup(
        |i| {
            let dir = ctx.fresh_dir(&format!("closed-{i}"));
            let genesis = ctx.genesis.clone();
            let t0 = Instant::now();
            let mut store: Store<ShardedErc20> =
                Store::create(&dir, &genesis, store_cfg).expect("create store");
            let pre = t0.elapsed();
            store.set_obs(store_obs.clone());
            let (t, h, took) = spawn_server(ctx, move || store, cfg, &registry);
            ((t, h, dir), pre + took)
        },
        |(_, h, dir): (_, Handle<Store<ShardedErc20>>, PathBuf)| {
            let (_, store) = h.finish();
            store.close().expect("close torn-down store");
            let _ = std::fs::remove_dir_all(dir);
        },
        setups,
    );

    // Traced: sample the sealed-vs-durable gap while serving.
    let stop = AtomicBool::new(false);
    let ops_total = registry.counter("tokensync_pipeline_ops_total", &[], "");
    let ops_before = ops_total.get();
    let cpu0 = process_cpu();
    let (main, lag_samples) = std::thread::scope(|s| {
        let sampler = traced.then(|| {
            s.spawn(|| {
                let mut lags = Vec::new();
                while !stop.load(Ordering::Relaxed) {
                    std::thread::sleep(Duration::from_millis(10));
                    let done = ops_total.get() - ops_before;
                    lags.push(done.saturating_sub(store_obs.durable_seq()) as f64);
                }
                lags
            })
        });
        let main = closed_loop(
            handle.addr(),
            &ctx.stream,
            CLOSED_CONNS,
            CLOSED_DEPTH,
            Duration::from_secs_f64(seconds),
            u64::MAX,
        )
        .expect("closed loop connects");
        stop.store(true, Ordering::Relaxed);
        let lags = sampler.map(|h| h.join().expect("sampler panicked"));
        (main, lags.unwrap_or_default())
    });
    let cpu = process_cpu() - cpu0;
    if traced {
        server_layers(&mut r.layers, &main, handle.obs());
    }
    let (run, mut store) = handle.finish();
    if traced {
        pipeline_layers(&mut r.layers, &run.stats, Some(intake_wait_ms(&registry)));
        let wal = store.wal_bytes().unwrap_or(0);
        store_layers(
            &mut r.layers,
            &store_obs,
            run.stats.ops,
            wal,
            median(&lag_samples),
        );
    }

    r.attempted = main.outcomes.sent;
    r.failed = main.outcomes.failed();
    let state = check_served(
        &mut r,
        ctx,
        &token,
        run.log.entries(),
        main.outcomes.ok,
        main.outcomes.lost,
    );

    // Crash the store and recover: every acked op was durable.
    store.abandon();
    drop(store);
    let t0 = Instant::now();
    let rec = recover::<ShardedErc20>(&dir);
    let recover_s = t0.elapsed().as_secs_f64();
    match rec {
        Ok(rec) => {
            r.check(
                "recovery reproduces every durably acked op",
                rec.next_seq >= main.outcomes.ok
                    && rec.next_seq == run.log.len() as u64
                    && rec.state == state,
                format!(
                    "recovered {} ops ({} replayed on a snapshot at {}), {} acked",
                    rec.next_seq, rec.replayed, rec.snapshot_watermark, main.outcomes.ok
                ),
            );
            if traced {
                r.layers
                    .insert("store.recover_load_ms", (ms(rec.snapshot_load), "ms"));
                r.layers
                    .insert("store.recover_replay_ms", (ms(rec.replay), "ms"));
            }
        }
        Err(e) => r.check(
            "recovery reproduces every durably acked op",
            false,
            format!("recover failed: {e}"),
        ),
    }
    r.info.push(metric("recover_s", recover_s, "s"));
    let _ = std::fs::remove_dir_all(&dir);

    gen_guard(&mut r, &main);
    let ok_per_s = main.ok_per_s();
    let mean_ns = main.latency_ns.iter().map(|&v| v as f64).sum::<f64>()
        / main.latency_ns.len().max(1) as f64;
    let little = littles_ratio(
        ok_per_s,
        Duration::from_nanos(mean_ns as u64),
        CLOSED_CONNS * CLOSED_DEPTH,
    );
    r.check(
        "closed loop obeys Little's law",
        littles_law_holds(little),
        format!("ok_per_s x mean latency / in flight = {little:.4}"),
    );
    failed_frac(&mut r);
    let cpu_us = cpu_us(cpu, main.outcomes.ok);
    end_to_end(&mut r, ok_per_s, cpu_us, main.latency_ns, setup_s);
    r
}

// ---------------------------------------------------------- in-process

/// A commit sink that timestamps ticketed ops as their wave commits.
struct CommitClock {
    start: Instant,
    submitted_at: Arc<Vec<AtomicU64>>,
    latency_ns: Vec<u64>,
}

impl CommitSink<ShardedErc20> for CommitClock {
    fn wave_committed(&mut self, _: &ShardedErc20, _: &[CommittedOp<Erc20Op, Erc20Resp>]) {}

    fn wave_committed_tagged(
        &mut self,
        _: &ShardedErc20,
        _: &[CommittedOp<Erc20Op, Erc20Resp>],
        tickets: &[u64],
    ) {
        let mut now = None;
        for &t in tickets {
            if t != NO_TICKET {
                let now = *now.get_or_insert_with(|| ns(self.start.elapsed()));
                let at = self.submitted_at[(t - 1) as usize].load(Ordering::Acquire);
                self.latency_ns.push(now.saturating_sub(at));
            }
        }
    }

    fn batch_sealed(&mut self, _: &ShardedErc20, _: u64) {}
}

type Engine = (
    tokensync_pipeline::IntakeClient<Erc20Op>,
    tokensync_pipeline::SinkedPipelineHandle<Erc20Op, Erc20Resp, CommitClock>,
    Arc<Vec<AtomicU64>>,
);

fn spawn_engine(token: &Arc<ShardedErc20>, start: Instant, obs: &PipelineObs) -> Engine {
    let slots = SESSION_OPS / LATENCY_SAMPLE_EVERY + PRODUCERS;
    let submitted_at: Arc<Vec<AtomicU64>> =
        Arc::new((0..slots).map(|_| AtomicU64::new(0)).collect());
    let sink = CommitClock {
        start,
        submitted_at: Arc::clone(&submitted_at),
        latency_ns: Vec::new(),
    };
    let (client, handle) = Pipeline::spawn_observed(
        Arc::clone(token),
        PipelineConfig::default(),
        sink,
        obs.clone(),
    );
    (client, handle, submitted_at)
}

/// `ingest-hotrow`.
pub fn ingest_hotrow(ctx: &Ctx, seconds: f64, mode: Mode) -> Report {
    let (traced, setups) = (mode == Mode::Traced, mode.setups());
    let mut r = Report::default();
    let registry = Registry::new();
    let obs = if traced {
        PipelineObs::new(&registry, PipelineConfig::default().batch.intake_shards)
    } else {
        PipelineObs::disabled()
    };
    let start = Instant::now();
    let ((token, engine), setup_s) = measure_setup(
        |_| {
            let genesis = ctx.genesis.clone();
            let t0 = Instant::now();
            let token = Arc::new(ShardedErc20::from_state(genesis));
            let engine = spawn_engine(&token, start, &obs);
            let took = t0.elapsed();
            ((token, engine), took)
        },
        |(_, (client, handle, _)): (Arc<ShardedErc20>, Engine)| {
            drop(client);
            drop(handle.finish());
        },
        setups,
    );

    let spec = Erc20Spec::new(ctx.genesis.clone());
    let mut state = spec.initial_state();
    let mut engine = Some(engine);
    let window = Duration::from_secs_f64(seconds);
    let mut served = Duration::ZERO;
    let mut cpu = Duration::ZERO;
    let (mut submitted, mut committed) = (0u64, 0u64);
    let mut latency = Vec::new();
    let mut stats = PipelineStats::default();
    let mut max_gap = 0u64;
    let mut replay_ok: Result<(), u64> = Ok(());
    let mut cursor = 0usize;
    while served < window {
        let (client, handle, submitted_at) = engine
            .take()
            .unwrap_or_else(|| spawn_engine(&token, start, &obs));
        let deadline = Instant::now() + (window - served);
        let t0 = Instant::now();
        let cpu0 = process_cpu();
        let per_producer = SESSION_OPS / PRODUCERS;
        // Each producer returns its op count and its worst gap between
        // one submit returning and the next starting (sampled on the
        // ticketed ops): the generator's own lateness.
        let counts: Vec<(u64, u64)> = std::thread::scope(|s| {
            let hs: Vec<_> = (0..PRODUCERS)
                .map(|p| {
                    let client = client.clone();
                    let submitted_at = &submitted_at;
                    let stream = &ctx.stream;
                    s.spawn(move || {
                        let (mut n, mut released, mut max_gap) = (0u64, None, 0u64);
                        for k in 0..per_producer {
                            if k % 1024 == 0 && Instant::now() >= deadline {
                                break;
                            }
                            let (caller, op) =
                                stream[(cursor + p + PRODUCERS * k) % stream.len()].clone();
                            let ticket = if k % LATENCY_SAMPLE_EVERY == 0 {
                                let now = ns(start.elapsed());
                                if let Some(at) = released.take() {
                                    max_gap = max_gap.max(now - at);
                                }
                                let slot = p + PRODUCERS * (k / LATENCY_SAMPLE_EVERY);
                                submitted_at[slot].store(now, Ordering::Release);
                                slot as u64 + 1
                            } else {
                                NO_TICKET
                            };
                            if client.submit_tagged(caller, op, ticket).is_err() {
                                break;
                            }
                            if k % LATENCY_SAMPLE_EVERY == LATENCY_SAMPLE_EVERY - 1 {
                                released = Some(ns(start.elapsed()));
                            }
                            n += 1;
                        }
                        (n, max_gap)
                    })
                })
                .collect();
            hs.into_iter()
                .map(|h| h.join().expect("producer panicked"))
                .collect()
        });
        drop(client);
        let (run, clock) = handle.finish();
        let took = t0.elapsed();
        cpu += process_cpu() - cpu0;
        served += took;
        let n: u64 = counts.iter().map(|c| c.0).sum();
        max_gap = counts.iter().map(|c| c.1).fold(max_gap, u64::max);
        cursor += n as usize;
        submitted += n;
        committed += run.log.len() as u64;
        latency.extend(clock.latency_ns);
        add_stats(&mut stats, &run.stats);
        if replay_ok.is_ok() {
            replay_ok = replay_into(&spec, &mut state, run.log.entries());
        }
    }
    r.attempted = submitted;
    r.failed = submitted.saturating_sub(committed);
    r.check(
        "acks equal commits",
        submitted == committed,
        format!("{submitted} submitted, {committed} committed"),
    );
    r.check(
        "commit log replays through Erc20Spec to the served state",
        replay_ok.is_ok() && state == token.snapshot(),
        match replay_ok {
            Ok(()) => format!("{committed} entries replayed"),
            Err(seq) => format!("divergence at seq {seq}"),
        },
    );
    if traced {
        let wait = obs.stage_latency(Stage::IntakeWait).map(|h| h.mean() / 1e6);
        pipeline_layers(&mut r.layers, &stats, wait);
    }
    r.layers
        .insert("gen.max_late_ms", (max_gap as f64 / 1e6, "ms"));
    failed_frac(&mut r);
    let rate = committed as f64 / served.as_secs_f64();
    end_to_end(&mut r, rate, cpu_us(cpu, committed), latency, setup_s);
    r
}

// ------------------------------------------------------------ replica

/// One cluster ready to serve.
pub fn new_cluster(ctx: &Ctx, dir: &Path) -> Cluster<ShardedErc20> {
    let cfg = ReplicaConfig {
        ack_mode: AckMode::Quorum,
        ..ReplicaConfig::default()
    };
    Cluster::new(dir, NODES, &ctx.genesis, cfg, ctx.seed).expect("create cluster")
}

/// What serving rounds on a cluster measured.
#[derive(Default)]
pub struct Rounds {
    /// Ops served.
    pub ops: u64,
    /// Time serving plus pumping, summed over rounds.
    pub busy: Duration,
    /// Per-round latency: round start to quorum durability, ns.
    pub latency_ns: Vec<u64>,
    /// Per-round serve times, ns.
    pub serve_ns: Vec<u64>,
    /// Per-round pump times, ns.
    pub pump_ns: Vec<u64>,
    /// Process CPU time, summed over rounds.
    pub cpu: Duration,
    /// Largest follower lag seen after a pump.
    pub max_lag: u64,
    /// Longest gap between one round's end and the next round's start.
    pub max_gap: Duration,
    /// Rounds whose quorum-durable position did not reach the ops
    /// served so far.
    pub short_rounds: u64,
    /// Summed pipeline counters.
    pub stats: PipelineStats,
    /// First oracle divergence, if any.
    pub divergence: Option<u64>,
}

/// Serves rounds of [`ROUND_OPS`] from `ops` (cycling) until `window`
/// of serving time is used or `max_ops` are served, checking each
/// round's log against the oracle on top of `state`.
pub fn serve_rounds(
    cluster: &mut Cluster<ShardedErc20>,
    ops: &[(ProcessId, Erc20Op)],
    window: Duration,
    max_ops: u64,
    spec: &Erc20Spec,
    state: &mut Erc20State,
) -> Rounds {
    let mut out = Rounds::default();
    let rounds = (ops.len() / ROUND_OPS).max(1);
    let mut round = 0usize;
    let mut prev_end: Option<Instant> = None;
    while out.busy < window && out.ops < max_ops {
        let at = (round % rounds) * ROUND_OPS;
        let script = &ops[at..(at + ROUND_OPS).min(ops.len())];
        let t0 = Instant::now();
        if let Some(end) = prev_end {
            out.max_gap = out.max_gap.max(t0 - end);
        }
        let cpu0 = process_cpu();
        let run = cluster.serve(script);
        let t1 = Instant::now();
        cluster.pump();
        let t2 = Instant::now();
        out.cpu += process_cpu() - cpu0;
        prev_end = Some(t2);
        out.ops += run.log.len() as u64;
        out.busy += t2 - t0;
        out.latency_ns.push(ns(t2 - t0));
        out.serve_ns.push(ns(t1 - t0));
        out.pump_ns.push(ns(t2 - t1));
        if cluster.durable_seq() < out.ops {
            out.short_rounds += 1;
        }
        out.max_lag = out
            .max_lag
            .max(cluster.follower_lags().into_iter().max().unwrap_or(0));
        add_stats(&mut out.stats, &run.stats);
        if out.divergence.is_none() {
            out.divergence = replay_into(spec, state, run.log.entries()).err();
        }
        round += 1;
    }
    out
}

/// Replica readings of a round series.
pub fn replica_layers(layers: &mut Layers, rounds: &Rounds, cluster: &Cluster<ShardedErc20>) {
    let med = |v: &[u64]| median(&v.iter().map(|&x| x as f64 / 1e6).collect::<Vec<_>>());
    let stats = cluster.replication_stats();
    let net = cluster.metrics();
    layers.insert("replica.serve_ms", (med(&rounds.serve_ns), "ms"));
    layers.insert("replica.pump_ms", (med(&rounds.pump_ns), "ms"));
    layers.insert(
        "replica.retransmissions",
        (stats.retransmissions as f64, "count"),
    );
    layers.insert("replica.down_marks", (stats.down_marks as f64, "count"));
    layers.insert(
        "replica.snapshot_ships",
        (stats.snapshot_ships as f64, "count"),
    );
    layers.insert("replica.max_follower_lag", (rounds.max_lag as f64, "ops"));
    layers.insert(
        "replica.delivered_frac",
        (net.delivered as f64 / net.sent.max(1) as f64, "frac"),
    );
}

/// Followers hold the primary's log and state.
fn check_converged(r: &mut Report, cluster: &Cluster<ShardedErc20>) {
    let primary = cluster.node(cluster.primary());
    let head = primary.next_seq();
    let state = primary.state();
    let lagging: Vec<usize> = (0..cluster.n())
        .filter(|&i| cluster.node(i).next_seq() != head || cluster.node(i).state() != state)
        .collect();
    r.check(
        "followers converge to the primary",
        lagging.is_empty(),
        format!("log head {head}, diverging nodes {lagging:?}"),
    );
}

/// `replicate-quorum`.
pub fn replicate_quorum(ctx: &Ctx, seconds: f64, mode: Mode) -> Report {
    let (traced, setups) = (mode == Mode::Traced, mode.setups());
    let mut r = Report::default();
    let ((mut cluster, dir), setup_s) = measure_setup(
        |i| {
            let dir = ctx.fresh_dir(&format!("cluster-{i}"));
            let t0 = Instant::now();
            let cluster = new_cluster(ctx, &dir);
            ((cluster, dir), t0.elapsed())
        },
        |(c, dir): (Cluster<ShardedErc20>, PathBuf)| {
            drop(c);
            let _ = std::fs::remove_dir_all(dir);
        },
        setups,
    );
    let spec = Erc20Spec::new(ctx.genesis.clone());
    let mut state = spec.initial_state();
    let rounds = serve_rounds(
        &mut cluster,
        &ctx.stream,
        Duration::from_secs_f64(seconds),
        u64::MAX,
        &spec,
        &mut state,
    );

    r.attempted = rounds.ops;
    r.failed = 0;
    r.check(
        "quorum-durable position equals ops served",
        cluster.durable_seq() == rounds.ops && rounds.short_rounds == 0,
        format!(
            "durable_seq {}, served {}, rounds short of quorum {}",
            cluster.durable_seq(),
            rounds.ops,
            rounds.short_rounds
        ),
    );
    r.check(
        "commit log replays through Erc20Spec to the served state",
        rounds.divergence.is_none() && cluster.node(cluster.primary()).state() == state,
        match rounds.divergence {
            None => format!("{} entries replayed", rounds.ops),
            Some(seq) => format!("divergence at seq {seq}"),
        },
    );
    check_converged(&mut r, &cluster);
    if traced {
        replica_layers(&mut r.layers, &rounds, &cluster);
        pipeline_layers(&mut r.layers, &rounds.stats, None);
    }
    r.layers
        .insert("gen.max_late_ms", (ms(rounds.max_gap), "ms"));
    drop(cluster);
    let _ = std::fs::remove_dir_all(&dir);
    failed_frac(&mut r);
    let rate = rounds.ops as f64 / rounds.busy.as_secs_f64();
    let cpu = cpu_us(rounds.cpu, rounds.ops);
    end_to_end(&mut r, rate, cpu, rounds.latency_ns, setup_s);
    r
}
