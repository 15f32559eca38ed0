//! The traced run: the workload served once untraced and once traced
//! (their difference is the tracing overhead), then the per-layer
//! ladder on a prefix of the same op stream, the batch-stage timings
//! and the codec timings. Every layer is timed from outside, through
//! its public functions and the counters it already exports.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use tokensync_core::codec::Codec;
use tokensync_core::erc20::{Erc20Op, Erc20Resp, Erc20Spec};
use tokensync_core::shared::{ConcurrentObject, ShardedErc20};
use tokensync_obs::Registry;
use tokensync_pipeline::{execute, run_script, run_script_with_sink, PipelineConfig, Scheduler};
use tokensync_server::wire::{
    decode_request_header, decode_response, encode_request, encode_response, FrameDecoder,
};
use tokensync_server::{Server, ServerConfig, Status, WireStandard};
use tokensync_spec::{ObjectType, ProcessId};
use tokensync_store::{recover, Store, StoreConfig, StoreObs};

use crate::gen::closed_loop;
use crate::report::{Layers, Report};
use crate::sys::process_cpu;
use crate::workloads::{
    intake_wait_ms, new_cluster, replica_layers, serve_rounds, server_layers, store_layers, Ctx,
    Mode, Workload, CLOSED_CONNS, CLOSED_DEPTH, ROUND_OPS, SNAPSHOT_EVERY,
};

/// Operations of the stream each ladder row serves.
pub const LADDER_OPS: usize = 200_000;

/// Operations the codec timings encode and decode.
const CODEC_OPS: usize = 100_000;

/// Wall and process-CPU time of one ladder row, per operation.
#[derive(Clone, Copy, Debug)]
struct Row {
    wall_ns: f64,
    cpu_ns: f64,
}

fn timed<R>(ops: usize, f: impl FnOnce() -> R) -> (R, Row) {
    let (t0, c0) = (Instant::now(), process_cpu());
    let out = f();
    let (wall, cpu) = (t0.elapsed(), process_cpu() - c0);
    let per = |d: Duration| d.as_nanos() as f64 / ops.max(1) as f64;
    (
        out,
        Row {
            wall_ns: per(wall),
            cpu_ns: per(cpu),
        },
    )
}

fn insert_row(layers: &mut Layers, wall: &'static str, cpu: &'static str, row: Row) {
    layers.insert(wall, (row.wall_ns, "ns/op"));
    layers.insert(cpu, (row.cpu_ns, "ns/op"));
}

fn fresh(ctx: &Ctx) -> ShardedErc20 {
    ShardedErc20::from_state(ctx.genesis.clone())
}

/// The cumulative ladder, each row on the same op prefix: the direct
/// object, then the pipeline, the store, the replica and the TCP drive.
/// Readings a row yields fill only layers the workload's own traced run
/// did not exercise.
fn ladder(ctx: &Ctx, r: &mut Report, observed: &Layers) {
    let ops = &ctx.stream[..LADDER_OPS.min(ctx.stream.len())];
    let n = ops.len();
    let cfg = PipelineConfig::default();
    let mut fill = Layers::new();

    let token = fresh(ctx);
    let ((), row) = timed(n, || {
        for (caller, op) in ops {
            black_box(token.apply(*caller, op));
        }
    });
    insert_row(
        &mut r.layers,
        "core.apply_ns_per_op",
        "core.apply_cpu_ns_per_op",
        row,
    );
    drop(token);

    let token = fresh(ctx);
    let (run, row) = timed(n, || run_script(&token, ops, &cfg));
    insert_row(
        &mut r.layers,
        "pipeline.cum_ns_per_op",
        "pipeline.cum_cpu_ns_per_op",
        row,
    );
    r.check(
        "ladder pipeline row commits every op",
        run.log.len() == n,
        format!("{} of {n}", run.log.len()),
    );
    drop((run, token));

    // + store: group commit, pipelined fsync, incremental snapshots.
    let token = fresh(ctx);
    let dir = ctx.fresh_dir("ladder-store");
    let store_cfg = StoreConfig {
        snapshot_every_ops: SNAPSHOT_EVERY,
        ..StoreConfig::default()
    };
    let mut store: Store<ShardedErc20> =
        Store::create(&dir, &ctx.genesis, store_cfg).expect("create ladder store");
    let store_obs = StoreObs::new(&Registry::new());
    store.set_obs(store_obs.clone());
    let ((run, lag), row) = timed(n, || {
        let run = run_script_with_sink(&token, ops, &cfg, &mut store);
        let lag = store.next_seq().saturating_sub(store.durable_seq());
        store.flush().expect("flush ladder store");
        (run, lag)
    });
    insert_row(
        &mut r.layers,
        "store.cum_ns_per_op",
        "store.cum_cpu_ns_per_op",
        row,
    );
    let wal = store.wal_bytes().unwrap_or(0);
    store_layers(&mut fill, &store_obs, run.log.len() as u64, wal, lag as f64);
    store.abandon();
    drop(store);
    match recover::<ShardedErc20>(&dir) {
        Ok(rec) => {
            r.check(
                "ladder store recovers every flushed op",
                rec.next_seq == n as u64 && rec.state == token.snapshot(),
                format!("{} of {n}", rec.next_seq),
            );
            fill.insert(
                "store.recover_load_ms",
                (rec.snapshot_load.as_secs_f64() * 1e3, "ms"),
            );
            fill.insert(
                "store.recover_replay_ms",
                (rec.replay.as_secs_f64() * 1e3, "ms"),
            );
        }
        Err(e) => r.check(
            "ladder store recovers every flushed op",
            false,
            format!("recover failed: {e}"),
        ),
    }
    let _ = std::fs::remove_dir_all(&dir);
    drop((run, token));

    // + replica: a three-node cluster, quorum acks, rounds of 8192.
    let dir = ctx.fresh_dir("ladder-cluster");
    let mut cluster = new_cluster(ctx, &dir);
    let spec = Erc20Spec::new(ctx.genesis.clone());
    let mut state = spec.initial_state();
    let whole = &ops[..n / ROUND_OPS * ROUND_OPS];
    let (rounds, row) = timed(whole.len(), || {
        serve_rounds(
            &mut cluster,
            whole,
            Duration::MAX,
            whole.len() as u64,
            &spec,
            &mut state,
        )
    });
    insert_row(
        &mut r.layers,
        "replica.cum_ns_per_op",
        "replica.cum_cpu_ns_per_op",
        row,
    );
    r.check(
        "ladder replica row is quorum-durable and matches the oracle",
        rounds.divergence.is_none() && cluster.durable_seq() == rounds.ops,
        format!("durable {} of {}", cluster.durable_seq(), rounds.ops),
    );
    replica_layers(&mut fill, &rounds, &cluster);
    drop(cluster);
    let _ = std::fs::remove_dir_all(&dir);

    // The TCP drive: the server over the workload's own sink, closed
    // loop at the durable workload's depth.
    let token = Arc::new(fresh(ctx));
    let registry = Registry::new();
    let window = Duration::from_secs(120);
    let per_conn = (n / CLOSED_CONNS) as u64;
    let (load, obs, commits) = if ctx.workload.durable() {
        let dir = ctx.fresh_dir("ladder-server");
        let store: Store<ShardedErc20> =
            Store::create(&dir, &ctx.genesis, store_cfg).expect("create ladder store");
        let cfg = ServerConfig {
            durable_acks: true,
            ..ServerConfig::default()
        };
        let h = Server::spawn(Arc::clone(&token), store, cfg, &registry).expect("bind");
        let (load, row) = timed(n, || {
            closed_loop(h.addr(), ops, CLOSED_CONNS, CLOSED_DEPTH, window, per_conn)
                .expect("ladder server connects")
        });
        insert_row(
            &mut r.layers,
            "server.cum_ns_per_op",
            "server.cum_cpu_ns_per_op",
            row,
        );
        let obs = h.obs().clone();
        let (run, store) = h.finish();
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
        (load, obs, run.log.len() as u64)
    } else {
        let h = Server::spawn(Arc::clone(&token), (), ServerConfig::default(), &registry)
            .expect("bind");
        let (load, row) = timed(n, || {
            closed_loop(h.addr(), ops, CLOSED_CONNS, CLOSED_DEPTH, window, per_conn)
                .expect("ladder server connects")
        });
        insert_row(
            &mut r.layers,
            "server.cum_ns_per_op",
            "server.cum_cpu_ns_per_op",
            row,
        );
        let obs = h.obs().clone();
        let (run, ()) = h.finish();
        (load, obs, run.log.len() as u64)
    };
    fill.insert(
        "pipeline.intake_wait_mean_ms",
        (intake_wait_ms(&registry), "ms"),
    );
    r.check(
        "ladder server row: acks equal commits, none failed",
        load.outcomes.ok == commits && load.outcomes.failed() == 0,
        format!(
            "{} acks, {commits} commits, {} failed",
            load.outcomes.ok,
            load.outcomes.failed()
        ),
    );
    server_layers(&mut fill, &load, &obs);

    for (k, v) in fill {
        if !observed.contains_key(k) {
            r.layers.insert(k, v);
        }
    }
}

/// Probe, schedule and execute timed on the stream cut into batches of
/// the served mean size.
fn stages(ctx: &Ctx, r: &mut Report, batch: usize) {
    let ops = &ctx.stream[..LADDER_OPS.min(ctx.stream.len())];
    let cfg = PipelineConfig::default();
    let token = fresh(ctx);
    let mut sched = Scheduler::new();
    let (mut probe, mut plan_t, mut exec_t) = (Duration::ZERO, Duration::ZERO, Duration::ZERO);
    for chunk in ops.chunks(batch.max(1)) {
        let t0 = Instant::now();
        black_box(sched.batch_commutes(chunk));
        let t1 = Instant::now();
        let plan = sched.schedule(chunk, &cfg.schedule);
        let t2 = Instant::now();
        black_box(execute(&token, chunk, &plan, &cfg.exec));
        let t3 = Instant::now();
        probe += t1 - t0;
        plan_t += t2 - t1;
        exec_t += t3 - t2;
    }
    let per = |d: Duration| (d.as_nanos() as f64 / ops.len().max(1) as f64, "ns/op");
    r.layers.insert("pipeline.probe_ns_per_op", per(probe));
    r.layers.insert("pipeline.schedule_ns_per_op", per(plan_t));
    r.layers.insert("pipeline.execute_ns_per_op", per(exec_t));
}

/// One request's wire work: encode, frame, header decode, response
/// encode and response decode.
fn codec(ctx: &Ctx, r: &mut Report) {
    let ops: &[(ProcessId, Erc20Op)] = &ctx.stream[..CODEC_OPS.min(ctx.stream.len())];
    let resp = Erc20Resp::TRUE.encode();
    let t0 = Instant::now();
    let frames: Vec<Vec<u8>> = ops
        .iter()
        .enumerate()
        .map(|(i, (c, op))| encode_request(i as u64 + 1, ShardedErc20::STANDARD, *c, op))
        .collect();
    let mut dec = FrameDecoder::new();
    let mut bodies = Vec::with_capacity(frames.len());
    for f in &frames {
        dec.feed(f);
        bodies.push(dec.try_frame().expect("valid frame").expect("whole frame"));
    }
    let mut ids = Vec::with_capacity(bodies.len());
    for b in &bodies {
        let (id, _, _, op) = decode_request_header(b).expect("request header");
        black_box(op);
        ids.push(id);
    }
    let responses: Vec<Vec<u8>> = ids
        .iter()
        .map(|&id| encode_response(id, Status::Ok, Some(&resp)))
        .collect();
    let mut decoded = 0usize;
    for f in &responses {
        let (_, reply) = decode_response::<Erc20Resp>(&f[8..]).expect("response decodes");
        black_box(reply);
        decoded += 1;
    }
    let took = t0.elapsed();
    r.check(
        "codec round trip covers every op",
        decoded == ops.len(),
        format!("{decoded} of {}", ops.len()),
    );
    r.layers.insert(
        "server.codec_ns_per_op",
        (took.as_nanos() as f64 / ops.len().max(1) as f64, "ns/op"),
    );
}

/// The headline cost of a run: `p50_ms` for the open loop (its rate is
/// fixed), time per acknowledged op otherwise.
fn headline(ctx: &Ctx, r: &Report) -> f64 {
    match ctx.workload {
        Workload::OpenCommute => r.e2e_value("p50_ms"),
        _ => 1.0 / r.e2e_value("ok_per_s"),
    }
}

/// The traced run of `ctx`'s workload: half the window untraced, half
/// traced, then the ladder, stage and codec timings.
pub fn traced(ctx: &Ctx, seconds: f64, run: impl Fn(f64, Mode) -> Report) -> Report {
    let base = run(seconds / 2.0, Mode::Base);
    let mut r = run(seconds / 2.0, Mode::Traced);
    r.checks.extend(base.checks.iter().cloned());
    r.validity.extend(base.validity.iter().cloned());
    let observed = r.layers.clone();
    ladder(ctx, &mut r, &observed);
    let batch = r.layers["pipeline.mean_batch_ops"].0.round() as usize;
    stages(ctx, &mut r, batch);
    codec(ctx, &mut r);

    r.layers.insert(
        "trace.overhead_frac",
        (headline(ctx, &r) / headline(ctx, &base) - 1.0, "frac"),
    );
    // One batch (a round, on the replica workload) at the top ladder
    // row's CPU cost per op, over the median latency: the share of it
    // that per-op work explains; the rest is waiting.
    let l = |k: &str| r.layers[k].0;
    let (batch, row) = match ctx.workload {
        Workload::ReplicateQuorum => (ROUND_OPS as f64, "replica.cum_cpu_ns_per_op"),
        Workload::IngestHotrow => (l("pipeline.mean_batch_ops"), "pipeline.cum_cpu_ns_per_op"),
        _ => (l("pipeline.mean_batch_ops"), "server.cum_cpu_ns_per_op"),
    };
    let accounted = batch * l(row) / 1e6 / r.e2e_value("p50_ms");
    r.layers.insert("trace.accounted_frac", (accounted, "frac"));
    r
}
