//! **`store`** — the durability baseline behind `BENCH_store.json`.
//!
//! Measures what crash-safety costs and what recovery buys, on the same
//! ERC20 Zipf workload the other artifacts use, at n ∈ {1k, 1M}:
//!
//! * **ingest** — pipeline throughput `volatile` (the unit sink `()`:
//!   nothing persisted) against `group-commit` (the store sink: one WAL
//!   record per batch, fsyncs coalesced on the durability thread behind
//!   the `durable_seq()` watermark, delta snapshots published off the
//!   hot path). The durable row times run **plus `flush()`**, so its
//!   number is "all ops durable", not "acknowledged but in flight";
//! * **recovery** — wall-clock to rebuild a live `ShardedErc20` from
//!   the durable run's directory, split into `snapshot_load_ms`
//!   (chain resolution: full snapshot + delta links) and `replay_ms`
//!   (verified WAL replay through the sequential oracle), one row per
//!   size, with the recovered state asserted equal to the pre-crash
//!   object on every invocation.
//!
//! Every durable run carries a live `StoreObs` recorder, so the durable
//! row also reports the WAL I/O it actually did — fsyncs, bytes,
//! records, segment rolls, full + delta snapshots — and the
//! append/fsync latency percentiles (p50/p99/p999).
//!
//! ```sh
//! cargo run --release -p tokensync-bench --bin store             # full (includes n = 1M)
//! cargo run --release -p tokensync-bench --bin store -- --quick  # CI smoke: n <= 1k
//! cargo run --release -p tokensync-bench --bin store -- --out path.json
//! cargo run --release -p tokensync-bench --bin store -- --quick --assert-recovery-rate 100000
//! ```
//!
//! `--assert-recovery-rate RATE` turns the bench into a CI gate: it
//! exits nonzero unless every recovery row rebuilt at or above
//! `RATE` operations per second.

use std::path::{Path, PathBuf};
use std::time::Instant;

use tokensync_bench::harness::host_json;
use tokensync_bench::workloads::{funded_state, zipf_ops};
use tokensync_core::erc20::{Erc20Op, Erc20State};
use tokensync_core::shared::{ConcurrentObject, ShardedErc20};
use tokensync_obs::{HistogramSnapshot, Registry};
use tokensync_pipeline::{
    run_script, run_script_with_sink, BatchConfig, PipelineConfig, PipelineRun,
};
use tokensync_spec::ProcessId;
use tokensync_store::{recover, Recovered, Store, StoreConfig, StoreObs};

/// Zipf skew of the workload (the YCSB default the other benches use).
const THETA: f64 = 0.6;
/// Timed repetitions per cell (min taken).
const REPS: usize = 3;

/// WAL/snapshot I/O a durable run performed, read off its [`StoreObs`].
struct IoStats {
    fsyncs: u64,
    bytes_appended: u64,
    records_appended: u64,
    segments_created: u64,
    snapshots: u64,
    delta_snapshots: u64,
    append: HistogramSnapshot,
    fsync: HistogramSnapshot,
}

impl IoStats {
    fn read(obs: &StoreObs) -> Self {
        Self {
            fsyncs: obs.fsyncs(),
            bytes_appended: obs.bytes_appended(),
            records_appended: obs.records_appended(),
            segments_created: obs.segments_created(),
            snapshots: obs.snapshots_taken(),
            delta_snapshots: obs.delta_snapshots_taken(),
            append: obs.append_latency().expect("recorder enabled"),
            fsync: obs.fsync_latency().expect("recorder enabled"),
        }
    }
}

struct IngestCell {
    n: usize,
    policy: &'static str,
    ops: usize,
    run_ms: f64,
    ops_per_sec: f64,
    wal_bytes: u64,
    /// I/O counters + latency percentiles (None for the volatile row).
    io: Option<IoStats>,
}

struct RecoveryCell {
    n: usize,
    ops: usize,
    recover_ms: f64,
    snapshot_load_ms: f64,
    replay_ms: f64,
    replayed: u64,
    snapshot_watermark: u64,
    delta_links: u64,
    wal_bytes: u64,
}

fn ms(from: Instant) -> f64 {
    from.elapsed().as_secs_f64() * 1e3
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "tokensync-bench-store-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn pipeline_cfg(n: usize) -> PipelineConfig {
    PipelineConfig {
        batch: BatchConfig {
            max_ops: (n / 2).clamp(1, 1024),
            ..BatchConfig::default()
        },
        ..PipelineConfig::default()
    }
}

fn store_cfg(ops: usize) -> StoreConfig {
    StoreConfig {
        // A handful of snapshots per run: recovery loads the last one
        // and replays the tail, like a long-lived server would. The odd
        // offset keeps the last snapshot off the exact end of the run,
        // so the recovery measurement always includes real replay.
        snapshot_every_ops: (ops as u64 / 4 + 137).max(1),
        ..StoreConfig::default()
    }
}

/// One durable ingest run; returns the run, the durable wall time
/// (run + `flush()`, excluding store creation — the genesis snapshot
/// is a one-time deploy cost, not ingest), the store dir (kept for
/// recovery) and the WAL size.
fn durable_run(
    tag: &str,
    initial: &Erc20State,
    workload: &[(ProcessId, Erc20Op)],
    cfg: &PipelineConfig,
) -> (
    PipelineRun<Erc20Op, tokensync_core::erc20::Erc20Resp>,
    f64,
    PathBuf,
    u64,
    IoStats,
) {
    let dir = scratch(tag);
    let token = ShardedErc20::from_state(initial.clone());
    let mut store: Store<ShardedErc20> =
        Store::create(&dir, initial, store_cfg(workload.len())).expect("create store");
    store.set_obs(StoreObs::new(&Registry::new()));
    let start = Instant::now();
    let run = run_script_with_sink(&token, workload, cfg, &mut store);
    store.flush().expect("all committed ops reach disk");
    let run_ms = ms(start);
    let wal_bytes = store.wal_bytes().expect("wal size");
    let io = IoStats::read(store.obs());
    store.close().expect("store close");
    (run, run_ms, dir, wal_bytes, io)
}

fn push_ingest(
    out: &mut Vec<IngestCell>,
    n: usize,
    policy: &'static str,
    ops: usize,
    run_ms: f64,
    wal_bytes: u64,
    io: Option<IoStats>,
) {
    let cell = IngestCell {
        n,
        policy,
        ops,
        run_ms,
        ops_per_sec: ops as f64 / (run_ms / 1e3),
        wal_bytes,
        io,
    };
    let extra = cell
        .io
        .as_ref()
        .map(|io| {
            format!(
                " fsyncs={} snaps={}+{}d fsync-p99={}ns append-p99={}ns",
                io.fsyncs, io.snapshots, io.delta_snapshots, io.fsync.p99, io.append.p99
            )
        })
        .unwrap_or_default();
    eprintln!(
        "  ingest n={:>9} {:>24} run={:>9.1}ms {:>12.0} ops/s wal={:>10} B{}",
        cell.n, cell.policy, cell.run_ms, cell.ops_per_sec, cell.wal_bytes, extra
    );
    out.push(cell);
}

/// The best (minimum-total) recovery rep, with the load/replay split
/// taken from that same rep.
struct RecMeasure {
    recover_ms: f64,
    snapshot_load_ms: f64,
    replay_ms: f64,
    replayed: u64,
    snapshot_watermark: u64,
    delta_links: u64,
}

/// One timed recovery, asserted against the oracle. Returns the
/// condensed measurement so the (large) recovered object drops before
/// the next rep runs.
fn timed_recovery(dir: &Path, expected_state: &Erc20State, workload_len: usize) -> RecMeasure {
    let start = Instant::now();
    let recovered: Recovered<ShardedErc20> = recover(dir).expect("recovery succeeds");
    let took = ms(start);
    // Acceptance: the recovered state is exactly the pre-crash state
    // (the full prefix — nothing was torn here).
    assert_eq!(recovered.next_seq as usize, workload_len);
    assert_eq!(&recovered.state, expected_state);
    assert_eq!(&recovered.object.snapshot(), expected_state);
    RecMeasure {
        recover_ms: took,
        snapshot_load_ms: recovered.snapshot_load.as_secs_f64() * 1e3,
        replay_ms: recovered.replay.as_secs_f64() * 1e3,
        replayed: recovered.replayed,
        snapshot_watermark: recovered.snapshot_watermark,
        delta_links: recovered.delta_links,
    }
}

fn measure(n: usize, ops: usize, ingest: &mut Vec<IngestCell>, recovery: &mut Vec<RecoveryCell>) {
    let initial = funded_state(n);
    let workload = zipf_ops(n, ops, 0x57_0E, THETA);
    let cfg = pipeline_cfg(n);

    // Volatile reference: the engine with no sink at all.
    let mut best = f64::INFINITY;
    for _ in 0..REPS {
        let token = ShardedErc20::from_state(initial.clone());
        let start = Instant::now();
        let run = run_script(&token, &workload, &cfg);
        best = best.min(ms(start));
        assert_eq!(run.stats.ops as usize, workload.len());
    }
    push_ingest(ingest, n, "volatile", ops, best, 0, None);

    // The store sink; its last run's directory is kept for recovery.
    let mut best = f64::INFINITY;
    let mut wal_bytes = 0;
    let mut io = None;
    let mut keep: Option<(PathBuf, Erc20State)> = None;
    for rep in 0..REPS {
        let (run, run_ms, dir, bytes, rep_io) = durable_run(
            &format!("group-commit-{n}-{rep}"),
            &initial,
            &workload,
            &cfg,
        );
        best = best.min(run_ms);
        wal_bytes = bytes;
        io = Some(rep_io);
        assert_eq!(run.stats.ops as usize, workload.len());
        let token_state = run
            .log
            .replay(&tokensync_core::erc20::Erc20Spec::new(initial.clone()))
            .expect("commit log replays");
        if let Some((old, _)) = keep.replace((dir, token_state)) {
            let _ = std::fs::remove_dir_all(old);
        }
    }
    push_ingest(ingest, n, "group-commit", ops, best, wal_bytes, io);

    let (dir, expected_state) = keep.expect("at least one rep");
    // Recovery: rebuild the live object from disk alone. One untimed
    // warm-up first, so every timed rep sees the same page-cache and
    // allocator state instead of the first rep paying the cold-read
    // cost alone.
    drop(recover::<ShardedErc20>(&dir).expect("warm-up recovery"));
    let mut best: Option<RecMeasure> = None;
    for _ in 0..REPS {
        let m = timed_recovery(&dir, &expected_state, workload.len());
        if best.as_ref().is_none_or(|b| m.recover_ms < b.recover_ms) {
            best = Some(m);
        }
    }
    let m = best.expect("at least one rep");
    let cell = RecoveryCell {
        n,
        ops,
        recover_ms: m.recover_ms,
        snapshot_load_ms: m.snapshot_load_ms,
        replay_ms: m.replay_ms,
        replayed: m.replayed,
        snapshot_watermark: m.snapshot_watermark,
        delta_links: m.delta_links,
        wal_bytes,
    };
    eprintln!(
        "  recover n={:>8} {:>9.1}ms (chain@{} +{}d load={:.1}ms, {} replayed in {:.1}ms)",
        cell.n,
        cell.recover_ms,
        cell.snapshot_watermark,
        cell.delta_links,
        cell.snapshot_load_ms,
        cell.replayed,
        cell.replay_ms,
    );
    recovery.push(cell);
    let _ = std::fs::remove_dir_all(dir);
}

fn write_json(path: &Path, quick: bool, ingest: &[IngestCell], recovery: &[RecoveryCell]) {
    let mut rows = String::new();
    for (i, c) in ingest.iter().enumerate() {
        let sep = if i + 1 < ingest.len() { "," } else { "" };
        let io =
            c.io.as_ref()
                .map(|io| {
                    format!(
                        ", \"fsyncs\": {}, \"bytes_appended\": {}, \"records_appended\": {}, \
                     \"segments_created\": {}, \"snapshots\": {}, \"delta_snapshots\": {}, \
                     \"append_p50_ns\": {}, \"append_p99_ns\": {}, \"append_p999_ns\": {}, \
                     \"fsync_p50_ns\": {}, \"fsync_p99_ns\": {}, \"fsync_p999_ns\": {}",
                        io.fsyncs,
                        io.bytes_appended,
                        io.records_appended,
                        io.segments_created,
                        io.snapshots,
                        io.delta_snapshots,
                        io.append.p50,
                        io.append.p99,
                        io.append.p999,
                        io.fsync.p50,
                        io.fsync.p99,
                        io.fsync.p999
                    )
                })
                .unwrap_or_default();
        rows.push_str(&format!(
            "    {{\"n\": {}, \"policy\": \"{}\", \"ops\": {}, \"run_ms\": {:.3}, \
             \"ops_per_sec\": {:.0}, \"wal_bytes\": {}{io}}}{sep}\n",
            c.n, c.policy, c.ops, c.run_ms, c.ops_per_sec, c.wal_bytes
        ));
    }
    let mut recs = String::new();
    for (i, c) in recovery.iter().enumerate() {
        let sep = if i + 1 < recovery.len() { "," } else { "" };
        recs.push_str(&format!(
            "    {{\"n\": {}, \"ops\": {}, \"recover_ms\": {:.3}, \
             \"snapshot_load_ms\": {:.3}, \"replay_ms\": {:.3}, \"replayed\": {}, \
             \"snapshot_watermark\": {}, \"delta_links\": {}, \"wal_bytes\": {}}}{sep}\n",
            c.n,
            c.ops,
            c.recover_ms,
            c.snapshot_load_ms,
            c.replay_ms,
            c.replayed,
            c.snapshot_watermark,
            c.delta_links,
            c.wal_bytes
        ));
    }
    // Summary: the price of durability (group commit over volatile) and
    // recovery throughput, per n.
    let mut summary = String::new();
    let ns: Vec<usize> = {
        let mut ns: Vec<usize> = ingest.iter().map(|c| c.n).collect();
        ns.dedup();
        ns
    };
    for (i, &n) in ns.iter().enumerate() {
        let find = |policy: &str| {
            ingest
                .iter()
                .find(|c| c.n == n && c.policy == policy)
                .expect("ingest grid complete")
        };
        let rec = recovery.iter().find(|c| c.n == n).expect("recovery cell");
        let sep = if i + 1 < ns.len() { "," } else { "" };
        summary.push_str(&format!(
            "    {{\"n\": {n}, \"group_commit_over_volatile\": {:.3}, \"recover_ms\": {:.3}, \
             \"recovered_ops_per_sec\": {:.0}}}{sep}\n",
            find("group-commit").ops_per_sec / find("volatile").ops_per_sec,
            rec.recover_ms,
            rec.ops as f64 / (rec.recover_ms / 1e3),
        ));
    }
    let host = host_json();
    let json = format!(
        "{{\n  \"bench\": \"store\",\n  {host},\n  \"config\": {{\"quick\": {quick}, \
         \"theta\": {THETA}, \"durabilities\": [\"volatile\", \"group-commit\"]}},\n  \
         \"runs\": [\n{rows}  ],\n  \"recovery\": [\n{recs}  ],\n  \"summary\": [\n{summary}  ]\n}}\n"
    );
    std::fs::write(path, json).expect("write benchmark JSON");
    eprintln!("wrote {}", path.display());
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .unwrap_or("BENCH_store.json")
        .to_owned();
    let assert_rate = args
        .iter()
        .position(|a| a == "--assert-recovery-rate")
        .and_then(|i| args.get(i + 1))
        .map(|v| {
            v.parse::<f64>()
                .expect("--assert-recovery-rate takes ops/s")
        });
    if args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!("usage: store [--quick] [--out PATH] [--assert-recovery-rate OPS_PER_SEC]");
        return;
    }

    let sizes: &[(usize, usize)] = if quick {
        &[(64, 20_000), (1_000, 50_000)]
    } else {
        &[(1_000, 200_000), (1_000_000, 200_000)]
    };

    let mut ingest = Vec::new();
    let mut recovery = Vec::new();
    for &(n, ops) in sizes {
        eprintln!("n={n}, ops={ops}");
        measure(n, ops, &mut ingest, &mut recovery);
    }
    write_json(Path::new(&out), quick, &ingest, &recovery);

    if let Some(rate) = assert_rate {
        let mut failed = false;
        for c in &recovery {
            let got = c.ops as f64 / (c.recover_ms / 1e3);
            if got < rate {
                eprintln!(
                    "FAIL: recovery rate gate: n={} rebuilt {:.0} ops/s < required {rate:.0}",
                    c.n, got
                );
                failed = true;
            } else {
                eprintln!(
                    "recovery rate gate: n={} rebuilt {:.0} ops/s >= {rate:.0}",
                    c.n, got
                );
            }
        }
        if failed {
            std::process::exit(1);
        }
    }
}
