//! **`replica`** — the replication overhead artifact behind
//! `BENCH_replica.json`.
//!
//! Measures what shipping the WAL to followers costs on top of local
//! durability, and how fast a lagging follower catches back up, on the
//! same ERC20 Zipf workload the other artifacts use:
//!
//! * **ingest** — serve + one full replication round (3-node cluster,
//!   quorum acks) against two unreplicated baselines, `volatile` (the
//!   unit sink `()`) and `group-commit` (the store sink) — the
//!   replication column divided by the unreplicated column is the
//!   price of surviving machine loss;
//! * **catch-up** — a follower of a large-state cluster (1M accounts
//!   full, 10k quick) is crashed, misses a stretch of traffic, then
//!   restarts: wall-clock until it is back in byte-identical sync from
//!   the log suffix.
//!
//! The replicated rows also carry the cluster's replication-health
//! telemetry — per-follower ack lag after the round plus the primary's
//! retransmission/down-mark/snapshot-ship/reinvite counters — and the
//! catch-up row records the lag the dead follower had accumulated
//! before rejoining.
//!
//! ```sh
//! cargo run --release -p tokensync-bench --bin replica             # full (includes n = 1M)
//! cargo run --release -p tokensync-bench --bin replica -- --quick  # CI smoke
//! cargo run --release -p tokensync-bench --bin replica -- --out path.json
//! ```

use std::path::{Path, PathBuf};
use std::time::Instant;

use tokensync_bench::harness::host_json;
use tokensync_bench::workloads::{funded_state, zipf_ops};
use tokensync_core::shared::ShardedErc20;
use tokensync_pipeline::{run_script, run_script_with_sink, BatchConfig, PipelineConfig};
use tokensync_replica::{Cluster, ReplicaConfig, ReplicationStats};
use tokensync_store::{Store, StoreConfig};

/// Zipf skew of the workload (the YCSB default the other benches use).
const THETA: f64 = 0.6;
/// Timed repetitions per cell (min taken).
const REPS: usize = 3;
/// Cluster size: one primary, two followers.
const NODES: usize = 3;

struct IngestCell {
    n: usize,
    mode: &'static str,
    policy: &'static str,
    ops: usize,
    run_ms: f64,
    ops_per_sec: f64,
    /// Replication-health counters + worst follower lag after the round
    /// (replicated rows only; a healthy round should show all zeros).
    repl: Option<(ReplicationStats, u64)>,
}

struct CatchUpCell {
    n: usize,
    missed_ops: u64,
    catch_up_ms: f64,
    ops_per_sec: f64,
    /// Ack lag the dead follower had accumulated before rejoining.
    lag_before: u64,
    /// Primary counters after the catch-up round: retransmissions spent
    /// probing the corpse, the down-mark, and the reinvite that healed it.
    stats: ReplicationStats,
}

fn ms(from: Instant) -> f64 {
    from.elapsed().as_secs_f64() * 1e3
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "tokensync-bench-replica-{tag}-{}",
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

fn replica_cfg(n: usize) -> ReplicaConfig {
    ReplicaConfig {
        pipeline: pipeline_cfg(n),
        ..ReplicaConfig::default()
    }
}

fn push_ingest(
    out: &mut Vec<IngestCell>,
    n: usize,
    mode: &'static str,
    policy: &'static str,
    ops: usize,
    run_ms: f64,
    repl: Option<(ReplicationStats, u64)>,
) {
    let cell = IngestCell {
        n,
        mode,
        policy,
        ops,
        run_ms,
        ops_per_sec: ops as f64 / (run_ms / 1e3),
        repl,
    };
    eprint!(
        "  ingest n={:>9} {:>12}/{:>12} run={:>9.1}ms {:>12.0} ops/s",
        cell.n, cell.mode, cell.policy, cell.run_ms, cell.ops_per_sec
    );
    if let Some((stats, max_lag)) = cell.repl {
        eprint!(
            " retx={} down={} lag={max_lag}",
            stats.retransmissions, stats.down_marks
        );
    }
    eprintln!();
    out.push(cell);
}

fn measure_ingest(n: usize, ops: usize, ingest: &mut Vec<IngestCell>) {
    let initial = funded_state(n);
    let workload = zipf_ops(n, ops, 0x4E_7A, THETA);
    let cfg = pipeline_cfg(n);

    // Baselines on one machine, nothing shipped: `volatile` is the
    // engine with no persistence at all, `group-commit` the store sink —
    // the local-durability serving mode replication builds on.
    let mut best = f64::INFINITY;
    for _ in 0..REPS {
        let token = ShardedErc20::from_state(initial.clone());
        let start = Instant::now();
        let run = run_script(&token, &workload, &cfg);
        best = best.min(ms(start));
        assert_eq!(run.stats.ops as usize, workload.len());
    }
    push_ingest(ingest, n, "unreplicated", "volatile", ops, best, None);

    let mut best = f64::INFINITY;
    for rep in 0..REPS {
        let dir = scratch(&format!("solo-{n}-{rep}"));
        let token = ShardedErc20::from_state(initial.clone());
        let mut store: Store<ShardedErc20> =
            Store::create(&dir, &initial, StoreConfig::default()).expect("create store");
        let start = Instant::now();
        let run = run_script_with_sink(&token, &workload, &cfg, &mut store);
        best = best.min(ms(start));
        assert_eq!(run.stats.ops as usize, workload.len());
        store.close().expect("store close");
        let _ = std::fs::remove_dir_all(dir);
    }
    push_ingest(ingest, n, "unreplicated", "group-commit", ops, best, None);

    // Replicated: serve on the primary, then drain one full replication
    // round so every follower holds and applied the records — the
    // measured window includes shipping, follower fsyncs and quorum
    // acks.
    let mut best = f64::INFINITY;
    let mut repl = None;
    for rep in 0..REPS {
        let base = scratch(&format!("cluster-{n}-{rep}"));
        let mut cluster: Cluster<ShardedErc20> =
            Cluster::new(&base, NODES, &initial, replica_cfg(n), 7).expect("build cluster");
        let start = Instant::now();
        let run = cluster.serve(&workload);
        cluster.pump();
        best = best.min(ms(start));
        assert_eq!(run.stats.ops as usize, workload.len());
        assert_eq!(cluster.durable_seq(), workload.len() as u64);
        let max_lag = cluster.follower_lags().into_iter().max().unwrap_or(0);
        repl = Some((cluster.replication_stats(), max_lag));
        let _ = std::fs::remove_dir_all(base);
    }
    push_ingest(ingest, n, "replicated", "group-commit", ops, best, repl);
}

fn measure_catch_up(n: usize, missed: usize, out: &mut Vec<CatchUpCell>) {
    let initial = funded_state(n);
    let workload = zipf_ops(n, missed, 0x11_B5, THETA);
    let base = scratch(&format!("catchup-{n}"));
    let mut cluster: Cluster<ShardedErc20> =
        Cluster::new(&base, NODES, &initial, replica_cfg(n), 13).expect("build cluster");

    // The follower goes dark, misses the whole stretch, and returns.
    cluster.crash(2);
    cluster.serve(&workload);
    cluster.pump();
    let lag_before = cluster.follower_lags()[2];
    let start = Instant::now();
    cluster.restart(2);
    cluster.pump();
    let catch_up_ms = ms(start);
    assert_eq!(cluster.node(2).next_seq(), missed as u64, "caught up");
    assert!(cluster.node(2).state() == cluster.node(0).state());
    let stats = cluster.replication_stats();
    let _ = std::fs::remove_dir_all(base);

    let cell = CatchUpCell {
        n,
        missed_ops: missed as u64,
        catch_up_ms,
        ops_per_sec: missed as f64 / (catch_up_ms / 1e3),
        lag_before,
        stats,
    };
    eprintln!(
        "  catch-up n={:>9} missed={:>8} {:>9.1}ms {:>12.0} ops/s \
         lag-before={} retx={} reinvites={}",
        cell.n,
        cell.missed_ops,
        cell.catch_up_ms,
        cell.ops_per_sec,
        cell.lag_before,
        cell.stats.retransmissions,
        cell.stats.reinvites
    );
    out.push(cell);
}

fn write_json(path: &Path, quick: bool, ingest: &[IngestCell], catch_up: &[CatchUpCell]) {
    let stats_json = |s: &ReplicationStats| {
        format!(
            "\"retransmissions\": {}, \"down_marks\": {}, \
             \"snapshot_ships\": {}, \"reinvites\": {}",
            s.retransmissions, s.down_marks, s.snapshot_ships, s.reinvites
        )
    };
    let mut rows = String::new();
    for (i, c) in ingest.iter().enumerate() {
        let sep = if i + 1 < ingest.len() { "," } else { "" };
        let repl = match &c.repl {
            Some((stats, max_lag)) => {
                format!(", {}, \"max_follower_lag\": {max_lag}", stats_json(stats))
            }
            None => String::new(),
        };
        rows.push_str(&format!(
            "    {{\"n\": {}, \"mode\": \"{}\", \"policy\": \"{}\", \"ops\": {}, \
             \"run_ms\": {:.3}, \"ops_per_sec\": {:.0}{repl}}}{sep}\n",
            c.n, c.mode, c.policy, c.ops, c.run_ms, c.ops_per_sec
        ));
    }
    let mut catches = String::new();
    for (i, c) in catch_up.iter().enumerate() {
        let sep = if i + 1 < catch_up.len() { "," } else { "" };
        catches.push_str(&format!(
            "    {{\"n\": {}, \"missed_ops\": {}, \"catch_up_ms\": {:.3}, \
             \"ops_per_sec\": {:.0}, \"lag_before\": {}, {}}}{sep}\n",
            c.n,
            c.missed_ops,
            c.catch_up_ms,
            c.ops_per_sec,
            c.lag_before,
            stats_json(&c.stats)
        ));
    }
    // Summary: replication throughput relative to each unreplicated
    // durability baseline, per n.
    let mut summary = String::new();
    let mut ns: Vec<usize> = ingest.iter().map(|c| c.n).collect();
    ns.dedup();
    for (i, &n) in ns.iter().enumerate() {
        let find = |mode: &str, policy: &str| {
            ingest
                .iter()
                .find(|c| c.n == n && c.policy == policy && c.mode == mode)
                .expect("ingest grid complete")
        };
        let replicated = find("replicated", "group-commit").ops_per_sec;
        let sep = if i + 1 < ns.len() { "," } else { "" };
        summary.push_str(&format!(
            "    {{\"n\": {n}, \"replicated_over_volatile\": {:.3}, \
             \"replicated_over_group_commit\": {:.3}}}{sep}\n",
            replicated / find("unreplicated", "volatile").ops_per_sec,
            replicated / find("unreplicated", "group-commit").ops_per_sec
        ));
    }
    let host = host_json();
    let json = format!(
        "{{\n  \"bench\": \"replica\",\n  {host},\n  \"config\": {{\"quick\": {quick}, \
         \"theta\": {THETA}, \"nodes\": {NODES}, \"ack_mode\": \"quorum\", \
         \"durabilities\": [\"volatile\", \"group-commit\"]}},\n  \
         \"runs\": [\n{rows}  ],\n  \"catch_up\": [\n{catches}  ],\n  \
         \"summary\": [\n{summary}  ]\n}}\n"
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
        .unwrap_or("BENCH_replica.json")
        .to_owned();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!("usage: replica [--quick] [--out PATH]");
        return;
    }

    let sizes: &[(usize, usize)] = if quick {
        &[(64, 20_000), (1_000, 50_000)]
    } else {
        &[(1_000, 200_000), (1_000_000, 200_000)]
    };
    let catch_up_sizes: &[(usize, usize)] = if quick {
        &[(10_000, 20_000)]
    } else {
        &[(1_000_000, 100_000)]
    };

    let mut ingest = Vec::new();
    let mut catch_up = Vec::new();
    for &(n, ops) in sizes {
        eprintln!("n={n}, ops={ops}");
        measure_ingest(n, ops, &mut ingest);
    }
    for &(n, missed) in catch_up_sizes {
        eprintln!("catch-up n={n}, missed={missed}");
        measure_catch_up(n, missed, &mut catch_up);
    }
    write_json(Path::new(&out), quick, &ingest, &catch_up);
}
