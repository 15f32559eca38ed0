//! **`standards`** — the standard-generic pipeline baseline behind
//! `BENCH_standards.json`.
//!
//! One engine, three standards: the same schedule/execute/commit
//! machinery serves ERC20, ERC721 and ERC1155 objects, and this binary
//! measures it per standard against direct sharded execution over the
//! same workloads and initial states:
//!
//! * `direct` — threads hammer the standard's lock-striped object
//!   (`ShardedErc20` / `ShardedErc721` / `ShardedErc1155`) with no
//!   commutativity analysis;
//! * `pipeline` — the generic commutativity-aware engine over the same
//!   object: batches are footprint-analyzed, commuting ops execute in
//!   parallel waves, conflicting ops serialize deterministically.
//!
//! Two regimes per standard at n ∈ {1k, 1M}:
//!
//! * `disjoint` — the owner-disjoint fast path (distinct ERC20 sources,
//!   distinct NFT token ids, non-intersecting ERC1155 batch cell sets):
//!   the consensus-free regime of the paper, where the pipeline must
//!   report wave parallelism **> 1** (asserted, per the acceptance
//!   criterion);
//! * `contended` — hot rows: k spenders on one ERC20 allowance row, a
//!   Zipf-hot NFT collection, batches draining one ERC1155 account.
//!
//! ```sh
//! cargo run --release -p tokensync-bench --bin standards             # full (includes n = 1M)
//! cargo run --release -p tokensync-bench --bin standards -- --quick  # CI smoke: n <= 1k
//! cargo run --release -p tokensync-bench --bin standards -- --out path.json
//! ```

use std::sync::Arc;
use std::time::Instant;

use tokensync_bench::harness::run_split;
use tokensync_bench::workloads::{
    disjoint_transfers, erc1155_batch_ops, erc1155_funded_state, funded_state, hot_row_ops,
    hot_row_state, nft_market_state, nft_marketplace_ops,
};
use tokensync_core::shared::{ConcurrentObject, ShardedErc20};
use tokensync_core::standards::erc1155::ShardedErc1155;
use tokensync_core::standards::erc721::ShardedErc721;
use tokensync_pipeline::{run_script, BatchConfig, PipelineConfig, PipelineStats, ScheduleConfig};
use tokensync_spec::ProcessId;

/// Zipf skew of the hot NFT collection (the YCSB hot-spot default).
const THETA_HOT: f64 = 0.99;
/// Spenders contending on the hot ERC20 allowance row.
const HOT_SPENDERS: usize = 8;
/// Share (percent) of ERC1155 batches draining the hot account.
const HOT_BATCHES: usize = 80;
/// ERC1155 token types.
const TYPES: usize = 16;
/// Worker threads for the direct paths and the pipeline's wave pool.
const THREADS: usize = 4;
/// Timed repetitions per cell (min taken, scheduler noise stripped).
const REPS: usize = 3;

struct Cell {
    standard: &'static str,
    n: usize,
    regime: &'static str,
    path: &'static str,
    ops: usize,
    run_ms: f64,
    ops_per_sec: f64,
    pipeline: Option<PipelineStats>,
}

fn ms(from: Instant) -> f64 {
    from.elapsed().as_secs_f64() * 1e3
}

/// One (standard, regime, n) cell pair: direct then pipeline, sharing
/// the object constructor, the workload, and a per-run `verify` hook
/// (supply conservation or its per-standard analogue).
#[allow(clippy::too_many_arguments)]
fn measure<T, B, V>(
    standard: &'static str,
    regime: &'static str,
    n: usize,
    build: B,
    verify: V,
    workload: &[(ProcessId, T::Op)],
    batch: usize,
    out: &mut Vec<Cell>,
) where
    T: ConcurrentObject + 'static,
    B: Fn() -> T,
    V: Fn(&T),
{
    // Direct: threads split the stream, no analysis.
    let mut run_ms = f64::INFINITY;
    for _ in 0..REPS {
        let token = Arc::new(build());
        let start = Instant::now();
        run_split(&token, workload, THREADS);
        run_ms = run_ms.min(ms(start));
        verify(&token);
    }
    push_cell(
        out,
        standard,
        n,
        regime,
        "direct",
        workload.len(),
        run_ms,
        None,
    );

    // Pipeline: the generic engine over the same object.
    let cfg = PipelineConfig {
        batch: BatchConfig {
            max_ops: batch,
            ..BatchConfig::default()
        },
        schedule: ScheduleConfig::default(),
        exec: tokensync_pipeline::ExecConfig { workers: THREADS },
    };
    let mut run_ms = f64::INFINITY;
    let mut stats = PipelineStats::default();
    for _ in 0..REPS {
        let token = build();
        let start = Instant::now();
        let run = run_script(&token, workload, &cfg);
        run_ms = run_ms.min(ms(start));
        verify(&token);
        assert_eq!(run.stats.ops as usize, workload.len(), "ops dropped");
        stats = run.stats;
    }
    if regime == "disjoint" {
        // The acceptance criterion of the standard-generic stack: the
        // owner-disjoint regime exposes wave parallelism on every
        // standard.
        assert!(
            stats.wave_parallelism() > 1.0,
            "{standard}/{regime}: wave parallelism {:.2} <= 1",
            stats.wave_parallelism()
        );
    }
    push_cell(
        out,
        standard,
        n,
        regime,
        "pipeline",
        workload.len(),
        run_ms,
        Some(stats),
    );
}

#[allow(clippy::too_many_arguments)]
fn push_cell(
    out: &mut Vec<Cell>,
    standard: &'static str,
    n: usize,
    regime: &'static str,
    path: &'static str,
    ops: usize,
    run_ms: f64,
    pipeline: Option<PipelineStats>,
) {
    let cell = Cell {
        standard,
        n,
        regime,
        path,
        ops,
        run_ms,
        ops_per_sec: ops as f64 / (run_ms / 1e3),
        pipeline,
    };
    let extra = cell
        .pipeline
        .map(|s| {
            format!(
                " wave-par={:.1} serial={:.0}%",
                s.wave_parallelism(),
                100.0 * s.serial_fraction()
            )
        })
        .unwrap_or_default();
    eprintln!(
        "  {:>7} n={:>9} {:>9} {:>9} run={:>9.1}ms {:>12.0} ops/s{}",
        cell.standard, cell.n, cell.regime, cell.path, cell.run_ms, cell.ops_per_sec, extra
    );
    out.push(cell);
}

fn write_json(path: &str, quick: bool, cells: &[Cell]) {
    let mut rows = String::new();
    for (i, c) in cells.iter().enumerate() {
        let sep = if i + 1 < cells.len() { "," } else { "" };
        let pipeline = c
            .pipeline
            .map(|s| {
                format!(
                    ", \"wave_parallelism\": {:.2}, \"serial_fraction\": {:.4}, \
                     \"waves\": {}, \"batches\": {}",
                    s.wave_parallelism(),
                    s.serial_fraction(),
                    s.waves,
                    s.batches
                )
            })
            .unwrap_or_default();
        rows.push_str(&format!(
            "    {{\"standard\": \"{}\", \"n\": {}, \"regime\": \"{}\", \"path\": \"{}\", \
             \"ops\": {}, \"run_ms\": {:.3}, \"ops_per_sec\": {:.0}{}}}{}\n",
            c.standard, c.n, c.regime, c.path, c.ops, c.run_ms, c.ops_per_sec, pipeline, sep
        ));
    }
    // Summary: pipeline vs direct, per (standard, n, regime).
    let mut summary = String::new();
    let mut keys: Vec<(&'static str, usize, &'static str)> =
        cells.iter().map(|c| (c.standard, c.n, c.regime)).collect();
    keys.dedup();
    for (i, &(standard, n, regime)) in keys.iter().enumerate() {
        let find = |path: &str| {
            cells
                .iter()
                .find(|c| {
                    c.standard == standard && c.n == n && c.regime == regime && c.path == path
                })
                .expect("cell grid is complete")
        };
        let p = find("pipeline");
        let sep = if i + 1 < keys.len() { "," } else { "" };
        summary.push_str(&format!(
            "    {{\"standard\": \"{standard}\", \"n\": {n}, \"regime\": \"{regime}\", \
             \"pipeline_over_direct\": {:.3}, \"wave_parallelism\": {:.2}, \
             \"serial_fraction\": {:.4}}}{sep}\n",
            p.ops_per_sec / find("direct").ops_per_sec,
            p.pipeline.map(|s| s.wave_parallelism()).unwrap_or(0.0),
            p.pipeline.map(|s| s.serial_fraction()).unwrap_or(0.0),
        ));
    }
    // The shared host object carries the single-core caveat (see
    // bench::harness::host_json): identical wording in every artifact.
    let host = tokensync_bench::harness::host_json();
    let json = format!(
        "{{\n  \"bench\": \"standards\",\n  {host},\n  \"config\": {{\"quick\": {quick}, \
         \"theta_hot\": {THETA_HOT}, \"hot_spenders\": {HOT_SPENDERS}, \
         \"hot_batches_percent\": {HOT_BATCHES}, \"types\": {TYPES}, \
         \"threads\": {THREADS}}},\n  \
         \"runs\": [\n{rows}  ],\n  \"summary\": [\n{summary}  ]\n}}\n"
    );
    std::fs::write(path, json).expect("write benchmark JSON");
    eprintln!("wrote {path}");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .unwrap_or("BENCH_standards.json")
        .to_owned();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!("usage: standards [--quick] [--out PATH]");
        return;
    }

    let sizes: &[(usize, usize)] = if quick {
        &[(64, 20_000), (1_000, 50_000)]
    } else {
        &[(1_000, 1_000_000), (1_000_000, 1_000_000)]
    };

    let mut cells = Vec::new();
    for &(n, ops) in sizes {
        // Batch bounded by n/2 so a disjoint-regime batch can be fully
        // conflict-free (the generators' window guarantee).
        let batch = (n / 2).clamp(1, 1024);
        eprintln!("generating workloads: n={n}, ops={ops}, batch={batch}");

        // ── ERC20 ───────────────────────────────────────────────────
        {
            let initial = funded_state(n);
            let supply = initial.total_supply();
            let workload = disjoint_transfers(n, ops, 0xD15);
            measure(
                "erc20",
                "disjoint",
                n,
                || ShardedErc20::from_state(initial.clone()),
                |t: &ShardedErc20| {
                    assert_eq!(t.snapshot().total_supply(), supply, "erc20 lost tokens")
                },
                &workload,
                batch,
                &mut cells,
            );
            let initial = hot_row_state(n, HOT_SPENDERS);
            let supply = initial.total_supply();
            let workload = hot_row_ops(n, ops, 0x407, HOT_SPENDERS);
            measure(
                "erc20",
                "contended",
                n,
                || ShardedErc20::from_state(initial.clone()),
                |t: &ShardedErc20| {
                    assert_eq!(t.snapshot().total_supply(), supply, "erc20 lost tokens")
                },
                &workload,
                batch,
                &mut cells,
            );
        }

        // ── ERC721 (n = token-id space; marketplace traffic) ────────
        {
            let initial = nft_market_state(n, n);
            let minted_floor = initial.minted();
            // theta = 0: uniform token ids — the owner-disjoint regime.
            let workload = nft_marketplace_ops(n, n, ops, 0x721, 0.0);
            measure(
                "erc721",
                "disjoint",
                n,
                || ShardedErc721::from_state(initial.clone()),
                |t: &ShardedErc721| {
                    assert!(t.snapshot().minted() >= minted_floor, "erc721 lost tokens")
                },
                &workload,
                batch,
                &mut cells,
            );
            // theta = 0.99: one hot collection head — conflict chains.
            let workload = nft_marketplace_ops(n, n, ops, 0x721F, THETA_HOT);
            measure(
                "erc721",
                "contended",
                n,
                || ShardedErc721::from_state(initial.clone()),
                |t: &ShardedErc721| {
                    assert!(t.snapshot().minted() >= minted_floor, "erc721 lost tokens")
                },
                &workload,
                batch,
                &mut cells,
            );
        }

        // ── ERC1155 (n accounts × TYPES types; batch transfers) ─────
        {
            let initial = erc1155_funded_state(n, TYPES);
            let supplies: Vec<u64> = (0..TYPES)
                .map(|t| initial.total_supply(tokensync_core::standards::erc1155::TypeId::new(t)))
                .collect();
            // Recount from the live balances — comparing the cached
            // constants against themselves would be vacuous.
            let check = move |t: &ShardedErc1155| {
                assert_eq!(t.audit_supplies(), supplies, "erc1155 lost tokens");
            };
            let workload = erc1155_batch_ops(n, TYPES, ops, 0x1155, 0);
            measure(
                "erc1155",
                "disjoint",
                n,
                || ShardedErc1155::from_state(initial.clone()),
                &check,
                &workload,
                batch,
                &mut cells,
            );
            let workload = erc1155_batch_ops(n, TYPES, ops, 0x1155F, HOT_BATCHES);
            measure(
                "erc1155",
                "contended",
                n,
                || ShardedErc1155::from_state(initial.clone()),
                &check,
                &workload,
                batch,
                &mut cells,
            );
        }
    }
    write_json(&out, quick, &cells);
}
