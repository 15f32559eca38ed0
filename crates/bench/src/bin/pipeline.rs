//! **`pipeline`** — the reproducible pipeline baseline behind
//! `BENCH_pipeline.json`.
//!
//! Compares three execution paths over the same workloads and initial
//! states:
//!
//! * `coarse-direct` — threads hammer the one-big-lock token directly;
//! * `sharded-direct` — threads hammer the lock-striped token directly
//!   (the PR-2 fast path: parallel, but blind to commutativity — every
//!   op still takes its shard locks, conflicts just collide there);
//! * `pipeline` — the commutativity-aware engine over the sharded token:
//!   batches are conflict-analyzed, commuting ops execute in parallel
//!   waves, conflicting ops serialize deterministically, and a commit
//!   log records the linearization.
//!
//! Three regimes at n ∈ {1k, 1M}: `disjoint` (owner-disjoint transfers —
//! the consensus-free fast path, where the pipeline should report wave
//! parallelism ≈ batch size), `zipf` (hot-account mixed traffic), and
//! `hotrow` (k spenders racing one shared allowance row — the `Q_k`
//! regime where almost nothing commutes and the serial lane dominates).
//! For the pipeline rows the JSON also records the measured wave
//! parallelism, serial fraction, and the adaptive-bypass counters, so
//! the conflict-dependence of the engine is visible in the artifact,
//! not just its throughput. The bench *asserts* the bypass contract:
//! disjoint traffic must ride the bypass on (nearly) every batch, and
//! the hot-row regime must never engage it. The `prior` object embeds
//! the previous PR's pipeline numbers (same host) so the before/after
//! is part of the artifact.
//!
//! Each pipeline cell is measured twice: with the recorder seam
//! **disabled** (path `pipeline` — comparable to history, the seam
//! costs one untaken branch per site) and **enabled** (path
//! `pipeline-obs` — per-stage and whole-batch latency histograms on).
//! The enabled rows carry the batch-latency percentiles
//! (`batch_p50_ns`/`p99`/`p999`), the summary carries the within-run
//! enabled/disabled throughput ratio (`obs_over_pipeline`), and
//! `--assert-obs-overhead PCT` gates that ratio — an in-run comparison,
//! so it holds on any host, unlike cross-run deltas.
//!
//! ```sh
//! cargo run --release -p tokensync-bench --bin pipeline             # full (includes n = 1M)
//! cargo run --release -p tokensync-bench --bin pipeline -- --quick  # CI smoke: n <= 1k
//! cargo run --release -p tokensync-bench --bin pipeline -- --out path.json
//! cargo run --release -p tokensync-bench --bin pipeline -- --quick --assert-min-ratio 0.1
//! cargo run --release -p tokensync-bench --bin pipeline -- --quick --assert-obs-overhead 5 \
//!     --metrics-out METRICS_pipeline.prom
//! ```

use std::sync::Arc;
use std::time::Instant;

use tokensync_bench::harness::run_split;
use tokensync_bench::workloads::{
    disjoint_transfers, funded_state, hot_row_ops, hot_row_state, zipf_ops,
};
use tokensync_core::erc20::{Erc20Op, Erc20State};
use tokensync_core::shared::{CoarseErc20, ConcurrentToken, ShardedErc20};
use tokensync_obs::{HistogramSnapshot, Registry};
use tokensync_pipeline::{
    run_script, run_script_observed, BatchConfig, PipelineConfig, PipelineObs, PipelineStats,
    ScheduleConfig,
};
use tokensync_spec::ProcessId;

/// Zipf skew of the mixed regime (the YCSB hot-spot default).
const THETA: f64 = 0.99;
/// Spenders contending on the hot allowance row.
const HOT_SPENDERS: usize = 8;
/// Worker threads for the direct paths and the pipeline's wave pool.
const THREADS: usize = 4;
/// Timed repetitions per cell (min taken, scheduler noise stripped).
const REPS: usize = 3;

/// Pipeline numbers from the previous full run of this bench on the
/// same host (engine as of the previous PR, before the observability
/// seam was threaded through). Embedded in the JSON so the artifact
/// carries its own before/after — `over_prior` near 1.0 demonstrates
/// the disabled recorder costs nothing measurable.
const PRIOR: &[(usize, &str, f64, f64)] = &[
    // (n, regime, pipeline ops/s, pipeline_over_sharded)
    (1_000, "disjoint", 12_834_435.0, 0.211),
    (1_000, "zipf", 6_271_348.0, 0.259),
    (1_000, "hotrow", 8_712_257.0, 0.208),
    (1_000_000, "disjoint", 9_734_687.0, 0.178),
    (1_000_000, "zipf", 3_693_438.0, 0.474),
    (1_000_000, "hotrow", 6_765_099.0, 0.342),
];

struct Cell {
    n: usize,
    regime: &'static str,
    path: &'static str,
    ops: usize,
    run_ms: f64,
    ops_per_sec: f64,
    /// Pipeline-only scheduling counters (None for the direct paths).
    pipeline: Option<PipelineStats>,
    /// Whole-batch latency distribution (recorder-enabled rows only).
    latency: Option<HistogramSnapshot>,
}

fn ms(from: Instant) -> f64 {
    from.elapsed().as_secs_f64() * 1e3
}

fn measure_direct<T: ConcurrentToken>(
    path: &'static str,
    regime: &'static str,
    build: impl Fn(Erc20State) -> T,
    initial: &Erc20State,
    workload: &[(ProcessId, Erc20Op)],
    out: &mut Vec<Cell>,
) {
    let supply = initial.total_supply();
    let mut run_ms = f64::INFINITY;
    for _ in 0..REPS {
        let token = Arc::new(build(initial.clone()));
        let start = Instant::now();
        run_split(&token, workload, THREADS);
        run_ms = run_ms.min(ms(start));
        assert_eq!(
            token.state_snapshot().total_supply(),
            supply,
            "{path}/{regime} lost tokens"
        );
    }
    push_cell(
        out,
        initial.accounts(),
        regime,
        path,
        workload.len(),
        run_ms,
        None,
        None,
    );
}

/// Measures the pipeline cell twice — recorder disabled (`pipeline`)
/// and enabled (`pipeline-obs`) — and returns the enabled run's
/// rendered metrics page.
fn measure_pipeline(
    regime: &'static str,
    initial: &Erc20State,
    workload: &[(ProcessId, Erc20Op)],
    batch: usize,
    out: &mut Vec<Cell>,
) -> String {
    let supply = initial.total_supply();
    let cfg = PipelineConfig {
        batch: BatchConfig {
            max_ops: batch,
            ..BatchConfig::default()
        },
        schedule: ScheduleConfig::default(),
        exec: tokensync_pipeline::ExecConfig {
            workers: THREADS
                .min(std::thread::available_parallelism().map_or(1, std::num::NonZero::get)),
        },
    };
    let mut run_ms = f64::INFINITY;
    let mut stats = PipelineStats::default();
    for _ in 0..REPS {
        let token = ShardedErc20::from_state(initial.clone());
        let start = Instant::now();
        let run = run_script(&token, workload, &cfg);
        run_ms = run_ms.min(ms(start));
        assert_eq!(
            token.state_snapshot().total_supply(),
            supply,
            "pipeline/{regime} lost tokens"
        );
        assert_eq!(run.stats.ops as usize, workload.len(), "ops dropped");
        stats = run.stats;
    }
    // The adaptive-bypass contract is part of the measurement: disjoint
    // traffic must certify and bypass (nearly) every batch — the first
    // batch pays the probe, everything after rides the fast path — while
    // the hot-row regime must never slip a conflicting batch past the
    // commutativity probe.
    match regime {
        "disjoint" => assert!(
            stats.bypassed_batches >= stats.batches * 9 / 10,
            "disjoint regime must engage the bypass: {}/{} batches bypassed",
            stats.bypassed_batches,
            stats.batches
        ),
        "hotrow" => assert_eq!(
            stats.bypassed_batches, 0,
            "hotrow regime must never bypass, got {} batches",
            stats.bypassed_batches
        ),
        _ => {}
    }
    push_cell(
        out,
        initial.accounts(),
        regime,
        "pipeline",
        workload.len(),
        run_ms,
        Some(stats),
        None,
    );

    // The same cell with the recorder live: every batch records its
    // stage and whole-batch latency. The in-run delta against the row
    // above is the true cost of *enabled* observability.
    let mut obs_ms = f64::INFINITY;
    let mut page = String::new();
    let mut latency = None;
    for _ in 0..REPS {
        let token = ShardedErc20::from_state(initial.clone());
        let registry = Registry::new();
        let obs = PipelineObs::new(&registry, 0);
        let start = Instant::now();
        let run = run_script_observed(&token, workload, &cfg, &mut (), &obs);
        obs_ms = obs_ms.min(ms(start));
        assert_eq!(run.stats.ops as usize, workload.len(), "ops dropped");
        latency = obs.batch_latency();
        page = registry.render_text();
    }
    push_cell(
        out,
        initial.accounts(),
        regime,
        "pipeline-obs",
        workload.len(),
        obs_ms,
        None,
        latency,
    );
    page
}

#[allow(clippy::too_many_arguments)]
fn push_cell(
    out: &mut Vec<Cell>,
    n: usize,
    regime: &'static str,
    path: &'static str,
    ops: usize,
    run_ms: f64,
    pipeline: Option<PipelineStats>,
    latency: Option<HistogramSnapshot>,
) {
    let cell = Cell {
        n,
        regime,
        path,
        ops,
        run_ms,
        ops_per_sec: ops as f64 / (run_ms / 1e3),
        pipeline,
        latency,
    };
    let extra = cell
        .pipeline
        .map(|s| {
            format!(
                " waves/batch={:.1} wave-par={:.1} serial={:.0}% bypass={}/{}",
                s.waves as f64 / s.batches.max(1) as f64,
                s.wave_parallelism(),
                100.0 * s.serial_fraction(),
                s.bypassed_batches,
                s.batches
            )
        })
        .unwrap_or_default();
    let lat = cell
        .latency
        .as_ref()
        .map(|l| format!(" batch p50={}ns p99={}ns p999={}ns", l.p50, l.p99, l.p999))
        .unwrap_or_default();
    eprintln!(
        "  n={:>9} {:>8} {:>14} run={:>9.1}ms {:>12.0} ops/s{}{}",
        cell.n, cell.regime, cell.path, cell.run_ms, cell.ops_per_sec, extra, lat
    );
    out.push(cell);
}

fn write_json(path: &str, quick: bool, batch_1k: usize, cells: &[Cell]) {
    let mut rows = String::new();
    for (i, c) in cells.iter().enumerate() {
        let sep = if i + 1 < cells.len() { "," } else { "" };
        let pipeline = c
            .pipeline
            .map(|s| {
                format!(
                    ", \"wave_parallelism\": {:.2}, \"serial_fraction\": {:.4}, \
                     \"waves\": {}, \"batches\": {}, \"bypassed_batches\": {}, \
                     \"bypass_aborts\": {}, \"bypass_rate\": {:.4}, \"commit_records\": {}",
                    s.wave_parallelism(),
                    s.serial_fraction(),
                    s.waves,
                    s.batches,
                    s.bypassed_batches,
                    s.bypass_aborts,
                    s.bypass_rate(),
                    s.commit_records
                )
            })
            .unwrap_or_default();
        let latency = c
            .latency
            .as_ref()
            .map(|l| {
                format!(
                    ", \"batch_p50_ns\": {}, \"batch_p90_ns\": {}, \"batch_p99_ns\": {}, \
                     \"batch_p999_ns\": {}, \"batch_max_ns\": {}, \"batches_observed\": {}",
                    l.p50, l.p90, l.p99, l.p999, l.max, l.count
                )
            })
            .unwrap_or_default();
        rows.push_str(&format!(
            "    {{\"n\": {}, \"regime\": \"{}\", \"path\": \"{}\", \"ops\": {}, \
             \"run_ms\": {:.3}, \"ops_per_sec\": {:.0}{}{}}}{}\n",
            c.n, c.regime, c.path, c.ops, c.run_ms, c.ops_per_sec, pipeline, latency, sep
        ));
    }
    // Summary: pipeline speedup over each direct path, per (n, regime).
    let mut summary = String::new();
    let mut keys: Vec<(usize, &'static str)> = cells.iter().map(|c| (c.n, c.regime)).collect();
    keys.dedup();
    for (i, &(n, regime)) in keys.iter().enumerate() {
        let find = |path: &str| {
            cells
                .iter()
                .find(|c| c.n == n && c.regime == regime && c.path == path)
                .expect("cell grid is complete")
        };
        let p = find("pipeline");
        let sep = if i + 1 < keys.len() { "," } else { "" };
        // Before/after against the embedded pre-bypass numbers, where
        // the grid cell matches a prior cell (full runs only).
        let over_prior = PRIOR
            .iter()
            .find(|&&(pn, pr, _, _)| pn == n && pr == regime)
            .map(|&(_, _, prior_ops, _)| {
                format!(", \"over_prior\": {:.2}", p.ops_per_sec / prior_ops)
            })
            .unwrap_or_default();
        summary.push_str(&format!(
            "    {{\"n\": {n}, \"regime\": \"{regime}\", \
             \"pipeline_over_coarse\": {:.3}, \"pipeline_over_sharded\": {:.3}, \
             \"obs_over_pipeline\": {:.3}, \
             \"wave_parallelism\": {:.2}, \"bypass_rate\": {:.4}{over_prior}}}{sep}\n",
            p.ops_per_sec / find("coarse-direct").ops_per_sec,
            p.ops_per_sec / find("sharded-direct").ops_per_sec,
            find("pipeline-obs").ops_per_sec / p.ops_per_sec,
            p.pipeline.map(|s| s.wave_parallelism()).unwrap_or(0.0),
            p.pipeline.map(|s| s.bypass_rate()).unwrap_or(0.0),
        ));
    }
    // The prior pipeline numbers this PR is measured against.
    let mut prior = String::new();
    for (i, &(n, regime, ops_per_sec, over_sharded)) in PRIOR.iter().enumerate() {
        let sep = if i + 1 < PRIOR.len() { "," } else { "" };
        prior.push_str(&format!(
            "    {{\"n\": {n}, \"regime\": \"{regime}\", \"ops_per_sec\": {ops_per_sec:.0}, \
             \"pipeline_over_sharded\": {over_sharded}}}{sep}\n"
        ));
    }
    // The shared host object carries the single-core caveat: without
    // parallel cores the pipeline rows can only show scheduling overhead
    // and the *measured* parallelism, not the wall-clock win.
    let host = tokensync_bench::harness::host_json();
    let json = format!(
        "{{\n  \"bench\": \"pipeline\",\n  {host},\n  \"config\": {{\"quick\": {quick}, \
         \"theta\": {THETA}, \"hot_spenders\": {HOT_SPENDERS}, \"threads\": {THREADS}, \
         \"batch_1k\": {batch_1k}}},\n  \
         \"prior\": {{\"note\": \"pipeline before the observability seam was threaded \
         through the engine (previous PR, same host)\", \
         \"runs\": [\n{prior}  ]}},\n  \
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
        .unwrap_or("BENCH_pipeline.json")
        .to_owned();
    let assert_min_ratio = args
        .iter()
        .position(|a| a == "--assert-min-ratio")
        .and_then(|i| args.get(i + 1))
        .map(|v| v.parse::<f64>().expect("--assert-min-ratio takes a float"));
    let assert_obs_overhead = args
        .iter()
        .position(|a| a == "--assert-obs-overhead")
        .and_then(|i| args.get(i + 1))
        .map(|v| {
            v.parse::<f64>()
                .expect("--assert-obs-overhead takes a percentage")
        });
    let metrics_out = args
        .iter()
        .position(|a| a == "--metrics-out")
        .and_then(|i| args.get(i + 1))
        .cloned();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!(
            "usage: pipeline [--quick] [--out PATH] [--assert-min-ratio R] \
             [--assert-obs-overhead PCT] [--metrics-out PATH]"
        );
        return;
    }

    let sizes: &[(usize, usize)] = if quick {
        &[(64, 20_000), (1_000, 50_000)]
    } else {
        &[(1_000, 1_000_000), (1_000_000, 1_000_000)]
    };

    let mut cells = Vec::new();
    let mut batch_1k = 0usize;
    let mut metrics_page = String::new();
    for &(n, ops) in sizes {
        // Batch bounded by n/2 so a disjoint-regime batch can be fully
        // conflict-free (the generator's window guarantee).
        let batch = (n / 2).clamp(1, 1024);
        if n == 1_000 {
            batch_1k = batch;
        }
        eprintln!("generating workloads: n={n}, ops={ops}, batch={batch}");
        let regimes: [(&'static str, Erc20State, Vec<(ProcessId, Erc20Op)>); 3] = [
            (
                "disjoint",
                funded_state(n),
                disjoint_transfers(n, ops, 0xD15),
            ),
            ("zipf", funded_state(n), zipf_ops(n, ops, 0xBA5E, THETA)),
            (
                "hotrow",
                hot_row_state(n, HOT_SPENDERS),
                hot_row_ops(n, ops, 0x407, HOT_SPENDERS),
            ),
        ];
        for (regime, initial, workload) in regimes {
            measure_direct(
                "coarse-direct",
                regime,
                CoarseErc20::from_state,
                &initial,
                &workload,
                &mut cells,
            );
            measure_direct(
                "sharded-direct",
                regime,
                ShardedErc20::from_state,
                &initial,
                &workload,
                &mut cells,
            );
            metrics_page = measure_pipeline(regime, &initial, &workload, batch, &mut cells);
        }
    }
    write_json(&out, quick, batch_1k, &cells);
    if let Some(path) = metrics_out {
        // One representative exposition page (the last cell's enabled
        // run) — the CI artifact proving the text format renders.
        std::fs::write(&path, &metrics_page).expect("write metrics page");
        eprintln!("wrote {path}");
    }

    // CI gate: the disjoint pipeline/sharded-direct ratio at the largest
    // grid size must clear the floor — catches regressions that re-open
    // the throughput gap this PR closed.
    if let Some(floor) = assert_min_ratio {
        let n_max = cells.iter().map(|c| c.n).max().expect("grid nonempty");
        let find = |path: &str| {
            cells
                .iter()
                .find(|c| c.n == n_max && c.regime == "disjoint" && c.path == path)
                .expect("disjoint cells present")
        };
        let ratio = find("pipeline").ops_per_sec / find("sharded-direct").ops_per_sec;
        assert!(
            ratio >= floor,
            "disjoint pipeline/sharded ratio {ratio:.3} fell below the floor {floor}"
        );
        eprintln!("ratio gate passed: disjoint n={n_max} pipeline/sharded = {ratio:.3} >= {floor}");
    }

    // CI gate: recording latency histograms must not tax throughput by
    // more than PCT percent. Compared within this run (enabled vs
    // disabled rows of the largest grid size), so the gate holds on any
    // host — cross-run deltas would just measure the runner.
    if let Some(pct) = assert_obs_overhead {
        let n_max = cells.iter().map(|c| c.n).max().expect("grid nonempty");
        let floor = 1.0 - pct / 100.0;
        for regime in ["disjoint", "zipf", "hotrow"] {
            let find = |path: &str| {
                cells
                    .iter()
                    .find(|c| c.n == n_max && c.regime == regime && c.path == path)
                    .expect("cell grid is complete")
            };
            let ratio = find("pipeline-obs").ops_per_sec / find("pipeline").ops_per_sec;
            assert!(
                ratio >= floor,
                "enabled-recorder overhead gate: {regime} n={n_max} \
                 obs/pipeline = {ratio:.3} < {floor:.3} (--assert-obs-overhead {pct})"
            );
            eprintln!(
                "obs overhead gate passed: {regime} n={n_max} obs/pipeline = {ratio:.3} >= {floor:.3}"
            );
        }
    }
}
