//! The tokensync benchmark: one command, four workloads.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload open-commute --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Run from the repository root. Stores are written under
//! `.perfbench_data/` in the working directory and removed at exit. The
//! last line of standard output is the JSON result; the lines before it
//! name every metric with its unit, every correctness check, and the
//! host facts the numbers depend on. `--trace 1` runs the workload
//! untraced and traced and adds the per-layer ladder. The process exits
//! non-zero when any correctness check fails.

mod gen;
mod report;
mod stats;
mod sys;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use report::{result_json, Metric, Report};
use workloads::{Ctx, Mode, Workload};

/// The end-to-end metrics an untraced run's result carries, in order:
/// the ones whose run-to-run spread stays within a bound on a shared
/// host. Wall-clock throughput and latency print by name but track the
/// host's CPU steal too closely to be bounded (see the README).
const END_TO_END: [(&str, &str); 3] = [
    ("cpu_us_per_op", "us"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// The per-layer metrics of a traced run, in result order.
const PER_LAYER: &[&str] = &[
    "core.apply_ns_per_op",
    "core.apply_cpu_ns_per_op",
    "pipeline.cum_ns_per_op",
    "pipeline.cum_cpu_ns_per_op",
    "store.cum_ns_per_op",
    "store.cum_cpu_ns_per_op",
    "replica.cum_ns_per_op",
    "replica.cum_cpu_ns_per_op",
    "server.cum_ns_per_op",
    "server.cum_cpu_ns_per_op",
    "pipeline.mean_batch_ops",
    "pipeline.batches",
    "pipeline.intake_wait_mean_ms",
    "pipeline.probe_ns_per_op",
    "pipeline.schedule_ns_per_op",
    "pipeline.execute_ns_per_op",
    "pipeline.wave_parallelism",
    "pipeline.serial_fraction",
    "pipeline.bypass_rate",
    "pipeline.bypass_abort_frac",
    "server.rtt_p50_ms",
    "server.rtt_mean_ms",
    "server.request_mean_ms",
    "server.outside_frac",
    "server.codec_ns_per_op",
    "server.busy",
    "server.write_overflows",
    "server.disconnects",
    "store.wal_bytes_per_op",
    "store.disk_bytes_per_op",
    "store.ops_per_fsync",
    "store.delta_snapshots",
    "store.durable_lag_ops",
    "store.flush_ms",
    "store.recover_load_ms",
    "store.recover_replay_ms",
    "replica.serve_ms",
    "replica.pump_ms",
    "replica.retransmissions",
    "replica.down_marks",
    "replica.snapshot_ships",
    "replica.max_follower_lag",
    "replica.delivered_frac",
    "gen.max_late_ms",
    "trace.accounted_frac",
    "trace.overhead_frac",
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag}"))
    };
    let name = value("--workload")?;
    let workload = Workload::parse(name).ok_or_else(|| format!("unknown workload {name}"))?;
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: u64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not {other}")),
    };
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn run(ctx: &Ctx, seconds: f64, mode: Mode) -> Report {
    match ctx.workload {
        Workload::OpenCommute => workloads::open_commute(ctx, seconds, mode),
        Workload::ClosedZipfDurable => workloads::closed_zipf_durable(ctx, seconds, mode),
        Workload::IngestHotrow => workloads::ingest_hotrow(ctx, seconds, mode),
        Workload::ReplicateQuorum => workloads::replicate_quorum(ctx, seconds, mode),
    }
}

fn print_metric(kind: &str, m: &Metric) {
    println!("{kind} {} {} {}", m.name, m.value, m.unit);
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload <open-commute|closed-zipf-durable|\
                 ingest-hotrow|replicate-quorum> --seed <n> --seconds <n> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let data = PathBuf::from(".perfbench_data").join(format!("run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&data) {
        eprintln!("perfbench: cannot create {}: {e}", data.display());
        return ExitCode::from(2);
    }
    let seconds = args.seconds as f64;
    let w = args.workload;
    println!(
        "host nproc={} loopback=127.0.0.1 store_fs={} workload={w:?} seed={} seconds={} trace={}",
        sys::nproc(),
        sys::filesystem_of(&data),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "config accounts={} flush={} acks={}",
        workloads::ACCOUNTS,
        match w {
            Workload::ClosedZipfDurable | Workload::ReplicateQuorum =>
                "group-commit, pipelined fsync, incremental snapshots",
            _ => "none (volatile sink)",
        },
        match w {
            Workload::OpenCommute => "at commit",
            Workload::ClosedZipfDurable => "durable (fsynced)",
            Workload::IngestHotrow => "in-process commit",
            Workload::ReplicateQuorum => "quorum-durable (2 of 3 fsynced)",
        }
    );
    // Stream generation is not part of set-up.
    let ctx = Ctx {
        workload: w,
        seed: args.seed,
        genesis: w.genesis(),
        stream: w.stream(args.seed, seconds),
        data: data.clone(),
    };

    let ticks0 = sys::host_ticks();
    let report = if args.trace {
        trace::traced(&ctx, seconds, |secs, mode| run(&ctx, secs, mode))
    } else {
        run(&ctx, seconds, Mode::Full)
    };
    let _ = std::fs::remove_dir_all(&data);
    let _ = std::fs::remove_dir(".perfbench_data");
    let ticks1 = sys::host_ticks();
    println!(
        "host steal_frac={}",
        (ticks1.0 - ticks0.0) as f64 / (ticks1.1 - ticks0.1).max(1) as f64
    );

    let mut correct = report.correct();
    for c in &report.checks {
        println!(
            "check {} {}: {}",
            if c.ok { "ok" } else { "FAILED" },
            c.name,
            c.detail
        );
    }
    for v in &report.validity {
        println!(
            "validity {} {}: {}",
            if v.ok { "ok" } else { "INVALID" },
            v.name,
            v.detail
        );
    }
    for m in &report.e2e {
        print_metric("metric", m);
    }
    for m in &report.info {
        print_metric("metric", m);
    }
    let metrics: Vec<Metric> = if args.trace {
        let mut out = Vec::new();
        for name in PER_LAYER {
            match report.layers.get_key_value(name) {
                Some((&name, &(value, unit))) => out.push(Metric { name, value, unit }),
                None => {
                    println!("check FAILED per-layer metric {name} was not measured");
                    correct = false;
                }
            }
        }
        out
    } else {
        END_TO_END
            .iter()
            .map(|(name, unit)| {
                report
                    .e2e
                    .iter()
                    .find(|m| m.name == *name && m.unit == *unit)
                    .cloned()
                    .unwrap_or_else(|| panic!("end-to-end metric {name} missing"))
            })
            .collect()
    };
    for m in &metrics {
        if args.trace {
            print_metric("layer", m);
        }
        if !m.value.is_finite() {
            println!("check FAILED metric {} is not a finite number", m.name);
            correct = false;
        }
    }
    println!(
        "{}",
        result_json(correct, report.attempted.max(1), report.failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
