//! Accounting identities of [`PipelineStats`], locked down on three
//! contention regimes.
//!
//! The invariants:
//!
//! * `ops == parallel_ops + serial_ops` — every committed op took
//!   exactly one of the two execution routes;
//! * `bypassed_ops <= parallel_ops` and
//!   `bypassed_batches <= batches` — the bypass path is a subset of
//!   the parallel route;
//! * `commit_records` arithmetic: what the engine counted is exactly
//!   what the sink saw — one record per (non-empty) batch, spanning the
//!   whole batch, on the scheduled and the bypass path alike;
//! * the sink sees every op exactly once (`entries == ops`) and every
//!   batch seal exactly once (`seals == batches`);
//! * the commit log replays against the sequential oracle, and the
//!   committed state equals the oracle's submission-order replay of the
//!   script.

use tokensync_core::erc20::{Erc20Op, Erc20Spec, Erc20State};
use tokensync_core::shared::{ConcurrentObject, ConcurrentToken, ShardedErc20};
use tokensync_pipeline::{
    run_script_with_sink, BatchConfig, CommitSink, CommittedOp, PipelineConfig, PipelineStats,
};
use tokensync_spec::{AccountId, ObjectType, ProcessId};

fn p(i: usize) -> ProcessId {
    ProcessId::new(i)
}
fn a(i: usize) -> AccountId {
    AccountId::new(i)
}

/// Counts exactly what crosses the sink seam.
#[derive(Default)]
struct CountingSink {
    /// Length of every record, in arrival order.
    record_lens: Vec<usize>,
    seals: u64,
}

impl<T: ConcurrentObject + ?Sized> CommitSink<T> for CountingSink {
    fn wave_committed(&mut self, _token: &T, entries: &[CommittedOp<T::Op, T::Resp>]) {
        assert!(!entries.is_empty(), "engine must not emit empty records");
        self.record_lens.push(entries.len());
    }
    fn batch_sealed(&mut self, _token: &T, _batch: u64) {
        self.seals += 1;
    }
}

fn cfg(max_ops: usize) -> PipelineConfig {
    PipelineConfig {
        batch: BatchConfig {
            max_ops,
            ..BatchConfig::default()
        },
        ..PipelineConfig::default()
    }
}

/// Owner-disjoint transfers: everything commutes.
fn disjoint_script(n: usize) -> (Erc20State, Vec<(ProcessId, Erc20Op)>) {
    let state = Erc20State::from_balances(vec![1_000; 2 * n]);
    let script = (0..n)
        .map(|i| {
            (
                p(i),
                Erc20Op::Transfer {
                    to: a(n + i),
                    value: 1,
                },
            )
        })
        .collect();
    (state, script)
}

/// A few senders reused: moderate conflict density.
fn mixed_script(n: usize) -> (Erc20State, Vec<(ProcessId, Erc20Op)>) {
    let state = Erc20State::from_balances(vec![1_000; 16]);
    let script = (0..n)
        .map(|i| {
            (
                p(i % 5),
                Erc20Op::Transfer {
                    to: a(5 + (i % 11)),
                    value: 1 + (i as u64 % 3),
                },
            )
        })
        .collect();
    (state, script)
}

/// Spenders hammering one allowance row: almost everything conflicts.
fn hotrow_script(n: usize) -> (Erc20State, Vec<(ProcessId, Erc20Op)>) {
    let mut state = Erc20State::from_balances(vec![10_000; 8]);
    for sp in 1..8 {
        state.set_allowance(a(0), p(sp), 5_000);
    }
    let script = (0..n)
        .map(|i| {
            (
                p(1 + (i % 7)),
                Erc20Op::TransferFrom {
                    from: a(0),
                    to: a(1 + ((i + 1) % 7)),
                    value: 1,
                },
            )
        })
        .collect();
    (state, script)
}

/// Runs `script`, checks every identity, and returns the run's stats.
fn check_identities(
    name: &str,
    state: &Erc20State,
    script: &[(ProcessId, Erc20Op)],
    max_ops: usize,
) -> PipelineStats {
    // One record per batch, each spanning the whole batch.
    let batch_lens: Vec<usize> = script.chunks(max_ops).map(<[_]>::len).collect();
    let token = ShardedErc20::from_state(state.clone());
    let mut sink = CountingSink::default();
    let run = run_script_with_sink(&token, script, &cfg(max_ops), &mut sink);
    let s = run.stats;

    // Route partition.
    assert_eq!(s.ops, script.len() as u64, "{name}: ops");
    assert_eq!(s.ops, s.parallel_ops + s.serial_ops, "{name}: partition");
    assert_eq!(s.batches, batch_lens.len() as u64, "{name}: batches");

    // Bypass is a subset of the parallel route.
    assert!(
        s.bypassed_ops <= s.parallel_ops,
        "{name}: bypass ⊆ parallel"
    );
    assert!(s.bypassed_batches <= s.batches, "{name}: bypass batches");

    // The sink saw exactly what the stats claim: every op once, one
    // record and one seal per batch.
    assert_eq!(sink.record_lens, batch_lens, "{name}: record per batch");
    assert_eq!(
        sink.record_lens.len() as u64,
        s.commit_records,
        "{name}: records"
    );
    assert_eq!(s.commit_records, s.batches, "{name}: records = batches");
    assert_eq!(sink.seals, s.batches, "{name}: seals");

    // The commit log replays against the sequential oracle.
    let spec = Erc20Spec::new(state.clone());
    let replayed = run.log.replay(&spec).expect("consistent responses");
    assert_eq!(replayed, token.state_snapshot(), "{name}: replay");

    // Same input, same committed state as the oracle running the script
    // in submission order.
    let mut oracle = spec.initial_state();
    for (caller, op) in script {
        spec.apply(&mut oracle, *caller, op);
    }
    assert_eq!(
        token.state_snapshot(),
        oracle,
        "{name}: diverged from the submission-order oracle"
    );
    s
}

#[test]
fn disjoint_regime_identities() {
    let (state, script) = disjoint_script(256);
    let bypassed = check_identities("disjoint", &state, &script, 64);
    // Fully disjoint traffic rides the bypass on every batch, and each
    // bypassed batch still commits as one whole-batch record.
    assert_eq!(bypassed.bypassed_batches, bypassed.batches);
}

#[test]
fn mixed_regime_identities() {
    let (state, script) = mixed_script(300);
    check_identities("mixed", &state, &script, 64);
}

#[test]
fn hotrow_regime_identities() {
    let (state, script) = hotrow_script(256);
    let hot = check_identities("hotrow", &state, &script, 64);
    // Every batch conflicts: the first probe aborts, the density gate
    // then stops probing, and nothing is ever bypassed.
    assert_eq!(hot.bypassed_batches, 0);
    assert!(hot.bypass_aborts >= 1);
}

#[test]
fn ragged_tail_batch_identities() {
    // A last batch smaller than max_ops must not skew any identity.
    let (state, script) = mixed_script(101);
    check_identities("ragged", &state, &script, 25);
}

#[test]
fn single_op_batches_identities() {
    let (state, script) = disjoint_script(7);
    check_identities("unit-batches", &state, &script, 1);
}
