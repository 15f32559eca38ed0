//! Accounting identities of [`PipelineStats`], locked down with the
//! bypass off and on, on three contention regimes.
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
//! * with the bypass disabled, every bypass counter is zero;
//! * the committed result is identical across both configs, and the
//!   commit log replays against the sequential oracle.

use tokensync_core::erc20::{Erc20Op, Erc20Spec, Erc20State};
use tokensync_core::shared::{ConcurrentObject, ConcurrentToken, ShardedErc20};
use tokensync_pipeline::{
    run_script_with_sink, BatchConfig, CommitSink, CommittedOp, PipelineConfig, PipelineStats,
};
use tokensync_spec::{AccountId, ProcessId};

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

fn cfg(max_ops: usize, bypass: bool) -> PipelineConfig {
    PipelineConfig {
        batch: BatchConfig {
            max_ops,
            ..BatchConfig::default()
        },
        bypass,
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

/// Runs `script` with the bypass off and on, checks every identity, and
/// returns the two runs' stats (bypass off first).
fn check_matrix(
    name: &str,
    state: &Erc20State,
    script: &[(ProcessId, Erc20Op)],
    max_ops: usize,
) -> [PipelineStats; 2] {
    // One record per batch, each spanning the whole batch.
    let batch_lens: Vec<usize> = script.chunks(max_ops).map(<[_]>::len).collect();
    let mut final_states = Vec::new();
    let mut stats = Vec::new();
    for bypass in [false, true] {
        let case = format!("{name} bypass={bypass}");
        let token = ShardedErc20::from_state(state.clone());
        let mut sink = CountingSink::default();
        let run = run_script_with_sink(&token, script, &cfg(max_ops, bypass), &mut sink);
        let s = run.stats;

        // Route partition.
        assert_eq!(s.ops, script.len() as u64, "{case}: ops");
        assert_eq!(s.ops, s.parallel_ops + s.serial_ops, "{case}: partition");
        assert_eq!(s.batches, batch_lens.len() as u64, "{case}: batches");

        // Bypass is a subset of the parallel route.
        assert!(
            s.bypassed_ops <= s.parallel_ops,
            "{case}: bypass ⊆ parallel"
        );
        assert!(s.bypassed_batches <= s.batches, "{case}: bypass batches");
        if !bypass {
            assert_eq!(
                (s.bypassed_batches, s.bypassed_ops, s.bypass_aborts),
                (0, 0, 0),
                "{case}: bypass off must count nothing"
            );
        }

        // The sink saw exactly what the stats claim: every op once, one
        // record and one seal per batch.
        assert_eq!(sink.record_lens, batch_lens, "{case}: record per batch");
        assert_eq!(
            sink.record_lens.len() as u64,
            s.commit_records,
            "{case}: records"
        );
        assert_eq!(s.commit_records, s.batches, "{case}: records = batches");
        assert_eq!(sink.seals, s.batches, "{case}: seals");

        // The commit log replays against the sequential oracle.
        let replayed = run
            .log
            .replay(&Erc20Spec::new(state.clone()))
            .expect("consistent responses");
        assert_eq!(replayed, token.state_snapshot(), "{case}: replay");

        final_states.push((case, token.state_snapshot()));
        stats.push(s);
    }
    // Same input, same committed state, regardless of config.
    assert_eq!(
        final_states[0].1, final_states[1].1,
        "{} diverged from {}",
        final_states[1].0, final_states[0].0
    );
    [stats[0], stats[1]]
}

#[test]
fn disjoint_regime_identities() {
    let (state, script) = disjoint_script(256);
    let [_, bypassed] = check_matrix("disjoint", &state, &script, 64);
    // Fully disjoint traffic rides the bypass on every batch, and each
    // bypassed batch still commits as one whole-batch record.
    assert_eq!(bypassed.bypassed_batches, bypassed.batches);
}

#[test]
fn mixed_regime_identities() {
    let (state, script) = mixed_script(300);
    check_matrix("mixed", &state, &script, 64);
}

#[test]
fn hotrow_regime_identities() {
    let (state, script) = hotrow_script(256);
    check_matrix("hotrow", &state, &script, 64);
}

#[test]
fn ragged_tail_batch_identities() {
    // A last batch smaller than max_ops must not skew any identity.
    let (state, script) = mixed_script(101);
    check_matrix("ragged", &state, &script, 25);
}

#[test]
fn single_op_batches_identities() {
    let (state, script) = disjoint_script(7);
    check_matrix("unit-batches", &state, &script, 1);
}
