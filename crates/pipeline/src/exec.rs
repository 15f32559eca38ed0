//! Wave execution: a scoped worker pool applying one batch's schedule to
//! any [`ConcurrentObject`].
//!
//! Waves execute in order; within a wave the ops are split across up to
//! [`ExecConfig::workers`] scoped threads. Because a wave is pairwise
//! commuting (the scheduler's invariant), *any* thread interleaving
//! produces the same responses and the same post-wave state — the
//! executor needs no synchronization beyond the object's own
//! linearizability, and the result is deterministic even though the
//! execution is parallel. The executor is standard-agnostic: it drives
//! `T::apply` for whatever op alphabet the object serves. Waves too
//! narrow to amortize a thread spawn (fewer than 32 ops per worker) run
//! inline; the serial lane always runs inline, in submission order.
//!
//! **Wave fusion.** Consecutive waves wide enough for the pool are
//! *fused*: the pool is spawned once for the whole run of waves and the
//! workers rendezvous on a [`Barrier`] at each wave boundary instead of
//! being joined and respawned. The wave-order contract is unchanged —
//! every op of wave `w` completes before any op of wave `w+1` starts
//! (the barrier is exactly the old join point) — but a multi-wave batch
//! pays one thread-spawn per run instead of one per wave.
//!
//! **Bypassed batches.** A batch the scheduler's probe certified
//! pairwise commuting reaches the executor as a one-wave schedule in
//! submission order, and runs like any other wave: chunked across the
//! pool with no ordering between chunks. That is sound for exactly the
//! reason any wave is — commuting neighbors can be exchanged freely, so
//! every interleaving linearizes in submission order.

use std::sync::Barrier;

use tokensync_core::shared::ConcurrentObject;
use tokensync_spec::ProcessId;

use crate::schedule::Schedule;

/// A wave shorter than `workers × MIN_OPS_PER_WORKER` runs inline —
/// spawning threads for a handful of ops costs more than it buys.
const MIN_OPS_PER_WORKER: usize = 32;

/// Worker-pool sizing.
#[derive(Clone, Copy, Debug)]
pub struct ExecConfig {
    /// Maximum threads per wave.
    pub workers: usize,
}

impl Default for ExecConfig {
    fn default() -> Self {
        Self {
            workers: std::thread::available_parallelism().map_or(1, |c| c.get()),
        }
    }
}

/// Executes `schedule` over `ops` against `token`; returns the responses
/// indexed like `ops`.
///
/// # Panics
///
/// Propagates panics from worker threads (a panicking object is a bug,
/// not a recoverable condition).
pub fn execute<T: ConcurrentObject + ?Sized>(
    token: &T,
    ops: &[(ProcessId, T::Op)],
    schedule: &Schedule,
    cfg: &ExecConfig,
) -> Vec<T::Resp> {
    debug_assert_eq!(schedule.ops(), ops.len());
    // `None` placeholder; every scheduled index is filled below.
    let mut responses: Vec<Option<T::Resp>> = vec![None; ops.len()];
    let workers = cfg.workers.max(1);
    let wide = |wave: &Vec<usize>| workers > 1 && wave.len() >= workers * MIN_OPS_PER_WORKER;
    let mut w = 0;
    while w < schedule.waves.len() {
        if !wide(&schedule.waves[w]) {
            for &idx in &schedule.waves[w] {
                let (caller, op) = &ops[idx];
                responses[idx] = Some(token.apply(*caller, op));
            }
            w += 1;
            continue;
        }
        // Fuse the maximal run of pool-worthy waves: one spawn, a
        // barrier per internal wave boundary.
        let mut end = w + 1;
        while end < schedule.waves.len() && wide(&schedule.waves[end]) {
            end += 1;
        }
        for (idx, resp) in execute_fused(token, ops, &schedule.waves[w..end], workers) {
            responses[idx] = Some(resp);
        }
        w = end;
    }
    for &idx in &schedule.serial {
        let (caller, op) = &ops[idx];
        responses[idx] = Some(token.apply(*caller, op));
    }
    responses
        .into_iter()
        .map(|r| r.expect("every scheduled index executed"))
        .collect()
}

/// Executes a fused run of waves on one scoped pool: worker `k` takes
/// the `k`-th chunk of every wave, and all workers rendezvous on a
/// barrier between waves, so the cross-wave ordering contract is exactly
/// what per-wave join gave — without respawning the pool.
fn execute_fused<T: ConcurrentObject + ?Sized>(
    token: &T,
    ops: &[(ProcessId, T::Op)],
    run: &[Vec<usize>],
    workers: usize,
) -> Vec<(usize, T::Resp)> {
    let barrier = Barrier::new(workers);
    let parts = crossbeam::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|k| {
                let barrier = &barrier;
                s.spawn(move |_| {
                    let mut out: Vec<(usize, T::Resp)> = Vec::new();
                    for (i, wave) in run.iter().enumerate() {
                        let chunk = wave.len().div_ceil(workers);
                        let lo = (k * chunk).min(wave.len());
                        let hi = ((k + 1) * chunk).min(wave.len());
                        for &idx in &wave[lo..hi] {
                            let (caller, op) = &ops[idx];
                            out.push((idx, token.apply(*caller, op)));
                        }
                        // The fusion point: the barrier replaces the old
                        // spawn/join edge between consecutive waves.
                        if i + 1 < run.len() {
                            barrier.wait();
                        }
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("wave worker panicked"))
            .collect::<Vec<_>>()
    })
    .expect("wave worker panicked");
    parts.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{schedule, ScheduleConfig};
    use tokensync_core::erc20::{Erc20Op, Erc20Resp, Erc20State};
    use tokensync_core::shared::{ConcurrentToken, ShardedErc20};
    use tokensync_core::standards::erc721::{
        Erc721Op, Erc721Resp, Erc721State, ShardedErc721, TokenId,
    };
    use tokensync_spec::AccountId;

    /// Accounts of the test token, 10 units each.
    const ACCOUNTS: usize = 512;
    /// Workers of the parallel runs.
    const WORKERS: usize = 4;
    /// The narrowest wave the parallel runs hand to the pool.
    const POOL_WAVE: usize = WORKERS * MIN_OPS_PER_WORKER;

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }
    fn a(i: usize) -> AccountId {
        AccountId::new(i)
    }

    fn token() -> ShardedErc20 {
        ShardedErc20::from_state(Erc20State::from_balances(vec![10; ACCOUNTS]))
    }

    fn run_plan(
        ops: &[(ProcessId, Erc20Op)],
        plan: &Schedule,
        workers: usize,
    ) -> (Vec<Erc20Resp>, Erc20State) {
        let token = token();
        let responses = execute(&token, ops, plan, &ExecConfig { workers });
        (responses, token.state_snapshot())
    }

    fn run(ops: &[(ProcessId, Erc20Op)], workers: usize) -> (Vec<Erc20Resp>, u64) {
        let s = schedule(ops, &ScheduleConfig::default());
        let (responses, state) = run_plan(ops, &s, workers);
        (responses, state.total_supply())
    }

    /// `POOL_WAVE` owner-disjoint transfers: one pool-worthy wave.
    fn disjoint(value: impl Fn(usize) -> u64) -> Vec<(ProcessId, Erc20Op)> {
        (0..POOL_WAVE)
            .map(|i| {
                (
                    p(i),
                    Erc20Op::Transfer {
                        to: a(POOL_WAVE + i),
                        value: value(i),
                    },
                )
            })
            .collect()
    }

    #[test]
    fn parallel_and_inline_paths_agree() {
        let ops = disjoint(|i| (i as u64) % 4);
        let s = schedule(&ops, &ScheduleConfig::default());
        assert_eq!(s.waves.len(), 1);
        assert!(s.waves[0].len() >= POOL_WAVE, "wave must reach the pool");
        let (inline, s1) = run(&ops, 1);
        let (parallel, s2) = run(&ops, WORKERS);
        assert_eq!(inline, parallel, "wave determinism broken");
        assert_eq!(s1, s2);
        assert_eq!(s1, 10 * ACCOUNTS as u64);
    }

    #[test]
    fn narrow_waves_run_inline_without_changing_results() {
        let ops = vec![
            (p(0), Erc20Op::Transfer { to: a(1), value: 3 }),
            (
                p(0),
                Erc20Op::Transfer {
                    to: a(1),
                    value: 20, // fails after the first debit (10 - 3 < 20)
                },
            ),
        ];
        let (resps, supply) = run(&ops, 8);
        assert_eq!(resps, vec![Erc20Resp::TRUE, Erc20Resp::FALSE]);
        assert_eq!(supply, 10 * ACCOUNTS as u64);
    }

    #[test]
    fn fused_wave_runs_agree_with_inline_execution() {
        // Two full-width conflicting rounds: every source repeats, so the
        // schedule has two consecutive pool-worthy waves. Both fuse under
        // one scope (barrier at the boundary); the responses and final
        // state must equal the single-threaded execution's.
        let ops: Vec<(ProcessId, Erc20Op)> = disjoint(|_| 6)
            .into_iter()
            .chain(disjoint(|_| 7)) // second round: 7 > 10 - 6 fails
            .collect();
        let s = schedule(&ops, &ScheduleConfig::default());
        assert_eq!(s.waves.len(), 2, "rounds must stack into two waves");
        assert!(s.waves.iter().all(|w| w.len() >= POOL_WAVE));
        let (inline, s1) = run(&ops, 1);
        let (fused, s2) = run(&ops, WORKERS);
        assert_eq!(inline, fused, "fused run diverged from inline");
        assert_eq!(s1, s2);
        // Round 1 succeeds, round 2 fails (insufficient funds): the
        // barrier kept wave order, otherwise some round-2 op could win.
        assert!(inline[..POOL_WAVE].iter().all(|r| *r == Erc20Resp::TRUE));
        assert!(inline[POOL_WAVE..].iter().all(|r| *r == Erc20Resp::FALSE));
    }

    #[test]
    fn unordered_execution_matches_sequential_on_commuting_batches() {
        // A bypassed batch is a one-wave plan: chunked across the pool
        // with no cross-chunk order, it must match the single-worker
        // (submission-order) execution response for response.
        let ops = disjoint(|i| (i as u64) % 5);
        let plan = Schedule::one_wave(ops.len());
        let (inline, state1) = run_plan(&ops, &plan, 1);
        let (parallel, state2) = run_plan(&ops, &plan, WORKERS);
        assert_eq!(inline, parallel);
        assert_eq!(state1, state2);
    }

    #[test]
    fn executes_nft_waves_in_parallel() {
        // The same executor, a different standard: owner-disjoint NFT
        // transfers land in one wave and run across workers.
        let n = POOL_WAVE;
        let nft = ShardedErc721::from_state(Erc721State::minted_round_robin(n, 2 * n, n));
        let ops: Vec<(ProcessId, Erc721Op)> = (0..n)
            .map(|i| {
                (
                    p(i),
                    Erc721Op::TransferFrom {
                        from: p(i),
                        to: p((i + 1) % n),
                        token: TokenId::new(i),
                    },
                )
            })
            .collect();
        let s = schedule(&ops, &ScheduleConfig::default());
        assert_eq!(s.waves.len(), 1);
        let resps = execute(&nft, &ops, &s, &ExecConfig { workers: WORKERS });
        assert!(resps.iter().all(|r| *r == Erc721Resp::TRUE));
        let snap = nft.snapshot();
        for i in 0..n {
            assert_eq!(snap.owner_of(TokenId::new(i)), Some(p((i + 1) % n)));
        }
    }
}
