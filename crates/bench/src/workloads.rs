//! Deterministic operation workloads shared by the bench targets —
//! ERC20 traffic plus the Section 6 standards (an NFT marketplace over
//! ERC721 and batch-transfer streams over ERC1155).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tokensync_core::erc20::{Erc20Op, Erc20State};
use tokensync_core::standards::erc1155::{Erc1155Op, Erc1155State, TypeId};
use tokensync_core::standards::erc721::{Erc721Op, Erc721State, TokenId};
use tokensync_spec::{AccountId, ProcessId};

/// Uniform draw from `0..n` excluding `not` (requires `n >= 2`): sample
/// the `n - 1` admissible values and shift past the hole.
fn distinct_from(rng: &mut StdRng, n: usize, not: usize) -> usize {
    let raw = rng.gen_range(0..n - 1);
    if raw >= not {
        raw + 1
    } else {
        raw
    }
}

/// The shared op mix: ~60% transfers, ~20% approvals, ~20% transferFroms,
/// amounts 0..4, with accounts drawn by `pick`.
///
/// Degenerate pairs are excluded (for `n >= 2`): a `Transfer` never names
/// the caller's own account (a self-transfer is a no-op that flatters
/// throughput numbers) and a `TransferFrom` never has `from == to` (the
/// same no-op through the allowance path).
fn op_from_mix(
    rng: &mut StdRng,
    n: usize,
    caller: ProcessId,
    mut pick: impl FnMut(&mut StdRng) -> usize,
) -> Erc20Op {
    match rng.gen_range(0..10) {
        0..=5 => {
            let mut to = pick(rng);
            if n >= 2 && to == caller.index() {
                to = distinct_from(rng, n, caller.index());
            }
            Erc20Op::Transfer {
                to: AccountId::new(to),
                value: rng.gen_range(0..4),
            }
        }
        6..=7 => Erc20Op::Approve {
            spender: ProcessId::new(pick(rng)),
            value: rng.gen_range(0..8),
        },
        _ => {
            let from = pick(rng);
            let mut to = pick(rng);
            if n >= 2 && to == from {
                to = distinct_from(rng, n, from);
            }
            Erc20Op::TransferFrom {
                from: AccountId::new(from),
                to: AccountId::new(to),
                value: rng.gen_range(0..4),
            }
        }
    }
}

/// A deterministic mixed ERC20 workload over uniformly random accounts:
/// ~60% transfers, ~20% approvals, ~20% transferFroms, amounts 0..4.
pub fn mixed_ops(n: usize, ops: usize, seed: u64) -> Vec<(ProcessId, Erc20Op)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..ops)
        .map(|_| {
            let caller = ProcessId::new(rng.gen_range(0..n));
            let op = op_from_mix(&mut rng, n, caller, |rng| rng.gen_range(0..n));
            (caller, op)
        })
        .collect()
}

/// The same op mix as [`mixed_ops`] with callers and accounts drawn from a
/// [`ZipfSampler`] — hot-account traffic, the contention profile real
/// token deployments exhibit (a few exchange/contract accounts absorb most
/// transfers). Account 0 is the hottest.
pub fn zipf_ops(n: usize, ops: usize, seed: u64, theta: f64) -> Vec<(ProcessId, Erc20Op)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let zipf = ZipfSampler::new(n, theta);
    (0..ops)
        .map(|_| {
            let caller = ProcessId::new(zipf.sample(&mut rng));
            let op = op_from_mix(&mut rng, n, caller, |rng| zipf.sample(rng));
            (caller, op)
        })
        .collect()
}

/// A Zipfian rank sampler over `0..n` (rank 0 most popular) with skew
/// `theta ∈ [0, 1)`; `theta = 0` degenerates to uniform and `theta ≈ 0.99`
/// is the classic hot-spot workload.
///
/// Uses the Gray–Sundstrom formula popularized by YCSB's
/// `ZipfianGenerator`: after an `O(n)` precomputation of the generalized
/// harmonic number `ζ(n, θ)`, each sample is `O(1)` — no CDF table, so a
/// million-account sampler costs three floats, not megabytes.
#[derive(Clone, Debug)]
pub struct ZipfSampler {
    n: usize,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl ZipfSampler {
    /// Builds a sampler over `0..n`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `theta` is outside `[0, 1)`.
    pub fn new(n: usize, theta: f64) -> Self {
        assert!(n > 0, "zipf over an empty domain");
        assert!((0.0..1.0).contains(&theta), "theta must lie in [0, 1)");
        let zeta =
            |count: usize| -> f64 { (1..=count).map(|i| 1.0 / (i as f64).powf(theta)).sum() };
        let zetan = zeta(n);
        let zeta2 = zeta(2.min(n));
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
        Self {
            n,
            theta,
            alpha,
            zetan,
            eta,
        }
    }

    /// Draws one rank in `0..n`, rank 0 most probable.
    pub fn sample(&self, rng: &mut StdRng) -> usize {
        // 53 uniform bits -> f64 in [0, 1).
        let u = rng.gen_range(0..(1u64 << 53)) as f64 / (1u64 << 53) as f64;
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1.min(self.n - 1);
        }
        let rank = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as usize;
        rank.min(self.n - 1)
    }
}

/// A starting state with every account funded and a few allowances set.
pub fn funded_state(n: usize) -> Erc20State {
    let mut state = Erc20State::from_balances(vec![1000; n]);
    for i in 0..n {
        state.set_allowance(AccountId::new(i), ProcessId::new((i + 1) % n), 500);
    }
    state
}

/// Fully commuting traffic: each op is a `Transfer` whose caller is one
/// of the first `n/2` accounts and whose destination is the caller's
/// partner in the second half, so any window of up to `n/2` consecutive
/// ops has pairwise disjoint footprints (distinct sources, distinct
/// sinks, sources ∩ sinks = ∅). This is the owner-disjoint regime the
/// paper says needs no synchronization at all — the batched pipeline
/// should schedule an entire batch into one wave.
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn disjoint_transfers(n: usize, ops: usize, seed: u64) -> Vec<(ProcessId, Erc20Op)> {
    assert!(n >= 2, "need at least one (source, sink) pair");
    let mut rng = StdRng::seed_from_u64(seed);
    let half = n / 2;
    (0..ops)
        .map(|i| {
            let src = i % half;
            (
                ProcessId::new(src),
                Erc20Op::Transfer {
                    to: AccountId::new(half + src),
                    value: rng.gen_range(0..3),
                },
            )
        })
        .collect()
}

/// A starting state for the hot-row regime: every account funded, and
/// spenders `1..=k` each holding a large allowance on account 0 — the
/// shared allowance row whose enabled-spender set `σ_q(0)` has size
/// `k + 1`, i.e. a state deep in the paper's partition class `Q_{k+1}`.
///
/// # Panics
///
/// Panics if `k >= n`.
pub fn hot_row_state(n: usize, k: usize) -> Erc20State {
    assert!(k < n, "need k contending spenders besides the owner");
    let mut state = funded_state(n);
    for sp in 1..=k {
        state.set_allowance(AccountId::new(0), ProcessId::new(sp), 1_000_000);
    }
    state
}

/// The high-conflict regime the commuting fast path cannot help with:
/// ~70% `transferFrom`s racing on account 0's allowance row issued by
/// its `k` contending spenders, ~10% re-`approve`s of that row by the
/// owner (the Theorem 3 Case 4 race), ~20% background owner-disjoint
/// transfers among the cold accounts. Start it from
/// [`hot_row_state`]`(n, k)` so the spenders are enabled.
///
/// # Panics
///
/// Panics if `k + 1 >= n` (need at least one cold account).
pub fn hot_row_ops(n: usize, ops: usize, seed: u64, k: usize) -> Vec<(ProcessId, Erc20Op)> {
    assert!(k >= 1, "need at least one contending spender");
    assert!(k + 1 < n, "need cold accounts behind the hot row");
    let mut rng = StdRng::seed_from_u64(seed);
    let spender = |rng: &mut StdRng| 1 + rng.gen_range(0..k);
    (0..ops)
        .map(|_| match rng.gen_range(0..10) {
            0..=6 => {
                let caller = spender(&mut rng);
                let mut to = rng.gen_range(0..n);
                if to == 0 {
                    to = 1 + rng.gen_range(0..n - 1);
                }
                (
                    ProcessId::new(caller),
                    Erc20Op::TransferFrom {
                        from: AccountId::new(0),
                        to: AccountId::new(to),
                        value: rng.gen_range(0..3),
                    },
                )
            }
            7 => (
                ProcessId::new(0),
                Erc20Op::Approve {
                    spender: ProcessId::new(spender(&mut rng)),
                    value: rng.gen_range(0..1_000_000),
                },
            ),
            _ => {
                // Cold background: transfers among accounts k+1..n, never
                // touching the hot row.
                let cold = n - k - 1;
                let src = k + 1 + rng.gen_range(0..cold);
                let mut to = k + 1 + rng.gen_range(0..cold);
                if cold >= 2 && to == src {
                    to = k + 1 + ((src - k) % cold);
                }
                (
                    ProcessId::new(src),
                    Erc20Op::Transfer {
                        to: AccountId::new(to),
                        value: rng.gen_range(0..3),
                    },
                )
            }
        })
        .collect()
}

/// The ERC721 marketplace starting grid behind [`nft_marketplace_ops`]:
/// the first half of the `tokens`-id space pre-minted round-robin over
/// the `n` processes, the second half left for lazy mints.
pub fn nft_market_state(n: usize, tokens: usize) -> Erc721State {
    Erc721State::minted_round_robin(n, tokens, tokens / 2)
}

/// An NFT-marketplace workload over [`nft_market_state`]`(n, tokens)`:
/// Zipf-skewed token ids (a few hot collections absorb most traffic),
/// ~70% owner `transferFrom`s, ~15% owner `approve`s, ~10% reads, ~5%
/// lazy mints of the unminted second half.
///
/// The generator tracks ownership while generating (the sequential
/// semantics), so transfers are issued *by the current owner* — the
/// owner-disjoint regime the paper says needs no synchronization: ops on
/// distinct token ids have disjoint footprints and the pipeline should
/// schedule them into wide waves, while the Zipf head creates genuine
/// same-token conflict chains.
///
/// # Panics
///
/// Panics if `n == 0` or `tokens < 2`.
pub fn nft_marketplace_ops(
    n: usize,
    tokens: usize,
    ops: usize,
    seed: u64,
    theta: f64,
) -> Vec<(ProcessId, Erc721Op)> {
    assert!(n > 0 && tokens >= 2);
    let mut rng = StdRng::seed_from_u64(seed);
    let zipf = ZipfSampler::new(tokens / 2, theta);
    // Mirror of nft_market_state's ownership, maintained as we generate.
    let mut owner: Vec<Option<usize>> = (0..tokens)
        .map(|t| (t < tokens / 2).then_some(t % n))
        .collect();
    let mut next_mint = tokens / 2;
    (0..ops)
        .map(|_| {
            let hot = zipf.sample(&mut rng); // pre-minted half
            match rng.gen_range(0..20) {
                0..=13 => {
                    let from = owner[hot].expect("pre-minted");
                    let to = rng.gen_range(0..n);
                    owner[hot] = Some(to);
                    (
                        ProcessId::new(from),
                        Erc721Op::TransferFrom {
                            from: ProcessId::new(from),
                            to: ProcessId::new(to),
                            token: TokenId::new(hot),
                        },
                    )
                }
                14..=16 => {
                    let holder = owner[hot].expect("pre-minted");
                    (
                        ProcessId::new(holder),
                        Erc721Op::Approve {
                            approved: Some(ProcessId::new(rng.gen_range(0..n))),
                            token: TokenId::new(hot),
                        },
                    )
                }
                17..=18 => (
                    ProcessId::new(rng.gen_range(0..n)),
                    Erc721Op::OwnerOf {
                        token: TokenId::new(hot),
                    },
                ),
                _ => {
                    // Lazy mint of the next unminted id (wrapping into
                    // re-mint attempts — harmless FALSEs — once the
                    // space is exhausted).
                    let token = if next_mint < tokens {
                        let t = next_mint;
                        next_mint += 1;
                        t
                    } else {
                        tokens - 1
                    };
                    let to = rng.gen_range(0..n);
                    if owner[token].is_none() {
                        owner[token] = Some(to);
                    }
                    (
                        ProcessId::new(to),
                        Erc721Op::Mint {
                            to: ProcessId::new(to),
                            token: TokenId::new(token),
                        },
                    )
                }
            }
        })
        .collect()
}

/// The ERC1155 starting state behind [`erc1155_batch_ops`]: every
/// account holds 1000 of each of `types` token types.
pub fn erc1155_funded_state(n: usize, types: usize) -> Erc1155State {
    let mut state = Erc1155State::deploy(n, ProcessId::new(0), &vec![0; types]);
    for a in 0..n {
        for t in 0..types {
            state.set_balance(AccountId::new(a), TypeId::new(t), 1000);
        }
    }
    state
}

/// An ERC1155 batch-transfer workload over
/// [`erc1155_funded_state`]`(n, types)`: each op is a
/// `safeBatchTransferFrom` of 1–4 type rows issued by its source's
/// owner. Sources stripe over the first half of the accounts and sinks
/// over the second (the owner-disjoint regime — batch cell sets of
/// distinct sources never intersect on the update side), except a
/// `hot_fraction` (in percent) of batches that all drain **account 0**
/// — intersecting cell sets that must serialize.
///
/// # Panics
///
/// Panics if `n < 4`, `types == 0`, or `hot_percent > 100`.
pub fn erc1155_batch_ops(
    n: usize,
    types: usize,
    ops: usize,
    seed: u64,
    hot_percent: usize,
) -> Vec<(ProcessId, Erc1155Op)> {
    assert!(n >= 4 && types > 0 && hot_percent <= 100);
    let mut rng = StdRng::seed_from_u64(seed);
    let half = n / 2;
    (0..ops)
        .map(|i| {
            let hot = rng.gen_range(0..100) < hot_percent;
            let from = if hot { 0 } else { i % half };
            let to = half + rng.gen_range(0..n - half);
            let rows = rng.gen_range(1..=4.min(types));
            let start = rng.gen_range(0..types);
            let entries = (0..rows)
                .map(|r| (TypeId::new((start + r) % types), rng.gen_range(0..3)))
                .collect();
            (
                ProcessId::new(from),
                Erc1155Op::BatchTransfer {
                    from: AccountId::new(from),
                    to: AccountId::new(to),
                    entries,
                },
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_is_deterministic() {
        assert_eq!(mixed_ops(4, 32, 5), mixed_ops(4, 32, 5));
        assert_eq!(zipf_ops(16, 64, 5, 0.9), zipf_ops(16, 64, 5, 0.9));
    }

    #[test]
    fn funded_state_has_allowances() {
        let s = funded_state(3);
        assert_eq!(s.total_supply(), 3000);
        assert_eq!(s.allowance(AccountId::new(2), ProcessId::new(0)), 500);
    }

    #[test]
    fn no_self_transfers_or_degenerate_transfer_froms() {
        for (caller, op) in mixed_ops(8, 4000, 11)
            .into_iter()
            .chain(zipf_ops(8, 4000, 11, 0.99))
        {
            match op {
                Erc20Op::Transfer { to, .. } => {
                    assert_ne!(to, caller.own_account(), "self-transfer generated");
                }
                Erc20Op::TransferFrom { from, to, .. } => {
                    assert_ne!(from, to, "degenerate transferFrom generated");
                }
                _ => {}
            }
        }
    }

    #[test]
    fn zipf_skews_toward_low_ranks() {
        let mut rng = StdRng::seed_from_u64(3);
        let zipf = ZipfSampler::new(1000, 0.99);
        let mut counts = [0usize; 1000];
        for _ in 0..20_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        // Rank 0 dominates any cold rank by an order of magnitude, and the
        // top 1% of ranks absorbs over a third of a theta=0.99 stream.
        assert!(counts[0] > 20 * counts[500].max(1));
        let head: usize = counts[..10].iter().sum();
        assert!(head > 6_000, "head too cold: {head}");
        // Every sample stays in range (the formula clamps the tail).
        assert_eq!(counts.iter().sum::<usize>(), 20_000);
    }

    #[test]
    fn zipf_theta_zero_is_roughly_uniform() {
        let mut rng = StdRng::seed_from_u64(9);
        let zipf = ZipfSampler::new(4, 0.0);
        let mut counts = [0usize; 4];
        for _ in 0..8000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        for &c in &counts {
            assert!((1500..2500).contains(&c), "not uniform: {counts:?}");
        }
    }

    #[test]
    fn single_account_workload_does_not_panic() {
        // n = 1 cannot avoid degenerate pairs; it must still generate.
        let ops = mixed_ops(1, 50, 2);
        assert_eq!(ops.len(), 50);
    }

    #[test]
    fn disjoint_transfers_are_pairwise_footprint_disjoint() {
        use tokensync_core::analysis::footprints_conflict;
        let n = 16;
        let ops = disjoint_transfers(n, n / 2, 3);
        for (i, x) in ops.iter().enumerate() {
            for y in &ops[i + 1..] {
                assert!(
                    !footprints_conflict((x.0, &x.1), (y.0, &y.1)),
                    "window of n/2 ops must be conflict-free"
                );
            }
        }
        assert_eq!(disjoint_transfers(n, 64, 3), disjoint_transfers(n, 64, 3));
    }

    #[test]
    fn nft_marketplace_transfers_are_issued_by_the_running_owner() {
        use tokensync_core::standards::erc721::{Erc721Resp, Erc721Spec};
        use tokensync_spec::ObjectType;
        let (n, tokens) = (8, 32);
        let ops = nft_marketplace_ops(n, tokens, 500, 9, 0.9);
        assert_eq!(ops, nft_marketplace_ops(n, tokens, 500, 9, 0.9));
        // Replaying sequentially, every transfer and approve must be
        // authorized (the generator tracks ownership), so the only FALSE
        // responses are re-mint attempts.
        let spec = Erc721Spec::new(nft_market_state(n, tokens));
        let mut q = spec.initial_state();
        for (caller, op) in &ops {
            let resp = spec.apply(&mut q, *caller, op);
            if resp == Erc721Resp::FALSE {
                assert!(
                    matches!(op, Erc721Op::Mint { .. }),
                    "unauthorized marketplace op: {op:?}"
                );
            }
        }
    }

    #[test]
    fn erc1155_disjoint_batches_have_disjoint_footprints() {
        use tokensync_core::analysis::FootprintedOp;
        let (n, types) = (16, 4);
        let ops = erc1155_batch_ops(n, types, n / 2, 5, 0);
        assert_eq!(ops, erc1155_batch_ops(n, types, n / 2, 5, 0));
        // A window of n/2 consecutive hot-free batches has pairwise
        // disjoint sources and only co-credits sinks: fully commuting.
        for (i, x) in ops.iter().enumerate() {
            for y in &ops[i + 1..] {
                assert!(
                    !x.1.footprint(x.0).conflicts_with(&y.1.footprint(y.0)),
                    "disjoint-regime batches must commute"
                );
            }
        }
        // The hot regime concentrates sources on account 0.
        let hot = erc1155_batch_ops(n, types, 100, 5, 100);
        for (caller, op) in &hot {
            assert_eq!(caller.index(), 0);
            match op {
                Erc1155Op::BatchTransfer { from, .. } => assert_eq!(from.index(), 0),
                other => panic!("unexpected op {other:?}"),
            }
        }
    }

    #[test]
    fn hot_row_ops_concentrate_on_the_shared_row() {
        let (n, k) = (32, 8);
        let state = hot_row_state(n, k);
        for sp in 1..=k {
            assert_eq!(
                state.allowance(AccountId::new(0), ProcessId::new(sp)),
                1_000_000
            );
        }
        let ops = hot_row_ops(n, 4000, 7, k);
        let mut hot = 0usize;
        for (caller, op) in &ops {
            match op {
                Erc20Op::TransferFrom { from, .. } => {
                    assert_eq!(from.index(), 0, "hot transferFrom must hit the row");
                    assert!((1..=k).contains(&caller.index()));
                    hot += 1;
                }
                Erc20Op::Approve { spender, .. } => {
                    assert_eq!(caller.index(), 0, "only the owner re-approves");
                    assert!((1..=k).contains(&spender.index()));
                    hot += 1;
                }
                Erc20Op::Transfer { to, .. } => {
                    assert!(caller.index() > k, "background stays cold");
                    assert!(to.index() > k);
                }
                other => panic!("unexpected op kind {other:?}"),
            }
        }
        // The stream is conflict-dominated: ~80% hits the hot row.
        assert!(hot * 10 > ops.len() * 7, "hot share too low: {hot}");
        assert_eq!(hot_row_ops(n, 64, 7, k), hot_row_ops(n, 64, 7, k));
    }
}
