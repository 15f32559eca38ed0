//! Cross-check of the Section 6 footprint conflict catalogs against the
//! model checker's ground truth.
//!
//! For exhaustively enumerated small ERC20, ERC721 and ERC1155 universes, every
//! ordered operation pair by every pair of distinct processes is
//! classified with [`classify_pair_for`] (commute / read-only / genuine
//! conflict, the Theorem 3 trichotomy). The check: **every genuine
//! conflict is caught by the footprint relation** — i.e. the
//! state-independent cell catalog the pipeline schedules by is a sound
//! superset of the model-checked conflicts, for every standard.
//! (The converse is deliberately false: footprints
//! over-approximate — e.g. a credit landing on a drained account — which
//! costs parallelism, never correctness.)

use tokensync_core::analysis::FootprintedOp;
use tokensync_core::erc20::{Erc20Spec, Erc20State};
use tokensync_core::standards::erc1155::{Erc1155Op, Erc1155Spec, Erc1155State, TypeId};
use tokensync_core::standards::erc721::{Erc721Op, Erc721Spec, Erc721State, TokenId};
use tokensync_mc::commute::{classify_pair_for, op_menu, PairClass};
use tokensync_mc::enumerate::enumerate_states;
use tokensync_spec::{AccountId, ObjectType, ProcessId};

fn p(i: usize) -> ProcessId {
    ProcessId::new(i)
}
fn a(i: usize) -> AccountId {
    AccountId::new(i)
}

/// Sweeps every ordered op pair by every ordered pair of distinct
/// processes over `states`, asserting footprint soundness; returns the
/// number of genuine conflicts seen (so the sweep is provably
/// non-vacuous).
fn sweep<S>(spec: &S, states: &[S::State], processes: usize, ops: &[S::Op]) -> usize
where
    S: ObjectType,
    S::Op: FootprintedOp + std::fmt::Debug,
    S::State: std::fmt::Debug,
{
    let mut conflicts = 0;
    for state in states {
        for p1 in 0..processes {
            for p2 in 0..processes {
                if p1 == p2 {
                    continue;
                }
                let (p1, p2) = (p(p1), p(p2));
                for o1 in ops {
                    for o2 in ops {
                        let class = classify_pair_for(spec, state, (p1, o1), (p2, o2));
                        if class == PairClass::Conflict {
                            conflicts += 1;
                            assert!(
                                o1.footprint(p1).conflicts_with(&o2.footprint(p2)),
                                "model-checked conflict missed by footprints at \
                                 {state:?}: {p1}:{o1:?} vs {p2}:{o2:?}"
                            );
                        }
                    }
                }
            }
        }
    }
    conflicts
}

#[test]
fn erc20_footprints_catch_every_model_checked_conflict() {
    let n = 2;
    let states: Vec<Erc20State> = enumerate_states(n, 2, 2).collect();
    let spec = Erc20Spec::new(Erc20State::new(n));
    let conflicts = sweep(&spec, &states, n, &op_menu(n, &[1, 2]));
    assert!(conflicts > 0, "sweep must exercise genuine conflicts");
}

/// Every ERC721 state over `n` processes and `tokens` token ids: each
/// token unminted or (owner × approved) in all combinations, crossed
/// with every operator-pair subset.
fn erc721_states(n: usize, tokens: usize) -> Vec<Erc721State> {
    // Per-token configurations: None = unminted, or (owner, approved).
    let mut per_token: Vec<Option<(usize, Option<usize>)>> = vec![None];
    for owner in 0..n {
        per_token.push(Some((owner, None)));
        for ap in 0..n {
            per_token.push(Some((owner, Some(ap))));
        }
    }
    let pairs: Vec<(usize, usize)> = (0..n)
        .flat_map(|h| (0..n).filter(move |&o| o != h).map(move |o| (h, o)))
        .collect();
    let mut states = Vec::new();
    let mut token_config = vec![0usize; tokens];
    loop {
        for op_mask in 0..(1usize << pairs.len()) {
            let mut q = Erc721State::new(n, tokens);
            let spec = Erc721Spec::new(q.clone());
            // Build through the spec's own transitions so every state is
            // genuinely reachable-shaped (mint, then approve/operators).
            let mut builder = spec.initial_state();
            for (t, &cfg) in token_config.iter().enumerate() {
                if let Some((owner, approved)) = per_token[cfg] {
                    spec.apply(
                        &mut builder,
                        p(owner),
                        &Erc721Op::Mint {
                            to: p(owner),
                            token: TokenId::new(t),
                        },
                    );
                    if let Some(ap) = approved {
                        spec.apply(
                            &mut builder,
                            p(owner),
                            &Erc721Op::Approve {
                                approved: Some(p(ap)),
                                token: TokenId::new(t),
                            },
                        );
                    }
                }
            }
            for (i, &(h, o)) in pairs.iter().enumerate() {
                if op_mask & (1 << i) != 0 {
                    builder.set_operator(p(h), p(o), true);
                }
            }
            q = builder;
            states.push(q);
        }
        // Next token configuration (mixed-radix counter).
        let mut t = 0;
        loop {
            if t == tokens {
                return states;
            }
            token_config[t] += 1;
            if token_config[t] < per_token.len() {
                break;
            }
            token_config[t] = 0;
            t += 1;
        }
    }
}

#[test]
fn erc721_footprints_catch_every_model_checked_conflict() {
    let n = 2;
    let tokens = 2;
    let states = erc721_states(n, tokens);
    let mut ops = Vec::new();
    for t in 0..tokens {
        let token = TokenId::new(t);
        ops.push(Erc721Op::OwnerOf { token });
        ops.push(Erc721Op::GetApproved { token });
        for to in 0..n {
            ops.push(Erc721Op::Mint { to: p(to), token });
            ops.push(Erc721Op::Approve {
                approved: Some(p(to)),
                token,
            });
            for from in 0..n {
                ops.push(Erc721Op::TransferFrom {
                    from: p(from),
                    to: p(to),
                    token,
                });
            }
        }
    }
    for op in 0..n {
        for on in [true, false] {
            ops.push(Erc721Op::SetApprovalForAll {
                operator: p(op),
                on,
            });
        }
    }
    let spec = Erc721Spec::new(Erc721State::new(n, tokens));
    let conflicts = sweep(&spec, &states, n, &ops);
    assert!(conflicts > 0, "sweep must exercise genuine conflicts");
}

/// Every ERC1155 state over `n` accounts × `types` types with balances
/// in `0..=max`, crossed with every operator-pair subset.
fn erc1155_states(n: usize, types: usize, max: u64) -> Vec<Erc1155State> {
    let cells = n * types;
    let radix = (max + 1) as usize;
    let pairs: Vec<(usize, usize)> = (0..n)
        .flat_map(|h| (0..n).filter(move |&o| o != h).map(move |o| (h, o)))
        .collect();
    let mut states = Vec::new();
    let mut config = vec![0usize; cells];
    loop {
        for op_mask in 0..(1usize << pairs.len()) {
            let mut q = Erc1155State::deploy(n, p(0), &vec![0; types]);
            for (cell, &v) in config.iter().enumerate() {
                if v > 0 {
                    q.set_balance(a(cell % n), TypeId::new(cell / n), v as u64);
                }
            }
            for (i, &(h, o)) in pairs.iter().enumerate() {
                if op_mask & (1 << i) != 0 {
                    q.set_operator(a(h), p(o), true);
                }
            }
            states.push(q);
        }
        let mut c = 0;
        loop {
            if c == cells {
                return states;
            }
            config[c] += 1;
            if config[c] < radix {
                break;
            }
            config[c] = 0;
            c += 1;
        }
    }
}

#[test]
fn erc1155_footprints_catch_every_model_checked_conflict() {
    let n = 2;
    let types = 2;
    let states = erc1155_states(n, types, 2);
    let mut ops = Vec::new();
    for t in 0..types {
        let type_id = TypeId::new(t);
        ops.push(Erc1155Op::TotalSupply { type_id });
        for acct in 0..n {
            ops.push(Erc1155Op::BalanceOf {
                account: a(acct),
                type_id,
            });
        }
        for from in 0..n {
            for to in 0..n {
                for v in [1u64, 2] {
                    ops.push(Erc1155Op::Transfer {
                        from: a(from),
                        to: a(to),
                        type_id,
                        value: v,
                    });
                }
            }
        }
    }
    // Batches spanning both types — the cell-union case.
    for from in 0..n {
        for to in 0..n {
            ops.push(Erc1155Op::BatchTransfer {
                from: a(from),
                to: a(to),
                entries: vec![(TypeId::new(0), 1), (TypeId::new(1), 1)],
            });
        }
    }
    for op in 0..n {
        for on in [true, false] {
            ops.push(Erc1155Op::SetApprovalForAll {
                operator: p(op),
                on,
            });
        }
    }
    let spec = Erc1155Spec::new(Erc1155State::deploy(n, p(0), &vec![0; types]));
    let conflicts = sweep(&spec, &states, n, &ops);
    assert!(conflicts > 0, "sweep must exercise genuine conflicts");
}
