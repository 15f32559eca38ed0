//! Routing tickets stay aligned with the entries they tag.
//!
//! A producer that tags its submissions ([`IntakeClient::submit_tagged`])
//! is answered through [`CommitSink::wave_committed_tagged`]: `tickets[i]`
//! must name the producer of `entries[i]` in every record, on a bypassed
//! batch (committed in submission order) and on a scheduled multi-wave
//! batch (committed waves first, then the serial lane — a permutation of
//! submission order) alike.
//!
//! [`IntakeClient::submit_tagged`]: tokensync_pipeline::IntakeClient::submit_tagged

use std::collections::HashSet;
use std::sync::Arc;
use std::time::Duration;

use tokensync_core::erc20::{Erc20Op, Erc20Resp, Erc20Spec, Erc20State};
use tokensync_core::shared::{ConcurrentToken, ShardedErc20};
use tokensync_pipeline::{
    BatchConfig, CommitSink, CommittedOp, Pipeline, PipelineConfig, PipelineObs, NO_TICKET,
};
use tokensync_spec::{AccountId, ProcessId};

fn p(i: usize) -> ProcessId {
    ProcessId::new(i)
}
fn a(i: usize) -> AccountId {
    AccountId::new(i)
}

/// One committed record as the sink saw it.
struct Record {
    entries: Vec<(ProcessId, Erc20Op)>,
    tickets: Vec<u64>,
}

/// Keeps every record's `(caller, op)` entries next to its tickets.
#[derive(Default)]
struct TicketSink {
    records: Vec<Record>,
}

impl CommitSink<ShardedErc20> for TicketSink {
    fn wave_committed(
        &mut self,
        token: &ShardedErc20,
        entries: &[CommittedOp<Erc20Op, Erc20Resp>],
    ) {
        self.wave_committed_tagged(token, entries, &[]);
    }
    fn wave_committed_tagged(
        &mut self,
        _token: &ShardedErc20,
        entries: &[CommittedOp<Erc20Op, Erc20Resp>],
        tickets: &[u64],
    ) {
        self.records.push(Record {
            entries: entries.iter().map(|e| (e.caller, e.op.clone())).collect(),
            tickets: tickets.to_vec(),
        });
    }
    fn batch_sealed(&mut self, _token: &ShardedErc20, _batch: u64) {}
}

/// Owner-disjoint transfers: every batch of them is bypassed.
fn disjoint(n: usize) -> impl Iterator<Item = (ProcessId, Erc20Op)> {
    (0..n).map(|i| {
        (
            p(8 + i),
            Erc20Op::Transfer {
                to: a(80 + i),
                value: 1,
            },
        )
    })
}

/// Spenders draining account 0's allowance row, interleaved with
/// disjoint transfers: the spends chain wave after wave (and spill into
/// the serial lane), while the transfers all share wave 0 — so commit
/// order overtakes later spends with earlier-wave transfers.
fn hot_row(n: usize) -> impl Iterator<Item = (ProcessId, Erc20Op)> {
    (0..n).map(|i| {
        if i % 2 == 0 {
            (
                p(1 + (i / 2) % 7),
                Erc20Op::TransferFrom {
                    from: a(0),
                    to: a(1 + (i / 2 + 1) % 7),
                    value: 1,
                },
            )
        } else {
            (
                p(8 + i / 2),
                Erc20Op::Transfer {
                    to: a(80 + i / 2),
                    value: 1,
                },
            )
        }
    })
}

/// Whether submission `i` goes in tagged (two in three do).
fn tagged(i: usize) -> bool {
    i % 3 != 2
}

#[test]
fn tickets_follow_their_entries_through_bypassed_and_scheduled_batches() {
    const DISJOINT: usize = 64;
    const HOT: usize = 64;
    let mut initial = Erc20State::from_balances(vec![1_000; 128]);
    for sp in 1..8 {
        initial.set_allowance(a(0), p(sp), 500);
    }
    let token = Arc::new(ShardedErc20::from_state(initial.clone()));
    let cfg = PipelineConfig {
        batch: BatchConfig {
            max_ops: 32,
            // Long enough that a batch is cut by size, not by the timer.
            max_wait: Duration::from_millis(20),
            queue_depth: 256,
            intake_shards: 1,
        },
        ..PipelineConfig::default()
    };
    let (client, handle) = Pipeline::spawn_observed(
        Arc::clone(&token),
        cfg,
        TicketSink::default(),
        PipelineObs::disabled(),
    );
    let script: Vec<(ProcessId, Erc20Op)> = disjoint(DISJOINT).chain(hot_row(HOT)).collect();
    // Ticket = submission index + 1 (0 is NO_TICKET).
    for (i, (caller, op)) in script.iter().enumerate() {
        if tagged(i) {
            client
                .submit_tagged(*caller, op.clone(), i as u64 + 1)
                .expect("engine alive");
        } else {
            client.submit(*caller, op.clone()).expect("engine alive");
        }
    }
    drop(client);
    let (run, sink) = handle.finish();
    assert_eq!(run.stats.ops as usize, script.len());
    assert!(run.stats.bypassed_batches >= 1, "{:?}", run.stats);
    assert!(run.stats.waves > run.stats.batches, "{:?}", run.stats);

    let mut seen = HashSet::new();
    let mut untagged = 0;
    let mut reordered = false;
    for record in &sink.records {
        assert_eq!(record.tickets.len(), record.entries.len());
        for (ticket, entry) in record.tickets.iter().zip(&record.entries) {
            if *ticket == NO_TICKET {
                untagged += 1;
                continue;
            }
            let idx = (*ticket - 1) as usize;
            assert!(tagged(idx), "ticket {ticket} was never issued");
            assert_eq!(&script[idx], entry, "ticket {ticket} names another op");
            assert!(seen.insert(*ticket), "ticket {ticket} delivered twice");
        }
        let issued: Vec<u64> = record
            .tickets
            .iter()
            .copied()
            .filter(|&t| t != NO_TICKET)
            .collect();
        reordered |= issued.windows(2).any(|w| w[0] > w[1]);
    }
    let expected_tagged = (0..script.len()).filter(|&i| tagged(i)).count();
    assert_eq!(seen.len(), expected_tagged);
    assert_eq!(untagged, script.len() - expected_tagged);
    assert!(
        reordered,
        "some scheduled record must commit out of submission order"
    );
    let replayed = run
        .log
        .replay(&Erc20Spec::new(initial))
        .expect("consistent responses");
    assert_eq!(replayed, token.state_snapshot());
}
