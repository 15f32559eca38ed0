//! The assembled engine: ingest → analyze → schedule → execute → commit,
//! generic over every footprinted standard.
//!
//! Two shapes drive one batch-processing core:
//!
//! * [`run_script`] — synchronous: chunk a pre-built operation stream
//!   into batches and push each through the stages on the calling thread
//!   (plus the wave worker pool). Deterministic, so the property suites
//!   and benchmarks use it.
//! * [`Pipeline::spawn_observed`] — the serving shape: a background
//!   engine thread pulls batches from the bounded intake queue
//!   ([`IntakeClient::submit`] from any number of client threads),
//!   executes them, and streams every commit into its [`CommitSink`];
//!   dropping every client and calling [`SinkedPipelineHandle::finish`]
//!   drains the queue and returns the [`PipelineRun`] with the sink. The
//!   volatile, unobserved engine is the unit sink `()` with
//!   [`PipelineObs::disabled`].
//!
//! Every batch takes the same path through the core: plan, execute,
//! commit, seal. The plan is the scheduler's waves and serial lane — or,
//! when the adaptive-bypass probe ([`Scheduler::batch_commutes`])
//! certifies the whole batch pairwise commuting, a single wave holding
//! every op in submission order. The bypass skips wave construction,
//! not the executor or the commit path.
//!
//! There is exactly **one** engine: the same schedule/execute/commit
//! machinery serves an ERC20 [`ShardedErc20`], an ERC721
//! [`ShardedErc721`] or an ERC1155 [`ShardedErc1155`] — the standard is
//! a type parameter, not a copy of the pipeline.
//!
//! [`ShardedErc20`]: tokensync_core::shared::ShardedErc20
//! [`ShardedErc721`]: tokensync_core::standards::erc721::ShardedErc721
//! [`ShardedErc1155`]: tokensync_core::standards::erc1155::ShardedErc1155

use std::sync::Arc;
use std::thread::JoinHandle;

use tokensync_core::shared::ConcurrentObject;
use tokensync_obs::Stage;
use tokensync_spec::ProcessId;

use crate::batch::{intake, BatchConfig, IntakeClient};
use crate::commit::{CommitLog, CommittedOp};
use crate::exec::{execute, ExecConfig};
use crate::obs::PipelineObs;
use crate::schedule::{Schedule, ScheduleConfig, Scheduler};

/// A durability hook on the commit stage: the engine hands every batch's
/// committed entries to the sink as one record the moment they enter
/// the log, and signals each batch boundary (the group-commit cut).
///
/// The unit sink `()` is the volatile engine; `tokensync-store`'s
/// `Store` implements this trait to stream the commit log into a
/// write-ahead log with snapshots.
pub trait CommitSink<T: ConcurrentObject + ?Sized> {
    /// One committed record: everything a non-empty batch appended to
    /// the commit log, in commit order (its waves in order, then the
    /// serial lane; submission order for a bypassed batch). Records
    /// arrive in commit order, at most one per batch.
    fn wave_committed(&mut self, token: &T, entries: &[CommittedOp<T::Op, T::Resp>]);

    /// [`wave_committed`](CommitSink::wave_committed) plus the routing
    /// tickets the producers attached via
    /// [`IntakeClient::submit_tagged`]: `tickets` parallels `entries`
    /// (same permutation into commit order), or is empty when the batch
    /// carried no tickets (the synchronous [`run_script`] paths). A
    /// response-routing sink overrides this to resolve per-request
    /// futures at commit; every other sink keeps the default,
    /// which drops the tickets and forwards to `wave_committed` — so
    /// ack-at-commit semantics cost existing sinks nothing.
    ///
    /// [`IntakeClient::submit_tagged`]: crate::batch::IntakeClient::submit_tagged
    fn wave_committed_tagged(
        &mut self,
        token: &T,
        entries: &[CommittedOp<T::Op, T::Resp>],
        tickets: &[u64],
    ) {
        let _ = tickets;
        self.wave_committed(token, entries);
    }

    /// The batch boundary after all of a batch's waves committed — where
    /// group-commit durability syncs and snapshot policies trigger.
    /// `token` is quiescent here (no wave in flight), so a
    /// [`snapshot`](ConcurrentObject::snapshot) taken now corresponds
    /// exactly to the log prefix.
    ///
    /// A seal is an *acknowledgement* boundary, not necessarily a
    /// durability one: a pipelined sink may hand the actual fsync to a
    /// background thread and return immediately. The gap is observable
    /// through [`CommitSink::durable_seq`].
    fn batch_sealed(&mut self, token: &T, batch: u64);

    /// The sink's durable watermark, if it maintains one: the highest
    /// global sequence number guaranteed to survive a crash. `None` for
    /// sinks without durability (the unit sink, pure observers). The
    /// engine samples this at the end of a run into
    /// [`PipelineStats::durable_seq`], exposing the sealed-vs-durable
    /// window without a store round trip.
    fn durable_seq(&self) -> Option<u64> {
        None
    }
}

/// The volatile engine: no durability.
impl<T: ConcurrentObject + ?Sized> CommitSink<T> for () {
    fn wave_committed(&mut self, _token: &T, _entries: &[CommittedOp<T::Op, T::Resp>]) {}
    fn batch_sealed(&mut self, _token: &T, _batch: u64) {}
}

/// The adaptive bypass: while the engine's conflict-density EWMA is at
/// or below this threshold, each batch is *probed*
/// ([`Scheduler::batch_commutes`]) and, on a clean probe, planned as one
/// wave in submission order — no wave construction. The probe runs
/// **before** anything executes, so a failed check costs one prefix scan
/// and the batch is scheduled from its intake buffer: no speculative
/// effect ever needs undoing. Once traffic turns contended the probe's
/// prefix scans stop being paid at all, and the bypass re-engages only
/// after the density decays back down.
const BYPASS_MAX_DENSITY: f64 = 0.05;

/// EWMA smoothing factor of the conflict density: the weight of the
/// newest batch's measured density (conflict hits per op on the
/// scheduled path, 0 on a bypassed batch).
const DENSITY_ALPHA: f64 = 0.3;

/// Full engine configuration.
#[derive(Clone, Copy, Debug, Default)]
pub struct PipelineConfig {
    /// Intake batching policy.
    pub batch: BatchConfig,
    /// Wave scheduling policy.
    pub schedule: ScheduleConfig,
    /// Wave execution policy.
    pub exec: ExecConfig,
}

/// Aggregate counters over every batch an engine processed.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PipelineStats {
    /// Batches cut and executed.
    pub batches: u64,
    /// Operations committed.
    pub ops: u64,
    /// Ops executed in parallel waves.
    pub parallel_ops: u64,
    /// Ops funneled through the serial lane.
    pub serial_ops: u64,
    /// Parallel waves executed (across all batches). A bypassed batch
    /// counts as one wave — it *is* one all-commuting wave.
    pub waves: u64,
    /// Contention proxy summed over batches (see
    /// [`Schedule::conflicts`]).
    pub conflicts: u64,
    /// Batches the adaptive bypass routed around the scheduler (probe
    /// certified all-commuting; planned as one wave in submission
    /// order).
    pub bypassed_batches: u64,
    /// Operations committed through the bypass path.
    pub bypassed_ops: u64,
    /// Probes that found a conflict: the batch was mispredicted as
    /// low-conflict and fell back to the full scheduled path (from its
    /// intake buffer — nothing had executed yet).
    pub bypass_aborts: u64,
    /// `CommitSink::wave_committed` records emitted: one per non-empty
    /// batch (a batch's waves and serial lane commit as one record).
    pub commit_records: u64,
    /// The sink's [`durable_seq`](CommitSink::durable_seq) sampled when
    /// the run ended — `None` for sinks without one. Compared against
    /// [`ops`](Self::ops), this is the sealed-vs-durable window a
    /// pipelined group-commit store leaves open at the end of a run
    /// (close or flush the store to shrink it to zero).
    pub durable_seq: Option<u64>,
}

impl PipelineStats {
    /// Mean ops per parallel wave over the whole run — the engine's
    /// measured wave parallelism. A fully commuting stream approaches the
    /// batch size; a fully conflicting stream approaches 1.
    pub fn wave_parallelism(&self) -> f64 {
        if self.waves == 0 {
            return 0.0;
        }
        self.parallel_ops as f64 / self.waves as f64
    }

    /// Fraction of ops that needed the serial lane.
    pub fn serial_fraction(&self) -> f64 {
        if self.ops == 0 {
            return 0.0;
        }
        self.serial_ops as f64 / self.ops as f64
    }

    /// Fraction of batches the bypass carried.
    pub fn bypass_rate(&self) -> f64 {
        if self.batches == 0 {
            return 0.0;
        }
        self.bypassed_batches as f64 / self.batches as f64
    }

    fn absorb(&mut self, s: &Schedule, bypassed: bool) {
        self.batches += 1;
        self.ops += s.ops() as u64;
        self.parallel_ops += s.parallel_ops() as u64;
        self.serial_ops += s.serial.len() as u64;
        self.waves += s.waves.len() as u64;
        self.conflicts += s.conflicts as u64;
        if bypassed {
            self.bypassed_batches += 1;
            self.bypassed_ops += s.ops() as u64;
        }
    }
}

/// Result of a completed engine run: the linearization record plus the
/// scheduling counters.
#[derive(Clone, Debug)]
pub struct PipelineRun<Op, Resp> {
    /// The committed linearization.
    pub log: CommitLog<Op, Resp>,
    /// Scheduling/execution counters.
    pub stats: PipelineStats,
}

impl<Op, Resp> Default for PipelineRun<Op, Resp> {
    fn default() -> Self {
        Self {
            log: CommitLog::default(),
            stats: PipelineStats::default(),
        }
    }
}

/// The engine's retained per-loop state: the configuration, the run
/// being built, the reusable scheduling context (registries + footprint
/// buffer — the reason analyze/schedule allocate nothing per op) and the
/// conflict-density EWMA the adaptive bypass steers by. One per serving
/// loop; batches of one loop always flow through the same core, so the
/// predictor sees the full traffic history.
struct EngineCore<T: ConcurrentObject + ?Sized> {
    cfg: PipelineConfig,
    run: PipelineRun<T::Op, T::Resp>,
    scheduler: Scheduler,
    /// EWMA of measured conflict density (conflict hits per op), in
    /// `[0, 1]`. Starts at 0 — optimistic, so the first batch of a
    /// stream is probed and a conflicting stream pays exactly one
    /// aborted probe before the bypass disengages.
    density: f64,
}

impl<T: ConcurrentObject + ?Sized> EngineCore<T> {
    fn new(cfg: PipelineConfig) -> Self {
        Self {
            cfg,
            run: PipelineRun::default(),
            scheduler: Scheduler::new(),
            density: 0.0,
        }
    }

    fn observe(&mut self, batch_density: f64) {
        self.density =
            (1.0 - DENSITY_ALPHA) * self.density + DENSITY_ALPHA * batch_density.clamp(0.0, 1.0);
    }

    /// One batch through plan → execute → commit → seal, streaming the
    /// committed record (and the batch seal) into `sink`. The plan is
    /// one all-commuting wave when the bypass probe certifies the batch,
    /// the scheduler's waves and serial lane otherwise. `obs` is the
    /// recorder seam: disabled, each instrumentation point is one
    /// inlined branch. `tickets` parallels `ops` in submission order
    /// (empty when the batch carries none); the sink sees it permuted
    /// into the same commit order as the entries it receives.
    fn process_batch<K: CommitSink<T>>(
        &mut self,
        token: &T,
        seq: u64,
        ops: &[(ProcessId, T::Op)],
        tickets: &[u64],
        sink: &mut K,
        obs: &PipelineObs,
    ) {
        let mut clock = obs.batch_clock(seq);
        // Speculation gate: probe only while measured density is low. The
        // certification precedes every effect, so a failed probe
        // schedules the identical buffered ops with nothing to roll back.
        let bypassed = self.density <= BYPASS_MAX_DENSITY && !ops.is_empty() && {
            let clean = self.scheduler.batch_commutes(ops);
            clock.lap(Stage::BypassProbe);
            if clean {
                obs.bypass_engaged();
            } else {
                self.run.stats.bypass_aborts += 1;
                obs.bypass_aborted();
            }
            clean
        };
        let plan = if bypassed {
            Schedule::one_wave(ops.len())
        } else {
            let plan = self.scheduler.schedule(ops, &self.cfg.schedule);
            clock.lap(Stage::Schedule);
            plan
        };
        let responses = execute(token, ops, &plan, &self.cfg.exec);
        clock.lap(Stage::Execute);
        self.run.stats.absorb(&plan, bypassed);
        self.observe(plan.conflicts as f64 / ops.len().max(1) as f64);
        let start = self.run.log.append_batch(seq, ops, &responses, &plan);
        clock.lap(Stage::Commit);
        // The appended slice is waves in order, then the serial lane, and
        // goes to the sink as one record. The tickets follow the entries
        // through the same permutation so `tagged[i]` still names
        // `committed[i]`'s producer.
        let committed = &self.run.log.entries()[start..];
        if !committed.is_empty() {
            let tagged: Vec<u64> = if tickets.is_empty() {
                Vec::new()
            } else {
                plan.commit_order().map(|idx| tickets[idx]).collect()
            };
            sink.wave_committed_tagged(token, committed, &tagged);
            self.run.stats.commit_records += 1;
        }
        sink.batch_sealed(token, seq);
        clock.lap(Stage::Seal);
        clock.finish(ops.len());
    }

    /// Ends the run: samples the sink's durable watermark into the stats.
    fn finish<K: CommitSink<T>>(mut self, sink: &K) -> PipelineRun<T::Op, T::Resp> {
        self.run.stats.durable_seq = sink.durable_seq();
        self.run
    }
}

/// Synchronously executes `script` through the pipeline stages against
/// `token`, cutting batches of [`BatchConfig::max_ops`] (the time cut
/// never fires: the stream is already complete).
///
/// # Example
///
/// ```
/// use tokensync_core::erc20::{Erc20Op, Erc20State};
/// use tokensync_core::shared::ShardedErc20;
/// use tokensync_pipeline::{run_script, PipelineConfig};
/// use tokensync_spec::{AccountId, ProcessId};
///
/// let token = ShardedErc20::from_state(Erc20State::from_balances(vec![5; 8]));
/// let script = vec![(ProcessId::new(0), Erc20Op::Transfer {
///     to: AccountId::new(1),
///     value: 2,
/// })];
/// let run = run_script(&token, &script, &PipelineConfig::default());
/// assert_eq!(run.log.len(), 1);
/// ```
pub fn run_script<T: ConcurrentObject + ?Sized>(
    token: &T,
    script: &[(ProcessId, T::Op)],
    cfg: &PipelineConfig,
) -> PipelineRun<T::Op, T::Resp> {
    run_script_with_sink(token, script, cfg, &mut ())
}

/// [`run_script`] with a durability [`CommitSink`] observing every
/// committed wave and batch seal.
pub fn run_script_with_sink<T: ConcurrentObject + ?Sized, K: CommitSink<T>>(
    token: &T,
    script: &[(ProcessId, T::Op)],
    cfg: &PipelineConfig,
    sink: &mut K,
) -> PipelineRun<T::Op, T::Resp> {
    run_script_observed(token, script, cfg, sink, &PipelineObs::disabled())
}

/// [`run_script_with_sink`] with a [`PipelineObs`] recorder: per-stage
/// and whole-batch latency histograms, bypass counters and sampled
/// span traces land in the recorder's registry as the run executes.
/// Pass [`PipelineObs::disabled`] to record nothing (that is exactly
/// what the plain entry points do).
pub fn run_script_observed<T: ConcurrentObject + ?Sized, K: CommitSink<T>>(
    token: &T,
    script: &[(ProcessId, T::Op)],
    cfg: &PipelineConfig,
    sink: &mut K,
    obs: &PipelineObs,
) -> PipelineRun<T::Op, T::Resp> {
    let mut core = EngineCore::new(*cfg);
    let size = cfg.batch.max_ops.max(1);
    for (seq, ops) in script.chunks(size).enumerate() {
        core.process_batch(token, seq as u64, ops, &[], sink, obs);
    }
    core.finish(sink)
}

/// Handle on a spawned engine: join it to collect the run *and* the
/// sink (e.g. the store, ready to be closed or queried for its
/// watermark).
#[derive(Debug)]
pub struct SinkedPipelineHandle<Op, Resp, K> {
    join: JoinHandle<(PipelineRun<Op, Resp>, K)>,
}

impl<Op, Resp, K> SinkedPipelineHandle<Op, Resp, K> {
    /// Waits for the engine to drain and stop (all [`IntakeClient`]s must
    /// be dropped first, or this blocks forever); returns the run and
    /// gives the sink back.
    ///
    /// # Panics
    ///
    /// Propagates a panic of the engine thread.
    pub fn finish(self) -> (PipelineRun<Op, Resp>, K) {
        self.join.join().expect("pipeline engine panicked")
    }
}

/// What [`Pipeline::spawn_observed`] returns: the producer handle and
/// the engine handle.
type Spawned<T, K> = (
    IntakeClient<<T as ConcurrentObject>::Op>,
    SinkedPipelineHandle<<T as ConcurrentObject>::Op, <T as ConcurrentObject>::Resp, K>,
);

/// The engine's serving shape.
pub struct Pipeline;

impl Pipeline {
    /// Spawns a background engine over `token`; returns the producer
    /// handle (clone it per client thread) and the engine handle. The
    /// sink moves onto the engine thread (commit-stage callbacks run
    /// there) and is returned by [`SinkedPipelineHandle::finish`]; pass
    /// `()` for a volatile engine. The recorder handle is cloneable:
    /// keep one on the caller side to read the registry / span ring
    /// while the engine serves, or pass [`PipelineObs::disabled`].
    pub fn spawn_observed<T, K>(
        token: Arc<T>,
        cfg: PipelineConfig,
        mut sink: K,
        obs: PipelineObs,
    ) -> Spawned<T, K>
    where
        T: ConcurrentObject + 'static,
        K: CommitSink<T> + Send + 'static,
    {
        let (client, mut batcher) = intake(cfg.batch);
        let join = std::thread::spawn(move || {
            let mut core = EngineCore::new(cfg);
            loop {
                // The wait for a batch is itself a stage: it is the
                // intake (queueing) component of an op's end-to-end
                // latency.
                let waiting_since = obs.now();
                let Some(batch) = batcher.next_batch() else {
                    break;
                };
                obs.record_stage(batch.seq, Stage::IntakeWait, waiting_since);
                obs.sample_queue_depths(|i| batcher.shard_depth(i));
                core.process_batch(
                    token.as_ref(),
                    batch.seq,
                    &batch.ops,
                    &batch.tickets,
                    &mut sink,
                    &obs,
                );
            }
            (core.finish(&sink), sink)
        });
        (client, SinkedPipelineHandle { join })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use tokensync_core::erc20::{Erc20Op, Erc20Spec, Erc20State};
    use tokensync_core::shared::{ConcurrentToken, ShardedErc20};
    use tokensync_spec::{check_linearizable, AccountId, ObjectType};

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }
    fn a(i: usize) -> AccountId {
        AccountId::new(i)
    }

    fn small_cfg(max_ops: usize) -> PipelineConfig {
        PipelineConfig {
            batch: BatchConfig {
                max_ops,
                max_wait: Duration::from_millis(1),
                queue_depth: 256,
                ..BatchConfig::default()
            },
            ..PipelineConfig::default()
        }
    }

    #[test]
    fn run_script_matches_sequential_replay() {
        let initial = Erc20State::from_balances(vec![5; 8]);
        let token = ShardedErc20::from_state(initial.clone());
        let script: Vec<(ProcessId, Erc20Op)> = (0..30)
            .map(|i| {
                (
                    p(i % 8),
                    Erc20Op::Transfer {
                        to: a((i + 3) % 8),
                        value: (i as u64) % 3,
                    },
                )
            })
            .collect();
        let run = run_script(&token, &script, &small_cfg(10));
        assert_eq!(run.stats.ops, 30);
        assert_eq!(run.stats.batches, 3);
        let spec = Erc20Spec::new(initial);
        let replayed = run.log.replay(&spec).expect("consistent responses");
        assert_eq!(replayed, token.state_snapshot());
        check_linearizable(&spec, &spec.initial_state(), &run.log.to_history())
            .expect("commit log linearizes");
    }

    #[test]
    fn disjoint_stream_reports_wave_parallelism_above_one() {
        let token = ShardedErc20::from_state(Erc20State::from_balances(vec![5; 32]));
        let script: Vec<(ProcessId, Erc20Op)> = (0..16)
            .map(|i| {
                (
                    p(i),
                    Erc20Op::Transfer {
                        to: a(16 + i),
                        value: 1,
                    },
                )
            })
            .collect();
        let run = run_script(&token, &script, &small_cfg(16));
        assert!(run.stats.wave_parallelism() > 1.0);
        assert_eq!(run.stats.serial_ops, 0);
        assert_eq!(run.stats.conflicts, 0);
    }

    #[test]
    fn spawned_engine_drains_and_commits_everything() {
        let initial = Erc20State::from_balances(vec![100; 4]);
        let token = Arc::new(ShardedErc20::from_state(initial.clone()));
        let (client, handle) = Pipeline::spawn_observed(
            Arc::clone(&token),
            small_cfg(8),
            (),
            PipelineObs::disabled(),
        );
        std::thread::scope(|s| {
            for t in 0..3usize {
                let client = client.clone();
                s.spawn(move || {
                    for i in 0..20 {
                        client
                            .submit(
                                p(t),
                                Erc20Op::Transfer {
                                    to: a((t + i) % 4),
                                    value: 1,
                                },
                            )
                            .expect("engine alive");
                    }
                });
            }
        });
        drop(client);
        let (run, ()) = handle.finish();
        assert_eq!(run.stats.ops, 60);
        // Responses in the log are consistent with its linearization, and
        // the replayed state is exactly the token's final state.
        let spec = Erc20Spec::new(initial);
        let replayed = run.log.replay(&spec).expect("consistent responses");
        assert_eq!(replayed, token.state_snapshot());
        assert_eq!(replayed.total_supply(), 400);
    }

    #[test]
    fn serial_fraction_reflects_hot_row_contention() {
        // k spenders hammering one allowance row: almost everything
        // conflicts, so waves are narrow and the serial lane fills.
        let mut initial = Erc20State::from_balances(vec![1000; 8]);
        for sp in 1..8 {
            initial.set_allowance(a(0), p(sp), 500);
        }
        let token = ShardedErc20::from_state(initial.clone());
        let script: Vec<(ProcessId, Erc20Op)> = (0..64)
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
        let cfg = PipelineConfig {
            schedule: ScheduleConfig {
                max_parallel_waves: 4,
            },
            ..small_cfg(64)
        };
        let run = run_script(&token, &script, &cfg);
        assert!(run.stats.serial_ops > 0, "hot row must spill serial");
        assert!(run.stats.wave_parallelism() < 2.0);
        assert!(run.stats.conflicts > 0);
        let replayed = run
            .log
            .replay(&Erc20Spec::new(initial))
            .expect("consistent responses");
        assert_eq!(replayed, token.state_snapshot());
    }
}
