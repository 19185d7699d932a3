//! The worker loop: generate → attempt → (back-off & retry) → group commit →
//! record metrics.
//!
//! Mirrors the paper's DBx1000 setup (§6.1.3): each partition leader runs a
//! fixed number of worker threads; an aborted transaction backs off
//! exponentially starting at 0.5 ms and is retried with the *same* TID (so
//! WAIT_DIE priorities age and starvation is avoided).

use crate::cluster::Cluster;
use crate::prefetch::{Footprint, ReadFanout};
use crate::protocol::Protocol;
use crate::txn::Workload;
use primo_common::sim_time::charge_latency_us;
use primo_common::stats::txn;
use primo_common::{AbortReason, FastRng, Metrics, PartitionId, Phase, PhaseTimers};
use primo_trace::TraceEventKind;
use primo_wal::{CommitOutcome, CommitWaiter};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Hard cap on attempts per transaction so a pathological configuration can
/// never wedge a worker forever.
const MAX_ATTEMPTS: usize = 1_000;

/// How many transactions a worker may have waiting for the group commit
/// before it applies back-pressure (blocks on the oldest). Mirrors the
/// paper's setup where a worker "initiates a new transaction when the running
/// transaction is waiting" (§6.1.3) — the client waits, the worker does not.
const MAX_PENDING_COMMITS: usize = 512;

/// A transaction whose write-set is installed but whose result has not yet
/// been confirmed durable by the group commit.
struct PendingCommit {
    waiter: CommitWaiter,
    started: Instant,
    committed_at: Instant,
    timers: PhaseTimers,
    distributed: bool,
}

/// Everything a worker thread needs.
pub struct WorkerContext {
    pub cluster: Arc<Cluster>,
    pub protocol: Arc<dyn Protocol>,
    pub workload: Arc<dyn Workload>,
    pub metrics: Arc<Metrics>,
    pub home: PartitionId,
    pub worker_idx: u32,
    pub stop: Arc<AtomicBool>,
    pub recording: Arc<AtomicBool>,
}

/// Resolve (without blocking) every pending transaction whose group-commit
/// outcome is now known.
fn drain_pending(ctx: &WorkerContext, pending: &mut VecDeque<PendingCommit>) {
    while let Some(front) = pending.front() {
        match ctx.cluster.group_commit.try_outcome(&front.waiter) {
            Some(outcome) => {
                let mut done = pending.pop_front().unwrap();
                done.timers.add(Phase::Return, done.committed_at.elapsed());
                ctx.cluster.recorder.emit(
                    Some(done.waiter.txn),
                    Some(done.waiter.coordinator),
                    TraceEventKind::GroupCommitRelease {
                        committed: matches!(outcome, CommitOutcome::Committed),
                    },
                );
                if ctx.recording.load(Ordering::Relaxed) {
                    match outcome {
                        CommitOutcome::Committed => {
                            let latency_us = done.started.elapsed().as_micros() as u64;
                            ctx.metrics
                                .record_commit(latency_us, &done.timers, done.distributed);
                        }
                        CommitOutcome::CrashAborted => {
                            ctx.metrics.record_abort(AbortReason::CrashAbort);
                        }
                    }
                }
            }
            None => break,
        }
    }
}

/// Block on the oldest pending transaction (back-pressure when the group
/// commit falls far behind execution).
fn block_on_oldest(ctx: &WorkerContext, pending: &mut VecDeque<PendingCommit>) {
    if let Some(mut oldest) = pending.pop_front() {
        let outcome = ctx.cluster.group_commit.wait_durable(&oldest.waiter);
        oldest
            .timers
            .add(Phase::Return, oldest.committed_at.elapsed());
        ctx.cluster.recorder.emit(
            Some(oldest.waiter.txn),
            Some(oldest.waiter.coordinator),
            TraceEventKind::GroupCommitRelease {
                committed: matches!(outcome, CommitOutcome::Committed),
            },
        );
        if ctx.recording.load(Ordering::Relaxed) {
            match outcome {
                CommitOutcome::Committed => {
                    let latency_us = oldest.started.elapsed().as_micros() as u64;
                    ctx.metrics
                        .record_commit(latency_us, &oldest.timers, oldest.distributed);
                }
                CommitOutcome::CrashAborted => ctx.metrics.record_abort(AbortReason::CrashAbort),
            }
        }
    }
}

/// Run the worker loop until the stop flag is raised.
pub fn worker_loop(ctx: WorkerContext) {
    let mut rng = FastRng::for_worker(ctx.home.0, ctx.worker_idx, 0xAB5);
    let backoff_initial = ctx.cluster.config.backoff_initial_us;
    let backoff_max = ctx.cluster.config.backoff_max_us;
    let mut pending: VecDeque<PendingCommit> = VecDeque::new();

    while !ctx.stop.load(Ordering::Relaxed) {
        // Report results of transactions whose group commit finished while we
        // were executing newer ones.
        drain_pending(&ctx, &mut pending);
        if pending.len() >= MAX_PENDING_COMMITS {
            block_on_oldest(&ctx, &mut pending);
        }

        // COCO-style schemes may briefly forbid starting new transactions.
        ctx.cluster.group_commit.execution_gate(ctx.home);
        if ctx.stop.load(Ordering::Relaxed) {
            break;
        }

        let program = ctx.workload.generate(&mut rng, ctx.home);
        let mut timers = PhaseTimers::new();
        let started = Instant::now();

        // Declared read-only transactions are served from the MVCC snapshot
        // at the durable group-commit horizon: no ticket, no locks, no
        // validation, no group-commit wait — the result is final the moment
        // execution ends. An unanswerable read (bounded chain outran the
        // horizon) falls back to the protocol path below.
        if program.is_read_only() && crate::snapshot::snapshot_reads_enabled(&ctx.cluster) {
            let done = timers.time(Phase::Execute, || {
                match crate::snapshot::execute_snapshot(&ctx.cluster, program.as_ref()) {
                    crate::snapshot::SnapshotOutcome::Done(result) => Some(result),
                    crate::snapshot::SnapshotOutcome::Fallback => None,
                }
            });
            if let Some(result) = done {
                if ctx.recording.load(Ordering::Relaxed) {
                    match result {
                        Ok(()) => {
                            let latency_us = started.elapsed().as_micros() as u64;
                            // Snapshot reads pay no remote round trips and
                            // never enter the protocol path, so they stay
                            // out of the distributed-latency histogram.
                            ctx.metrics.record_commit(latency_us, &timers, false);
                            ctx.metrics.inc(&txn::SNAPSHOT_READS);
                        }
                        Err(e) => {
                            // Program-level abort (e.g. NotFound at the
                            // snapshot): final, never retried.
                            ctx.metrics.record_abort(e.reason());
                            ctx.metrics.inc(&txn::ABANDONED);
                        }
                    }
                }
                continue;
            }
        }

        let txn = ctx.cluster.next_txn_id(ctx.home);
        let mut backoff_us = backoff_initial;
        let slowdown = ctx.cluster.partition(ctx.home).slowdown_us();

        // The remote-read plan: the program's static hint for the first
        // attempt, then each aborted attempt's observed access set for the
        // retry (reconnaissance-style), so even hint-less programs converge
        // to one batched fan-out per attempt.
        let batching = ctx.cluster.config.batch_remote_reads;
        let mut plan = if batching {
            Footprint::from_keys(ctx.home, program.read_hint())
        } else {
            Footprint::default()
        };

        let mut attempts = 0;
        'attempts: while attempts < MAX_ATTEMPTS && !ctx.stop.load(Ordering::Relaxed) {
            attempts += 1;
            ctx.cluster.recorder.emit(
                Some(txn),
                Some(ctx.home),
                TraceEventKind::Begin {
                    attempt: attempts as u32,
                },
            );
            if slowdown > 0 {
                // Simulated slow partition (Fig 13b): extra CPU time per
                // attempt, charged as execution time.
                timers.time(Phase::Execute, || charge_latency_us(slowdown));
            }
            let ticket = ctx.cluster.group_commit.begin_txn(ctx.home, txn);
            let mut fanout = ReadFanout::empty();
            if batching && !plan.is_empty() {
                timers.time(Phase::Execute, || {
                    fanout.resolve(&ctx.cluster, ctx.home, txn, &plan)
                });
            }
            let result = ctx.protocol.execute_once(
                &ctx.cluster,
                txn,
                program.as_ref(),
                &ticket,
                &mut timers,
                &fanout,
            );
            match result {
                Ok(commit) => {
                    let waiter = ctx
                        .cluster
                        .group_commit
                        .txn_committed(&ticket, commit.ts, commit.ops);
                    ctx.cluster.recorder.emit(
                        Some(txn),
                        Some(ctx.home),
                        TraceEventKind::Committed { ts: commit.ts },
                    );
                    if ctx.protocol.manages_durability() {
                        if ctx.recording.load(Ordering::Relaxed) {
                            let latency_us = started.elapsed().as_micros() as u64;
                            ctx.metrics
                                .record_commit(latency_us, &timers, commit.distributed);
                        }
                    } else {
                        // The client keeps waiting for the watermark / epoch;
                        // the worker moves on to the next transaction.
                        pending.push_back(PendingCommit {
                            waiter,
                            started,
                            committed_at: Instant::now(),
                            timers: std::mem::take(&mut timers),
                            distributed: commit.distributed,
                        });
                    }
                    break 'attempts;
                }
                Err(e) => {
                    ctx.cluster.group_commit.txn_aborted(&ticket);
                    let reason = e.reason();
                    ctx.cluster.recorder.emit(
                        Some(txn),
                        Some(ctx.home),
                        TraceEventKind::Abort { reason },
                    );
                    if ctx.recording.load(Ordering::Relaxed) {
                        ctx.metrics.record_abort(reason);
                    }
                    if !reason.is_retryable() {
                        if ctx.recording.load(Ordering::Relaxed) {
                            ctx.metrics.inc(&txn::ABANDONED);
                        }
                        break 'attempts;
                    }
                    if batching {
                        // Learn the aborted attempt's remote footprint as the
                        // retry's prefetch plan.
                        let learned = fanout.learned(ctx.home);
                        if !learned.is_empty() {
                            plan = learned;
                        }
                    }
                }
            }
            // Exponential back-off before the next attempt (paper: 0.5 ms
            // initial, doubling).
            timers.time(Phase::Backoff, || {
                let jitter = rng.next_below(backoff_us.max(1) / 2 + 1);
                charge_latency_us(backoff_us / 2 + jitter);
            });
            backoff_us = (backoff_us * 2).min(backoff_max);
        }
    }

    // Resolve whatever is still in flight so late commits are counted.
    let deadline = Instant::now() + Duration::from_millis(200);
    while !pending.is_empty() && Instant::now() < deadline {
        drain_pending(&ctx, &mut pending);
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Spawn all worker threads for an experiment. Returns their join handles.
pub fn spawn_workers(
    cluster: &Arc<Cluster>,
    protocol: &Arc<dyn Protocol>,
    workload: &Arc<dyn Workload>,
    metrics: &Arc<Metrics>,
    stop: &Arc<AtomicBool>,
    recording: &Arc<AtomicBool>,
) -> Vec<std::thread::JoinHandle<()>> {
    let mut handles = Vec::new();
    for p in 0..cluster.num_partitions() {
        for w in 0..cluster.config.workers_per_partition {
            let ctx = WorkerContext {
                cluster: Arc::clone(cluster),
                protocol: Arc::clone(protocol),
                workload: Arc::clone(workload),
                metrics: Arc::clone(metrics),
                home: PartitionId(p as u32),
                worker_idx: w as u32,
                stop: Arc::clone(stop),
                recording: Arc::clone(recording),
            };
            handles.push(
                std::thread::Builder::new()
                    .name(format!("worker-{p}-{w}"))
                    .spawn(move || worker_loop(ctx))
                    .expect("spawn worker"),
            );
        }
    }
    handles
}

/// Helper used by tests and examples: run a single transaction to completion
/// (with retries) outside the throughput-measurement machinery. Returns the
/// number of attempts on success.
///
/// Every attempt runs under a **fresh** transaction id. A crash-aborted
/// attempt has already logged a `TxnWrites` entry per partition (and may
/// have been sealed with a `TxnRolledBack` marker by compensation); reusing
/// its id for the retry would let replay's dedup-by-transaction merge the
/// rolled-back and the committed attempt — and a marker would cancel both.
pub fn run_single_txn(
    cluster: &Arc<Cluster>,
    protocol: &dyn Protocol,
    program: &dyn crate::txn::TxnProgram,
) -> Result<usize, AbortReason> {
    let home = program.home_partition();
    // The same snapshot dispatch the worker loop uses: a declared read-only
    // program resolves at the durable horizon unless a read is unanswerable.
    if program.is_read_only() && crate::snapshot::snapshot_reads_enabled(cluster) {
        match crate::snapshot::execute_snapshot(cluster, program) {
            crate::snapshot::SnapshotOutcome::Done(Ok(())) => return Ok(1),
            crate::snapshot::SnapshotOutcome::Done(Err(e)) => return Err(e.reason()),
            crate::snapshot::SnapshotOutcome::Fallback => {}
        }
    }
    let mut attempts = 0;
    let mut backoff_us = cluster.config.backoff_initial_us;
    // When MAX_ATTEMPTS runs out, report what actually aborted the last
    // attempt rather than a blanket LockConflict.
    let mut last_reason = AbortReason::LockConflict;
    // Same prefetch plan lifecycle as the worker loop: static hint first,
    // then the aborted attempt's learned footprint.
    let batching = cluster.config.batch_remote_reads;
    let mut plan = if batching {
        Footprint::from_keys(home, program.read_hint())
    } else {
        Footprint::default()
    };
    loop {
        attempts += 1;
        if attempts > MAX_ATTEMPTS {
            return Err(last_reason);
        }
        let txn = cluster.next_txn_id(home);
        let ticket = cluster.group_commit.begin_txn(home, txn);
        let mut timers = PhaseTimers::new();
        let mut fanout = ReadFanout::empty();
        if batching && !plan.is_empty() {
            timers.time(Phase::Execute, || fanout.resolve(cluster, home, txn, &plan));
        }
        match protocol.execute_once(cluster, txn, program, &ticket, &mut timers, &fanout) {
            Ok(commit) => {
                let waiter = cluster
                    .group_commit
                    .txn_committed(&ticket, commit.ts, commit.ops);
                if protocol.manages_durability() {
                    return Ok(attempts);
                }
                match cluster.group_commit.wait_durable(&waiter) {
                    CommitOutcome::Committed => return Ok(attempts),
                    CommitOutcome::CrashAborted => last_reason = AbortReason::CrashAbort,
                }
            }
            Err(e) => {
                cluster.group_commit.txn_aborted(&ticket);
                if !e.reason().is_retryable() {
                    return Err(e.reason());
                }
                last_reason = e.reason();
                if batching {
                    let learned = fanout.learned(home);
                    if !learned.is_empty() {
                        plan = learned;
                    }
                }
            }
        }
        std::thread::sleep(Duration::from_micros(backoff_us));
        backoff_us = (backoff_us * 2).min(cluster.config.backoff_max_us);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::WriteEntry;
    use crate::protocol::CommittedTxn;
    use crate::txn::{IncrementProgram, TxnProgram};
    use primo_common::config::{ClusterConfig, LoggingScheme};
    use primo_common::{TableId, TxnError, TxnId, Value};
    use primo_wal::{ReplayBound, TxnTicket};

    /// Stub protocol: every attempt logs one insert write-set (like a real
    /// install path would, under its write locks) and reports success.
    struct LoggingProtocol;

    impl Protocol for LoggingProtocol {
        fn name(&self) -> &'static str {
            "logging-stub"
        }
        fn execute_once(
            &self,
            cluster: &Cluster,
            txn: TxnId,
            _program: &dyn TxnProgram,
            ticket: &TxnTicket,
            _timers: &mut primo_common::PhaseTimers,
            _fanout: &ReadFanout,
        ) -> primo_common::TxnResult<CommittedTxn> {
            let ts = cluster.group_commit.finalize_commit_ts(ticket, 0);
            let writes = vec![WriteEntry::insert(
                PartitionId(0),
                TableId(0),
                1,
                Value::from_u64(txn.seq),
            )];
            crate::durability::log_txn_writes(cluster, txn, ts, &writes);
            Ok(CommittedTxn {
                ts,
                ops: 1,
                distributed: false,
            })
        }
    }

    /// Regression: a crash-aborted-then-committed transaction must log its
    /// attempts under **distinct** transaction ids. With a shared id,
    /// replay's dedup-by-transaction merges the rolled-back and the
    /// committed attempt — and a `TxnRolledBack` marker for the first
    /// attempt would cancel the committed one too.
    #[test]
    fn retries_after_crash_abort_use_fresh_txn_ids() {
        let mut config = ClusterConfig::for_tests(1);
        config.wal.scheme = LoggingScheme::Clv;
        config.wal.persist_delay_us = 30_000; // 30 ms
        let cluster = Cluster::new(config);
        let prog = IncrementProgram {
            home: PartitionId(0),
            accesses: vec![],
        };
        let c2 = Arc::clone(&cluster);
        let runner = std::thread::spawn(move || run_single_txn(&c2, &LoggingProtocol, &prog));
        // Inject the scheme-level crash while the first attempt is inside
        // its persist window (the partition itself stays up): under CLV a
        // commit whose window spans the crash instant is rolled back; the
        // retry starts after the instant and commits.
        while cluster.partition(PartitionId(0)).log.is_empty() {
            std::thread::sleep(Duration::from_millis(1));
        }
        cluster.group_commit.on_partition_crash(PartitionId(0));
        let attempts = runner.join().unwrap().expect("the retry commits");
        assert!(
            attempts >= 2,
            "at least one crash-aborted attempt, got {attempts}"
        );
        std::thread::sleep(Duration::from_millis(35));
        let replayed = cluster
            .partition(PartitionId(0))
            .log
            .durable_view(None)
            .replay(.., &ReplayBound::Lsn(u64::MAX));
        assert_eq!(
            replayed.len(),
            attempts,
            "every attempt logged under its own id — dedup must not merge them"
        );
        cluster.shutdown();
    }

    /// Regression: exhausting MAX_ATTEMPTS reports the reason that actually
    /// aborted the last attempt, not a blanket LockConflict.
    struct AlwaysValidationAbort;

    impl Protocol for AlwaysValidationAbort {
        fn name(&self) -> &'static str {
            "always-validation"
        }
        fn execute_once(
            &self,
            _cluster: &Cluster,
            _txn: TxnId,
            _program: &dyn TxnProgram,
            _ticket: &TxnTicket,
            _timers: &mut primo_common::PhaseTimers,
            _fanout: &ReadFanout,
        ) -> primo_common::TxnResult<CommittedTxn> {
            Err(TxnError::Aborted(AbortReason::Validation))
        }
    }

    #[test]
    fn exhausted_retries_surface_the_last_real_reason() {
        let mut config = ClusterConfig::for_tests(1);
        config.backoff_initial_us = 1;
        config.backoff_max_us = 1;
        let cluster = Cluster::new(config);
        let prog = IncrementProgram {
            home: PartitionId(0),
            accesses: vec![],
        };
        let err = run_single_txn(&cluster, &AlwaysValidationAbort, &prog).unwrap_err();
        assert_eq!(err, AbortReason::Validation, "not a blanket LockConflict");
        cluster.shutdown();
    }
}
