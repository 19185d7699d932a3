//! The one transaction driver, shared by the benchmark worker loop and every
//! `Session` transaction ([`run_single_txn`]): snapshot dispatch → attempt
//! (→ back-off & retry) → group commit → metrics.
//!
//! Mirrors the paper's DBx1000 setup (§6.1.3): each partition leader runs a
//! fixed number of worker threads; an aborted transaction backs off
//! exponentially starting at 0.5 ms and is retried with the *same* TID (so
//! WAIT_DIE priorities age and starvation is avoided) — unless a crash
//! aborted it (see ARCHITECTURE.md, "Transaction driver").

use crate::cluster::Cluster;
use crate::prefetch::{Footprint, ReadFanout};
use crate::protocol::Protocol;
use crate::snapshot::{execute_snapshot, snapshot_reads_enabled, SnapshotOutcome};
use crate::txn::{TxnProgram, Workload};
use primo_common::sim_time::{charge_latency_us, now_us, sleep_until_us};
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
    attempts: usize,
}

/// What one [`Driver::run`] call came to.
enum Driven {
    /// Final without a group-commit wait. `Ok(attempts)`: a snapshot read
    /// (one attempt) or a commit by a protocol that manages its own
    /// durability. `Err(reason)`: abandoned — a program-level abort, or the
    /// last abort once `MAX_ATTEMPTS` ran out.
    Done(Result<usize, AbortReason>),
    /// Installed; the group commit decides.
    Installed(PendingCommit),
    /// The run's stop flag rose before an attempt.
    Stopped,
}

/// Runs transactions on one cluster and protocol. Worker threads pass their
/// run-scoped registry (recording while the measurement window is open) and
/// the run's stop flag; a `Session` passes neither.
struct Driver<'a> {
    cluster: &'a Cluster,
    protocol: &'a dyn Protocol,
    metrics: Option<(&'a Metrics, &'a AtomicBool)>,
    stop: Option<&'a AtomicBool>,
}

impl Driver<'_> {
    fn recording(&self) -> Option<&Metrics> {
        self.metrics
            .and_then(|(metrics, on)| on.load(Ordering::Relaxed).then_some(metrics))
    }

    fn stopped(&self) -> bool {
        self.stop.is_some_and(|stop| stop.load(Ordering::Relaxed))
    }

    /// Drive `program` until it is installed, abandoned or stopped.
    ///
    /// Declared read-only programs are served from the MVCC snapshot at the
    /// durable group-commit horizon: no ticket, no locks, no validation, no
    /// group-commit wait. An unanswerable read (the bounded chain outran the
    /// horizon) falls back to the protocol path. Every attempt's `begin_txn`
    /// waits at the group commit's execution gate (COCO closes it while it
    /// seals an epoch).
    ///
    /// A conflict retry keeps its TxnId, so WAIT_DIE priorities age. A retry
    /// after a crash-class abort takes a fresh one: a coordinator crash under
    /// classic 2PC leaves the orphan's locks held, and `RecordLock::acquire`
    /// is re-entrant by TxnId, so a retry under the orphan's id would walk
    /// through them and commit over it; a crash-aborted attempt may also have
    /// logged its write-set, which replay's dedup-by-transaction would merge
    /// with the retry's.
    fn run(&self, program: &dyn TxnProgram, rng: &mut FastRng) -> Driven {
        let cluster = self.cluster;
        let started = Instant::now();
        let mut timers = PhaseTimers::new();
        if program.is_read_only() && snapshot_reads_enabled(cluster) {
            let outcome = timers.time(Phase::Execute, || execute_snapshot(cluster, program));
            if let SnapshotOutcome::Done(result) = outcome {
                return match result {
                    Ok(()) => {
                        if let Some(metrics) = self.recording() {
                            // Snapshot reads pay no remote round trips and
                            // never enter the protocol path, so they stay out
                            // of the distributed-latency histogram.
                            let latency_us = started.elapsed().as_micros() as u64;
                            metrics.record_commit(latency_us, &timers, false);
                            metrics.inc(&txn::SNAPSHOT_READS);
                        }
                        Driven::Done(Ok(1))
                    }
                    Err(e) => {
                        if let Some(metrics) = self.recording() {
                            metrics.record_abort(e.reason());
                        }
                        self.abandon(e.reason())
                    }
                };
            }
        }

        let home = program.home_partition();
        let slowdown = cluster.partition(home).slowdown_us();
        // The remote-read plan: the program's static hint for the first
        // attempt, then each aborted attempt's observed access set for the
        // retry (reconnaissance-style), so even hint-less programs converge
        // to one batched fan-out per attempt.
        let batching = cluster.config.batch_remote_reads;
        let mut plan = if batching {
            Footprint::from_keys(home, program.read_hint())
        } else {
            Footprint::default()
        };
        let mut txn = cluster.next_txn_id(home);
        let mut backoff_us = cluster.config.backoff_initial_us;
        let mut last = AbortReason::LockConflict;
        for attempt in 1..=MAX_ATTEMPTS {
            if attempt > 1 {
                // Jittered exponential back-off (paper: 0.5 ms initial,
                // doubling): b/2 + U[0, b/2].
                timers.time(Phase::Backoff, || {
                    let jitter = rng.next_below(backoff_us.max(1) / 2 + 1);
                    sleep_until_us(now_us() + backoff_us / 2 + jitter);
                });
                backoff_us = (backoff_us * 2).min(cluster.config.backoff_max_us);
            }
            if self.stopped() {
                return Driven::Stopped;
            }
            cluster.recorder.emit(
                Some(txn),
                Some(home),
                TraceEventKind::Begin {
                    attempt: attempt as u32,
                },
            );
            if slowdown > 0 {
                // Simulated slow partition (Fig 13b): extra CPU time per
                // attempt, charged as execution time.
                timers.time(Phase::Execute, || charge_latency_us(slowdown));
            }
            let ticket = cluster.group_commit.begin_txn(home, txn);
            let mut fanout = ReadFanout::empty();
            if batching && !plan.is_empty() {
                timers.time(Phase::Execute, || fanout.resolve(cluster, home, txn, &plan));
            }
            match self
                .protocol
                .execute_once(cluster, txn, program, &ticket, &mut timers, &fanout)
            {
                Ok(commit) => {
                    let waiter = cluster
                        .group_commit
                        .txn_committed(&ticket, commit.ts, commit.ops);
                    cluster.recorder.emit(
                        Some(txn),
                        Some(home),
                        TraceEventKind::Committed { ts: commit.ts },
                    );
                    let done = PendingCommit {
                        waiter,
                        started,
                        committed_at: Instant::now(),
                        timers,
                        distributed: commit.distributed,
                        attempts: attempt,
                    };
                    if !self.protocol.manages_durability() {
                        return Driven::Installed(done);
                    }
                    self.release(done, CommitOutcome::Committed);
                    return Driven::Done(Ok(attempt));
                }
                Err(e) => {
                    cluster.group_commit.txn_aborted(&ticket);
                    last = e.reason();
                    cluster.recorder.emit(
                        Some(txn),
                        Some(home),
                        TraceEventKind::Abort { reason: last },
                    );
                    if let Some(metrics) = self.recording() {
                        metrics.record_abort(last);
                    }
                    if !last.is_retryable() {
                        return self.abandon(last);
                    }
                    if batching {
                        let learned = fanout.learned(home);
                        if !learned.is_empty() {
                            plan = learned;
                        }
                    }
                    if last.is_crash() {
                        txn = cluster.next_txn_id(home);
                    }
                }
            }
        }
        self.abandon(last)
    }

    fn abandon(&self, reason: AbortReason) -> Driven {
        if let Some(metrics) = self.recording() {
            metrics.inc(&txn::ABANDONED);
        }
        Driven::Done(Err(reason))
    }

    /// The outcome step: release an installed transaction with the group
    /// commit's verdict and record it. Returns whether it committed.
    fn release(&self, mut done: PendingCommit, outcome: CommitOutcome) -> bool {
        let committed = outcome == CommitOutcome::Committed;
        done.timers.add(Phase::Return, done.committed_at.elapsed());
        self.cluster.recorder.emit(
            Some(done.waiter.txn),
            Some(done.waiter.coordinator),
            TraceEventKind::GroupCommitRelease { committed },
        );
        if let Some(metrics) = self.recording() {
            if committed {
                let latency_us = done.started.elapsed().as_micros() as u64;
                metrics.record_commit(latency_us, &done.timers, done.distributed);
            } else {
                metrics.record_abort(AbortReason::CrashAbort);
            }
        }
        committed
    }

    /// Release (without blocking) every pending transaction whose
    /// group-commit outcome is now known.
    fn drain(&self, pending: &mut VecDeque<PendingCommit>) {
        while let Some(outcome) = pending
            .front()
            .and_then(|done| self.cluster.group_commit.try_outcome(&done.waiter))
        {
            self.release(pending.pop_front().unwrap(), outcome);
        }
    }
}

/// Run one worker thread until the stop flag is raised.
fn worker_loop(driver: &Driver<'_>, workload: &dyn Workload, home: PartitionId, worker_idx: u32) {
    let mut rng = FastRng::for_worker(home.0, worker_idx, 0xAB5);
    let mut pending: VecDeque<PendingCommit> = VecDeque::new();
    while !driver.stopped() {
        // Report results of transactions whose group commit finished while we
        // were executing newer ones.
        driver.drain(&mut pending);
        if pending.len() >= MAX_PENDING_COMMITS {
            // Back-pressure: the group commit fell far behind execution.
            let oldest = pending.pop_front().unwrap();
            let outcome = driver.cluster.group_commit.wait_durable(&oldest.waiter);
            driver.release(oldest, outcome);
        }
        // COCO-style schemes may briefly forbid starting new transactions.
        driver.cluster.group_commit.execution_gate(home);
        if driver.stopped() {
            break;
        }
        let program = workload.generate(&mut rng, home);
        match driver.run(program.as_ref(), &mut rng) {
            // The client keeps waiting for the watermark / epoch; the worker
            // moves on to the next transaction.
            Driven::Installed(done) => pending.push_back(done),
            Driven::Done(_) => {}
            Driven::Stopped => break,
        }
    }

    // Resolve whatever is still in flight so late commits are counted.
    let deadline = Instant::now() + Duration::from_millis(200);
    while !pending.is_empty() && Instant::now() < deadline {
        driver.drain(&mut pending);
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
            let (cluster, protocol, workload) = (
                Arc::clone(cluster),
                Arc::clone(protocol),
                Arc::clone(workload),
            );
            let (metrics, stop, recording) =
                (Arc::clone(metrics), Arc::clone(stop), Arc::clone(recording));
            let worker = move || {
                let driver = Driver {
                    cluster: &cluster,
                    protocol: protocol.as_ref(),
                    metrics: Some((&metrics, &recording)),
                    stop: Some(&stop),
                };
                worker_loop(&driver, workload.as_ref(), PartitionId(p as u32), w as u32);
            };
            handles.push(
                std::thread::Builder::new()
                    .name(format!("worker-{p}-{w}"))
                    .spawn(worker)
                    .expect("spawn worker"),
            );
        }
    }
    handles
}

/// Run a single transaction to completion outside the throughput-measurement
/// machinery (the `Session` path, tests and examples): the same driver as a
/// worker, then a blocking wait for the group commit. Returns the
/// number of attempts on success. An install the group commit crash-aborts
/// runs again as a new transaction, under a fresh TxnId.
pub fn run_single_txn(
    cluster: &Arc<Cluster>,
    protocol: &dyn Protocol,
    program: &dyn TxnProgram,
) -> Result<usize, AbortReason> {
    let driver = Driver {
        cluster,
        protocol,
        metrics: None,
        stop: None,
    };
    // The jitter only spreads competing sessions apart; nothing depends on
    // its values.
    let mut rng = FastRng::new(cluster.config.seed ^ now_us());
    let mut attempts = 0;
    loop {
        match driver.run(program, &mut rng) {
            Driven::Done(result) => return result.map(|n| attempts + n),
            Driven::Installed(done) => {
                attempts += done.attempts;
                let outcome = cluster.group_commit.wait_durable(&done.waiter);
                if driver.release(done, outcome) {
                    return Ok(attempts);
                }
            }
            Driven::Stopped => unreachable!("a session has no stop flag"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::WriteEntry;
    use crate::experiment::{run_on_cluster, ExperimentOptions};
    use crate::protocol::CommittedTxn;
    use crate::txn::IncrementProgram;
    use primo_common::config::{ClusterConfig, LoggingScheme};
    use primo_common::{TableId, TxnError, TxnId, Value};
    use primo_storage::PartitionStore;
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

    /// A `Session` transaction runs the same lifecycle as a worker's: its
    /// trace shows the attempt, the install and the group-commit release.
    #[test]
    fn session_transactions_trace_begin_commit_and_release() {
        let cluster = Cluster::new(ClusterConfig::for_tests(1));
        let prog = IncrementProgram {
            home: PartitionId(0),
            accesses: vec![],
        };
        run_single_txn(&cluster, &LoggingProtocol, &prog).unwrap();
        let lifecycle: Vec<TraceEventKind> = cluster
            .recorder
            .merge()
            .of_kind(|k| {
                matches!(
                    k,
                    TraceEventKind::Begin { .. }
                        | TraceEventKind::Committed { .. }
                        | TraceEventKind::GroupCommitRelease { .. }
                )
            })
            .events()
            .iter()
            .map(|e| e.kind)
            .collect();
        assert!(
            matches!(
                lifecycle[..],
                [
                    TraceEventKind::Begin { attempt: 1 },
                    TraceEventKind::Committed { .. },
                    TraceEventKind::GroupCommitRelease { committed: true },
                ]
            ),
            "lifecycle {lifecycle:?}"
        );
        cluster.shutdown();
    }

    /// Generates empty increments — enough to drive a worker through a
    /// stub protocol.
    struct EmptyIncrements;

    impl Workload for EmptyIncrements {
        fn name(&self) -> &'static str {
            "empty-increments"
        }
        fn load_partition(&self, _store: &PartitionStore, _partition: PartitionId) {}
        fn generate(&self, _rng: &mut FastRng, home: PartitionId) -> Box<dyn TxnProgram> {
            Box::new(IncrementProgram {
                home,
                accesses: vec![],
            })
        }
    }

    /// A worker transaction that runs out of attempts is abandoned, not
    /// silently dropped from the metrics.
    #[test]
    fn exhausted_worker_transactions_count_as_abandoned() {
        let mut config = ClusterConfig::for_tests(1);
        config.workers_per_partition = 1;
        config.backoff_initial_us = 1;
        config.backoff_max_us = 1;
        let cluster = Cluster::new(config);
        let snap = run_on_cluster(
            &cluster,
            Arc::new(AlwaysValidationAbort),
            Arc::new(EmptyIncrements),
            &ExperimentOptions {
                warmup: Duration::ZERO,
                duration: Duration::from_millis(400),
                ..ExperimentOptions::default()
            },
        );
        assert_eq!(snap.committed, 0);
        assert!(
            snap.get(&txn::ABANDONED) > 0,
            "exhausted transactions must count as abandoned"
        );
        cluster.shutdown();
    }

    /// Stub protocol that commits at once and records the epoch each
    /// attempt began in.
    #[derive(Default)]
    struct EpochProbe(parking_lot::Mutex<Vec<u64>>);

    impl Protocol for EpochProbe {
        fn name(&self) -> &'static str {
            "epoch-probe"
        }
        fn execute_once(
            &self,
            cluster: &Cluster,
            _txn: TxnId,
            _program: &dyn TxnProgram,
            ticket: &TxnTicket,
            _timers: &mut primo_common::PhaseTimers,
            _fanout: &ReadFanout,
        ) -> primo_common::TxnResult<CommittedTxn> {
            self.0.lock().push(ticket.epoch);
            Ok(CommittedTxn {
                ts: cluster.group_commit.finalize_commit_ts(ticket, 0),
                ops: 1,
                distributed: false,
            })
        }
    }

    /// Under COCO a `Session` transaction passes the execution gate like a
    /// worker's: it may not begin inside an epoch that is being sealed.
    #[test]
    fn session_transactions_wait_at_the_coco_gate() {
        let mut config = ClusterConfig::for_tests(1);
        config.wal.scheme = LoggingScheme::CocoEpoch;
        config.wal.interval_ms = 20;
        let cluster = Cluster::new(config);
        // A scheme-level crash aborts the current epoch and closes the gate
        // until the coordinator's next boundary.
        let aborted = cluster.group_commit.on_partition_crash(PartitionId(0));
        let probe = EpochProbe::default();
        let prog = IncrementProgram {
            home: PartitionId(0),
            accesses: vec![],
        };
        assert_eq!(run_single_txn(&cluster, &probe, &prog), Ok(1));
        let first = probe.0.lock()[0];
        assert!(
            first > aborted,
            "began in epoch {first}, inside the closed epoch {aborted}"
        );
        cluster.shutdown();
    }
}
