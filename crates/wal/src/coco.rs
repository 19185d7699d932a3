//! COCO-style epoch-based distributed group commit (§2.3).
//!
//! A designated coordinator (partition 0) advances the cluster epoch by
//! epoch. Within an epoch, transactions execute normally and buffer their
//! log records; at the epoch boundary the coordinator synchronously runs a
//! GROUP-PREPARE / GROUP-READY / GROUP-COMMIT exchange with every partition.
//! Execution of the *next* epoch cannot start until the previous epoch has
//! been confirmed — this global synchronization is exactly what limits COCO's
//! scalability and what Primo's watermark scheme removes.
//!
//! The synchronization cost charged per epoch is:
//! `2 × (control-message delay + slowest partition's extra lag) +
//!  log persist delay + per-partition coordinator processing + straggler
//!  stalls`. The probability that at least one partition straggles in a given
//! epoch grows with the partition count, which reproduces COCO's throughput
//! plateau beyond ~12 partitions (Fig 14).

use crate::group_commit::{CommitOutcome, CommitWaiter, GroupCommit, SeqTsSource, TxnTicket};
use crate::log::{LogPayload, LogView, ReplayBound};
use crate::replicated::ReplicatedLog;
use crate::snapshot::{Release, SnapshotTracker};
use parking_lot::{Condvar, Mutex};
use primo_common::config::WalConfig;
use primo_common::{FastRng, PartitionId, Ts, TxnId};
use primo_trace::{FlightRecorder, TraceEventKind};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;

/// Per-partition processing cost at the coordinator per epoch, microseconds.
const PER_PARTITION_COORD_US: u64 = 30;
/// Probability that a given partition straggles in a given epoch.
const STRAGGLER_PROB: f64 = 0.05;
/// Straggler stall range, microseconds.
const STRAGGLER_MIN_US: u64 = 2_000;
const STRAGGLER_MAX_US: u64 = 10_000;

#[derive(Debug, Default)]
struct EpochState {
    /// Last epoch whose group commit completed successfully.
    committed: u64,
    /// Epochs aborted because of a crash.
    aborted: HashSet<u64>,
    /// Whether new transactions may start (the gate is closed during the
    /// synchronous group-commit exchange).
    gate_open: bool,
    /// Number of transactions still executing, per epoch.
    active: HashMap<u64, u64>,
    /// A crash was observed and the current epoch must be aborted.
    crash_pending: bool,
}

/// Epoch-based group commit (COCO).
pub struct CocoCommit {
    cfg: WalConfig,
    num_partitions: usize,
    /// Current execution epoch.
    epoch: AtomicU64,
    state: Mutex<EpochState>,
    cond: Condvar,
    /// Per-partition replicated durable logs: a committed epoch appends an
    /// [`LogPayload::EpochBoundary`] marker to each of them, which is what
    /// bounds recovery replay (everything before the last quorum-durable
    /// boundary belongs to a committed epoch).
    wals: Vec<Arc<ReplicatedLog>>,
    /// Commit-timestamp sequence for protocols without logical timestamps.
    seq_ts: SeqTsSource,
    /// Cached worst-partition quorum-ack delay (immutable after
    /// construction): the floor of every epoch confirmation.
    ack_delay_us: u64,
    /// Extra one-way control-message delay per partition (Fig 13a lag).
    extra_delay_us: Vec<AtomicU64>,
    stop: Arc<AtomicBool>,
    coordinator: Mutex<Option<JoinHandle<()>>>,
    /// MVCC snapshot-horizon bookkeeping: commits release when their
    /// epoch's group commit seals a boundary.
    tracker: SnapshotTracker,
    /// Cluster flight recorder, injected after construction (the
    /// coordinator thread is already running by then).
    recorder: OnceLock<Arc<FlightRecorder>>,
}

impl std::fmt::Debug for CocoCommit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CocoCommit")
            .field("num_partitions", &self.num_partitions)
            .finish()
    }
}

impl CocoCommit {
    pub fn new(num_partitions: usize, cfg: WalConfig, wals: Vec<Arc<ReplicatedLog>>) -> Arc<Self> {
        assert_eq!(wals.len(), num_partitions);
        let ack_delay_us = crate::max_quorum_ack_delay_us(&wals, cfg.persist_delay_us);
        let gc = Arc::new(CocoCommit {
            cfg,
            num_partitions,
            wals,
            seq_ts: SeqTsSource::new(),
            ack_delay_us,
            epoch: AtomicU64::new(1),
            state: Mutex::new(EpochState {
                committed: 0,
                aborted: HashSet::new(),
                gate_open: true,
                active: HashMap::new(),
                crash_pending: false,
            }),
            cond: Condvar::new(),
            extra_delay_us: (0..num_partitions).map(|_| AtomicU64::new(0)).collect(),
            stop: Arc::new(AtomicBool::new(false)),
            coordinator: Mutex::new(None),
            tracker: SnapshotTracker::new(cfg.unsafe_latest_commit_horizon),
            recorder: OnceLock::new(),
        });
        let me = Arc::clone(&gc);
        let handle = std::thread::Builder::new()
            .name("coco-coordinator".into())
            .spawn(move || me.coordinator_loop())
            .expect("spawn coco coordinator");
        *gc.coordinator.lock() = Some(handle);
        gc
    }

    /// Simulate a lagging partition's epoch messages (Fig 13a).
    pub fn set_extra_delay_us(&self, p: PartitionId, us: u64) {
        self.extra_delay_us[p.idx()].store(us, Ordering::Relaxed);
    }

    pub fn current_epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    pub fn committed_epoch(&self) -> u64 {
        self.state.lock().committed
    }

    fn coordinator_loop(self: &Arc<Self>) {
        let mut rng = FastRng::new(0xC0C0);
        let epoch_us = self.cfg.interval_ms * 1000;
        while !self.stop.load(Ordering::Relaxed) {
            // 1. Epoch execution window.
            let window = Duration::from_micros(epoch_us);
            let start = std::time::Instant::now();
            while start.elapsed() < window && !self.stop.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_micros(500.min(epoch_us)));
            }
            if self.stop.load(Ordering::Relaxed) {
                break;
            }
            let epoch = self.epoch.load(Ordering::Acquire);

            // 2. Close the gate: no new transactions while the epoch commits.
            {
                let mut st = self.state.lock();
                st.gate_open = false;
            }

            // 3. Wait for in-flight transactions of this epoch to drain.
            {
                let mut st = self.state.lock();
                let deadline = std::time::Instant::now() + Duration::from_millis(200);
                while st.active.get(&epoch).copied().unwrap_or(0) > 0
                    && std::time::Instant::now() < deadline
                {
                    self.cond.wait_for(&mut st, Duration::from_millis(1));
                }
            }

            // 4. Synchronous GROUP-PREPARE / GROUP-READY / GROUP-COMMIT.
            let max_extra = self
                .extra_delay_us
                .iter()
                .map(|d| d.load(Ordering::Relaxed))
                .max()
                .unwrap_or(0);
            // The epoch's log batch must be *quorum*-durable before the
            // coordinator can confirm it: under replication the slowest
            // quorum replica, not the local disk, sets the floor. (The
            // append pipeline keeps this floor exact — staged entries reach
            // the followers stamped with their original append instant, so
            // the ack delay measures replication, never pump scheduling.)
            let mut sync_us = 2 * max_extra
                + self.ack_delay_us
                + PER_PARTITION_COORD_US * self.num_partitions as u64;
            // Straggler model: each partition independently straggles with a
            // small probability; the coordinator waits for the slowest one.
            let mut straggle = 0;
            for _ in 0..self.num_partitions {
                if rng.flip(STRAGGLER_PROB) {
                    straggle = straggle.max(rng.next_range(STRAGGLER_MIN_US, STRAGGLER_MAX_US));
                }
            }
            sync_us += straggle;
            std::thread::sleep(Duration::from_micros(sync_us));

            // 5. Commit (or abort) the epoch and reopen the gate.
            {
                let mut st = self.state.lock();
                if st.crash_pending {
                    st.aborted.insert(epoch);
                    st.crash_pending = false;
                    self.tracker.doom_epoch(epoch);
                } else {
                    st.committed = epoch;
                    // The epoch's commits are quorum-durable and sealed:
                    // the snapshot horizon may advance over them.
                    self.tracker.release_epochs_through(epoch);
                    // Seal the epoch in every partition's log: all TxnWrites
                    // entries appended before this marker belong to committed
                    // epochs, which is exactly the replay bound recovery
                    // uses. (Workers append their write-set before reporting
                    // `txn_committed`, and the drain in step 3 waited for
                    // them, so the ordering holds.)
                    for wal in &self.wals {
                        wal.append(LogPayload::EpochBoundary { epoch });
                    }
                    if let Some(rec) = self.recorder.get() {
                        rec.emit(None, None, TraceEventKind::EpochSealed { epoch });
                    }
                }
                st.active.remove(&epoch);
                st.gate_open = true;
                self.epoch.store(epoch + 1, Ordering::Release);
                self.cond.notify_all();
            }
        }
        // Unblock anyone still waiting.
        let mut st = self.state.lock();
        st.gate_open = true;
        st.committed = self.epoch.load(Ordering::Acquire);
        self.cond.notify_all();
    }
}

/// LSN of the newest [`LogPayload::EpochBoundary`] in `view` sealing an
/// epoch at most `max_epoch` — the split between committed epochs and the
/// rolled-back one, read at whatever horizon the caller's view has.
fn epoch_boundary(view: &LogView<'_>, max_epoch: u64) -> Option<u64> {
    view.rfind_map(|e| match *e.payload {
        LogPayload::EpochBoundary { epoch } if epoch <= max_epoch => Some(e.lsn),
        _ => None,
    })
}

impl GroupCommit for CocoCommit {
    fn begin_txn(&self, coord: PartitionId, txn: TxnId) -> Arc<TxnTicket> {
        let mut st = self.state.lock();
        let epoch = self.epoch.load(Ordering::Acquire);
        *st.active.entry(epoch).or_insert(0) += 1;
        drop(st);
        self.tracker.begin(txn);
        TxnTicket::new(txn, coord, epoch)
    }

    fn add_participant(&self, ticket: &TxnTicket, p: PartitionId, _lts: Ts) {
        let mut st = ticket.state.lock();
        if !st.participants.contains(&p) {
            st.participants.push(p);
        }
    }

    fn txn_aborted(&self, ticket: &TxnTicket) {
        let mut st = self.state.lock();
        if let Some(c) = st.active.get_mut(&ticket.epoch) {
            *c = c.saturating_sub(1);
        }
        self.cond.notify_all();
        drop(st);
        self.tracker.abort(ticket.txn);
    }

    fn txn_committed(&self, ticket: &TxnTicket, ts: Ts, _ops: usize) -> CommitWaiter {
        let mut st = self.state.lock();
        if let Some(c) = st.active.get_mut(&ticket.epoch) {
            *c = c.saturating_sub(1);
        }
        self.cond.notify_all();
        // A commit into an already-aborted epoch is doomed: it must never
        // enter the snapshot horizon.
        let doomed = st.aborted.contains(&ticket.epoch);
        drop(st);
        self.tracker
            .commit(ticket.txn, ts, Release::Epoch(ticket.epoch), doomed);
        CommitWaiter {
            txn: ticket.txn,
            coordinator: ticket.coordinator,
            ts,
            epoch: ticket.epoch,
            ready_at_us: None,
        }
    }

    fn try_outcome(&self, waiter: &CommitWaiter) -> Option<CommitOutcome> {
        let st = self.state.lock();
        if st.aborted.contains(&waiter.epoch) {
            return Some(CommitOutcome::CrashAborted);
        }
        if st.committed >= waiter.epoch {
            return Some(CommitOutcome::Committed);
        }
        None
    }

    fn wait_durable(&self, waiter: &CommitWaiter) -> CommitOutcome {
        let mut st = self.state.lock();
        loop {
            if st.aborted.contains(&waiter.epoch) {
                return CommitOutcome::CrashAborted;
            }
            if st.committed >= waiter.epoch {
                return CommitOutcome::Committed;
            }
            self.cond.wait_for(&mut st, Duration::from_millis(5));
            if self.stop.load(Ordering::Relaxed) {
                return CommitOutcome::Committed;
            }
        }
    }

    fn execution_gate(&self, _partition: PartitionId) {
        let mut st = self.state.lock();
        while !st.gate_open && !self.stop.load(Ordering::Relaxed) {
            self.cond.wait_for(&mut st, Duration::from_millis(1));
        }
    }

    fn ts_floor(&self, _partition: PartitionId) -> Ts {
        self.tracker.ts_floor()
    }

    fn finalize_commit_ts(&self, _ticket: &TxnTicket, hint: Ts) -> Ts {
        let ts = self.seq_ts.finalize_above(hint, self.tracker.ts_floor());
        self.tracker.note_finalized(ts);
        ts
    }

    fn snapshot_horizon(&self, _partition: PartitionId) -> Ts {
        // Commits release only when their epoch's boundary seals, so this is
        // exactly "everything up to the last sealed epoch" (minus anything a
        // crash doomed and compensation has not yet purged).
        self.tracker.horizon(0)
    }

    fn on_compensation_complete(&self) {
        self.tracker.compensation_complete();
    }

    fn on_partition_crash(&self, p: PartitionId) -> Ts {
        // The whole current epoch is aborted (§2.3): every transaction in it
        // is rolled back and the cluster moves on once the partition is
        // replaced / recovers.
        let mut st = self.state.lock();
        st.crash_pending = true;
        let epoch = self.epoch.load(Ordering::Acquire);
        st.aborted.insert(epoch);
        self.tracker.doom_epoch(epoch);
        self.tracker.drop_actives_of(p);
        // Close the gate and drain the aborted epoch's in-flight
        // transactions (bounded, like the coordinator's boundary drain): by
        // the time this returns, every write-set the epoch will ever log is
        // in the survivors' logs, so the compensation pass that follows the
        // agreement sees the complete rolled-back set. The coordinator
        // reopens the gate at the next boundary.
        st.gate_open = false;
        self.cond.notify_all();
        let deadline = std::time::Instant::now() + Duration::from_millis(200);
        while st.active.get(&epoch).copied().unwrap_or(0) > 0
            && std::time::Instant::now() < deadline
        {
            self.cond.wait_for(&mut st, Duration::from_millis(1));
        }
        epoch
    }

    fn replay_bound(
        &self,
        crash_token: Ts,
        log: &ReplicatedLog,
        cutoff_lsn: Option<u64>,
    ) -> ReplayBound {
        // `crash_token` is the aborted epoch: replay exactly the entries
        // sealed by a quorum-durable boundary of an *earlier* (committed)
        // epoch. The boundary is looked up at the crash-time quorum cutoff
        // so a quorum broken mid-recovery cannot erase it.
        let bound = crash_token.saturating_sub(1);
        ReplayBound::Lsn(epoch_boundary(&log.durable_view(cutoff_lsn), bound).unwrap_or(0))
    }

    fn survivor_rollback_bound(&self, crash_token: Ts, wal: &ReplicatedLog) -> ReplayBound {
        // `crash_token` is the aborted epoch. On a surviving partition
        // nothing was lost, so the boundary sealed by the last *committed*
        // epoch (durable or not) splits the log exactly: everything after it
        // belongs to the aborted epoch and is rolled back.
        let bound = crash_token.saturating_sub(1);
        ReplayBound::Lsn(epoch_boundary(&wal.full_view(), bound).map_or(0, |l| l + 1))
    }

    fn checkpoint_bound(&self, _p: PartitionId, log: &ReplicatedLog) -> ReplayBound {
        let committed = self.committed_epoch();
        ReplayBound::Lsn(epoch_boundary(&log.durable_view(None), committed).unwrap_or(0))
    }

    fn set_recorder(&self, recorder: Arc<FlightRecorder>) {
        let _ = self.recorder.set(recorder);
    }

    fn label(&self) -> &'static str {
        "COCO"
    }

    fn shutdown(&self) {
        self.stop.store(true, Ordering::Relaxed);
        self.cond.notify_all();
        if let Some(h) = self.coordinator.lock().take() {
            let _ = h.join();
        }
    }
}

impl Drop for CocoCommit {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.coordinator.lock().take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use primo_common::config::LoggingScheme;

    fn make(interval_ms: u64) -> Arc<CocoCommit> {
        let cfg = WalConfig {
            scheme: LoggingScheme::CocoEpoch,
            interval_ms,
            persist_delay_us: 100,
            force_update: false,
            ..WalConfig::default()
        };
        CocoCommit::new(2, cfg, crate::build_logs(2, cfg))
    }

    fn tid(seq: u64) -> TxnId {
        TxnId::new(PartitionId(0), seq)
    }

    #[test]
    fn epoch_boundary_lookup_filters_by_epoch() {
        let wal = ReplicatedLog::single(PartitionId(0), 0);
        let b1 = wal.append(LogPayload::EpochBoundary { epoch: 1 });
        let b2 = wal.append(LogPayload::EpochBoundary { epoch: 2 });
        std::thread::sleep(Duration::from_millis(1));
        assert_eq!(epoch_boundary(&wal.durable_view(None), 2), Some(b2));
        assert_eq!(epoch_boundary(&wal.durable_view(None), 1), Some(b1));
        assert_eq!(epoch_boundary(&wal.durable_view(None), 0), None);
        // A cutoff below the newer boundary falls back to the older one.
        assert_eq!(epoch_boundary(&wal.durable_view(Some(b1)), 2), Some(b1));
        // The durability-blind view (survivor-side rollback bound) agrees
        // here and also sees boundaries still inside their persist window.
        assert_eq!(epoch_boundary(&wal.full_view(), 2), Some(b2));
        let slow = ReplicatedLog::single(PartitionId(0), 60_000);
        let b = slow.append(LogPayload::EpochBoundary { epoch: 1 });
        assert_eq!(epoch_boundary(&slow.durable_view(None), 1), None);
        assert_eq!(epoch_boundary(&slow.full_view(), 1), Some(b));
    }

    #[test]
    fn epoch_advances_and_commits() {
        let gc = make(2);
        let ticket = gc.begin_txn(PartitionId(0), tid(1));
        let waiter = gc.txn_committed(&ticket, 1, 1);
        assert_eq!(gc.wait_durable(&waiter), CommitOutcome::Committed);
        assert!(gc.committed_epoch() >= waiter.epoch);
        gc.shutdown();
    }

    #[test]
    fn crash_aborts_current_epoch() {
        let gc = make(50);
        let ticket = gc.begin_txn(PartitionId(0), tid(2));
        let epoch = ticket.epoch;
        gc.on_partition_crash(PartitionId(1));
        let waiter = gc.txn_committed(&ticket, 1, 1);
        assert_eq!(waiter.epoch, epoch);
        assert_eq!(gc.wait_durable(&waiter), CommitOutcome::CrashAborted);
        gc.shutdown();
    }

    #[test]
    fn committed_epochs_seal_a_boundary_in_every_log() {
        let cfg = WalConfig {
            scheme: LoggingScheme::CocoEpoch,
            interval_ms: 2,
            persist_delay_us: 0,
            force_update: false,
            ..WalConfig::default()
        };
        let wals = crate::build_logs(2, cfg);
        let gc = CocoCommit::new(2, cfg, wals.clone());
        let ticket = gc.begin_txn(PartitionId(0), tid(1));
        let waiter = gc.txn_committed(&ticket, 1, 1);
        assert_eq!(gc.wait_durable(&waiter), CommitOutcome::Committed);
        std::thread::sleep(Duration::from_millis(5));
        let committed = gc.committed_epoch();
        for wal in &wals {
            let lsn = epoch_boundary(&wal.durable_view(None), committed).expect("boundary sealed");
            // The replay bound for a crash in the next epoch covers the
            // sealed prefix.
            match gc.replay_bound(committed + 1, wal, None) {
                crate::ReplayBound::Lsn(l) => assert!(l >= lsn),
                other => panic!("unexpected bound {other:?}"),
            }
        }
        gc.shutdown();
    }

    #[test]
    fn snapshot_horizon_follows_sealed_epochs() {
        let gc = make(2);
        let p = PartitionId(0);
        let ticket = gc.begin_txn(p, tid(5));
        let ts = gc.finalize_commit_ts(&ticket, 0);
        let waiter = gc.txn_committed(&ticket, ts, 1);
        assert!(
            gc.snapshot_horizon(p) < ts,
            "commit of an unsealed epoch must stay above the horizon"
        );
        assert_eq!(gc.wait_durable(&waiter), CommitOutcome::Committed);
        // The epoch boundary sealed: the horizon covers the commit.
        assert!(gc.snapshot_horizon(p) >= ts);
        gc.shutdown();
    }

    #[test]
    fn gate_reopens_after_epoch_boundary() {
        let gc = make(2);
        // The gate may close briefly at the boundary but must always reopen.
        for _ in 0..5 {
            gc.execution_gate(PartitionId(0));
            std::thread::sleep(Duration::from_millis(2));
        }
        gc.shutdown();
    }

    #[test]
    fn active_txn_is_waited_for_before_commit() {
        let gc = make(2);
        let ticket = gc.begin_txn(PartitionId(0), tid(3));
        std::thread::sleep(Duration::from_millis(10));
        // Even though epochs ticked, our epoch cannot have committed yet
        // because the transaction is still active (the coordinator waits, up
        // to a timeout).
        let committed_before = gc.committed_epoch();
        assert!(committed_before < ticket.epoch || committed_before == 0);
        let waiter = gc.txn_committed(&ticket, 1, 1);
        assert_eq!(gc.wait_durable(&waiter), CommitOutcome::Committed);
        gc.shutdown();
    }
}
