//! Shared building blocks for the baseline protocols: an OCC-style execution
//! context (reads without locks or with shared locks, buffered writes) and
//! helpers for the 2PC commit rounds.

use primo_common::{AbortReason, Key, PartitionId, TableId, Ts, TxnError, TxnId, TxnResult, Value};
use primo_runtime::access::{
    check_visible, recheck_locked_record, resolve_write_record, AccessSet, ReadEntry, WriteEntry,
    WriteKind,
};
use primo_runtime::cluster::Cluster;
use primo_runtime::commit::{PrepareOutcome, PreparedAt};
use primo_runtime::durability::log_txn_writes;
use primo_runtime::prefetch::{metrics as prefetch_metrics, PrefetchOutcome, ReadFanout};
use primo_runtime::txn::TxnContext;
use primo_storage::{LockMode, LockPolicy, LockRequestResult, Record};
use primo_trace::TraceEventKind;
use std::sync::Arc;

/// How the execution phase guards reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadGuard {
    /// No lock; remember the observed version/timestamps (Silo, Sundial,
    /// TAPIR, Aria).
    Optimistic,
    /// Shared lock for the whole transaction (2PL).
    SharedLock(LockPolicy),
}

/// Execution context shared by every baseline.
pub struct BaselineCtx<'a> {
    pub cluster: &'a Cluster,
    pub txn: TxnId,
    pub home: PartitionId,
    pub guard: ReadGuard,
    pub access: AccessSet,
    pub dead: Option<AbortReason>,
    /// Set when the commit layer orphaned this transaction (coordinator
    /// crash under classic 2PC): cleanup must NOT run — the locks leak and
    /// the participants stay blocked, which is the observable failure mode.
    orphaned: std::cell::Cell<bool>,
    /// The attempt's batched-prefetch buffer, when the worker resolved one
    /// (see [`primo_runtime::prefetch`]): consulted before paying a
    /// per-record remote round trip.
    fanout: Option<&'a ReadFanout>,
}

impl<'a> BaselineCtx<'a> {
    pub fn new(cluster: &'a Cluster, txn: TxnId, home: PartitionId, guard: ReadGuard) -> Self {
        BaselineCtx {
            cluster,
            txn,
            home,
            guard,
            access: AccessSet::new(),
            dead: None,
            orphaned: std::cell::Cell::new(false),
            fanout: None,
        }
    }

    /// Attach the attempt's prefetch buffer. Without it every remote read
    /// pays the sequential per-record round trip, as before.
    pub fn with_fanout(mut self, fanout: &'a ReadFanout) -> Self {
        self.fanout = Some(fanout);
        self
    }

    fn fail(&mut self, reason: AbortReason) -> TxnError {
        self.dead = Some(reason);
        TxnError::Aborted(reason)
    }

    /// Pay the network cost of a remote read — unless the attempt's batched
    /// fan-out already covers the key at the record's current version. A
    /// stale or missing entry falls back to the per-record round trip; a hit
    /// on a partition that crashed since the fan-out still fails, exactly as
    /// the round trip would.
    fn charge_remote_read(&mut self, p: PartitionId, table: TableId, key: Key) -> TxnResult<()> {
        let outcome = match self.fanout {
            None => PrefetchOutcome::Miss,
            Some(f) => {
                f.observe(p, table, key);
                f.check_value(self.cluster, p, table, key)
            }
        };
        match outcome {
            PrefetchOutcome::Hit => {
                if self.cluster.net.is_crashed(p) {
                    return Err(self.fail(AbortReason::RemoteUnavailable));
                }
                self.cluster.metrics.inc(&prefetch_metrics::HITS);
                self.cluster.recorder.emit(
                    Some(self.txn),
                    Some(self.home),
                    TraceEventKind::PrefetchHit,
                );
                Ok(())
            }
            outcome => {
                if self.fanout.is_some() {
                    if outcome == PrefetchOutcome::Stale {
                        self.cluster.metrics.inc(&prefetch_metrics::STALE);
                        self.cluster.recorder.emit(
                            Some(self.txn),
                            Some(self.home),
                            TraceEventKind::PrefetchStale,
                        );
                    } else {
                        self.cluster.metrics.inc(&prefetch_metrics::MISSES);
                    }
                }
                if !self.cluster.net.round_trip(self.home, p) {
                    return Err(self.fail(AbortReason::RemoteUnavailable));
                }
                Ok(())
            }
        }
    }

    /// Unwind every record this attempt materialised for an insert, release
    /// all locks and notify participants of the abort.
    ///
    /// A no-op for an orphaned transaction: nobody is left alive to clean
    /// up after a coordinator crash under classic 2PC.
    pub fn abort_cleanup(&mut self) {
        if self.orphaned.get() {
            return;
        }
        let parts = self.access.participants(self.home);
        if !parts.is_empty() {
            self.cluster.net.one_way_multi(self.home, &parts);
        }
        self.access.abort_unwind(self.txn);
    }

    /// Fetch the record for a key, applying the lifecycle visibility rules
    /// (a tombstone or another transaction's uncommitted insert reads as
    /// absent, see [`check_visible`]).
    pub fn record_visible(
        &self,
        p: PartitionId,
        table: TableId,
        key: Key,
    ) -> Result<Arc<Record>, AbortReason> {
        match self.cluster.partition(p).store.get(table, key) {
            Some(r) => check_visible(&r, self.txn).map(|()| r),
            None => Err(AbortReason::NotFound),
        }
    }
}

impl TxnContext for BaselineCtx<'_> {
    fn read(&mut self, p: PartitionId, table: TableId, key: Key) -> TxnResult<Value> {
        if let Some(reason) = self.dead {
            return Err(TxnError::Aborted(reason));
        }
        if let Some(i) = self.access.find_write(p, table, key) {
            if self.access.writes[i].kind == WriteKind::Delete {
                return Err(self.fail(AbortReason::NotFound));
            }
            return Ok(self.access.writes[i].value.clone());
        }
        if let Some(i) = self.access.find_read(p, table, key) {
            return Ok(self.access.reads[i].record.read().value);
        }
        let remote = p != self.home;
        if remote {
            self.charge_remote_read(p, table, key)?;
        } else if self.cluster.net.is_crashed(p) {
            return Err(self.fail(AbortReason::RemoteUnavailable));
        }
        let record = match self.record_visible(p, table, key) {
            Ok(r) => r,
            Err(reason) => return Err(self.fail(reason)),
        };
        let locked = match self.guard {
            ReadGuard::Optimistic => None,
            ReadGuard::SharedLock(policy) => {
                if record.acquire(self.txn, LockMode::Shared, policy) != LockRequestResult::Granted
                {
                    if let Some(owner) = record.lock().holder() {
                        self.cluster.recorder.emit(
                            Some(self.txn),
                            Some(p),
                            TraceEventKind::LockWait { owner },
                        );
                    }
                    let reason = match policy {
                        LockPolicy::NoWait => AbortReason::LockConflict,
                        LockPolicy::WaitDie => AbortReason::WaitDie,
                    };
                    return Err(self.fail(reason));
                }
                // A delete may have committed between resolution and lock
                // acquisition; the lock pins the state, so re-check it (the
                // helper also reclaims the tombstone our lock pinned).
                if let Err(reason) = recheck_locked_record(
                    &record,
                    self.txn,
                    WriteKind::Put,
                    &self.cluster.partition(p).store.table(table),
                    key,
                ) {
                    return Err(self.fail(reason));
                }
                Some(LockMode::Shared)
            }
        };
        let row = record.read();
        let value = row.value.clone();
        self.access.reads.push(ReadEntry {
            partition: p,
            table,
            key,
            record,
            wts: row.wts,
            rts: row.rts,
            locked,
            dummy: false,
        });
        Ok(value)
    }

    fn write(&mut self, p: PartitionId, table: TableId, key: Key, value: Value) -> TxnResult<()> {
        if let Some(reason) = self.dead {
            return Err(TxnError::Aborted(reason));
        }
        // A plain write after a same-transaction delete updates a key that
        // no longer exists.
        if let Some(i) = self.access.find_write(p, table, key) {
            if self.access.writes[i].kind == WriteKind::Delete {
                return Err(self.fail(AbortReason::NotFound));
            }
        }
        self.access
            .buffer_write(WriteEntry::put(p, table, key, value));
        Ok(())
    }

    fn insert(&mut self, p: PartitionId, table: TableId, key: Key, value: Value) -> TxnResult<()> {
        if let Some(reason) = self.dead {
            return Err(TxnError::Aborted(reason));
        }
        self.access
            .buffer_write(WriteEntry::insert(p, table, key, value));
        Ok(())
    }

    fn delete(&mut self, p: PartitionId, table: TableId, key: Key) -> TxnResult<()> {
        if let Some(reason) = self.dead {
            return Err(TxnError::Aborted(reason));
        }
        if let Some(i) = self.access.find_write(p, table, key) {
            match self.access.writes[i].kind {
                // Deleting a key this transaction inserted cancels the
                // insert outright (baselines materialise insert records only
                // at commit time, so there is nothing to unlink yet).
                WriteKind::Insert => {
                    self.access.writes.remove(i);
                    return Ok(());
                }
                WriteKind::Delete => return Err(self.fail(AbortReason::NotFound)),
                WriteKind::Put => {
                    self.access.writes[i] = WriteEntry::delete(p, table, key);
                    return Ok(());
                }
            }
        }
        self.access.buffer_write(WriteEntry::delete(p, table, key));
        Ok(())
    }
}

/// Outcome of locking the write set during a prepare phase.
#[derive(Debug)]
pub struct LockedWriteSet {
    pub records: Vec<(usize, Arc<Record>)>,
}

impl LockedWriteSet {
    pub fn release(&self, txn: TxnId) {
        for (_, r) in &self.records {
            r.release(txn);
        }
    }
}

/// Lock every write record with the given policy, materialising records only
/// for `insert`-kind writes (in `UncommittedInsert` state, undo-logged in the
/// context's access set so an abort unlinks them again). A plain write or
/// delete whose record does not exist — or was deleted — aborts with
/// [`AbortReason::NotFound`]. Returns the locked set or the abort reason.
pub fn lock_write_set(
    ctx: &BaselineCtx<'_>,
    policy: LockPolicy,
) -> Result<LockedWriteSet, AbortReason> {
    let mut locked = LockedWriteSet {
        records: Vec::with_capacity(ctx.access.writes.len()),
    };
    // On any failure below: unwind the records this phase materialised
    // *before* releasing their locks, so no other transaction can claim a
    // created record's slot in between.
    for (i, w) in ctx.access.writes.iter().enumerate() {
        let store = &ctx.cluster.partition(w.partition).store;
        let record = match resolve_write_record(store, w, ctx.txn, &ctx.access.undo) {
            Ok(r) => r,
            Err(reason) => {
                ctx.access.undo.unwind();
                locked.release(ctx.txn);
                return Err(reason);
            }
        };
        if record.acquire(ctx.txn, LockMode::Exclusive, policy) != LockRequestResult::Granted {
            if let Some(owner) = record.lock().holder() {
                ctx.cluster.recorder.emit(
                    Some(ctx.txn),
                    Some(w.partition),
                    TraceEventKind::LockWait { owner },
                );
            }
            ctx.access.undo.unwind();
            locked.release(ctx.txn);
            return Err(match policy {
                LockPolicy::NoWait => AbortReason::LockConflict,
                LockPolicy::WaitDie => AbortReason::WaitDie,
            });
        }
        locked.records.push((i, Arc::clone(&record)));
        // A concurrent delete may have tombstoned (or reclaimed) the record
        // between resolution and lock acquisition; re-check under the lock
        // (an insert bounces retryably; the helper reclaims the tombstone).
        if let Err(reason) =
            recheck_locked_record(&record, ctx.txn, w.kind, &store.table(w.table), w.key)
        {
            ctx.access.undo.unwind();
            locked.release(ctx.txn);
            return Err(reason);
        }
    }
    Ok(locked)
}

/// Install every locked write: puts/inserts install their buffered value
/// (with `wts = rts = ts`, or a version bump when `ts` is `None`); deletes
/// install a tombstone. Shared by the 2PL, Silo, Sundial and TAPIR commit
/// paths so delete semantics cannot drift between baselines.
///
/// The write-set is appended to every involved partition's WAL **before**
/// the installs, while the exclusive locks are still held — so the log is
/// ahead of the store and per-key log order equals install order. `ts` is
/// finalized through the group-commit scheme (protocols without logical
/// timestamps get a sequence above the coordinator's floor) and returned so
/// the caller reports the same timestamp in its
/// [`CommittedTxn`](primo_runtime::protocol::CommittedTxn) — recovery's replay bound relies
/// on the logged and reported timestamps agreeing.
pub fn install_locked_writes(
    ctx: &BaselineCtx<'_>,
    ticket: &primo_wal::TxnTicket,
    locked: &LockedWriteSet,
    ts: Option<Ts>,
) -> Ts {
    let final_ts = ctx
        .cluster
        .group_commit
        .finalize_commit_ts(ticket, ts.unwrap_or(0));
    ctx.cluster.recorder.emit(
        Some(ctx.txn),
        Some(ctx.home),
        TraceEventKind::CommitTsReserved { ts: final_ts },
    );
    log_txn_writes(ctx.cluster, ctx.txn, final_ts, &ctx.access.writes);
    for (i, record) in &locked.records {
        let w = &ctx.access.writes[*i];
        match (w.kind, ts) {
            (WriteKind::Delete, Some(ts)) => record.install_tombstone(ts),
            (WriteKind::Delete, None) => {
                record.install_tombstone_next_version_at(final_ts);
            }
            (_, Some(ts)) => record.install(w.value.clone(), ts),
            (_, None) => {
                record.install_next_version_at(w.value.clone(), final_ts);
            }
        }
    }
    final_ts
}

/// Post-commit deferred reclamation: physically unlink the tombstones this
/// transaction installed. Must run after every lock is released.
pub fn reclaim_deletes(ctx: &BaselineCtx<'_>) {
    for w in &ctx.access.writes {
        if w.kind == WriteKind::Delete {
            ctx.cluster
                .partition(w.partition)
                .store
                .table(w.table)
                .reclaim(w.key);
        }
    }
}

/// A successful prepare phase: the participant set plus the commit layer's
/// proof of preparation (fed back to the decide helpers for latency
/// accounting).
pub struct PreparedRound {
    pub parts: Vec<PartitionId>,
    pub at: PreparedAt,
}

/// Run the prepare phase through the cluster's atomic-commit layer
/// (write-set shipping + vote collection; under Paxos Commit the votes are
/// additionally logged quorum-durably) and register the participants with
/// the group-commit scheme.
pub fn prepare_round(
    ctx: &BaselineCtx<'_>,
    ticket: &primo_wal::TxnTicket,
) -> Result<PreparedRound, AbortReason> {
    let parts = ctx.access.participants(ctx.home);
    for p in &parts {
        ctx.cluster.group_commit.add_participant(ticket, *p, 0);
    }
    match ctx
        .cluster
        .atomic_commit()
        .prepare(ctx.cluster, ctx.txn, ctx.home, &parts)
    {
        PrepareOutcome::Prepared(at) => Ok(PreparedRound { parts, at }),
        PrepareOutcome::Aborted(reason) => Err(reason),
        PrepareOutcome::Orphaned => {
            // Classic 2PC's blocking failure: mark the context so
            // `abort_cleanup` leaves the attempt's locks held — the
            // participants stay blocked until retries exhaust.
            ctx.orphaned.set(true);
            Err(AbortReason::CoordinatorCrash)
        }
    }
}

/// Propagate the global COMMIT verdict through the commit layer (a round
/// trip under classic 2PC; durable decision entries plus a one-way
/// notification under Paxos Commit).
pub fn commit_round(ctx: &BaselineCtx<'_>, prepared: &PreparedRound) {
    ctx.cluster.atomic_commit().decide_commit(
        ctx.cluster,
        ctx.txn,
        ctx.home,
        &prepared.parts,
        prepared.at,
    );
}

/// Propagate the global ABORT verdict through the commit layer.
pub fn abort_round(ctx: &BaselineCtx<'_>, prepared: &PreparedRound) {
    ctx.cluster
        .atomic_commit()
        .decide_abort(ctx.cluster, ctx.txn, ctx.home, &prepared.parts);
}

/// Seal a commit verdict that was decided *inside* the prepare round itself
/// (consolidated-round protocols like TAPIR): no further messages are
/// charged, but under Paxos Commit the logged votes must still be resolved
/// with durable decision entries.
pub fn seal_consolidated_commit(ctx: &BaselineCtx<'_>, prepared: &PreparedRound) {
    ctx.cluster.atomic_commit().seal_commit(
        ctx.cluster,
        ctx.txn,
        ctx.home,
        &prepared.parts,
        prepared.at,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use primo_common::config::ClusterConfig;

    fn setup() -> (Arc<Cluster>, TxnId) {
        let cluster = Cluster::new(ClusterConfig::for_tests(2));
        for p in 0..2u32 {
            for k in 0..32u64 {
                cluster
                    .partition(PartitionId(p))
                    .store
                    .insert(TableId(0), k, Value::from_u64(k));
            }
        }
        let txn = cluster.next_txn_id(PartitionId(0));
        (cluster, txn)
    }

    #[test]
    fn optimistic_reads_take_no_locks() {
        let (cluster, txn) = setup();
        let mut ctx = BaselineCtx::new(&cluster, txn, PartitionId(0), ReadGuard::Optimistic);
        ctx.read(PartitionId(0), TableId(0), 1).unwrap();
        ctx.read(PartitionId(1), TableId(0), 2).unwrap();
        assert!(ctx.access.reads.iter().all(|r| r.locked.is_none()));
        assert!(ctx.access.is_distributed(PartitionId(0)));
        cluster.shutdown();
    }

    #[test]
    fn shared_lock_reads_hold_locks() {
        let (cluster, txn) = setup();
        let mut ctx = BaselineCtx::new(
            &cluster,
            txn,
            PartitionId(0),
            ReadGuard::SharedLock(LockPolicy::NoWait),
        );
        ctx.read(PartitionId(0), TableId(0), 1).unwrap();
        let rec = cluster
            .partition(PartitionId(0))
            .store
            .get(TableId(0), 1)
            .unwrap();
        assert!(rec.lock().held_by(txn));
        ctx.abort_cleanup();
        assert!(!rec.lock().is_locked());
        cluster.shutdown();
    }

    #[test]
    fn lock_write_set_rolls_back_on_conflict() {
        let (cluster, txn) = setup();
        let other = cluster.next_txn_id(PartitionId(0));
        // `other` exclusively locks key 3.
        let rec3 = cluster
            .partition(PartitionId(0))
            .store
            .get(TableId(0), 3)
            .unwrap();
        rec3.acquire(other, LockMode::Exclusive, LockPolicy::NoWait);
        let mut ctx = BaselineCtx::new(&cluster, txn, PartitionId(0), ReadGuard::Optimistic);
        ctx.write(PartitionId(0), TableId(0), 2, Value::from_u64(1))
            .unwrap();
        ctx.write(PartitionId(0), TableId(0), 3, Value::from_u64(1))
            .unwrap();
        let err = lock_write_set(&ctx, LockPolicy::NoWait).unwrap_err();
        assert_eq!(err, AbortReason::LockConflict);
        // Key 2's lock (acquired before the failure) was rolled back.
        let rec2 = cluster
            .partition(PartitionId(0))
            .store
            .get(TableId(0), 2)
            .unwrap();
        assert!(!rec2.lock().is_locked());
        rec3.release(other);
        cluster.shutdown();
    }

    #[test]
    fn failed_lock_phase_unlinks_created_insert_records() {
        let (cluster, txn) = setup();
        // An older transaction holds key 3 exclusively, so the write-set lock
        // phase fails *after* the insert's record was already materialised.
        let blocker = TxnId::new(PartitionId(0), 0);
        let rec3 = cluster
            .partition(PartitionId(0))
            .store
            .get(TableId(0), 3)
            .unwrap();
        rec3.acquire(blocker, LockMode::Exclusive, LockPolicy::NoWait);
        let mut ctx = BaselineCtx::new(&cluster, txn, PartitionId(0), ReadGuard::Optimistic);
        ctx.insert(PartitionId(0), TableId(0), 5_000, Value::from_u64(1))
            .unwrap();
        ctx.write(PartitionId(0), TableId(0), 3, Value::from_u64(1))
            .unwrap();
        let err = lock_write_set(&ctx, LockPolicy::NoWait).unwrap_err();
        assert_eq!(err, AbortReason::LockConflict);
        // The failed lock phase unwinds its own materialised records before
        // releasing any lock — the phantom never outlives the attempt.
        assert!(
            cluster
                .partition(PartitionId(0))
                .store
                .get(TableId(0), 5_000)
                .is_none(),
            "aborted insert must leave no record behind"
        );
        ctx.abort_cleanup();
        rec3.release(blocker);
        cluster.shutdown();
    }

    #[test]
    fn tombstone_bounce_aborts_and_reclaims_the_record() {
        // The delete-vs-writer race: a writer resolves the record while it
        // is still visible, then blocks on the deleter's lock (WAIT_DIE,
        // older waits); the delete commits its tombstone and releases; the
        // writer's lock finally lands on a tombstone. The post-lock re-check
        // must bounce the writer with NotFound, and — since the writer's
        // wait is exactly what a deleter's inline reclaim would have skipped
        // over — the writer reclaims the record after releasing.
        let (cluster, _) = setup();
        let older = TxnId::new(PartitionId(0), 1);
        let deleter = TxnId::new(PartitionId(0), 2);
        let rec = cluster
            .partition(PartitionId(0))
            .store
            .get(TableId(0), 6)
            .unwrap();
        assert_eq!(
            rec.acquire(deleter, LockMode::Exclusive, LockPolicy::NoWait),
            LockRequestResult::Granted
        );
        // The deleter commits its tombstone and releases while the writer
        // (spawned below) is blocked waiting for the lock.
        let rec2 = Arc::clone(&rec);
        let release = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(10));
            rec2.install_tombstone(9);
            rec2.release(deleter);
        });
        let mut ctx = BaselineCtx::new(&cluster, older, PartitionId(0), ReadGuard::Optimistic);
        ctx.write(PartitionId(0), TableId(0), 6, Value::from_u64(1))
            .unwrap();
        let err = lock_write_set(&ctx, LockPolicy::WaitDie).unwrap_err();
        assert_eq!(err, AbortReason::NotFound);
        release.join().unwrap();
        ctx.abort_cleanup();
        assert!(
            cluster
                .partition(PartitionId(0))
                .store
                .get(TableId(0), 6)
                .is_none(),
            "the bounced tombstone must be physically reclaimed"
        );
        cluster.shutdown();
    }

    #[test]
    fn delete_cancels_buffered_insert_and_marks_puts() {
        let (cluster, txn) = setup();
        let mut ctx = BaselineCtx::new(&cluster, txn, PartitionId(0), ReadGuard::Optimistic);
        // insert then delete: the entry disappears entirely.
        ctx.insert(PartitionId(0), TableId(0), 40, Value::from_u64(1))
            .unwrap();
        ctx.delete(PartitionId(0), TableId(0), 40).unwrap();
        assert!(ctx.access.writes.is_empty());
        // put then delete: the entry becomes a delete; reads and writes of
        // the key now see NotFound.
        ctx.write(PartitionId(0), TableId(0), 41, Value::from_u64(1))
            .unwrap();
        ctx.delete(PartitionId(0), TableId(0), 41).unwrap();
        assert_eq!(ctx.access.writes[0].kind, WriteKind::Delete);
        assert_eq!(
            ctx.read(PartitionId(0), TableId(0), 41)
                .unwrap_err()
                .reason(),
            AbortReason::NotFound
        );
        cluster.shutdown();
    }

    #[test]
    fn read_your_writes_in_baseline_ctx() {
        let (cluster, txn) = setup();
        let mut ctx = BaselineCtx::new(&cluster, txn, PartitionId(0), ReadGuard::Optimistic);
        ctx.write(PartitionId(0), TableId(0), 9, Value::from_u64(77))
            .unwrap();
        assert_eq!(
            ctx.read(PartitionId(0), TableId(0), 9).unwrap().as_u64(),
            77
        );
        cluster.shutdown();
    }
}
