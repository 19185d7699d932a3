//! The transaction context Primo hands to a running program.
//!
//! A transaction starts in **local mode** (TicToc: reads take no locks) and
//! switches to **distributed mode** on its first remote access (§4.2.2).
//! In distributed mode every read — local or remote — takes an *exclusive*
//! lock (the WCF rule), blind writes are pre-locked through dummy reads, and
//! remote reads raise the watermark floor of the records they touch (§5.1,
//! rule R2 case 2).
//!
//! With `wcf = false` (the "Primo w/o WCF" ablation and the read-heavy 2PC
//! fallback) distributed reads take shared locks instead and the commit phase
//! runs classic 2PC (see [`crate::protocol`]).

use primo_common::{AbortReason, Key, PartitionId, TableId, TxnError, TxnId, TxnResult, Value};
use primo_runtime::access::{
    check_visible, claim_insert_slot, recheck_locked_record, AccessSet, ReadEntry, WriteEntry,
    WriteKind,
};
use primo_runtime::cluster::Cluster;
use primo_runtime::prefetch::{metrics as prefetch_metrics, PrefetchOutcome, ReadFanout};
use primo_runtime::txn::TxnContext;
use primo_storage::{LockMode, LockPolicy, LockRequestResult, Record};
use primo_trace::TraceEventKind;
use primo_wal::TxnTicket;
use std::sync::Arc;

/// Execution mode of a Primo transaction (§4.2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// No remote access seen yet: plain TicToc, no locks on reads.
    Local,
    /// Distributed: exclusive (or shared, for the non-WCF variant) locks on
    /// every read.
    Distributed,
}

/// The context for one Primo transaction attempt.
pub struct PrimoCtx<'a> {
    pub(crate) cluster: &'a Cluster,
    pub(crate) ticket: &'a TxnTicket,
    pub(crate) txn: TxnId,
    pub(crate) home: PartitionId,
    pub(crate) mode: Mode,
    /// True = WCF (exclusive locks for distributed reads); false = shared
    /// locks + 2PC commit (ablation / read-heavy fallback).
    pub(crate) wcf: bool,
    pub(crate) access: AccessSet,
    /// Sticky abort: once an operation fails, all further operations fail
    /// with the same reason (the program unwinds by propagating the error).
    pub(crate) dead: Option<AbortReason>,
    /// The attempt's batched-prefetch buffer, when the worker resolved one:
    /// consulted before paying a per-record remote round trip, and fed the
    /// observed remote access set for footprint learning.
    pub(crate) fanout: Option<&'a ReadFanout>,
}

impl<'a> PrimoCtx<'a> {
    pub fn new(
        cluster: &'a Cluster,
        ticket: &'a TxnTicket,
        txn: TxnId,
        home: PartitionId,
        wcf: bool,
    ) -> Self {
        PrimoCtx {
            cluster,
            ticket,
            txn,
            home,
            mode: Mode::Local,
            wcf,
            access: AccessSet::new(),
            dead: None,
            fanout: None,
        }
    }

    /// Attach the attempt's prefetch buffer (see
    /// [`primo_runtime::prefetch`]). Without it every remote access pays the
    /// sequential per-record round trip, as before.
    pub fn with_fanout(mut self, fanout: &'a ReadFanout) -> Self {
        self.fanout = Some(fanout);
        self
    }

    pub fn mode(&self) -> Mode {
        self.mode
    }

    pub fn access(&self) -> &AccessSet {
        &self.access
    }

    fn fail(&mut self, reason: AbortReason) -> TxnError {
        self.dead = Some(reason);
        TxnError::Aborted(reason)
    }

    fn read_lock_mode(&self) -> LockMode {
        if self.wcf {
            LockMode::Exclusive
        } else {
            LockMode::Shared
        }
    }

    /// Fetch the record backing `(table, key)` on partition `p`, applying the
    /// lifecycle visibility rules: tombstones read as `NotFound`, another
    /// transaction's uncommitted insert as a retryable conflict.
    fn read_record(
        &self,
        p: PartitionId,
        table: TableId,
        key: Key,
    ) -> Result<Arc<Record>, AbortReason> {
        let store = &self.cluster.partition(p).store;
        match store.get(table, key) {
            Some(r) => check_visible(&r, self.txn).map(|()| r),
            None => Err(AbortReason::NotFound),
        }
    }

    /// Claim (or create / revive) the record backing an insert, logging the
    /// undo so an abort unlinks it again.
    fn record_for_insert(
        &self,
        p: PartitionId,
        table: TableId,
        key: Key,
    ) -> Result<Arc<Record>, AbortReason> {
        let table = self.cluster.partition(p).store.table(table);
        claim_insert_slot(table, key, self.txn, &self.access.undo)
    }

    /// Acquire a lock for this transaction under WAIT_DIE.
    fn acquire(&self, record: &Record, mode: LockMode) -> LockRequestResult {
        record.acquire(self.txn, mode, LockPolicy::WaitDie)
    }

    /// Pay the network cost of touching `(table, key)` on remote partition
    /// `p` — unless the attempt's batched fan-out already covers it. A
    /// *value* read hits only if the record is unchanged since the fan-out; a
    /// *dummy* read (lock-only, no value consumed) hits on presence, since
    /// the exclusive lock plus the post-lock lifecycle re-check pin the live
    /// record either way. A stale or missing entry falls back to the
    /// per-record round trip, exactly the sequential path.
    fn charge_remote_access(
        &mut self,
        p: PartitionId,
        table: TableId,
        key: Key,
        dummy: bool,
    ) -> TxnResult<()> {
        let outcome = match self.fanout {
            None => PrefetchOutcome::Miss,
            Some(f) => {
                f.observe(p, table, key);
                if dummy {
                    if f.covers(p, table, key) {
                        PrefetchOutcome::Hit
                    } else {
                        PrefetchOutcome::Miss
                    }
                } else {
                    f.check_value(self.cluster, p, table, key)
                }
            }
        };
        match outcome {
            PrefetchOutcome::Hit => {
                // Served from the batch — but a partition that crashed since
                // the fan-out still fails the access, exactly as the round
                // trip would.
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

    /// Switch from local to distributed mode: lock every record read so far
    /// and verify it has not changed since the unlocked (TicToc) read; lock
    /// dummy reads for any blind writes buffered while still local (§4.2.2).
    fn switch_to_distributed(&mut self) -> TxnResult<()> {
        debug_assert_eq!(self.mode, Mode::Local);
        let mode = self.read_lock_mode();
        for i in 0..self.access.reads.len() {
            let (record, observed_wts) = {
                let e = &self.access.reads[i];
                (Arc::clone(&e.record), e.wts)
            };
            if self.acquire(&record, mode) != LockRequestResult::Granted {
                return Err(self.fail(AbortReason::WaitDie));
            }
            self.access.reads[i].locked = Some(mode);
            if record.wts() != observed_wts {
                // The record changed between the optimistic local read and
                // the lock acquisition: abort and retry in distributed mode.
                return Err(self.fail(AbortReason::ModeSwitch));
            }
        }
        self.mode = Mode::Distributed;
        if self.wcf {
            // Blind writes buffered while local need their dummy reads now so
            // that write-set ⊆ read-set holds before the commit phase. Only
            // inserts may create the record they pre-lock.
            let pending: Vec<WriteEntry> = self
                .access
                .writes
                .iter()
                .filter(|w| self.access.find_read(w.partition, w.table, w.key).is_none())
                .cloned()
                .collect();
            for w in pending {
                self.dummy_read(w.partition, w.table, w.key, w.kind == WriteKind::Insert)?;
            }
        }
        Ok(())
    }

    /// Acquire an exclusive lock on a record only to cover a blind write
    /// (dummy read, §4.2.2 "Blind-write Handling"). `create` is true only
    /// for insert-kind writes — a plain write to a missing record aborts.
    fn dummy_read(
        &mut self,
        p: PartitionId,
        table: TableId,
        key: Key,
        create: bool,
    ) -> TxnResult<()> {
        if self.access.find_read(p, table, key).is_some() {
            return Ok(());
        }
        let remote = p != self.home;
        if remote {
            // A dummy read piggybacks on the attempt's batched fan-out when
            // the write key was part of the footprint (hinted write keys /
            // learned retries); only an uncovered one still costs its own
            // round trip (studied in Fig 9).
            self.charge_remote_access(p, table, key, true)?;
        }
        let record = match if create {
            self.record_for_insert(p, table, key)
        } else {
            self.read_record(p, table, key)
        } {
            Ok(r) => r,
            Err(reason) => return Err(self.fail(reason)),
        };
        if self.acquire(&record, LockMode::Exclusive) != LockRequestResult::Granted {
            return Err(self.fail(AbortReason::WaitDie));
        }
        // Re-check the lifecycle now that the lock pins it (an
        // insert-covering dummy read bounces retryably: the retry revives or
        // recreates the slot).
        let kind = if create {
            WriteKind::Insert
        } else {
            WriteKind::Put
        };
        if let Err(reason) = recheck_locked_record(
            &record,
            self.txn,
            kind,
            &self.cluster.partition(p).store.table(table),
            key,
        ) {
            return Err(self.fail(reason));
        }
        if remote {
            let floor = self.cluster.group_commit.ts_floor(p);
            record.raise_watermark_floor(floor);
            let row = record.read();
            self.cluster
                .group_commit
                .add_participant(self.ticket, p, row.wts);
        }
        let row = record.read();
        self.access.reads.push(ReadEntry {
            partition: p,
            table,
            key,
            record,
            wts: row.wts,
            rts: row.rts,
            locked: Some(LockMode::Exclusive),
            dummy: true,
        });
        Ok(())
    }

    /// Shared body of `write` / `insert`: buffer the entry and, in
    /// distributed WCF mode, pre-lock blind writes via a dummy read. The
    /// effective kind after buffering decides whether the dummy read may
    /// create the record (insert stickiness: a put over a buffered insert
    /// still refers to the record this transaction creates).
    fn buffered_write(&mut self, entry: WriteEntry) -> TxnResult<()> {
        if let Some(reason) = self.dead {
            return Err(TxnError::Aborted(reason));
        }
        let (p, table, key) = (entry.partition, entry.table, entry.key);
        // A write to a remote partition makes the transaction distributed
        // even if nothing was read remotely (blind remote write).
        if self.mode == Mode::Local && p != self.home {
            self.switch_to_distributed()?;
        }
        self.access.buffer_write(entry);
        if self.mode == Mode::Distributed
            && self.wcf
            && self.access.find_read(p, table, key).is_none()
        {
            // Blind write in distributed mode: pre-lock via a dummy read so
            // that installing the write-set can never conflict.
            let i = self
                .access
                .find_write(p, table, key)
                .expect("entry was just buffered");
            let create = self.access.writes[i].kind == WriteKind::Insert;
            self.dummy_read(p, table, key, create)?;
        }
        Ok(())
    }

    /// Abort cleanup: unwind every record this attempt materialised (created
    /// or revived for inserts — the undo runs while the exclusive locks are
    /// still held), release every lock and notify participants (one-way
    /// ABORT messages — no acknowledgements are needed, §4.2.2).
    pub(crate) fn abort_cleanup(&mut self) {
        let parts = self.access.participants(self.home);
        if !parts.is_empty() {
            self.cluster.net.one_way_multi(self.home, &parts);
        }
        self.access.abort_unwind(self.txn);
    }
}

impl TxnContext for PrimoCtx<'_> {
    fn read(&mut self, p: PartitionId, table: TableId, key: Key) -> TxnResult<Value> {
        if let Some(reason) = self.dead {
            return Err(TxnError::Aborted(reason));
        }
        // Read-your-own-writes (and your own deletes) from the buffer.
        if let Some(i) = self.access.find_write(p, table, key) {
            if self.access.writes[i].kind == WriteKind::Delete {
                return Err(self.fail(AbortReason::NotFound));
            }
            return Ok(self.access.writes[i].value.clone());
        }
        // Repeated read of the same record.
        if let Some(i) = self.access.find_read(p, table, key) {
            let e = &self.access.reads[i];
            if !e.dummy {
                return Ok(e.record.read().value);
            }
        }

        if self.mode == Mode::Local && p != self.home {
            self.switch_to_distributed()?;
        }

        match self.mode {
            Mode::Local => {
                // TicToc read: no lock, remember the observed interval.
                let record = self
                    .read_record(p, table, key)
                    .map_err(|reason| self.fail(reason))?;
                let row = record.read();
                let value = row.value.clone();
                self.access.reads.push(ReadEntry {
                    partition: p,
                    table,
                    key,
                    record,
                    wts: row.wts,
                    rts: row.rts,
                    locked: None,
                    dummy: false,
                });
                Ok(value)
            }
            Mode::Distributed => {
                let remote = p != self.home;
                if remote {
                    self.charge_remote_access(p, table, key, false)?;
                } else if self.cluster.net.is_crashed(p) {
                    return Err(self.fail(AbortReason::RemoteUnavailable));
                }
                let record = self
                    .read_record(p, table, key)
                    .map_err(|reason| self.fail(reason))?;
                let mode = self.read_lock_mode();
                if self.acquire(&record, mode) != LockRequestResult::Granted {
                    return Err(self.fail(AbortReason::WaitDie));
                }
                // Re-check the lifecycle now that the lock pins it: a delete
                // may have committed between resolution and acquisition.
                if let Err(reason) = recheck_locked_record(
                    &record,
                    self.txn,
                    WriteKind::Put,
                    &self.cluster.partition(p).store.table(table),
                    key,
                ) {
                    return Err(self.fail(reason));
                }
                if remote && self.wcf {
                    // Rule R2 (participant side): make sure the transaction's
                    // final timestamp will exceed the participant's watermark.
                    let floor = self.cluster.group_commit.ts_floor(p);
                    record.raise_watermark_floor(floor);
                }
                let row = record.read();
                if remote {
                    self.cluster
                        .group_commit
                        .add_participant(self.ticket, p, row.wts);
                }
                let value = row.value.clone();
                self.access.reads.push(ReadEntry {
                    partition: p,
                    table,
                    key,
                    record,
                    wts: row.wts,
                    rts: row.rts,
                    locked: Some(mode),
                    dummy: false,
                });
                Ok(value)
            }
        }
    }

    fn write(&mut self, p: PartitionId, table: TableId, key: Key, value: Value) -> TxnResult<()> {
        // Sticky abort first: a dead context must keep its original (often
        // retryable) reason rather than have it overwritten below.
        if let Some(reason) = self.dead {
            return Err(TxnError::Aborted(reason));
        }
        // A plain write to a key this transaction deleted sees the deletion:
        // the key no longer exists, so the update aborts like any other
        // update of a missing record.
        if let Some(i) = self.access.find_write(p, table, key) {
            if self.access.writes[i].kind == WriteKind::Delete {
                return Err(self.fail(AbortReason::NotFound));
            }
        }
        self.buffered_write(WriteEntry::put(p, table, key, value))
    }

    fn insert(&mut self, p: PartitionId, table: TableId, key: Key, value: Value) -> TxnResult<()> {
        // Inserts behave like blind writes, but carry the create-if-absent
        // intent: the record is created at commit (or by the dummy read in
        // distributed mode) instead of aborting with NotFound. An insert
        // over a buffered delete recreates the key (the buffer merge turns
        // the entry back into an insert).
        self.buffered_write(WriteEntry::insert(p, table, key, value))
    }

    fn delete(&mut self, p: PartitionId, table: TableId, key: Key) -> TxnResult<()> {
        if let Some(reason) = self.dead {
            return Err(TxnError::Aborted(reason));
        }
        if let Some(i) = self.access.find_write(p, table, key) {
            match self.access.writes[i].kind {
                // Deleting a key this transaction inserted cancels the
                // insert: the key never becomes visible. A record already
                // materialised for it (dummy read) is unlinked by the
                // commit epilogue's undo pass, since nothing installs it.
                WriteKind::Insert => {
                    self.access.writes.remove(i);
                    return Ok(());
                }
                // The key is already gone from this transaction's view.
                WriteKind::Delete => return Err(self.fail(AbortReason::NotFound)),
                WriteKind::Put => {
                    self.access.writes[i] = WriteEntry::delete(p, table, key);
                    return Ok(());
                }
            }
        }
        // A fresh delete is a blind write that must observe an existing
        // record: in distributed WCF mode the dummy read pre-locks it (and
        // aborts NotFound if it is missing); in local mode the commit-time
        // resolution enforces the same contract.
        self.buffered_write(WriteEntry::delete(p, table, key))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use primo_common::config::ClusterConfig;
    use std::sync::Arc as StdArc;

    fn setup() -> (StdArc<Cluster>, TxnId) {
        let cluster = Cluster::new(ClusterConfig::for_tests(2));
        for p in 0..2u32 {
            for k in 0..100u64 {
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
    fn local_reads_take_no_locks() {
        let (cluster, txn) = setup();
        let ticket = cluster.group_commit.begin_txn(PartitionId(0), txn);
        let mut ctx = PrimoCtx::new(&cluster, &ticket, txn, PartitionId(0), true);
        let v = ctx.read(PartitionId(0), TableId(0), 7).unwrap();
        assert_eq!(v.as_u64(), 7);
        assert_eq!(ctx.mode(), Mode::Local);
        let rec = cluster
            .partition(PartitionId(0))
            .store
            .get(TableId(0), 7)
            .unwrap();
        assert!(!rec.lock().is_locked());
        cluster.shutdown();
    }

    #[test]
    fn remote_read_switches_mode_and_locks_exclusively() {
        let (cluster, txn) = setup();
        let ticket = cluster.group_commit.begin_txn(PartitionId(0), txn);
        let mut ctx = PrimoCtx::new(&cluster, &ticket, txn, PartitionId(0), true);
        ctx.read(PartitionId(0), TableId(0), 1).unwrap();
        ctx.read(PartitionId(1), TableId(0), 2).unwrap();
        assert_eq!(ctx.mode(), Mode::Distributed);
        // Both the earlier local read and the remote read are now X-locked.
        let local = cluster
            .partition(PartitionId(0))
            .store
            .get(TableId(0), 1)
            .unwrap();
        let remote = cluster
            .partition(PartitionId(1))
            .store
            .get(TableId(0), 2)
            .unwrap();
        assert!(local.lock().held_by(txn));
        assert!(remote.lock().held_by(txn));
        assert!(remote
            .lock()
            .exclusively_locked_by_other(TxnId::new(PartitionId(1), 999)));
        assert_eq!(ticket.participants(), vec![PartitionId(1)]);
        ctx.abort_cleanup();
        assert!(!local.lock().is_locked());
        cluster.shutdown();
    }

    #[test]
    fn blind_write_gets_dummy_read_lock() {
        let (cluster, txn) = setup();
        let ticket = cluster.group_commit.begin_txn(PartitionId(0), txn);
        let mut ctx = PrimoCtx::new(&cluster, &ticket, txn, PartitionId(0), true);
        // Force distributed mode with a remote read, then blind-write another
        // remote key.
        ctx.read(PartitionId(1), TableId(0), 3).unwrap();
        ctx.write(PartitionId(1), TableId(0), 4, Value::from_u64(99))
            .unwrap();
        let rec = cluster
            .partition(PartitionId(1))
            .store
            .get(TableId(0), 4)
            .unwrap();
        assert!(rec.lock().held_by(txn));
        let dummy = ctx
            .access()
            .reads
            .iter()
            .find(|r| r.key == 4)
            .expect("dummy read entry exists");
        assert!(dummy.dummy);
        ctx.abort_cleanup();
        cluster.shutdown();
    }

    #[test]
    fn read_your_own_writes() {
        let (cluster, txn) = setup();
        let ticket = cluster.group_commit.begin_txn(PartitionId(0), txn);
        let mut ctx = PrimoCtx::new(&cluster, &ticket, txn, PartitionId(0), true);
        ctx.write(PartitionId(0), TableId(0), 5, Value::from_u64(777))
            .unwrap();
        assert_eq!(
            ctx.read(PartitionId(0), TableId(0), 5).unwrap().as_u64(),
            777
        );
        cluster.shutdown();
    }

    #[test]
    fn conflicting_younger_txn_dies() {
        let (cluster, txn_old) = setup();
        let txn_young = cluster.next_txn_id(PartitionId(0));
        assert!(txn_old < txn_young);
        let ticket_old = cluster.group_commit.begin_txn(PartitionId(0), txn_old);
        let ticket_young = cluster.group_commit.begin_txn(PartitionId(0), txn_young);
        let mut old = PrimoCtx::new(&cluster, &ticket_old, txn_old, PartitionId(0), true);
        let mut young = PrimoCtx::new(&cluster, &ticket_young, txn_young, PartitionId(0), true);
        // Old transaction holds the exclusive lock (distributed mode).
        old.read(PartitionId(1), TableId(0), 10).unwrap();
        // Young transaction in distributed mode on the same record must die.
        young.read(PartitionId(1), TableId(0), 11).unwrap();
        let err = young.read(PartitionId(1), TableId(0), 10).unwrap_err();
        assert_eq!(err.reason(), AbortReason::WaitDie);
        // Sticky failure.
        assert!(young.read(PartitionId(0), TableId(0), 1).is_err());
        old.abort_cleanup();
        young.abort_cleanup();
        cluster.shutdown();
    }

    #[test]
    fn crashed_partition_fails_remote_read() {
        let (cluster, txn) = setup();
        let ticket = cluster.group_commit.begin_txn(PartitionId(0), txn);
        let mut ctx = PrimoCtx::new(&cluster, &ticket, txn, PartitionId(0), true);
        cluster.net.set_crashed(PartitionId(1), true);
        let err = ctx.read(PartitionId(1), TableId(0), 1).unwrap_err();
        assert_eq!(err.reason(), AbortReason::RemoteUnavailable);
        ctx.abort_cleanup();
        cluster.shutdown();
    }

    #[test]
    fn non_wcf_variant_uses_shared_locks() {
        let (cluster, txn) = setup();
        let ticket = cluster.group_commit.begin_txn(PartitionId(0), txn);
        let mut ctx = PrimoCtx::new(&cluster, &ticket, txn, PartitionId(0), false);
        ctx.read(PartitionId(1), TableId(0), 20).unwrap();
        let rec = cluster
            .partition(PartitionId(1))
            .store
            .get(TableId(0), 20)
            .unwrap();
        // Another transaction can still share-lock the record.
        let other = TxnId::new(PartitionId(1), 999_999);
        assert_eq!(
            rec.acquire(other, LockMode::Shared, LockPolicy::NoWait),
            LockRequestResult::Granted
        );
        rec.release(other);
        ctx.abort_cleanup();
        cluster.shutdown();
    }
}
