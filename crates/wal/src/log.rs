//! Per-partition write-ahead log with simulated asynchronous persistence.
//!
//! The paper's partitions replicate their log through Raft and persist it to
//! local SSD; here a record appended at time `t` becomes durable at
//! `t + persist_delay`. The log is the partition's durability story end to
//! end: protocols append committed write-sets ([`LogPayload::TxnWrites`]),
//! the group-commit schemes append their control records
//! ([`LogPayload::Watermark`] / [`LogPayload::EpochBoundary`]), the
//! checkpoint writer folds the durable prefix into
//! [`LogPayload::Checkpoint`] images so the log stops growing without bound,
//! and the recovery manager rebuilds a crashed partition's store from
//! `latest durable checkpoint + bounded replay` (see `primo-recovery`).

use parking_lot::{Mutex, MutexGuard};
use primo_common::sim_time::now_us;
use primo_common::{Key, PartitionId, TableId, Ts, TxnId, Value};
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::ops::RangeBounds;
use std::sync::Arc;

/// One operation inside a logged write-set.
#[derive(Debug, Clone)]
pub enum LoggedOp {
    /// Install this value (covers both updates and inserts — replay is
    /// create-if-absent either way, because the checkpoint image may or may
    /// not already contain the key).
    Put(Value),
    /// Remove the key.
    Delete,
}

/// One write of a committed transaction on one partition.
#[derive(Debug, Clone)]
pub struct LoggedWrite {
    pub table: TableId,
    pub key: Key,
    pub op: LoggedOp,
    /// Before-image: the committed value of the key right before this write
    /// installed, captured while the write locks were still held. `None`
    /// means the key had no committed value (the write is an insert into an
    /// absent or tombstoned slot). This is what cross-partition crash
    /// compensation restores when the group commit rolls the transaction
    /// back on a *surviving* partition (the crashed partition is instead
    /// rebuilt by bounded replay, which simply skips the transaction).
    pub prev: Option<Value>,
}

impl LoggedWrite {
    /// A put with no before-image (fresh key). Use
    /// [`LoggedWrite::with_prev`] to attach one.
    pub fn put(table: TableId, key: Key, value: Value) -> Self {
        LoggedWrite {
            table,
            key,
            op: LoggedOp::Put(value),
            prev: None,
        }
    }

    /// A delete with no before-image recorded.
    pub fn delete(table: TableId, key: Key) -> Self {
        LoggedWrite {
            table,
            key,
            op: LoggedOp::Delete,
            prev: None,
        }
    }

    /// Attach the committed before-image.
    pub fn with_prev(mut self, prev: Option<Value>) -> Self {
        self.prev = prev;
        self
    }
}

/// A materialised checkpoint: the state of one partition at `up_to_ts`,
/// equivalent to replaying every durable committed transaction below the
/// checkpoint bound into an empty store.
///
/// Images are built *from the log*, never from the live store (except the
/// quiescent base checkpoint taken right after loading): each image is the
/// previous image plus the covered durable log prefix, so it is consistent
/// by construction even while transactions keep installing concurrently.
#[derive(Debug, Clone, Default)]
pub struct CheckpointImage {
    /// Every logged transaction with a commit timestamp `<= up_to_ts` that
    /// was folded is reflected in `records`.
    pub up_to_ts: Ts,
    /// First LSN **not** folded into this image: recovery replays the
    /// retained log from here.
    pub base_lsn: u64,
    /// Committed records: `(table, key) -> (value, commit ts)`.
    pub records: BTreeMap<(TableId, Key), (Value, Ts)>,
}

impl CheckpointImage {
    /// Apply one committed transaction's writes at `ts` (delete removes the
    /// key). Applying the same transaction twice is idempotent.
    pub fn apply(&mut self, ts: Ts, writes: &[LoggedWrite]) {
        for w in writes {
            match &w.op {
                LoggedOp::Put(v) => {
                    self.records.insert((w.table, w.key), (v.clone(), ts));
                }
                LoggedOp::Delete => {
                    self.records.remove(&(w.table, w.key));
                }
            }
        }
        if ts > self.up_to_ts {
            self.up_to_ts = ts;
        }
    }

    pub fn len(&self) -> usize {
        self.records.len()
    }

    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

/// What a log entry describes.
#[derive(Debug, Clone)]
pub enum LogPayload {
    /// A committed transaction's write-set on this partition, appended while
    /// the write locks are still held so per-key log order equals install
    /// order.
    TxnWrites {
        txn: TxnId,
        ts: Ts,
        writes: Vec<LoggedWrite>,
    },
    /// A persisted partition watermark (§5.1: `Wp` is logged before being
    /// broadcast so the new leader can recover it).
    Watermark { wp: Ts },
    /// A committed epoch boundary (COCO): every `TxnWrites` entry before this
    /// marker belongs to a committed epoch.
    EpochBoundary { epoch: u64 },
    /// A periodic checkpoint with its attached image; recovery restores the
    /// newest durable image and replays from `image.base_lsn`.
    Checkpoint { image: Arc<CheckpointImage> },
    /// The cluster rolled `txn` back after a crash (the group commit reported
    /// it `CrashAborted`) and its installed writes on this partition were
    /// compensated with their before-images. Replay, checkpoint folding and
    /// log repair all skip the transaction's `TxnWrites` entries from then
    /// on, so a *later* crash of this partition cannot resurrect it. The
    /// marker always has a higher LSN than the entries it cancels, so
    /// checkpoint truncation can never drop the marker while the entries
    /// remain.
    TxnRolledBack { txn: TxnId },
    /// Paxos Commit: a prepare vote for `txn`, logged quorum-durably so the
    /// commit decision no longer depends on the coordinating worker staying
    /// alive — any replica holding a durable vote set can assemble (or, in
    /// doubt, terminate) the global verdict. `coordinator` is the home
    /// partition that ran the prepare round.
    CommitVote {
        txn: TxnId,
        coordinator: PartitionId,
        commit: bool,
    },
    /// Paxos Commit: the global verdict for `txn`. Written by the
    /// coordinator on the normal path, or by whoever resolved the
    /// transaction after the coordinator died in the in-doubt window
    /// (crash-time resolution always decides abort, the presumed-abort
    /// rule).
    CommitDecision { txn: TxnId, commit: bool },
}

/// One record in the log. The payload sits behind an `Arc` so the
/// replicated fan-out shares one allocation across every replica's entry
/// (only the per-replica metadata — LSN, append time, term — is owned).
#[derive(Debug, Clone)]
pub struct LogEntry {
    pub lsn: u64,
    pub appended_at_us: u64,
    /// Leadership term of the replicated log at append time (0 for a
    /// standalone single-copy log). Every crash bumps the term and moves
    /// leadership to the deterministic successor replica, so entries carry
    /// which leader produced them — the replicated-log equivalent of a Raft
    /// term on each record.
    pub term: u64,
    pub payload: Arc<LogPayload>,
}

#[derive(Debug, Default)]
struct WalInner {
    entries: Vec<LogEntry>,
    /// Replication segments received ([`PartitionWal::receive_segment`]) but
    /// not yet folded into `entries`. Delivery is O(1) per segment — the
    /// `Arc` is shared by every replica of the partition — and the copy into
    /// this replica's own `entries` happens lazily, on the first read that
    /// needs them ([`WalInner::fold_pending`]). `next_lsn` always accounts
    /// for pending segments, so appends and `end_lsn` stay exact without
    /// folding.
    pending: Vec<Arc<[LogEntry]>>,
    next_lsn: u64,
}

impl WalInner {
    /// Materialise received-but-unfolded segments into `entries`. Amortised
    /// O(1) per entry over the log's lifetime; the hot no-op case is one
    /// branch.
    #[inline]
    fn fold_pending(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let total: usize = self.pending.iter().map(|s| s.len()).sum();
        self.entries.reserve(total);
        for seg in self.pending.drain(..) {
            self.entries.extend_from_slice(&seg);
        }
    }
}

/// One replayed transaction: its id, commit timestamp and write-set on this
/// partition.
pub type ReplayedTxn = (TxnId, Ts, Vec<LoggedWrite>);

/// How far a recovery (or checkpoint fold) may read into the log. Every
/// group-commit scheme translates its own agreement — recovered watermark,
/// last durable epoch boundary, durable LSN — into one of these (see
/// [`crate::GroupCommit::replay_bound`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplayBound {
    /// Transactions with commit timestamp strictly below the bound (the
    /// watermark scheme's recovered `Wp`).
    Ts(Ts),
    /// Entries with LSN strictly below the bound (COCO: the LSN of the last
    /// durable committed epoch boundary; CLV / sync: one past the durable
    /// LSN).
    Lsn(u64),
    /// Entries whose persist window *spans* the given simulated instant are
    /// **not** covered (CLV's crash-rollback rule on *surviving*
    /// partitions): a transaction is acknowledged exactly when its log
    /// records are durable, so a crash rolls back precisely the commits
    /// still inside their persist window at the crash instant. Entries
    /// already durable by the instant — and entries appended *after* it,
    /// which belong to post-crash transactions the scheme reports
    /// `Committed` — are covered.
    PersistWindow(u64),
}

impl ReplayBound {
    /// Whether a `TxnWrites` entry at `(ts, lsn)`, appended at
    /// `appended_at_us` into a log with persist delay `persist_delay_us`,
    /// falls under this bound.
    #[inline]
    pub fn covers(&self, ts: Ts, lsn: u64, appended_at_us: u64, persist_delay_us: u64) -> bool {
        match self {
            ReplayBound::Ts(bound) => ts < *bound,
            ReplayBound::Lsn(bound) => lsn < *bound,
            ReplayBound::PersistWindow(instant) => {
                appended_at_us + persist_delay_us <= *instant || appended_at_us > *instant
            }
        }
    }
}

/// The write-ahead log of one partition — or, under replication, of **one
/// replica** of one partition (see [`crate::ReplicatedLog`]).
#[derive(Debug)]
pub struct PartitionWal {
    partition: PartitionId,
    persist_delay_us: u64,
    /// The delay after which an appended record counts as *acknowledged*
    /// for [`ReplayBound::PersistWindow`] coverage. Equals
    /// `persist_delay_us` for a standalone single-copy log; a replicated
    /// log sets it to the quorum-ack delay on every replica, so window
    /// checks agree with when the scheme actually acknowledged the commit.
    ack_delay_us: u64,
    inner: Mutex<WalInner>,
}

impl PartitionWal {
    pub fn new(partition: PartitionId, persist_delay_us: u64) -> Self {
        Self::with_ack_delay(partition, persist_delay_us, persist_delay_us)
    }

    /// A replica whose local persist delay and acknowledgement horizon
    /// differ (quorum replication: records are acknowledged at the quorum
    /// delay, not this replica's own).
    pub fn with_ack_delay(
        partition: PartitionId,
        persist_delay_us: u64,
        ack_delay_us: u64,
    ) -> Self {
        PartitionWal {
            partition,
            persist_delay_us,
            ack_delay_us,
            inner: Mutex::new(WalInner::default()),
        }
    }

    pub fn partition(&self) -> PartitionId {
        self.partition
    }

    /// Simulated persist delay of this log copy.
    pub fn persist_delay_us(&self) -> u64 {
        self.persist_delay_us
    }

    /// Append a record; returns its LSN. Appending never blocks on I/O —
    /// persistence happens in the background (that is the whole point of
    /// taking durability off the critical path).
    pub fn append(&self, payload: LogPayload) -> u64 {
        self.append_in_term(0, Arc::new(payload))
    }

    /// [`PartitionWal::append`] stamped with a leadership term. Takes the
    /// payload behind an `Arc` so a fan-out can append the same allocation
    /// to every replica instead of deep-cloning the write-set per copy.
    pub fn append_in_term(&self, term: u64, payload: Arc<LogPayload>) -> u64 {
        let mut inner = self.folded();
        let lsn = inner.next_lsn;
        inner.next_lsn += 1;
        inner.entries.push(LogEntry {
            lsn,
            appended_at_us: now_us(),
            term,
            payload,
        });
        lsn
    }

    /// Receive one replication segment: O(1) — the segment `Arc` is shared
    /// by every replica of the partition, and the per-entry copy into this
    /// replica's own storage is deferred to the first read that needs it.
    /// The entries keep the LSN, append timestamp and term the sequencer
    /// stamped, so the folded copy is byte-identical to every peer's and
    /// durability timing is independent of when the replication pump ran.
    /// The segment must continue this replica's log; the replicated log's
    /// sequencer upholds that by serializing sequencing, draining and every
    /// replica-set mutation.
    pub fn receive_segment(&self, segment: Arc<[LogEntry]>) {
        let Some(last) = segment.last() else { return };
        let mut inner = self.inner.lock();
        debug_assert_eq!(
            segment[0].lsn, inner.next_lsn,
            "replication segment must continue the replica's log"
        );
        inner.next_lsn = last.lsn + 1;
        inner.pending.push(segment);
    }

    /// Lock the log and fold any pending replication segments first — every
    /// path that reads or rewrites `entries` goes through here, so readers
    /// always observe the fully delivered log.
    fn folded(&self) -> parking_lot::MutexGuard<'_, WalInner> {
        let mut inner = self.inner.lock();
        inner.fold_pending();
        inner
    }

    /// The LSN the next append will receive.
    pub fn end_lsn(&self) -> u64 {
        self.inner.lock().next_lsn
    }

    /// Number of entries in the durable prefix at `now`: `appended_at_us` is
    /// monotone per log (appends are serialized under the log lock and stamp
    /// a monotonic clock), so the durable boundary is found by binary search
    /// instead of a reverse scan over the whole log.
    #[inline]
    fn durable_prefix_len(entries: &[LogEntry], persist_delay_us: u64, now: u64) -> usize {
        entries.partition_point(|e| e.appended_at_us + persist_delay_us <= now)
    }

    /// Highest LSN that is durable "now" (append time + persist delay has
    /// elapsed). Returns `None` if nothing is durable yet.
    pub fn durable_lsn(&self) -> Option<u64> {
        let now = now_us();
        let inner = self.folded();
        let durable = Self::durable_prefix_len(&inner.entries, self.persist_delay_us, now);
        inner.entries[..durable].last().map(|e| e.lsn)
    }

    /// Whether a specific LSN is durable.
    pub fn is_durable(&self, lsn: u64) -> bool {
        self.durable_lsn().map(|d| d >= lsn).unwrap_or(false)
    }

    /// A read-only [`LogView`] of this copy's entries with LSN at or below
    /// `through` (no entries for `None`). The bound is the caller's
    /// durability horizon — [`crate::ReplicatedLog::durable_view`] passes
    /// the quorum-acked LSN, `full_view` passes `u64::MAX` — so this copy's
    /// own persist delay filters nothing: a leader whose disk is slower
    /// than the quorum still serves everything the quorum acknowledged.
    pub fn view(&self, through: Option<u64>) -> LogView<'_> {
        let inner = self.folded();
        let len = through.map_or(0, |last| inner.entries.partition_point(|e| e.lsn <= last));
        LogView {
            inner,
            len,
            ack_delay_us: self.ack_delay_us,
        }
    }

    /// Recovery-time log repair: remove every `TxnWrites` entry at or after
    /// `from_lsn` that replay did **not** apply — entries past the
    /// crash-time durable LSN (the lost volatile tail), durable entries
    /// above the rollback bound (transactions reported `CrashAborted`), and
    /// entries of `cancelled` transactions (compensated after an earlier
    /// crash of *another* partition). Without this, a later checkpoint fold
    /// — whose bound keeps advancing after recovery — would resurrect
    /// rolled-back transactions. The replicated log computes `cancelled`
    /// once, from the replay's own view, and applies it to every replica,
    /// so replicas with different persist delays cannot diverge on which
    /// entries the purge drops. Returns the number of entries removed.
    pub(crate) fn retain_replayable(
        &self,
        from_lsn: u64,
        bound: &ReplayBound,
        cutoff_lsn: Option<u64>,
        cancelled: &HashSet<TxnId>,
    ) -> usize {
        let mut inner = self.folded();
        let before = inner.entries.len();
        let delay = self.ack_delay_us;
        inner.entries.retain(|e| {
            if e.lsn < from_lsn {
                return true;
            }
            match e.payload.as_ref() {
                LogPayload::TxnWrites { txn, ts, .. } => {
                    cutoff_lsn.is_some_and(|cut| e.lsn <= cut)
                        && bound.covers(*ts, e.lsn, e.appended_at_us, delay)
                        && !cancelled.contains(txn)
                }
                _ => true,
            }
        });
        before - inner.entries.len()
    }

    /// Number of entries appended so far.
    pub fn len(&self) -> usize {
        self.folded().entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Discard this log copy's entries (a lost disk). The LSN counter is
    /// preserved so the replica can keep receiving new appends aligned with
    /// its peers; the history itself is gone until a repair pass copies it
    /// back from the leader.
    pub(crate) fn wipe_log(&self) -> usize {
        let mut inner = self.inner.lock();
        let dropped = inner.entries.len() + inner.pending.iter().map(|s| s.len()).sum::<usize>();
        inner.entries.clear();
        // Pending segments are received-but-unfolded disk contents: the disk
        // is gone, so they go with it (never resurrected by a later fold).
        inner.pending.clear();
        dropped
    }

    /// Replace this replica's entries wholesale with an authoritative copy
    /// (repair after a wipe: the elected leader's log is the authority; see
    /// [`crate::ReplicatedLog::repair_replicas`]). Entries keep their
    /// original LSNs and append times, so durability checks still reflect
    /// when the record was originally written.
    pub(crate) fn replace_entries(&self, entries: Vec<LogEntry>, next_lsn: u64) {
        let mut inner = self.inner.lock();
        inner.entries = entries;
        // The authoritative copy supersedes anything still unfolded.
        inner.pending.clear();
        inner.next_lsn = next_lsn.max(inner.next_lsn);
    }

    /// Truncate the log up to (and excluding) `lsn` after a checkpoint.
    /// Returns the number of entries removed.
    pub fn truncate_before(&self, lsn: u64) -> usize {
        let mut inner = self.folded();
        let before = inner.entries.len();
        inner.entries.retain(|e| e.lsn >= lsn);
        before - inner.entries.len()
    }
}

/// The one read surface of a log copy: the entries at or below a horizon,
/// read under the copy's lock. [`crate::ReplicatedLog::durable_view`]
/// exposes the quorum-durable prefix (recovery, the checkpoint fold, verdict
/// lookups); [`crate::ReplicatedLog::full_view`] exposes everything,
/// durable or not (survivor-side compensation, the checkpoint writer's base
/// image). One-off queries are closures over [`LogView::entries`] /
/// [`LogView::rfind_map`]. The folds that must agree with each other —
/// replay, the checkpoint fold and survivor compensation — select through
/// [`LogView::write_sets`], and they and [`LogView::fold_stop`] derive
/// cancellation from the same [`LogView::rolled_back`] set.
///
/// A view holds the log copy's lock for as long as it lives: drop it before
/// appending to or mutating the log, and never hold two views of one log
/// at once.
pub struct LogView<'a> {
    inner: MutexGuard<'a, WalInner>,
    /// Length of the exposed prefix of `inner.entries`.
    len: usize,
    /// The copy's acknowledgement delay, for [`ReplayBound::PersistWindow`]
    /// coverage.
    ack_delay_us: u64,
}

impl LogView<'_> {
    /// The exposed entries, in LSN order.
    pub fn entries(&self) -> &[LogEntry] {
        &self.inner.entries[..self.len]
    }

    /// The first `Some` that `f` returns walking from the newest entry back
    /// — the shape of every "latest X" lookup.
    pub fn rfind_map<T>(&self, f: impl FnMut(&LogEntry) -> Option<T>) -> Option<T> {
        self.entries().iter().rev().find_map(f)
    }

    /// The transactions cancelled by a [`LogPayload::TxnRolledBack`] marker
    /// in this view. A marker outside the view (past the durability horizon)
    /// cancels nothing, exactly like a lost write-set.
    pub fn rolled_back(&self) -> HashSet<TxnId> {
        self.entries()
            .iter()
            .filter_map(|e| match *e.payload {
                LogPayload::TxnRolledBack { txn } => Some(txn),
                _ => None,
            })
            .collect()
    }

    /// Whether `bound` covers the write-set `entry` logged at commit
    /// timestamp `ts`.
    pub fn covers(&self, bound: &ReplayBound, ts: Ts, entry: &LogEntry) -> bool {
        bound.covers(ts, entry.lsn, entry.appended_at_us, self.ack_delay_us)
    }

    /// The write-sets with LSN in `lsns` that `keep` selects and no marker
    /// in this view cancels — **commit-timestamp-sorted** (ties broken by
    /// LSN) and **deduplicated by transaction** (the highest-LSN entry
    /// wins), so applying the result left to right with last-writer-wins
    /// semantics is deterministic and applying it twice equals applying it
    /// once.
    pub fn write_sets(
        &self,
        lsns: impl RangeBounds<u64>,
        mut keep: impl FnMut(TxnId, Ts, &LogEntry) -> bool,
    ) -> Vec<ReplayedTxn> {
        let cancelled = self.rolled_back();
        let mut picked: Vec<(Ts, u64, TxnId, &Vec<LoggedWrite>)> = self
            .entries()
            .iter()
            .filter(|e| lsns.contains(&e.lsn))
            .filter_map(|e| match e.payload.as_ref() {
                LogPayload::TxnWrites { txn, ts, writes }
                    if !cancelled.contains(txn) && keep(*txn, *ts, e) =>
                {
                    Some((*ts, e.lsn, *txn, writes))
                }
                _ => None,
            })
            .collect();
        picked.sort_by_key(|(ts, lsn, _, _)| (*ts, *lsn));
        let mut out: Vec<ReplayedTxn> = Vec::with_capacity(picked.len());
        let mut seen: HashMap<TxnId, usize> = HashMap::new();
        for (ts, _, txn, writes) in picked {
            let replayed = (txn, ts, writes.clone());
            match seen.entry(txn) {
                Entry::Occupied(slot) => out[*slot.get()] = replayed,
                Entry::Vacant(slot) => {
                    slot.insert(out.len());
                    out.push(replayed);
                }
            }
        }
        out
    }

    /// Replay: the write-sets in `lsns` that `bound` covers, sorted and
    /// deduplicated like [`LogView::write_sets`]. Everything the bound does
    /// not cover is rolled back (simply not replayed), and so is every
    /// transaction a marker in this view cancels, whatever the bound says —
    /// the bound keeps advancing after a crash, the rollback decision does
    /// not.
    pub fn replay(&self, lsns: impl RangeBounds<u64>, bound: &ReplayBound) -> Vec<ReplayedTxn> {
        self.write_sets(lsns, |_, ts, e| self.covers(bound, ts, e))
    }

    /// The first LSN at or after `from_lsn` that a checkpoint fold may
    /// **not** absorb: the first write-set `bound` does not cover and no
    /// marker in this view cancels, or one past the last entry examined.
    /// Control entries and cancelled write-sets are folded past. A
    /// cancelled write-set stays out of the image only because the fold
    /// selects `from_lsn..stop` through [`LogView::write_sets`] on **this
    /// same view**, which applies the same markers. A selection that
    /// counted fewer markers would bake it in, and truncation would then
    /// drop the very entry its marker cancels. A metadata-only scan: no
    /// entry is cloned.
    pub fn fold_stop(&self, from_lsn: u64, bound: &ReplayBound) -> u64 {
        let cancelled = self.rolled_back();
        let mut stop = from_lsn;
        for e in self.entries().iter().filter(|e| e.lsn >= from_lsn) {
            if let LogPayload::TxnWrites { txn, ts, .. } = e.payload.as_ref() {
                if !cancelled.contains(txn) && !self.covers(bound, *ts, e) {
                    break;
                }
            }
            stop = e.lsn + 1;
        }
        stop
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn txn(seq: u64) -> TxnId {
        TxnId::new(PartitionId(0), seq)
    }

    fn writes(k: Key) -> Vec<LoggedWrite> {
        vec![LoggedWrite::put(TableId(0), k, Value::from_u64(k))]
    }

    /// This copy's own durable prefix (what an RF-1 quorum view exposes).
    fn durable(wal: &PartitionWal) -> LogView<'_> {
        wal.view(wal.durable_lsn())
    }

    fn full(wal: &PartitionWal) -> LogView<'_> {
        wal.view(Some(u64::MAX))
    }

    fn watermark(view: &LogView<'_>) -> Option<Ts> {
        view.rfind_map(|e| match *e.payload {
            LogPayload::Watermark { wp } => Some(wp),
            _ => None,
        })
    }

    fn checkpoint(view: &LogView<'_>) -> Option<Arc<CheckpointImage>> {
        view.rfind_map(|e| match e.payload.as_ref() {
            LogPayload::Checkpoint { image } => Some(Arc::clone(image)),
            _ => None,
        })
    }

    fn decision(view: &LogView<'_>, txn: TxnId) -> Option<bool> {
        view.rfind_map(|e| match *e.payload {
            LogPayload::CommitDecision { txn: t, commit } if t == txn => Some(commit),
            _ => None,
        })
    }

    #[test]
    fn append_assigns_increasing_lsns() {
        let wal = PartitionWal::new(PartitionId(0), 0);
        let a = wal.append(LogPayload::Watermark { wp: 1 });
        let b = wal.append(LogPayload::Watermark { wp: 2 });
        assert!(b > a);
        assert_eq!(wal.len(), 2);
        assert_eq!(wal.end_lsn(), 2);
    }

    #[test]
    fn durability_respects_persist_delay() {
        let wal = PartitionWal::new(PartitionId(0), 20_000); // 20 ms
        let lsn = wal.append(LogPayload::Watermark { wp: 5 });
        assert!(!wal.is_durable(lsn));
        assert!(watermark(&durable(&wal)).is_none());
        std::thread::sleep(Duration::from_millis(30));
        assert!(wal.is_durable(lsn));
        assert_eq!(watermark(&durable(&wal)), Some(5));
        assert_eq!(wal.persist_delay_us(), 20_000);
    }

    #[test]
    fn replay_excludes_rolled_back_txns() {
        let wal = PartitionWal::new(PartitionId(0), 0);
        for (seq, ts) in [(1, 5u64), (2, 9), (3, 15)] {
            wal.append(LogPayload::TxnWrites {
                txn: txn(seq),
                ts,
                writes: writes(seq),
            });
        }
        std::thread::sleep(Duration::from_millis(1));
        let replayed = durable(&wal).replay(.., &ReplayBound::Ts(10));
        assert_eq!(replayed.len(), 2);
        assert!(replayed.iter().all(|(_, ts, _)| *ts < 10));
    }

    #[test]
    fn replay_is_ts_sorted_and_deduplicated() {
        let wal = PartitionWal::new(PartitionId(0), 0);
        // Out-of-ts-order appends (two workers interleaving) plus a duplicate
        // entry for txn 1.
        wal.append(LogPayload::TxnWrites {
            txn: txn(2),
            ts: 9,
            writes: writes(2),
        });
        wal.append(LogPayload::TxnWrites {
            txn: txn(1),
            ts: 5,
            writes: writes(1),
        });
        wal.append(LogPayload::TxnWrites {
            txn: txn(1),
            ts: 5,
            writes: writes(7),
        });
        std::thread::sleep(Duration::from_millis(1));
        let replayed = durable(&wal).replay(.., &ReplayBound::Ts(100));
        assert_eq!(replayed.len(), 2, "duplicate txn entries are merged");
        assert_eq!(replayed[0].1, 5);
        assert_eq!(replayed[1].1, 9);
        // The duplicate with the higher LSN wins.
        assert_eq!(replayed[0].2[0].key, 7);
    }

    #[test]
    fn replay_respects_the_view_horizon_and_base() {
        let wal = PartitionWal::new(PartitionId(0), 0);
        for seq in 0..6u64 {
            wal.append(LogPayload::TxnWrites {
                txn: txn(seq),
                ts: seq + 1,
                writes: writes(seq),
            });
        }
        std::thread::sleep(Duration::from_millis(1));
        // Entries with lsn in [2, 4] only.
        let replayed = wal.view(Some(4)).replay(2.., &ReplayBound::Ts(u64::MAX));
        assert_eq!(replayed.len(), 3);
        assert!(replayed.iter().all(|(t, _, _)| (2..=4).contains(&t.seq)));
        // Lsn bound is exclusive.
        let replayed = durable(&wal).replay(.., &ReplayBound::Lsn(2));
        assert_eq!(replayed.len(), 2);
        // So is the upper end of a half-open LSN range.
        assert_eq!(full(&wal).replay(1..3, &ReplayBound::Ts(u64::MAX)).len(), 2);
        // A view through nothing exposes nothing.
        assert!(wal.view(None).entries().is_empty());
    }

    #[test]
    fn truncate_drops_old_entries() {
        let wal = PartitionWal::new(PartitionId(1), 0);
        for i in 0..10u64 {
            wal.append(LogPayload::Watermark { wp: i });
        }
        assert_eq!(wal.truncate_before(5), 5);
        assert_eq!(wal.len(), 5);
        assert_eq!(wal.partition(), PartitionId(1));
    }

    #[test]
    fn latest_durable_watermark_takes_newest() {
        let wal = PartitionWal::new(PartitionId(0), 0);
        wal.append(LogPayload::Watermark { wp: 3 });
        wal.append(LogPayload::TxnWrites {
            txn: txn(1),
            ts: 4,
            writes: writes(1),
        });
        wal.append(LogPayload::Watermark { wp: 8 });
        std::thread::sleep(Duration::from_millis(1));
        assert_eq!(watermark(&durable(&wal)), Some(8));
    }

    #[test]
    fn checkpoint_image_apply_is_idempotent() {
        let mut image = CheckpointImage::default();
        let ws = vec![
            LoggedWrite::put(TableId(0), 1, Value::from_u64(10)),
            LoggedWrite::delete(TableId(0), 2).with_prev(Some(Value::from_u64(2))),
        ];
        image
            .records
            .insert((TableId(0), 2), (Value::from_u64(2), 1));
        image.apply(5, &ws);
        let once = image.clone();
        image.apply(5, &ws);
        assert_eq!(once.records.len(), image.records.len());
        assert_eq!(image.up_to_ts, 5);
        assert!(image.records.contains_key(&(TableId(0), 1)));
        assert!(!image.records.contains_key(&(TableId(0), 2)));
        assert_eq!(image.len(), 1);
        assert!(!image.is_empty());
    }

    #[test]
    fn latest_durable_checkpoint_respects_cutoff() {
        let wal = PartitionWal::new(PartitionId(0), 0);
        let old = Arc::new(CheckpointImage {
            up_to_ts: 1,
            base_lsn: 0,
            records: BTreeMap::new(),
        });
        let new = Arc::new(CheckpointImage {
            up_to_ts: 9,
            base_lsn: 1,
            records: BTreeMap::new(),
        });
        let old_lsn = wal.append(LogPayload::Checkpoint {
            image: Arc::clone(&old),
        });
        wal.append(LogPayload::Checkpoint {
            image: Arc::clone(&new),
        });
        std::thread::sleep(Duration::from_millis(1));
        assert_eq!(checkpoint(&durable(&wal)).unwrap().up_to_ts, 9);
        // A cutoff below the newer checkpoint falls back to the older image.
        assert_eq!(checkpoint(&wal.view(Some(old_lsn))).unwrap().up_to_ts, 1);
        assert_eq!(checkpoint(&full(&wal)).unwrap().up_to_ts, 9);
    }

    #[test]
    fn retain_replayable_purges_rolled_back_write_sets() {
        let wal = PartitionWal::new(PartitionId(0), 0);
        let a = wal.append(LogPayload::TxnWrites {
            txn: txn(1),
            ts: 5,
            writes: writes(1),
        });
        wal.append(LogPayload::Watermark { wp: 6 });
        let b = wal.append(LogPayload::TxnWrites {
            txn: txn(2),
            ts: 9, // above the rollback bound: reported CrashAborted
            writes: writes(2),
        });
        let c = wal.append(LogPayload::TxnWrites {
            txn: txn(3),
            ts: 5, // covered, but past the durable cutoff: volatile, lost
            writes: writes(3),
        });
        std::thread::sleep(Duration::from_millis(1));
        let cancelled = wal.view(Some(b)).rolled_back();
        let removed = wal.retain_replayable(0, &ReplayBound::Ts(8), Some(b), &cancelled);
        assert_eq!(removed, 2);
        let left = durable(&wal).replay(.., &ReplayBound::Ts(u64::MAX));
        assert_eq!(left.len(), 1);
        assert_eq!(left[0].0, txn(1));
        // Control entries survive the purge.
        assert_eq!(watermark(&durable(&wal)), Some(6));
        let _ = (a, c);
    }

    #[test]
    fn watermark_lookup_respects_the_crash_cutoff() {
        let wal = PartitionWal::new(PartitionId(0), 0);
        let early = wal.append(LogPayload::Watermark { wp: 3 });
        wal.append(LogPayload::Watermark { wp: 8 });
        std::thread::sleep(Duration::from_millis(1));
        assert_eq!(watermark(&durable(&wal)), Some(8));
        // A Wp appended after the crash-time durable LSN is never recovered.
        assert_eq!(watermark(&wal.view(Some(early))), Some(3));
    }

    #[test]
    fn fold_stop_stops_at_the_first_uncovered_write_set() {
        let wal = PartitionWal::new(PartitionId(0), 0);
        wal.append(LogPayload::TxnWrites {
            txn: txn(1),
            ts: 2,
            writes: writes(1),
        });
        wal.append(LogPayload::Watermark { wp: 3 });
        let uncovered = wal.append(LogPayload::TxnWrites {
            txn: txn(2),
            ts: 50,
            writes: writes(2),
        });
        wal.append(LogPayload::Watermark { wp: 60 });
        std::thread::sleep(Duration::from_millis(1));
        // Stops at the first uncovered TxnWrites, folding past control
        // entries before it.
        assert_eq!(durable(&wal).fold_stop(0, &ReplayBound::Ts(10)), uncovered);
        let end = wal.end_lsn();
        assert_eq!(durable(&wal).fold_stop(0, &ReplayBound::Ts(100)), end);
        // The fold never reaches past the view's horizon.
        assert_eq!(wal.view(Some(0)).fold_stop(0, &ReplayBound::Ts(100)), 1);
    }

    #[test]
    fn rollback_markers_cancel_entries_everywhere() {
        let wal = PartitionWal::new(PartitionId(0), 0);
        wal.append(LogPayload::TxnWrites {
            txn: txn(1),
            ts: 5,
            writes: writes(1),
        });
        wal.append(LogPayload::TxnWrites {
            txn: txn(2),
            ts: 6,
            writes: writes(2),
        });
        wal.append(LogPayload::TxnRolledBack { txn: txn(2) });
        std::thread::sleep(Duration::from_millis(1));
        // Replay skips the cancelled transaction whatever the bound says.
        let replayed = durable(&wal).replay(.., &ReplayBound::Ts(u64::MAX));
        assert_eq!(replayed.len(), 1);
        assert_eq!(replayed[0].0, txn(1));
        // The fold scan advances past the cancelled entry instead of
        // stopping on it, even under a bound that does not cover it.
        let end = wal.end_lsn();
        assert_eq!(durable(&wal).fold_stop(0, &ReplayBound::Ts(6)), end);
        // A view that ends before the marker does not see the cancellation.
        assert_eq!(
            wal.view(Some(1))
                .replay(.., &ReplayBound::Ts(u64::MAX))
                .len(),
            2
        );
        // Log repair drops the cancelled entry but keeps the marker.
        let cancelled = durable(&wal).rolled_back();
        let removed = wal.retain_replayable(0, &ReplayBound::Ts(u64::MAX), Some(end), &cancelled);
        assert_eq!(removed, 1);
        assert!(full(&wal).rolled_back().contains(&txn(2)));
    }

    #[test]
    fn commit_votes_survive_log_repair() {
        let wal = PartitionWal::new(PartitionId(0), 0);
        wal.append(LogPayload::CommitVote {
            txn: txn(1),
            coordinator: PartitionId(0),
            commit: true,
        });
        wal.append(LogPayload::CommitDecision {
            txn: txn(1),
            commit: false,
        });
        std::thread::sleep(Duration::from_millis(1));
        // Votes and decisions are control entries: the recovery-time purge
        // never drops them, whatever the bound.
        let removed =
            wal.retain_replayable(0, &ReplayBound::Ts(0), Some(wal.end_lsn()), &HashSet::new());
        assert_eq!(removed, 0);
        assert_eq!(decision(&durable(&wal), txn(1)), Some(false));
    }
}
