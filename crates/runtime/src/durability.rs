//! Write-ahead logging of committed write-sets.
//!
//! Every protocol's install path funnels through [`log_txn_writes`] right
//! before it installs: the write-set is grouped by partition and appended to
//! each involved partition's [`ReplicatedLog`](primo_wal::ReplicatedLog)
//! (which fans it out to every replica) as one [`LogPayload::TxnWrites`]
//! entry.
//!
//! Two invariants the recovery subsystem depends on:
//!
//! * **Log before results.** The append happens before the group commit is
//!   told `txn_committed`, so no scheme can cover a transaction with a
//!   watermark / epoch whose log entry does not exist yet (§5: write-sets
//!   are logged before results are returned).
//! * **Per-key log order = install order.** Callers append while still
//!   holding their exclusive write locks, and `ts` is the *finalized* commit
//!   timestamp
//!   ([`GroupCommit::finalize_commit_ts`](primo_wal::GroupCommit::finalize_commit_ts)),
//!   so replaying in commit-
//!   timestamp order reproduces exactly the installed per-key value
//!   sequence.

use crate::access::{WriteEntry, WriteKind};
use crate::cluster::Cluster;
use primo_common::{PartitionId, Ts, TxnId};
use primo_storage::LifecycleState;
use primo_trace::TraceEventKind;
use primo_wal::{LogPayload, LoggedOp, LoggedWrite};

/// The committed before-image of the record a write is about to install
/// into: `Some(value)` for a `Visible` record, `None` when the key has no
/// committed value — the slot is absent, a tombstone, or this transaction's
/// own uncommitted insert (created or revived ahead of the commit decision).
/// Must be called while the write locks are held, so the observed value is
/// exactly what compensation has to restore if a crash rolls the
/// transaction back on a surviving partition.
fn before_image(cluster: &Cluster, w: &WriteEntry, txn: TxnId) -> Option<primo_common::Value> {
    let record = cluster.partition(w.partition).store.get(w.table, w.key)?;
    match record.state() {
        LifecycleState::Visible => Some(record.read().value),
        LifecycleState::UncommittedInsert { owner } => {
            debug_assert_eq!(
                owner, txn,
                "foreign uncommitted insert under our write lock"
            );
            None
        }
        LifecycleState::Tombstone => None,
    }
}

/// Append one `TxnWrites` entry per involved partition for a transaction
/// committing at `ts`. Deletes are logged as [`LoggedOp::Delete`]; puts and
/// inserts both log the installed value (replay is create-if-absent either
/// way). Every write also captures its committed before-image — the
/// `Visible` value observed under the held write lock, or `None` when the
/// key has no committed value — so a crash-abort can be compensated on
/// surviving partitions.
///
/// The write-set is grouped by partition in a single pass (write-sets are
/// small, so group lookup is a short `Vec` scan, not a hash map), so a
/// cross-partition commit acquires each involved partition's log sequencer
/// **exactly once** — all of a partition's writes travel in one entry, and
/// the fan-out to follower replicas happens off this critical section in
/// the log's replication pump (see the append pipeline in
/// `primo_wal::replicated`).
pub fn log_txn_writes(cluster: &Cluster, txn: TxnId, ts: Ts, writes: &[WriteEntry]) {
    if writes.is_empty() {
        return;
    }
    let mut groups: Vec<(PartitionId, Vec<LoggedWrite>)> = Vec::new();
    for w in writes {
        let logged = LoggedWrite {
            table: w.table,
            key: w.key,
            op: match w.kind {
                WriteKind::Delete => LoggedOp::Delete,
                WriteKind::Put | WriteKind::Insert => LoggedOp::Put(w.value.clone()),
            },
            prev: before_image(cluster, w, txn),
        };
        match groups.iter_mut().find(|(p, _)| *p == w.partition) {
            Some((_, group)) => group.push(logged),
            None => groups.push((w.partition, vec![logged])),
        }
    }
    for (partition, logged) in groups {
        let log = &cluster.partition(partition).log;
        let lsn = log.append(LogPayload::TxnWrites {
            txn,
            ts,
            writes: logged,
        });
        cluster.recorder.emit(
            Some(txn),
            Some(partition),
            TraceEventKind::WalAppend {
                lsn,
                term: log.term(),
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use primo_common::config::ClusterConfig;
    use primo_common::{PartitionId, TableId, Value};
    use primo_wal::ReplayBound;

    #[test]
    fn write_sets_are_grouped_per_partition() {
        let cluster = Cluster::new(ClusterConfig::for_tests(2));
        let txn = cluster.next_txn_id(PartitionId(0));
        let writes = vec![
            WriteEntry::put(PartitionId(0), TableId(0), 1, Value::from_u64(1)),
            WriteEntry::delete(PartitionId(1), TableId(0), 2),
            WriteEntry::insert(PartitionId(0), TableId(1), 3, Value::from_u64(3)),
        ];
        let base0 = cluster.partition(PartitionId(0)).log.len();
        let base1 = cluster.partition(PartitionId(1)).log.len();
        log_txn_writes(&cluster, txn, 7, &writes);
        assert_eq!(cluster.partition(PartitionId(0)).log.len(), base0 + 1);
        assert_eq!(cluster.partition(PartitionId(1)).log.len(), base1 + 1);

        std::thread::sleep(std::time::Duration::from_millis(60));
        let replayed = cluster
            .partition(PartitionId(0))
            .log
            .durable_view(None)
            .replay(.., &ReplayBound::Ts(u64::MAX));
        let ours = replayed.iter().find(|(t, _, _)| *t == txn).unwrap();
        assert_eq!(ours.1, 7);
        assert_eq!(ours.2.len(), 2, "both P0 writes in one entry");
        let remote = cluster
            .partition(PartitionId(1))
            .log
            .durable_view(None)
            .replay(.., &ReplayBound::Ts(u64::MAX));
        let ours = remote.iter().find(|(t, _, _)| *t == txn).unwrap();
        assert!(matches!(ours.2[0].op, LoggedOp::Delete));
        cluster.shutdown();
    }

    #[test]
    fn before_images_capture_the_committed_value() {
        let cluster = Cluster::new(ClusterConfig::for_tests(1));
        let p = PartitionId(0);
        cluster
            .partition(p)
            .store
            .insert(TableId(0), 1, Value::from_u64(11));
        cluster
            .partition(p)
            .store
            .insert(TableId(0), 2, Value::from_u64(22));
        let txn = cluster.next_txn_id(p);
        let writes = vec![
            WriteEntry::put(p, TableId(0), 1, Value::from_u64(100)),
            WriteEntry::delete(p, TableId(0), 2),
            WriteEntry::insert(p, TableId(0), 3, Value::from_u64(33)),
        ];
        log_txn_writes(&cluster, txn, 5, &writes);
        std::thread::sleep(std::time::Duration::from_millis(60));
        let replayed = cluster
            .partition(p)
            .log
            .durable_view(None)
            .replay(.., &ReplayBound::Ts(u64::MAX));
        let ours = &replayed.iter().find(|(t, _, _)| *t == txn).unwrap().2;
        assert_eq!(
            ours[0].prev.as_ref().unwrap().as_u64(),
            11,
            "put records the old value"
        );
        assert_eq!(
            ours[1].prev.as_ref().unwrap().as_u64(),
            22,
            "delete records the deleted value"
        );
        assert!(
            ours[2].prev.is_none(),
            "insert of a fresh key has no before-image"
        );
        cluster.shutdown();
    }

    #[test]
    fn empty_write_sets_log_nothing() {
        let cluster = Cluster::new(ClusterConfig::for_tests(1));
        let txn = cluster.next_txn_id(PartitionId(0));
        let before = cluster.partition(PartitionId(0)).log.len();
        log_txn_writes(&cluster, txn, 1, &[]);
        assert_eq!(cluster.partition(PartitionId(0)).log.len(), before);
        cluster.shutdown();
    }
}
