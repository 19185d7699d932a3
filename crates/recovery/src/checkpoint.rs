//! The per-partition checkpoint writer.
//!
//! A checkpoint is a consistent image of the partition's committed state at
//! a chosen bound, *derived from the log*, not from the live store: each
//! image is the previous image plus the contiguous durable log prefix the
//! group-commit scheme vouches for
//! ([`GroupCommit::checkpoint_bound`]).
//! That construction is immune to the races a live-store scan would have —
//! a record overwritten by a not-yet-durable transaction never leaks into
//! an image, because the image only ever sees logged, covered writes.
//!
//! The one exception is the **base checkpoint** taken right after workload
//! loading ([`Checkpointer::initial`]): loaders write straight into the
//! store without logging, so the base image is a quiescent store scan.
//! Without it a wiped partition could never get its loaded records back.

use primo_common::{PartitionId, Ts};
use primo_storage::PartitionStore;
use primo_wal::{CheckpointImage, GroupCommit, LogPayload, ReplayBound, ReplicatedLog};
use std::sync::Arc;

/// What one checkpoint pass did (for logs, metrics and tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointStats {
    pub partition: PartitionId,
    /// Committed transactions folded into the image by this pass.
    pub folded_txns: usize,
    /// Records in the resulting image.
    pub image_records: usize,
    /// Log entries dropped by truncation (entries covered by the newest
    /// *durable* checkpoint).
    pub truncated_entries: usize,
    /// The image's coverage bound.
    pub up_to_ts: Ts,
}

/// Stateless checkpoint driver: all state lives in the log itself.
pub struct Checkpointer;

impl Checkpointer {
    /// Base checkpoint from a quiescent store scan (call after loading,
    /// before workers start). The image's `base_lsn` is the current log
    /// end, so everything already logged is considered covered.
    pub fn initial(store: &PartitionStore, wal: &ReplicatedLog) -> CheckpointStats {
        let mut image = CheckpointImage {
            up_to_ts: 0,
            base_lsn: wal.end_lsn(),
            ..Default::default()
        };
        for (table, key, value, ts) in store.snapshot_visible() {
            image.records.insert((table, key), (value, ts));
            image.up_to_ts = image.up_to_ts.max(ts);
        }
        let stats = CheckpointStats {
            partition: store.partition(),
            folded_txns: 0,
            image_records: image.len(),
            truncated_entries: 0,
            up_to_ts: image.up_to_ts,
        };
        wal.append(LogPayload::Checkpoint {
            image: Arc::new(image),
        });
        stats
    }

    /// One periodic checkpoint pass: fold the durable covered prefix since
    /// the latest image into a new image, append it, and truncate whatever
    /// the newest **durable** checkpoint covers. Returns `None` when no base
    /// image exists yet (call [`Checkpointer::initial`] first) — folding
    /// from the live store mid-run would not be consistent.
    pub fn tick(
        partition: PartitionId,
        wal: &ReplicatedLog,
        gc: &dyn GroupCommit,
    ) -> Option<CheckpointStats> {
        // Every marker in the log counts, durable or not: the image only
        // becomes authoritative (truncation drops what it covers) once its
        // own checkpoint entry, appended after all of them, is durable.
        let (prev, marked) = {
            let full = wal.full_view();
            let prev = full.rfind_map(|e| match e.payload.as_ref() {
                LogPayload::Checkpoint { image } => Some(Arc::clone(image)),
                _ => None,
            })?;
            (prev, full.rolled_back())
        };
        let bound = gc.checkpoint_bound(partition, wal);
        // Fold the quorum-durable covered prefix. The stop LSN walks past
        // write-sets cancelled inside the view; the fold skips those and
        // every write-set whose marker is still on its way to the quorum,
        // so a rolled-back write-set never reaches the image.
        let (new_base, folded) = {
            let view = wal.durable_view(None);
            let stop = view.fold_stop(prev.base_lsn, &bound);
            let folded = view.write_sets(prev.base_lsn..stop, |txn, ts, e| {
                !marked.contains(&txn) && view.covers(&bound, ts, e)
            });
            (stop, folded)
        };
        let mut image = CheckpointImage {
            up_to_ts: prev.up_to_ts,
            base_lsn: new_base,
            records: prev.records.clone(),
        };
        for (_, ts, writes) in &folded {
            image.apply(*ts, writes);
        }
        if let ReplayBound::Ts(b) = bound {
            // The image provably covers everything below the ts bound, even
            // if the folded prefix happened to stop earlier.
            image.up_to_ts = image.up_to_ts.max(b.saturating_sub(1));
        }
        let stats = CheckpointStats {
            partition,
            folded_txns: folded.len(),
            image_records: image.len(),
            truncated_entries: 0,
            up_to_ts: image.up_to_ts,
        };
        wal.append(LogPayload::Checkpoint {
            image: Arc::new(image),
        });
        // Truncate only what the newest *durable* checkpoint covers: the
        // image appended above is still within its persist delay, and a
        // crash right now must be able to fall back to the previous durable
        // image plus the retained log.
        let truncated = wal.truncate_to_durable_checkpoint();
        Some(CheckpointStats {
            truncated_entries: truncated,
            ..stats
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use primo_common::{TableId, TxnId, Value};
    use primo_wal::LoggedWrite;

    struct FixedBound(ReplayBound);

    impl GroupCommit for FixedBound {
        fn begin_txn(&self, coord: PartitionId, txn: TxnId) -> Arc<primo_wal::TxnTicket> {
            primo_wal::TxnTicket::new(txn, coord, 0)
        }
        fn add_participant(&self, _t: &primo_wal::TxnTicket, _p: PartitionId, _lts: Ts) {}
        fn txn_aborted(&self, _t: &primo_wal::TxnTicket) {}
        fn txn_committed(
            &self,
            ticket: &primo_wal::TxnTicket,
            ts: Ts,
            _ops: usize,
        ) -> primo_wal::CommitWaiter {
            primo_wal::CommitWaiter {
                txn: ticket.txn,
                coordinator: ticket.coordinator,
                ts,
                epoch: 0,
                ready_at_us: None,
            }
        }
        fn wait_durable(&self, _w: &primo_wal::CommitWaiter) -> primo_wal::CommitOutcome {
            primo_wal::CommitOutcome::Committed
        }
        fn try_outcome(&self, _w: &primo_wal::CommitWaiter) -> Option<primo_wal::CommitOutcome> {
            Some(primo_wal::CommitOutcome::Committed)
        }
        fn on_partition_crash(&self, _p: PartitionId) -> Ts {
            0
        }
        fn checkpoint_bound(&self, _p: PartitionId, _log: &ReplicatedLog) -> ReplayBound {
            self.0
        }
        fn label(&self) -> &'static str {
            "fixed"
        }
        fn shutdown(&self) {}
    }

    fn put(key: u64, v: u64) -> Vec<LoggedWrite> {
        vec![LoggedWrite::put(TableId(0), key, Value::from_u64(v))]
    }

    fn latest_image(wal: &ReplicatedLog) -> Arc<CheckpointImage> {
        wal.full_view()
            .rfind_map(|e| match e.payload.as_ref() {
                LogPayload::Checkpoint { image } => Some(Arc::clone(image)),
                _ => None,
            })
            .expect("a checkpoint exists")
    }

    #[test]
    fn initial_checkpoint_captures_only_visible_records() {
        let store = PartitionStore::new(PartitionId(0));
        store.insert(TableId(0), 1, Value::from_u64(1));
        store
            .insert(TableId(0), 2, Value::from_u64(2))
            .install_tombstone(5);
        let wal = ReplicatedLog::single(PartitionId(0), 0);
        let stats = Checkpointer::initial(&store, &wal);
        assert_eq!(stats.image_records, 1);
        let image = latest_image(&wal);
        assert!(image.records.contains_key(&(TableId(0), 1)));
        assert!(!image.records.contains_key(&(TableId(0), 2)));
    }

    #[test]
    fn tick_folds_covered_prefix_and_truncates_durably() {
        let store = PartitionStore::new(PartitionId(0));
        store.insert(TableId(0), 1, Value::from_u64(1));
        let wal = ReplicatedLog::single(PartitionId(0), 0);
        Checkpointer::initial(&store, &wal);
        for (seq, ts) in [(1u64, 5u64), (2, 8), (3, 50)] {
            wal.append(LogPayload::TxnWrites {
                txn: TxnId::new(PartitionId(0), seq),
                ts,
                writes: put(100 + seq, ts),
            });
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
        // Bound covers ts < 10: two of the three entries fold.
        let gc = FixedBound(ReplayBound::Ts(10));
        let stats = Checkpointer::tick(PartitionId(0), &wal, &gc).expect("base image exists");
        assert_eq!(stats.folded_txns, 2);
        assert_eq!(stats.image_records, 3);
        assert!(stats.truncated_entries > 0, "durable checkpoint truncates");
        let image = latest_image(&wal);
        assert!(image.records.contains_key(&(TableId(0), 101)));
        assert!(image.records.contains_key(&(TableId(0), 102)));
        assert!(
            !image.records.contains_key(&(TableId(0), 103)),
            "uncovered entry must stay in the log, not the image"
        );
        // The uncovered entry is still replayable from the image's base.
        let rest = wal
            .durable_view(None)
            .replay(image.base_lsn.., &ReplayBound::Ts(u64::MAX));
        assert_eq!(rest.len(), 1);
        assert_eq!(rest[0].1, 50);
    }

    #[test]
    fn tick_without_base_image_is_a_no_op() {
        let wal = ReplicatedLog::single(PartitionId(0), 0);
        let gc = FixedBound(ReplayBound::Ts(10));
        assert!(Checkpointer::tick(PartitionId(0), &wal, &gc).is_none());
    }

    #[test]
    fn fold_stops_at_non_durable_entries() {
        let store = PartitionStore::new(PartitionId(0));
        let wal = ReplicatedLog::single(PartitionId(0), 50_000); // 50 ms persist
        Checkpointer::initial(&store, &wal);
        wal.append(LogPayload::TxnWrites {
            txn: TxnId::new(PartitionId(0), 1),
            ts: 1,
            writes: put(1, 1),
        });
        let gc = FixedBound(ReplayBound::Ts(u64::MAX));
        let stats = Checkpointer::tick(PartitionId(0), &wal, &gc).unwrap();
        assert_eq!(stats.folded_txns, 0, "volatile entries never fold");
    }

    #[test]
    fn fold_never_resurrects_a_compensated_write_set() {
        // E (ts 5) is covered by the bound but was compensated on this
        // partition after a crash elsewhere: its marker sits *behind* the
        // uncovered F (ts 50) where the fold stops. The fold walks past E
        // as cancelled, so the replay that builds the image must count the
        // same marker — otherwise E lands in the image, truncation drops E
        // (its marker survives, cancelling nothing) and a later crash
        // restores the rolled-back write.
        let store = PartitionStore::new(PartitionId(0));
        let wal = ReplicatedLog::single(PartitionId(0), 0);
        Checkpointer::initial(&store, &wal);
        let e = TxnId::new(PartitionId(0), 1);
        wal.append(LogPayload::TxnWrites {
            txn: e,
            ts: 5,
            writes: put(101, 5),
        });
        wal.append(LogPayload::TxnWrites {
            txn: TxnId::new(PartitionId(0), 2),
            ts: 50,
            writes: put(102, 50),
        });
        wal.append(LogPayload::TxnRolledBack { txn: e });
        std::thread::sleep(std::time::Duration::from_millis(1));
        let gc = FixedBound(ReplayBound::Ts(10));
        let stats = Checkpointer::tick(PartitionId(0), &wal, &gc).expect("base image exists");
        assert_eq!(
            stats.folded_txns, 0,
            "the compensated write-set is not folded"
        );
        let image = latest_image(&wal);
        assert!(
            !image.records.contains_key(&(TableId(0), 101)),
            "a compensated write-set must never reach the image"
        );
        // Whatever truncation kept, replaying from the image's base
        // reproduces F and never E.
        let rest = wal
            .durable_view(None)
            .replay(image.base_lsn.., &ReplayBound::Ts(u64::MAX));
        assert_eq!(rest.len(), 1);
        assert_eq!(rest[0].1, 50);
    }

    #[test]
    fn tick_through_a_slow_leader_folds_the_quorum_acked_write_set() {
        // The leader's own disk takes 500 ms; the two remotes acknowledge in
        // 50 us. The fold reads the quorum horizon like every other durable
        // read, not the leader's local persist delay.
        let wal = ReplicatedLog::new(
            PartitionId(0),
            primo_common::config::WalConfig {
                persist_delay_us: 500_000,
                replication_factor: 3,
                replica_persist_delay_us: Some(50),
                ..Default::default()
            },
            0,
            None,
        );
        let store = PartitionStore::new(PartitionId(0));
        Checkpointer::initial(&store, &wal);
        wal.append(LogPayload::TxnWrites {
            txn: TxnId::new(PartitionId(0), 1),
            ts: 5,
            writes: put(101, 5),
        });
        std::thread::sleep(std::time::Duration::from_millis(2));
        let gc = FixedBound(ReplayBound::Ts(10));
        let stats = Checkpointer::tick(PartitionId(0), &wal, &gc).expect("base image exists");
        assert_eq!(stats.folded_txns, 1, "the quorum-acked write-set folds");
        assert!(latest_image(&wal).records.contains_key(&(TableId(0), 101)));
    }

    #[test]
    fn fold_skips_a_write_set_whose_marker_is_not_yet_durable() {
        // E is quorum-durable and covered; compensation's marker for it is
        // still inside its persist window when the checkpoint ticks. The
        // marker is outside the fold's quorum view, yet the image must not
        // take E: once that image is durable, truncation drops E while the
        // marker cancels nothing.
        let store = PartitionStore::new(PartitionId(0));
        let wal = ReplicatedLog::single(PartitionId(0), 30_000); // 30 ms persist
        Checkpointer::initial(&store, &wal);
        let e = TxnId::new(PartitionId(0), 1);
        wal.append(LogPayload::TxnWrites {
            txn: e,
            ts: 5,
            writes: put(101, 5),
        });
        std::thread::sleep(std::time::Duration::from_millis(40));
        wal.append(LogPayload::TxnRolledBack { txn: e });
        let gc = FixedBound(ReplayBound::Ts(10));
        let stats = Checkpointer::tick(PartitionId(0), &wal, &gc).expect("base image exists");
        assert_eq!(stats.folded_txns, 0, "the in-flight marker cancels E");
        assert!(!latest_image(&wal).records.contains_key(&(TableId(0), 101)));
        // Once everything is durable, the next tick folds on from the first
        // image and truncates E — still without it in any image.
        std::thread::sleep(std::time::Duration::from_millis(40));
        Checkpointer::tick(PartitionId(0), &wal, &gc).expect("base image exists");
        std::thread::sleep(std::time::Duration::from_millis(40));
        Checkpointer::tick(PartitionId(0), &wal, &gc).expect("base image exists");
        assert!(!latest_image(&wal).records.contains_key(&(TableId(0), 101)));
        assert!(
            wal.full_view()
                .replay(.., &ReplayBound::Ts(u64::MAX))
                .is_empty(),
            "E was truncated; nothing can bring it back"
        );
    }
}
