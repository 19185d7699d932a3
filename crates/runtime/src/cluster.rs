//! Cluster assembly: one [`Partition`] per shared-nothing partition leader,
//! plus the simulated network, control bus and group-commit scheme shared by
//! all of them.

use crate::commit::{self, build_atomic_commit, AtomicCommit};
use crate::prefetch;
use parking_lot::Mutex;
use primo_common::config::ClusterConfig;
use primo_common::{ratio, PartitionId, Registry, Ts, TxnId};
use primo_net::{DelayedBus, SimNetwork};
use primo_recovery::{
    compensate_survivors, CheckpointStats, Checkpointer, CrashContext, RecoveryManager,
    RecoveryReport,
};
use primo_storage::PartitionStore;
use primo_trace::{FlightRecorder, TraceEventKind};
use primo_wal::{build_group_commit, GroupCommit, LogPayload, ReplicatedLog};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Cluster-level metrics: counters the cluster records itself and gauges it
/// refreshes from the logs and the network in [`Cluster::collect_metrics`].
pub mod metrics {
    primo_common::metrics! {
        /// Superseded record versions garbage-collected at checkpoints.
        PRUNED_VERSIONS: CounterDef("storage.pruned_versions", "versions");
        /// Crash-rolled-back transactions whose installed writes on
        /// *surviving* partitions were undone via before-image compensation.
        COMPENSATED_TXNS: CounterDef("recovery.compensated_txns", "txns");
        /// Deterministic log-leader hand-offs across all partitions (every
        /// crash moves leadership to the successor replica).
        LEADER_CHANGES: GaugeDef("wal.leader_changes", "hand-offs");
        /// The worst partition's append→quorum-ack delay; equals the local
        /// persist delay at replication factor 1.
        REPLICATION_LAG_US: GaugeDef("wal.replication_lag_us", "us");
        /// Total time committers spent blocked on a partition sequencer
        /// (stage 1 of the append pipeline); 0 when every append found the
        /// sequencer free.
        APPEND_WAIT_US: GaugeDef("wal.append_wait_us", "us");
        /// Mean log entries the replication pump shipped per drained batch
        /// (stage 2 of the append pipeline); 0 for single-copy logs.
        REPLICATION_BATCH_LEN: GaugeDef("wal.replication_batch_len", "entries");
        /// Messages sent on the simulated network.
        MESSAGES: GaugeDef("net.messages", "messages");
        /// Network round trips charged.
        ROUND_TRIPS: GaugeDef("net.round_trips", "round trips");
    }
}

/// One shared-nothing partition (leader).
#[derive(Debug)]
pub struct Partition {
    pub id: PartitionId,
    pub store: PartitionStore,
    /// The partition's replicated durable log: a quorum of replicas is the
    /// unit of durability, not any single copy.
    pub log: Arc<ReplicatedLog>,
    /// Local transaction counter for TID assignment (§4.1).
    next_seq: AtomicU64,
    /// Extra per-transaction execution delay, microseconds. Simulates a slow
    /// partition ("masked cores", Fig 13b).
    slowdown_us: AtomicU64,
}

impl Partition {
    fn new(id: PartitionId, log: Arc<ReplicatedLog>, max_versions: usize) -> Self {
        Partition {
            id,
            store: PartitionStore::with_max_versions(id, max_versions),
            log,
            next_seq: AtomicU64::new(1),
            slowdown_us: AtomicU64::new(0),
        }
    }

    /// Assign a globally unique TID coordinated by this partition.
    pub fn next_txn_id(&self, global_seq: &AtomicU64) -> TxnId {
        // The sequence component is global so that WAIT_DIE priorities are
        // comparable across coordinators (older == smaller everywhere).
        let seq = global_seq.fetch_add(1, Ordering::Relaxed);
        let _ = self.next_seq.fetch_add(1, Ordering::Relaxed);
        TxnId::new(self.id, seq)
    }

    pub fn set_slowdown_us(&self, us: u64) {
        self.slowdown_us.store(us, Ordering::Relaxed);
    }

    pub fn slowdown_us(&self) -> u64 {
        self.slowdown_us.load(Ordering::Relaxed)
    }

    /// Number of transactions this partition has coordinated.
    pub fn coordinated_txns(&self) -> u64 {
        self.next_seq.load(Ordering::Relaxed) - 1
    }
}

/// The whole simulated cluster.
pub struct Cluster {
    pub config: ClusterConfig,
    pub partitions: Vec<Arc<Partition>>,
    pub net: Arc<SimNetwork>,
    pub bus: Arc<DelayedBus>,
    pub group_commit: Arc<dyn GroupCommit>,
    /// The cluster flight recorder: every layer (workers, commit paths, the
    /// replicated logs, group-commit agents, recovery) emits its trace
    /// events here. Always present; recording itself is gated by
    /// `config.trace.enabled`.
    pub recorder: Arc<FlightRecorder>,
    /// Cluster-lifetime metrics of every layer that records through the
    /// cluster ([`commit::metrics`], [`prefetch::metrics`], [`metrics`]).
    pub metrics: Registry,
    /// The distributed atomic-commit protocol every prepare/decide path runs
    /// through (classic blocking 2PC or non-blocking Paxos Commit, per
    /// `config.commit_mode`).
    atomic_commit: Arc<dyn AtomicCommit>,
    /// One-shot coordinator-crash injection: `partition.0 + 1` when armed
    /// for that partition, 0 when disarmed. The next distributed prepare
    /// coordinated by the armed partition consumes it and "dies" between
    /// the vote round and the decision.
    coordinator_crash: AtomicU64,
    /// Global transaction sequence (see [`Partition::next_txn_id`]).
    global_seq: AtomicU64,
    /// Crash-time state of currently-crashed partitions, captured by
    /// [`Cluster::crash_partition`] and consumed by
    /// [`Cluster::recover_partition`].
    pending_crashes: Mutex<HashMap<u32, CrashContext>>,
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("partitions", &self.partitions.len())
            .field("group_commit", &self.group_commit.label())
            .finish()
    }
}

impl Cluster {
    /// Build a cluster from a configuration: partitions, network, control
    /// bus and the configured group-commit scheme.
    pub fn new(config: ClusterConfig) -> Arc<Self> {
        let n = config.num_partitions;
        let net = Arc::new(SimNetwork::new(n, config.net, config.seed));
        // Control messages (watermarks / epochs) travel one-way over the bus;
        // give them the same base latency as a data message.
        let bus = DelayedBus::new(n, config.net.one_way_us);
        // The replicated durable logs exist before the group-commit scheme:
        // watermark agents log their published `Wp` and COCO seals epoch
        // boundaries into them, which is what bounds recovery replay. Each
        // non-leader replica pays the one-way network hop on top of its own
        // persist delay, so replication cost shows up in quorum-ack latency
        // (and the fan-out messages are accounted on the network).
        let logs: Vec<Arc<ReplicatedLog>> = (0..n)
            .map(|p| {
                Arc::new(ReplicatedLog::new(
                    PartitionId(p as u32),
                    config.wal,
                    config.net.one_way_us,
                    Some(Arc::clone(&net)),
                ))
            })
            .collect();
        let group_commit = build_group_commit(n, config.wal, Arc::clone(&bus), logs.clone());
        // Wire the flight recorder into every layer before any transaction
        // traffic: the logs (sequencer waits, quorum acks, leader changes)
        // and the scheme's background agents (watermark / epoch / CLV
        // decisions). Workers and recovery reach it through the cluster.
        let recorder = Arc::new(FlightRecorder::new(
            config.trace.enabled,
            config.trace.ring_capacity,
        ));
        for log in &logs {
            log.set_recorder(Arc::clone(&recorder));
        }
        group_commit.set_recorder(Arc::clone(&recorder));
        // Per-hop message events are opt-in: the network's recorder stays
        // unset unless the knob is on, so the send hot path pays nothing.
        if config.trace.trace_messages {
            net.set_recorder(Arc::clone(&recorder));
        }
        let max_versions = config.primo.max_versions;
        let partitions = logs
            .into_iter()
            .enumerate()
            .map(|(p, log)| Arc::new(Partition::new(PartitionId(p as u32), log, max_versions)))
            .collect();
        let atomic_commit = build_atomic_commit(config.commit_mode);
        Arc::new(Cluster {
            config,
            partitions,
            net,
            bus,
            group_commit,
            recorder,
            metrics: Registry::new(&[commit::metrics::ALL, prefetch::metrics::ALL, metrics::ALL]),
            atomic_commit,
            coordinator_crash: AtomicU64::new(0),
            global_seq: AtomicU64::new(1),
            pending_crashes: Mutex::new(HashMap::new()),
        })
    }

    pub fn num_partitions(&self) -> usize {
        self.partitions.len()
    }

    pub fn partition(&self, id: PartitionId) -> &Arc<Partition> {
        &self.partitions[id.idx()]
    }

    /// Assign a new TID coordinated by `coord`.
    pub fn next_txn_id(&self, coord: PartitionId) -> TxnId {
        self.partitions[coord.idx()].next_txn_id(&self.global_seq)
    }

    /// The atomic-commit protocol this cluster runs distributed commits
    /// through (see [`AtomicCommit`]).
    pub fn atomic_commit(&self) -> &Arc<dyn AtomicCommit> {
        &self.atomic_commit
    }

    /// Arm a one-shot coordinator crash: the next distributed prepare
    /// coordinated by `p` dies between its vote round and the decision.
    /// Unlike [`Cluster::crash_partition`] this fells a single worker's
    /// transaction, not the partition — the partition keeps serving, but
    /// nobody is left to finish that transaction's commit protocol.
    pub fn arm_coordinator_crash(&self, p: PartitionId) {
        self.coordinator_crash
            .store(u64::from(p.0) + 1, Ordering::SeqCst);
    }

    /// Consume an armed coordinator crash for coordinator `p`. Returns true
    /// at most once per arming (the commit layer calls this at its
    /// injection point).
    pub fn take_coordinator_crash(&self, p: PartitionId) -> bool {
        self.coordinator_crash
            .compare_exchange(u64::from(p.0) + 1, 0, Ordering::SeqCst, Ordering::Relaxed)
            .is_ok()
    }

    /// Whether a coordinator crash is still armed (i.e. no distributed
    /// prepare has consumed it yet).
    pub fn coordinator_crash_armed(&self) -> bool {
        self.coordinator_crash.load(Ordering::SeqCst) != 0
    }

    /// The cluster registry with its gauges refreshed from the logs, the
    /// network and the prefetch counters: what a run's
    /// [`MetricsSnapshot`](primo_common::MetricsSnapshot) reads.
    pub fn collect_metrics(&self) -> &Registry {
        let m = &self.metrics;
        let leader_changes: u64 = self.partitions.iter().map(|p| p.log.leader_changes()).sum();
        m.set(&metrics::LEADER_CHANGES, leader_changes as f64);
        m.set(
            &metrics::REPLICATION_LAG_US,
            self.replication_lag_us() as f64,
        );
        m.set(&metrics::APPEND_WAIT_US, self.wal_append_wait_us() as f64);
        m.set(
            &metrics::REPLICATION_BATCH_LEN,
            self.replication_batch_len(),
        );
        m.set(&metrics::MESSAGES, self.net.messages_sent() as f64);
        m.set(&metrics::ROUND_TRIPS, self.net.round_trips_charged() as f64);
        m.set(&prefetch::metrics::HIT_RATE, self.prefetch_hit_rate());
        m
    }

    /// Fraction of remote reads served from a prefetch buffer
    /// (`prefetch.hit_rate`; 0 when no remote read ran).
    pub fn prefetch_hit_rate(&self) -> f64 {
        let m = &self.metrics;
        let hits = m.get(&prefetch::metrics::HITS);
        let total = hits + m.get(&prefetch::metrics::STALE) + m.get(&prefetch::metrics::MISSES);
        ratio(hits as f64, total as f64)
    }

    /// Number of distributed commit decisions in `commit.decide_us`.
    pub fn commit_decisions(&self) -> u64 {
        self.metrics.histogram(&commit::metrics::DECIDE_US).count()
    }

    /// Mean prepare→decide latency of distributed commits, microseconds.
    pub fn commit_decide_mean_us(&self) -> f64 {
        self.metrics
            .histogram(&commit::metrics::DECIDE_US)
            .mean_us()
    }

    /// p99 prepare→decide latency of distributed commits, microseconds.
    pub fn commit_decide_p99_us(&self) -> u64 {
        self.metrics
            .histogram(&commit::metrics::DECIDE_US)
            .percentile_us(0.99)
    }

    /// All partition ids.
    pub fn partition_ids(&self) -> Vec<PartitionId> {
        (0..self.partitions.len())
            .map(|p| PartitionId(p as u32))
            .collect()
    }

    /// Crash a partition leader: the partition becomes unreachable, the
    /// group commit agrees on the rollback point (§5.2), the replicated log
    /// hands leadership to the deterministic successor replica, and the
    /// crash-time **quorum** LSN is captured — entries that never reached a
    /// majority of replicas are treated as lost.
    ///
    /// Atomic commit demands all-or-nothing across every participant, so the
    /// crash-abort is then made atomic across partitions: every *surviving*
    /// partition undoes the installed writes of the transactions the
    /// agreement rolled back (restoring the before-images logged with each
    /// write-set) and seals them with `TxnRolledBack` markers — the crashed
    /// partition itself converges through bounded replay during recovery.
    /// Returns the agreed token (watermark / epoch).
    pub fn crash_partition(&self, p: PartitionId) -> Ts {
        self.crash_partition_impl(p, false)
    }

    /// [`Cluster::crash_partition`], but the dead leader's **local log
    /// replica is discarded too** (disk loss, not just memory loss). With a
    /// replication factor above one, the surviving quorum still reproduces
    /// every acknowledged transaction; with a single-copy log the history is
    /// honestly gone and recovery rebuilds an empty store.
    pub fn crash_partition_discarding_log(&self, p: PartitionId) -> Ts {
        self.crash_partition_impl(p, true)
    }

    fn crash_partition_impl(&self, p: PartitionId, discard_log: bool) -> Ts {
        self.recorder
            .emit(None, Some(p), TraceEventKind::CrashInjected);
        self.net.set_crashed(p, true);
        let token = self.group_commit.on_partition_crash(p);
        // Capture the quorum horizon **before** the hand-off wipes the dead
        // leader's disk: everything quorum-durable at the crash instant is
        // physically present on every replica (the capture itself drains
        // the append pipeline's staging ring, and the fail-over flushes
        // whatever is sequenced after that), so the surviving copies can
        // reproduce it — whereas capturing after
        // the wipe would drop the dead leader's vote and, at replication
        // factor 2, misreport fully-acknowledged history as lost. The
        // fail-over then bumps the term (restarting any in-flight replay)
        // and elects the successor the recovery will read from.
        let crash = CrashContext::capture(p, token, &self.partition(p).log);
        self.partition(p).log.fail_over(discard_log);
        self.pending_crashes.lock().insert(p.0, crash);
        let survivors = self
            .partitions
            .iter()
            .filter(|q| q.id != p && !self.net.is_crashed(q.id))
            .map(|q| (q.id, &q.store, q.log.as_ref()));
        let compensated = compensate_survivors(
            survivors,
            self.group_commit.as_ref(),
            token,
            Some(&self.recorder),
        );
        self.metrics
            .add(&metrics::COMPENSATED_TXNS, compensated as u64);
        // Every rolled-back version is purged from the survivors' chains:
        // the snapshot horizon no longer needs to stay capped below the
        // agreement.
        self.group_commit.on_compensation_complete();
        token
    }

    /// Crash only the *replacement leader* of a partition that is already
    /// down or mid-recovery: leadership hands off to the next deterministic
    /// successor replica (no new cluster agreement is needed — the
    /// partition was not serving). An in-flight recovery notices the term
    /// bump and restarts its replay against the new leader's log copy.
    pub fn crash_replacement_leader(&self, p: PartitionId, discard_log: bool) -> usize {
        self.partition(p).log.fail_over(discard_log)
    }

    /// Replication lag: the worst partition's quorum-ack delay — the time
    /// between appending a log record and its quorum acknowledgement
    /// (`wal.replication_lag_us`; equals the local persist delay when the
    /// log is single-copy).
    pub fn replication_lag_us(&self) -> u64 {
        self.partitions
            .iter()
            .map(|p| p.log.quorum_ack_delay_us())
            .max()
            .unwrap_or(0)
    }

    /// Total microseconds committers spent blocked on a partition's log
    /// sequencer — stage-1 contention on the append pipeline's commit
    /// critical section (`wal.append_wait_us`).
    pub fn wal_append_wait_us(&self) -> u64 {
        self.partitions.iter().map(|p| p.log.append_wait_us()).sum()
    }

    /// Mean entries per replication-pump batch across all partitions —
    /// stage-2 amortization of the append pipeline
    /// (`wal.replication_batch_len`; 0 when nothing was replicated, e.g. at
    /// replication factor 1).
    pub fn replication_batch_len(&self) -> f64 {
        let (entries, batches) = self.partitions.iter().fold((0u64, 0u64), |(e, b), p| {
            (
                e + p.log.replicated_entries(),
                b + p.log.replication_batches(),
            )
        });
        ratio(entries as f64, batches as f64)
    }

    /// Recover a crashed partition for real: wipe its store and rebuild it
    /// from the latest durable checkpoint plus bounded durable-log replay
    /// (see [`RecoveryManager`]). The partition stays unreachable until the
    /// replay finishes. Returns `None` (and just clears the crash flag) if
    /// the partition was never crashed through
    /// [`Cluster::crash_partition`].
    pub fn recover_partition(&self, p: PartitionId) -> Option<RecoveryReport> {
        self.recover_partition_with_fault(p, &mut || {})
    }

    /// [`Cluster::recover_partition`] with a fault-injection hook invoked
    /// mid-replay (after each replay pass, before the leadership-term
    /// check). Tests use it to crash the replacement leader at a
    /// deterministic point and pin the hand-off to the successor replica.
    pub fn recover_partition_with_fault(
        &self,
        p: PartitionId,
        mid_replay: &mut dyn FnMut(),
    ) -> Option<RecoveryReport> {
        let Some(crash) = self.pending_crashes.lock().remove(&p.0) else {
            self.net.set_crashed(p, false);
            return None;
        };
        let partition = self.partition(p);
        let report = RecoveryManager::recover_with_fault(
            &partition.store,
            &partition.log,
            self.group_commit.as_ref(),
            &self.net,
            &crash,
            Some(&self.recorder),
            mid_replay,
        );
        self.metrics.add(
            &commit::metrics::IN_DOUBT_RESOLVED,
            report.in_doubt_resolved as u64,
        );
        Some(report)
    }

    /// Checkpoint one partition: the base image (quiescent store scan) if
    /// none exists yet, otherwise a log-fold checkpoint bounded by the
    /// group-commit scheme, followed by truncation of what the newest
    /// durable checkpoint covers.
    ///
    /// Returns `None` for a crashed or recovering partition: a dead leader
    /// cannot checkpoint, and — more subtly — a post-crash checkpoint would
    /// fold the crash-volatile log tail and then truncate entries that the
    /// eventual recovery (which is pinned to the crash-time durable LSN)
    /// still needs.
    pub fn checkpoint_partition(&self, p: PartitionId) -> Option<CheckpointStats> {
        if self.net.is_crashed(p) {
            return None;
        }
        let partition = self.partition(p);
        let has_image = partition
            .log
            .full_view()
            .entries()
            .iter()
            .rev()
            .any(|e| matches!(*e.payload, LogPayload::Checkpoint { .. }));
        let stats = if !has_image {
            Checkpointer::initial(&partition.store, &partition.log)
        } else {
            Checkpointer::tick(p, &partition.log, self.group_commit.as_ref())
                .expect("base checkpoint exists")
        };
        // Version-chain GC piggybacks on the checkpoint pass: history
        // versions shadowed at or below the current snapshot horizon can no
        // longer be requested (the published horizon is monotone), so they
        // are reclaimed here rather than by a dedicated vacuum thread.
        let bound = self.group_commit.snapshot_horizon(p);
        let pruned = partition.store.prune_versions(bound);
        self.metrics.add(&metrics::PRUNED_VERSIONS, pruned as u64);
        Some(stats)
    }

    /// The cluster-wide MVCC snapshot timestamp: the minimum of every
    /// partition's group-commit horizon. A read-only transaction resolved at
    /// this horizon observes only durable, never-to-be-rolled-back state on
    /// every partition it touches (see
    /// [`GroupCommit::snapshot_horizon`] for the per-scheme rules).
    pub fn snapshot_horizon(&self) -> Ts {
        self.partition_ids()
            .into_iter()
            .map(|p| self.group_commit.snapshot_horizon(p))
            .min()
            .unwrap_or(0)
    }

    /// Checkpoint every healthy partition (the experiment driver runs this
    /// after loading and then periodically).
    pub fn checkpoint_all(&self) -> Vec<CheckpointStats> {
        self.partition_ids()
            .into_iter()
            .filter_map(|p| self.checkpoint_partition(p))
            .collect()
    }

    /// Partitions currently crashed (used by the experiment teardown to
    /// guarantee no partition is left permanently down).
    pub fn crashed_partitions(&self) -> Vec<PartitionId> {
        self.partition_ids()
            .into_iter()
            .filter(|p| self.net.is_crashed(*p))
            .collect()
    }

    /// Stop background threads (group commit agents, bus pump).
    pub fn shutdown(&self) {
        self.group_commit.shutdown();
        self.bus.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use primo_common::config::ClusterConfig;
    use primo_common::{TableId, Value};

    #[test]
    fn cluster_builds_with_partitions_and_gc() {
        let cluster = Cluster::new(ClusterConfig::for_tests(3));
        assert_eq!(cluster.num_partitions(), 3);
        assert_eq!(cluster.partition_ids().len(), 3);
        assert_eq!(cluster.group_commit.label(), "Watermark");
        cluster.shutdown();
    }

    #[test]
    fn txn_ids_are_unique_and_ordered_globally() {
        let cluster = Cluster::new(ClusterConfig::for_tests(2));
        let a = cluster.next_txn_id(PartitionId(0));
        let b = cluster.next_txn_id(PartitionId(1));
        let c = cluster.next_txn_id(PartitionId(0));
        assert!(a < b && b < c);
        assert_eq!(cluster.partition(PartitionId(0)).coordinated_txns(), 2);
        cluster.shutdown();
    }

    #[test]
    fn crash_and_real_recovery_round_trip() {
        let cluster = Cluster::new(ClusterConfig::for_tests(2));
        let p = PartitionId(1);
        for k in 0..8u64 {
            cluster
                .partition(p)
                .store
                .insert(TableId(0), k, Value::from_u64(k));
        }
        cluster.checkpoint_all();
        // Let the checkpoint pass its persist delay: a crash before that
        // genuinely loses it (nothing durable -> nothing restorable).
        std::thread::sleep(std::time::Duration::from_millis(5));
        cluster.crash_partition(p);
        assert!(cluster.net.is_crashed(p));
        assert_eq!(cluster.crashed_partitions(), vec![p]);
        let report = cluster.recover_partition(p).expect("real recovery ran");
        assert_eq!(report.wiped_records, 8);
        assert_eq!(report.restored_records, 8);
        assert!(!cluster.net.is_crashed(p));
        assert_eq!(
            cluster
                .partition(p)
                .store
                .get(TableId(0), 3)
                .unwrap()
                .read()
                .value
                .as_u64(),
            3
        );
        // Recovering a partition that never crashed just clears the flag.
        assert!(cluster.recover_partition(PartitionId(0)).is_none());
        cluster.shutdown();
    }

    #[test]
    fn checkpoints_fold_and_truncate_the_log() {
        let cluster = Cluster::new(ClusterConfig::for_tests(1));
        let p = PartitionId(0);
        cluster
            .partition(p)
            .store
            .insert(TableId(0), 1, Value::from_u64(1));
        let first = cluster.checkpoint_partition(p).expect("healthy partition");
        assert_eq!(first.image_records, 1);
        // A second pass goes through the log-fold path.
        std::thread::sleep(std::time::Duration::from_millis(60));
        let second = cluster.checkpoint_partition(p).expect("healthy partition");
        assert_eq!(second.image_records, 1);
        // A crashed (or recovering) partition is never checkpointed: a
        // post-crash fold could truncate entries its recovery still needs.
        cluster.crash_partition(p);
        assert!(cluster.checkpoint_partition(p).is_none());
        assert!(cluster.checkpoint_all().is_empty());
        cluster.recover_partition(p);
        assert!(cluster.checkpoint_partition(p).is_some());
        cluster.shutdown();
    }

    #[test]
    fn derived_ratios_report_zero_on_empty_denominators() {
        // No remote read ran and single-copy logs ship no replication batch:
        // both ratios divide by zero and must report 0, never NaN.
        let cluster = Cluster::new(ClusterConfig::for_tests(2));
        assert_eq!(cluster.prefetch_hit_rate(), 0.0);
        assert_eq!(cluster.replication_batch_len(), 0.0);
        let m = cluster.collect_metrics();
        assert_eq!(m.get(&prefetch::metrics::HIT_RATE), 0.0);
        assert_eq!(m.get(&metrics::REPLICATION_BATCH_LEN), 0.0);
        assert_eq!(cluster.commit_decide_mean_us(), 0.0);
        cluster.shutdown();
    }

    #[test]
    fn partition_store_is_usable() {
        let cluster = Cluster::new(ClusterConfig::for_tests(1));
        let p = cluster.partition(PartitionId(0));
        p.store.insert(TableId(0), 5, Value::from_u64(9));
        assert_eq!(p.store.get(TableId(0), 5).unwrap().read().value.as_u64(), 9);
        p.set_slowdown_us(100);
        assert_eq!(p.slowdown_us(), 100);
        cluster.shutdown();
    }
}
