//! The unified atomic-commit layer: every protocol's distributed
//! prepare/decide path runs behind one [`AtomicCommit`] trait instead of
//! hand-rolled round-trip calls scattered across the protocol crates.
//!
//! Two implementations ship:
//!
//! * [`ClassicTwoPc`] — the blocking textbook protocol every baseline (and
//!   Primo's read-heavy fallback) used before this layer existed. Message
//!   counts and trace events are byte-for-byte what the inlined paths
//!   charged, so it doubles as the ablation baseline.
//! * [`PaxosCommit`] — Gray & Lamport's non-blocking variant: prepare votes
//!   are logged as quorum-durable entries in each participant's replicated
//!   log, so when the coordinating worker dies between the vote round and
//!   the decision, *any* participant replica can assemble the global verdict
//!   from the durable vote set (presumed abort: no durable decision means
//!   abort). The decision itself needs no acknowledgement round trip — it is
//!   quorum-durable in the log, and a participant that misses the one-way
//!   notification recovers it from there.
//!
//! The coordinator-crash injection point lives here too: the cluster arms a
//! one-shot crash for a coordinating partition, and the next distributed
//! prepare that partition coordinates "dies" after its vote round — under
//! [`ClassicTwoPc`] the transaction is orphaned (its locks leak, the
//! participants block), under [`PaxosCommit`] it is resolved in-doubt and
//! terminates like any other abort.

use crate::cluster::Cluster;
use primo_common::config::CommitMode;
use primo_common::{AbortReason, PartitionId, TxnId};
use primo_trace::TraceEventKind;
use primo_wal::LogPayload;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The atomic-commit layer's metrics (cluster-lifetime).
pub mod metrics {
    primo_common::metrics! {
        /// Transactions orphaned by a coordinator crash under classic 2PC
        /// (their locks leak, the participants block; always 0 under Paxos
        /// Commit).
        ORPHANED_TXNS: CounterDef("commit.orphaned_txns", "txns");
        /// In-doubt transactions terminated from the durable vote set (live
        /// Paxos Commit resolution plus recovery-time sealing).
        IN_DOUBT_RESOLVED: CounterDef("commit.in_doubt_resolved", "txns");
        /// Prepare→decide latency of distributed commits: a full round trip
        /// under classic 2PC, durable log appends plus a one-way
        /// notification under Paxos Commit.
        DECIDE_US: HistogramDef("commit.decide_us", "us");
    }
}

/// Proof that the prepare phase succeeded, carrying the instant it completed
/// so the decide phase can report the prepare→decide latency.
#[derive(Debug, Clone, Copy)]
pub struct PreparedAt(Instant);

impl PreparedAt {
    fn now() -> Self {
        PreparedAt(Instant::now())
    }

    /// Microseconds since the prepare phase completed.
    pub fn elapsed_us(&self) -> u64 {
        self.0.elapsed().as_micros() as u64
    }
}

/// Result of the prepare phase of an atomic commit.
#[derive(Debug)]
pub enum PrepareOutcome {
    /// Every participant voted YES; the caller may proceed to its decision.
    Prepared(PreparedAt),
    /// The transaction must abort for `AbortReason`. The caller runs its
    /// normal abort path (releasing locks, notifying participants).
    Aborted(AbortReason),
    /// The coordinating worker died between the vote round and the decision
    /// and nobody can finish the protocol (classic 2PC's blocking failure):
    /// the caller must abandon the transaction **without any cleanup** —
    /// its locks stay held and the participants stay blocked.
    Orphaned,
}

/// One distributed atomic-commit protocol: a prepare phase that collects
/// votes and two decide phases that propagate the global verdict.
///
/// Participant *registration* (group-commit bookkeeping) stays at the call
/// sites — the baselines register inside their shared prepare helper, Primo
/// during execution — because it is scheme bookkeeping, not commit protocol.
pub trait AtomicCommit: Send + Sync + std::fmt::Debug {
    /// Short name for figures and logs.
    fn label(&self) -> &'static str;

    /// The configuration knob this implementation answers to.
    fn mode(&self) -> CommitMode;

    /// Run the vote round against `participants` (already excluding `home`).
    /// An empty participant list is a no-op success so callers can invoke
    /// this unconditionally.
    fn prepare(
        &self,
        cluster: &Cluster,
        txn: TxnId,
        home: PartitionId,
        participants: &[PartitionId],
    ) -> PrepareOutcome;

    /// Propagate the global COMMIT verdict.
    fn decide_commit(
        &self,
        cluster: &Cluster,
        txn: TxnId,
        home: PartitionId,
        participants: &[PartitionId],
        prepared: PreparedAt,
    );

    /// Propagate the global ABORT verdict (after a failed local lock /
    /// validation step that followed a successful prepare).
    fn decide_abort(
        &self,
        cluster: &Cluster,
        txn: TxnId,
        home: PartitionId,
        participants: &[PartitionId],
    );

    /// Seal a commit verdict that was decided *inside* the prepare round
    /// itself (consolidated-round protocols like TAPIR fold validation and
    /// decision into one round trip). No messages are charged. Classic 2PC
    /// needs nothing — the prepare response already was the decision — so
    /// the default is a no-op; Paxos Commit overrides it to resolve its
    /// logged votes with durable decision entries.
    fn seal_commit(
        &self,
        cluster: &Cluster,
        txn: TxnId,
        home: PartitionId,
        participants: &[PartitionId],
        prepared: PreparedAt,
    ) {
        let _ = (cluster, txn, home, participants, prepared);
    }
}

/// Construct the commit layer for a configuration knob.
pub fn build_atomic_commit(mode: CommitMode) -> Arc<dyn AtomicCommit> {
    match mode {
        CommitMode::TwoPc => Arc::new(ClassicTwoPc),
        CommitMode::PaxosCommit => Arc::new(PaxosCommit),
    }
}

/// Textbook blocking two-phase commit: one prepare round trip, one commit
/// round trip (locks are held across both), one-way abort notifications.
/// Exactly the messages and traces the protocol crates charged before the
/// commit layer was extracted — the ablation baseline.
#[derive(Debug)]
pub struct ClassicTwoPc;

impl AtomicCommit for ClassicTwoPc {
    fn label(&self) -> &'static str {
        "2PC"
    }

    fn mode(&self) -> CommitMode {
        CommitMode::TwoPc
    }

    fn prepare(
        &self,
        cluster: &Cluster,
        txn: TxnId,
        home: PartitionId,
        participants: &[PartitionId],
    ) -> PrepareOutcome {
        cluster.recorder.emit(
            Some(txn),
            Some(home),
            TraceEventKind::Prepare {
                participants: participants.len() as u32,
            },
        );
        let ok = participants.is_empty() || cluster.net.round_trip_multi(home, participants);
        cluster
            .recorder
            .emit(Some(txn), Some(home), TraceEventKind::Vote { ok });
        if !ok {
            return PrepareOutcome::Aborted(AbortReason::RemoteUnavailable);
        }
        if !participants.is_empty() && cluster.take_coordinator_crash(home) {
            // The coordinator died holding everyone's YES votes. Nothing is
            // durably recorded about this transaction's outcome, so no one
            // else can decide: the participants block until the coordinator
            // "comes back" — which in this simulation it never does.
            cluster
                .recorder
                .emit(Some(txn), Some(home), TraceEventKind::CoordinatorCrashed);
            cluster.metrics.inc(&metrics::ORPHANED_TXNS);
            return PrepareOutcome::Orphaned;
        }
        PrepareOutcome::Prepared(PreparedAt::now())
    }

    fn decide_commit(
        &self,
        cluster: &Cluster,
        txn: TxnId,
        home: PartitionId,
        participants: &[PartitionId],
        prepared: PreparedAt,
    ) {
        if participants.is_empty() {
            return;
        }
        cluster.net.round_trip_multi(home, participants);
        cluster
            .net
            .note_commit_messages(2 * participants.len() as u64);
        cluster
            .metrics
            .record_us(&metrics::DECIDE_US, prepared.elapsed_us());
        cluster.recorder.emit(
            Some(txn),
            Some(home),
            TraceEventKind::DecisionReached {
                commit: true,
                in_doubt: false,
            },
        );
    }

    fn decide_abort(
        &self,
        cluster: &Cluster,
        txn: TxnId,
        home: PartitionId,
        participants: &[PartitionId],
    ) {
        if participants.is_empty() {
            return;
        }
        cluster.net.one_way_multi(home, participants);
        cluster.net.note_commit_messages(participants.len() as u64);
        cluster.recorder.emit(
            Some(txn),
            Some(home),
            TraceEventKind::DecisionReached {
                commit: false,
                in_doubt: false,
            },
        );
    }
}

/// Non-blocking Paxos Commit over the replicated logs: YES votes are logged
/// as quorum-durable [`LogPayload::CommitVote`] entries (the vote rides the
/// prepare round already charged — logging it is local to the replica that
/// received the prepare), and the decision is a quorum-durable
/// [`LogPayload::CommitDecision`] entry propagated with a one-way
/// notification instead of an acknowledged round trip.
#[derive(Debug)]
pub struct PaxosCommit;

impl PaxosCommit {
    /// Finish the protocol of a transaction whose coordinator died after the
    /// vote round. Any participant replica can do this from durable state:
    /// wait for the votes to reach quorum durability, look for a durable
    /// decision, and — there being none (the crash fired before the decide
    /// step, and the vote set alone never commits) — seal the presumed-abort
    /// verdict into every involved log so every future reader agrees.
    fn resolve_in_doubt(
        &self,
        cluster: &Cluster,
        txn: TxnId,
        home: PartitionId,
        participants: &[PartitionId],
        vote_lsns: &[(PartitionId, u64)],
    ) -> PrepareOutcome {
        for (p, lsn) in vote_lsns {
            let log = &cluster.partition(*p).log;
            let deadline = Instant::now()
                + Duration::from_micros(4 * log.quorum_ack_delay_us().max(1_000) + 10_000);
            while !log.is_durable(*lsn) && Instant::now() < deadline {
                std::thread::sleep(Duration::from_micros(200));
            }
            if log.is_durable(*lsn) {
                cluster.recorder.emit(
                    Some(txn),
                    Some(*p),
                    TraceEventKind::VoteQuorumDurable { lsn: *lsn },
                );
            }
        }
        for p in std::iter::once(home).chain(participants.iter().copied()) {
            let log = &cluster.partition(p).log;
            log.append(LogPayload::CommitDecision { txn, commit: false });
            cluster
                .net
                .note_commit_messages(log.replication_factor() as u64 - 1);
        }
        cluster.recorder.emit(
            Some(txn),
            Some(home),
            TraceEventKind::DecisionReached {
                commit: false,
                in_doubt: true,
            },
        );
        cluster.metrics.inc(&metrics::IN_DOUBT_RESOLVED);
        // The caller runs its normal abort path off this reason, which doubles
        // as the participant notification — consistent termination, no blocking.
        PrepareOutcome::Aborted(AbortReason::CoordinatorCrash)
    }
}

impl AtomicCommit for PaxosCommit {
    fn label(&self) -> &'static str {
        "PaxosCommit"
    }

    fn mode(&self) -> CommitMode {
        CommitMode::PaxosCommit
    }

    fn prepare(
        &self,
        cluster: &Cluster,
        txn: TxnId,
        home: PartitionId,
        participants: &[PartitionId],
    ) -> PrepareOutcome {
        cluster.recorder.emit(
            Some(txn),
            Some(home),
            TraceEventKind::Prepare {
                participants: participants.len() as u32,
            },
        );
        let ok = participants.is_empty() || cluster.net.round_trip_multi(home, participants);
        cluster
            .recorder
            .emit(Some(txn), Some(home), TraceEventKind::Vote { ok });
        if !ok {
            return PrepareOutcome::Aborted(AbortReason::RemoteUnavailable);
        }
        if participants.is_empty() {
            // A local transaction never reaches a distributed decision; don't
            // pollute the logs with single-partition vote entries.
            return PrepareOutcome::Prepared(PreparedAt::now());
        }
        // Log every YES vote quorum-durably: the coordinator's own vote in
        // the home log, each participant's vote in its own log. Durability
        // proceeds in the background through the append pipeline — the
        // commit critical path pays only the appends.
        let mut vote_lsns = Vec::with_capacity(participants.len() + 1);
        for p in std::iter::once(home).chain(participants.iter().copied()) {
            let log = &cluster.partition(p).log;
            let lsn = log.append(LogPayload::CommitVote {
                txn,
                coordinator: home,
                commit: true,
            });
            cluster
                .net
                .note_commit_messages(log.replication_factor() as u64 - 1);
            cluster.recorder.emit(
                Some(txn),
                Some(p),
                TraceEventKind::VoteLogged { lsn, commit: true },
            );
            vote_lsns.push((p, lsn));
        }
        if cluster.take_coordinator_crash(home) {
            cluster
                .recorder
                .emit(Some(txn), Some(home), TraceEventKind::CoordinatorCrashed);
            return self.resolve_in_doubt(cluster, txn, home, participants, &vote_lsns);
        }
        PrepareOutcome::Prepared(PreparedAt::now())
    }

    fn decide_commit(
        &self,
        cluster: &Cluster,
        txn: TxnId,
        home: PartitionId,
        participants: &[PartitionId],
        prepared: PreparedAt,
    ) {
        if participants.is_empty() {
            return;
        }
        // The verdict is the durable log entry, not the message: participants
        // are told one-way and never ack (a missed notification is recovered
        // from the durable decision). This removes classic 2PC's second
        // round trip from the commit critical path.
        for p in std::iter::once(home).chain(participants.iter().copied()) {
            let log = &cluster.partition(p).log;
            log.append(LogPayload::CommitDecision { txn, commit: true });
            cluster
                .net
                .note_commit_messages(log.replication_factor() as u64 - 1);
        }
        cluster.net.one_way_multi(home, participants);
        cluster.net.note_commit_messages(participants.len() as u64);
        cluster
            .metrics
            .record_us(&metrics::DECIDE_US, prepared.elapsed_us());
        cluster.recorder.emit(
            Some(txn),
            Some(home),
            TraceEventKind::DecisionReached {
                commit: true,
                in_doubt: false,
            },
        );
    }

    fn decide_abort(
        &self,
        cluster: &Cluster,
        txn: TxnId,
        home: PartitionId,
        participants: &[PartitionId],
    ) {
        if participants.is_empty() {
            return;
        }
        for p in std::iter::once(home).chain(participants.iter().copied()) {
            let log = &cluster.partition(p).log;
            log.append(LogPayload::CommitDecision { txn, commit: false });
            cluster
                .net
                .note_commit_messages(log.replication_factor() as u64 - 1);
        }
        cluster.net.one_way_multi(home, participants);
        cluster.net.note_commit_messages(participants.len() as u64);
        cluster.recorder.emit(
            Some(txn),
            Some(home),
            TraceEventKind::DecisionReached {
                commit: false,
                in_doubt: false,
            },
        );
    }

    fn seal_commit(
        &self,
        cluster: &Cluster,
        txn: TxnId,
        home: PartitionId,
        participants: &[PartitionId],
        prepared: PreparedAt,
    ) {
        if participants.is_empty() {
            return;
        }
        // The prepare round's response already carried the decision; only
        // the durable resolution of the logged votes remains.
        for p in std::iter::once(home).chain(participants.iter().copied()) {
            let log = &cluster.partition(p).log;
            log.append(LogPayload::CommitDecision { txn, commit: true });
            cluster
                .net
                .note_commit_messages(log.replication_factor() as u64 - 1);
        }
        cluster
            .metrics
            .record_us(&metrics::DECIDE_US, prepared.elapsed_us());
        cluster.recorder.emit(
            Some(txn),
            Some(home),
            TraceEventKind::DecisionReached {
                commit: true,
                in_doubt: false,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use primo_common::config::ClusterConfig;

    fn decision(log: &primo_wal::ReplicatedLog, txn: TxnId) -> Option<bool> {
        log.durable_view(None).rfind_map(|e| match *e.payload {
            LogPayload::CommitDecision { txn: t, commit } if t == txn => Some(commit),
            _ => None,
        })
    }

    fn cluster_with_mode(mode: CommitMode, partitions: usize) -> Arc<Cluster> {
        let mut config = ClusterConfig::for_tests(partitions);
        config.commit_mode = mode;
        Cluster::new(config)
    }

    #[test]
    fn build_respects_the_mode_knob() {
        assert_eq!(build_atomic_commit(CommitMode::TwoPc).label(), "2PC");
        assert_eq!(
            build_atomic_commit(CommitMode::PaxosCommit).label(),
            "PaxosCommit"
        );
        assert_eq!(
            build_atomic_commit(CommitMode::PaxosCommit).mode(),
            CommitMode::PaxosCommit
        );
    }

    #[test]
    fn classic_prepare_and_commit_charge_two_round_trips() {
        let cluster = cluster_with_mode(CommitMode::TwoPc, 3);
        let txn = cluster.next_txn_id(PartitionId(0));
        let parts = [PartitionId(1), PartitionId(2)];
        let before = cluster.net.round_trips_charged();
        let prepared = match cluster
            .atomic_commit()
            .prepare(&cluster, txn, PartitionId(0), &parts)
        {
            PrepareOutcome::Prepared(at) => at,
            other => panic!("prepare must succeed, got {other:?}"),
        };
        cluster
            .atomic_commit()
            .decide_commit(&cluster, txn, PartitionId(0), &parts, prepared);
        assert_eq!(cluster.net.round_trips_charged() - before, 2);
        assert_eq!(cluster.commit_decisions(), 1);
        assert!(
            decision(&cluster.partition(PartitionId(0)).log, txn).is_none(),
            "classic 2PC logs no decision entries"
        );
        cluster.shutdown();
    }

    #[test]
    fn paxos_commit_replaces_the_second_round_trip_with_durable_entries() {
        let cluster = cluster_with_mode(CommitMode::PaxosCommit, 3);
        let txn = cluster.next_txn_id(PartitionId(0));
        let parts = [PartitionId(1), PartitionId(2)];
        let before = cluster.net.round_trips_charged();
        let prepared = match cluster
            .atomic_commit()
            .prepare(&cluster, txn, PartitionId(0), &parts)
        {
            PrepareOutcome::Prepared(at) => at,
            other => panic!("prepare must succeed, got {other:?}"),
        };
        cluster
            .atomic_commit()
            .decide_commit(&cluster, txn, PartitionId(0), &parts, prepared);
        assert_eq!(
            cluster.net.round_trips_charged() - before,
            1,
            "only the prepare round blocks; the decision is one-way"
        );
        // Votes and the decision are in every involved partition's log.
        std::thread::sleep(Duration::from_millis(5));
        for p in [PartitionId(0), PartitionId(1), PartitionId(2)] {
            let log = &cluster.partition(p).log;
            let vote = log.durable_view(None).rfind_map(|e| match *e.payload {
                LogPayload::CommitVote { txn: t, commit, .. } if t == txn => Some(commit),
                _ => None,
            });
            assert_eq!(vote, Some(true), "vote at {p:?}");
            assert_eq!(decision(log, txn), Some(true), "decision at {p:?}");
        }
        cluster.shutdown();
    }

    #[test]
    fn classic_coordinator_crash_orphans_the_transaction() {
        let cluster = cluster_with_mode(CommitMode::TwoPc, 2);
        let txn = cluster.next_txn_id(PartitionId(0));
        cluster.arm_coordinator_crash(PartitionId(0));
        let outcome =
            cluster
                .atomic_commit()
                .prepare(&cluster, txn, PartitionId(0), &[PartitionId(1)]);
        assert!(matches!(outcome, PrepareOutcome::Orphaned), "{outcome:?}");
        assert_eq!(cluster.metrics.get(&metrics::ORPHANED_TXNS), 1);
        // The injection is one-shot: the next prepare sails through.
        let txn2 = cluster.next_txn_id(PartitionId(0));
        let outcome =
            cluster
                .atomic_commit()
                .prepare(&cluster, txn2, PartitionId(0), &[PartitionId(1)]);
        assert!(matches!(outcome, PrepareOutcome::Prepared(_)));
        cluster.shutdown();
    }

    #[test]
    fn paxos_coordinator_crash_resolves_in_doubt_to_a_durable_abort() {
        let cluster = cluster_with_mode(CommitMode::PaxosCommit, 2);
        let txn = cluster.next_txn_id(PartitionId(0));
        cluster.arm_coordinator_crash(PartitionId(0));
        let outcome =
            cluster
                .atomic_commit()
                .prepare(&cluster, txn, PartitionId(0), &[PartitionId(1)]);
        match outcome {
            PrepareOutcome::Aborted(reason) => {
                assert_eq!(reason, AbortReason::CoordinatorCrash)
            }
            other => panic!("in-doubt resolution must abort cleanly, got {other:?}"),
        }
        assert_eq!(cluster.metrics.get(&metrics::IN_DOUBT_RESOLVED), 1);
        assert_eq!(
            cluster.metrics.get(&metrics::ORPHANED_TXNS),
            0,
            "nothing blocks under Paxos"
        );
        std::thread::sleep(Duration::from_millis(5));
        for p in [PartitionId(0), PartitionId(1)] {
            let log = &cluster.partition(p).log;
            assert_eq!(
                decision(log, txn),
                Some(false),
                "the abort verdict is sealed durably at {p:?}"
            );
            assert!(
                primo_recovery::in_doubt_votes(&log.durable_view(None)).is_empty(),
                "no vote stays in doubt at {p:?}"
            );
        }
        cluster.shutdown();
    }

    #[test]
    fn empty_participant_lists_are_no_ops() {
        let cluster = cluster_with_mode(CommitMode::PaxosCommit, 1);
        let txn = cluster.next_txn_id(PartitionId(0));
        let before = cluster.net.messages_sent();
        let prepared = match cluster
            .atomic_commit()
            .prepare(&cluster, txn, PartitionId(0), &[])
        {
            PrepareOutcome::Prepared(at) => at,
            other => panic!("{other:?}"),
        };
        cluster
            .atomic_commit()
            .decide_commit(&cluster, txn, PartitionId(0), &[], prepared);
        cluster
            .atomic_commit()
            .decide_abort(&cluster, txn, PartitionId(0), &[]);
        assert_eq!(cluster.net.messages_sent(), before);
        assert_eq!(cluster.commit_decisions(), 0);
        assert!(cluster.partition(PartitionId(0)).log.is_empty());
        cluster.shutdown();
    }
}
