//! The atomic-commit acceptance suite: a coordinator crash between the vote
//! round and the decision must leave **zero blocked and zero
//! inconsistently-decided** transactions under Paxos Commit, for every
//! protocol × group-commit scheme the registry knows — and the same loop
//! must *catch* classic 2PC blocking, proving the harness can tell the two
//! modes apart (the falsification test).
//!
//! The workload is a pair increment: each transaction adds 1 to the same key
//! on both partitions, so any committed prefix keeps `(P0, k) == (P1, k)`.
//! A transaction decided inconsistently (committed on one side, aborted on
//! the other) breaks the equality; a transaction left blocked keeps its
//! locks and starves the post-storm liveness probe.
//!
//! Seeds: `PRIMO_COORD_CRASH_SEEDS=n` widens the loop to `n` seeds per cell
//! (CI runs 8 in release); the default of 1 keeps the debug tier-1 run
//! cheap.

use primo_repro::metrics::commit;
use primo_repro::recovery::in_doubt_votes;
use primo_repro::runtime::{run_on_cluster, ExperimentOptions};
use primo_repro::storage::PartitionStore;
use primo_repro::wal::LogPayload;
use primo_repro::{
    CommitMode, CrashPlan, Experiment, FastRng, LoggingScheme, PartitionId, Primo, ProtocolKind,
    Scale, TableId, TraceEventKind, TxnContext, TxnProgram, TxnResult, Value, Workload,
};
use std::sync::Arc;
use std::time::Duration;

const T: TableId = TableId(0);
const KEYS: u64 = 8;

fn seed_count() -> u64 {
    std::env::var("PRIMO_COORD_CRASH_SEEDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
}

/// Add 1 to the same key on both partitions — the committed state must keep
/// the two sides equal, whatever commits or aborts.
struct PairIncrement {
    home: PartitionId,
    key: u64,
}

impl TxnProgram for PairIncrement {
    fn execute(&self, ctx: &mut dyn TxnContext) -> TxnResult<()> {
        let a = ctx.read(PartitionId(0), T, self.key)?.as_u64();
        ctx.write(PartitionId(0), T, self.key, Value::from_u64(a + 1))?;
        let b = ctx.read(PartitionId(1), T, self.key)?.as_u64();
        ctx.write(PartitionId(1), T, self.key, Value::from_u64(b + 1))
    }
    fn home_partition(&self) -> PartitionId {
        self.home
    }
}

fn loaded(kind: ProtocolKind, scheme: LoggingScheme, mode: CommitMode, seed: u64) -> Primo {
    let primo = Primo::builder()
        .partitions(2)
        .protocol(kind)
        .logging(scheme)
        .commit_mode(mode)
        .replication_factor(3)
        .fast_local()
        .seed(seed)
        .build();
    let session = primo.session();
    for p in 0..2u32 {
        for k in 0..KEYS {
            session.load(PartitionId(p), T, k, Value::from_u64(0));
        }
    }
    primo
}

/// Run a two-thread pair-increment storm with a one-shot coordinator crash
/// armed on partition 0 mid-run.
fn coordinator_crash_storm(primo: &Primo, per_thread: usize) {
    std::thread::scope(|scope| {
        for t in 0..2u32 {
            let session = primo.session();
            scope.spawn(move || {
                for i in 0..per_thread {
                    let _ = session.run_program(&PairIncrement {
                        home: PartitionId(t % 2),
                        key: (t as u64 + i as u64) % KEYS,
                    });
                }
            });
        }
        // Arm while the storm runs: the next distributed commit coordinated
        // by partition 0 dies between its vote round and the decision.
        std::thread::sleep(Duration::from_millis(2));
        primo.cluster().arm_coordinator_crash(PartitionId(0));
    });
}

/// Every pair must agree across partitions — the "zero inconsistently
/// decided" half of the acceptance criterion.
fn assert_pairs_consistent(primo: &Primo, label: &str) {
    let session = primo.session();
    for k in 0..KEYS {
        let a = session.get(PartitionId(0), T, k).unwrap().as_u64();
        let b = session.get(PartitionId(1), T, k).unwrap().as_u64();
        assert_eq!(
            a, b,
            "{label}: pair {k} decided inconsistently ({a} vs {b})"
        );
    }
}

/// A fresh transaction on every key must still get through — the "zero
/// blocked" half. An orphaned transaction's leaked locks would starve this
/// probe into retry exhaustion.
fn assert_no_blocked_locks(primo: &Primo, label: &str) {
    let session = primo.session();
    for k in 0..KEYS {
        session
            .run_program(&PairIncrement {
                home: PartitionId(1),
                key: k,
            })
            .unwrap_or_else(|e| panic!("{label}: key {k} still blocked after the storm: {e:?}"));
    }
}

#[test]
fn paxos_commit_terminates_coordinator_crashes_across_the_matrix() {
    for seed in 0..seed_count() {
        for kind in ProtocolKind::ALL {
            for scheme in LoggingScheme::ALL {
                let label = format!("{kind:?}/{scheme:?}/seed{seed}");
                let primo = loaded(kind, scheme, CommitMode::PaxosCommit, 0xC0DE + seed);
                coordinator_crash_storm(&primo, 20);
                // Some protocols never run a prepare round (Aria sequences
                // its batches, Primo's WCF path decides inside execution), so
                // the trap may stay armed — that is consistent termination
                // too; what may never happen is an orphan.
                assert_eq!(
                    primo.cluster().metrics.get(&commit::ORPHANED_TXNS),
                    0,
                    "{label}: Paxos Commit orphaned a transaction"
                );
                assert_pairs_consistent(&primo, &label);
                assert_no_blocked_locks(&primo, &label);
                primo.shutdown();
            }
        }
    }
}

/// Falsification: the exact same loop must catch classic 2PC blocking —
/// otherwise the matrix test above proves nothing.
#[test]
fn the_loop_catches_classic_two_pc_blocking() {
    let primo = loaded(
        ProtocolKind::TwoPlNoWait,
        LoggingScheme::CocoEpoch,
        CommitMode::TwoPc,
        0xC0DE,
    );
    primo.cluster().arm_coordinator_crash(PartitionId(0));
    let session = primo.session();
    // The armed trap orphans this transaction's first distributed attempt;
    // its leaked locks then starve every retry (fresh transaction IDs die
    // against the orphan's locks) until the attempt budget runs out.
    let result = session.run_program(&PairIncrement {
        home: PartitionId(0),
        key: 0,
    });
    assert!(
        result.is_err(),
        "classic 2PC should have blocked on the orphaned transaction's locks"
    );
    assert_eq!(
        primo.cluster().metrics.get(&commit::ORPHANED_TXNS),
        1,
        "the coordinator crash should have orphaned exactly the trapped transaction"
    );
    // The liveness probe the matrix test runs would flag this cell: the
    // orphan still holds key 0 on both partitions.
    assert!(
        session
            .run_program(&PairIncrement {
                home: PartitionId(1),
                key: 0,
            })
            .is_err(),
        "key 0 should still be blocked by the orphan's leaked locks"
    );
    // Untouched keys stay live — the blocking is precisely scoped to the
    // orphan's footprint, not a wedged cluster.
    session
        .run_program(&PairIncrement {
            home: PartitionId(1),
            key: 1,
        })
        .expect("keys outside the orphan's footprint must stay available");
    assert_pairs_consistent(&primo, "classic falsification");
    primo.shutdown();
}

/// Pair increments on random keys, for worker-driven runs.
struct PairWorkload;

impl Workload for PairWorkload {
    fn name(&self) -> &'static str {
        "pair-increment"
    }
    fn load_partition(&self, store: &PartitionStore, _partition: PartitionId) {
        for k in 0..KEYS {
            store.insert(T, k, Value::from_u64(0));
        }
    }
    fn generate(&self, rng: &mut FastRng, home: PartitionId) -> Box<dyn TxnProgram> {
        Box::new(PairIncrement {
            home,
            key: rng.next_below(KEYS),
        })
    }
}

/// The worker loop must not retry an orphan under its own TxnId: lock
/// acquisition is re-entrant by TxnId, so such a retry would walk through
/// the orphan's leaked locks and commit — hiding classic 2PC's blocking from
/// every benchmark and experiment.
#[test]
fn workers_never_retry_an_orphan_under_its_id() {
    let primo = Primo::builder()
        .partitions(2)
        .protocol(ProtocolKind::TwoPlNoWait)
        .logging(LoggingScheme::CocoEpoch)
        .commit_mode(CommitMode::TwoPc)
        .fast_local()
        .tweak(|c| c.trace.ring_capacity = 1 << 18)
        .build();
    for p in primo.cluster().partition_ids() {
        PairWorkload.load_partition(&primo.cluster().partition(p).store, p);
    }
    run_on_cluster(
        primo.cluster(),
        Arc::clone(primo.protocol()),
        Arc::new(PairWorkload),
        &ExperimentOptions {
            warmup: Duration::ZERO,
            duration: Duration::from_millis(150),
            crash: Some(CrashPlan::coordinator(
                PartitionId(0),
                Duration::from_millis(20),
            )),
            ..ExperimentOptions::default()
        },
    );
    let timeline = primo.cluster().recorder.merge();
    let crashed = timeline.of_kind(|k| matches!(k, TraceEventKind::CoordinatorCrashed));
    let [crash] = crashed.events() else {
        panic!(
            "expected exactly one coordinator crash, got {}",
            crashed.len()
        );
    };
    let orphan = crash.txn.expect("the crash names its transaction");
    let retries = timeline
        .for_txn(orphan)
        .of_kind(|k| matches!(k, TraceEventKind::Begin { .. }))
        .between(crash.at_us, u64::MAX);
    assert!(
        retries.is_empty(),
        "{orphan} was retried under its own id after the coordinator crash:\n{}",
        primo.cluster().recorder.failure_report(&[orphan])
    );
    assert_eq!(primo.cluster().metrics.get(&commit::ORPHANED_TXNS), 1);
    primo.shutdown();
}

/// Votes and decisions are quorum-durable log entries: losing the leader's
/// disk must not lose them.
#[test]
fn votes_and_decisions_survive_leader_disk_loss() {
    let primo = loaded(
        ProtocolKind::TwoPlNoWait,
        LoggingScheme::CocoEpoch,
        CommitMode::PaxosCommit,
        0xD15C,
    );
    let session = primo.session();
    primo.checkpoint_all();
    for k in 0..KEYS {
        session
            .run_program(&PairIncrement {
                home: PartitionId(0),
                key: k,
            })
            .unwrap();
    }
    // Every commit above reached a durable decision on partition 1's log.
    let decided: Vec<_> = primo
        .cluster()
        .recorder
        .merge()
        .of_kind(|k| matches!(k, TraceEventKind::DecisionReached { commit: true, .. }))
        .events()
        .iter()
        .filter_map(|e| e.txn)
        .collect();
    assert!(!decided.is_empty(), "no durable commit decisions recorded");

    // Disk loss: the dead leader's local log replica is discarded too; the
    // surviving quorum must still reproduce every vote and decision.
    primo.crash_partition_discarding_log(PartitionId(1));
    primo
        .recover_partition(PartitionId(1))
        .expect("recovery ran");
    let log = &primo.cluster().partition(PartitionId(1)).log;
    for txn in &decided {
        let decision = log.durable_view(None).rfind_map(|e| match *e.payload {
            LogPayload::CommitDecision { txn: t, commit } if t == *txn => Some(commit),
            _ => None,
        });
        assert_eq!(
            decision,
            Some(true),
            "decision for {txn} lost with the leader's disk"
        );
    }
    assert!(
        in_doubt_votes(&log.durable_view(None)).is_empty(),
        "every logged vote must still be covered by a decision after fail-over"
    );
    assert_pairs_consistent(&primo, "disk loss");
    primo.shutdown();
}

/// The experiment driver's coordinator-crash plan end to end: the snapshot
/// reports the in-doubt resolution and the commit-decision latency
/// breakdown, and Paxos Commit orphans nothing.
#[test]
fn coordinator_crash_plan_reports_in_doubt_metrics() {
    let snap = Experiment::new()
        .protocol(ProtocolKind::TwoPlNoWait)
        .commit_mode(CommitMode::PaxosCommit)
        .replication_factor(3)
        .scale(Scale::test())
        .duration_ms(300)
        .fast_local()
        .crash(CrashPlan::coordinator(
            PartitionId(0),
            Duration::from_millis(100),
        ))
        .run();
    assert!(snap.committed > 0);
    assert_eq!(
        snap.get(&commit::ORPHANED_TXNS),
        0,
        "Paxos Commit must not orphan"
    );
    assert_eq!(
        snap.get(&commit::IN_DOUBT_RESOLVED),
        1,
        "the trapped transaction resolves from the durable vote set"
    );
    assert!(snap.get(&commit::DECIDE_US).count > 0);
    assert!(snap.get(&commit::DECIDE_US).mean_us > 0.0);
    assert!(snap.get(&commit::DECIDE_US).p99_us > 0);
}
