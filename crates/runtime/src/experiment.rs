//! The experiment driver: build a cluster, load the workload, run workers for
//! a fixed duration (with warm-up), optionally inject a partition crash, and
//! return aggregated metrics.

use crate::cluster::Cluster;
use crate::protocol::Protocol;
use crate::txn::Workload;
use crate::worker::spawn_workers;
use primo_common::config::ClusterConfig;
use primo_common::stats::txn;
use primo_common::{ratio, HistogramCounts, Metrics, MetricsSnapshot, PartitionId, TimelineWindow};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What the experiment driver itself records into each run's registry.
pub mod metrics {
    primo_common::metrics! {
        /// Time spent rebuilding crashed partitions (wipe + checkpoint
        /// restore + durable-log replay); 0 when no crash was injected.
        RECOVERY_TIME_US: CounterDef("recovery.time_us", "us");
        /// Committed transactions replayed from durable logs during recovery.
        REPLAYED_TXNS: CounterDef("recovery.replayed_txns", "txns");
        /// Throughput between recovery completion and the end of the
        /// measurement: the post-recovery dip Fig 12b-style harnesses report.
        POST_RECOVERY_TPS: GaugeDef("recovery.post_recovery_tps", "1/s");
        /// Network round trips charged per committed distributed
        /// transaction: the number the batched remote-read fan-out improves.
        ROUND_TRIPS_PER_DIST_TXN: GaugeDef("net.round_trips_per_dist_txn", "1/txn");
    }
}

/// Nominal length of one live-metrics timeline window. Actual windows carry
/// their measured `len_us`, so scheduling jitter skews a window's rate math
/// by its true length, not the nominal one.
const TIMELINE_WINDOW: Duration = Duration::from_millis(100);

/// The live registry counters a timeline window diffs: commits, aborted
/// attempts and the commit-latency buckets.
fn mark(metrics: &Metrics) -> (u64, u64, HistogramCounts) {
    (
        metrics.get(&txn::COMMITTED),
        metrics.get(&txn::ABORTED),
        metrics.histogram(&txn::LATENCY_US).counts(),
    )
}

/// Sample the live metrics into ~100 ms [`TimelineWindow`]s until `stop` is
/// raised, then close the final partial window. Runs on its own thread for
/// the duration of the measurement window.
fn sample_timeline(metrics: &Metrics, stop: &AtomicBool) -> Vec<TimelineWindow> {
    let mut windows = Vec::new();
    let run_start = Instant::now();
    let (mut win_start, mut last) = (run_start, mark(metrics));
    while !stop.load(Ordering::Relaxed) {
        // Sleep in short slices so the sampler notices `stop` quickly and
        // the final partial window stays short.
        let mut slept = Duration::ZERO;
        while slept < TIMELINE_WINDOW && !stop.load(Ordering::Relaxed) {
            let slice = Duration::from_millis(10);
            std::thread::sleep(slice);
            slept += slice;
        }
        // Close the window as a delta against the previous mark.
        let len = win_start.elapsed();
        let len_us = len.as_micros() as u64;
        if len_us == 0 {
            continue;
        }
        let now = mark(metrics);
        let (committed, aborted) = (now.0 - last.0, now.1 - last.1);
        windows.push(TimelineWindow {
            start_us: win_start.duration_since(run_start).as_micros() as u64,
            len_us,
            committed,
            aborted,
            tps: committed as f64 / len.as_secs_f64(),
            abort_rate: ratio(aborted as f64, (committed + aborted) as f64),
            p99_latency_ms: now.2.percentile_us_since(&last.2, 0.99) as f64 / 1000.0,
        });
        win_start = Instant::now();
        last = now;
    }
    windows
}

/// What kind of failure a [`CrashPlan`] injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashKind {
    /// The whole partition leader fails: in-memory state is wiped, the
    /// partition is unreachable for the outage, and a replacement replays
    /// the durable log (Fig 12b; §5.2).
    PartitionLoss,
    /// Only the coordinator role fails, at worker granularity: a one-shot
    /// trap is armed on the partition, and the next distributed commit it
    /// coordinates dies *between* the vote round and the decision — the
    /// classic 2PC in-doubt window. The partition itself stays up, so no
    /// recovery step runs; what happens to the stranded transaction is
    /// entirely down to the atomic-commit layer (blocks under classic 2PC,
    /// resolves from the durable vote set under Paxos Commit).
    Coordinator,
}

/// A scheduled failure injection (Fig 12b measures the resulting crash-abort
/// rate; §5.2 describes the recovery).
///
/// Both durations are clamped to the measurement window by the driver, and
/// teardown always recovers whatever is still crashed — a plan can never
/// leave a partition permanently down at experiment end, whatever its
/// timing.
#[derive(Debug, Clone, Copy)]
pub struct CrashPlan {
    /// Which partition fails (or, for [`CrashKind::Coordinator`], which
    /// partition's coordinator role is trapped).
    pub partition: PartitionId,
    /// When (after measurement starts).
    pub at: Duration,
    /// How long the leader stays down before the replacement starts its
    /// recovery (the replacement then replays the durable log, so the
    /// partition is unreachable for `recover_after` *plus* the replay time).
    /// Ignored for [`CrashKind::Coordinator`] — nothing goes down.
    pub recover_after: Duration,
    /// What fails.
    pub kind: CrashKind,
}

impl CrashPlan {
    /// A whole-partition leader crash followed by real recovery.
    pub fn partition_loss(partition: PartitionId, at: Duration, recover_after: Duration) -> Self {
        CrashPlan {
            partition,
            at,
            recover_after,
            kind: CrashKind::PartitionLoss,
        }
    }

    /// Arm a one-shot coordinator crash on `partition` at `at`: the next
    /// distributed commit that partition coordinates dies between its vote
    /// round and the decision.
    pub fn coordinator(partition: PartitionId, at: Duration) -> Self {
        CrashPlan {
            partition,
            at,
            recover_after: Duration::ZERO,
            kind: CrashKind::Coordinator,
        }
    }
}

/// Knobs for one experiment run.
#[derive(Debug, Clone)]
pub struct ExperimentOptions {
    pub warmup: Duration,
    pub duration: Duration,
    pub crash: Option<CrashPlan>,
    /// Extra one-way delay for control (watermark / epoch) messages sent by
    /// this partition — Fig 13a.
    pub lag_partition: Option<(PartitionId, u64)>,
    /// Extra per-transaction execution time on this partition — Fig 13b
    /// ("masked cores").
    pub slow_partition: Option<(PartitionId, u64)>,
    /// Periodic checkpoint interval. A base checkpoint is always taken after
    /// loading; `Some(iv)` additionally folds the durable log into a fresh
    /// image every `iv` (bounding both log growth and recovery replay).
    pub checkpoint_interval: Option<Duration>,
}

impl Default for ExperimentOptions {
    fn default() -> Self {
        ExperimentOptions {
            warmup: Duration::from_millis(200),
            duration: Duration::from_secs(1),
            crash: None,
            lag_partition: None,
            slow_partition: None,
            checkpoint_interval: None,
        }
    }
}

impl ExperimentOptions {
    pub fn quick() -> Self {
        ExperimentOptions {
            warmup: Duration::from_millis(50),
            duration: Duration::from_millis(300),
            ..Default::default()
        }
    }
}

/// Run one experiment on an existing, already-loaded cluster.
pub fn run_on_cluster(
    cluster: &Arc<Cluster>,
    protocol: Arc<dyn Protocol>,
    workload: Arc<dyn Workload>,
    options: &ExperimentOptions,
) -> MetricsSnapshot {
    let metrics = Arc::new(Metrics::new(&[metrics::ALL]));
    let record_recovery = |report: primo_recovery::RecoveryReport| {
        metrics.add(&metrics::RECOVERY_TIME_US, report.duration_us);
        metrics.add(&metrics::REPLAYED_TXNS, report.replayed_txns as u64);
    };
    let stop = Arc::new(AtomicBool::new(false));
    let recording = Arc::new(AtomicBool::new(false));

    if let Some((p, us)) = options.lag_partition {
        cluster.bus.set_extra_delay_from(p, us);
        cluster.net.set_extra_delay_us(p, us);
    }
    if let Some((p, us)) = options.slow_partition {
        cluster.partition(p).set_slowdown_us(us);
    }

    // Base checkpoints before any worker runs: the store is quiescent, and a
    // crash at any later point can always rebuild the loaded data.
    cluster.checkpoint_all();

    let handles = spawn_workers(cluster, &protocol, &workload, &metrics, &stop, &recording);

    // Periodic checkpointing folds the durable log into fresh images while
    // the measurement runs.
    let checkpointer = options.checkpoint_interval.map(|interval| {
        let cluster = Arc::clone(cluster);
        let stop = Arc::clone(&stop);
        std::thread::Builder::new()
            .name("checkpointer".into())
            .spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    std::thread::sleep(interval);
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    cluster.checkpoint_all();
                }
            })
            .expect("spawn checkpointer")
    });

    std::thread::sleep(options.warmup);
    recording.store(true, Ordering::SeqCst);
    let started = Instant::now();

    // The live timeline samples TPS / abort-rate / p99 in ~100 ms windows
    // for the whole measurement (crash dips and recovery ramps survive in
    // the series instead of being averaged away by the run-long totals).
    let sampler_stop = Arc::new(AtomicBool::new(false));
    let sampler = {
        let metrics = Arc::clone(&metrics);
        let stop = Arc::clone(&sampler_stop);
        std::thread::Builder::new()
            .name("timeline".into())
            .spawn(move || sample_timeline(&metrics, &stop))
            .expect("spawn timeline sampler")
    };

    // Crash injection runs on this driver thread so the timeline is exact.
    // Both the crash point and the outage are clamped to the measurement
    // window so the recovery always happens inside this function.
    let mut post_recovery: Option<(u64, Instant)> = None;
    match options.crash {
        Some(crash) if crash.kind == CrashKind::PartitionLoss => {
            let remaining = options.duration;
            let to_crash = crash.at.min(remaining);
            std::thread::sleep(to_crash);
            cluster.crash_partition(crash.partition);
            let outage = crash.recover_after.min(remaining.saturating_sub(to_crash));
            std::thread::sleep(outage);
            // Real recovery: wipe + checkpoint restore + durable-log replay.
            // The partition stays unreachable while it runs.
            if let Some(report) = cluster.recover_partition(crash.partition) {
                record_recovery(report);
            }
            post_recovery = Some((metrics.get(&txn::COMMITTED), Instant::now()));
            let rest = remaining.saturating_sub(to_crash + outage);
            std::thread::sleep(rest);
        }
        Some(crash) => {
            // Coordinator crash: arm the one-shot trap and let the workers
            // run on. The partition never goes down, so there is nothing to
            // recover — the atomic-commit layer decides the stranded
            // transaction's fate.
            let remaining = options.duration;
            let to_crash = crash.at.min(remaining);
            std::thread::sleep(to_crash);
            cluster.arm_coordinator_crash(crash.partition);
            std::thread::sleep(remaining.saturating_sub(to_crash));
        }
        None => std::thread::sleep(options.duration),
    }

    let elapsed = started.elapsed();
    if let Some((committed_at_recovery, at)) = post_recovery {
        let committed_after = metrics.get(&txn::COMMITTED) - committed_at_recovery;
        metrics.set(
            &metrics::POST_RECOVERY_TPS,
            ratio(committed_after as f64, at.elapsed().as_secs_f64()),
        );
    }
    recording.store(false, Ordering::SeqCst);
    sampler_stop.store(true, Ordering::SeqCst);
    let timeline = sampler.join().unwrap_or_default();
    stop.store(true, Ordering::SeqCst);
    for h in handles {
        let _ = h.join();
    }
    if let Some(h) = checkpointer {
        let _ = h.join();
    }
    // Teardown safety net: whatever is still crashed (a plan that out-lived
    // the window, a crash injected by a facade caller) is recovered now so
    // no experiment ever hands back a cluster with a dead partition.
    for p in cluster.crashed_partitions() {
        if let Some(report) = cluster.recover_partition(p) {
            record_recovery(report);
        }
    }
    metrics.set(
        &metrics::ROUND_TRIPS_PER_DIST_TXN,
        ratio(
            cluster.net.round_trips_charged() as f64,
            metrics.get(&txn::DIST_COMMITTED) as f64,
        ),
    );
    metrics.snapshot(
        elapsed.as_secs_f64(),
        &[cluster.collect_metrics()],
        timeline,
    )
}

/// Build a fresh cluster for `config`, load `workload` into it, run the
/// experiment and shut the cluster down.
pub fn run_experiment(
    config: ClusterConfig,
    protocol: Arc<dyn Protocol>,
    workload: Arc<dyn Workload>,
    options: &ExperimentOptions,
) -> MetricsSnapshot {
    let cluster = Cluster::new(config);
    for p in cluster.partition_ids() {
        workload.load_partition(&cluster.partition(p).store, p);
    }
    let snap = run_on_cluster(&cluster, protocol, workload, options);
    cluster.shutdown();
    snap
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::CommittedTxn;
    use crate::txn::{TxnContext, TxnProgram};
    use primo_common::{FastRng, Key, PhaseTimers, TableId, TxnId, TxnResult, Value};
    use primo_storage::PartitionStore;
    use primo_wal::TxnTicket;

    /// A protocol that simply installs a counter increment on the home
    /// partition — enough to exercise the whole driver pipeline.
    struct CounterProtocol;

    struct CounterCtx<'a> {
        cluster: &'a Cluster,
    }

    impl TxnContext for CounterCtx<'_> {
        fn read(&mut self, p: PartitionId, t: TableId, k: Key) -> TxnResult<Value> {
            Ok(self
                .cluster
                .partition(p)
                .store
                .get(t, k)
                .map(|r| r.read().value)
                .unwrap_or_else(|| Value::from_u64(0)))
        }
        fn write(&mut self, p: PartitionId, t: TableId, k: Key, v: Value) -> TxnResult<()> {
            self.cluster.partition(p).store.insert(t, k, v);
            Ok(())
        }

        fn insert(&mut self, p: PartitionId, t: TableId, k: Key, v: Value) -> TxnResult<()> {
            self.write(p, t, k, v)
        }

        fn delete(&mut self, p: PartitionId, t: TableId, k: Key) -> TxnResult<()> {
            self.cluster.partition(p).store.table(t).remove(k);
            Ok(())
        }
    }

    impl Protocol for CounterProtocol {
        fn name(&self) -> &'static str {
            "counter"
        }
        fn execute_once(
            &self,
            cluster: &Cluster,
            _txn: TxnId,
            program: &dyn TxnProgram,
            _ticket: &TxnTicket,
            _timers: &mut PhaseTimers,
            _fanout: &crate::prefetch::ReadFanout,
        ) -> TxnResult<CommittedTxn> {
            let mut ctx = CounterCtx { cluster };
            program.execute(&mut ctx)?;
            Ok(CommittedTxn {
                ts: 0,
                ops: 1,
                distributed: false,
            })
        }
    }

    struct CounterWorkload;
    struct CounterTxn {
        home: PartitionId,
        key: Key,
    }

    impl TxnProgram for CounterTxn {
        fn execute(&self, ctx: &mut dyn TxnContext) -> TxnResult<()> {
            let v = ctx.read(self.home, TableId(0), self.key)?;
            ctx.write(
                self.home,
                TableId(0),
                self.key,
                Value::from_u64(v.as_u64() + 1),
            )
        }
        fn home_partition(&self) -> PartitionId {
            self.home
        }
    }

    impl Workload for CounterWorkload {
        fn name(&self) -> &'static str {
            "counter"
        }
        fn load_partition(&self, store: &PartitionStore, _p: PartitionId) {
            for k in 0..16u64 {
                store.insert(TableId(0), k, Value::from_u64(0));
            }
        }
        fn generate(&self, rng: &mut FastRng, home: PartitionId) -> Box<dyn TxnProgram> {
            Box::new(CounterTxn {
                home,
                key: rng.next_below(16),
            })
        }
    }

    #[test]
    fn experiment_driver_produces_throughput() {
        let snap = run_experiment(
            ClusterConfig::for_tests(2),
            Arc::new(CounterProtocol),
            Arc::new(CounterWorkload),
            &ExperimentOptions::quick(),
        );
        assert!(snap.committed > 0, "no transactions committed");
        assert!(snap.throughput_tps > 0.0);
        assert!(snap.mean_latency_ms >= 0.0);
    }

    #[test]
    fn crash_plan_is_survivable() {
        let opts = ExperimentOptions {
            warmup: Duration::from_millis(20),
            duration: Duration::from_millis(300),
            crash: Some(CrashPlan::partition_loss(
                PartitionId(1),
                Duration::from_millis(100),
                Duration::from_millis(50),
            )),
            ..Default::default()
        };
        let snap = run_experiment(
            ClusterConfig::for_tests(2),
            Arc::new(CounterProtocol),
            Arc::new(CounterWorkload),
            &opts,
        );
        assert!(snap.committed > 0);
        assert!(
            snap.get(&metrics::RECOVERY_TIME_US) > 0,
            "real recovery ran"
        );
        assert!(
            snap.get(&metrics::POST_RECOVERY_TPS) > 0.0,
            "throughput resumed after it"
        );
    }

    #[test]
    fn overlong_recover_after_cannot_leave_the_partition_crashed() {
        // recover_after extends far past the measurement window: the driver
        // clamps it, recovery still runs, and the cluster comes back with no
        // crashed partition.
        let cluster = Cluster::new(ClusterConfig::for_tests(2));
        let workload = CounterWorkload;
        for p in cluster.partition_ids() {
            crate::txn::Workload::load_partition(&workload, &cluster.partition(p).store, p);
        }
        let opts = ExperimentOptions {
            warmup: Duration::from_millis(10),
            duration: Duration::from_millis(120),
            crash: Some(CrashPlan::partition_loss(
                PartitionId(1),
                Duration::from_millis(40),
                Duration::from_secs(3600),
            )),
            ..Default::default()
        };
        let snap = run_on_cluster(
            &cluster,
            Arc::new(CounterProtocol),
            Arc::new(CounterWorkload),
            &opts,
        );
        assert!(snap.get(&metrics::RECOVERY_TIME_US) > 0);
        assert!(
            cluster.crashed_partitions().is_empty(),
            "no partition may stay crashed at experiment end"
        );
        cluster.shutdown();
    }

    #[test]
    fn round_trips_per_dist_txn_is_zero_without_distributed_commits() {
        let cluster = Cluster::new(ClusterConfig::for_tests(2));
        for p in cluster.partition_ids() {
            crate::txn::Workload::load_partition(&CounterWorkload, &cluster.partition(p).store, p);
        }
        // A charged round trip, but no distributed commit to divide it by.
        cluster.net.round_trip(PartitionId(0), PartitionId(1));
        let snap = run_on_cluster(
            &cluster,
            Arc::new(CounterProtocol),
            Arc::new(CounterWorkload),
            &ExperimentOptions::quick(),
        );
        assert!(snap.committed > 0);
        assert_eq!(snap.get(&txn::DIST_COMMITTED), 0);
        assert!(snap.get(&crate::cluster::metrics::ROUND_TRIPS) > 0.0);
        assert_eq!(snap.get(&metrics::ROUND_TRIPS_PER_DIST_TXN), 0.0);
        let json = snap.to_json().render();
        assert!(!json.contains("NaN") && !json.contains(": inf"), "{json}");
        cluster.shutdown();
    }

    #[test]
    fn periodic_checkpoints_run_during_the_experiment() {
        let cluster = Cluster::new(ClusterConfig::for_tests(1));
        let workload = CounterWorkload;
        for p in cluster.partition_ids() {
            crate::txn::Workload::load_partition(&workload, &cluster.partition(p).store, p);
        }
        let opts = ExperimentOptions {
            warmup: Duration::from_millis(10),
            duration: Duration::from_millis(150),
            checkpoint_interval: Some(Duration::from_millis(30)),
            ..Default::default()
        };
        let snap = run_on_cluster(
            &cluster,
            Arc::new(CounterProtocol),
            Arc::new(CounterWorkload),
            &opts,
        );
        assert!(snap.committed > 0);
        // Base checkpoint + at least one periodic fold.
        let image = cluster
            .partition(PartitionId(0))
            .log
            .full_view()
            .rfind_map(|e| match e.payload.as_ref() {
                primo_wal::LogPayload::Checkpoint { image } => Some(Arc::clone(image)),
                _ => None,
            })
            .expect("checkpoints were written");
        assert!(image.len() >= 16, "base image covers the loaded keys");
        cluster.shutdown();
    }
}
