//! End-to-end and per-layer benchmark of the Primo reproduction.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload ycsb-remote --seed 1 --seconds 16 --trace 0
//! ```
//!
//! A run is `--seconds` one-second rounds. Each round builds a fresh
//! 2-partition cluster (one worker per partition, log replication factor 3,
//! default 100 µs network, 20 ms watermark / epoch interval: the settings
//! `primo_repro::Experiment` picks), loads the workload, runs the closed-loop
//! workers for a warm-up plus one measured second, and checks the store.
//! Fresh rounds matter: which of two latency regimes the watermark settles
//! into is drawn anew each time the workers start, so one long window would
//! report one draw. Figures are medians over the rounds the host did not
//! starve (see [`quiet_rounds`]).
//!
//! `--trace 0` runs every round untraced and prints the end-to-end metrics.
//! `--trace 1` alternates untraced and traced rounds, prints the per-layer
//! metrics (medians over the traced rounds), writes the traced spans under
//! `perfbench/out/`, and runs the self-test. The last line of standard output
//! is one JSON object.
//!
//! The workloads, the metrics and which end-to-end metric each layer metric
//! should move are listed in `perfbench/README.md`.

mod check;
mod probe;

use primo_repro::common::Histogram;
use primo_repro::runtime::{run_on_cluster, Cluster, ExperimentOptions};
use primo_repro::workloads::ycsb::YcsbConfig;
use primo_repro::{
    AbortReason, ClusterConfig, CommitMode, LoggingScheme, MetricsSnapshot, Phase, Protocol,
    ProtocolKind, ProtocolRegistry, TpccConfig, TpccWorkload, Workload, YcsbWorkload,
};
use probe::{Probe, ProbedProtocol, ProbedWorkload, Span, ABORT_KINDS, ABORT_OTHER};
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const PARTITIONS: usize = 2;
const WORKERS_PER_PARTITION: usize = 1;
const REPLICATION_FACTOR: usize = 3;
const WAL_INTERVAL_MS: u64 = 20;
const YCSB_KEYS_PER_PARTITION: u64 = 200_000;
const WARMUP: Duration = Duration::from_millis(300);
const ROUND: Duration = Duration::from_secs(1);
/// A round phase that lost more than this share of the host's CPU time to
/// other tenants is noisy; see [`quiet_rounds`].
const QUIET_STEAL_SHARE: f64 = 0.02;
/// `/proc/stat` counts in USER_HZ ticks, 100 per second on Linux.
const STEAL_TICKS_PER_SEC: f64 = 100.0;
/// `charge_latency_us` spins for delays up to this and sleeps above it.
const SPIN_LIMIT_US: u64 = 200;
/// Self-test tolerance: traced time plus the runtime's own group-commit
/// `return` phase must match the runtime's mean commit latency this closely.
const SUM_TOLERANCE: f64 = 0.01;
/// Self-test bound on remote reads per transaction for the workload chosen
/// to bypass the network (TPC-C measures ~0.06: 1 % remote stock lines and
/// 15 % remote payments, about half of whose warehouses sit on the other
/// partition); the YCSB pair makes ~5.
const LOCAL_WORKLOAD_MAX_REMOTE_READS: f64 = 0.25;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Spec {
    YcsbRemote,
    YcsbRemoteSundial,
    TpccMix,
}

impl Spec {
    const ALL: [Spec; 3] = [Spec::YcsbRemote, Spec::YcsbRemoteSundial, Spec::TpccMix];

    fn name(self) -> &'static str {
        match self {
            Spec::YcsbRemote => "ycsb-remote",
            Spec::YcsbRemoteSundial => "ycsb-remote-sundial",
            Spec::TpccMix => "tpcc-mix",
        }
    }

    fn protocol(self) -> ProtocolKind {
        match self {
            Spec::YcsbRemote | Spec::TpccMix => ProtocolKind::Primo,
            Spec::YcsbRemoteSundial => ProtocolKind::Sundial,
        }
    }

    /// The registry pairing, with Sundial deciding through Paxos Commit (a
    /// fault-tolerant 2PC is the comparison the paper's claim needs).
    fn registry(self) -> ProtocolRegistry {
        ProtocolRegistry::standard()
            .with_commit_mode(ProtocolKind::Sundial, CommitMode::PaxosCommit)
    }

    fn config(self) -> WorkloadConfig {
        match self {
            Spec::YcsbRemote | Spec::YcsbRemoteSundial => WorkloadConfig::Ycsb(YcsbConfig {
                distributed_ratio: 1.0,
                remote_op_ratio: 0.5,
                ..YcsbConfig::paper_default(PARTITIONS, YCSB_KEYS_PER_PARTITION)
            }),
            Spec::TpccMix => WorkloadConfig::Tpcc(TpccConfig::full_mix(PARTITIONS)),
        }
    }

    fn cluster_config(self, seed: u64) -> ClusterConfig {
        let registry = self.registry();
        let mut cfg = ClusterConfig {
            num_partitions: PARTITIONS,
            workers_per_partition: WORKERS_PER_PARTITION,
            seed,
            ..ClusterConfig::default()
        };
        cfg.wal.scheme = registry.logging_scheme_for(self.protocol());
        cfg.wal.interval_ms = WAL_INTERVAL_MS;
        cfg.wal.replication_factor = REPLICATION_FACTOR;
        cfg.commit_mode = registry.commit_mode_for(self.protocol());
        cfg
    }
}

enum WorkloadConfig {
    Ycsb(YcsbConfig),
    Tpcc(TpccConfig),
}

impl WorkloadConfig {
    fn build(&self) -> Arc<dyn Workload> {
        match self {
            WorkloadConfig::Ycsb(c) => Arc::new(YcsbWorkload::new(c.clone())),
            WorkloadConfig::Tpcc(c) => Arc::new(TpccWorkload::new(c.clone())),
        }
    }

    /// Check the store against what the round's workers committed.
    fn check(&self, cluster: &Cluster, probe: &Probe) -> Result<(), String> {
        match self {
            WorkloadConfig::Ycsb(c) => check::ycsb_counters(
                cluster,
                c.keys_per_partition,
                probe.ok_writes.load(Ordering::Relaxed),
            ),
            WorkloadConfig::Tpcc(c) => check::tpcc_consistency(cluster, c),
        }
    }
}

struct Args {
    spec: Spec,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut spec = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                spec = Some(
                    Spec::ALL
                        .into_iter()
                        .find(|s| s.name() == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|s| (2..=120).contains(s))
                        .ok_or_else(|| format!("bad --seconds {value:?} (2..=120)"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?} (0 or 1)")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        spec: spec.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(16),
        trace: trace.unwrap_or(false),
    })
}

/// What one round measured.
struct Round {
    traced: bool,
    snap: MetricsSnapshot,
    setup_s: f64,
    threads: usize,
    /// CPU time the hypervisor gave to other tenants during set-up and
    /// during the measured window, in 1/100 s ticks summed over all CPUs.
    setup_steal: u64,
    window_steal: u64,
    latencies_us: Vec<u64>,
    checked: Result<(), String>,
    /// Per-layer metrics (traced rounds only).
    layers: Vec<Metric>,
    spans: Vec<Span>,
}

/// Build a cluster, load it, run one measured round and check the store.
fn run_round(spec: Spec, seed: u64, traced: bool) -> Round {
    let config = spec.config();
    let started = Instant::now();
    let steal_at_start = steal_ticks();
    let cfg = spec.cluster_config(seed);
    let epoch_keyed = match cfg.wal.scheme {
        LoggingScheme::CocoEpoch => true,
        LoggingScheme::Watermark => false,
        other => panic!("no durable-release model for the {other:?} scheme"),
    };
    let cluster = Cluster::new(cfg);
    let probe = Probe::new(
        Arc::clone(&cluster),
        epoch_keyed,
        seed,
        traced,
        WARMUP,
        ROUND,
    );
    let workload = Arc::new(ProbedWorkload {
        inner: config.build(),
        probe: Arc::clone(&probe),
    });
    for p in cluster.partition_ids() {
        workload.load_partition(&cluster.partition(p).store, p);
    }
    let protocol: Arc<dyn Protocol> = Arc::new(ProbedProtocol {
        inner: spec.registry().build(spec.protocol()),
        probe: Arc::clone(&probe),
    });

    let monitor = {
        let probe = Arc::clone(&probe);
        std::thread::Builder::new()
            .name("round-monitor".into())
            .spawn(move || watch_window(&probe))
            .expect("spawn the round monitor")
    };
    let snap = run_on_cluster(
        &cluster,
        protocol,
        workload,
        &ExperimentOptions {
            warmup: WARMUP,
            duration: ROUND,
            ..ExperimentOptions::default()
        },
    );
    let watch = monitor.join().expect("round monitor panicked");
    let first = *probe
        .first_generate
        .get()
        .expect("the workers generated at least one transaction");

    let checked = config.check(&cluster, &probe);
    let layers = if traced {
        layer_metrics(&cluster, &probe, &snap)
    } else {
        Vec::new()
    };
    cluster.shutdown();
    let mut latencies_us = std::mem::take(
        &mut *probe
            .latencies_us
            .lock()
            .expect("latency buffer lock poisoned"),
    );
    latencies_us.sort_unstable();
    let spans = std::mem::take(&mut *probe.spans.lock().expect("span buffer lock poisoned"));
    Round {
        traced,
        snap,
        setup_s: first.duration_since(started).as_secs_f64(),
        threads: watch.threads,
        setup_steal: watch.steal_at_first_generate.saturating_sub(steal_at_start),
        window_steal: watch.window_steal,
        latencies_us,
        checked,
        layers,
        spans,
    }
}

/// Host-wide stolen CPU ticks so far (`steal` column of `/proc/stat`); 0
/// where the kernel does not report it.
fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| s.lines().next()?.split_whitespace().nth(8)?.parse().ok())
        .unwrap_or(0)
}

/// What the round monitor saw.
#[derive(Default)]
struct Watch {
    threads: usize,
    steal_at_first_generate: u64,
    window_steal: u64,
}

/// Follow a round from outside: the stolen CPU time up to the first
/// `generate` and over the measured window, and this process's thread count
/// half-way through the window.
fn watch_window(probe: &Probe) -> Watch {
    let give_up = Instant::now() + Duration::from_secs(60);
    let first = loop {
        if let Some(t) = probe.first_generate.get() {
            break *t;
        }
        if Instant::now() > give_up {
            return Watch::default();
        }
        std::thread::sleep(Duration::from_millis(1));
    };
    let steal_at_first_generate = steal_ticks();
    let sleep_until = |t: Instant| std::thread::sleep(t.saturating_duration_since(Instant::now()));
    sleep_until(first + WARMUP);
    let steal_start = steal_ticks();
    sleep_until(first + WARMUP + ROUND / 2);
    let threads = std::fs::read_dir("/proc/self/task").map_or(0, |d| d.count());
    sleep_until(first + WARMUP + ROUND);
    Watch {
        threads,
        steal_at_first_generate,
        window_steal: steal_ticks().saturating_sub(steal_start),
    }
}

/// Share of this host's CPU time over `secs` that `ticks` of steal are.
fn steal_share(ticks: u64, secs: f64) -> f64 {
    ticks as f64 / (STEAL_TICKS_PER_SEC * nproc() as f64 * secs.max(f64::EPSILON))
}

fn window_steal_share(r: &Round) -> f64 {
    steal_share(r.window_steal, ROUND.as_secs_f64())
}

fn setup_steal_share(r: &Round) -> f64 {
    steal_share(r.setup_steal, r.setup_s)
}

/// The rounds a figure comes from: every round that lost at most
/// [`QUIET_STEAL_SHARE`] of the CPU to other tenants over the phase the
/// figure measures, or, when fewer than half did, the half that lost least.
/// A round the host starved measures the host, not the program.
fn quiet_rounds<'a>(
    rounds: impl Iterator<Item = &'a Round>,
    share: fn(&Round) -> f64,
) -> Vec<&'a Round> {
    let mut all: Vec<&Round> = rounds.collect();
    let quiet = all.iter().filter(|r| share(r) <= QUIET_STEAL_SHARE).count();
    all.sort_by(|a, b| share(a).total_cmp(&share(b)));
    all.truncate(quiet.max(all.len().div_ceil(2)));
    all
}

/// Quantile of sorted samples by linear interpolation between ranks.
fn quantile(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] as f64 + (sorted[hi] as f64 - sorted[lo] as f64) * frac
}

fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => values[n / 2],
        _ => (values[n / 2 - 1] + values[n / 2]) / 2.0,
    }
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn workers() -> usize {
    PARTITIONS * WORKERS_PER_PARTITION
}

/// Host and model facts every result depends on.
fn host_facts(args: &Args, rounds: &[Round]) -> String {
    let threads = median(rounds.iter().map(|r| r.threads as f64).collect()) as usize;
    // Background = every thread but the workers and the round monitor:
    // watermark agents / COCO epoch manager, WAL replication pumps, the
    // control-bus pump, the timeline sampler and the main thread running
    // the experiment.
    format!(
        "nproc={} workers={} threads={threads} background_threads={} seed={} \
         clock=spin<={SPIN_LIMIT_US}us,sleep>{SPIN_LIMIT_US}us net=100us+-10us rf={REPLICATION_FACTOR} \
         interval_ms={WAL_INTERVAL_MS} rounds={} warmup_ms={} round_ms={} window_steal_ticks={}",
        nproc(),
        workers(),
        threads.saturating_sub(workers() + 1),
        args.seed,
        rounds.len(),
        WARMUP.as_millis(),
        ROUND.as_millis(),
        rounds.iter().map(|r| r.window_steal).sum::<u64>(),
    )
}

/// A reported figure: name, value, unit.
type Metric = (&'static str, f64, &'static str);

/// The last line of output: one JSON object.
fn emit(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            assert!(value.is_finite(), "metric {name} is not finite: {value}");
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    std::io::stdout().flush().expect("flush stdout");
}

/// Transactions started in the measured windows and those that did not
/// commit: abandoned (non-retryable abort) or crash-aborted at group commit.
fn attempted_failed<'a>(rounds: impl Iterator<Item = &'a Round>) -> (u64, u64) {
    rounds.fold((0, 0), |(a, f), r| {
        let failed = r.snap.abandoned + r.snap.aborts_for(AbortReason::CrashAbort);
        (a + r.snap.committed + failed, f + failed)
    })
}

/// Median over rounds of a per-round figure: a burst of load from outside
/// the benchmark spoils a few rounds, not the run's figure.
fn median_of(rounds: &[&Round], f: impl Fn(&Round) -> f64) -> f64 {
    median(rounds.iter().map(|r| f(r)).collect())
}

fn tps(r: &Round) -> f64 {
    r.snap.throughput_tps
}

fn latency_ms(r: &Round, q: f64) -> f64 {
    quantile(&r.latencies_us, q) / 1000.0
}

/// Print check failures; true when every round passed.
fn report_checks(rounds: &[Round]) -> bool {
    let mut ok = true;
    for (i, r) in rounds.iter().enumerate() {
        if let Err(e) = &r.checked {
            println!("CHECK FAILED (round {i}): {e}");
            ok = false;
        }
    }
    ok
}

/// One line per round; `*` marks the rounds the window figures come from,
/// `+` those `setup_s` comes from.
fn print_rounds(rounds: &[Round], used: &[&Round], setup_used: &[&Round]) {
    let mark = |set: &[&Round], r: &Round, c| {
        if set.iter().any(|u| std::ptr::eq(*u, r)) {
            c
        } else {
            ""
        }
    };
    for (i, r) in rounds.iter().enumerate() {
        println!(
            "round {i}{}{}: traced={} steal_ticks={}/{} tps={:.1} p50_ms={:.3} p99_ms={:.3} setup_s={:.4}",
            mark(used, r, "*"),
            mark(setup_used, r, "+"),
            r.traced,
            r.setup_steal,
            r.window_steal,
            tps(r),
            latency_ms(r, 0.5),
            latency_ms(r, 0.99),
            r.setup_s,
        );
    }
}

fn round_seed(seed: u64, round: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ round
}

fn end_to_end(args: &Args) -> i32 {
    let rounds: Vec<Round> = (0..args.seconds)
        .map(|r| run_round(args.spec, round_seed(args.seed, r), false))
        .collect();
    let (attempted, failed) = attempted_failed(rounds.iter());
    let committed: u64 = rounds.iter().map(|r| r.snap.committed).sum();
    let samples: usize = rounds.iter().map(|r| r.latencies_us.len()).sum();
    let fewest = rounds
        .iter()
        .map(|r| r.latencies_us.len())
        .min()
        .unwrap_or(0);
    let mean_ms = rounds
        .iter()
        .map(|r| r.latencies_us.iter().sum::<u64>())
        .sum::<u64>() as f64
        / samples.max(1) as f64
        / 1000.0;
    let runtime_mean_ms = rounds
        .iter()
        .map(|r| r.snap.mean_latency_ms * r.snap.committed as f64)
        .sum::<f64>()
        / committed.max(1) as f64;

    println!("host: {}", host_facts(args, &rounds));
    println!(
        "workload={} protocol={} committed={committed} failed_frac={} (failed {failed} of {attempted})",
        args.spec.name(),
        args.spec.protocol().label(),
        failed as f64 / attempted.max(1) as f64,
    );
    println!(
        "latency: {samples} samples (runtime counted {committed} commits), at least {} above \
         each round's p99; mean {mean_ms:.4} ms (runtime mean {runtime_mean_ms:.4} ms)",
        fewest / 100,
    );
    let quiet = quiet_rounds(rounds.iter(), window_steal_share);
    let quiet_setup = quiet_rounds(rounds.iter(), setup_steal_share);
    print_rounds(&rounds, &quiet, &quiet_setup);
    let correct = report_checks(&rounds);
    let metrics = [
        ("tps", median_of(&quiet, tps), "1/s"),
        ("p50_ms", median_of(&quiet, |r| latency_ms(r, 0.5)), "ms"),
        ("p99_ms", median_of(&quiet, |r| latency_ms(r, 0.99)), "ms"),
        ("setup_s", median_of(&quiet_setup, |r| r.setup_s), "s"),
        ("peak_rss_mb", peak_rss_mb(), "MB"),
    ];
    for (name, value, unit) in &metrics {
        println!("metric {name} = {value} {unit}");
    }
    emit(correct, attempted, failed, &metrics);
    i32::from(!correct)
}

/// One traced round's per-layer metrics, in output order (all but
/// `trace.overhead_frac`, which compares rounds). `perfbench/README.md`
/// lists which end-to-end metric each should move, and on which workload.
fn layer_metrics(cluster: &Cluster, probe: &Probe, snap: &MetricsSnapshot) -> Vec<Metric> {
    let ly = &probe.layers;
    let load = |a: &AtomicU64| a.load(Ordering::Relaxed) as f64;
    let per = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let p = |h: &Histogram, q: f64| h.percentile_us(q) as f64;
    let committed = load(&ly.committed);
    let protocol_committed = committed - load(&ly.snapshot_committed);
    // Cluster counters cover the whole round, so they are divided by
    // whole-round transaction counts.
    let round_dist = load(&probe.dist_commits);
    let traced_ms = per(
        load(&ly.fanout_ns) + load(&ly.attempt_ns) + load(&ly.backoff_ns) + load(&ly.snapshot_ns),
        committed,
    ) / 1e6;
    let mean = snap.mean_latency_ms;
    let records: usize = cluster
        .partition_ids()
        .into_iter()
        .map(|id| cluster.partition(id).store.total_records())
        .sum();

    let mut v = vec![
        ("workloads.generate_us.p50", p(&ly.generate_us, 0.5), "us"),
        ("workloads.generate_us.p99", p(&ly.generate_us, 0.99), "us"),
        ("workloads.load_s", load(&probe.load_ns) / 1e9, "s"),
        ("storage.records_end", records as f64, "count"),
        ("prefetch.fanout_us.p50", p(&ly.fanout_us, 0.5), "us"),
        ("prefetch.fanout_us.p99", p(&ly.fanout_us, 0.99), "us"),
        ("prefetch.hit_rate", cluster.prefetch_hit_rate(), "ratio"),
        (
            "net.round_trips_per_dist_txn",
            per(cluster.net.round_trips_charged() as f64, round_dist),
            "1/txn",
        ),
        (
            "net.messages_per_txn",
            per(cluster.net.messages_sent() as f64, load(&probe.finished)),
            "1/txn",
        ),
        ("protocol.attempt_us.p50", p(&ly.attempt_us, 0.5), "us"),
        ("protocol.attempt_us.p99", p(&ly.attempt_us, 0.99), "us"),
        ("protocol.body_us.p50", p(&ly.body_us, 0.5), "us"),
        ("protocol.install_us.p50", p(&ly.install_us, 0.5), "us"),
        ("protocol.install_us.p99", p(&ly.install_us, 0.99), "us"),
        (
            "protocol.commit_ratio",
            per(load(&ly.ok_attempts), load(&ly.attempts)),
            "ratio",
        ),
        (
            "protocol.busy_frac",
            per(
                load(&ly.busy_ns) / 1e9,
                ROUND.as_secs_f64() * workers() as f64,
            ),
            "ratio",
        ),
    ];
    let aborts = ABORT_KINDS
        .iter()
        .map(|(_, name)| *name)
        .chain([ABORT_OTHER]);
    for (count, name) in ly.aborts.iter().zip(aborts) {
        v.push((name, per(load(count), committed), "1/txn"));
    }
    v.extend([
        ("access.read_local_us.p50", p(&ly.read_local_us, 0.5), "us"),
        ("access.read_local_us.p99", p(&ly.read_local_us, 0.99), "us"),
        (
            "access.read_remote_us.p50",
            p(&ly.read_remote_us, 0.5),
            "us",
        ),
        (
            "access.read_remote_us.p99",
            p(&ly.read_remote_us, 0.99),
            "us",
        ),
        ("access.write_us.p50", p(&ly.write_us, 0.5), "us"),
        (
            "access.reads_per_txn",
            per(load(&ly.reads), committed),
            "1/txn",
        ),
        (
            "access.remote_reads_per_txn",
            per(load(&ly.remote_reads), committed),
            "1/txn",
        ),
        ("snapshot.exec_us.p50", p(&ly.snapshot_us, 0.5), "us"),
        ("snapshot.exec_us.p99", p(&ly.snapshot_us, 0.99), "us"),
        (
            "snapshot.share",
            per(load(&ly.snapshot_committed), committed),
            "ratio",
        ),
        (
            "commit.decide_mean_us",
            cluster.commit_decide_mean_us(),
            "us",
        ),
        (
            "commit.decide_p99_us",
            cluster.commit_decide_p99_us() as f64,
            "us",
        ),
        (
            "commit.decisions_per_dist_txn",
            per(cluster.commit_decisions() as f64, round_dist),
            "1/txn",
        ),
        ("wal.return_ms", mean - traced_ms, "ms"),
        (
            "wal.append_wait_us_per_txn",
            per(
                cluster.wal_append_wait_us() as f64,
                load(&probe.protocol_commits),
            ),
            "us/txn",
        ),
        (
            "wal.replication_batch_len",
            cluster.replication_batch_len(),
            "entries",
        ),
        (
            "wal.replication_lag_us",
            cluster.replication_lag_us() as f64,
            "us",
        ),
        (
            "worker.attempts_per_txn",
            per(load(&ly.attempts), protocol_committed),
            "1/txn",
        ),
        (
            "worker.backoff_ms_per_txn",
            per(load(&ly.backoff_ns), committed) / 1e6,
            "ms",
        ),
        // The runtime times the group-commit wait itself (`return` phase);
        // the traced layers must account for the rest of the mean latency.
        (
            "selftest.sum_error_frac",
            per(traced_ms + snap.phase(Phase::Return) - mean, mean).abs(),
            "ratio",
        ),
    ]);
    v
}

fn value(metrics: &[Metric], name: &str) -> f64 {
    metrics
        .iter()
        .find(|(n, _, _)| *n == name)
        .map(|(_, v, _)| *v)
        .unwrap_or_else(|| panic!("per-layer metric {name} is not computed"))
}

fn per_layer(args: &Args) -> i32 {
    // Untraced and traced rounds alternate in ABBA order, so a drift in the
    // host's speed lands on both sides of the overhead ratio.
    let rounds: Vec<Round> = (0..args.seconds)
        .map(|r| run_round(args.spec, round_seed(args.seed, r), matches!(r % 4, 1 | 2)))
        .collect();
    let traced = quiet_rounds(rounds.iter().filter(|r| r.traced), window_steal_share);
    let untraced = quiet_rounds(rounds.iter().filter(|r| !r.traced), window_steal_share);
    println!("host: {}", host_facts(args, &rounds));
    print_rounds(
        &rounds,
        &[traced.as_slice(), untraced.as_slice()].concat(),
        &[],
    );

    // Every traced round lists the same metrics in the same order.
    let mut metrics: Vec<Metric> = traced[0]
        .layers
        .iter()
        .enumerate()
        .map(|(i, (name, _, unit))| (*name, median_of(&traced, |r| r.layers[i].1), *unit))
        .collect();
    let untraced_tps = median_of(&untraced, tps);
    let overhead = if untraced_tps > 0.0 {
        1.0 - median_of(&traced, tps) / untraced_tps
    } else {
        0.0
    };
    metrics.push(("trace.overhead_frac", overhead, "ratio"));
    for (name, value, unit) in &metrics {
        println!("metric {name} = {value} {unit}");
    }

    // Self-test: the traced layers plus the runtime's group-commit wait
    // account for the commit latency, and each workload bypasses the layers
    // it was chosen to bypass.
    let mut failures = Vec::new();
    let sum_error = value(&metrics, "selftest.sum_error_frac");
    println!(
        "selftest sum: traced time + runtime return phase is off the runtime mean latency \
         by {:.3}% (tolerance {:.0}%)",
        sum_error * 100.0,
        SUM_TOLERANCE * 100.0
    );
    if sum_error > SUM_TOLERANCE {
        failures.push(format!("layer sum off by {:.2}%", sum_error * 100.0));
    }
    let decisions = value(&metrics, "commit.decisions_per_dist_txn");
    match args.spec.protocol() {
        ProtocolKind::Primo if decisions != 0.0 => failures.push(format!(
            "Primo made {decisions} commit decisions per distributed txn"
        )),
        ProtocolKind::Sundial if decisions == 0.0 => {
            failures.push("Sundial made no commit decisions".to_string())
        }
        _ => {}
    }
    let remote_reads = value(&metrics, "access.remote_reads_per_txn");
    let local_workload = args.spec == Spec::TpccMix;
    if local_workload != (remote_reads <= LOCAL_WORKLOAD_MAX_REMOTE_READS) {
        failures.push(format!(
            "{} made {remote_reads} remote reads per txn",
            args.spec.name()
        ));
    }
    println!(
        "selftest: {}",
        if failures.is_empty() {
            "ok".to_string()
        } else {
            format!("FAILED: {}", failures.join("; "))
        }
    );
    println!("spans: {}", write_spans(args, &rounds));

    let correct = report_checks(&rounds) && failures.is_empty();
    let (attempted, failed) = attempted_failed(rounds.iter());
    emit(correct, attempted, failed, &metrics);
    i32::from(!correct)
}

/// Write the traced rounds' spans as tab-separated lines, one span each.
fn write_spans(args: &Args, rounds: &[Round]) -> String {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    // One file per workload, overwritten by its next traced run.
    let path = dir.join(format!("{}.spans.tsv", args.spec.name()));
    let write = || -> std::io::Result<usize> {
        std::fs::create_dir_all(&dir)?;
        let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
        writeln!(
            out,
            "# workload={} {}",
            args.spec.name(),
            host_facts(args, rounds)
        )?;
        writeln!(out, "round\ttxn\tid\tparent\tname\tstart_ns\tend_ns")?;
        let mut n = 0;
        for (i, r) in rounds.iter().enumerate() {
            for s in &r.spans {
                writeln!(
                    out,
                    "{i}\t{}\t{}\t{}\t{}\t{}\t{}",
                    s.txn, s.id, s.parent, s.name, s.start_ns, s.end_ns
                )?;
                n += 1;
            }
        }
        out.flush()?;
        Ok(n)
    };
    match write() {
        Ok(n) => format!("{n} spans -> {}", path.display()),
        Err(e) => format!("spans not written: {e}"),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "error: {e}\nusage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
                Spec::ALL.map(Spec::name).join("|")
            );
            std::process::exit(2);
        }
    };
    let code = if args.trace {
        per_layer(&args)
    } else {
        end_to_end(&args)
    };
    std::process::exit(code);
}
