//! Experiment metrics: latency histograms and the typed metrics registry
//! every layer records into (counters, gauges, histograms), its snapshot
//! and its JSON serializer.

use crate::error::AbortReason;
use crate::phase::{Phase, PhaseTimers};
use std::collections::HashSet;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// A log-scale latency histogram (microsecond resolution, ~4% relative error)
/// supporting percentile queries. Cheap enough to update on every commit.
#[derive(Debug)]
pub struct Histogram {
    /// buckets[i] counts samples whose value rounds into bucket i.
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum_us: AtomicU64,
    max_us: AtomicU64,
}

const BUCKETS_PER_OCTAVE: usize = 16;
const NUM_OCTAVES: usize = 40; // covers up to ~2^40 us

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    pub fn new() -> Self {
        let n = BUCKETS_PER_OCTAVE * NUM_OCTAVES;
        let mut buckets = Vec::with_capacity(n);
        for _ in 0..n {
            buckets.push(AtomicU64::new(0));
        }
        Histogram {
            buckets,
            count: AtomicU64::new(0),
            sum_us: AtomicU64::new(0),
            max_us: AtomicU64::new(0),
        }
    }

    fn bucket_index(us: u64) -> usize {
        if us < 2 {
            return us as usize;
        }
        let octave = 63 - us.leading_zeros() as usize; // floor(log2(us))
        let base = 1u64 << octave;
        let frac = ((us - base) * BUCKETS_PER_OCTAVE as u64 / base) as usize;
        (octave * BUCKETS_PER_OCTAVE + frac).min(BUCKETS_PER_OCTAVE * NUM_OCTAVES - 1)
    }

    fn bucket_value(idx: usize) -> u64 {
        if idx < 2 {
            return idx as u64;
        }
        let octave = idx / BUCKETS_PER_OCTAVE;
        let frac = idx % BUCKETS_PER_OCTAVE;
        let base = 1u64 << octave;
        base + base * frac as u64 / BUCKETS_PER_OCTAVE as u64
    }

    pub fn record_us(&self, us: u64) {
        self.buckets[Self::bucket_index(us)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
        self.max_us.fetch_max(us, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    pub fn mean_us(&self) -> f64 {
        let c = self.count();
        if c == 0 {
            0.0
        } else {
            self.sum_us.load(Ordering::Relaxed) as f64 / c as f64
        }
    }

    pub fn max_us(&self) -> u64 {
        self.max_us.load(Ordering::Relaxed)
    }

    /// Latency at the given percentile (0.0–1.0).
    pub fn percentile_us(&self, q: f64) -> u64 {
        // One consistent cut of the buckets: a total read separately from
        // them races with concurrent recorders and skews the target rank.
        let counts = self.counts().buckets;
        let total = counts.iter().sum();
        quantile_bucket(counts.into_iter(), total, q).unwrap_or(0)
    }

    /// A point-in-time copy of the bucket counters, for windowed percentile
    /// queries over a *delta* of a live histogram (the metrics timeline
    /// samples this every window and diffs consecutive snapshots).
    pub fn counts(&self) -> HistogramCounts {
        HistogramCounts {
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
        }
    }

    /// Merge another histogram into this one.
    pub fn merge(&self, other: &Histogram) {
        for (a, b) in self.buckets.iter().zip(other.buckets.iter()) {
            a.fetch_add(b.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        self.count
            .fetch_add(other.count.load(Ordering::Relaxed), Ordering::Relaxed);
        self.sum_us
            .fetch_add(other.sum_us.load(Ordering::Relaxed), Ordering::Relaxed);
        self.max_us
            .fetch_max(other.max_us.load(Ordering::Relaxed), Ordering::Relaxed);
    }
}

/// Frozen bucket counters of a [`Histogram`] at one instant.
#[derive(Debug, Clone)]
pub struct HistogramCounts {
    buckets: Vec<u64>,
}

impl HistogramCounts {
    /// Number of samples recorded between `earlier` and this snapshot.
    pub fn count_since(&self, earlier: &HistogramCounts) -> u64 {
        self.buckets
            .iter()
            .zip(earlier.buckets.iter())
            .map(|(now, then)| now - then)
            .sum()
    }

    /// Percentile over only the samples recorded between `earlier` and this
    /// snapshot (both taken from the same live histogram). 0 when the delta
    /// is empty.
    pub fn percentile_us_since(&self, earlier: &HistogramCounts, q: f64) -> u64 {
        let counts = self.buckets.iter().zip(&earlier.buckets);
        let counts = counts.map(|(now, then)| now - then);
        quantile_bucket(counts, self.count_since(earlier), q).unwrap_or(0)
    }
}

/// Value of the bucket holding the `q`-quantile of per-bucket `counts`
/// (`total` samples in all); `None` when the counts run out first.
fn quantile_bucket(counts: impl Iterator<Item = u64>, total: u64, q: f64) -> Option<u64> {
    // Clamp to >= 1 sample: ceil(total * 0.0) is 0, and "0 samples seen"
    // is satisfied by the empty bucket 0, which made percentile_us(0.0)
    // report 0 regardless of the data instead of the minimum sample.
    let target = (((total as f64) * q.clamp(0.0, 1.0)).ceil() as u64).max(1);
    let mut seen = 0u64;
    counts.enumerate().find_map(|(i, c)| {
        seen += c;
        (seen >= target).then(|| Histogram::bucket_value(i))
    })
}

/// One ~100 ms window of the live metrics timeline the experiment driver
/// samples while the workload runs (TPS dips around crashes, recovery and —
/// eventually — elastic cutovers show up here instead of being averaged
/// away).
#[derive(Debug, Clone, PartialEq)]
pub struct TimelineWindow {
    /// Window start, microseconds since the run started.
    pub start_us: u64,
    /// Window length, microseconds.
    pub len_us: u64,
    /// Commits inside the window.
    pub committed: u64,
    /// Aborted attempts inside the window.
    pub aborted: u64,
    /// Commit throughput over the window, transactions/second.
    pub tps: f64,
    /// Aborted attempts / total attempts inside the window.
    pub abort_rate: f64,
    /// p99 commit latency over only the window's commits, milliseconds.
    pub p99_latency_ms: f64,
}

/// What a metric measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// A monotone count (or a family of them, one per label).
    Counter,
    /// A point-in-time value, set when the snapshot is taken.
    Gauge,
    /// A latency distribution, microseconds.
    Histogram,
}

/// Slot of a definition no registry has registered yet.
const UNASSIGNED: usize = usize::MAX;
/// Next free process-wide registry slot.
static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);

/// A counter family's size and each member's label (reported as
/// `name.label`).
type Family = (usize, fn(usize) -> String);

/// Static definition of one metric, declared with [`metrics!`](crate::metrics)
/// by the layer that records it. Names follow `layer.metric`; see the
/// "Metrics" section of ARCHITECTURE.md.
#[derive(Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub kind: MetricKind,
    family: Option<Family>,
    /// Process-wide slot, assigned the first time any registry registers
    /// the definition. Every registry keeps the metric's cell at this index,
    /// so recording is an index, never a name lookup or a lock.
    slot: AtomicUsize,
}

impl MetricDef {
    const fn new(
        name: &'static str,
        unit: &'static str,
        kind: MetricKind,
        family: Option<Family>,
    ) -> Self {
        MetricDef {
            name,
            unit,
            kind,
            family,
            slot: AtomicUsize::new(UNASSIGNED),
        }
    }

    fn slot(&self) -> usize {
        let slot = self.slot.load(Ordering::Relaxed);
        if slot != UNASSIGNED {
            return slot;
        }
        let fresh = NEXT_SLOT.fetch_add(1, Ordering::Relaxed);
        match self
            .slot
            .compare_exchange(UNASSIGNED, fresh, Ordering::Relaxed, Ordering::Relaxed)
        {
            Ok(_) => fresh,
            Err(won) => won,
        }
    }
}

/// Declare a layer's metrics, one line each:
///
/// ```
/// primo_common::metrics! {
///     /// Remote reads served from a prefetch buffer.
///     HITS: CounterDef("prefetch.hits", "reads");
/// }
/// let registry = primo_common::Registry::new(&[ALL]);
/// registry.inc(&HITS);
/// assert_eq!(registry.get(&HITS), 1);
/// ```
///
/// Expands to one `pub static` per metric plus `pub static ALL`, the list a
/// [`Registry`] registers.
#[macro_export]
macro_rules! metrics {
    ($($(#[$doc:meta])* $name:ident: $ty:ident($($arg:expr),+ $(,)?);)+) => {
        $($(#[$doc])* pub static $name: $crate::stats::$ty = $crate::stats::$ty::new($($arg),+);)+
        /// Every metric this module declares, for `Registry::new`.
        pub static ALL: &[&$crate::stats::MetricDef] = &[$(&$name.0),+];
    };
}

/// Count, mean and percentiles of one histogram, microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct HistogramSummary {
    pub count: u64,
    pub mean_us: f64,
    pub p50_us: u64,
    pub p99_us: u64,
    pub max_us: u64,
}

impl HistogramSummary {
    fn of(h: &Histogram) -> Self {
        HistogramSummary {
            count: h.count(),
            mean_us: h.mean_us(),
            p50_us: h.percentile_us(0.50),
            p99_us: h.percentile_us(0.99),
            max_us: h.max_us(),
        }
    }

    pub fn mean_ms(&self) -> f64 {
        self.mean_us / 1000.0
    }

    pub fn p99_ms(&self) -> f64 {
        self.p99_us as f64 / 1000.0
    }
}

/// A metric's value at snapshot time.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// One entry per family member (a single entry for a plain counter).
    Counts(Vec<u64>),
    Gauge(f64),
    Histogram(HistogramSummary),
}

/// Typed lookup: each definition type knows what it reads back as, so a
/// lookup names a static (a typo does not compile) and needs no cast.
pub trait Metric {
    type Value;
    fn def(&self) -> &MetricDef;
    fn read(value: &MetricValue) -> Self::Value;
}

/// One typed definition wrapper per kind: the struct, its `Metric` impl
/// and, for single-valued kinds, a `const fn new(name, unit)`.
macro_rules! metric_type {
    ($(#[$doc:meta])* $ty:ident($kind:ident) -> $value:ty, $pat:pat => $out:expr) => {
        metric_type!($(#[$doc])* $ty -> $value, $pat => $out);
        impl $ty {
            pub const fn new(name: &'static str, unit: &'static str) -> Self {
                $ty(MetricDef::new(name, unit, MetricKind::$kind, None))
            }
        }
    };
    ($(#[$doc:meta])* $ty:ident -> $value:ty, $pat:pat => $out:expr) => {
        $(#[$doc])*
        #[derive(Debug)]
        pub struct $ty(pub MetricDef);

        impl Metric for $ty {
            type Value = $value;
            fn def(&self) -> &MetricDef {
                &self.0
            }
            fn read(value: &MetricValue) -> $value {
                match value {
                    $pat => $out,
                    other => unreachable!("{other:?} read as {}", stringify!($ty)),
                }
            }
        }
    };
}

metric_type!(
    /// A monotone `u64` count.
    CounterDef(Counter) -> u64, MetricValue::Counts(c) => c[0]
);
metric_type!(
    /// A family of counters indexed `0..len`, one per label.
    CountersDef -> Vec<u64>, MetricValue::Counts(c) => c.clone()
);
metric_type!(
    /// An `f64` value set when the snapshot is taken.
    GaugeDef(Gauge) -> f64, MetricValue::Gauge(v) => *v
);
metric_type!(
    /// A microsecond [`Histogram`].
    HistogramDef(Histogram) -> HistogramSummary, MetricValue::Histogram(h) => *h
);

impl CountersDef {
    pub const fn new(
        name: &'static str,
        unit: &'static str,
        len: usize,
        label: fn(usize) -> String,
    ) -> Self {
        let family = Some((len, label));
        CountersDef(MetricDef::new(name, unit, MetricKind::Counter, family))
    }
}

/// `num / den`, or 0 when `den` is 0: a derived ratio over an empty
/// denominator reports 0, never NaN.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[derive(Debug)]
enum Cell {
    Counts(Box<[AtomicU64]>),
    /// `f64` bits.
    Gauge(AtomicU64),
    Histogram(Histogram),
}

/// Live storage for a set of metric definitions. The cluster owns one for
/// its lifetime, each experiment run another ([`Metrics`]); a
/// [`MetricsSnapshot`] reads both.
#[derive(Debug)]
pub struct Registry {
    defs: Vec<&'static MetricDef>,
    /// Indexed by the definitions' process-wide slots; `None` for slots of
    /// definitions registered elsewhere.
    cells: Vec<Option<Cell>>,
}

impl Registry {
    /// Register every definition of `layers` (typically modules' `ALL`)
    /// and resolve their slots.
    ///
    /// # Panics
    /// If two definitions share a name.
    pub fn new(layers: &[&[&'static MetricDef]]) -> Self {
        let defs: Vec<&'static MetricDef> = layers.iter().flat_map(|l| l.iter().copied()).collect();
        let mut names = HashSet::new();
        let mut cells: Vec<Option<Cell>> = Vec::new();
        for def in &defs {
            assert!(
                names.insert(def.name),
                "duplicate metric name `{}`",
                def.name
            );
            let slot = def.slot();
            if cells.len() <= slot {
                cells.resize_with(slot + 1, || None);
            }
            cells[slot] = Some(match def.kind {
                MetricKind::Counter => {
                    let width = def.family.map_or(1, |(len, _)| len);
                    Cell::Counts((0..width).map(|_| AtomicU64::new(0)).collect())
                }
                MetricKind::Gauge => Cell::Gauge(AtomicU64::new(0f64.to_bits())),
                MetricKind::Histogram => Cell::Histogram(Histogram::new()),
            });
        }
        Registry { defs, cells }
    }

    fn cell(&self, def: &MetricDef) -> &Cell {
        match self.cells.get(def.slot()) {
            Some(Some(cell)) => cell,
            _ => panic!("metric `{}` is not registered here", def.name),
        }
    }

    fn counts(&self, def: &MetricDef) -> &[AtomicU64] {
        match self.cell(def) {
            Cell::Counts(counts) => counts,
            _ => unreachable!("`{}` is a counter", def.name),
        }
    }

    pub fn add(&self, counter: &CounterDef, n: u64) {
        self.counts(&counter.0)[0].fetch_add(n, Ordering::Relaxed);
    }

    pub fn inc(&self, counter: &CounterDef) {
        self.add(counter, 1);
    }

    /// Add `n` to member `i` of a counter family.
    pub fn add_at(&self, family: &CountersDef, i: usize, n: u64) {
        self.counts(&family.0)[i].fetch_add(n, Ordering::Relaxed);
    }

    pub fn set(&self, gauge: &GaugeDef, value: f64) {
        match self.cell(&gauge.0) {
            Cell::Gauge(bits) => bits.store(value.to_bits(), Ordering::Relaxed),
            _ => unreachable!("`{}` is a gauge", gauge.0.name),
        }
    }

    pub fn record_us(&self, histogram: &HistogramDef, us: u64) {
        self.histogram(histogram).record_us(us);
    }

    /// The live histogram (the timeline sampler diffs its bucket counts).
    pub fn histogram(&self, histogram: &HistogramDef) -> &Histogram {
        match self.cell(&histogram.0) {
            Cell::Histogram(h) => h,
            _ => unreachable!("`{}` is a histogram", histogram.0.name),
        }
    }

    /// Current value of one metric.
    pub fn get<M: Metric>(&self, metric: &M) -> M::Value {
        M::read(&self.value(metric.def()))
    }

    fn value(&self, def: &MetricDef) -> MetricValue {
        match self.cell(def) {
            Cell::Counts(c) => {
                MetricValue::Counts(c.iter().map(|n| n.load(Ordering::Relaxed)).collect())
            }
            Cell::Gauge(bits) => MetricValue::Gauge(f64::from_bits(bits.load(Ordering::Relaxed))),
            Cell::Histogram(h) => MetricValue::Histogram(HistogramSummary::of(h)),
        }
    }
}

/// The transaction layer: what the workers record per attempt, plus the
/// rates derived from it when a run is snapshotted.
pub mod txn {
    use crate::{AbortReason, Phase};

    crate::metrics! {
        /// Committed transactions, snapshot-served read-only ones included.
        COMMITTED: CounterDef("txn.committed", "txns");
        /// Aborted attempts, for any reason.
        ABORTED: CounterDef("txn.aborted", "attempts");
        /// Transactions abandoned for good: user aborts, missing keys, or
        /// an attempt budget that ran out.
        ABANDONED: CounterDef("txn.abandoned", "txns");
        /// Committed transactions that touched more than one partition.
        DIST_COMMITTED: CounterDef("txn.dist_committed", "txns");
        /// Read-only transactions served lock-free from the MVCC snapshot.
        SNAPSHOT_READS: CounterDef("txn.snapshot_reads", "txns");
        /// Aborted attempts per [`AbortReason`], indexed by `reason as usize`.
        ABORTS: CountersDef("txn.aborts", "attempts", AbortReason::ALL.len(),
            |i| AbortReason::ALL[i].to_string());
        /// Time committed transactions spent in each [`Phase`], nanoseconds.
        PHASE_NS: CountersDef("txn.phase_ns", "ns", Phase::ALL.len(),
            |i| Phase::ALL[i].label().to_string());
        /// Commit latency.
        LATENCY_US: HistogramDef("txn.latency_us", "us");
        /// Commit latency of the distributed commits only: dominated by
        /// remote round trips, so the batched fan-out shows up here.
        DIST_LATENCY_US: HistogramDef("txn.dist_latency_us", "us");
        /// Commits per second of measurement.
        THROUGHPUT_TPS: GaugeDef("txn.throughput_tps", "1/s");
        /// Aborted attempts / all attempts.
        ABORT_RATE: GaugeDef("txn.abort_rate", "ratio");
        /// Crash-induced aborted attempts / all attempts (Fig 12b).
        CRASH_ABORT_RATE: GaugeDef("txn.crash_abort_rate", "ratio");
        /// Snapshot-served read-only transactions per second.
        SNAPSHOT_READ_TPS: GaugeDef("txn.snapshot_read_tps", "1/s");
    }
}

/// The run-scoped registry the worker threads record into: the [`txn`]
/// layer plus the layers the experiment driver adds.
#[derive(Debug)]
pub struct Metrics(Registry);

impl std::ops::Deref for Metrics {
    type Target = Registry;
    fn deref(&self) -> &Registry {
        &self.0
    }
}

impl Metrics {
    pub fn new(layers: &[&[&'static MetricDef]]) -> Self {
        Metrics(Registry::new(&[&[txn::ALL][..], layers].concat()))
    }

    pub fn record_commit(&self, latency_us: u64, phases: &PhaseTimers, distributed: bool) {
        self.inc(&txn::COMMITTED);
        self.record_us(&txn::LATENCY_US, latency_us);
        if distributed {
            self.inc(&txn::DIST_COMMITTED);
            self.record_us(&txn::DIST_LATENCY_US, latency_us);
        }
        for (i, ns) in phases.as_array().into_iter().enumerate() {
            self.add_at(&txn::PHASE_NS, i, ns);
        }
    }

    pub fn record_abort(&self, reason: AbortReason) {
        self.inc(&txn::ABORTED);
        self.add_at(&txn::ABORTS, reason as usize, 1);
    }

    /// Set the derived `txn` rates over `elapsed_secs` of measurement, then
    /// snapshot this registry together with `others` (the cluster's).
    pub fn snapshot(
        &self,
        elapsed_secs: f64,
        others: &[&Registry],
        timeline: Vec<TimelineWindow>,
    ) -> MetricsSnapshot {
        let committed = self.get(&txn::COMMITTED) as f64;
        let attempts = committed + self.get(&txn::ABORTED) as f64;
        let aborts = self.get(&txn::ABORTS);
        let crash_aborts: u64 = AbortReason::ALL
            .iter()
            .filter(|r| r.is_crash())
            .map(|r| aborts[*r as usize])
            .sum();
        let snapshot_reads = self.get(&txn::SNAPSHOT_READS) as f64;
        self.set(&txn::THROUGHPUT_TPS, ratio(committed, elapsed_secs));
        self.set(&txn::ABORT_RATE, ratio(attempts - committed, attempts));
        self.set(&txn::CRASH_ABORT_RATE, ratio(crash_aborts as f64, attempts));
        self.set(&txn::SNAPSHOT_READ_TPS, ratio(snapshot_reads, elapsed_secs));
        let registries: Vec<&Registry> = std::iter::once(&self.0)
            .chain(others.iter().copied())
            .collect();
        MetricsSnapshot::collect(elapsed_secs, &registries, timeline)
    }
}

/// Immutable result of one experiment run: every registered metric, read
/// back by definition with [`MetricsSnapshot::get`]. The headline numbers
/// are also plain fields.
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    pub elapsed_secs: f64,
    pub committed: u64,
    pub abandoned: u64,
    pub throughput_tps: f64,
    pub mean_latency_ms: f64,
    /// Windowed (~100 ms) TPS / abort-rate / p99 series sampled while the
    /// run was live. Empty when the driver did not sample (short unit-test
    /// runs).
    pub timeline: Vec<TimelineWindow>,
    values: Vec<(&'static MetricDef, MetricValue)>,
}

impl MetricsSnapshot {
    /// Read every metric of `registries`, one of which must hold the
    /// [`txn`] layer the headline fields come from.
    pub fn collect(
        elapsed_secs: f64,
        registries: &[&Registry],
        timeline: Vec<TimelineWindow>,
    ) -> Self {
        let values = registries
            .iter()
            .flat_map(|r| r.defs.iter().map(|def| (*def, r.value(def))))
            .collect();
        let mut snap = MetricsSnapshot {
            elapsed_secs,
            committed: 0,
            abandoned: 0,
            throughput_tps: 0.0,
            mean_latency_ms: 0.0,
            timeline,
            values,
        };
        snap.committed = snap.get(&txn::COMMITTED);
        snap.abandoned = snap.get(&txn::ABANDONED);
        snap.throughput_tps = snap.get(&txn::THROUGHPUT_TPS);
        snap.mean_latency_ms = snap.get(&txn::LATENCY_US).mean_ms();
        snap
    }

    /// One metric's value.
    ///
    /// # Panics
    /// If none of the snapshotted registries registered `metric`.
    pub fn get<M: Metric>(&self, metric: &M) -> M::Value {
        let def = metric.def();
        match self.values.iter().find(|(d, _)| std::ptr::eq(*d, def)) {
            Some((_, value)) => M::read(value),
            None => panic!("metric `{}` is not in this snapshot", def.name),
        }
    }

    /// Throughput in kilo-transactions per second (the unit used in figures).
    pub fn ktps(&self) -> f64 {
        self.throughput_tps / 1000.0
    }

    /// Average milliseconds per committed transaction spent in `p`.
    pub fn phase(&self, p: Phase) -> f64 {
        ratio(
            self.get(&txn::PHASE_NS)[p.index()] as f64,
            self.committed as f64,
        ) / 1e6
    }

    /// Aborted attempts for one reason.
    pub fn aborts_for(&self, reason: AbortReason) -> u64 {
        self.get(&txn::ABORTS)[reason as usize]
    }

    /// Per-reason abort breakdown, largest first (ties broken by the debug
    /// name so output is deterministic). Lifecycle regressions — e.g. a
    /// phantom insert flipping later puts into `NotFound` aborts — show up
    /// here instead of being folded into the single abort total.
    pub fn abort_breakdown(&self) -> Vec<(AbortReason, u64)> {
        let mut v: Vec<(AbortReason, u64)> = AbortReason::ALL
            .into_iter()
            .zip(self.get(&txn::ABORTS))
            .filter(|(_, count)| *count > 0)
            .collect();
        v.sort_by(|a, b| {
            b.1.cmp(&a.1)
                .then_with(|| a.0.to_string().cmp(&b.0.to_string()))
        });
        v
    }

    /// Every metric as one flat object: counters by name (family members as
    /// `name.label`), gauges as numbers, histograms as
    /// `{count, mean, p50, p99, max}` in their unit.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![("elapsed_secs".to_string(), Json::from(self.elapsed_secs))];
        for (def, value) in &self.values {
            let name = def.name.to_string();
            match (value, def.family) {
                (MetricValue::Counts(c), Some((_, label))) => fields.extend(
                    c.iter()
                        .enumerate()
                        .map(|(i, n)| (format!("{name}.{}", label(i)), Json::from(*n))),
                ),
                (MetricValue::Counts(c), None) => fields.push((name, Json::from(c[0]))),
                (MetricValue::Gauge(v), _) => fields.push((name, Json::from(*v))),
                (MetricValue::Histogram(h), _) => fields.push((
                    name,
                    Json::obj([
                        ("count", Json::from(h.count)),
                        ("mean", Json::from(h.mean_us)),
                        ("p50", Json::from(h.p50_us)),
                        ("p99", Json::from(h.p99_us)),
                        ("max", Json::from(h.max_us)),
                    ]),
                )),
            }
        }
        Json::Obj(fields)
    }
}

/// A JSON document: the one serializer every emitter goes through (the
/// build is offline, so there is no serde). Non-finite numbers render as
/// `null`, never as `NaN` or `inf`.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Bool(bool),
    Int(u64),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

macro_rules! json_from {
    ($($ty:ty => $variant:ident($conv:expr)),+ $(,)?) => {
        $(impl From<$ty> for Json {
            fn from(v: $ty) -> Json {
                Json::$variant($conv(v))
            }
        })+
    };
}

json_from!(
    bool => Bool(|b| b),
    u64 => Int(|n| n),
    usize => Int(|n: usize| n as u64),
    f64 => Num(|x| x),
    &str => Str(str::to_string),
    String => Str(|s| s),
    Vec<Json> => Arr(|v| v),
);

impl Json {
    /// An object from `(key, value)` pairs, kept in order.
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Render the document: the top-level object's fields and its arrays'
    /// elements one per line, everything deeper inline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, depth: usize) {
        match self {
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(n) => out.push_str(&n.to_string()),
            Json::Num(x) if !x.is_finite() => out.push_str("null"),
            Json::Num(x) => {
                // Four decimals, trailing zeros trimmed: 0.0061, 3.328, 15081.
                let fixed = format!("{x:.4}");
                let trimmed = fixed.trim_end_matches('0').trim_end_matches('.');
                out.push_str(if trimmed == "-0" { "0" } else { trimmed });
            }
            Json::Str(s) => write_json_str(out, s),
            Json::Arr(items) => {
                write_json_seq(out, depth, depth < 2, "[]", items.iter().map(|v| (None, v)))
            }
            Json::Obj(fields) => write_json_seq(
                out,
                depth,
                depth == 0,
                "{}",
                fields.iter().map(|(k, v)| (Some(k.as_str()), v)),
            ),
        }
    }
}

/// Inline rendering: the whole value on one line.
impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = String::new();
        self.write(&mut out, 2);
        f.write_str(&out)
    }
}

fn write_json_seq<'a>(
    out: &mut String,
    depth: usize,
    multiline: bool,
    brackets: &str,
    items: impl ExactSizeIterator<Item = (Option<&'a str>, &'a Json)>,
) {
    let (open, close) = brackets.split_at(1);
    let len = items.len();
    out.push_str(open);
    for (i, (key, value)) in items.enumerate() {
        if multiline {
            out.push('\n');
            out.push_str(&"  ".repeat(depth + 1));
        }
        if let Some(key) = key {
            write_json_str(out, key);
            out.push_str(": ");
        }
        value.write(out, depth + 1);
        if i + 1 < len {
            out.push_str(if multiline { "," } else { ", " });
        }
    }
    if multiline && len > 0 {
        out.push('\n');
        out.push_str(&"  ".repeat(depth));
    }
    out.push_str(close);
}

fn write_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn histogram_percentiles_are_ordered() {
        let h = Histogram::new();
        for i in 1..=1000u64 {
            h.record_us(i);
        }
        let p50 = h.percentile_us(0.5);
        let p99 = h.percentile_us(0.99);
        assert!(p50 <= p99);
        assert!((400..700).contains(&p50), "p50={p50}");
        assert!(p99 >= 900, "p99={p99}");
        assert_eq!(h.count(), 1000);
        assert!(h.mean_us() > 400.0 && h.mean_us() < 600.0);
    }

    #[test]
    fn histogram_merge_adds_counts() {
        let a = Histogram::new();
        let b = Histogram::new();
        a.record_us(10);
        b.record_us(1000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.max_us(), 1000);
    }

    #[test]
    fn empty_histogram_is_zero() {
        let h = Histogram::new();
        assert_eq!(h.percentile_us(0.99), 0);
        assert_eq!(h.mean_us(), 0.0);
    }

    #[test]
    fn percentile_zero_returns_the_minimum_sample() {
        // Regression: ceil(total * 0.0) == 0 used to satisfy `seen >= target`
        // at the first (empty) bucket, so percentile_us(0.0) was always 0.
        let h = Histogram::new();
        for us in [500u64, 900, 1_400] {
            h.record_us(us);
        }
        let p0 = h.percentile_us(0.0);
        assert!(
            (450..=560).contains(&p0),
            "p0 must be ~the smallest sample (500us), got {p0}"
        );
        assert!(h.percentile_us(0.0) <= h.percentile_us(0.5));
    }

    #[test]
    fn percentiles_monotone_under_concurrent_recording() {
        // Property check for the satellite requirement: with many threads
        // hammering record_us, any percentile query ordering stays monotone
        // and the final counts are exact (no lost updates).
        let h = std::sync::Arc::new(Histogram::new());
        let threads = 8;
        let per_thread = 5_000u64;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let h = std::sync::Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..per_thread {
                        h.record_us(1 + (i * 7 + t * 13) % 10_000);
                        if i % 512 == 0 {
                            let qs: Vec<u64> = [0.0, 0.25, 0.5, 0.9, 0.99, 1.0]
                                .iter()
                                .map(|q| h.percentile_us(*q))
                                .collect();
                            assert!(
                                qs.windows(2).all(|w| w[0] <= w[1]),
                                "percentiles not monotone mid-run: {qs:?}"
                            );
                        }
                    }
                })
            })
            .collect();
        for hd in handles {
            hd.join().unwrap();
        }
        assert_eq!(h.count(), threads * per_thread);
        let qs: Vec<u64> = [0.0, 0.5, 0.99, 1.0]
            .iter()
            .map(|q| h.percentile_us(*q))
            .collect();
        assert!(qs.windows(2).all(|w| w[0] <= w[1]), "{qs:?}");
        assert!(qs[0] >= 1, "p0 sees a real sample, not the empty bucket 0");
    }

    #[test]
    fn windowed_delta_percentiles_ignore_earlier_samples() {
        let h = Histogram::new();
        for _ in 0..100 {
            h.record_us(10);
        }
        let mark = h.counts();
        for _ in 0..50 {
            h.record_us(1_000);
        }
        let now = h.counts();
        assert_eq!(now.count_since(&mark), 50);
        let p50 = now.percentile_us_since(&mark, 0.5);
        assert!(
            (900..=1100).contains(&p50),
            "window p50 must reflect only the 1000us samples, got {p50}"
        );
        assert_eq!(now.percentile_us_since(&now, 0.99), 0, "empty delta");
    }

    #[test]
    fn bucket_roundtrip_error_is_bounded() {
        for us in [1u64, 5, 17, 100, 999, 12345, 1_000_000] {
            let v = Histogram::bucket_value(Histogram::bucket_index(us));
            let err = (v as f64 - us as f64).abs() / us as f64;
            assert!(err < 0.07, "us={us} decoded {v} err {err}");
        }
    }

    #[test]
    fn abort_breakdown_is_sorted_and_complete() {
        let m = Metrics::new(&[]);
        for _ in 0..3 {
            m.record_abort(AbortReason::WaitDie);
        }
        m.record_abort(AbortReason::NotFound);
        for _ in 0..2 {
            m.record_abort(AbortReason::Validation);
        }
        let s = m.snapshot(1.0, &[], Vec::new());
        assert_eq!(
            s.abort_breakdown(),
            vec![
                (AbortReason::WaitDie, 3),
                (AbortReason::Validation, 2),
                (AbortReason::NotFound, 1),
            ]
        );
        assert_eq!(s.aborts_for(AbortReason::WaitDie), 3);
        assert_eq!(s.aborts_for(AbortReason::CrashAbort), 0);
    }

    mod extra {
        crate::metrics! {
            /// A counter only this test module defines.
            PRUNED: CounterDef("test.pruned_versions", "versions");
            /// A gauge only this test module defines.
            LAG_US: GaugeDef("test.replication_lag_us", "us");
            /// A histogram only this test module defines.
            DECIDE_US: HistogramDef("test.decide_us", "us");
        }
    }

    #[test]
    fn metrics_snapshot_derives_rates() {
        let m = Metrics::new(&[]);
        let mut ph = PhaseTimers::new();
        ph.add(Phase::Execute, Duration::from_micros(100));
        m.record_commit(500, &ph, false);
        m.record_commit(1500, &ph, true);
        m.record_abort(AbortReason::LockConflict);
        m.record_abort(AbortReason::CrashAbort);
        m.inc(&txn::SNAPSHOT_READS);
        let others = Registry::new(&[extra::ALL]);
        others.add(&extra::PRUNED, 3);
        others.set(&extra::LAG_US, 250.0);
        others.record_us(&extra::DECIDE_US, 900);
        let s = m.snapshot(
            2.0,
            &[&others],
            vec![TimelineWindow {
                start_us: 0,
                len_us: 100_000,
                committed: 2,
                aborted: 2,
                tps: 20.0,
                abort_rate: 0.5,
                p99_latency_ms: 1.5,
            }],
        );
        assert_eq!(s.get(&txn::SNAPSHOT_READS), 1);
        assert!((s.get(&txn::SNAPSHOT_READ_TPS) - 0.5).abs() < 1e-9);
        // Registries handed to the snapshot come through verbatim.
        assert_eq!(s.get(&extra::PRUNED), 3);
        assert_eq!(s.get(&extra::LAG_US), 250.0);
        assert_eq!(s.get(&extra::DECIDE_US).count, 1);
        // Only the 1500us commit was distributed.
        assert_eq!(s.get(&txn::DIST_COMMITTED), 1);
        let dist = s.get(&txn::DIST_LATENCY_US);
        assert!(dist.p99_ms() > 1.0 && dist.p99_ms() < 2.0);
        assert!(dist.mean_ms() > 1.0 && dist.mean_ms() < 2.0);
        assert_eq!(s.timeline.len(), 1);
        assert_eq!(s.timeline[0].committed, 2);
        assert_eq!(s.committed, 2);
        assert_eq!(s.get(&txn::ABORTED), 2);
        assert!((s.throughput_tps - 1.0).abs() < 1e-9);
        assert!((s.get(&txn::ABORT_RATE) - 0.5).abs() < 1e-9);
        assert!((s.get(&txn::CRASH_ABORT_RATE) - 0.25).abs() < 1e-9);
        assert!(s.phase(Phase::Execute) > 0.0);
        assert_eq!(s.ktps() * 1000.0, s.throughput_tps);
    }

    #[test]
    fn empty_run_reports_zero_rates_not_nan() {
        let s = Metrics::new(&[]).snapshot(0.0, &[], Vec::new());
        for rate in [
            s.throughput_tps,
            s.mean_latency_ms,
            s.get(&txn::ABORT_RATE),
            s.get(&txn::CRASH_ABORT_RATE),
            s.get(&txn::SNAPSHOT_READ_TPS),
            s.phase(Phase::Execute),
        ] {
            assert_eq!(rate, 0.0);
        }
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(ratio(0.0, 0.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "duplicate metric name `txn.committed`")]
    fn duplicate_metric_names_are_rejected() {
        static SHADOW: CounterDef = CounterDef::new("txn.committed", "txns");
        let _ = Registry::new(&[txn::ALL, &[&SHADOW.0]]);
    }

    #[test]
    #[should_panic(expected = "is not in this snapshot")]
    fn looking_up_an_unregistered_metric_panics() {
        let s = Metrics::new(&[]).snapshot(1.0, &[], Vec::new());
        let _ = s.get(&extra::PRUNED);
    }

    #[test]
    fn a_test_only_metric_reaches_the_snapshot_and_the_json() {
        let m = Metrics::new(&[extra::ALL]);
        m.add(&extra::PRUNED, 7);
        m.record_abort(AbortReason::WaitDie);
        let s = m.snapshot(1.0, &[], Vec::new());
        assert_eq!(s.get(&extra::PRUNED), 7);
        let json = s.to_json().render();
        assert!(json.contains("\"test.pruned_versions\": 7"), "{json}");
        assert!(json.contains("\"test.replication_lag_us\": 0"), "{json}");
        assert!(json.contains("\"test.decide_us\": {\"count\": 0"), "{json}");
        assert!(json.contains("\"txn.aborts.WaitDie\": 1"), "{json}");
        assert!(json.contains("\"txn.phase_ns.2PC\": 0"), "{json}");
    }

    #[test]
    fn serializer_never_emits_nan_or_inf() {
        let doc = Json::obj([
            ("nan", Json::from(f64::NAN)),
            ("inf", Json::from(f64::INFINITY)),
            ("neg_inf", Json::from(f64::NEG_INFINITY)),
            ("neg_zero", Json::from(-0.00001)),
            ("rate", Json::from(0.0061)),
            ("tps", Json::from(15081.0)),
            ("label", Json::from("Primo w/o \"WM\"\n")),
            (
                "cells",
                Json::Arr(vec![Json::obj([("ok", Json::from(true))])]),
            ),
        ]);
        let text = doc.render();
        for bad in [": NaN", ": inf", ": -inf", ": -0"] {
            assert!(!text.contains(bad), "{bad} in {text}");
        }
        assert_eq!(
            text,
            "{\n  \"nan\": null,\n  \"inf\": null,\n  \"neg_inf\": null,\n  \
             \"neg_zero\": 0,\n  \"rate\": 0.0061,\n  \"tps\": 15081,\n  \
             \"label\": \"Primo w/o \\\"WM\\\"\\u000a\",\n  \"cells\": [\n    \
             {\"ok\": true}\n  ]\n}\n"
        );
    }
}
