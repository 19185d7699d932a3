//! Outside-in instrumentation of one benchmark round.
//!
//! The runtime is driven only through its public traits: [`ProbedWorkload`]
//! wraps the [`Workload`] (and every [`TxnProgram`] it generates, and the
//! [`TxnContext`] each program body runs against), and [`ProbedProtocol`]
//! wraps the [`Protocol`]. A worker thread's loop is
//! `generate → [snapshot body] → execute_once (→ backoff → execute_once)* →
//! group commit`, so the gaps between wrapper calls on one thread are the
//! layers the wrappers cannot see into directly:
//!
//! * `generate` returning → first `execute_once`: ticket plus remote-read
//!   fan-out (`prefetch.fanout_us`);
//! * one attempt's end → the next attempt's start: backoff (plus the retry's
//!   fan-out);
//! * the committing attempt's end → the durable result: the group-commit
//!   wait, observed at the next `generate`, right after the worker drained
//!   its pending commits.
//!
//! Untraced rounds read a few clocks per transaction (none per record
//! access) and count the writes the correctness check needs. Traced rounds
//! also time every wrapper call into histograms and keep the spans of every
//! [`SPAN_SAMPLE`]-th transaction in memory until the round ends.

use primo_repro::common::{Histogram, PhaseTimers};
use primo_repro::runtime::{Cluster, CommittedTxn, Protocol, ReadFanout};
use primo_repro::storage::PartitionStore;
use primo_repro::wal::{CommitOutcome, CommitWaiter, TxnTicket};
use primo_repro::{
    AbortReason, FastRng, Key, PartitionId, TableId, TxnContext, TxnId, TxnProgram, TxnResult,
    Value, Workload,
};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Keep the spans of one transaction in this many (by generation order).
/// Histograms and counters cover every transaction; the span dump is for
/// inspecting individual timelines and stays a few MB per run.
pub const SPAN_SAMPLE: u64 = 32;

/// Abort reasons reported as one metric each; anything else lands in
/// [`ABORT_OTHER`].
pub const ABORT_KINDS: [(AbortReason, &str); 4] = [
    (AbortReason::LockConflict, "protocol.aborts.lock_conflict"),
    (AbortReason::WaitDie, "protocol.aborts.wait_die"),
    (AbortReason::Validation, "protocol.aborts.validation"),
    (AbortReason::ModeSwitch, "protocol.aborts.mode_switch"),
];
pub const ABORT_OTHER: &str = "protocol.aborts.other";

fn abort_slot(reason: AbortReason) -> usize {
    ABORT_KINDS
        .iter()
        .position(|(r, _)| *r == reason)
        .unwrap_or(ABORT_KINDS.len())
}

/// One traced interval. All spans of a transaction share `txn`; `parent` is
/// the `id` of the enclosing span (0 for the transaction's root span, whose
/// own id is 0 too).
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub txn: u64,
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A monotone nanosecond clock anchored at the round's creation.
#[derive(Debug, Clone, Copy)]
struct Clock(Instant);

impl Clock {
    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.0).as_nanos() as u64
    }
}

fn us(from: Instant, to: Instant) -> u64 {
    to.saturating_duration_since(from).as_micros() as u64
}

fn ns(from: Instant, to: Instant) -> u64 {
    to.saturating_duration_since(from).as_nanos() as u64
}

/// Shared counters and histograms of a traced round. Sums are nanoseconds.
#[derive(Debug, Default)]
pub struct LayerStats {
    pub generate_us: Histogram,
    pub fanout_us: Histogram,
    pub attempt_us: Histogram,
    pub body_us: Histogram,
    pub install_us: Histogram,
    pub read_local_us: Histogram,
    pub read_remote_us: Histogram,
    pub write_us: Histogram,
    pub snapshot_us: Histogram,
    pub attempts: AtomicU64,
    pub ok_attempts: AtomicU64,
    pub aborts: [AtomicU64; ABORT_KINDS.len() + 1],
    pub reads: AtomicU64,
    pub remote_reads: AtomicU64,
    /// Transactions whose result the worker reports (protocol commits plus
    /// snapshot-served read-only transactions), in the window.
    pub committed: AtomicU64,
    pub snapshot_committed: AtomicU64,
    pub fanout_ns: AtomicU64,
    pub attempt_ns: AtomicU64,
    pub backoff_ns: AtomicU64,
    pub snapshot_ns: AtomicU64,
    /// Time inside `execute_once`, every attempt in the window.
    pub busy_ns: AtomicU64,
}

/// Everything one round measures from outside the runtime.
pub struct Probe {
    pub trace: bool,
    clock: Clock,
    cluster: Arc<Cluster>,
    /// COCO keys a commit's durability on its epoch, the watermark scheme
    /// on its commit timestamp (see [`waiter_for`]).
    epoch_keyed: bool,
    rngs: Vec<Mutex<FastRng>>,
    next_txn: AtomicU64,
    warmup: Duration,
    window_len: Duration,
    /// `[first generate + warmup, + window_len)`: the runtime starts its
    /// workers right after its base checkpoint and records after `warmup`.
    window: OnceLock<(Instant, Instant)>,
    pub first_generate: OnceLock<Instant>,
    pub load_ns: AtomicU64,
    /// `write` calls made by bodies whose attempt returned `Ok` (YCSB's
    /// read-modify-writes), over the whole round.
    pub ok_writes: AtomicU64,
    /// Commit latency samples (first attempt → durable result) released in
    /// the window, microseconds.
    pub latencies_us: Mutex<Vec<u64>>,
    /// Whole-round counts, for ratios against whole-round cluster counters:
    /// finished transactions (protocol commits plus snapshot reads),
    /// protocol commits, and the distributed ones among them.
    pub finished: AtomicU64,
    pub protocol_commits: AtomicU64,
    pub dist_commits: AtomicU64,
    pub layers: LayerStats,
    pub spans: Mutex<Vec<Span>>,
}

impl Probe {
    pub fn new(
        cluster: Arc<Cluster>,
        epoch_keyed: bool,
        seed: u64,
        trace: bool,
        warmup: Duration,
        window_len: Duration,
    ) -> Arc<Self> {
        // Per-home generation streams derived from the benchmark seed: with
        // one worker per partition each worker owns one stream.
        let rngs = (0..cluster.num_partitions() as u64)
            .map(|p| {
                Mutex::new(FastRng::new(
                    seed ^ (p + 1).wrapping_mul(0xD1B5_4A32_D192_ED03),
                ))
            })
            .collect();
        Arc::new(Probe {
            trace,
            clock: Clock(Instant::now()),
            cluster,
            epoch_keyed,
            rngs,
            next_txn: AtomicU64::new(0),
            warmup,
            window_len,
            window: OnceLock::new(),
            first_generate: OnceLock::new(),
            load_ns: AtomicU64::new(0),
            ok_writes: AtomicU64::new(0),
            latencies_us: Mutex::new(Vec::new()),
            finished: AtomicU64::new(0),
            protocol_commits: AtomicU64::new(0),
            dist_commits: AtomicU64::new(0),
            layers: LayerStats::default(),
            spans: Mutex::new(Vec::new()),
        })
    }

    fn in_window(&self, t: Instant) -> bool {
        self.window
            .get()
            .is_some_and(|(start, end)| t >= *start && t < *end)
    }

    fn push_spans(&self, spans: &mut Vec<Span>) {
        if !spans.is_empty() {
            self.spans
                .lock()
                .expect("span buffer lock poisoned by a panicking worker")
                .append(spans);
        }
    }
}

/// The waiter the worker's `txn_committed` hands out for this commit, rebuilt
/// from the same public inputs, so [`GroupCommit::try_outcome`] answers the
/// question the worker asks.
///
/// [`GroupCommit::try_outcome`]: primo_repro::wal::GroupCommit::try_outcome
fn waiter_for(epoch_keyed: bool, ticket: &TxnTicket, commit: &CommittedTxn) -> CommitWaiter {
    let ts = if commit.ts > 0 {
        commit.ts
    } else {
        ticket.current_ts()
    };
    assert!(
        epoch_keyed || ts > 0,
        "watermark commits are keyed on a protocol timestamp"
    );
    CommitWaiter {
        txn: ticket.txn,
        coordinator: ticket.coordinator,
        ts,
        // Watermark waiters index the crash-rollback list, which stays
        // empty in a crash-free run.
        epoch: if epoch_keyed { ticket.epoch } else { 0 },
        ready_at_us: None,
    }
}

/// Per-worker-thread state: the transaction in flight and the commits
/// waiting on the group commit.
struct Local {
    pending: VecDeque<(CommitWaiter, Instant)>,
    txn: u64,
    sampled: bool,
    next_span: u32,
    gen_start: Instant,
    gen_end: Instant,
    /// Where the gap to the next attempt starts: `generate` returning, a
    /// snapshot body that fell back, or the previous attempt's end.
    last_mark: Instant,
    attempts: u32,
    in_attempt: bool,
    attempt_span: u32,
    body_ns: u64,
    body_writes: u64,
    fanout_ns: u64,
    attempt_ns: u64,
    backoff_ns: u64,
    snapshot_ns: u64,
    spans: Vec<Span>,
}

impl Local {
    fn new() -> Self {
        let now = Instant::now();
        Local {
            pending: VecDeque::new(),
            txn: 0,
            sampled: false,
            next_span: 0,
            gen_start: now,
            gen_end: now,
            last_mark: now,
            attempts: 0,
            in_attempt: false,
            attempt_span: 0,
            body_ns: 0,
            body_writes: 0,
            fanout_ns: 0,
            attempt_ns: 0,
            backoff_ns: 0,
            snapshot_ns: 0,
            spans: Vec::new(),
        }
    }

    fn span_id(&mut self) -> u32 {
        self.next_span += 1;
        self.next_span
    }

    fn span(
        &mut self,
        clock: Clock,
        id: u32,
        parent: u32,
        name: &'static str,
        s: Instant,
        e: Instant,
    ) {
        if self.sampled {
            self.spans.push(Span {
                txn: self.txn,
                id,
                parent,
                name,
                start_ns: clock.ns(s),
                end_ns: clock.ns(e),
            });
        }
    }

    /// The transaction's result is final (committed attempt or snapshot):
    /// close its root span and charge its traced time.
    fn finish(&mut self, probe: &Probe, end: Instant, snapshot: bool) {
        probe.finished.fetch_add(1, Ordering::Relaxed);
        if probe.trace && probe.in_window(end) {
            let l = &probe.layers;
            l.committed.fetch_add(1, Ordering::Relaxed);
            if snapshot {
                l.snapshot_committed.fetch_add(1, Ordering::Relaxed);
            }
            l.fanout_ns.fetch_add(self.fanout_ns, Ordering::Relaxed);
            l.attempt_ns.fetch_add(self.attempt_ns, Ordering::Relaxed);
            l.backoff_ns.fetch_add(self.backoff_ns, Ordering::Relaxed);
            l.snapshot_ns.fetch_add(self.snapshot_ns, Ordering::Relaxed);
        }
        if self.sampled {
            let start = self.gen_start;
            self.span(probe.clock, 0, 0, "txn", start, end);
            probe.push_spans(&mut self.spans);
            self.sampled = false;
        }
    }
}

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local::new());
}

/// The wrapped workload: seeded generation, load timing, and the drain of
/// commits the group commit has made durable since the last transaction.
pub struct ProbedWorkload {
    pub inner: Arc<dyn Workload>,
    pub probe: Arc<Probe>,
}

impl Workload for ProbedWorkload {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn load_partition(&self, store: &PartitionStore, partition: PartitionId) {
        let t0 = Instant::now();
        self.inner.load_partition(store, partition);
        self.probe
            .load_ns
            .fetch_add(ns(t0, Instant::now()), Ordering::Relaxed);
    }

    fn generate(&self, _worker_rng: &mut FastRng, home: PartitionId) -> Box<dyn TxnProgram> {
        let probe = &self.probe;
        let now = Instant::now();
        probe.first_generate.get_or_init(|| {
            let start = now + probe.warmup;
            let _ = probe.window.set((start, start + probe.window_len));
            now
        });
        // The worker drained its pending commits just before this call:
        // everything durable now was released now.
        LOCAL.with(|l| {
            let mut l = l.borrow_mut();
            while let Some((waiter, started)) = l.pending.front() {
                // Crash-aborted commits are counted by the runtime itself.
                match probe.cluster.group_commit.try_outcome(waiter) {
                    None => break,
                    Some(CommitOutcome::Committed) if probe.in_window(now) => probe
                        .latencies_us
                        .lock()
                        .expect("latency buffer lock poisoned by a panicking worker")
                        .push(us(*started, now)),
                    Some(_) => {}
                }
                l.pending.pop_front();
            }
        });

        let gen_start = Instant::now();
        let program = {
            let mut rng = probe.rngs[home.idx()]
                .lock()
                .expect("generation stream lock poisoned by a panicking worker");
            self.inner.generate(&mut rng, home)
        };
        let gen_end = Instant::now();
        let txn = probe.next_txn.fetch_add(1, Ordering::Relaxed);
        LOCAL.with(|l| {
            let mut l = l.borrow_mut();
            // A transaction that never reached `finish` (abandoned) leaves
            // its spans behind; drop them with it.
            l.spans.clear();
            l.txn = txn;
            l.sampled = probe.trace && txn.is_multiple_of(SPAN_SAMPLE);
            l.next_span = 0;
            l.gen_start = gen_start;
            l.gen_end = gen_end;
            l.last_mark = gen_end;
            l.attempts = 0;
            l.fanout_ns = 0;
            l.attempt_ns = 0;
            l.backoff_ns = 0;
            l.snapshot_ns = 0;
            if probe.trace {
                if probe.in_window(gen_end) {
                    probe.layers.generate_us.record_us(us(gen_start, gen_end));
                }
                let id = l.span_id();
                l.span(probe.clock, id, 0, "generate", gen_start, gen_end);
            }
        });
        Box::new(ProbedProgram {
            inner: program,
            probe: Arc::clone(probe),
        })
    }
}

struct ProbedProgram {
    inner: Box<dyn TxnProgram>,
    probe: Arc<Probe>,
}

impl TxnProgram for ProbedProgram {
    fn execute(&self, ctx: &mut dyn TxnContext) -> TxnResult<()> {
        let probe = &*self.probe;
        let (in_attempt, parent, span_base, sampled_txn) = LOCAL.with(|l| {
            let l = l.borrow();
            let parent = if l.in_attempt { l.attempt_span } else { 0 };
            (
                l.in_attempt,
                parent,
                l.next_span,
                l.sampled.then_some(l.txn),
            )
        });
        let t0 = Instant::now();
        let mut pctx = ProbedCtx {
            inner: ctx,
            probe,
            home: self.inner.home_partition(),
            sampled_txn,
            parent: span_base + 1,
            next_span: span_base + 1,
            spans: Vec::new(),
            reads: 0,
            remote_reads: 0,
            writes: 0,
        };
        let result = self.inner.execute(&mut pctx);
        let t1 = Instant::now();
        let ProbedCtx {
            mut spans,
            next_span,
            reads,
            remote_reads,
            writes,
            ..
        } = pctx;
        LOCAL.with(|l| {
            let mut l = l.borrow_mut();
            let body_id = span_base + 1;
            l.next_span = next_span;
            if probe.trace && probe.in_window(t1) {
                let ly = &probe.layers;
                ly.reads.fetch_add(reads, Ordering::Relaxed);
                ly.remote_reads.fetch_add(remote_reads, Ordering::Relaxed);
            }
            if in_attempt {
                // A protocol may run the body more than once per attempt;
                // the last run's writes are the ones it installs.
                l.body_writes = writes;
                l.body_ns += ns(t0, t1);
                if probe.trace && probe.in_window(t1) {
                    probe.layers.body_us.record_us(us(t0, t1));
                }
                l.span(probe.clock, body_id, parent, "body", t0, t1);
                l.spans.append(&mut spans);
            } else {
                // Read-only bodies served from the MVCC snapshot run outside
                // any attempt; `Ok` is final, an error either abandons the
                // transaction or falls back to the protocol path.
                l.snapshot_ns += ns(t0, t1);
                l.last_mark = t1;
                if probe.trace && probe.in_window(t1) {
                    probe.layers.snapshot_us.record_us(us(t0, t1));
                }
                l.span(probe.clock, body_id, 0, "snapshot", t0, t1);
                l.spans.append(&mut spans);
                if result.is_ok() {
                    if probe.in_window(t1) {
                        let started = l.gen_end;
                        probe
                            .latencies_us
                            .lock()
                            .expect("latency buffer lock poisoned by a panicking worker")
                            .push(us(started, t1));
                    }
                    // The whole pre-result time of a snapshot transaction is
                    // its snapshot execution.
                    l.snapshot_ns = ns(l.gen_end, t1);
                    l.finish(probe, t1, true);
                }
            }
        });
        result
    }

    fn home_partition(&self) -> PartitionId {
        self.inner.home_partition()
    }

    fn is_read_only(&self) -> bool {
        self.inner.is_read_only()
    }

    fn read_fraction_hint(&self) -> f64 {
        self.inner.read_fraction_hint()
    }

    fn read_hint(&self) -> Vec<(PartitionId, TableId, Key)> {
        self.inner.read_hint()
    }

    fn label(&self) -> &'static str {
        self.inner.label()
    }
}

/// The wrapped access interface: counts every call and, when tracing, times
/// it, split by whether the record lives on the transaction's home
/// partition.
struct ProbedCtx<'a> {
    inner: &'a mut dyn TxnContext,
    probe: &'a Probe,
    home: PartitionId,
    sampled_txn: Option<u64>,
    parent: u32,
    next_span: u32,
    spans: Vec<Span>,
    reads: u64,
    remote_reads: u64,
    writes: u64,
}

impl ProbedCtx<'_> {
    /// Run one access, timing it into `hist` when tracing.
    fn timed<T>(
        &mut self,
        name: &'static str,
        hist: fn(&LayerStats) -> &Histogram,
        f: impl FnOnce(&mut dyn TxnContext) -> T,
    ) -> T {
        if !self.probe.trace {
            return f(self.inner);
        }
        let t0 = Instant::now();
        let out = f(self.inner);
        let t1 = Instant::now();
        if self.probe.in_window(t1) {
            hist(&self.probe.layers).record_us(us(t0, t1));
        }
        if let Some(txn) = self.sampled_txn {
            self.next_span += 1;
            self.spans.push(Span {
                txn,
                id: self.next_span,
                parent: self.parent,
                name,
                start_ns: self.probe.clock.ns(t0),
                end_ns: self.probe.clock.ns(t1),
            });
        }
        out
    }
}

impl TxnContext for ProbedCtx<'_> {
    fn read(&mut self, partition: PartitionId, table: TableId, key: Key) -> TxnResult<Value> {
        self.reads += 1;
        if partition == self.home {
            self.timed(
                "read_local",
                |l| &l.read_local_us,
                |c| c.read(partition, table, key),
            )
        } else {
            self.remote_reads += 1;
            self.timed(
                "read_remote",
                |l| &l.read_remote_us,
                |c| c.read(partition, table, key),
            )
        }
    }

    fn write(
        &mut self,
        partition: PartitionId,
        table: TableId,
        key: Key,
        value: Value,
    ) -> TxnResult<()> {
        self.writes += 1;
        self.timed(
            "write",
            |l| &l.write_us,
            |c| c.write(partition, table, key, value),
        )
    }

    fn insert(
        &mut self,
        partition: PartitionId,
        table: TableId,
        key: Key,
        value: Value,
    ) -> TxnResult<()> {
        self.timed(
            "insert",
            |l| &l.write_us,
            |c| c.insert(partition, table, key, value),
        )
    }

    fn delete(&mut self, partition: PartitionId, table: TableId, key: Key) -> TxnResult<()> {
        self.timed(
            "delete",
            |l| &l.write_us,
            |c| c.delete(partition, table, key),
        )
    }
}

/// The wrapped protocol: times each attempt, attributes the gaps around it
/// (fan-out before the first, backoff between the rest) and queues each
/// committed attempt's waiter for the durable-release check.
pub struct ProbedProtocol {
    pub inner: Arc<dyn Protocol>,
    pub probe: Arc<Probe>,
}

impl Protocol for ProbedProtocol {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn manages_durability(&self) -> bool {
        self.inner.manages_durability()
    }

    fn execute_once(
        &self,
        cluster: &Cluster,
        txn: TxnId,
        program: &dyn TxnProgram,
        ticket: &TxnTicket,
        timers: &mut PhaseTimers,
        fanout: &ReadFanout,
    ) -> TxnResult<CommittedTxn> {
        let probe = &*self.probe;
        let a0 = Instant::now();
        LOCAL.with(|l| {
            let mut l = l.borrow_mut();
            let gap_start = l.last_mark;
            let gap = ns(gap_start, a0);
            let id = l.span_id();
            if l.attempts == 0 {
                l.fanout_ns += gap;
                if probe.trace && probe.in_window(a0) {
                    probe.layers.fanout_us.record_us(us(gap_start, a0));
                }
                l.span(probe.clock, id, 0, "fanout", gap_start, a0);
            } else {
                l.backoff_ns += gap;
                l.span(probe.clock, id, 0, "backoff", gap_start, a0);
            }
            l.attempts += 1;
            l.in_attempt = true;
            l.attempt_span = l.span_id();
            l.body_ns = 0;
            l.body_writes = 0;
        });
        let result = self
            .inner
            .execute_once(cluster, txn, program, ticket, timers, fanout);
        let a1 = Instant::now();
        LOCAL.with(|l| {
            let mut l = l.borrow_mut();
            l.in_attempt = false;
            l.last_mark = a1;
            let attempt = ns(a0, a1);
            l.attempt_ns += attempt;
            let id = l.attempt_span;
            l.span(probe.clock, id, 0, "attempt", a0, a1);
            if probe.trace && probe.in_window(a1) {
                let ly = &probe.layers;
                ly.attempt_us.record_us(us(a0, a1));
                ly.install_us
                    .record_us(attempt.saturating_sub(l.body_ns) / 1_000);
                ly.attempts.fetch_add(1, Ordering::Relaxed);
                ly.busy_ns.fetch_add(attempt, Ordering::Relaxed);
                match &result {
                    Ok(_) => ly.ok_attempts.fetch_add(1, Ordering::Relaxed),
                    Err(e) => ly.aborts[abort_slot(e.reason())].fetch_add(1, Ordering::Relaxed),
                };
            }
            if let Ok(commit) = &result {
                probe.ok_writes.fetch_add(l.body_writes, Ordering::Relaxed);
                probe.protocol_commits.fetch_add(1, Ordering::Relaxed);
                if commit.distributed {
                    probe.dist_commits.fetch_add(1, Ordering::Relaxed);
                }
                let started = l.gen_end;
                l.pending
                    .push_back((waiter_for(probe.epoch_keyed, ticket, commit), started));
                l.finish(probe, a1, false);
            }
        });
        result
    }
}
