//! Per-transaction phase breakdown timers.
//!
//! Figures 4c and 5c of the paper break transaction latency into phases
//! (`execute`, `2PC`, `timestamp`, `commit`, `backoff`, `return`,
//! `wait_batch`, `sequence`). Each protocol implementation stamps these
//! phases through [`PhaseTimers`]; the experiment driver aggregates them.

use std::time::{Duration, Instant};

/// Latency-breakdown phases, matching Fig 4c/5c legends.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Executing transaction logic (reads, computation, buffering writes).
    Execute,
    /// Two-phase-commit rounds (prepare + commit messages).
    TwoPc,
    /// Maintaining logical timestamps (TicToc / Sundial / Primo).
    Timestamp,
    /// Installing the write-set and releasing locks.
    Commit,
    /// Exponential back-off between aborted attempts.
    Backoff,
    /// Waiting for the group commit (watermark / epoch) to return results.
    Return,
    /// Aria only: waiting for the rest of the batch to finish execution.
    WaitBatch,
    /// Aria only: time spent in the sequencing layer.
    Sequence,
}

impl Phase {
    pub const ALL: [Phase; 8] = [
        Phase::Execute,
        Phase::TwoPc,
        Phase::Timestamp,
        Phase::Commit,
        Phase::Backoff,
        Phase::Return,
        Phase::WaitBatch,
        Phase::Sequence,
    ];

    pub fn label(self) -> &'static str {
        match self {
            Phase::Execute => "execute",
            Phase::TwoPc => "2PC",
            Phase::Timestamp => "timestamp",
            Phase::Commit => "commit",
            Phase::Backoff => "backoff",
            Phase::Return => "return",
            Phase::WaitBatch => "wait_batch",
            Phase::Sequence => "sequence",
        }
    }

    pub(crate) fn index(self) -> usize {
        match self {
            Phase::Execute => 0,
            Phase::TwoPc => 1,
            Phase::Timestamp => 2,
            Phase::Commit => 3,
            Phase::Backoff => 4,
            Phase::Return => 5,
            Phase::WaitBatch => 6,
            Phase::Sequence => 7,
        }
    }
}

/// Accumulates time per phase for one transaction (across retries).
#[derive(Debug, Clone, Default)]
pub struct PhaseTimers {
    nanos: [u64; 8],
}

impl PhaseTimers {
    pub fn new() -> Self {
        Self::default()
    }

    /// Add an explicit duration to a phase.
    #[inline]
    pub fn add(&mut self, phase: Phase, d: Duration) {
        self.nanos[phase.index()] += d.as_nanos() as u64;
    }

    /// Time a closure and charge it to `phase`.
    #[inline]
    pub fn time<R>(&mut self, phase: Phase, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let r = f();
        self.add(phase, start.elapsed());
        r
    }

    /// Nanoseconds recorded for a phase.
    pub fn get(&self, phase: Phase) -> u64 {
        self.nanos[phase.index()]
    }

    /// Total recorded nanoseconds over all phases.
    pub fn total(&self) -> u64 {
        self.nanos.iter().sum()
    }

    /// Merge another breakdown into this one.
    pub fn merge(&mut self, other: &PhaseTimers) {
        for i in 0..self.nanos.len() {
            self.nanos[i] += other.nanos[i];
        }
    }

    /// Raw nanosecond array in [`Phase::ALL`] order.
    pub fn as_array(&self) -> [u64; 8] {
        self.nanos
    }
}

/// RAII helper: charges the elapsed time to a phase when dropped.
pub struct PhaseGuard<'a> {
    timers: &'a mut PhaseTimers,
    phase: Phase,
    start: Instant,
}

impl<'a> PhaseGuard<'a> {
    pub fn new(timers: &'a mut PhaseTimers, phase: Phase) -> Self {
        PhaseGuard {
            timers,
            phase,
            start: Instant::now(),
        }
    }
}

impl Drop for PhaseGuard<'_> {
    fn drop(&mut self) {
        self.timers.add(self.phase, self.start.elapsed());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_get() {
        let mut t = PhaseTimers::new();
        t.add(Phase::Execute, Duration::from_micros(5));
        t.add(Phase::Execute, Duration::from_micros(7));
        t.add(Phase::TwoPc, Duration::from_micros(3));
        assert_eq!(t.get(Phase::Execute), 12_000);
        assert_eq!(t.get(Phase::TwoPc), 3_000);
        assert_eq!(t.total(), 15_000);
    }

    #[test]
    fn time_closure_records_something() {
        let mut t = PhaseTimers::new();
        let v = t.time(Phase::Commit, || {
            std::thread::sleep(Duration::from_millis(1));
            42
        });
        assert_eq!(v, 42);
        assert!(t.get(Phase::Commit) >= 500_000);
    }

    #[test]
    fn merge_sums_all_phases() {
        let mut a = PhaseTimers::new();
        let mut b = PhaseTimers::new();
        a.add(Phase::Backoff, Duration::from_nanos(10));
        b.add(Phase::Backoff, Duration::from_nanos(15));
        b.add(Phase::Return, Duration::from_nanos(5));
        a.merge(&b);
        assert_eq!(a.get(Phase::Backoff), 25);
        assert_eq!(a.get(Phase::Return), 5);
    }

    #[test]
    fn all_phases_have_distinct_indices_and_labels() {
        let mut seen = std::collections::HashSet::new();
        for p in Phase::ALL {
            assert!(seen.insert(p.label()));
        }
        assert_eq!(seen.len(), 8);
    }

    #[test]
    fn guard_charges_on_drop() {
        let mut t = PhaseTimers::new();
        {
            let _g = PhaseGuard::new(&mut t, Phase::Return);
            std::thread::sleep(Duration::from_micros(200));
        }
        assert!(t.get(Phase::Return) > 0);
    }
}
