//! Crash recovery for Primo partitions: checkpoint writing and
//! checkpointed restart with durable-log replay (§5.2).
//!
//! The paper's practicality argument rests on the claim that returning
//! results off the watermark (instead of a 2PC ack) stays recoverable
//! because write-sets and watermarks are logged before results are
//! returned. This crate is the subsystem that cashes that claim in:
//!
//! * [`Checkpointer`] periodically folds the durable, committed prefix of a
//!   partition's log into a [`CheckpointImage`](primo_wal::CheckpointImage) (appended to the log as a
//!   real `Checkpoint` payload) and truncates what the newest *durable*
//!   checkpoint covers, so logs stop growing without bound.
//! * [`RecoveryManager`] rebuilds a crashed partition: wipe the volatile
//!   store, restore the newest checkpoint that was durable at the crash,
//!   replay the retained durable log up to the per-scheme
//!   [`ReplayBound`](primo_wal::ReplayBound) — the recovered watermark
//!   (Watermark), the last durable epoch boundary (COCO) or the durable LSN
//!   (CLV / sync) — re-seed the partition's watermark state, and only then
//!   mark the partition reachable again.
//! * [`compensate_survivors`] makes the crash-abort atomic across
//!   partitions: the transactions the scheme rolled back had already
//!   installed writes on *surviving* partitions, which are undone in place
//!   with the before-images in their log entries and sealed with
//!   `TxnRolledBack` markers so no later replay or checkpoint fold can
//!   resurrect them.
//!
//! Both halves work purely against `primo-storage` / `primo-wal` /
//! `primo-net`, so the runtime's cluster orchestration and the test-suite's
//! hand-driven scenarios share the exact same code path.

pub mod checkpoint;
pub mod compensate;
pub mod manager;

pub use checkpoint::{CheckpointStats, Checkpointer};
pub use compensate::{compensate_partition, compensate_survivors, CompensationReport};
pub use manager::{apply_replay, in_doubt_votes, CrashContext, RecoveryManager, RecoveryReport};
