//! WAL fixtures shared by the append micro-benchmarks, the `bench_matrix`
//! contended-append cells and the contended-append regression gate, so all
//! three measure the same log shapes.

use primo_repro::wal::{LogPayload, LoggedWrite, PartitionWal, ReplicatedLog};
use primo_repro::{PartitionId, TableId, TxnId, Value, WalConfig};
use std::sync::Arc;

/// A replicated log with real-ish delays: local disk 100us, replicas 200us
/// behind a 500us hop. The appender never waits for any of these, so an
/// append measures purely the critical-section work.
pub fn replicated_log(rf: usize) -> ReplicatedLog {
    ReplicatedLog::new(
        PartitionId(0),
        WalConfig {
            replication_factor: rf,
            persist_delay_us: 100,
            replica_persist_delay_us: Some(200),
            ..WalConfig::default()
        },
        500,
        None,
    )
}

/// A one-write write-set entry for transaction `seq`.
pub fn write_payload(seq: u64) -> LogPayload {
    LogPayload::TxnWrites {
        txn: TxnId::new(PartitionId(0), seq),
        ts: seq + 1,
        writes: vec![LoggedWrite::put(
            TableId(0),
            seq % 1_024,
            Value::from_u64(seq),
        )],
    }
}

/// The pre-pipeline append shape: one lock held across the whole replica
/// fan-out, every appender paying one `append_in_term` per replica (exactly
/// the old `ReplicatedLog::append` body). With one replica it is the old
/// direct single-copy append.
pub struct OldFanout {
    lock: std::sync::Mutex<()>,
    replicas: Vec<PartitionWal>,
}

impl OldFanout {
    pub fn new(rf: usize) -> Self {
        OldFanout {
            lock: std::sync::Mutex::new(()),
            replicas: (0..rf)
                .map(|i| PartitionWal::new(PartitionId(0), if i == 0 { 100 } else { 700 }))
                .collect(),
        }
    }

    pub fn append(&self, payload: LogPayload) -> u64 {
        let payload = Arc::new(payload);
        let _guard = self.lock.lock().unwrap();
        for replica in &self.replicas[1..] {
            replica.append_in_term(0, Arc::clone(&payload));
        }
        self.replicas[0].append_in_term(0, payload)
    }
}
