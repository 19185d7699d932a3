//! Batched remote-read fan-out.
//!
//! The Appendix A model (`primo-core`'s `analysis` module) makes the remote
//! round-trip ratio `t_r/t_l ≈ 20` the dominant term in distributed
//! transaction cost — yet a naive execution path pays it once per remote
//! record, *sequentially*. This module turns the per-record round trips into
//! **one parallel fan-out per attempt**: a [`Footprint`] (the remote keys the
//! attempt expects to touch) is resolved with a single batched fetch per
//! involved partition, charged via `SimNetwork::round_trip_multi` (cost =
//! slowest partition, not the sum), and the observed record versions are
//! parked in a per-attempt [`ReadFanout`] buffer.
//!
//! Footprints come from two sources:
//!
//! * **static hints** — [`TxnProgram::read_hint`](crate::txn::TxnProgram::read_hint)
//!   lets workloads declare statically-known key sets (YCSB op lists; the
//!   key-determined fraction of TPC-C);
//! * **learned footprints** — the worker's retry loop harvests the aborted
//!   attempt's remote access set ([`ReadFanout::learned`]) as the next
//!   attempt's plan, reconnaissance-style, so even hint-less programs
//!   converge to one fan-out per attempt.
//!
//! Correctness is untouched: the buffer only decides whether a remote read
//! still owes its *network charge*. Every protocol's read machinery (TicToc
//! validation, 2PL lock acquisition, Sundial leases, Aria reservations) runs
//! unchanged against the live record, so a stale prefetch is detected exactly
//! like a conflicting read today — it merely pays the fallback round trip.

use crate::cluster::Cluster;
use parking_lot::Mutex;
use primo_common::{Key, PartitionId, TableId, Ts, TxnId};
use primo_trace::TraceEventKind;
use std::collections::HashMap;

/// The remote-read fan-out's metrics (cluster-lifetime).
pub mod metrics {
    primo_common::metrics! {
        /// Batched remote-read fan-outs issued (one per resolved non-empty
        /// [`Footprint`](super::Footprint)).
        FANOUTS: CounterDef("prefetch.fanouts", "fanouts");
        /// Remote reads served from a prefetch buffer (no round trip).
        HITS: CounterDef("prefetch.hits", "reads");
        /// Remote reads whose prefetched record moved underneath the buffer
        /// (fell back to a fresh round trip).
        STALE: CounterDef("prefetch.stale", "reads");
        /// Remote reads with no prefetch entry (unplanned keys, or batching
        /// off): the sequential path.
        MISSES: CounterDef("prefetch.misses", "reads");
        /// hits / (hits + stale + misses); 0 when no remote read ran.
        HIT_RATE: GaugeDef("prefetch.hit_rate", "ratio");
    }
}

/// A remote-read plan: the out-of-home keys one transaction attempt expects
/// to touch. Deduplicated; home-partition keys are dropped (local reads are
/// free).
#[derive(Debug, Clone, Default)]
pub struct Footprint {
    keys: Vec<(PartitionId, TableId, Key)>,
}

impl Footprint {
    /// Build a plan from raw keys (a program's `read_hint()` or a previous
    /// attempt's observed access set), keeping only remote ones.
    pub fn from_keys(home: PartitionId, keys: Vec<(PartitionId, TableId, Key)>) -> Self {
        let mut out: Vec<(PartitionId, TableId, Key)> = Vec::with_capacity(keys.len());
        for k in keys {
            if k.0 != home && !out.contains(&k) {
                out.push(k);
            }
        }
        Footprint { keys: out }
    }

    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    pub fn len(&self) -> usize {
        self.keys.len()
    }
}

/// What the prefetch buffer knows about a remote read that is about to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrefetchOutcome {
    /// The key was fetched in the fan-out and the record is unchanged since:
    /// the read is served from the batch, no round trip owed.
    Hit,
    /// The key was fetched but the record moved underneath the buffer; the
    /// read falls back to a fresh round trip (an ordinary conflict).
    Stale,
    /// The key was not part of the fan-out (or batching is off).
    Miss,
}

/// Per-attempt prefetch buffer filled by [`ReadFanout::resolve`] and
/// consulted by the protocol contexts before paying a per-record round trip.
///
/// Also the learning tap: contexts report every remote access through
/// [`ReadFanout::observe`], and the worker turns the observations of an
/// aborted attempt into the retry's [`Footprint`].
#[derive(Debug, Default)]
pub struct ReadFanout {
    /// `(partition, table, key)` → record `wts` observed at fan-out time
    /// (`None` = no record existed on the owner at that point).
    entries: HashMap<(PartitionId, TableId, Key), Option<Ts>>,
    /// Remote keys this attempt actually touched, in access order.
    observed: Mutex<Vec<(PartitionId, TableId, Key)>>,
}

impl ReadFanout {
    /// An empty buffer: every lookup is a [`PrefetchOutcome::Miss`], so the
    /// attempt behaves exactly like the sequential path.
    pub fn empty() -> Self {
        Self::default()
    }

    /// Execute the plan: one batched fetch per involved remote partition,
    /// charged as a single `round_trip_multi` (the slowest partition bounds
    /// the stall, not the sum). Crashed or out-of-range partitions are
    /// skipped — their keys simply stay Miss and the read path reports
    /// `RemoteUnavailable` exactly as it would without batching.
    pub fn resolve(&mut self, cluster: &Cluster, home: PartitionId, txn: TxnId, plan: &Footprint) {
        let mut parts: Vec<PartitionId> = Vec::new();
        for (p, _, _) in &plan.keys {
            if *p != home
                && (p.0 as usize) < cluster.num_partitions()
                && !cluster.net.is_crashed(*p)
                && !parts.contains(p)
            {
                parts.push(*p);
            }
        }
        if parts.is_empty() {
            return;
        }
        if !cluster.net.round_trip_multi(home, &parts) {
            // A partition crashed between the filter and the charge: the
            // fan-out was paid but nothing trustworthy came back.
            return;
        }
        let mut keys = 0u32;
        for (p, t, k) in &plan.keys {
            if !parts.contains(p) {
                continue;
            }
            let wts = cluster.partition(*p).store.get(*t, *k).map(|r| r.wts());
            self.entries.insert((*p, *t, *k), wts);
            keys += 1;
        }
        cluster.metrics.inc(&metrics::FANOUTS);
        cluster.recorder.emit(
            Some(txn),
            Some(home),
            TraceEventKind::PrefetchIssued {
                partitions: parts.len() as u32,
                keys,
            },
        );
    }

    /// Consult the buffer for a value-carrying remote read: a hit requires
    /// the live record's `wts` to still match what the fan-out observed
    /// (both "absent then, absent now" and "same version" qualify).
    pub fn check_value(
        &self,
        cluster: &Cluster,
        p: PartitionId,
        table: TableId,
        key: Key,
    ) -> PrefetchOutcome {
        match self.entries.get(&(p, table, key)) {
            None => PrefetchOutcome::Miss,
            Some(observed) => {
                let current = cluster.partition(p).store.get(table, key).map(|r| r.wts());
                if *observed == current {
                    PrefetchOutcome::Hit
                } else {
                    PrefetchOutcome::Stale
                }
            }
        }
    }

    /// Consult the buffer for a *dummy* read (lock-only, no value consumed):
    /// key presence in the batch is enough — the exclusive lock and the
    /// post-lock lifecycle re-check pin the live record either way.
    pub fn covers(&self, p: PartitionId, table: TableId, key: Key) -> bool {
        self.entries.contains_key(&(p, table, key))
    }

    /// Record a remote access for footprint learning.
    pub fn observe(&self, p: PartitionId, table: TableId, key: Key) {
        self.observed.lock().push((p, table, key));
    }

    /// The remote access set this attempt actually touched — the retry's
    /// prefetch plan. Empty if the attempt aborted before any remote access.
    pub fn learned(&self, home: PartitionId) -> Footprint {
        Footprint::from_keys(home, self.observed.lock().clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use primo_common::config::ClusterConfig;
    use primo_common::Value;

    const T: TableId = TableId(0);

    fn setup() -> std::sync::Arc<Cluster> {
        let cluster = Cluster::new(ClusterConfig::for_tests(3));
        for p in 0..3u32 {
            for k in 0..8u64 {
                cluster
                    .partition(PartitionId(p))
                    .store
                    .insert(T, k, Value::from_u64(k));
            }
        }
        cluster
    }

    #[test]
    fn footprint_drops_home_keys_and_duplicates() {
        let fp = Footprint::from_keys(
            PartitionId(0),
            vec![
                (PartitionId(0), T, 1),
                (PartitionId(1), T, 2),
                (PartitionId(1), T, 2),
                (PartitionId(2), T, 3),
            ],
        );
        assert_eq!(fp.len(), 2);
    }

    #[test]
    fn resolve_charges_one_round_trip_for_many_partitions() {
        let cluster = setup();
        let txn = cluster.next_txn_id(PartitionId(0));
        let before = cluster.net.round_trips_charged();
        let mut fanout = ReadFanout::empty();
        let plan = Footprint::from_keys(
            PartitionId(0),
            vec![
                (PartitionId(1), T, 1),
                (PartitionId(1), T, 2),
                (PartitionId(2), T, 3),
            ],
        );
        fanout.resolve(&cluster, PartitionId(0), txn, &plan);
        assert_eq!(
            cluster.net.round_trips_charged() - before,
            1,
            "three keys on two partitions fan out as one parallel round trip"
        );
        assert_eq!(
            fanout.check_value(&cluster, PartitionId(1), T, 1),
            PrefetchOutcome::Hit
        );
        assert_eq!(
            fanout.check_value(&cluster, PartitionId(2), T, 3),
            PrefetchOutcome::Hit
        );
        assert_eq!(
            fanout.check_value(&cluster, PartitionId(2), T, 7),
            PrefetchOutcome::Miss
        );
        cluster.shutdown();
    }

    #[test]
    fn version_bump_turns_a_hit_stale() {
        let cluster = setup();
        let txn = cluster.next_txn_id(PartitionId(0));
        let mut fanout = ReadFanout::empty();
        let plan = Footprint::from_keys(PartitionId(0), vec![(PartitionId(1), T, 4)]);
        fanout.resolve(&cluster, PartitionId(0), txn, &plan);
        let rec = cluster
            .partition(PartitionId(1))
            .store
            .get(T, 4)
            .expect("loaded");
        rec.install(Value::from_u64(99), 1_000);
        assert_eq!(
            fanout.check_value(&cluster, PartitionId(1), T, 4),
            PrefetchOutcome::Stale
        );
        cluster.shutdown();
    }

    #[test]
    fn a_key_absent_at_fanout_and_at_read_is_still_a_hit() {
        let cluster = setup();
        let txn = cluster.next_txn_id(PartitionId(0));
        let mut fanout = ReadFanout::empty();
        let plan = Footprint::from_keys(PartitionId(0), vec![(PartitionId(1), T, 404)]);
        fanout.resolve(&cluster, PartitionId(0), txn, &plan);
        // The NotFound abort happens identically with or without batching —
        // the batch answered "no such record" authoritatively.
        assert_eq!(
            fanout.check_value(&cluster, PartitionId(1), T, 404),
            PrefetchOutcome::Hit
        );
        assert!(fanout.covers(PartitionId(1), T, 404));
        cluster.shutdown();
    }

    #[test]
    fn crashed_partitions_are_skipped_not_fetched() {
        let cluster = setup();
        let txn = cluster.next_txn_id(PartitionId(0));
        cluster.net.set_crashed(PartitionId(2), true);
        let before = cluster.net.round_trips_charged();
        let mut fanout = ReadFanout::empty();
        let plan = Footprint::from_keys(
            PartitionId(0),
            vec![(PartitionId(1), T, 1), (PartitionId(2), T, 2)],
        );
        fanout.resolve(&cluster, PartitionId(0), txn, &plan);
        assert_eq!(cluster.net.round_trips_charged() - before, 1);
        assert_eq!(
            fanout.check_value(&cluster, PartitionId(1), T, 1),
            PrefetchOutcome::Hit
        );
        assert_eq!(
            fanout.check_value(&cluster, PartitionId(2), T, 2),
            PrefetchOutcome::Miss,
            "the crashed partition's key stays a miss so the read path aborts as today"
        );
        cluster.shutdown();
    }

    #[test]
    fn learned_footprint_reproduces_the_observed_remote_set() {
        let fanout = ReadFanout::empty();
        fanout.observe(PartitionId(1), T, 7);
        fanout.observe(PartitionId(0), T, 1); // home — dropped
        fanout.observe(PartitionId(1), T, 7); // duplicate — dropped
        fanout.observe(PartitionId(2), T, 9);
        let plan = fanout.learned(PartitionId(0));
        assert_eq!(plan.len(), 2);
    }
}
