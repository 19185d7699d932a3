//! Correctness checks run against the store after every round, with the
//! workers stopped.

use primo_repro::runtime::Cluster;
use primo_repro::storage::LifecycleState;
use primo_repro::workloads::codec::field;
use primo_repro::workloads::tpcc::{
    DISTRICT, D_DELIV_O_ID, D_NEXT_O_ID, D_YTD, NEW_ORDER, ORDER, WAREHOUSE, W_YTD,
};
use primo_repro::workloads::ycsb::YCSB_TABLE;
use primo_repro::{PartitionId, TableId, TpccConfig, Value};

fn visible(cluster: &Cluster, p: PartitionId, table: TableId, key: u64) -> Option<Value> {
    cluster
        .partition(p)
        .store
        .get(table, key)
        .filter(|r| r.state() == LifecycleState::Visible)
        .map(|r| r.read().value)
}

/// YCSB: every record starts at counter 0 and each read-modify-write adds 1,
/// so the counters must sum to the read-modify-writes of the attempts that
/// returned `Ok` — no more (a lost abort), no fewer (a lost update).
pub fn ycsb_counters(
    cluster: &Cluster,
    keys_per_partition: u64,
    ok_writes: u64,
) -> Result<(), String> {
    let mut sum = 0u64;
    for p in cluster.partition_ids() {
        for key in 0..keys_per_partition {
            // The counter is the value's first 8 bytes, little-endian.
            sum += visible(cluster, p, YCSB_TABLE, key)
                .ok_or_else(|| format!("YCSB key {key} on {p:?} is missing"))?
                .as_u64();
        }
    }
    if sum == ok_writes {
        Ok(())
    } else {
        Err(format!(
            "YCSB counters sum to {sum}, but committed attempts made {ok_writes} read-modify-writes"
        ))
    }
}

/// TPC-C consistency condition 1 (W_YTD = sum of its districts' D_YTD) plus
/// the order bookkeeping NewOrder and Delivery maintain: in every district,
/// orders `1..D_NEXT_O_ID` exist and order `D_NEXT_O_ID` does not, and
/// exactly the orders in `[D_DELIV_O_ID, D_NEXT_O_ID)` keep a NEW-ORDER row.
pub fn tpcc_consistency(cluster: &Cluster, cfg: &TpccConfig) -> Result<(), String> {
    for w in 0..cfg.total_warehouses() {
        let p = cfg.partition_of_warehouse(w);
        let warehouse =
            visible(cluster, p, WAREHOUSE, w).ok_or_else(|| format!("warehouse {w} is missing"))?;
        let mut district_ytd = 0u64;
        for d in 0..cfg.districts_per_warehouse {
            let dk = cfg.district_key(w, d);
            let district = visible(cluster, p, DISTRICT, dk)
                .ok_or_else(|| format!("district {w}/{d} is missing"))?;
            district_ytd += field(&district, D_YTD);
            let next = field(&district, D_NEXT_O_ID);
            let delivered_below = field(&district, D_DELIV_O_ID);
            for o in 1..=next {
                let key = cfg.order_key(w, d, o);
                let has_order = visible(cluster, p, ORDER, key).is_some();
                if has_order != (o < next) {
                    return Err(format!(
                        "district {w}/{d}: order {o} present={has_order} with D_NEXT_O_ID={next}"
                    ));
                }
                let has_new_order = visible(cluster, p, NEW_ORDER, key).is_some();
                if o < next && has_new_order != (o >= delivered_below) {
                    return Err(format!(
                        "district {w}/{d}: NEW-ORDER {o} present={has_new_order} with \
                         D_DELIV_O_ID={delivered_below}, D_NEXT_O_ID={next}"
                    ));
                }
            }
        }
        let w_ytd = field(&warehouse, W_YTD);
        if w_ytd != district_ytd {
            return Err(format!(
                "warehouse {w}: W_YTD={w_ytd} but its districts' D_YTD sum to {district_ytd}"
            ));
        }
    }
    Ok(())
}
